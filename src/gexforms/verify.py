"""The aggregated verification suite behind `gexforms verify-paper`.

Each check pits an implementation path against an independent route (an
exhaustive oracle, an explicit construction, or a published table) and
reports pass/fail with timing.  The CLI exits nonzero when any check fails.
"""

from __future__ import annotations

import os
import random
import re
import time

from . import admissible as adm
from . import clifford, gexgroup, quadform
from .f2linalg import _Record, _row_image

DEFAULT_SEED = 271828
SEED_ENV_VAR = "GEXFORMS_SEED"


def get_seed() -> int:
    """The seed of every randomized check: GEXFORMS_SEED if set, written as
    -?[0-9]+, else DEFAULT_SEED.  Raises ValueError on any other spelling."""
    raw = os.environ.get(SEED_ENV_VAR)
    if not raw:
        return DEFAULT_SEED
    if not re.fullmatch(r"-?[0-9]+", raw):
        raise ValueError(f"{SEED_ENV_VAR} must be an integer (-?[0-9]+), got {raw!r}")
    return int(raw)


class CheckResult(_Record):
    _fields = ("name", "claim", "ok", "detail", "elapsed")

    def __init__(self, name: str, claim: str, ok: bool, detail: str, elapsed: float):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "claim", claim)
        object.__setattr__(self, "ok", ok)
        object.__setattr__(self, "detail", detail)
        object.__setattr__(self, "elapsed", elapsed)

    def format(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        return f"[{status}] {self.name} ({self.claim}) {self.elapsed:.2f}s {self.detail}"


class VerificationReport(_Record):
    _fields = ("checks",)

    def __init__(self, checks: tuple[CheckResult, ...]):
        object.__setattr__(self, "checks", checks)

    @property
    def passed(self) -> int:
        return sum(c.ok for c in self.checks)

    @property
    def failed(self) -> int:
        return sum(not c.ok for c in self.checks)

    @property
    def ok(self) -> bool:
        return self.failed == 0

    def summary(self) -> str:
        return f"{self.passed}/{len(self.checks)} checks passed"


def _check(name: str, claim: str, fn) -> CheckResult:
    start = time.perf_counter()
    ok, detail = fn()
    return CheckResult(name, claim, ok, detail, time.perf_counter() - start)


# -- individual checks ---------------------------------------------------------


def check_classification_complete(max_dim: int = 3):
    """classify is a complete isometry invariant, against the GL exhaustion,
    and at each dim it returns exactly the classes of ``form_classes``."""
    checked = 0
    for dim in range(max_dim + 1):
        forms = list(quadform.all_forms(dim))
        classes = [quadform.classify(q) for q in forms]
        unmatched = set(classes) ^ set(quadform.form_classes(dim))
        if unmatched:
            names = ", ".join(sorted(fc.describe() for fc in unmatched))
            return False, f"classify and form_classes differ at dim {dim}: {names}"
        for i, q in enumerate(forms):
            for j in range(i, len(forms)):
                witness = quadform.isometry_oracle(q, forms[j])
                if (classes[i] == classes[j]) != (witness is not None):
                    return False, f"disagreement at {q.to_string()} vs {forms[j].to_string()}"
                checked += 1
    return True, f"{checked} form pairs"


def check_admissibility(max_exhaustive_dim: int = 4, random_per_dim: int = 200):
    """Classification-based admissibility equals the definition-level oracle
    (is_admissible_bruteforce, a greedy walk for a basis of vectors with
    Q = 1 and a nonzero polar row), and every basis it finds passes the
    direct checks."""
    rng = random.Random(get_seed())
    anchors = [
        (quadform.h_plus(), False),
        (quadform.direct_sum(quadform.h_plus(), quadform.q_one()), False),
        (quadform.h_minus(), True),
        (quadform.direct_sum(quadform.h_plus(), quadform.h_plus()), True),
    ]
    for q, expected in anchors:
        if adm.is_admissible(q) != expected:
            return False, f"anchor {q.to_string()} expected {expected}"
        if (adm.is_admissible_bruteforce(q) is not None) != expected:
            return False, f"oracle at anchor {q.to_string()} expected {expected}"
    forms = [
        q for dim in range(1, max_exhaustive_dim + 1) for q in quadform.all_forms(dim)
    ]
    forms += [
        quadform.random_form(dim, rng) for dim in (5, 6) for _ in range(random_per_dim)
    ]
    for q in forms:
        basis = adm.is_admissible_bruteforce(q)
        if adm.is_admissible(q) != (basis is not None):
            return False, f"oracle disagreement at {q.to_string()}"
        if basis is not None and not adm.check_basis(q, basis):
            return False, f"invalid oracle basis at {q.to_string()}"
    return True, f"{len(forms)} forms"


def check_splitting(max_dim: int = 3, max_zeros: int = 3):
    """Admissibility ignores zero orthogonal summands."""
    checked = 0
    for dim in range(1, max_dim + 1):
        for q in quadform.all_forms(dim):
            base = adm.is_admissible(q)
            for n in range(max_zeros + 1):
                padded = quadform.direct_sum(q, quadform.zero_form(n))
                if adm.is_admissible(padded) != base:
                    return False, f"splitting broken at {q.to_string()} + 0^{n}"
                checked += 1
    return True, f"{checked} padded forms"


def check_dictionary(rounds: int = 50):
    """Reference tables are isomorphic to the models of the advertised forms;
    central products and extra Z2 factors act blockwise on forms, over
    ``rounds`` random products of combined dimension <= 8."""
    rng = random.Random(get_seed() + 1)
    table_expect = [
        (gexgroup.Q8_TABLE, quadform.h_minus(), "Q8"),
        (gexgroup.D8_TABLE, quadform.h_plus(), "D8"),
        (gexgroup.Z4_TABLE, quadform.q_one(), "Z4"),
    ]
    for table, expected, label in table_expect:
        if not gexgroup.iso_oracle(
            gexgroup.TableGroup(table), gexgroup.from_form(expected)
        ):
            return False, f"{label} table is not the group of {expected.to_string()}"
    products = 0
    while products < rounds:
        d1 = rng.randrange(1, 5)
        d2 = rng.randrange(1, 5)
        nz = rng.randrange(0, 9 - d1 - d2)
        q1, q2 = quadform.random_form(d1, rng), quadform.random_form(d2, rng)
        try:
            prod = gexgroup.central_product(
                gexgroup.from_form(q1), gexgroup.from_form(q2)
            )
        except ValueError:
            continue  # a factor with trivial Frattini subgroup
        products += 1
        q12 = quadform.direct_sum(q1, q2)
        if gexgroup.q_from_group(prod) != q12:
            return False, f"central product form mismatch at {q12.to_string()}"
        padded = gexgroup.direct_z2(prod, nz)
        if gexgroup.q_from_group(padded) != quadform.direct_sum(
            q12, quadform.zero_form(nz)
        ):
            return False, f"Z2-factor form mismatch at {q12.to_string()} + 0^{nz}"
        if padded.order != 1 << (d1 + d2 + nz + 1):
            return False, f"order {padded.order} at {q12.to_string()} + 0^{nz}"
    return True, f"3 tables + {rounds} random products"


def check_central_products():
    """Order, Frattini size, and the Q8*Q8 = D8*D8 coincidence."""
    q8 = gexgroup.from_form(quadform.h_minus())
    d8 = gexgroup.from_form(quadform.h_plus())
    q8q8 = gexgroup.central_product(q8, q8)
    d8d8 = gexgroup.central_product(d8, d8)
    if q8q8.order != 32:
        return False, f"|Q8*Q8| = {q8q8.order}"
    if gexgroup.frattini_order(q8q8) != 2:
        return False, "Frattini of a central product must have order 2"
    if gexgroup.classify_group(q8q8) != gexgroup.classify_group(d8d8):
        return False, "Q8*Q8 and D8*D8 classify differently"
    if not gexgroup.iso_oracle(q8q8, d8d8):
        return False, "oracle rejects Q8*Q8 = D8*D8"
    if gexgroup.iso_oracle(q8, d8):
        return False, "oracle conflates Q8 and D8"
    return True, "orders, Frattini, and order-32 isomorphism"


def check_group_laws(max_dim: int = 3):
    """Squaring gives Q and commutators give B_Q, over every element pair.

    Squares go through ``pmul``.  Each commutator (xy)(x^-1 y^-1) is three
    applications of the packed law x * y = x ^ y ^ parity(R(x) & y), reading
    R(x) from ``cocycle_row``; it must equal B_Q(u, v) = parity(P(u) & v),
    where P(u) is the row image of u under the polar form.  The inverse comes
    from the law too: x^2 is central in {0, 1}, so x^-1 = x * x^2 = x ^ x^2.
    Rows, squares and inverses are tabulated once per group.
    """
    checked = 0
    for dim in range(max_dim + 1):
        for q in quadform.all_forms(dim):
            g = gexgroup.from_form(q)
            elements = range(g.order)
            rows = [g.cocycle_row(x) for x in elements]
            squares = [g.pmul(x, x) for x in elements]
            inv = [x ^ sq for x, sq in zip(elements, squares)]
            polar = q.polar().data
            for x in elements:
                if squares[x] != q.eval_bits(x >> 1):
                    return False, f"squaring law at {q.to_string()}"
                rx, ix = rows[x], inv[x]
                rix = rows[ix]
                bx = _row_image(polar, x >> 1) << 1  # skips the central bit of y
                for y in elements:
                    iy = inv[y]
                    xy = x ^ y ^ ((rx & y).bit_count() & 1)
                    ixiy = ix ^ iy ^ ((rix & iy).bit_count() & 1)
                    comm = xy ^ ixiy ^ ((rows[xy] & ixiy).bit_count() & 1)
                    if comm != (bx & y).bit_count() & 1:
                        return False, f"commutator law at {q.to_string()}"
                checked += len(elements)
    return True, f"{checked} element pairs"


def check_psi(n_max: int = 10):
    """The generator map onto E(n) is a bijective homomorphism, proved from
    the relations and the rank of its n-1 generator images
    (``clifford.verify_psi``) for every n = 2..n_max."""
    for n in range(2, n_max + 1):
        if not clifford.verify_psi(n):
            return False, f"generator map fails at n={n}"
    return True, f"generator proof n=2..{n_max}"


def check_en_table(n_max: int = 17):
    """One PASS row per n = 2..n_max, each carrying the residue of its n."""
    rows = clifford.verify_en_table(n_max)
    if [(r.n, r.residue) for r in rows] != [(n, n % 8) for n in range(2, n_max + 1)]:
        return False, f"rows do not cover n=2..{n_max} with their residues mod 8"
    bad = [r for r in rows if not r.ok]
    if bad:
        return False, "; ".join(r.format() for r in bad)
    return True, f"{len(rows)} rows, n=2..{n_max}"


SUITE = [
    (
        "form-classification-complete",
        "normal forms of quadratic forms over GF(2), degenerate included",
        check_classification_complete,
    ),
    (
        "admissibility-theorem-vs-search",
        "admissible forms are H+^m (m>=2), H- + H+^(m-1), H+^m + Q1 (m>=2)",
        check_admissibility,
    ),
    (
        "zero-summand-splitting",
        "admissibility is unchanged by zero orthogonal summands",
        check_splitting,
    ),
    (
        "group-form-dictionary",
        "Q8, D8, Z4 carry H-, H+, Q1; products act blockwise on forms",
        check_dictionary,
    ),
    (
        "central-product-identities",
        "central products amalgamate the involution; Q8*Q8 = D8*D8",
        check_central_products,
    ),
    (
        "group-model-laws",
        "squares realize Q and commutators realize B_Q",
        check_group_laws,
    ),
    (
        "clifford-presentation-iso",
        "E(n) matches the presented group on n-1 anticommuting generators",
        check_psi,
    ),
    (
        "clifford-mod8-table",
        "E(n) x Z2 decomposes into central products by n mod 8",
        check_en_table,
    ),
]


def run_suite() -> VerificationReport:
    return VerificationReport(
        tuple(_check(name, claim, fn) for name, claim, fn in SUITE)
    )
