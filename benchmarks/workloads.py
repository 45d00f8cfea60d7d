"""Seeded inputs, timed items and correctness gates of the in-process workloads.

Inputs are made here with the benchmark's own GF(2) arithmetic: a form of a
chosen class is written down in normal coordinates and hidden by a random
invertible change of basis, so the library receives only the finished
``QuadraticForm``. Each workload is a fixed schedule of slots; the seed picks
what varies inside a slot (the kind, the hyperbolic rank where it is free,
the hidden basis), never the size of a slot, so that the cost of a batch does
not depend on the seed.

An item is a zero-argument callable that calls into the library through
module attributes, so that hooks installed by ``tracing.Tracer`` see it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

from gexforms import admissible as adm
from gexforms import clifford, gexgroup, quadform

def _parity(x: int) -> int:
    return x.bit_count() & 1


def _is_basis(vectors: list[int]) -> bool:
    pivots: dict[int, int] = {}
    for v in vectors:
        while v:
            top = v.bit_length() - 1
            if top not in pivots:
                pivots[top] = v
                break
            v ^= pivots[top]
        else:
            return False
    return True


def random_basis(n: int, rng: random.Random) -> list[int]:
    """Columns of a uniformly random invertible n x n matrix over GF(2)."""
    while True:
        cols = [rng.getrandbits(n) for _ in range(n)]
        if _is_basis(cols):
            return cols


def normal_form(kind: str, m1: int, m2: int) -> tuple[int, int, tuple[int, ...]]:
    """(dim, diag, upper) of the normal form: H- first, then H+ blocks, then
    Q1, then zeros, in the library's ``l=;d=;u=`` layout."""
    n = 2 * m1 + m2
    upper = [0] * n
    for k in range(m1):
        upper[2 * k] = 1 << (2 * k + 1)
    diag = {"Minus": 0b11, "QOne": 1 << (2 * m1)}.get(kind, 0)
    return n, diag, tuple(upper)


def transform(dim: int, diag: int, upper, cols: list[int]) -> quadform.QuadraticForm:
    """The form v -> Q(Tv) for T with the given columns."""
    polar = list(upper)
    for i in range(dim):
        w = upper[i]
        while w:
            j = (w & -w).bit_length() - 1
            w &= w - 1
            polar[j] |= 1 << i

    def apply(rows, v):
        acc = 0
        while v:
            i = (v & -v).bit_length() - 1
            v &= v - 1
            acc ^= rows[i]
        return acc

    images = [apply(polar, c) for c in cols]
    new_diag = 0
    new_upper = [0] * dim
    for i, c in enumerate(cols):
        new_diag |= (_parity(diag & c) ^ _parity(apply(upper, c) & c)) << i
        for j in range(i + 1, dim):
            new_upper[i] |= _parity(images[i] & cols[j]) << j
    return quadform.QuadraticForm(dim, new_diag, tuple(new_upper))


def hidden_form(kind: str, m1: int, m2: int, rng: random.Random) -> quadform.QuadraticForm:
    n, diag, upper = normal_form(kind, m1, m2)
    return transform(n, diag, upper, random_basis(n, rng))


def form_class(kind: str, m1: int, m2: int) -> quadform.FormClass:
    return quadform.FormClass(2 * m1 + m2, m1, quadform.Kind(kind), m2)


def kinds_for(m1: int, m2: int) -> list[str]:
    if m1 == 0:
        return ["Zero", "QOne"] if m2 else ["Zero"]
    return ["Plus", "Minus"] + (["QOne"] if m2 else [])


def all_classes(dim: int) -> list[tuple[str, int, int]]:
    return [
        (kind, m1, dim - 2 * m1)
        for m1 in range(dim // 2 + 1)
        for kind in kinds_for(m1, dim - 2 * m1)
    ]


@dataclass
class Workload:
    """A fixed batch: items[i]() is timed, check(i, output) runs untimed.

    The first ``queries`` items are the ones whose latencies make up
    item_p50_ms and item_p90_ms; the rest count only in the batch time.
    """

    items: list[Callable[[], object]]
    check: Callable[[int, object], bool]
    corrupt: Callable[[object], object]  # a wrong version of item 0's output
    queries: int


# -- forms-pipeline -------------------------------------------------------------


def _admissible_class(dim: int, rng: random.Random) -> tuple[str, int, int]:
    # Only admissible classes: each then takes the full path through
    # admissible_witness, so symplectic_basis runs exactly 6 times per item.
    kind = rng.choice(("Plus", "Minus", "QOne"))
    lo = 1 if kind == "Minus" else 2
    hi = (dim - 1) // 2 if kind == "QOne" else dim // 2
    m1 = rng.randint(lo, hi)
    return kind, m1, dim - 2 * m1


def forms_pipeline(seed: int, tiny: bool) -> Workload:
    rng = random.Random(f"forms-pipeline/{seed}")
    dims = range(8, 11) if tiny else range(8, 65)
    classes = [_admissible_class(d, rng) for d in dims]
    forms = [hidden_form(*c, rng) for c in classes]

    def item(q):
        return lambda: (
            quadform.classify(q),
            quadform.normal_form_witness(q),
            adm.is_admissible(q),
            adm.admissible_witness(q),
        )

    def check(i, out):
        fc, witness, verdict, basis = out
        q, expected = forms[i], form_class(*classes[i])
        return (
            fc == expected
            and quadform.change_basis(q, witness.map) == quadform.standard_form(expected)
            and verdict is True
            and basis is not None
            and adm.check_basis(q, basis)
        )

    def corrupt(out):
        fc = out[0]
        wrong = quadform.Kind.PLUS if fc.kind is quadform.Kind.MINUS else quadform.Kind.MINUS
        return (quadform.FormClass(fc.dim, fc.m1, wrong, fc.m2),) + out[1:]

    return Workload([item(q) for q in forms], check, corrupt, len(forms))


# -- group-models ---------------------------------------------------------------

# (dim, radical dim m2) of each group slot. The radical fixes the center,
# 2^(m2+1) elements, so large zero summands are pinned here, not drawn. An odd
# number of slots with well separated costs at the top keeps the 50th and
# 90th percentile inside the repeats of one slot.
GROUP_SLOTS = [
    (2, 0), (3, 1), (4, 0), (5, 3), (6, 2), (6, 6), (7, 5), (8, 4), (9, 1),
    (10, 8), (11, 3), (12, 10), (13, 7), (14, 12), (15, 11), (16, 14), (16, 16),
]
TINY_GROUP_SLOTS = [(2, 0), (3, 1), (4, 4)]
H_PLUS, H_MINUS = (0, (0b10, 0)), (0b11, (0b10, 0))


def group_models(seed: int, tiny: bool) -> Workload:
    rng = random.Random(f"group-models/{seed}")
    items, expect = [], []

    slots = TINY_GROUP_SLOTS if tiny else GROUP_SLOTS
    for dim, m2 in slots:
        m1 = (dim - m2) // 2
        kind = rng.choice(kinds_for(m1, m2))
        q = hidden_form(kind, m1, m2, rng)
        partner = None
        if kind != "Zero" and dim + 2 <= gexgroup.FROM_FORM_DIM_CAP:
            pdiag, pupper = rng.choice((H_PLUS, H_MINUS))
            partner = quadform.QuadraticForm(2, pdiag, pupper)
        nz = min(2, gexgroup.FROM_FORM_DIM_CAP - dim)

        def item(q=q, partner=partner, nz=nz):
            g = gexgroup.from_form(q)
            gc = gexgroup.classify_group(g)
            back = gexgroup.q_from_group(g)
            csize = len(gexgroup.center(g))
            cp = None
            if partner is not None:
                cp = gexgroup.central_product(g, gexgroup.from_form(partner)).form
            dz = gexgroup.direct_z2(g, nz).form
            return gc, back, csize, cp, dz

        cp_form = None
        if partner is not None:
            cp_form = quadform.QuadraticForm(
                dim + 2,
                q.diag | partner.diag << dim,
                q.upper + tuple(row << dim for row in partner.upper),
            )
        dz_form = quadform.QuadraticForm(dim + nz, q.diag, q.upper + (0,) * nz)
        gc = gexgroup.group_class_of_form_class(form_class(kind, m1, m2))
        items.append(item)
        expect.append((gc, q, 2 ** (m2 + 1), cp_form, dz_form))

    # iso_oracle pairs at orders 32 and 64 (dims 4 and 5), half same-class.
    # On a same-class pair of a non-abelian class with a radical (m1 > 0 and
    # m2 > 0) the search takes from milliseconds to more than 30 s depending
    # on the hidden bases, so one such pair would set the batch time by
    # itself. Same-class pairs come from the abelian classes and those
    # without a radical; different-class pairs, which the order census
    # rejects, from every class.
    pairs = [(4, True), (4, False)]
    if not tiny:
        pairs = [(d, same) for d in (4, 5) for same in (True, False)] * 4
    for dim, same in pairs:
        classes = all_classes(dim)
        if same:
            c1 = rng.choice([c for c in classes if c[1] == 0 or c[2] == 0])
            c2 = c1
        else:
            c1 = rng.choice(classes)
            c2 = rng.choice([c for c in classes if c != c1])
        q1, q2 = hidden_form(*c1, rng), hidden_form(*c2, rng)
        items.append(
            lambda q1=q1, q2=q2: gexgroup.iso_oracle(
                gexgroup.from_form(q1), gexgroup.from_form(q2)
            )
        )
        expect.append(same)

    n_psi = 4 if tiny else 9
    items.append(lambda: clifford.verify_psi(n_psi))
    expect.append(True)

    def check(i, out):
        return out == expect[i]

    def corrupt(out):
        gc, back, csize, cp, dz = out
        return gc, back, csize + 1, cp, dz

    return Workload(items, check, corrupt, len(slots))


BUILDERS = {"forms-pipeline": forms_pipeline, "group-models": group_models}
