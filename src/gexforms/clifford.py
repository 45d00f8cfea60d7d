"""The groups E(n) of signed even products of anticommuting generators.

An element is a sign bit plus a subset of {1, ..., n} of even size (bit k of
``subset`` stands for generator index k+1), packed into one int as
``(subset << 1) | sign``.  Multiplication is symmetric difference with a sign
counting the transpositions needed to interleave the two sorted products, plus
one flip per generator squared (each generator squares to -1).

That count is bilinear in the two subsets.  Moving e_j of t to the left past
s costs one transposition per i in s with i > j, and one more flip if j is in
s itself, so e_j contributes the parity of #{i in s : i >= j}.  Bit j of the
mask A(s) = s ^ XOR_{i in s} ((1 << i) - 1) is exactly that parity, hence

    e_s e_t = (-1)^parity(A(s) & t) e_(s ^ t),

the same law as the cocycle product of ``gexgroup`` with A(s) in place of the
cocycle row.

E(n) is isomorphic to the presented group on generators -1, e_1, ..., e_{n-1}
with e_i^2 = -1 and anticommuting generators, which is exactly the cocycle
model of the all-ones quadratic form; ``verify_psi`` checks that isomorphism
element by element, and ``verify_en_table`` checks the mod-8 decomposition of
E(n) x Z2 into central products.
"""

from __future__ import annotations

from dataclasses import dataclass

from .gexgroup import (
    GexGroup,
    GroupClass,
    BaseKind,
    from_form,
    group_class_of_form_class,
)
from .quadform import QuadraticForm, classify, direct_sum, zero_form

MAX_N = 17


def _sign_mask(s: int) -> int:
    """A(s) = s ^ XOR_{i in s} ((1 << i) - 1): bit j is the parity of the
    elements of s that are >= j."""
    a = s
    w = s
    while w:
        low = w & -w
        a ^= low - 1
        w ^= low
    return a


def _blade_mul(sa: int, s: int, sb: int, t: int) -> tuple[int, int]:
    """Multiply two signed blades (no evenness constraint)."""
    return (sa ^ sb ^ ((_sign_mask(s) & t).bit_count() & 1), s ^ t)


def g0_form(n_minus_1: int) -> QuadraticForm:
    """The form with all diagonal values 1 and all polar coefficients 1.

    Its cocycle group is the presented group on n-1 generators that square to
    the central involution and pairwise anticommute.
    """
    if not 1 <= n_minus_1 <= 16:
        raise ValueError("generator count must be in [1, 16]")
    l = n_minus_1
    diag = (1 << l) - 1
    upper = tuple(((1 << l) - 1) ^ ((1 << (i + 1)) - 1) for i in range(l))
    return QuadraticForm(l, diag, upper)


def _psi_packed(g: GexGroup, x: int, n: int) -> tuple[int, int]:
    """Image of a packed cocycle-model element under the generator map.

    Decomposes (v, eps) as a power of the central involution times the
    ascending product of generator lifts (whose cocycle weight must be
    accounted for), then multiplies the generator images in E(n).
    """
    v, eps = x >> 1, x & 1
    sign, subset = 0, 0
    lift_product = 0  # packed product of the lifts (e_i, 0), ascending
    w = v
    while w:
        i = (w & -w).bit_length() - 1  # generator e_{i+1}
        w &= w - 1
        sign, subset = _blade_mul(sign, subset, 0, 1 << i)
        lift_product = g.pmul(lift_product, 1 << (i + 1))
    if v.bit_count() % 2:
        subset |= 1 << (n - 1)
    central_power = eps ^ (lift_product & 1)
    return (sign ^ central_power, subset)


def verify_psi(n: int, sample_pairs: int | None = None, rng=None) -> bool:
    """Check that the generator map from the cocycle model of the presented
    group onto E(n) is a bijective homomorphism.

    Exhaustive over all element pairs by default; with ``sample_pairs`` set,
    checks bijectivity exhaustively but the homomorphism law on a sample.
    Capped at n = 10, below MAX_N: every call builds all 2^n images, and the
    exhaustive mode checks all 4^n pairs (about a million at n = 10).
    """
    if not 2 <= n <= 10:
        raise ValueError("verify_psi supported for 2 <= n <= 10")
    g = from_form(g0_form(n - 1))
    images = [_psi_packed(g, x, n) for x in g.elements_packed()]
    if len(set(images)) != g.order:
        return False
    if any(subset.bit_count() % 2 for _, subset in images):
        return False
    # (left factor, right factors) batches: every pair, or the sampled ones.
    if sample_pairs is None:
        pairs = ((x, g.elements_packed()) for x in g.elements_packed())
    else:
        if rng is None:
            raise ValueError("sampled verification needs an rng")
        pairs = (
            (rng.randrange(g.order), (rng.randrange(g.order),))
            for _ in range(sample_pairs)
        )
    # Images packed as (subset << 1) | sign multiply like cocycle-model
    # elements, with the sign mask as the row of the left factor.
    packed = [(subset << 1) | sign for sign, subset in images]
    for x, ys in pairs:
        rx = g.cocycle_row(x)
        px = packed[x]
        ax = _sign_mask(px >> 1) << 1
        for y in ys:
            py = packed[y]
            if packed[x ^ y ^ ((rx & y).bit_count() & 1)] != px ^ py ^ (
                (ax & py).bit_count() & 1
            ):
                return False
    return True


def en_expected_class(n: int) -> GroupClass:
    """The published decomposition of E(n) x Z2 by the residue of n mod 8."""
    if n < 2:
        raise ValueError("n must be at least 2")
    r = n % 8
    if r == 0:
        return GroupClass(BaseKind.Q8_POWER_D8, (n - 2) // 2, 2)
    if r in (1, 3):
        return GroupClass(BaseKind.Q8_POWER, (n - 1) // 2, 1)
    if r in (2, 6):
        return GroupClass(BaseKind.Q8_POWER_Z4, (n - 2) // 2, 1)
    if r == 4:
        return GroupClass(BaseKind.Q8_POWER, (n - 2) // 2, 2)
    # r in (5, 7)
    return GroupClass(BaseKind.Q8_POWER_D8, (n - 1) // 2, 1)


@dataclass(frozen=True)
class EnTableRow:
    n: int
    residue: int
    computed: GroupClass
    expected: GroupClass

    @property
    def ok(self) -> bool:
        return self.computed == self.expected

    def format(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        return (
            f"n={self.n} residue={self.residue} "
            f"computed={self.computed.describe()} "
            f"expected={self.expected.describe()} {status}"
        )


def en_computed_class(n: int) -> GroupClass:
    """Decomposition of E(n) x Z2 computed from the presented-group form.

    Works at the form level (classification plus the group dictionary) so the
    n = 17 row stays within the group-model dimension cap.
    """
    q = direct_sum(g0_form(n - 1), zero_form(1))
    return group_class_of_form_class(classify(q))


def verify_en_table(n_max: int) -> list[EnTableRow]:
    if n_max > MAX_N:
        raise ValueError(f"table verification capped at n = {MAX_N}")
    rows = []
    for n in range(2, n_max + 1):
        rows.append(
            EnTableRow(n, n % 8, en_computed_class(n), en_expected_class(n))
        )
    return rows
