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
model of the all-ones quadratic form.  ``verify_psi`` proves that isomorphism
from the generators: a bijection f with f(1) = 1 that satisfies
f(s y) = f(s) f(y) for every s in a generating set S and every y is a
homomorphism, by induction on the length of a word in S.  The induction needs
every element to be a word in S and the target law to be associative; both
are checked (the second as additivity of A over all 2^n subsets).  With S the
central involution and the n-1 generator lifts, the proof costs a 2^n image
table and n * 2^n law checks, not the 4^n of checking every pair, and runs
for every n up to MAX_N.  ``verify_en_table`` checks the mod-8 decomposition
of E(n) x Z2 into central products.
"""

from __future__ import annotations

from dataclasses import dataclass

from .f2linalg import _span
from .gexgroup import (
    GexGroup,
    GroupClass,
    BaseKind,
    from_form,
    group_class_of_form_class,
)
from .quadform import _DECIMAL, QuadraticForm, classify, direct_sum, zero_form

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


def _sign_mask_is_additive(n: int) -> bool:
    """A(s) for every subset s of n bits equals the span table of the
    single-bit masks A(1 << i), at s: A is linear, so the E(n) law is
    associative with identity 0."""
    masks = [_sign_mask(s) for s in range(1 << n)]
    return masks == _span([masks[1 << i] for i in range(n)])


def _generator_lifts(g: GexGroup) -> list[int]:
    """lift[v]: the packed ascending product of the generator lifts
    1 << (i + 1) over the set bits i of v, one law application per entry."""
    lift = [0] * (1 << g.dim)
    for v in range(1, 1 << g.dim):
        low = v & -v
        lift[v] = g.pmul(low << 1, lift[v ^ low])
    return lift


def _psi_images(lift: list[int]) -> list[int]:
    """The image in E(n) of every packed cocycle-model element, indexed by it.

    (v, eps) is the central involution to the power eps ^ sign(lift[v]) times
    the ascending product of the lifts over the set bits of v.  psi sends the
    central involution to -1 and that product to the ascending product of the
    e_i over v, times e_n when v is odd (so the lift of e_i goes to e_i e_n).
    An ascending product of distinct generators is a blade with sign 0, so
    (v, eps) maps to the blade of v, plus e_n when v is odd, with sign
    eps ^ sign(lift[v]).
    """
    top = len(lift)  # 1 << (n - 1): the bit of e_n
    images = []
    for v, lv in enumerate(lift):
        image = ((v | top if v.bit_count() & 1 else v) << 1) | (lv & 1)
        images += (image, image ^ 1)
    return images


def verify_psi(n: int) -> bool:
    """Prove that the generator map psi from the cocycle model of the
    presented group onto E(n) is a bijective homomorphism, for 2 <= n <= MAX_N.

    The proof is the generator lemma: let f be a bijection with f(1) = 1 from
    a group generated by S onto a set with an associative law.  If
    f(s y) = f(s) f(y) for every s in S and every y, then f is a homomorphism
    (write x as a word in S and induct on its length).  Here S is the central
    involution and the n-1 generator lifts.  Both premises the induction uses
    are checked too: every element is the central involution to some power
    times a product of lifts (``lift[v] >> 1 == v``), and the E(n) law is
    associative because its sign mask is additive over all 2^n subsets.
    Images are checked to be even subsets and pairwise distinct, so psi is
    onto E(n).

    Cost: a 2^n image table built with one law application per element, 2^n
    sign masks, and n * 2^n law checks, against 4^n for every pair.
    """
    if not 2 <= n <= MAX_N:
        raise ValueError(f"verify_psi supported for 2 <= n <= {MAX_N}")
    if not _sign_mask_is_additive(n):
        return False
    g = from_form(g0_form(n - 1))
    lift = _generator_lifts(g)
    if any(lv >> 1 != v for v, lv in enumerate(lift)):
        return False
    images = _psi_images(lift)
    if images[0] != 0 or len(set(images)) != g.order:
        return False
    if any((image >> 1).bit_count() & 1 for image in images):
        return False
    # Images multiply like cocycle-model elements, with the sign mask of the
    # left factor as its row: pmul(s, y) = s ^ y ^ parity(R(s) & y).
    for s in [1] + [1 << (i + 1) for i in range(n - 1)]:
        rs = g.cocycle_row(s)
        ps = images[s]
        a_s = _sign_mask(ps >> 1) << 1
        for y in range(g.order):
            py = images[y]
            if images[s ^ y ^ ((rs & y).bit_count() & 1)] != ps ^ py ^ (
                (a_s & py).bit_count() & 1
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


def parse_n(text: str) -> int:
    """n in canonical decimal, as parse_form reads l=; else ValueError."""
    if not _DECIMAL.fullmatch(text):
        raise ValueError(f"n must be a decimal integer ({_DECIMAL.pattern}), got {text!r}")
    return int(text)


def verify_en_table(n_max: int) -> list[EnTableRow]:
    """The rows n = 2..n_max of the E(n) x Z2 table; raises ValueError unless
    2 <= n_max <= MAX_N."""
    if not 2 <= n_max <= MAX_N:
        raise ValueError(f"E(n) table needs 2 <= n <= {MAX_N}, got n = {n_max}")
    rows = []
    for n in range(2, n_max + 1):
        rows.append(
            EnTableRow(n, n % 8, en_computed_class(n), en_expected_class(n))
        )
    return rows
