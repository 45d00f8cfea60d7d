"""The groups E(n) of signed even products of anticommuting generators.

An element is a sign bit plus a subset of {1, ..., n} of even size (bit k of
``subset`` stands for generator index k+1), packed into one int as
``(subset << 1) | sign``.  Multiplication is symmetric difference with a sign
counting the transpositions needed to interleave the two sorted products, plus
one flip per generator squared (each generator squares to -1).

That count is bilinear in the two subsets.  Moving e_j of t to the left past
s costs one transposition per i in s with i > j, and one more flip if j is in
s itself, so e_j contributes the parity of #{i in s : i >= j}.  That parity is
bit j of the sign mask A(s), the row image over s of the unit masks
A(e_i) = (2 << i) - 1, hence

    e_s e_t = (-1)^parity(A(s) & t) e_(s ^ t),

the same law as the cocycle product of ``gexgroup`` with A(s) in place of the
cocycle row.  A is linear by construction, so the law is a bilinear cocycle.

E(n) is isomorphic to the presented group on generators -1, e_1, ..., e_{n-1}
with e_i^2 = -1 and anticommuting generators, which is exactly the cocycle
model of the all-ones quadratic form.  ``verify_psi`` proves that isomorphism
from the relations of the n-1 generator images e_i e_n and the rank of their
vector parts (von Dyck), in (n-1)^2 law applications: no table of E(n) or of
the model, for every n up to MAX_N.  ``verify_en_table`` checks the mod-8
decomposition of E(n) x Z2 into central products.
"""

from __future__ import annotations

from .f2linalg import BitMatrix, _Record, _row_image, rank
from .gexgroup import GroupClass, BaseKind, _read_form, group_class_of_form_class
from .quadform import _DECIMAL, QuadraticForm, classify, direct_sum, zero_form

MAX_N = 17

_UNIT_MASKS = tuple((2 << i) - 1 for i in range(MAX_N))  # A(e_i): bits 0..i


def _sign_mask(s: int) -> int:
    """A(s), the row image of the unit masks A(e_i) = (2 << i) - 1 over s:
    bit j is the parity of the elements of s that are >= j."""
    return _row_image(_UNIT_MASKS, s)


def _en_mul(x: int, y: int) -> int:
    """The product of two packed elements of E(n), n <= MAX_N."""
    return x ^ y ^ ((_sign_mask(x >> 1) << 1 & y).bit_count() & 1)


def g0_form(n_minus_1: int) -> QuadraticForm:
    """The form with all diagonal values 1 and all polar coefficients 1.

    Its cocycle group is the presented group on n-1 generators that square to
    the central involution and pairwise anticommute.
    """
    if not 1 <= n_minus_1 <= MAX_N - 1:
        raise ValueError(f"generator count must be in [1, {MAX_N - 1}]")
    l = n_minus_1
    diag = (1 << l) - 1
    upper = tuple(((1 << l) - 1) ^ ((1 << (i + 1)) - 1) for i in range(l))
    return QuadraticForm(l, diag, upper)


def _generator_images(n: int) -> list[int]:
    """psi(e_i) = e_i e_n for i = 1..n-1, packed: an ascending product of
    distinct generators is the blade of its subset with sign +."""
    top = 1 << (n - 1)
    return [((1 << i) | top) << 1 for i in range(n - 1)]


def verify_psi(n: int) -> bool:
    """Prove that the generator map psi, y_i -> e_i e_n and z -> -1, is an
    isomorphism from the presented group P onto E(n), for 2 <= n <= MAX_N.

    P has generators z, y_1, ..., y_{n-1} and relations z^2 = 1, z central,
    y_i^2 = z and y_i y_j = z y_j y_i for i != j: the cocycle model of
    ``g0_form(n - 1)``.  The proof:

    (1) E(n) is a group of order 2^n.  Its law ``_en_mul`` is
        (s, a)(t, b) = (s ^ t, a + b + parity(A(s) & t)), and A is linear by
        construction, so the sign is a bilinear cocycle: the law is
        associative with identity 0, -1 = (0, 1) is central of order 2, and
        x^2 = (0, parity(A(s) & s)), so x^4 = 1.  The even subsets of n bits
        form a space of dim n - 1, so E(n) has 2^n elements.
    (2) In such a law every square and every commutator is 1 or -1: x^2 has
        the empty subset, and xy and yx have the same one.  So
        ``_read_form(_en_mul, images, 0) == g0_form(n - 1)`` says exactly
        that g_i^2 = -1 and g_i g_j = -g_j g_i for i != j, the relations of
        P at y_i -> g_i = psi(y_i), z -> -1; z^2 = 1 and z central hold by
        (1).  By von Dyck's theorem psi extends to a homomorphism P -> E(n).
    (3) psi is onto.  The vector parts of the g_i are even subsets of rank
        n - 1, so they span the even subsets, and the subgroup generated by
        the g_i maps onto them along x -> subset, whose kernel is {1, -1}.
        It holds -1 = g_1^2 by (2), so it is E(n).
    (4) Collecting a word of P by its relations gives z^eps times the
        ascending product of the y_i over some v, so |P| <= 2^n = |E(n)|.
        A map from P onto E(n) is then a bijection.

    Checked here: the evenness and the rank in (3), and the form in (2).
    The premise of (1) holds by the construction of A; the tests pin A to
    its definition, bit by bit, for every subset of up to 12 generators.

    Cost: n - 1 generator images, one ``rank`` of n - 1 rows and the
    (n - 1)^2 law applications of ``_read_form``, each over the two set bits
    of a generator image: no table, against the 2^n images of psi and the
    4^n pairs of a homomorphism check over all elements.
    """
    if not 2 <= n <= MAX_N:
        raise ValueError(f"verify_psi supported for 2 <= n <= {MAX_N}")
    images = _generator_images(n)
    vectors = [image >> 1 for image in images]
    if any(v.bit_count() & 1 for v in vectors):
        return False
    if rank(BitMatrix(n - 1, n, tuple(vectors))) != n - 1:
        return False
    return _read_form(_en_mul, images, 0) == g0_form(n - 1)


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


class EnTableRow(_Record):
    _fields = ("n", "residue", "computed", "expected")

    def __init__(self, n: int, residue: int, computed: GroupClass, expected: GroupClass):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "residue", residue)
        object.__setattr__(self, "computed", computed)
        object.__setattr__(self, "expected", expected)

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
