"""Quadratic forms over GF(2): evaluation, polar forms, classification, isometry.

A form is stored by its values on the standard basis (``diag``) and the polar
coefficients b_ij for i < j (``upper``, one packed int per row).  Every form on
GF(2)^l is isometric to exactly one of

    H+^m1 (+) 0^m2        H- (+) H+^(m1-1) (+) 0^m2        H+^m1 (+) Q1 (+) 0^(m2-1)

with 2*m1 + m2 = l, plus the zero form; ``form_classes`` lists them per
dimension.  ``classify`` decides which from one symplectic decomposition,
a rank-two update of a packed B_Q block per hyperbolic pair, that builds no
basis vector.  ``normal_form_witness`` takes its change of basis from
``_normal_basis``, the one place that lays out the standard basis: H-
first, then H+ blocks, then Q1, then zeros.  ``isometry_oracle`` reads
GL(n) and its action from the table f2linalg builds once per n.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import product

from .f2linalg import (
    GL_DIM_CAP,
    MAX_DIM,
    BitMatrix,
    _coordinate_masks,
    _gl_actions,
    _parity,
    _row_image,
    _transpose_rows,
    is_invertible,
    symplectic_basis,
)


# 2^20 entries is about 8 MiB of tuple; each added dimension doubles it.
VALUE_TABLE_DIM_CAP = 20


class Kind(enum.Enum):
    PLUS = "Plus"
    MINUS = "Minus"
    QONE = "QOne"
    ZERO = "Zero"


@dataclass(frozen=True)
class QuadraticForm:
    """dim-dimensional quadratic form; upper[i] holds bits b_ij for j > i."""

    dim: int
    diag: int
    upper: tuple[int, ...]

    def __post_init__(self):
        if not 0 <= self.dim <= MAX_DIM:
            raise ValueError(f"dimension {self.dim} out of range")
        if self.diag >> self.dim:
            raise ValueError("diag bits set beyond dimension")
        if len(self.upper) != self.dim:
            raise ValueError("upper row count mismatch")
        for i, row in enumerate(self.upper):
            if row & ((1 << (i + 1)) - 1) or row >> self.dim:
                raise ValueError(f"upper row {i} has bits outside j > i range")

    # -- evaluation ---------------------------------------------------------

    def eval_bits(self, v: int) -> int:
        return _parity((self.diag ^ _row_image(self.upper, v)) & v)

    @cached_property
    def value_table(self) -> tuple[int, ...]:
        """Q(v) for every v < 2^dim: _value_bits, with its cap, unpacked once at
        C level through strings of 2^dim bytes, reversed so digit v is Q(v)."""
        bits = format(_value_bits(self), f"0{1 << self.dim}b")[::-1]
        return tuple(bits.encode().translate(bytes.maketrans(b"01", b"\0\1")))

    def is_zero_form(self) -> bool:
        return self.diag == 0 and not any(self.upper)

    # -- polar form ---------------------------------------------------------

    def polar(self) -> BitMatrix:
        """The associated alternating bilinear form B_Q as a symmetric matrix.

        B_Q = U + U^T for the strictly upper-triangular U = ``upper``; the
        transpose is log2(w) delta swaps on one packed w x w block, w <= 64.
        symplectic_basis builds B_Q in its own packed block and calls none.
        """
        n = self.dim
        lower = _transpose_rows(self.upper, n)
        return BitMatrix(n, n, tuple(u | l for u, l in zip(self.upper, lower)))

    # -- serialization ------------------------------------------------------

    def to_string(self) -> str:
        d = "".join(str((self.diag >> i) & 1) for i in range(self.dim))
        u = "".join(
            str((self.upper[i] >> j) & 1)
            for i in range(self.dim)
            for j in range(i + 1, self.dim)
        )
        return f"l={self.dim};d={d};u={u}"


def _value_bits(q: QuadraticForm) -> int:
    """Q(v) at bit v for every v < 2^dim; raises ValueError above the cap first.
    Q(v) = sum_i diag_i v_i + sum_i v_i sum_{j>i} b_ij v_j: the coordinate
    masks X_j of the diag bits, then X_i & (X_j over upper[i]), O(dim^2) ops."""
    if q.dim > VALUE_TABLE_DIM_CAP:
        raise ValueError(f"value table capped at dimension {VALUE_TABLE_DIM_CAP}")
    xs = _coordinate_masks(q.dim)
    acc = _row_image(xs, q.diag)  # X_i & X_i = X_i
    for x, row in zip(xs, q.upper):
        acc ^= x & _row_image(xs, row)
    return acc


# Canonical decimal, the one spelling of a number the library reads: int()
# alone would also take signs, spaces, leading zeros and non-ASCII digits.
_DECIMAL = re.compile("0|[1-9][0-9]*")
_FORM_SPEC = re.compile(rf"l=({_DECIMAL.pattern});d=([01]*);u=([01]*)")


def parse_form(spec: str) -> QuadraticForm:
    """Parse the `l=<dim>;d=<bits>;u=<bits>` serialization; rejects bad counts.

    Only the canonical spelling is accepted, so parse_form(s).to_string() == s
    for every accepted s.
    """
    match = _FORM_SPEC.fullmatch(spec)
    if match is None:
        raise ValueError(f"form spec must read l=<dim>;d=<bits>;u=<bits>, got {spec!r}")
    digits, d, u = match.groups()
    dim = int(digits)
    if dim > MAX_DIM:
        raise ValueError(f"dimension {dim} out of range [0, {MAX_DIM}]")
    if len(d) != dim:
        raise ValueError(f"field d needs {dim} bits, got {len(d)}")
    if len(u) != dim * (dim - 1) // 2:
        raise ValueError(f"field u needs {dim * (dim - 1) // 2} bits, got {len(u)}")
    diag = sum(1 << i for i, ch in enumerate(d) if ch == "1")
    bits = iter(u)
    upper = tuple(
        sum(1 << j for j in range(i + 1, dim) if next(bits) == "1")
        for i in range(dim)
    )
    return QuadraticForm(dim, diag, upper)


# -- standard constructors ----------------------------------------------------


def h_plus() -> QuadraticForm:
    """H+(x, y) = xy."""
    return QuadraticForm(2, 0b00, (0b10, 0))


def h_minus() -> QuadraticForm:
    """H-(x, y) = x^2 + y^2 + xy."""
    return QuadraticForm(2, 0b11, (0b10, 0))


def q_one() -> QuadraticForm:
    """Q1(x) = x^2."""
    return QuadraticForm(1, 1, (0,))


def zero_form(n: int) -> QuadraticForm:
    return QuadraticForm(n, 0, (0,) * n)


def direct_sum(q: QuadraticForm, q2: QuadraticForm) -> QuadraticForm:
    n, n2 = q.dim, q2.dim
    if n + n2 > MAX_DIM:
        raise ValueError("combined dimension exceeds cap")
    upper = list(q.upper) + [row << n for row in q2.upper]
    return QuadraticForm(n + n2, q.diag | (q2.diag << n), tuple(upper))


# -- change of basis ----------------------------------------------------------


@dataclass(frozen=True)
class Isometry:
    """An invertible change of basis carrying one form onto another."""

    map: BitMatrix

    def __post_init__(self):
        if not is_invertible(self.map):
            raise ValueError("isometry matrix must be invertible")


def change_basis(q: QuadraticForm, t: BitMatrix) -> QuadraticForm:
    """The form v -> Q(Tv); columns of T are the new basis vectors."""
    n = q.dim
    if t.rows != n or t.cols != n:
        raise ValueError("basis change must be square of matching dimension")
    if not is_invertible(t):
        raise ValueError("basis change must be invertible")
    cols = _transpose_rows(t.data, n)
    polar = q.polar().data
    diag = 0
    upper = [0] * n
    for i, c in enumerate(cols):
        diag |= q.eval_bits(c) << i
        # Row i of T^T B_Q T: B_Q(Te_i, Te_j) at bit j, kept above bit i.
        upper[i] = _row_image(t.data, _row_image(polar, c)) >> (i + 1) << (i + 1)
    return QuadraticForm(n, diag, tuple(upper))


# -- classification -----------------------------------------------------------


@dataclass(frozen=True)
class FormClass:
    """Complete isometry invariant: hyperbolic rank m1, kind, corank m2."""

    dim: int
    m1: int
    kind: Kind
    m2: int

    def __post_init__(self):
        if not 0 <= self.dim <= MAX_DIM:
            raise ValueError(f"dimension {self.dim} out of range")
        if self.m1 < 0 or self.m2 < 0:
            raise ValueError("m1 and m2 must be nonnegative")
        if 2 * self.m1 + self.m2 != self.dim:
            raise ValueError("2*m1 + m2 must equal dim")
        if self.kind in (Kind.PLUS, Kind.MINUS) and self.m1 < 1:
            raise ValueError(f"{self.kind.value} kind requires m1 >= 1")
        if self.kind is Kind.QONE and self.m2 < 1:
            raise ValueError("QOne kind requires m2 >= 1")
        if self.kind is Kind.ZERO and self.m1 != 0:
            raise ValueError("Zero kind requires m1 = 0")

    def describe(self) -> str:
        parts = []
        m1, m2 = self.m1, self.m2
        if self.kind is Kind.MINUS:
            parts.append("H-")
            m1 -= 1
        if m1 > 0:
            parts.append("H+" if m1 == 1 else f"H+^{m1}")
        if self.kind is Kind.QONE:
            parts.append("Q1")
            m2 -= 1
        if m2 > 0:
            parts.append("0" if m2 == 1 else f"0^{m2}")
        return " + ".join(parts) if parts else "0^0"


def form_classes(dim: int) -> tuple[FormClass, ...]:
    """Every class of forms on GF(2)^dim, by m1: Zero then QOne at m1 = 0,
    and Plus, Minus, then QOne if m2 > 0 at each m1 >= 1."""
    if not 0 <= dim <= MAX_DIM:
        raise ValueError(f"dimension {dim} out of range")
    classes = []
    for m1 in range(dim // 2 + 1):
        m2 = dim - 2 * m1
        kinds = [Kind.PLUS, Kind.MINUS] if m1 else [Kind.ZERO]
        if m2:
            kinds.append(Kind.QONE)
        classes += [FormClass(dim, m1, kind, m2) for kind in kinds]
    return tuple(classes)


@lru_cache(maxsize=None)
def _shared_class(dim: int, m1: int, kind: Kind) -> FormClass:
    """FormClass(dim, m1, kind, dim - 2*m1), built and validated once: the
    class is frozen, so every classify call that lands on it returns the same
    object.  Keyed by the class, not by a form, so it holds at most the
    3,169 classes of form_classes over dims 0-64."""
    return FormClass(dim, m1, kind, dim - 2 * m1)


def _form_class(dim: int, m1: int, values: int) -> FormClass:
    """The class of a form on GF(2)^dim whose symplectic decomposition has m1
    pairs and Q on its output vectors in ``values``, by _normal_basis's rules."""
    minus = values & values >> 1 & (4**m1 - 1) // 3  # pairs with Q(a) = Q(b) = 1
    kind = Kind.MINUS if minus.bit_count() & 1 else Kind.PLUS if m1 else Kind.ZERO
    if values >> 2 * m1:  # Q is nonzero on the radical
        kind = Kind.QONE
    return _shared_class(dim, m1, kind)


def _normal_basis(q: QuadraticForm) -> tuple[FormClass, list[int]]:
    """The class of q and the columns of a witness T onto standard_form of it.

    The one place that knows the standard layout: H- first, then the H+
    blocks, then Q1, then zeros.  One ``symplectic_basis`` call gives the
    pairs, the radical and Q on each of them, so no Q is evaluated: one
    transpose and O(n) operations on ints of at most 64^2 bits at dim n.
    ``_form_class`` reads the class off the same call, by these rules:
    - A pair (a, b) with Q(a) = Q(b) = 1 spans an H- plane and is kept; every
      other pair is rewritten to an H+ pair (a', b'), Q(a') = Q(b') = 0.
    - Two H- planes (a1, b1), (a2, b2) span H+ (+) H+, with the pairs
      (a1 + s2, b1 + s2) and (a2 + s1, b2 + s1), s_i = a_i + b_i.  So the Arf
      invariant is the parity of the H- planes, and at most one is left over:
      the class is Minus when one is, else Plus, or Zero with no pair at all.
    - Q restricted to the radical is linear, so its basis values decide it.
      If Q is nonzero there, the class is QOne: r1 is the first radical
      vector with Q(r1) = 1, r1 is added to the other such vectors and to
      the leftover H- plane, which becomes an H+ plane.
    """
    pairs, radical, values = symplectic_basis(q)
    fc = _form_class(q.dim, len(pairs), values)
    minus: list[int] = []  # columns, two per plane
    plus: list[int] = []
    for a, b in pairs:
        qa, qb = values & 1, values & 2
        values >>= 2
        if qa and qb:
            minus += (a, b)
        elif qa:
            plus += (b, a ^ b)
        elif qb:
            plus += (a, a ^ b)
        else:
            plus += (a, b)
    for i in range(0, len(minus) - 3, 4):
        a1, b1, a2, b2 = minus[i : i + 4]
        s1, s2 = a1 ^ b1, a2 ^ b2
        plus[:0] = (a1 ^ s2, b1 ^ s2, a2 ^ s1, b2 ^ s1)
    lead = minus[-2:] if len(minus) % 4 else []
    if values:  # Q on the radical, at bit i for radical[i]
        idx = (values & -values).bit_length() - 1
        r1 = radical[idx]
        lead = [v ^ r1 for v in lead]
        radical = [r1] + [
            r ^ r1 if values >> i & 1 else r for i, r in enumerate(radical) if i != idx
        ]
    return fc, lead + plus + radical


def classify(q: QuadraticForm) -> FormClass:
    """Normal-form descriptor of q (complete isometry invariant), as
    ``_normal_basis`` decides it, from a decomposition that builds no vector."""
    pairs, _, values = symplectic_basis(q, vectors=False)
    return _form_class(q.dim, len(pairs), values)


def standard_form(fc: FormClass) -> QuadraticForm:
    """The canonical representative: H- first, then H+ blocks, then Q1, then
    zeros.  Each plane (e_2k, e_2k+1), k < m1, has b = 1; Q is 1 on e_0 and
    e_1 for Minus, on e_2m1 for QOne, and 0 on every other basis vector."""
    upper = [0] * fc.dim
    for k in range(fc.m1):
        upper[2 * k] = 2 << (2 * k)
    diag = {Kind.MINUS: 0b11, Kind.QONE: 1 << (2 * fc.m1)}.get(fc.kind, 0)
    return QuadraticForm(fc.dim, diag, tuple(upper))


# -- constructive witnesses ---------------------------------------------------


def normal_form_witness(q: QuadraticForm) -> Isometry:
    """An invertible T with change_basis(q, T) equal, datum for datum, to
    standard_form(classify(q))."""
    return Isometry(BitMatrix.from_cols(q.dim, _normal_basis(q)[1]))


# -- exhaustive oracle --------------------------------------------------------

ORACLE_DIM_CAP = GL_DIM_CAP  # the oracle walks the GL(n) table


def isometry_oracle(q: QuadraticForm, q2: QuadraticForm) -> Isometry | None:
    """Exhaustively search GL(dim, GF(2)) for T with change_basis(q2, T) = q.

    Independent ground truth for classify; capped at dim 4 (20160 matrices).
    Returns the first witness in the fixed enumeration order of
    f2linalg._gl_actions, or None.  An isometry permutes GF(2)^dim, so forms
    with different numbers of vectors of value 1 are told apart by the sums
    of their cached value tables; below dim 2 GL(dim) is the identity alone.
    pull(t2) == t1 for a T of f2linalg._gl_actions needs q2 = q at e_0, e_1
    and e_0 + e_1, so the walk skips each block of matrices whose first
    column c0, or first two columns (c0, c1), already fail there (layout in
    _gl_actions), and makes one itemgetter pull per matrix of the others:
    6,682 pulls in verify's form-classification-complete check.
    """
    if q.dim != q2.dim:
        raise ValueError("oracle requires equal dimensions")
    n = q.dim
    if n > ORACLE_DIM_CAP:
        raise ValueError(f"oracle capped at dimension {ORACLE_DIM_CAP}")
    t1, t2 = q.value_table, q2.value_table
    if sum(t1) != sum(t2):
        return None
    if n < 2:
        return Isometry(BitMatrix.identity(n))
    # change_basis(q2, t) == q  <=>  q2(Tv) == q(v) for all v
    table = _gl_actions(n)
    size1 = len(table) // ((1 << n) - 1)
    size2 = size1 // ((1 << n) - 2)
    for c0 in range(1, 1 << n):
        if t2[c0] != t1[1]:
            continue
        for c1 in range(1, 1 << n):
            if c1 == c0 or t2[c1] != t1[2] or t2[c0 ^ c1] != t1[3]:
                continue
            start = (c0 - 1) * size1 + (c1 - 1 - (c1 > c0)) * size2
            for t, pull in table[start : start + size2]:
                if pull(t2) == t1:
                    return Isometry(t)
    return None


def all_forms(dim: int):
    """Iterate every quadratic form on GF(2)^dim (2^(dim(dim+1)/2) of them):
    by diag, then by the bits b_ij of ``upper`` read as one number in
    row-major order, b_01 lowest.  Row i steps through the multiples of
    2^(i+1) below 2^dim, and upper[0] steps fastest, so the upper tuples are
    the product of the rows from last to first, each tuple reversed.  They
    are built once per call, during the pass at diag = 0, so a partial walk
    builds no more of them than it yields."""
    rows = [range(0, 1 << dim, 2 << i) for i in reversed(range(dim))]
    uppers = []
    for upper in product(*rows):
        uppers.append(upper[::-1])
        yield QuadraticForm(dim, 0, uppers[-1])
    for diag in range(1, 1 << dim):
        for upper in uppers:
            yield QuadraticForm(dim, diag, upper)


def random_form(dim: int, rng) -> QuadraticForm:
    upper = [0] * dim
    for i in range(dim):
        for j in range(i + 1, dim):
            if rng.getrandbits(1):
                upper[i] |= 1 << j
    return QuadraticForm(dim, rng.getrandbits(dim), tuple(upper))
