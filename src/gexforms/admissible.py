"""Admissible quadratic forms, decided three independent ways.

A form is admissible when it has a basis of vectors that all take value 1 and
none of which is B_Q-isolated within the basis.  The fast path reads the
verdict off the classification; the constructive path builds an explicit
basis; the definition-level path walks GF(2)^n greedily for a basis, on a
packed table of Q, and serves as the independent oracle.
"""

from __future__ import annotations

from .f2linalg import (
    _BLOCK_FOR,
    BitMatrix,
    _coordinate_masks,
    _pack,
    _pivots,
    _transpose,
    _translate,
    is_invertible,
)
from .quadform import FormClass, Kind, QuadraticForm, _normal_basis, _value_bits, classify


def check_basis(q: QuadraticForm, vs: tuple[int, ...]) -> bool:
    """Verify all three admissible-basis invariants by direct evaluation:
    vs is a basis of packed vectors, Q = 1 on each, and each has a
    B_Q-partner among the others.

    Word-parallel, as in f2linalg._pivots: the vectors are the rows of one
    packed w x w block V (w = 8, 16, 32 or 64).  The row images
    R = V U of the strictly upper-triangular U = q.upper and the block
    M = R V^T, M_ik = r_i . v_k, take n carry-free products each.  Then
    Q(v_i) = parity((diag ^ r_i) & v_i) is one within-slot parity fold of
    (R ^ diag in every slot) & V, and B_Q(v_i, v_k) = M_ik ^ M_ki, so v_i
    has a partner when slot i of M ^ M^T is nonzero: one within-slot OR
    fold.  Two transposes and O(n) operations on ints of at most 64^2 bits,
    with the rank check on the same packed block, not the n^2 parities of
    one pair at a time.
    """
    n = q.dim
    if len(vs) != n or any(v >> n for v in vs):
        return False
    if n == 0:
        return False
    tc, w, ones, steps, _ = _BLOCK_FOR[n]
    x = _pack(vs, tc)
    # The vectors as rows: rank does not change under transpose.
    if len(_pivots(x, n, w, ones)) < n:
        return False
    mask = (1 << w) - 1
    rows = 0  # R: slot i holds r_i
    for j, u in enumerate(q.upper):
        if u:
            rows ^= (x >> j & ones) * u
    cols = _transpose(x, steps)  # slot j holds column j of V
    gram = 0  # M: bit k of slot i is r_i . v_k
    for j in range(n):
        gram ^= (rows >> j & ones) * (cols >> j * w & mask)
    values = (rows ^ q.diag * ones) & x
    gram ^= _transpose(gram, steps)
    s = w >> 1
    while s:
        values ^= values >> s
        gram |= gram >> s
        s >>= 1
    # Bit 0 of slot i now holds Q(v_i), and whether v_i has a partner.
    full = ones & ((1 << n * w) - 1)
    return values & full == full and gram & full == full


def is_admissible(q: QuadraticForm) -> bool:
    """Classification-based verdict: zero summands never matter, and the
    admissible classes are exactly Plus with m1 >= 2, any Minus, and QOne
    with m1 >= 2 (the Zero class has m1 = 0)."""
    fc = classify(q)
    return fc.kind is Kind.MINUS or fc.m1 >= 2


def _standard_basis(fc: FormClass, cols) -> list[int]:
    """The admissible basis of an admissible class, written on the columns
    cols of a witness T onto standard_form(fc): its standard vectors are the
    plane sums e_2i + e_2i+1, a B_Q-partner for each, e_0 + e_2m for QOne,
    then e_0 + e_1 + e_z for each zero coordinate z, and T maps each e_i to
    cols[i], so each vector is the XOR of one to three columns.  Unit
    columns give the basis of standard_form(fc) itself."""
    m = fc.m1
    c = cols
    vs = [c[2 * i] ^ c[2 * i + 1] for i in range(m)]
    if fc.kind is Kind.MINUS:
        vs += [c[0]] + [c[0] ^ c[2 * k] for k in range(1, m)]
    else:  # m >= 2, so e_0 is not in the last plane
        vs.append(c[0] ^ c[2 * m - 2] ^ c[2 * m - 1])
        vs += [c[2 * k - 2] ^ c[2 * k - 1] ^ c[2 * k + 1] for k in range(1, m)]
    if fc.kind is Kind.QONE:
        vs.append(c[0] ^ c[2 * m])
    # One vector per coordinate so far: the zero coordinates start at len(vs).
    vs += [vs[0] ^ c[z] for z in range(len(vs), fc.dim)]
    return vs


def admissible_witness(q: QuadraticForm) -> tuple[int, ...] | None:
    """A concrete admissible basis for q as packed vectors, or None.

    Writes the explicit basis of the standard representative directly on
    the columns of the normal-form change of basis, which must be
    invertible: ValueError otherwise.
    """
    if not is_admissible(q):
        return None
    cols = _normal_basis(q)[1]
    # The columns as rows: rank does not change under transpose.
    if not is_invertible(BitMatrix(q.dim, q.dim, tuple(cols))):
        raise ValueError("normal-form change of basis must be invertible")
    return tuple(_standard_basis(classify(q), cols))


def is_admissible_bruteforce(q: QuadraticForm) -> tuple[int, ...] | None:
    """An admissible basis straight from the definition, as packed vectors, or
    None.  Calls neither classify, symplectic_basis nor polar.

    Lemma: let S be a basis of GF(2)^n and v in S with B_Q(v, .) != 0.  Since
    S spans, B_Q(v, s) = 1 for some s in S, and s != v as B_Q(v, v) = 0.  So
    q is admissible exactly when the vectors with Q(v) = 1 and P(v) != 0
    (P(v) the polar row image) span GF(2)^n, and then every basis drawn from
    them is admissible.  The walk is the greedy algorithm of that linear
    matroid: it takes v in increasing order and keeps each such v that is
    independent of those kept so far, until it has n.  On the packed table
    _value_bits(q), with its cap: n translates mark P(v) != 0, as B_Q(e_j, v)
    = Q(v + e_j) + Q(v) + Q(e_j), and each of at most n steps keeps the
    lowest candidate v outside the span mask, then ORs in that mask moved by v.

    The basis is the lexicographically first admissible one, which a
    backtracking search over the candidates in increasing order would find:
    once the candidates span, each has a partner among them, so dropping the
    candidates without one drops none, and a sound pruning never cuts the
    greedy path, whose leaf is an admissible basis.
    """
    n = q.dim
    values = _value_bits(q)
    xs = _coordinate_masks(n)
    nonzero = 0  # P(v) != 0 at bit v; Q(e_j) = 1 flips every bit, as XOR with -1
    for j in range(n):
        nonzero |= _translate(values, 1 << j, xs) ^ values ^ -(q.diag >> j & 1)
    candidates = values & nonzero
    basis, span = [], 1  # span: the span of basis as a mask, {0} at first
    while free := candidates & ~span:
        v = (free & -free).bit_length() - 1
        basis.append(v)
        if len(basis) == n:
            return tuple(basis)
        span |= _translate(span, v, xs)
    return None
