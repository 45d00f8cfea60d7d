"""Exact linear algebra over GF(2) on word-packed vectors and matrices.

A vector is a plain Python int (bit i = coordinate i) whose dimension the
caller knows; a matrix is a frozen dataclass of packed rows.  Everything is
immutable and pure; dimensions are capped at 64 so a vector always fits a
machine word.  The table of GL(n, GF(2)) for n <= 4, each matrix with its
action on GF(2)^n, is built here once per n.
"""

from __future__ import annotations

import sys
from array import array
from dataclasses import dataclass
from functools import lru_cache
from operator import itemgetter

MAX_DIM = 64
GL_DIM_CAP = 4  # the largest n whose GL(n, GF(2)) table _gl_actions builds


def _parity(x: int) -> int:
    return x.bit_count() & 1


def _row_image(rows, v: int) -> int:
    """The XOR of rows[i] over the set bits i of v: O(set bits of v)."""
    acc = 0
    while v:
        low = v & -v
        acc ^= rows[low.bit_length() - 1]
        v ^= low
    return acc


def _span(rows) -> list[int]:
    """The span table: _row_image(rows, v) for every v < 2^len(rows), indexed
    by v.  Built by doubling once per row, the entries for v with bit i set
    being those below 2^i XORed with rows[i]: one XOR per entry."""
    table = [0]
    for r in rows:
        table += [t ^ r for t in table]
    return table


@lru_cache(maxsize=None)
def _coordinate_masks(n: int) -> tuple[int, ...]:
    """X_i, i < n, as 2^n-bit ints: bit v of X_i is bit i of v.  v + 2^i flips
    bit i + 1 iff bit i is set, so X_i = X_{i+1} ^ (X_{i+1} >> 2^i) from all
    ones.  Cached: 2.5 MiB at n = 20."""
    masks = [(1 << (1 << n)) - 1]
    for i in reversed(range(n)):
        masks.append(masks[-1] ^ masks[-1] >> (1 << i))
    return tuple(masks[:0:-1])


def _translate(x: int, v: int, masks) -> int:
    """Bit u of the result is bit u ^ v of the 2^n-bit x, for masks =
    _coordinate_masks(n): per set bit j of v, two shifts and two ANDs with X_j."""
    while v:
        s = v & -v
        xj = masks[s.bit_length() - 1]
        x = (x & xj) >> s | (x << s) & xj
        v ^= s
    return x


def _block(w: int) -> tuple[str, int, int, tuple[tuple[int, int], ...], int]:
    """(array typecode, w, slot ones, delta swaps, identity) for a w x w bit
    block.

    Row i of the block sits at bits i*w .. i*w + w - 1 of one int; the slot
    ones mask holds bit 0 of every row, and the identity block bit i of row
    i.  The swap with half-width s exchanges bit (i, j) with bit
    (i + s, j - s) wherever bit s of i is clear and bit s of j is set:
    positions p and p + s(w - 1).
    """
    tc = next(c for c in "BHILQ" if array(c).itemsize * 8 == w)
    steps = []
    s = w // 2
    while s:
        in_row = sum(1 << j for j in range(w) if j & s)
        mask = sum(in_row << (i * w) for i in range(w) if not i & s)
        steps.append((s * (w - 1), mask))
        s //= 2
    ones = sum(1 << (i * w) for i in range(w))
    eye = sum(1 << (i * (w + 1)) for i in range(w))
    return tc, w, ones, tuple(steps), eye


_BLOCKS = {w: _block(w) for w in (8, 16, 32, 64)}
# The smallest block holding an n x n matrix, for n = 0..MAX_DIM.
_BLOCK_FOR = tuple(
    _BLOCKS[next(w for w in (8, 16, 32, 64) if n <= w)] for n in range(MAX_DIM + 1)
)
# array holds native byte order; the packed int reads it as little-endian.
_SWAP = sys.byteorder == "big"


def _pack(rows, tc: str) -> int:
    """The rows as consecutive slots of one int, each as wide as typecode tc."""
    a = array(tc, rows)
    if _SWAP:
        a.byteswap()
    return int.from_bytes(a, "little")


def _transpose(x: int, steps) -> int:
    """The transpose of the w x w block packed in x, by the delta swaps of
    _block(w) (Hacker's Delight, section 7-3): O(log w) operations on
    w^2-bit ints."""
    for d, m in steps:
        t = (x ^ (x >> d)) & m
        x ^= t ^ (t << d)
    return x


def _transpose_rows(rows, cols: int) -> list[int]:
    """The cols packed columns of the matrix with the given packed rows.

    Requires every row below 2^cols and at most 64 rows and 64 columns.
    The rows are packed into one int as a w x w block (w = 8, 16, 32 or 64,
    the smallest that holds both sizes), which one _transpose turns over.
    """
    tc, w, _, steps, _ = _BLOCK_FOR[max(len(rows), cols)]
    x = _transpose(_pack(rows, tc), steps)
    a = array(tc, x.to_bytes(w * w // 8, "little"))
    if _SWAP:
        a.byteswap()
    return a[:cols].tolist()


@dataclass(frozen=True)
class BitMatrix:
    """A rows x cols matrix over GF(2); each row packed into an int (bit j = column j)."""

    rows: int
    cols: int
    data: tuple[int, ...]

    def __post_init__(self):
        if not (0 <= self.rows <= MAX_DIM and 0 <= self.cols <= MAX_DIM):
            raise ValueError("matrix dimensions out of range")
        if len(self.data) != self.rows:
            raise ValueError("row count mismatch")
        for r in self.data:
            if r >> self.cols:
                raise ValueError("row bits set beyond column count")

    @staticmethod
    def identity(n: int) -> "BitMatrix":
        return BitMatrix(n, n, tuple(1 << i for i in range(n)))

    @staticmethod
    def from_cols(dim: int, cols: list[int]) -> "BitMatrix":
        """The dim x len(cols) matrix whose column j is the packed vector cols[j]."""
        if not (0 <= dim <= MAX_DIM and len(cols) <= MAX_DIM):
            raise ValueError("matrix dimensions out of range")
        if any(c >> dim for c in cols):
            raise ValueError("column bits set beyond dimension")
        return BitMatrix(dim, len(cols), tuple(_transpose_rows(cols, dim)))

    def to_strings(self) -> list[str]:
        return [
            "".join(str((r >> j) & 1) for j in range(self.cols)) for r in self.data
        ]


def _echelon(m: BitMatrix) -> list[tuple[int, int]]:
    """Forward elimination: the (pivot column, pivot row) pairs of a row
    echelon form of M, by increasing column.

    Each pivot row has its lowest set bit at its own column and no bit at an
    earlier pivot column; later pivot columns may still be set in it.  Relies
    on every row being below 2^m.cols, as BitMatrix enforces: a wider row
    could spill into the next row's slot of the packed block.

    Word-parallel, in the manner of M4RI: the rows are packed into one int as
    a w x w block (w = 8, 16, 32 or 64, as in _transpose_rows).  For column
    c, sel = (x >> c) & ones marks the rows with bit c; the highest marked
    row is the pivot p, and x ^= sel * p clears column c in every marked row
    at once, the pivot row included.  The product is carry-free because each
    slot of sel selects one copy of p < 2^w.  Every pivot removes one row, so
    the loop stops when x is zero; taking the highest row lets x shrink as
    its top rows go.  O(cols) operations on ints of at most w^2 bits.
    """
    tc, w, ones, _, _ = _BLOCK_FOR[max(m.rows, m.cols)]
    x = _pack(m.data, tc)
    mask = (1 << w) - 1
    pivots = []
    for c in range(m.cols):
        sel = (x >> c) & ones
        if sel:
            p = (x >> (sel.bit_length() - 1)) & mask
            x ^= sel * p
            pivots.append((c, p))
            if not x:
                break
    return pivots


def rank(m: BitMatrix) -> int:
    """GF(2) rank: the number of pivots of the packed forward elimination
    _echelon, O(cols) operations on one int of at most 64^2 bits, for rows
    below 2^cols as BitMatrix enforces.  Counting them needs no
    back-substitution."""
    return len(_echelon(m))


def kernel_basis(m: BitMatrix) -> list[int]:
    """A basis of the right kernel {v : Mv = 0} as packed vectors of dimension
    m.cols, in deterministic order.

    Back-substitutes the pivot rows of _echelon, last to first, into the
    reduced row-echelon form (unique, so independent of the pivot choice);
    each free column, in increasing order, yields one basis vector with a 1
    in that column and, at each pivot column, that pivot row's bit in the
    free column.  One transpose reads those bits for every free column.
    """
    reduced = [0] * m.cols  # the reduced row whose pivot is column c
    pivot_mask = 0
    for c, p in reversed(_echelon(m)):
        # p's bits at later pivot columns select rows already reduced
        reduced[c] = p ^ _row_image(reduced, p & pivot_mask)
        pivot_mask |= 1 << c
    cols = _transpose_rows(reduced, m.cols)
    return [cols[c] | 1 << c for c in range(m.cols) if not pivot_mask >> c & 1]


def is_invertible(m: BitMatrix) -> bool:
    if m.rows != m.cols:
        raise ValueError("is_invertible requires a square matrix")
    return rank(m) == m.rows


def symplectic_basis(q, *, vectors=True) -> tuple[list[tuple[int, int]], list[int], int]:
    """Decompose the polar form B_Q of a quadratic form q into hyperbolic
    pairs plus radical.

    q is a quadform.QuadraticForm, duck-typed (quadform imports this module):
    B_Q = U + U^T for the strictly upper-triangular U = q.upper, and Q(e_i)
    is bit i of q.diag.  The form's constructor holds the input contract, so
    B_Q is alternating and nothing is checked here.  Any alternating B is B_Q
    of QuadraticForm(n, 0, strict upper part of B).

    Returns (pairs, radical, values) as packed vectors of dimension q.dim,
    where each pair (a_i, b_i) satisfies B(a_i, b_i) = 1, B vanishes across
    distinct pairs and on/against the radical, and the pairs together with
    the radical form a basis.  Deterministic: always grabs the lowest-index
    available vector.  ``values`` packs Q on the output vectors: bit j is Q
    of the j-th vector of a_1, b_1, ..., a_m, b_m, r_1, r_2, ....

    Index-mask decomposition: working vector u_i starts as e_i and keeps its
    start index i; ``alive`` is the mask of the indices still working.  Each
    one travels with its image B u_i, so B(u_i, u_j) is bit j of that image
    for alive j (u_j - e_j is a sum of earlier pair vectors, orthogonal to
    u_i).  The partner of v is the lowest bit of its image & alive.  Q on the
    working vectors is one mask, carried by Q(u + v) = Q(u) + Q(v) + B(u, v).

    Word-parallel, as in _echelon: the images are the rows of one packed
    square block x (8, 16, 32 or 64 bits wide), B_Q itself at the start (the
    packed U ORed with its one _transpose), and the u_i the rows of a second
    block that starts as the identity.  A pair step (v, w) is one rank-two
    update of each block: every row with bit w takes B u_v and every row
    with bit v takes B u_w, two carry-free products.  Rows no longer alive
    take garbage that nothing reads, and v is the lowest alive index, so
    both blocks drop the rows below v and shrink as the decomposition goes
    on.  Costs one transpose and O(n) operations on ints of at most 64^2
    bits.  ``vectors=False`` builds no u_i, for half the products: each pair
    comes back (0, 0) and each radical vector 0, with the same lengths and
    the same ``values``, all that a class-only caller reads.
    """
    n = q.dim
    tc, width, ones, steps, eye = _BLOCK_FOR[n]
    upper = _pack(q.upper, tc)
    x = upper | _transpose(upper, steps)
    u = eye if vectors else 0
    uv = uw = 0
    mask = (1 << width) - 1
    alive = (1 << n) - 1
    qm = q.diag  # Q(u_i) at bit i
    pairs: list[tuple[int, int]] = []
    radical: list[int] = []
    pair_q = radical_q = 0
    base = 0  # the index of the row in slot 0 of both blocks
    while alive:
        low = alive & -alive
        alive ^= low
        v = low.bit_length() - 1
        drop = (v - base) * width
        x >>= drop
        if vectors:
            u >>= drop
        base = v
        bv = x & mask
        partners = bv & alive
        if not partners:
            radical_q |= (qm >> v & 1) << len(radical)
            radical.append(u & mask)
            continue
        low = partners & -partners
        alive ^= low
        w = low.bit_length() - 1
        slot = (w - v) * width
        bw = x >> slot & mask
        if vectors:
            uv, uw = u & mask, u >> slot & mask
        qv, qw = qm >> v & 1, qm >> w & 1
        pair_q |= (qv | qw << 1) << (2 * len(pairs))
        pairs.append((uv, uw))
        if not alive:
            break
        # u gains v where B(u, w) = 1 (am) and w where B(u, v) = 1 (bm), so
        # Q(u) gains Q(v) on am, Q(w) on bm, and B(u, v) + B(u, w) + B(v, w)
        # = 1 on both.
        am = bw & alive
        bm = partners ^ low
        qm ^= (am if qv else 0) ^ (bm if qw else 0) ^ (am & bm)
        sel_w = x >> w & ones
        sel_v = x >> v & ones
        x ^= sel_w * bv ^ sel_v * bw
        if vectors:
            u ^= sel_w * uv ^ sel_v * uw
    return pairs, radical, pair_q | radical_q << (2 * len(pairs))


@lru_cache(maxsize=None)
def _gl_actions(n: int) -> tuple[tuple[BitMatrix, itemgetter], ...]:
    """(T, pull) for every invertible n x n matrix T over GF(2), in
    lexicographic column order; only sensible for n <= GL_DIM_CAP = 4
    (|GL(4, GF(2))| = 20160), and raises above it before building anything.

    The column prefixes grow level by level, each by the vectors outside the
    span table of its columns, in increasing order.  So for n >= 2 the
    matrices with first column c0 are one block of size1 = |GL(n)|/(2^n - 1)
    entries at (c0 - 1) * size1, and those with first columns (c0, c1) a
    sub-block of size2 = size1/(2^n - 2) entries at (c1 - 1 - [c1 > c0]) *
    size2 inside it; isometry_oracle skips blocks by this layout.  Each T is
    built once from its columns, and pull(table) is the tuple table[Tv] for
    v = 0..2^n-1, gathered through the span table of the same columns.
    Cached, so the table and its action are built once per n.
    """
    if n > GL_DIM_CAP:
        raise ValueError(f"invertible-matrix enumeration capped at n = {GL_DIM_CAP}")
    if n == 0:  # one itemgetter index returns the entry; a slice keeps a tuple
        return ((BitMatrix.identity(0), itemgetter(slice(1))),)
    prefixes: list[list[int]] = [[]]
    for _ in range(n):
        grown = []
        for cols in prefixes:
            span = set(_span(cols))
            grown += [cols + [c] for c in range(1, 1 << n) if c not in span]
        prefixes = grown
    return tuple((BitMatrix.from_cols(n, c), itemgetter(*_span(c))) for c in prefixes)


def invertible_matrices(n: int) -> tuple[BitMatrix, ...]:
    """All invertible n x n matrices over GF(2), in lexicographic column
    order: the matrices of the cached _gl_actions(n)."""
    return tuple(t for t, _ in _gl_actions(n))
