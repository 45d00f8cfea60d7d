import random
from itertools import product

import pytest

from gexforms import f2linalg
from gexforms.f2linalg import (
    BitMatrix,
    _coordinate_masks,
    _gl_actions,
    _translate,
    _transpose_rows,
    invertible_matrices,
    is_invertible,
    kernel_basis,
    rank,
    symplectic_basis,
)
from gexforms.quadform import (
    FormClass,
    Kind,
    QuadraticForm,
    change_basis,
    direct_sum,
    h_minus,
    h_plus,
    random_form,
    zero_form,
)

from reference import bilinear, matvec_bits, symplectic_pairs
from seeded import counted, hidden_form, random_invertible

CYCLE3 = BitMatrix(3, 3, (0b110, 0b101, 0b011))  # rows (011),(101),(110)
CYCLE3_FORM = QuadraticForm(3, 0, (0b110, 0b100, 0))  # its polar form is CYCLE3


def test_rank_identity_and_zero():
    assert rank(BitMatrix.identity(3)) == 3
    assert rank(BitMatrix(4, 4, (0,) * 4)) == 0


def test_rank_dependent_rows():
    assert rank(CYCLE3) == 2


def test_kernel_zero_and_identity():
    assert len(kernel_basis(BitMatrix(2, 2, (0,) * 2))) == 2
    assert kernel_basis(BitMatrix.identity(3)) == []


def test_kernel_cycle():
    basis = kernel_basis(CYCLE3)
    assert basis == [0b111]


def _reference_rank_and_kernel(m):
    """(rank, kernel basis) by Gauss-Jordan elimination, one row XOR at a
    time.  The rank is determined, but many bases span the kernel; the
    public kernel_basis documents one, and this copy pins it bit for bit and
    in order: one vector per free column, in increasing order, with a 1
    there and, at each pivot column, that pivot row's bit in the column."""
    rows = list(m.data)
    pivots = []
    r = 0
    for col in range(m.cols):
        pivot = None
        for i in range(r, len(rows)):
            if (rows[i] >> col) & 1:
                pivot = i
                break
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        for i in range(len(rows)):
            if i != r and (rows[i] >> col) & 1:
                rows[i] ^= rows[r]
        pivots.append(col)
        r += 1
    kernel = []
    for col in range(m.cols):
        if col in pivots:
            continue
        bits = 1 << col
        for pr, pc in enumerate(pivots):
            if (rows[pr] >> col) & 1:
                bits |= 1 << pc
        kernel.append(bits)
    return r, kernel


def test_kernel_vectors_annihilate_and_are_independent():
    rng = random.Random(7)
    for _ in range(50):
        m = BitMatrix(5, 6, tuple(rng.getrandbits(6) for _ in range(5)))
        basis = kernel_basis(m)
        assert len(basis) == 6 - rank(m)
        for v in basis:
            assert v >> 6 == 0 and matvec_bits(m, v) == 0
        assert rank(BitMatrix(len(basis), 6, tuple(basis))) == len(basis)
    # Shapes wide, tall and square, dense and sparse, up to 64 x 64: rank and
    # the kernel vectors, in order, match the reference bit for bit.
    shapes = [(0, 0), (0, 5), (5, 0), (1, 1), (3, 7), (7, 3), (8, 8), (16, 16)]
    shapes += [(33, 20), (20, 33), (64, 64)]
    shapes += [(64, k) for k in (1, 7, 40)] + [(k, 64) for k in (1, 7, 40)]
    for rows, cols in shapes:
        for sparse in (False, True):
            for _ in range(20):
                data = []
                for _ in range(rows):
                    bits = rng.getrandbits(cols) if cols else 0
                    if sparse and cols:
                        bits &= rng.getrandbits(cols) & rng.getrandbits(cols)
                    data.append(bits)
                m = BitMatrix(rows, cols, tuple(data))
                got = (rank(m), kernel_basis(m))
                assert got == _reference_rank_and_kernel(m), m.data


def test_rank_and_kernel_match_reference_at_block_width_edges():
    """Every shape whose larger side sits at, just below or just above a
    packed block width (8, 16, 32, 64), tall and wide, plus square matrices
    made rank-deficient by one column that is the XOR of two others."""
    rng = random.Random(23)
    for n in (7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64):
        shapes = [(n, k) for k in range(n + 1)] + [(k, n) for k in range(n)]
        for rows, cols in shapes:
            for data in (
                [rng.getrandbits(cols) for _ in range(rows)],
                [rng.getrandbits(cols) & rng.getrandbits(cols) for _ in range(rows)],
            ):
                m = BitMatrix(rows, cols, tuple(data))
                expected = _reference_rank_and_kernel(m)
                assert (rank(m), kernel_basis(m)) == expected, m.data
        for _ in range(5):
            a, b, c = rng.sample(range(n), 3)
            cols = [rng.getrandbits(n) for _ in range(n)]
            cols[c] = cols[a] ^ cols[b]
            m = BitMatrix.from_cols(n, cols)
            expected = _reference_rank_and_kernel(m)
            assert expected[0] < n
            assert (rank(m), kernel_basis(m)) == expected, (n, m.data)


def _reference_transpose_rows(rows, cols):
    """The transpose by definition: bit j of row i becomes bit i of row j.
    Each row is written as its string of cols bits, bit j at index j, and
    zip turns the row strings into column strings."""
    if not rows or not cols:
        return [0] * cols
    strings = [format(row, "b").zfill(cols)[::-1] for row in rows]
    return [int("".join(column)[::-1], 2) for column in zip(*strings)]


def test_transpose_rows_matches_reference_on_every_shape():
    rng = random.Random(19)
    for rows in range(65):
        for cols in range(65):
            full = (1 << cols) - 1
            cases = [
                [rng.getrandbits(cols) if cols else 0 for _ in range(rows)],
                [full] * rows,
                [1 << rng.randrange(cols) if cols else 0 for _ in range(rows)],
            ]
            for data in cases:
                got = _transpose_rows(data, cols)
                assert got == _reference_transpose_rows(data, cols), (rows, cols)
                assert type(got) is list


def test_coordinate_masks_and_translate_match_their_definitions():
    """Bit v of X_i is bit i of v, and bit u of the translate by v is bit
    u ^ v of the table: every v at n = 0..8, on a seeded table per v."""
    rng = random.Random(29)
    for n in range(9):
        vs = range(1 << n)
        masks = _coordinate_masks(n)
        assert masks == tuple(sum(1 << v for v in vs if v >> i & 1) for i in range(n))
        for v in vs:
            x = rng.getrandbits(1 << n)
            moved = sum((x >> (u ^ v) & 1) << u for u in vs)
            assert _translate(x, v, masks) == moved, (n, v)


def test_is_invertible():
    assert is_invertible(BitMatrix.identity(4))
    assert not is_invertible(BitMatrix(3, 3, (0,) * 3))
    assert is_invertible(BitMatrix(2, 2, (0b11, 0b10)))
    with pytest.raises(ValueError):
        is_invertible(BitMatrix(2, 3, (0,) * 2))


def test_bitmatrix_rejects_rows_and_sizes_the_packed_block_cannot_hold():
    """_echelon and _transpose_rows pack each row into a slot at least cols
    wide and rely on BitMatrix for every row being in range: a bit at or
    beyond cols that stays inside its slot would be read as a column."""
    for data in ((0b111, 0b10), (0b100, 0b100), (0, 1 << 7), (-1, 0), (0, -2)):
        with pytest.raises(ValueError, match="row bits set beyond column count"):
            BitMatrix(2, 2, data)
    for data in ((0,), (0, 0, 0)):
        with pytest.raises(ValueError, match="row count mismatch"):
            BitMatrix(2, 2, data)
    for rows, cols in ((65, 1), (1, 65), (-1, 0), (0, -1)):
        with pytest.raises(ValueError, match="matrix dimensions out of range"):
            BitMatrix(rows, cols, (0,) * max(rows, 0))


def test_invertible_matrices_in_lexicographic_column_order():
    """invertible_matrices(n) is every full-rank column tuple, in the order
    of itertools.product over the nonzero columns; isometry_oracle returns
    the first witness in this order."""
    for n in range(5):
        candidates = (
            BitMatrix.from_cols(n, list(cols))
            for cols in product(range(1, 1 << n), repeat=n)
        )
        expected = [m for m in candidates if rank(m) == n]
        assert list(invertible_matrices(n)) == expected, n
    assert len(invertible_matrices(4)) == 20160
    with pytest.raises(ValueError, match="capped at n = 4"):
        invertible_matrices(5)


def test_gl_table_transposes_each_matrix_once(monkeypatch):
    """_gl_actions builds each T of GL(n) once from its columns and reads
    its action from the same columns: a cold GL(3) table makes one
    transpose per matrix, 168 in all.  invertible_matrices(n) is its list of
    matrices, and both raise above n = 4."""
    transposes = counted(monkeypatch, f2linalg, "_transpose")
    _gl_actions.cache_clear()
    assert len(_gl_actions(3)) == 168
    assert transposes.calls == 168
    for n in range(5):
        assert list(invertible_matrices(n)) == [t for t, _ in _gl_actions(n)], n
    with pytest.raises(ValueError, match="capped at n = 4"):
        invertible_matrices(5)


def test_gl_table_blocks_sit_where_their_first_columns_say():
    """The layout isometry_oracle indexes, n = 0..4: the T at index i of
    _gl_actions(n), with first columns c0 = Te_0 and c1 = Te_1, lies in the
    block of size1 = |GL(n)|/(2^n - 1) entries at (c0 - 1) * size1, and for
    n >= 2 in its sub-block of size2 = size1/(2^n - 2) entries at
    (c1 - 1 - [c1 > c0]) * size2."""
    assert len(_gl_actions(0)) == 1
    for n in range(1, 5):
        table = _gl_actions(n)
        size1, rest = divmod(len(table), (1 << n) - 1)
        assert rest == 0, n
        for i, (t, _) in enumerate(table):
            c0, c1 = matvec_bits(t, 1), matvec_bits(t, 2)
            start = (c0 - 1) * size1
            assert start <= i < start + size1, (n, i)
            if n >= 2:
                size2 = size1 // ((1 << n) - 2)
                start += (c1 - 1 - (c1 > c0)) * size2
                assert start <= i < start + size2, (n, i)


def test_symplectic_zero_form():
    pairs, radical, values = symplectic_basis(zero_form(3))
    assert pairs == []
    assert len(radical) == 3
    assert values == 0


def test_symplectic_hyperbolic():
    pairs, radical, values = symplectic_basis(h_plus())
    assert len(pairs) == 1 and radical == [] and values == 0
    assert symplectic_basis(h_minus())[2] == 0b11


def test_symplectic_cycle():
    assert CYCLE3_FORM.polar() == CYCLE3
    pairs, radical, _ = symplectic_basis(CYCLE3_FORM)
    assert len(pairs) == 1
    assert radical == [0b111]


def test_symplectic_block_structure_random():
    rng = random.Random(11)
    for _ in range(100):
        n = rng.randrange(1, 65)
        upper = [0] * n
        for i in range(n):
            for j in range(i + 1, n):
                if rng.getrandbits(1):
                    upper[i] |= 1 << j
        q = QuadraticForm(n, 0, tuple(upper))
        b = q.polar()
        pairs, radical, _ = symplectic_basis(q)
        assert 2 * len(pairs) == rank(b)
        cols = [v for p in pairs for v in p] + radical
        t = BitMatrix.from_cols(n, cols)
        assert is_invertible(t)
        for i, u in enumerate(cols):
            for j, v in enumerate(cols):
                expected = 0
                if i // 2 == j // 2 and i != j and i < 2 * len(pairs):
                    expected = 1
                assert bilinear(b, u, v) == expected


def test_rank_permutation_invariant():
    rng = random.Random(13)
    for _ in range(50):
        m = BitMatrix(4, 5, tuple(rng.getrandbits(5) for _ in range(4)))
        r = rank(m)
        rows = list(m.data)
        rng.shuffle(rows)
        assert rank(BitMatrix(4, 5, tuple(rows))) == r
        perm = list(range(5))
        rng.shuffle(perm)
        shuffled = tuple(
            sum(((row >> j) & 1) << perm[j] for j in range(5)) for row in rows
        )
        assert rank(BitMatrix(4, 5, shuffled)) == r


def test_from_cols_places_columns_and_rejects_bits_beyond_dim():
    assert BitMatrix.from_cols(2, [0b01, 0b11, 0b10]).data == (0b011, 0b110)
    with pytest.raises(ValueError):
        BitMatrix.from_cols(2, [0b01, 0b100])
    for dim, cols in ((65, []), (2, [0] * 65)):
        with pytest.raises(ValueError, match="dimensions out of range"):
            BitMatrix.from_cols(dim, cols)


def _reference_corpus():
    """Forms of every dim 0-64: random, radical-heavy, and (every fourth dim)
    radical-heavy behind a hidden basis; then, at dims 8, 15, 32, 63 and 64,
    standard Plus, Minus and QOne forms with the smallest radical the dim
    allows behind a hidden basis: admissible forms of the shape that the
    forms-pipeline benchmark times.  Last, three forms at each side of the
    8-, 16-, 32- and 64-bit blocks: the all-ones polar with Q = 1 on the
    basis, where every alive row takes both products of a pair step; the
    anti-diagonal polar with Q alternating on the basis, where the partner
    of v is always the top alive row; and the zero form."""
    rng = random.Random(17)
    forms = []
    for d in range(65):
        forms.append(random_form(d, rng))
        m = rng.randrange(0, d // 2 + 1)  # radical of dimension at least d / 2
        radical_heavy = direct_sum(random_form(m, rng), zero_form(d - m))
        forms.append(radical_heavy)
        if d % 4 == 0:
            forms.append(change_basis(radical_heavy, random_invertible(d, rng)))
    for d in (8, 15, 32, 63, 64):
        for kind in (Kind.PLUS, Kind.MINUS, Kind.QONE):
            m2 = d % 2 or (2 if kind is Kind.QONE else 0)
            fc = FormClass(d, (d - m2) // 2, kind, m2)
            forms.append(hidden_form(fc, rng))
    for n in (1, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64):
        full = (1 << n) - 1
        all_ones = tuple(full ^ ((1 << (i + 1)) - 1) for i in range(n))
        anti = tuple(1 << (n - 1 - i) if n - 1 - i > i else 0 for i in range(n))
        forms += [
            QuadraticForm(n, full, all_ones),
            QuadraticForm(n, full // 3, anti),  # Q(e_i) = 1 at even i
            zero_form(n),
        ]
    return forms


def test_symplectic_matches_reference_bit_for_bit():
    for q in _reference_corpus():
        expected = symplectic_pairs(q.polar())
        assert symplectic_basis(q)[:2] == expected, q.to_string()


def test_class_only_decomposition_matches_the_full_call():
    """vectors=False keeps the return shape of the full call, with every
    pair (0, 0) and every radical vector 0, and its number of pairs and its
    values, on forms of every dim 0-64, the degenerate ones included."""
    for q in _reference_corpus():
        pairs, radical, values = symplectic_basis(q)
        assert symplectic_basis(q, vectors=False) == (
            [(0, 0)] * len(pairs),
            [0] * len(radical),
            values,
        ), q.to_string()


def test_symplectic_values_match_eval_bits():
    """Bit j of values is Q of the j-th output vector: a_1, b_1, ..., a_m,
    b_m, then the radical in order."""
    for q in _reference_corpus():
        pairs, radical, values = symplectic_basis(q)
        vectors = [v for pair in pairs for v in pair] + radical
        expected = sum(q.eval_bits(v) << j for j, v in enumerate(vectors))
        assert values == expected, q.to_string()
