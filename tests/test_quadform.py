import random
import sys
import tracemalloc
from functools import lru_cache
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gexforms import admissible, f2linalg, quadform, verify
from gexforms.admissible import admissible_witness
from gexforms.f2linalg import (
    BitMatrix,
    _row_image,
    _span,
    _transpose_rows,
    invertible_matrices,
    symplectic_basis,
)
from gexforms.quadform import (
    VALUE_TABLE_DIM_CAP,
    FormClass,
    Isometry,
    Kind,
    QuadraticForm,
    _normal_basis,
    _value_bits,
    all_forms,
    change_basis,
    classify,
    direct_sum,
    form_classes,
    h_minus,
    h_plus,
    isometry_oracle,
    normal_form_witness,
    parse_form,
    q_one,
    random_form,
    standard_form,
    zero_form,
)

from reference import bilinear, matvec_bits, polarization, quadratic_forms
from seeded import (
    RNG_SEED,
    counted,
    forbid,
    hidden_form,
    random_invertible,
    sum_forms,
)


def forms_strategy(max_dim=5):
    def build(draw):
        dim = draw(st.integers(0, max_dim))
        diag = draw(st.integers(0, (1 << dim) - 1))
        upper = tuple(
            draw(st.integers(0, (1 << dim) - 1)) & ~((1 << (i + 1)) - 1)
            for i in range(dim)
        )
        return QuadraticForm(dim, diag, upper)

    return st.composite(build)()


def test_building_block_values():
    hp, hm, q1 = h_plus(), h_minus(), q_one()
    # H+(x, y) = xy
    assert [hp.eval_bits(v) for v in range(4)] == [0, 0, 0, 1]
    # H-(x, y) = x^2 + y^2 + xy
    assert [hm.eval_bits(v) for v in range(4)] == [0, 1, 1, 1]
    # Q1(x) = x^2
    assert [q1.eval_bits(v) for v in range(2)] == [0, 1]
    assert all(zero_form(3).eval_bits(v) == 0 for v in range(8))


def test_polar_is_alternating_and_symmetric():
    rng = random.Random(RNG_SEED)
    for _ in range(50):
        q = random_form(5, rng)
        p = q.polar()
        for i in range(5):
            assert (p.data[i] >> i) & 1 == 0
            for j in range(5):
                assert (p.data[i] >> j) & 1 == (p.data[j] >> i) & 1


@settings(max_examples=100)
@given(forms_strategy(), st.integers(0, 63), st.integers(0, 63))
def test_polarization_identity(q, u, v):
    u &= (1 << q.dim) - 1
    v &= (1 << q.dim) - 1
    # B_Q(u, v) = Q(u+v) + Q(u) + Q(v) agrees with the matrix form of B_Q
    assert polarization(q, u, v) == bilinear(q.polar(), u, v)


def test_serialization_round_trip():
    rng = random.Random(RNG_SEED + 1)
    for _ in range(50):
        q = random_form(rng.randrange(0, 7), rng)
        assert parse_form(q.to_string()) == q


def test_parse_form_known_string():
    # H- + Q1 on three coordinates
    q = parse_form("l=3;d=111;u=100")
    assert q == direct_sum(h_minus(), q_one())


@pytest.mark.parametrize(
    "bad",
    [
        "",
        "l=2;d=00",
        "l=2;d=000;u=0",
        "l=2;d=00;u=",
        "l=2;d=0x;u=0",
        "d=00;l=2;u=0",
        "l=-1;d=;u=",
        "l=two;d=00;u=0",
        "l=+2;d=00;u=0",
        "l=-0;d=;u=",
        "l=\u0662;d=00;u=0",  # ARABIC-INDIC DIGIT TWO
        "l=02;d=00;u=0",
        "l= 2;d=00;u=0",
        "l=2;d=00;u=0\n",
        "l=2;d=00;u=0;",
        "l=2;d=00;u=2",
        "l=2;d=00;u=00",
        "L=2;d=00;u=0",
        "l=65;d=" + "0" * 65 + ";u=" + "0" * (65 * 64 // 2),
    ],
)
def test_parse_form_rejects(bad):
    with pytest.raises(ValueError):
        parse_form(bad)


def test_form_validation():
    with pytest.raises(ValueError):
        QuadraticForm(2, 0b100, (0, 0))  # diag bit beyond dim
    for dim in (2, 64):
        for diag in (1 << 64, -1):
            with pytest.raises(ValueError, match="diag bits set beyond dimension"):
                QuadraticForm(dim, diag, (0,) * dim)
    with pytest.raises(ValueError, match="upper row 0"):
        QuadraticForm(2, 0, (-2, 0))  # a negative row has bits beyond dim
    with pytest.raises(ValueError):
        QuadraticForm(2, 0, (0b01, 0))  # upper bit at or below diagonal
    with pytest.raises(ValueError):
        QuadraticForm(2, 0, (0,))  # row count mismatch
    for dim in (65, -1):
        with pytest.raises(ValueError, match=f"dimension {dim} out of range"):
            QuadraticForm(dim, 0, (0,) * max(dim, 0))


def test_classify_building_blocks():
    assert classify(h_plus()) == FormClass(2, 1, Kind.PLUS, 0)
    assert classify(h_minus()) == FormClass(2, 1, Kind.MINUS, 0)
    assert classify(q_one()) == FormClass(1, 0, Kind.QONE, 1)
    assert classify(zero_form(3)) == FormClass(3, 0, Kind.ZERO, 3)
    assert classify(zero_form(0)) == FormClass(0, 0, Kind.ZERO, 0)


def test_two_minus_planes_equal_two_plus_planes():
    hm2 = direct_sum(h_minus(), h_minus())
    hp2 = direct_sum(h_plus(), h_plus())
    assert classify(hm2) == classify(hp2) == FormClass(4, 2, Kind.PLUS, 0)
    assert isometry_oracle(hm2, hp2) is not None


def test_q_one_absorbs_the_minus_plane():
    a = direct_sum(h_plus(), q_one())
    b = direct_sum(h_minus(), q_one())
    assert classify(a) == classify(b) == FormClass(3, 1, Kind.QONE, 1)
    assert isometry_oracle(a, b) is not None


def test_plus_and_minus_planes_distinct():
    assert classify(h_plus()) != classify(h_minus())
    assert isometry_oracle(h_plus(), h_minus()) is None


def test_classify_invariant_under_basis_change():
    rng = random.Random(RNG_SEED + 2)
    for _ in range(100):
        dim = rng.randrange(1, 7)
        q = random_form(dim, rng)
        t = random_invertible(dim, rng)
        assert classify(change_basis(q, t)) == classify(q)


def _change_basis_reference(q, t):
    """Q(Tv) datum by datum: diagonal Q(Te_i), polar B_Q(Te_i, Te_j) read
    through three evaluations of Q."""
    n = q.dim
    cols = [
        sum(((t.data[r] >> i) & 1) << r for r in range(n)) for i in range(n)
    ]
    diag = 0
    upper = [0] * n
    for i in range(n):
        diag |= q.eval_bits(cols[i]) << i
        for j in range(i + 1, n):
            upper[i] |= polarization(q, cols[i], cols[j]) << j
    return QuadraticForm(n, diag, tuple(upper))


def test_change_basis_matches_its_definition():
    rng = random.Random(RNG_SEED + 9)
    cases = [(dim, 15) for dim in range(21)] + [(64, 1)]
    for dim, count in cases:
        for _ in range(count):
            q = random_form(dim, rng)
            t = random_invertible(dim, rng)
            assert change_basis(q, t) == _change_basis_reference(q, t)
    with pytest.raises(ValueError):
        change_basis(h_plus(), BitMatrix.identity(3))
    with pytest.raises(ValueError):
        change_basis(h_plus(), BitMatrix(2, 2, (0b11, 0b11)))


def _kind_by_arf_sum(q):
    """The kind through the Arf sum: QOne if Q is nonzero on the radical,
    else Minus iff the sum of Q(a)Q(b) over the symplectic pairs is 1."""
    if q.is_zero_form():
        return Kind.ZERO
    pairs, radical, _ = symplectic_basis(q)
    if any(q.eval_bits(r) for r in radical):
        return Kind.QONE
    arf = 0
    for a, b in pairs:
        arf ^= q.eval_bits(a) & q.eval_bits(b)
    return Kind.MINUS if arf else Kind.PLUS


def test_classify_kind_matches_arf_sum():
    """classify reads the kind off the parity of its H- pairs; the Arf sum
    must give the same kind on every form up to dim 4, on random forms up to
    dim 64, and on forms with a zero summand of every size."""
    rng = random.Random(RNG_SEED + 10)
    forms = [q for dim in range(5) for q in all_forms(dim)]
    for dim in range(5, 65):
        forms += [random_form(dim, rng) for _ in range(4)]
        for _ in range(4):
            m = rng.randrange(0, dim + 1)
            forms.append(direct_sum(random_form(m, rng), zero_form(dim - m)))
    kinds = set()
    for q in forms:
        kind = classify(q).kind
        assert kind is _kind_by_arf_sum(q), q.to_string()
        kinds.add((kind, q.dim > 4))
    # every kind occurs both in the exhaustive part and above it
    assert len(kinds) == 8


def test_standard_form_round_trips_through_classify():
    """On every form up to dim 4, classify's class-only decomposition gives
    the class that _normal_basis reads off the full one, and the standard
    form of that class classifies as it."""
    for dim in range(5):
        for q in all_forms(dim):
            fc = classify(q)
            assert _normal_basis(q)[0] == fc, q.to_string()
            assert classify(standard_form(fc)) == fc


def test_normal_form_witness_exhaustive_small():
    for dim in range(4):
        for q in all_forms(dim):
            t = normal_form_witness(q).map
            assert change_basis(q, t) == standard_form(classify(q))


def test_normal_form_witness_random_larger():
    rng = random.Random(RNG_SEED + 3)
    for _ in range(200):
        q = random_form(rng.randrange(4, 10), rng)
        t = normal_form_witness(q).map
        assert change_basis(q, t) == standard_form(classify(q))


# One hidden-basis form of dim 7 for each branch of the witness layout, with
# the H- pairs and the radical vectors with Q = 1 that symplectic_basis finds
# for it, its class, and the exact rows of normal_form_witness(q).map.
WITNESS_BRANCHES = [
    # no H- pair, Q = 0 on the radical
    ("l=7;d=0110001;u=011110100101000101100", 0, 0, "H+^3 + 0",
     (0b1010111, 0b1111000, 0b1001110, 0b0101100, 0b0100000, 0b1000000,
      0b0110000)),
    # one H- pair: it leads
    ("l=7;d=1111010;u=011010111000000100101", 1, 0, "H- + H+^2 + 0",
     (0b1010101, 0b1010100, 0b1010010, 0b1110000, 0b0101000, 0b0100000,
      0b1000000)),
    # two H- pairs: they span H+ (+) H+
    ("l=7;d=1011011;u=001100100110111100011", 2, 0, "H+^3 + 0",
     (0b1001010, 0b0111100, 0b1101011, 0b1001001, 0b1000111, 0b0001011,
      0b1000000)),
    # three H- pairs: two pair off, the third leads
    ("l=7;d=1111001;u=100101000001111100111", 3, 0, "H- + H+^2 + 0",
     (0b0110100, 0b1111010, 0b1011100, 0b1101111, 0b1000000, 0b0000001,
      0b0000010)),
    # QOne, no H- pair left over
    ("l=7;d=1001101;u=001001111110000010110", 2, 1, "H+^3 + Q1",
     (0b1100110, 0b0100000, 0b0111100, 0b1001110, 0b1000111, 0b1001011,
      0b1000000)),
    # QOne, the leftover H- pair shifted by r1
    ("l=7;d=1101000;u=101100011011000111110", 1, 1, "H+^3 + Q1",
     (0b1101010, 0b0101010, 0b0010100, 0b0001000, 0b0100000, 0b0110000,
      0b1000011)),
    # QOne, Q = 1 on three radical vectors: two of them shifted by r1
    ("l=7;d=1110000;u=111011111100111101111", 1, 3, "H+^2 + Q1 + 0^2",
     (0b1010110, 0b0110101, 0b0001100, 0b1110011, 0b0100000, 0b0001000,
      0b1000000)),
]


@pytest.mark.parametrize("spec,n_minus,n_radical_q,describe,rows", WITNESS_BRANCHES)
def test_normal_form_witness_exact_per_branch(
    spec, n_minus, n_radical_q, describe, rows
):
    q = parse_form(spec)
    pairs, _, values = symplectic_basis(q)
    minus = sum(values >> (2 * i) & 3 == 3 for i in range(len(pairs)))
    assert (minus, (values >> (2 * len(pairs))).bit_count()) == (n_minus, n_radical_q)
    fc = classify(q)
    assert fc.describe() == describe
    t = normal_form_witness(q).map
    assert t.data == rows
    assert change_basis(q, t) == standard_form(fc)


def test_direct_sum_evaluates_blockwise():
    rng = random.Random(RNG_SEED + 4)
    for _ in range(50):
        q1 = random_form(3, rng)
        q2 = random_form(4, rng)
        q = direct_sum(q1, q2)
        for _ in range(20):
            u = rng.getrandbits(3)
            v = rng.getrandbits(4)
            assert q.eval_bits(u | (v << 3)) == q1.eval_bits(u) ^ q2.eval_bits(v)
    # Associative with the empty form as identity.
    a, b, c = h_plus(), q_one(), h_minus()
    assert direct_sum(direct_sum(a, b), c) == direct_sum(a, direct_sum(b, c))
    assert direct_sum(zero_form(0), b) == b == direct_sum(b, zero_form(0))
    assert direct_sum(zero_form(63), q_one()).dim == 64
    with pytest.raises(ValueError, match="combined dimension exceeds cap"):
        direct_sum(zero_form(64), q_one())


def test_isometry_oracle_cap_and_dim_check():
    with pytest.raises(ValueError):
        isometry_oracle(zero_form(5), zero_form(5))
    with pytest.raises(ValueError):
        isometry_oracle(zero_form(2), zero_form(3))


def test_oracle_witness_is_a_real_isometry():
    rng = random.Random(RNG_SEED + 5)
    for _ in range(20):
        q = random_form(3, rng)
        q2 = change_basis(q, random_invertible(3, rng))
        w = isometry_oracle(q, q2)
        assert w is not None
        assert change_basis(q2, w.map) == q


@lru_cache(maxsize=None)
def _matvec_images(n):
    """(T, [Tv for v = 0..2^n-1]) for each T of invertible_matrices(n), in
    order: one matvec_bits per vector and matrix, computed once per dim."""
    vectors = range(1 << n)
    return tuple(
        (t, [matvec_bits(t, v) for v in vectors]) for t in invertible_matrices(n)
    )


def _reference_oracle(q, q2):
    """The rows of the first T of invertible_matrices(n), in its order, with
    q2(Tv) = q(v) for every v, compared vector by vector, or None.  Every
    such T is an isometry; isometry_oracle documents that it returns the
    first one, and this copy pins that choice bit for bit."""
    n = q.dim
    if n == 0:
        return BitMatrix.identity(0).data
    t1, t2 = q.value_table, q2.value_table
    for t, images in _matvec_images(n):
        if all(t2[images[v]] == t1[v] for v in range(1 << n)):
            return t.data
    return None


def test_span_table_and_value_table_match_their_definitions():
    """_span(rows)[v] is _row_image(rows, v) for every v, k = 0..12 rows, and
    bit v of _value_bits and value_table[v] are eval_bits(v) at every v:
    every form of dim <= 4, seeded forms at dims 5-14, and one seeded form
    at each dim 15-20, the last at the cap."""
    rng = random.Random(RNG_SEED + 13)
    assert _span([]) == [0]
    for k in range(13):
        rows = [rng.getrandbits(16) for _ in range(k)]
        assert _span(rows) == [_row_image(rows, v) for v in range(1 << k)], k
    forms = [q for dim in range(5) for q in all_forms(dim)]
    forms += [random_form(dim, rng) for dim in range(5, 15) for _ in range(3)]
    forms += [random_form(dim, rng) for dim in range(15, VALUE_TABLE_DIM_CAP + 1)]
    for q in forms:
        size = 1 << q.dim
        expected = tuple(map(q.eval_bits, range(size)))
        packed = _value_bits(q).to_bytes(max(1, size // 8), "little")
        bits = tuple(byte >> k & 1 for byte in packed for k in range(8))
        assert bits[:size] == expected and not any(bits[size:]), q.to_string()
        assert q.value_table == expected, q.to_string()


def test_value_table_peak_is_about_its_tuple():
    """At dim 16 value_table keeps only the packed 2^16-bit int of
    _value_bits and the strings of its one unpack beside the tuple it
    builds, never a 2^16-entry list of ints: the traced peak stays within
    twice the tuple's size, and the table is still eval_bits entry by
    entry."""
    q = random_form(16, random.Random(RNG_SEED + 14))
    tracemalloc.start()
    try:
        table = q.value_table
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * sys.getsizeof(table), (peak, sys.getsizeof(table))
    assert table == tuple(q.eval_bits(v) for v in range(1 << 16))


def test_value_table_cap_raises_before_building(monkeypatch):
    """At dim VALUE_TABLE_DIM_CAP + 1 the table would hold 2^21 entries; the
    cap must refuse before Q is evaluated even once, or a span table or the
    coordinate masks are built."""
    assert VALUE_TABLE_DIM_CAP == 20
    rng = random.Random(RNG_SEED + 12)
    q = random_form(VALUE_TABLE_DIM_CAP + 1, rng)

    forbid(monkeypatch, QuadraticForm, "eval_bits", "value_table evaluated the form")
    forbid(monkeypatch, f2linalg, "_span", "value_table built the span table")
    forbid(monkeypatch, f2linalg, "_coordinate_masks", "value_table built the masks")
    with pytest.raises(ValueError, match="value table capped at dimension 20"):
        q.value_table


def test_oracle_matches_matvec_loop():
    """Same witness matrix (or None) as the per-vector loop: every ordered
    pair at dims 0-3, 30 seeded dim-4 pairs, half of them isometric, and
    every ordered pair of the 7 dim-4 classes, each behind one seeded hidden
    basis (49 pairs; about 1 s, most of it the reference loop)."""

    def witness(q, q2):
        w = isometry_oracle(q, q2)
        return None if w is None else w.map.data

    for dim in range(4):
        forms = list(all_forms(dim))
        for q in forms:
            for q2 in forms:
                assert witness(q, q2) == _reference_oracle(q, q2)
    rng = random.Random(RNG_SEED + 6)
    for i in range(30):
        q = random_form(4, rng)
        if i % 2:
            q2 = change_basis(q, random_invertible(4, rng))
        else:
            q2 = random_form(4, rng)
        assert witness(q, q2) == _reference_oracle(q, q2)
    hidden = [hidden_form(fc, rng) for fc in form_classes(4)]
    assert len(hidden) == 7
    for q in hidden:
        for q2 in hidden:
            assert witness(q, q2) == _reference_oracle(q, q2), (q, q2)


def test_gl_actions_pull_a_tuple_per_vector():
    """The _gl_actions docstring: pull(table) is the tuple table[Tv] for
    v = 0..2^n-1, a 1-tuple at n = 0 as well, where one itemgetter index
    would return the bare entry."""
    for n in range(3):
        table = tuple(range(10, 10 + (1 << n)))
        for t, pull in f2linalg._gl_actions(n):
            got = pull(table)
            assert isinstance(got, tuple) and len(got) == 1 << n, (n, got)
            assert got == tuple(table[matvec_bits(t, v)] for v in range(1 << n))


def test_describe_strings():
    assert classify(h_minus()).describe() == "H-"
    assert classify(direct_sum(h_plus(), h_plus())).describe() == "H+^2"
    assert classify(direct_sum(h_minus(), q_one())).describe() == "H+ + Q1"
    assert classify(zero_form(2)).describe() == "0^2"
    assert classify(zero_form(0)).describe() == "0^0"
    q = sum_forms(h_minus(), h_plus(), zero_form(1))
    assert classify(q).describe() == "H- + H+ + 0"


def test_form_class_validation():
    with pytest.raises(ValueError, match="nonnegative"):
        FormClass(2, -1, Kind.QONE, 4)  # would describe itself as Q1 + 0^3
    with pytest.raises(ValueError, match="nonnegative"):
        FormClass(1, 1, Kind.PLUS, -1)
    with pytest.raises(ValueError, match="out of range"):
        FormClass(65, 0, Kind.ZERO, 65)  # above MAX_DIM
    with pytest.raises(ValueError):
        FormClass(3, 1, Kind.PLUS, 0)  # 2*m1 + m2 != dim
    with pytest.raises(ValueError):
        FormClass(2, 0, Kind.MINUS, 2)  # Minus needs a hyperbolic pair
    with pytest.raises(ValueError):
        FormClass(2, 0, Kind.PLUS, 2)  # so does Plus
    with pytest.raises(ValueError):
        FormClass(2, 1, Kind.QONE, 0)  # QOne needs radical room
    with pytest.raises(ValueError):
        FormClass(2, 1, Kind.ZERO, 0)  # Zero form has no pairs


def test_change_basis_requires_invertible():
    with pytest.raises(ValueError):
        change_basis(h_plus(), BitMatrix(2, 2, (0,) * 2))
    with pytest.raises(ValueError):
        change_basis(h_plus(), BitMatrix.identity(3))


def test_witness_checks_reject_a_dependent_column(monkeypatch):
    """Isometry, change_basis and admissible_witness run a full rank check:
    one column that is the XOR of two others makes the map singular, and
    each must reject it.  admissible_witness is handed the singular columns
    through _normal_basis, for an admissible form (H- plus zeros, hidden
    behind T) at every dim but 1, which has none."""
    rng = random.Random(29)
    for dim in (1, 8, 9, 33, 64):
        t = random_invertible(dim, rng)
        q = random_form(dim, rng)
        Isometry(t)
        assert change_basis(q, t).dim == dim
        cols = _transpose_rows(t.data, dim)
        if dim >= 3:
            a, b, c = rng.sample(range(dim), 3)
            cols[c] = cols[a] ^ cols[b]
        else:  # too few columns for two others: the only singular 1 x 1 map is 0
            cols[0] = 0
        singular = BitMatrix.from_cols(dim, cols)
        with pytest.raises(ValueError, match="must be invertible"):
            Isometry(singular)
        with pytest.raises(ValueError, match="must be invertible"):
            change_basis(q, singular)
        if dim < 2:
            continue
        fc = FormClass(dim, 1, Kind.MINUS, dim - 2)
        admissible_q = change_basis(standard_form(fc), t)
        assert admissible_witness(admissible_q) is not None
        with monkeypatch.context() as m:
            m.setattr(admissible, "_normal_basis", lambda q: (fc, list(cols)))
            with pytest.raises(ValueError, match="must be invertible"):
                admissible_witness(admissible_q)


def test_grid_is_the_set_form_class_accepts():
    """At dims 0-12 form_classes lists, once each, every (m1, kind) that
    FormClass accepts, and nothing else.  It gives 3,169 classes at dims
    0-64 and raises ValueError outside them."""
    for dim in range(13):
        accepted = set()
        for m1, kind in product(range(-1, dim + 2), Kind):
            try:
                accepted.add(FormClass(dim, m1, kind, dim - 2 * m1))
            except ValueError:
                pass
        grid = form_classes(dim)
        assert len(grid) == len(accepted) and set(grid) == accepted, dim
    assert sum(len(form_classes(dim)) for dim in range(65)) == 3169
    for dim in (-1, 65):
        with pytest.raises(ValueError, match="out of range"):
            form_classes(dim)


def test_class_counts_per_dimension():
    """classify hits every class of form_classes at dims 0-4, and no other."""
    for dim in range(5):
        seen = {classify(q) for q in all_forms(dim)}
        assert len(form_classes(dim)) == len(seen)
        assert set(form_classes(dim)) == seen


def test_all_forms_is_the_bit_loop():
    """all_forms yields the forms of the reference's bit loop, in its order:
    33,867 forms at dims 0-5."""
    count = 0
    for dim in range(6):
        forms = [(q.dim, q.diag, q.upper) for q in all_forms(dim)]
        assert forms == [(dim, diag, upper) for diag, upper in quadratic_forms(dim)]
        count += len(forms)
    assert count == 33867


def test_classify_builds_each_class_once(monkeypatch):
    """classify returns one shared FormClass per class: once every class at
    dims 0-4 and at dim 64 has been returned, classifying the same forms, and
    the classes at dim 64 behind fresh bases, builds no FormClass."""
    rng = random.Random(RNG_SEED + 11)
    top = form_classes(64)
    forms = [q for dim in range(5) for q in all_forms(dim)]
    forms += [hidden_form(fc, rng) for fc in top]
    first = [classify(q) for q in forms]
    forms += [hidden_form(fc, rng) for fc in top]
    built = counted(monkeypatch, FormClass, "__init__")
    again = [classify(q) for q in forms]
    assert built.calls == 0
    assert all(a is b for a, b in zip(first, again))
    assert again[len(first) :] == list(top)


def test_classification_check_names_a_class_missing_from_the_grid(monkeypatch):
    """check_classification_complete compares the classes classify hits at
    each dim with form_classes: a grid that lacks H+ + Q1 fails at dim 3."""
    grid, dropped = form_classes, FormClass(3, 1, Kind.QONE, 1)
    monkeypatch.setattr(
        quadform, "form_classes", lambda dim: [c for c in grid(dim) if c != dropped]
    )
    ok, detail = verify.check_classification_complete()
    assert not ok
    assert detail == "classify and form_classes differ at dim 3: H+ + Q1"


def test_classification_check_pulls_6682_value_tables(monkeypatch):
    """isometry_oracle's docstring: the form-classification-complete check
    makes 6,682 pulls of a value table through _gl_actions, one per matrix
    of the blocks whose first two columns agree with both forms at e_0, e_1
    and e_0 + e_1 (a walk of every matrix makes 57,766)."""
    pulls = 0

    def counted_pull(pull):
        def wrapper(table):
            nonlocal pulls
            pulls += 1
            return pull(table)

        return wrapper

    tables = {
        n: tuple((t, counted_pull(pull)) for t, pull in f2linalg._gl_actions(n))
        for n in range(4)
    }
    monkeypatch.setattr(quadform, "_gl_actions", tables.__getitem__)
    assert verify.check_classification_complete() == (True, "2120 form pairs")
    assert pulls == 6682


def test_classification_check_names_the_first_oracle_disagreement(monkeypatch):
    """check_classification_complete fails at the first pair where the oracle
    and classify disagree: an oracle that never finds an isometry at the
    zero form of dim 0 against itself, and one that always returns the
    identity at the first dim-1 pair of different classes."""
    monkeypatch.setattr(quadform, "isometry_oracle", lambda q, q2: None)
    assert verify.check_classification_complete() == (
        False,
        "disagreement at l=0;d=;u= vs l=0;d=;u=",
    )
    monkeypatch.setattr(
        quadform, "isometry_oracle", lambda q, q2: Isometry(BitMatrix.identity(q.dim))
    )
    assert verify.check_classification_complete() == (
        False,
        "disagreement at l=1;d=0;u= vs l=1;d=1;u=",
    )
