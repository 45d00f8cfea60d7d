import random
from collections import Counter

import pytest

from gexforms import f2linalg, gexgroup, quadform, verify
from gexforms.f2linalg import _parity, _span, kernel_basis, rank, symplectic_basis
from gexforms.gexgroup import (
    FROM_FORM_DIM_CAP,
    BaseKind,
    D8_TABLE,
    GexGroup,
    GroupClass,
    Q8_TABLE,
    TableGroup,
    Z4_TABLE,
    _Law,
    _certify,
    _isomorphism,
    center,
    central_product,
    classify_group,
    direct_z2,
    frattini_order,
    from_form,
    group_class_of_form_class,
    iso_oracle,
    q_from_group,
)
from gexforms.quadform import (
    FormClass,
    Kind,
    QuadraticForm,
    all_forms,
    classify,
    direct_sum,
    form_classes,
    h_minus,
    h_plus,
    parse_form,
    q_one,
    random_form,
    zero_form,
)

from reference import central_elements, cocycle_law, generated, is_isomorphism
from seeded import RNG_SEED, counted, forbid, hidden_form, sum_forms


def test_order_and_identity():
    g = from_form(h_minus())
    assert g.order == 8
    for x in range(g.order):
        assert g.pmul(0, x) == x == g.pmul(x, 0)


def test_group_axioms_exhaustive_small():
    rng = random.Random(RNG_SEED)
    for _ in range(20):
        q = random_form(3, rng)
        g = from_form(q)
        elems = list(range(g.order))
        for x in elems:
            inv = x ^ g.pmul(x, x)  # x^2 is central in {0, 1}
            assert g.pmul(x, inv) == 0
            assert g.pmul(inv, x) == 0
        for _ in range(100):
            x, y, z = (rng.choice(elems) for _ in range(3))
            assert g.pmul(g.pmul(x, y), z) == g.pmul(x, g.pmul(y, z))


def test_central_involution_is_central():
    g = from_form(sum_forms(h_minus(), q_one()))
    c = 1
    assert g.pmul(c, c) == 0
    for x in range(g.order):
        assert g.pmul(c, x) == g.pmul(x, c)


def _order(g, x):
    """The order of x, by repeated multiplication with pmul."""
    y, o = x, 1
    while y:
        y = g.pmul(y, x)
        o += 1
    return o


def test_squares_and_orders():
    for dim in range(4):
        for q in all_forms(dim):
            g = from_form(q)
            for x in range(g.order):
                square = g.pmul(x, x)
                # the group law squares each element into the central fiber, onto Q
                assert square == q.eval_bits(x >> 1)
                expected_order = 1 if x == 0 else (4 if square else 2)
                assert _order(g, x) == expected_order


def test_q8_model_order_census():
    # Q8: one identity, one involution, six elements of order 4.
    g = from_form(h_minus())
    orders = sorted(_order(g, x) for x in range(g.order))
    assert orders == [1, 2, 4, 4, 4, 4, 4, 4]


def test_d8_model_order_census():
    g = from_form(h_plus())
    orders = sorted(_order(g, x) for x in range(g.order))
    assert orders == [1, 2, 2, 2, 2, 2, 4, 4]


def test_center_matches_bruteforce():
    """The center view has the size of the brute-force center and yields its
    elements in sorted order: 20 seeded forms of dims 1-4, and at each dim
    0-8 five seeded forms and one with each size of zero summand."""
    rng = random.Random(RNG_SEED + 1)
    forms = [random_form(rng.randrange(1, 5), rng) for _ in range(20)]
    rng = random.Random(RNG_SEED + 4)
    for dim in range(9):
        forms += [random_form(dim, rng) for _ in range(5)]
        for m in range(dim + 1):
            forms.append(direct_sum(random_form(m, rng), zero_form(dim - m)))
    for q in forms:
        g = from_form(q)
        reference = sorted(central_elements(g.order, g.pmul))
        view = center(g)
        assert len(view) == len(reference), q.to_string()
        assert list(view) == reference, q.to_string()


def test_center_reads_the_radical_of_one_decomposition(monkeypatch):
    """center makes exactly one symplectic_basis call, with vectors, and
    calls no polar, kernel_basis or pmul, on every class of
    form_classes(dim) at dims 0-16 behind a seeded hidden basis, the dim-16
    Zero form and Q1 + 0^15 among them.  Its size and its elements match
    the span of kernel_basis(polar), the independent reference, taken
    before those calls are forbidden."""
    rng = random.Random(RNG_SEED + 11)
    classes = [fc for dim in range(17) for fc in form_classes(dim)]
    assert len(classes) == 217
    assert FormClass(16, 0, Kind.ZERO, 16) in classes  # Z2^17
    assert FormClass(16, 0, Kind.QONE, 16) in classes  # Q1 + 0^15: Z4 x Z2^15
    groups = [from_form(hidden_form(fc, rng)) for fc in classes]
    references = []
    for g in groups:
        radical = sorted(_span(kernel_basis(g.form.polar())))
        references.append([v << 1 | eps for v in radical for eps in (0, 1)])
    decompositions = counted(monkeypatch, f2linalg, "symplectic_basis")
    forbid(monkeypatch, QuadraticForm, "polar", "center read the polar form")
    forbid(monkeypatch, f2linalg, "kernel_basis", "center eliminated the polar form")
    forbid(monkeypatch, GexGroup, "pmul", "center applied the group law")
    for g, reference in zip(groups, references):
        decompositions.calls = decompositions.class_only = 0
        view = center(g)
        assert (decompositions.calls, decompositions.class_only) == (1, 0)
        assert len(view) == len(reference), g.form.to_string()
        assert list(view) == reference, g.form.to_string()


@pytest.mark.parametrize(
    "steps",
    [(classify_group, center), (center, classify_group)],
    ids=["class-first", "center-first"],
)
def test_center_and_class_share_one_decomposition(monkeypatch, steps):
    """A fresh model of every class of form_classes(dim) at dims 0-16, behind
    a seeded hidden basis, makes exactly one symplectic_basis call, with
    vectors, and no classify call for classify_group and center, in either
    order; a repeated call of either makes none.  The results are those of
    the class-only route, group_class_of_form_class(classify(form)), and of
    the radical of a fresh decomposition, both taken before counting
    starts.  The kept decomposition leaves ==, hash and repr as they were."""
    rng = random.Random(RNG_SEED + 13)
    forms = [hidden_form(fc, rng) for dim in range(17) for fc in form_classes(dim)]
    assert len(forms) == 217
    references = [
        (group_class_of_form_class(classify(q)), tuple(symplectic_basis(q)[1]))
        for q in forms
    ]
    decompositions = counted(monkeypatch, f2linalg, "symplectic_basis")
    forbid(monkeypatch, quadform, "classify", "classify_group decomposed again")
    for q, (group_class, radical) in zip(forms, references):
        g = from_form(q)
        before = repr(g), hash(g)
        decompositions.calls = decompositions.class_only = 0
        results = {step: step(g) for step in steps}
        assert (decompositions.calls, decompositions.class_only) == (1, 0)
        assert {step: step(g) for step in steps} == results
        assert decompositions.calls == 1
        assert results[classify_group] == group_class, q.to_string()
        assert results[center].radical == radical, q.to_string()
        assert g == from_form(q) and (repr(g), hash(g)) == before
        assert repr(g) == f"GexGroup(form={q!r})"


def test_generalized_extraspecial_vs_bruteforce_frattini():
    for dim in range(5):
        for q in all_forms(dim):
            g = from_form(q)
            elements = range(g.order)
            # the commutator (xy)(x^-1 y^-1), read off a table of pmul, with
            # x^-1 = x ^ x^2 since x^2 is central in {0, 1}
            table = [[g.pmul(x, y) for y in elements] for x in elements]
            inv = [x ^ table[x][x] for x in elements]
            comm = {
                table[table[x][y]][table[inv[x]][inv[y]]]
                for x in elements
                for y in elements
            }
            sq = {table[x][x] for x in elements}
            phi = comm | sq
            assert frattini_order(g) == len(phi)
            central = set(center(g))
            expected = (
                phi == {0, 1} and comm == {0, 1} and phi <= central
            )
            # generalized extraspecial exactly when B_Q != 0
            assert any(q.polar().data) == expected


def test_form_round_trips_through_group(monkeypatch):
    """q_from_group reads the form off the group law alone, so it recovers
    every form up to the dimension cap with form evaluation switched off."""
    rng = random.Random(RNG_SEED + 2)
    forms = [
        random_form(dim, rng) for dim in range(FROM_FORM_DIM_CAP + 1) for _ in range(4)
    ]

    forbid(monkeypatch, QuadraticForm, "eval_bits", "q_from_group evaluated the form")
    for q in forms:
        assert q_from_group(from_form(q)) == q


def _unit_lifts_form(g):
    """The reference read of q_from_group: the form through the law itself,
    dim^2 applications of pmul over the unit lifts e_i << 1."""
    return gexgroup._read_form(g.pmul, [2 << i for i in range(g.dim)], 0)


def _cocycle_form(m):
    """Q_M(v) = v^T M v for the rows m of a square matrix over GF(2): diag M
    on the diagonal and b_ij = M_ij + M_ji above it, one bit at a time."""
    n = len(m)
    diag = sum((m[i] >> i & 1) << i for i in range(n))
    upper = tuple(
        sum(((m[i] >> j ^ m[j] >> i) & 1) << j for j in range(i + 1, n))
        for i in range(n)
    )
    return QuadraticForm(n, diag, upper)


def test_q_from_group_reads_the_unit_rows_with_no_law_application(monkeypatch):
    """The q_from_group docstring: the form is read off the law's rows of the
    unit lifts, with no law application, and equals the form that dim^2 law
    applications read (the reference) on every form of dims 0-4 and on seeded
    forms at every dim up to 16.  The read is right for any bilinear cocycle,
    not only the upper-triangular one a model seeds: on fresh models whose
    unit rows are a full matrix M before any row fills, it equals both the
    reference and Q_M, so a read without the transpose fails here."""
    rng = random.Random(RNG_SEED + 3)
    pmul = counted(monkeypatch, GexGroup, "pmul")
    forms = [q for dim in range(5) for q in all_forms(dim)]
    forms += [
        random_form(dim, rng) for dim in range(FROM_FORM_DIM_CAP + 1) for _ in range(4)
    ]
    for q in forms:
        g = from_form(q)
        expected = _unit_lifts_form(g)
        pmul.calls = 0
        assert q_from_group(g) == expected == q
        assert pmul.calls == 0, q.dim
    for dim in range(2, FROM_FORM_DIM_CAP + 1):
        # The all-ones M and seeded ones with M_{dim-1,0} = 1: none is
        # upper-triangular, and Q_M differs from the form of M's upper part.
        matrices = [[(1 << dim) - 1] * dim]
        for _ in range(4):
            matrices.append([rng.getrandbits(dim) for _ in range(dim - 1)])
            matrices[-1].append(rng.getrandbits(dim) | 1)
        for m in matrices:
            g = from_form(random_form(dim, rng))
            for i, row in enumerate(m):
                g._rows[1 << i] = row << 1
            pmul.calls = 0
            got = q_from_group(g)
            assert pmul.calls == 0, dim
            assert got == _unit_lifts_form(g) == _cocycle_form(m), (dim, m)


def test_iso_oracle_makes_the_law_applications_of_its_docstring(monkeypatch):
    """The iso_oracle docstring, per side: |G| law applications for the
    squares, |Phi| |G^2| for the Frattini closure, |G| - |Phi| for the basis,
    n^2 for the form read over it, one per set bit of the witness columns
    for the lifts and n^2 for the form read over the lifts.  Each form below
    has its normal form as its witness, the identity columns, so the lifts
    take n applications.  Q1 + 0^4: 64 + 2 x 2 + 62 + 25 + 5 + 25 = 185;
    0^5: 64 + 1 + 63 + 36 + 6 + 36 = 206; H+^2: 32 + 2 x 2 + 30 + 16 + 4
    + 16 = 102; two models of each form, so twice that."""
    pmul = counted(monkeypatch, GexGroup, "pmul")
    cases = [
        (direct_sum(q_one(), zero_form(4)), 370),
        (zero_form(5), 412),
        (direct_sum(h_plus(), h_plus()), 204),
    ]
    for q, expected in cases:
        pmul.calls = 0
        assert iso_oracle(from_form(q), from_form(q))
        assert pmul.calls == expected, q


def test_pmul_is_the_cocycle_row_law():
    """pmul(x, y) and x ^ y ^ parity(cocycle_row(x) & y) are both the law
    (u, eps)(v, delta) = (u + v, eps + delta + u^T M v), summed term by term
    from the form, over all pairs: on a fresh model, whose row table fills as
    it multiplies, and on one whose rows were all cached first.  Every model
    of dim <= 3 and seeded models of dim 5.  The table holds at most one row
    per left factor and leaves equality, hash and repr alone."""
    rng = random.Random(RNG_SEED + 8)
    forms = [q for dim in range(4) for q in all_forms(dim)]
    forms += [random_form(5, rng) for _ in range(12)]
    for q in forms:
        fresh, cached, idle = from_form(q), from_form(q), from_form(q)
        for x in range(cached.order):
            cached.cocycle_row(x)
        for g in (fresh, cached):
            for x in range(g.order):
                for y in range(g.order):
                    law = cocycle_law(q, x, y)
                    assert g.pmul(x, y) == law, (q, x, y)
                    assert x ^ y ^ _parity(g.cocycle_row(x) & y) == law, (q, x, y)
            assert len(g._rows) <= g.order // 2, q
        assert fresh == idle and hash(fresh) == hash(idle), q
        assert repr(fresh) == repr(idle), q


def test_left_factor_outside_the_group_raises_and_stores_nothing():
    """pmul and cocycle_row raise IndexError for a left factor outside the
    group, whether its key is a single bit past the unit rows, holds one or
    is negative, and the row table keeps no row for it."""
    g = from_form(direct_sum(h_minus(), q_one()))
    size = len(g._rows)
    for x in (g.order, g.order | 2, 2 * g.order, -1, -2, -g.order):
        with pytest.raises(IndexError):
            g.pmul(x, 1)
        with pytest.raises(IndexError):
            g.cocycle_row(x)
        assert len(g._rows) == size, x


def test_row_table_builds_each_missed_row_once(monkeypatch):
    """Each row the table lacks costs one call of its missing-key hook, in
    either order of left factors: a dim-10 model filled by ``_Law.squares``
    in increasing order and one filled in decreasing order each build the
    2^10 - 11 rows beyond the seeded row of 0 and unit rows, one call per
    row.  The tables are equal, and bit b of each row R(x) is the central
    bit x ^ y ^ (x * y) for y = 1 << b under the law summed term by term."""
    missed = counted(monkeypatch, gexgroup._Rows, "__missing__")
    q = random_form(10, random.Random(RNG_SEED + 10))
    up, down = from_form(q), from_form(q)
    _Law(up).squares
    assert missed.calls == len(up._rows) - 11 == 2**10 - 11
    missed.calls = 0
    for x in reversed(range(down.order)):
        down.pmul(x, x)
    assert missed.calls == len(down._rows) - 11 == 2**10 - 11
    assert up._rows == down._rows
    for key, row in up._rows.items():
        x = key << 1
        bits = [x ^ y ^ cocycle_law(q, x, y) for y in (1 << b for b in range(11))]
        assert row == sum(c << b for b, c in enumerate(bits)), key


def test_serialization_round_trip():
    g = from_form(sum_forms(h_minus(), q_one()))
    spec = g.to_string()
    assert spec.startswith("gex:")
    assert parse_form(spec[len("gex:") :]) == g.form


def test_dimension_cap():
    with pytest.raises(ValueError):
        from_form(zero_form(17))
    with pytest.raises(ValueError):
        direct_z2(from_form(zero_form(10)), 7)


def test_central_product_form_and_order():
    q8 = from_form(h_minus())
    d8 = from_form(h_plus())
    prod = central_product(q8, d8)
    assert prod.order == 32
    assert prod.form == direct_sum(h_minus(), h_plus())
    with pytest.raises(ValueError):
        central_product(q8, from_form(zero_form(2)))


def test_models_match_reference_tables():
    assert iso_oracle(from_form(h_minus()), TableGroup(Q8_TABLE))
    assert iso_oracle(from_form(h_plus()), TableGroup(D8_TABLE))
    assert iso_oracle(from_form(q_one()), TableGroup(Z4_TABLE))
    assert not iso_oracle(TableGroup(Q8_TABLE), TableGroup(D8_TABLE))


def test_isomorphism_passes_the_full_table_check():
    """The lifts the certificate returns define an isomorphism over every
    pair: z^eps y^v -> z'^eps y'^v, built word by word from the two lift
    tuples with z, z' the generators of Phi (the identity when Phi is
    trivial), for the reference tables against their models and for seeded
    same-class pairs at orders 8-64; the oracle itself builds no map."""

    def words(g, ys):
        law = _Law(g)
        out = []
        for x0 in (law.identity, *(law.frattini - {law.identity})):
            for v in range(1 << len(ys)):
                x = x0
                for i, y in enumerate(ys):
                    if v >> i & 1:
                        x = g.pmul(x, y)
                out.append(x)
        return out

    rng = random.Random(RNG_SEED + 5)
    pairs = [
        (from_form(q), TableGroup(t))
        for q, t in ((h_minus(), Q8_TABLE), (h_plus(), D8_TABLE), (q_one(), Z4_TABLE))
    ]
    for dim in range(2, 6):
        for fc in form_classes(dim):
            g1 = from_form(hidden_form(fc, rng))
            pairs.append((g1, from_form(hidden_form(fc, rng))))
    for g1, g2 in pairs:
        for a, b in ((g1, g2), (g2, g1)):
            ys1, ys2 = _isomorphism(a, b)
            m = dict(zip(words(a, ys1), words(b, ys2)))
            assert len(m) == a.order == b.order
            assert is_isomorphism(m, a.order, a.pmul, b.pmul)


def test_certificate_refuses_unequal_relations_and_dependent_lifts():
    """The certificate refuses lifts whose forms differ, and lifts that read
    equal forms but are dependent modulo Phi, so generate too little."""
    # Z4 x Z2 with a and ac of order 4, a^2 = (ac)^2 the central involution.
    z4z2 = _Law(from_form(direct_sum(q_one(), zero_form(1))))
    q8 = _Law(TableGroup(Q8_TABLE))
    a, ac = 2, 6
    i, j = 2, 4
    # Columns over the basis of G/Phi: a = e1 and ac = e1 + e2; i = e1, j = e2.
    assert z4z2.basis == q8.basis == (2, 4)
    cols_a_ac, cols_i_j, cols_i_i = (0b01, 0b11), (0b01, 0b10), (0b01, 0b01)
    # a and ac commute with a product of order 2; i and j do not, and ij
    # has order 4.
    assert z4z2.pmul(a, ac) == z4z2.pmul(ac, a)
    assert z4z2.element_orders[z4z2.pmul(a, ac)] == 2
    assert q8.pmul(i, j) != q8.pmul(j, i)
    assert q8.element_orders[q8.pmul(i, j)] == 4
    # Squares and orders match and both column sets have full rank, but
    # a * ac = ac * a while ij = k != -k = ji: the forms differ.
    assert _certify(z4z2, q8, cols_a_ac, cols_i_j) is None
    # Both to i reads the same form as (a, ac), since i commutes with
    # itself, but i, i span one dimension of two: the rank check refuses.
    assert gexgroup._read_form(q8.pmul, [i, i], 0) == gexgroup._read_form(
        z4z2.pmul, [a, ac], 0
    )
    assert _certify(z4z2, q8, cols_a_ac, cols_i_i) is None
    assert _certify(z4z2, z4z2, cols_a_ac, cols_a_ac) == ([a, ac], [a, ac])
    assert _certify(q8, q8, cols_i_j, cols_i_j) == ([i, j], [i, j])
    # A basis of GF(2)^2 needs two columns: one is refused.
    assert _certify(q8, q8, (0b01,), (0b01,)) is None


def test_q8q8_is_d8d8_but_q8_is_not_d8():
    q8 = from_form(h_minus())
    d8 = from_form(h_plus())
    assert iso_oracle(central_product(q8, q8), central_product(d8, d8))
    assert not iso_oracle(q8, d8)


def test_iso_oracle_order_cap():
    """The cap is the order of the largest group model, and it and the order
    comparison come before any invariant is read: a group of twice that
    order whose law raises on every use is refused with ValueError."""
    g16 = from_form(zero_form(FROM_FORM_DIM_CAP))
    assert gexgroup.ISO_ORACLE_ORDER_CAP == g16.order

    class Unread:
        order = 2 * gexgroup.ISO_ORACLE_ORDER_CAP

        def pmul(self, x, y):
            raise AssertionError("the law was read")

    with pytest.raises(ValueError, match="capped at order"):
        iso_oracle(Unread(), Unread())
    assert not iso_oracle(g16, from_form(zero_form(4)))
    assert not iso_oracle(Unread(), g16)


def z4_by_z4(sign: int) -> TableGroup:
    """<x, y | x^4 = y^4 = 1, y x y^-1 = x^sign>: Z4 x Z4 for sign 1 and
    Z4 x| Z4 for sign -1, with x^i y^j at index i + 4j, and y^j x^k =
    x^(sign^j k) y^j."""
    return TableGroup(
        tuple(
            tuple(
                (i + sign**j * k) % 4 + 4 * ((j + l) % 4)
                for l in range(4)
                for k in range(4)
            )
            for j in range(4)
            for i in range(4)
        )
    )


def test_iso_oracle_tells_equal_censuses_apart_by_frattini():
    """Q8 x Z2 and Z4 x| Z4 (x^4 = y^4 = 1, y x y^-1 = x^-1) both have order
    16, 3 involutions, 12 elements of order 4 and a center of 4, but |Phi| is
    2 against 4: the Frattini census says False before the |Phi| <= 2 check
    that would refuse Z4 x| Z4 against itself."""
    q8_z2 = TableGroup(
        tuple(
            tuple(2 * Q8_TABLE[x >> 1][y >> 1] + ((x ^ y) & 1) for y in range(16))
            for x in range(16)
        )
    )
    z4_z4 = z4_by_z4(-1)
    a, b = _Law(q8_z2), _Law(z4_z4)
    assert Counter(a.element_orders) == Counter(b.element_orders)
    assert len(central_elements(16, q8_z2.pmul)) == 4
    assert len(central_elements(16, z4_z4.pmul)) == 4
    assert (len(a.frattini), len(b.frattini)) == (2, 4)
    assert not iso_oracle(q8_z2, z4_z4)
    assert not iso_oracle(z4_z4, q8_z2)


def test_iso_oracle_refuses_groups_outside_the_family():
    """Equal order censuses and Frattini orders with |Phi| > 2 are outside
    the family, so the cyclic group of order 8 is refused against itself;
    against Z4 x Z2 and Q8 its census already differs.  Z4 x Z4 and Z4 x| Z4
    have equal order censuses and |Phi| = 4, and are refused in either order
    although their centers, of 16 and 4, differ: the center size is read
    off the commutator form, which needs |Phi| <= 2."""
    z8 = TableGroup(tuple(tuple((a + b) % 8 for b in range(8)) for a in range(8)))
    with pytest.raises(ValueError, match=r"\|Phi\| = 4"):
        iso_oracle(z8, z8)
    direct, semidirect = z4_by_z4(1), z4_by_z4(-1)
    assert len(central_elements(16, direct.pmul)) == 16
    assert len(central_elements(16, semidirect.pmul)) == 4
    for g1, g2 in ((direct, semidirect), (semidirect, direct)):
        with pytest.raises(ValueError, match=r"\|Phi\| = 4"):
            iso_oracle(g1, g2)
    assert not iso_oracle(z8, from_form(direct_sum(q_one(), zero_form(1))))
    assert not iso_oracle(z8, TableGroup(Q8_TABLE))


def test_certificate_failure_raises_naming_both_forms(monkeypatch):
    """A certificate that fails on equal censuses is a defect, not a False.
    H- + H+ + 0 has the witness columns a-, b-, a+, b+, r.  Swapping b- and
    b+ on the second side changes two squares, so the forms read over the
    lifts differ, although the columns keep full rank.  H+ + 0^3 has the
    columns a, b, r1, r2, r3, and repeating r3 in place of r2 keeps every
    relation, so only the rank check refuses the lifts, which generate a
    proper subgroup.  Either way iso_oracle raises RuntimeError naming both
    forms it read, which for a model are the forms of its lifts."""
    normal_basis = gexgroup._normal_basis
    rng = random.Random(RNG_SEED + 9)
    swap = lambda cols: [cols[0], cols[3], cols[2], cols[1], cols[4]]
    repeat = lambda cols: [*cols[:3], cols[4], cols[4]]
    cases = [
        (FormClass(5, 2, Kind.MINUS, 1), swap),
        (FormClass(5, 1, Kind.PLUS, 3), repeat),
    ]
    for fc, edit in cases:
        sides = []

        def edited(q, edit=edit, sides=sides):
            got, cols = normal_basis(q)
            sides.append(q)
            return got, edit(cols) if len(sides) == 2 else cols

        monkeypatch.setattr(gexgroup, "_normal_basis", edited)
        g1, g2 = from_form(hidden_form(fc, rng)), from_form(hidden_form(fc, rng))
        with pytest.raises(RuntimeError) as failure:
            iso_oracle(g1, g2)
        assert len(sides) == 2
        assert g1.form.to_string() in str(failure.value)
        assert g2.form.to_string() in str(failure.value)


def test_table_frattini_matches_form_level_order():
    """|Phi| read through the law, as the subgroup the squares generate, is
    the form-level frattini_order; the greedy basis modulo Phi has
    log2(order / |Phi|) generators, and ``reference.generated`` finds that
    they generate the whole group; |Phi| 2^(n - rank B), for the commutator
    form B read over the n basis elements, is the size of the center.
    Every form of dim <= 4, and seeded hidden bases of every class at dim 5
    (order 64, Z2^6 and Z4 x Z2^4 among them) against the brute-force
    center."""
    groups = [
        (g, frattini_order(g), set(center(g)))
        for dim in range(5)
        for g in map(from_form, all_forms(dim))
    ]
    rng = random.Random(RNG_SEED + 7)
    for fc in form_classes(5):
        for _ in range(3):
            g = from_form(hidden_form(fc, rng))
            groups.append((g, frattini_order(g), central_elements(g.order, g.pmul)))
    for t in (Q8_TABLE, D8_TABLE, Z4_TABLE):
        g = TableGroup(t)
        groups.append((g, 2, central_elements(g.order, g.pmul)))
    for g, phi_order, center_set in groups:
        law = _Law(g)
        assert len(law.frattini) == phi_order
        assert 1 << len(law.basis) == g.order // phi_order
        assert len(generated(g.pmul, law.identity, law.basis)) == g.order
        form = gexgroup._read_form(g.pmul, law.basis, law.identity)
        n = len(law.basis)
        assert phi_order << (n - rank(form.polar())) == len(center_set)
    # The basis generates only in a 2-group, so other orders are refused,
    # the empty table among them; a table that is not a group is refused too.
    with pytest.raises(ValueError):
        TableGroup(tuple(tuple((a + b) % 3 for b in range(3)) for a in range(3)))
    with pytest.raises(ValueError):
        TableGroup(())
    with pytest.raises(ValueError):
        TableGroup(((1, 0), (0, 0)))
    # An identity row, but row 1 is no permutation: the powers of 1 stay at
    # 1 and never reach the identity.
    with pytest.raises(ValueError):
        TableGroup(((0, 1), (1, 1)))
    # A Latin square with an identity row and column that is not associative:
    # Z2^3 with the intercalate at rows 1, 7 and columns 2, 4 swapped.
    loop = [[x ^ y for y in range(8)] for x in range(8)]
    loop[1][2], loop[1][4], loop[7][2], loop[7][4] = 5, 3, 3, 5
    assert all(sorted(line) == list(range(8)) for line in loop + list(zip(*loop)))
    assert loop[0] == list(range(8)) == [row[0] for row in loop]
    with pytest.raises(ValueError, match="associative"):
        TableGroup(loop)


def test_iso_oracle_tail_classes():
    """Every class at dims 5-10, three at dim 12 and three at dim 16 (the
    cap) are found isomorphic on seeded hidden bases, every class at dims
    5-10 is told apart from another class of its dimension, and so is one
    pair at dim 16; six classes at dims 4-5, the non-abelian ones with a
    radical among them, on four pairs of hidden bases each.  Every ordered
    pair of distinct classes at orders 32 and 64 is told apart."""
    rng = random.Random(RNG_SEED + 6)
    model = lambda fc: from_form(hidden_form(fc, rng))
    tail = [
        FormClass(4, 1, Kind.PLUS, 2),
        FormClass(5, 1, Kind.PLUS, 3),
        FormClass(5, 2, Kind.PLUS, 1),
        FormClass(5, 2, Kind.MINUS, 1),
        FormClass(5, 2, Kind.QONE, 1),
        FormClass(5, 1, Kind.QONE, 3),
    ]
    for fc in tail:
        for _ in range(4):
            assert iso_oracle(model(fc), model(fc))
    for dim in (4, 5):
        classes = form_classes(dim)
        for fc1 in classes:
            for fc2 in classes:
                if fc1 != fc2:
                    assert not iso_oracle(model(fc1), model(fc2)), (fc1, fc2)
    for dim in range(5, 11):
        classes = form_classes(dim)
        for fc in classes:
            other = rng.choice([c for c in classes if c != fc])
            g = model(fc)
            assert iso_oracle(g, model(fc)), fc
            assert not iso_oracle(g, model(other)), (fc, other)
    for kind in (Kind.PLUS, Kind.MINUS, Kind.QONE):
        fc = FormClass(12, 4, kind, 4)
        assert iso_oracle(model(fc), model(fc)), fc
    # The cap: dim 16, order 2^17.
    for kind in (Kind.PLUS, Kind.MINUS, Kind.QONE):
        fc = FormClass(16, 6, kind, 4)
        assert iso_oracle(model(fc), model(fc)), fc
    assert not iso_oracle(
        model(FormClass(16, 6, Kind.PLUS, 4)), model(FormClass(16, 6, Kind.MINUS, 4))
    )


def test_classify_group_dictionary():
    cases = [
        (h_minus(), GroupClass(BaseKind.Q8_POWER, 1, 0)),
        (h_plus(), GroupClass(BaseKind.Q8_POWER_D8, 1, 0)),
        (q_one(), GroupClass(BaseKind.Q8_POWER_Z4, 0, 0)),
        (zero_form(2), GroupClass(BaseKind.ELEMENTARY_ABELIAN, 0, 3)),
        # H- + H- classifies as H+^2, so both order-32 products name Q8^*2
        (direct_sum(h_minus(), h_minus()), GroupClass(BaseKind.Q8_POWER, 2, 0)),
        (direct_sum(h_plus(), h_plus()), GroupClass(BaseKind.Q8_POWER, 2, 0)),
        (direct_sum(h_minus(), h_plus()), GroupClass(BaseKind.Q8_POWER_D8, 2, 0)),
        (sum_forms(h_minus(), q_one()), GroupClass(BaseKind.Q8_POWER_Z4, 1, 0)),
        (
            sum_forms(h_minus(), zero_form(2)),
            GroupClass(BaseKind.Q8_POWER, 1, 2),
        ),
    ]
    for q, expected in cases:
        assert classify_group(from_form(q)) == expected


def test_group_class_describe():
    assert GroupClass(BaseKind.Q8_POWER, 1, 0).describe() == "Q8"
    assert GroupClass(BaseKind.Q8_POWER, 3, 0).describe() == "Q8^*3"
    assert GroupClass(BaseKind.Q8_POWER_D8, 1, 0).describe() == "D8"
    assert GroupClass(BaseKind.Q8_POWER_D8, 2, 1).describe() == "Q8*D8 x Z2"
    assert GroupClass(BaseKind.Q8_POWER_Z4, 0, 0).describe() == "Z4"
    assert GroupClass(BaseKind.Q8_POWER_Z4, 2, 2).describe() == "Q8^*2*Z4 x Z2^2"
    assert GroupClass(BaseKind.ELEMENTARY_ABELIAN, 0, 3).describe() == "Z2^3"


def test_dictionary_against_oracle_random():
    rng = random.Random(RNG_SEED + 3)
    for _ in range(30):
        q1 = random_form(rng.randrange(1, 5), rng)
        q2 = random_form(q1.dim, rng)
        g1, g2 = from_form(q1), from_form(q2)
        same = classify_group(g1) == classify_group(g2)
        assert iso_oracle(g1, g2) == same


def test_direct_z2_pads_radical():
    g = direct_z2(from_form(h_minus()), 3)
    assert g.order == 64
    fc = classify(g.form)
    assert fc == FormClass(5, 1, Kind.MINUS, 3)
    assert classify_group(g) == GroupClass(BaseKind.Q8_POWER, 1, 3)


def test_dictionary_detects_a_wrong_reference_table(monkeypatch):
    """check_dictionary proves each reference table isomorphic to the model of
    its form, so a D8 table standing in for Q8 must fail it and name Q8."""
    monkeypatch.setattr(gexgroup, "Q8_TABLE", D8_TABLE)
    ok, detail = verify.check_dictionary()
    assert not ok
    assert detail.startswith("Q8 table")


def test_group_laws_detects_a_broken_law(monkeypatch):
    """check_group_laws takes x^-1 = x ^ x^2 from pmul, so a law whose squares
    are all trivial (then x^-1 = x) must fail it and name the form."""
    law = GexGroup.pmul
    monkeypatch.setattr(
        GexGroup, "pmul", lambda self, x, y: 0 if x == y else law(self, x, y)
    )
    ok, detail = verify.check_group_laws(max_dim=2)
    prefix = "commutator law at "
    assert not ok
    assert detail.startswith(prefix)
    assert parse_form(detail[len(prefix) :]).dim <= 2


@pytest.mark.parametrize(
    "name, mutant, detail",
    [
        (
            "central_product",
            lambda f: lambda g1, g2: direct_z2(f(g1, g2), 1),
            "|Q8*Q8| = 64",
        ),
        (
            "frattini_order",
            lambda f: lambda g: f(g) << (g.dim == 4),
            "Frattini of a central product must have order 2",
        ),
        (
            "_form_class",
            lambda f: lambda dim, m1, values: f(dim, m1, values & ~0b11),
            "Q8*Q8 and D8*D8 classify differently",
        ),
        (
            "iso_oracle",
            lambda f: lambda g1, g2: f(g1, g2) ^ (g1.order == 32),
            "oracle rejects Q8*Q8 = D8*D8",
        ),
        (
            "iso_oracle",
            lambda f: lambda g1, g2: f(g1, g2) ^ (g1.order == 8),
            "oracle conflates Q8 and D8",
        ),
    ],
    ids=["order", "frattini", "class", "oracle-rejects", "oracle-conflates"],
)
def test_central_product_check_names_each_failure(monkeypatch, name, mutant, detail):
    """check_central_products' five failure returns, each reached by one
    mutant of gexgroup: a central product with a spare Z2 factor, a
    Frattini order doubled at dim 4, Q dropped on the first pair of the
    decomposition that classify_group reads (Q8*Q8 then reads as H- + H+,
    D8*D8 still as H+ + H+), and the oracle's verdict flipped at order 32
    and at order 8."""
    monkeypatch.setattr(gexgroup, name, mutant(getattr(gexgroup, name)))
    assert verify.check_central_products() == (False, detail)


def _without_q(q):
    """q with Q(e_i) = 0 on every unit vector and its polar form kept."""
    return QuadraticForm(q.dim, 0, q.upper)


@pytest.mark.parametrize(
    "owner, name, mutant, detail",
    [
        (
            gexgroup,
            "q_from_group",
            lambda f: lambda g: _without_q(f(g)),
            "central product form mismatch at l=6;d=010010;u=000000000000111",
        ),
        (
            gexgroup,
            "q_from_group",
            lambda f: lambda g: zero_form(8) if g.dim == 8 else f(g),
            "Z2-factor form mismatch at l=6;d=010010;u=000000000000111 + 0^2",
        ),
        (
            GexGroup,
            "order",
            lambda f: property(lambda g: f.fget(g) << (g.dim > 2)),
            "order 1024 at l=6;d=010010;u=000000000000111 + 0^2",
        ),
    ],
    ids=["product-form", "z2-form", "order"],
)
def test_dictionary_check_names_each_failure(monkeypatch, owner, name, mutant, detail):
    """check_dictionary's three failure returns after its tables, each reached
    by one mutant on the first random product under the default seed, a
    dim-6 q12 padded with 0^2: q_from_group reading every square as trivial,
    q_from_group reading the zero form at dim 8 (the padded model, not the
    product), and a model order doubled above dim 2 (the models that the
    dim-1 and dim-2 tables are checked against keep theirs)."""
    monkeypatch.delenv(verify.SEED_ENV_VAR, raising=False)
    monkeypatch.setattr(owner, name, mutant(getattr(owner, name)))
    assert verify.check_dictionary() == (False, detail)


def test_group_laws_check_names_the_squaring_failure(monkeypatch):
    """check_group_laws' squaring return: models built without the diagonal
    of their form keep every commutator, so only the squares fail, first at
    the dim-1 form with Q(e_1) = 1."""
    monkeypatch.setattr(gexgroup, "from_form", lambda q: GexGroup(_without_q(q)))
    assert verify.check_group_laws() == (False, "squaring law at l=1;d=1;u=")
