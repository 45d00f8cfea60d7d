import random

import pytest

from gexforms import clifford
from gexforms.clifford import (
    EnTableRow,
    _blade_mul,
    _psi_packed,
    en_computed_class,
    en_expected_class,
    g0_form,
    verify_en_table,
    verify_psi,
)
from gexforms.gexgroup import BaseKind, GroupClass, from_form
from gexforms.quadform import classify, FormClass, Kind, QuadraticForm

RNG_SEED = 271828
MINUS_ONE = 1  # packed (subset << 1) | sign: the empty product with sign -


def blade(subset, sign=0):
    return (subset << 1) | sign


def mul(x, y):
    """The E(n) product of packed elements, through the blade product."""
    sign, subset = _blade_mul(x & 1, x >> 1, y & 1, y >> 1)
    return blade(subset, sign)


def elements(n):
    """Every packed element of E(n): both signs of each even subset."""
    evens = [s for s in range(1 << n) if s.bit_count() % 2 == 0]
    return [blade(s, sign) for s in evens for sign in (0, 1)]


def test_generator_pair_squares_to_minus_one():
    # (e1 e2)^2 = e1 e2 e1 e2 = -e1 e1 e2 e2 = -(-1)(-1) = -1
    x = blade(0b11)
    assert mul(x, x) == MINUS_ONE


def test_disjoint_pairs_commute_or_anticommute():
    a = blade(0b0011)  # e1 e2
    b = blade(0b1100)  # e3 e4
    assert mul(a, b) == mul(b, a)  # even grades commute here
    c = blade(0b0110)  # e2 e3: shares one generator with each
    ac, ca = mul(a, c), mul(c, a)
    assert ac ^ ca == MINUS_ONE  # same subset, opposite signs


def _blade_mul_reference(sa, s, sb, t):
    """The blade product by counting transpositions and squared generators."""
    flips = (s & t).bit_count()
    w = t
    while w:
        j = (w & -w).bit_length() - 1
        w &= w - 1
        flips += (s >> (j + 1)).bit_count()
    return (sa ^ sb ^ (flips & 1), s ^ t)


def test_blade_mul_matches_transposition_count():
    for s in range(1 << 8):
        for t in range(1 << 8):
            assert _blade_mul(0, s, 0, t) == _blade_mul_reference(0, s, 0, t)
    rng = random.Random(RNG_SEED + 5)
    for _ in range(10_000):
        sa, sb = rng.getrandbits(1), rng.getrandbits(1)
        s, t = rng.getrandbits(17), rng.getrandbits(17)
        assert _blade_mul(sa, s, sb, t) == _blade_mul_reference(sa, s, sb, t)


def test_known_product_signs():
    e12 = blade(0b0011)
    e34 = blade(0b1100)
    assert mul(e12, e34) == blade(0b1111)
    e13 = blade(0b0101)
    e23 = blade(0b0110)
    # (e1 e3)(e2 e3) = -e1 e2 e3 e3 = +e1 e2: one swap, then e3^2 = -1
    assert mul(e13, e23) == blade(0b0011)


def test_group_axioms_exhaustive_e4():
    elems = elements(4)
    assert len(elems) == len(set(elems)) == 16
    for x in elems:
        assert mul(0, x) == x == mul(x, 0)
    rng = random.Random(RNG_SEED)
    for _ in range(300):
        x, y, z = (rng.choice(elems) for _ in range(3))
        assert mul(mul(x, y), z) == mul(x, mul(y, z))
    for x in elems:
        assert any(mul(x, y) == 0 for y in elems)


def test_e_group_closure_small():
    elems = set(elements(3))
    for x in elems:
        for y in elems:
            assert mul(x, y) in elems


def test_g0_form_class():
    # all-ones form on l generators: Q(e_i) = 1, all pairs linked
    for l in range(1, 9):
        q = g0_form(l)
        assert all(q.eval_bits(1 << i) == 1 for i in range(l))
        for i in range(l):
            for j in range(i + 1, l):
                assert q.bilinear_bits(1 << i, 1 << j) == 1
    assert classify(g0_form(1)) == FormClass(1, 0, Kind.QONE, 1)
    assert classify(g0_form(2)) == FormClass(2, 1, Kind.MINUS, 0)


def word_element(g, word):
    """The packed cocycle-model element of a word in the generators e_1 ..
    e_{n-1}, each the lift 1 << i of its basis vector."""
    x = 0
    for i in word:
        x = g.pmul(x, 1 << i)
    return x


def test_psi_generator_images():
    n = 5
    g = from_form(g0_form(n - 1))
    # even product maps to itself
    assert _psi_packed(g, word_element(g, [1, 2]), n) == (0, 0b00011)
    # odd product picks up e_n
    assert _psi_packed(g, word_element(g, [3]), n) == (0, 0b10100)
    # sign tracking: e2 e1 = -e1 e2
    assert _psi_packed(g, word_element(g, [2, 1]), n) == (1, 0b00011)


def test_psi_images_land_in_en():
    n = 6
    g = from_form(g0_form(n - 1))
    elems = set(elements(n))
    rng = random.Random(RNG_SEED + 1)
    for _ in range(100):
        word = [rng.randrange(1, n) for _ in range(rng.randrange(0, 6))]
        sign, subset = _psi_packed(g, word_element(g, word), n)
        assert blade(subset, sign) in elems


def test_psi_respects_products():
    n = 6
    g = from_form(g0_form(n - 1))

    def image(x):
        sign, subset = _psi_packed(g, x, n)
        return blade(subset, sign)

    rng = random.Random(RNG_SEED + 2)
    for _ in range(100):
        w1 = [rng.randrange(1, n) for _ in range(rng.randrange(0, 5))]
        w2 = [rng.randrange(1, n) for _ in range(rng.randrange(0, 5))]
        x1, x2 = word_element(g, w1), word_element(g, w2)
        assert word_element(g, w1 + w2) == g.pmul(x1, x2)
        assert image(g.pmul(x1, x2)) == mul(image(x1), image(x2))


def test_verify_psi_exhaustive_small():
    for n in range(2, 7):
        assert verify_psi(n)


def test_verify_psi_sampled():
    rng = random.Random(RNG_SEED + 3)
    assert verify_psi(9, sample_pairs=200, rng=rng)
    with pytest.raises(ValueError):
        verify_psi(9, sample_pairs=10)  # sampling needs an rng
    with pytest.raises(ValueError):
        verify_psi(11)


def test_verify_psi_detects_a_wrong_form(monkeypatch):
    # One polar coefficient flipped: e_1 and e_2 commute in the model but
    # their images anticommute, so the map is no homomorphism.
    def flipped(n_minus_1):
        q = g0_form(n_minus_1)
        upper = (q.upper[0] ^ 0b10,) + q.upper[1:]
        return QuadraticForm(q.dim, q.diag, upper)

    monkeypatch.setattr(clifford, "g0_form", flipped)
    for n in range(3, 10):
        assert not verify_psi(n)
    rng = random.Random(RNG_SEED + 4)
    assert not verify_psi(10, sample_pairs=1000, rng=rng)


def test_en_order_matches_presented_group():
    for n in range(2, 9):
        assert len(elements(n)) == from_form(g0_form(n - 1)).order == 1 << n


def test_expected_classes_by_residue():
    assert en_expected_class(2) == GroupClass(BaseKind.Q8_POWER_Z4, 0, 1)
    assert en_expected_class(3) == GroupClass(BaseKind.Q8_POWER, 1, 1)
    assert en_expected_class(4) == GroupClass(BaseKind.Q8_POWER, 1, 2)
    assert en_expected_class(5) == GroupClass(BaseKind.Q8_POWER_D8, 2, 1)
    assert en_expected_class(8) == GroupClass(BaseKind.Q8_POWER_D8, 3, 2)
    assert en_expected_class(16) == GroupClass(BaseKind.Q8_POWER_D8, 7, 2)
    with pytest.raises(ValueError):
        en_expected_class(1)


def test_computed_class_agrees_with_expected():
    for n in range(2, 18):
        assert en_computed_class(n) == en_expected_class(n)


def test_table_rows_and_format():
    rows = verify_en_table(17)
    assert len(rows) == 16
    assert all(isinstance(r, EnTableRow) and r.ok for r in rows)
    assert {r.residue for r in rows} == set(range(8))
    line = rows[0].format()
    assert line == "n=2 residue=2 computed=Z4 x Z2 expected=Z4 x Z2 PASS"
    bad = EnTableRow(3, 3, en_expected_class(4), en_expected_class(3))
    assert bad.format().endswith("FAIL")
    with pytest.raises(ValueError):
        verify_en_table(18)
