import random

import pytest

from gexforms import clifford
from gexforms.clifford import (
    IDENTITY,
    CliffordElement,
    EnTableRow,
    _blade_mul,
    clifford_mul,
    e_group,
    en_computed_class,
    en_expected_class,
    g0_form,
    psi,
    verify_en_table,
    verify_psi,
)
from gexforms.gexgroup import BaseKind, GroupClass, from_form
from gexforms.quadform import classify, FormClass, Kind, QuadraticForm

RNG_SEED = 271828


def test_element_validation():
    with pytest.raises(ValueError):
        CliffordElement(0, 0b1)  # odd subset size
    with pytest.raises(ValueError):
        CliffordElement(2, 0b11)
    CliffordElement(1, 0b101)  # fine: {e1, e3}


def test_generator_pair_squares_to_minus_one():
    # (e1 e2)^2 = e1 e2 e1 e2 = -e1 e1 e2 e2 = -(-1)(-1) = -1
    x = CliffordElement(0, 0b11)
    assert clifford_mul(x, x) == CliffordElement(1, 0)


def test_disjoint_pairs_commute_or_anticommute():
    a = CliffordElement(0, 0b0011)  # e1 e2
    b = CliffordElement(0, 0b1100)  # e3 e4
    assert clifford_mul(a, b) == clifford_mul(b, a)  # even grades commute here
    c = CliffordElement(0, 0b0110)  # e2 e3: shares one generator with each
    ac, ca = clifford_mul(a, c), clifford_mul(c, a)
    assert ac.subset == ca.subset and ac.sign != ca.sign


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
    e12 = CliffordElement(0, 0b0011)
    e34 = CliffordElement(0, 0b1100)
    assert clifford_mul(e12, e34) == CliffordElement(0, 0b1111)
    e13 = CliffordElement(0, 0b0101)
    e23 = CliffordElement(0, 0b0110)
    # (e1 e3)(e2 e3) = -e1 e2 e3 e3 = +e1 e2: one swap, then e3^2 = -1
    assert clifford_mul(e13, e23) == CliffordElement(0, 0b0011)


def test_group_axioms_exhaustive_e4():
    g = e_group(4)
    elems = list(g.elements())
    assert len(elems) == g.order == 16
    for x in elems:
        assert g.mul(IDENTITY, x) == x == g.mul(x, IDENTITY)
    rng = random.Random(RNG_SEED)
    for _ in range(300):
        x, y, z = (rng.choice(elems) for _ in range(3))
        assert g.mul(g.mul(x, y), z) == g.mul(x, g.mul(y, z))
    for x in elems:
        assert any(g.mul(x, y) == IDENTITY for y in elems)


def test_e_group_closure_small():
    g = e_group(3)
    elems = set(g.elements())
    for x in elems:
        for y in elems:
            assert g.mul(x, y) in elems


def test_e_group_bounds():
    with pytest.raises(ValueError):
        e_group(1)
    with pytest.raises(ValueError):
        e_group(18)
    with pytest.raises(ValueError):
        e_group(2).mul(IDENTITY, CliffordElement(0, 0b110))


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


def test_psi_generator_images():
    n = 5
    # even product maps to itself
    assert psi([1, 2], n) == CliffordElement(0, 0b00011)
    # odd product picks up e_n
    assert psi([3], n) == CliffordElement(0, 0b10100)
    # sign tracking: e2 e1 = -e1 e2
    assert psi([2, 1], n) == CliffordElement(1, 0b00011)
    with pytest.raises(ValueError):
        psi([5], 5)  # only e_1 .. e_{n-1} are generators here


def test_psi_images_land_in_en():
    n = 6
    g = e_group(n)
    elems = set(g.elements())
    rng = random.Random(RNG_SEED + 1)
    for _ in range(100):
        word = [rng.randrange(1, n) for _ in range(rng.randrange(0, 6))]
        assert psi(word, n) in elems


def test_psi_respects_products():
    n = 6
    rng = random.Random(RNG_SEED + 2)
    for _ in range(100):
        w1 = [rng.randrange(1, n) for _ in range(rng.randrange(0, 5))]
        w2 = [rng.randrange(1, n) for _ in range(rng.randrange(0, 5))]
        if (len(w1) % 2, len(w2) % 2) == (1, 1):
            continue  # odd*odd picks up e_n^2 = -1 relative to concatenation
        assert psi(w1 + w2, n) == clifford_mul(psi(w1, n), psi(w2, n))


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
        assert e_group(n).order == from_form(g0_form(n - 1)).order == 1 << n


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
