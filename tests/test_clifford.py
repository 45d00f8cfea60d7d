import random

import pytest

from gexforms import clifford
from gexforms.clifford import (
    MAX_N,
    EnTableRow,
    _generator_lifts,
    _psi_images,
    _sign_mask,
    en_computed_class,
    en_expected_class,
    g0_form,
    verify_en_table,
    verify_psi,
)
from gexforms.gexgroup import BaseKind, GexGroup, GroupClass, from_form
from gexforms.quadform import classify, FormClass, Kind, QuadraticForm

from reference import is_isomorphism, polarization
from seeded import RNG_SEED, counted

MINUS_ONE = 1  # packed (subset << 1) | sign: the empty product with sign -


def blade(subset, sign=0):
    return (subset << 1) | sign


def blade_mul(sa, s, sb, t):
    """Multiply two signed blades (no evenness constraint) by the sign mask."""
    return (sa ^ sb ^ ((_sign_mask(s) & t).bit_count() & 1), s ^ t)


def mul(x, y):
    """The E(n) product of packed elements, through the blade product."""
    sign, subset = blade_mul(x & 1, x >> 1, y & 1, y >> 1)
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
            assert blade_mul(0, s, 0, t) == _blade_mul_reference(0, s, 0, t)
    rng = random.Random(RNG_SEED + 5)
    for _ in range(10_000):
        sa, sb = rng.getrandbits(1), rng.getrandbits(1)
        s, t = rng.getrandbits(17), rng.getrandbits(17)
        assert blade_mul(sa, s, sb, t) == _blade_mul_reference(sa, s, sb, t)


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
                assert polarization(q, 1 << i, 1 << j) == 1
    assert classify(g0_form(1)) == FormClass(1, 0, Kind.QONE, 1)
    assert classify(g0_form(2)) == FormClass(2, 1, Kind.MINUS, 0)
    assert g0_form(16).dim == 16
    for l in (0, 17):
        with pytest.raises(ValueError, match=r"generator count must be in \[1, 16\]"):
            g0_form(l)


def word_element(g, word):
    """The packed cocycle-model element of a word in the generators e_1 ..
    e_{n-1}, each the lift 1 << i of its basis vector."""
    x = 0
    for i in word:
        x = g.pmul(x, 1 << i)
    return x


def psi_table(n):
    """The cocycle model of the presented group and its psi image table."""
    g = from_form(g0_form(n - 1))
    return g, _psi_images(_generator_lifts(g))


def test_generator_lifts_apply_the_law_once_per_entry(monkeypatch):
    """The _generator_lifts docstring: "one law application per entry", so
    2^(n-1) - 1 pmul calls for g0_form(n - 1), the empty product being free."""
    pmul = counted(monkeypatch, GexGroup, "pmul")
    for n in range(2, 11):
        g = from_form(g0_form(n - 1))
        pmul.calls = 0
        _generator_lifts(g)
        assert pmul.calls == (1 << (n - 1)) - 1, n


def test_verify_psi_applies_the_law_only_to_build_the_lifts(monkeypatch):
    """The verify_psi docstring's cost: the 2^(n-1) - 1 law applications of
    _generator_lifts and none in the proof, n-1 cocycle rows, and 2^n sign
    masks for the additivity premise plus one per generator image."""
    pmul = counted(monkeypatch, GexGroup, "pmul")
    rows = counted(monkeypatch, GexGroup, "cocycle_row")
    masks = counted(monkeypatch, clifford, "_sign_mask")
    generator_lifts = clifford._generator_lifts
    in_lifts = []

    def lifts_counted(g):
        before = pmul.calls
        lift = generator_lifts(g)
        in_lifts.append(pmul.calls - before)
        return lift

    monkeypatch.setattr(clifford, "_generator_lifts", lifts_counted)
    for n in range(2, 11):
        pmul.calls = rows.calls = masks.calls = 0
        in_lifts.clear()
        assert verify_psi(n)
        assert in_lifts == [pmul.calls] == [(1 << (n - 1)) - 1], n
        assert rows.calls == n - 1, n
        assert masks.calls == (1 << n) + n - 1, n


def test_psi_generator_images():
    n = 5
    g, images = psi_table(n)
    # even product maps to itself
    assert images[word_element(g, [1, 2])] == 0b00011 << 1
    # odd product picks up e_n
    assert images[word_element(g, [3])] == 0b10100 << 1
    # sign tracking: e2 e1 = -e1 e2
    assert images[word_element(g, [2, 1])] == (0b00011 << 1) | 1


def test_psi_images_land_in_en():
    n = 6
    g, images = psi_table(n)
    elems = set(elements(n))
    rng = random.Random(RNG_SEED + 1)
    for _ in range(100):
        word = [rng.randrange(1, n) for _ in range(rng.randrange(0, 6))]
        assert images[word_element(g, word)] in elems


def test_psi_respects_products():
    n = 6
    g, images = psi_table(n)
    rng = random.Random(RNG_SEED + 2)
    for _ in range(100):
        w1 = [rng.randrange(1, n) for _ in range(rng.randrange(0, 5))]
        w2 = [rng.randrange(1, n) for _ in range(rng.randrange(0, 5))]
        x1, x2 = word_element(g, w1), word_element(g, w2)
        assert word_element(g, w1 + w2) == g.pmul(x1, x2)
        assert images[g.pmul(x1, x2)] == mul(images[x1], images[x2])


def psi_per_element(g, x, n):
    """psi of one packed element, word by word: the sign and subset of the
    blade product of the generators of x, e_n appended when x is odd, and the
    central power read off the ascending product of the lifts."""
    v, eps = x >> 1, x & 1
    sign, subset = 0, 0
    lift_product = 0
    w = v
    while w:
        i = (w & -w).bit_length() - 1
        w &= w - 1
        sign, subset = blade_mul(sign, subset, 0, 1 << i)
        lift_product = g.pmul(lift_product, 1 << (i + 1))
    if v.bit_count() % 2:
        subset |= 1 << (n - 1)
    return blade(subset, sign ^ eps ^ (lift_product & 1))


def psi_all_pairs(n, mutant=None):
    """The homomorphism check on all 4^n element pairs, with images built
    element by element, then changed by mutant when one is given: an
    independent route to verify_psi's verdict."""
    g = from_form(clifford.g0_form(n - 1))
    images = [psi_per_element(g, x, n) for x in range(g.order)]
    if mutant is not None:
        images = mutant(images)
    if any((image >> 1).bit_count() % 2 for image in images):
        return False
    # the E(n) law, through the sign mask clifford holds at call time
    masks = {p: clifford._sign_mask(p >> 1) << 1 for p in images}
    en_law = lambda p, r: p ^ r ^ ((masks[p] & r).bit_count() & 1)
    return is_isomorphism(images, g.order, g.pmul, en_law)


def flipped_polar(n_minus_1):
    """g0_form with one polar coefficient flipped: e_1 and e_2 commute."""
    q = g0_form(n_minus_1)
    return QuadraticForm(q.dim, q.diag, (q.upper[0] ^ 0b10,) + q.upper[1:])


def flipped_diagonal(n_minus_1):
    """g0_form with Q(e_1) = 0: e_1 squares to the identity."""
    q = g0_form(n_minus_1)
    return QuadraticForm(q.dim, q.diag ^ 1, q.upper)


def non_additive_sign_mask(s):
    """The sign mask with bit 0 flipped on subsets of size 4: it agrees with
    A on the subsets of size 0 and 2 that the generator images use, so only
    the additivity premise can tell it apart."""
    return _sign_mask(s) ^ (s.bit_count() == 4)  # the imported, unpatched A


def flip_composite_sign(images):
    """The sign of the image of e_1 ... e_{n-1}, a composite for n >= 3,
    flipped on both eps: the images still pair up over the central
    involution and their vector parts stay linear, so only the signs, step
    (iv) of verify_psi, can tell."""
    images = list(images)
    v = len(images) // 2 - 1  # every one of the n-1 generator bits
    images[2 * v] ^= 1
    images[2 * v + 1] ^= 1
    return images


def swap_images(images):
    """The images of (e_1, 1) and (e_1 e_2, 1) swapped, for n >= 3: still
    a bijection, and the images of every (v, 0) are untouched, so only the
    pairing over the central involution, step (i), can tell."""
    images = list(images)
    x, y = (0b01 << 1) | 1, (0b11 << 1) | 1
    images[x], images[y] = images[y], images[x]
    return images


def swap_vector_parts(images):
    """The vector parts of the images of e_1 e_2 and e_1 e_3 swapped, each
    sign kept, for n >= 4: still a bijection that pairs up over the central
    involution, with the signs of the generators untouched, so only the
    linearity of the vector parts, step (ii), can tell."""
    images = list(images)
    for eps in (0, 1):
        x, y = (0b011 << 1) | eps, (0b101 << 1) | eps
        px, py = images[x] & ~1, images[y] & ~1
        images[x], images[y] = py | images[x] & 1, px | images[y] & 1
    return images


def move_central_image(images):
    """The images of the central involution and of (e_1, 0) swapped: still a
    bijection, but the central involution no longer goes to -1."""
    images = list(images)
    images[1], images[2] = images[2], images[1]
    return images


def drop_e_n(images):
    """Every image without its factor e_n: the generator map onto the signed
    products of e_1 ... e_{n-1}, a homomorphism and a bijection onto them,
    so only the premise that the images are even can tell."""
    top = len(images)  # 2^n: the bit of e_n, one above the packed sign
    return [image & ~top for image in images]


def test_verify_psi_rejects_image_table_mutants(monkeypatch):
    """Each mutant changes the image table verify_psi reads; the all-pairs
    reference checks the same mutant of its own images."""
    psi_images = clifford._psi_images
    # (mutant, smallest n it applies to)
    mutants = [
        (flip_composite_sign, 3),
        (swap_images, 3),
        (swap_vector_parts, 4),
        (move_central_image, 2),
        (drop_e_n, 2),
    ]
    for mutant, lo in mutants:
        with monkeypatch.context() as m:
            m.setattr(clifford, "_psi_images", lambda lift: mutant(psi_images(lift)))
            verdicts = [(verify_psi(n), psi_all_pairs(n, mutant)) for n in range(lo, 9)]
        assert verdicts == [(False, False)] * (9 - lo), mutant.__name__


def move_last_lift(lift):
    """The lift of e_1 ... e_{n-1} moved onto the vector without e_1, its
    sign kept: _psi_images reads only the index and the sign of a lift, so
    the image table is unchanged, and only the premise that every lift lies
    over its vector can tell."""
    lift = list(lift)
    lift[-1] ^= 0b10  # bit 0 of the vector, one above the packed sign
    return lift


def collapse_central_product(images):
    """psi followed by the projection of the model onto its elements
    without e_{n-1}, along z = (e_1 ... e_{n-1}, 0), for n divisible by 4,
    where z is a central involution outside them: each image of the coset of e_{n-1}
    times psi(z).  Still a homomorphism that sends the central involution to
    -1, so (i)-(iv) hold, but z shares the image of the identity, and only
    the premise that the images are distinct can tell."""
    half = len(images) // 2  # below it, the packed elements without e_{n-1}
    z = images[-2]
    return images[:half] + [mul(image, z) for image in images[half:]]


def test_verify_psi_rejects_a_lift_off_its_vector(monkeypatch):
    generator_lifts = clifford._generator_lifts
    monkeypatch.setattr(
        clifford, "_generator_lifts", lambda g: move_last_lift(generator_lifts(g))
    )
    for n in range(2, 13):
        g, images = psi_table(n)
        assert _psi_images(clifford._generator_lifts(g)) == images, n
        assert not verify_psi(n), n


def test_verify_psi_rejects_a_homomorphism_that_repeats_images(monkeypatch):
    for n in (4, 8):
        g, images = psi_table(n)
        collapsed = collapse_central_product(images)
        assert len(set(collapsed)) == g.order // 2, n
        assert all(
            collapsed[g.pmul(x, y)] == mul(collapsed[x], collapsed[y])
            for x in range(g.order)
            for y in range(g.order)
        ), n
    psi_images = clifford._psi_images
    monkeypatch.setattr(
        clifford, "_psi_images", lambda lift: collapse_central_product(psi_images(lift))
    )
    for n in (4, 8, 12, 16):
        assert not verify_psi(n), n


def test_psi_table_matches_per_element_images():
    for n in range(2, 13):
        g, images = psi_table(n)
        assert images == [psi_per_element(g, x, n) for x in range(g.order)]


def test_verify_psi_agrees_with_all_pairs_reference(monkeypatch):
    for n in range(2, 9):
        assert verify_psi(n) and psi_all_pairs(n)
    # (attribute, mutant, smallest n it applies to, smallest n it breaks):
    # the size-4 mask flip changes nothing below n = 4.
    mutants = [
        ("g0_form", flipped_polar, 3, 3),
        ("g0_form", flipped_diagonal, 2, 2),
        ("_sign_mask", non_additive_sign_mask, 2, 4),
    ]
    for name, mutant, lo, broken in mutants:
        with monkeypatch.context() as m:
            m.setattr(clifford, name, mutant)
            verdicts = [(verify_psi(n), psi_all_pairs(n)) for n in range(lo, 9)]
        assert verdicts == [(n < broken, n < broken) for n in range(lo, 9)], name


def test_verify_psi_rejects_non_additive_mask_by_the_premise(monkeypatch):
    monkeypatch.setattr(clifford, "_sign_mask", non_additive_sign_mask)
    for n in (4, 5, 9, 12):
        assert not clifford._sign_mask_is_additive(n)
        assert not verify_psi(n)
    # The proof reads A only at the generator images, subsets of size 2, so
    # it passes alone: only the premise rejects the mask.
    monkeypatch.setattr(clifford, "_sign_mask_is_additive", lambda n: True)
    for n in (4, 5, 9, 12):
        assert verify_psi(n)
    assert not psi_all_pairs(5)


def test_verify_psi_proves_max_n_and_enforces_bounds():
    # The proof at every n = 2..MAX_N runs in the acceptance suite's
    # presentation check; here only the bound and its enforcement.
    assert MAX_N == 17
    for n in (1, 18):
        with pytest.raises(ValueError):
            verify_psi(n)


def test_verify_psi_detects_a_wrong_form(monkeypatch):
    # One polar coefficient flipped: e_1 and e_2 commute in the model but
    # their images anticommute, so the map is no homomorphism.
    monkeypatch.setattr(clifford, "g0_form", flipped_polar)
    for n in list(range(3, 13)) + [17]:
        assert not verify_psi(n)


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
    for n_max in (0, 1, 18):
        with pytest.raises(ValueError, match="2 <= n <= 17"):
            verify_en_table(n_max)
