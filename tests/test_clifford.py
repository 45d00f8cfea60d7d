import dataclasses
import random

import pytest

from gexforms import clifford, verify
from gexforms.clifford import (
    MAX_N,
    EnTableRow,
    _sign_mask,
    en_computed_class,
    en_expected_class,
    g0_form,
    verify_en_table,
    verify_psi,
)
from gexforms.gexgroup import BaseKind, GexGroup, GroupClass, _read_form, from_form
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


def psi_table(n):
    """The cocycle model of the presented group and psi's image of each of
    its packed elements, indexed by it, built element by element."""
    g = from_form(g0_form(n - 1))
    return g, [psi_per_element(g, x, n) for x in range(g.order)]


def test_psi_generator_images():
    n = 5
    g, images = psi_table(n)
    # even product maps to itself
    assert images[word_element(g, [1, 2])] == 0b00011 << 1
    # odd product picks up e_n
    assert images[word_element(g, [3])] == 0b10100 << 1
    # sign tracking: e2 e1 = -e1 e2
    assert images[word_element(g, [2, 1])] == (0b00011 << 1) | 1
    # verify_psi proves its relations on the images of the generator lifts
    for n in range(2, MAX_N + 1):
        g = from_form(g0_form(n - 1))
        lifts = [2 << i for i in range(n - 1)]
        assert [psi_per_element(g, x, n) for x in lifts] == clifford._generator_images(n)


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


def test_psi_table_matches_per_element_images():
    """A second route to psi's table: the ascending lift product over each v
    by doubling, one law application per entry, sent to the blade of v (with
    e_n when v is odd) under that product's sign."""
    for n in range(2, 13):
        g, images = psi_table(n)
        top = g.order // 2  # the bit of e_n in a subset
        lift = [0] * top
        doubled = []
        for v in range(top):
            if v:
                low = v & -v
                lift[v] = g.pmul(low << 1, lift[v ^ low])
            image = blade(v | top if v.bit_count() % 2 else v, lift[v] & 1)
            doubled += (image, image ^ 1)
        assert images == doubled, n


def psi_all_pairs(n):
    """The homomorphism check on all 4^n element pairs: an independent route
    to verify_psi's verdict.  A packed model element (v, eps) is the
    ascending lift product over v times the central involution to the power
    eps ^ that product's sign, so psi sends it to the ascending product of
    the generator images over v, times -1 to that power.  The generator
    images, the sign mask of the E(n) law and g0_form are read from clifford
    at call time, as verify_psi reads them, so a mutant of any reaches both."""
    g = from_form(clifford.g0_form(n - 1))
    gens = clifford._generator_images(n)
    masks = [clifford._sign_mask(p >> 1) << 1 for p in range(2 << n)]
    en_law = lambda p, r: p ^ r ^ ((masks[p] & r).bit_count() & 1)
    images = []
    for x in range(g.order):
        image = lift = 0
        for i, gen in enumerate(gens):
            if x >> (i + 1) & 1:
                image = en_law(image, gen)
                lift = g.pmul(lift, 2 << i)
        images.append(image ^ (x ^ lift) & 1)
    if any((image >> 1).bit_count() % 2 for image in images):
        return False
    return is_isomorphism(images, g.order, g.pmul, en_law)


def flipped_polar(n_minus_1):
    """g0_form with one polar coefficient flipped: e_1 and e_2 commute."""
    q = g0_form(n_minus_1)
    return QuadraticForm(q.dim, q.diag, (q.upper[0] ^ 0b10,) + q.upper[1:])


def flipped_diagonal(n_minus_1):
    """g0_form with Q(e_1) = 0: e_1 squares to the identity."""
    q = g0_form(n_minus_1)
    return QuadraticForm(q.dim, q.diag ^ 1, q.upper)


def no_transposition_sign(s):
    """A(s) = s: only the squared generators flip the sign."""
    return s


def squares_to_plus_one(s):
    """A(s) ^ s: every generator squares to +1."""
    return _sign_mask(s) ^ s  # the imported, unpatched A


def non_additive_sign_mask(s):
    """The sign mask with bit 0 flipped on subsets of size 4: it agrees with
    A on the subsets of size 0 and 2 that the generator images use."""
    return _sign_mask(s) ^ (s.bit_count() == 4)


def wrong_first_image(images):
    """psi(e_1) = e_1 e_2 in place of e_1 e_n, for n >= 3."""
    return [blade(0b11)] + images[1:]


def repeated_image(images):
    """psi(e_2) = psi(e_1), for n >= 3: the images span n - 2 dimensions, so
    they do not generate E(n)."""
    return images[:1] * 2 + images[2:]


def product_image(images):
    """psi(e_{n-1}) = the product of the other images, for n divisible by 4.
    The product of y_1 .. y_{n-2} then squares to z and anticommutes with
    each of them, as y_{n-1} does, so every relation of P holds, but the
    images span n - 2 dimensions: a homomorphism that repeats images."""
    product = 0
    for image in images[:-1]:
        product = clifford._en_mul(product, image)
    return images[:-1] + [product]


def odd_images(images):
    """Every image without its factor e_n: the generators e_i themselves,
    which square to -1, anticommute and have full rank, so only the premise
    that the images are even can tell."""
    return [blade(1 << i) for i in range(len(images))]


def mutate_images(m, mutant):
    """Make clifford's generator images mutant(images) under the patch m."""
    images = clifford._generator_images
    m.setattr(clifford, "_generator_images", lambda n: mutant(images(n)))


def passes_the_form_check(n):
    images = clifford._generator_images(n)
    return _read_form(clifford._en_mul, images, 0) == g0_form(n - 1)


def test_verify_psi_applies_the_law_n_minus_1_squared_times(monkeypatch):
    """The verify_psi docstring's cost: the (n - 1)^2 E(n) law applications
    of _read_form over the generator images, and no application of the
    model's law, so no image table."""
    law = counted(monkeypatch, clifford, "_en_mul")
    pmul = counted(monkeypatch, GexGroup, "pmul")
    for n in range(2, MAX_N + 1):
        law.calls = pmul.calls = 0
        assert verify_psi(n), n
        assert (law.calls, pmul.calls) == ((n - 1) ** 2, 0), n


def test_verify_psi_rejects_a_wrong_generator_image(monkeypatch):
    # At n = 3, e_1 e_2 and e_2 e_3 square to -1, anticommute and span the
    # even subsets of three generators: another isomorphism, rightly
    # accepted.  From n = 4 on, e_1 e_2 commutes with e_3 e_n.
    with monkeypatch.context() as m:
        mutate_images(m, wrong_first_image)
        verdicts = [verify_psi(n) for n in range(3, MAX_N + 1)]
    assert verdicts == [True] + [False] * (MAX_N - 3)
    mutate_images(monkeypatch, odd_images)
    for n in range(2, MAX_N + 1):
        assert passes_the_form_check(n), n
        assert not verify_psi(n), n


def test_verify_psi_rejects_a_homomorphism_that_repeats_images(monkeypatch):
    with monkeypatch.context() as m:
        mutate_images(m, repeated_image)
        assert not any(verify_psi(n) for n in range(3, MAX_N + 1))
    # Every relation holds, so only the rank can tell.
    mutate_images(monkeypatch, product_image)
    for n in (4, 8, 12, 16):
        assert passes_the_form_check(n), n
        assert not verify_psi(n), n


def test_verify_psi_rejects_a_wrong_law(monkeypatch):
    """R19's two law mutants.  Without the transposition sign every
    generator image squares to +1, so the form read has a zero diagonal.

    With every generator squaring to +1 the proof passes, rightly: the law
    gains the sign parity(s & t), which is symmetric, so no commutator
    changes, and on an even subset s it adds parity(s) = 0 to the square.
    So every element of the mutant E(n) has the same square and the same
    commutators as in E(n), the relations of P hold on the same images, and
    psi is an isomorphism onto it as well."""
    with monkeypatch.context() as m:
        m.setattr(clifford, "_sign_mask", no_transposition_sign)
        assert not any(verify_psi(n) for n in range(2, MAX_N + 1))
    monkeypatch.setattr(clifford, "_sign_mask", squares_to_plus_one)
    assert all(verify_psi(n) for n in range(2, MAX_N + 1))


def test_sign_mask_matches_its_definition(monkeypatch):
    """The premise that makes the E(n) law a group: its A, read through the
    law as the sign of e_s e_j, has bit j = the parity of #{i in s : i >= j}
    for every subset s of 12 generators.  A non-additive mask fails it, and
    only this check tells: verify_psi reads A on the two-element subsets of
    the generator images alone."""

    def law_matches_definition(n):
        return all(
            clifford._en_mul(blade(s), blade(1 << j)) & 1 == (s >> j).bit_count() & 1
            for s in range(1 << n)
            for j in range(n)
        )

    assert law_matches_definition(12)
    monkeypatch.setattr(clifford, "_sign_mask", non_additive_sign_mask)
    assert not law_matches_definition(4)
    assert all(verify_psi(n) for n in (4, 5, 9, 12))
    assert not psi_all_pairs(5)


def test_verify_psi_agrees_with_all_pairs_reference(monkeypatch):
    for n in range(2, 9):
        assert verify_psi(n) and psi_all_pairs(n)
    images = clifford._generator_images
    # (patched attribute, replacement, smallest n it applies to)
    mutants = [
        ("g0_form", flipped_polar, 3),
        ("g0_form", flipped_diagonal, 2),
        ("_sign_mask", no_transposition_sign, 2),
        ("_sign_mask", squares_to_plus_one, 2),
        ("_generator_images", lambda n: wrong_first_image(images(n)), 3),
        ("_generator_images", lambda n: repeated_image(images(n)), 3),
        ("_generator_images", lambda n: product_image(images(n)), 4),
        ("_generator_images", lambda n: odd_images(images(n)), 2),
    ]
    for name, mutant, lo in mutants:
        with monkeypatch.context() as m:
            m.setattr(clifford, name, mutant)
            for n in range(lo, 9):
                assert verify_psi(n) == psi_all_pairs(n), (name, n)


def test_verify_psi_proves_max_n_and_enforces_bounds():
    # The proof at every n = 2..MAX_N runs in the acceptance suite's
    # presentation check; here only the bound and its enforcement.
    assert MAX_N == 17
    for n in (1, 18):
        with pytest.raises(ValueError):
            verify_psi(n)


def test_verify_psi_detects_a_wrong_form(monkeypatch):
    # One polar coefficient flipped: e_1 and e_2 commute in the model but
    # their images anticommute.  Or Q(e_1) = 0: e_1 squares to the identity
    # in the model but its image squares to -1.
    with monkeypatch.context() as m:
        m.setattr(clifford, "g0_form", flipped_polar)
        assert not any(verify_psi(n) for n in range(3, MAX_N + 1))
    monkeypatch.setattr(clifford, "g0_form", flipped_diagonal)
    assert not any(verify_psi(n) for n in range(2, MAX_N + 1))


def test_check_psi_names_the_n_that_fails(monkeypatch):
    proof = clifford.verify_psi
    monkeypatch.setattr(clifford, "verify_psi", lambda n: n != 7 and proof(n))
    assert verify.check_psi(n_max=10) == (False, "generator map fails at n=7")
    assert verify.check_psi(n_max=6) == (True, "generator proof n=2..6")


def test_check_en_table_rejects_a_missing_row_and_a_wrong_class(monkeypatch):
    table = clifford.verify_en_table
    with monkeypatch.context() as m:
        m.setattr(clifford, "verify_en_table", lambda n_max: table(n_max)[:-1])
        assert verify.check_en_table(n_max=9) == (
            False,
            "rows do not cover n=2..9 with their residues mod 8",
        )

    def wrong_class(n_max):
        rows = table(n_max)
        rows[3] = dataclasses.replace(rows[3], computed=en_expected_class(4))
        return rows

    monkeypatch.setattr(clifford, "verify_en_table", wrong_class)
    assert verify.check_en_table(n_max=9) == (
        False,
        "n=5 residue=5 computed=Q8 x Z2^2 expected=Q8*D8 x Z2 FAIL",
    )


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
