import random

import pytest

from gexforms import admissible, f2linalg, quadform, verify
from gexforms.f2linalg import _row_image
from gexforms.admissible import (
    _standard_basis,
    admissible_witness,
    check_basis,
    is_admissible,
    is_admissible_bruteforce,
)
from gexforms.quadform import (
    VALUE_TABLE_DIM_CAP,
    FormClass,
    Kind,
    QuadraticForm,
    _normal_basis,
    all_forms,
    change_basis,
    classify,
    direct_sum,
    form_classes,
    h_minus,
    h_plus,
    normal_form_witness,
    q_one,
    random_form,
    standard_form,
    zero_form,
)

from reference import greedy_admissible_basis, is_admissible_basis, matvec_bits
from seeded import RNG_SEED, counted, forbid, hidden_form, random_invertible, sum_forms


def test_anchor_verdicts():
    assert not is_admissible(h_plus())
    assert not is_admissible(direct_sum(h_plus(), q_one()))
    assert is_admissible(direct_sum(h_plus(), h_plus()))
    assert is_admissible(h_minus())


def test_more_verdicts():
    assert not is_admissible(zero_form(3))
    assert not is_admissible(q_one())
    assert not is_admissible(direct_sum(q_one(), zero_form(2)))
    assert is_admissible(direct_sum(h_minus(), zero_form(3)))
    assert is_admissible(sum_forms(h_plus(), h_plus(), q_one()))
    assert is_admissible(sum_forms(h_minus(), h_plus(), q_one()))
    assert is_admissible(direct_sum(h_minus(), h_plus()))


def test_verdict_is_an_isometry_invariant():
    rng = random.Random(RNG_SEED)
    for _ in range(100):
        dim = rng.randrange(1, 8)
        q = random_form(dim, rng)
        t = random_invertible(dim, rng)
        assert is_admissible(change_basis(q, t)) == is_admissible(q)


def test_check_basis_accepts_hand_built_example():
    # H-: both basis vectors already work -- Q(e1) = Q(e2) = 1, B(e1, e2) = 1.
    basis = (0b01, 0b10)
    assert check_basis(h_minus(), basis)


def test_check_basis_rejections():
    hm = h_minus()
    # dependent vectors
    assert not check_basis(hm, (1, 1))
    # wrong count
    assert not check_basis(hm, (1,))
    # dim 0: the empty basis has no vector with a partner
    assert not check_basis(zero_form(0), ())
    # bits beyond dim
    assert not check_basis(hm, (0b01, 0b100))
    # Q = 0 on a basis vector (e1 for H+)
    hp2 = direct_sum(h_plus(), h_plus())
    assert not check_basis(hp2, tuple(1 << i for i in range(4)))
    # all values 1 but e3 = (1,1,1) is B_Q-isolated: Q1 (+) Q1 (+) Q1
    q = sum_forms(q_one(), q_one(), q_one())
    vs = (0b001, 0b010, 0b111)
    assert all(q.eval_bits(v) for v in vs)
    assert not check_basis(q, vs)


def test_check_basis_agrees_with_eval_bits_reference():
    """The witness of a seeded hidden admissible form at each dim 2-64 and
    four corruptions of it, with the eval_bits reference's verdict: a basis
    vector repeated (dependent), one replaced by a sum with Q = 0 (still a
    basis), a bit set at dim, and a Q1 summand added whose coordinate joins
    the basis without a partner."""
    rng = random.Random(RNG_SEED + 10)
    cases = [(q_one(), (1,), False)]  # dim 1: no partner
    q_zero_dims = []
    for dim in range(2, 65):
        fc = rng.choice([fc for fc in form_classes(dim) if _theorem_admissible(fc)])
        q = hidden_form(fc, rng)
        vs = admissible_witness(q)
        cases.append((q, vs, True))
        k, i = rng.sample(range(dim), 2)
        cases.append((q, vs[:k] + (vs[i],) + vs[k + 1 :], False))
        others = [v for j, v in enumerate(vs) if j != k]
        for _ in range(64):
            u = vs[k]
            for v in others:
                u ^= v * rng.getrandbits(1)
            if not q.eval_bits(u):
                cases.append((q, vs[:k] + (u,) + vs[k + 1 :], False))
                q_zero_dims.append(dim)
                break
        cases.append((q, vs[:k] + (vs[k] | 1 << dim,) + vs[k + 1 :], False))
        if dim < 64:
            cases.append((direct_sum(q, q_one()), vs + (1 << dim,), False))
    # Every sum can have Q = 1 at small dims: all of H- does.
    assert len(q_zero_dims) >= 60, q_zero_dims
    for q, vs, expected in cases:
        verdict = check_basis(q, vs)
        assert verdict == is_admissible_basis(q, vs) == expected, (q.to_string(), vs)


@pytest.mark.parametrize("dim", [7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64])
def test_check_basis_at_the_block_edges(dim):
    """check_basis packs the basis as one 8, 16, 32 or 64 bit wide block,
    so each dim around a width is checked: the witness of a seeded hidden
    admissible form, and four corruptions of its last vector, the one in the
    last slot of the block: a repeat of the first vector, bit dim set, a sum
    with Q = 0, and the coordinate of a Q1 summand added to a witness one
    dim lower, which has no partner.  Each verdict is the reference's."""
    rng = random.Random(RNG_SEED + 12 + dim)

    def witnessed(n):
        fc = rng.choice([fc for fc in form_classes(n) if _theorem_admissible(fc)])
        q = hidden_form(fc, rng)
        return q, admissible_witness(q)

    q, vs = witnessed(dim)
    cases = [(q, vs, True), (q, vs[:-1] + vs[:1], False)]
    cases.append((q, vs[:-1] + (vs[-1] | 1 << dim,), False))
    for _ in range(64):
        u = vs[-1]
        for v in vs[:-1]:
            u ^= v * rng.getrandbits(1)
        if not q.eval_bits(u):
            cases.append((q, vs[:-1] + (u,), False))
            break
    lower, ws = witnessed(dim - 1)
    cases.append((direct_sum(lower, q_one()), ws + (1 << (dim - 1),), False))
    assert len(cases) == 5
    for q, vs, expected in cases:
        assert check_basis(q, vs) == is_admissible_basis(q, vs) == expected, vs


@pytest.mark.parametrize(
    "name, mutant, detail",
    [
        (
            "is_admissible",
            lambda f: lambda q: f(q) ^ (q == h_plus()),
            "anchor l=2;d=00;u=1 expected False",
        ),
        (
            "is_admissible_bruteforce",
            lambda f: lambda q: None if q == h_minus() else f(q),
            "oracle at anchor l=2;d=11;u=1 expected True",
        ),
        (
            "is_admissible",
            lambda f: lambda q: f(q) ^ (q == q_one()),
            "oracle disagreement at l=1;d=1;u=",
        ),
        (
            "is_admissible_bruteforce",
            lambda f: lambda q: (basis := f(q)) and basis[:-1] + basis[:1],
            "invalid oracle basis at l=2;d=11;u=1",
        ),
    ],
    ids=["anchor", "oracle-anchor", "verdict", "dependent-basis"],
)
def test_admissibility_check_names_each_failure(monkeypatch, name, mutant, detail):
    """check_admissibility's four failure returns, each reached by one
    mutant: the theorem's verdict flipped at the H+ anchor, an oracle that
    finds no basis for H-, the verdict flipped at the dim-1 form Q1, and an
    oracle basis whose last vector repeats its first, first found at H-."""
    monkeypatch.setattr(admissible, name, mutant(getattr(admissible, name)))
    assert verify.check_admissibility() == (False, detail)


def test_splitting_check_names_the_padded_form(monkeypatch):
    """check_splitting's failure return: a verdict flipped at dim 4 is first
    met on the first dim-1 form padded with 0^3."""
    is_adm = admissible.is_admissible
    monkeypatch.setattr(admissible, "is_admissible", lambda q: is_adm(q) ^ (q.dim == 4))
    assert verify.check_splitting() == (False, "splitting broken at l=1;d=0;u= + 0^3")


def test_admissibility_check_covers_1502_forms_and_856_bases(monkeypatch):
    """Under the default seed the check asks the oracle and the theorem for
    the 4 anchors and the 1,498 swept forms, and check_basis for each of
    the 856 bases the oracle finds."""
    monkeypatch.delenv(verify.SEED_ENV_VAR, raising=False)
    counters = [
        counted(monkeypatch, admissible, name)
        for name in ("is_admissible_bruteforce", "is_admissible", "check_basis")
    ]
    assert verify.check_admissibility() == (True, "1498 forms")
    assert [c.calls for c in counters] == [1502, 1502, 856]


def test_witness_random_larger_dims():
    rng = random.Random(RNG_SEED + 1)
    found = 0
    for _ in range(300):
        q = random_form(rng.randrange(5, 11), rng)
        w = admissible_witness(q)
        if w is not None:
            found += 1
            assert check_basis(q, w)
    assert found > 0


def test_witness_pull_back_matches_matvec():
    """The witness, written on the witness columns, is T applied to the
    basis of the standard form, for the normal-form map T; matvec_bits (one
    parity per row) is the reference, over dims 4..64 and every admissible
    kind."""
    rng = random.Random(RNG_SEED + 2)
    kinds = set()
    for dim in range(4, 65):
        m = rng.randrange(2, dim // 2 + 1)
        hidden = random_invertible(dim, rng)
        for q in (
            random_form(dim, rng),
            change_basis(direct_sum(random_form(m, rng), zero_form(dim - m)), hidden),
        ):
            w = admissible_witness(q)
            if w is None:
                continue
            fc = classify(q)
            kinds.add(fc.kind)
            t = normal_form_witness(q).map
            std = _standard_basis(fc, [1 << i for i in range(dim)])
            assert w == tuple(matvec_bits(t, v) for v in std)
    assert len(kinds) == 3


@pytest.mark.parametrize(
    "fc, expected",
    [
        (
            FormClass(7, 3, Kind.MINUS, 1),
            [0b11, 0b1100, 0b110000, 0b1, 0b101, 0b10001, 0b1000011],
        ),
        (
            FormClass(6, 3, Kind.PLUS, 0),
            [0b11, 0b1100, 0b110000, 0b110001, 0b1011, 0b101100],
        ),
        (
            FormClass(7, 2, Kind.QONE, 3),
            [0b11, 0b1100, 0b1101, 0b1011, 0b10001, 0b100011, 0b1000011],
        ),
    ],
    ids=["minus", "plus", "qone"],
)
def test_standard_basis_on_unit_columns(fc, expected):
    """On unit columns, _standard_basis is the admissible basis of the
    standard form, written out here vector by vector: plane sums, a partner
    for each, e_0 + e_2m for QOne, and e_0 + e_1 + e_z for each zero
    coordinate z."""
    std = _standard_basis(fc, [1 << i for i in range(fc.dim)])
    assert std == expected
    assert check_basis(standard_form(fc), tuple(std))


def test_decision_paths_never_evaluate_the_form(monkeypatch):
    """classify, normal_form_witness, is_admissible and admissible_witness
    read Q off the symplectic decomposition alone, on hidden forms of two
    seeded classes of form_classes at each dim 0-64.  The references are
    taken before eval_bits is switched off, because change_basis evaluates
    Q."""
    rng = random.Random(RNG_SEED + 5)
    forms = []
    for dim in range(65):
        for _ in range(2):
            fc = rng.choice(form_classes(dim))
            forms.append((hidden_form(fc, rng), fc))

    def run(q):
        return (
            classify(q),
            normal_form_witness(q),
            is_admissible(q),
            admissible_witness(q),
        )

    references = [run(q) for q, _ in forms]
    for (q, fc), ref in zip(forms, references):
        assert ref[0] == fc
        assert change_basis(q, ref[1].map) == standard_form(fc)
        if ref[2]:
            assert check_basis(q, ref[3])
        else:
            assert ref[3] is None

    forbid(
        monkeypatch, QuadraticForm, "eval_bits", "the decision path evaluated the form"
    )
    for (q, _), ref in zip(forms, references):
        assert run(q) == ref, q.to_string()


def _theorem_admissible(fc):
    """The theorem's table, written out: Plus with m1 >= 2, any Minus, QOne
    with m1 >= 2; never Zero."""
    if fc.kind is Kind.MINUS:
        return True
    return fc.kind in (Kind.PLUS, Kind.QONE) and fc.m1 >= 2


def test_user_path_makes_the_decompositions_and_transposes_of_its_docstrings(
    monkeypatch,
):
    """The cost lines of the symplectic_basis and _normal_basis docstrings
    ("one transpose"), with one transpose in BitMatrix.from_cols: an
    admissible form through classify, normal_form_witness, is_admissible and
    admissible_witness makes 6 decompositions (one per classify, two per
    admissible_witness) and 7 transposes of a packed block (6 in the
    decompositions and 1 in normal_form_witness's from_cols), since
    admissible_witness reads the witness columns straight from
    _normal_basis.  Each witness passes one full rank check: the Isometry of
    normal_form_witness and the check of admissible_witness, 2 rank calls.
    Every transpose goes through f2linalg._transpose, and each module
    imports symplectic_basis and rank by name, so each binding is counted.
    4 of the 6 decompositions are class-only (``vectors=False``), one per
    classify call, direct or through is_admissible, and 2 build vectors:
    _normal_basis in normal_form_witness and in admissible_witness.  The
    witness is written on the columns of _normal_basis, with no pullback:
    no _row_image call."""
    rng = random.Random(RNG_SEED + 9)
    forms = [
        hidden_form(fc, rng)
        for fc in (
            FormClass(12, 3, Kind.PLUS, 6),
            FormClass(12, 3, Kind.MINUS, 6),
            FormClass(64, 31, Kind.QONE, 2),
        )
    ]
    counters = [
        counted(monkeypatch, f2linalg, name)
        for name in ("symplectic_basis", "_transpose", "rank", "_row_image")
    ]
    for q in forms:
        for counter in counters:
            counter.calls = counter.class_only = 0
        classify(q)
        normal_form_witness(q)
        assert is_admissible(q)
        admissible_witness(q)
        assert [c.calls for c in counters] == [6, 7, 2, 0], q.to_string()
        class_only = counters[0].class_only
        assert [class_only, counters[0].calls - class_only] == [4, 2], q.to_string()


def test_every_class_behind_a_hidden_basis():
    """Every class at dims 0-16 and at dim 64, its standard form hidden
    behind a seeded random basis: classify finds the class, as _normal_basis
    does from its full decomposition, the witness carries the form back
    onto the standard form, and the verdict follows the theorem's table
    with a basis that check_basis accepts.  At dims 0-12 the
    definition-level oracle gives the same verdict, and its bases pass
    check_basis too."""
    rng = random.Random(RNG_SEED + 6)
    dims = [*range(17), 64]
    classes = [fc for dim in dims for fc in form_classes(dim)]
    assert len(classes) == 217 + 97
    for fc in classes:
        q = hidden_form(fc, rng)
        assert classify(q) == _normal_basis(q)[0] == fc, q.to_string()
        t = normal_form_witness(q).map
        assert change_basis(q, t) == standard_form(fc), q.to_string()
        expected = _theorem_admissible(fc)
        assert is_admissible(q) is expected, q.to_string()
        w = admissible_witness(q)
        if expected:
            assert check_basis(q, w), q.to_string()
        else:
            assert w is None
        if fc.dim <= 12:
            basis = is_admissible_bruteforce(q)
            if expected:
                assert check_basis(q, basis), q.to_string()
            else:
                assert basis is None, q.to_string()


def test_bruteforce_at_the_value_table_cap():
    """Every one of the 31 classes at dim 20, the oracle's cap, each behind a
    seeded random basis: the oracle agrees with is_admissible and with the
    theorem's table, and each basis passes check_basis."""
    assert VALUE_TABLE_DIM_CAP == 20
    rng = random.Random(RNG_SEED + 7)
    classes = form_classes(VALUE_TABLE_DIM_CAP)
    assert len(classes) == 31
    for fc in classes:
        q = hidden_form(fc, rng)
        basis = is_admissible_bruteforce(q)
        assert is_admissible(q) is _theorem_admissible(fc), q.to_string()
        if _theorem_admissible(fc):
            assert check_basis(q, basis), q.to_string()
        else:
            assert basis is None, q.to_string()


def test_witness_each_admissible_class_shape():
    # one representative per admissible class shape, zeros included
    shapes = [
        h_minus(),
        direct_sum(h_minus(), zero_form(2)),
        sum_forms(h_minus(), h_plus(), h_plus()),
        direct_sum(h_plus(), h_plus()),
        sum_forms(h_plus(), h_plus(), zero_form(1)),
        sum_forms(h_plus(), h_plus(), q_one()),
        sum_forms(h_plus(), h_plus(), q_one(), zero_form(2)),
        sum_forms(h_minus(), h_minus(), q_one()),
    ]
    for q in shapes:
        w = admissible_witness(q)
        assert w is not None and check_basis(q, w)


def test_bruteforce_random_at_cap():
    rng = random.Random(RNG_SEED + 2)
    for _ in range(100):
        q = random_form(6, rng)
        basis = is_admissible_bruteforce(q)
        assert (basis is not None) == is_admissible(q)
        if basis is not None:
            assert check_basis(q, basis)


def test_bruteforce_rejects_above_cap():
    q = random_form(21, random.Random(RNG_SEED + 3))
    with pytest.raises(ValueError, match="value table capped at dimension 20"):
        is_admissible_bruteforce(q)


def _reference_bruteforce(q):
    """The lexicographically first admissible basis, by a backtracking search
    over the vectors with Q = 1 in increasing order: one eval_bits and one
    polar row image per vector, a k^2 partner loop.  Any admissible basis
    meets the definition, so which one comes out is a choice; the
    is_admissible_bruteforce docstring promises this one and reaches it by a
    greedy rank walk instead, so this copy of a search pins that choice bit
    for bit."""
    n = q.dim
    if n == 0:
        return None
    ev = q.eval_bits
    candidates = [v for v in range(1, 1 << n) if ev(v)]
    polar = q.polar().data
    while True:
        rows = {v: _row_image(polar, v) for v in candidates}
        kept = [
            v
            for v in candidates
            if any((rows[v] & u).bit_count() & 1 for u in candidates if u != v)
        ]
        if len(kept) == len(candidates):
            break
        candidates = kept
    if len(candidates) < n:
        return None
    span = {0}
    for v in candidates:
        if v not in span:
            span |= {s ^ v for s in span}
    if len(span) != 1 << n:
        return None
    k = len(candidates)
    partner_masks = []
    for i, v in enumerate(candidates):
        pm = 0
        rv = _row_image(polar, v)
        for j, u in enumerate(candidates):
            if j != i and (rv & u).bit_count() & 1:
                pm |= 1 << j
        partner_masks.append(pm)
    full_tail = [(1 << k) - (1 << i) for i in range(k + 1)]
    chosen = []
    echelon = []

    def reduce(v):
        for e in echelon:
            if (v >> (e.bit_length() - 1)) & 1:
                v ^= e
        return v

    def search(start, chosen_mask, unpartnered):
        depth = len(chosen)
        if depth == n:
            return unpartnered == 0
        if k - start < n - depth:
            return False
        remaining = full_tail[start]
        um = unpartnered
        while um:
            i = (um & -um).bit_length() - 1
            um &= um - 1
            if not partner_masks[i] & remaining:
                return False
        for idx in range(start, k):
            red = reduce(candidates[idx])
            if red == 0:
                continue
            new_unpartnered = unpartnered & ~partner_masks[idx]
            if not partner_masks[idx] & chosen_mask:
                new_unpartnered |= 1 << idx
            chosen.append(idx)
            echelon.append(red)
            if search(idx + 1, chosen_mask | (1 << idx), new_unpartnered):
                return True
            chosen.pop()
            echelon.pop()
        return False

    if search(0, 0, 0):
        return tuple(candidates[i] for i in chosen)
    return None


def test_bruteforce_matches_reference_search():
    rng = random.Random(RNG_SEED + 4)
    forms = [q for dim in range(5) for q in all_forms(dim)]
    for dim in (5, 6):
        forms += [random_form(dim, rng) for _ in range(200)]
        for _ in range(100):
            m = rng.randrange(0, dim + 1)
            forms.append(direct_sum(random_form(m, rng), zero_form(dim - m)))
    found = 0
    for q in forms:
        basis = is_admissible_bruteforce(q)
        assert basis == _reference_bruteforce(q), q.to_string()
        found += basis is not None
    assert 0 < found < len(forms)


def test_bruteforce_returns_the_greedy_walk_bit_for_bit(monkeypatch):
    """The packed walk returns the basis of the walk one vector at a time,
    reference.greedy_admissible_basis, or None with it: every form of dims
    0-4, every class at dims 5-12 behind a seeded random basis, and random
    forms padded with zero coordinates below and above.  It calls neither
    classify, symplectic_basis nor polar."""
    rng = random.Random(RNG_SEED + 11)
    forms = [q for dim in range(5) for q in all_forms(dim)]
    forms += [hidden_form(fc, rng) for dim in range(5, 13) for fc in form_classes(dim)]
    for m in range(1, 7):
        for z in range(1, 5):
            q = random_form(m, rng)
            forms += [direct_sum(q, zero_form(z)), direct_sum(zero_form(z), q)]
    expected = [greedy_admissible_basis(q) for q in forms]
    assert 0 < sum(b is not None for b in expected) < len(forms)

    forbid(monkeypatch, quadform, "classify", "the oracle classified the form")
    forbid(monkeypatch, f2linalg, "symplectic_basis", "the oracle decomposed B_Q")
    forbid(monkeypatch, QuadraticForm, "polar", "the oracle built the polar matrix")
    for q, basis in zip(forms, expected):
        assert is_admissible_bruteforce(q) == basis, q.to_string()


def test_bruteforce_is_deterministic():
    q = sum_forms(h_minus(), h_plus())
    b1 = is_admissible_bruteforce(q)
    b2 = is_admissible_bruteforce(q)
    assert b1 == b2


def test_zero_dimension():
    q = zero_form(0)
    assert not is_admissible(q)
    assert admissible_witness(q) is None
    assert is_admissible_bruteforce(q) is None
