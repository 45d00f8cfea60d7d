"""Acceptance suite: the headline exactness guarantees, one test each.

Every test prints a single `ACCEPTANCE <name>: PASS` / `FAIL` line (visible
under `pytest -s` and in captured output on failure) and enforces its stated
runtime budget.  All comparisons are exact; there are no tolerances.  The
guarantees that `gexforms verify-paper` also reports call the same
`verify.check_*` function with the acceptance sizes, so a failing gate names
its counterexample.
"""

import time

from gexforms import admissible as adm
from gexforms import gexgroup, quadform, verify


def _report(name, ok, detail="", budget=None, elapsed=None):
    status = "PASS" if ok else "FAIL"
    timing = f" ({elapsed:.2f}s of {budget:.0f}s budget)" if budget else ""
    print(f"ACCEPTANCE {name}: {status}{timing}")
    assert ok, f"acceptance criterion {name} failed: {detail}"
    if budget is not None:
        assert elapsed < budget, f"{name} exceeded {budget}s budget: {elapsed:.2f}s"


def test_classification_matches_exhaustive_isometry_search():
    """classify is a complete isometry invariant for every form pair, dims 0-3."""
    start = time.perf_counter()
    ok, detail = verify.check_classification_complete(max_dim=3)
    _report(
        "classification-complete",
        ok,
        detail,
        budget=10.0,
        elapsed=time.perf_counter() - start,
    )


def test_admissibility_verdict_matches_bruteforce_search():
    """Classification verdict equals the definition-level oracle:
    exhaustive at dims 1-4, 1000 seeded random forms each at dims 5 and 6,
    plus the four fixed anchors."""
    start = time.perf_counter()
    ok, detail = verify.check_admissibility(max_exhaustive_dim=4, random_per_dim=1000)
    _report(
        "admissibility-theorem-vs-search",
        ok,
        detail,
        budget=60.0,
        elapsed=time.perf_counter() - start,
    )


def test_admissible_witnesses_pass_direct_checks():
    """Every admissible form at dims 1-4 gets a basis passing all three
    invariants by direct evaluation: invertibility, Q = 1 on every vector,
    and a polar-form partner for every vector."""
    ok = True
    for dim in range(1, 5):
        for q in quadform.all_forms(dim):
            basis = adm.admissible_witness(q)
            if adm.is_admissible(q):
                if basis is None or not adm.check_basis(q, basis):
                    ok = False
            elif basis is not None:
                ok = False
    _report("admissible-witness-soundness", ok)


def test_group_form_dictionary():
    """Hardcoded Q8, D8, Z4 tables carry forms isometric to H-, H+, Q1; the
    central product and extra Z2 factors act blockwise on the recovered form,
    checked datum for datum on 100 random products of combined dimension <= 8."""
    start = time.perf_counter()
    ok, detail = verify.check_dictionary(rounds=100)
    _report(
        "group-form-dictionary",
        ok,
        detail,
        budget=10.0,
        elapsed=time.perf_counter() - start,
    )


def test_group_classification_matches_isomorphism_oracle():
    """Equal FormClass <=> isomorphic group models, for all form pairs of each
    dimension <= 4.  Established transitively: every form's model is oracle-
    isomorphic to the model of its standard representative, and representatives
    of distinct classes are oracle-non-isomorphic; both directions of the
    all-pairs claim follow."""
    start = time.perf_counter()
    ok = True
    for dim in range(5):
        classes = quadform.form_classes(dim)
        reps = {fc: gexgroup.from_form(quadform.standard_form(fc)) for fc in classes}
        for q in quadform.all_forms(dim):
            rep = reps[quadform.classify(q)]
            if not gexgroup.iso_oracle(gexgroup.from_form(q), rep):
                ok = False
        for i, fc1 in enumerate(classes):
            for fc2 in classes[i + 1 :]:
                if gexgroup.iso_oracle(reps[fc1], reps[fc2]):
                    ok = False
    _report(
        "group-classification-oracle",
        ok,
        budget=300.0,
        elapsed=time.perf_counter() - start,
    )


def test_admissibility_ignores_zero_summands():
    """admissible(q + 0^n) = admissible(q) for every form at dims 1-3, n <= 3."""
    ok, detail = verify.check_splitting(max_dim=3, max_zeros=3)
    _report("zero-summand-splitting", ok, detail)


def test_clifford_presentation_isomorphism():
    """The generator map from the cocycle model onto E(n) is a bijective
    homomorphism, proved from the generators for every n = 2..17."""
    start = time.perf_counter()
    ok, detail = verify.check_psi(n_max=17)
    _report(
        "clifford-presentation-iso",
        ok,
        detail,
        budget=60.0,
        elapsed=time.perf_counter() - start,
    )


def test_clifford_mod8_table():
    """verify_en_table(17) reports PASS on all sixteen rows n = 2..17, covering
    every residue class mod 8 at least once."""
    start = time.perf_counter()
    ok, detail = verify.check_en_table(n_max=17)
    _report(
        "clifford-mod8-table",
        ok,
        detail,
        budget=10.0,
        elapsed=time.perf_counter() - start,
    )


def test_group_model_laws():
    """Squares realize Q and commutators realize the polar form, for every
    element pair of every model at dims 0-4."""
    ok, detail = verify.check_group_laws(max_dim=4)
    _report("group-model-laws", ok, detail)
