"""Classification reports and their internal consistency."""

import pytest

import cogroups as cg
from instances import MATRIX, MATRIX_KEYS, Q, Z, instance, make_antipode, make_cogroup, make_module


def test_matrix_three_way_agreement():
    trues = falses = 0
    for key, ring, gens, expected in MATRIX:
        rep = cg.classify_module(make_module(key))
        assert rep.consistent, key
        assert rep.graded_commutative == expected, key
        assert rep.inverse_equals_antipode == expected, key
        assert rep.antipode_is_morphism == expected, key
        assert rep.module_locally_cyclic == expected, key
        if expected:
            trues += 1
        else:
            falses += 1
    assert trues >= 5 and falses >= 5


def test_field_reports_carry_the_membership_verdict():
    rep = cg.classify_module(make_module("q-even2"))
    assert rep.module_free_cyclic is True
    rep = cg.classify_module(make_module("q-odd3"))
    assert rep.module_free_cyclic is False
    rep = cg.classify_module(make_module("z-tor32"))
    assert rep.module_free_cyclic is None


def test_report_verdict_listing():
    rep = cg.classify_module(make_module("q-even2"))
    names = [n for n, _ in rep.verdicts()]
    assert names == [
        "nu-eq-chi",
        "chi-is-morphism",
        "graded-commutative",
        "locally-at-most-singly-generated",
        "free-cyclic-admissible",
        "consistent",
    ]
    assert all(v for _, v in rep.verdicts())


def test_failing_reports_carry_witnesses():
    rep = cg.classify_module(make_module("z4-free3"))
    assert not rep.graded_commutative
    assert rep.consistent
    assert rep.witness and "nu" in rep.witness and "chi" in rep.witness


def test_inverse_equals_antipode_witness_text():
    A = make_cogroup("z4-free3", 8)
    ok, witness = cg.inverse_equals_antipode(A)
    assert not ok
    assert witness == "x^2: nu = x^2, chi = 3*x^2"
    B = make_cogroup("q-even2", 8)
    assert cg.inverse_equals_antipode(B) == (True, None)


def test_classify_cogroup_with_nontrivial_coproduct():
    m = cg.module(Q, [("y", 1), ("x", 2)])
    C = cg.CoalgebraPresentation(m, {"x": [(1, "y", "y")]})
    A = cg.tensor_cogroup(C, 6)
    rep = cg.classify_cogroup(A)
    assert not rep.graded_commutative
    assert not rep.inverse_equals_antipode
    assert not rep.antipode_is_morphism
    assert not rep.module_locally_cyclic
    assert rep.consistent
    assert rep.witness


def test_classify_computes_chi_once(monkeypatch):
    import cogroups.classify as classify

    calls = []
    fast_calls = []

    def counting_antipode(A):
        calls.append(A)
        return cg.antipode_by_recursion(A)

    def counting_fast_antipode(A):
        fast_calls.append(A)
        return cg.antipode(A)

    monkeypatch.setattr(classify, "antipode_by_recursion", counting_antipode)
    monkeypatch.setattr(classify, "antipode", counting_fast_antipode)
    m = cg.module(Z, [("a", 1), ("b", 2), ("c", 3)])
    C = cg.CoalgebraPresentation(
        m, {"b": [(1, "a", "a")], "c": [(1, "a", "b"), (1, "b", "a")]}
    )
    rep = cg.classify_cogroup(cg.tensor_cogroup(C, 6))
    assert len(calls) == 1
    assert not fast_calls  # chi-is-morphism needs a chi not built as an anti-homomorphism
    assert rep.consistent and not rep.inverse_equals_antipode


def test_classify_reads_chi_only_as_deep_as_its_verdicts():
    m = cg.module(Q, [("x", 1), ("y", 1), ("z", 2)])
    A = cg.tensor_cogroup(cg.trivial_coalgebra(m), 8)
    rep = cg.classify_cogroup(A)
    # nu and chi part ways on x^2, and chi(x) chi(x) != chi(x^2)
    assert max(A.algebra.word_degree(w) for w in A._reduced_cache) <= 2
    assert rep == cg.ClassificationReport(
        inverse_equals_antipode=False,
        antipode_is_morphism=False,
        graded_commutative=False,
        module_locally_cyclic=False,
        module_free_cyclic=False,
        consistent=True,
        witness="x^2: nu = x^2, chi = -x^2",
    )
    # graded commutative: both verdicts read every word
    B = cg.tensor_cogroup(cg.trivial_coalgebra(cg.module(Q, [("x", 2)])), 10)
    rep = cg.classify_cogroup(B)
    assert rep.consistent and rep.inverse_equals_antipode and rep.antipode_is_morphism
    assert sorted(B._reduced_cache) == [("x",) * k for k in range(1, 6)]


@pytest.mark.parametrize("key", MATRIX_KEYS)
def test_classify_verdicts_hold_at_every_truncation(key):
    # below 2 * (top degree) the generator squares lie above the truncation
    _, _, gens, expected = instance(key)
    C = cg.trivial_coalgebra(make_module(key))
    top = 2 * max(g[1] for g in gens) + 2
    for D in range(1, top + 1):
        rep = cg.classify_cogroup(cg.tensor_cogroup(C, D))
        assert rep.consistent, (key, D)
        assert rep.inverse_equals_antipode == rep.antipode_is_morphism == expected, (key, D)
        assert rep.verdicts() == cg.classify_module(make_module(key)).verdicts(), (key, D)


def test_classify_module_coprime_and_common_torsion():
    coprime = cg.module(Z, [("x", 2, 3), ("y", 4, 5)])
    rep = cg.classify_module(coprime)
    assert rep.module_locally_cyclic and rep.graded_commutative and rep.consistent
    common = cg.module(Z, [("x", 2, 3), ("y", 4, 6)])
    rep = cg.classify_module(common)
    assert not rep.module_locally_cyclic and not rep.graded_commutative
    assert rep.consistent


def test_classify_module_truncation_override():
    rep = cg.classify_module(make_module("q-even2"), truncation=4)
    assert rep.consistent and rep.graded_commutative


def test_closed_form_cross_check_single_generator():
    for gens, expected in (
        ([("x", 2, 0)], True),
        ([("x", 3, 0)], False),
        ([("x", 3, 2)], True),
        ([("x", 5, 4)], False),
    ):
        rep = cg.classify_module(cg.module(Z, gens))
        assert rep.consistent
        assert rep.graded_commutative == expected
