"""Classification reports and their internal consistency."""

import pytest

import cogroups as cg
from instances import MATRIX, Q, Z, make_antipode, make_cogroup, make_module


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

    def counting_antipode(A):
        calls.append(A)
        return cg.antipode(A)

    monkeypatch.setattr(classify, "antipode", counting_antipode)
    m = cg.module(Z, [("a", 1), ("b", 2), ("c", 3)])
    C = cg.CoalgebraPresentation(
        m, {"b": [(1, "a", "a")], "c": [(1, "a", "b"), (1, "b", "a")]}
    )
    rep = cg.classify_cogroup(cg.tensor_cogroup(C, 6))
    assert len(calls) == 1
    assert rep.consistent and not rep.inverse_equals_antipode


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
