"""Classification reports and their internal consistency."""

from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

import cogroups as cg
from cogroups.classify import _first_difference
from convolution_oracle import antipode_eagerly
from instances import (
    MATRIX,
    MATRIX_KEYS,
    Q,
    RINGS,
    Z,
    Z6,
    annihilators,
    classify_module,
    instance,
    make_antipode,
    make_cogroup,
    make_module,
    module,
    raw_presentations,
)


def test_matrix_three_way_agreement():
    trues = falses = 0
    for key, ring, gens, expected in MATRIX:
        rep = classify_module(make_module(key))
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
    rep = classify_module(make_module("q-even2"))
    assert rep.module_free_cyclic is True
    rep = classify_module(make_module("q-odd3"))
    assert rep.module_free_cyclic is False
    rep = classify_module(make_module("z-tor32"))
    assert rep.module_free_cyclic is None


def test_report_verdict_listing():
    rep = classify_module(make_module("q-even2"))
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
    rep = classify_module(make_module("z4-free3"))
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
    m = module(Q, [("y", 1), ("x", 2)])
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
    m = module(Z, [("a", 1), ("b", 2), ("c", 3)])
    C = cg.CoalgebraPresentation(
        m, {"b": [(1, "a", "a")], "c": [(1, "a", "b"), (1, "b", "a")]}
    )
    rep = cg.classify_cogroup(cg.tensor_cogroup(C, 6))
    assert len(calls) == 1
    assert not fast_calls  # chi-is-morphism needs a chi not built as an anti-homomorphism
    assert rep.consistent and not rep.inverse_equals_antipode


def test_classify_reads_chi_only_as_deep_as_its_verdicts():
    m = module(Q, [("x", 1), ("y", 1), ("z", 2)])
    A = cg.tensor_cogroup(cg.trivial_coalgebra(m), 8)
    rep = cg.classify_cogroup(A)
    # nu and chi part ways on x^2, and chi(x) chi(x) != chi(x^2)
    assert len(A._reduced_by_degree) <= 3  # Dbar of degrees 0, 1 and 2 at most
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
    B = cg.tensor_cogroup(cg.trivial_coalgebra(module(Q, [("x", 2)])), 10)
    rep = cg.classify_cogroup(B)
    assert rep.consistent and rep.inverse_equals_antipode and rep.antipode_is_morphism
    assert len(B._reduced_by_degree) == 11  # Dbar of every degree up to 10


def test_nu_eq_chi_fills_chi_only_to_the_first_difference(monkeypatch):
    import cogroups.classify as classify

    built = []

    def kept_antipode(A):
        built.append(cg.antipode(A))
        return built[-1]

    monkeypatch.setattr(classify, "antipode", kept_antipode)
    m = module(Q, [("x", 1), ("y", 1), ("z", 2)])
    A = cg.tensor_cogroup(cg.trivial_coalgebra(m), 12)
    verdict = cg.inverse_equals_antipode(A)
    assert verdict == (False, "x^2: nu = x^2, chi = -x^2")
    (chi,) = built
    assert len(chi._by_degree) == 3  # degrees 0, 1 and 2
    assert verdict == _first_difference(A, antipode_eagerly(A), None)


def test_nu_eq_chi_reads_only_degrees_that_hold_words(monkeypatch):
    """One generator of degree 500 at D = 1000: nu and chi are each read in
    degrees 500 and 1000, not in the 998 degrees without a word."""
    A = cg.tensor_cogroup(cg.trivial_coalgebra(module(Q, [("x", 500)])), 1000)
    read, calls = cg.GradedMap.degree_images, []

    def counted(f, d):
        calls.append(d)
        return read(f, d)

    monkeypatch.setattr(cg.GradedMap, "degree_images", counted)
    assert cg.inverse_equals_antipode(A) == (True, None)
    assert sorted(calls) == [500, 500, 1000, 1000]


def test_an_inconsistent_report_names_the_next_witness(monkeypatch):
    """With nu-eq-chi forced true, the witness is the pair of generators
    that fails to graded-commute; with commutativity forced true too, it
    is the locality witness.  Either way the report is inconsistent."""
    import cogroups.classify as classify

    def report(text):
        return cg.classify_cogroup(cg.tensor_cogroup(cg.parse_spec(text).coalgebra(), 4))

    monkeypatch.setattr(classify, "_first_difference", lambda A, chi, truncation: (True, None))
    rep = report("ring Q\ngenerator x degree 1\n")
    assert rep.inverse_equals_antipode and not rep.graded_commutative
    assert rep.witness == "generators x, x do not graded-commute"
    assert rep.consistent is False

    monkeypatch.setattr(classify, "is_graded_commutative", lambda algebra: (True, None))
    rep = report("ring Z\ngenerator x degree 2 ann 2\ngenerator y degree 2 ann 2\n")
    assert rep.graded_commutative and not rep.module_locally_cyclic
    assert rep.witness == "prime 2: generators x and y are both nonzero locally"
    assert rep.consistent is False


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
        assert rep.verdicts() == classify_module(make_module(key)).verdicts(), (key, D)


def test_classify_module_coprime_and_common_torsion():
    coprime = module(Z, [("x", 2, 3), ("y", 4, 5)])
    rep = classify_module(coprime)
    assert rep.module_locally_cyclic and rep.graded_commutative and rep.consistent
    common = module(Z, [("x", 2, 3), ("y", 4, 6)])
    rep = classify_module(common)
    assert not rep.module_locally_cyclic and not rep.graded_commutative
    assert rep.consistent


def test_classify_module_truncation_override():
    rep = classify_module(make_module("q-even2"), truncation=4)
    assert rep.consistent and rep.graded_commutative


def test_closed_form_cross_check_single_generator():
    for gens, expected in (
        ([("x", 2, 0)], True),
        ([("x", 3, 0)], False),
        ([("x", 3, 2)], True),
        ([("x", 5, 4)], False),
    ):
        rep = classify_module(module(Z, gens))
        assert rep.consistent
        assert rep.graded_commutative == expected


def consistent_nu_eq_chi(A):
    """Whether ``classify`` reports A consistent with nu = chi."""
    rep = cg.classify_cogroup(A)
    return rep.consistent and rep.inverse_equals_antipode


@st.composite
def local_tables(draw):
    """(module, raw table) on a module that each prime sees at most once:
    pairwise coprime annihilators on up to 3 generators over Z and Z/6,
    one generator elsewhere, in degrees 1 and 2.  Dbar(x) has a term
    c y (x) z for every pair of degree |x|, with c != 0 wherever
    ann(x) * c = 0 modulo gcd(char, ann y, ann z) allows it."""
    ring = draw(st.sampled_from(RINGS))
    if ring == Z:
        anns = draw(st.permutations((draw(st.sampled_from((2, 4))), 3, 5)))
    elif ring == Z6:
        anns = draw(st.permutations((2, 3)))
    else:
        anns = [draw(st.sampled_from(annihilators(ring)))]
    names = "abc"[: draw(st.integers(1, len(anns)))]
    degree = {n: draw(st.integers(1, 2)) for n in names}
    ann = dict(zip(names, anns))
    char = ring.characteristic()
    table = {}
    for x in names:
        terms = []
        for y in names:
            for z in names:
                if degree[y] + degree[z] == degree[x]:
                    m = gcd(char, ann[y], ann[z])
                    step = m // gcd(ann[x], m) if m else int(not ann[x])
                    terms.append((step * draw(st.integers(1, 3)), y, z))
        if terms:
            table[x] = terms
    return module(ring, [(n, degree[n], ann[n]) for n in names]), table


@settings(max_examples=300, deadline=None)
@given(raw_presentations() | local_tables())
def test_a_cogroup_with_nu_equal_to_chi_has_a_primitive_table(presentation):
    """Where nu = chi the tensor algebra is graded commutative, so each prime
    sees at most one generator, and a legal Dbar(x) on lower generators
    then reduces to zero: the finite-type objects of A_CG^co have
    primitive tables (ROADMAP item 5)."""
    try:
        C = cg.CoalgebraPresentation(*presentation)
        A = cg.tensor_cogroup(C, 4)
    except (KeyError, ValueError):  # a refused table or a non-coassociative one
        return
    if consistent_nu_eq_chi(A):
        assert C.table == {}


def test_coprime_torsion_reduces_a_written_table_to_zero():
    # Dbar(y) = 2 x (x) x is legal (3 * 2 = 0 mod 2) and zero mod 2
    m = module(Z, [("x", 1, 2), ("y", 2, 3)])
    C = cg.CoalgebraPresentation(m, {"y": [(2, "x", "x")]})
    assert C.table == {} and consistent_nu_eq_chi(cg.tensor_cogroup(C, 4))
    with pytest.raises(ValueError, match="not compatible with annihilator 3"):
        cg.CoalgebraPresentation(m, {"y": [(1, "x", "x")]})
