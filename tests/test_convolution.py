"""Convolution groups, the antipode, and the antipode's properties."""

import random

import pytest
from hypothesis import given, settings, strategies as st

import cogroups as cg
from cogroups.convolution import _field_rank
from instances import (
    MATRIX_KEYS,
    Q,
    Z,
    Z4,
    coassociative_coalgebras,
    make_antipode,
    make_cogroup,
    make_module,
    random_graded_map,
)


def loop_source(D=6):
    m = cg.module(Q, [("y", 1), ("x", 2)])
    C = cg.CoalgebraPresentation(m, {"x": [(1, "y", "y")]})
    A = cg.tensor_cogroup(C, D)
    return cg.CoalgebraSource(C, D), A


def test_coalgebra_source_basis():
    src, A = loop_source()
    assert src.basis(1) == ["y"]
    assert src.basis(2) == ["x"]
    assert src.basis(3) == []
    assert src.degree("x") == 2
    assert src.reduced_coproduct("x") == ((1, "y", "y"),)


def test_cogroup_source_basis_is_words():
    A = make_cogroup("q-even2", 8)
    src = cg.CogroupSource(A)
    assert src.basis(4) == [("x", "x")]
    assert src.annihilator(("x", "x")) == 0
    assert src.format_key(("x", "x")) == "x^2"


def test_unit_map_is_convolution_identity():
    src, A = loop_source()
    rng = random.Random(2)
    e = cg.unit_map(src, A.algebra)
    for _ in range(5):
        f = random_graded_map(src, A.algebra, rng)
        assert cg.convolve(f, e) == f
        assert cg.convolve(e, f) == f


def test_convolution_is_associative():
    src, A = loop_source()
    rng = random.Random(9)
    for _ in range(5):
        f = random_graded_map(src, A.algebra, rng)
        g = random_graded_map(src, A.algebra, rng)
        h = random_graded_map(src, A.algebra, rng)
        assert cg.convolve(cg.convolve(f, g), h) == cg.convolve(f, cg.convolve(g, h))


def test_convolution_inverse_both_sides():
    src, A = loop_source()
    rng = random.Random(4)
    e = cg.unit_map(src, A.algebra)
    for _ in range(5):
        f = random_graded_map(src, A.algebra, rng)
        gr = cg.convolution_inverse(f, via="right")
        gl = cg.convolution_inverse(f, via="left")
        assert gr == gl
        assert cg.convolve(f, gr) == e
        assert cg.convolve(gr, f) == e
    with pytest.raises(ValueError):
        cg.convolution_inverse(e, via="sideways")


def test_trivial_coproduct_convolution_is_addition():
    for key in ("z-coprime", "f3-pair"):
        A = make_cogroup(key, 6)
        src = cg.CoalgebraSource(A.coalgebra, 6)
        rng = random.Random(8)
        for _ in range(3):
            f = random_graded_map(src, A.algebra, rng)
            g = random_graded_map(src, A.algebra, rng)
            s = cg.convolve(f, g)
            for d in range(1, 7):
                for x in src.basis(d):
                    assert s.image(x) == f.image(x) + g.image(x)


def test_convolve_requires_parallel_maps():
    src, A = loop_source()
    other = cg.CogroupSource(A)
    f = cg.unit_map(src, A.algebra)
    g = cg.unit_map(other, A.algebra)
    with pytest.raises(ValueError):
        cg.convolve(f, g)


def test_inverse_of_identity_worked_example():
    A = make_cogroup("q-even2", 6)
    g = cg.convolution_inverse(cg.identity_map(A))
    x = A.algebra.generator("x")
    assert g.image(("x",)) == -x
    assert g.image(("x", "x")) == x * x
    assert g.image(("x", "x", "x")) == -(x * x * x)


def test_antipode_matches_generic_inverse():
    for key in ("q-even2", "q-odd3", "z-tor43", "f2-odd1", "z6-coprime"):
        A = make_cogroup(key, 6)
        chi = make_antipode(key, 6)
        generic = cg.convolution_inverse(cg.identity_map(A))
        assert chi == generic, key
        assert chi.difference_witness(generic) is None


@pytest.mark.parametrize("key", MATRIX_KEYS)
def test_antipode_matches_the_word_recursion(key):
    A = make_cogroup(key, 8)
    assert cg.antipode(A) == cg.antipode_by_recursion(A)


@settings(max_examples=40, deadline=None)
@given(coassociative_coalgebras())
def test_antipode_matches_the_word_recursion_on_coproduct_tables(case):
    A = cg.tensor_cogroup(*case)
    chi, oracle = cg.antipode(A), cg.antipode_by_recursion(A)
    assert chi == oracle, chi.difference_witness(oracle)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 6).flatmap(lambda n: st.lists(
        st.lists(st.integers(-6, 6), min_size=n, max_size=n), max_size=6
    ).map(lambda rows: (rows, n))),
    st.sampled_from((2, 3, 5)),
)
def test_field_rank_counts_invariant_factors(case, p):
    rows, ncols = case
    factors = cg.smith_normal_form(rows).factors
    assert _field_rank(rows, ncols) == sum(1 for f in factors if f)
    assert _field_rank(rows, ncols, p) == sum(1 for f in factors if f % p)


def test_antipode_signs_on_a_single_even_generator():
    A = make_cogroup("q-even2", 8)
    chi = make_antipode("q-even2", 8)
    x = A.algebra.generator("x")
    for k in range(1, 5):
        word = ("x",) * k
        want = x
        for _ in range(k - 1):
            want = want * x
        assert chi.image(word) == want.scale((-1) ** k)


def test_antipode_signs_on_a_single_odd_generator():
    A = make_cogroup("q-odd3", 9)
    chi = make_antipode("q-odd3", 9)
    x = A.algebra.generator("x")
    signs = {1: -1, 2: -1, 3: 1}  # (-1)^(k(k+1)/2)
    for k, s in signs.items():
        word = ("x",) * k
        elem = x
        for _ in range(k - 1):
            elem = elem * x
        assert chi.image(word) == elem.scale(s)


def test_antipode_reverses_words_with_sign():
    m = cg.module(Q, [("u", 1), ("v", 1)])
    A = cg.tensor_cogroup(cg.trivial_coalgebra(m), 6)
    chi = cg.antipode(A)
    alg = A.algebra
    assert chi.image(("u", "v")) == -alg.element({("v", "u"): 1})
    assert chi.image(("u", "v", "u")) == alg.element({("u", "v", "u"): 1})


def test_antipode_over_f2_is_identity_on_one_generator():
    for key in ("f2-odd1", "f2-even2", "f2-odd3"):
        A = make_cogroup(key, 6)
        chi = make_antipode(key, 6)
        assert chi == cg.identity_map(A), key
    # two generators: the algebra is noncommutative and chi reverses words
    A = make_cogroup("f2-pair", 6)
    chi = make_antipode("f2-pair", 6)
    assert chi != cg.identity_map(A)
    assert chi.image(("x", "y")) == A.algebra.element({("y", "x"): 1})


def test_antipode_on_odd_torsion_generator():
    A = make_cogroup("z4-free3", 10)
    chi = make_antipode("z4-free3", 10)
    alg = A.algebra
    assert chi.image(("x",)) == alg.element({("x",): 3})
    assert chi.image(("x", "x")) == alg.element({("x", "x"): 3})
    assert chi.image(("x", "x", "x")) == alg.element({("x", "x", "x"): 1})


def test_identity_convolved_with_itself_doubles_primitives():
    A = make_cogroup("q-even2", 6)
    ident = cg.identity_map(A)
    sq = cg.convolve(ident, ident)
    x = A.algebra.generator("x")
    assert sq.image(("x",)) == x.scale(2)
    assert sq.image(("x", "x")) == (x * x).scale(4)  # morphism square of Delta


def test_hopf_laws_hold():
    for key in ("q-even2", "q-pair11", "z-tor43", "z6-common3"):
        A = make_cogroup(key, 6)
        chi = make_antipode(key, 6)
        rep = cg.check_hopf_antipode(A, chi)
        assert rep.ok, f"{key}: {rep}"


def test_hopf_laws_catch_a_wrong_antipode():
    A = make_cogroup("q-even2", 6)
    fake = cg.identity_map(A)
    rep = cg.check_hopf_antipode(A, fake)
    assert not rep.ok
    assert any("expected 0" in v for v in rep.violations)


def test_antipode_is_surjective_everywhere():
    for key in ("q-even2", "z-tor43", "z4-free3", "f3-odd3", "z6-coprime"):
        A = make_cogroup(key, 8)
        chi = make_antipode(key, 8)
        flags = cg.is_antipode_surjective(A, chi)
        assert set(flags) == set(range(9))
        assert all(flags.values()), key


def test_surjectivity_detector_sees_a_gap():
    A = make_cogroup("z-free2", 6)
    src = cg.CogroupSource(A)
    alg = A.algebra
    doubler = cg.GradedMap(
        src,
        alg,
        {w: alg.element({w: 2}) for d in range(1, 7) for w in alg.basis(d)},
    )
    flags = cg.is_antipode_surjective(A, doubler)
    assert flags[0] and not flags[2] and not flags[4]
    B = make_cogroup("q-even2", 6)
    bsrc = cg.CogroupSource(B)
    balg = B.algebra
    bdoubler = cg.GradedMap(
        bsrc,
        balg,
        {w: balg.element({w: 2}) for d in range(1, 7) for w in balg.basis(d)},
    )
    assert all(cg.is_antipode_surjective(B, bdoubler).values())


def test_antipode_negates_indecomposables():
    for key in ("q-even2", "q-pair11", "z4-free3"):
        A = make_cogroup(key, 6)
        chi = make_antipode(key, 6)
        flags = cg.antipode_negates_indecomposables(A, chi)
        assert all(flags.values()), key
    A = make_cogroup("q-even2", 6)
    flags = cg.antipode_negates_indecomposables(A, cg.identity_map(A))
    assert not flags[2]


def test_antipode_is_antihomomorphism():
    for key in ("q-pair11", "q-even2", "z-tor43"):
        A = make_cogroup(key, 6)
        chi = make_antipode(key, 6)
        assert cg.is_graded_antihomomorphism(chi, A), key
    A = make_cogroup("q-pair11", 6)
    assert not cg.is_algebra_morphism(make_antipode("q-pair11", 6), A)
    B = make_cogroup("q-even2", 6)
    assert cg.is_algebra_morphism(make_antipode("q-even2", 6), B)


def test_graded_map_validation():
    A = make_cogroup("q-even2", 6)
    src = cg.CogroupSource(A)
    alg = A.algebra
    x = alg.generator("x")
    with pytest.raises(ValueError):
        cg.GradedMap(src, alg, {("x",): x * x})  # wrong degree
    T = make_cogroup("z-tor32", 6)
    tsrc = cg.CogroupSource(T)
    free = cg.tensor_algebra(cg.module(Z, [("u", 2)]), 6)
    with pytest.raises(ValueError):
        cg.GradedMap(tsrc, free, {("x",): free.generator("u")})  # 3u != 0


def test_difference_witness_points_at_first_gap():
    A = make_cogroup("q-even2", 6)
    ident = cg.identity_map(A)
    chi = make_antipode("q-even2", 6)
    assert ident.difference_witness(chi) == ("x",)
    assert ident.difference_witness(cg.identity_map(A)) is None
