"""Cogroup structure on tensor algebras: maps, axioms, morphisms."""

import os
import random
import subprocess
import sys
from math import gcd
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import cogroups as cg
from cogroups.algebra import _reduce_terms, accumulate
from cogroups.cli import run_command
from cogroups.coalgebra import coproduct_pairs
from cogroups.cogroup import _Pairs, _SlotWords, _substitute
from cogroups.dsl import parse_spec
from cogroup_oracle import (
    TensorSquare,
    check_axioms_on,
    coproduct_morphism,
    folded_delta,
    folded_phi,
    is_cogroup_morphism_on_free_products,
    phi_by_table_walk,
    phi_morphism,
    square_product,
)
from instances import (
    BINOM_F7,
    BINOM_Z9,
    DECONC_Q2,
    DECONC_Z,
    MATRIX_KEYS,
    PAIR_MODULUS_TABLES,
    Q,
    TORSION_Z,
    Z,
    Z4,
    coassociative_coalgebras,
    coprime_torsion_coalgebras,
    make_cogroup,
    make_module,
    module,
)


def polynomial_cogroup(n=2, D=10):
    return cg.tensor_cogroup(cg.trivial_coalgebra(module(Q, [("X", n)])), D)


def loop_cogroup(D=8):
    """y primitive in degree 1, x in degree 2 with Dbar(x) = y (x) y."""
    m = module(Q, [("y", 1), ("x", 2)])
    C = cg.CoalgebraPresentation(m, {"x": [(1, "y", "y")]})
    return cg.tensor_cogroup(C, D)


def test_phi_on_a_primitive_generator():
    A = polynomial_cogroup()
    assert A.phi == {"X": {(("X",), (0,)): 1, (("X",), (1,)): 1}}
    square = square_product(A)
    X1, X2 = (square.algebra.generator(n) for n in ("X'", "X''"))
    assert phi_morphism(A, square).images["X"] == X1 + X2


def test_phi_picks_up_coproduct_terms():
    A = loop_cogroup()
    assert A.phi["x"] == {(("x",), (0,)): 1, (("x",), (1,)): 1, (("y", "y"), (0, 1)): 1}
    square = square_product(A)
    x1, x2, y1, y2 = (square.algebra.generator(n) for n in ("x'", "x''", "y'", "y''"))
    assert phi_morphism(A, square).images["x"] == x1 + x2 + y1 * y2


def test_phi_of_a_generator_of_modulus_one_is_zero():
    """Over Z with ann 1 every word in x is 0, as x' and x'' are in A * A."""
    A = cg.tensor_cogroup(cg.trivial_coalgebra(module(Z, [("x", 2, 1), ("y", 1)])), 4)
    assert A.phi == {"x": {}, "y": {(("y",), (0,)): 1, (("y",), (1,)): 1}}
    assert not phi_morphism(A, square_product(A)).images["x"]  # x' + x'' = 0 in A * A
    assert both_levels(A).ok
    assert_phi_is_the_table_walk(A)


def test_a_generator_of_modulus_one_is_checked_as_zero():
    """x is 0 in A (ann 1 over Z), so the laws on x read Phi(0) = D(0) = 0,
    whatever images are supplied for x, as the oracle reads them."""
    A = cg.tensor_cogroup(cg.trivial_coalgebra(module(Z, [("x", 2, 1), ("y", 1)])), 4)
    A.phi = dict(A.phi, x={(("y", "y"), (0, 1)): 1})
    A.delta = dict(A.delta, x={(("y",), ("y",)): 1})
    assert both_levels(A).ok


def assert_phi_is_the_table_walk(A):
    """Phi read off D's pairs against the table walk, term order included."""
    want = phi_by_table_walk(A)
    assert list(A.phi) == list(want)
    for name, terms in A.phi.items():
        assert list(terms.items()) == list(want[name].items()), name


@pytest.mark.parametrize("key", MATRIX_KEYS)
def test_phi_is_the_table_walk_on_the_matrix(key):
    for D in (3, 8):
        assert_phi_is_the_table_walk(make_cogroup(key, D))


@pytest.mark.parametrize("text", [DECONC_Z, DECONC_Q2, BINOM_Z9, BINOM_F7, TORSION_Z])
def test_phi_is_the_table_walk_on_hand_tables(text):
    for D in (2, 6):
        assert_phi_is_the_table_walk(cg.tensor_cogroup(parse_spec(text).coalgebra(), D))


@settings(max_examples=60, deadline=None)
@given(st.one_of(coassociative_coalgebras(), coprime_torsion_coalgebras()))
def test_phi_is_the_table_walk(case):
    assert_phi_is_the_table_walk(cg.tensor_cogroup(*case))


def test_nu_on_primitives_is_negation():
    A = polynomial_cogroup()
    X = A.algebra.generator("X")
    assert A.nu(X) == -X
    assert A.nu(X * X) == X * X  # morphism: (-X)(-X)


def test_nu_correction_term():
    A = loop_cogroup()
    alg = A.algebra
    y, x = alg.generator("y"), alg.generator("x")
    assert A.nu(y) == -y
    assert A.nu(x) == -x + y * y


@pytest.mark.parametrize("key", MATRIX_KEYS)
def test_nu_on_words_matches_nu_on_elements(key):
    A = make_cogroup(key, 8)
    alg = A.algebra
    for w in alg.words_up_to():
        assert A.nu.image(w) == A.nu(alg.element({w: 1})), w


def test_nu_on_words_with_coprime_annihilators_is_zero():
    for key in ("z-coprime", "z6-coprime"):
        A = make_cogroup(key, 8)
        w = ("x", "y")
        assert A.algebra.word_modulus(w) == 1
        assert not A.nu.image(w), key
        assert not A.nu(A.algebra.element({w: 1})), key


def test_delta_restricts_to_table():
    A = loop_cogroup()
    assert A.delta == {
        "y": {(("y",), ()): 1, ((), ("y",)): 1},
        "x": {(("x",), ()): 1, ((), ("x",)): 1, (("y",), ("y",)): 1},
    }


LAZY = ("phi", "generator_images", "nu", "delta")


def fresh_coalgebras():
    yield loop_cogroup().coalgebra
    for key in MATRIX_KEYS:
        yield cg.trivial_coalgebra(make_module(key))


def fresh_cogroups(D=6):
    for C in fresh_coalgebras():
        yield cg.tensor_cogroup(C, D)


def built(A):
    """The lazy structures that A has built so far."""
    return {name for name in LAZY if name in vars(A)}


def test_a_new_cogroup_builds_no_structure():
    for C in fresh_coalgebras():
        assert built(cg.Cogroup(C, 6)) == set()
    # the coalgebra laws are read off the table: no D
    for A in fresh_cogroups():
        assert built(A) == set()


def test_the_inverse_table_builds_no_comultiplication():
    for A in fresh_cogroups():
        for w in A.algebra.words_up_to():
            A.nu.image(w)
        assert built(A) == {"generator_images", "nu"}
        assert A._reduced_by_degree == []


def test_the_axiom_check_reads_every_structure():
    for A in fresh_cogroups():
        assert cg.check_cogroup_axioms(A).ok
        assert built(A) == set(LAZY)


def counted_validations(monkeypatch):
    """A list that ``AlgebraMorphism._validate`` appends each checked map to."""
    checked, validate = [], cg.AlgebraMorphism._validate

    def count(f):
        checked.append(f)
        validate(f)

    monkeypatch.setattr(cg.AlgebraMorphism, "_validate", count)
    return checked


@pytest.mark.parametrize("text", [DECONC_Z, DECONC_Q2, BINOM_Z9, BINOM_F7, TORSION_Z])
def test_nu_eq_chi_validates_the_generator_images_once(text, monkeypatch):
    """nu and chi share one dict of generator images: one check a run."""
    checked = counted_validations(monkeypatch)
    assert run_command(parse_spec(text), "nu-eq-chi", max_degree=6).exit_code in (0, 1)
    assert len(checked) == 1
    # a map built by hand on other images is still checked, and refused
    A = cg.tensor_cogroup(parse_spec(text).coalgebra(), 4)
    images, x = dict(A.nu.images), A.algebra.generators[0].name
    images[x] = images[x] + A.algebra.generator(x)
    cg.AlgebraMorphism(A.algebra, A.algebra, images)
    assert len(checked) == 3
    images[x] = A.algebra.one()
    with pytest.raises(ValueError, match="not homogeneous"):
        cg.AlgebraMorphism(A.algebra, A.algebra, images)
    assert len(checked) == 4


def test_the_antipode_table_builds_no_inverse():
    # chi reads its generator images off the table: no nu, no D
    for A in fresh_cogroups():
        chi = cg.antipode(A)
        for w in A.algebra.words_up_to():
            chi.image(w)
        assert built(A) == {"generator_images"}
        assert A._reduced_by_degree == []
        assert chi.images is A.generator_images is A.nu.images


def assert_delta_is_the_folded_phi(A):
    """D on generators from the table against its oracle pi . Phi, term
    order included; ``reduced_coproducts`` holds D on every other word."""
    pi_phi = folded_phi(A)
    assert A.delta.keys() == pi_phi.images.keys()
    for name, terms in A.delta.items():
        assert list(terms.items()) == list(pi_phi.images[name].terms.items()), name


@pytest.mark.parametrize("key", MATRIX_KEYS)
def test_delta_from_the_table_is_pi_phi_on_the_matrix(key):
    C = cg.trivial_coalgebra(make_module(key))
    assert_delta_is_the_folded_phi(cg.tensor_cogroup(C, 6))


@settings(max_examples=40, deadline=None)
@given(coassociative_coalgebras())
def test_delta_from_the_table_is_pi_phi(case):
    assert_delta_is_the_folded_phi(cg.tensor_cogroup(*case))


def assert_dbar_is_the_folded_phi_less_its_outer_terms(A):
    """Each degree of ``reduced_coproducts`` against pi . Phi and against the
    table's D, both maps into the oracle ``TensorSquare``, on basis(d) with
    w (x) 1 and 1 (x) w taken out, 1 (x) 1 on the empty word."""
    oracles = folded_phi(A), coproduct_morphism(A.coalgebra, TensorSquare(A.algebra))
    for d in range(A.truncation + 1):
        words = A.algebra.basis(d)
        dbars = A.reduced_coproducts(d)
        assert len(dbars) == len(words), d
        for w, dbar in zip(words, dbars):
            for oracle in oracles:
                want = dict(oracle.image(w).terms)
                want.pop((w, ()), None)
                want.pop(((), w), None)
                assert len(dbar) == len(want) and {(y, z): c for c, y, z in dbar} == want, w
            assert A.reduced_coproduct_word(w) is dbar


@pytest.mark.parametrize("key", MATRIX_KEYS)
def test_reduced_coproducts_are_pi_phi_less_its_outer_terms_on_the_matrix(key):
    C = cg.trivial_coalgebra(make_module(key))
    assert_dbar_is_the_folded_phi_less_its_outer_terms(cg.tensor_cogroup(C, 6))


@settings(max_examples=40, deadline=None)
@given(st.one_of(coassociative_coalgebras(), coprime_torsion_coalgebras()))
def test_reduced_coproducts_are_pi_phi_less_its_outer_terms(case):
    assert_dbar_is_the_folded_phi_less_its_outer_terms(cg.tensor_cogroup(*case))


@pytest.mark.parametrize("key", PAIR_MODULUS_TABLES)
def test_reduced_coproducts_reduce_each_pair_by_its_own_modulus(key):
    A = cg.tensor_cogroup(PAIR_MODULUS_TABLES[key], 6)
    assert_dbar_is_the_folded_phi_less_its_outer_terms(A)
    terms = sum(len(A.reduced_coproduct_word(w)) for w in A.algebra.words_up_to() if w)
    assert terms == {"torsion-z": 609, "free-x-over-y-ann-2": 294}[key]


def counted_table_reads(monkeypatch):
    """A list that ``coproduct_pairs`` appends to on each read of the table."""
    reads = []

    def read(C, algebra):
        reads.append(C)
        return coproduct_pairs(C, algebra)

    monkeypatch.setattr(cg.cogroup, "coproduct_pairs", read)
    return reads


def test_a_cogroup_reads_its_table_pairs_once(monkeypatch):
    reads = counted_table_reads(monkeypatch)
    for A in fresh_cogroups():
        before = len(reads)
        assert A.phi and A.delta is A.table_delta
        assert cg.check_cogroup_axioms(A).ok
        assert len(reads) == before + 1


def test_the_restriction_check_reads_a_supplied_phi(monkeypatch):
    # Phi and nu of the table y -> x (x) x, on the primitive table
    m = module(Q, [("x", 1), ("y", 2)])
    twisted = cg.tensor_cogroup(cg.CoalgebraPresentation(m, {"y": [(1, "x", "x")]}), 6)
    A = cg.Cogroup(cg.trivial_coalgebra(m), 6)
    A.phi, A.nu = twisted.phi, twisted.nu
    A.delta = folded_delta(A)
    reads = counted_table_reads(monkeypatch)
    # the supplied D is the folded Phi: only the table tells them apart
    assert cg.check_cogroup_axioms(A).violations == [
        "coproduct does not restrict to the coalgebra on y"
    ]
    assert len(reads) == 1
    assert A.reduced_coproduct_word(("y",)) == ((1, ("x",), ("x",)),)


def test_assigned_phi_and_nu_are_kept_and_delta_reads_the_table():
    C = cg.trivial_coalgebra(module(Q, [("x", 2)]))
    good = cg.Cogroup(C, 6)
    p = {"x": {(("x",), (0,)): 1}}
    n = cg.AlgebraMorphism(good.algebra, good.algebra, {"x": good.algebra.generator("x")})
    A = cg.Cogroup(C, 6)
    A.phi, A.nu = p, n
    assert A.phi is p and A.nu is n
    assert built(A) == {"phi", "nu"}
    x = A.algebra.generator("x")
    assert folded_phi(A)(x) == TensorSquare(A.algebra).pure(("x",), ())
    assert A.delta == good.delta == {"x": {(("x",), ()): 1, ((), ("x",)): 1}}


def test_reduced_coproduct_of_a_power():
    A = polynomial_cogroup()
    parts = A.reduced_coproduct_word(("X", "X"))
    assert set(parts) == {(2, ("X",), ("X",))}
    assert A.reduced_coproduct_word(("X",)) == ()
    assert A.reduced_coproduct_word(()) == ()
    with pytest.raises(ValueError, match="X\\^6 is not a basis word"):  # degree 12 > 10
        A.reduced_coproduct_word(("X",) * 6)


def test_tensor_cogroup_rejects_broken_coalgebras():
    m = module(Q, [("y", 2), ("m", 4), ("x", 6)])
    bad = cg.CoalgebraPresentation(m, {"m": [(1, "y", "y")], "x": [(1, "m", "y")]})
    with pytest.raises(ValueError):
        cg.tensor_cogroup(bad, 8)


def test_axioms_pass_on_reference_instances():
    assert cg.check_cogroup_axioms(polynomial_cogroup()).ok
    assert cg.check_cogroup_axioms(loop_cogroup(), 6).ok
    for key in (
        "q-odd3",
        "f2-odd1",
        "f3-even2",
        "z-tor43",
        "z-coprime",
        "z4-free3",
        "z6-common3",
    ):
        A = make_cogroup(key, 6)
        rep = cg.check_cogroup_axioms(A)
        assert rep.ok, f"{key}: {rep}"


def test_axioms_pass_with_torsion_coproduct():
    m = module(Z, [("y", 2, 4), ("x", 4, 2)])
    C = cg.CoalgebraPresentation(m, {"x": [(2, "y", "y")]})
    assert cg.check_cogroup_axioms(cg.tensor_cogroup(C, 8)).ok


def failure_kinds(report):
    return {v.rsplit(" on ", 1)[0] for v in report.violations}


def both_levels(A):
    """The check by substitution, after comparing it with the free-product
    oracle on the same words, report for report, and on every word."""
    fast = cg.check_cogroup_axioms(A)
    words = [()] + [(n,) for n in A.phi]
    same = check_axioms_on(A, A.truncation, words)
    assert (fast.checked, fast.violations) == (same.checked, same.violations)
    slow = check_axioms_on(A, A.truncation, A.algebra.words_up_to())
    assert fast.ok == slow.ok
    assert failure_kinds(slow) <= failure_kinds(fast)
    return fast


def test_axioms_are_checked_on_the_unit_and_generators():
    rep = cg.check_cogroup_axioms(loop_cogroup(8))
    # (), y, x, then D restricted to the coalgebra on y and x
    assert rep.ok and rep.checked == 3 + 2
    assert both_levels(loop_cogroup(6)).ok


def broken(A, parts, rng):
    """A fresh cogroup on A's table with one generator image of each of
    ``parts``, Phi, nu or D, moved off by a legal term, in that order; D =
    pi . Phi follows a broken Phi."""
    bad = cg.Cogroup(A.coalgebra, A.truncation)
    for part in parts:
        g = rng.choice(list(A.phi))
        if part == "phi":  # g'' dropped
            bad.phi = dict(bad.phi)
            bad.phi[g] = {k: c for k, c in bad.phi[g].items() if k != ((g,), (1,))}
            bad.delta = folded_delta(bad)
        elif part == "delta":  # g (x) 1 twice: the counit law fails
            sq = TensorSquare(A.algebra)
            bad.delta = dict(bad.delta)
            bad.delta[g] = (sq.element(bad.delta[g]) + sq.pure((g,), ())).terms
        else:
            images = dict(bad.nu.images)
            images[g] = images[g] + A.algebra.generator(g)
            bad.nu = cg.AlgebraMorphism(A.algebra, A.algebra, images)
    return bad


@settings(max_examples=40, deadline=None)
@given(coassociative_coalgebras(), st.sampled_from((None, "phi", "nu", "delta")), st.randoms())
def test_generator_level_axioms_agree_with_every_word(case, part, rng):
    C, D = case
    A = cg.tensor_cogroup(C, D)
    if part is not None:
        A = broken(A, (part,), rng)
    assert both_levels(A).ok == (part is None)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from((Q, Z4)),
    st.integers(2, 4),
    st.lists(st.tuples(
        st.sampled_from("xy"),
        st.lists(st.sampled_from(("x'", "x''", "y'", "y''")), min_size=2, max_size=3),
        st.sampled_from((1, -1, 2)),
    ), max_size=4),
)
def test_a_phi_that_leaves_its_degree_is_checked_as_on_every_word(ring, D, extra):
    """Phi with longer words of any degree added to its generator images:
    the substituted products run past the truncation and must be cut
    there, as in A * A * A."""
    A = cg.Cogroup(cg.trivial_coalgebra(module(ring, [("x", 1), ("y", 2)])), D)
    images = {n: {((n,), (0,)): 1, ((n,), (1,)): 1} for n in "xy"}
    for n, letters, c in extra:
        word, slots = tuple(l[0] for l in letters), tuple(len(l) - 2 for l in letters)
        if A.algebra.word_degree(word) <= D:  # as A * A truncates it
            accumulate(images[n], {(word, slots): c})
    A.phi = {n: _reduce_terms(_SlotWords(A.algebra), t) for n, t in images.items()}
    both_levels(A)
    # pi . Phi multiplied out in the pair parent, against pi substituted into
    # the oracle's Koszul-signed product: a slot-1 odd x before a slot-0 x
    # flips the sign; the kernel leaves the reduction to its caller
    pairs, sq = _Pairs(A.algebra), TensorSquare(A.algebra)
    pi = ({n: {((n,), ()): 1} for n in "xy"}, {n: {((), (n,)): 1} for n in "xy"})
    for n, terms in A.phi.items():
        folded = _reduce_terms(A.algebra, _substitute(pairs, terms, *pi, {}))
        assert folded == _reduce_terms(sq, _substitute(sq, terms, *pi, {})), n


@pytest.mark.parametrize("key", MATRIX_KEYS)
def test_each_broken_part_is_caught_as_on_every_word(key):
    A = make_cogroup(key, 5)
    rng = random.Random(key)
    assert both_levels(A).ok
    for part in ("phi", "nu", "delta"):
        assert not both_levels(broken(A, (part,), rng)).ok, part


@pytest.mark.parametrize("key", MATRIX_KEYS)
def test_phi_nu_and_d_broken_at_once_fail_in_the_oracle_order(key):
    """Each law is one difference, but the failures come in the order the
    free-product oracle reports them, law by law on the unit and each
    generator, then the restriction to the table."""
    A = make_cogroup(key, 5)
    rep = both_levels(broken(A, ("phi", "nu", "delta"), random.Random(key)))
    kinds = failure_kinds(rep)
    assert {"Phi counit law fails", "coproduct counit law fails"} <= kinds
    assert kinds & {"left inverse law fails", "right inverse law fails"}


def test_axioms_catch_a_broken_comultiplication():
    C = cg.trivial_coalgebra(module(Q, [("x", 2)]))
    bad = cg.Cogroup(C, 6)
    bad.phi = {"x": {(("x",), (0,)): 1}}  # x'' dropped
    bad.delta = folded_delta(bad)
    rep = both_levels(bad)
    assert not rep.ok
    assert any("inverse law" in v for v in rep.violations)
    assert any("counit" in v for v in rep.violations)
    assert rep.violations == [
        "Phi counit law fails on x",
        "left inverse law fails on x",
        "right inverse law fails on x",
        "coproduct counit law fails on x",
        "coproduct does not restrict to the coalgebra on x",
    ]


def test_axioms_catch_a_broken_inverse():
    C = cg.trivial_coalgebra(module(Q, [("x", 2)]))
    good = cg.Cogroup(C, 6)
    wrong_nu = cg.AlgebraMorphism(
        good.algebra, good.algebra, {"x": good.algebra.generator("x")}
    )
    bad = cg.Cogroup(C, 6)
    bad.nu = wrong_nu
    rep = both_levels(bad)
    assert not rep.ok
    assert all("inverse law" in v for v in rep.violations)


def test_cogroup_morphism_scaling_passes():
    A = polynomial_cogroup()
    for c in (0, 1, -1, 2):
        f = cg.AlgebraMorphism(
            A.algebra, A.algebra, {"X": A.algebra.generator("X").scale(c)}
        )
        assert cg.is_cogroup_morphism(f, A, A)


def test_cogroup_morphism_square_fails():
    src = polynomial_cogroup(2, 8)
    tgt = cg.tensor_cogroup(cg.trivial_coalgebra(module(Q, [("Y", 1)])), 8)
    Y = tgt.algebra.generator("Y")
    f = cg.AlgebraMorphism(src.algebra, tgt.algebra, {"X": Y * Y})
    assert not cg.is_cogroup_morphism(f, src, tgt)
    zero = cg.AlgebraMorphism(src.algebra, tgt.algebra, {"X": tgt.algebra.zero()})
    assert cg.is_cogroup_morphism(zero, src, tgt)


# (ring, generators, c): y and x of twice its degree, with the table
# x -> c y (x) y or none
MORPHISM_MODULES = [
    (Q, [("y", 1), ("x", 2)], 1),
    (Z4, [("y", 1), ("x", 2)], 1),
    (Z4, [("y", 1), ("x", 2, 2)], 2),
    (Z, [("y", 1), ("x", 2)], 1),
    (Z, [("y", 2, 4), ("x", 4, 2)], 2),
]


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from(MORPHISM_MODULES), st.booleans(), st.booleans(),
    st.integers(2, 5), st.randoms(use_true_random=False),
)
def test_cogroup_morphism_verdicts_match_the_free_product_oracle(case, twist_a, twist_b, D, rng):
    ring, gens, c = case
    m = module(ring, gens)
    A, B = (
        cg.tensor_cogroup(cg.CoalgebraPresentation(m, {"x": [(c, "y", "y")]} if twist else {}), D)
        for twist in (twist_a, twist_b)
    )
    images = {}
    for g in m.generators:
        if g.degree <= D:  # small coefficients, each killed by ann(g)
            terms = {}
            for w in B.algebra.basis(g.degree):
                mod = B.algebra.word_modulus(w)
                step = mod // gcd(g.annihilator, mod) if g.annihilator else 1
                terms[w] = rng.choice((0, 0, 1, -1, 2)) * step
            images[g.name] = B.algebra.element(terms)
    f = cg.AlgebraMorphism(A.algebra, B.algebra, images)
    assert cg.is_cogroup_morphism(f, A, B) == is_cogroup_morphism_on_free_products(f, A, B)


def test_cogroup_morphism_checks_the_algebras():
    A = polynomial_cogroup(2, 8)
    B = polynomial_cogroup(2, 6)
    f = cg.AlgebraMorphism(A.algebra, A.algebra, {"X": A.algebra.generator("X")})
    with pytest.raises(ValueError):
        cg.is_cogroup_morphism(f, A, B)


# A Delta that lost the outer term 1 (x) x, a table and an unchecked
# anti-morphism whose images leave their degree (the anti-morphism fails
# the surjectivity certificate and reaches the per-degree check), a map
# that is not an anti-morphism given to the Hopf check, an unchecked
# morphism whose image is not homogeneous, invalid rings, generators,
# modules and truncations, a coefficient no ring holds, a sum across two
# algebras and a generator the algebra lacks: all break invariants that
# must hold under ``python -O``.
BROKEN_FIXTURES = """
import cogroups as cg
from cogroup_oracle import folded_delta
from convolution_oracle import TableMap, WordSource, explicit_identity
from instances import (
    module,
)
assert not __debug__
C = cg.trivial_coalgebra(module(cg.RingSpec.rationals(), [("x", 2)]))
good = cg.Cogroup(C, 4)
bad = cg.Cogroup(C, 4)
bad.phi = {"x": {(("x",), (0,)): 1}}
bad.delta = folded_delta(bad)
try:
    bad.reduced_coproduct_word(("x",))
except ValueError as exc:
    print("delta:", exc)
alg = good.algebra
leak = TableMap(
    WordSource(good), alg,
    {w: alg.element({w + ("x",): 1}) for w in alg.words_up_to(2) if w},
)
try:
    cg.is_antipode_surjective(good, leak)
except ValueError as exc:
    print("surjective:", exc)
anti = cg.AntiMorphism(alg, alg, {"x": alg.element({("x",): -1, ("x", "x"): 1})}, check=False)
try:
    cg.is_antipode_surjective(good, anti)
except ValueError as exc:
    print("surjective anti:", exc)
try:
    cg.check_hopf_antipode(good, explicit_identity(good))
except ValueError as exc:
    print("hopf:", exc)
B = cg.TruncatedTensorAlgebra(module(cg.RingSpec.rationals(), [("y", 1)]), 4)
y = B.generator("y")
mixed = cg.AlgebraMorphism(B, B, {"y": y + y * y}, check=False)
print("unchecked:", mixed.image(("y", "y")))
for make in (
    lambda: cg.RingSpec("Zmod", 1),
    lambda: cg.RingSpec("R"),
    lambda: cg.RingSpec("Z", 5),
    lambda: cg.CyclicGenerator("x", 0),
    lambda: module(cg.RingSpec.integers(), [("x", 2), ("x", 3)]),
    lambda: module(cg.RingSpec.rationals(), [("x", 2, 2)]),
    lambda: cg.TruncatedTensorAlgebra(B.module, -1),
    lambda: y + alg.generator("x"),
):
    try:
        make()
    except ValueError as exc:
        print("invalid:", exc)
try:
    cg.RingSpec.integers().normalize(1.5)
except TypeError as exc:
    print("type:", exc)
try:
    B.generator("q")
except KeyError as exc:
    print("key:", exc)
"""


def test_invariant_errors_survive_python_O():
    tests = Path(__file__).resolve().parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(tests.parent / "src"), str(tests)]))
    run = subprocess.run(
        [sys.executable, "-O", "-c", BROKEN_FIXTURES],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == 0, run.stderr
    assert "delta: coproduct of x lost its outer terms" in run.stdout
    assert "surjective: image of x leaves degree 2" in run.stdout
    assert "surjective anti: image of x leaves degree 2" in run.stdout
    assert "hopf: the antipode laws are checked for an AntiMorphism only" in run.stdout
    assert "unchecked: y^2 + 2*y^3 + y^4" in run.stdout
    assert "invalid: Zmod modulus must be >= 2" in run.stdout
    assert "invalid: generator x: degree must be >= 1" in run.stdout
    assert "invalid: duplicate generator name 'x'" in run.stdout
    assert "invalid: generator x: annihilator 2 is not legal over Q" in run.stdout
    assert "invalid: unknown ring kind 'R'" in run.stdout
    assert "invalid: Z takes no modulus" in run.stdout
    assert "type: cannot coerce float into Z" in run.stdout
    assert "invalid: truncation must be >= 0" in run.stdout
    assert "invalid: elements belong to different algebras" in run.stdout
    assert "key: 'q'" in run.stdout
