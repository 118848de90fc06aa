"""Coalgebra presentations: normalization, axioms, cocommutativity."""

import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

import coalgebra_oracle as oracle
import cogroups as cg
from cogroups.coalgebra import coproduct_pairs
from cogroup_oracle import TensorSquare, coproduct_morphism, table_report, word_coproduct_laws
from convolution_oracle import WordMorphism
from instances import (
    F2,
    Q,
    Z,
    Z4,
    make_module,
    module,
    raw_presentations,
)


def test_trivial_coalgebra_is_primitive():
    C = cg.trivial_coalgebra(make_module("q-pair24"))
    assert C.table == {}


def test_axiom_report_text():
    assert str(cg.AxiomReport(3, [])) == "ok (3 checks)"
    assert str(cg.AxiomReport(3, ["a", "b"])) == "2 violation(s) in 3 checks:\n  a\n  b"


def test_table_normalization_combines_and_sorts():
    m = module(Q, [("y", 2), ("w", 2), ("x", 4)])
    C = cg.CoalgebraPresentation(
        m, {"x": [(1, "w", "y"), (1, "y", "w"), (2, "y", "w")]}
    )
    assert C.table["x"] == ((3, "y", "w"), (1, "w", "y"))


def test_table_coefficients_reduce_modulo_pair():
    m = module(Z, [("y", 2, 3), ("x", 4)])
    C = cg.CoalgebraPresentation(m, {"x": [(4, "y", "y")]})
    assert C.table["x"] == ((1, "y", "y"),)
    dropped = cg.CoalgebraPresentation(m, {"x": [(3, "y", "y")]})
    assert "x" not in dropped.table
    assert dropped == cg.trivial_coalgebra(m)


def test_table_validation():
    m = module(Q, [("y", 2), ("x", 4)])
    with pytest.raises(KeyError):
        cg.CoalgebraPresentation(m, {"zzz": [(1, "y", "y")]})
    with pytest.raises(ValueError):
        cg.CoalgebraPresentation(m, {"x": [(1, "y", "x")]})  # degree 6 != 4
    with pytest.raises(ValueError):
        cg.CoalgebraPresentation(m, {"y": [(1, "y", "y")]})  # degree 4 != 2


def test_non_integral_coefficients_are_refused():
    for ring, c in ((Q, Fraction(1, 2)), (Q, 2.7), (Z, Fraction(3, 2))):
        m = module(ring, [("y", 2), ("x", 4)])
        with pytest.raises(ValueError, match=rf"coproduct of x: coefficient {re.escape(str(c))} "):
            cg.CoalgebraPresentation(m, {"x": [(c, "y", "y")]})
    m = module(Q, [("y", 2), ("x", 4)])
    C = cg.CoalgebraPresentation(m, {"x": [(Fraction(4, 2), "y", "y")]})
    assert C.table["x"] == ((2, "y", "y"),)


def test_annihilator_compatibility():
    m = module(Z, [("y", 2, 4), ("x", 4, 2)])
    ok = cg.CoalgebraPresentation(m, {"x": [(2, "y", "y")]})
    assert ok.table["x"] == ((2, "y", "y"),)
    with pytest.raises(ValueError):
        cg.CoalgebraPresentation(m, {"x": [(1, "y", "y")]})


def test_axioms_pass_for_primitive_and_symmetric_tables():
    for key in ("q-even2", "z-tor43", "z6-coprime"):
        C = cg.trivial_coalgebra(make_module(key))
        rep = cg.check_coalgebra_axioms(C, 10)
        assert rep.ok and rep.checked == len(C.module.generators)
    m = module(Q, [("y", 2), ("x", 4)])
    C = cg.CoalgebraPresentation(m, {"x": [(1, "y", "y")]})
    assert cg.check_coalgebra_axioms(C, 10).ok


def test_axioms_catch_broken_coassociativity():
    m = module(Q, [("y", 2), ("m", 4), ("x", 6)])
    C = cg.CoalgebraPresentation(
        m, {"m": [(1, "y", "y")], "x": [(1, "m", "y")]}
    )
    rep = cg.check_coalgebra_axioms(C, 10)
    assert not rep.ok
    assert any("coassociativity" in v and "x" in v for v in rep.violations)
    # restoring the symmetric partner term fixes it
    fixed = cg.CoalgebraPresentation(
        m, {"m": [(1, "y", "y")], "x": [(1, "m", "y"), (1, "y", "m")]}
    )
    assert cg.check_coalgebra_axioms(fixed, 10).ok


def test_axioms_respect_truncation():
    m = module(Q, [("y", 2), ("x", 12)])
    C = cg.trivial_coalgebra(m)
    assert cg.check_coalgebra_axioms(C, 10).checked == 1


def test_cocommutativity_signs():
    even = module(Q, [("y", 2), ("x", 4)])
    assert cg.is_cocommutative(cg.CoalgebraPresentation(even, {"x": [(1, "y", "y")]}))
    odd = module(Q, [("y", 1), ("x", 2)])
    assert not cg.is_cocommutative(cg.CoalgebraPresentation(odd, {"x": [(1, "y", "y")]}))
    odd2 = module(F2, [("y", 1), ("x", 2)])
    assert cg.is_cocommutative(cg.CoalgebraPresentation(odd2, {"x": [(1, "y", "y")]}))
    tor = module(Z, [("y", 1, 2), ("x", 2, 2)])
    assert cg.is_cocommutative(cg.CoalgebraPresentation(tor, {"x": [(1, "y", "y")]}))


def test_cocommutativity_needs_symmetry():
    m = module(Q, [("y", 1), ("w", 1), ("x", 2)])
    C = cg.CoalgebraPresentation(m, {"x": [(1, "y", "w")]})
    assert cg.check_coalgebra_axioms(C, 10).ok
    assert not cg.is_cocommutative(C)
    sym = cg.CoalgebraPresentation(m, {"x": [(1, "y", "w"), (-1, "w", "y")]})
    assert cg.is_cocommutative(sym)
    assert cg.is_cocommutative(cg.trivial_coalgebra(m))


def _build(cls, module, table):
    try:
        return cls(module, table), None
    except (KeyError, ValueError) as exc:
        return None, (type(exc), str(exc))


@settings(max_examples=300, deadline=None)
@given(raw_presentations())
def test_coalgebra_matches_the_generator_name_oracle(presentation):
    module, table = presentation
    C, error = _build(cg.CoalgebraPresentation, module, table)
    O, oracle_error = _build(oracle.OraclePresentation, module, table)
    assert error == oracle_error
    if C is None:
        return
    assert C.table == O.table
    names = module.names()
    for y in names:
        for z in names:
            assert C.modulus((y, z)) == O._pair_modulus(y, z)
            assert C.modulus((y, z, y)) == O._pair_modulus(y, z)
    assert cg.is_cocommutative(C) == oracle.is_cocommutative(O)
    for D in range(6):
        report = cg.check_coalgebra_axioms(C, D)
        assert (report.checked, report.violations) == oracle.check_coalgebra_axioms(O, D)


def raw_coalgebras():
    """Coalgebras on the tables of ``raw_presentations`` that are not refused."""
    return raw_presentations().map(lambda p: _build(cg.CoalgebraPresentation, *p)[0]).filter(
        lambda C: C is not None
    )


# y ann 4: 2 y(x)y(x)y survives mod 4, so m(x)y alone is not coassociative
TORSION = module(Z, [("y", 2, 4), ("m", 4, 2), ("x", 6)])
Z4_CHAIN = module(Z4, [("a", 1), ("b", 2), ("c", 3)])


@settings(max_examples=300, deadline=None)
@given(raw_coalgebras(), st.integers(0, 6))
@example(cg.CoalgebraPresentation(TORSION, {"m": [(2, "y", "y")], "x": [(1, "m", "y")]}), 6)
@example(cg.CoalgebraPresentation(TORSION, {"m": [(2, "y", "y")], "x": [(1, "m", "y"), (1, "y", "m")]}), 6)
@example(cg.CoalgebraPresentation(Z4_CHAIN, {"b": [(2, "a", "a")], "c": [(1, "a", "b")]}), 4)
@example(cg.CoalgebraPresentation(Z4_CHAIN, {"b": [(2, "a", "a")], "c": [(1, "a", "b"), (1, "b", "a")]}), 4)
def test_the_laws_read_off_the_table_match_the_laws_on_d(C, D):
    """The table-level check and ``word_coproduct_laws`` on every generator of the
    table's D give the same report, violations in the same order."""
    report, oracle_report = cg.check_coalgebra_axioms(C, D), table_report(C, D)
    assert (report.checked, report.violations) == (oracle_report.checked, oracle_report.violations)


@settings(max_examples=150, deadline=None)
@given(raw_coalgebras(), st.integers(1, 6), st.randoms(use_true_random=False))
def test_the_laws_on_pair_dicts_match_the_laws_on_the_map(C, D, rng):
    """``coproduct_pairs`` against the oracle's D : A -> A (x) A on
    generators, and D's laws as ``check_cogroup_axioms`` reads them off
    the pair dicts, given as the cogroup's D, against the oracle's laws on
    the map, on the unit and every generator, failures in the same order.
    Then a pair of words is added to one generator's D, so that the laws
    read the images of longer words, and may fail."""
    A = cg.Cogroup(C, D)
    alg = A.algebra
    sq = TensorSquare(alg)
    delta = coproduct_pairs(C, alg)
    want = coproduct_morphism(C, sq).images
    assert {n: list(t.items()) for n, t in delta.items()} == {
        n: list(img.terms.items()) for n, img in want.items()
    }
    for _ in range(3):
        images = {n: sq.element(t) for n, t in delta.items()}
        oracle = WordMorphism(alg, sq, images)
        want = []
        for w in [()] + [(n,) for n in delta]:
            coassociative, left, right = word_coproduct_laws(oracle, w)
            for law, holds in (("coassociativity", coassociative), ("counit law", left and right)):
                want += [] if holds else [f"coproduct {law} fails on {cg.format_word(w)}"]
        A.delta = delta
        laws = [v for v in cg.check_cogroup_axioms(A).violations if v.startswith("coproduct co")]
        assert laws == want
        if not delta:
            return
        x = rng.choice(sorted(delta))
        d = alg.word_degree((x,))
        pairs = [(u, v) for e in range(d + 1) for u in alg.basis(e) for v in alg.basis(d - e)]
        extra = sq.element({rng.choice(pairs): rng.choice((1, -1, 2))})
        delta = dict(delta)
        delta[x] = (sq.element(delta[x]) + extra).terms
