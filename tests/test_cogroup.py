"""Cogroup structure on tensor algebras: maps, axioms, morphisms."""

import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import cogroups as cg
from cogroups.cogroup import _check_axioms_on, folded_phi
from instances import (
    MATRIX_KEYS,
    Q,
    Z,
    Z4,
    coassociative_coalgebras,
    make_cogroup,
    make_module,
)


def polynomial_cogroup(n=2, D=10):
    return cg.tensor_cogroup(cg.trivial_coalgebra(cg.module(Q, [("X", n)])), D)


def loop_cogroup(D=8):
    """y primitive in degree 1, x in degree 2 with Dbar(x) = y (x) y."""
    m = cg.module(Q, [("y", 1), ("x", 2)])
    C = cg.CoalgebraPresentation(m, {"x": [(1, "y", "y")]})
    return cg.tensor_cogroup(C, D)


def test_phi_on_a_primitive_generator():
    A = polynomial_cogroup()
    prod = A.square_product.algebra
    assert A.phi(A.algebra.generator("X")) == (
        prod.generator("X'") + prod.generator("X''")
    )


def test_phi_picks_up_coproduct_terms():
    A = loop_cogroup()
    prod = A.square_product.algebra
    want = (
        prod.generator("x'")
        + prod.generator("x''")
        + prod.generator("y'") * prod.generator("y''")
    )
    assert A.phi(A.algebra.generator("x")) == want


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
        assert A.nu.word_image(w) == A.nu(alg.element({w: 1})), w


def test_nu_on_words_with_coprime_annihilators_is_zero():
    for key in ("z-coprime", "z6-coprime"):
        A = make_cogroup(key, 8)
        w = ("x", "y")
        assert A.algebra.word_modulus(w) == 1
        assert not A.nu.word_image(w), key
        assert not A.nu(A.algebra.element({w: 1})), key


def test_delta_restricts_to_table():
    A = loop_cogroup()
    sq = A.tensor_square
    want = sq.pure(("x",), ()) + sq.pure((), ("x",)) + sq.pure(("y",), ("y",))
    assert A.delta(A.algebra.generator("x")) == want


LAZY = ("square_product", "tensor_square", "phi", "nu", "delta")


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


def refuse_free_products(monkeypatch):
    def refuse(*factors):
        raise AssertionError("free product built")

    monkeypatch.setattr("cogroups.cogroup.free_product", refuse)


def test_a_new_cogroup_builds_no_structure(monkeypatch):
    for C in fresh_coalgebras():
        assert built(cg.Cogroup(C, 6)) == set()
    # the coalgebra laws are checked on the cogroup's own D
    refuse_free_products(monkeypatch)
    for A in fresh_cogroups():
        assert built(A) == {"tensor_square", "delta"}


def test_the_inverse_table_builds_no_comultiplication(monkeypatch):
    refuse_free_products(monkeypatch)
    for A in fresh_cogroups():
        for w in A.algebra.words_up_to():
            A.nu.word_image(w)
        assert built(A) == {"tensor_square", "delta", "nu"}


def test_the_antipode_table_builds_no_inverse(monkeypatch):
    refuse_free_products(monkeypatch)
    for A in fresh_cogroups():
        chi = cg.antipode(A)
        for w in A.algebra.words_up_to():
            chi.image(w)
        assert built(A) == {"tensor_square", "delta"}


def assert_delta_is_the_folded_phi(A):
    """D from the table against its oracle pi . Phi, term order included."""
    pi_phi = folded_phi(A)
    for w in A.algebra.words_up_to():
        got, want = A.delta.word_image(w), pi_phi.word_image(w)
        assert list(got.terms.items()) == list(want.terms.items()), w


@pytest.mark.parametrize("key", MATRIX_KEYS)
def test_delta_from_the_table_is_pi_phi_on_the_matrix(key):
    C = cg.trivial_coalgebra(make_module(key))
    assert_delta_is_the_folded_phi(cg.tensor_cogroup(C, 6))


@settings(max_examples=40, deadline=None)
@given(coassociative_coalgebras())
def test_delta_from_the_table_is_pi_phi(case):
    assert_delta_is_the_folded_phi(cg.tensor_cogroup(*case))


def test_the_restriction_check_reads_a_supplied_phi():
    # Phi and nu of the table y -> x (x) x, on the primitive table
    m = cg.module(Q, [("x", 1), ("y", 2)])
    twisted = cg.tensor_cogroup(cg.CoalgebraPresentation(m, {"y": [(1, "x", "x")]}), 6)
    A = cg.Cogroup(cg.trivial_coalgebra(m), 6, phi=twisted.phi, nu=twisted.nu)
    assert cg.check_cogroup_axioms(A).violations == [
        "coproduct does not restrict to the coalgebra on y"
    ]
    assert A.reduced_coproduct_word(("y",)) == ((1, ("x",), ("x",)),)


def test_explicit_phi_and_nu_are_kept_and_delta_follows_phi():
    C = cg.trivial_coalgebra(cg.module(Q, [("x", 2)]))
    good = cg.Cogroup(C, 6)
    prod = good.square_product.algebra
    p = cg.AlgebraMorphism(good.algebra, prod, {"x": prod.generator("x'")}, check=False)
    n = cg.AlgebraMorphism(good.algebra, good.algebra, {"x": good.algebra.generator("x")})
    A = cg.Cogroup(C, 6, phi=p, nu=n)
    assert A.phi is p and A.nu is n
    assert built(A) == {"phi", "nu"}
    x = A.algebra.generator("x")
    assert A.delta(x) == A.tensor_square.pure(("x",), ())
    assert good.delta(good.algebra.generator("x")) != good.tensor_square.pure(("x",), ())


def test_reduced_coproduct_of_a_power():
    A = polynomial_cogroup()
    parts = A.reduced_coproduct_word(("X", "X"))
    assert set(parts) == {(2, ("X",), ("X",))}
    assert A.reduced_coproduct_word(("X",)) == ()
    assert A.reduced_coproduct_word(()) == ()


def test_counit_is_degree_zero_projection():
    A = polynomial_cogroup()
    X = A.algebra.generator("X")
    e = A.algebra.one().scale(3) + X
    assert A.counit(e) == 3
    assert A.unit_counit(e) == A.algebra.scalar(3)
    assert A.counit(X) == 0


def test_tensor_cogroup_rejects_broken_coalgebras():
    m = cg.module(Q, [("y", 2), ("m", 4), ("x", 6)])
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
    m = cg.module(Z, [("y", 2, 4), ("x", 4, 2)])
    C = cg.CoalgebraPresentation(m, {"x": [(2, "y", "y")]})
    assert cg.check_cogroup_axioms(cg.tensor_cogroup(C, 8)).ok


def failure_kinds(report):
    return {v.rsplit(" on ", 1)[0] for v in report.violations}


def both_levels(A):
    """The generator-level check, after comparing it with every word."""
    fast = cg.check_cogroup_axioms(A)
    slow = _check_axioms_on(A, A.truncation, A.algebra.words_up_to())
    assert fast.ok == slow.ok
    assert failure_kinds(slow) <= failure_kinds(fast)
    return fast


def test_axioms_are_checked_on_the_unit_and_generators():
    rep = cg.check_cogroup_axioms(loop_cogroup(8))
    # (), y, x, then D restricted to the coalgebra on y and x
    assert rep.ok and rep.checked == 3 + 2
    assert both_levels(loop_cogroup(6)).ok


def broken(A, part, rng):
    """A with one generator image of Phi or nu moved off by a legal term."""
    g = rng.choice(list(A.phi.images))
    if part == "phi":
        prod = A.square_product.algebra
        images = dict(A.phi.images)
        images[g] = images[g] - prod.generator(A.square_product.name_maps[1][g])
        return cg.Cogroup(A.coalgebra, A.truncation, phi=cg.AlgebraMorphism(
            A.algebra, prod, images, check=False))
    images = dict(A.nu.images)
    images[g] = images[g] + A.algebra.generator(g)
    return cg.Cogroup(A.coalgebra, A.truncation, nu=cg.AlgebraMorphism(
        A.algebra, A.algebra, images))


@settings(max_examples=40, deadline=None)
@given(coassociative_coalgebras(), st.sampled_from((None, "phi", "nu")), st.randoms())
def test_generator_level_axioms_agree_with_every_word(case, part, rng):
    C, D = case
    A = cg.tensor_cogroup(C, D)
    if part is not None:
        A = broken(A, part, rng)
    assert both_levels(A).ok == (part is None)


def test_axioms_catch_a_broken_comultiplication():
    C = cg.trivial_coalgebra(cg.module(Q, [("x", 2)]))
    good = cg.Cogroup(C, 6)
    prod = good.square_product.algebra
    broken_phi = cg.AlgebraMorphism(
        good.algebra, prod, {"x": prod.generator("x'")}, check=False
    )
    bad = cg.Cogroup(C, 6, phi=broken_phi)
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
    C = cg.trivial_coalgebra(cg.module(Q, [("x", 2)]))
    good = cg.Cogroup(C, 6)
    wrong_nu = cg.AlgebraMorphism(
        good.algebra, good.algebra, {"x": good.algebra.generator("x")}
    )
    bad = cg.Cogroup(C, 6, nu=wrong_nu)
    rep = both_levels(bad)
    assert not rep.ok
    assert all("inverse law" in v for v in rep.violations)


def test_fold_collapses_both_slots():
    A = polynomial_cogroup()
    fld = cg.fold(A)
    X = A.algebra.generator("X")
    assert fld(A.square_product.inclusions[0](X)) == X
    assert fld(A.square_product.inclusions[1](X)) == X
    assert fld(A.phi(X)) == X.scale(2)


def test_cogroup_morphism_scaling_passes():
    A = polynomial_cogroup()
    for c in (0, 1, -1, 2):
        f = cg.AlgebraMorphism(
            A.algebra, A.algebra, {"X": A.algebra.generator("X").scale(c)}
        )
        assert cg.is_cogroup_morphism(f, A, A)


def test_cogroup_morphism_square_fails():
    src = polynomial_cogroup(2, 8)
    tgt = cg.tensor_cogroup(cg.trivial_coalgebra(cg.module(Q, [("Y", 1)])), 8)
    Y = tgt.algebra.generator("Y")
    f = cg.AlgebraMorphism(src.algebra, tgt.algebra, {"X": Y * Y})
    assert not cg.is_cogroup_morphism(f, src, tgt)
    zero = cg.AlgebraMorphism(src.algebra, tgt.algebra, {"X": tgt.algebra.zero()})
    assert cg.is_cogroup_morphism(zero, src, tgt)


def test_cogroup_morphism_checks_the_algebras():
    A = polynomial_cogroup(2, 8)
    B = polynomial_cogroup(2, 6)
    f = cg.AlgebraMorphism(A.algebra, A.algebra, {"X": A.algebra.generator("X")})
    with pytest.raises(ValueError):
        cg.is_cogroup_morphism(f, A, B)


# A Delta that lost the outer term 1 (x) x, a map whose image leaves its
# degree, and an unchecked morphism whose image is not homogeneous: all
# break invariants that must hold under ``python -O``.
BROKEN_FIXTURES = """
import cogroups as cg
assert not __debug__
C = cg.trivial_coalgebra(cg.module(cg.RingSpec.rationals(), [("x", 2)]))
good = cg.Cogroup(C, 4)
prod = good.square_product.algebra
phi = cg.AlgebraMorphism(good.algebra, prod, {"x": prod.generator("x'")}, check=False)
bad = cg.Cogroup(C, 4, phi=phi)
try:
    bad.reduced_coproduct_word(("x",))
except ValueError as exc:
    print("delta:", exc)
alg = good.algebra
leak = cg.GradedMap(
    cg.CogroupSource(good), alg,
    {w: alg.element({w + ("x",): 1}) for w in alg.words_up_to(2) if w},
    check=False,
)
try:
    cg.is_antipode_surjective(good, leak)
except ValueError as exc:
    print("surjective:", exc)
B = cg.tensor_algebra(cg.module(cg.RingSpec.rationals(), [("y", 1)]), 4)
y = B.generator("y")
mixed = cg.AlgebraMorphism(B, B, {"y": y + y * y}, check=False)
print("unchecked:", mixed.word_image(("y", "y")))
"""


def test_invariant_errors_survive_python_O():
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src)
    run = subprocess.run(
        [sys.executable, "-O", "-c", BROKEN_FIXTURES],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == 0, run.stderr
    assert "delta: coproduct of x lost its outer terms" in run.stdout
    assert "surjective: image of x leaves degree 2" in run.stdout
    assert "unchecked: y^2 + 2*y^3 + y^4" in run.stdout
