"""Graded module presentations and the locality predicate."""

import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import cogroups as cg
from cogroups import modules
from cogroup_oracle import disjoint_sum
from instances import F2, F3, MATRIX, Q, Z, Z4, Z6, make_module, module
from module_oracle import locality_by_factoring


def test_generator_validation():
    with pytest.raises(ValueError):
        cg.CyclicGenerator("x", 0)
    with pytest.raises(ValueError):
        cg.CyclicGenerator("x", 2, -1)
    with pytest.raises(ValueError):
        cg.CyclicGenerator("", 2)
    g = cg.CyclicGenerator("x", 3, 4)
    assert (g.name, g.degree, g.annihilator) == ("x", 3, 4)


def test_presentation_validation():
    with pytest.raises(ValueError):
        module(Z, [("x", 2), ("x", 3)])
    with pytest.raises(ValueError):
        module(Q, [("x", 2, 2)])
    with pytest.raises(ValueError):
        module(Z6, [("x", 2, 4)])
    module(Z6, [("x", 2, 3)])
    module(Z, [("x", 2, 5)])


def test_generators_and_presentations_are_frozen_values():
    g = cg.CyclicGenerator("x", 3, 4)
    same = cg.CyclicGenerator(name="x", degree=3, annihilator=4)
    assert g == same and hash(g) == hash(same) and len({g, same}) == 1
    assert g != cg.CyclicGenerator("x", 3) and g != ("x", 3, 4)
    assert g.__eq__(("x", 3, 4)) is NotImplemented
    assert repr(g) == "CyclicGenerator(name='x', degree=3, annihilator=4)"
    h = cg.CyclicGenerator("y", 2)
    m = cg.GradedModulePresentation(Z, [g, h])
    assert type(m.generators) is tuple and m.generators == (g, h)
    again = cg.GradedModulePresentation(ring=Z, generators=(g, h))
    assert m == again and hash(m) == hash(again) and len({m, again}) == 1
    assert m != cg.GradedModulePresentation(Z4, (g, h))
    assert m != cg.GradedModulePresentation(Z, (h, g)) and m != (Z, (g, h))
    assert repr(cg.GradedModulePresentation(Z, [h])) == (
        "GradedModulePresentation(ring=RingSpec(kind='Z', modulus=0), "
        "generators=(CyclicGenerator(name='y', degree=2, annihilator=0),))"
    )
    for obj, field in ((g, "degree"), (m, "generators")):
        with pytest.raises(AttributeError):
            setattr(obj, field, ())
        with pytest.raises(AttributeError):
            delattr(obj, field)
    assert g.degree == 3 and m.generators == (g, h)
    assert pickle.loads(pickle.dumps(m)) == m


def test_max_degree():
    m = module(Z, [("x", 2, 3), ("y", 5, 0)])
    assert m.max_degree() == 5
    assert module(Z, []).max_degree() == 0


def direct_sum(a, b):
    return disjoint_sum((a, b))[0]


def test_direct_sum_is_disjoint():
    a = module(Z, [("x", 2)])
    b = module(Z, [("x", 3), ("y", 4)])
    s = direct_sum(a, b)
    assert len(s.generators) == 3
    assert len(set(s.names())) == 3
    assert "y" in s.names()


def test_direct_sum_with_zero_keeps_names():
    zero = module(Z, [])
    a = module(Z, [("x", 2), ("y", 3)])
    assert direct_sum(zero, a).names() == ("x", "y")
    assert direct_sum(a, zero).names() == ("x", "y")


def test_locality_fixed_cases():
    assert cg.is_locally_at_most_singly_generated(module(Z, [("x", 3, 2)])).ok
    assert not cg.is_locally_at_most_singly_generated(module(Z, [("x", 3, 4)])).ok
    assert not cg.is_locally_at_most_singly_generated(module(Z, [("x", 3, 0)])).ok
    assert cg.is_locally_at_most_singly_generated(module(Z, [("x", 2, 0)])).ok
    two_free = module(Z, [("x", 2, 0), ("y", 4, 0)])
    res = cg.is_locally_at_most_singly_generated(two_free)
    assert not res.ok and "prime 2" in res.witness
    coprime = module(Z, [("x", 2, 3), ("y", 4, 5)])
    assert cg.is_locally_at_most_singly_generated(coprime).ok
    shared = module(Z, [("x", 2, 3), ("y", 4, 6)])
    res = cg.is_locally_at_most_singly_generated(shared)
    assert not res.ok and "prime 3" in res.witness


def test_locality_witness_names_the_least_prime_of_the_torsion():
    """A free letter meets the torsion at its least prime, 2, even when a
    torsion letter at a larger prime is declared first."""
    res = cg.is_locally_at_most_singly_generated(module(Z, [("x", 2, 0), ("z", 2, 3), ("y", 2, 2)]))
    assert not res.ok
    assert res.witness == "prime 2: generators x and y are both nonzero locally"


def test_locality_parity_exemption_is_z2_only():
    assert cg.is_locally_at_most_singly_generated(module(Z, [("x", 5, 2)])).ok
    assert not cg.is_locally_at_most_singly_generated(module(Z, [("x", 5, 6)])).ok
    assert cg.is_locally_at_most_singly_generated(module(Z4, [("x", 5, 2)])).ok
    assert not cg.is_locally_at_most_singly_generated(module(Z4, [("x", 5, 0)])).ok


# 0, 1, 2, 4, small primes and their products
Z_ANNIHILATORS = (0, 0, 1, 2, 4, 3, 5, 7, 6, 9, 10, 12, 15, 21, 30, 35, 60, 105, 210)


@st.composite
def locality_modules(draw):
    ring = draw(
        st.sampled_from((Z, Q, F2, F3))
        | st.sampled_from((4, 6, 8, 12, 30, 36, 60)).map(cg.RingSpec.integers_mod)
    )
    if ring.is_field():
        anns = (0,)
    elif ring.kind == "Zmod":
        n = ring.characteristic()
        anns = (0,) + tuple(d for d in range(1, n + 1) if n % d == 0)
    else:
        anns = Z_ANNIHILATORS
    count = draw(st.integers(0, 5))
    return module(
        ring,
        [(f"g{i}", draw(st.integers(1, 4)), draw(st.sampled_from(anns))) for i in range(count)],
    )


@settings(max_examples=400, deadline=None)
@given(locality_modules())
def test_locality_by_gcds_matches_locality_by_factoring(mod):
    got = cg.is_locally_at_most_singly_generated(mod)
    want = locality_by_factoring(mod)
    assert (got.ok, got.witness) == (want.ok, want.witness)


def test_locality_of_a_large_prime_annihilator_needs_no_factoring():
    """A module that passes is decided by gcds alone, so a 31-digit prime
    annihilator is no obstacle: trial division would try about 5 x 10^14
    divisors."""
    spec = "ring Z\ngenerator x degree 2 ann 1000000000000000000000000000057\n"
    src = str(Path(__file__).resolve().parent.parent / "src")
    run = subprocess.run(
        [sys.executable, "-m", "cogroups.cli", "classify", "-", "--max-degree", "4"],
        input=spec, env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, timeout=10,
    )
    assert (run.returncode, run.stderr) == (0, "")
    assert run.stdout.splitlines()[4:] == [
        "nu-eq-chi: true",
        "chi-is-morphism: true",
        "graded-commutative: true",
        "locally-at-most-singly-generated: true",
        "free-cyclic-admissible: n/a",
        "consistent: true",
        "exit-code: 0",
    ]


# the three failing shapes around the 31-digit prime N = 10^30 + 57
LARGE_PRIME_FAILURES = {
    "ring Z\ngenerator x degree 2\ngenerator y degree 2 ann 1000000000000000000000000000057\n":
        "primes of 1000000000000000000000000000057: generators x and y are both nonzero locally",
    "ring Z\ngenerator x degree 1 ann 1000000000000000000000000000057\n":
        "generator x has odd degree 1 and local quotients other than Z/2 at the primes of "
        "1000000000000000000000000000057",
    "ring Z\ngenerator x degree 2 ann 1000000000000000000000000000057\n"
    "generator y degree 2 ann 1000000000000000000000000000057\n":
        "primes of 1000000000000000000000000000057: generators x and y are both nonzero locally",
}


def test_locality_fails_on_a_large_prime_annihilator_within_a_second():
    """Trial division stops at its bound, so each failing module with a
    31-digit prime annihilator answers at once, its witness naming the
    gcd; run in a child process so that a hang fails the test, not the
    suite."""
    script = (
        "import json, sys, time\n"
        "from cogroups import is_locally_at_most_singly_generated\n"
        "from cogroups.dsl import parse_spec\n"
        "for text in json.load(sys.stdin):\n"
        "    module = parse_spec(text).module\n"
        "    start = time.perf_counter()\n"
        "    result = is_locally_at_most_singly_generated(module)\n"
        "    print(json.dumps([result.ok, result.witness, time.perf_counter() - start]))\n"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    run = subprocess.run(
        [sys.executable, "-c", script], input=json.dumps(list(LARGE_PRIME_FAILURES)),
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=10,
    )
    assert (run.returncode, run.stderr) == (0, "")
    answers = [json.loads(line) for line in run.stdout.splitlines()]
    assert [(ok, witness) for ok, witness, _ in answers] == [
        (False, witness) for witness in LARGE_PRIME_FAILURES.values()]
    assert all(seconds < 1 for _, _, seconds in answers), answers


def test_least_prime_divisor_stops_at_its_bound():
    bound = modules.TRIAL_DIVISION_BOUND
    p, q = 100_003, 100_019  # the first two primes above the bound
    assert modules._least_prime_divisor([p * q, 15]) == 3
    assert modules._least_prime_divisor([p * q]) is None
    assert modules._least_prime_divisor([q, p]) == p  # both below the bound squared: prime
    assert modules._least_prime_divisor([q, p * q]) is None  # p * q may hide a factor below q
    assert bound < p


def test_locality_over_fields():
    assert cg.is_locally_at_most_singly_generated(module(Q, [("x", 4)])).ok
    assert not cg.is_locally_at_most_singly_generated(module(Q, [("x", 3)])).ok
    assert cg.is_locally_at_most_singly_generated(module(F2, [("x", 3)])).ok
    assert not cg.is_locally_at_most_singly_generated(module(F3, [("x", 3)])).ok
    two = module(F2, [("x", 1), ("y", 2)])
    assert not cg.is_locally_at_most_singly_generated(two).ok
    assert cg.is_locally_at_most_singly_generated(module(Q, [])).ok


def test_locality_witness_names_real_generators():
    m = module(Z6, [("a", 2, 3), ("b", 4, 3)])
    res = cg.is_locally_at_most_singly_generated(m)
    assert not res.ok
    assert "a" in res.witness and "b" in res.witness


def test_matrix_expectations_match_locality():
    for key, ring, gens, expected in MATRIX:
        res = cg.is_locally_at_most_singly_generated(make_module(key))
        assert res.ok == expected, key
        if not res.ok:
            assert res.witness


def test_admissible_free_cyclic():
    assert cg.is_admissible_free_cyclic(module(Q, []))
    assert cg.is_admissible_free_cyclic(module(Q, [("x", 4)]))
    assert not cg.is_admissible_free_cyclic(module(Q, [("x", 3)]))
    assert cg.is_admissible_free_cyclic(module(F2, [("x", 3)]))
    assert not cg.is_admissible_free_cyclic(module(F3, [("x", 3)]))
    assert not cg.is_admissible_free_cyclic(module(Q, [("x", 2), ("y", 2)]))
    with pytest.raises(ValueError):
        cg.is_admissible_free_cyclic(module(Z, [("x", 2)]))


def test_admissible_agrees_with_locality_over_fields():
    for ring in (Q, F2, F3):
        for gens in ([], [("x", 1)], [("x", 2)], [("x", 3)], [("x", 2), ("y", 4)]):
            m = module(ring, gens)
            assert cg.is_admissible_free_cyclic(m) == (
                cg.is_locally_at_most_singly_generated(m).ok
            )
