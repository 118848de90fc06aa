"""Graded module presentations and the locality predicate."""

import pickle

import pytest

import cogroups as cg
from cogroup_oracle import disjoint_sum
from instances import F2, F3, MATRIX, Q, Z, Z4, Z6, make_module, module


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


def test_effective_annihilator_falls_back_to_characteristic():
    m = module(Z6, [("x", 2, 0), ("y", 2, 3)])
    assert m.effective_annihilator("x") == 6
    assert m.effective_annihilator("y") == 3
    free = module(Z, [("x", 2, 0)])
    assert free.effective_annihilator("x") == 0


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


def test_locality_parity_exemption_is_z2_only():
    assert cg.is_locally_at_most_singly_generated(module(Z, [("x", 5, 2)])).ok
    assert not cg.is_locally_at_most_singly_generated(module(Z, [("x", 5, 6)])).ok
    assert cg.is_locally_at_most_singly_generated(module(Z4, [("x", 5, 2)])).ok
    assert not cg.is_locally_at_most_singly_generated(module(Z4, [("x", 5, 0)])).ok


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
