"""Shared test instances and helpers.

The matrix spans the supported rings, 1-3 generators, degrees 1-5 and
annihilators {0, 2, 3, 4, 6}, with a documented expectation for graded
commutativity of the tensor algebra (equivalently, locality of the
module).  Builders cache constructed cogroups per (instance, truncation)
so the acceptance criteria can share the heavy work.
"""

from fractions import Fraction
from math import comb, gcd

from hypothesis import strategies as st

import cogroups as cg

Z = cg.RingSpec.integers()
Q = cg.RingSpec.rationals()
F2 = cg.RingSpec.prime_field(2)
F3 = cg.RingSpec.prime_field(3)
Z4 = cg.RingSpec.integers_mod(4)
Z6 = cg.RingSpec.integers_mod(6)
RINGS = (Z, Q, Z4, Z6, F2, F3)

# (key, ring, generators, expected graded commutativity)
MATRIX = [
    ("q-even2", Q, [("x", 2, 0)], True),
    ("q-even4", Q, [("X", 4, 0)], True),
    ("q-odd3", Q, [("x", 3, 0)], False),
    ("q-odd1", Q, [("x", 1, 0)], False),
    ("q-pair22", Q, [("x", 2, 0), ("y", 2, 0)], False),
    ("q-pair24", Q, [("x", 2, 0), ("y", 4, 0)], False),
    ("q-pair11", Q, [("x", 1, 0), ("y", 1, 0)], False),
    ("q-triple", Q, [("x", 2, 0), ("y", 3, 0), ("z", 5, 0)], False),
    ("f2-odd3", F2, [("x", 3, 0)], True),
    ("f2-odd1", F2, [("x", 1, 0)], True),
    ("f2-even2", F2, [("x", 2, 0)], True),
    ("f2-pair", F2, [("x", 2, 0), ("y", 3, 0)], False),
    ("f2-triple", F2, [("x", 1, 0), ("y", 2, 0), ("z", 3, 0)], False),
    ("f3-even2", F3, [("x", 2, 0)], True),
    ("f3-odd3", F3, [("x", 3, 0)], False),
    ("f3-pair", F3, [("x", 4, 0), ("y", 2, 0)], False),
    ("z-tor32", Z, [("x", 2, 3)], True),
    ("z-coprime", Z, [("x", 2, 3), ("y", 4, 4)], True),
    ("z-common3", Z, [("x", 2, 3), ("y", 4, 6)], False),
    ("z-tor43", Z, [("x", 3, 4)], False),
    ("z-tor23", Z, [("x", 3, 2)], True),
    ("z-free2", Z, [("x", 2, 0)], True),
    ("z-free3", Z, [("x", 3, 0)], False),
    ("z-free24", Z, [("x", 2, 0), ("y", 4, 0)], False),
    ("z-triple", Z, [("x", 2, 2), ("y", 3, 3), ("z", 4, 4)], False),
    ("z-tor25", Z, [("x", 5, 2)], True),
    ("z4-free3", Z4, [("x", 3, 0)], False),
    ("z4-free2", Z4, [("x", 2, 0)], True),
    ("z4-tor25", Z4, [("x", 5, 2)], True),
    ("z6-coprime", Z6, [("x", 2, 2), ("y", 4, 3)], True),
    ("z6-common3", Z6, [("x", 2, 3), ("y", 4, 3)], False),
    ("z6-free3", Z6, [("x", 3, 0)], False),
    ("z6-tor23", Z6, [("x", 3, 2)], True),
]

MATRIX_KEYS = [row[0] for row in MATRIX]

# two chain tables in the description language: deconcatenation over Z
# and a binomial table over Z/9
DECONC_Z = """\
ring Z
generator a degree 1
generator b degree 2
generator c degree 3
coproduct b = a * a
coproduct c = a * b + b * a
"""
BINOM_Z9 = """\
ring Zmod 9
generator a degree 1
generator b degree 2
generator c degree 3
coproduct b = 2 a * a
coproduct c = 3 a * b + 3 b * a
"""


def instance(key):
    for row in MATRIX:
        if row[0] == key:
            return row
    raise KeyError(key)


def make_module(key):
    _, ring, gens, _ = instance(key)
    return cg.module(ring, gens)


_cogroup_cache = {}


def make_cogroup(key, truncation=8) -> cg.Cogroup:
    cached = _cogroup_cache.get((key, truncation))
    if cached is None:
        cached = cg.tensor_cogroup(cg.trivial_coalgebra(make_module(key)), truncation)
        _cogroup_cache[(key, truncation)] = cached
    return cached


_chi_cache = {}


def make_antipode(key, truncation=8) -> cg.GradedMap:
    cached = _chi_cache.get((key, truncation))
    if cached is None:
        cached = cg.antipode(make_cogroup(key, truncation))
        _chi_cache[(key, truncation)] = cached
    return cached


def random_coefficient(rng, ring, source_ann, word_modulus):
    """A coefficient c with source_ann * c = 0 in Z/word_modulus."""
    if ring.kind == "Q":
        return Fraction(rng.randint(-6, 6), rng.choice((1, 2, 3)))
    if word_modulus == 0:
        return rng.randint(-6, 6) if source_ann == 0 else 0
    step = word_modulus // gcd(source_ann, word_modulus) if source_ann else 1
    return step * rng.randrange(word_modulus // step)


def random_graded_map(source, target, rng) -> cg.GradedMap:
    """A random degree-preserving unit-fixing map, annihilator-legal."""
    table = {}
    for d in range(1, source.truncation + 1):
        for key in source.basis(d):
            ann = source.annihilator(key)
            terms = {}
            for w in target.basis(d):
                c = random_coefficient(rng, target.ring, ann, target.word_modulus(w))
                if c:
                    terms[w] = c
            table[key] = target.element(terms)
    return cg.GradedMap(source, target, table)


def brute_force_graded_commutative(algebra, top_degree):
    """Oracle: check uv = (-1)^{|u||v|} vu over all positive word pairs."""
    amb = cg.TruncatedTensorAlgebra(algebra.module, top_degree)
    for du in range(1, top_degree):
        for dv in range(1, top_degree - du + 1):
            sign = -1 if (du * dv) % 2 else 1
            for u in amb.basis(du):
                eu = amb.element({u: 1})
                for v in amb.basis(dv):
                    ev = amb.element({v: 1})
                    if eu * ev != (ev * eu).scale(sign):
                        return False
    return True


def annihilators(ring):
    """Annihilators a generator may carry over ``ring``; 0 means none."""
    if ring.kind == "Z":
        return (0, 0, 2, 3, 4, 6)
    if ring.kind == "Zmod":
        n = ring.characteristic()
        return (0,) + tuple(a for a in range(2, n + 1) if n % a == 0)
    return (0,)


@st.composite
def coassociative_coalgebras(draw, max_generators=3):
    """(coalgebra, truncation): a direct sum of coassociative pieces.

    A piece is a chain x_1, ..., x_k with deg x_n = n * e and one of
    three tables, each scaled by s:

    - primitive: no table (and the only piece whose generators may carry
      an annihilator);
    - deconcatenation: x_n -> s * sum_{0<i<n} x_i (x) x_{n-i};
    - binomial: x_n -> s * sum_{0<i<n} C(n, i) x_i (x) x_{n-i}.
    """
    ring = draw(st.sampled_from(RINGS))
    anns = annihilators(ring)
    names = iter("abcdef")
    gens, table = [], {}
    for _ in range(draw(st.integers(1, 2))):
        room = max_generators - len(gens)
        if not room:
            break
        family = draw(st.sampled_from(("primitive", "deconcatenation", "binomial")))
        base = draw(st.integers(1, 2))
        scale = draw(st.sampled_from((1, -1, 2)))
        chain = [next(names) for _ in range(draw(st.integers(1, room)))]
        for n, name in enumerate(chain, 1):
            ann = draw(st.sampled_from(anns)) if family == "primitive" else 0
            gens.append((name, n * base, ann))
            if family != "primitive" and n > 1:
                table[name] = [
                    (scale * (comb(n, i) if family == "binomial" else 1),
                     chain[i - 1], chain[n - i - 1])
                    for i in range(1, n)
                ]
    C = cg.CoalgebraPresentation(cg.module(ring, gens), table)
    return C, draw(st.integers(3, 6))
