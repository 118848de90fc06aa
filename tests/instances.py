"""Shared test instances and helpers.

The matrix spans the supported rings, 1-3 generators, degrees 1-5 and
annihilators {0, 2, 3, 4, 6}, with a documented expectation for graded
commutativity of the tensor algebra (equivalently, locality of the
module).  Builders cache constructed cogroups per (instance, truncation)
so the acceptance criteria can share the heavy work.  ``module`` builds a
presentation from plain tuples, ``classify_module`` classifies a module
with its closed-form check, ``render_spec`` prints a parsed spec
back as input text, and ``graded_map`` validates a table before it
wraps it in a ``TableMap``, which takes its table as given.
"""

from fractions import Fraction
from math import comb, gcd

from hypothesis import strategies as st

import cogroups as cg
from cogroups.dsl import parse_spec
from convolution_oracle import TableMap

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

# tables in the description language: deconcatenation over Z and a
# binomial table over Z/9
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
# the binomial table over F_7, coprime torsion letters over Z whose mixed
# words have modulus 1, and a deconcatenation table of scale 2 over Q
BINOM_F7 = """\
ring Fp 7
generator a degree 1
generator b degree 2
generator c degree 3
coproduct b = 2 a * a
coproduct c = 3 a * b + 3 b * a
"""
TORSION_Z = """\
ring Z
generator x degree 1 ann 2
generator y degree 1 ann 3
generator z degree 2
coproduct z = x * x + y * y
"""
DECONC_Q2 = """\
ring Q
generator a degree 1
generator b degree 2
generator c degree 3
coproduct b = 2 a * a
coproduct c = 2 a * b + 2 b * a
"""
# two graded-commutative rows of the ROADMAP's baseline: primitive letters
# with coprime annihilators, so every word that mixes two letters is zero
Z6_PAIR = """\
ring Zmod 6
generator x degree 2 ann 2
generator y degree 2 ann 3
"""
Z_THREE_PRIMES = """\
ring Z
generator x degree 2 ann 2
generator y degree 2 ann 3
generator z degree 2 ann 5
"""
# one letter with a prime in its name, whose words are long runs; and the
# ROADMAP's "Z/4 chain", where a product of residues vanishes: nu(b^2)
# drops 4*a^4
Q_PRIME = """\
ring Q
generator x' degree 1
"""
Z4_CHAIN = """\
ring Zmod 4
generator a degree 1
generator b degree 2
generator c degree 3
coproduct b = 2 a * a
coproduct c = a * b + b * a
"""


def instance(key):
    for row in MATRIX:
        if row[0] == key:
            return row
    raise KeyError(key)


def module(ring, gens) -> cg.GradedModulePresentation:
    """A presentation from (name, degree) or (name, degree, ann) tuples."""
    return cg.GradedModulePresentation(ring, tuple(cg.CyclicGenerator(*g) for g in gens))


def make_module(key):
    _, ring, gens, _ = instance(key)
    return module(ring, gens)


_cogroup_cache = {}


def make_cogroup(key, truncation=8) -> cg.Cogroup:
    cached = _cogroup_cache.get((key, truncation))
    if cached is None:
        cached = cg.tensor_cogroup(cg.trivial_coalgebra(make_module(key)), truncation)
        _cogroup_cache[(key, truncation)] = cached
    return cached


_chi_cache = {}


def make_antipode(key, truncation=8) -> cg.AntiMorphism:
    cached = _chi_cache.get((key, truncation))
    if cached is None:
        cached = cg.antipode(make_cogroup(key, truncation))
        _chi_cache[(key, truncation)] = cached
    return cached


def classify_module(N, truncation=None) -> cg.ClassificationReport:
    """Classify the cogroup on T(N) with every generator primitive.

    The truncation defaults to 2 * (max generator degree) + 2, enough to
    watch the inverse and the antipode part ways on generator squares.
    For a single cyclic summand the commutativity verdict is also checked
    against the closed form: degree even, or cyclic quotient of
    characteristic 2.
    """
    if truncation is None:
        truncation = 2 * N.max_degree() + 2
    A = cg.tensor_cogroup(cg.trivial_coalgebra(N), truncation)
    report = cg.classify_cogroup(A)
    if len(N.generators) == 1:
        g = N.generators[0]
        eff = g.annihilator or N.ring.characteristic()
        if eff != 1:
            closed_form = g.degree % 2 == 0 or eff == 2
            if closed_form != report.graded_commutative:
                report.consistent = False
                report.witness = (
                    f"closed form predicts graded commutative = {closed_form}"
                )
    return report


def render_spec(spec) -> str:
    """Canonical text for a ProblemSpec; parses back to an equal spec."""
    lines = [f"ring {spec.ring}"]
    for g in spec.module.generators:
        line = f"generator {g.name} degree {g.degree}"
        if g.annihilator:
            line += f" ann {g.annihilator}"
        lines.append(line)
    coalg = spec.coalgebra()
    for g in spec.module.generators:
        entries = coalg.reduced_coproduct(g.name)
        if not entries:
            continue
        parts = []
        for c, y, z in entries:
            head = f"{y} * {z}" if c == 1 else f"{c} {y} * {z}"
            parts.append(head)
        lines.append(f"coproduct {g.name} = " + " + ".join(parts))
    return "\n".join(lines) + "\n"


def random_coefficient(rng, ring, source_ann, word_modulus):
    """A coefficient c with source_ann * c = 0 in Z/word_modulus."""
    if ring.kind == "Q":
        return Fraction(rng.randint(-6, 6), rng.choice((1, 2, 3)))
    if word_modulus == 0:
        return rng.randint(-6, 6) if source_ann == 0 else 0
    step = word_modulus // gcd(source_ann, word_modulus) if source_ann else 1
    return step * rng.randrange(word_modulus // step)


def graded_map(source, target, table: dict) -> TableMap:
    """A ``TableMap`` whose table is validated first: each key has degree
    1..D and goes to a homogeneous image of its degree that the key's
    annihilator kills.  The library takes its tables as given."""
    for key, img in table.items():
        d = source.degree(key)
        if d < 1 or d > source.truncation:
            raise ValueError(f"key {key!r} has degree {d} outside 1..{source.truncation}")
        if img and not img.is_homogeneous(d):
            raise ValueError(f"image of {key!r} is not homogeneous of degree {d}")
        a = source.annihilator(key)
        if a and img.scale(a):
            raise ValueError(f"image of {key!r} is not killed by {a}")
    return TableMap(source, target, table)


def random_graded_map(source, target, rng) -> TableMap:
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
    return graded_map(source, target, table)


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
    C = cg.CoalgebraPresentation(module(ring, gens), table)
    return C, draw(st.integers(3, 6))


@st.composite
def coprime_torsion_coalgebras(draw):
    """(coalgebra, truncation) over Z or Z/6 with a 2-torsion and a
    3-torsion primitive generator, so that every word holding both has
    modulus 1, next to a free pair c, d with Dbar(d) = s c (x) c."""
    ring = draw(st.sampled_from((Z, Z6)))
    a, b = (draw(st.integers(1, 2)) for _ in "ab")
    gens = [("a", a, 2), ("b", b, 3), ("c", 1, 0), ("d", 2, 0)]
    draw(st.randoms()).shuffle(gens)
    table = {"d": [(draw(st.sampled_from((1, -1, 2))), "c", "c")]}
    return cg.CoalgebraPresentation(module(ring, gens), table), draw(st.integers(3, 6))


@st.composite
def zero_divisor_coalgebras(draw):
    """(coalgebra, truncation) over Z/n, n composite, with no torsion
    letter: a deconcatenation or binomial chain whose table coefficients
    are zero divisors of n (scaled by a factor of n, or binomial), so
    that products of residues in nu's and chi's fills vanish."""
    n = draw(st.sampled_from((4, 8, 9, 12)))
    scale = draw(st.sampled_from([1] + [k for k in range(2, n) if n % k == 0]))
    binomial = draw(st.booleans())
    chain = "abc"[: draw(st.integers(2, 3))]
    table = {
        name: [(scale * (comb(k, i) if binomial else 1), chain[i - 1], chain[k - i - 1]) for i in range(1, k)]
        for k, name in enumerate(chain, 1)
        if k > 1
    }
    gens = [(name, k) for k, name in enumerate(chain, 1)]
    C = cg.CoalgebraPresentation(module(cg.RingSpec.integers_mod(n), gens), table)
    return C, draw(st.integers(3, 7))


# Table terms y (x) z bring letters that w does not hold, so a term of
# D(w) reduces modulo the modulus of its own pair, which w's modulus
# need not divide: on these tables a reduction by w's modulus keeps
# terms that vanish.
PAIR_MODULUS_TABLES = {
    "torsion-z": parse_spec(TORSION_Z).coalgebra(),
    "free-x-over-y-ann-2": cg.CoalgebraPresentation(
        module(Z, [("x", 2), ("y", 1, 2)]), {"x": [(1, "y", "y")]}
    ),
}


@st.composite
def raw_presentations(draw):
    """(module, raw table): random tables, a few of them refused.

    Half are coassociative tables from ``coassociative_coalgebras`` with
    one coefficient changed.  The others draw every term over 1-4
    generators with annihilators; one table in ten may hold terms of the
    wrong degree.  Coefficients are integers, some as integral Fractions.
    """
    coefficients = st.integers(-4, 6) | st.integers(-4, 6).map(lambda c: Fraction(2 * c, 2))
    if draw(st.booleans()):
        C, _ = draw(coassociative_coalgebras(max_generators=4))
        table = {x: list(terms) for x, terms in C.table.items()}
        if table:
            terms = table[draw(st.sampled_from(sorted(table)))]
            i = draw(st.integers(0, len(terms) - 1))
            c, y, z = terms[i]
            terms[i] = (c + draw(st.sampled_from((1, -1, 2, 3))), y, z)
        return C.module, table
    ring = draw(st.sampled_from(RINGS))
    names = "abcd"[: draw(st.integers(1, 4))]
    degree = {n: draw(st.integers(1, 4)) for n in names}
    M = module(ring, [(n, degree[n], draw(st.sampled_from(annihilators(ring)))) for n in names])
    sloppy = draw(st.integers(0, 9)) == 0
    table = {}
    for x in names:
        pairs = [
            (y, z) for y in names for z in names
            if sloppy or degree[y] + degree[z] == degree[x]
        ]
        if pairs and draw(st.booleans()):
            table[x] = [
                (draw(coefficients), y, z)
                for y, z in draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=4))
            ]
    return M, table
