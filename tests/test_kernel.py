"""Differential test of the sparse-element kernel.

The oracle below is a plain-dict, term-by-term implementation: it adds
one product term at a time and reduces the running coefficient modulo
its key's modulus after every addition, with the modulus recomputed from
the module's generators.  The kernel accumulates and reduces once; the
two must agree on products in A, on products in A (x) A with the Koszul
sign, and on morphism application, over all four ring kinds.  A (x) A is
met twice: as the tests' ``TensorSquare``, an element parent over the
same kernel, and as the pair dicts that the coalgebra layer multiplies
in ``cogroup._Pairs`` and reduces with ``_reduce_terms``, as it reduces
words.  ``_reduce_tensors``, the coalgebra layer's own reduction of pair
and triple dicts before ``_reduce_terms`` took them, is kept below as
its oracle there.
"""

import re
from fractions import Fraction
from functools import reduce
from math import gcd
from operator import mul

import pytest
from hypothesis import given, settings, strategies as st

import cogroups as cg
from cogroups.algebra import _reduce_terms
from cogroups.coalgebra import coproduct_pairs
from cogroups.cogroup import _Pairs
from cogroup_oracle import TensorSquare
from convolution_oracle import WordAntiMorphism, WordMorphism, as_words, morphism_fill_by_words, rows
from instances import PAIR_MODULUS_TABLES, RINGS, annihilators, coprime_torsion_coalgebras, module


class Oracle:
    def __init__(self, module, truncation):
        self.ring = module.ring
        self.D = truncation
        self.deg = {g.name: g.degree for g in module.generators}
        self.ann = {g.name: g.annihilator for g in module.generators}

    def degree(self, word):
        return sum(self.deg[l] for l in word)

    def modulus(self, word):
        m = self.ring.characteristic()
        for l in word:
            m = gcd(m, self.ann[l])
        return m

    def add(self, acc, word, key, c):
        """acc[key] += c, reduced modulo the modulus of ``word``."""
        c = acc.get(key, 0) + c
        m = self.modulus(word)
        acc[key] = Fraction(c) if self.ring.kind == "Q" else (c % m if m else c)

    def reduce(self, terms):
        acc = {}
        for w, c in terms.items():
            self.add(acc, w, w, c)
        return {w: c for w, c in acc.items() if c}

    def mul(self, left, right):
        acc = {}
        for w1, c1 in left.items():
            for w2, c2 in right.items():
                if self.degree(w1) + self.degree(w2) <= self.D:
                    self.add(acc, w1 + w2, w1 + w2, c1 * c2)
        return {w: c for w, c in acc.items() if c}

    def mul_pairs(self, left, right):
        acc = {}
        for (a, b), c1 in left.items():
            for (c, d), c2 in right.items():
                if sum(map(self.degree, (a, b, c, d))) <= self.D:
                    sign = -1 if self.degree(b) * self.degree(c) % 2 else 1
                    self.add(acc, a + b + c + d, (a + c, b + d), sign * c1 * c2)
        return {p: c for p, c in acc.items() if c}

    def apply(self, images, terms):
        acc = {}
        for w, c in terms.items():
            img = {(): 1}
            for l in w:
                img = self.mul(img, images[l])
            for v, cv in img.items():
                self.add(acc, v, v, c * cv)
        return {v: c for v, c in acc.items() if c}


@st.composite
def algebras(draw, rings=RINGS):
    ring = draw(st.sampled_from(rings))
    anns = annihilators(ring)
    gens = [
        (name, draw(st.integers(1, 3)), draw(st.sampled_from(anns)))
        for name in "xyz"[: draw(st.integers(1, 3))]
    ]
    return cg.TruncatedTensorAlgebra(module(ring, gens), draw(st.integers(2, 6)))


def coefficients(ring, fractions=True):
    ints = st.integers(-9, 9)
    if ring.kind != "Q" or not fractions:
        return ints
    return st.one_of(ints, st.fractions(-9, 9, max_denominator=4))


def terms_of(data, keys, ring, fractions=True):
    return data.draw(
        st.dictionaries(st.sampled_from(keys), coefficients(ring, fractions), max_size=6)
    )


def words(A):
    return list(A.words_up_to(A.truncation))


def pairs(A):
    return [
        (u, v)
        for u in A.words_up_to(A.truncation)
        for v in A.words_up_to(A.truncation - A.word_degree(u))
    ]


def legal_image(data, A, oracle, gen):
    """An image for ``gen`` of its degree, killed by its annihilator."""
    out = {}
    for w in A.basis(gen.degree):
        c = data.draw(st.integers(-5, 5))
        m, a = oracle.modulus(w), gen.annihilator
        if a and not m:
            c = 0
        elif a:
            c *= m // gcd(a, m)
        out[w] = c
    return out


@settings(max_examples=60, deadline=None)
@given(algebras(), st.data())
def test_products_in_the_algebra(A, data):
    oracle = Oracle(A.module, A.truncation)
    left = terms_of(data, words(A), A.ring)
    right = terms_of(data, words(A), A.ring)
    a, b = A.element(left), A.element(right)
    assert a.terms == oracle.reduce(left)
    assert (a * b).terms == oracle.mul(oracle.reduce(left), oracle.reduce(right))
    assert (a + b).terms == oracle.reduce(
        {w: left.get(w, 0) + right.get(w, 0) for w in left.keys() | right.keys()}
    )


def reduced_pairs(oracle, terms):
    acc = {}
    for (u, v), c in terms.items():
        oracle.add(acc, u + v, (u, v), c)
    return {p: c for p, c in acc.items() if c}


@settings(max_examples=60, deadline=None)
@given(algebras(), st.data())
def test_products_in_the_tensor_square(A, data):
    oracle = Oracle(A.module, A.truncation)
    sq = TensorSquare(A)
    left = terms_of(data, pairs(A), A.ring)
    right = terms_of(data, pairs(A), A.ring)
    a, b = sq.element(left), sq.element(right)
    assert a.terms == reduced_pairs(oracle, left)
    assert (a * b).terms == oracle.mul_pairs(reduced_pairs(oracle, left), reduced_pairs(oracle, right))


@settings(max_examples=60, deadline=None)
@given(algebras(), st.data())
def test_products_of_pair_dicts(A, data):
    """The pair-dict product does not truncate, so the oracle is given room
    for every product of two pairs of A."""
    oracle = Oracle(A.module, 2 * A.truncation)
    left = reduced_pairs(oracle, terms_of(data, pairs(A), A.ring))
    right = reduced_pairs(oracle, terms_of(data, pairs(A), A.ring))
    product: dict = {}
    _Pairs(A).mul_into(product, left, right)
    assert _reduce_terms(A, product) == oracle.mul_pairs(left, right)


def _reduce_tensors(algebra, terms: dict) -> dict:
    """Each coefficient at a tuple of words, such as (u, v) or (u, v, w),
    reduced modulo the gcd of its words' moduli; zeros dropped."""
    fixed, modulus = algebra.fixed_modulus, algebra.word_modulus
    out = {}
    for key, c in terms.items():
        m = fixed if fixed is not None else reduce(gcd, map(modulus, key))
        if m:
            c %= m
        if c:
            out[key] = c
    return out


def torsion_tables():
    """(coalgebra, truncation): coprime torsion letters, or a pair-modulus table."""
    tables = st.tuples(st.sampled_from(list(PAIR_MODULUS_TABLES.values())), st.integers(2, 6))
    return st.one_of(coprime_torsion_coalgebras(), tables)


@settings(max_examples=100, deadline=None)
@given(torsion_tables(), st.data())
def test_reduce_terms_reduces_pair_and_triple_dicts_as_the_oracle(case, data):
    """Products of D's generator pair dicts, scaled, and triples made from
    two of them, reduced by ``_reduce_terms`` on a fresh algebra, whose
    memo meets the tuple keys before their words, and by the oracle on
    another."""
    C, D = case
    A, B = (cg.TruncatedTensorAlgebra(C.module, D) for _ in "AB")
    delta = coproduct_pairs(C, B)
    names = st.lists(st.sampled_from(sorted(delta)), min_size=1, max_size=3)
    products = []
    for _ in range(2):
        product = {((), ()): 1}
        for n in data.draw(names):
            product, acc = {}, product
            _Pairs(B).mul_into(product, acc, delta[n])
        products.append(product)
    scale = data.draw(st.integers(-9, 9))
    pairs = {key: scale * c for key, c in products[0].items()}
    triples: dict = {}
    for (w1, w2), c in products[0].items():
        for (u, v), c2 in products[1].items():
            for key in ((u, v, w2), (w1, u, v)):
                triples[key] = triples.get(key, 0) + scale * c * c2
    for terms in (pairs, triples):
        assert _reduce_terms(A, terms) == _reduce_tensors(B, terms)


@settings(max_examples=40, deadline=None)
@given(algebras(), st.data())
def test_morphism_application(A, data):
    oracle = Oracle(A.module, A.truncation)
    images = {
        g.name: legal_image(data, A, oracle, g)
        for g in A.module.generators
        if g.degree <= A.truncation
    }
    f = cg.AlgebraMorphism(A, A, {n: A.element(t) for n, t in images.items()})
    terms = terms_of(data, words(A), A.ring)
    assert f(A.element(terms)).terms == oracle.apply(images, oracle.reduce(terms))


@settings(max_examples=30, deadline=None)
@given(algebras(rings=(cg.RingSpec.rationals(),)), st.data())
def test_rational_coefficients_from_ints_stay_int(A, data):
    sq = TensorSquare(A)
    a = A.element(terms_of(data, words(A), A.ring, fractions=False))
    b = A.element(terms_of(data, words(A), A.ring, fractions=False))
    p = sq.element(terms_of(data, pairs(A), A.ring, fractions=False))
    f = cg.AlgebraMorphism(A, A, {n: A.generator(n).scale(-2) for n in A.module.names()})
    for elem in (a, a * b, a - b, -a, f(a), p * p, A.scalar(Fraction(6, 3))):
        assert all(type(c) is int for c in elem.terms.values()), elem


def fill_image(data, T, oracle, gen):
    """A legal image of ``gen`` in T, over Q scaled by a fraction."""
    terms = legal_image(data, T, oracle, gen)
    if T.ring.kind == "Q":
        c = data.draw(st.fractions(-3, 3, max_denominator=4))
        terms = {w: c * v for w, v in terms.items()}
    return T.element(terms)


def letter_products(f, word):
    """f(a1)...f(aL) for an algebra morphism, (-1)^s f(aL)...f(a1) with
    s = sum over i < j of |ai||aj| for an anti-morphism, multiplied with ``*``."""
    deg = f.source.word_degree
    factors = [f.images[l] for l in word]
    sign = 1
    if isinstance(f, cg.AntiMorphism):
        factors.reverse()
        sign = (-1) ** sum(deg(word[i:i + 1]) * deg(word[i + 1:]) for i in range(len(word)))
    return reduce(mul, factors, f.target.one()).scale(sign)


@settings(max_examples=150, deadline=None)
@given(algebras(), st.data())
def test_degree_fill_matches_letter_by_letter_products(A, data):
    """The fill of each degree, for nu and for chi, against the products
    of ``*`` on every basis word: over Z with torsion letters, Q with
    fractions, Z/4 and Z/6 with zero divisors, F_2 and F_3, into a target
    truncated at or below the source.  Terms are stored in basis order."""
    T = cg.TruncatedTensorAlgebra(A.module, data.draw(st.integers(1, A.truncation)))
    oracle = Oracle(T.module, T.truncation)
    images = {
        g.name: fill_image(data, T, oracle, g)
        for g in A.module.generators
        if g.degree <= A.truncation
    }
    for cls in (cg.AlgebraMorphism, cg.AntiMorphism):
        f = cls(A, T, images)
        by_words = morphism_fill_by_words(f)
        for d in range(A.truncation + 1):
            filled = as_words(T, d, f.degree_images(d))
            assert len(filled) == len(A.basis(d))
            for w, terms, old in zip(A.basis(d), filled, by_words[d]):
                assert list(terms.items()) == list(old.items()), (cls, w)
                want = letter_products(f, w).terms
                assert terms == want, (cls, w)
                assert {v: type(c) for v, c in terms.items()} == {v: type(c) for v, c in want.items()}
                assert list(terms) == sorted(terms, key=T.sort_key), (cls, w)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from((4, 6, 8, 9, 12)), st.data())
def test_fixed_modulus_fill_matches_the_general_fill_over_zmod(n, data):
    """Over Z/n with no torsion letter a validated map reduces each product
    mod n in one comprehension, dropping those that vanish; a word-keyed
    map multiplies with ``mul_into`` and reduces with ``_reduce_terms``.
    The two agree word by word, terms in the same order.  Coefficients are
    often zero divisors of n, so products vanish.  An image for a name
    outside the module, which the fill never reads, keeps the fast path."""
    gens = [(name, data.draw(st.integers(1, 3))) for name in "xyz"[: data.draw(st.integers(1, 3))]]
    A = cg.TruncatedTensorAlgebra(module(cg.RingSpec.integers_mod(n), gens), data.draw(st.integers(2, 7)))
    coeff = st.sampled_from([c for c in range(n) if gcd(c, n) > 1]) | st.integers(-n, n)
    images = {g.name: A.element({w: data.draw(coeff) for w in A.basis(g.degree)}) for g in A.generators}
    for cls, by_words in ((cg.AlgebraMorphism, WordMorphism), (cg.AntiMorphism, WordAntiMorphism)):
        fixed, general = cls(A, A, {**images, "u": A.one()}), by_words(A, A, images)
        assert (fixed._top, fixed._mod) == (A.truncation, n)
        for d in range(A.truncation + 1):
            got = as_words(A, d, fixed.degree_images(d))
            want = [dict(row) for row in rows(general.degree_images(d))]
            assert [list(t.items()) for t in got] == [list(t.items()) for t in want], (cls, d)


def test_degree_fill_reduces_each_product():
    Q, Z4 = cg.RingSpec.rationals(), cg.RingSpec.integers_mod(4)
    F5, Z = cg.RingSpec.prime_field(5), cg.RingSpec.integers()
    xx, xy = ("x", "x"), ("x", "y")
    # (ring, generators, images as terms, word, its image under nu and under chi)
    cases = [
        (Q, [("x", 1), ("y", 1)], {"x": {("x",): Fraction(1, 2)}, "y": {("y",): 2}},
         xy, {xy: 1}, {("y", "x"): -1}),
        (Q, [("x", 1)], {"x": {("x",): Fraction(1, 2)}}, xx,
         {xx: Fraction(1, 4)}, {xx: Fraction(-1, 4)}),
        (F5, [("x", 1)], {"x": {("x",): 2}}, xx, {xx: 4}, {xx: 1}),
        (Z4, [("x", 1)], {"x": {("x",): 2}}, xx, {}, {}),
        (Z, [("x", 1, 2), ("y", 1, 3)], {"x": {("x",): 1}, "y": {("y",): 1}}, xy, {}, {}),
        (Z, [("x", 1, 2), ("y", 1, 3)], {"x": {("x",): 1}, "y": {("y",): 1}}, xx, {xx: 1}, {xx: 1}),
    ]
    for ring, gens, terms, word, nu_want, chi_want in cases:
        A = cg.TruncatedTensorAlgebra(module(ring, gens), 3)
        images = {n: A.element(t) for n, t in terms.items()}
        for cls, want in ((cg.AlgebraMorphism, nu_want), (cg.AntiMorphism, chi_want)):
            got = cls(A, A, images).image(word).terms
            assert got == want and all(type(c) is type(want[w]) for w, c in got.items())


def test_word_images_multiply_in_general_unless_validated():
    """Generator images that need not be homogeneous go unvalidated, to a
    word-keyed map; it, and a validated map into a target truncated below
    the source, get exactly the products of ``*`` on every basis word."""
    Q = cg.RingSpec.rationals()
    A = cg.TruncatedTensorAlgebra(module(Q, [("x", 1), ("z", 3)]), 6)
    B = cg.TruncatedTensorAlgebra(A.module, 2)
    x, z, bx = A.generator("x"), A.generator("z"), B.generator("x")
    # (x + x^2)^2 has two term pairs on x^3
    f = WordMorphism(A, A, {"x": x + x * x, "z": z})
    assert f.image(("x", "x")) == x * x + (x * x * x).scale(2) + x * x * x * x
    for g in (
        f,
        WordAntiMorphism(A, A, {"x": x + x * x, "z": z - x * x * x}),
        cg.AlgebraMorphism(A, B, {"x": bx, "z": B.zero()}),
        WordMorphism(A, B, {"x": bx + bx * bx, "z": B.zero()}),
    ):
        for w in A.words_up_to():
            assert g.image(w) == letter_products(g, w), w


def test_only_basis_words_have_images():
    Q = cg.RingSpec.rationals()
    A = cg.TruncatedTensorAlgebra(module(Q, [("x", 1), ("z", 3)]), 6)
    B = cg.TruncatedTensorAlgebra(A.module, 2)
    x = A.generator("x")
    # z lies above B's truncation and "w" is no generator
    f = cg.AlgebraMorphism(B, A, {"x": x, "z": x + x * x, "w": x})
    for word, name in ((("z",), "z"), (("z", "z"), "z^2"), (("x", "w", "w"), "x*w^2")):
        with pytest.raises(ValueError, match=re.escape(f"{name} is not a basis word")):
            f.image(word)
    assert f.image(("x", "x")) == x * x
