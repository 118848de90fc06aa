"""Differential test of the sparse-element kernel.

The oracle below is a plain-dict, term-by-term implementation: it adds
one product term at a time and reduces the running coefficient modulo
its key's modulus after every addition, with the modulus recomputed from
the module's generators.  The kernel accumulates and reduces once; the
two must agree on products in A, on products in A (x) A with the Koszul
sign, and on morphism application, over all four ring kinds.
"""

from fractions import Fraction
from math import gcd

from hypothesis import given, settings, strategies as st

import cogroups as cg
from instances import RINGS, annihilators


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
    return cg.tensor_algebra(cg.module(ring, gens), draw(st.integers(2, 6)))


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


@settings(max_examples=60, deadline=None)
@given(algebras(), st.data())
def test_products_in_the_tensor_square(A, data):
    oracle = Oracle(A.module, A.truncation)
    sq = cg.TensorSquare(A)
    left = terms_of(data, pairs(A), A.ring)
    right = terms_of(data, pairs(A), A.ring)

    def reduced(terms):
        acc = {}
        for (u, v), c in terms.items():
            oracle.add(acc, u + v, (u, v), c)
        return {p: c for p, c in acc.items() if c}

    a, b = sq.element(left), sq.element(right)
    assert a.terms == reduced(left)
    assert (a * b).terms == oracle.mul_pairs(reduced(left), reduced(right))


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
    sq = cg.TensorSquare(A)
    a = A.element(terms_of(data, words(A), A.ring, fractions=False))
    b = A.element(terms_of(data, words(A), A.ring, fractions=False))
    p = sq.element(terms_of(data, pairs(A), A.ring, fractions=False))
    f = cg.AlgebraMorphism(A, A, {n: A.generator(n).scale(-2) for n in A.module.names()})
    for elem in (a, a * b, a - b, -a, f(a), p * p, A.scalar(Fraction(6, 3))):
        assert all(type(c) is int for c in elem.terms.values()), elem
