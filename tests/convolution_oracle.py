"""The convolution group on tables, built in one eager pass: the tests'
oracles for ``antipode_by_recursion``, ``antipode`` and
``Cogroup.generator_images``, which fill a whole degree at a time.

A ``TableMap`` is a degree-preserving map given by a table from basis
keys of degree 1..D to elements of an algebra; missing keys mean zero.
Its source is a convolution source: a basis by degree, each key's
degree and annihilator, and its reduced coproduct.  ``WordSource`` is
the whole underlying coalgebra of a cogroup, whose basis elements are
words and whose reduced coproducts are ``Cogroup.reduced_coproduct_word``.
``CoalgebraSource`` is a presented coalgebra: its basis is the
generators, its reduced coproducts the table.  ``inclusion_inverse`` is
the inverse of the inclusion C -> A over it, the oracle for
``Cogroup.generator_images``.

``morphism_fill_by_words`` and ``recursion_fill_by_words`` are the
library's degree fills as they were written on tuple words, one term
dict per word, before the maps stored row triples keyed by position:
the oracles of ``AlgebraMorphism._fill`` and of the recursion chi's
fill, compared with them word by word through ``as_words``.

``convolve`` is the product (f * g)(x) = f(x) + g(x) + sum c f(y) g(z)
over Dbar(x), and ``unit_map`` its identity eta . eps; the library
computes neither.  ``convolution_inverse_eagerly`` and
``antipode_eagerly`` build every degree up to the truncation before they
return, and multiply only through the general ``mul_into``: the library
builds chi's words a degree at a time as products of homogeneous images.
The eager inverse runs either one-sided recursion; the library runs only
the right one.  ``explicit_identity`` is the identity of a cogroup's
algebra as a full table.
"""

from itertools import repeat

import cogroups as cg
from cogroups.algebra import _reduce_terms, accumulate, row


def rows(triple) -> list:
    """The rows of a row triple, in order, each a list of (key, coefficient)
    pairs."""
    return [row(triple, i) for i in range(len(triple[2]) - 1)]


def as_words(algebra, d: int, triple) -> list:
    """A library map's row triple of degree d, keyed by position in
    ``algebra.basis(d)``, as one term dict per word keyed by the words
    instead, each in its row's order."""
    words = algebra.basis(d)
    return [{words[p]: c for p, c in row} for row in rows(triple)]


def as_triple(images: list) -> tuple:
    """Term dicts, one per word, as the row triple that holds them in
    their order: the inverse of ``rows``."""
    keys, coefficients, starts = [], [], [0]
    for terms in images:
        keys += terms
        coefficients += terms.values()
        starts.append(len(keys))
    return keys, coefficients, starts


class WordSource:
    """Basis = all words of positive degree of the cogroup's algebra."""

    def __init__(self, cogroup):
        self.cogroup = cogroup
        self.ring = cogroup.ring
        self.truncation = cogroup.truncation
        self._algebra = cogroup.algebra

    def basis(self, d: int):
        if d < 1:
            return []
        return self._algebra.basis(d)

    def degree(self, key) -> int:
        return self._algebra.word_degree(key)

    def annihilator(self, key) -> int:
        return self._algebra.word_modulus(key)

    def reduced_coproduct(self, key):
        return self.cogroup.reduced_coproduct_word(key)

    def __eq__(self, other):
        return isinstance(other, WordSource) and self.cogroup is other.cogroup


class CoalgebraSource:
    """Basis = the coalgebra's generators; reduced coproducts from its table."""

    def __init__(self, coalgebra, truncation: int):
        self.coalgebra = coalgebra
        self.module = coalgebra.module
        self.ring = coalgebra.ring
        self.truncation = truncation

    def basis(self, d: int):
        if d < 1 or d > self.truncation:
            return []
        return [g.name for g in self.module.generators if g.degree == d]

    def degree(self, key) -> int:
        return self.module.degree_of(key)

    def annihilator(self, key) -> int:
        return self.module.effective_annihilator(key)

    def reduced_coproduct(self, key):
        return self.coalgebra.reduced_coproduct(key)

    def __eq__(self, other):
        return (
            isinstance(other, CoalgebraSource)
            and self.coalgebra == other.coalgebra
            and self.truncation == other.truncation
        )


class TableMap:
    """Degree-preserving map from a convolution source into an algebra.

    The table maps basis keys of degree 1..D to elements and is taken as
    given; missing keys mean zero.  A table map over a ``WordSource``
    equals a library map out of that cogroup's algebra that has the same
    image on every word.
    """

    def __init__(self, source, target, table: dict):
        self.source = source
        self.target = target
        self.table = dict(table)

    def image(self, key) -> cg.AlgebraElement:
        img = self.table.get(key)
        return img if img is not None else self.target.zero()

    def degree_images(self, d: int) -> tuple:
        """The images of basis(d), in its order, as a row triple keyed by
        position in the target's basis(d), each row in print order, as the
        library's maps keep them."""
        position = {w: p for p, w in enumerate(self.target.basis(d))}
        return as_triple(
            {p: c for p, c in sorted((position[w], c) for w, c in self.image(key).terms.items())}
            for key in self.source.basis(d)
        )

    def __eq__(self, other):
        if isinstance(other, TableMap):
            same = self.source == other.source
        elif isinstance(other, cg.GradedMap):
            src = self.source  # a library map out of the words that key this map
            same = isinstance(src, WordSource) and other.source == src.cogroup.algebra
        else:
            return NotImplemented
        return same and self.target == other.target and self.difference_witness(other) is None

    def difference_witness(self, other):
        """First basis key where the two maps disagree, or None."""
        for d in range(1, self.source.truncation + 1):
            for key in self.source.basis(d):
                if self.image(key) != other.image(key):
                    return key
        return None


def inclusion_inverse(A):
    """{g: image}: the convolution inverse of the inclusion C -> A on every
    generator up to the truncation."""
    alg = A.algebra
    names = [g.name for g in A.module.generators if g.degree <= A.truncation]
    inclusion = TableMap(
        CoalgebraSource(A.coalgebra, A.truncation), alg, {n: alg.generator(n) for n in names}
    )
    inverse = convolution_inverse_eagerly(inclusion)
    return {n: inverse.image(n) for n in names}


def unit_map(source, target):
    """eta . eps: the convolution identity."""
    return TableMap(source, target, {})


def convolve(f, g):
    """The convolution product f * g, every degree up to the truncation."""
    if f.source != g.source or f.target != g.target:
        raise ValueError("maps do not share source and target")
    src = f.source
    alg = f.target
    table = {}
    for d in range(1, src.truncation + 1):
        for x in src.basis(d):
            acc = dict(f.image(x).terms)
            accumulate(acc, g.image(x).terms)
            for c, y, z in src.reduced_coproduct(x):
                alg.mul_into(acc, f.image(y).terms, g.image(z).terms, c)
            table[x] = cg.AlgebraElement(alg, acc)
    return TableMap(src, alg, table)


def convolution_inverse_eagerly(f, via="right"):
    """Inverse in the convolution group, by either one-sided recursion."""
    if via not in ("right", "left"):
        raise ValueError("via must be 'right' or 'left'")
    src = f.source
    alg = f.target
    table: dict = {}
    for d in range(1, src.truncation + 1):
        for x in src.basis(d):
            acc = {k: -v for k, v in f.image(x).terms.items()}
            for c, y, z in src.reduced_coproduct(x):
                if via == "right":
                    alg.mul_into(acc, f.image(y).terms, table[z].terms, -c)
                else:
                    alg.mul_into(acc, table[y].terms, f.image(z).terms, -c)
            table[x] = cg.AlgebraElement(alg, acc)
    return TableMap(src, alg, table)


def antipode_eagerly(A):
    """chi from generator data: the recursion on generators, then
    chi(a.v) = (-1)^{|a||v|} chi(v) chi(a) on longer words."""
    alg = A.algebra
    table: dict = {}
    for d in range(1, A.truncation + 1):
        for w in alg.basis(d):
            if len(w) == 1:
                acc = {w: -1}
                for c, y, z in A.reduced_coproduct_word(w):
                    alg.mul_into(acc, {y: 1}, table[z].terms, -c)
            else:
                a, rest = w[:1], w[1:]
                acc = {}
                sign = -1 if alg.word_degree(a) * alg.word_degree(rest) % 2 else 1
                alg.mul_into(acc, table[rest].terms, table[a].terms, sign)
            table[w] = cg.AlgebraElement(alg, acc)
    return TableMap(WordSource(A), alg, table)


def explicit_identity(A):
    """The identity of A's algebra, every word of degree 1..D in the table."""
    alg = A.algebra
    table = {
        w: alg.element({w: 1}) for d in range(1, A.truncation + 1) for w in alg.basis(d)
    }
    return TableMap(WordSource(A), alg, table)


def morphism_fill_by_words(f) -> list:
    """A checked ``AlgebraMorphism`` or ``AntiMorphism`` on every basis(d) up
    to the source's truncation, as word-keyed term dicts, by degree: f(a.v)
    is f(a) f(v), or the signed f(v) f(a), each product a concatenation of
    words, reduced mod a fixed modulus inside the product or by
    ``_reduce_terms``, and multiplied out with ``mul_into`` above the
    target's truncation."""
    source, target, images = f.source, f.target, f.images
    anti = isinstance(f, cg.AntiMorphism)
    top = min(source.truncation, target.truncation)
    ints = all(type(c) is int for g in source.generators for c in images[g.name].terms.values())
    mod = target.fixed_modulus if ints else None
    filled = [[target.one().terms]]
    for d in range(1, source.truncation + 1):
        out = []
        for g in source.module.generators:
            e = d - g.degree
            if e < 0 or not filled[e]:
                continue
            fa = images[g.name].terms
            if not e:
                out.append(fa)
                continue
            sign = -1 if anti and g.degree * e % 2 else 1
            pairs = zip(filled[e], repeat(fa)) if anti else zip(repeat(fa), filled[e])
            if d > top:
                for left, right in pairs:
                    acc: dict = {}
                    target.mul_into(acc, left, right, sign)
                    out.append(_reduce_terms(target, acc))
            elif mod:
                out += [
                    {w1 + w2: c for w1, v1 in left.items() for w2, v2 in right.items() if (c := sign * v1 * v2 % mod)}
                    for left, right in pairs
                ]
            else:
                products = [
                    {w1 + w2: sign * v1 * v2 for w1, v1 in left.items() for w2, v2 in right.items()}
                    for left, right in pairs
                ]
                out += products if mod == 0 else [_reduce_terms(target, t) for t in products]
        filled.append(out)
    return filled


def recursion_fill_by_words(A) -> list:
    """The recursion chi(w) = -w - sum c y chi(z) over ``reduced_coproducts``
    on every basis(d) up to the truncation, as word-keyed term dicts, by
    degree, each y chi(z) multiplied with ``mul_into`` and each image's
    terms put in basis order."""
    alg = A.algebra
    filled = [[alg.one().terms]]
    for d in range(1, A.truncation + 1):
        out = []
        for w, dbar in zip(alg.basis(d), A.reduced_coproducts(d)):
            acc = {w: -1}
            for c, y, z in dbar:
                e, i = alg.sort_key(z)
                alg.mul_into(acc, {y: 1}, filled[e][i], -c)
            terms = _reduce_terms(alg, acc)
            out.append({w: terms[w] for w in sorted(terms, key=alg.sort_key)})
        filled.append(out)
    return filled
