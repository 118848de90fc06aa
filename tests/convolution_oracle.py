"""The convolution product, and the convolution inverse and the antipode
built in one eager pass: the tests' oracles for ``convolution_inverse``
and ``antipode``, which fill their tables on demand, by degree.

``CoalgebraSource`` is a presented coalgebra as a convolution source:
its basis is the generators, its reduced coproducts the table.
``inclusion_inverse`` is ``convolution_inverse`` of the inclusion
C -> A over it, the oracle for ``Cogroup.generator_images``.

``convolve`` is the product (f * g)(x) = f(x) + g(x) + sum c f(y) g(z)
over Dbar(x), and ``unit_map`` its identity eta . eps; the library
computes neither.  ``convolution_inverse_eagerly`` and
``antipode_eagerly`` build every degree up to the truncation before they
return, and multiply only through the general ``mul_into``: the library
builds its inverses by degree on demand, and chi's words a degree at a
time as products of homogeneous images.  The eager inverse runs either one-sided
recursion; the library runs only the right one.
``explicit_identity`` is the identity of a cogroup's algebra as a full
table.
"""

import cogroups as cg
from cogroups.algebra import accumulate


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


def inclusion_inverse(A):
    """{g: image}: ``convolution_inverse`` of the inclusion C -> A on every
    generator up to the truncation."""
    alg = A.algebra
    names = [g.name for g in A.module.generators if g.degree <= A.truncation]
    inclusion = cg.GradedMap(
        CoalgebraSource(A.coalgebra, A.truncation), alg, {n: alg.generator(n) for n in names}
    )
    inverse = cg.convolution_inverse(inclusion)
    return {n: inverse.image(n) for n in names}


def unit_map(source, target):
    """eta . eps: the convolution identity."""
    return cg.GradedMap(source, target, {})


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
    return cg.GradedMap(src, alg, table)


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
    return cg.GradedMap(src, alg, table)


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
    return cg.GradedMap(cg.CogroupSource(A), alg, table)


def explicit_identity(A):
    """The identity of A's algebra, every word of degree 1..D in the table."""
    alg = A.algebra
    table = {
        w: alg.element({w: 1}) for d in range(1, A.truncation + 1) for w in alg.basis(d)
    }
    return cg.GradedMap(cg.CogroupSource(A), alg, table)

