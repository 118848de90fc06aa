"""Cogroups on tensor algebras, built from a presented coalgebra.

Given a connected graded coalgebra C with reduced coproducts
Dbar(x) = sum c_i y_i (x) z_i, the tensor algebra A = T(C+) on the
positive part carries a cogroup structure for the free product:

    Phi(x) = x' + x'' + sum c_i y_i' * z_i''      (comultiplication)
    nu(x)  = -x - sum c_i y_i * nu(z_i),
             extended to an algebra morphism        (inverse)

with counit the projection onto degree 0.  The underlying Hopf-style
coproduct on A is D = pi . Phi, where pi folds the free product onto the
tensor square by a' -> a (x) 1, a'' -> 1 (x) a.  Since pi and Phi are
algebra maps fixed by their generator images, D is computed directly as
the morphism with D(x) = x (x) 1 + Dbar(x) + 1 (x) x into the
Koszul-signed tensor square, the coalgebra's ``coproduct_morphism``.
``tensor_cogroup`` checks the coalgebra laws on the table itself, so
building a cogroup builds neither the tensor square nor D.  nu's
generator images, read off the table, are also the antipode's, so nu
and chi build no D either.

Phi is kept as its generator images alone, each a dict of slot terms
{(word, slots): c}: the letter word[i] stands in factor slots[i] of
A * A, so x' is ((x,), (0,)) and y' z'' is ((y, z), (0, 1)).  No algebra
A * A is built.

The axiom suite checks coassociativity of Phi, the counit laws, both
inverse laws, that D is coassociative and counital (the coalgebra's
``coproduct_laws``) and that pi . Phi restricts to the table.  Each law
equates two algebra morphisms out of A, so it is checked on the unit
and the generators only, by substitution into the terms of Phi(w).
The same laws on every word, through the free products, are the tests'
oracle.
"""

from __future__ import annotations

from functools import cached_property

from .algebra import (
    AlgebraElement,
    AlgebraMorphism,
    TensorSquare,
    TruncatedTensorAlgebra,
    _reduce_terms,
    accumulate,
    format_word,
)
from .coalgebra import (
    AxiomReport,
    CoalgebraPresentation,
    check_coalgebra_axioms,
    coproduct_laws,
    coproduct_morphism,
)


class Cogroup:
    """Tensor-algebra cogroup on the positive part of a coalgebra.

    The tensor square, Phi (as slot terms), the generator images of nu
    and chi, nu and D are all built from the coalgebra table, each on
    first read.  Treat instances as immutable; internal caches only ever
    grow.
    """

    def __init__(self, coalgebra: CoalgebraPresentation, truncation: int):
        self.coalgebra = coalgebra
        self.module = coalgebra.module
        self.ring = coalgebra.ring
        self.truncation = truncation
        self.algebra = TruncatedTensorAlgebra(self.module, truncation)
        self._reduced_cache: dict = {}

    # -- construction -------------------------------------------------

    @cached_property
    def tensor_square(self) -> TensorSquare:  # A (x) A
        return TensorSquare(self.algebra)

    @cached_property
    def phi(self) -> dict:
        """Phi on generators as slot terms: x -> x' + x'' + sum c y' z''."""
        slots, images = _SlotWords(self.algebra), {}
        for g in self.module.generators:
            if g.degree > self.truncation:
                continue
            x = g.name
            terms = {((x,), (0,)): 1, ((x,), (1,)): 1}
            for c, y, z in self.coalgebra.reduced_coproduct(x):
                key = ((y, z), (0, 1))
                terms[key] = terms.get(key, 0) + c
            images[x] = _reduce_terms(slots, terms)
        return images

    @cached_property
    def generator_images(self) -> dict:
        """nu and chi on the generators, one dict for both: g -> -g - sum
        c y f(z) over the table's Dbar(g), each z of lower degree.

        Each image's terms are in basis order, which within a degree is
        lexicographic in the generators' declaration index; every word
        image built from them by ``homogeneous_product`` then is too.
        """
        index = {n: i for i, n in enumerate(self.module.names())}
        images: dict = {}
        for g in sorted(self.module.generators, key=lambda g: g.degree):
            if g.degree > self.truncation:
                break
            acc = {(g.name,): -1}
            for c, y, z in self.coalgebra.table.get(g.name, ()):
                accumulate(acc, {(y,) + w: v for w, v in images[z].terms.items()}, -c)
            order = sorted(acc, key=lambda w: [index[l] for l in w])
            images[g.name] = AlgebraElement(self.algebra, {w: acc[w] for w in order})
        return images

    @cached_property
    def nu(self) -> AlgebraMorphism:
        """The inverse: the algebra morphism with the generator images."""
        return AlgebraMorphism(self.algebra, self.algebra, self.generator_images)

    @cached_property
    def delta(self) -> AlgebraMorphism:
        """D : A -> A (x) A, the table's ``coproduct_morphism``."""
        return coproduct_morphism(self.coalgebra, self.tensor_square)

    # -- coproduct ----------------------------------------------------

    def reduced_coproduct_word(self, word):
        """Dbar of a basis word: D(word) minus its two outer terms."""
        cached = self._reduced_cache.get(word)
        if cached is None:
            one = 0 if self.algebra.word_modulus(word) == 1 else 1
            terms = dict(self.delta.image(word).terms) if one else {}
            if word:
                left = terms.pop((word, ()), 0)
                right = terms.pop(((), word), 0)
                if left != one or right != one:
                    raise ValueError(
                        f"coproduct of {format_word(word)} lost its outer terms"
                    )
            else:
                terms.pop(((), ()), None)
            cached = tuple((c, p[0], p[1]) for p, c in terms.items())
            self._reduced_cache[word] = cached
        return cached


def tensor_cogroup(C: CoalgebraPresentation, truncation: int) -> Cogroup:
    """Build the cogroup on T(C+); the coalgebra axioms are checked on C's table."""
    report = check_coalgebra_axioms(C, truncation)
    if not report.ok:
        raise ValueError(f"coalgebra axioms fail: {report}")
    return Cogroup(C, truncation)


class _SlotWords:
    """Words of A * ... * A as keys (word, slots): letter i is word[i] in
    factor slots[i], with the degree and modulus of the word of A."""

    def __init__(self, algebra: TruncatedTensorAlgebra):
        self.algebra, self.ring = algebra, algebra.ring
        self.fixed_modulus = algebra.fixed_modulus

    def modulus(self, key) -> int:
        return self.algebra.word_modulus(key[0])

    def mul_into(self, acc: dict, left: dict, right: dict) -> None:
        """acc += left * right (concatenation), unreduced and truncated."""
        deg, top, get = self.algebra.word_degree, self.algebra.truncation, acc.get
        for (w1, s1), v1 in left.items():
            room = top - deg(w1)
            for (w2, s2), v2 in right.items():
                if deg(w2) <= room:
                    key = (w1 + w2, s1 + s2)
                    acc[key] = get(key, 0) + v1 * v2


def _substitute(parent, terms: dict, left: dict, right: dict, unit=((), ())) -> dict:
    """f(Phi(w)) multiplied out in ``parent``, whose 1 is ``unit``, for the
    algebra map f out of A * A with x' -> left[x] and x'' -> right[x];
    ``terms`` holds Phi(w), or any element of A * A, as slot terms."""
    images = (left, right)
    out: dict = {}
    for (word, slots), c in terms.items():
        acc = {unit: c}
        for name, slot in zip(word, slots):
            nxt: dict = {}
            parent.mul_into(nxt, acc, images[slot][name])
            acc = nxt
        accumulate(out, acc)
    return _reduce_terms(parent, out)


def check_cogroup_axioms(A: Cogroup, truncation: int | None = None) -> AxiomReport:
    """Verify the cogroup laws up to degree ``truncation``.

    Both sides of each law are algebra morphisms out of A (composites of
    Phi, nu, D and the counit), so they agree on every word once they
    agree on the unit and the generators; only those are checked.  Each
    law substitutes into the slot terms of Phi(w): (Phi * 1) Phi against
    (1 * Phi) Phi in slots 0-2, nu in one slot and x in the other, and
    pi . Phi as x (x) 1 and 1 (x) x in the Koszul-signed tensor square.
    """
    D = A.truncation if truncation is None else min(truncation, A.truncation)
    alg, sq, phi = A.algebra, A.tensor_square, A.phi
    names = tuple(phi)
    shifted = {n: {(w, tuple(s + 1 for s in ss)): c for (w, ss), c in t.items()}
               for n, t in phi.items()}
    first, third = ({n: {((n,), (k,)): 1} for n in names} for k in (0, 2))
    ident = {n: alg.generator(n).terms for n in names}
    nu = {n: A.nu.images[n].terms for n in names}
    pi = ({n: {((n,), ()): 1} for n in names}, {n: {((), (n,)): 1} for n in names})
    triple = _SlotWords(alg)

    words = [()] + [(g.name,) for g in A.module.generators if g.degree <= D]
    folded = {}
    violations = []
    for w in words:
        one = {} if alg.word_modulus(w) == 1 else {w: 1}  # w, or 0 where its modulus is 1
        pw = (phi[w[0]] if w else {((), ()): 1}) if one else {}
        if _substitute(triple, pw, phi, third) != _substitute(triple, pw, first, shifted):
            violations.append(f"Phi coassociativity fails on {format_word(w)}")
        if any({v: c for (v, ss), c in pw.items() if k not in ss} != one for k in (0, 1)):
            violations.append(f"Phi counit law fails on {format_word(w)}")
        counit = {} if w else one
        if _substitute(alg, pw, nu, ident, ()) != counit:
            violations.append(f"left inverse law fails on {format_word(w)}")
        if _substitute(alg, pw, ident, nu, ()) != counit:
            violations.append(f"right inverse law fails on {format_word(w)}")
        # the induced coproduct: coassociative, counital
        coassociative, left, right = coproduct_laws(A.delta, w)
        if not coassociative:
            violations.append(f"coproduct coassociativity fails on {format_word(w)}")
        if not (left and right):
            violations.append(f"coproduct counit law fails on {format_word(w)}")
        if w:
            folded[w[0]] = _substitute(sq, pw, *pi)

    # pi . Phi restricts to the defining coalgebra on generators
    want = coproduct_morphism(A.coalgebra, sq).images
    for name, terms in folded.items():
        if terms != want[name].terms:
            violations.append(f"coproduct does not restrict to the coalgebra on {name}")
    return AxiomReport(len(words) + len(folded), violations)


def is_cogroup_morphism(
    f: AlgebraMorphism, A: Cogroup, B: Cogroup, truncation: int | None = None
) -> bool:
    """Whether f intertwines the comultiplications: Phi_B . f = (f * f) . Phi_A.

    Checked on generators, which suffices because both sides are algebra
    morphisms out of the source: Phi_B substituted into f(g) in slot 0
    against f's images substituted into the slot terms of Phi_A(g).
    """
    if f.source != A.algebra or f.target != B.algebra:
        raise ValueError("morphism does not run between the underlying algebras")
    D = A.truncation if truncation is None else min(truncation, A.truncation)
    slots = _SlotWords(B.algebra)
    left, right = (
        {n: {(w, (k,) * len(w)): c for w, c in img.terms.items()} for n, img in f.images.items()}
        for k in (0, 1)
    )
    for g in A.module.generators:
        if g.degree > D:
            continue
        lhs = _substitute(slots, left[g.name], B.phi, {})
        if lhs != _substitute(slots, A.phi[g.name], left, right):
            return False
    return True
