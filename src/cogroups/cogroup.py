"""Cogroups on tensor algebras, built from a presented coalgebra.

Given a connected graded coalgebra C with reduced coproducts
Dbar(x) = sum c_i y_i (x) z_i, the tensor algebra A = T(C+) on the
positive part carries a cogroup structure for the free product:

    Phi(x) = x' + x'' + sum c_i y_i' * z_i''      (comultiplication)
    nu(x)  = -x - sum c_i y_i * nu(z_i),
             extended to an algebra morphism        (inverse)

with counit the projection onto degree 0.  The underlying Hopf-style
coproduct on A is D = pi . Phi, where pi folds the free product onto the
Koszul-signed tensor square by a' -> a (x) 1, a'' -> 1 (x) a.  Since pi
and Phi are algebra maps fixed by their generator images, D is kept as
its generator images alone, the table's pair dicts
D(x) = x (x) 1 + Dbar(x) + 1 (x) x (the coalgebra's ``coproduct_pairs``).
``tensor_cogroup`` checks the coalgebra laws on the table itself, so
building a cogroup builds no D.  nu's generator images, read off the
table, are also the antipode's, so nu and chi build no D either.  Dbar
on words, which only the word recursion for chi reads, is filled a
whole degree at a time from D(g.v) = D(g) D(v), with D(v) its Dbar and
outer terms.

Phi is kept as its generator images alone, each a dict of slot terms
{(word, slots): c}: the letter word[i] stands in factor slots[i] of
A * A, so x' is ((x,), (0,)) and y' z'' is ((y, z), (0, 1)).  They are
read off D's pairs: pi sends the terms of Phi(x) one to one onto those
of D(x), so each pair a (x) b is the word a.b with its letters from a in
slot 0 and from b in slot 1.  No algebra A * A, and no tensor square
A (x) A, is built.

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
    TruncatedTensorAlgebra,
    _reduce_terms,
    accumulate,
    format_word,
)
from .coalgebra import (
    AxiomReport,
    CoalgebraPresentation,
    _pair_product,
    check_coalgebra_axioms,
    coproduct_laws,
    coproduct_pairs,
)


class Cogroup:
    """Tensor-algebra cogroup on the positive part of a coalgebra.

    D (as pair dicts), Phi (as slot terms, off D's pairs), nu and the
    generator images it shares with chi are all built from the coalgebra
    table, each on first read.  Treat instances as immutable; internal
    caches only ever grow.
    """

    def __init__(self, coalgebra: CoalgebraPresentation, truncation: int):
        self.coalgebra = coalgebra
        self.module = coalgebra.module
        self.ring = coalgebra.ring
        self.truncation = truncation
        self.algebra = TruncatedTensorAlgebra(self.module, truncation)
        self._reduced_by_degree: list = []  # Dbar on basis(d) at index d

    # -- construction -------------------------------------------------

    @cached_property
    def phi(self) -> dict:
        """Phi on generators as slot terms, x -> x' + x'' + sum c y' z'':
        each pair a (x) b of D(x), reduced modulo the modulus of a.b as a
        slot term is, becomes a.b with a's letter in slot 0, b's in slot 1."""
        slots = {(1, 0): (0,), (0, 1): (1,), (1, 1): (0, 1)}  # x (x) 1, 1 (x) x, y (x) z
        return {
            x: {(a + b, slots[len(a), len(b)]): c for (a, b), c in pairs.items()}
            for x, pairs in coproduct_pairs(self.coalgebra, self.algebra).items()
        }

    @cached_property
    def generator_images(self) -> dict:
        """nu and chi on the generators, one dict for both: g -> -g - sum
        c y f(z) over the table's Dbar(g), each z of lower degree.

        Each image's terms are in basis order, sorted by their position
        P(w, |g|); every word image that nu's and chi's degree fill
        multiplies from them then is too.
        """
        alg, table = self.algebra, self.coalgebra.table
        images: dict = {}
        for g in sorted(alg.generators, key=lambda g: g.degree):
            acc = {(g.name,): -1}
            for c, y, z in table.get(g.name, ()):
                alg.mul_into(acc, {(y,): 1}, images[z].terms, -c)
            terms = _reduce_terms(alg, acc)
            if len(terms) > 1:
                terms = {w: terms[w] for w in sorted(terms, key=lambda w: alg.prefix(w, g.degree))}
            images[g.name] = AlgebraElement.trusted(alg, terms)
        return images

    @cached_property
    def nu(self) -> AlgebraMorphism:
        """The inverse: the algebra morphism with the generator images."""
        return AlgebraMorphism(self.algebra, self.algebra, self.generator_images)

    @cached_property
    def delta(self) -> dict:
        """D on generators as pair dicts: x -> x (x) 1 + 1 (x) x + sum c y (x) z."""
        return coproduct_pairs(self.coalgebra, self.algebra)

    # -- coproduct ----------------------------------------------------

    def reduced_coproducts(self, d: int) -> list:
        """Dbar on basis(d), in its order: D(w) minus its two outer terms,
        each a tuple of (c, y, z) for the terms c y (x) z.  The first read
        fills d and each degree below; a degree with no words gets [].

        basis(d) lists g.v for each generator g and v in basis(d - |g|), so
        D(g.v) = D(g) D(v), with D(v) = v (x) 1 + Dbar(v) + 1 (x) v.  A word
        of modulus 1 is 0, and so is its Dbar.
        """
        filled = self._reduced_by_degree
        if d < len(filled):
            return filled[d]
        if not filled:
            filled.append([()])
        return self.algebra.fill_to(filled, d, self._reduced_coproducts_of, [])

    def _reduced_coproducts_of(self, e: int) -> list:
        filled, alg, delta, dbars = self._reduced_by_degree, self.algebra, self.delta, []
        for g in self.module.generators:
            if g.degree > e:
                continue
            head = delta[g.name]
            for v, dbar in zip(alg.basis(e - g.degree), filled[e - g.degree]):
                w = (g.name,) + v
                if alg.word_modulus(w) == 1:
                    dbars.append(())
                    continue
                dv = {(v, ()): 1, ((), v): 1} if v else {((), ()): 1}
                dv.update(((y, z), c) for c, y, z in dbar)
                terms = _reduce_terms(alg, _pair_product((head, dv), alg.word_degree))
                if terms.pop((w, ()), 0) != 1 or terms.pop(((), w), 0) != 1:
                    raise ValueError(f"coproduct of {format_word(w)} lost its outer terms")
                dbars.append(tuple((c, y, z) for (y, z), c in terms.items()))
        return dbars

    def reduced_coproduct_word(self, word):
        """Dbar of a basis word, read off ``reduced_coproducts``."""
        try:
            d, i = self.algebra.sort_key(word)
        except KeyError:
            raise ValueError(f"{format_word(word)} is not a basis word of the source") from None
        return self.reduced_coproducts(d)[i]


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


def _fold(algebra: TruncatedTensorAlgebra, terms: dict) -> dict:
    """pi(terms) as a pair dict, for pi : A * A -> A (x) A with
    a' -> a (x) 1 and a'' -> 1 (x) a; ``terms`` holds slot terms.

    A slot term up to the truncation becomes one pair, the product of its
    letters' images: its slot-0 letters on the left, its slot-1 letters on
    the right, with the Koszul sign of each slot-1 letter that stands
    before a slot-0 letter.
    """
    deg, out = algebra.word_degree, {}
    for (word, slots), c in terms.items():
        if deg(word) <= algebra.truncation:
            pis = ({((), (x,)): 1} if s else {((x,), ()): 1} for x, s in zip(word, slots))
            accumulate(out, _pair_product(pis, deg), c)
    return _reduce_terms(algebra, out)


def check_cogroup_axioms(A: Cogroup, truncation: int | None = None) -> AxiomReport:
    """Verify the cogroup laws up to degree ``truncation``.

    Both sides of each law are algebra morphisms out of A (composites of
    Phi, nu, D and the counit), so they agree on every word once they
    agree on the unit and the generators; only those are checked.  Each
    law substitutes into the slot terms of Phi(w): (Phi * 1) Phi against
    (1 * Phi) Phi in slots 0-2, nu in one slot and x in the other.  D's
    laws read its pair dicts, and pi . Phi, folded to pairs, is compared
    with the table's D on generators.
    """
    D = A.truncation if truncation is None else min(truncation, A.truncation)
    alg, phi = A.algebra, A.phi
    names = tuple(phi)
    shifted = {n: {(w, tuple(s + 1 for s in ss)): c for (w, ss), c in t.items()}
               for n, t in phi.items()}
    first, third = ({n: {((n,), (k,)): 1} for n in names} for k in (0, 2))
    ident = {n: alg.generator(n).terms for n in names}
    nu = {n: A.nu.images[n].terms for n in names}
    triple = _SlotWords(alg)

    words = [()] + [(g.name,) for g in alg.generators if g.degree <= D]
    folded = {}
    violations = []
    for w in words:
        one = _reduce_terms(alg, {w: 1})  # w, or 0 where its modulus is 1
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
        coassociative, left, right = coproduct_laws(alg, A.delta, w)
        if not coassociative:
            violations.append(f"coproduct coassociativity fails on {format_word(w)}")
        if not (left and right):
            violations.append(f"coproduct counit law fails on {format_word(w)}")
        if w:
            folded[w[0]] = _fold(alg, pw)

    # pi . Phi restricts to the defining coalgebra on generators
    want = coproduct_pairs(A.coalgebra, alg)
    for name, terms in folded.items():
        if terms != want[name]:
            violations.append(f"coproduct does not restrict to the coalgebra on {name}")
    return AxiomReport(len(words) + len(folded), violations)


def is_cogroup_morphism(f: AlgebraMorphism, A: Cogroup, B: Cogroup) -> bool:
    """Whether f intertwines the comultiplications: Phi_B . f = (f * f) . Phi_A.

    Checked on generators, which suffices because both sides are algebra
    morphisms out of the source: Phi_B substituted into f(g) in slot 0
    against f's images substituted into the slot terms of Phi_A(g).
    """
    if f.source != A.algebra or f.target != B.algebra:
        raise ValueError("morphism does not run between the underlying algebras")
    slots = _SlotWords(B.algebra)
    left, right = (
        {n: {(w, (k,) * len(w)): c for w, c in img.terms.items()} for n, img in f.images.items()}
        for k in (0, 1)
    )
    for g in A.algebra.generators:
        lhs = _substitute(slots, left[g.name], B.phi, {})
        if lhs != _substitute(slots, A.phi[g.name], left, right):
            return False
    return True
