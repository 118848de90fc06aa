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
D(x) = x (x) 1 + Dbar(x) + 1 (x) x (the coalgebra's ``coproduct_pairs``,
read once a cogroup).  nu's generator images, read off the table, are
also the antipode's.  Dbar on words, which only the word recursion for
chi reads, is filled a degree at a time from D(g.v) = D(g) D(v).

Phi is kept as its generator images alone, each a dict of slot terms
{(word, slots): c}: the letter word[i] stands in factor slots[i] of
A * A, so x' is ((x,), (0,)) and y' z'' is ((y, z), (0, 1)).  pi sends
the terms of Phi(x) one to one onto the pairs a (x) b of D(x), each the
word a.b with a's letters in slot 0.  No algebra A * A is built.

The axiom suite checks coassociativity of Phi, the counit laws, both
inverse laws, that D is coassociative and counital and that pi . Phi
restricts to the table.  Each law equates two algebra morphisms out of
A, so it is checked on the unit and the generators only, as one
difference reduced once.  One kernel, ``_substitute``, multiplies out
an algebra map on slot terms, in A, in A * A * A (``_SlotWords``) or in
A (x) A (``_Pairs``, the Koszul sign).  The same laws on every word,
through the free products, are the tests' oracle.
"""

from __future__ import annotations

from functools import cached_property

from .algebra import (
    AlgebraElement,
    AlgebraMorphism,
    TruncatedTensorAlgebra,
    _Memo,
    _reduce_terms,
    format_word,
)
from .coalgebra import AxiomReport, CoalgebraPresentation, check_coalgebra_axioms, coproduct_pairs


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
        self._validated = False  # whether a map has checked generator_images

    # -- construction -------------------------------------------------

    @cached_property
    def phi(self) -> dict:
        """Phi on generators as slot terms, x -> x' + x'' + sum c y' z'':
        each pair a (x) b of D(x), reduced modulo the modulus of a.b as a
        slot term is, becomes a.b with a's letter in slot 0, b's in slot 1."""
        slots = {(1, 0): (0,), (0, 1): (1,), (1, 1): (0, 1)}  # x (x) 1, 1 (x) x, y (x) z
        return {
            x: {(a + b, slots[len(a), len(b)]): c for (a, b), c in pairs.items()}
            for x, pairs in self.table_delta.items()
        }

    @cached_property
    def table_delta(self) -> dict:
        """D on generators as pair dicts, read off the table once: Phi, the
        default ``delta`` and the restriction check all read this."""
        return coproduct_pairs(self.coalgebra, self.algebra)

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

    def generator_map(self, cls) -> AlgebraMorphism:
        """nu (cls AlgebraMorphism) or chi (AntiMorphism) on the generator
        images, one dict, which the first map built validates."""
        f = cls(self.algebra, self.algebra, self.generator_images, check=not self._validated)
        self._validated = True
        return f

    @cached_property
    def nu(self) -> AlgebraMorphism:
        """The inverse: the algebra morphism with the generator images."""
        return self.generator_map(AlgebraMorphism)

    @cached_property
    def delta(self) -> dict:
        """D on generators as pair dicts: x -> x (x) 1 + 1 (x) x + sum c y (x) z."""
        return self.table_delta

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
        mul = _Pairs(alg).mul_into
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
                terms: dict = {}
                mul(terms, head, dv)
                terms = _reduce_terms(alg, terms)
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

    def mul_into(self, acc: dict, left: dict, right: dict, c=1) -> None:
        """acc += c * left * right (concatenation), unreduced and truncated."""
        deg, top, get = self.algebra.word_degree, self.algebra.truncation, acc.get
        for (w1, s1), v1 in left.items():
            room, cv = top - deg(w1), c * v1
            for (w2, s2), v2 in right.items():
                if deg(w2) <= room:
                    key = (w1 + w2, s1 + s2)
                    acc[key] = get(key, 0) + cv * v2


class _Pairs:
    """A (x) A as pair dicts {(a, b): c}, which the algebra reduces as it
    does the word a.b, with (a (x) b)(p (x) q) = (-1)^{|b||p|} ap (x) bq."""

    def __init__(self, algebra: TruncatedTensorAlgebra):
        self.degree = algebra.word_degree

    def mul_into(self, acc: dict, left: dict, right: dict, c=1) -> None:
        """acc += c * left * right, unreduced; not truncated, as D keeps degrees."""
        deg, get = self.degree, acc.get
        for (a, b), v1 in left.items():
            cv, odd = c * v1, deg(b) % 2
            for (p, q), v2 in right.items():
                key = (a + p, b + q)
                acc[key] = get(key, 0) + (-cv * v2 if odd and deg(p) % 2 else cv * v2)


def _substitute(parent, terms: dict, left: dict, right: dict, out: dict, sign=1, unit=((), ())) -> dict:
    """out += sign * f(terms), unreduced, multiplied out in ``parent``, whose
    1 is ``unit``, for the algebra map f out of A * A with x' -> left[x]
    and x'' -> right[x]; ``terms`` holds slot terms.  A term's last letter
    is multiplied straight into ``out``."""
    images, mul, get = (left, right), parent.mul_into, out.get
    for (word, slots), c in terms.items():
        c *= sign
        if len(word) == 1:
            for key, v in images[slots[0]][word[0]].items():
                out[key] = get(key, 0) + c * v
            continue
        if not word:
            out[unit] = get(unit, 0) + c
            continue
        acc = images[slots[0]][word[0]]
        for i in range(1, len(word) - 1):
            nxt: dict = {}
            mul(nxt, acc, images[slots[i]][word[i]])
            acc = nxt
        mul(out, acc, images[slots[-1]][word[-1]], c)
    return out


def _vanishes(parent, lhs: dict, rhs: dict) -> bool:
    """Whether lhs - rhs, built in ``lhs``, reduces to 0 in ``parent``."""
    get = lhs.get
    for key, c in rhs.items():
        lhs[key] = get(key, 0) - c
    return not any(lhs.values()) or not _reduce_terms(parent, lhs)


def check_cogroup_axioms(A: Cogroup, truncation: int | None = None) -> AxiomReport:
    """Verify the cogroup laws up to degree ``truncation``.

    Both sides of each law are algebra morphisms out of A (composites of
    Phi, nu, D and the counit), so they agree on every word once they
    agree on the unit and the generators; only those are checked, each
    law as one difference: (Phi * 1) Phi(w) - (1 * Phi) Phi(w) in slots
    0-2, (nu * 1) Phi(w) - eps(w) and its mirror, (eps * 1) Phi(w) - w
    and its mirror, D's laws, and pi . Phi(x) minus the table's D(x).
    """
    D = A.truncation if truncation is None else min(truncation, A.truncation)
    alg, phi, table = A.algebra, A.phi, A.table_delta
    names = tuple(phi)
    shifted = {n: {(w, tuple(s + 1 for s in ss)): c for (w, ss), c in t.items()} for n, t in phi.items()}
    first = {n: {((n,), (0,)): 1} for n in names}
    third = {n: {((n,), (2,)): 1} for n in names}
    ident = {n: {(n,): 1} for n in names}  # reduced with the products
    nu = {n: img.terms for n, img in A.nu.images.items()}
    pi = ({n: {((n,), ()): 1} for n in names}, {n: {((), (n,)): 1} for n in names})
    triple, pairs, delta = _SlotWords(alg), _Pairs(alg), A.delta
    images = _Memo(lambda v: _substitute(pairs, {(v, (0,) * len(v)): 1}, delta, delta, {}))
    images.update(((n,), t) for n, t in delta.items())  # D on the words of D(w)

    words = [()] + [(g.name,) for g in alg.generators if g.degree <= D]
    violations, restricted = [], []
    for w in words:
        one = _reduce_terms(alg, {w: 1})  # w, or 0 where its modulus is 1
        pw = (phi[w[0]] if w else {((), ()): 1}) if one else {}
        dw = (delta[w[0]] if w else {((), ()): 1}) if one else {}
        counit = {} if w else one
        diff = {}  # (D (x) 1) D(w) - (1 (x) D) D(w)
        for (a, b), c in dw.items():
            for (u, v), c2 in images[a].items():
                diff[u, v, b] = diff.get((u, v, b), 0) + c * c2
            for (u, v), c2 in images[b].items():
                diff[a, u, v] = diff.get((a, u, v), 0) - c * c2
        laws = (
            ("Phi coassociativity", _vanishes(
                triple, _substitute(triple, pw, first, shifted, _substitute(triple, pw, phi, third, {}), -1), {})),
            ("Phi counit law", _vanishes(alg, {v: c for (v, ss), c in pw.items() if 0 not in ss}, one)
                and _vanishes(alg, {v: c for (v, ss), c in pw.items() if 1 not in ss}, one)),
            ("left inverse law", _vanishes(alg, _substitute(alg, pw, nu, ident, {}, unit=()), counit)),
            ("right inverse law", _vanishes(alg, _substitute(alg, pw, ident, nu, {}, unit=()), counit)),
            ("coproduct coassociativity", _vanishes(alg, diff, {})),
            ("coproduct counit law", _vanishes(alg, {b: c for (a, b), c in dw.items() if not a}, one)
                and _vanishes(alg, {a: c for (a, b), c in dw.items() if not b}, one)),
        )
        violations += [f"{law} fails on {format_word(w)}" for law, holds in laws if not holds]
        if w:  # pi . Phi restricts to the defining coalgebra on generators
            restricted.append((w[0], _vanishes(alg, _substitute(pairs, pw, *pi, {}), table[w[0]])))
    violations += [f"coproduct does not restrict to the coalgebra on {n}" for n, ok in restricted if not ok]
    return AxiomReport(len(words) + len(restricted), violations)


def is_cogroup_morphism(f: AlgebraMorphism, A: Cogroup, B: Cogroup) -> bool:
    """Whether f intertwines the comultiplications: Phi_B . f = (f * f) . Phi_A.

    Checked on generators, which suffices because both sides are algebra
    morphisms out of the source: Phi_B substituted into f(g) in slot 0,
    minus f's images substituted into the slot terms of Phi_A(g).
    """
    if f.source != A.algebra or f.target != B.algebra:
        raise ValueError("morphism does not run between the underlying algebras")
    slots = _SlotWords(B.algebra)
    left, right = (
        {n: {(w, (k,) * len(w)): c for w, c in img.terms.items()} for n, img in f.images.items()}
        for k in (0, 1)
    )
    for g in A.algebra.generators:
        diff = _substitute(slots, left[g.name], B.phi, {}, {})
        if _reduce_terms(slots, _substitute(slots, A.phi[g.name], left, right, diff, -1)):
            return False
    return True
