"""Cogroups on tensor algebras, built from a presented coalgebra.

Given a connected graded coalgebra C with reduced coproducts
Dbar(x) = sum c_i y_i (x) z_i, the tensor algebra A = T(C+) on the
positive part carries a cogroup structure for the free product:

    Phi(x) = x' + x'' + sum c_i y_i' * z_i''      (comultiplication)
    nu(x)  = the convolution inverse of the inclusion C -> A,
             extended to an algebra morphism        (inverse)

with counit the projection onto degree 0.  The underlying Hopf-style
coproduct on A is D = pi . Phi, where pi folds the free product onto the
tensor square by a' -> a (x) 1, a'' -> 1 (x) a.  Since pi and Phi are
algebra maps fixed by their generator images, D is computed directly as
the morphism with D(x) = x (x) 1 + Dbar(x) + 1 (x) x into the
Koszul-signed tensor square.

The axiom suite checks coassociativity of Phi, the counit laws, both
inverse laws, and that D is coassociative, counital and restricts to the
defining coalgebra.  Each law equates two algebra morphisms out of A, so
it is checked on the unit and the generators only; the same check over
every word up to the requested degree is the test suite's oracle.
"""

from __future__ import annotations

from .algebra import (
    AlgebraMorphism,
    TensorSquare,
    TruncatedTensorAlgebra,
    format_word,
    free_power,
)
from .coalgebra import (
    AxiomReport,
    CoalgebraPresentation,
    _reduce_multi,
    check_coalgebra_axioms,
)


class Cogroup:
    """Tensor-algebra cogroup on the positive part of a coalgebra.

    ``phi`` and ``nu`` can be supplied explicitly to build broken fixtures;
    by default they are derived from the coalgebra table.  Treat instances
    as immutable; internal caches only ever grow.
    """

    def __init__(
        self,
        coalgebra: CoalgebraPresentation,
        truncation: int,
        phi: AlgebraMorphism | None = None,
        nu: AlgebraMorphism | None = None,
    ):
        self.coalgebra = coalgebra
        self.module = coalgebra.module
        self.ring = coalgebra.ring
        self.truncation = truncation
        self.algebra = TruncatedTensorAlgebra(self.module, truncation)
        self.square_product = free_power(self.algebra, 2)  # A * A
        self.tensor_square = TensorSquare(self.algebra)    # A (x) A
        self.phi = phi if phi is not None else self._default_phi()
        self.nu = nu if nu is not None else self._default_nu()
        self.delta = self._derive_delta()
        self._reduced_cache: dict = {}

    # -- construction -------------------------------------------------

    def _default_phi(self) -> AlgebraMorphism:
        prod = self.square_product.algebra
        lmap, rmap = self.square_product.name_maps
        images = {}
        for g in self.module.generators:
            if g.degree > self.truncation:
                continue
            img = prod.generator(lmap[g.name]) + prod.generator(rmap[g.name])
            for c, y, z in self.coalgebra.reduced_coproduct(g.name):
                img = img + (prod.generator(lmap[y]) * prod.generator(rmap[z])).scale(c)
            images[g.name] = img
        return AlgebraMorphism(self.algebra, prod, images)

    def _default_nu(self) -> AlgebraMorphism:
        """Convolution inverse of the inclusion, as generator images.

        The recursion g(x) = -x - sum c_i y_i * g(z_i) runs over the
        coalgebra table; z_i has strictly smaller degree, so it bottoms
        out at primitives with g(x) = -x.
        """
        alg = self.algebra
        memo: dict = {}

        def g(name: str):
            img = memo.get(name)
            if img is None:
                acc = {(name,): -1}
                for c, y, z in self.coalgebra.reduced_coproduct(name):
                    alg.mul_into(acc, {(y,): 1}, g(z).terms, -c)
                img = memo[name] = alg.element(acc)
            return img

        images = {
            gen.name: g(gen.name)
            for gen in self.module.generators
            if gen.degree <= self.truncation
        }
        return AlgebraMorphism(self.algebra, self.algebra, images)

    def _derive_delta(self) -> AlgebraMorphism:
        pi = self.fold_to_tensor_square()
        images = {
            name: pi(img) for name, img in self.phi.images.items()
        }
        return AlgebraMorphism(self.algebra, self.tensor_square, images, check=False)

    def fold_to_tensor_square(self) -> AlgebraMorphism:
        """pi : A * A -> A (x) A with a' -> a (x) 1 and a'' -> 1 (x) a."""
        lmap, rmap = self.square_product.name_maps
        sq = self.tensor_square
        images = {}
        for g in self.module.generators:
            if g.degree > self.truncation:
                continue
            images[lmap[g.name]] = sq.pure((g.name,), ())
            images[rmap[g.name]] = sq.pure((), (g.name,))
        return AlgebraMorphism(self.square_product.algebra, sq, images, check=False)

    # -- counit and coproduct -----------------------------------------

    def counit(self, elem):
        return elem.unit_coefficient()

    def unit_counit(self, elem):
        """eta . eps applied to an element of the underlying algebra."""
        return self.algebra.scalar(elem.unit_coefficient())

    def coproduct(self, elem):
        return self.delta(elem)

    def reduced_coproduct_word(self, word):
        """Dbar of a basis word: D(word) minus its two outer terms."""
        cached = self._reduced_cache.get(word)
        if cached is None:
            full = self.delta(self.algebra.element({word: 1}))
            terms = dict(full.terms)
            if word:
                left = terms.pop((word, ()), 0)
                right = terms.pop(((), word), 0)
                expect = self.algebra.element({word: 1}).coefficient(word)
                if left != expect or right != expect:
                    raise ValueError(
                        f"coproduct of {format_word(word)} lost its outer terms"
                    )
            else:
                terms.pop(((), ()), None)
            cached = tuple((c, p[0], p[1]) for p, c in terms.items())
            self._reduced_cache[word] = cached
        return cached


def tensor_cogroup(C: CoalgebraPresentation, truncation: int) -> Cogroup:
    """Build the cogroup on T(C+); the coalgebra axioms are checked first."""
    report = check_coalgebra_axioms(C, truncation)
    if not report.ok:
        raise ValueError(f"coalgebra axioms fail: {report}")
    return Cogroup(C, truncation)


def fold(A: Cogroup) -> AlgebraMorphism:
    """A * A -> A collapsing both tags onto the original generators."""
    images = {}
    for nm in A.square_product.name_maps:
        for name, tagged in nm.items():
            if A.module.degree_of(name) <= A.truncation:
                images[tagged] = A.algebra.generator(name)
    return AlgebraMorphism(A.square_product.algebra, A.algebra, images, check=False)


def _shift_map(A: Cogroup, triple, offset: int) -> dict:
    """Rename slots of A*A into slots (offset, offset+1) of A*A*A."""
    lmap, rmap = A.square_product.name_maps
    out = {}
    for name in A.module.names():
        out[lmap[name]] = triple.name_maps[offset][name]
        out[rmap[name]] = triple.name_maps[offset + 1][name]
    return out


def check_cogroup_axioms(A: Cogroup, truncation: int | None = None) -> AxiomReport:
    """Verify the cogroup laws up to degree ``truncation``.

    Both sides of each law are algebra morphisms out of A (composites of
    Phi, nu, D and the counit), so they agree on every word once they
    agree on the unit and the generators; only those are checked.
    """
    D = A.truncation if truncation is None else min(truncation, A.truncation)
    words = [()] + [(g.name,) for g in A.module.generators if g.degree <= D]
    return _check_axioms_on(A, D, words)


def _check_axioms_on(A: Cogroup, D: int, words) -> AxiomReport:
    """The cogroup laws on each of ``words``, and D on the coalgebra."""
    alg = A.algebra
    prod = A.square_product.algebra
    triple = free_power(alg, 3)
    lmap, rmap = A.square_product.name_maps

    names = tuple(A.phi.images)
    T = triple.algebra

    def from_slots(target, left: dict, right: dict) -> AlgebraMorphism:
        """The map out of A * A with x' -> left[x] and x'' -> right[x]."""
        images = {lmap[n]: left[n] for n in names}
        images.update({rmap[n]: right[n] for n in names})
        return AlgebraMorphism(prod, target, images, check=False)

    phis = [
        {n: _rename(A.phi.images[n], shift, T) for n in names}
        for shift in (_shift_map(A, triple, 0), _shift_map(A, triple, 1))
    ]
    slots = [{n: T.generator(nm[n]) for n in names} for nm in triple.name_maps]
    ident = {n: alg.generator(n) for n in names}
    zero = dict.fromkeys(names, alg.zero())
    phi_star_one = from_slots(T, phis[0], slots[2])
    one_star_phi = from_slots(T, slots[0], phis[1])
    eps_star_one = from_slots(alg, zero, ident)
    one_star_eps = from_slots(alg, ident, zero)
    nu_star_one = from_slots(alg, A.nu.images, ident)
    one_star_nu = from_slots(alg, ident, A.nu.images)

    checked = 0
    violations = []
    sq = A.tensor_square

    def triple_modulus(key):
        return alg.word_modulus(key[0] + key[1] + key[2])

    for w in words:
        checked += 1
        word_elem = alg.element({w: 1})
        pw = A.phi(word_elem)
        if phi_star_one(pw) != one_star_phi(pw):
            violations.append(f"Phi coassociativity fails on {format_word(w)}")
        if eps_star_one(pw) != word_elem or one_star_eps(pw) != word_elem:
            violations.append(f"Phi counit law fails on {format_word(w)}")
        expected = A.unit_counit(word_elem)
        if nu_star_one(pw) != expected:
            violations.append(f"left inverse law fails on {format_word(w)}")
        if one_star_nu(pw) != expected:
            violations.append(f"right inverse law fails on {format_word(w)}")
        # the induced coproduct: coassociative, counital
        dw = A.delta(word_elem)
        left: dict = {}
        right: dict = {}
        lct: dict = {}
        rct: dict = {}
        for (w1, w2), c in dw.terms.items():
            for (u, v), c2 in A.delta.word_image(w1).terms.items():
                key = (u, v, w2)
                left[key] = left.get(key, 0) + c * c2
            for (u, v), c2 in A.delta.word_image(w2).terms.items():
                key = (w1, u, v)
                right[key] = right.get(key, 0) + c * c2
            if not w1:
                lct[w2] = lct.get(w2, 0) + c
            if not w2:
                rct[w1] = rct.get(w1, 0) + c
        if _reduce_multi(left, triple_modulus) != _reduce_multi(right, triple_modulus):
            violations.append(f"coproduct coassociativity fails on {format_word(w)}")
        if alg.element(lct) != word_elem or alg.element(rct) != word_elem:
            violations.append(f"coproduct counit law fails on {format_word(w)}")

    # the coproduct restricts to the defining coalgebra on generators
    for g in A.module.generators:
        if g.degree > D:
            continue
        checked += 1
        want = sq.pure((g.name,), ()) + sq.pure((), (g.name,))
        for c, y, z in A.coalgebra.reduced_coproduct(g.name):
            want = want + sq.pure((y,), (z,), c)
        if A.delta(alg.generator(g.name)) != want:
            violations.append(
                f"coproduct does not restrict to the coalgebra on {g.name}"
            )

    return AxiomReport(checked, violations)


def _rename(elem, name_map: dict, target):
    terms = {}
    for w, c in elem.terms.items():
        nw = tuple(name_map[l] for l in w)
        terms[nw] = terms.get(nw, 0) + c
    return target.element(terms)


def is_cogroup_morphism(
    f: AlgebraMorphism, A: Cogroup, B: Cogroup, truncation: int | None = None
) -> bool:
    """Whether f intertwines the comultiplications: Phi_B . f = (f * f) . Phi_A.

    Checked on generators, which suffices because both sides are algebra
    morphisms out of the source.
    """
    if f.source != A.algebra or f.target != B.algebra:
        raise ValueError("morphism does not run between the underlying algebras")
    D = A.truncation if truncation is None else min(truncation, A.truncation)
    almap, armap = A.square_product.name_maps
    blmap, brmap = B.square_product.name_maps
    prod_b = B.square_product.algebra
    f_star_f = AlgebraMorphism(
        A.square_product.algebra,
        prod_b,
        {
            **{
                almap[n]: _rename(f.images[n], blmap, prod_b)
                for n in f.images
            },
            **{
                armap[n]: _rename(f.images[n], brmap, prod_b)
                for n in f.images
            },
        },
        check=False,
    )
    for g in A.module.generators:
        if g.degree > D:
            continue
        lhs = B.phi(f(A.algebra.generator(g.name)))
        rhs = f_star_f(A.phi(A.algebra.generator(g.name)))
        if lhs != rhs:
            return False
    return True
