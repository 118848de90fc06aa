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
Koszul-signed tensor square, the coalgebra's ``coproduct_morphism``;
A * A, Phi and pi are built only for the axiom check.

The axiom suite checks coassociativity of Phi, the counit laws, both
inverse laws, and that D is coassociative and counital (the coalgebra's
``coproduct_laws``) and pi . Phi restricts to the defining coalgebra
(its ``coproduct_morphism``).  Each law equates two algebra morphisms
out of A, so it is checked on the unit and the generators only; the
same check on all words up to the truncation is the test suite's oracle.
"""

from __future__ import annotations

from functools import cached_property

from .algebra import (
    AlgebraMorphism,
    FreeProduct,
    TensorSquare,
    TruncatedTensorAlgebra,
    format_word,
    free_product,
)
from .coalgebra import (
    AxiomReport,
    CoalgebraPresentation,
    coproduct_laws,
    coproduct_morphism,
    coproduct_report,
)
from .convolution import CoalgebraSource, GradedMap, convolution_inverse


class Cogroup:
    """Tensor-algebra cogroup on the positive part of a coalgebra.

    A * A, the tensor square, Phi, nu and D are built on first read.
    ``phi`` and ``nu`` can be supplied explicitly to build broken fixtures;
    by default they are derived from the coalgebra table.  D comes from
    the table too, unless a ``phi`` was supplied: then D = pi . phi.
    Treat instances as immutable; internal caches only ever grow.
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
        self._phi_supplied = phi is not None
        if phi is not None:
            self.phi = phi
        if nu is not None:
            self.nu = nu
        self._reduced_cache: dict = {}

    # -- construction -------------------------------------------------

    @cached_property
    def square_product(self) -> FreeProduct:  # A * A
        return free_product(self.algebra, self.algebra)

    @cached_property
    def tensor_square(self) -> TensorSquare:  # A (x) A
        return TensorSquare(self.algebra)

    @cached_property
    def phi(self) -> AlgebraMorphism:
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

    @cached_property
    def nu(self) -> AlgebraMorphism:
        """nu on generators: the convolution inverse of the inclusion C -> A.

        ``convolution_inverse`` runs g(x) = -x - sum c_i y_i * g(z_i) over
        the coalgebra table; its images are the generator images.
        """
        alg = self.algebra
        names = [g.name for g in self.module.generators if g.degree <= self.truncation]
        inclusion = GradedMap(
            CoalgebraSource(self.coalgebra, self.truncation),
            alg,
            {name: alg.generator(name) for name in names},
            check=False,
        )
        inverse = convolution_inverse(inclusion)
        return AlgebraMorphism(alg, alg, {name: inverse.image(name) for name in names})

    @cached_property
    def delta(self) -> AlgebraMorphism:
        """D : A -> A (x) A, from the table, or pi . phi for a supplied phi."""
        if self._phi_supplied:
            return folded_phi(self)
        return coproduct_morphism(self.coalgebra, self.tensor_square)

    # -- counit and coproduct -----------------------------------------

    def counit(self, elem):
        return elem.coefficient(())

    def unit_counit(self, elem):
        """eta . eps applied to an element of the underlying algebra."""
        return self.algebra.scalar(elem.coefficient(()))

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
    """Build the cogroup on T(C+); the coalgebra axioms are checked on its D."""
    A = Cogroup(C, truncation)
    report = coproduct_report(A.delta)
    if not report.ok:
        raise ValueError(f"coalgebra axioms fail: {report}")
    return A


def folded_phi(A: Cogroup) -> AlgebraMorphism:
    """pi . Phi, where pi : A * A -> A (x) A is a' -> a (x) 1, a'' -> 1 (x) a."""
    lmap, rmap = A.square_product.name_maps
    sq = A.tensor_square
    names = [g.name for g in A.module.generators if g.degree <= A.truncation]
    pi_images = {lmap[n]: sq.pure((n,), ()) for n in names}
    pi_images.update({rmap[n]: sq.pure((), (n,)) for n in names})
    pi = AlgebraMorphism(A.square_product.algebra, sq, pi_images, check=False)
    images = {name: pi(img) for name, img in A.phi.images.items()}
    return AlgebraMorphism(A.algebra, sq, images, check=False)


def fold(A: Cogroup) -> AlgebraMorphism:
    """A * A -> A collapsing both tags onto the original generators."""
    images = {}
    for nm in A.square_product.name_maps:
        for name, tagged in nm.items():
            if A.module.degree_of(name) <= A.truncation:
                images[tagged] = A.algebra.generator(name)
    return AlgebraMorphism(A.square_product.algebra, A.algebra, images, check=False)


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
    triple = free_product(alg, alg, alg)
    lmap, rmap = A.square_product.name_maps

    names = tuple(A.phi.images)
    T = triple.algebra

    def from_slots(target, left: dict, right: dict) -> AlgebraMorphism:
        """The map out of A * A with x' -> left[x] and x'' -> right[x]."""
        images = {lmap[n]: left[n] for n in names}
        images.update({rmap[n]: right[n] for n in names})
        return AlgebraMorphism(prod, target, images, check=False)

    slots = [incl.images for incl in triple.inclusions]  # x -> its copy in slot k
    # the renamings of A * A onto slots (0, 1) and (1, 2) of A * A * A
    shifts = [from_slots(T, slots[k], slots[k + 1]) for k in (0, 1)]
    phis = [{n: shift(A.phi.images[n]) for n in names} for shift in shifts]
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
        coassociative, left, right = coproduct_laws(A.delta, w)
        if not coassociative:
            violations.append(f"coproduct coassociativity fails on {format_word(w)}")
        if not (left and right):
            violations.append(f"coproduct counit law fails on {format_word(w)}")

    # pi . Phi restricts to the defining coalgebra on generators
    want = coproduct_morphism(A.coalgebra, A.tensor_square).images
    pi_phi = folded_phi(A)
    for g in A.module.generators:
        if g.degree > D:
            continue
        checked += 1
        if pi_phi(alg.generator(g.name)) != want[g.name]:
            violations.append(
                f"coproduct does not restrict to the coalgebra on {g.name}"
            )

    return AxiomReport(checked, violations)


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
    f_star_f = AlgebraMorphism(
        A.square_product.algebra,
        B.square_product.algebra,
        {
            anm[n]: incl(f.images[n])
            for anm, incl in zip(A.square_product.name_maps, B.square_product.inclusions)
            for n in f.images
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
