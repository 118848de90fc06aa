"""The cogroup and coalgebra laws through the free products, for the tests.

``check_axioms_on`` is the tests' oracle for ``check_cogroup_axioms``,
which substitutes into the terms of Phi on the unit and the generators:
it builds A * A * A, applies the composite morphisms (Phi * 1) Phi,
(1 * Phi) Phi, (eps * 1) Phi, (nu * 1) Phi and their mirrors to
Phi(w) for any list of words, and checks pi . Phi through ``folded_phi``.
``coproduct_report`` is the oracle for ``check_coalgebra_axioms``, which
reads the laws off the table: it runs ``coproduct_laws`` on D's image of
every generator.
"""

import cogroups as cg
from cogroups.coalgebra import coproduct_laws, coproduct_morphism


def folded_phi(A) -> cg.AlgebraMorphism:
    """pi . Phi, where pi : A * A -> A (x) A is a' -> a (x) 1, a'' -> 1 (x) a."""
    lmap, rmap = A.square_product.name_maps
    sq = A.tensor_square
    names = [g.name for g in A.module.generators if g.degree <= A.truncation]
    pi_images = {lmap[n]: sq.pure((n,), ()) for n in names}
    pi_images.update({rmap[n]: sq.pure((), (n,)) for n in names})
    pi = cg.AlgebraMorphism(A.square_product.algebra, sq, pi_images, check=False)
    images = {name: pi(img) for name, img in A.phi.images.items()}
    return cg.AlgebraMorphism(A.algebra, sq, images, check=False)


def check_axioms_on(A, D: int, words) -> cg.AxiomReport:
    """The cogroup laws on each of ``words``, and D on the coalgebra."""
    alg = A.algebra
    prod = A.square_product.algebra
    triple = cg.free_product(alg, alg, alg)
    lmap, rmap = A.square_product.name_maps

    names = tuple(A.phi.images)
    T = triple.algebra

    def from_slots(target, left: dict, right: dict) -> cg.AlgebraMorphism:
        """The map out of A * A with x' -> left[x] and x'' -> right[x]."""
        images = {lmap[n]: left[n] for n in names}
        images.update({rmap[n]: right[n] for n in names})
        return cg.AlgebraMorphism(prod, target, images, check=False)

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
            violations.append(f"Phi coassociativity fails on {cg.format_word(w)}")
        if eps_star_one(pw) != word_elem or one_star_eps(pw) != word_elem:
            violations.append(f"Phi counit law fails on {cg.format_word(w)}")
        expected = A.unit_counit(word_elem)
        if nu_star_one(pw) != expected:
            violations.append(f"left inverse law fails on {cg.format_word(w)}")
        if one_star_nu(pw) != expected:
            violations.append(f"right inverse law fails on {cg.format_word(w)}")
        # the induced coproduct: coassociative, counital
        coassociative, left, right = coproduct_laws(A.delta, w)
        if not coassociative:
            violations.append(f"coproduct coassociativity fails on {cg.format_word(w)}")
        if not (left and right):
            violations.append(f"coproduct counit law fails on {cg.format_word(w)}")

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

    return cg.AxiomReport(checked, violations)


def coproduct_report(delta) -> cg.AxiomReport:
    """``coproduct_laws`` on every generator that D has an image for."""
    laws = ("coassociativity", "left counit law", "right counit law")
    violations = []
    for x in delta.images:
        for holds, law in zip(coproduct_laws(delta, (x,)), laws):
            if not holds:
                violations.append(f"{law} fails on {x}")
    return cg.AxiomReport(len(delta.images), violations)


def table_report(C, truncation: int) -> cg.AxiomReport:
    """``coproduct_report`` on the D of C's table at ``truncation``."""
    sq = cg.TensorSquare(cg.TruncatedTensorAlgebra(C.module, truncation))
    return coproduct_report(coproduct_morphism(C, sq))
