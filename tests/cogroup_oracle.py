"""The cogroup and coalgebra laws through the free products, for the tests.

The library keeps Phi as slot terms and D as pair dicts, and builds no
free product and no tensor square; this module is the reference path
that does.  ``free_product`` presents A_1 * ... * A_k as the tensor
algebra on a direct sum with disjoint names, and ``phi_morphism`` turns
Phi's slot terms into an algebra map A -> A * A.  ``TensorSquare`` is
A (x) A as an element parent, with the Koszul-signed product and each
coefficient reduced modulo the modulus of its pair, and
``coproduct_morphism`` extends a table's D to the algebra map
A -> A (x) A.  ``check_axioms_on`` is the tests' oracle for
``check_cogroup_axioms``, which substitutes into the terms of Phi on the
unit and the generators: it builds A * A * A, applies the composite
morphisms (Phi * 1) Phi, (1 * Phi) Phi, (eps * 1) Phi, (nu * 1) Phi and
their mirrors to Phi(w) for any list of words, runs D's laws on each
word through ``delta_morphism``, and checks pi . Phi through
``folded_phi``.  ``is_cogroup_morphism_on_free_products`` is the oracle
for ``is_cogroup_morphism``: it applies f * f : A * A -> B * B.
``coproduct_report`` is the oracle for ``check_coalgebra_axioms``, which
reads the laws off the table: it runs ``word_coproduct_laws`` on D's
image of every generator.  ``phi_by_table_walk`` is the oracle for
``Cogroup.phi``, which reads Phi off D's pairs: it walks the table and
reduces each slot term modulo the modulus of its word.
"""

from collections import Counter
from math import gcd

import cogroups as cg
from cogroups.algebra import _reduce_terms
from cogroups.cogroup import _SlotWords
from convolution_oracle import WordMorphism


class TensorSquare:
    """A (x) A with the Koszul-signed multiplication, truncated by total degree."""

    def __init__(self, algebra: cg.TruncatedTensorAlgebra):
        self.algebra = algebra
        self.ring = algebra.ring
        self.truncation = algebra.truncation
        self.fixed_modulus = algebra.fixed_modulus

    def __eq__(self, other):
        return self is other or (
            isinstance(other, TensorSquare) and self.algebra == other.algebra
        )

    def degree(self, pair) -> int:
        wd = self.algebra.word_degree
        return wd(pair[0]) + wd(pair[1])

    def modulus(self, pair) -> int:
        wm = self.algebra.word_modulus
        return gcd(wm(pair[0]), wm(pair[1]))

    def mul_into(self, acc: dict, left: dict, right: dict, c=1) -> None:
        """acc += c * left * right with the Koszul sign, unreduced and truncated."""
        deg = self.algebra.word_degree
        top = self.truncation
        get = acc.get
        for (a1, b1), v1 in left.items():
            db = deg(b1)
            room = top - deg(a1) - db
            cv = c * v1
            for (a2, b2), v2 in right.items():
                da2 = deg(a2)
                if da2 + deg(b2) <= room:
                    p = (a1 + a2, b1 + b2)
                    acc[p] = get(p, 0) + (-cv * v2 if db * da2 % 2 else cv * v2)

    def sort_key(self, pair):
        key = self.algebra.sort_key
        return (key(pair[0]), key(pair[1]))

    def format_key(self, pair) -> str:
        fmt = self.algebra.format_key
        return f"{fmt(pair[0])}(x){fmt(pair[1])}"

    def element(self, terms: dict) -> cg.AlgebraElement:
        kept = {p: c for p, c in terms.items() if self.degree(p) <= self.truncation}
        return cg.AlgebraElement(self, kept)

    def one(self):
        return cg.AlgebraElement(self, {((), ()): 1})

    def pure(self, w1, w2, c=1):
        return self.element({(w1, w2): c})


def coproduct_morphism(C, sq: TensorSquare) -> WordMorphism:
    """D : A -> sq = A (x) A with D(x) = x (x) 1 + Dbar(x) + 1 (x) x."""
    alg = sq.algebra
    images = {}
    for g in C.module.generators:
        if g.degree > alg.truncation:
            continue
        x = (g.name,)
        terms = {(x, ()): 1, ((), x): 1}
        for c, y, z in C.table.get(g.name, ()):
            terms[((y,), (z,))] = c
        images[g.name] = cg.AlgebraElement(sq, terms)
    return WordMorphism(alg, sq, images)


def delta_morphism(A) -> WordMorphism:
    """The algebra map A -> A (x) A whose generator images are A.delta's pair dicts."""
    sq = TensorSquare(A.algebra)
    images = {n: sq.element(terms) for n, terms in A.delta.items()}
    return WordMorphism(A.algebra, sq, images)


def word_coproduct_laws(delta: WordMorphism, w) -> tuple:
    """(coassociative, left counital, right counital) for D : A -> A (x) A on
    any word w, as a map: (D (x) 1) D(w) and (1 (x) D) D(w) compared as
    triples of words, each coefficient reduced modulo the modulus of its
    letters."""
    alg = delta.source

    def image(v):  # the unit and generators are read off, with no degree filled
        if not v:
            return {((), ()): 1}
        return delta.images[v[0]].terms if len(v) == 1 else delta.image(v).terms

    def reduced(terms):
        out = {}
        for key, c in terms.items():
            m = alg.word_modulus(sum(key, ()))
            c = c % m if m else c
            if c:
                out[key] = c
        return out

    want = {} if alg.word_modulus(w) == 1 else {w: 1}  # w, or 0 where its modulus is 1
    dw = image(w) if want else {}
    left: dict = {}
    right: dict = {}
    for (w1, w2), c in dw.items():
        for (u, v), c2 in image(w1).items():
            key = (u, v, w2)
            left[key] = left.get(key, 0) + c * c2
        for (u, v), c2 in image(w2).items():
            key = (w1, u, v)
            right[key] = right.get(key, 0) + c * c2
    return (
        reduced(left) == reduced(right),
        cg.AlgebraElement(alg, {w2: c for (w1, w2), c in dw.items() if not w1}).terms == want,
        cg.AlgebraElement(alg, {w1: c for (w1, w2), c in dw.items() if not w2}).terms == want,
    )


def renaming_morphism(source, target, name_map: dict) -> WordMorphism:
    images = {
        n: target.generator(name_map.get(n, n))
        for n in source.module.names()
        if source.module.degree_of(n) <= source.truncation
    }
    return WordMorphism(source, target, images)


class FreeProduct:
    """T(M_1) * ... * T(M_k) presented as the tensor algebra on M_1 (+) ... (+) M_k.

    ``inclusions[i]`` embeds factor i, and ``name_maps[i]`` sends its
    generator names to their names in the product.  A name found in more
    than one factor gets i + 1 primes in factor i, so A * A has the slots
    x' and x'', and A * A * A adds a third slot with three primes.
    """

    def __init__(self, algebra, inclusions, name_maps):
        self.algebra = algebra
        self.inclusions = inclusions
        self.name_maps = name_maps


def free_product(*factors: cg.TruncatedTensorAlgebra) -> FreeProduct:
    if not factors:
        raise ValueError("free product needs at least one factor")
    first = factors[0]
    for f in factors[1:]:
        if f.ring != first.ring:
            raise ValueError("free product needs a common base ring")
        if f.truncation != first.truncation:
            raise ValueError("free product factors must share the truncation degree")
    module, name_maps = disjoint_sum([f.module for f in factors])
    prod = cg.TruncatedTensorAlgebra(module, first.truncation)
    inclusions = tuple(
        renaming_morphism(f, prod, nm) for f, nm in zip(factors, name_maps)
    )
    return FreeProduct(prod, inclusions, name_maps)


def _fresh(name: str, taken: set) -> str:
    while name in taken:
        name = name + "'"
    return name


def _merge_names(*factors):
    """Disjointify k name tuples, one name map per factor.

    A name that occurs in more than one factor gets i + 1 primes in
    factor i (more while the result is taken); other names are kept.
    """
    counts = Counter(n for names in factors for n in names)
    taken = set(counts)
    maps = []
    for i, names in enumerate(factors):
        nm = {}
        for n in names:
            nm[n] = n if counts[n] == 1 else _fresh(n + "'" * (i + 1), taken)
            taken.add(nm[n])
        maps.append(nm)
    return tuple(maps)


def disjoint_sum(modules):
    """The direct sum of ``modules`` with disjoint names, and the name maps."""
    name_maps = _merge_names(*(m.names() for m in modules))
    gens = tuple(
        cg.CyclicGenerator(nm[g.name], g.degree, g.annihilator)
        for m, nm in zip(modules, name_maps)
        for g in m.generators
    )
    return cg.GradedModulePresentation(modules[0].ring, gens), name_maps


def square_product(A) -> FreeProduct:
    """A * A, where x' and x'' are the copies of x in slots 0 and 1."""
    return free_product(A.algebra, A.algebra)


def phi_by_table_walk(A) -> dict:
    """Phi on generators as slot terms, x -> x' + x'' + sum c y' z'' over the
    table's Dbar(x), for each generator up to A's truncation."""
    slots, images = _SlotWords(A.algebra), {}
    for g in A.module.generators:
        if g.degree > A.truncation:
            continue
        x = g.name
        terms = {((x,), (0,)): 1, ((x,), (1,)): 1}
        for c, y, z in A.coalgebra.table.get(x, ()):
            key = ((y, z), (0, 1))
            terms[key] = terms.get(key, 0) + c
        images[x] = _reduce_terms(slots, terms)
    return images


def phi_morphism(A, square: FreeProduct) -> WordMorphism:
    """Phi : A -> A * A, the algebra map whose generator images are A.phi's
    slot terms, the letter x in slot s read as ``square.name_maps[s][x]``."""
    prod = square.algebra
    images = {
        n: prod.element({
            tuple(square.name_maps[s][x] for x, s in zip(word, slots)): c
            for (word, slots), c in terms.items()
        })
        for n, terms in A.phi.items()
    }
    return WordMorphism(A.algebra, prod, images)


def folded_phi(A) -> WordMorphism:
    """pi . Phi, where pi : A * A -> A (x) A is a' -> a (x) 1, a'' -> 1 (x) a."""
    square = square_product(A)
    lmap, rmap = square.name_maps
    sq = TensorSquare(A.algebra)
    names = [g.name for g in A.module.generators if g.degree <= A.truncation]
    pi_images = {lmap[n]: sq.pure((n,), ()) for n in names}
    pi_images.update({rmap[n]: sq.pure((), (n,)) for n in names})
    pi = WordMorphism(square.algebra, sq, pi_images)
    images = {name: pi(img) for name, img in phi_morphism(A, square).images.items()}
    return WordMorphism(A.algebra, sq, images)


def folded_delta(A) -> dict:
    """pi . Phi on generators as pair dicts, the form of ``Cogroup.delta``."""
    return {n: img.terms for n, img in folded_phi(A).images.items()}


def check_axioms_on(A, D: int, words) -> cg.AxiomReport:
    """The cogroup laws on each of ``words``, and D on the coalgebra."""
    alg = A.algebra
    square = square_product(A)
    prod = square.algebra
    triple = free_product(alg, alg, alg)
    lmap, rmap = square.name_maps
    phi = phi_morphism(A, square)
    delta = delta_morphism(A)

    names = tuple(A.phi)
    T = triple.algebra

    def from_slots(target, left: dict, right: dict) -> WordMorphism:
        """The map out of A * A with x' -> left[x] and x'' -> right[x]."""
        images = {lmap[n]: left[n] for n in names}
        images.update({rmap[n]: right[n] for n in names})
        return WordMorphism(prod, target, images)

    slots = [incl.images for incl in triple.inclusions]  # x -> its copy in slot k
    # the renamings of A * A onto slots (0, 1) and (1, 2) of A * A * A
    shifts = [from_slots(T, slots[k], slots[k + 1]) for k in (0, 1)]
    phis = [{n: shift(phi.images[n]) for n in names} for shift in shifts]
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
        pw = phi(word_elem)
        if phi_star_one(pw) != one_star_phi(pw):
            violations.append(f"Phi coassociativity fails on {cg.format_word(w)}")
        if eps_star_one(pw) != word_elem or one_star_eps(pw) != word_elem:
            violations.append(f"Phi counit law fails on {cg.format_word(w)}")
        expected = alg.scalar(word_elem.coefficient(()))  # eta . eps
        if nu_star_one(pw) != expected:
            violations.append(f"left inverse law fails on {cg.format_word(w)}")
        if one_star_nu(pw) != expected:
            violations.append(f"right inverse law fails on {cg.format_word(w)}")
        # the induced coproduct: coassociative, counital
        coassociative, left, right = word_coproduct_laws(delta, w)
        if not coassociative:
            violations.append(f"coproduct coassociativity fails on {cg.format_word(w)}")
        if not (left and right):
            violations.append(f"coproduct counit law fails on {cg.format_word(w)}")

    # pi . Phi restricts to the defining coalgebra on generators
    want = coproduct_morphism(A.coalgebra, TensorSquare(alg)).images
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


def is_cogroup_morphism_on_free_products(f, A, B, truncation=None) -> bool:
    """Phi_B . f = (f * f) . Phi_A on generators, with Phi_A and Phi_B as
    maps into A * A and B * B and f * f : A * A -> B * B."""
    if f.source != A.algebra or f.target != B.algebra:
        raise ValueError("morphism does not run between the underlying algebras")
    D = A.truncation if truncation is None else min(truncation, A.truncation)
    sa, sb = square_product(A), square_product(B)
    f_star_f = WordMorphism(
        sa.algebra,
        sb.algebra,
        {
            anm[n]: incl(f.images[n])
            for anm, incl in zip(sa.name_maps, sb.inclusions)
            for n in f.images
        },
    )
    phi_a, phi_b = phi_morphism(A, sa), phi_morphism(B, sb)
    for g in A.module.generators:
        if g.degree > D:
            continue
        lhs = phi_b(f(A.algebra.generator(g.name)))
        rhs = f_star_f(phi_a(A.algebra.generator(g.name)))
        if lhs != rhs:
            return False
    return True


def coproduct_report(delta) -> cg.AxiomReport:
    """``word_coproduct_laws`` on every generator that D has an image for."""
    laws = ("coassociativity", "left counit law", "right counit law")
    violations = []
    for x in delta.images:
        for holds, law in zip(word_coproduct_laws(delta, (x,)), laws):
            if not holds:
                violations.append(f"{law} fails on {x}")
    return cg.AxiomReport(len(delta.images), violations)


def table_report(C, truncation: int) -> cg.AxiomReport:
    """``coproduct_report`` on the D of C's table at ``truncation``."""
    sq = TensorSquare(cg.TruncatedTensorAlgebra(C.module, truncation))
    return coproduct_report(coproduct_morphism(C, sq))
