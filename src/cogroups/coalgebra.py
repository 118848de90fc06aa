"""Connected graded coalgebras presented on module generators.

A presentation stores, for each generator x, the reduced coproduct
Dbar(x) = sum c_i * y_i (x) z_i with y_i, z_i generators of positive
degree adding up to deg x.  The full coproduct is then
D(x) = x (x) 1 + Dbar(x) + 1 (x) x, and D(1) = 1 (x) 1.

The tensor square of A = T(C+) is never built.  Its elements are pair
dicts {(left word, right word): c}, each coefficient reduced modulo the
modulus of the word left.right, gcd(char, ann of its letters), as each
coefficient of Dbar(x) at y (x) z is reduced modulo gcd(char, ann y,
ann z).  ``coproduct_pairs`` is D on the generators as pair dicts, and
``_pair_product`` multiplies them with the Koszul sign
(a (x) b)(p (x) q) = (-1)^{|b||p|} ap (x) bq.
``check_coalgebra_axioms`` reads the laws off the table: coassociativity
on x is sum c Dbar(y) (x) z = sum c y (x) Dbar(z) over the terms
c y (x) z of Dbar(x), and the counit laws always hold.  ``coproduct_laws``
checks them on the unit or a generator for any D given on generators,
as the cogroup layer does on its own D.  Cocommutativity is invariance
of Dbar under the signed twist y (x) z -> (-1)^{|y||z|} z (x) y.
"""

from __future__ import annotations

from functools import reduce
from math import gcd

from .algebra import TruncatedTensorAlgebra, _reduce_terms
from .modules import GradedModulePresentation


class AxiomReport:
    __slots__ = ("checked", "violations")

    def __init__(self, checked: int, violations: list):
        self.checked, self.violations = checked, violations

    @property
    def ok(self) -> bool:
        return not self.violations

    def __str__(self):
        if self.ok:
            return f"ok ({self.checked} checks)"
        lines = "\n  ".join(self.violations)
        return f"{len(self.violations)} violation(s) in {self.checked} checks:\n  {lines}"


class CoalgebraPresentation:
    """Module plus reduced-coproduct table; the table is normalized on build."""

    def __init__(self, module: GradedModulePresentation, table: dict | None = None):
        self.module = module
        self.ring = module.ring
        gens = {g.name: g for g in module.generators}
        order = {n: i for i, n in enumerate(gens)}
        char = self.ring.characteristic()
        normalized: dict = {}
        for name, entries in (table or {}).items():
            x = gens[name]  # raises KeyError on unknown names
            combined: dict = {}
            for c, y, z in entries:
                gy, gz = gens[y], gens[z]
                if gy.degree + gz.degree != x.degree:
                    raise ValueError(
                        f"coproduct of {name}: term {y}(x){z} has degree "
                        f"{gy.degree + gz.degree}, expected {x.degree}"
                    )
                if c != int(c):
                    raise ValueError(
                        f"coproduct of {name}: coefficient {c} at {y}(x){z} "
                        "is not an integer"
                    )
                key = (y, z)
                combined[key] = combined.get(key, 0) + int(c)
            a = x.annihilator
            dbar = []
            for (y, z), c in combined.items():
                m = gcd(char, gens[y].annihilator, gens[z].annihilator)
                if m:
                    c %= m
                if not c:
                    continue
                if a and (a * c % m if m else a * c):
                    raise ValueError(
                        f"coproduct of {name}: coefficient {c} at {y}(x){z} "
                        f"is not compatible with annihilator {a}"
                    )
                dbar.append((c, y, z))
            if dbar:
                normalized[name] = tuple(sorted(dbar, key=lambda t: (order[t[1]], order[t[2]])))
        self.table = normalized

    def reduced_coproduct(self, name: str):
        self.module.generator(name)
        return self.table.get(name, ())

    def is_primitive(self, name: str) -> bool:
        return not self.reduced_coproduct(name)

    def __eq__(self, other):
        return (
            isinstance(other, CoalgebraPresentation)
            and self.module == other.module
            and self.table == other.table
        )

    def __repr__(self):
        return f"CoalgebraPresentation({self.module.ring}, {len(self.module.generators)} generators)"


def trivial_coalgebra(module: GradedModulePresentation) -> CoalgebraPresentation:
    """Every generator primitive: D(x) = x (x) 1 + 1 (x) x."""
    return CoalgebraPresentation(module, {})


def coproduct_pairs(C: CoalgebraPresentation, algebra: TruncatedTensorAlgebra) -> dict:
    """D on the generators of degree <= the algebra's truncation, as pair
    dicts: x -> x (x) 1 + 1 (x) x + sum c y (x) z over the table's Dbar(x)."""
    images = {}
    for g in C.module.generators:
        if g.degree > algebra.truncation:
            continue
        x = (g.name,)
        terms = {(x, ()): 1, ((), x): 1}
        for c, y, z in C.table.get(g.name, ()):
            terms[((y,), (z,))] = c
        images[g.name] = _reduce_tensors(algebra, terms)
    return images


def _pair_product(factors, degree) -> dict:
    """The product of pair dicts, 1 (x) 1 for none, with the Koszul sign and
    unreduced; ``degree`` is a word's degree."""
    out = {((), ()): 1}
    for right in factors:
        acc: dict = {}
        get = acc.get
        for (a, b), v1 in out.items():
            odd = degree(b) % 2
            for (p, q), v2 in right.items():
                key = (a + p, b + q)
                acc[key] = get(key, 0) + (-v1 * v2 if odd and degree(p) % 2 else v1 * v2)
        out = acc
    return out


def coproduct_laws(algebra: TruncatedTensorAlgebra, delta: dict, w) -> tuple:
    """(coassociative, left counital, right counital) for D on the unit or
    a generator w, with D on generators given by the pair dicts ``delta``.

    D is extended to the words of D(w) as an algebra map, a word's image
    the product of its letters' images.  (D (x) 1) D(w) and (1 (x) D) D(w)
    are compared as triples of words, each coefficient reduced modulo the
    modulus of its letters.
    """

    def image(v):
        return _pair_product((delta[letter] for letter in v), algebra.word_degree)

    want = {} if algebra.word_modulus(w) == 1 else {w: 1}  # w, or 0 where its modulus is 1
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
        _reduce_tensors(algebra, left) == _reduce_tensors(algebra, right),
        _reduce_terms(algebra, {w2: c for (w1, w2), c in dw.items() if not w1}) == want,
        _reduce_terms(algebra, {w1: c for (w1, w2), c in dw.items() if not w2}) == want,
    )


def _reduce_tensors(algebra: TruncatedTensorAlgebra, terms: dict) -> dict:
    """Each coefficient at a tuple of words, such as (u, v) or (u, v, w),
    reduced modulo the modulus of their concatenation; zeros dropped."""
    fixed, modulus = algebra.fixed_modulus, algebra.word_modulus
    out = {}
    for key, c in terms.items():
        m = fixed if fixed is not None else reduce(gcd, map(modulus, key))
        if m:
            c %= m
        if c:
            out[key] = c
    return out


def check_coalgebra_axioms(C: CoalgebraPresentation, truncation: int) -> AxiomReport:
    """Coassociativity on the generators of degree <= truncation, off the table.

    On x, (D (x) 1) D(x) - (1 (x) D) D(x) = sum c (Dbar(y) (x) z - y (x) Dbar(z))
    over the terms c y (x) z of Dbar(x), each triple u (x) v (x) w reduced
    modulo gcd(char, ann u, ann v, ann w).  The counit laws, which hold for
    every table, count in ``checked``.  Failures are reported, not raised.
    """
    ann = {g.name: g.annihilator for g in C.module.generators}
    char = C.ring.characteristic()
    gens = [g.name for g in C.module.generators if g.degree <= truncation]
    violations = []
    for x in gens:
        diff: dict = {}
        for c, y, z in C.table.get(x, ()):
            for c2, u, v in C.table.get(y, ()):
                key = (u, v, z)
                diff[key] = diff.get(key, 0) + c * c2
            for c2, u, v in C.table.get(z, ()):
                key = (y, u, v)
                diff[key] = diff.get(key, 0) - c * c2
        for (u, v, w), c in diff.items():
            m = gcd(char, ann[u], ann[v], ann[w])
            if c % m if m else c:
                violations.append(f"coassociativity fails on {x}")
                break
    return AxiomReport(len(gens), violations)


def is_cocommutative(C: CoalgebraPresentation) -> bool:
    """Invariance of every reduced coproduct under the signed twist, each
    twisted coefficient at z (x) y reduced modulo gcd(char, ann y, ann z)."""
    deg, char = C.module.degree_of, C.ring.characteristic()
    ann = {g.name: g.annihilator for g in C.module.generators}
    for dbar in C.table.values():
        twisted = {}
        for c, y, z in dbar:
            if deg(y) * deg(z) % 2:
                m = gcd(char, ann[y], ann[z])
                c = -c % m if m else -c
            twisted[(z, y)] = c
        if twisted != {(y, z): c for c, y, z in dbar}:
            return False
    return True
