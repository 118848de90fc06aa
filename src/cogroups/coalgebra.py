"""Connected graded coalgebras presented on module generators.

A presentation stores, for each generator x, the reduced coproduct
Dbar(x) = sum c_i * y_i (x) z_i with y_i, z_i generators of positive
degree adding up to deg x.  The full coproduct is then
D(x) = x (x) 1 + Dbar(x) + 1 (x) x, and D(1) = 1 (x) 1.

Each Dbar(x) is reduced as an element of the tensor square of A = T(C+),
and ``coproduct_morphism`` extends D to the algebra morphism
A -> A (x) A.  ``check_coalgebra_axioms`` reads the laws off the table:
coassociativity on x is sum c Dbar(y) (x) z = sum c y (x) Dbar(z) over
the terms c y (x) z of Dbar(x), and the counit laws always hold.
``coproduct_laws`` checks them on one word of any D : A -> A (x) A, as
the cogroup layer does on its own D.  Cocommutativity is invariance of
Dbar under the signed twist y (x) z -> (-1)^{|y||z|} z (x) y.
"""

from __future__ import annotations

from .algebra import (
    AlgebraElement,
    AlgebraMorphism,
    TensorSquare,
    TruncatedTensorAlgebra,
    _reduce_terms,
)
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
        self._square = sq = TensorSquare(
            TruncatedTensorAlgebra(module, module.max_degree())
        )
        order = {n: i for i, n in enumerate(module.names())}
        normalized: dict = {}
        for name, entries in (table or {}).items():
            x = module.generator(name)  # raises KeyError on unknown names
            combined: dict = {}
            for c, y, z in entries:
                gy = module.generator(y)
                gz = module.generator(z)
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
                key = ((y,), (z,))
                combined[key] = combined.get(key, 0) + int(c)
            dbar = _reduce_terms(sq, combined)
            a = x.annihilator
            for key, c in dbar.items():
                if a and _reduce_terms(sq, {key: a * c}):
                    raise ValueError(
                        f"coproduct of {name}: coefficient {c} at {sq.format_key(key)} "
                        f"is not compatible with annihilator {a}"
                    )
            if dbar:
                normalized[name] = tuple(sorted(
                    ((c, y, z) for ((y,), (z,)), c in dbar.items()),
                    key=lambda t: (order[t[1]], order[t[2]]),
                ))
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


def coproduct_morphism(C: CoalgebraPresentation, sq: TensorSquare) -> AlgebraMorphism:
    """D : A -> sq = A (x) A with D(x) = x (x) 1 + Dbar(x) + 1 (x) x."""
    alg = sq.algebra
    images = {}
    for g in C.module.generators:
        if g.degree > alg.truncation:
            continue
        x = (g.name,)
        terms = {(x, ()): 1, ((), x): 1}
        for c, y, z in C.reduced_coproduct(g.name):
            terms[((y,), (z,))] = c
        images[g.name] = AlgebraElement(sq, terms)
    return AlgebraMorphism(alg, sq, images, check=False)


def coproduct_laws(delta: AlgebraMorphism, w) -> tuple:
    """(coassociative, left counital, right counital) for D : A -> A (x) A on w.

    (D (x) 1) D(w) and (1 (x) D) D(w) are compared as triples of words,
    each coefficient reduced modulo the modulus of its letters.
    """
    alg = delta.source
    want = {} if alg.word_modulus(w) == 1 else {w: 1}  # w, or 0 where its modulus is 1
    dw = delta.image(w).terms if want else {}
    left: dict = {}
    right: dict = {}
    for (w1, w2), c in dw.items():
        for (u, v), c2 in delta.image(w1).terms.items():
            key = (u, v, w2)
            left[key] = left.get(key, 0) + c * c2
        for (u, v), c2 in delta.image(w2).terms.items():
            key = (w1, u, v)
            right[key] = right.get(key, 0) + c * c2
    return (
        _reduce_triples(alg, left) == _reduce_triples(alg, right),
        _reduce_terms(alg, {w2: c for (w1, w2), c in dw.items() if not w1}) == want,
        _reduce_terms(alg, {w1: c for (w1, w2), c in dw.items() if not w2}) == want,
    )


def _reduce_triples(alg: TruncatedTensorAlgebra, terms: dict) -> dict:
    """Each coefficient at (u, v, w) reduced modulo the modulus of u.v.w."""
    out = {}
    for (u, v, w), c in terms.items():
        m = alg.word_modulus(u + v + w)
        c = c % m if m else c
        if c:
            out[(u, v, w)] = c
    return out


def check_coalgebra_axioms(C: CoalgebraPresentation, truncation: int) -> AxiomReport:
    """Coassociativity on the generators of degree <= truncation, off the table.

    On x, (D (x) 1) D(x) - (1 (x) D) D(x) = sum c (Dbar(y) (x) z - y (x) Dbar(z))
    over the terms c y (x) z of Dbar(x).  The counit laws, which hold for
    every table, count in ``checked``.  Failures are reported, not raised.
    """
    alg = C._square.algebra  # a word's modulus does not depend on the truncation
    gens = [g.name for g in C.module.generators if g.degree <= truncation]
    violations = []
    for x in gens:
        diff: dict = {}
        for c, y, z in C.table.get(x, ()):
            for c2, u, v in C.table.get(y, ()):
                key = ((u,), (v,), (z,))
                diff[key] = diff.get(key, 0) + c * c2
            for c2, u, v in C.table.get(z, ()):
                key = ((y,), (u,), (v,))
                diff[key] = diff.get(key, 0) - c * c2
        if _reduce_triples(alg, diff):
            violations.append(f"coassociativity fails on {x}")
    return AxiomReport(len(gens), violations)


def is_cocommutative(C: CoalgebraPresentation) -> bool:
    """Invariance of every reduced coproduct under the signed twist."""
    deg = C.module.degree_of
    for dbar in C.table.values():
        straight = {((y,), (z,)): c for c, y, z in dbar}
        twisted = {
            ((z,), (y,)): -c if deg(y) * deg(z) % 2 else c for c, y, z in dbar
        }
        if AlgebraElement(C._square, straight) != AlgebraElement(C._square, twisted):
            return False
    return True
