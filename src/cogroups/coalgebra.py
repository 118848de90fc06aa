"""Connected graded coalgebras presented on module generators.

A presentation stores, for each generator x, the reduced coproduct
Dbar(x) = sum c_i * y_i (x) z_i with y_i, z_i generators of positive
degree adding up to deg x.  The full coproduct is then
D(x) = x (x) 1 + Dbar(x) + 1 (x) x, and D(1) = 1 (x) 1.

The tensor square of A = T(C+) is never built.  Its elements are pair
dicts {(left word, right word): c}, which the algebra's ``_reduce_terms``
reduces: each coefficient modulo the modulus of the word left.right,
gcd(char, ann of its letters), as it reduces the table's coefficient at
y (x) z modulo ``CoalgebraPresentation.modulus``, gcd(char, ann y, ann z).
``coproduct_pairs`` is D on the generators as pair dicts; the cogroup
layer multiplies them.  ``check_coalgebra_axioms`` reads the laws off
the table: coassociativity on x is sum c Dbar(y) (x) z = sum c y (x)
Dbar(z) over the terms c y (x) z of Dbar(x), and the counit laws always
hold.  Cocommutativity is invariance of Dbar under the signed twist
y (x) z -> (-1)^{|y||z|} z (x) y.
"""

from __future__ import annotations

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

    fixed_modulus = None  # as a ``_reduce_terms`` parent, each key reads ``modulus``

    def __init__(self, module: GradedModulePresentation, table: dict | None = None):
        self.module = module
        self.ring = module.ring
        self._gens = gens = {g.name: g for g in module.generators}
        order = {n: i for i, n in enumerate(gens)}
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
            reduced = _reduce_terms(self, combined)
            a = x.annihilator
            offenders = a and _reduce_terms(self, {k: a * c for k, c in reduced.items()})
            if offenders:
                y, z = next(iter(offenders))
                raise ValueError(
                    f"coproduct of {name}: coefficient {reduced[y, z]} at {y}(x){z} "
                    f"is not compatible with annihilator {a}"
                )
            if reduced:
                dbar = [(c, y, z) for (y, z), c in reduced.items()]
                normalized[name] = tuple(sorted(dbar, key=lambda t: (order[t[1]], order[t[2]])))
        self.table = normalized

    def modulus(self, names) -> int:
        """gcd of the characteristic and the annihilators of the named
        generators: the modulus of a coefficient at their tensor."""
        return gcd(self.ring.characteristic(), *(self._gens[n].annihilator for n in names))

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
    """D on the algebra's generators, as pair dicts:
    x -> x (x) 1 + 1 (x) x + sum c y (x) z over the table's Dbar(x)."""
    images = {}
    for g in algebra.generators:
        x = (g.name,)
        terms = {(x, ()): 1, ((), x): 1}
        for c, y, z in C.table.get(g.name, ()):
            terms[((y,), (z,))] = c
        images[g.name] = _reduce_terms(algebra, terms)
    return images


def check_coalgebra_axioms(C: CoalgebraPresentation, truncation: int) -> AxiomReport:
    """Coassociativity on the generators of degree <= truncation, off the table.

    On x, (D (x) 1) D(x) - (1 (x) D) D(x) = sum c (Dbar(y) (x) z - y (x) Dbar(z))
    over the terms c y (x) z of Dbar(x), each triple u (x) v (x) w reduced
    modulo ``C.modulus``, gcd(char, ann u, ann v, ann w).  The counit laws,
    which hold for every table, count in ``checked``.  Failures are
    reported, not raised.
    """
    gens = [g.name for g in C.module.generators if g.degree <= truncation]
    violations = []
    for x in gens:
        diff: dict = {}
        for c, y, z in C.table.get(x, ()):
            for c2, u, v in C.table.get(y, ()):
                diff[u, v, z] = diff.get((u, v, z), 0) + c * c2
            for c2, u, v in C.table.get(z, ()):
                diff[y, u, v] = diff.get((y, u, v), 0) - c * c2
        if _reduce_terms(C, diff):
            violations.append(f"coassociativity fails on {x}")
    return AxiomReport(len(gens), violations)


def is_cocommutative(C: CoalgebraPresentation) -> bool:
    """Invariance of every reduced coproduct under the signed twist, each
    twisted coefficient at z (x) y reduced modulo ``C.modulus``,
    gcd(char, ann y, ann z)."""
    deg = C.module.degree_of
    for dbar in C.table.values():
        twisted = {(z, y): -c if deg(y) * deg(z) % 2 else c for c, y, z in dbar}
        if _reduce_terms(C, twisted) != {(y, z): c for c, y, z in dbar}:
            return False
    return True
