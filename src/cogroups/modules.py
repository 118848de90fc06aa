"""Finitely presented positively graded modules.

A module is a finite direct sum of cyclic pieces R/(a), each placed in a
single positive degree and carried by a named generator.  Annihilator 0
means a free summand.  The key predicate here is locality: a module is
"locally at most singly generated" when at every maximal ideal of the
base ring its localization is either zero or a single cyclic piece whose
degree is even unless the local cyclic quotient has characteristic 2.
Over a field this collapses to: zero, or one free generator in an even
degree (any degree in characteristic 2).

That predicate is exactly what makes the tensor algebra on the module
graded commutative; the algebra layer rechecks that directly and the two
must always agree.
"""

from __future__ import annotations

from .rings import RingSpec, frozen_value


@frozen_value
class CyclicGenerator:
    __slots__ = ("name", "degree", "annihilator")

    def __init__(self, name: str, degree: int, annihilator: int = 0):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "annihilator", annihilator)
        if not name:
            raise ValueError("generator needs a nonempty name")
        if degree < 1:
            raise ValueError(f"generator {name}: degree must be >= 1")
        if annihilator < 0:
            raise ValueError(f"generator {name}: annihilator must be >= 0")


@frozen_value
class GradedModulePresentation:
    __slots__ = ("ring", "generators")

    def __init__(self, ring: RingSpec, generators: tuple):
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "generators", tuple(generators))
        seen = set()
        for g in self.generators:
            if g.name in seen:
                raise ValueError(f"duplicate generator name {g.name!r}")
            seen.add(g.name)
            if not ring.legal_annihilator(g.annihilator):
                raise ValueError(
                    f"generator {g.name}: annihilator {g.annihilator} "
                    f"is not legal over {ring}"
                )

    def names(self):
        return tuple(g.name for g in self.generators)

    def generator(self, name: str) -> CyclicGenerator:
        for g in self.generators:
            if g.name == name:
                return g
        raise KeyError(name)

    def degree_of(self, name: str) -> int:
        return self.generator(name).degree

    def effective_annihilator(self, name: str) -> int:
        """The modulus actually felt by the generator's coefficients.

        A free generator over Z/n is still n-torsion, so 0 annihilators
        fall back to the ring characteristic.
        """
        g = self.generator(name)
        return g.annihilator or self.ring.characteristic()

    def max_degree(self) -> int:
        return max((g.degree for g in self.generators), default=0)


class LocalityResult:
    __slots__ = ("ok", "witness")

    def __init__(self, ok: bool, witness: str | None):
        self.ok, self.witness = ok, witness


def _prime_factors(n: int):
    out = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def is_locally_at_most_singly_generated(mod: GradedModulePresentation) -> LocalityResult:
    """Decide the locality condition, with a human-readable witness on failure.

    Over Z and Z/n the check runs through the primes of the effective
    annihilators (free summands over Z live at every prime).  The parity
    exemption applies only when the local cyclic quotient is exactly Z/2;
    Z/4 has characteristic 4, which is not 2.
    """
    ring = mod.ring
    gens = [g for g in mod.generators if (g.annihilator or ring.characteristic()) != 1]
    if ring.is_field():
        if len(gens) > 1:
            a, b = gens[0].name, gens[1].name
            return LocalityResult(False, f"generators {a} and {b} are both nonzero locally")
        if gens and gens[0].degree % 2 and ring.characteristic() != 2:
            g = gens[0]
            return LocalityResult(
                False,
                f"generator {g.name} has odd degree {g.degree} "
                f"over characteristic {ring.characteristic()}",
            )
        return LocalityResult(True, None)

    free = [g for g in gens if (g.annihilator or ring.characteristic()) == 0]
    support: dict[int, list] = {}
    for g in gens:
        eff = g.annihilator or ring.characteristic()
        if eff == 0:
            continue
        for p, v in _prime_factors(eff).items():
            support.setdefault(p, []).append((g, p**v))

    if len(free) >= 2:
        return LocalityResult(
            False,
            f"prime 2: generators {free[0].name} and {free[1].name} are both nonzero locally",
        )
    if free and support:
        p = min(support)
        other = support[p][0][0]
        return LocalityResult(
            False,
            f"prime {p}: generators {free[0].name} and {other.name} are both nonzero locally",
        )
    if free:
        g = free[0]
        if g.degree % 2:
            return LocalityResult(
                False,
                f"generator {g.name} has odd degree {g.degree} and free local quotients "
                "of characteristic 0",
            )
        return LocalityResult(True, None)

    for p in sorted(support):
        entries = support[p]
        if len(entries) > 1:
            a, b = entries[0][0].name, entries[1][0].name
            return LocalityResult(
                False, f"prime {p}: generators {a} and {b} are both nonzero locally"
            )
        g, q = entries[0]
        if g.degree % 2 and q != 2:
            return LocalityResult(
                False,
                f"generator {g.name} has odd degree {g.degree} and local quotient Z/{q}",
            )
    return LocalityResult(True, None)


def is_admissible_free_cyclic(mod: GradedModulePresentation) -> bool:
    """Over a field: zero, or one free generator whose degree is even
    unless the characteristic is 2."""
    if not mod.ring.is_field():
        raise ValueError("this membership test is defined over fields only")
    gens = mod.generators
    if not gens:
        return True
    if len(gens) > 1:
        return False
    return gens[0].degree % 2 == 0 or mod.ring.characteristic() == 2
