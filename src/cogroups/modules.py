"""Finitely presented positively graded modules.

A module is a finite direct sum of cyclic pieces R/(a), each placed in a
single positive degree and carried by a named generator.  Annihilator 0
means a free summand.  The key predicate here is locality: a module is
"locally at most singly generated" when at every maximal ideal of the
base ring its localization is either zero or a single cyclic piece whose
degree is even unless the local cyclic quotient has characteristic 2.
Over a field this collapses to: zero, or one free generator in an even
degree (any degree in characteristic 2).  Over Z and Z/n pairwise gcds
decide it with no factoring: two generators are both nonzero at exactly
the primes of the gcd of their effective annihilators, and a torsion
generator of odd degree passes alone exactly when that annihilator is 2.
Trial division only names the prime of a failing witness, and only below
``TRIAL_DIVISION_BOUND``: past it the witness names the gcd instead.

That predicate is exactly what makes the tensor algebra on the module
graded commutative; the algebra layer rechecks that directly and the two
must always agree.
"""

from __future__ import annotations

from math import gcd

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


# trial division names a witness's prime only below this bound
TRIAL_DIVISION_BOUND = 10**5


def _least_prime_divisor(numbers) -> int | None:
    """The least prime that divides one of ``numbers``, each > 1, in one
    trial-division pass that stops at it, or at ``TRIAL_DIVISION_BOUND``.
    With no divisor below the bound, a number below the bound's square is
    prime, and when every number is, the least of them is the answer; a
    larger number may hide a prime factor above the bound, and then the
    answer is None."""
    top = max(numbers)
    d = 2
    while d * d <= top:
        if d >= TRIAL_DIVISION_BOUND:
            return None
        if any(n % d == 0 for n in numbers):
            return d
        d += 1 if d == 2 else 2
    return min(numbers)  # no divisor up to sqrt(top): every number is prime


def is_locally_at_most_singly_generated(mod: GradedModulePresentation) -> LocalityResult:
    """Decide the locality condition, with a human-readable witness on failure."""
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

    # free generators first (annihilator 0, only over Z), then torsion
    eff = sorted(((g, g.annihilator or ring.characteristic()) for g in gens), key=lambda e: e[1] != 0)
    if len(eff) == 1 and eff[0][1] == 0 and eff[0][0].degree % 2:
        g = eff[0][0]
        return LocalityResult(
            False,
            f"generator {g.name} has odd degree {g.degree} and free local quotients "
            "of characteristic 0",
        )
    # (n, a, b): a and b are both nonzero at the primes of n (two free ones
    # at every prime); (n, g, None): g is odd, and n is its annihilator less
    # a lone factor 2 (Z/2 is exempt, Z/4 is not).  Pairs win a tie at p.
    cands = [(n or 2, a, b) for i, (a, m) in enumerate(eff) for b, k in eff[i + 1 :] if (n := gcd(m, k)) != 1]
    cands += [(n, g, None) for g, m in eff if m and g.degree % 2 and (n := m // 2 if m % 4 == 2 else m) > 1]
    if not cands:
        return LocalityResult(True, None)
    p = _least_prime_divisor([c[0] for c in cands])
    if p is None:  # no prime below the bound: name the gcd of the first failure
        n, a, b = cands[0]
        if b is not None:
            return LocalityResult(
                False, f"primes of {n}: generators {a.name} and {b.name} are both nonzero locally"
            )
        return LocalityResult(
            False, f"generator {a.name} has odd degree {a.degree} and local quotients "
            f"other than Z/2 at the primes of {n}"
        )
    n, a, b = next(c for c in cands if c[0] % p == 0)
    if b is not None:
        return LocalityResult(
            False, f"prime {p}: generators {a.name} and {b.name} are both nonzero locally"
        )
    q = p  # the power of p in n, which is its power in a's annihilator
    while n % (q * p) == 0:
        q *= p
    return LocalityResult(
        False, f"generator {a.name} has odd degree {a.degree} and local quotient Z/{q}"
    )


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
