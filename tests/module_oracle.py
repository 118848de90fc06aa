"""Locality by primary decomposition: the oracle of the gcd test.

``modules.is_locally_at_most_singly_generated`` decides locality from
pairwise gcds of the effective annihilators and factors only to name
the prime of a failing witness.  This is the direct reading of the
definition it replaces: factor every effective annihilator completely
by trial division, then walk the primes in increasing order and look at
the local pieces.  Use it on small annihilators only.
"""

from cogroups.modules import LocalityResult


def prime_factors(n: int):
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


def locality_by_factoring(mod) -> LocalityResult:
    """Over Z and Z/n the check runs through the primes of the effective
    annihilators (free summands over Z live at every prime).  The parity
    exemption applies only when the local cyclic quotient is exactly Z/2;
    Z/4 has characteristic 4, which is not 2."""
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
        for p, v in prime_factors(eff).items():
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
