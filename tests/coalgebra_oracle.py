"""Generator-name coalgebra arithmetic: the tests' oracle for ``coalgebra``.

This is the presentation-level implementation that ``cogroups.coalgebra``
used before its tables and laws were computed as tensor-square elements.
Keys are generator names, with ``None`` for the unit, and every slot
reduces modulo the gcd of the ring characteristic and its letters'
annihilators.  It shares no arithmetic with the package: only the
module presentation is read from it.
"""

from functools import partial
from math import gcd


class OraclePresentation:
    """Module plus reduced-coproduct table; the table is normalized on build."""

    def __init__(self, module, table=None):
        self.module = module
        self.ring = module.ring
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
                combined[(y, z)] = combined.get((y, z), 0) + int(c)
            terms = []
            for (y, z), c in combined.items():
                m = self._pair_modulus(y, z)
                c = int(c) % m if m else int(c)
                if not c:
                    continue
                a = x.annihilator
                if a and ((a * c) % m if m else a * c):
                    raise ValueError(
                        f"coproduct of {name}: coefficient {c} at {y}(x){z} is not "
                        f"compatible with annihilator {a}"
                    )
                terms.append((c, y, z))
            if terms:
                order = {n: i for i, n in enumerate(module.names())}
                terms.sort(key=lambda t: (order[t[1]], order[t[2]]))
                normalized[name] = tuple(terms)
        self.table = normalized

    def _pair_modulus(self, y: str, z: str) -> int:
        m = self.ring.characteristic()
        m = gcd(m, self.module.generator(y).annihilator)
        return gcd(m, self.module.generator(z).annihilator)


def _delta_full(C, key):
    """Full coproduct of a generator (or of 1, keyed by None)."""
    if key is None:
        return ((1, None, None),)
    out = [(1, key, None), (1, None, key)]
    out.extend(C.table.get(key, ()))
    return out


def _slot_modulus(C, keys) -> int:
    m = C.ring.characteristic()
    for k in keys:
        if k is not None:
            m = gcd(m, C.module.generator(k).annihilator)
    return m


def _reduce_multi(table: dict, modulus) -> dict:
    """Each coefficient reduced modulo ``modulus(key)``; zeros dropped."""
    out = {}
    for keys, c in table.items():
        m = modulus(keys)
        c = c % m if m else c
        if c:
            out[keys] = c
    return out


def check_coalgebra_axioms(C, truncation: int):
    """(checked, violations): coassociativity and counit laws on generators."""
    modulus = partial(_slot_modulus, C)
    checked = 0
    violations = []
    for g in C.module.generators:
        if g.degree > truncation:
            continue
        x = g.name
        checked += 1
        left: dict = {}
        right: dict = {}
        for c, a, b in _delta_full(C, x):
            for c2, u, v in _delta_full(C, a):
                key = (u, v, b)
                left[key] = left.get(key, 0) + c * c2
            for c2, u, v in _delta_full(C, b):
                key = (a, u, v)
                right[key] = right.get(key, 0) + c * c2
        if _reduce_multi(left, modulus) != _reduce_multi(right, modulus):
            violations.append(f"coassociativity fails on {x}")
        # counit laws: contract the unit slot of D(x)
        lcounit: dict = {}
        rcounit: dict = {}
        for c, a, b in _delta_full(C, x):
            if a is None:
                lcounit[(b,)] = lcounit.get((b,), 0) + c
            if b is None:
                rcounit[(a,)] = rcounit.get((a,), 0) + c
        want = _reduce_multi({(x,): 1}, modulus)
        if _reduce_multi(lcounit, modulus) != want:
            violations.append(f"left counit law fails on {x}")
        if _reduce_multi(rcounit, modulus) != want:
            violations.append(f"right counit law fails on {x}")
    return checked, violations


def is_cocommutative(C) -> bool:
    """Invariance of every reduced coproduct under the signed twist."""
    modulus = partial(_slot_modulus, C)
    for g in C.module.generators:
        table: dict = {}
        twisted: dict = {}
        for c, y, z in C.table.get(g.name, ()):
            table[(y, z)] = table.get((y, z), 0) + c
            dy = C.module.degree_of(y)
            dz = C.module.degree_of(z)
            s = -c if (dy * dz) % 2 else c
            twisted[(z, y)] = twisted.get((z, y), 0) + s
        if _reduce_multi(table, modulus) != _reduce_multi(twisted, modulus):
            return False
    return True
