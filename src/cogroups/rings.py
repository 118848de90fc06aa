"""Exact coefficient rings.

Supported base rings: the integers Z, the rationals Q, the modular rings
Z/n for n >= 2 (composite n is legal), and prime fields F_p.  Ring elements
are plain Python values in the canonical form the algebra stores: ``int``
for Z and for an integral rational, a ``Fraction`` only for a non-integral
one, and residues in ``[0, n)`` for Z/n and F_p.  A ``RingSpec`` names the
ring and brings values into that form; it never wraps them, so equality
of elements is ordinary equality of canonical representatives.

All integer arithmetic is unbounded; nothing here ever rounds.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from operator import attrgetter

_KINDS = ("Z", "Q", "Zmod", "Fp")

# Miller-Rabin on the first k primes as bases is deterministic below psi_k,
# the least strong pseudoprime to all of them (Jaeschke, Math. Comp. 61
# (1993); Sorenson and Webster, Math. Comp. 86 (2017)).  psi_7 = psi_8 and
# psi_9 = psi_10 = psi_11; psi_13 = 1287836182261 * 2575672364521 is the bound.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_CERTIFICATION_BOUND = 3317044064679887385961981
_MR_PSI = (
    2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383, 341550071728321,
    341550071728321, 3825123056546413051, 3825123056546413051, 3825123056546413051,
    318665857834031151167461, PRIME_CERTIFICATION_BOUND,
)


def is_prime(n: int) -> bool:
    """Certified primality below ``PRIME_CERTIFICATION_BOUND``.

    Miller-Rabin runs on the first k bases for the least k with n < psi_k:
    2 for a 5-digit n.  Raises ``ValueError`` at or above the bound, where
    the 13 bases used here no longer decide primality.
    """
    if n >= PRIME_CERTIFICATION_BOUND:
        raise ValueError(
            f"{n} is at or above {PRIME_CERTIFICATION_BOUND}, the bound below "
            "which primality is certified"
        )
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES[:bisect_right(_MR_PSI, n) + 1]:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def value_eq(*fields):
    """An ``__eq__`` comparing ``fields``; another class gives NotImplemented."""
    key = attrgetter(*fields)
    return lambda self, other: (
        key(self) == key(other) if other.__class__ is self.__class__ else NotImplemented
    )


def frozen_value(cls):
    """Make ``cls`` an immutable value over its two or more ``__slots__``,
    which its ``__init__`` sets with ``object.__setattr__``: equal slots give
    equal objects and hashes, and ``repr`` is ``Name(field=value, ...)``."""
    fields = cls.__slots__
    key = attrgetter(*fields)

    def __repr__(self):
        args = ", ".join(f"{f}={v!r}" for f, v in zip(fields, key(self)))
        return f"{self.__class__.__qualname__}({args})"

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    cls.__eq__, cls.__repr__ = value_eq(*fields), __repr__
    cls.__hash__ = lambda self: hash(key(self))
    cls.__reduce__ = lambda self: (self.__class__, key(self))  # copies call __init__
    cls.__setattr__ = cls.__delattr__ = __setattr__
    return cls


@frozen_value
class RingSpec:
    """Immutable value: one of Z, Q, Z/n, F_p; ``modulus`` is n (resp. p), 0 for Z, Q."""

    __slots__ = ("kind", "modulus")

    def __init__(self, kind: str, modulus: int = 0):
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "modulus", modulus)
        if kind not in _KINDS:
            raise ValueError(f"unknown ring kind {kind!r}")
        if kind == "Zmod":
            if modulus < 2:
                raise ValueError("Zmod modulus must be >= 2")
        elif kind == "Fp":
            if not is_prime(modulus):
                raise ValueError(f"Fp modulus {modulus} is not prime")
        elif modulus != 0:
            raise ValueError(f"{kind} takes no modulus")

    @classmethod
    def integers(cls) -> "RingSpec":
        return cls("Z")

    @classmethod
    def rationals(cls) -> "RingSpec":
        return cls("Q")

    @classmethod
    def integers_mod(cls, n: int) -> "RingSpec":
        return cls("Zmod", n)

    @classmethod
    def prime_field(cls, p: int) -> "RingSpec":
        return cls("Fp", p)

    def characteristic(self) -> int:
        """0 for Z and Q, n for Z/n, p for F_p."""
        return self.modulus

    def is_field(self) -> bool:
        return self.kind in ("Q", "Fp")

    def normalize(self, value):
        """The canonical value of ``value``, as the algebra stores it: an
        ``int`` for an integral value over Z and Q (``True`` is 1), a
        ``Fraction`` only for a non-integral rational, a residue over Z/n and F_p."""
        if isinstance(value, Fraction):
            if value.denominator != 1:
                if self.kind == "Q":
                    return value
                raise TypeError(f"{value} is not an element of {self}")
            value = value.numerator
        if not isinstance(value, int):
            raise TypeError(f"cannot coerce {type(value).__name__} into {self}")
        return value % self.modulus if self.modulus else int(value)

    def legal_annihilator(self, a: int) -> bool:
        """Whether ``a`` may annihilate a cyclic summand over this ring.

        0 always means a free summand.  Over Z/n the annihilator must
        divide n; over a field only 0 is allowed.
        """
        if not isinstance(a, int) or a < 0:
            return False
        if a == 0:
            return True
        if self.is_field():
            return False
        if self.kind == "Zmod":
            return self.modulus % a == 0
        return True  # Z

    def __str__(self):
        if self.kind in ("Zmod", "Fp"):
            return f"{self.kind} {self.modulus}"
        return self.kind
