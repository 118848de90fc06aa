"""Seeded job lists for the three workloads.

A job list is fixed in shape: the same commands, ring kinds, generator
degrees, coproduct families and truncations for every seed, so that its
cost does not depend on the seed.  The seed chooses what leaves the cost
alone:

- generator names (two characters each);
- the scale of each coproduct table: a unit (+-1) over Z and Z/n, and
  +-1 or +-2 over Q and F_p.  Rescaling x_n -> s^(n-1) x_n turns the
  scale-1 table into the scale-s one, so every seed sees the same words
  and the same term counts;
- the prime of every F_p job, from 10007 to 32749, so that no
  coefficient of a table vanishes and residues stay one machine word;
- the order of the jobs within a pass.

Coproduct families, all coassociative by construction (and checked
before use):

- primitive: every generator primitive, so chi is the signed reversal;
- deconcatenation: x_n -> s * sum_{0<i<n} x_i (x) x_{n-i};
- binomial: x_n -> s * sum_{0<i<n} C(n, i) x_i (x) x_{n-i}.

Generators of a table carry no annihilator; torsion enters through the
ring or through primitive generators.
"""

from __future__ import annotations

import random
from math import comb

from oracle import Job, Presentation

WORKLOADS = ("axioms", "antipode", "surjectivity")

# The same over every workload: one small job per command, so that every
# layer is called, and timed, on every workload.
_PROBES = (
    ("check-cogroup", "Z", "prim", (2, 3), 6),
    ("check-hopf", "Q", "deconc", (1, 2), 6),
    ("antipode", "Fp", "binom", (2, 4), 8),
    ("inverse", "Zmod 8", "deconc", (1, 2), 6),
    ("nu-eq-chi", "Z", "prim", ((1, 0), (2, 3)), 6),
    ("classify", "Zmod 6", "prim", ((2, 2), (3, 3)), 6),
    ("check-surjective", "Z", "deconc", (1, 2), 6),
    ("check-surjective", "Fp", "prim", (1, 2), 6),
)

# command, ring, family, generators, truncation.  Generators are degrees
# (a table family chains them as x_1, ..., x_k) or (degree, ann) pairs.
_JOBS = {
    "axioms": (
        ("check-cogroup", "Z", "prim", (1,), 6),
        ("check-cogroup", "Z", "prim", ((1, 0), (2, 4)), 6),
        ("check-cogroup", "Z", "prim", (1, 3), 6),
        ("check-cogroup", "Z", "prim", (1, 2), 6),
        ("check-cogroup", "Z", "prim", (2, 3), 8),
        ("check-cogroup", "Z", "deconc", (1, 2), 5),
        ("check-cogroup", "Z", "deconc", (1, 2, 3), 5),
        ("check-cogroup", "Z", "binom", (2, 4), 8),
        ("check-cogroup", "Q", "prim", (1,), 6),
        ("check-cogroup", "Q", "prim", (1, 2), 6),
        ("check-cogroup", "Q", "prim", (1, 3), 6),
        ("check-cogroup", "Q", "prim", (2, 3), 8),
        ("check-cogroup", "Q", "deconc", (1, 2, 3), 5),
        ("check-cogroup", "Q", "binom", (2, 4), 8),
        ("check-cogroup", "Q", "binom", (1, 2, 3), 5),
        ("check-cogroup", "Zmod 4", "prim", (1,), 6),
        ("check-cogroup", "Zmod 4", "prim", ((1, 0), (3, 2)), 6),
        ("check-cogroup", "Zmod 8", "prim", ((1, 0), (2, 4)), 6),
        ("check-cogroup", "Zmod 9", "deconc", (1, 2), 5),
        ("check-cogroup", "Zmod 9", "binom", (1, 2, 3), 5),
        ("check-cogroup", "Fp", "prim", (1,), 6),
        ("check-cogroup", "Fp", "prim", (1, 2), 6),
        ("check-cogroup", "Fp", "prim", (2, 2, 3), 8),
        ("check-cogroup", "Fp", "deconc", (1, 2), 5),
        ("check-cogroup", "Fp", "binom", (2, 4, 6), 10),
    ),
    "antipode": (
        ("antipode", "Q", "prim", (1,), 10),
        ("antipode", "Q", "prim", (1, 1, 2), 6),
        ("antipode", "Q", "deconc", (1, 2, 3), 7),
        ("antipode", "Z", "prim", (1, 2), 10),
        ("antipode", "Z", "deconc", (1, 2, 3), 8),
        ("antipode", "Zmod 4", "prim", (1, 1, 2), 6),
        ("antipode", "Zmod 9", "binom", (1, 2, 3), 7),
        ("antipode", "Fp", "deconc", (1, 2, 3), 7),
        ("inverse", "Q", "deconc", (1, 2, 3), 8),
        ("inverse", "Q", "prim", (1, 1, 2), 7),
        ("inverse", "Z", "prim", (1, 1, 2), 6),
        ("inverse", "Zmod 9", "deconc", (1, 2, 3), 8),
        ("inverse", "Fp", "binom", (1, 2, 3), 8),
        ("nu-eq-chi", "Z", "deconc", (1, 2, 3), 7),
        ("nu-eq-chi", "Q", "binom", (1, 2, 3), 7),
        ("nu-eq-chi", "Zmod 4", "prim", ((1, 0), (3, 2)), 8),
        ("nu-eq-chi", "Fp", "prim", (2,), 10),
        ("nu-eq-chi", "Fp", "deconc", (1, 2, 3), 7),
        ("check-hopf", "Z", "deconc", (1, 2, 3), 7),
        ("check-hopf", "Z", "prim", (1, 1, 2), 5),
        ("check-hopf", "Q", "prim", (1, 2), 8),
        ("check-hopf", "Q", "deconc", (1, 2, 3), 7),
        ("check-hopf", "Zmod 9", "deconc", (1, 2), 8),
        ("check-hopf", "Fp", "binom", (1, 2), 8),
        ("classify", "Z", "deconc", (1, 2, 3), 7),
        ("classify", "Q", "binom", (2, 4), 10),
        ("classify", "Q", "prim", (1, 2), 8),
        ("classify", "Zmod 4", "prim", ((2, 0),), 10),
        ("classify", "Zmod 9", "binom", (1, 2, 3), 6),
        ("classify", "Zmod 9", "deconc", (1, 2, 3), 7),
        ("classify", "Fp", "prim", (1, 2), 6),
        ("classify", "Fp", "deconc", (1, 2, 3), 7),
    ),
    "surjectivity": (
        ("check-surjective", "Z", "prim", (1, 1, 2), 5),
        ("check-surjective", "Z", "prim", ((1, 0), (1, 0), (2, 3)), 5),
        ("check-surjective", "Z", "prim", (2, 2, 2), 8),
        ("check-surjective", "Z", "prim", (1, 2, 2), 7),
        ("check-surjective", "Z", "prim", ((2, 0), (2, 0), (2, 6)), 8),
        ("check-surjective", "Z", "prim", ((1, 0), (2, 4)), 9),
        ("check-surjective", "Z", "deconc", (1, 2, 3), 7),
        ("check-surjective", "Zmod 4", "prim", ((1, 0), (2, 2)), 9),
        ("check-surjective", "Zmod 4", "prim", (2, 2, 2), 8),
        ("check-surjective", "Zmod 8", "prim", (1, 1, 2), 5),
        ("check-surjective", "Zmod 8", "prim", (2, 2, 2), 8),
        ("check-surjective", "Zmod 9", "prim", (2, 2, 2), 8),
        ("check-surjective", "Zmod 9", "deconc", (1, 2, 3), 7),
        ("check-surjective", "Q", "prim", (1, 1, 2), 5),
        ("check-surjective", "Q", "prim", (2, 2, 2), 8),
        ("check-surjective", "Q", "deconc", (1, 2, 3), 7),
        ("check-surjective", "Q", "binom", (2, 4, 6), 12),
        ("check-surjective", "Fp", "prim", (1, 1, 2), 6),
        ("check-surjective", "Fp", "prim", (2, 2, 2, 2), 8),
        ("check-surjective", "Fp", "deconc", (1, 2, 3), 7),
        ("check-surjective", "Fp", "binom", (1, 2, 3), 7),
    ),
}

# Fp 3317044064679887385961981 is psi_13 = 1287836182261 * 2575672364521,
# a composite that 12 Miller-Rabin bases take for a prime.  The command
# must refuse the ring with exit 2; the input does not depend on the seed.
_REFUSAL = Job(
    key="refuse-composite-Fp",
    command="classify",
    pres=Presentation("Fp", 3317044064679887385961981, (("x", 2, 0),)),
    top=6,
    expect_refusal=True,
)


_PRIMES = tuple(p for p in range(10007, 32750, 2) if all(p % d for d in range(3, 182, 2)))


def _presentation(rng: random.Random, ring: str, family: str, gens) -> Presentation:
    kind, _, arg = ring.partition(" ")
    modulus = int(arg) if arg else 0
    if kind == "Fp":
        modulus = rng.choice(_PRIMES)
    names = rng.sample([a + b for a in "abcdefghjkmnpqrstuvw" for b in "0123456789"], len(gens))
    if family == "prim":
        spec = [(g, 0) if isinstance(g, int) else g for g in gens]
        return Presentation(kind, modulus, tuple((nm, d, a) for nm, (d, a) in zip(names, spec)))
    scale = rng.choice((1, -1) if kind in ("Z", "Zmod") else (1, -1, 2, -2))
    table = {}
    for n in range(2, len(gens) + 1):
        table[names[n - 1]] = tuple(
            (scale * (comb(n, i) if family == "binom" else 1), names[i - 1], names[n - i - 1])
            for i in range(1, n)
        )
    return Presentation(kind, modulus, tuple((nm, d, 0) for nm, d in zip(names, gens)), table)


def jobs(workload: str, seed: int) -> list:
    """The job list of one pass; the refusal probe rides on ``antipode``."""
    rng = random.Random(f"{workload}:{seed}")
    specs = _JOBS[workload] + _PROBES
    out = []
    for i, (command, ring, family, gens, top) in enumerate(specs):
        pres = _presentation(rng, ring, family, gens)
        kind = "probe" if i >= len(_JOBS[workload]) else "job"
        out.append(Job(f"{kind}{i:02d}-{command}-{ring.split()[0]}-D{top}", command, pres, top, as_json=i % 2 == 1))
    if workload == "antipode":
        out.append(_REFUSAL)
    rng.shuffle(out)
    return out
