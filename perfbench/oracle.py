"""Independent checks of the command line's outputs.

Nothing here imports ``cogroups``.  A presentation is re-described in
plain dicts, and every expected answer is computed by a route other than
the program's:

- the coproduct table is checked coassociative before it is used;
- nu is the algebra morphism with nu(x) = -x - sum c * y * nu(z) on
  generators, so nu(w) is the product of nu over the letters of w;
- chi is the graded anti-homomorphism that agrees with nu on generators:
  chi(a_1 ... a_n) = (-1)^{sum_{i<j} |a_i||a_j|} nu(a_n) ... nu(a_1);
- nu = chi, chi being multiplicative, graded commutativity and the
  module's locality all hold exactly when every pair of generators u, v
  graded-commutes, which is read off the word moduli: the word uv must
  vanish for u != v, and an odd-degree generator must have 2 x^2 = 0.

Coefficients are compared as exact values (int or Fraction), never as
strings.  ``check_output`` returns a list of problems; an empty list
means the output is right.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd

_NUMBER = re.compile(r"\d+(/\d+)?")


@dataclass(frozen=True)
class Presentation:
    """Ring, generators ``(name, degree, ann)`` and reduced-coproduct table."""

    kind: str  # "Z", "Q", "Zmod" or "Fp"
    modulus: int
    gens: tuple
    table: dict = field(default_factory=dict, hash=False)

    @property
    def ring(self) -> str:
        return f"{self.kind} {self.modulus}" if self.modulus else self.kind

    def is_field(self) -> bool:
        return self.kind in ("Q", "Fp")

    def text(self) -> str:
        lines = [f"ring {self.ring}"]
        for name, degree, ann in self.gens:
            lines.append(f"generator {name} degree {degree}" + (f" ann {ann}" if ann else ""))
        for name, terms in self.table.items():
            body = " + ".join(f"{c} {y} * {z}" for c, y, z in terms)
            lines.append(f"coproduct {name} = {body}")
        return "\n".join(lines) + "\n"

    def summaries(self) -> list:
        return [f"{n} degree {d}" + (f" ann {a}" if a else "") for n, d, a in self.gens]


def format_word(word) -> str:
    if not word:
        return "1"
    parts = []
    run = 1
    for i, letter in enumerate(word):
        if i + 1 < len(word) and word[i + 1] == letter:
            run += 1
            continue
        parts.append(letter if run == 1 else f"{letter}^{run}")
        run = 1
    return "*".join(parts)


class Algebra:
    """The truncated tensor algebra of a presentation, rebuilt from scratch."""

    def __init__(self, pres: Presentation, top: int):
        self.pres = pres
        self.top = top
        self.deg = {n: d for n, d, _ in pres.gens}
        self.ann = {n: a for n, _, a in pres.gens}
        self.char = pres.modulus

    def words(self, d: int) -> list:
        """Words of degree d, first letter major, generators in order."""
        if d == 0:
            return [()]
        return [
            (n,) + w for n, gd, _ in self.pres.gens if gd <= d for w in self.words(d - gd)
        ]

    def modulus(self, word) -> int:
        m = self.char
        for letter in word:
            m = gcd(m, self.ann[letter])
        return m

    def canonical(self, elem: dict) -> dict:
        out = {}
        for w, c in elem.items():
            m = self.modulus(w)
            c = c % m if m else (Fraction(c) if self.pres.kind == "Q" else c)
            if c:
                out[w] = c
        return out

    def mul(self, a: dict, b: dict) -> dict:
        out: dict = {}
        for w1, c1 in a.items():
            for w2, c2 in b.items():
                w = w1 + w2
                out[w] = out.get(w, 0) + c1 * c2
        if self.char:
            out = {w: c % self.char for w, c in out.items()}
        return out

    def nu_generators(self) -> dict:
        images: dict = {}

        def nu(x):
            if x not in images:
                img = {(x,): -1}
                for c, y, z in self.pres.table.get(x, ()):
                    for w, v in nu(z).items():
                        img[(y,) + w] = img.get((y,) + w, 0) - c * v
                images[x] = img
            return images[x]

        for name, _, _ in self.pres.gens:
            nu(name)
        return images

    def nu_words(self):
        """(word, nu(word)) for every word up to the top degree, in basis order."""
        gens = self.nu_generators()
        memo = {(): {(): 1}}
        for d in range(self.top + 1):
            for w in self.words(d):
                if w not in memo:
                    memo[w] = self.mul(memo[w[:-1]], gens[w[-1]])
                yield w, self.canonical(memo[w])

    def chi_words(self):
        """(word, chi(word)) for every word up to the top degree, in basis order."""
        gens = self.nu_generators()
        memo = {(): {(): 1}}  # reversed product nu(a_n) ... nu(a_1)
        for d in range(self.top + 1):
            for w in self.words(d):
                if w not in memo:
                    memo[w] = self.mul(memo[w[1:]], gens[w[0]])
                degs = [self.deg[a] for a in w]
                odd = sum(degs[i] * degs[j] for i in range(len(w)) for j in range(i + 1, len(w)))
                img = memo[w] if odd % 2 == 0 else {u: -c for u, c in memo[w].items()}
                yield w, self.canonical(img)

    def commutes(self, u: str, v: str) -> bool:
        m = self.modulus((u, v))
        if u != v:
            return m == 1
        return self.deg[u] % 2 == 0 or m in (1, 2)

    def commutative(self, top: int | None = None) -> bool:
        """Graded commutativity on generator pairs of degree sum <= top."""
        return all(
            self.commutes(u, v)
            for u, du, _ in self.pres.gens
            for v, dv, _ in self.pres.gens
            if top is None or du + dv <= top
        )


def coassociativity_problems(pres: Presentation) -> list:
    """(D (x) 1) D = (1 (x) D) D on every generator, reduced per slot."""
    alg = Algebra(pres, 0)
    problems = []

    def full(x):
        if x is None:
            return [(1, None, None)]
        return [(1, x, None), (1, None, x)] + list(pres.table.get(x, ()))

    for x, _, _ in pres.gens:
        diff: dict = {}
        for c, a, b in full(x):
            for c2, u, v in full(a):
                diff[(u, v, b)] = diff.get((u, v, b), 0) + c * c2
            for c2, u, v in full(b):
                diff[(a, u, v)] = diff.get((a, u, v), 0) - c * c2
        for slots, c in diff.items():
            m = alg.modulus(tuple(s for s in slots if s is not None))
            if (c % m if m else c):
                problems.append(f"table is not coassociative on {x} at {slots}")
                break
    return problems


@dataclass(frozen=True)
class Job:
    """One command line: the command, its input, and how it is rendered."""

    key: str
    command: str
    pres: Presentation
    top: int
    as_json: bool = False
    expect_refusal: bool = False

    def argv(self) -> list:
        return [self.command, "-", "--max-degree", str(self.top)] + (["--json"] if self.as_json else [])


def parse_element(text: str) -> dict:
    """Invert the program's rendering of an element: words to exact values."""
    if text == "0":
        return {}
    tokens = text.split(" ")
    items = [(-1, tokens[0][1:]) if tokens[0].startswith("-") else (1, tokens[0])]
    rest = tokens[1:]
    if len(rest) % 2:
        raise ValueError(f"unbalanced element {text!r}")
    for op, body in zip(rest[::2], rest[1::2]):
        if op not in ("+", "-"):
            raise ValueError(f"bad operator {op!r} in {text!r}")
        items.append((1 if op == "+" else -1, body))
    out: dict = {}
    for sign, body in items:
        factors = body.split("*")
        coeff = Fraction(1)
        if _NUMBER.fullmatch(factors[0]):
            coeff = Fraction(factors.pop(0))
        word: list = []
        for f in factors:
            name, _, power = f.partition("^")
            word.extend([name] * (int(power) if power else 1))
        if tuple(word) in out:
            raise ValueError(f"word repeated in {text!r}")
        out[tuple(word)] = sign * coeff
    return out


def parse_report(stdout: str, as_json: bool):
    """(header, verdicts, witnesses, exit code) from either rendering."""
    if as_json:
        doc = json.loads(stdout)
        header = (doc["command"], doc["ring"], list(doc["generators"]), doc["max_degree"])
        verdicts = [(v["name"], v["value"]) for v in doc["verdicts"]]
        return header, verdicts, list(doc["witnesses"]), doc["exit_code"]
    lines = stdout.rstrip("\n").split("\n")
    fields = [line.split(": ", 1) for line in lines]
    head = dict(fields[:4])
    gens = head["generators"]
    header = (
        head["command"],
        head["ring"],
        [] if gens == "(none)" else gens.split("; "),
        int(head["max-degree"]),
    )
    words = {"true": True, "false": False, "n/a": None}
    verdicts, witnesses = [], []
    for name, value in fields[4:-1]:
        if name == "witness":
            witnesses.append(value)
        else:
            verdicts.append((name, words.get(value, value)))
    if fields[-1][0] != "exit-code":
        raise ValueError("report does not end with exit-code")
    return header, verdicts, witnesses, int(fields[-1][1])


def expected_exit(job: Job) -> int:
    if job.expect_refusal:
        return 2
    if job.command == "nu-eq-chi":
        return 0 if Algebra(job.pres, job.top).commutative(job.top) else 1
    if job.command == "classify":
        alg = Algebra(job.pres, job.top)
        return 0 if alg.commutative(job.top) == alg.commutative() else 1
    return 0


def _expected_verdicts(job: Job) -> list:
    alg = Algebra(job.pres, job.top)
    D = job.top
    if job.command == "check-cogroup":
        return [("cogroup-axioms", True)]
    if job.command == "check-hopf":
        return [("hopf-antipode-laws", True)]
    if job.command == "check-surjective":
        return [(f"surjective-degree-{d}", True) for d in range(D + 1)] + [
            ("surjective-all-degrees", True)
        ]
    if job.command == "nu-eq-chi":
        return [("nu-eq-chi", alg.commutative(D))]
    if job.command == "classify":
        at_top, full = alg.commutative(D), alg.commutative()
        return [
            ("nu-eq-chi", at_top),
            ("chi-is-morphism", at_top),
            ("graded-commutative", full),
            ("locally-at-most-singly-generated", full),
            ("free-cyclic-admissible", full if job.pres.is_field() else None),
            ("consistent", at_top == full),
        ]
    raise ValueError(f"no verdict list for {job.command}")


def _table_problems(job: Job, verdicts: list) -> list:
    alg = Algebra(job.pres, job.top)
    label, images = ("chi", alg.chi_words()) if job.command == "antipode" else ("nu", alg.nu_words())
    problems = []
    count = 0
    for (name, value), (w, want) in zip(verdicts, images):
        count += 1
        if name != f"{label}({format_word(w)})":
            return [f"entry {count}: name {name!r}, expected {label}({format_word(w)})"]
        try:
            got = parse_element(value)
        except (TypeError, ValueError) as exc:
            return [f"{name}: unreadable value {value!r} ({exc})"]
        if got != want:
            problems.append(f"{name}: got {value}, expected {want}")
            break
    total = sum(len(alg.words(d)) for d in range(job.top + 1))
    if count != len(verdicts) or count != total:
        problems.append(f"table has {len(verdicts)} entries, expected {total}")
    return problems


def check_output(job: Job, rc: int, stdout: str) -> list:
    """Every way in which one command's exit code and output are wrong."""
    want_rc = expected_exit(job)
    problems = [] if rc == want_rc else [f"exit code {rc}, expected {want_rc}"]
    if job.expect_refusal:
        if stdout:
            problems.append("a refused input printed a report")
        return problems
    try:
        header, verdicts, witnesses, reported_rc = parse_report(stdout, job.as_json)
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        return problems + [f"unreadable report: {exc!r}"]
    want_header = (job.command, job.pres.ring, job.pres.summaries(), job.top)
    if header != want_header:
        problems.append(f"header {header}, expected {want_header}")
    if reported_rc != rc:
        problems.append(f"report says exit-code {reported_rc}, process returned {rc}")
    if job.command in ("antipode", "inverse"):
        return problems + _table_problems(job, verdicts)
    want = _expected_verdicts(job)
    if verdicts != want:
        problems.append(f"verdicts {verdicts}, expected {want}")
    if job.command in ("nu-eq-chi", "classify"):
        if bool(witnesses) == all(v is not False for _, v in want):
            problems.append(f"witnesses {witnesses} do not fit the verdicts")
    elif witnesses:
        problems.append(f"unexpected witnesses {witnesses}")
    return problems
