"""Line-oriented problem descriptions.

Grammar, one statement per line, '#' starts a comment:

    ring (Z | Q | Zmod <n> | Fp <p>)
    generator <name> degree <d> [ann <m>]
    coproduct <x> = [<int>] <y> * <z> { + [<int>] <y> * <z> }

The ring line must come first; generator names are identifiers and may
end in primes.  Coproduct coefficients are integers, mapped into the
ring.  Parsing reports syntax errors with line and column and semantic
errors (unknown generator, degree imbalance, illegal annihilator) with
the position of the offending token.
"""

from __future__ import annotations

import re

from .coalgebra import CoalgebraPresentation
from .modules import CyclicGenerator, GradedModulePresentation
from .rings import RingSpec, value_eq

_TOKEN = re.compile(r"[A-Za-z_][A-Za-z0-9_']*|-?\d+|[=*+]|\S")
_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_']*\Z")
_INT = re.compile(r"-?\d+\Z")


class ParseError(ValueError):
    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, col {column}: {message}")
        self.message = message
        self.line = line
        self.column = column


class ProblemSpec:
    """A parsed problem: ring, graded module, and coproduct table.

    ``presentation`` is the coalgebra that ``parse_spec`` built; a spec
    made by hand gets one on its first ``coalgebra()`` call.  Equality ignores it.
    """

    __slots__ = ("ring", "module", "coproduct", "presentation")
    __eq__ = value_eq("ring", "module", "coproduct")

    def __init__(
        self, ring: RingSpec, module: GradedModulePresentation, coproduct: dict | None = None,
        presentation: CoalgebraPresentation | None = None,
    ):
        self.ring, self.module = ring, module
        self.coproduct = {} if coproduct is None else coproduct
        self.presentation = presentation

    def coalgebra(self) -> CoalgebraPresentation:
        if self.presentation is None:
            self.presentation = CoalgebraPresentation(self.module, self.coproduct)
        return self.presentation

    def generator_summaries(self):
        out = []
        for g in self.module.generators:
            s = f"{g.name} degree {g.degree}"
            if g.annihilator:
                s += f" ann {g.annihilator}"
            out.append(s)
        return out


class _Cursor:
    """One line's token texts and a read position; reads return token
    indices.  A column is found only for an error, by scanning the line again."""

    __slots__ = ("texts", "body", "lineno", "pos")

    def __init__(self, texts: list, body: str, lineno: int):
        self.texts, self.body, self.lineno = texts, body, lineno
        self.pos = 0

    def error(self, message: str, i: int) -> ParseError:
        """A ``ParseError`` at token i, or just past the last one."""
        spans = [m.span() for m in _TOKEN.finditer(self.body)]
        column = spans[i][0] + 1 if i < len(spans) else spans[-1][1] + 1
        return ParseError(message, self.lineno, column)

    def peek(self) -> str | None:
        return self.texts[self.pos] if self.pos < len(self.texts) else None

    def next(self, what: str) -> int:
        i = self.pos
        if i == len(self.texts):
            raise self.error(f"expected {what} at end of line", i)
        self.pos = i + 1
        return i

    def expect(self, text: str) -> int:
        i = self.next(f"'{text}'")
        if self.texts[i] != text:
            raise self.error(f"expected '{text}', got '{self.texts[i]}'", i)
        return i

    def read(self, pattern: re.Pattern, what: str) -> int:
        """The next token, which must match ``pattern``: _NAME or _INT."""
        i = self.next(what)
        if not pattern.match(self.texts[i]):
            raise self.error(f"expected {what}, got '{self.texts[i]}'", i)
        return i

    def done(self):
        if self.pos < len(self.texts):
            raise self.error(f"unexpected '{self.texts[self.pos]}'", self.pos)


def parse_spec(text: str) -> ProblemSpec:
    ring: RingSpec | None = None
    known: dict[str, CyclicGenerator] = {}  # in declaration order
    coproduct_lines: list = []  # (cursor, target index, [(coeff, y index, z index)])

    for lineno, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0]
        texts = _TOKEN.findall(body)
        if not texts:
            continue
        cur = _Cursor(texts, body, lineno)
        head = texts[cur.next("a statement")]
        if head == "ring":
            if ring is not None:
                raise cur.error("duplicate ring declaration", 0)
            k = cur.next("a ring name")
            kind = texts[k]
            if kind == "Z":
                ring = RingSpec.integers()
            elif kind == "Q":
                ring = RingSpec.rationals()
            elif kind in ("Zmod", "Fp"):
                n = cur.read(_INT, "a modulus" if kind == "Zmod" else "a prime")
                try:  # Zmod below 2; Fp composite, or beyond certification
                    ring = RingSpec(kind, int(texts[n]))
                except ValueError as exc:
                    raise cur.error(str(exc), n) from exc
            else:
                raise cur.error(
                    f"unknown ring '{kind}' (want Z, Q, Zmod <n> or Fp <p>)", k
                )
            cur.done()
        elif head == "generator":
            if ring is None:
                raise cur.error("generator before ring declaration", 0)
            n = cur.read(_NAME, "a generator name")
            name = texts[n]
            if name in known:
                raise cur.error(f"duplicate generator '{name}'", n)
            cur.expect("degree")
            d = cur.read(_INT, "a degree")
            degree = int(texts[d])
            if degree < 1:
                raise cur.error("degree must be >= 1", d)
            ann = 0
            if cur.peek() is not None:
                cur.expect("ann")
                a = cur.read(_INT, "an annihilator")
                ann = int(texts[a])
                if not ring.legal_annihilator(ann):
                    raise cur.error(f"annihilator {ann} is not legal over {ring}", a)
            cur.done()
            known[name] = CyclicGenerator(name, degree, ann)
        elif head == "coproduct":
            if ring is None:
                raise cur.error("coproduct before ring declaration", 0)
            target = cur.read(_NAME, "a generator name")
            cur.expect("=")
            terms = []
            while True:
                if terms:
                    cur.expect("+")
                coeff = 1
                tok = cur.peek()
                if tok is not None and _INT.match(tok):
                    coeff = int(texts[cur.next("a coefficient")])
                y = cur.read(_NAME, "a generator name")
                cur.expect("*")
                z = cur.read(_NAME, "a generator name")
                terms.append((coeff, y, z))
                if cur.peek() is None:
                    break
            coproduct_lines.append((cur, target, terms))
        else:
            raise cur.error(f"unknown statement '{head}'", 0)

    if ring is None:
        raise ParseError("missing ring declaration", 1, 1)

    module = GradedModulePresentation(ring, tuple(known.values()))

    table: dict = {}
    for cur, target, terms in coproduct_lines:
        texts = cur.texts
        x = texts[target]
        if x not in known:
            raise cur.error(f"unknown generator '{x}'", target)
        if x in table:
            raise cur.error(f"duplicate coproduct for '{x}'", target)
        dx = known[x].degree
        checked = []
        for coeff, y, z in terms:
            for i in (y, z):
                if texts[i] not in known:
                    raise cur.error(f"unknown generator '{texts[i]}'", i)
            dy = known[texts[y]].degree
            dz = known[texts[z]].degree
            if dy + dz != dx:
                raise cur.error(
                    f"degree imbalance: {texts[y]}*{texts[z]} has degree {dy + dz}, "
                    f"{x} has degree {dx}",
                    y,
                )
            checked.append((coeff, texts[y], texts[z]))
        table[x] = checked

    try:
        coalg = CoalgebraPresentation(module, table)
    except ValueError as exc:  # "coproduct of <x>: ...", at x's coproduct line
        x = str(exc).split(":", 1)[0].removeprefix("coproduct of ")
        cur, target, _ = next(line for line in coproduct_lines if line[0].texts[line[1]] == x)
        raise cur.error(str(exc), target) from exc

    # store the normalized table so parse/render round-trips compare equal
    return ProblemSpec(
        ring=ring, module=module, coproduct=dict(coalg.table), presentation=coalg
    )
