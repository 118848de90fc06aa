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


class Token:
    __slots__ = ("text", "line", "column")

    def __init__(self, text: str, line: int, column: int):
        self.text, self.line, self.column = text, line, column


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


def _tokenize(line: str, lineno: int):
    body = line.split("#", 1)[0]
    return [
        Token(m.group(), lineno, m.start() + 1) for m in _TOKEN.finditer(body)
    ]


class _Cursor:
    def __init__(self, tokens, lineno):
        self.tokens = tokens
        self.lineno = lineno
        self.pos = 0

    def peek(self) -> Token | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self, what: str) -> Token:
        tok = self.peek()
        if tok is None:
            last = self.tokens[-1]
            raise ParseError(
                f"expected {what} at end of line", self.lineno, last.column + len(last.text)
            )
        self.pos += 1
        return tok

    def expect(self, text: str) -> Token:
        tok = self.next(f"'{text}'")
        if tok.text != text:
            raise ParseError(f"expected '{text}', got '{tok.text}'", tok.line, tok.column)
        return tok

    def name(self, what="a name") -> Token:
        tok = self.next(what)
        if not _NAME.match(tok.text):
            raise ParseError(f"expected {what}, got '{tok.text}'", tok.line, tok.column)
        return tok

    def integer(self, what="an integer") -> Token:
        tok = self.next(what)
        if not _INT.match(tok.text):
            raise ParseError(f"expected {what}, got '{tok.text}'", tok.line, tok.column)
        return tok

    def done(self):
        tok = self.peek()
        if tok is not None:
            raise ParseError(f"unexpected '{tok.text}'", tok.line, tok.column)


def parse_spec(text: str) -> ProblemSpec:
    ring: RingSpec | None = None
    gens: list[CyclicGenerator] = []
    gen_tokens: dict[str, Token] = {}
    coproduct_lines: list = []

    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = _tokenize(raw, lineno)
        if not tokens:
            continue
        cur = _Cursor(tokens, lineno)
        head = cur.next("a statement")
        if head.text == "ring":
            if ring is not None:
                raise ParseError("duplicate ring declaration", head.line, head.column)
            kind = cur.next("a ring name")
            if kind.text == "Z":
                ring = RingSpec.integers()
            elif kind.text == "Q":
                ring = RingSpec.rationals()
            elif kind.text in ("Zmod", "Fp"):
                n = cur.integer("a modulus" if kind.text == "Zmod" else "a prime")
                try:  # Zmod below 2; Fp composite, or beyond certification
                    ring = RingSpec(kind.text, int(n.text))
                except ValueError as exc:
                    raise ParseError(str(exc), n.line, n.column) from exc
            else:
                raise ParseError(
                    f"unknown ring '{kind.text}' (want Z, Q, Zmod <n> or Fp <p>)",
                    kind.line,
                    kind.column,
                )
            cur.done()
        elif head.text == "generator":
            if ring is None:
                raise ParseError(
                    "generator before ring declaration", head.line, head.column
                )
            name = cur.name("a generator name")
            if name.text in gen_tokens:
                raise ParseError(
                    f"duplicate generator '{name.text}'", name.line, name.column
                )
            cur.expect("degree")
            deg = cur.integer("a degree")
            if int(deg.text) < 1:
                raise ParseError("degree must be >= 1", deg.line, deg.column)
            ann = 0
            if cur.peek() is not None:
                cur.expect("ann")
                annt = cur.integer("an annihilator")
                ann = int(annt.text)
                if not ring.legal_annihilator(ann):
                    raise ParseError(
                        f"annihilator {ann} is not legal over {ring}",
                        annt.line,
                        annt.column,
                    )
            cur.done()
            gens.append(CyclicGenerator(name.text, int(deg.text), ann))
            gen_tokens[name.text] = name
        elif head.text == "coproduct":
            if ring is None:
                raise ParseError(
                    "coproduct before ring declaration", head.line, head.column
                )
            target = cur.name("a generator name")
            cur.expect("=")
            terms = []
            while True:
                if terms:
                    cur.expect("+")
                coeff = 1
                tok = cur.peek()
                if tok is not None and _INT.match(tok.text):
                    coeff = int(cur.next("a coefficient").text)
                y = cur.name("a generator name")
                cur.expect("*")
                z = cur.name("a generator name")
                terms.append((coeff, y, z))
                if cur.peek() is None:
                    break
            coproduct_lines.append((target, terms))
        else:
            raise ParseError(
                f"unknown statement '{head.text}'", head.line, head.column
            )

    if ring is None:
        raise ParseError("missing ring declaration", 1, 1)

    module = GradedModulePresentation(ring, tuple(gens))
    known = {g.name: g for g in gens}

    table: dict = {}
    for target, terms in coproduct_lines:
        if target.text not in known:
            raise ParseError(
                f"unknown generator '{target.text}'", target.line, target.column
            )
        if target.text in table:
            raise ParseError(
                f"duplicate coproduct for '{target.text}'", target.line, target.column
            )
        checked = []
        for coeff, y, z in terms:
            for tok in (y, z):
                if tok.text not in known:
                    raise ParseError(
                        f"unknown generator '{tok.text}'", tok.line, tok.column
                    )
            dy = known[y.text].degree
            dz = known[z.text].degree
            dx = known[target.text].degree
            if dy + dz != dx:
                raise ParseError(
                    f"degree imbalance: {y.text}*{z.text} has degree {dy + dz}, "
                    f"{target.text} has degree {dx}",
                    y.line,
                    y.column,
                )
            checked.append((coeff, y.text, z.text))
        table[target.text] = checked

    try:
        coalg = CoalgebraPresentation(module, table)
    except ValueError as exc:
        raise ParseError(str(exc), 1, 1) from exc

    # store the normalized table so parse/render round-trips compare equal
    return ProblemSpec(
        ring=ring, module=module, coproduct=dict(coalg.table), presentation=coalg
    )
