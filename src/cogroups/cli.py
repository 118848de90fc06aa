"""Command-line front end.

Reads a problem description, builds the requested structure at a
truncation degree, runs one check or computation, and renders a report
as text or JSON.  Exit codes: 0 when the computation succeeded or the
checked property holds, 1 when a checked property fails, 2 on input
errors (unparsable description, unknown command, unreadable file, input
that is not UTF-8, from a file or from stdin).
The argument parser is built once, at import, and reused by ``main``.
"""

from __future__ import annotations

import argparse
import json
import sys
from json.encoder import encode_basestring_ascii

from .algebra import TruncatedTensorAlgebra, _format_terms, is_graded_commutative
from .classify import classify_cogroup, inverse_equals_antipode
from .coalgebra import is_cocommutative
from .cogroup import check_cogroup_axioms, tensor_cogroup
from .convolution import antipode, check_hopf_antipode, is_antipode_surjective
from .dsl import ParseError, ProblemSpec, parse_spec

COMMANDS = (
    "check-commutative",
    "check-cocommutative",
    "check-cogroup",
    "check-hopf",
    "antipode",
    "inverse",
    "nu-eq-chi",
    "check-surjective",
    "classify",
)


class Report:
    __slots__ = ("command", "ring", "generators", "max_degree", "verdicts", "witnesses", "exit_code")

    def __init__(
        self, command: str, ring: str, generators: list, max_degree: int,
        verdicts: list, witnesses: list, exit_code: int,
    ):
        self.command, self.ring, self.generators = command, ring, generators
        self.max_degree, self.verdicts, self.witnesses = max_degree, verdicts, witnesses
        self.exit_code = exit_code

    def to_dict(self) -> dict:
        return {
            "command": self.command,
            "ring": self.ring,
            "generators": list(self.generators),
            "max_degree": self.max_degree,
            "verdicts": [{"name": n, "value": v} for n, v in self.verdicts],
            "witnesses": list(self.witnesses),
            "exit_code": self.exit_code,
        }

    def render_json(self) -> str:
        """``json.dumps(self.to_dict(), indent=2)``, written out directly.

        With ``indent`` the json module takes its pure-Python encoder; here
        the fixed shape of the report is spelled out, a string goes through
        ``encode_basestring_ascii``, which is what ``json.dumps`` calls on
        a ``str`` with its default arguments, and a bool, int or None
        through ``json.dumps``.
        """
        dumps, enc = json.dumps, encode_basestring_ascii
        verdicts = [
            f'{{\n      "name": {enc(n)},'
            f'\n      "value": {enc(v) if isinstance(v, str) else dumps(v)}\n    }}'
            for n, v in self.verdicts
        ]
        return (
            f'{{\n  "command": {enc(self.command)},'
            f'\n  "ring": {enc(self.ring)},'
            f'\n  "generators": {_json_list(map(enc, self.generators))},'
            f'\n  "max_degree": {dumps(self.max_degree)},'
            f'\n  "verdicts": {_json_list(verdicts)},'
            f'\n  "witnesses": {_json_list(map(enc, self.witnesses))},'
            f'\n  "exit_code": {dumps(self.exit_code)}\n}}'
        )

    def render_text(self) -> str:
        lines = [
            f"command: {self.command}",
            f"ring: {self.ring}",
            f"generators: {'; '.join(self.generators) if self.generators else '(none)'}",
            f"max-degree: {self.max_degree}",
        ]
        for name, value in self.verdicts:
            lines.append(f"{name}: {_fmt_value(value)}")
        for w in self.witnesses:
            lines.append(f"witness: {w}")
        lines.append(f"exit-code: {self.exit_code}")
        return "\n".join(lines)


def _json_list(items) -> str:
    """A list of encoded items as ``indent=2`` prints it one level down."""
    body = ",\n    ".join(items)
    return f"[\n    {body}\n  ]" if body else "[]"


def _fmt_value(value) -> str:
    if value is True:
        return "true"
    if value is False:
        return "false"
    if value is None:
        return "n/a"
    return str(value)


def run_command(spec: ProblemSpec, command: str, max_degree: int = 10) -> Report:
    """Execute one command against a parsed problem description."""
    if command not in COMMANDS:
        raise ValueError(f"unknown command {command!r}")
    if max_degree < 0:
        raise ValueError("truncation must be >= 0")
    verdicts: list = []
    witnesses: list = []
    exit_code = 0
    coalg = spec.coalgebra()
    if command not in ("check-commutative", "check-cocommutative"):
        A = tensor_cogroup(coalg, max_degree)

    if command == "check-commutative":
        ok, pair = is_graded_commutative(
            TruncatedTensorAlgebra(spec.module, max_degree)
        )
        verdicts.append(("graded-commutative", ok))
        if pair:
            witnesses.append(f"generators {pair[0]}, {pair[1]} do not graded-commute")
        exit_code = 0 if ok else 1
    elif command == "check-cocommutative":
        ok = is_cocommutative(coalg)
        verdicts.append(("cocommutative", ok))
        exit_code = 0 if ok else 1
    elif command == "check-cogroup":
        report = check_cogroup_axioms(A, max_degree)
        verdicts.append(("cogroup-axioms", report.ok))
        witnesses.extend(report.violations)
        exit_code = 0 if report.ok else 1
    elif command == "check-hopf":
        report = check_hopf_antipode(A, antipode(A))
        verdicts.append(("hopf-antipode-laws", report.ok))
        witnesses.extend(report.violations)
        exit_code = 0 if report.ok else 1
    elif command in ("antipode", "inverse"):
        label = "chi" if command == "antipode" else "nu"
        images = antipode(A).image if command == "antipode" else A.nu.image
        fmt = A.algebra.format_key
        # a word's image is stored in basis order, the order str() sorts into
        for d in range(0, max_degree + 1):
            for w in A.algebra.basis(d):
                value = _format_terms(images(w).terms.items(), fmt) if d else "1"
                verdicts.append((f"{label}({fmt(w)})", value))
        exit_code = 0
    elif command == "nu-eq-chi":
        ok, witness = inverse_equals_antipode(A, max_degree)
        verdicts.append(("nu-eq-chi", ok))
        if witness:
            witnesses.append(witness)
        exit_code = 0 if ok else 1
    elif command == "check-surjective":
        degrees = is_antipode_surjective(A, antipode(A))
        for d in sorted(degrees):
            verdicts.append((f"surjective-degree-{d}", degrees[d]))
        ok = all(degrees.values())
        verdicts.append(("surjective-all-degrees", ok))
        exit_code = 0 if ok else 1
    elif command == "classify":
        report = classify_cogroup(A, max_degree)
        verdicts.extend(report.verdicts())
        if report.witness:
            witnesses.append(report.witness)
        exit_code = 0 if report.consistent else 1

    return Report(
        command=command,
        ring=str(spec.ring),
        generators=spec.generator_summaries(),
        max_degree=max_degree,
        verdicts=verdicts,
        witnesses=witnesses,
        exit_code=exit_code,
    )


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cogroups",
        description="cogroup structure on tensor algebras: checks and tables",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument(
        "path",
        nargs="?",
        default="-",
        help="problem description file ('-' or omitted: stdin)",
    )
    parser.add_argument("--max-degree", type=int, default=10, metavar="D")
    parser.add_argument("--json", action="store_true")
    parser.add_argument("--seed", type=int, default=0)  # ignored: every command is deterministic
    return parser


_PARSER = _parser()


def _read_input(path: str) -> str:
    """The input as strict UTF-8, decoded from the bytes of the file or of
    stdin alike; a stdin that is a text stream with no bytes under it
    (an ``io.StringIO``) is read as text."""
    if path != "-":
        with open(path, "rb") as f:
            return f.read().decode("utf-8")
    stdin = getattr(sys.stdin, "buffer", None)
    return sys.stdin.read() if stdin is None else stdin.read().decode("utf-8")


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)

    try:
        text = _read_input(args.path)
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    try:
        spec = parse_spec(text)
        report = run_command(spec, args.command, max_degree=args.max_degree)
    except (ParseError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    print(report.render_json() if args.json else report.render_text())
    return report.exit_code


if __name__ == "__main__":
    sys.exit(main())
