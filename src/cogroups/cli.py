"""Command-line front end.

Reads a problem description, builds the requested structure at a
truncation degree, runs one check or computation, and renders a report
as text or JSON.  Exit codes: 0 when the computation succeeded or the
checked property holds, 1 when a checked property fails, 2 on input
errors (unparsable description, unknown command, unreadable file).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass, field

from .algebra import is_graded_commutative
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


@dataclass
class Report:
    command: str
    ring: str
    generators: list
    max_degree: int
    verdicts: list
    witnesses: list
    exit_code: int
    elapsed: float = field(default=0.0, compare=False)

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
        only the scalars go through ``json.dumps``, and the fixed shape of
        the report is spelled out.
        """
        dumps = json.dumps
        verdicts = [
            f'{{\n      "name": {dumps(n)},\n      "value": {dumps(v)}\n    }}'
            for n, v in self.verdicts
        ]
        return (
            f'{{\n  "command": {dumps(self.command)},'
            f'\n  "ring": {dumps(self.ring)},'
            f'\n  "generators": {_json_list(map(dumps, self.generators))},'
            f'\n  "max_degree": {dumps(self.max_degree)},'
            f'\n  "verdicts": {_json_list(verdicts)},'
            f'\n  "witnesses": {_json_list(map(dumps, self.witnesses))},'
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


def run_command(
    spec: ProblemSpec, command: str, max_degree: int = 10, seed: int = 0
) -> Report:
    """Execute one command against a parsed problem description.

    ``seed`` is accepted for interface stability; every command here is
    deterministic.
    """
    if command not in COMMANDS:
        raise ValueError(f"unknown command {command!r}")
    if max_degree < 0:
        raise ValueError("truncation must be >= 0")
    start = time.monotonic()
    verdicts: list = []
    witnesses: list = []
    exit_code = 0
    coalg = spec.coalgebra()

    if command == "check-commutative":
        from .algebra import TruncatedTensorAlgebra

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
        A = tensor_cogroup(coalg, max_degree)
        report = check_cogroup_axioms(A, max_degree)
        verdicts.append(("cogroup-axioms", report.ok))
        witnesses.extend(report.violations)
        exit_code = 0 if report.ok else 1
    elif command == "check-hopf":
        A = tensor_cogroup(coalg, max_degree)
        report = check_hopf_antipode(A, antipode(A))
        verdicts.append(("hopf-antipode-laws", report.ok))
        witnesses.extend(report.violations)
        exit_code = 0 if report.ok else 1
    elif command in ("antipode", "inverse"):
        A = tensor_cogroup(coalg, max_degree)
        label = "chi" if command == "antipode" else "nu"
        if command == "antipode":
            chi = antipode(A)
            images = chi.image
        else:
            images = A.nu.word_image
        fmt = A.algebra.format_key
        for d in range(0, max_degree + 1):
            for w in A.algebra.basis(d):
                verdicts.append((f"{label}({fmt(w)})", str(images(w)) if d else "1"))
        exit_code = 0
    elif command == "nu-eq-chi":
        A = tensor_cogroup(coalg, max_degree)
        ok, witness = inverse_equals_antipode(A, max_degree)
        verdicts.append(("nu-eq-chi", ok))
        if witness:
            witnesses.append(witness)
        exit_code = 0 if ok else 1
    elif command == "check-surjective":
        A = tensor_cogroup(coalg, max_degree)
        degrees = is_antipode_surjective(A, antipode(A))
        for d in sorted(degrees):
            verdicts.append((f"surjective-degree-{d}", degrees[d]))
        ok = all(degrees.values())
        verdicts.append(("surjective-all-degrees", ok))
        exit_code = 0 if ok else 1
    elif command == "classify":
        A = tensor_cogroup(coalg, max_degree)
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
        elapsed=time.monotonic() - start,
    )


def main(argv=None) -> int:
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
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    try:
        if args.path == "-":
            text = sys.stdin.read()
        else:
            with open(args.path, encoding="utf-8") as f:
                text = f.read()
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    try:
        spec = parse_spec(text)
        report = run_command(
            spec, args.command, max_degree=args.max_degree, seed=args.seed
        )
    except (ParseError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    print(report.render_json() if args.json else report.render_text())
    return report.exit_code


if __name__ == "__main__":
    sys.exit(main())
