"""Command-line front end.

Reads a problem description, builds the requested structure at a
truncation degree, runs one check or computation, and renders a report
as text or JSON.  Exit codes: 0 when the computation succeeded or the
checked property holds, 1 when a checked property fails, 2 on input
errors (unparsable description, unknown command, unreadable file, input
that is not UTF-8, from a file or from stdin).
``main`` reads the usual command lines itself; the argparse parser is
built, once, only for any other, and words help and every refusal.
"""

from __future__ import annotations

import json
import os
import sys
from functools import cache
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
        a ``str`` with its default arguments, a verdict of True, False or
        None is its literal, and an int goes through ``json.dumps``.
        """
        dumps, enc = json.dumps, encode_basestring_ascii
        verdicts = [
            f'{{\n      "name": {enc(n)},'
            f'\n      "value": {enc(v) if type(v) is str else _json_value(v)}\n    }}'
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
            lines.append(f"{name}: {value if type(value) is str else _fmt_value(value)}")
        for w in self.witnesses:
            lines.append(f"witness: {w}")
        lines.append(f"exit-code: {self.exit_code}")
        return "\n".join(lines)


def _json_list(items) -> str:
    """A list of encoded items as ``indent=2`` prints it one level down."""
    body = ",\n    ".join(items)
    return f"[\n    {body}\n  ]" if body else "[]"


def _json_value(value) -> str:
    # True and False by identity: 1 == True, so a dict lookup prints 1 as true
    if value is True or value is False:
        return _fmt_value(value)
    if value is None:
        return "null"
    return json.dumps(value)


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
    ok = True  # the two tables always succeed
    coalg = spec.coalgebra()

    if command == "check-commutative":
        ok, pair = is_graded_commutative(
            TruncatedTensorAlgebra(spec.module, max_degree)
        )
        verdicts.append(("graded-commutative", ok))
        if pair:
            witnesses.append(f"generators {pair[0]}, {pair[1]} do not graded-commute")
    elif command == "check-cocommutative":
        ok = is_cocommutative(coalg)
        verdicts.append(("cocommutative", ok))
    else:
        A = tensor_cogroup(coalg, max_degree)

    if command in ("check-cogroup", "check-hopf"):
        if command == "check-cogroup":
            name, report = "cogroup-axioms", check_cogroup_axioms(A, max_degree)
        else:
            name, report = "hopf-antipode-laws", check_hopf_antipode(A, antipode(A))
        ok = report.ok
        verdicts.append((name, ok))
        witnesses.extend(report.violations)
    elif command in ("antipode", "inverse"):
        name = "chi" if command == "antipode" else "nu"
        f = antipode(A) if command == "antipode" else A.nu
        labels, fmt = A.algebra.labels, A.algebra.format_key
        # a word's terms are stored in basis order, the order str() sorts into
        for d in range(0, max_degree + 1):
            for label, terms in zip(labels(d), f.degree_images(d)):
                verdicts.append((f"{name}({label})", _format_terms(terms.items(), fmt)))
    elif command == "nu-eq-chi":
        ok, witness = inverse_equals_antipode(A, max_degree)
        verdicts.append(("nu-eq-chi", ok))
        if witness:
            witnesses.append(witness)
    elif command == "check-surjective":
        degrees = is_antipode_surjective(A, antipode(A))
        for d in sorted(degrees):
            verdicts.append((f"surjective-degree-{d}", degrees[d]))
        ok = all(degrees.values())
        verdicts.append(("surjective-all-degrees", ok))
    elif command == "classify":
        report = classify_cogroup(A, max_degree)
        verdicts.extend(report.verdicts())
        if report.witness:
            witnesses.append(report.witness)
        ok = report.consistent

    return Report(
        command=command,
        ring=str(spec.ring),
        generators=spec.generator_summaries(),
        max_degree=max_degree,
        verdicts=verdicts,
        witnesses=witnesses,
        exit_code=0 if ok else 1,
    )


@cache
def _parser():
    import argparse

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


def _parse_args(argv: list) -> tuple:
    """``(command, path, max_degree, json, seed)`` of any command line, read
    by argparse, which prints help and refuses what it cannot read."""
    # an optional positional is filled, empty, before the options that come
    # ahead of it, so a path after an option is left over: parse again,
    # intermixed, only then (it costs several times a plain parse, and alone
    # it reads "--json" after "--" as the flag, where a plain parse reads a path)
    parser = _parser()
    args, extra = parser.parse_known_args(argv)
    if extra:
        args = parser.parse_intermixed_args(argv)
    return args.command, args.path, args.max_degree, args.json, args.seed


def _read_args(argv: list) -> tuple | None:
    """What ``_parse_args`` returns, for a usual command line; None for any
    other.

    Usual: a command, then in any order ``--json``, ``--max-degree N`` and
    ``--seed N`` with N ASCII digits, and at most one path, which is ``-``
    or does not start with ``-``.  The last of a repeated option wins.
    """
    if not argv or argv[0] not in COMMANDS:
        return None
    path, as_json, numbers = None, False, {"--max-degree": 10, "--seed": 0}
    tokens = iter(argv[1:])
    for token in tokens:
        if token == "--json":
            as_json = True
        elif token in numbers:
            n = next(tokens, "")
            # ASCII digits only: "²".isdigit() is True, and int() reads "٣"
            if not (n.isascii() and n.isdigit()):
                return None
            try:
                numbers[token] = int(n)
            except ValueError:  # more digits than int() converts
                return None
        elif path is None and (token == "-" or not token.startswith("-")):
            path = token
        else:
            return None
    return argv[0], "-" if path is None else path, numbers["--max-degree"], as_json, numbers["--seed"]


def _read_input(path: str) -> str:
    """The input as strict UTF-8, decoded from the bytes of the file or of
    stdin alike, without a leading byte-order mark; a stdin that is a text
    stream with no bytes under it (an ``io.StringIO``) is read as text."""
    if path != "-":
        with open(path, "rb") as f:
            text = f.read().decode("utf-8")
    else:
        stdin = getattr(sys.stdin, "buffer", None)
        text = sys.stdin.read() if stdin is None else stdin.read().decode("utf-8")
    return text.removeprefix("\ufeff")


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    command, path, max_degree, as_json, _ = _read_args(argv) or _parse_args(argv)

    try:
        text = _read_input(path)
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    try:
        spec = parse_spec(text)
        report = run_command(spec, command, max_degree=max_degree)
    except (ParseError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    try:
        print(report.render_json() if as_json else report.render_text())
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader has gone (as `| head` does): what is left in the buffer
        # goes to devnull, so that the flush at exit cannot raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return report.exit_code


if __name__ == "__main__":
    sys.exit(main())
