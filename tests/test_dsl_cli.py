"""The problem-description language and the command-line front end."""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import cogroups as cg
import dsl_oracle
from cogroups.cli import (
    COMMANDS, Report, _parse_args, _parser, _read_args, main as cli_main, run_command,
)
from cogroups.dsl import ParseError, ProblemSpec, parse_spec
from instances import BINOM_Z9, raw_presentations, render_spec

POLY = "ring Q\ngenerator X degree 2\n"
TORSION = "ring Zmod 4\ngenerator x degree 3\n"
LOOP = """\
ring Q
generator y degree 1
generator x degree 2
coproduct x = y * y
"""
Z4_CHAIN = """\
ring Zmod 4
generator a degree 1
generator b degree 2
generator c degree 3
coproduct b = 2 a * a
coproduct c = a * b + b * a
"""


def test_parse_minimal():
    spec = parse_spec(POLY)
    assert str(spec.ring) == "Q"
    assert spec.module.names() == ("X",)
    assert spec.coproduct == {}
    assert spec.generator_summaries() == ["X degree 2"]


def test_parse_comments_blanks_and_ann():
    text = """
    # a torsion instance
    ring Z

    generator x degree 2 ann 3   # cyclic
    generator y degree 4 ann 4
    """
    spec = parse_spec(text)
    assert spec.module.generator("x").annihilator == 3
    assert spec.generator_summaries() == ["x degree 2 ann 3", "y degree 4 ann 4"]


def test_parse_coproduct_terms():
    spec = parse_spec(LOOP)
    assert spec.coproduct == {"x": ((1, "y", "y"),)}
    multi = parse_spec(
        "ring Q\n"
        "generator y degree 1\n"
        "generator w degree 1\n"
        "generator x degree 2\n"
        "coproduct x = y * w + -1 w * y\n"
    )
    assert multi.coproduct == {"x": ((1, "y", "w"), (-1, "w", "y"))}


def err(text):
    with pytest.raises(ParseError) as info:
        parse_spec(text)
    return info.value


def test_parse_error_positions():
    e = err("")
    assert (e.line, e.column) == (1, 1) and "missing ring" in e.message
    e = err("generator x degree 2")
    assert (e.line, e.column) == (1, 1) and "before ring" in e.message
    e = err("ring Z\nring Q")
    assert (e.line, e.column) == (2, 1) and "duplicate ring" in e.message
    e = err("ring Zmod 1")
    assert (e.line, e.column) == (1, 11) and e.message == "Zmod modulus must be >= 2"
    e = err("ring Fp 9")
    assert (e.line, e.column) == (1, 9) and "not prime" in e.message
    e = err("ring Z\ngenerator x degree 0")
    assert (e.line, e.column) == (2, 20) and "degree" in e.message
    e = err("ring Q\ngenerator x degree 2 ann 2")
    assert (e.line, e.column) == (2, 26) and "not legal" in e.message
    e = err("ring Q extra")
    assert (e.line, e.column) == (1, 8) and "unexpected" in e.message
    e = err("ring Z\ngenerator x degree")
    assert (e.line, e.column) == (2, 19) and "end of line" in e.message
    e = err("ring Z\nbogus stuff")
    assert (e.line, e.column) == (2, 1) and "unknown statement" in e.message
    e = err("ring Z\ngenerator x degree 2\ngenerator x degree 4")
    assert (e.line, e.column) == (3, 11) and "duplicate generator" in e.message
    e = err("ring R")
    assert (e.line, e.column) == (1, 6) and e.message.startswith("unknown ring 'R'")
    e = err("ring Z\ngenerator x degree 2 ann 3 extra")
    assert (e.line, e.column) == (2, 28) and e.message == "unexpected 'extra'"
    e = err("ring Z\ngenerator 3 degree 2")
    assert (e.line, e.column) == (2, 11) and e.message == "expected a generator name, got '3'"


def test_parse_error_positions_in_coproducts():
    base = "ring Q\ngenerator x degree 2\ngenerator y degree 1\n"
    e = err(base + "coproduct x y * y")
    assert (e.line, e.column) == (4, 13) and "'='" in e.message
    e = err(base + "coproduct x = y * z")
    assert (e.line, e.column) == (4, 19) and "unknown generator" in e.message
    e = err(base + "coproduct x = y * x")
    assert (e.line, e.column) == (4, 15) and "imbalance" in e.message
    e = err(base + "coproduct zz = y * y")
    assert (e.line, e.column) == (4, 11) and "unknown generator" in e.message
    e = err(base + "coproduct x = y * y\ncoproduct x = y * y")
    assert (e.line, e.column) == (5, 11) and "duplicate coproduct" in e.message
    e = err("coproduct x = y * y")
    assert (e.line, e.column) == (1, 1) and "before ring" in e.message
    e = err(base + "coproduct x = y y")
    assert (e.line, e.column) == (4, 17) and e.message == "expected '*', got 'y'"
    e = err(base + "coproduct x = 2")
    assert (e.line, e.column) == (4, 16)
    assert e.message == "expected a generator name at end of line"


def _lines(draw, module, table):
    """Token lists of an input that states ``module`` and ``table``."""
    lines = [["ring", *str(module.ring).split()]]
    for g in module.generators:
        lines.append(["generator", g.name, "degree", str(g.degree)])
        if g.annihilator or draw(st.booleans()) and draw(st.booleans()):
            lines[-1] += ["ann", str(g.annihilator)]
    for x, terms in table.items():
        line = ["coproduct", x, "="]
        for c, y, z in terms:
            line += ["+"] if line[-1] != "=" else []
            line += [] if c == 1 and draw(st.booleans()) else [str(int(c))]
            line += [y, "*", z]
        lines.append(line)
    return lines


JUNK = ("zz", "x'", "_", "ring", "degree", "0", "-3", "7", "=", "*", "+", "@", ",", "#")
# (kind, junk): junk is the replacement of "junk" and the tail of "tail"
MUTATIONS = [(kind, None) for kind in ("drop", "double", "swap", "glue", "line", "comment")]
MUTATIONS += [(kind, j) for kind in ("junk", "tail") for j in JUNK]


def _mutate(lines, r, i, kind, junk):
    """A copy of the token lists with token i of line r dropped, doubled,
    swapped with the next one, glued to it or replaced by junk, with line
    r repeated at the end, a comment before token i or junk after the line."""
    lines = [list(row) for row in lines]
    row = lines[r]
    if kind == "drop":
        del row[i]
    elif kind == "double":
        row.insert(i, row[i])
    elif kind == "swap":
        row[i : i + 2] = row[i : i + 2][::-1]
    elif kind == "glue":
        row[i : i + 2] = ["".join(row[i : i + 2])]
    elif kind == "junk":
        row[i] = junk
    elif kind == "line":
        lines.append(list(row))
    elif kind == "comment":
        row.insert(i, "# note")
    elif kind == "tail":
        row.append(junk)
    return lines


@st.composite
def mutated_inputs(draw):
    """Input text stating a random table, valid or with one mutation, and
    blank or comment lines; tokens are set apart by varied whitespace."""
    lines = _lines(draw, *draw(raw_presentations()))
    if draw(st.integers(0, 4)):  # four inputs in five are mutated
        # on a coproduct line, when there is one, half the time
        r = draw(st.integers(0, len(lines) - 1))
        if lines[-1][0] == "coproduct" and draw(st.booleans()):
            r = len(lines) - 1
        i = draw(st.integers(0, len(lines[r]) - 1))
        lines = _mutate(lines, r, i, *draw(st.sampled_from(MUTATIONS)))
    spaces = st.sampled_from((" ", " ", "  ", "\t"))
    text = [draw(st.sampled_from(("", " "))) + "".join(
        t + draw(spaces) for t in row
    ) for row in lines]
    for _ in range(draw(st.integers(0, 2))):
        text.insert(draw(st.integers(0, len(text))), draw(st.sampled_from(("", "  ", "# c"))))
    return "\n".join(text)


def _outcome(parse, text):
    try:
        return parse(text)
    except ParseError as e:
        return ("ParseError", e.line, e.column, e.message)


@settings(max_examples=400, deadline=None)
@given(mutated_inputs())
def test_parser_matches_the_token_object_oracle(text):
    assert _outcome(parse_spec, text) == _outcome(dsl_oracle.parse_spec, text)


@pytest.mark.parametrize("text", [
    LOOP, Z4_CHAIN, BINOM_Z9, "ring Fp 5\ngenerator x degree 2\n",
    "ring Z\ngenerator y degree 1 ann 4\ngenerator x degree 2 ann 2\ncoproduct x = 2 y * y\n",
], ids=["loop", "z4-chain", "binom-z9", "fp5", "z-ann"])
def test_parser_matches_the_token_object_oracle_on_every_single_mutation(text):
    lines = [line.split() for line in text.splitlines() if line.split()]
    for r, row in enumerate(lines):
        for i in range(len(row)):
            for mutation in MUTATIONS:
                mutant = "\n".join(map(" ".join, _mutate(lines, r, i, *mutation)))
                assert _outcome(parse_spec, mutant) == _outcome(dsl_oracle.parse_spec, mutant)


def test_round_trips():
    texts = (
        POLY,
        TORSION,
        LOOP,
        "ring Zmod 4\n"
        "generator y degree 2\n"
        "generator x degree 4 ann 2\n"
        "coproduct x = 2 y * y\n",
        "ring Q\n"
        "generator y degree 1\n"
        "generator w degree 1\n"
        "generator x degree 2\n"
        "coproduct x = y * w + -1 w * y\n",
    )
    for text in texts:
        spec = parse_spec(text)
        rendered = render_spec(spec)
        assert parse_spec(rendered) == spec
        assert render_spec(parse_spec(rendered)) == rendered


def test_spec_keeps_the_parsed_coalgebra():
    spec = parse_spec(LOOP)
    assert spec.coalgebra() is spec.coalgebra() is spec.presentation
    by_hand = ProblemSpec(spec.ring, spec.module, dict(spec.coproduct))
    assert by_hand == spec and by_hand.presentation is None
    assert by_hand.coalgebra() == spec.coalgebra()
    assert by_hand.coalgebra() is by_hand.coalgebra()
    assert render_spec(by_hand) == render_spec(spec)


def test_spec_equality_ignores_the_presentation():
    spec = parse_spec(LOOP)
    bare = ProblemSpec(spec.ring, spec.module, dict(spec.coproduct))
    assert bare == spec and bare.presentation is None
    assert bare != ProblemSpec(spec.ring, spec.module)
    empty, other = ProblemSpec(spec.ring, spec.module), ProblemSpec(spec.ring, spec.module)
    assert empty.coproduct == {} and empty.coproduct is not other.coproduct
    keyed = ProblemSpec(ring=spec.ring, module=spec.module, presentation=spec.presentation)
    assert keyed == empty and keyed.presentation is spec.presentation


def test_report_builds_from_keywords():
    # the keywords the benchmark's trace replica passes
    report = Report(
        command="classify", ring="Q", generators=["x degree 2"], max_degree=4,
        verdicts=[("consistent", True)], witnesses=[], exit_code=0,
    )
    assert report.render_text() == (
        "command: classify\nring: Q\ngenerators: x degree 2\nmax-degree: 4\n"
        "consistent: true\nexit-code: 0"
    )
    assert report.exit_code == 0 and report.witnesses == []


def test_render_is_canonical():
    spec = parse_spec("ring Zmod 6   # comment\ngenerator   x   degree 2 ann 3\n")
    assert render_spec(spec) == "ring Zmod 6\ngenerator x degree 2 ann 3\n"


def test_run_command_rejects_unknown():
    with pytest.raises(ValueError):
        run_command(parse_spec(POLY), "make-coffee")


def test_run_command_verdicts_and_exit_codes():
    spec = parse_spec(POLY)
    rep = run_command(spec, "check-commutative", max_degree=8)
    assert rep.verdicts == [("graded-commutative", True)] and rep.exit_code == 0
    rep = run_command(parse_spec(TORSION), "nu-eq-chi", max_degree=8)
    assert rep.verdicts == [("nu-eq-chi", False)] and rep.exit_code == 1
    assert rep.witnesses == ["x^2: nu = x^2, chi = 3*x^2"]
    rep = run_command(parse_spec(LOOP), "check-cocommutative", max_degree=6)
    assert rep.exit_code == 1
    rep = run_command(parse_spec(LOOP), "check-cogroup", max_degree=5)
    assert rep.verdicts == [("cogroup-axioms", True)] and rep.exit_code == 0
    rep = run_command(parse_spec(POLY), "check-hopf", max_degree=8)
    assert rep.verdicts == [("hopf-antipode-laws", True)] and rep.exit_code == 0
    rep = run_command(parse_spec(POLY), "classify", max_degree=8)
    assert ("consistent", True) in rep.verdicts and rep.exit_code == 0


def test_run_command_antipode_tables():
    rep = run_command(parse_spec(TORSION), "antipode", max_degree=10)
    table = dict(rep.verdicts)
    assert table["chi(1)"] == "1"
    assert table["chi(x)"] == "3*x"
    assert table["chi(x^2)"] == "3*x^2"
    assert table["chi(x^3)"] == "x^3"
    rep = run_command(parse_spec(TORSION), "inverse", max_degree=10)
    table = dict(rep.verdicts)
    assert table["nu(x)"] == "3*x"
    assert table["nu(x^2)"] == "x^2"
    assert rep.exit_code == 0


def test_run_command_surjectivity_listing():
    rep = run_command(parse_spec(TORSION), "check-surjective", max_degree=8)
    names = [n for n, _ in rep.verdicts]
    assert names == [f"surjective-degree-{d}" for d in range(9)] + [
        "surjective-all-degrees"
    ]
    assert all(v for _, v in rep.verdicts)
    assert rep.exit_code == 0


def test_text_and_json_carry_identical_verdicts():
    spec = parse_spec(TORSION)
    for command in (
        "check-commutative",
        "check-cocommutative",
        "check-cogroup",
        "check-hopf",
        "nu-eq-chi",
        "check-surjective",
        "classify",
    ):
        rep = run_command(spec, command, max_degree=6)
        doc = json.loads(rep.render_json())
        text = rep.render_text()
        assert doc["exit_code"] == rep.exit_code
        assert f"exit-code: {rep.exit_code}" in text
        for entry in doc["verdicts"]:
            value = entry["value"]
            shown = {True: "true", False: "false", None: "n/a"}.get(value, str(value))
            assert f"{entry['name']}: {shown}" in text
        for w in doc["witnesses"]:
            assert f"witness: {w}" in text


def test_json_document_shape():
    rep = run_command(parse_spec(POLY), "classify", max_degree=6)
    doc = json.loads(rep.render_json())
    assert set(doc) == {
        "command",
        "ring",
        "generators",
        "max_degree",
        "verdicts",
        "witnesses",
        "exit_code",
    }
    assert doc["command"] == "classify"
    assert doc["ring"] == "Q"
    assert doc["generators"] == ["X degree 2"]
    assert doc["max_degree"] == 6


def test_commands_accept_names_that_end_in_a_prime():
    spec = parse_spec("ring Q\ngenerator x degree 2\ngenerator x' degree 4\n")
    for command in ("check-cogroup", "antipode"):
        assert run_command(spec, command, max_degree=6).exit_code == 0
    rep = run_command(spec, "nu-eq-chi", max_degree=6)
    assert rep.exit_code == 1
    assert rep.witnesses == ["x*x': nu = x*x', chi = x'*x"]


@pytest.mark.parametrize("command", COMMANDS)
def test_negative_max_degree_is_refused(command, tmp_path, capsys):
    path = tmp_path / "loop.cog"
    path.write_text(LOOP)
    rc = cli_main([command, str(path), "--max-degree", "-1"])
    captured = capsys.readouterr()
    assert rc == 2 and not captured.out
    assert captured.err == "error: truncation must be >= 0\n"


def test_cli_main_with_file(tmp_path, capsys):
    path = tmp_path / "poly.cog"
    path.write_text(POLY)
    rc = cli_main(["nu-eq-chi", str(path), "--max-degree", "8"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "nu-eq-chi: true" in out
    assert out.endswith("exit-code: 0\n")


def test_cli_main_json(tmp_path, capsys):
    path = tmp_path / "tor.cog"
    path.write_text(TORSION)
    rc = cli_main(["nu-eq-chi", str(path), "--max-degree", "8", "--json"])
    out = capsys.readouterr().out
    assert rc == 1
    doc = json.loads(out)
    assert doc["exit_code"] == 1
    assert doc["witnesses"] == ["x^2: nu = x^2, chi = 3*x^2"]


def run_module_cli(tmp_path, text, *args, timeout):
    path = tmp_path / "spec.cog"
    path.write_text(text)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run(
        [sys.executable, "-m", "cogroups.cli", *args[:1], str(path), *args[1:]],
        env=env, capture_output=True, text=True, timeout=timeout,
    )


def test_python_m_cli_writes_nothing_to_stderr(tmp_path):
    run = run_module_cli(tmp_path, LOOP, "check-cogroup", "--max-degree", "4", timeout=60)
    assert run.returncode == 0
    assert run.stderr == ""


def test_every_module_imports_first_in_a_fresh_interpreter():
    """No import cycle, whichever module is imported first.

    The package root imports its modules in one fixed order, so each
    module is imported under an empty stand-in for the package.
    """
    src = Path(__file__).resolve().parent.parent / "src"
    names = sorted(p.stem for p in (src / "cogroups").glob("*.py") if p.stem != "__init__")
    assert "coalgebra" in names and "algebra" in names
    for name in names:
        code = (
            "import importlib, sys, types\n"
            "package = types.ModuleType('cogroups')\n"
            f"package.__path__ = [{str(src / 'cogroups')!r}]\n"
            "sys.modules['cogroups'] = package\n"
            f"importlib.import_module('cogroups.{name}')\n"
        )
        run = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=60
        )
        assert (run.returncode, run.stderr) == (0, ""), name


def test_surjectivity_over_z4_finishes(tmp_path):
    run = run_module_cli(
        tmp_path, Z4_CHAIN, "check-surjective", "--max-degree", "8", timeout=30
    )
    assert run.returncode == 0, run.stderr
    assert "surjective-all-degrees: true" in run.stdout


def test_classify_below_the_generator_squares_is_consistent(monkeypatch, capsys):
    # x^2 lies above D = 1: classify still sees nu and chi part ways on it,
    # while nu-eq-chi compares only the words up to D
    text = "ring Q\ngenerator x degree 1\n"
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    assert cli_main(["classify", "-", "--max-degree", "1"]) == 0
    out = capsys.readouterr().out
    assert "nu-eq-chi: false\n" in out and "chi-is-morphism: false\n" in out
    assert "consistent: true\n" in out
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    assert cli_main(["nu-eq-chi", "-", "--max-degree", "1"]) == 0
    assert "nu-eq-chi: true\n" in capsys.readouterr().out


def test_cli_main_reads_stdin(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO(POLY))
    rc = cli_main(["check-commutative"])
    assert rc == 0
    assert "graded-commutative: true" in capsys.readouterr().out


def test_cli_main_error_paths(tmp_path, capsys):
    with pytest.raises(SystemExit) as info:
        cli_main(["make-coffee", "x.cog"])
    assert info.value.code == 2
    rc = cli_main(["classify", str(tmp_path / "missing.cog")])
    captured = capsys.readouterr()
    assert rc == 2 and "error:" in captured.err
    bad = tmp_path / "bad.cog"
    bad.write_text("ring Q\ngenerator x degree 0\n")
    rc = cli_main(["classify", str(bad)])
    captured = capsys.readouterr()
    assert rc == 2 and "line 2" in captured.err


def test_cli_refuses_a_file_that_is_not_utf8(tmp_path, capsys):
    path = tmp_path / "latin1.cog"
    path.write_bytes(b"ring Q\ngenerator x degree 2 # caf\xe9 \xff\n")
    rc = cli_main(["antipode", str(path)])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert captured.err.startswith("error: 'utf-8' codec can't decode byte 0xe9")


def test_stdin_and_a_file_decode_the_same_bytes_alike(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))

    def both(data):
        path = tmp_path / "spec.cog"
        path.write_bytes(data)
        return [
            subprocess.run(
                [sys.executable, "-m", "cogroups.cli", "antipode", *args, "--max-degree", "4"],
                input=stdin, env=env, capture_output=True, timeout=60,
            )
            for args, stdin in (([str(path)], None), ([], data))
        ]

    from_file, from_stdin = both(b"ring Q\ngenerator x degree 2 # caf\xe9\n")
    assert from_file.returncode == from_stdin.returncode == 2
    assert from_file.stdout == from_stdin.stdout == b""
    assert from_file.stderr == from_stdin.stderr
    assert from_stdin.stderr.startswith(b"error: 'utf-8' codec can't decode byte 0xe9")
    from_file, from_stdin = both("ring Q\ngenerator x degree 2 # café\n".encode())
    assert from_file.returncode == from_stdin.returncode == 0
    assert from_file.stdout == from_stdin.stdout and b"chi(x^2): x^2" in from_stdin.stdout
    # one leading byte-order mark is dropped, from either source
    plain = from_file.stdout
    from_file, from_stdin = both("\ufeffring Q\ngenerator x degree 2 # café\n".encode())
    assert from_file.returncode == from_stdin.returncode == 0
    assert from_file.stdout == from_stdin.stdout == plain
    assert from_file.stderr == from_stdin.stderr == b""


def test_cli_imports_without_generating_classes(tmp_path):
    # the value types and reports are plain classes, so importing the CLI
    # loads neither dataclasses nor the inspect module that it imports;
    # annotations need no typing, and a usual command line no argparse
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = tmp_path / "spec.cog"
    path.write_text(LOOP)
    forbidden = "{'dataclasses', 'inspect', 'typing', 'argparse'}"
    code = (
        "import sys, cogroups.cli\n"
        f"print(sorted({forbidden} & set(sys.modules)))\n"
        f"rc = cogroups.cli.main(['classify', {str(path)!r}, '--max-degree', '4', '--json'])\n"
        f"print(rc, sorted({forbidden} & set(sys.modules)))\n"
    )
    run = subprocess.run(
        [sys.executable, "-S", "-c", code],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=60,
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.startswith("[]\n{\n") and run.stdout.endswith("}\n0 []\n")


def test_repeated_main_calls_in_one_process(tmp_path, capsys, monkeypatch):
    # argparse builds its parser at most once, for the first command line
    # that main does not read itself; a usage error in between leaves the
    # next run's output unchanged
    import argparse

    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    _parser.cache_clear()
    path = tmp_path / "chain.cog"
    path.write_text(Z4_CHAIN)
    argv = ["antipode", str(path), "--max-degree", "4"]
    first = cli_main(argv), capsys.readouterr()
    assert first[0] == 0 and first[1].out.endswith("exit-code: 0\n")
    with pytest.raises(SystemExit) as info:
        cli_main(["antipode", str(path), "--max-degree", "x"])
    assert info.value.code == 2
    assert "invalid int value: 'x'" in capsys.readouterr().err
    assert (cli_main(argv), capsys.readouterr()) == first
    with pytest.raises(SystemExit) as info:
        cli_main(["--help"])
    assert info.value.code == 0
    assert capsys.readouterr().out.startswith("usage: cogroups ")
    assert len(built) == 1


def test_a_path_may_follow_the_options(tmp_path, capsys, monkeypatch):
    path = tmp_path / "chain.cog"
    path.write_text(Z4_CHAIN)
    for command in ("classify", "antipode", "check-cocommutative"):
        for tail in ([], ["--json"]):
            runs = [
                (cli_main(argv + tail), capsys.readouterr())
                for argv in (
                    [command, str(path), "--max-degree", "3"],
                    [command, "--max-degree", "3", str(path)],
                )
            ]
            assert runs[0][1].out and not runs[0][1].err
            assert runs[1] == runs[0], (command, tail)
    # both usual orders are read without argparse
    def refuse():
        raise AssertionError("argparse parser built")

    monkeypatch.setattr("cogroups.cli._parser", refuse)
    assert cli_main(["classify", str(path), "--max-degree", "3"]) == 0
    assert cli_main(["classify", "--max-degree", "3", str(path)]) == 0


def test_unknown_arguments_are_still_refused(capsys):
    usage = _parser().format_usage()
    for argv, extra in (
        (["classify", "a", "b"], "b"),
        (["classify", "a", "--bogus"], "--bogus"),
        (["classify", "--max-degree", "3", "a", "b"], "b"),
    ):
        with pytest.raises(SystemExit) as info:
            cli_main(argv)
        captured = capsys.readouterr()
        assert info.value.code == 2 and not captured.out
        assert captured.err == f"{usage}cogroups: error: unrecognized arguments: {extra}\n", argv


ARGV_TOKENS = (
    "-", "", "spec.cog", "--json", "--max-degree", "--seed", "--max", "--js",
    "--max-degree=3", "-h", "--", "7", "007", "-1", "²", "٣", "a b",
)


@settings(max_examples=500, deadline=None)
@given(
    # most draws start with a command, the one head that main reads itself
    st.sampled_from(COMMANDS) | st.sampled_from(COMMANDS + ARGV_TOKENS),
    st.lists(st.sampled_from(COMMANDS + ARGV_TOKENS), max_size=7),
)
@example("antipode", ["-", "--max-degree", "007", "--json", "--seed", "7"])
@example("classify", ["--json", "--max-degree", "7", "a b", "--max-degree", "3"])
@example("inverse", [""])
@example("antipode", ["--max-degree", "1" * 5000])
def test_main_reads_a_command_line_as_argparse_does(head, tail):
    # argparse is the reference: whenever main reads a command line itself,
    # argparse reads the same values from it and does not refuse it
    argv = [head, *tail]
    read = _read_args(argv)
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            parsed = _parse_args(argv)
    except SystemExit:
        parsed = None
    assert read is None or read == parsed


def test_a_double_dash_ends_the_options(capsys):
    # a plain parse comes first: an intermixed parse alone reads the options
    # after "--" as options, and treats a bad first word as a path
    assert _parse_args(["classify", "--", "--json"]) == ("classify", "--json", 10, False, 0)
    assert _parse_args(["antipode", "--", "-h"]) == ("antipode", "-h", 10, False, 0)
    assert _parse_args(["--", "classify", "--max-degree"]) == ("classify", "--max-degree", 10, False, 0)
    with pytest.raises(SystemExit) as info:
        _parse_args(["spec.cog", "-h"])
    captured = capsys.readouterr()
    assert info.value.code == 2 and not captured.out
    assert "argument command: invalid choice: 'spec.cog'" in captured.err


def test_unusual_command_lines_go_to_argparse():
    for argv in (
        [], ["--help"], ["classify", "-h"], ["classify", "--"], ["make-coffee"],
        ["--json", "classify"], ["classify", "--max", "3"], ["classify", "--js"],
        ["classify", "--max-degree=3"], ["classify", "--max-degree", "-1"],
        ["classify", "--max-degree", "²"], ["classify", "--seed", "٣"],
        ["classify", "--max-degree"], ["classify", "a", "b"], ["classify", "-", "-"],
    ):
        assert _read_args(argv) is None, argv


def test_a_reader_that_leaves_early_gets_no_traceback(tmp_path):
    # `cogroups antipode F --max-degree 12 | head -1`: the table is about
    # 330 KB, well above what a pipe holds, and the reader leaves after a line
    path = tmp_path / "spec.cog"
    path.write_text("ring Q\ngenerator x degree 1\ngenerator y degree 1\n")
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    argv = [sys.executable, "-m", "cogroups.cli", "antipode", str(path), "--max-degree", "12"]
    with subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        assert proc.stdout.readline() == b"command: antipode\n"
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
    assert (proc.returncode, err) == (0, b"")


def test_only_check_cogroup_reads_phi(tmp_path, capsys, monkeypatch):
    # every other command reads D from the coproduct table, not from Phi
    path = tmp_path / "binom.cog"
    path.write_text(BINOM_Z9)
    commands = [c for c in COMMANDS if c != "check-cogroup"]
    assert len(commands) == 8
    plain = {}
    for command in commands:
        rc = cli_main([command, str(path), "--max-degree", "6"])
        plain[command] = rc, capsys.readouterr()

    def refuse(A):
        raise AssertionError("Phi read")

    monkeypatch.setattr(cg.Cogroup, "phi", property(refuse))
    for command in commands:
        rc = cli_main([command, str(path), "--max-degree", "6"])
        assert (rc, capsys.readouterr()) == plain[command], command
    with pytest.raises(AssertionError, match="Phi read"):
        cli_main(["check-cogroup", str(path), "--max-degree", "6"])


def test_only_check_cogroup_and_classify_build_d(tmp_path, capsys, monkeypatch):
    # nu and chi read Dbar of a generator off the table: no D
    path = tmp_path / "binom.cog"
    path.write_text(BINOM_Z9)
    commands = [c for c in COMMANDS if c not in ("check-cogroup", "classify")]
    assert len(commands) == 7
    plain = {}
    for command in commands:
        rc = cli_main([command, str(path), "--max-degree", "6"])
        plain[command] = rc, capsys.readouterr()

    def refuse(A):
        raise AssertionError("D read")

    monkeypatch.setattr(cg.Cogroup, "delta", property(refuse))
    for command in commands:
        rc = cli_main([command, str(path), "--max-degree", "6"])
        assert (rc, capsys.readouterr()) == plain[command], command
    for command in ("check-cogroup", "classify"):
        with pytest.raises(AssertionError, match="D read"):
            cli_main([command, str(path), "--max-degree", "6"])


def test_each_command_builds_the_cogroup_at_most_once(monkeypatch):
    built = []

    def counting(C, truncation):
        built.append(truncation)
        return cg.tensor_cogroup(C, truncation)

    monkeypatch.setattr("cogroups.cli.tensor_cogroup", counting)
    spec = parse_spec(BINOM_Z9)
    for command in COMMANDS:
        built.clear()
        run_command(spec, command, max_degree=4)
        table_only = command in ("check-commutative", "check-cocommutative")
        assert built == ([] if table_only else [4]), command


def test_setup_builds_one_algebra_and_no_tensor_square(monkeypatch):
    # the table is reduced and checked without an algebra; a cogroup builds
    # A and nothing else, D included: its pairs are plain dicts
    built = []
    init = cg.TruncatedTensorAlgebra.__init__

    def counting(self, *args):
        built.append("TruncatedTensorAlgebra")
        init(self, *args)

    monkeypatch.setattr(cg.TruncatedTensorAlgebra, "__init__", counting)
    spec = parse_spec(BINOM_Z9)
    assert built == []
    cogroup_commands = [c for c in COMMANDS if c not in ("check-commutative", "check-cocommutative")]
    assert len(cogroup_commands) == 7
    for command in cogroup_commands:
        run_command(spec, command, max_degree=6)
        assert built == ["TruncatedTensorAlgebra"], command
        built.clear()
    # cocommutativity is read off the table alone
    run_command(spec, "check-cocommutative", max_degree=6)
    assert built == []


def test_cli_refuses_a_non_coassociative_table(tmp_path, capsys):
    path = tmp_path / "broken.cog"
    path.write_text(
        "ring Q\n"
        "generator y degree 2\ngenerator m degree 4\ngenerator x degree 6\n"
        "coproduct m = y * y\ncoproduct x = m * y\n"
    )
    rc = cli_main(["check-cogroup", str(path), "--max-degree", "6"])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert captured.err == (
        "error: coalgebra axioms fail: 1 violation(s) in 3 checks:\n"
        "  coassociativity fails on x\n"
    )


def test_cli_refuses_fp_modulus_beyond_certification(tmp_path, capsys):
    # 3317044064679887385961981 = 1287836182261 * 2575672364521 (psi_13)
    path = tmp_path / "psi13.cog"
    path.write_text("ring Fp 3317044064679887385961981\ngenerator x degree 2\n")
    rc = cli_main(["classify", str(path)])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert "line 1, col 9" in captured.err and "bound" in captured.err


def test_cli_seed_flag_is_accepted(tmp_path, capsys):
    path = tmp_path / "poly.cog"
    path.write_text(POLY)
    rc = cli_main(["classify", str(path), "--max-degree", "6", "--seed", "7"])
    assert rc == 0
    capsys.readouterr()
