"""The problem-description language and the command-line front end."""

import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cogroups as cg
from cogroups.cli import COMMANDS, Report, main as cli_main, run_command
from cogroups.dsl import ParseError, ProblemSpec, parse_spec
from instances import BINOM_Z9, render_spec

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


def test_cli_imports_without_generating_classes():
    # the value types and reports are plain classes, so importing the CLI
    # loads neither dataclasses nor the inspect module that it imports
    src = str(Path(__file__).resolve().parent.parent / "src")
    code = "import sys, cogroups.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    run = subprocess.run(
        [sys.executable, "-S", "-c", code],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=60,
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout == "[]\n"


def test_repeated_main_calls_in_one_process(tmp_path, capsys, monkeypatch):
    # main reuses the parser built at import; a usage error in between
    # leaves the next run's output unchanged
    def refuse(*args, **kwargs):
        raise AssertionError("parser rebuilt")

    monkeypatch.setattr("argparse.ArgumentParser", refuse)
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
    # nu and chi read Dbar of a generator off the table: no D, no tensor square
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

    for name in ("tensor_square", "delta"):
        monkeypatch.setattr(cg.Cogroup, name, property(refuse))
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
