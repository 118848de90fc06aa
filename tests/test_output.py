"""What a user reads: the report writers, the table goldens, README's examples."""

import contextlib
import hashlib
import io
import itertools
import json
import re
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from cogroups import algebra, cogroup, convolution
from cogroups.algebra import AlgebraMorphism, TruncatedTensorAlgebra
from cogroups.cli import COMMANDS, Report, main as cli_main, run_command
from cogroups.dsl import ProblemSpec, parse_spec
from cogroups.modules import CyclicGenerator, GradedModulePresentation
from cogroups.rings import RingSpec
import instances
from instances import (
    BINOM_F7, BINOM_Z9, DECONC_Q2, DECONC_Z, MATRIX, Q_PRIME, TORSION_Z, Z4_CHAIN, Z6_PAIR, Z_THREE_PRIMES,
    make_module, render_spec,
)
from report_oracle import oracle_json, report_verdicts

ROOT = Path(__file__).parent.parent
GOLDEN = Path(__file__).parent / "golden"


def run_main(argv, stdin):
    """(exit code, stdout) of ``cli.main`` reading ``stdin``."""
    out, old = io.StringIO(), sys.stdin
    sys.stdin = io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out):
            rc = cli_main(argv)
    finally:
        sys.stdin = old
    return rc, out.getvalue()


@pytest.mark.parametrize(
    "fname,text,argv",
    [
        ("antipode_deconc.txt", DECONC_Z, ["antipode", "-", "--max-degree", "5", "--seed", "0"]),
        (
            "inverse_binom.json",
            BINOM_Z9,
            ["inverse", "-", "--max-degree", "5", "--json", "--seed", "0"],
        ),
        # commands that read the coproduct of a non-primitive table
        ("nu_eq_chi_binom.txt", BINOM_Z9, ["nu-eq-chi", "-", "--max-degree", "5"]),
        ("check_surjective_binom.txt", BINOM_Z9, ["check-surjective", "-", "--max-degree", "5"]),
        ("check_hopf_deconc.txt", DECONC_Z, ["check-hopf", "-", "--max-degree", "5"]),
        ("classify_deconc.json", DECONC_Z, ["classify", "-", "--max-degree", "5", "--json"]),
        # three more tables: F_p, coprime torsion letters (words mixing x
        # and y have modulus 1 and print 0) and Q with a scale-2 table
        ("antipode_binom_fp.txt", BINOM_F7, ["antipode", "-", "--max-degree", "7"]),
        ("inverse_torsion_z.json", TORSION_Z, ["inverse", "-", "--max-degree", "5", "--json"]),
        ("antipode_deconc_q2.txt", DECONC_Q2, ["antipode", "-", "--max-degree", "6"]),
        # the axiom check, and classify's word recursion over Dbar, on a
        # table and on coprime torsion letters
        ("check_cogroup_binom.txt", BINOM_Z9, ["check-cogroup", "-", "--max-degree", "5"]),
        ("check_cogroup_binom.json", BINOM_Z9, ["check-cogroup", "-", "--max-degree", "5", "--json"]),
        ("check_cogroup_torsion_z.txt", TORSION_Z, ["check-cogroup", "-", "--max-degree", "5"]),
        (
            "check_cogroup_torsion_z.json",
            TORSION_Z,
            ["check-cogroup", "-", "--max-degree", "5", "--json"],
        ),
        ("classify_torsion_z.txt", TORSION_Z, ["classify", "-", "--max-degree", "5"]),
        # graded-commutative rows at depth, where classify reads every degree
        ("classify_z_three_primes.txt", Z_THREE_PRIMES, ["classify", "-", "--max-degree", "14"]),
        (
            "classify_z_three_primes.json",
            Z_THREE_PRIMES,
            ["classify", "-", "--max-degree", "14", "--json"],
        ),
        ("classify_z6_pair.txt", Z6_PAIR, ["classify", "-", "--max-degree", "20"]),
        ("classify_z6_pair.json", Z6_PAIR, ["classify", "-", "--max-degree", "20", "--json"]),
        # the tables on long runs of a primed letter, and on Z/4 residues whose
        # products vanish
        ("antipode_q_prime.txt", Q_PRIME, ["antipode", "-", "--max-degree", "12"]),
        ("antipode_q_prime.json", Q_PRIME, ["antipode", "-", "--max-degree", "12", "--json"]),
        ("antipode_z4_chain.txt", Z4_CHAIN, ["antipode", "-", "--max-degree", "8"]),
        ("antipode_z4_chain.json", Z4_CHAIN, ["antipode", "-", "--max-degree", "8", "--json"]),
        ("inverse_q_prime.txt", Q_PRIME, ["inverse", "-", "--max-degree", "12"]),
        ("inverse_q_prime.json", Q_PRIME, ["inverse", "-", "--max-degree", "12", "--json"]),
        ("inverse_z4_chain.txt", Z4_CHAIN, ["inverse", "-", "--max-degree", "8"]),
        ("inverse_z4_chain.json", Z4_CHAIN, ["inverse", "-", "--max-degree", "8", "--json"]),
    ],
)
def test_table_goldens(fname, text, argv):
    rc, out = run_main(argv, text)
    golden = (GOLDEN / fname).read_text()
    assert out == golden
    assert re.search(r'exit.code"?: (\d)', golden).group(1) == str(rc)


# Q with x, y of degree 1 and z of degree 2, all primitive
Q_PRIMITIVE = """\
ring Q
generator x degree 1
generator y degree 1
generator z degree 2
"""
# SHA-256 of the antipode and inverse tables at D = 10, as text and as
# JSON, printed when each word image was a dict of its own: the row
# layout prints them byte for byte
TABLE_DIGESTS = {
    ("Q_PRIMITIVE", "antipode", False): "2c310a4b345d9bcbd620b6b3d5c242d7cc39ccb97d77282c61c79814278f4c07",
    ("Q_PRIMITIVE", "antipode", True): "c9e719da58fb0e965fa4166b6aa8c6e27e58e1b2c77926d2771da409e16850d9",
    ("Q_PRIMITIVE", "inverse", False): "2a3144911a9a4f2ba725a607e7cf869d6c310cf5db680c539c55658318966450",
    ("Q_PRIMITIVE", "inverse", True): "499008a4cff72e38e6cfba66c4351dcdacf59368d4c9401fa7263b9b0a19bfa5",
    ("DECONC_Z", "antipode", False): "6f349d549381ba0f51c9344f0fdea2940ec790478392730d62a866d5b78d711e",
    ("DECONC_Z", "antipode", True): "8b2bc4730e53befe04e7073c7a8d319ce67666930c5e877929466ffe1ce1a84a",
    ("DECONC_Z", "inverse", False): "aeb3bea0a987f33060ef24407319956637e337a03ef4feec9a68b9f8f3494614",
    ("DECONC_Z", "inverse", True): "bebd27e3128c37af5191fef6fac953a5757869aab79da9cf569588cde334e6d1",
    ("BINOM_Z9", "antipode", False): "7f43543599e5cc5bc3cdbc29626691efc457cff0c470583141ea0f533e1b1ce5",
    ("BINOM_Z9", "antipode", True): "e5425c692b336bc6c684fc334026e71f7778f3fa66cd5a37daa0ca9d86dfc17b",
    ("BINOM_Z9", "inverse", False): "9641272c50134cf8aff191bf713e9729d07092925f95e35e5401b77b03732515",
    ("BINOM_Z9", "inverse", True): "bc0dcf536a867b8960c309276336db4a2b981e09a6ac7cf17043541ee373bded",
    ("Z4_CHAIN", "antipode", False): "76b64ec32dec7bf9049b32cfb40b98b61cdcc7262d9744496a09879bfc2e6186",
    ("Z4_CHAIN", "antipode", True): "817e3aaded061c3ee1d8a2c6c081b1f3bfe5d7c09639b0a95a57f043336d5ba1",
    ("Z4_CHAIN", "inverse", False): "96da71481ea9712cd3e7a8fe845ba710593301b2d8b409070d075bd6ced5fe61",
    ("Z4_CHAIN", "inverse", True): "2050d24ba246bd928b461dbbe6858bb862ff3e302ee95814ee417ca76db2ff64",
}


@pytest.mark.parametrize("instance,command,as_json", sorted(TABLE_DIGESTS))
def test_the_tables_at_degree_10_keep_their_digests(instance, command, as_json):
    texts = {"Q_PRIMITIVE": Q_PRIMITIVE, "DECONC_Z": DECONC_Z, "BINOM_Z9": BINOM_Z9, "Z4_CHAIN": Z4_CHAIN}
    rc, out = run_main([command, "-", "--max-degree", "10"] + ["--json"] * as_json, texts[instance])
    assert rc == 0
    assert hashlib.sha256(out.encode()).hexdigest() == TABLE_DIGESTS[instance, command, as_json]


# library generators named as no description may name them: (ring,
# generators, coproduct table)
NAMED_TABLES = [
    # a leading '-', and " + -" inside a name
    (RingSpec("Z"), (("x", 2), ("a", 1), ("-b", 1), ("c + -d", 1)), {"x": [(-1, "-b", "a"), (2, "a", "c + -d")]}),
    # a generator named "1" over Z/4, where chi(1) is 3*1, and names that
    # JSON escapes
    (RingSpec("Zmod", 4), (("x", 2), ("1", 1), ('q"', 1), ("é", 1)), {"x": [(1, "1", 'q"'), (2, "é", "1")]}),
]


@pytest.mark.parametrize("command", ("antipode", "inverse"))
def test_the_tables_print_each_image_as_str_does_whatever_the_names(command):
    """Each table row prints as ``str`` of the word's image, every sign read
    off a coefficient, not off a label, and the unit off its key, not off
    the label "1"; the JSON report is ``json.dumps``'s, whether or not a
    name needs escaping.  Degree 1 takes the one-term path of
    ``_format_rows``, and degree 2, with more terms than words, the
    joined texts."""
    name, reports = "chi" if command == "antipode" else "nu", []
    for ring, gens, table in NAMED_TABLES:
        module = GradedModulePresentation(ring, tuple(CyclicGenerator(n, d) for n, d in gens))
        spec = ProblemSpec(ring, module, table)
        A = cogroup.tensor_cogroup(spec.coalgebra(), 4)
        f = convolution.antipode(A) if command == "antipode" else A.nu
        alg = A.algebra
        assert f.degree_images(1)[2] == list(range(alg.size(1) + 1))
        assert len(f.degree_images(2)[0]) > alg.size(2)
        expected = [(f"{name}({label})", str(f.image(w))) for d in range(5)
                    for label, w in zip(alg.labels(d), alg.basis(d))]
        report = run_command(spec, command, max_degree=4)
        assert report_verdicts(report) == expected
        assert report.render_text().splitlines()[4:-1] == [f"{n}: {v}" for n, v in expected]
        assert report.render_json() == oracle_json(report)
        reports.append(report)
    assert (f"{name}(x)", "-x + 2*a*c + -d - -b*a") in report_verdicts(reports[0])
    assert (f"{name}(1)", "3*1") in expected and str(f.image(("1",))) == "3*1"
    assert (f"{name}(é)", "3*é") in expected and f'"name": "{name}(\\u00e9)"' in report.render_json()


@pytest.mark.parametrize("command", ("antipode", "inverse"))
def test_the_tables_fill_each_degree_once_and_look_up_no_word(command, monkeypatch):
    """The table commands zip labels(d) with the map's fill of degree d:
    no word image is looked up, each degree is filled exactly once, and
    no word is labelled by ``format_word``: labels come with the basis."""
    fills = []
    fill = AlgebraMorphism._fill

    def counted(self, d):
        fills.append((self, d))
        return fill(self, d)

    def refused(self, word):
        raise AssertionError(f"the image of {word} was looked up")

    def unlabelled(word):
        raise AssertionError(f"{word} was labelled by format_word")

    monkeypatch.setattr(AlgebraMorphism, "_fill", counted)
    monkeypatch.setattr(AlgebraMorphism, "image", refused)
    for module in (algebra, cogroup, convolution):
        monkeypatch.setattr(module, "format_word", unlabelled)
    for text in (DECONC_Z, BINOM_Z9, BINOM_F7, TORSION_Z, DECONC_Q2):
        fills.clear()
        run_command(parse_spec(text), command, max_degree=6).render_text()
        assert len({f for f, _ in fills}) == 1
        assert [d for _, d in fills] == list(range(1, 7))  # degree 0 is 1 -> 1


def test_render_json_matches_json_dumps_on_every_command_of_the_matrix():
    """What ``main`` writes, piece by piece, is the report's render and a
    newline, in text and in JSON, and the JSON is ``json.dumps``'s."""
    for key, ring, *_ in MATRIX:
        spec = ProblemSpec(ring, make_module(key))
        text = render_spec(spec)
        for command in COMMANDS:
            report = run_command(spec, command, max_degree=4)
            assert report.render_json() == oracle_json(report), (key, command)
            argv = [command, "-", "--max-degree", "4"]
            assert run_main(argv, text) == (report.exit_code, report.render_text() + "\n"), (key, command)
            assert run_main(argv + ["--json"], text) == (report.exit_code, oracle_json(report) + "\n"), (key, command)


class LeavingReader(io.StringIO):
    """The write end of a pipe whose reader leaves after the first table
    line: a later write raises BrokenPipeError.  Its file descriptor is a
    file that ``main`` may point at devnull."""

    def __init__(self, fd):
        super().__init__()
        self.fd = fd

    def write(self, text):
        if "(1)" in self.getvalue():
            raise BrokenPipeError(32, "Broken pipe")
        return super().write(text)

    def fileno(self):
        return self.fd


@pytest.mark.parametrize("as_json", (False, True))
@pytest.mark.parametrize("command", ("antipode", "inverse"))
def test_a_reader_that_leaves_stops_the_fill(command, as_json, tmp_path, monkeypatch, capsys):
    """A table is written a degree at a time, each as its map fills: when
    the reader has gone after the unit's line, the write of degree 1
    fails, ``main`` returns with nothing on stderr, and no degree above 1
    is filled."""
    fills = []
    fill = AlgebraMorphism._fill

    def counted(self, d):
        fills.append(d)
        return fill(self, d)

    monkeypatch.setattr(AlgebraMorphism, "_fill", counted)
    path = tmp_path / "spec.cog"
    path.write_text(Q_PRIMITIVE)
    with open(tmp_path / "stdout", "w") as file:
        reader = LeavingReader(file.fileno())
        with contextlib.redirect_stdout(reader):
            rc = cli_main([command, str(path), "--max-degree", "12"] + ["--json"] * as_json)
    assert rc == 0 and capsys.readouterr().err == ""
    assert fills == [1]
    name = "chi" if command == "antipode" else "nu"
    last = f'"name": "{name}(1)",\n      "value": "1"\n    }}' if as_json else f"{name}(1): 1"
    assert reader.getvalue().endswith(last)


HAND_TABLES = {name: text for name, text in vars(instances).items() if name.isupper() and type(text) is str}


@pytest.mark.parametrize("name", sorted(HAND_TABLES))
def test_a_table_command_raises_nothing_once_its_stream_has_begun(name, tmp_path, capsys):
    """Whatever a table command refuses, it refuses in ``run_command``,
    before the first byte: from there on every degree fills and prints,
    one row for each word up to D."""
    path = tmp_path / "spec.cog"
    path.write_text(HAND_TABLES[name])
    words = sum(map(TruncatedTensorAlgebra(parse_spec(HAND_TABLES[name]).module, 8).size, range(9)))
    for command in ("antipode", "inverse"):
        rc = cli_main([command, str(path), "--max-degree", "8"])
        out, err = capsys.readouterr()
        assert (rc, err, len(out.splitlines())) == (0, "", words + 5), command
        rc = cli_main([command, str(path), "--max-degree", "8", "--json"])
        out, err = capsys.readouterr()
        assert (rc, err, len(json.loads(out)["verdicts"])) == (0, "", words), command


def test_render_json_matches_json_dumps_on_lists_and_values():
    # 0 == False and 1 == True with equal hashes: only identity tells them apart
    values = [
        ("t", True), ("f", False), ("n", None), ("0", 0), ("1", 1), ("-1", -1),
        ("i", -7), ("big", 2**70), ("s", "x^2 - 3*y"), ("e", ""),
    ]
    for generators, verdicts, witnesses, max_degree, exit_code in itertools.product(
        ([], ["x degree 2", "y degree 3 ann 4"]),
        ([], values[:1], values, [values[3]], [values[4]]),
        ([], ["x: nu = x, chi = -x"], ["one", "two"]),
        (0, 1, 5),
        (0, 1),
    ):
        report = Report("inverse", "Zmod 9", generators, max_degree, verdicts, witnesses, exit_code)
        assert report.render_json() == oracle_json(report)
        text = report.render_text().splitlines()[4 : 4 + len(verdicts)]
        words = {True: "true", False: "false", None: "n/a"}
        assert text == [
            f"{name}: {words[value] if value is None or type(value) is bool else str(value)}"
            for name, value in verdicts
        ]


TEXT = st.text(st.characters() | st.sampled_from('"\\\n\r\t\x00\x1f\x7fé \U0001f600'))
VALUES = st.none() | st.booleans() | st.integers() | TEXT


@settings(max_examples=150, deadline=None)
@given(
    st.builds(
        Report,
        command=TEXT,
        ring=TEXT,
        generators=st.lists(TEXT, max_size=3),
        max_degree=st.integers(0, 30),
        verdicts=st.lists(st.tuples(TEXT, VALUES), max_size=4),
        witnesses=st.lists(TEXT, max_size=3),
        exit_code=st.integers(0, 2),
    )
)
def test_render_json_matches_json_dumps_on_any_strings(report):
    assert report.render_json() == oracle_json(report)


def readme_blocks(lang):
    """The bodies of README's fenced blocks tagged ``lang``."""
    blocks, body, tag = [], None, None
    for line in (ROOT / "README.md").read_text().splitlines(keepends=True):
        if not line.startswith("```"):
            if body is not None:
                body.append(line)
        elif body is None:
            body, tag = [], line[3:].strip()
        else:
            if tag == lang:
                blocks.append("".join(body))
            body = None
    return blocks


def test_readme_shell_examples_print_what_readme_shows():
    examples = [b for b in readme_blocks("") if b.startswith("$ printf ")]
    assert len(examples) == 2
    for block in examples:
        command, shown = block.split("\n", 1)
        m = re.fullmatch(r"\$ printf '(.*)' \| cogroups (\S+) -", command)
        stdin = m.group(1).encode().decode("unicode_escape")
        rc, out = run_main([m.group(2), "-"], stdin)
        assert out == shown
        assert f"exit-code: {rc}\n" in shown


def test_readme_library_snippet_prints_what_readme_shows():
    (snippet,) = readme_blocks("python")
    # every comment in the snippet is a line that it prints
    want = "".join(line.split("# ", 1)[1] + "\n" for line in snippet.splitlines() if "# " in line)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(snippet, "README.md", "exec"), {})
    assert out.getvalue() == want
