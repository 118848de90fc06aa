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
from cogroups.algebra import AlgebraMorphism
from cogroups.cli import COMMANDS, Report, main as cli_main, run_command
from cogroups.dsl import ProblemSpec, parse_spec
from cogroups.modules import CyclicGenerator, GradedModulePresentation
from cogroups.rings import RingSpec
from instances import (
    BINOM_F7, BINOM_Z9, DECONC_Q2, DECONC_Z, MATRIX, Q_PRIME, TORSION_Z, Z4_CHAIN, Z6_PAIR, Z_THREE_PRIMES,
    make_module,
)

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


@pytest.mark.parametrize("command", ("antipode", "inverse"))
def test_the_tables_print_each_image_as_str_does_whatever_the_names(command):
    """A generator built through the library may be named with a leading
    '-' or with " + -" inside: each table row still prints as ``str`` of
    the word's image, every sign read off a coefficient, not off a label."""
    ring = RingSpec("Z")
    gens = (CyclicGenerator("x", 2), CyclicGenerator("a", 1), CyclicGenerator("-b", 1), CyclicGenerator("c + -d", 1))
    spec = ProblemSpec(ring, GradedModulePresentation(ring, gens), {"x": [(-1, "-b", "a"), (2, "a", "c + -d")]})
    A = cogroup.tensor_cogroup(spec.coalgebra(), 4)
    f = convolution.antipode(A) if command == "antipode" else A.nu
    name = "chi" if command == "antipode" else "nu"
    expected = [(f"{name}({label})", str(f.image(w))) for d in range(5)
                for label, w in zip(A.algebra.labels(d), A.algebra.basis(d))]
    assert run_command(spec, command, max_degree=4).verdicts == expected
    assert (f"{name}(x)", "-x + 2*a*c + -d - -b*a") in expected


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
        run_command(parse_spec(text), command, max_degree=6)
        assert len({f for f, _ in fills}) == 1
        assert [d for _, d in fills] == list(range(1, 7))  # degree 0 is 1 -> 1


def oracle_json(report):
    return json.dumps(report.to_dict(), indent=2)


def test_render_json_matches_json_dumps_on_every_command_of_the_matrix():
    for key, ring, *_ in MATRIX:
        spec = ProblemSpec(ring, make_module(key))
        for command in COMMANDS:
            report = run_command(spec, command, max_degree=4)
            assert report.render_json() == oracle_json(report), (key, command)


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
