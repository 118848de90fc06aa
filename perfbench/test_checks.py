"""The benchmark's own checks must catch a wrong answer.

Run from the repository root:

    python3 -m pytest -q perfbench

Each test runs one real command line, sees its output pass, then feeds
the checker a copy with one thing broken and sees it flagged.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import cogroups.cli as cli  # noqa: E402
import oracle  # noqa: E402
import workloads  # noqa: E402
from run import call_main  # noqa: E402

_DECONC_Z = oracle.Presentation(
    "Z", 0, (("a", 1, 0), ("b", 2, 0), ("c", 3, 0)),
    {"b": ((2, "a", "a"),), "c": ((2, "a", "b"), (2, "b", "a"))},
)


def _run(command, pres, top, as_json=False):
    job = oracle.Job("test", command, pres, top, as_json=as_json)
    rc, out = call_main(cli, job)
    assert oracle.check_output(job, rc, out) == []
    return job, rc, out


@pytest.mark.parametrize("as_json", [False, True])
def test_one_wrong_coefficient_is_flagged(as_json):
    job, rc, out = _run("antipode", _DECONC_Z, 5, as_json)
    coefficient = re.compile(r"(?<![\w^/])(\d+)\*")
    assert coefficient.search(out)
    broken = coefficient.sub(lambda m: f"{int(m.group(1)) + 1}*", out, count=1)
    assert any("expected" in p for p in oracle.check_output(job, rc, broken))


def test_one_wrong_verdict_is_flagged():
    job, rc, out = _run("check-cogroup", _DECONC_Z, 4)
    broken = out.replace("cogroup-axioms: true", "cogroup-axioms: false")
    assert broken != out
    assert oracle.check_output(job, rc, broken)


def test_one_wrong_classify_verdict_is_flagged():
    pres = oracle.Presentation("Q", 0, (("a", 2, 0),))
    job, rc, out = _run("classify", pres, 6, as_json=True)
    broken = out.replace('"name": "graded-commutative",\n      "value": true',
                         '"name": "graded-commutative",\n      "value": false')
    assert broken != out
    assert oracle.check_output(job, rc, broken)


def test_one_wrong_exit_code_is_flagged():
    job, rc, out = _run("check-hopf", _DECONC_Z, 5)
    assert rc == 0
    problems = oracle.check_output(job, 1, out)
    assert "exit code 1, expected 0" in problems


def test_non_coassociative_table_is_flagged():
    pres = oracle.Presentation(
        "Z", 0, _DECONC_Z.gens, {"b": ((2, "a", "a"),), "c": ((2, "a", "b"), (3, "b", "a"))}
    )
    assert oracle.coassociativity_problems(pres)
    assert not oracle.coassociativity_problems(_DECONC_Z)


def test_refusal_probe_fails_until_composites_are_refused():
    """psi_13 passes 12 Miller-Rabin bases, so Fp accepts it today."""
    job = workloads._REFUSAL
    rc, out = call_main(cli, job)
    assert oracle.check_output(job, rc, out) == ([] if rc == 2 else [
        f"exit code {rc}, expected 2", "a refused input printed a report"])


def test_parse_element_reads_exact_values():
    assert oracle.parse_element("-x^2*y + 3/2*y*x - 1") == {
        ("x", "x", "y"): -1, ("y", "x"): oracle.Fraction(3, 2), (): -1
    }
    assert oracle.parse_element("0") == {}
