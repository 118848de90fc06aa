"""Byte-level goldens of every benchmark job.

For each workload, seed 1 to 3, job and rendering (text and JSON), the
golden file holds the exit code of ``cli.main`` and the SHA-256 of what
it writes to standard output and to standard error, with the job's input
fed on standard input as the benchmark feeds it.  A change that keeps
every answer must keep every digest.

After a deliberate change of output, regenerate the file from the
repository root with

    python tests/test_workload_goldens.py
"""

import contextlib
import dataclasses
import hashlib
import io
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
for path in (str(ROOT / "src"), str(ROOT / "perfbench")):
    if path not in sys.path:
        sys.path.append(path)

import cogroups.cli as cli  # noqa: E402
import workloads  # noqa: E402

GOLDEN = Path(__file__).resolve().parent / "golden" / "workload_jobs.json"
SEEDS = (1, 2, 3)


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def run_job(job) -> dict:
    """Exit code and digests of standard output and standard error."""
    out, err = io.StringIO(), io.StringIO()
    stdin, sys.stdin = sys.stdin, io.StringIO(job.pres.text())
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(job.argv())
    finally:
        sys.stdin = stdin
    return {"exit": rc, "stdout": _sha256(out.getvalue()), "stderr": _sha256(err.getvalue())}


def workload_digests(workload: str) -> dict:
    """"workload/seed/job key/format" -> ``run_job`` of that job."""
    out = {}
    for seed in SEEDS:
        for listed in workloads.jobs(workload, seed):
            for fmt, as_json in (("text", False), ("json", True)):
                job = dataclasses.replace(listed, as_json=as_json)
                out[f"{workload}/{seed}/{job.key}/{fmt}"] = run_job(job)
    return out


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_benchmark_job_matches_its_golden(workload):
    golden = json.loads(GOLDEN.read_text())
    want = {k: v for k, v in golden.items() if k.startswith(f"{workload}/")}
    got = workload_digests(workload)
    assert got.keys() == want.keys()
    assert [k for k in got if got[k] != want[k]] == []


if __name__ == "__main__":
    digests = {}
    for name in workloads.WORKLOADS:
        digests.update(workload_digests(name))
    GOLDEN.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} digests to {GOLDEN}")
