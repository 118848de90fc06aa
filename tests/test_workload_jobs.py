"""Every job of the benchmark's seed-1 job lists, and the two table
commands on the ROADMAP's baseline instances, through ``cli.main`` in
text and JSON, checked by the benchmark's own oracle."""

import dataclasses
import sys
from pathlib import Path

import pytest

PERFBENCH = str(Path(__file__).resolve().parent.parent / "perfbench")
if PERFBENCH not in sys.path:
    sys.path.append(PERFBENCH)

import cogroups.cli as cli  # noqa: E402
import oracle  # noqa: E402
import workloads  # noqa: E402
from run import call_main  # noqa: E402


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_seed_1_job_passes_the_benchmark_oracle(workload):
    for listed in workloads.jobs(workload, 1):
        for as_json in (False, True):
            job = dataclasses.replace(listed, as_json=as_json)
            rc, stdout = call_main(cli, job)
            assert rc == oracle.expected_exit(job), (job.key, as_json)
            if not job.expect_refusal:
                assert oracle.check_output(job, rc, stdout) == [], (job.key, as_json)


# the ROADMAP's baseline instances, (name, degree, ann) generators, and
# the truncation of their table runs
BASELINE = (
    (oracle.Presentation("Z", 0, (("x", 1, 0), ("y", 2, 0))), 8),
    (oracle.Presentation("Q", 0, (("x", 1, 0), ("y", 1, 0), ("z", 2, 0))), 8),
    (
        oracle.Presentation(
            "Zmod", 4, (("a", 1, 0), ("b", 2, 0), ("c", 3, 0)),
            {"b": ((2, "a", "a"),), "c": ((1, "a", "b"), (1, "b", "a"))},
        ),
        8,
    ),
    (oracle.Presentation("Zmod", 6, (("x", 2, 2), ("y", 2, 3))), 10),
    (oracle.Presentation("Z", 0, (("x", 2, 2), ("y", 2, 3), ("z", 2, 5))), 10),
)


@pytest.mark.parametrize("command", ("antipode", "inverse"))
def test_the_tables_of_the_baseline_instances_pass_the_benchmark_oracle(command):
    for pres, top in BASELINE:
        for as_json in (False, True):
            job = oracle.Job(f"{command}-{pres.ring}-D{top}", command, pres, top, as_json)
            rc, stdout = call_main(cli, job)
            assert oracle.check_output(job, rc, stdout) == [], (job.key, as_json)
