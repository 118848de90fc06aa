"""Every job of the benchmark's seed-1 job lists, through ``cli.main`` in
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
