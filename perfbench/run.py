"""Reference-speed benchmark of the ``cogroups`` command line.

Run from the repository root:

    python3 perfbench/run.py --workload axioms --seed 1 --seconds 20 --trace 0

It imports the package from ``src/``, builds the workload's job list from
the seed, and runs whole passes over the list until ``--seconds`` have
gone by: one process, one thread, one job at a time (a closed loop).
Each job goes through ``cogroups.cli.main`` with ``--trace 0``; with
``--trace 1`` it goes through the traced replica in ``layers.py``.  Every
output is checked by ``oracle.py`` the first time it is seen, and must
come back byte for byte on later passes.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` (the end-to-end metrics, or
with ``--trace 1`` the per-layer ones).  Lines before it, prefixed
``info:``, give raw wall-clock figures and the per-job median.  A copy of
the result, and with ``--trace 1`` the spans, go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import math
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import layers
import oracle
import workloads
from refclock import RefClock

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
SETUP_IMPORTS = 25


def fresh_import(clock: RefClock):
    """Import cogroups.cli from nothing; (module, raw seconds, rescaled seconds)."""

    def load():
        for name in [n for n in sys.modules if n == "cogroups" or n.startswith("cogroups.")]:
            del sys.modules[name]
        return importlib.import_module("cogroups.cli")

    module, raw, scale = clock.time(load)
    return module, raw, raw * scale


def call_main(cli, job):
    """(exit code, stdout) of one command line, as a shell would see them."""
    out, err = io.StringIO(), io.StringIO()
    stdin, sys.stdin = sys.stdin, io.StringIO(job.pres.text())
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(job.argv())
    finally:
        sys.stdin = stdin
    return rc, out.getvalue()


class Run:
    def __init__(self, args):
        self.clock = RefClock()
        self.jobs = workloads.jobs(args.workload, args.seed)
        self.seen: dict = {}  # job key -> digest of its checked output
        self.correct = True
        self.attempted = 0
        self.failed = 0
        self.times: dict = {job.key: [] for job in self.jobs}  # rescaled, per pass
        self.totals: list = []  # rescaled seconds per pass
        self.raw: list = []  # raw wall seconds per pass
        self.tracer = layers.Tracer()
        self.scales: dict = {}
        self.counts: list = []  # per pass

    def verify(self, job, rc, stdout, main_cli=None):
        digest = hashlib.sha256(f"{rc}\n{stdout}".encode()).hexdigest()
        if job.key in self.seen:
            if digest != self.seen[job.key]:
                self.report_problem(job, ["output differs from the first pass"])
            return
        problems = oracle.check_output(job, rc, stdout)
        if main_cli is not None and call_main(main_cli, job) != (rc, stdout):
            problems.append("the traced replica does not print what cli.main prints")
        self.report_problem(job, problems)
        self.seen[job.key] = digest

    def report_problem(self, job, problems):
        if problems:
            self.correct = False
            print(f"error: {job.key}: " + "; ".join(problems)[:2000], file=sys.stderr)

    def one_pass(self, cli, replica):
        pass_raw = pass_scaled = 0.0
        pass_counts = dict.fromkeys(layers.COUNTS, 0)
        for job in self.jobs:
            self.attempted += 1
            self.tracer.job = f"{len(self.raw)}:{job.key}"
            try:
                if replica is None:
                    (rc, stdout), raw, scale = self.clock.time(lambda: call_main(cli, job))
                    extra = None
                else:
                    result, raw, scale = self.clock.time(lambda: self.traced(replica, job))
                    rc, stdout, *extra = result
                    self.scales[self.tracer.job] = scale
            except Exception:  # one broken job must not hide the others
                traceback.print_exc()
                self.failed += 1
                self.correct = False
                continue
            if not job.expect_refusal:
                self.times[job.key].append(raw * scale)
                pass_scaled += raw * scale
                pass_raw += raw
            if rc != oracle.expected_exit(job):
                self.failed += 1  # a failed operation; its output is not checked
                continue
            self.verify(job, rc, stdout, cli if replica is not None else None)
            if extra is not None:
                for k, v in layers.layer_counts(job, stdout, *extra).items():
                    pass_counts[k] += v
        self.totals.append(pass_scaled)
        self.raw.append(pass_raw)
        self.counts.append(pass_counts)

    def traced(self, replica, job):
        with self.tracer.span("job"):
            return replica.run(job)

    def end_to_end(self, setup):
        medians = [statistics.median(t) for t in self.times.values() if t]
        geomean = math.exp(sum(math.log(t) for t in medians) / len(medians))
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        print(f"info: passes={len(self.raw)} jobs_per_pass={len(self.jobs)} "
              f"raw_solve_s={statistics.median(self.raw):.4f} "
              f"rescaled_solve_s={statistics.median(self.totals):.4f} "
              f"job_s.p50={statistics.median(medians):.5f} "
              f"setup_raw_s={statistics.median(setup[1]):.5f}")
        print(f"info: reference loop s: median={statistics.median(self.clock.ref_times):.5f} "
              f"min={min(self.clock.ref_times):.5f} max={max(self.clock.ref_times):.5f}")
        return {
            "solve_s": (statistics.median(self.totals), "s"),
            "job_s.geomean": (geomean, "s"),
            "setup_s": (statistics.median(setup[0]), "s"),
            "peak_rss_mb": (peak, "MiB"),
        }

    def per_layer(self):
        passes = len(self.raw)
        sums = [dict.fromkeys(layers.LAYER_SPANS, 0.0) for _ in range(passes)]
        for name, start, end, _, job in self.tracer.spans:
            if name != "job":
                sums[int(job.split(":", 1)[0])][name] += (end - start) * self.scales[job]
        print(f"info: passes={passes} traced_solve_s={statistics.median(self.totals):.4f} "
              f"raw_solve_s={statistics.median(self.raw):.4f}")
        metrics = {f"{n}_s": (statistics.median(s[n] for s in sums), "s") for n in layers.LAYER_SPANS}
        for n in layers.COUNTS:
            values = {c[n] for c in self.counts}
            if len(values) != 1:
                self.correct = False
                print(f"error: count {n} differs between passes: {sorted(values)}", file=sys.stderr)
            metrics[n] = (max(values), "count")
        return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "cogroups" / "cli.py").is_file():
        print(f"error: no cogroups sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    run = Run(args)
    for job in run.jobs:
        problems = oracle.coassociativity_problems(job.pres)
        if problems:
            print(f"error: {job.key}: {problems}", file=sys.stderr)
            return 2

    setup_scaled, setup_raw = [], []
    for _ in range(SETUP_IMPORTS):
        cli, raw, scaled = fresh_import(run.clock)
        setup_raw.append(raw)
        setup_scaled.append(scaled)
    replica = layers.Replica(run.tracer) if args.trace else None

    start = time.perf_counter()
    while not run.raw or time.perf_counter() - start < args.seconds:
        run.one_pass(cli, replica)

    metrics = run.per_layer() if args.trace else run.end_to_end((setup_scaled, setup_raw))
    result = {
        "correct": run.correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"result-{stem}.json").write_text(json.dumps(result, indent=2) + "\n")
    if args.trace:
        run.tracer.write(OUT / f"spans-{stem}.jsonl", run.scales)
    else:
        detail = {
            "raw_solve_s": run.raw,
            "job_s": run.times,
            "setup_s": setup_scaled,
            "setup_raw_s": setup_raw,
            "reference_loop_s": run.clock.ref_times,
        }
        (OUT / f"detail-{stem}.json").write_text(json.dumps(detail, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
