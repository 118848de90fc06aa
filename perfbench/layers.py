"""The traced run: a job as the sequence of public calls that
``cogroups.cli.run_command`` makes, with a span around each call.

Spans live in memory as (name, start, end, parent, job) and are written
out once, when the run ends.  The replica must print exactly what
``cli.main`` prints; the benchmark compares the two on every job.

Layer counts are read after a job's clock has stopped, from the objects
the calls returned, and cost the job nothing.
"""

from __future__ import annotations

import json
import sys
import time
from contextlib import contextmanager

# Span names; the per-layer metric is the name plus "_s".
LAYER_SPANS = (
    "dsl.parse",
    "coalgebra.axioms",
    "cogroup.build",
    "cogroup.axioms",
    "convolution.antipode",
    "convolution.hopf",
    "classify.nu_eq_chi",
    "classify.classify",
    "algebra.nu_table",
    "rings.snf",
    "convolution.rank",
    "cli.format",
    "cli.render",
)
COUNTS = (
    "cogroup.axiom_checks",
    "cogroup.delta_terms",
    "convolution.chi_terms",
    "convolution.matrix_cells",
    "algebra.words",
    "cli.output_bytes",
)


class Tracer:
    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self.job = None

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        record = [name, time.perf_counter(), None, parent, self.job]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def write(self, path, scales: dict):
        """One JSON object per span; ``scale`` is its job's rescaling factor."""
        with open(path, "w", encoding="utf-8") as f:
            for name, start, end, parent, job in self.spans:
                f.write(json.dumps({
                    "name": name, "start": start, "end": end,
                    "parent": parent, "job": job, "scale": scales[job],
                }) + "\n")


class Replica:
    """Runs one job through the library, as ``run_command`` would."""

    def __init__(self, tracer: Tracer):
        self.m = {name: sys.modules[f"cogroups.{name}"] for name in (
            "algebra", "classify", "cli", "coalgebra", "cogroup", "convolution", "dsl")}
        self.tracer = tracer

    def run(self, job):
        """(exit code, stdout, cogroup, chi or None, axiom checks) of one job."""
        m, span = self.m, self.tracer.span
        D = job.top
        try:
            with span("dsl.parse"):
                spec = m["dsl"].parse_spec(job.pres.text())
            coalg = spec.coalgebra()
            with span("coalgebra.axioms"):
                report = m["coalgebra"].check_coalgebra_axioms(coalg, D)
            if not report.ok:
                raise ValueError(f"coalgebra axioms fail: {report}")
            with span("cogroup.build"):
                A = m["cogroup"].Cogroup(coalg, D)
        except ValueError:  # ParseError is a ValueError; main exits 2 on both
            return 2, "", None, None, 0
        verdicts, witnesses, chi, checked = [], [], None, 0
        cmd = job.command
        if cmd == "check-cogroup":
            with span("cogroup.axioms"):
                report = m["cogroup"].check_cogroup_axioms(A, D)
            verdicts.append(("cogroup-axioms", report.ok))
            witnesses.extend(report.violations)
            ok, checked = report.ok, report.checked
        elif cmd == "check-hopf":
            with span("convolution.antipode"):
                chi = m["convolution"].antipode(A)
            with span("convolution.hopf"):
                report = m["convolution"].check_hopf_antipode(A, chi)
            verdicts.append(("hopf-antipode-laws", report.ok))
            witnesses.extend(report.violations)
            ok = report.ok
        elif cmd == "antipode":
            with span("convolution.antipode"):
                chi = m["convolution"].antipode(A)
            with span("cli.format"):
                for d in range(D + 1):
                    for w in A.algebra.basis(d):
                        label = m["algebra"].format_word(w)
                        verdicts.append((f"chi({label})", str(chi.image(w)) if d else "1"))
            ok = True
        elif cmd == "inverse":
            words = list(A.algebra.words_up_to(D))
            with span("algebra.nu_table"):
                images = [A.nu(A.algebra.element({w: 1})) for w in words]
            with span("cli.format"):
                for w, img in zip(words, images):
                    label = m["algebra"].format_word(w)
                    verdicts.append((f"nu({label})", str(img) if w else "1"))
            ok = True
        elif cmd == "nu-eq-chi":
            with span("classify.nu_eq_chi"):
                ok, witness = m["classify"].inverse_equals_antipode(A, D)
            verdicts.append(("nu-eq-chi", ok))
            witnesses.extend([witness] if witness else [])
        elif cmd == "check-surjective":
            with span("convolution.antipode"):
                chi = m["convolution"].antipode(A)
            layer = "rings.snf" if spec.ring.kind in ("Z", "Zmod") else "convolution.rank"
            with span(layer):
                degrees = m["convolution"].is_antipode_surjective(A, chi)
            verdicts.extend((f"surjective-degree-{d}", degrees[d]) for d in sorted(degrees))
            ok = all(degrees.values())
            verdicts.append(("surjective-all-degrees", ok))
        elif cmd == "classify":
            with span("classify.classify"):
                report = m["classify"].classify_cogroup(A, D)
            verdicts.extend(report.verdicts())
            witnesses.extend([report.witness] if report.witness else [])
            ok = report.consistent
        else:
            raise ValueError(f"the replica does not run {cmd}")
        with span("cli.render"):
            report = m["cli"].Report(
                command=cmd,
                ring=str(spec.ring),
                generators=spec.generator_summaries(),
                max_degree=D,
                verdicts=verdicts,
                witnesses=witnesses,
                exit_code=0 if ok else 1,
            )
            out = report.render_json() if job.as_json else report.render_text()
        return report.exit_code, out + "\n", A, chi, checked


def layer_counts(job, stdout: str, A, chi, checked: int) -> dict:
    """Exact per-job counts, read from what the calls returned."""
    counts = dict.fromkeys(COUNTS, 0)
    counts["cli.output_bytes"] = len(stdout.encode())
    counts["cogroup.axiom_checks"] = checked
    if A is None:
        return counts
    alg = A.algebra
    words = list(alg.words_up_to(job.top))
    counts["algebra.words"] = len(words)
    if job.command in ("antipode", "check-hopf", "nu-eq-chi", "check-surjective", "classify"):
        # chi has been computed, so every reduced coproduct is cached
        counts["cogroup.delta_terms"] = sum(len(A.reduced_coproduct_word(w)) for w in words if w)
    if chi is not None:
        counts["convolution.chi_terms"] = sum(len(chi.image(w).terms) for w in words if w)
    if job.command == "check-surjective":
        width = 2 if A.ring.kind in ("Z", "Zmod") else 1
        counts["convolution.matrix_cells"] = sum(
            len(alg.basis(d)) ** 2 * width for d in range(1, job.top + 1)
        )
    return counts
