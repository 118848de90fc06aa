"""Wall time rescaled to a fixed reference speed.

The speed of a shared virtual machine drifts by itself, often by tens of
percent within seconds, so raw seconds do not repeat from run to run.
Every timed piece therefore sits between two runs of a fixed
pure-stdlib reference loop, and its wall time is multiplied by

    NOMINAL_S / (mean of the two loop times around it).

The loop runs no ``cogroups`` code, so no change to the program can move
it.  ``gc.collect()`` runs before every timed piece, the loop included,
outside the timing: otherwise a collection of the previous piece's
garbage lands in whichever piece comes next.

NOMINAL_S is about the loop's time on the machine whose figures the
README gives, in its fast state.  It fixes the unit ("reference
seconds") and must never change, or figures from before and after stop
being comparable.
"""

from __future__ import annotations

import gc
import time

NOMINAL_S = 0.013
_KEYS = tuple((i % 7, i % 11, i % 13) for i in range(300))


def reference_loop() -> int:
    """Two fixed halves: arithmetic over a small, cache-resident dict, then
    building, filling and sorting a dict of about 6000 fresh tuple keys.

    The machine's slow state slows the first half more than the jobs, and
    the second half less; timed around the same jobs, the sum tracked the
    jobs' speed better than either half alone.
    """
    acc: dict = {}
    for r in range(64):
        tag = (r & 7,)
        for k in _KEYS:
            w = k + tag
            acc[w] = (acc.get(w, 0) + r * 40503 + len(w)) % 1000003
    fresh: dict = {}
    for r in range(6):
        for i in range(1000):
            k = (i % 97, i % 89, (i * r) % 83, r)
            fresh[k] = fresh.get(k, 0) + i * r
    return sum(acc.values()) + len(sorted(fresh.items()))


class RefClock:
    """Times pieces back to back, each between two reference loops."""

    def __init__(self):
        self.ref_times: list = []
        self._last = self.reference()

    def reference(self) -> float:
        gc.collect()
        t0 = time.perf_counter()
        reference_loop()
        dt = time.perf_counter() - t0
        self.ref_times.append(dt)
        return dt

    def time(self, fn):
        """Run fn(); return (its result, raw seconds, rescaling factor)."""
        gc.collect()
        t0 = time.perf_counter()
        result = fn()
        raw = time.perf_counter() - t0
        before, self._last = self._last, self.reference()
        return result, raw, NOMINAL_S / ((before + self._last) / 2)
