"""In-memory spans and counters around kernelrisk's layers, set from outside.

Every wrapper replaces a module-level name where the library looks it up
(``kernelrisk.solver.cho_factor``, ``kernelrisk.experiments.fit``, ...), so
nothing under ``src/`` changes.  A wrapper always runs its capture hook, which
hands results to the correctness checks; spans and counts are recorded only
while ``Tracer.enabled`` is true.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import time
from collections import Counter

_now = time.perf_counter


def arg(args, kwargs, index, name):
    """A call argument given by position or by keyword."""
    return args[index] if len(args) > index else kwargs[name]


class Tracer:
    """Spans ``[name, start, end, parent, trial]`` plus named counters.

    ``parent`` is the index of the enclosing span (-1 at the top level) and
    ``trial`` the id shared by the spans of one trial (-1 outside trials).
    """

    def __init__(self):
        self.enabled = False
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._open: list[int] = []
        self._trial = -1
        self._trials = 0

    def wrap(self, owner, attr: str, name: str, *, count=None, capture=None,
             trial: bool = False) -> None:
        """Replace ``owner.attr`` by a wrapper recording span ``name``.

        ``count(counts, args, kwargs, result)`` runs while tracing is on;
        ``capture(args, kwargs, result)`` runs on every call.  ``trial``
        marks the call that starts one trial.
        """
        fn = getattr(owner, attr)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                out = fn(*args, **kwargs)
            else:
                with self.block(name, trial=trial):
                    out = fn(*args, **kwargs)
                if count is not None:
                    count(self.counts, args, kwargs, out)
            if capture is not None:
                capture(args, kwargs, out)
            return out

        setattr(owner, attr, wrapper)

    @contextlib.contextmanager
    def block(self, name: str, trial: bool = False):
        """Span around a block; a no-op while tracing is off."""
        if not self.enabled:
            yield
            return
        if trial:
            self._trial = self._trials
            self._trials += 1
        rec = [name, 0.0, 0.0, self._open[-1] if self._open else -1,
               self._trial]
        self._open.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = _now()
        try:
            yield
        finally:
            rec[2] = _now()
            self._open.pop()
            if trial:
                self._trial = -1


def layer_times(spans: list[list], first: int, wall: float) -> dict[str, dict]:
    """Calls, total and self time per span name over ``spans[first:]``.

    A span's self time is its duration minus the time its child spans
    cover; children run inside their parent one after another, so that is
    the sum of the children's durations.  Time outside every span of the
    slice is booked to ``benchmark``: the driver loop and the library code
    between wrapped calls.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans[first:]:
        if parent >= first:
            child[parent] += end - start
    out: dict[str, dict] = {}
    top = 0.0
    for i in range(first, len(spans)):
        name, start, end, parent, _ = spans[i]
        row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += end - start
        row["self_s"] += end - start - child[i]
        if parent < first:
            top += end - start
    out["benchmark"] = {"calls": 1, "total_s": wall, "self_s": wall - top}
    return out
