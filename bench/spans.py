"""In-memory spans around calls into acx4's public functions.

The tracer replaces chosen module attributes with wrappers while it is
installed and restores them afterwards, so nothing under src/ changes.  A
wrapped call becomes one span: name, start, end, parent span, job id and
an optional integer value read off the call (a size, a byte count or an
exit code).  Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import json
import math
from contextlib import contextmanager
from time import perf_counter_ns

# span fields, stored as lists to keep the wrapper cheap
NAME, START, END, PARENT, JOB, VALUE = range(6)


class Tracer:
    def __init__(self, targets):
        """targets: (module, attribute, name, value) tuples.  name is a
        string or a function of the call's positional arguments; value is
        None or a function (args, result) -> int."""
        self.targets = targets
        self.spans = []
        self.job = None
        self._stack = []

    def _wrap(self, fn, name, value):
        spans = self.spans
        stack = self._stack

        def traced(*args, **kwargs):
            rec = [name(args) if callable(name) else name, 0, 0,
                   stack[-1] if stack else -1, self.job, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = perf_counter_ns()
                stack.pop()
            if value is not None:
                rec[VALUE] = value(args, result)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Patch every target for the duration of the block."""
        saved = []
        try:
            for module, attr, name, value in self.targets:
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self._wrap(original, name, value))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def self_times(self) -> list[int]:
        """Per span: its duration minus the time its direct children cover.

        Calls nest on one thread, so children never overlap and the time
        they cover is the sum of their durations.
        """
        own = [s[END] - s[START] for s in self.spans]
        for s in self.spans:
            if s[PARENT] >= 0:
                own[s[PARENT]] -= s[END] - s[START]
        return own

    def dump(self, path):
        """Write one JSON object per span, in start order."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": s[NAME], "start_ns": s[START],
                    "end_ns": s[END], "parent": s[PARENT], "job": s[JOB],
                    "value": s[VALUE]}) + "\n")


def loglog_slope(points) -> float:
    """Least-squares slope of log(time) against log(size).

    Points with a nonpositive size or time are skipped; fewer than two
    distinct sizes give 0.0.
    """
    xs, ys = [], []
    for size, t in points:
        if size and size > 0 and t > 0:
            xs.append(math.log(size))
            ys.append(math.log(t))
    if len(set(xs)) < 2:
        return 0.0
    mx = sum(xs) / len(xs)
    my = sum(ys) / len(ys)
    sxx = sum((x - mx) ** 2 for x in xs)
    sxy = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    return sxy / sxx
