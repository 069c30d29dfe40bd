"""In-memory spans with per-name call counts, total time and self time.

A span records (id, parent id, name, start, end, run id).  Its self time is
its duration minus the time its children cover.  A run is single threaded,
so children never overlap and the covered time is the sum of the children's
durations; summed over every span, self times therefore add up exactly to
the root spans' durations (all times are integer nanoseconds).

Closed spans stay in memory until ``write`` empties them into a file.  Work
the tracer does for itself (writing spans, bookkeeping in hooks) runs inside
``off_clock``, whose duration is taken off the tracer's clock, so it shows
in no span's duration.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from contextlib import contextmanager

SPAN_HEADER = "span\tparent\tname\tstart_ns\tend_ns\trun\n"


class Tracer:
    def __init__(self, clock=time.perf_counter_ns, run_id: str = "-"):
        self._clock = clock
        self._paused_ns = 0
        self._next_id = 0
        self._stack: list[list] = []  # open spans: [id, name, start, child_ns, run_id]
        self.run_id = run_id
        self.closed: list[tuple] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.total_ns: dict[str, int] = defaultdict(int)
        self.self_ns: dict[str, int] = defaultdict(int)

    def now(self) -> int:
        return self._clock() - self._paused_ns

    @contextmanager
    def off_clock(self):
        started = self._clock()
        try:
            yield
        finally:
            self._paused_ns += self._clock() - started

    def open(self, name: str) -> None:
        self._next_id += 1
        self._stack.append([self._next_id, name, self.now(), 0, self.run_id])

    def close(self) -> None:
        end = self.now()
        span_id, name, start, child_ns, run_id = self._stack.pop()
        duration = end - start
        parent_id = 0
        if self._stack:
            parent = self._stack[-1]
            parent[3] += duration
            parent_id = parent[0]
        self.calls[name] += 1
        self.total_ns[name] += duration
        self.self_ns[name] += duration - child_ns
        self.closed.append((span_id, parent_id, name, start, end, run_id))

    def wrap(self, name: str, fn, before=None, after=None):
        """Return ``fn`` inside a span named ``name``.

        ``before(args, kwargs)`` runs just before the span opens and
        ``after(args, kwargs, result)`` just after it closes.  Hooks read
        arguments; they may measure the result (its pickled size) but never
        look into it, so the wrapper does not depend on its shape.
        """

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close()
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def write(self, fh) -> None:
        """Append the closed spans to ``fh`` as TSV lines and forget them."""
        with self.off_clock():
            fh.writelines(
                f"{sid}\t{pid}\t{name}\t{start}\t{end}\t{run}\n"
                for sid, pid, name, start, end, run in self.closed
            )
            self.closed.clear()
