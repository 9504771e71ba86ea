"""In-memory spans recorded from the benchmark's own code.

A :class:`Tracer` keeps every span in a list and writes nothing until
the benchmark ends.  Spans nest: each records the span that was open
when it started, and a span's *self time* is its duration minus the
part of its interval that its children cover.

:class:`RunLedger` is the one engine observer the traced pass attaches
(through ``repro.core.observe_runs``).  It overrides only the
run-level callbacks, so it adds no per-vertex work of its own, and it
reports itself batch capable so the vectorized backend stays on its
kernels.  Each engine run becomes a ``core.engine.run`` span under the
driver span that was open when the run started.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Tuple,
)

from repro.core import current_backend_name
from repro.obs import RunObserver


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: Optional[int] = None

    @property
    def duration(self) -> float:
        return self.end - self.start


def covered(
    intervals: Iterable[Tuple[float, float]], lo: float, hi: float
) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    clipped = sorted(
        (max(a, lo), min(b, hi)) for a, b in intervals if b > lo and a < hi
    )
    total = 0.0
    reach = lo
    for a, b in clipped:
        if b <= reach:
            continue
        total += b - max(a, reach)
        reach = b
    return total


class Tracer:
    """Nested spans, kept in memory in start order."""

    def __init__(
        self, clock: Callable[[], float] = time.perf_counter
    ) -> None:
        self.clock = clock
        self.spans: List[Span] = []
        self._open: List[int] = []

    def current(self) -> Optional[int]:
        return self._open[-1] if self._open else None

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        span = Span(name, self.clock(), parent=self.current())
        self.spans.append(span)
        self._open.append(len(self.spans) - 1)
        try:
            yield span
        finally:
            span.end = self.clock()
            self._open.pop()

    def record(self, name: str, start: float, end: float) -> None:
        """Add a finished span under the currently open one."""
        self.spans.append(Span(name, start, end, self.current()))

    def children(self, index: Optional[int]) -> List[Span]:
        return [s for s in self.spans if s.parent == index]

    def self_time(self, index: int) -> float:
        span = self.spans[index]
        kids = ((c.start, c.end) for c in self.children(index))
        return span.duration - covered(kids, span.start, span.end)

    def total(self, name: str) -> float:
        return sum(s.duration for s in self.spans if s.name == name)

    def self_total(self, name: str) -> float:
        return sum(
            self.self_time(i)
            for i, s in enumerate(self.spans)
            if s.name == name
        )


class RunLedger(RunObserver):
    """Requested vs executed backend, kernel, rounds and time per run."""

    #: Keeps the vectorized backend on its kernels (it falls back to the
    #: per-vertex engine when any attached observer lacks this flag).
    batch_capable = True
    #: Allowed inside ``checkpointing`` scopes; like the plane-2 timing
    #: sidecars it has no stream to rewind (state ``None``).
    checkpoint_capable = True

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.runs: List[Dict[str, Any]] = []
        self._run: Optional[Dict[str, Any]] = None

    def on_run_start(self, meta: Any) -> None:
        self._run = {
            "algorithm": meta.algorithm,
            "n": meta.n,
            "requested": current_backend_name(),
            "executed": None,
            "kernel": None,
            "start": self.tracer.clock(),
        }

    def on_backend_info(self, backend: str, kernel: Optional[str]) -> None:
        if self._run is not None:
            self._run["executed"] = backend
            self._run["kernel"] = kernel

    def on_round_batch(self, batch: Any) -> None:
        pass

    def on_run_fault(self, round_index: int, fault: Any) -> None:
        pass

    def _close(self, rounds: int, messages: int) -> None:
        run, self._run = self._run, None
        if run is None:
            return
        run["end"] = self.tracer.clock()
        if run["executed"] is None:
            # Only the batch-plane backends announce themselves; a run
            # that did not ran on a per-vertex engine, and a vectorized
            # request lands on the fast engine when no kernel exists.
            run["executed"] = (
                "reference" if run["requested"] == "reference" else "fast"
            )
        run.update(rounds=rounds, messages=messages)
        self.runs.append(run)
        self.tracer.record("core.engine.run", run["start"], run["end"])

    def on_run_end(self, result: Any) -> None:
        self._close(result.rounds, result.messages)

    def on_run_abort(self, round_index: int, error: BaseException) -> None:
        self._close(max(round_index, 0), 0)

    def fallbacks(self) -> List[Dict[str, Any]]:
        return [r for r in self.runs if r["executed"] != r["requested"]]
