"""Metrics collection: registry primitives and the MetricsObserver.

:class:`MetricsRegistry` is a small counters/gauges/histograms registry
(the usual production-monitoring shapes, kept dependency-free);
:class:`MetricsObserver` populates one from engine events:

- ``messages_total`` / ``publishes_total`` / ``rounds_total`` /
  ``halted_total`` / ``failed_total`` — counters;
- ``payload_bytes_total`` — counter of estimated published bytes
  (:func:`estimate_payload_bytes`; the LOCAL model's messages are
  unbounded, so this measures what an implementation *would* ship);
- ``awake_fraction`` / ``round_payload_bytes`` — per-round histograms;
- ``halt_round`` / ``locality_radius`` — per-vertex histograms, the
  latter via ball-growth accounting: a stepping vertex's information
  radius grows to ``1 + max(radius published by its neighbors)``,
  mirroring how :class:`repro.algorithms.ball.BallCollection` grows
  views.  A vertex's radius at halt is the locality it actually
  consumed — for shattering algorithms this stays far below the
  deterministic diameter bound.

Summaries are plain JSON-safe dicts so :func:`repro.analysis.run_sweep`
can pickle them back from forked workers; :func:`merge_summaries`
combines them deterministically (counters add, gauges take the max,
histograms pool their moments) and refuses summaries it cannot merge
faithfully (foreign schema, newer version, unknown metric type).

The observer is batch-only (:class:`~repro.obs.BatchRunObserver`): it
accumulates from ``on_round_batch`` deliveries on every backend — the
plain-list batches the scalar engines' observer hub assembles, and the
numpy-column batches of the vectorized backend.  Both shapes produce
the *same summary*, a contract pinned per backend by the
observer-neutrality relation in :mod:`repro.verify`.  Histogram totals
stay exact under bulk accumulation because every observed value is an
integer far below 2**53 (or a single per-round float computed
identically on both paths).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..core.engine import RunMeta, RunResult, SETUP_ROUND, flat_adjacency
from .observer import BatchRunObserver, RoundBatch

#: Schema version written by :meth:`MetricsObserver.summary`.  v2 added
#: the run-outcome counters (``runs_succeeded_total`` etc.) and the
#: recomputable ``derived`` block; v1 summaries still merge.
SUMMARY_VERSION = 2

#: Deterministic size charged for objects whose ``repr`` would embed a
#: memory address (default ``object.__repr__``) — never call that repr,
#: it would break byte-identical summaries across runs.
_OPAQUE_OBJECT_BYTES = 16


def estimate_payload_bytes(value: Any) -> int:
    """Deterministic estimate of a published value's wire size.

    Not a serialization — a stable accounting rule: primitives cost
    their natural width, containers cost framing plus contents, and
    opaque objects cost a flat :data:`_OPAQUE_OBJECT_BYTES` (their
    ``repr`` may embed addresses, which would poison determinism).
    """
    # One exact-type test for the shapes publishes usually take; bool,
    # float, bytes, dict, subclasses and opaque objects fall through to
    # the general rule below.
    kind = type(value)
    if kind is int:
        return (value.bit_length() + 7) // 8 or 1
    if kind is tuple or kind is list or kind is set or kind is frozenset:
        total = 2
        for item in value:
            # Int and str members (tags, colors) are sized in place.
            item_kind = type(item)
            if item_kind is int:
                total += (item.bit_length() + 7) // 8 or 1
            elif item_kind is str:
                total += len(item.encode("utf-8"))
            else:
                total += estimate_payload_bytes(item)
        return total
    if kind is str:
        return len(value.encode("utf-8"))
    if value is None:
        return 1
    if isinstance(value, bool):
        return 1
    if isinstance(value, int):
        return max(1, (value.bit_length() + 7) // 8)
    if isinstance(value, float):
        return 8
    if isinstance(value, str):
        return len(value.encode("utf-8"))
    if isinstance(value, (bytes, bytearray)):
        return len(value)
    if isinstance(value, (list, tuple, set, frozenset)):
        return 2 + sum(estimate_payload_bytes(item) for item in value)
    if isinstance(value, dict):
        return 2 + sum(
            estimate_payload_bytes(k) + estimate_payload_bytes(v)
            for k, v in value.items()
        )
    if type(value).__repr__ is object.__repr__:
        return _OPAQUE_OBJECT_BYTES
    return len(repr(value).encode("utf-8"))


class Counter:
    """Monotonic count."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount

    def snapshot(self) -> Dict[str, Any]:
        return {"type": "counter", "value": self.value}


class Gauge:
    """Last-set value."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: float = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def snapshot(self) -> Dict[str, Any]:
        return {"type": "gauge", "value": self.value}


class Histogram:
    """Streaming moments: count, total, min, max (no buckets — the
    distributions we watch are small and summaries must merge)."""

    __slots__ = ("count", "total", "min", "max")

    def __init__(self) -> None:
        self.count = 0
        self.total: float = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    def mean(self) -> Optional[float]:
        if self.count == 0:
            return None
        return self.total / self.count

    def snapshot(self) -> Dict[str, Any]:
        return {
            "type": "histogram",
            "count": self.count,
            "total": self.total,
            "min": self.min,
            "max": self.max,
            "mean": self.mean(),
        }


class MetricsRegistry:
    """Name -> metric, get-or-create, snapshot to a plain dict."""

    def __init__(self) -> None:
        self._metrics: Dict[str, Any] = {}

    def _get(self, name: str, factory: Any) -> Any:
        metric = self._metrics.get(name)
        if metric is None:
            metric = factory()
            self._metrics[name] = metric
        elif not isinstance(metric, factory):
            raise TypeError(
                f"metric {name!r} already registered as "
                f"{type(metric).__name__}"
            )
        return metric

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge)

    def histogram(self, name: str) -> Histogram:
        return self._get(name, Histogram)

    def snapshot(self) -> Dict[str, Dict[str, Any]]:
        """JSON-safe dump of every metric, sorted by name."""
        return {
            name: self._metrics[name].snapshot()
            for name in sorted(self._metrics)
        }


class MetricsObserver(BatchRunObserver):
    """Populate a :class:`MetricsRegistry` from engine events.

    One instance may watch several runs (every phase of a driver under
    :func:`repro.core.observe_runs`); counters and histograms aggregate
    across runs, per-run locality state resets at each
    ``on_run_start``.  Setup-round publishes are folded into the first
    round's payload accounting.

    Batch-only: every backend delivers one :class:`RoundBatch` per
    round.  Plain-list batches (the scalar engines) accumulate in
    Python, numpy-free; when a batch arrives with numpy columns (the
    vectorized backend), per-run locality state flips to numpy arrays
    for that run and ball-growth becomes one CSR segment reduction per
    round — same numbers, no per-vertex Python work.
    """

    checkpoint_capable = True

    def checkpoint_state(self) -> Any:
        """Resumable position: the whole accumulated-metrics state.

        Everything mutable lives in ``__dict__`` (registry, curves,
        per-run locality arrays), and all of it is plain data or numpy
        arrays — picklable by construction.  The snapshot is taken at a
        round boundary, so no partially-assembled batch exists.
        """
        return dict(self.__dict__)

    def restore_checkpoint(self, state: Any) -> None:
        if state is None:
            self.__init__()  # type: ignore[misc]
            return
        self.__dict__.clear()
        self.__dict__.update(state)

    def __init__(self) -> None:
        super().__init__()
        self.registry = MetricsRegistry()
        self.runs = 0
        #: Per-run, per-round curve: list (over runs) of lists of dicts.
        self.round_curves: List[List[Dict[str, Any]]] = []
        self._start_run_state(0, None)

    def _start_run_state(self, n: int, graph: Any) -> None:
        """Reset the per-run state for a run on ``graph`` (``n = 0``
        and no graph between runs)."""
        self._n = n
        self._graph: Any = graph
        self._radius: List[int] = [0] * n
        self._pub_radius: List[int] = [0] * n
        #: Vertices that published in the last batch; their radii
        #: become visible at the next round boundary.
        self._pending_pub: Sequence[int] = ()
        self._round_payload = 0
        self._round_publishes = 0
        # Numpy-mode locality state (vectorized-backend runs only).
        self._vec = False
        self._radius_np: Any = None
        self._pub_radius_np: Any = None
        self._pending_np: List[Tuple[Any, Any]] = []
        self._csr: Any = None

    # -- engine callbacks ----------------------------------------------
    def on_run_start(self, meta: RunMeta) -> None:
        self.runs += 1
        self.round_curves.append([])
        self._start_run_state(meta.n, meta.graph)

    def _count_fault(self, fault: Any) -> None:
        # Injected-fault accounting (see repro.faults): a global count
        # plus one counter per fault kind, so merged sweep telemetry
        # reports exactly what the adversary did.
        self.registry.counter("faults_total").inc()
        self.registry.counter(f"faults_{fault.kind}_total").inc()

    def _end_round(
        self,
        round_index: int,
        awake: int,
        halted: int,
        messages: int,
    ) -> None:
        self.registry.counter("rounds_total").inc()
        self.registry.counter("messages_total").inc(messages)
        fraction = awake / self._n if self._n else 0.0
        self.registry.histogram("awake_fraction").observe(fraction)
        self.registry.histogram("round_payload_bytes").observe(
            self._round_payload
        )
        self.round_curves[-1].append(
            {
                "round": round_index,
                "awake": awake,
                "halted": halted,
                "messages": messages,
                "publishes": self._round_publishes,
                "payload_bytes": self._round_payload,
            }
        )
        self._round_payload = 0
        self._round_publishes = 0

    def on_run_end(self, result: RunResult) -> None:
        if self._vec:
            if self._radius_np is not None and self._n:
                self.registry.gauge("max_locality_radius").set(
                    int(self._radius_np.max())
                )
        elif self._radius:
            self.registry.gauge("max_locality_radius").set(
                max(self._radius)
            )
        # Run-outcome accounting for the empirical failure-probability
        # story (RandLOCAL algorithms promise failure probability
        # ≤ 1/n): pure counters, so sweep merges stay order-insensitive
        # and the rates can be recomputed after any merge (see
        # ``derived`` in :meth:`summary`).
        if result.failures:
            self.registry.counter("runs_failed_total").inc()
        else:
            self.registry.counter("runs_succeeded_total").inc()
        self.registry.counter("runs_vertices_total").inc(self._n)
        # The run's locality state is dead once it ends: drop it, so an
        # idle observer (and a finished slot's .done) holds no graph.
        self._start_run_state(0, None)

    def on_run_fault(self, round_index: int, fault: Any) -> None:
        # Round-budget exhaustion: the run raises right after.
        self._count_fault(fault)

    # -- round batches --------------------------------------------------
    def on_round_batch(self, batch: RoundBatch) -> None:
        if not self._vec and (
            hasattr(batch.stepped, "dtype")
            or hasattr(batch.published, "dtype")
            or hasattr(batch.halted_verts, "dtype")
        ):
            self._enter_vector_mode()
        if self._vec:
            self._batch_np(batch)
        else:
            self._batch_lists(batch)

    def _batch_lists(self, batch: RoundBatch) -> None:
        """Accumulate a plain-list batch, in Python."""
        registry = self.registry
        r = batch.round_index
        radius = self._radius
        if r != SETUP_ROUND:
            # Publishes staged last round (or in setup) became visible
            # at this round boundary — commit their information radii,
            # exactly like the engine's double buffering commits
            # values.  A publisher has not stepped since, so its
            # radius is still the one it published with.
            pub_radius = self._pub_radius
            for v in self._pending_pub:
                pub_radius[v] = radius[v]
            # Ball growth: a stepping vertex's radius grows to one more
            # than the largest radius its neighbors have published.
            graph = self._graph
            if graph is not None:
                offsets, targets = flat_adjacency(graph)
                for v in batch.stepped:
                    grown = radius[v]
                    for u in targets[offsets[v] : offsets[v + 1]]:
                        reach = pub_radius[u] + 1
                        if reach > grown:
                            grown = reach
                    radius[v] = grown
        for _, fault in batch.faults:
            self._count_fault(fault)
        published = batch.published
        if published:
            npub = len(published)
            total = sum(batch.publish_bytes())
            registry.counter("publishes_total").inc(npub)
            registry.counter("payload_bytes_total").inc(total)
            self._round_payload += total
            self._round_publishes += npub
        self._pending_pub = published if radius else ()
        halted = batch.halted_verts
        if halted:
            nhalt = len(halted)
            registry.counter("halted_total").inc(nhalt)
            _observe_bulk(
                registry.histogram("halt_round"), nhalt, r * nhalt, r, r
            )
            if radius:
                radii = [radius[v] for v in halted]
                _observe_bulk(
                    registry.histogram("locality_radius"),
                    nhalt,
                    sum(radii),
                    min(radii),
                    max(radii),
                )
        if batch.failed:
            registry.counter("failed_total").inc(len(batch.failed))
        if r != SETUP_ROUND:
            self._end_round(r, batch.awake, batch.halted, batch.messages)

    def _enter_vector_mode(self) -> None:
        import numpy as np

        self._vec = True
        self._radius_np = np.zeros(self._n, dtype=np.int64)
        self._pub_radius_np = np.zeros(self._n, dtype=np.int64)
        self._pending_np = []
        if self._graph is not None and self._n:
            from ..backends.vectorized import csr_arrays

            self._csr = csr_arrays(self._graph)

    def _batch_np(self, batch: RoundBatch) -> None:
        import numpy as np

        registry = self.registry
        r = batch.round_index
        track_radius = self._n > 0
        if r != SETUP_ROUND:
            if self._pending_np:
                for verts, radii in self._pending_np:
                    self._pub_radius_np[verts] = radii
                self._pending_np = []
            if self._csr is not None and len(batch.stepped):
                self._grow_radii_np(np, np.asarray(batch.stepped))
        for _, fault in batch.faults:
            self._count_fault(fault)
        npub = len(batch.published)
        if npub:
            sizes = np.asarray(batch.publish_bytes(), dtype=np.int64)
            total = int(sizes.sum())
            registry.counter("publishes_total").inc(npub)
            registry.counter("payload_bytes_total").inc(total)
            self._round_payload += total
            self._round_publishes += npub
            if track_radius:
                published = np.asarray(batch.published)
                self._pending_np.append(
                    (published, self._radius_np[published])
                )
        nhalt = len(batch.halted_verts)
        if nhalt:
            registry.counter("halted_total").inc(nhalt)
            _observe_bulk(
                registry.histogram("halt_round"), nhalt, r * nhalt, r, r
            )
            if track_radius:
                radii = self._radius_np[np.asarray(batch.halted_verts)]
                _observe_bulk(
                    registry.histogram("locality_radius"),
                    nhalt,
                    int(radii.sum()),
                    int(radii.min()),
                    int(radii.max()),
                )
        nfail = len(batch.failed)
        if nfail:
            registry.counter("failed_total").inc(nfail)
        if r != SETUP_ROUND:
            self._end_round(r, batch.awake, batch.halted, batch.messages)

    def _grow_radii_np(self, np: Any, stepped: Any) -> None:
        """Ball-growth for all stepping vertices as one CSR segment
        reduction — the columnar twin of the list path's loop."""
        offsets, targets = self._csr
        starts = offsets[stepped]
        counts = offsets[stepped + 1] - starts
        seg_off = np.zeros(stepped.size + 1, dtype=np.int64)
        np.cumsum(counts, out=seg_off[1:])
        total = int(seg_off[-1])
        if total == 0:
            return
        ptr = np.repeat(np.arange(stepped.size, dtype=np.int64), counts)
        within = np.arange(total, dtype=np.int64) - seg_off[ptr]
        reach = self._pub_radius_np[targets[starts[ptr] + within]] + 1
        padded = np.append(reach, np.int64(0))
        grown = np.maximum.reduceat(padded, seg_off[:-1])
        grown[seg_off[:-1] == seg_off[1:]] = 0
        self._radius_np[stepped] = np.maximum(
            self._radius_np[stepped], grown
        )

    # -- summaries ------------------------------------------------------
    def summary(self) -> Dict[str, Any]:
        """Plain JSON-safe dict: scalar metrics, no per-round curves.

        This is what :func:`repro.analysis.run_sweep` ships back from
        forked workers and merges across cells — keep it picklable and
        deterministic.  The ``derived`` block (empirical failure rate
        vs the 1/n target) is recomputed from counters, both here and
        after every :func:`merge_summaries`, so it stays correct under
        any merge order.
        """
        metrics = self.registry.snapshot()
        return {
            "schema": "repro.obs.metrics",
            "version": SUMMARY_VERSION,
            "runs": self.runs,
            "metrics": metrics,
            "derived": _derived_block(metrics),
        }


def _observe_bulk(
    hist: Histogram,
    count: int,
    total: int,
    vmin: float,
    vmax: float,
) -> None:
    """Fold ``count`` integer observations summing to ``total`` into
    ``hist`` at once.  Exact twin of ``count`` scalar ``observe``
    calls: integer partial sums are float-exact below 2**53."""
    hist.count += count
    hist.total += total
    if hist.min is None or vmin < hist.min:
        hist.min = vmin
    if hist.max is None or vmax > hist.max:
        hist.max = vmax


def _counter_value(metrics: Dict[str, Any], name: str) -> int:
    snap = metrics.get(name)
    return snap["value"] if snap and snap.get("type") == "counter" else 0


def _derived_block(metrics: Dict[str, Any]) -> Dict[str, Any]:
    """Rates recomputed from counters — never merged directly, so they
    stay consistent regardless of merge order.

    ``empirical_failure_rate`` is the fraction of observed runs with at
    least one failed vertex; ``failure_rate_target`` is the paper's
    1/n promise, generalized to runs/total-vertices so uniform-n sweeps
    read exactly 1/n.
    """
    failed = _counter_value(metrics, "runs_failed_total")
    succeeded = _counter_value(metrics, "runs_succeeded_total")
    vertices = _counter_value(metrics, "runs_vertices_total")
    finished = failed + succeeded
    derived: Dict[str, Any] = {}
    if finished:
        derived["runs_observed"] = finished
        derived["empirical_failure_rate"] = failed / finished
    if vertices:
        derived["failure_rate_target"] = finished / vertices
    return derived


_METRIC_TYPES = ("counter", "gauge", "histogram")


def _merge_metric(
    name: str, a: Dict[str, Any], b: Dict[str, Any]
) -> Dict[str, Any]:
    if a["type"] != b["type"]:
        raise ValueError(
            f"metric {name!r} has conflicting types: "
            f"{a['type']} vs {b['type']}"
        )
    if a["type"] == "counter":
        return {"type": "counter", "value": a["value"] + b["value"]}
    if a["type"] == "gauge":
        return {"type": "gauge", "value": max(a["value"], b["value"])}
    count = a["count"] + b["count"]
    total = a["total"] + b["total"]
    mins = [x["min"] for x in (a, b) if x["min"] is not None]
    maxs = [x["max"] for x in (a, b) if x["max"] is not None]
    return {
        "type": "histogram",
        "count": count,
        "total": total,
        "min": min(mins) if mins else None,
        "max": max(maxs) if maxs else None,
        "mean": (total / count) if count else None,
    }


#: Every top-level section this build knows how to merge.  ``derived``
#: is recomputable from the merged counters, so dropping an *input's*
#: derived block is faithful; any other unrecognized section is not.
_SUMMARY_KEYS = frozenset(
    {"schema", "version", "runs", "metrics", "derived"}
)


def _check_mergeable(summary: Dict[str, Any]) -> None:
    """Refuse summaries this code cannot merge faithfully — silently
    dropping (or mis-adding) a newer schema's keys would corrupt sweep
    telemetry without a trace."""
    schema = summary.get("schema", "repro.obs.metrics")
    if schema != "repro.obs.metrics":
        raise ValueError(
            f"cannot merge foreign summary schema {schema!r}"
        )
    version = summary.get("version", 1)
    if not isinstance(version, int) or version > SUMMARY_VERSION:
        raise ValueError(
            f"cannot merge metrics summary version {version!r}: this "
            f"build understands versions 1..{SUMMARY_VERSION} — "
            "upgrade before merging"
        )
    unknown = sorted(set(summary) - _SUMMARY_KEYS)
    if unknown:
        raise ValueError(
            f"cannot merge metrics summary with unknown section(s) "
            f"{unknown} — merging would silently drop them"
        )
    for name, snap in summary.get("metrics", {}).items():
        kind = snap.get("type") if isinstance(snap, dict) else None
        if kind not in _METRIC_TYPES:
            raise ValueError(
                f"metric {name!r} has unknown type {kind!r} "
                "(newer schema?) — refusing to merge"
            )


def merge_summaries(
    summaries: Sequence[Dict[str, Any]],
) -> Dict[str, Any]:
    """Deterministically combine :meth:`MetricsObserver.summary` dicts.

    Counters add, gauges keep the maximum, histograms pool moments, and
    the ``derived`` rates are recomputed from the merged counters.
    Merging is order-insensitive for counters/histograms and reduced
    with ``max`` for gauges, so any grid order yields the same result
    — the bit-identical-to-serial contract ``run_sweep`` tests rely on.

    Raises :class:`ValueError` on anything that cannot be merged
    faithfully: a foreign schema, a summary version newer than
    :data:`SUMMARY_VERSION`, or a metric of unknown type.  (v1
    summaries merge fine; the result is always emitted at the current
    version.)
    """
    merged: Dict[str, Any] = {
        "schema": "repro.obs.metrics",
        "version": SUMMARY_VERSION,
        "runs": 0,
        "metrics": {},
    }
    metrics: Dict[str, Dict[str, Any]] = {}
    for summary in summaries:
        _check_mergeable(summary)
        merged["runs"] += summary.get("runs", 0)
        for name, snap in summary.get("metrics", {}).items():
            if name in metrics:
                metrics[name] = _merge_metric(name, metrics[name], snap)
            else:
                metrics[name] = dict(snap)
    merged["metrics"] = {name: metrics[name] for name in sorted(metrics)}
    merged["derived"] = _derived_block(merged["metrics"])
    return merged


__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsObserver",
    "MetricsRegistry",
    "SETUP_ROUND",
    "SUMMARY_VERSION",
    "estimate_payload_bytes",
    "merge_summaries",
]
