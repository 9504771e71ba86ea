"""Structured telemetry for the LOCAL engine — two planes.

**Plane 1 (deterministic)**: the engines (``run_local``, the reference
implementation, and the vectorized backend) emit run/round boundaries,
vertex steps, publishes, halts, failures, and faults to any attached
:class:`RunObserver`.  :class:`BatchRunObserver` subclasses get whole
rounds at once as columnar :class:`RoundBatch` payloads on every backend
(assembled by the scalar engines' observer hub, native on the vectorized
backend); plain observers get one callback per event on the scalar
engines — same facts, different shape.  Everything on this plane is
held to byte-identity: summaries and trace bytes are identical across
engines, backends, and repeated runs of the same seed.

- :class:`MetricsObserver` — counters/gauges/histograms: message and
  payload-byte accounting, awake fractions, per-node halt rounds, and
  the effective locality radius each vertex consumed;
- :class:`JsonlTraceObserver` — a deterministic JSONL event stream
  with a versioned schema (v1–v3);
- :mod:`repro.obs.shattering` — the Theorem 3 profiler (halt-fraction
  curve, surviving-component sizes), streaming over traces;
- :mod:`repro.obs.query` — streaming trace analytics (filter,
  aggregate, round timeline, per-vertex history, cross-cell merge);
- :mod:`repro.obs.export` — Prometheus text / canonical JSON views of
  metric summaries.

**Plane 2 (nondeterministic sidecar)**: wall clock, RSS, GC activity,
and backend attribution can never be byte-stable, so they live in
:mod:`repro.obs.timing` — a separate JSONL sidecar stream and a live
progress renderer, excluded from the byte-identity contract by design.

Observers are read-only spectators: callbacks must not mutate the
context, graph, or batch arrays they are shown (static-analysis rule
LM008 flags violations).  See ``docs/observability.md`` for the event
schema, the ordering contract, and the determinism table.
"""

from .export import (
    EXPORT_SCHEMA,
    EXPORT_VERSION,
    to_json_snapshot,
    to_prometheus,
    write_metrics_export,
)
from .metrics import (
    SUMMARY_VERSION,
    MetricsObserver,
    MetricsRegistry,
    estimate_payload_bytes,
    merge_summaries,
)
from .observer import (
    BatchRunObserver,
    RoundBatch,
    RunObserver,
    iter_scalar_events,
)
from .query import (
    aggregate_trace,
    filter_events,
    merge_aggregates,
    round_timeline,
    vertex_history,
)
from .shattering import (
    RoundShatterStats,
    ShatteringProfile,
    profile_events,
    profile_trace,
    render_profile_report,
)
from .timing import (
    TIMING_SCHEMA,
    TIMING_VERSION,
    ProgressReporter,
    TimingSidecarObserver,
    read_timing_sidecar,
)
from .trace import (
    EMISSION_MODES,
    SUPPORTED_TRACE_VERSIONS,
    TRACE_SCHEMA,
    TRACE_VERSION,
    JsonlTraceObserver,
    iter_trace,
    read_trace,
)

__all__ = [
    "BatchRunObserver",
    "EMISSION_MODES",
    "EXPORT_SCHEMA",
    "EXPORT_VERSION",
    "JsonlTraceObserver",
    "MetricsObserver",
    "MetricsRegistry",
    "ProgressReporter",
    "RoundBatch",
    "RoundShatterStats",
    "RunObserver",
    "SUMMARY_VERSION",
    "SUPPORTED_TRACE_VERSIONS",
    "ShatteringProfile",
    "TIMING_SCHEMA",
    "TIMING_VERSION",
    "TRACE_SCHEMA",
    "TRACE_VERSION",
    "TimingSidecarObserver",
    "aggregate_trace",
    "estimate_payload_bytes",
    "filter_events",
    "iter_scalar_events",
    "iter_trace",
    "merge_aggregates",
    "merge_summaries",
    "profile_events",
    "profile_trace",
    "read_timing_sidecar",
    "read_trace",
    "render_profile_report",
    "round_timeline",
    "to_json_snapshot",
    "to_prometheus",
    "vertex_history",
    "write_metrics_export",
]
