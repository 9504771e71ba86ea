"""The ``"vectorized"`` backend: whole rounds as numpy kernels.

Instead of stepping vertices one Python call at a time, this backend
executes each communication round as a handful of array operations over
the CSR adjacency (:func:`repro.core.engine.flat_adjacency`'s layout):
inbox *gathers* become fancy indexing on ``targets``, per-vertex
aggregation becomes segment reductions over the CSR offsets, and the
dirty-commit pass becomes a masked scatter.  That is what makes the
paper's asymptotic regime (n = 10^6–10^7, experiment E5) reachable —
see ``docs/performance.md`` for the design and measured speedups.

**Bit-identity contract.**  A registered :class:`RoundKernel` is a
vectorized *reimplementation* of one algorithm's ``setup``/``step``;
the parameterized equivalence relation (``repro.verify``) pins its
RunResult — outputs, rounds, messages, failures, trace — to the scalar
engines.  RandLOCAL kernels consume the exact same per-vertex
``random.Random`` streams in the exact same per-vertex draw order, so
even sampled executions match draw-for-draw.

**Fallback rules.**  The harness silently delegates to the fast
per-node engine whenever vectorized execution could not be
bit-identical or is impossible:

- no kernel is registered for the algorithm's type;
- a *legacy* (non batch-capable) observer is attached — per-event
  callbacks require per-node stepping.  Batch-capable observers
  (:class:`repro.obs.BatchRunObserver` subclasses, which includes
  ``MetricsObserver`` and ``JsonlTraceObserver``) stay on the
  vectorized path: the harness delivers whole rounds columnar-ly via
  ``on_round_batch``, with kernels reporting their published values
  through :meth:`VectorRun.record_publish`, and the resulting
  telemetry (metrics summaries, trace bytes) is identical to the
  scalar engines';
- the active fault plan touches messages (drop/duplicate/corrupt need
  materialized per-port inboxes) — round budgets stay on the
  vectorized path, and so do crash-stop faults when the kernel
  declares :attr:`RoundKernel.handles_crashes` (all shipped kernels
  do: their published-state arrays are scattered only for ``awake``
  vertices, so a crashed vertex's last published value stays frozen);
- the kernel's ``supports()`` veto — unusual configurations (oversized
  palettes, missing inputs) where the scalar path is the spec.

The fallback is an implementation detail: callers always observe
engine-identical behavior, including error behavior.  One documented
exception on *raising* observed runs: the batched stream stops at the
last completed round boundary, whereas the scalar stream may include a
prefix of the partial round (both satisfy the observer contract's
"the stream simply stops").
"""

from __future__ import annotations

import os
import random
from itertools import chain
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Type

import numpy as np

from ..core.algorithm import SyncAlgorithm
from ..core.checkpoint import CheckpointSession
from ..core.context import Model
from ..core.engine import (
    DEFAULT_MAX_ROUNDS,
    SETUP_ROUND,
    RoundTrace,
    RunMeta,
    RunResult,
    _attached_observers,
    _run_local_fast,
    active_fault_plan,
)
from ..core.errors import DuplicateIDError, FaultEvent, ReproError, SimulationError
from ..core.ids import check_unique_ids, sequential_ids
from ..graphs.graph import Graph
from ..obs.observer import RoundBatch
from .mt19937 import VectorMT

#: Sentinel distinguishing "no constant value" in record_publish.
_NO_VALUE = object()

#: Kernel registry: algorithm class -> RoundKernel subclass.
_KERNELS: Dict[type, Type["RoundKernel"]] = {}

_kernels_imported = False


def register_kernel(
    algorithm_cls: type,
) -> Callable[[Type["RoundKernel"]], Type["RoundKernel"]]:
    """Class decorator registering a kernel for one algorithm type."""

    def decorate(kernel_cls: Type["RoundKernel"]) -> Type["RoundKernel"]:
        _KERNELS[algorithm_cls] = kernel_cls
        return kernel_cls

    return decorate


def kernel_for(algorithm: SyncAlgorithm) -> Optional[Type["RoundKernel"]]:
    """The registered kernel class for ``algorithm`` (exact type match)."""
    _ensure_kernels()
    return _KERNELS.get(type(algorithm))


def _ensure_kernels() -> None:
    """Import the shipped kernel definitions exactly once."""
    global _kernels_imported
    if not _kernels_imported:
        from ..algorithms import kernels  # noqa: F401  (registration side effect)

        _kernels_imported = True


# ---------------------------------------------------------------------------
# Segment helpers over CSR slices
# ---------------------------------------------------------------------------


def edge_slices(
    offsets: np.ndarray, verts: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """CSR edge slots owned by ``verts``, segment-shaped.

    Returns ``(e, seg_off, ptr)``: ``e`` lists the CSR slot index of
    every edge of every vertex in ``verts`` (port order preserved),
    ``seg_off`` are the per-vertex segment offsets into ``e`` (length
    ``len(verts) + 1``), and ``ptr[j]`` is the position in ``verts`` of
    the vertex owning ``e[j]``.
    """
    starts = offsets[verts]
    counts = offsets[verts + 1] - starts
    seg_off = np.zeros(verts.size + 1, dtype=np.int64)
    np.cumsum(counts, out=seg_off[1:])
    total = int(seg_off[-1])
    ptr = np.repeat(
        np.arange(verts.size, dtype=np.int64), counts
    )
    within = np.arange(total, dtype=np.int64) - seg_off[ptr]
    e = starts[ptr] + within
    return e, seg_off, ptr


def segment_or(values: np.ndarray, seg_off: np.ndarray) -> np.ndarray:
    """Per-segment bitwise OR (identity 0) of ``values`` partitioned by
    ``seg_off``; safe for empty segments (degree-0 vertices)."""
    nseg = seg_off.size - 1
    if values.size == 0:
        return np.zeros(nseg, dtype=np.int64)
    padded = np.append(values, values.dtype.type(0))
    out = np.bitwise_or.reduceat(padded, seg_off[:-1])
    out[seg_off[:-1] == seg_off[1:]] = 0
    return out


_SWAR_M1 = np.uint64(0x5555555555555555)
_SWAR_M2 = np.uint64(0x3333333333333333)
_SWAR_M4 = np.uint64(0x0F0F0F0F0F0F0F0F)
_SWAR_H01 = np.uint64(0x0101010101010101)


def _popcount_swar(masks: np.ndarray) -> np.ndarray:
    """Branch-free SWAR popcount for numpy < 2.0 (no
    ``np.bitwise_count``).  Inputs are non-negative int64 masks."""
    x = masks.astype(np.uint64)
    x = x - ((x >> np.uint64(1)) & _SWAR_M1)
    x = (x & _SWAR_M2) + ((x >> np.uint64(2)) & _SWAR_M2)
    x = (x + (x >> np.uint64(4))) & _SWAR_M4
    return ((x * _SWAR_H01) >> np.uint64(56)).astype(np.int64)


if hasattr(np, "bitwise_count"):  # numpy >= 2.0

    def popcount(masks: np.ndarray) -> np.ndarray:
        """Per-element set-bit count of non-negative int64 masks."""
        return np.bitwise_count(masks).astype(np.int64)

else:  # pragma: no cover — exercised directly by the test suite
    popcount = _popcount_swar


# ---------------------------------------------------------------------------
# The run handle kernels execute against
# ---------------------------------------------------------------------------


class VectorRun:
    """Shared state of one vectorized run, handed to the kernel.

    The harness owns scheduling (wake buckets, bulk skip, crashes,
    budgets, trace); the kernel owns the algorithm state and publishes.
    Kernels report lifecycle changes through :meth:`halt` and
    :meth:`sleep` — the exact analogues of ``ctx.halt`` and
    ``ctx.sleep_until``.
    """

    def __init__(
        self,
        graph: Graph,
        model: Model,
        *,
        ids: Optional[Sequence[int]],
        seed: Optional[int],
        node_inputs: Optional[Sequence[Dict[str, Any]]],
        global_params: Optional[Dict[str, Any]],
        rng_factory: Optional[Any],
        allow_duplicate_ids: bool,
    ) -> None:
        n = graph.num_vertices
        # Mirror build_contexts' model validation verbatim, so
        # configuration errors are backend-identical.
        if model is Model.DET:
            if ids is None:
                ids = sequential_ids(n)
            if len(ids) != n:
                raise DuplicateIDError(f"need {n} IDs, got {len(ids)}")
            if not allow_duplicate_ids:
                check_unique_ids(ids)
            try:
                self.ids: Optional[np.ndarray] = np.asarray(
                    [int(x) for x in ids], dtype=np.int64
                )
            except OverflowError:
                self.ids = None  # kernels needing IDs must veto
        else:
            if ids is not None:
                raise SimulationError(
                    "RandLOCAL vertices are undifferentiated; "
                    "do not pass IDs"
                )
            self.ids = None
        self.seed = seed
        #: Custom per-vertex stream factories cannot be vectorized;
        #: RandLOCAL kernels must veto when this is set.
        self.rng_factory = rng_factory
        self._vector_rng: Optional[VectorMT] = None
        self.graph = graph
        self.model = model
        self.n = n
        self.num_edges = graph.num_edges
        self.max_degree = graph.max_degree
        # CSR adjacency: ``targets[offsets[v]:offsets[v + 1]]`` lists
        # v's neighbors in port order (flat_adjacency's layout).
        adjacency = list(map(graph.neighbors, range(n)))
        self.offsets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(
            np.fromiter(map(len, adjacency), dtype=np.int64, count=n),
            out=self.offsets[1:],
        )
        self.targets = np.fromiter(
            chain.from_iterable(adjacency),
            dtype=np.int64,
            count=2 * self.num_edges,
        )
        self.node_inputs = node_inputs
        self.globals: Dict[str, Any] = dict(global_params or {})
        self.halted = np.zeros(n, dtype=bool)
        self.wake = np.full(n, -1, dtype=np.int64)
        self.outputs: List[Any] = [None] * n
        self.failures: Dict[int, str] = {}
        #: Vertices halted in the round being executed (harness-reset).
        self.halted_this_round = 0
        #: True when batch-capable observers are attached; kernels must
        #: then report publishes via :meth:`record_publish` (a no-op
        #: otherwise, so the unobserved hot path pays one bool test).
        self.observing = False
        self._pub_segments: List[Tuple[np.ndarray, Any, Any, Any, Any]] = []
        self._halt_segments: List[Tuple[np.ndarray, List[Any]]] = []

    def vector_rng(self, min_words: int = 64) -> VectorMT:
        """The run's per-vertex random streams as one :class:`VectorMT`.

        Built lazily (DET runs and vetoed kernels never pay for it)
        from the same master-seed derivation as ``make_node_rngs``, so
        vertex ``v``'s stream is bit-identical to the scalar engines'
        ``ctx.random``.  ``min_words`` is the kernel's per-vertex draw
        budget hint (only the first call sizes the buffer; outrunning
        it stays correct, just slower).
        """
        if self._vector_rng is None:
            if self.rng_factory is not None:
                raise SimulationError(
                    "custom rng_factory streams cannot be vectorized"
                )
            cap = os.environ.get("REPRO_VECTOR_WORD_CAP")
            if cap:
                # Supervisor degradation ladder, stage 1: clamp the
                # initial buffer *hint* to shrink peak RSS.  Streams
                # that outrun the cap still grow on demand, so results
                # stay bit-identical — just slower.
                try:
                    min_words = min(min_words, max(1, int(cap)))
                except ValueError:
                    pass
            # One 64n-bit read: CPython emits its 32-bit words least
            # significant first, so little-endian uint64 element v is
            # exactly the v-th ``getrandbits(64)`` of make_node_rngs.
            master = random.Random(self.seed)
            wide = master.getrandbits(64 * self.n)
            seeds = np.frombuffer(
                wide.to_bytes(8 * self.n, "little"), dtype="<u8"
            ).astype(np.uint64)
            self._vector_rng = VectorMT(seeds, min_words=min_words)
        return self._vector_rng

    def halt(self, verts: np.ndarray, outputs: Any) -> None:
        """Halt ``verts`` with per-vertex ``outputs`` (array or list).

        Output values are converted to plain Python objects so the
        RunResult (and anything serialized from it) is byte-identical
        to the scalar engines'.
        """
        if verts.size == 0:
            return
        self.halted[verts] = True
        self.halted_this_round += int(verts.size)
        values = (
            outputs.tolist()
            if isinstance(outputs, np.ndarray)
            else outputs
        )
        out = self.outputs
        for v, value in zip(verts.tolist(), values):
            out[v] = value
        if self.observing:
            self._halt_segments.append(
                (
                    verts,
                    values if isinstance(outputs, np.ndarray) else list(values),
                )
            )

    def record_publish(
        self,
        verts: np.ndarray,
        values: Any = None,
        *,
        value_const: Any = _NO_VALUE,
        values_fn: Optional[Callable[[], Sequence[Any]]] = None,
        payload_bytes: Any = None,
    ) -> None:
        """Report this round's published values for ``verts``.

        A no-op unless the run is observed (:attr:`observing`), so
        kernels call it unconditionally at every scatter site.  The
        reported values must be *exactly* what the scalar algorithm
        passes to ``ctx.publish`` for those vertices — the
        observer-neutrality relation pins trace bytes across backends.

        Exactly one of three value forms must be given: ``values`` (a
        sequence/array aligned with ``verts``), ``value_const`` (one
        shared value for every vertex), or ``values_fn`` (a thunk
        returning the aligned sequence, called only if an observer
        actually needs materialized values — payload-value traces).
        ``payload_bytes`` optionally pre-computes
        :func:`repro.obs.estimate_payload_bytes` per vertex (an aligned
        int array, or one int for all) so byte accounting never has to
        materialize values; omit it to let observers derive sizes from
        the values themselves.
        """
        if not self.observing or verts.size == 0:
            return
        if values is None and value_const is _NO_VALUE and values_fn is None:
            raise TypeError(
                "record_publish needs values, value_const, or values_fn"
            )
        self._pub_segments.append(
            (verts, payload_bytes, values, value_const, values_fn)
        )

    def sleep(self, verts: np.ndarray, wake_rounds: np.ndarray) -> None:
        """Park ``verts`` until their ``wake_rounds`` (absolute)."""
        self.wake[verts] = wake_rounds


class RoundKernel:
    """Vectorized implementation of one algorithm's rounds.

    Subclasses implement:

    - ``supports(algorithm, run)`` — veto configurations the kernel
      cannot reproduce bit-identically (the harness then falls back to
      the per-node engine, which is the spec);
    - ``setup()`` — mirror ``algorithm.setup`` for all ``run.n``
      vertices (initial publishes, setup halts via ``run.halt``,
      sleeps via ``run.sleep``);
    - ``step(awake, round_index)`` — mirror one synchronous round for
      the scheduled vertex set ``awake``.  Reads must use pre-round
      published state only (gather before scatter — the vectorized
      double buffering).

    A kernel that opts into :attr:`handles_crashes` additionally
    guarantees crash-stop fidelity: published state it gathers from
    must be scattered only for vertices in ``awake``, so a crashed
    vertex's last published value stays frozen exactly as in the
    scalar engines (which simply stop stepping it).  Kernels that keep
    the default ``False`` make the harness fall back to the per-node
    engine whenever the active plan crashes anybody.
    """

    #: Whether this kernel freezes non-awake published state correctly
    #: under crash-stop fault plans (see class docstring).
    handles_crashes = False

    def __init__(self, run: VectorRun, algorithm: SyncAlgorithm) -> None:
        self.run = run
        self.algorithm = algorithm

    @classmethod
    def supports(cls, algorithm: SyncAlgorithm, run: VectorRun) -> bool:
        return True

    def setup(self) -> None:
        raise NotImplementedError

    def step(self, awake: np.ndarray, round_index: int) -> None:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# Checkpoint capability (see repro.core.backend / repro.core.checkpoint)
# ---------------------------------------------------------------------------


class _VectorState:
    """Checkpoint handle for one vectorized run: the kernel (which owns
    the :class:`VectorRun`) plus the harness counters the engine copies
    in at each round boundary before :meth:`CheckpointSession.save`."""

    __slots__ = ("kernel", "rounds", "messages", "traces")

    def __init__(self, kernel: RoundKernel) -> None:
        self.kernel = kernel
        self.rounds = 0
        self.messages = 0
        self.traces: List[RoundTrace] = []


def capture_vector_state(state: _VectorState) -> Dict[str, Any]:
    """``Backend.capture_state`` for the vectorized engine.

    The snapshot holds the kernel's columnar algorithm state (its
    ``__dict__`` minus the ``run``/``algorithm`` back-references), the
    run's lifecycle arrays (halt flags, wake rounds, outputs,
    failures), and the :class:`~repro.backends.mt19937.VectorMT` depth
    and draw cursors.  The MT output buffer itself is *not* stored — it
    regenerates bit-exactly from the seeds at restore, keeping
    snapshots O(n) instead of O(words × n).  Values are referenced,
    not copied: the caller pickles the payload synchronously at the
    round boundary, before any further mutation.
    """
    kernel = state.kernel
    run = kernel.run
    rng = run._vector_rng
    return {
        "format": "vector",
        "rounds": state.rounds,
        "messages": state.messages,
        "traces": list(state.traces),
        "kernel": {
            key: value
            for key, value in kernel.__dict__.items()
            if key not in ("run", "algorithm")
        },
        "halted": run.halted,
        "wake": run.wake,
        "outputs": run.outputs,
        "failures": run.failures,
        "rng": (
            None
            if rng is None
            else {"words": rng.words, "pos": rng.pos}
        ),
    }


def restore_vector_state(state: _VectorState, payload: Dict[str, Any]) -> None:
    """``Backend.restore_state`` for the vectorized engine: applied to
    a freshly constructed kernel *in place of* ``setup()``."""
    kernel = state.kernel
    run = kernel.run
    state.rounds = int(payload["rounds"])
    state.messages = int(payload["messages"])
    state.traces[:] = payload["traces"]
    for key, value in payload["kernel"].items():
        setattr(kernel, key, value)
    run.halted[:] = payload["halted"]
    run.wake[:] = payload["wake"]
    run.outputs[:] = payload["outputs"]
    run.failures.clear()
    run.failures.update(payload["failures"])
    rng_state = payload["rng"]
    if rng_state is not None:
        # min_words sizes the regenerated buffer to the snapshot's depth
        # up front (one refill instead of grow-and-replay); a smaller
        # REPRO_VECTOR_WORD_CAP may clamp it, which stays correct —
        # outrun cursors regrow transparently on the next draw.
        rng = run.vector_rng(min_words=int(rng_state["words"]))
        rng.restore_positions(rng_state["pos"])


# ---------------------------------------------------------------------------
# Batch assembly: kernel-recorded segments -> one RoundBatch per round
# ---------------------------------------------------------------------------


def _merged_values_fn(
    pubs: List[Tuple[np.ndarray, Any, Any, Any, Any]],
    order: Optional[np.ndarray],
) -> Callable[[], List[Any]]:
    """Thunk materializing the round's published values in vertex
    order, deferring per-vertex Python object construction until an
    observer actually asks (payload-value traces, generic replay)."""

    def materialize() -> List[Any]:
        parts: List[Any] = []
        for verts, _pb, values, const, fn in pubs:
            if values is not None:
                parts.extend(
                    values.tolist()
                    if isinstance(values, np.ndarray)
                    else values
                )
            elif fn is not None:
                parts.extend(fn())
            else:
                parts.extend([const] * int(verts.size))
        if order is not None:
            return [parts[i] for i in order.tolist()]
        return parts

    return materialize


def _build_round_batch(
    run: VectorRun,
    round_index: int,
    *,
    active: int = 0,
    awake: int = 0,
    halted: int = 0,
    messages: int = 0,
    stepped: Any = (),
    failed: Any = (),
    fail_reasons: Sequence[str] = (),
    faults: Sequence[Tuple[int, FaultEvent]] = (),
) -> RoundBatch:
    """Drain the run's recorded publish/halt segments into one
    :class:`RoundBatch` with ascending vertex columns."""
    pubs = run._pub_segments
    halts = run._halt_segments
    run._pub_segments = []
    run._halt_segments = []

    published: Any = ()
    publish_bytes: Optional[np.ndarray] = None
    values_fn: Optional[Callable[[], List[Any]]] = None
    if pubs:
        if len(pubs) == 1:
            published = pubs[0][0]
            order = None
        else:
            published = np.concatenate([seg[0] for seg in pubs])
            order = np.argsort(published, kind="stable")
            published = published[order]
        byte_parts: Optional[List[np.ndarray]] = []
        for verts, pb, _values, _const, _fn in pubs:
            if pb is None:
                byte_parts = None
                break
            if isinstance(pb, (int, np.integer)):
                byte_parts.append(
                    np.full(verts.size, int(pb), dtype=np.int64)
                )
            else:
                byte_parts.append(np.asarray(pb, dtype=np.int64))
        if byte_parts is not None:
            publish_bytes = (
                byte_parts[0]
                if len(byte_parts) == 1
                else np.concatenate(byte_parts)
            )
            if order is not None:
                publish_bytes = publish_bytes[order]
        values_fn = _merged_values_fn(pubs, order)

    halted_verts: Any = ()
    halt_values: Sequence[Any] = ()
    if halts:
        if len(halts) == 1:
            halted_verts, halt_values = halts[0]
        else:
            halted_verts = np.concatenate([seg[0] for seg in halts])
            horder = np.argsort(halted_verts, kind="stable")
            halted_verts = halted_verts[horder]
            merged: List[Any] = []
            for _verts, vals in halts:
                merged.extend(vals)
            halt_values = [merged[i] for i in horder.tolist()]

    return RoundBatch(
        round_index,
        active=active,
        awake=awake,
        halted=halted,
        messages=messages,
        stepped=stepped,
        published=published,
        publish_values_fn=values_fn,
        publish_bytes=publish_bytes,
        halted_verts=halted_verts,
        halt_values=halt_values,
        failed=failed,
        fail_reasons=fail_reasons,
        faults=faults,
    )


# ---------------------------------------------------------------------------
# The harness
# ---------------------------------------------------------------------------


def run_local_vectorized(
    graph: Graph,
    algorithm: SyncAlgorithm,
    model: Model,
    *,
    ids: Optional[Sequence[int]] = None,
    seed: Optional[int] = None,
    node_inputs: Optional[Sequence[Dict[str, Any]]] = None,
    global_params: Optional[Dict[str, Any]] = None,
    max_rounds: int = DEFAULT_MAX_ROUNDS,
    rng_factory: Optional[Any] = None,
    allow_duplicate_ids: bool = False,
    trace: bool = False,
    observers: Optional[Sequence[Any]] = None,
    fault_plan: Optional[Any] = None,
    checkpoint: Optional[CheckpointSession] = None,
) -> RunResult:
    """Entry point of the ``"vectorized"`` backend (same signature and
    same RunResult as every other backend)."""
    _ensure_kernels()

    def fall_back() -> RunResult:
        # The checkpoint session rides along: the fallback decision is
        # deterministic for a fixed configuration, so a resumed run
        # falls back exactly when the interrupted run did and the
        # per-node engine consumes the (scalar-format) snapshot.
        return _run_local_fast(
            graph,
            algorithm,
            model,
            ids=ids,
            seed=seed,
            node_inputs=node_inputs,
            global_params=global_params,
            max_rounds=max_rounds,
            rng_factory=rng_factory,
            allow_duplicate_ids=allow_duplicate_ids,
            trace=trace,
            observers=observers,
            fault_plan=fault_plan,
            checkpoint=checkpoint,
        )

    kernel_cls = _KERNELS.get(type(algorithm))
    if kernel_cls is None:
        return fall_back()
    attached = _attached_observers(observers)
    if attached and not all(
        getattr(obs, "batch_capable", False) for obs in attached
    ):
        # Legacy per-event observers need per-node stepping; batch
        # capable ones consume columnar ``on_round_batch`` deliveries
        # and keep the run on the vectorized kernels.
        return fall_back()
    observing = bool(attached)
    meta = RunMeta(
        algorithm=algorithm.name,
        model=model,
        n=graph.num_vertices,
        num_edges=graph.num_edges,
        max_degree=graph.max_degree,
        max_rounds=max_rounds,
        seed=seed,
        graph=graph,
    )
    plan = fault_plan if fault_plan is not None else active_fault_plan()
    faults = plan.activate(meta) if plan is not None else None
    if faults is not None and faults.touches_messages:
        # Message perturbation happens per materialized inbox slot;
        # the per-node engine is the spec for that path.
        return fall_back()
    if (
        faults is not None
        and faults.crashes
        and not kernel_cls.handles_crashes
    ):
        # Crash-stop freezes published state; only kernels declaring
        # that guarantee (scatter restricted to ``awake``) may stay on
        # the vectorized path.
        return fall_back()
    try:
        run = VectorRun(
            graph,
            model,
            ids=ids,
            seed=seed,
            node_inputs=node_inputs,
            global_params=global_params,
            rng_factory=rng_factory,
            allow_duplicate_ids=allow_duplicate_ids,
        )
        run.observing = observing
        if not kernel_cls.supports(algorithm, run):
            return fall_back()
        kernel = kernel_cls(run, algorithm)
    except ReproError:
        raise
    except Exception:
        # Construction chokes on ill-typed inputs (e.g. a composite
        # driver feeding forward the None outputs of a crash-faulted
        # upstream phase) before anything observable happened; the
        # scalar engine re-raises its own — contractual — error.
        return fall_back()

    state = _VectorState(kernel)
    resumed = (
        checkpoint.engine_payload("vector") if checkpoint is not None else None
    )
    if resumed is not None:
        # Mid-run snapshot: restoring replaces setup(), and the
        # observer streams continue from their restored positions — no
        # run_start, no backend_info, no setup batch (all of those
        # happened before the snapshot was taken).
        checkpoint.restore_engine(state, resumed)
    else:
        try:
            kernel.setup()
        except ReproError:
            raise
        except Exception:
            # Same contract as the construction fallback above.
            return fall_back()
        if observing:
            # Observable events start only after setup succeeded: had
            # the harness fallen back above, the per-node engine would
            # have emitted the whole stream itself (no double
            # run_start).
            for obs in attached:
                obs.on_run_start(meta)
            kernel_name = type(kernel).__name__
            for obs in attached:
                obs.on_backend_info("vectorized", kernel_name)
            setup_batch = _build_round_batch(run, SETUP_ROUND)
            for obs in attached:
                obs.on_round_batch(setup_batch)

    n = run.n
    rounds = state.rounds
    messages = state.messages
    traces = state.traces
    alive = ~run.halted
    # At a round-``rounds`` boundary a non-halted vertex is runnable iff
    # its wake round is unset (-1) or has arrived (<= rounds); only
    # strictly later wake rounds park it.  Fresh runs start at rounds=0,
    # where this is the original post-setup scan.
    parked_mask = alive & (run.wake > rounds)
    runnable = np.flatnonzero(alive & ~parked_mask)
    #: wake round -> vertices parked until that round (index arrays).
    buckets: Dict[int, np.ndarray] = {}
    parked = int(parked_mask.sum())
    if parked:
        parked_verts = np.flatnonzero(parked_mask)
        for wake_round, group in _group_by_wake(
            run.wake[parked_verts], parked_verts
        ):
            buckets[wake_round] = group

    crash_round: Optional[np.ndarray] = None
    if faults is not None and faults.crashes:
        crash_round = np.full(n, np.iinfo(np.int64).max, dtype=np.int64)
        for v, at in faults.crashes.items():
            crash_round[v] = at

    messages_per_round = 2 * run.num_edges
    budget = faults.budget if faults is not None else None

    try:
        while runnable.size or parked:
            if checkpoint is not None and checkpoint.due(rounds):
                state.rounds = rounds
                state.messages = messages
                checkpoint.save(state, rounds)
            if budget is not None and rounds >= budget:
                budget_error = faults.budget_error(rounds)
                if observing:
                    # Run-level fault: delivered immediately (never part of
                    # a batch), exactly like the scalar engines' vertex-None
                    # ``on_fault`` right before the raise.
                    for obs in attached:
                        obs.on_run_fault(rounds, budget_error)
                raise budget_error
            if rounds >= max_rounds:
                raise SimulationError(
                    f"{algorithm.name!r} exceeded {max_rounds} rounds on "
                    f"n={n} (likely non-terminating)",
                    round=rounds,
                    run_meta=meta,
                )
            if parked:
                due = buckets.pop(rounds, None)
                if due is not None and due.size:
                    parked -= int(due.size)
                    runnable = (
                        np.concatenate([runnable, due])
                        if runnable.size
                        else due
                    )
                if not runnable.size:
                    # Bulk-accounted sleeping span, exactly as in the fast
                    # engine: advance round/message counters to the next
                    # wake (clamped by max_rounds and any injected budget)
                    # and synthesize the same trace entries.
                    skip_to = min(min(buckets), max_rounds)
                    if budget is not None and budget < skip_to:
                        skip_to = budget
                    skip = skip_to - rounds
                    if trace:
                        traces.extend(
                            RoundTrace(active=parked, awake=0, halted=0)
                            for _ in range(skip)
                        )
                    if observing:
                        # The scalar engines emit round boundaries for
                        # bulk-accounted sleeping rounds too: one empty
                        # batch per skipped round keeps the streams equal.
                        for r in range(rounds, rounds + skip):
                            empty = RoundBatch(
                                r,
                                active=parked,
                                messages=messages_per_round,
                            )
                            for obs in attached:
                                obs.on_round_batch(empty)
                    rounds += skip
                    messages += skip * messages_per_round
                    continue
            if observing and runnable.size:
                # Ascending vertex order, as the scalar engines schedule
                # when observed; kernels are order-insensitive so this only
                # normalizes the batch columns.
                runnable = np.sort(runnable)
            active_now = int(runnable.size) + parked
            awake_now = int(runnable.size)
            run.halted_this_round = 0
            crashed_verts: Any = ()
            crash_reasons: List[str] = []
            crash_faults: List[Tuple[int, FaultEvent]] = []
            if crash_round is not None:
                crashed_sel = crash_round[runnable] <= rounds
                if crashed_sel.any():
                    # Crash-stop semantics mirror the scalar engines: the
                    # vertex counts as awake (it was scheduled) and halted,
                    # never steps again, and its last published value stays
                    # visible.  Output stays None; the failure is recorded.
                    crashed = runnable[crashed_sel]
                    reason = faults.crash_reason(rounds)
                    for v in crashed.tolist():
                        run.failures[v] = reason
                        if observing:
                            crash_faults.append(
                                (v, faults.crash_event(rounds, v))
                            )
                            crash_reasons.append(reason)
                    run.halted[crashed] = True
                    run.halted_this_round += int(crashed.size)
                    runnable = runnable[~crashed_sel]
                    if observing:
                        crashed_verts = crashed
            run.wake[runnable] = -1
            if runnable.size:
                kernel.step(runnable, rounds)
            survivors = runnable[~run.halted[runnable]]
            wake = run.wake[survivors]
            park_sel = wake > rounds + 1
            if park_sel.any():
                parking = survivors[park_sel]
                for wake_round, group in _group_by_wake(
                    wake[park_sel], parking
                ):
                    previous = buckets.get(wake_round)
                    buckets[wake_round] = (
                        group
                        if previous is None
                        else np.concatenate([previous, group])
                    )
                parked += int(parking.size)
                survivors = survivors[~park_sel]
            if trace:
                traces.append(
                    RoundTrace(
                        active=active_now,
                        awake=awake_now,
                        halted=run.halted_this_round,
                    )
                )
            if observing:
                batch = _build_round_batch(
                    run,
                    rounds,
                    active=active_now,
                    awake=awake_now,
                    halted=run.halted_this_round,
                    messages=messages_per_round,
                    stepped=runnable,
                    failed=crashed_verts,
                    fail_reasons=crash_reasons,
                    faults=crash_faults,
                )
                for obs in attached:
                    obs.on_round_batch(batch)
            runnable = survivors
            rounds += 1
            messages += messages_per_round
    except BaseException as exc:
        # The run died mid-flight (algorithm exception, injected
        # budget, kill signal surfacing as KeyboardInterrupt):
        # give buffering observers one flush so partial runs keep
        # their telemetry, then keep propagating.
        if observing:
            for obs in attached:
                obs.on_run_abort(rounds, exc)
        raise

    result = RunResult(
        outputs=run.outputs,
        rounds=rounds,
        messages=messages,
        failures=run.failures,
        trace=traces,
    )
    if observing:
        for obs in attached:
            obs.on_run_end(result)
    return result


def _group_by_wake(
    wake_rounds: np.ndarray, verts: np.ndarray
) -> List[Tuple[int, np.ndarray]]:
    """Group ``verts`` by their wake round (few distinct values)."""
    groups: List[Tuple[int, np.ndarray]] = []
    for wake_round in np.unique(wake_rounds).tolist():
        groups.append(
            (int(wake_round), verts[wake_rounds == wake_round])
        )
    return groups
