"""The synchronous round engine for DetLOCAL and RandLOCAL.

:func:`run_local` executes a :class:`~repro.core.algorithm.SyncAlgorithm`
on a port-numbered graph under a chosen model, and returns a
:class:`RunResult` whose ``rounds`` field is the paper's only cost
measure — the number of synchronized communication rounds until every
vertex has halted.

Faithfulness guarantees:

- a vertex only ever reads values published by its graph neighbors in
  the *previous* round (double buffering — no same-round information
  leaks);
- local computation is free and messages are unbounded, as in the model;
- DetLOCAL vertices receive unique IDs and no randomness; RandLOCAL
  vertices receive private random streams and no IDs
  (:class:`~repro.core.context.NodeContext` enforces this);
- a run that exceeds ``max_rounds`` raises instead of under-reporting.

:func:`run_local` dispatches to a pluggable *backend* (see
:mod:`repro.core.backend`); three implementations share these
guarantees:

- ``"fast"`` (:func:`_run_local_fast`, the default) — the production
  engine.  It keeps a persistent ``visible`` list and commits only the
  publishes that actually changed (instead of re-materializing an O(n)
  snapshot every round), delivers inboxes through a flat CSR adjacency
  built once per run, and parks ``sleep_until`` vertices in round-keyed
  wake buckets so sleeping vertices are never scanned.  Per-round cost
  is O(awake + changed), which is what the paper's shattering analysis
  predicts the workload looks like: after a few rounds almost every
  vertex has halted.
- ``"reference"`` (:func:`run_local_reference`) — the original
  straight-line loop, kept deliberately simple.  The equivalence test
  suite runs every shipped algorithm under every registered backend and
  asserts identical :class:`RunResult`\\ s; see ``docs/performance.md``.
- ``"vectorized"`` (:mod:`repro.backends.vectorized`, optional) —
  whole rounds as numpy kernels over the CSR arrays, for the paper's
  asymptotic regime (n = 10^6 and up).  Requires the ``[perf]`` extra;
  drivers without a registered kernel fall back to the fast per-node
  loop.

Both engines accept *observers* (``observers=[...]`` or ambiently via
:func:`observe_runs`): read-only spectators implementing the
``repro.obs.RunObserver`` callback protocol.  Dispatch is guarded by a
single ``hub is not None`` test, so runs without observers pay nothing,
and the two engines emit **identical event streams** for the same run —
per-node events are delivered in ascending vertex order and
bulk-accounted sleeping rounds are reported through synthesized
round-start/round-end events.  Batch-capable observers receive those
events as one shared ``RoundBatch`` per round (see
:class:`_ObserverHub`).  See ``docs/observability.md``.

Both engines also accept a *fault plan* (``fault_plan=...`` or
ambiently via :func:`inject_faults`): a seeded, deterministic adversary
(see :mod:`repro.faults`) that crash-stops chosen vertices, perturbs
message delivery per edge-port, and enforces a round budget.  Like
observers, the middleware is guarded by ``is not None`` tests so the
no-fault path stays on the perf baseline, and fault decisions are
hash-derived from ``(plan seed, round, vertex, port)`` — never from
sequential RNG draws — so the two engines inject the *same* faults and
stay bit-identical under any plan.  See ``docs/robustness.md``.
"""

from __future__ import annotations

import random
import struct
from contextlib import contextmanager
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from .algorithm import SyncAlgorithm
from .backend import (
    Runner,
    current_backend_name,
    get_backend,
    register_backend,
    use_backend,
)
from .checkpoint import (
    CheckpointError,
    CheckpointPolicy,
    CheckpointSession,
    current_checkpoint_scope,
    standalone_scope,
)
from .context import Model, NodeContext
from .errors import DuplicateIDError, ReproError, SimulationError
from .ids import check_unique_ids, sequential_ids
from ..graphs.graph import Graph

#: Default safety cap on rounds; generously above any algorithm here.
DEFAULT_MAX_ROUNDS = 100_000

#: Round index observers see for events fired during ``setup`` (before
#: any communication round; matches ``ctx.now`` inside ``setup``).
SETUP_ROUND = -1


class _Clock:
    """Shared round counter visible to contexts via ``ctx.now``."""

    __slots__ = ("now",)

    def __init__(self) -> None:
        self.now = 0


@dataclass
class RoundTrace:
    """Per-round observability snapshot (opt-in via ``trace=True``)."""

    #: Vertices not yet halted at the start of the round.
    active: int
    #: Vertices that actually executed a step (not sleeping).
    awake: int
    #: Vertices that halted during the round.
    halted: int


@dataclass
class RunResult:
    """Outcome of one engine run."""

    #: Per-vertex outputs (``None`` where a vertex failed or never halted).
    outputs: List[Any]
    #: Number of communication rounds executed (setup is round-free).
    rounds: int
    #: Total point-to-point messages delivered (2m per executed round).
    messages: int
    #: Vertices that declared failure, as ``{vertex: reason}``.
    failures: Dict[int, str] = field(default_factory=dict)
    #: Per-round activity snapshots (empty unless ``trace=True``).
    trace: List[RoundTrace] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """Whether no vertex declared failure."""
        return not self.failures

    def activity_profile(self) -> List[int]:
        """Awake-vertex counts per round (empty without tracing)."""
        return [t.awake for t in self.trace]

    def work(self) -> int:
        """Total vertex-steps executed (empty trace -> 0)."""
        return sum(t.awake for t in self.trace)


@dataclass(frozen=True)
class RunMeta:
    """Static facts about one engine run, handed to observers at
    ``on_run_start``.

    Every field except ``graph`` is a plain scalar so trace writers can
    serialize the metadata verbatim; ``graph`` is the in-process handle
    that graph-aware observers (locality accounting, shattering
    profiles) may *read* — observers are spectators and must never
    mutate it (static-analysis rule LM008).  The metadata is identical
    between :func:`run_local` and :func:`run_local_reference` so that
    traces stay byte-identical across engines.
    """

    algorithm: str
    model: Model
    n: int
    num_edges: int
    max_degree: int
    max_rounds: int
    seed: Optional[int] = None
    graph: Optional[Graph] = None


class _ObserverHub:
    """Delivers one run's engine events to every attached observer.

    Observers split by their ``batch_capable`` flag:

    - batch-capable observers get one ``repro.obs.RoundBatch`` per
      round (and one for the setup pass), assembled here from the
      per-event calls below and shared: every batch observer of a
      round receives the same object, so lazily derived columns
      (``publish_bytes()``) are computed once.  Run-level faults
      (vertex ``None``) go to ``on_run_fault`` at once — the run raises
      right after;
    - plain observers get one callback per event, in the ordering
      contract's order.

    The engines hold ``hub = None`` when nothing is attached, so the
    hot loop pays exactly one ``is not None`` test per vertex-step; all
    per-event work lives behind that guard.  Observer exceptions
    propagate — a broken observer must fail loudly, not silently skew
    what it measures.
    """

    __slots__ = (
        "observers",
        "plain",
        "batched",
        "_round",
        "_active",
        "_stepped",
        "_published",
        "_values",
        "_halted",
        "_halt_values",
        "_failed",
        "_fail_reasons",
        "_faults",
    )

    def __init__(self, observers: Sequence[Any]) -> None:
        self.observers = tuple(observers)
        self.batched = tuple(
            obs for obs in observers if getattr(obs, "batch_capable", False)
        )
        self.plain = tuple(
            obs
            for obs in observers
            if not getattr(obs, "batch_capable", False)
        )
        self._open(SETUP_ROUND, 0)

    def _open(self, round_index: int, active: int) -> None:
        """Start collecting the columns of round ``round_index``."""
        self._round = round_index
        self._active = active
        self._stepped: List[int] = []
        self._published: List[int] = []
        self._values: List[Any] = []
        self._halted: List[int] = []
        self._halt_values: List[Any] = []
        self._failed: List[int] = []
        self._fail_reasons: List[str] = []
        self._faults: List[Tuple[int, Any]] = []

    def _deliver(self, awake: int, halted: int, messages: int) -> None:
        """Hand the collected round to every batch observer as one
        shared batch."""
        from ..obs.observer import RoundBatch

        batch = RoundBatch(
            self._round,
            active=self._active,
            awake=awake,
            halted=halted,
            messages=messages,
            stepped=self._stepped,
            published=self._published,
            publish_values=self._values,
            halted_verts=self._halted,
            halt_values=self._halt_values,
            failed=self._failed,
            fail_reasons=self._fail_reasons,
            faults=self._faults,
        )
        for obs in self.batched:
            obs.on_round_batch(batch)

    def run_start(self, meta: RunMeta) -> None:
        for obs in self.observers:
            obs.on_run_start(meta)

    def setup_end(self) -> None:
        """The setup pass finished: deliver its batch now, so a
        checkpoint due at the first round boundary already holds the
        setup events."""
        if self.batched:
            self._deliver(0, 0, 0)

    def round_start(self, round_index: int, active: int) -> None:
        self._open(round_index, active)
        for obs in self.plain:
            obs.on_round_start(round_index, active)

    def node_step(
        self, round_index: int, vertex: int, ctx: NodeContext
    ) -> None:
        self._stepped.append(vertex)
        for obs in self.plain:
            obs.on_node_step(round_index, vertex, ctx)

    def publish(self, round_index: int, vertex: int, value: Any) -> None:
        self._published.append(vertex)
        self._values.append(value)
        for obs in self.plain:
            obs.on_publish(round_index, vertex, value)

    def halt(self, round_index: int, vertex: int, output: Any) -> None:
        self._halted.append(vertex)
        self._halt_values.append(output)
        for obs in self.plain:
            obs.on_halt(round_index, vertex, output)

    def failure(self, round_index: int, vertex: int, reason: str) -> None:
        self._failed.append(vertex)
        self._fail_reasons.append(reason)
        for obs in self.plain:
            obs.on_failure(round_index, vertex, reason)

    def fault(
        self, round_index: int, vertex: Optional[int], fault: Any
    ) -> None:
        """An injected fault (``vertex`` is None for run-level faults
        like budget exhaustion)."""
        if vertex is None:
            for obs in self.batched:
                obs.on_run_fault(round_index, fault)
        else:
            self._faults.append((vertex, fault))
        for obs in self.plain:
            obs.on_fault(round_index, vertex, fault)

    def round_end(
        self,
        round_index: int,
        awake: int,
        halted: int,
        messages: int,
    ) -> None:
        for obs in self.plain:
            obs.on_round_end(round_index, awake, halted, messages)
        if self.batched:
            self._deliver(awake, halted, messages)

    def run_end(self, result: "RunResult") -> None:
        for obs in self.observers:
            obs.on_run_end(result)

    def run_abort(self, round_index: int, error: BaseException) -> None:
        """The run died (algorithm exception, injected budget, kill
        signal surfacing as ``KeyboardInterrupt``) before ``run_end``.
        Observers that buffer output flush here so partial runs keep
        their telemetry; the exception keeps propagating afterwards.
        Batch observers never see the partial round."""
        for obs in self.observers:
            obs.on_run_abort(round_index, error)


#: Ambiently attached observers (see :func:`observe_runs`).
_GLOBAL_OBSERVERS: Tuple[Any, ...] = ()

#: Ambiently attached fault plan (see :func:`inject_faults`).
_ACTIVE_FAULT_PLAN: Optional[Any] = None


@contextmanager
def inject_faults(plan: Any) -> Iterator[None]:
    """Attach a :class:`repro.faults.FaultPlan` to every engine run in
    scope.

    The fault counterpart of :func:`observe_runs`: multi-phase drivers
    call ``run_local`` internally and take no ``fault_plan`` argument,
    so an adversary for a whole driver execution is attached
    ambiently::

        with inject_faults(FaultPlan(seed=7, drop_rate=0.01)):
            pettie_su_tree_coloring(tree, seed=1)

    An explicit ``run_local(..., fault_plan=...)`` argument takes
    precedence over the ambient plan.  The previous plan is restored on
    exit even when the run raises; scopes nest (innermost wins).
    """
    global _ACTIVE_FAULT_PLAN
    previous = _ACTIVE_FAULT_PLAN
    _ACTIVE_FAULT_PLAN = plan
    try:
        yield
    finally:
        _ACTIVE_FAULT_PLAN = previous


def active_fault_plan() -> Optional[Any]:
    """The ambient fault plan installed by :func:`inject_faults` (or
    ``None`` outside any scope)."""
    return _ACTIVE_FAULT_PLAN


@contextmanager
def observe_runs(*observers: Any) -> Iterator[None]:
    """Attach ``observers`` to every ``run_local`` call in scope.

    The counterpart of :func:`use_reference_engine`: multi-phase
    drivers call ``run_local`` internally and take no ``observers``
    argument, so telemetry for a whole driver execution is attached
    ambiently::

        trace = JsonlTraceObserver("run.jsonl")
        with observe_runs(trace):
            pettie_su_tree_coloring(tree, seed=1)

    Nested scopes compose (inner observers are appended); the previous
    set is restored on exit even when the run raises.  Explicit
    ``run_local(..., observers=[...])`` observers are dispatched before
    ambient ones.
    """
    global _GLOBAL_OBSERVERS
    previous = _GLOBAL_OBSERVERS
    _GLOBAL_OBSERVERS = previous + tuple(observers)
    try:
        yield
    finally:
        _GLOBAL_OBSERVERS = previous


def _attached_observers(
    observers: Optional[Sequence[Any]],
) -> Tuple[Any, ...]:
    """Explicit observers first, then the ambient ``observe_runs`` set."""
    if observers:
        return tuple(observers) + _GLOBAL_OBSERVERS
    return _GLOBAL_OBSERVERS


def _run_setup(
    contexts: List[NodeContext],
    algorithm: SyncAlgorithm,
    clock: _Clock,
    hub: Optional[_ObserverHub],
) -> None:
    """Round-free setup pass, shared verbatim by both engines.

    Observer events fired here carry :data:`SETUP_ROUND` (-1): publishes
    and halts that happen before the first communication round.  Batch
    observers receive them as one setup batch when the pass ends.
    """
    for v, ctx in enumerate(contexts):
        ctx._clock = clock
        algorithm.setup(ctx)
        if hub is not None:
            if ctx._pub_dirty:
                hub.publish(SETUP_ROUND, v, ctx._next_pub)
            if ctx.failure is not None:
                hub.failure(SETUP_ROUND, v, ctx.failure)
            elif ctx.halted:
                hub.halt(SETUP_ROUND, v, ctx.output)
        ctx._commit()
    if hub is not None:
        hub.setup_end()


def make_node_rngs(n: int, seed: Optional[int]) -> List[random.Random]:
    """Independent per-vertex random streams derived from a master seed.

    The derivation uses the engine-internal vertex index, which is never
    visible to the algorithm — RandLOCAL vertices stay undifferentiated.
    """
    master = random.Random(seed)
    return [random.Random(master.getrandbits(64)) for _ in range(n)]


def build_contexts(
    graph: Graph,
    model: Model,
    *,
    ids: Optional[Sequence[int]] = None,
    seed: Optional[int] = None,
    node_inputs: Optional[Sequence[Dict[str, Any]]] = None,
    global_params: Optional[Dict[str, Any]] = None,
    rng_factory: Optional[Any] = None,
    allow_duplicate_ids: bool = False,
) -> List[NodeContext]:
    """Construct one context per vertex, validated for the model.

    ``rng_factory(v)`` (RandLOCAL only) overrides the per-vertex random
    stream — the hook used by the Theorem 3 derandomizer, which replaces
    true randomness with ``Random(φ(ID(v)))`` for a fixed seed function φ
    (making the whole execution a deterministic algorithm).

    ``allow_duplicate_ids`` waives the global-uniqueness configuration
    check: Theorems 5 and 6 deliberately run algorithms under IDs that
    are unique only within the algorithm's horizon.  The caller asserts
    that the algorithm never compares IDs of farther-apart vertices.

    The global parameters are *common knowledge by definition* (Section
    I), so all ``n`` contexts share one read-only mapping — a mutation
    attempt raises ``TypeError`` instead of silently diverging per node.
    """
    n = graph.num_vertices
    max_degree = graph.max_degree
    if model is Model.DET:
        if ids is None:
            ids = sequential_ids(n)
        if len(ids) != n:
            raise DuplicateIDError(f"need {n} IDs, got {len(ids)}")
        if not allow_duplicate_ids:
            check_unique_ids(ids)
        rngs: List[Optional[random.Random]] = [None] * n
    else:
        if ids is not None:
            raise SimulationError(
                "RandLOCAL vertices are undifferentiated; do not pass IDs"
            )
        ids = [None] * n  # type: ignore[list-item]
        if rng_factory is not None:
            rngs = [rng_factory(v) for v in range(n)]
        else:
            rngs = list(make_node_rngs(n, seed))
    shared_globals = MappingProxyType(dict(global_params or {}))
    contexts = []
    for v in range(n):
        node_input: Dict[str, Any] = dict(node_inputs[v]) if node_inputs else {}
        node_input["reverse_ports"] = graph.reverse_ports(v)
        contexts.append(
            NodeContext(
                index=v,
                degree=graph.degree(v),
                n=n,
                max_degree=max_degree,
                model=model,
                node_id=ids[v],
                rng=rngs[v],
                node_input=node_input,
                global_params=shared_globals,
            )
        )
    return contexts


def flat_adjacency(graph: Graph) -> Tuple[List[int], List[int]]:
    """The graph's adjacency as flat CSR arrays ``(offsets, targets)``.

    ``targets[offsets[v]:offsets[v + 1]]`` lists ``v``'s neighbors in
    port order.  Built once per run; the hot loop then delivers inboxes
    with plain list indexing instead of per-step method dispatch.
    """
    n = graph.num_vertices
    offsets = [0] * (n + 1)
    targets: List[int] = []
    extend = targets.extend
    for v in range(n):
        extend(graph.neighbors(v))
        offsets[v + 1] = len(targets)
    return offsets, targets


@contextmanager
def use_reference_engine() -> Iterator[None]:
    """Route every :func:`run_local` call to the reference engine.

    Lets the equivalence suite execute whole multi-phase drivers (which
    call ``run_local`` internally) under the kept-simple implementation
    without touching their code.  Kept as a compatibility alias for
    ``use_backend("reference")`` (see :mod:`repro.core.backend`).
    """
    with use_backend("reference"):
        yield


def run_local(
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
    backend: Optional[str] = None,
    checkpoint: Optional[CheckpointPolicy] = None,
) -> RunResult:
    """Run ``algorithm`` on ``graph`` under ``model``.

    Parameters
    ----------
    ids:
        DetLOCAL only — unique vertex IDs (defaults to ``0..n-1``).
    seed:
        RandLOCAL only — master seed for the per-vertex random streams.
    node_inputs:
        Optional per-vertex input labels, e.g.
        ``{"edge_colors": [c_port0, c_port1, ...]}`` for the sinkless
        problems.
    global_params:
        Extra common-knowledge parameters, available as ``ctx.globals``
        (one shared read-only mapping).
    max_rounds:
        Safety cap; exceeding it raises :class:`SimulationError`.
    observers:
        Read-only spectators implementing the ``repro.obs.RunObserver``
        callback protocol (combined with any ambient
        :func:`observe_runs` observers).  Attaching observers never
        changes the :class:`RunResult`; with none attached the
        dispatch costs one pointer test per vertex-step.
    fault_plan:
        A :class:`repro.faults.FaultPlan` adversary (overrides any
        ambient :func:`inject_faults` plan).  Fault decisions are a
        deterministic function of the plan seed and the (round, vertex,
        port) coordinates, so a plan perturbs every backend
        identically; with no plan attached the middleware costs one
        pointer test per vertex-step.
    backend:
        Engine backend name (see :mod:`repro.core.backend`).  Overrides
        the ambient :func:`~repro.core.backend.use_backend` scope and
        the ``REPRO_BACKEND`` environment variable; defaults to
        ``"fast"``.  Every backend returns the identical
        :class:`RunResult` — selection is a performance choice, never a
        semantic one.
    checkpoint:
        A :class:`~repro.core.checkpoint.CheckpointPolicy` — snapshot
        the run's complete resumable state at round boundaries, and
        (with ``resume=True``) restore from an existing snapshot so
        the run reproduces the uninterrupted execution byte-for-byte.
        Overrides any ambient :func:`~repro.core.checkpoint.checkpointing`
        scope; requires a backend with the
        ``capture_state``/``restore_state`` capability and
        checkpoint-capable observers.  ``None`` (the default) keeps the
        engine on the no-checkpoint hot path.

    Returns
    -------
    RunResult
        Outputs, exact round count, message count, declared failures.
    """
    name = backend if backend is not None else current_backend_name()
    # Resolve every name — including the default — through the
    # registry, so register_backend("fast", ...) replacements are
    # honored exactly as the registry API documents.
    be = get_backend(name)
    runner: Runner = be.load()
    session: Optional[CheckpointSession] = None
    if checkpoint is not None:
        session = standalone_scope(checkpoint).next_session()
    else:
        scope = current_checkpoint_scope()
        if scope is not None:
            session = scope.next_session()
    if session is None:
        # No checkpointing anywhere in scope: call the runner exactly
        # as before (custom-registered backends need not know the
        # ``checkpoint`` keyword exists).
        return runner(
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
        )
    plan = fault_plan if fault_plan is not None else _ACTIVE_FAULT_PLAN
    fault_fp: Optional[Dict[str, Any]] = None
    if plan is not None:
        # A stable, process-independent plan identity (never repr():
        # hook callables embed memory addresses).
        fault_fp = {
            "seed": getattr(plan, "seed", None),
            "crash_rate": getattr(plan, "crash_rate", None),
            "drop_rate": getattr(plan, "drop_rate", None),
            "duplicate_rate": getattr(plan, "duplicate_rate", None),
            "corrupt_rate": getattr(plan, "corrupt_rate", None),
            "round_budget": getattr(plan, "round_budget", None),
        }
    session.bind(
        be,
        _attached_observers(observers),
        {
            "algorithm": algorithm.name,
            "model": model.value,
            "n": graph.num_vertices,
            "num_edges": graph.num_edges,
            "seed": seed,
            "max_rounds": max_rounds,
            "trace": trace,
            "backend": name,
            "slot": session.slot,
            "faults": fault_fp,
        },
    )
    if session.begin():
        # The slot already finished in the interrupted process: replay
        # its recorded result without re-running the engine (observers
        # were restored to their end-of-slot positions by begin()).
        result: RunResult = session.done_result()
        return result
    result = runner(
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
        checkpoint=session,
    )
    session.record_done(result)
    return result


class _ScalarState:
    """Checkpoint handle for the scalar engines (fast and reference).

    A thin view over one run's mutable state: the engines construct it
    at each due round boundary (save) or once at startup (restore); the
    capture/restore functions below are the ``"fast"`` and
    ``"reference"`` backends' registered checkpoint capability.
    """

    __slots__ = ("contexts", "faults", "rounds", "messages", "traces")

    def __init__(
        self,
        contexts: List[NodeContext],
        faults: Optional[Any],
        rounds: int = 0,
        messages: int = 0,
        traces: Optional[List[RoundTrace]] = None,
    ) -> None:
        self.contexts = contexts
        self.faults = faults
        self.rounds = rounds
        self.messages = messages
        self.traces: List[RoundTrace] = traces if traces is not None else []


#: One Mersenne Twister state (624 words plus the position), packed
#: little-endian: the live-vertex RNG entry of a ``"scalar"`` snapshot.
_MT_STATE = struct.Struct("<625I")


def _capture_scalar_state(state: _ScalarState) -> Dict[str, Any]:
    """Serialize a round-boundary scalar snapshot (format ``"scalar"``).

    Taken strictly at round boundaries, where the dirty-commit pass has
    already run: every context has ``_pub_dirty == False`` and the fast
    engine's ``visible`` list equals ``[ctx._pub ...]``, so published
    values alone reconstruct the visible plane.  Wake buckets are not
    stored — they are an index over ``ctx._wake_round``, rebuilt on
    restore.

    Random streams are stored for live vertices only, packed.  A halted
    vertex (``fail`` halts too) never steps again, so its stream is
    unobservable: it gets ``None`` and keeps the stream
    ``build_contexts`` gave it on restore.  A live vertex's
    ``random.Random`` state becomes ``(gauss_next, bytes)``, the 625
    state words packed by :data:`_MT_STATE` (2500 bytes) instead of a
    tuple of 625 boxed ints.
    """
    pack = _MT_STATE.pack
    nodes: List[Tuple[Any, ...]] = []
    for ctx in state.contexts:
        rng = ctx._rng
        rng_state: Optional[Tuple[Any, bytes]] = None
        if rng is not None and not ctx.halted:
            _, words, gauss_next = rng.getstate()
            rng_state = (gauss_next, pack(*words))
        nodes.append(
            (
                ctx.state,
                ctx.input,
                ctx._pub,
                ctx._wake_round,
                ctx.halted,
                ctx.output,
                ctx.failure,
                ctx.failure_round,
                rng_state,
            )
        )
    faults = state.faults
    fault_last = (
        dict(faults._last)
        if faults is not None and faults._last is not None
        else None
    )
    return {
        "format": "scalar",
        "rounds": state.rounds,
        "messages": state.messages,
        "traces": list(state.traces),
        "nodes": nodes,
        "fault_last": fault_last,
    }


def _restore_scalar_state(
    state: _ScalarState, payload: Dict[str, Any]
) -> None:
    """Apply a ``"scalar"`` snapshot onto freshly built contexts."""
    state.rounds = payload["rounds"]
    state.messages = payload["messages"]
    state.traces[:] = payload["traces"]
    nodes = payload["nodes"]
    if len(nodes) != len(state.contexts):
        raise CheckpointError(
            f"snapshot holds {len(nodes)} vertices but the run has "
            f"{len(state.contexts)} — resume on the same graph"
        )
    unpack = _MT_STATE.unpack
    for ctx, snap in zip(state.contexts, nodes):
        (
            ctx.state,
            ctx.input,
            pub,
            ctx._wake_round,
            ctx.halted,
            ctx.output,
            ctx.failure,
            ctx.failure_round,
            rng_state,
        ) = snap
        ctx._pub = pub
        ctx._next_pub = pub
        ctx._pub_dirty = False
        if rng_state is not None:
            assert ctx._rng is not None
            gauss_next, packed = rng_state
            ctx._rng.setstate((3, unpack(packed), gauss_next))
    faults = state.faults
    if faults is not None and faults._last is not None:
        faults._last.clear()
        last = payload.get("fault_last")
        if last:
            faults._last.update(last)


def _run_local_fast(
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
    """The ``"fast"`` backend: the production per-node round loop.

    Engine invariants (identical to :func:`run_local_reference`; the
    equivalence suite enforces this):

    - **dirty-commit**: a publish becomes visible only after every step
      of the publishing round returned — commits are deferred to a
      separate pass over the (few) dirty vertices, so double buffering
      is preserved while costing O(changed), not O(n);
    - **wake buckets**: a vertex sleeping until round ``w`` is parked in
      ``buckets[w]`` and touched exactly once, when round ``w`` starts.
      Rounds in which every live vertex sleeps are accounted in bulk
      (round and message counters advance; nobody is scanned).
    """
    contexts = build_contexts(
        graph,
        model,
        ids=ids,
        seed=seed,
        node_inputs=node_inputs,
        global_params=global_params,
        rng_factory=rng_factory,
        allow_duplicate_ids=allow_duplicate_ids,
    )
    n = graph.num_vertices
    attached = _attached_observers(observers)
    hub = _ObserverHub(attached) if attached else None
    meta = RunMeta(
        algorithm=algorithm.name,
        model=model,
        n=n,
        num_edges=graph.num_edges,
        max_degree=graph.max_degree,
        max_rounds=max_rounds,
        seed=seed,
        graph=graph,
    )
    plan = fault_plan if fault_plan is not None else _ACTIVE_FAULT_PLAN
    faults = plan.activate(meta) if plan is not None else None
    clock = _Clock()
    state = _ScalarState(contexts, faults)
    resumed = (
        checkpoint.engine_payload("scalar")
        if checkpoint is not None
        else None
    )
    rounds = 0
    messages = 0
    try:
        if resumed is not None:
            # Resume: the snapshot replaces run_start + setup — the
            # restored observers already emitted those events in the
            # interrupted process, and restored contexts already carry
            # their post-setup state.
            checkpoint.restore_engine(state, resumed)
            for ctx in contexts:
                ctx._clock = clock
            clock.now = state.rounds
        else:
            if hub is not None:
                hub.run_start(meta)
            _run_setup(contexts, algorithm, clock, hub)

        #: Persistent per-vertex visible values; updated in place by the
        #: dirty-commit pass instead of being rebuilt every round.
        visible: List[Any] = [ctx._pub for ctx in contexts]
        offsets, targets = flat_adjacency(graph)

        rounds = state.rounds
        messages = state.messages
        messages_per_round = 2 * graph.num_edges
        traces: List[RoundTrace] = state.traces

        #: wake round -> vertices parked until that round.  Rebuilt from
        #: ``ctx._wake_round`` on resume: entries due at or before the
        #: current round boundary are runnable (the original run would
        #: pop them at this round's start), later ones re-park.
        buckets: Dict[int, List[int]] = {}
        parked = 0
        runnable: List[int] = []
        for v in range(n):
            ctx = contexts[v]
            if ctx.halted:
                continue
            wake = ctx._wake_round
            if wake is not None and wake > rounds:
                buckets.setdefault(wake, []).append(v)
                parked += 1
            else:
                runnable.append(v)

        step = algorithm.step
        budget = faults.budget if faults is not None else None
        deliver = (
            faults.deliver
            if faults is not None and faults.touches_messages
            else None
        )
        while runnable or parked:
            if checkpoint is not None and checkpoint.due(rounds):
                state.rounds = rounds
                state.messages = messages
                checkpoint.save(state, rounds)
            if budget is not None and rounds >= budget:
                budget_error = faults.budget_error(rounds)
                if hub is not None:
                    hub.fault(rounds, None, budget_error)
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
                if due:
                    parked -= len(due)
                    runnable.extend(due)
                if not runnable:
                    # Every live vertex sleeps: advance the round and
                    # message accounting in bulk up to the next wake (or the
                    # cap, where the guard above raises), scanning nobody.
                    # The skipped span is still fully observable: each
                    # bulk-accounted round gets a synthesized trace entry
                    # and round-start/round-end events carrying the same
                    # active/awake/halted counts the reference engine
                    # reports for it (all parked vertices active, nobody
                    # awake, nobody halting).  An injected round budget
                    # clamps the skip so the budget check above fires at
                    # exactly the same round as in the reference engine.
                    skip_to = min(min(buckets), max_rounds)
                    if budget is not None and budget < skip_to:
                        skip_to = budget
                    skip = skip_to - rounds
                    if trace:
                        traces.extend(
                            RoundTrace(active=parked, awake=0, halted=0)
                            for _ in range(skip)
                        )
                    if hub is not None:
                        for r in range(rounds, rounds + skip):
                            hub.round_start(r, parked)
                            hub.round_end(r, 0, 0, messages_per_round)
                    rounds += skip
                    messages += skip * messages_per_round
                    continue
            clock.now = rounds
            if hub is not None:
                # Canonical event order: the reference engine scans
                # vertices ascending, so the observed fast engine does too
                # (per-round vertex steps are order-independent under
                # double buffering — RunResult is unchanged).
                runnable.sort()
                hub.round_start(rounds, len(runnable) + parked)
            active_now = len(runnable) + parked
            awake_now = len(runnable)
            halted_this_round = 0
            dirty: List[int] = []
            next_runnable: List[int] = []
            for v in runnable:
                ctx = contexts[v]
                ctx._wake_round = None
                if faults is not None and faults.crashed(rounds, v):
                    # Crash-stop: the vertex never steps this round (or
                    # again).  It counts as awake (it was scheduled) and
                    # halted; its last published value stays visible, like
                    # a halted processor's.  No delivery happens, so the
                    # stale-duplicate bookkeeping stays engine-identical.
                    reason = faults.crash_reason(rounds)
                    ctx.fail(reason)
                    halted_this_round += 1
                    if hub is not None:
                        hub.fault(rounds, v, faults.crash_event(rounds, v))
                        hub.failure(rounds, v, reason)
                    continue
                lo = offsets[v]
                hi = offsets[v + 1]
                inbox = [visible[u] for u in targets[lo:hi]]
                if deliver is not None:
                    events = deliver(rounds, v, inbox, hub is not None)
                    if events and hub is not None:
                        for injected in events:
                            hub.fault(rounds, v, injected)
                step(ctx, inbox)
                if ctx._pub_dirty:
                    dirty.append(v)
                if ctx.halted:
                    halted_this_round += 1
                else:
                    wake = ctx._wake_round
                    if wake is not None and wake > rounds + 1:
                        buckets.setdefault(wake, []).append(v)
                        parked += 1
                    else:
                        next_runnable.append(v)
                if hub is not None:
                    hub.node_step(rounds, v, ctx)
                    if ctx._pub_dirty:
                        hub.publish(rounds, v, ctx._next_pub)
                    if ctx.failure is not None:
                        hub.failure(rounds, v, ctx.failure)
                    elif ctx.halted:
                        hub.halt(rounds, v, ctx.output)
            # Deferred dirty-commit pass: no publish became visible before
            # every step of this round finished (double buffering).
            for v in dirty:
                ctx = contexts[v]
                ctx._pub = ctx._next_pub
                ctx._pub_dirty = False
                visible[v] = ctx._pub
            if trace:
                traces.append(
                    RoundTrace(
                        active=active_now,
                        awake=awake_now,
                        halted=halted_this_round,
                    )
                )
            if hub is not None:
                hub.round_end(
                    rounds, awake_now, halted_this_round, messages_per_round
                )
            runnable = next_runnable
            rounds += 1
            messages += messages_per_round
    except BaseException as exc:
        if hub is not None:
            hub.run_abort(rounds, exc)
        raise

    failures = {
        v: ctx.failure for v, ctx in enumerate(contexts) if ctx.failure
    }
    outputs = [ctx.output for ctx in contexts]
    result = RunResult(
        outputs=outputs,
        rounds=rounds,
        messages=messages,
        failures=failures,
        trace=traces,
    )
    if hub is not None:
        hub.run_end(result)
    return result


def _load_vectorized_backend() -> Runner:
    """Resolve the numpy whole-round backend (the ``[perf]`` extra).

    Imported lazily and by name so that neither :mod:`repro.core` nor
    the type-checked layer ever depends on numpy being installed.
    """
    import importlib

    try:
        module = importlib.import_module("repro.backends.vectorized")
    except ImportError as exc:
        raise ReproError(
            "the 'vectorized' backend requires numpy, which is not "
            "installed; install the perf extra: "
            "pip install 'repro[perf]'"
        ) from exc
    runner: Runner = module.run_local_vectorized
    return runner


def run_local_reference(
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
    """The kept-simple engine: full snapshot and full scan every round.

    Semantically identical to :func:`run_local` (same signature, same
    :class:`RunResult` down to the trace), but O(n) per round regardless
    of how many vertices are awake.  It exists as the oracle for the
    equivalence suite and as the baseline the perf harness measures
    speedups against; it must stay a direct transcription of the model.

    Observers attached here see the exact same event stream as under
    the fast engine — the telemetry determinism contract the
    equivalence suite pins down.  Fault plans likewise inject the exact
    same faults: decisions are hash-derived per (round, vertex, port),
    never drawn sequentially, so vertex scan order cannot skew them.
    """
    contexts = build_contexts(
        graph,
        model,
        ids=ids,
        seed=seed,
        node_inputs=node_inputs,
        global_params=global_params,
        rng_factory=rng_factory,
        allow_duplicate_ids=allow_duplicate_ids,
    )
    n = graph.num_vertices
    attached = _attached_observers(observers)
    hub = _ObserverHub(attached) if attached else None
    meta = RunMeta(
        algorithm=algorithm.name,
        model=model,
        n=n,
        num_edges=graph.num_edges,
        max_degree=graph.max_degree,
        max_rounds=max_rounds,
        seed=seed,
        graph=graph,
    )
    plan = fault_plan if fault_plan is not None else _ACTIVE_FAULT_PLAN
    faults = plan.activate(meta) if plan is not None else None
    clock = _Clock()
    state = _ScalarState(contexts, faults)
    resumed = (
        checkpoint.engine_payload("scalar")
        if checkpoint is not None
        else None
    )
    rounds = 0
    messages = 0
    try:
        if resumed is not None:
            # Resume: the snapshot replaces run_start + setup (see the
            # fast engine); the active list below is an index over the
            # restored halt flags, so it needs no stored counterpart.
            checkpoint.restore_engine(state, resumed)
            for ctx in contexts:
                ctx._clock = clock
            clock.now = state.rounds
        else:
            if hub is not None:
                hub.run_start(meta)
            _run_setup(contexts, algorithm, clock, hub)

        rounds = state.rounds
        messages = state.messages
        messages_per_round = 2 * graph.num_edges
        traces: List[RoundTrace] = state.traces
        active = [v for v in range(n) if not contexts[v].halted]
        budget = faults.budget if faults is not None else None
        deliver = (
            faults.deliver
            if faults is not None and faults.touches_messages
            else None
        )
        while active:
            if checkpoint is not None and checkpoint.due(rounds):
                state.rounds = rounds
                state.messages = messages
                checkpoint.save(state, rounds)
            if budget is not None and rounds >= budget:
                budget_error = faults.budget_error(rounds)
                if hub is not None:
                    hub.fault(rounds, None, budget_error)
                raise budget_error
            if rounds >= max_rounds:
                raise SimulationError(
                    f"{algorithm.name!r} exceeded {max_rounds} rounds on "
                    f"n={n} (likely non-terminating)",
                    round=rounds,
                    run_meta=meta,
                )
            clock.now = rounds
            if hub is not None:
                hub.round_start(rounds, len(active))
            snapshot = [ctx._pub for ctx in contexts]
            dirty = False
            awake = 0
            halted_this_round = 0
            for v in active:
                ctx = contexts[v]
                wake = ctx._wake_round
                if wake is not None and wake > rounds:
                    continue
                ctx._wake_round = None
                awake += 1
                if faults is not None and faults.crashed(rounds, v):
                    # Mirror of the fast engine's crash-stop block: counts
                    # as awake + halted, never steps, delivery skipped.
                    reason = faults.crash_reason(rounds)
                    ctx.fail(reason)
                    dirty = True
                    halted_this_round += 1
                    if hub is not None:
                        hub.fault(rounds, v, faults.crash_event(rounds, v))
                        hub.failure(rounds, v, reason)
                    continue
                inbox = [snapshot[u] for u in graph.neighbors(v)]
                if deliver is not None:
                    events = deliver(rounds, v, inbox, hub is not None)
                    if events and hub is not None:
                        for injected in events:
                            hub.fault(rounds, v, injected)
                algorithm.step(ctx, inbox)
                if ctx.halted:
                    dirty = True
                    halted_this_round += 1
                if hub is not None:
                    hub.node_step(rounds, v, ctx)
                    if ctx._pub_dirty:
                        hub.publish(rounds, v, ctx._next_pub)
                    if ctx.failure is not None:
                        hub.failure(rounds, v, ctx.failure)
                    elif ctx.halted:
                        hub.halt(rounds, v, ctx.output)
            for v in active:
                contexts[v]._commit()
            if trace:
                traces.append(
                    RoundTrace(
                        active=len(active),
                        awake=awake,
                        halted=halted_this_round,
                    )
                )
            if hub is not None:
                hub.round_end(
                    rounds, awake, halted_this_round, messages_per_round
                )
            if dirty:
                active = [v for v in active if not contexts[v].halted]
            rounds += 1
            messages += messages_per_round
    except BaseException as exc:
        if hub is not None:
            hub.run_abort(rounds, exc)
        raise

    failures = {
        v: ctx.failure for v, ctx in enumerate(contexts) if ctx.failure
    }
    outputs = [ctx.output for ctx in contexts]
    result = RunResult(
        outputs=outputs,
        rounds=rounds,
        messages=messages,
        failures=failures,
        trace=traces,
    )
    if hub is not None:
        hub.run_end(result)
    return result


def _capture_vectorized_state(handle: Any) -> Dict[str, Any]:
    """Checkpoint capability for the ``"vectorized"`` backend.

    Dispatches on the handle shape: drivers without a registered kernel
    fall back to the fast per-node loop, whose handle is a
    :class:`_ScalarState` — those snapshots are scalar-format so a
    resume lands back on the identical fallback path.  Imported lazily
    so the capability can register without numpy installed.
    """
    if isinstance(handle, _ScalarState):
        return _capture_scalar_state(handle)
    from ..backends.vectorized import capture_vector_state

    result: Dict[str, Any] = capture_vector_state(handle)
    return result


def _restore_vectorized_state(handle: Any, payload: Dict[str, Any]) -> None:
    if isinstance(handle, _ScalarState):
        _restore_scalar_state(handle, payload)
        return
    from ..backends.vectorized import restore_vector_state

    restore_vector_state(handle, payload)


register_backend(
    "fast",
    lambda: _run_local_fast,
    description="production per-node loop (dirty-commit, wake buckets)",
    capture_state=_capture_scalar_state,
    restore_state=_restore_scalar_state,
)
register_backend(
    "reference",
    lambda: run_local_reference,
    description="kept-simple oracle loop (full snapshot, full scan)",
    capture_state=_capture_scalar_state,
    restore_state=_restore_scalar_state,
)
register_backend(
    "vectorized",
    _load_vectorized_backend,
    description="numpy whole-round kernels over the CSR adjacency "
    "(requires the [perf] extra; per-node fallback for drivers "
    "without a kernel)",
    capture_state=_capture_vectorized_state,
    restore_state=_restore_vectorized_state,
)
