"""The observer callback protocol — scalar events and round batches.

:class:`RunObserver` is the no-op base class engine observers derive
from: subclass it, override the callbacks you care about, and pass
instances to ``run_local(observers=[...])`` or attach them ambiently
with :func:`repro.core.observe_runs` (covers every ``run_local`` call a
multi-phase driver makes).

Ordering contract (identical for the fast and reference engines; the
equivalence suite pins it):

1. ``on_run_start(meta)`` — once, before ``setup``.
2. Setup events at round index :data:`repro.core.SETUP_ROUND` (-1):
   per vertex in ascending order, ``on_publish`` if it published, then
   ``on_failure`` or ``on_halt`` if it failed/halted in ``setup``.
3. Per executed round ``r``: ``on_round_start(r, active)``; then per
   *stepping* vertex in ascending order ``on_node_step`` followed by
   its ``on_publish`` / ``on_failure`` / ``on_halt`` events; then
   ``on_round_end(r, awake, halted, messages)``.  Rounds where every
   live vertex sleeps are bulk-accounted by the fast engine but still
   emit ``on_round_start``/``on_round_end`` (awake = halted = 0).
4. ``on_run_end(result)`` — once, unless the run raised (e.g. the
   ``max_rounds`` guard), in which case ``on_run_abort(round, error)``
   fires instead and the stream stops; flush-style observers finalize
   there so partial runs keep their telemetry.

Under fault injection (see :mod:`repro.faults`) the per-vertex slot in
step 3 gains ``on_fault`` events, still engine-identical: a vertex's
delivery faults (drop/duplicate/corrupt, ports ascending) precede its
``on_node_step``; a crash-stop vertex emits ``on_fault`` then
``on_failure`` and **no** ``on_node_step`` (it never stepped).  Budget
exhaustion emits one run-level ``on_fault`` (vertex ``None``) right
before the run raises :class:`~repro.core.errors.BudgetExceededError`.

**Round batches.**  :class:`BatchRunObserver` extends the protocol with
a columnar delivery path: instead of one callback per event, the
observer receives one :class:`RoundBatch` per round (and one for the
setup pass) via ``on_round_batch``, plus run-level faults via
``on_run_fault``.  Every backend delivers batches.  The ``"vectorized"``
backend emits them natively (numpy index arrays, no per-vertex Python
dispatch); on the scalar engines the engine's observer hub assembles
one batch per round (plain-list columns) from its per-event calls and
hands the *same* batch object to every batch-capable observer, so
derived columns such as :meth:`RoundBatch.publish_bytes` are computed
once per round.  Plain :class:`RunObserver`\\ s attached beside them keep
their per-event callbacks.  A batch carries exactly the information of
the scalar event stream — :func:`iter_scalar_events` reconstructs the
per-event order — so both delivery paths produce identical telemetry
(the observer-neutrality relation in ``repro.verify`` pins this per
backend).  The setup batch is delivered as soon as ``setup`` ends.
One caveat on raising runs: a batch is delivered at its round
boundary, so when the run raises mid-round the batched stream omits
that final partial round while a plain observer's stream may include
its prefix ("the stream simply stops" covers both).

Observers are **read-only spectators**.  The ``ctx`` handed to
``on_node_step`` is live engine state, and the arrays inside a
:class:`RoundBatch` are shared with the emitting backend: reading is
fine, calling lifecycle methods, assigning attributes, or writing into
batch payload arrays is not (rule LM008).
"""

from __future__ import annotations

from typing import (
    Any,
    Callable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from ..core.context import NodeContext
from ..core.engine import RunMeta, RunResult
from ..core.errors import FaultEvent

#: Sentinel batch payload meaning "no value recorded".
_UNSET = object()


class RunObserver:
    """No-op base class for engine observers; override what you need.

    Every callback has an empty default, so subclasses only pay for the
    events they use.  One observer instance may watch several runs in
    sequence (e.g. each phase of a multi-phase driver under
    :func:`repro.core.observe_runs`); ``on_run_start`` marks each new
    run's boundary.
    """

    #: Whether this observer participates in in-run checkpointing (see
    #: :mod:`repro.core.checkpoint`).  A capable observer implements
    #: :meth:`checkpoint_state` / :meth:`restore_checkpoint` so a
    #: resumed run reproduces its output stream byte-for-byte;
    #: attaching a non-capable observer to a checkpointed run fails
    #: fast with a ``CheckpointError``.
    checkpoint_capable = False

    def checkpoint_state(self) -> Any:
        """This observer's resumable position, captured at a round
        boundary.  Must be picklable; ``None`` is a valid state for
        observers with nothing to rewind (e.g. plane-2 sidecars)."""
        return None

    def restore_checkpoint(self, state: Any) -> None:
        """Rewind to a position captured by :meth:`checkpoint_state`.

        Called with ``state=None`` when a resume finds no usable
        snapshot and the run restarts from the top: the observer must
        reset to its just-constructed state (truncating any partial
        output the killed process left) so the fresh run's stream is
        reproduced from the first byte."""

    def on_run_abort(
        self, round_index: int, error: BaseException
    ) -> None:
        """The run is dying at round ``round_index`` with ``error``
        (algorithm exception, injected budget, ``KeyboardInterrupt``)
        before ``on_run_end`` could fire.  Observers that buffer
        output flush here so partial runs keep their telemetry; the
        exception propagates as soon as every observer returns."""

    def on_run_start(self, meta: RunMeta) -> None:
        """A run is starting; ``meta`` holds its static facts."""

    def on_round_start(self, round_index: int, active: int) -> None:
        """Round ``round_index`` begins with ``active`` live vertices."""

    def on_node_step(
        self, round_index: int, vertex: int, ctx: NodeContext
    ) -> None:
        """Vertex ``vertex`` executed ``step`` this round.  ``ctx`` is
        live engine state — read-only (see LM008)."""

    def on_publish(
        self, round_index: int, vertex: int, value: Any
    ) -> None:
        """Vertex ``vertex`` published ``value`` (visible next round)."""

    def on_halt(self, round_index: int, vertex: int, output: Any) -> None:
        """Vertex ``vertex`` halted with ``output``."""

    def on_failure(
        self, round_index: int, vertex: int, reason: str
    ) -> None:
        """Vertex ``vertex`` declared failure with ``reason``."""

    def on_fault(
        self,
        round_index: int,
        vertex: Optional[int],
        fault: FaultEvent,
    ) -> None:
        """An injected fault fired (see :mod:`repro.faults`).

        ``vertex`` is the affected vertex, or ``None`` for run-level
        faults (round-budget exhaustion).  ``fault`` is the structured
        :class:`~repro.core.errors.FaultEvent` record — read its
        ``kind`` / ``port`` / ``detail``; do not raise it."""

    def on_round_end(
        self,
        round_index: int,
        awake: int,
        halted: int,
        messages: int,
    ) -> None:
        """Round ended: ``awake`` vertices stepped, ``halted`` of them
        halted, ``messages`` point-to-point messages were delivered."""

    def on_run_end(self, result: RunResult) -> None:
        """The run completed with ``result``."""


class RoundBatch:
    """Columnar snapshot of one round's events (or of the setup pass).

    Vertex columns are ascending index sequences — numpy int64 arrays
    when emitted by the vectorized backend, plain lists when assembled
    by the scalar engines' observer hub; consume them duck-typed
    (``len``, iteration, and integer indexing work on both).  Payload
    columns are aligned with their vertex column.  All columns may be
    backend-owned storage — treat them as read-only (rule LM008).

    ``round_index`` is :data:`repro.core.SETUP_ROUND` for the setup
    batch, in which case ``stepped`` is empty and the round bookkeeping
    fields (``active``/``awake``/``halted``/``messages``) are zero —
    setup emits no round boundaries to plain observers either.
    """

    __slots__ = (
        "round_index",
        "active",
        "awake",
        "halted",
        "messages",
        "stepped",
        "published",
        "halted_verts",
        "halt_values",
        "failed",
        "fail_reasons",
        "faults",
        "_publish_values",
        "_publish_values_fn",
        "_publish_bytes",
    )

    def __init__(
        self,
        round_index: int,
        *,
        active: int = 0,
        awake: int = 0,
        halted: int = 0,
        messages: int = 0,
        stepped: Sequence[int] = (),
        published: Sequence[int] = (),
        publish_values: Any = _UNSET,
        publish_values_fn: Optional[Callable[[], Sequence[Any]]] = None,
        publish_bytes: Optional[Sequence[int]] = None,
        halted_verts: Sequence[int] = (),
        halt_values: Sequence[Any] = (),
        failed: Sequence[int] = (),
        fail_reasons: Sequence[str] = (),
        faults: Sequence[Tuple[Optional[int], FaultEvent]] = (),
    ) -> None:
        self.round_index = round_index
        self.active = active
        self.awake = awake
        self.halted = halted
        self.messages = messages
        self.stepped = stepped
        self.published = published
        self.halted_verts = halted_verts
        self.halt_values = halt_values
        self.failed = failed
        self.fail_reasons = fail_reasons
        self.faults = list(faults)
        self._publish_values = publish_values
        self._publish_values_fn = publish_values_fn
        self._publish_bytes = publish_bytes

    def publish_values(self) -> Sequence[Any]:
        """Published values aligned with :attr:`published`.

        Materialized lazily (and cached): backends that can account
        payload sizes columnar-ly only pay for building the actual
        Python values when an observer asks for them (payload-value
        traces, generic event reconstruction).
        """
        if self._publish_values is _UNSET:
            fn = self._publish_values_fn
            self._publish_values = (
                list(fn()) if fn is not None else []
            )
        return self._publish_values

    def publish_bytes(self) -> Sequence[int]:
        """Estimated payload bytes aligned with :attr:`published`
        (:func:`repro.obs.estimate_payload_bytes` of each value).

        Computed lazily from :meth:`publish_values` unless the emitting
        backend supplied the column directly (the vectorized kernels
        compute it as array arithmetic without materializing values).
        """
        if self._publish_bytes is None:
            from .metrics import estimate_payload_bytes

            self._publish_bytes = [
                estimate_payload_bytes(value)
                for value in self.publish_values()
            ]
        return self._publish_bytes


class BatchRunObserver(RunObserver):
    """Observer consuming whole-round :class:`RoundBatch` payloads.

    Subclasses override :meth:`on_round_batch` (and optionally
    :meth:`on_run_fault` / :meth:`on_backend_info`, plus the run
    lifecycle callbacks ``on_run_start`` / ``on_run_end`` /
    ``on_run_abort``).  Being ``batch_capable``, such an observer never
    receives the per-event callbacks, on any backend:

    - the ``"vectorized"`` backend calls ``on_round_batch`` directly,
      with numpy vertex columns — attaching only batch-capable
      observers keeps it on its native kernels (no scalar fallback);
    - on the scalar engines, the observer hub assembles one batch per
      round with plain-list columns and shares it among every
      batch-capable observer.

    ``batch_capable`` is the attribute backends test — keep it truthy.
    """

    #: Backends check this flag: batch-capable observers are served
    #: round batches, and every attached observer must be batch capable
    #: for the vectorized harness to stay on its kernels.
    batch_capable = True

    # -- the batch-plane callbacks -------------------------------------
    def on_round_batch(self, batch: RoundBatch) -> None:
        """One completed round (or the setup pass) as a batch."""

    def on_run_fault(self, round_index: int, fault: FaultEvent) -> None:
        """A run-level fault (round-budget exhaustion) fired; the run
        raises immediately after, so this is never buffered into a
        batch."""

    def on_backend_info(
        self, backend: str, kernel: Optional[str]
    ) -> None:
        """The executing backend identified itself (called after
        ``on_run_start`` by backends that know; the scalar engines do
        not call it).  ``kernel`` names the vectorized round kernel, or
        is ``None``."""


def iter_scalar_events(
    batch: RoundBatch,
) -> Iterator[Tuple[Any, ...]]:
    """Reconstruct a batch's events in the scalar engines' exact order.

    Yields tuples keyed by event name, mirroring the per-vertex
    ascending order of the ordering contract::

        ("fault", round, vertex, fault_event)
        ("step", round, vertex)
        ("publish", round, vertex, value)
        ("failure", round, vertex, reason)
        ("halt", round, vertex, output)

    Per vertex: faults first, then the step (crash-stop vertices never
    step), then its publish, then failure *or* halt.  Round boundaries
    (``round_start``/``round_end``) are not yielded — the caller owns
    them.  Setup batches yield publishes/failures/halts only.
    """
    r = batch.round_index
    events: List[Tuple[int, int, Tuple[Any, ...]]] = []
    for vertex, fault in batch.faults:
        events.append((int(vertex), 0, ("fault", r, int(vertex), fault)))
    for vertex in batch.stepped:
        events.append((int(vertex), 1, ("step", r, int(vertex))))
    if len(batch.published):
        values = batch.publish_values()
        for i, vertex in enumerate(batch.published):
            events.append(
                (int(vertex), 2, ("publish", r, int(vertex), values[i]))
            )
    for i, vertex in enumerate(batch.failed):
        events.append(
            (
                int(vertex),
                3,
                ("failure", r, int(vertex), batch.fail_reasons[i]),
            )
        )
    for i, vertex in enumerate(batch.halted_verts):
        events.append(
            (int(vertex), 3, ("halt", r, int(vertex), batch.halt_values[i]))
        )
    events.sort(key=lambda item: (item[0], item[1]))
    for _, _, event in events:
        yield event
