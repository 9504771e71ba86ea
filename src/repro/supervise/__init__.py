"""Supervised execution: a long run in a watched child process.

:mod:`repro.core.checkpoint` makes a killed run *resumable*; this
module supplies the thing that does the killing and the resuming.  A
:func:`supervise_run` call executes a workload callable in a forked
child process under an ambient checkpointing scope and watches it from
the parent:

- **heartbeats** — the child's :class:`~repro.core.checkpoint.CheckpointPolicy`
  heartbeat hook streams ``{"slot", "rounds", "saved"}`` records up a
  pipe; silence longer than ``watchdog`` seconds means the child hung
  and it is killed and retried from its last snapshot;
- **deadline** — a total wall-clock budget for all attempts together;
- **bounded retries with exponential backoff** — crashes, watchdog
  kills, and nonzero exits consume attempts; each retry resumes from
  the newest checkpoint, so progress is never lost, only the tail
  since the last snapshot is re-executed (byte-identically);
- **RSS ceiling with graceful degradation** — a child whose resident
  set exceeds ``max_rss_kb`` is killed and restarted one rung down a
  two-stage ladder: first ``REPRO_VECTOR_WORD_CAP`` shrinks the
  vectorized backend's per-vertex draw-budget buffers (results stay
  bit-identical, the run just regenerates more often), then the run
  falls back from the vectorized to the ``fast`` backend — which
  cannot consume vector-format snapshots, so the slots are discarded
  (recorded as a ``checkpoint_discarded`` event) and the run restarts
  fresh on the scalar engine.

Everything the supervisor observes is recorded as
:class:`SupervisorEvent` rows inside the returned :class:`RunOutcome`
(a structured audit record), and — when a ``sidecar`` with a
``record_event`` method is passed (duck-typed;
:class:`repro.obs.TimingSidecarObserver` qualifies) — mirrored into
the plane-2 timing sidecar as ``supervisor_*`` rows.

The child applies ``env`` overrides *after* the fork, so the parent's
environment is never mutated.  The module deliberately lives outside
the engine: the engine knows how to snapshot and resume; policy about
when to kill, retry, and degrade belongs up here.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from ..core.checkpoint import CheckpointPolicy, checkpointing

__all__ = [
    "RunOutcome",
    "SupervisorEvent",
    "supervise_run",
]

#: Stage-1 degradation: initial VectorMT buffer hint clamp (words per
#: vertex).  Small enough to matter at n = 10^6+, large enough that
#: typical kernels rarely regenerate.
DEGRADED_WORD_CAP = 8

#: Stage-2 degradation: the backend the retry is pinned to — the
#: serial per-node engine, the smallest-footprint implementation every
#: install carries (the vectorized backend degrades to it).  Must name
#: a registered backend; the backend-surface meta-test in
#: ``tests/test_backends.py`` checks it against the registry so a
#: rename cannot silently break the ladder.
DEGRADATION_BACKEND = "fast"


@dataclass
class SupervisorEvent:
    """One thing the supervisor saw or did, with seconds-since-start."""

    kind: str
    attempt: int
    t: float
    detail: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "attempt": self.attempt,
            "t": round(self.t, 6),
            **self.detail,
        }


@dataclass
class RunOutcome:
    """Structured audit record of one supervised execution."""

    ok: bool
    result: Any
    error: Optional[str]
    attempts: int
    events: List[SupervisorEvent]
    env: Dict[str, str]

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready form (the result itself is left to the caller —
        it may be a RunResult or any workload-defined value)."""
        return {
            "ok": self.ok,
            "error": self.error,
            "attempts": self.attempts,
            "env": dict(self.env),
            "events": [event.to_dict() for event in self.events],
        }


def _child_entry(
    conn: Any,
    target: Callable[[], Any],
    policy: CheckpointPolicy,
    env: Dict[str, str],
) -> None:
    """Forked child: apply env overrides, run the workload under the
    checkpointing scope, ship the result (or the error) up the pipe."""
    os.environ.update(env)
    try:
        with checkpointing(policy) as scope:
            result = target()
        conn.send(("ok", {"result": result, "slots": scope.events}))
    except BaseException as exc:  # noqa: BLE001 — the parent decides
        try:
            conn.send(("err", f"{type(exc).__name__}: {exc}"))
        except Exception:
            pass
    finally:
        conn.close()


def _rss_kb(pid: int) -> Optional[int]:
    """Resident set size of ``pid`` in KiB via /proc (None elsewhere)."""
    try:
        with open(f"/proc/{pid}/statm") as fh:
            fields = fh.read().split()
        pages = int(fields[1])
    except (OSError, IndexError, ValueError):
        return None
    return pages * (os.sysconf("SC_PAGE_SIZE") // 1024)


def _kill(proc: Any) -> None:
    """Hard-stop a child.  SIGKILL is safe by design: checkpoint files
    are atomically replaced, so the newest snapshot is always whole."""
    try:
        proc.kill()
    except Exception:
        pass
    proc.join(timeout=5.0)


def supervise_run(
    target: Callable[[], Any],
    *,
    checkpoint_dir: str,
    every_rounds: Optional[int] = 256,
    every_seconds: Optional[float] = None,
    retries: int = 2,
    backoff: float = 0.5,
    deadline: Optional[float] = None,
    watchdog: Optional[float] = None,
    max_rss_kb: Optional[int] = None,
    heartbeat_seconds: float = 0.5,
    sidecar: Any = None,
    poll_seconds: float = 0.05,
) -> RunOutcome:
    """Run ``target()`` in a supervised child process; see module doc.

    ``target`` must be a zero-argument callable returning a picklable
    value; every ``run_local`` call it makes is checkpointed into
    ``checkpoint_dir`` (one slot per call) and resumed on retry.  The
    fork start method keeps closures usable as targets.  Returns a
    :class:`RunOutcome`; never raises for child failures — inspect
    ``ok`` / ``error`` / ``events``.
    """
    if retries < 0:
        raise ValueError(f"retries must be >= 0, got {retries}")
    ctx = multiprocessing.get_context("fork")
    started = time.monotonic()
    events: List[SupervisorEvent] = []
    env: Dict[str, str] = {}
    degrade_stage = 0
    last_error: Optional[str] = None

    def emit(kind: str, attempt: int, **detail: Any) -> None:
        events.append(
            SupervisorEvent(
                kind=kind,
                attempt=attempt,
                t=time.monotonic() - started,
                detail=detail,
            )
        )
        if sidecar is not None:
            record = getattr(sidecar, "record_event", None)
            if record is not None:
                record(kind, attempt=attempt, **detail)

    def remaining() -> Optional[float]:
        if deadline is None:
            return None
        return deadline - (time.monotonic() - started)

    def discard_slots() -> List[str]:
        removed = []
        try:
            names = sorted(os.listdir(checkpoint_dir))
        except OSError:
            return removed
        for name in names:
            if name.endswith((".ckpt", ".done")):
                try:
                    os.unlink(os.path.join(checkpoint_dir, name))
                    removed.append(name)
                except OSError:
                    pass
        return removed

    attempt = 0
    attempts_made = 0
    while attempt <= retries:
        left = remaining()
        if left is not None and left <= 0:
            emit("deadline", attempt, budget=deadline)
            break
        parent_conn, child_conn = ctx.Pipe(duplex=False)
        policy = CheckpointPolicy(
            path=checkpoint_dir,
            every_rounds=every_rounds,
            every_seconds=every_seconds,
            resume=True,
            heartbeat=lambda info: child_conn.send(("hb", info)),
            heartbeat_seconds=heartbeat_seconds,
        )
        proc = ctx.Process(
            target=_child_entry,
            args=(child_conn, target, policy, dict(env)),
        )
        proc.start()
        child_conn.close()
        attempts_made += 1
        emit("start", attempt, pid=proc.pid, env=dict(env))

        verdict: str = "died"
        payload: Any = None
        last_msg = time.monotonic()
        while True:
            if parent_conn.poll(poll_seconds):
                try:
                    kind, body = parent_conn.recv()
                except EOFError:
                    verdict = "died"
                    break
                last_msg = time.monotonic()
                if kind == "hb":
                    emit("heartbeat", attempt, **dict(body))
                    continue
                verdict, payload = kind, body
                break
            now = time.monotonic()
            if deadline is not None and now - started >= deadline:
                _kill(proc)
                verdict = "deadline"
                break
            if watchdog is not None and now - last_msg >= watchdog:
                _kill(proc)
                verdict = "watchdog"
                break
            if max_rss_kb is not None and proc.pid is not None:
                rss = _rss_kb(proc.pid)
                if rss is not None and rss > max_rss_kb:
                    _kill(proc)
                    verdict = "rss"
                    payload = rss
                    break
            if not proc.is_alive():
                # Drain anything that raced the exit before concluding
                # the child died silently.
                if parent_conn.poll(0):
                    continue
                verdict = "died"
                break
        _kill(proc)
        parent_conn.close()

        if verdict == "ok":
            emit("done", attempt, slots=payload["slots"])
            return RunOutcome(
                ok=True,
                result=payload["result"],
                error=None,
                attempts=attempts_made,
                events=events,
                env=dict(env),
            )
        if verdict == "deadline":
            emit("deadline", attempt, budget=deadline)
            last_error = last_error or f"deadline of {deadline}s exhausted"
            break
        if verdict == "err":
            last_error = str(payload)
            emit("error", attempt, error=last_error)
        elif verdict == "watchdog":
            last_error = f"no heartbeat for {watchdog}s (hung?)"
            emit("watchdog_kill", attempt, watchdog=watchdog)
        elif verdict == "rss":
            last_error = f"resident set {payload} KiB over ceiling {max_rss_kb}"
            emit("rss_kill", attempt, rss_kb=payload, max_rss_kb=max_rss_kb)
            if degrade_stage == 0:
                env["REPRO_VECTOR_WORD_CAP"] = str(DEGRADED_WORD_CAP)
                degrade_stage = 1
                emit(
                    "degrade",
                    attempt,
                    stage=1,
                    action=f"REPRO_VECTOR_WORD_CAP={DEGRADED_WORD_CAP}",
                )
            elif degrade_stage == 1:
                env["REPRO_BACKEND"] = DEGRADATION_BACKEND
                degrade_stage = 2
                removed = discard_slots()
                emit(
                    "degrade",
                    attempt,
                    stage=2,
                    action=f"REPRO_BACKEND={DEGRADATION_BACKEND}",
                )
                emit("checkpoint_discarded", attempt, files=removed)
        else:  # died
            last_error = last_error or "child exited without a result"
            emit("child_died", attempt, exitcode=proc.exitcode)

        attempt += 1
        if attempt <= retries:
            pause = backoff * (2 ** (attempt - 1))
            left = remaining()
            if left is not None:
                pause = min(pause, max(0.0, left))
            emit("retry", attempt, backoff=round(pause, 3))
            if pause > 0:
                time.sleep(pause)

    return RunOutcome(
        ok=False,
        result=None,
        error=last_error,
        attempts=attempts_made,
        events=events,
        env=dict(env),
    )
