"""In-run checkpoint kill-resume smoke test (CI; ~15 s wall clock).

Exercises the round-boundary checkpoint contract across a real
SIGKILL: a child process runs a checkpointed n = 10^4 coloring
workload through ``repro run``, the parent SIGKILLs it the moment the
first in-flight snapshot lands, then resumes with ``--resume`` and
asserts both the summary and the JSONL trace are **byte-identical** to
an uninterrupted run.  The smoke runs once per snapshot format: on the
vectorized backend (``"vector"`` snapshots) when numpy is importable,
and always on the fast backend (``"scalar"`` snapshots).  See
``docs/robustness.md``.

Usage: ``python benchmarks/checkpoint_smoke.py [outdir]`` — exits 0 on
success and prints one PASS line; any other exit is a failure.  When
``outdir`` is given, each backend's checkpoint directory, traces, and
timing sidecar are left in ``outdir/<backend>/`` for artifact upload
instead of a tempdir.
"""

import glob
import json
import os
import signal
import subprocess
import sys
import tempfile
import time

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO, "src"))

from repro.core import available_backend_names  # noqa: E402

N = 10_000
DELTA = 9
SEED = 1
#: Bigger follow-up sizes if the run outraces the parent's SIGKILL.
ESCALATION = [N, 40_000, 160_000]


def run_cmd(outdir, tag, *, resume=False, checkpoint=True, n=N):
    cmd = [
        sys.executable, "-m", "repro.cli", "run",
        "--workload", "coloring", "--n", str(n), "--delta", str(DELTA),
        "--seed", str(SEED),
        "--trace", os.path.join(outdir, f"{tag}.trace.jsonl"),
        "--timing-sidecar", os.path.join(outdir, f"{tag}.timing.jsonl"),
    ]
    if checkpoint:
        cmd += [
            "--checkpoint-dir", os.path.join(outdir, "ck"),
            "--checkpoint-every", "1",
        ]
    if resume:
        cmd += ["--resume"]
    return cmd


def smoke_backends():
    """One backend per snapshot format this build can write."""
    available = available_backend_names()
    return [b for b in ("vectorized", "fast") if b in available]


def env_with_backend(backend):
    env = dict(os.environ)
    env["REPRO_BACKEND"] = backend
    env["PYTHONPATH"] = os.path.join(REPO, "src")
    return env


def kill_once_checkpointed(outdir, env, n):
    """Launch a checkpointed run and SIGKILL it at the first snapshot.

    Returns True when the kill genuinely landed mid-flight (the child
    died to the signal), False when the run finished first.
    """
    ck = os.path.join(outdir, "ck")
    child = subprocess.Popen(
        run_cmd(outdir, "resumed", n=n), env=env,
        stdout=subprocess.DEVNULL,
    )
    deadline = time.monotonic() + 120
    try:
        while child.poll() is None:
            if glob.glob(os.path.join(ck, "slot-*.ckpt")):
                child.send_signal(signal.SIGKILL)
                break
            if time.monotonic() > deadline:
                raise AssertionError(
                    "child never wrote a snapshot within 120s"
                )
            time.sleep(0.002)
    finally:
        child.wait(timeout=60)
    return child.returncode == -signal.SIGKILL


def read(path):
    with open(path, "rb") as handle:
        return handle.read()


def smoke_one(outdir, backend):
    """Kill, resume and byte-compare one backend's run; returns the
    size it ran at and its trace length."""
    env = env_with_backend(backend)
    for n in ESCALATION:
        for stale in glob.glob(os.path.join(outdir, "ck", "slot-*")):
            os.unlink(stale)
        if kill_once_checkpointed(outdir, env, n):
            break
        print(
            f"  ({backend}: n = {n} finished before SIGKILL landed; "
            "escalating)",
            flush=True,
        )
    else:
        raise AssertionError(
            f"{backend}: every escalation size finished before SIGKILL "
            "— nothing was interrupted, the smoke proves nothing"
        )

    # Resume the killed run, then produce the uninterrupted baseline.
    resumed = subprocess.run(
        run_cmd(outdir, "resumed", resume=True, n=n), env=env,
        stdout=subprocess.PIPE, check=True,
    )
    baseline = subprocess.run(
        run_cmd(outdir, "baseline", checkpoint=False, n=n), env=env,
        stdout=subprocess.PIPE, check=True,
    )
    assert resumed.stdout == baseline.stdout, (
        f"{backend}: resumed summary differs from the uninterrupted run's"
    )
    summary = json.loads(resumed.stdout)
    assert summary["n"] == n and summary["rounds"] > 0

    resumed_trace = read(os.path.join(outdir, "resumed.trace.jsonl"))
    baseline_trace = read(os.path.join(outdir, "baseline.trace.jsonl"))
    assert resumed_trace, f"{backend}: resumed trace is empty"
    assert resumed_trace == baseline_trace, (
        f"{backend}: resumed trace bytes differ from the uninterrupted "
        "run's"
    )
    return n, len(resumed_trace)


def main(outdir):
    legs = []
    for backend in smoke_backends():
        leg_dir = os.path.join(outdir, backend)
        os.makedirs(leg_dir, exist_ok=True)
        n, trace_len = smoke_one(leg_dir, backend)
        legs.append(f"{backend} n = {n} ({trace_len} trace bytes)")
    print(
        "PASS checkpoint smoke: SIGKILLed " + ", ".join(legs)
        + " mid-flight; every resumed trace byte-identical to an "
        "uninterrupted run"
    )
    return 0


if __name__ == "__main__":
    if len(sys.argv) > 1:
        os.makedirs(sys.argv[1], exist_ok=True)
        sys.exit(main(os.path.abspath(sys.argv[1])))
    with tempfile.TemporaryDirectory() as tmp:
        sys.exit(main(tmp))
