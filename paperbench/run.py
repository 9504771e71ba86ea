"""Paper-workload benchmark: build the instance, run the driver, certify.

    python3 paperbench/run.py --workload shatter-1e6 --seed 1 \\
        --seconds 12 --trace 0

Run from the repository root.  ``--trace 0`` times untraced passes for
``--seconds`` (at least one) and prints the end-to-end metrics;
``--trace 1`` runs one untraced pass, then one traced pass, and prints
the per-layer metrics.  Metric names and units come from
``BENCHMARK.json``.  Human-readable lines come first; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``--workload all`` runs every workload in
turn.  See ``paperbench/NOTES.md``.
"""

from __future__ import annotations

import os

# Pinned before numpy can be imported (by the vectorized backend), and
# inherited by the set-up probes and the sweep's pool children.
for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
):
    os.environ[_var] = "1"

import argparse
import importlib.metadata
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List, Sequence

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
WORK = HERE / ".work"

#: Fresh processes timed for ``setup_s``; the median is reported.
SETUP_PROBES = 5


def _fail(message: str) -> int:
    print(f"paperbench: {message}", file=sys.stderr)
    return 2


def _import_program() -> Any:
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    return workloads


def _self_command(*args: str) -> List[str]:
    return [sys.executable, str(Path(__file__).resolve()), *args]


def probe_setup(name: str) -> None:
    """Child side of a set-up probe: import, resolve, validate, then
    print the monotonic clock (shared across processes on Linux)."""
    _import_program().WORKLOADS[name].setup()
    print(repr(time.perf_counter()))


def setup_samples(name: str, count: int) -> List[float]:
    samples = []
    for _ in range(count):
        start = time.perf_counter()
        out = subprocess.run(
            _self_command("--probe-setup", "--workload", name),
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        samples.append(float(out.stdout.split()[-1]) - start)
    return samples


def run_pass(w: Any, workload: Any, seed: int, traced: bool) -> Any:
    """One pass, timed by its top-level ``pass`` span; the digest is
    taken after the clock stops."""
    from repro.core import use_backend
    from spans import Tracer

    work_dir = str(WORK / workload.name)
    w.reset_dir(work_dir)
    p = w.Pass(Tracer(), work_dir, traced)
    with use_backend(workload.backend), p.span("pass") as whole:
        workload.run(p, seed)
    p.wall_s = whole.duration
    p.digest = w.output_digest(p.outputs)
    p.outputs = []
    return p


def peak_rss_mb() -> float:
    peak = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return peak / 1024.0


def end_to_end(
    passes: Sequence[Any], setup: Sequence[float]
) -> Dict[str, float]:
    wall = statistics.median(p.wall_s for p in passes)
    certified = statistics.median(p.certified_vertices for p in passes)
    attempted = sum(p.attempted for p in passes)
    failed = sum(len(p.failures) for p in passes)
    return {
        "wall_s": wall,
        "setup_s": statistics.median(setup),
        "certified_vertices_per_s": certified / wall,
        "lcl_rounds": statistics.median(p.rounds for p in passes),
        "peak_rss_mb": peak_rss_mb(),
        "certified_frac": 1.0 - failed / attempted if attempted else 0.0,
    }


def per_layer(
    untraced: Any, traced: Any, counterfactual: Sequence[str]
) -> Dict[str, float]:
    t, c = traced.tracer, traced.counters
    runs = traced.ledger.runs
    rounds_s = sum(r["end"] - r["start"] for r in runs)
    vertex_rounds = sum(r["rounds"] * r["n"] for r in runs)
    fallbacks = traced.ledger.fallbacks()
    driver_s = t.total("algorithms.driver")
    observed = c.get("observed_driver_s", driver_s)
    bare = c.get("bare_driver_s", untraced.tracer.total("algorithms.driver"))
    sweep_s = t.total("analysis.sweep")
    serial_s = t.total("analysis.serial_sweep")
    comparable = traced.wall_s - sum(t.total(name) for name in counterfactual)
    return {
        "graphs.generate_s": t.total("graphs.generate"),
        "graphs.girth_s": t.total("graphs.girth"),
        "graphs.edges": c.get("edges", 0),
        "algorithms.driver_s": driver_s,
        "algorithms.phases": c.get("phases", 0),
        "core.engine.runs": len(runs),
        "core.engine.rounds_s": rounds_s,
        "core.engine.pre_round_s": t.self_total("algorithms.driver"),
        "core.engine.vertex_rounds_per_s": (
            vertex_rounds / rounds_s if rounds_s else 0.0
        ),
        "core.engine.messages": sum(r["messages"] for r in runs),
        "backends.fallback_runs": len(fallbacks),
        "backends.fallback_s": sum(r["end"] - r["start"] for r in fallbacks),
        "verify.certify_s": t.total("verify.certify"),
        "verify.balls": c.get("balls", 0),
        "analysis.sweep_s": sweep_s,
        "analysis.serial_sweep_s": serial_s,
        "analysis.pool_speedup": serial_s / sweep_s if sweep_s else 0.0,
        "analysis.cells": c.get("cells", 0),
        "obs.bare_driver_s": bare,
        "obs.observed_driver_s": observed,
        "obs.observer_overhead_ratio": observed / bare if bare else 0.0,
        "obs.trace_bytes": c.get("trace_bytes", 0),
        "obs.profile_s": t.total("obs.profile"),
        "obs.aggregate_s": t.total("obs.aggregate"),
        "core.checkpoint.save_s": (
            driver_s - observed if "observed_driver_s" in c else 0.0
        ),
        "core.checkpoint.bytes": c.get("checkpoint_bytes", 0),
        "core.checkpoint.slots": c.get("checkpoint_slots", 0),
        "bench.traced_wall_s": traced.wall_s,
        "bench.unattributed_s": t.self_total("pass"),
        "bench.tracing_overhead_ratio": comparable / untraced.wall_s,
    }


def describe_runs(traced: Any) -> List[str]:
    """Engine runs of the traced pass, grouped by algorithm and by
    requested backend, executed backend and kernel."""
    groups: Dict[tuple, List[float]] = {}
    for r in traced.ledger.runs:
        key = (r["algorithm"], r["requested"], r["executed"], r["kernel"])
        groups.setdefault(key, []).append(r["end"] - r["start"])
    return [
        f"engine runs: {algorithm} requested={requested} "
        f"executed={executed} kernel={kernel} count={len(times)} "
        f"rounds_s={sum(times):.3f}"
        for (algorithm, requested, executed, kernel), times in groups.items()
    ]


def run_all(args: argparse.Namespace, names: Sequence[str]) -> int:
    """Every workload in turn, each in its own process; the last line
    merges their results, metrics named ``<workload>.<metric>``."""
    result: Dict[str, Any] = {
        "correct": True,
        "attempted": 0,
        "failed": 0,
        "metrics": {},
    }
    for name in names:
        command = _self_command("--workload", name)
        for flag in ("seed", "seconds", "trace"):
            command += [f"--{flag}", str(getattr(args, flag))]
        out = subprocess.run(
            command, stdout=subprocess.PIPE, text=True, check=True
        )
        *lines, last = out.stdout.splitlines()
        print("\n".join(lines))
        one = json.loads(last)
        result["correct"] = result["correct"] and one["correct"]
        result["attempted"] += one["attempted"]
        result["failed"] += one["failed"]
        result["metrics"].update(
            {f"{name}.{k}": v for k, v in one["metrics"].items()}
        )
    print(json.dumps(result))
    return 0


def main(argv: Sequence[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--probe-setup", action="store_true", help=argparse.SUPPRESS
    )
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    has_program = (ROOT / "src" / "repro" / "__init__.py").is_file()
    if not has_program or not spec_path.is_file():
        return _fail(
            f"run from a checkout of the repository (no src/repro under "
            f"{ROOT})"
        )
    if args.probe_setup:
        probe_setup(args.workload)
        return 0
    spec = json.loads(spec_path.read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.workload == "all":
        return run_all(args, names)
    if args.workload not in names:
        return _fail(f"unknown workload {args.workload!r}")

    WORK.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(WORK)
    tempfile.tempdir = str(WORK)
    try:
        setup = setup_samples(args.workload, SETUP_PROBES)
        w = _import_program()
        workload = w.WORKLOADS[args.workload]
        workload.setup()
        deadline = time.perf_counter() + args.seconds
        passes = [run_pass(w, workload, args.seed, traced=False)]
        while args.trace == 0 and time.perf_counter() < deadline:
            passes.append(run_pass(w, workload, args.seed, traced=False))
        traced = None
        if args.trace:
            traced = run_pass(w, workload, args.seed, traced=True)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)

    everything = passes + ([traced] if traced else [])
    attempted = sum(p.attempted for p in everything)
    failed = sum(len(p.failures) for p in everything)
    digests = sorted({p.digest for p in everything})
    rounds = sorted({p.rounds for p in everything})
    correct = failed == 0 and len(digests) == 1 and len(rounds) == 1

    env = {
        "workload": args.workload,
        "seed": args.seed,
        "nproc": os.cpu_count(),
        "workers": w.WORKERS,
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "blas_threads": os.environ["OMP_NUM_THREADS"],
        "passes": len(passes),
        "digest": digests,
    }
    print("env " + json.dumps(env, sort_keys=True))
    for p in everything:
        for label, reasons in p.failures.items():
            print(f"FAILED {label}: {'; '.join(reasons)}")
    walls = [p.wall_s for p in passes]
    print(
        f"wall_s per pass: median {statistics.median(walls):.3f}, "
        f"max {max(walls):.3f}, passes {len(walls)}: "
        f"{[round(x, 3) for x in walls]}; "
        f"setup_s samples {[round(x, 3) for x in setup]}"
    )
    print(
        f"failed_frac = {failed / attempted:.4f} "
        f"({failed} of {attempted} instances)"
    )

    if traced is None:
        values = end_to_end(passes, setup)
        wanted = spec["end_to_end"]
    else:
        values = per_layer(passes[0], traced, w.COUNTERFACTUAL_SPANS)
        wanted = spec["per_layer"]
        print("\n".join(describe_runs(traced)))
    if set(values) != {m["name"] for m in wanted}:
        return _fail(
            f"metric set differs from BENCHMARK.json: {sorted(values)}"
        )
    metrics = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
        for m in wanted
    }
    for name, metric in metrics.items():
        print(
            f"{args.workload:<17} {name:<34} {metric['value']:>16.6g} "
            f"{metric['unit']}"
        )
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
