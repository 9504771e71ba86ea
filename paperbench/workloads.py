"""The paper workloads: generate the instance, run the driver, certify.

Each workload runs one pass at a time into a :class:`Pass`, which
counts instances, failures, certified vertices and LOCAL rounds, and
keeps the labelings for the output digest.  Every instance seed is
derived from the workload seed (:func:`derive_seed`); the program only
ever sees the generated inputs.

The traced pass (``Pass.traced``) additionally attaches a
:class:`~spans.RunLedger` around the driver calls and runs the
counterfactuals the per-layer metrics need: the sweep's cells serially,
and on ``profile-traced`` the driver without checkpoints and bare.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import shutil
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.algorithms import (
    barenboim_elkin_coloring,
    pettie_su_tree_coloring,
    random_sinkless_orientation,
)
from repro.algorithms.drivers import (
    DriverSpec,
    get_driver,
    validate_registry,
)
from repro.algorithms.rand_tree_coloring import BAD
from repro.analysis import run_sweep
from repro.core import (
    AlgorithmFailure,
    checkpointing,
    get_backend,
    observe_runs,
)
from repro.graphs.generators import (
    complete_regular_tree_with_size,
    girth_target,
    high_girth_bipartite_graph,
    random_tree_bounded_degree,
)
from repro.lcl import KColoring, SinklessOrientation
from repro.lowerbounds import corollary2_rounds, theorem5_rounds
from repro.obs import (
    JsonlTraceObserver,
    MetricsObserver,
    aggregate_trace,
    iter_trace,
    profile_trace,
)
from repro.transforms import component_size_threshold
from repro.verify import certify

from spans import RunLedger, Tracer

DELTA = 9

#: Pool size for the sweep: at most two workers, and never more than
#: the machine has cores.
WORKERS = max(1, min(2, os.cpu_count() or 1))

#: Spans of work done only to measure a layer, not part of the
#: workload itself; the tracing-overhead ratio leaves them out.
COUNTERFACTUAL_SPANS = (
    "analysis.serial_sweep",
    "obs.nockpt_driver",
    "obs.bare_driver",
)

#: What an instance function returns: rounds, labeling, failed checks.
Outcome = Tuple[int, Any, List[str]]


def derive_seed(workload: str, seed: int, index: int) -> int:
    """The ``index``-th instance seed of ``workload`` under ``seed``."""
    key = f"{workload}/{seed}/{index}".encode()
    return int.from_bytes(hashlib.sha256(key).digest()[:4], "big") >> 1


def output_digest(outputs: Sequence[Tuple[str, int, Any]]) -> str:
    """sha256 over every instance's label, rounds and labeling."""
    h = hashlib.sha256()
    for label, rounds, labeling in outputs:
        record = [label, rounds, labeling]
        h.update(json.dumps(record, separators=(",", ":")).encode())
    return h.hexdigest()


@dataclass
class Pass:
    """One pass of one workload: its spans, counts and outputs."""

    tracer: Tracer
    work_dir: str
    traced: bool = False
    attempted: int = 0
    #: instance label -> reasons it failed (raised error or failed check)
    failures: Dict[str, List[str]] = field(default_factory=dict)
    certified_vertices: int = 0
    rounds: int = 0
    outputs: List[Tuple[str, int, Any]] = field(default_factory=list)
    counters: Dict[str, float] = field(default_factory=dict)
    ledger: Optional[RunLedger] = None
    wall_s: float = 0.0
    digest: str = ""

    def __post_init__(self) -> None:
        if self.traced:
            self.ledger = RunLedger(self.tracer)

    def span(self, name: str) -> Any:
        return self.tracer.span(name)

    def count(self, key: str, amount: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def observed(self) -> Any:
        """Attach the run ledger, on the traced pass only."""
        if self.ledger is None:
            return nullcontext()
        return observe_runs(self.ledger)

    def fail(self, label: str, reason: str) -> None:
        self.failures.setdefault(label, []).append(reason)

    def instance(
        self, label: str, n: int, fn: Callable[[], Outcome]
    ) -> None:
        """Run one instance.  A raised error fails the instance only."""
        self.attempted += 1
        try:
            rounds, labeling, problems = fn()
        except Exception as exc:
            self.fail(label, f"{type(exc).__name__}: {exc}")
            return
        self.record(label, n, rounds, labeling, problems)

    def record(
        self,
        label: str,
        n: int,
        rounds: int,
        labeling: Any,
        problems: List[str],
    ) -> None:
        self.rounds += rounds
        self.outputs.append((label, rounds, labeling))
        for reason in problems:
            self.fail(label, reason)
        if not problems:
            self.certified_vertices += n


def certified(
    p: Pass,
    problem: Any,
    graph: Any,
    labeling: Any,
    rounds: int,
    spec: DriverSpec,
) -> List[str]:
    """Certify ``labeling`` ball by ball, with the round audit against
    the driver's declared bound; returns the failed checks."""
    with p.span("verify.certify"):
        cert = certify(
            problem,
            graph,
            labeling,
            driver=spec.name,
            rounds=rounds,
            bound=spec.bound(graph.num_vertices, graph.max_degree),
            bound_label=spec.bound_label,
        )
    p.count("balls", cert.checked_balls)
    problems = []
    if not cert.valid:
        problems.append(
            f"{cert.violation_count} balls violate {cert.problem}"
        )
    if cert.rounds_within_bound is False:
        problems.append(
            f"{rounds} rounds exceed the declared bound {cert.bound:.1f}"
        )
    return problems


def generate(p: Pass, make: Callable[[], Any]) -> Any:
    """Generate an instance; ``make`` returns a graph or a tuple
    whose first item is the graph."""
    with p.span("graphs.generate"):
        out = make()
    graph = out[0] if isinstance(out, tuple) else out
    p.count("edges", graph.num_edges)
    return out


def drive(p: Pass, run: Callable[[], Any]) -> Any:
    """Run a driver under the ledger; returns its report."""
    with p.observed(), p.span("algorithms.driver"):
        out = run()
    report = out[0] if isinstance(out, tuple) else out
    p.count("phases", len(report.log.phases))
    return report


# ----------------------------------------------------------------------
# shatter-1e6: Theorem 10 on a Δ = 9 tree at n = 10^6, vectorized
# ----------------------------------------------------------------------
def shatter_1e6(p: Pass, seed: int, n: int = 1_000_000) -> None:
    spec = get_driver("pettie-su-tree-coloring")
    s = derive_seed("shatter-1e6", seed, 0)

    def one() -> Outcome:
        g = generate(
            p, lambda: random_tree_bounded_degree(n, DELTA, random.Random(s))
        )
        report = drive(p, lambda: pettie_su_tree_coloring(g, seed=s))
        problems = certified(
            p, KColoring(DELTA), g, report.labeling, report.rounds, spec
        )
        largest = report.log.stats.max_component
        limit = component_size_threshold(g.num_vertices, DELTA)
        if largest > limit:
            problems.append(
                f"bad component of {largest} > Δ⁴·ln n = {limit:.0f}"
            )
        return report.rounds, report.labeling, problems

    p.instance(f"n={n} seed={s}", n, one)


# ----------------------------------------------------------------------
# separation-sweep: E3 through run_sweep's process pool
# ----------------------------------------------------------------------
SWEEP_SIZES = (100, 400, 2000, 10000)
SWEEP_RAND_SEEDS = 6

#: One sweep cell as read back: (kind, label, cell record or None).
Cell = Tuple[str, str, Optional[Dict[str, Any]]]


def _sweep_cell(
    p: Pass, cells_dir: str, kind: str, x: float, seed: int
) -> float:
    """One E3 cell, certified where it runs.  The labeling digest and
    the driver time go to a small file, because a pooled cell can only
    hand a float back to the parent."""
    if kind == "rand":
        spec = get_driver("pettie-su-tree-coloring")
    else:
        spec = get_driver("barenboim-elkin-coloring")
    g = generate(p, lambda: complete_regular_tree_with_size(DELTA, int(x)))
    if kind == "rand":
        run: Callable[[], Any] = lambda: pettie_su_tree_coloring(g, seed=seed)
    else:
        run = lambda: barenboim_elkin_coloring(g, DELTA)
    start = p.tracer.clock()
    report = drive(p, run)
    driver_s = p.tracer.clock() - start
    problems = certified(
        p, KColoring(DELTA), g, report.labeling, report.rounds, spec
    )
    cell = {
        "n": g.num_vertices,
        "rounds": report.rounds,
        "sha256": output_digest([("", report.rounds, report.labeling)]),
        "problems": problems,
        "driver_s": driver_s,
    }
    path = os.path.join(cells_dir, f"{kind}-{int(x)}-{seed}.json")
    with open(path, "w") as fh:
        json.dump(cell, fh)
    if problems:
        raise AlgorithmFailure(
            f"{kind} cell n={g.num_vertices}: {'; '.join(problems)}"
        )
    return float(report.rounds)


def _sweep(
    p: Pass,
    cells_dir: str,
    grid: Dict[str, List[int]],
    workers: Optional[int],
) -> str:
    """Run both sweeps; returns the error that stopped one, if any (its
    cells then have no file and count as failed)."""
    os.makedirs(cells_dir, exist_ok=True)
    errors = []
    for kind, seeds in grid.items():

        def measure(x: float, seed: int, kind: str = kind) -> float:
            return _sweep_cell(p, cells_dir, kind, x, seed)

        try:
            run_sweep(
                kind,
                SWEEP_SIZES,
                measure,
                seeds=seeds,
                skip_failures=True,
                workers=workers,
                backend="fast",
            )
        except Exception as exc:
            errors.append(f"{kind} sweep: {type(exc).__name__}: {exc}")
    return "; ".join(errors)


def _read_cells(cells_dir: str, grid: Dict[str, List[int]]) -> List[Cell]:
    cells = []
    for kind, seeds in grid.items():
        for x in SWEEP_SIZES:
            for seed in seeds:
                path = os.path.join(cells_dir, f"{kind}-{x}-{seed}.json")
                cell = None
                if os.path.exists(path):
                    with open(path) as fh:
                        cell = json.load(fh)
                cells.append((kind, f"{kind} x={x} seed={seed}", cell))
    return cells


def _ladder_problems(cells: List[Cell]) -> List[str]:
    """The E3 shape: rounds above the Theorem 5 / Corollary 2 lower
    bounds, and the deterministic increment over the ladder exceeding
    the randomized one."""
    by_size: Dict[str, Dict[int, List[int]]] = {"det": {}, "rand": {}}
    problems = []
    for kind, label, cell in cells:
        if cell is None:
            return ["cells missing"]
        n, rounds = cell["n"], cell["rounds"]
        by_size[kind].setdefault(n, []).append(rounds)
        if kind == "det":
            lower = theorem5_rounds(n, DELTA)
        else:
            lower = corollary2_rounds(n, DELTA)
        if rounds < lower:
            problems.append(
                f"{label}: {rounds} rounds below the lower bound "
                f"{lower:.1f}"
            )

    def increment(kind: str) -> float:
        sizes = sorted(by_size[kind])
        mean = {n: sum(v) / len(v) for n, v in by_size[kind].items()}
        return mean[sizes[-1]] - mean[sizes[0]]

    det, rand = increment("det"), increment("rand")
    if not det > rand:
        problems.append(
            f"det increment {det:.1f} does not exceed rand increment "
            f"{rand:.1f}"
        )
    return problems


def separation_sweep(p: Pass, seed: int) -> None:
    rand_seeds = [
        derive_seed("separation-sweep", seed, i)
        for i in range(SWEEP_RAND_SEEDS)
    ]
    # The deterministic driver takes no seed; the one sweep seed only
    # labels its cells.
    grid = {"rand": rand_seeds, "det": [0]}
    pooled_dir = os.path.join(p.work_dir, "cells")
    # Pooled cells run in forked children, where the ledger would record
    # nothing the parent sees; they run bare on the traced pass too.
    ledger, p.ledger = p.ledger, None
    with p.span("analysis.sweep"):
        error = _sweep(p, pooled_dir, grid, WORKERS)
    p.ledger = ledger
    cells = _read_cells(pooled_dir, grid)
    p.count("cells", len(cells))
    ladder = _ladder_problems(cells)
    for kind, label, cell in cells:
        p.attempted += 1
        if cell is None:
            reason = error or "no error raised"
            p.fail(label, f"cell produced no result ({reason})")
            continue
        p.record(
            label,
            cell["n"],
            cell["rounds"],
            cell["sha256"],
            cell["problems"] + ladder,
        )
    if not p.traced:
        return
    p.counters["bare_driver_s"] = sum(c["driver_s"] for _, _, c in cells if c)
    serial_dir = os.path.join(p.work_dir, "cells-serial")
    with p.span("analysis.serial_sweep"):
        _sweep(p, serial_dir, grid, None)
    serial = _read_cells(serial_dir, grid)
    for (_, label, pooled), (_, _, alone) in zip(cells, serial):
        same = pooled is not None and alone is not None and all(
            pooled[k] == alone[k] for k in ("rounds", "sha256")
        )
        if not same:
            p.fail(label, "serial and pooled sweeps disagree")


# ----------------------------------------------------------------------
# girth-sinkless: the Theorem 4 family, girth-checked
# ----------------------------------------------------------------------
GIRTH_HALF = 4096
GIRTH_DEGREE = 3
GIRTH_INSTANCES = 3


def girth_sinkless(p: Pass, seed: int) -> None:
    spec = get_driver("random-sinkless")
    target = girth_target(2 * GIRTH_HALF, GIRTH_DEGREE, slack=0.8)
    for i in range(GIRTH_INSTANCES):
        s = derive_seed("girth-sinkless", seed, i)

        def one(s: int = s) -> Outcome:
            g, _ = generate(
                p,
                lambda: high_girth_bipartite_graph(
                    GIRTH_HALF, GIRTH_DEGREE, target, random.Random(s)
                ),
            )
            with p.span("graphs.girth"):
                girth = g.girth()
            problems = []
            if girth is not None and girth < target:
                problems.append(f"girth {girth} < target {target}")
            report = drive(p, lambda: random_sinkless_orientation(g, seed=s))
            problems += certified(
                p,
                SinklessOrientation(),
                g,
                report.labeling,
                report.rounds,
                spec,
            )
            return report.rounds, report.labeling, problems

        p.instance(f"half={GIRTH_HALF} seed={s}", 2 * GIRTH_HALF, one)


# ----------------------------------------------------------------------
# profile-traced: the `repro profile` path with checkpoints
# ----------------------------------------------------------------------
PROFILE_N = 50_000
PROFILE_EVERY_ROUNDS = 4


def _file_sha(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _tree_bytes(path: str) -> int:
    return sum(
        os.path.getsize(os.path.join(d, f))
        for d, _, files in os.walk(path)
        for f in files
    )


@contextmanager
def _telemetry(trace_path: str) -> Iterator[MetricsObserver]:
    trace = JsonlTraceObserver(trace_path)
    metrics = MetricsObserver()
    try:
        with observe_runs(trace, metrics):
            yield metrics
    finally:
        trace.close()


def _agreement_problems(
    aggregate: Dict[str, Any], summary: Dict[str, Any], n: int
) -> List[str]:
    problems = []
    runs = aggregate["per_run"]
    if not runs or runs[0]["n"] != n:
        problems.append("first traced run is not the whole tree")
    halted_each = sum(r["n"] for r in runs)
    if aggregate["halted_total"] != halted_each:
        problems.append(
            f"trace halted_total {aggregate['halted_total']} != "
            f"Σ run sizes {halted_each}"
        )
    counters = summary["metrics"]
    for key in (
        "halted_total",
        "messages_total",
        "rounds_total",
        "failed_total",
    ):
        seen = counters.get(key, {}).get("value", 0)
        if aggregate[key] != seen:
            problems.append(f"trace {key} {aggregate[key]} != metrics {seen}")
    return problems


def profile_traced(p: Pass, seed: int, n: int = PROFILE_N) -> None:
    spec = get_driver("pettie-su-tree-coloring")
    s = derive_seed("profile-traced", seed, 0)
    trace_path = os.path.join(p.work_dir, "trace.jsonl")
    ckpt_dir = os.path.join(p.work_dir, "checkpoints")

    def one() -> Outcome:
        g = generate(
            p, lambda: random_tree_bounded_degree(n, DELTA, random.Random(s))
        )
        every = PROFILE_EVERY_ROUNDS
        with checkpointing(ckpt_dir, every_rounds=every) as scope:
            with _telemetry(trace_path) as metrics:
                report = drive(p, lambda: pettie_su_tree_coloring(g, seed=s))
        p.count("trace_bytes", os.path.getsize(trace_path))
        p.count("checkpoint_bytes", _tree_bytes(ckpt_dir))
        p.count("checkpoint_slots", scope.next_slot)
        with p.span("obs.profile"):
            profile = profile_trace(trace_path, unresolved=BAD)
        with p.span("obs.aggregate"):
            aggregate = aggregate_trace(iter_trace(trace_path))
        problems = [
            f"profile {check}: {detail}"
            for check, ok, detail in profile.checks()
            if not ok
        ]
        problems += _agreement_problems(aggregate, metrics.summary(), n)
        problems += certified(
            p, KColoring(DELTA), g, report.labeling, report.rounds, spec
        )
        if p.traced:
            problems += _profile_counterfactuals(
                p, g, s, trace_path, report.labeling
            )
        return report.rounds, report.labeling, problems

    p.instance(f"n={n} seed={s}", n, one)


def _profile_counterfactuals(
    p: Pass, g: Any, s: int, trace_path: str, labeling: Any
) -> List[str]:
    """The same driver without checkpoints (telemetry and a throwaway
    ledger still attached) and bare; both must reproduce the labeling,
    and the trace bytes must not depend on checkpointing."""
    problems = []
    nockpt_path = trace_path + ".nockpt"
    with _telemetry(nockpt_path), observe_runs(RunLedger(Tracer())):
        with p.span("obs.nockpt_driver"):
            plain = pettie_su_tree_coloring(g, seed=s)
    if _file_sha(nockpt_path) != _file_sha(trace_path):
        problems.append("trace bytes differ with checkpoints on")
    with p.span("obs.bare_driver"):
        bare = pettie_su_tree_coloring(g, seed=s)
    if plain.labeling != labeling or bare.labeling != labeling:
        problems.append("labeling depends on observers or checkpoints")
    p.counters["observed_driver_s"] = p.tracer.total("obs.nockpt_driver")
    p.counters["bare_driver_s"] = p.tracer.total("obs.bare_driver")
    return problems


# ----------------------------------------------------------------------
# the registry
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Workload:
    name: str
    #: the engine backend the workload requests
    backend: str
    run: Callable[[Pass, int], None]

    def setup(self) -> None:
        """Everything before the first instance is requested: backend
        resolution (numpy and the kernels' module for ``vectorized``)
        and driver-registry validation.  Imports happen when this
        module loads."""
        get_backend(self.backend).load()
        validate_registry()


WORKLOADS = {
    w.name: w
    for w in (
        Workload("shatter-1e6", "vectorized", shatter_1e6),
        Workload("separation-sweep", "fast", separation_sweep),
        Workload("girth-sinkless", "fast", girth_sinkless),
        Workload("profile-traced", "fast", profile_traced),
    )
}


def reset_dir(path: str) -> None:
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
