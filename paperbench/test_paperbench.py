"""Tests of the benchmark's own arithmetic and bookkeeping.

Run from the repository root: ``python3 -m pytest paperbench -q``.
Instances here are tiny; the workloads' real sizes are exercised only
by ``paperbench/run.py``.
"""

import dataclasses
import json
import pathlib
import re

import pytest

import run
import workloads
from repro.algorithms import random_sinkless_orientation
from repro.core import observe_runs, use_backend
from repro.graphs.generators import circulant_graph
from spans import RunLedger, Tracer, covered

SPEC = json.loads((pathlib.Path(run.ROOT) / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


class FakeClock:
    def __init__(self, *ticks):
        self.ticks = list(ticks)

    def __call__(self):
        return self.ticks.pop(0)


def tiny(n):
    """A shatter-1e6 pass shrunk to ``n`` vertices on the fast engine."""
    return workloads.Workload(
        "tiny", "fast", lambda p, seed: workloads.shatter_1e6(p, seed, n=n)
    )


def test_covered_merges_overlaps_and_clips():
    assert covered([], 0, 10) == 0
    assert covered([(1, 3), (2, 5), (7, 8)], 0, 10) == 5
    assert covered([(-5, 2), (9, 20)], 0, 10) == 3
    assert covered([(1, 9), (2, 3)], 0, 10) == 8
    assert covered([(11, 12)], 0, 10) == 0


def test_self_time_subtracts_covered_children_once():
    # outer [0, 10]; children [1, 4] and [3, 6] overlap; grandchild
    # [2, 3] counts toward its parent only.
    tracer = Tracer(FakeClock(0, 1, 2, 3, 4, 10))
    with tracer.span("outer"):
        with tracer.span("a"):
            with tracer.span("a.inner"):
                pass
        tracer.record("b", 3, 6)
    assert [s.name for s in tracer.spans] == ["outer", "a", "a.inner", "b"]
    assert tracer.self_time(0) == 10 - 5
    assert tracer.self_time(1) == 3 - 1
    assert tracer.self_total("outer") == 5
    assert tracer.total("a") == 3


def test_failed_frac_counts_each_failing_instance_once(tmp_path):
    p = workloads.Pass(Tracer(), str(tmp_path))
    p.instance("ok", 10, lambda: (3, [0, 1], []))
    p.instance("raises", 10, lambda: 1 / 0)
    p.instance("two checks fail", 10, lambda: (3, [1, 1], ["bad", "worse"]))
    assert p.attempted == 3
    assert sorted(p.failures) == ["raises", "two checks fail"]
    assert p.certified_vertices == 10
    p.wall_s = 2.0
    values = run.end_to_end([p], [0.1, 0.3, 0.2])
    assert values["certified_frac"] == pytest.approx(1 / 3)
    assert values["certified_vertices_per_s"] == 5.0
    assert values["setup_s"] == 0.2


def test_injected_certificate_failure_fails_the_instance(
    tmp_path, monkeypatch
):
    real = workloads.certify

    def broken(*args, **kwargs):
        return dataclasses.replace(real(*args, **kwargs), violation_count=1)

    monkeypatch.setattr(run, "WORK", tmp_path)
    monkeypatch.setattr(workloads, "certify", broken)
    p = run.run_pass(workloads, tiny(300), seed=1, traced=False)
    assert p.attempted == 1
    assert len(p.failures) == 1
    assert p.certified_vertices == 0


def test_digest_is_stable_and_sensitive(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "WORK", tmp_path)
    first = run.run_pass(workloads, tiny(400), seed=3, traced=False)
    again = run.run_pass(workloads, tiny(400), seed=3, traced=True)
    other = run.run_pass(workloads, tiny(400), seed=4, traced=False)
    assert first.digest == again.digest
    assert first.digest != other.digest
    digest = workloads.output_digest
    out = [("a", 3, [0, 1, 2])]
    assert digest(out) == digest(list(out))
    assert digest(out) != digest([("a", 3, [0, 2, 1])])
    assert digest(out) != digest([("a", 4, [0, 1, 2])])
    assert digest(out) != digest([("b", 3, [0, 1, 2])])


def test_derived_seeds_depend_on_workload_seed_and_index():
    seeds = {
        workloads.derive_seed(w, s, i)
        for w in ("a", "b")
        for s in (0, 1)
        for i in range(3)
    }
    assert len(seeds) == 12
    assert workloads.derive_seed("a", 0, 0) == workloads.derive_seed("a", 0, 0)
    assert all(0 <= s < 2**31 for s in seeds)


def test_ledger_exposes_a_vectorized_fallback():
    g = circulant_graph(40, [1, 2])
    ledger = RunLedger(Tracer())
    with use_backend("vectorized"), observe_runs(ledger):
        random_sinkless_orientation(g, seed=1)
    (only,) = ledger.runs
    assert (only["requested"], only["executed"], only["kernel"]) == (
        "vectorized", "fast", None,
    )
    assert ledger.fallbacks() == [only]
    ledger = RunLedger(Tracer())
    with use_backend("fast"), observe_runs(ledger):
        random_sinkless_orientation(g, seed=1)
    assert ledger.fallbacks() == []


def test_metric_names_units_and_emitted_sets_match_the_spec(
    tmp_path, monkeypatch
):
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    assert [n for n in names if not NAME.match(n)] == []
    units = [m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert all(UNIT.match(u) for u in units)
    assert {w["name"] for w in SPEC["workloads"]} == set(workloads.WORKLOADS)

    monkeypatch.setattr(run, "WORK", tmp_path)
    untraced = run.run_pass(workloads, tiny(300), seed=1, traced=False)
    traced = run.run_pass(workloads, tiny(300), seed=1, traced=True)
    layer = run.per_layer(untraced, traced, workloads.COUNTERFACTUAL_SPANS)
    assert set(layer) == {m["name"] for m in SPEC["per_layer"]}
    assert layer["core.engine.runs"] >= 1
    assert layer["bench.unattributed_s"] >= 0
    e2e = run.end_to_end([untraced], [0.5])
    assert set(e2e) == {m["name"] for m in SPEC["end_to_end"]}


def test_profile_counterfactuals_agree_on_a_small_tree(tmp_path):
    p = workloads.Pass(Tracer(), str(tmp_path), traced=True)
    with use_backend("fast"):
        workloads.profile_traced(p, seed=2, n=4000)
    assert p.failures == {}
    assert p.counters["checkpoint_slots"] >= 1
    assert p.counters["trace_bytes"] > 0
    assert set(p.counters) >= {"observed_driver_s", "bare_driver_s"}
