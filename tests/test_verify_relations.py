"""Each metamorphic relation must reject its seeded broken fixture.

Every fixture here is a deliberately buggy node program violating one
LOCAL-model axiom — an ID-leaking colorer, a port-compass program, a
scan-order leak, a wake-bucket order leak, a fault-handler drawing from
a shared RNG, a value-dependent "order-invariant" program.  The tests
pin that the matching relation (a) flags it, (b) shrinks the
counterexample to at most 12 vertices, and (c) accepts a correct
control subject, so the catalogue neither under- nor over-rejects.
"""

import random

import pytest

from repro.algorithms.drivers import get_driver
from repro.core.algorithm import SyncAlgorithm
from repro.core.context import Model
from repro.graphs.generators import cycle_graph, path_graph
from repro.lcl import KColoring
from repro.verify import (
    CheckpointResume,
    EngineEquivalence,
    FaultPlanDeterminism,
    IdRelabeling,
    ObserverNeutrality,
    OrderInvariance,
    PortPermutation,
    VertexOrderInvariance,
    find_counterexample,
    make_instance,
    standard_relations,
    subject_from_algorithm,
    subject_from_spec,
)

# Families the fixtures run on.  ``requested n`` maps to the realized
# size the family's constraints allow.


def _cycle_by_three(n, rng):
    return cycle_graph(max(3, 3 * (n // 3)))


def _cycle(n, rng):
    return cycle_graph(max(3, n))


def _path(n, rng):
    return path_graph(max(4, n))


# ----------------------------------------------------------------------
# Broken fixtures: one per relation
# ----------------------------------------------------------------------
class IdLeakColoring(SyncAlgorithm):
    """Colors by ``ID mod 3`` — a proper coloring of C_{3k} exactly
    when the ID assignment happens to follow the cycle."""

    name = "id-leak-coloring"

    def setup(self, ctx):
        ctx.halt(ctx.id % 3)


class PortCompassColoring(SyncAlgorithm):
    """2-colors a path by a wave from the head, assuming port 0 points
    toward the head — a property of edge-insertion order, not of the
    LOCAL model."""

    name = "port-compass-coloring"

    def setup(self, ctx):
        rev = ctx.input["reverse_ports"]
        if ctx.degree == 1 and rev[0] == 0:
            ctx.publish(0)
            ctx.halt(0)

    def step(self, ctx, inbox):
        left = inbox[0]
        if left is not None:
            color = 1 - left
            ctx.publish(color)
            ctx.halt(color)


class ScanRankColoring(SyncAlgorithm):
    """Labels each vertex with a shared counter's next value — a hidden
    cross-node channel leaking the engine's scan order."""

    name = "scan-rank-coloring"

    def __init__(self):
        self._next = 0

    def setup(self, ctx):
        self._next += 1
        ctx.halt(self._next)


class WakeOrderColoring(SyncAlgorithm):
    """Ranks vertices through a shared counter after a sleep stagger
    that merges two wake buckets: even-ID vertices sleep to round 2
    from setup, odd-ID vertices pass through round 0 and re-sleep to
    round 2, so the fast engine's runnable list wakes evens before odds
    while the reference engine steps vertices in ascending order."""

    name = "wake-order-coloring"

    def __init__(self):
        self._next = 0

    def setup(self, ctx):
        ctx.state["deferred"] = False
        if ctx.id % 2 == 0:
            ctx.sleep_until(2)

    def step(self, ctx, inbox):
        if ctx.id % 2 == 1 and not ctx.state["deferred"]:
            ctx.state["deferred"] = True
            ctx.sleep_until(2)
            return
        self._next += 1
        ctx.halt(self._next)


_PANIC_RNG = random.Random()


class FaultPanicColoring(SyncAlgorithm):
    """Deterministic on clean runs, but answers a perturbed inbox with
    a draw from a *shared module-level* RNG — the perturbed execution
    is then not a function of the FaultPlan."""

    name = "fault-panic-coloring"

    def setup(self, ctx):
        ctx.publish("hello")

    def step(self, ctx, inbox):
        if any(m != "hello" for m in inbox):
            ctx.halt(_PANIC_RNG.getrandbits(16))
        else:
            ctx.halt(0)


class AmnesiacColoring(SyncAlgorithm):
    """Tracks progress in a class-level (process-global) counter
    instead of ``ctx.state``.  A checkpoint cannot see it, so a
    killed-and-resumed run finds the counter already advanced past the
    snapshot's round and halts early with different outputs — exactly
    the hidden-state bug the checkpoint-resume relation exists to
    catch."""

    name = "amnesiac-coloring"
    #: Process-global step clock — the bug.
    clock = 0

    def setup(self, ctx):
        ctx.publish(0)

    def step(self, ctx, inbox):
        AmnesiacColoring.clock += 1
        if AmnesiacColoring.clock >= 3 * ctx.n:
            ctx.halt(AmnesiacColoring.clock % 5)


class ParityColoring(SyncAlgorithm):
    """Declared order-invariant, but outputs ``ID mod 2`` — the parity
    of an ID is not determined by its rank."""

    name = "parity-coloring"

    def setup(self, ctx):
        ctx.halt(ctx.id % 2)


class LocalMaxFlag(SyncAlgorithm):
    """Correct control: flags local ID maxima.  Genuinely
    order-invariant, index-independent, and fault-tolerant (a missing
    or corrupted inbox value is treated as -inf)."""

    name = "local-max-flag"

    def setup(self, ctx):
        ctx.publish(ctx.id)

    def step(self, ctx, inbox):
        values = [x if isinstance(x, int) else -1 for x in inbox]
        ctx.halt(1 if all(ctx.id > x for x in values) else 0)


def _control_subject():
    return subject_from_algorithm(
        LocalMaxFlag,
        name="local-max-flag",
        model=Model.DET,
        order_invariant=True,
        max_rounds=50,
    )


# (relation, broken subject, family, min_n) — the catalogue's negative
# fixtures.  Seed 0 is pinned: `find_counterexample` is a pure function
# of it.
BROKEN = {
    "id-relabeling": (
        IdRelabeling(),
        lambda: subject_from_algorithm(
            IdLeakColoring,
            name="id-leak-coloring",
            model=Model.DET,
            problem=lambda g: KColoring(3),
        ),
        _cycle_by_three,
        3,
    ),
    "port-permutation": (
        PortPermutation(),
        lambda: subject_from_algorithm(
            PortCompassColoring,
            name="port-compass-coloring",
            model=Model.DET,
            problem=lambda g: KColoring(2),
            max_rounds=200,
        ),
        _path,
        4,
    ),
    "vertex-order": (
        VertexOrderInvariance(),
        lambda: subject_from_algorithm(
            ScanRankColoring,
            name="scan-rank-coloring",
            model=Model.DET,
        ),
        _cycle,
        3,
    ),
    "engine-equivalence": (
        EngineEquivalence(),
        lambda: subject_from_algorithm(
            WakeOrderColoring,
            name="wake-order-coloring",
            model=Model.DET,
            max_rounds=50,
        ),
        _cycle,
        3,
    ),
    "observer-neutrality": (
        ObserverNeutrality(),
        lambda: subject_from_algorithm(
            WakeOrderColoring,
            name="wake-order-coloring",
            model=Model.DET,
            max_rounds=50,
        ),
        _cycle,
        3,
    ),
    "fault-determinism": (
        FaultPlanDeterminism(),
        lambda: subject_from_algorithm(
            FaultPanicColoring,
            name="fault-panic-coloring",
            model=Model.DET,
            max_rounds=50,
        ),
        _cycle,
        3,
    ),
    "checkpoint-resume": (
        CheckpointResume(),
        lambda: subject_from_algorithm(
            AmnesiacColoring,
            name="amnesiac-coloring",
            model=Model.DET,
            max_rounds=50,
        ),
        _cycle,
        3,
    ),
    "order-invariance": (
        OrderInvariance(),
        lambda: subject_from_algorithm(
            ParityColoring,
            name="parity-coloring",
            model=Model.DET,
            order_invariant=True,
        ),
        _cycle,
        3,
    ),
}


def test_catalogue_is_complete():
    # Every shipped relation has a broken fixture here, by name.
    assert {r.name for r in standard_relations()} == set(BROKEN)


@pytest.mark.parametrize("relation_name", sorted(BROKEN))
def test_relation_rejects_broken_fixture(relation_name):
    relation, make_subject, family, min_n = BROKEN[relation_name]
    subject = make_subject()
    assert relation.applies_to(subject)
    found = find_counterexample(
        subject, relation, family, min_n, sizes=[12], seeds=[0]
    )
    assert found is not None, (
        f"{relation_name} failed to reject its broken fixture"
    )
    violation, original_n = found
    assert violation.relation == relation_name
    assert violation.subject == subject.name
    # The acceptance bar: counterexamples minimize to tiny instances.
    assert violation.instance["n"] <= 12
    assert violation.instance["n"] <= original_n
    assert violation.message


@pytest.mark.parametrize("relation_name", sorted(BROKEN))
def test_relation_accepts_correct_control(relation_name):
    relation = BROKEN[relation_name][0]
    subject = _control_subject()
    if relation.name in ("id-relabeling", "port-permutation"):
        # Validity relations need an LCL; audit a shipped driver.
        spec = get_driver("deterministic-matching")
        subject = subject_from_spec(spec)
        family, min_n = spec.make_graph, spec.min_n
    else:
        family, min_n = _cycle, 3
    assert relation.applies_to(subject)
    found = find_counterexample(
        subject, relation, family, min_n, sizes=[12], seeds=[0, 1]
    )
    assert found is None, f"{relation_name} rejected a correct subject"


def test_broken_fixture_counterexamples_are_reproducible():
    # Same seed, same relation => byte-identical violation record.
    relation, make_subject, family, min_n = BROKEN["id-relabeling"]
    runs = [
        find_counterexample(
            make_subject(), relation, family, min_n,
            sizes=[12], seeds=[0],
        )
        for _ in range(2)
    ]
    assert runs[0] is not None
    assert runs[0] == runs[1]


def test_wake_order_fixture_is_engine_divergence_not_noise():
    # The wake-bucket fixture diverges *between* engines but each
    # engine alone is deterministic — repeating the fast run agrees.
    _, make_subject, family, _ = BROKEN["engine-equivalence"]
    subject = make_subject()
    instance = make_instance(family, 12, 0)
    from repro.verify import run_outcome

    assert run_outcome(subject, instance) == run_outcome(
        subject, instance
    )


def test_scan_rank_fixture_survives_identity_permutation():
    # Sanity: the vertex-order fixture's bug is *only* visible under a
    # nontrivial permutation; on the untransformed instance both runs
    # trivially agree, so the relation (not flaky execution) is what
    # rejects it.
    _, make_subject, family, _ = BROKEN["vertex-order"]
    subject = make_subject()
    instance = make_instance(family, 8, 3)
    from repro.verify import run_outcome

    first = run_outcome(subject, instance)
    assert first[0] == "ok"
    assert run_outcome(subject, instance) == first
