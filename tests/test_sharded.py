"""Property tests for the deterministic vertex partitioner in
:mod:`repro.backends.sharded.partition`.

The sharded round engine that consumed these partitions has been
removed; the partitioner and these tests remain until its own removal.
Each test is a seeded property check over :mod:`repro.verify.gen`
instances — every failing instance is shrunk with
:func:`repro.verify.shrink_instance` before being reported, so a red
run prints minimal reproduction coordinates.
"""

import pytest

from repro.backends.sharded import (
    PARTITION_MODES,
    RANDOM,
    boundary_edges,
    partition_graph,
)
from repro.core.errors import ReproError
from repro.graphs.generators import random_tree_bounded_degree
from repro.verify import make_instance, shrink_instance


def _tree_family(n, rng):
    return random_tree_bounded_degree(max(n, 3), 6, rng)


MIN_N = 4
SHARD_COUNTS = (1, 2, 3, 5)
SEEDS = (11, 23, 47)


def _check_property(prop, requested_n, seed):
    """Assert ``prop(instance) is None``, shrinking on failure."""
    instance = make_instance(_tree_family, requested_n, seed)
    failure = prop(instance)
    if failure is None:
        return
    shrunk = shrink_instance(
        instance, lambda inst: prop(inst) is not None, _tree_family, MIN_N
    )
    pytest.fail(
        f"{prop(shrunk) or failure} (instance {shrunk.describe()})"
    )


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("n_shards", SHARD_COUNTS)
@pytest.mark.parametrize("mode", PARTITION_MODES)
def test_every_vertex_in_exactly_one_shard(seed, n_shards, mode):
    def prop(instance):
        part = partition_graph(
            instance.graph, n_shards, mode=mode, seed=seed
        )
        seen = [v for block in part.shards for v in block]
        if sorted(seen) != list(range(instance.n)):
            return (
                f"shard blocks are not a partition of the vertex set: "
                f"{part.shards!r}"
            )
        for s, block in enumerate(part.shards):
            if list(block) != sorted(block):
                return f"shard {s} block not ascending: {block!r}"
            for v in block:
                if part.owner[v] != s:
                    return (
                        f"owner[{v}] == {part.owner[v]} but vertex "
                        f"sits in shard {s}"
                    )
        return None

    _check_property(prop, 40, seed)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("n_shards", SHARD_COUNTS)
@pytest.mark.parametrize("mode", PARTITION_MODES)
def test_boundary_edges_symmetric_across_shard_pairs(seed, n_shards, mode):
    def prop(instance):
        part = partition_graph(
            instance.graph, n_shards, mode=mode, seed=seed
        )
        for a in range(n_shards):
            for b in range(a + 1, n_shards):
                ab = boundary_edges(instance.graph, part, a, b)
                ba = boundary_edges(instance.graph, part, b, a)
                if ab != ba:
                    return (
                        f"boundary({a},{b}) != boundary({b},{a}): "
                        f"{sorted(ab)} vs {sorted(ba)}"
                    )
        return None

    _check_property(prop, 40, seed)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("mode", PARTITION_MODES)
def test_partition_is_a_pure_function(seed, mode):
    def prop(instance):
        first = partition_graph(instance.graph, 3, mode=mode, seed=seed)
        second = partition_graph(instance.graph, 3, mode=mode, seed=seed)
        if first != second:
            return "repeated partition_graph calls disagree"
        return None

    _check_property(prop, 40, seed)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("n_shards", SHARD_COUNTS)
@pytest.mark.parametrize("mode", PARTITION_MODES)
def test_consumers_are_exactly_the_foreign_neighbor_shards(
    seed, n_shards, mode
):
    def prop(instance):
        graph = instance.graph
        part = partition_graph(graph, n_shards, mode=mode, seed=seed)
        for v in range(instance.n):
            foreign = sorted(
                {part.owner[u] for u in graph.neighbors(v)}
                - {part.owner[v]}
            )
            recorded = list(part.consumers.get(v, ()))
            if recorded != foreign:
                return (
                    f"consumers[{v}] == {recorded} but foreign "
                    f"neighbor shards are {foreign}"
                )
        return None

    _check_property(prop, 40, seed)


@pytest.mark.parametrize("mode", PARTITION_MODES)
def test_empty_and_singleton_shards_are_tolerated(mode):
    instance = make_instance(_tree_family, 5, 7)
    part = partition_graph(
        instance.graph, instance.n * 3, mode=mode, seed=7
    )
    assert sum(len(block) for block in part.shards) == instance.n
    assert any(not block for block in part.shards)
    sizes = {len(block) for block in part.shards}
    assert sizes <= {0, 1} or mode == RANDOM


def test_partition_rejects_bad_arguments():
    instance = make_instance(_tree_family, 10, 1)
    with pytest.raises(ReproError, match="positive"):
        partition_graph(instance.graph, 0)
    with pytest.raises(ReproError, match="unknown partition mode"):
        partition_graph(instance.graph, 2, mode="striped")


def test_boundary_edges_of_a_shard_with_itself_is_empty():
    instance = make_instance(_tree_family, 20, 3)
    part = partition_graph(instance.graph, 2)
    assert boundary_edges(instance.graph, part, 0, 0) == frozenset()
    assert boundary_edges(instance.graph, part, 1, 1) == frozenset()
