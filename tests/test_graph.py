"""Tests for the port-numbered graph structure."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs import Graph, GraphError, from_edge_list
from repro.graphs.generators import (
    complete_graph,
    cycle_graph,
    hypercube_graph,
    path_graph,
    star_graph,
)


class TestConstruction:
    def test_empty(self):
        g = Graph(0, [])
        assert g.num_vertices == 0
        assert g.num_edges == 0
        assert g.max_degree == 0

    def test_single_edge(self):
        g = Graph(2, [(0, 1)])
        assert g.degree(0) == 1
        assert g.endpoint(0, 0) == 1
        assert g.endpoint(1, 0) == 0

    def test_rejects_self_loop(self):
        with pytest.raises(GraphError):
            Graph(2, [(1, 1)])

    def test_rejects_parallel_edges(self):
        with pytest.raises(GraphError):
            Graph(2, [(0, 1), (1, 0)])

    def test_rejects_out_of_range(self):
        with pytest.raises(GraphError):
            Graph(2, [(0, 2)])

    def test_rejects_negative_n(self):
        with pytest.raises(GraphError):
            Graph(-1, [])

    def test_from_edge_list_infers_n(self):
        g = from_edge_list([(0, 3), (1, 2)])
        assert g.num_vertices == 4

    def test_equality_and_hash(self):
        a = Graph(3, [(0, 1), (1, 2)])
        b = Graph(3, [(0, 1), (1, 2)])
        c = Graph(3, [(0, 1), (0, 2)])
        assert a == b
        assert hash(a) == hash(b)
        assert a != c


class TestPorts:
    def test_reverse_port_round_trip(self):
        g = cycle_graph(7)
        for v in g.vertices():
            for p in range(g.degree(v)):
                u = g.endpoint(v, p)
                q = g.reverse_port(v, p)
                assert g.endpoint(u, q) == v
                assert g.reverse_port(u, q) == p

    def test_port_of(self):
        g = star_graph(4)
        for leaf in range(1, 5):
            p = g.port_of(0, leaf)
            assert g.endpoint(0, p) == leaf

    def test_port_of_non_neighbor_raises(self):
        g = path_graph(4)
        with pytest.raises(GraphError):
            g.port_of(0, 3)

    def test_neighbors_in_port_order(self):
        g = Graph(4, [(0, 2), (0, 1), (0, 3)])
        assert list(g.neighbors(0)) == [2, 1, 3]


class TestStructure:
    def test_degree_and_max_degree(self):
        g = star_graph(6)
        assert g.degree(0) == 6
        assert g.max_degree == 6

    def test_is_regular(self):
        assert cycle_graph(5).is_regular(2)
        assert not star_graph(3).is_regular()
        assert complete_graph(4).is_regular(3)

    def test_connected_components(self):
        g = Graph(5, [(0, 1), (2, 3)])
        comps = g.connected_components()
        assert sorted(map(tuple, comps)) == [(0, 1), (2, 3), (4,)]

    def test_tree_and_forest_predicates(self):
        assert path_graph(5).is_tree()
        assert not cycle_graph(5).is_tree()
        assert Graph(4, [(0, 1), (2, 3)]).is_forest()
        assert not Graph(4, [(0, 1), (2, 3)]).is_tree()

    def test_has_edge(self):
        g = path_graph(3)
        assert g.has_edge(0, 1)
        assert not g.has_edge(0, 2)

    def test_bfs_distances(self):
        g = path_graph(6)
        dist = g.bfs_distances(0)
        assert dist == {i: i for i in range(6)}

    def test_bfs_cutoff(self):
        g = path_graph(10)
        dist = g.bfs_distances(0, cutoff=3)
        assert max(dist.values()) == 3
        assert len(dist) == 4

    def test_ball(self):
        g = cycle_graph(10)
        assert g.ball(0, 2) == [0, 1, 2, 8, 9]

    def test_diameter(self):
        assert path_graph(7).diameter() == 6
        assert cycle_graph(8).diameter() == 4
        assert hypercube_graph(4).diameter() == 4

    def test_diameter_disconnected_raises(self):
        with pytest.raises(GraphError):
            Graph(3, [(0, 1)]).diameter()


class TestGirthAndCycles:
    def test_acyclic_girth_none(self):
        assert path_graph(10).girth() is None
        assert path_graph(10).shortest_cycle() is None

    def test_cycle_girth(self):
        for n in (3, 5, 12):
            assert cycle_graph(n).girth() == n

    def test_complete_graph_girth(self):
        assert complete_graph(5).girth() == 3

    def test_hypercube_girth(self):
        assert hypercube_graph(3).girth() == 4

    def test_shortest_cycle_is_cycle(self):
        g = hypercube_graph(3)
        cycle = g.shortest_cycle()
        assert len(cycle) == 4
        assert len(set(cycle)) == 4
        for i, v in enumerate(cycle):
            assert g.has_edge(v, cycle[(i + 1) % len(cycle)])

    def test_shorter_than_filter(self):
        g = cycle_graph(9)
        assert g.shortest_cycle(shorter_than=9) is None
        assert g.shortest_cycle(shorter_than=10) is not None

    def test_mixed_cycles(self):
        # A triangle and a pentagon sharing no vertices.
        edges = [(0, 1), (1, 2), (2, 0)]
        edges += [(3, 4), (4, 5), (5, 6), (6, 7), (7, 3)]
        g = Graph(8, edges)
        assert g.girth() == 3

    def test_short_cycles_batch_disjoint(self):
        edges = [(0, 1), (1, 2), (2, 0)]
        edges += [(3, 4), (4, 5), (5, 3)]
        g = Graph(6, edges)
        batch = g.short_cycles(4)
        assert len(batch) == 2
        used = [v for cycle in batch for v in cycle]
        assert len(used) == len(set(used))


class TestDerivedGraphs:
    def test_induced_subgraph(self):
        g = cycle_graph(6)
        sub, originals = g.induced_subgraph([0, 1, 2, 4])
        assert originals == [0, 1, 2, 4]
        assert sub.num_edges == 2  # (0,1), (1,2); 4 is isolated
        assert sub.num_vertices == 4

    def test_power_graph(self):
        g = path_graph(5)
        g2 = g.power_graph(2)
        assert g2.has_edge(0, 2)
        assert not g2.has_edge(0, 3)
        assert g2.num_edges == 4 + 3

    def test_power_graph_invalid(self):
        with pytest.raises(GraphError):
            path_graph(3).power_graph(0)

    def test_distance_k_graph(self):
        g = path_graph(5)
        gk = g.distance_k_graph(2)
        assert gk.has_edge(0, 2)
        assert not gk.has_edge(0, 1)


@settings(max_examples=40, deadline=None)
@given(st.integers(3, 30))
def test_cycle_graph_properties(n):
    g = cycle_graph(n)
    assert g.num_edges == n
    assert g.is_regular(2)
    assert g.is_connected()
    assert g.girth() == n


@settings(max_examples=30, deadline=None)
@given(
    st.sets(
        st.tuples(st.integers(0, 14), st.integers(0, 14)).filter(
            lambda e: e[0] != e[1]
        ),
        max_size=30,
    )
)
def test_handshake_lemma(edge_set):
    edges = {(min(u, v), max(u, v)) for u, v in edge_set}
    g = Graph(15, sorted(edges))
    assert sum(g.degree(v) for v in g.vertices()) == 2 * g.num_edges


@settings(max_examples=30, deadline=None)
@given(
    st.sets(
        st.tuples(st.integers(0, 11), st.integers(0, 11)).filter(
            lambda e: e[0] != e[1]
        ),
        max_size=25,
    )
)
def test_components_partition_vertices(edge_set):
    edges = {(min(u, v), max(u, v)) for u, v in edge_set}
    g = Graph(12, sorted(edges))
    comps = g.connected_components()
    seen = [v for comp in comps for v in comp]
    assert sorted(seen) == list(range(12))


@settings(max_examples=40, deadline=None)
@given(
    st.sets(
        st.tuples(st.integers(0, 11), st.integers(0, 11)).filter(
            lambda e: e[0] != e[1]
        ),
        max_size=25,
    )
)
def test_radius_one_ball_equals_bfs(edge_set):
    """The radius-1 shortcut returns exactly the BFS ball, isolated
    vertices (no edges at all, or vertices the edge set misses)
    included."""
    edges = {(min(u, v), max(u, v)) for u, v in edge_set}
    g = Graph(12, sorted(edges))
    for v in g.vertices():
        assert g.ball(v, 1) == sorted(g.bfs_distances(v, 1))


def test_max_degree_is_cached_and_exact():
    g = Graph(5, [(0, 1), (0, 2), (0, 3), (3, 4)])
    assert g.max_degree == 3
    assert g.max_degree == max(g.degree(v) for v in g.vertices())
    assert g._max_degree == 3


def _registry_backends():
    from repro.core import available_backend_names

    available = available_backend_names()
    return [b for b in ("fast", "vectorized") if b in available]


@pytest.mark.parametrize("backend", _registry_backends())
def test_registry_drivers_never_mutate_their_graph(backend):
    """Every shipped driver, at its ``--quick`` size, leaves the input
    graph's adjacency, reverse ports and edge list exactly as built —
    the immutability that per-graph caches (``max_degree``) rely on."""
    import copy
    import random

    from repro.algorithms.drivers import driver_registry
    from repro.core import use_backend

    for name, spec in sorted(driver_registry().items()):
        graph = spec.make_graph(spec.quick_n, random.Random(0))
        before = copy.deepcopy((graph._adj, graph._rev, graph._edge_list))
        seed = 1 if spec.accepts_seed else None
        with use_backend(backend):
            spec.run(graph, seed=seed)
        after = (graph._adj, graph._rev, graph._edge_list)
        assert after == before, name
