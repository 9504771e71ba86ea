"""Port-numbered graph structure used by the LOCAL simulation engine.

The LOCAL model's communication network is an undirected graph in which
every vertex numbers its incident edges with *ports* ``0 .. deg(v)-1``.
A vertex addresses its neighbors only through port numbers; it does not
a priori know the identity of the vertex on the other end of a port.

For vertex ``v`` and port ``p`` we record both the neighbor
``u = endpoint(v, p)`` and the *reverse port* ``q = reverse_port(v, p)``
such that ``endpoint(u, q) == v``.  Reverse ports let the engine route a
message sent by ``v`` on port ``p`` into the correct inbox slot of ``u``,
exactly as a physical bidirectional link would.

**Storage.**  :class:`Graph` keeps its port-numbered adjacency as one
flat CSR (compressed sparse row) structure, built once at construction:

- ``offsets`` (length ``n + 1``): vertex ``v``'s half-edges occupy the
  *slots* ``offsets[v] .. offsets[v + 1] - 1``, slot ``offsets[v] + p``
  being port ``p``;
- ``targets[slot]``: the neighbor at the other end of that port;
- ``rports[slot]``: its reverse port.

Edges are kept as two endpoint columns (``u < v`` per edge, insertion
order).  Ports follow the edge order: an edge takes the next free port
at each of its endpoints.  :meth:`Graph.csr` hands the three lists out
without a copy; the fast engine's inbox gather, ``flat_adjacency``, the
tree-coloring port helpers and, through a read-only int64 numpy view
cached per graph (:meth:`Graph.array_view`), the vectorized backend and
``MetricsObserver`` all read this one structure.  The lists are shared,
so callers must never mutate them.

Three constructors build a graph: the checked ``Graph(n, edges)``, the
validator of outside input (and the oracle the others are tested
against); :meth:`Graph.from_parents` for parent-array trees, validated
in O(n); and a trusted internal path for subgraphs and graph powers of
an already validated graph.

Graphs are immutable after construction.  All vertices are integers
``0 .. n-1``; these indices are *simulation handles* and are never exposed
to DetLOCAL/RandLOCAL algorithms as identifiers (IDs are assigned
separately, see :mod:`repro.core.ids`).
"""

from __future__ import annotations

from itertools import accumulate, compress
from operator import and_, sub
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

Edge = Tuple[int, int]


class GraphError(ValueError):
    """Raised when a graph is constructed from invalid input."""


class Graph:
    """An immutable undirected port-numbered graph.

    Parameters
    ----------
    n:
        Number of vertices.  Vertices are ``0 .. n-1``.
    edges:
        Iterable of ``(u, v)`` pairs.  Self loops and parallel edges are
        rejected: the LOCAL-model problems in this project are defined on
        simple graphs.

    Examples
    --------
    >>> g = Graph(3, [(0, 1), (1, 2)])
    >>> g.degree(1)
    2
    >>> sorted(g.neighbors(1))
    [0, 2]
    """

    __slots__ = (
        "_n",
        "_offsets",
        "_targets",
        "_rports",
        "_eu",
        "_ev",
        "_max_degree",
        "_array_view",
    )

    def __init__(self, n: int, edges: Iterable[Edge]):
        if n < 0:
            raise GraphError(f"vertex count must be non-negative, got {n}")
        eu: List[int] = []
        ev: List[int] = []
        seen = set()
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"edge ({u}, {v}) out of range for n={n}")
            if u == v:
                raise GraphError(f"self loop at vertex {u} is not allowed")
            key = (u, v) if u < v else (v, u)
            if key in seen:
                raise GraphError(f"parallel edge ({u}, {v}) is not allowed")
            seen.add(key)
            eu.append(key[0])
            ev.append(key[1])
        self._assign(n, *_csr_from_edges(n, eu, ev), eu, ev)

    @classmethod
    def from_parents(cls, parents: Sequence[int]) -> "Graph":
        """The tree on ``len(parents) + 1`` vertices with edges
        ``(parents[i], i + 1)``, in that order.

        Equal in every query — adjacency, port numbers, edge order — to
        ``Graph(n, zip(parents, range(1, n)))``, without the per-edge
        set check: ``0 <= parents[i] < i + 1`` (checked here in O(n))
        already rules out self loops and parallel edges, and makes the
        result a tree rooted at 0.  Vertex ``c >= 1`` reaches its parent
        on port 0 and its children, in increasing order, on the ports
        after it.

        Raises
        ------
        GraphError
            If some ``parents[i]`` is negative or not below ``i + 1``.
        """
        n = len(parents) + 1
        degree = [1] * n
        degree[0] = 0
        for i, p in enumerate(parents):
            if not 0 <= p <= i:
                raise GraphError(
                    f"parent {p} of vertex {i + 1} is not an earlier vertex"
                )
            degree[p] += 1
        # The CSR _csr_from_edges would compute for these edges, filled
        # directly: port 0 of every child is its parent, and children
        # take their parent's later ports in order.  A 10^6-vertex
        # shatter run peaked 20 MiB lower this way than through
        # _csr_from_edges.
        offsets = [0, *accumulate(degree)]
        targets = [0] * offsets[n]
        rports = [0] * offsets[n]
        cursor = [s + 1 for s in offsets[:n]]
        cursor[0] = 0
        for c, p in enumerate(parents, 1):
            s = cursor[p]
            cursor[p] = s + 1
            targets[s] = c
            t = offsets[c]
            targets[t] = p
            rports[t] = s - offsets[p]
        graph = cls.__new__(cls)
        graph._assign(n, offsets, targets, rports, list(parents), range(1, n))
        return graph

    @classmethod
    def _trusted(
        cls, n: int, eu: Sequence[int], ev: Sequence[int]
    ) -> "Graph":
        """A graph from edge columns already known to be simple, in range
        and oriented ``u < v``."""
        graph = cls.__new__(cls)
        graph._assign(n, *_csr_from_edges(n, eu, ev), eu, ev)
        return graph

    def _assign(
        self,
        n: int,
        offsets: List[int],
        targets: List[int],
        rports: List[int],
        eu: Sequence[int],
        ev: Sequence[int],
    ) -> None:
        self._n = n
        self._offsets = offsets
        self._targets = targets
        self._rports = rports
        self._eu = eu
        self._ev = ev
        self._max_degree: Optional[int] = None
        self._array_view: Any = None

    def __getstate__(self) -> Tuple[Any, ...]:
        # The array view is a cache, rebuilt read-only on demand.
        return (self._n, *self.csr(), self._eu, self._ev)

    def __setstate__(self, state: Tuple[Any, ...]) -> None:
        self._assign(*state)

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        """Number of vertices ``n``."""
        return self._n

    @property
    def num_edges(self) -> int:
        """Number of edges ``m``."""
        return len(self._eu)

    def vertices(self) -> range:
        """All vertices, as a range."""
        return range(self._n)

    def edges(self) -> Iterator[Edge]:
        """All edges as ``(u, v)`` with ``u < v``, in insertion order."""
        return zip(self._eu, self._ev)

    def degree(self, v: int) -> int:
        """Degree of vertex ``v``."""
        return self._offsets[v + 1] - self._offsets[v]

    @property
    def max_degree(self) -> int:
        """Maximum degree Δ of the graph (0 for the empty graph).

        Computed on first access and kept: the graph is immutable."""
        if self._max_degree is None:
            offsets = self._offsets
            self._max_degree = max(
                map(sub, offsets[1:], offsets[:-1]), default=0
            )
        return self._max_degree

    def csr(self) -> Tuple[List[int], List[int], List[int]]:
        """The graph's own ``(offsets, targets, rports)`` lists (see the
        module docstring).  Shared, not copied: never mutate them."""
        return self._offsets, self._targets, self._rports

    def array_view(self, build: Callable[["Graph"], Any]) -> Any:
        """``build(self)``, computed on first call and kept.

        An opaque per-graph cache for an array form of :meth:`csr` (the
        vectorized backend keeps its read-only numpy arrays here), so
        this module never imports an array library.  The first caller's
        ``build`` wins; every caller must pass the same one.
        """
        if self._array_view is None:
            self._array_view = build(self)
        return self._array_view

    def neighbors(self, v: int) -> Sequence[int]:
        """Neighbors of ``v`` in port order.  Do not mutate the result."""
        offsets = self._offsets
        return self._targets[offsets[v] : offsets[v + 1]]

    def endpoint(self, v: int, port: int) -> int:
        """The vertex at the other end of ``v``'s port ``port``."""
        start = self._offsets[v]
        if 0 <= port < self._offsets[v + 1] - start:
            return self._targets[start + port]
        return self.neighbors(v)[port]  # a list's IndexError / wrap-around

    def reverse_port(self, v: int, port: int) -> int:
        """The port of ``endpoint(v, port)`` that leads back to ``v``."""
        start = self._offsets[v]
        if 0 <= port < self._offsets[v + 1] - start:
            return self._rports[start + port]
        return self.reverse_ports(v)[port]

    def reverse_ports(self, v: int) -> List[int]:
        """All reverse ports of ``v`` at once: element ``p`` is the port
        of ``endpoint(v, p)`` that leads back to ``v``.  Returns a fresh
        list (callers may keep or mutate it)."""
        offsets = self._offsets
        return self._rports[offsets[v] : offsets[v + 1]]

    def port_of(self, v: int, u: int) -> int:
        """The port of ``v`` whose endpoint is ``u``.

        Raises
        ------
        GraphError
            If ``u`` is not a neighbor of ``v``.
        """
        try:
            return self.neighbors(v).index(u)
        except ValueError:
            raise GraphError(f"{u} is not a neighbor of {v}") from None

    def has_edge(self, u: int, v: int) -> bool:
        """Whether ``{u, v}`` is an edge."""
        return v in self.neighbors(u)

    def _adjacency(self) -> List[List[int]]:
        """Every vertex's neighbor list, sliced once — for traversals
        that run a BFS per root and would otherwise slice per visit."""
        offsets = self._offsets
        targets = self._targets
        return [
            targets[offsets[v] : offsets[v + 1]] for v in range(self._n)
        ]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return (
            self._n == other._n
            and self._offsets == other._offsets
            and self._targets == other._targets
        )

    def __hash__(self) -> int:
        return hash((self._n, tuple(map(tuple, self._adjacency()))))

    def __repr__(self) -> str:
        return f"Graph(n={self._n}, m={self.num_edges})"

    # ------------------------------------------------------------------
    # Structure queries
    # ------------------------------------------------------------------
    def is_regular(self, d: Optional[int] = None) -> bool:
        """Whether every vertex has the same degree (``d`` if given)."""
        if self._n == 0:
            return True
        offsets = self._offsets
        degrees = set(map(sub, offsets[1:], offsets[:-1]))
        if len(degrees) != 1:
            return False
        if d is None:
            return True
        return degrees == {d}

    def connected_components(self) -> List[List[int]]:
        """Connected components, each a sorted vertex list."""
        # Every vertex is visited once, so slicing per visit costs what
        # an adjacency view would, without holding n lists alive.
        offsets = self._offsets
        targets = self._targets
        seen = [False] * self._n
        components: List[List[int]] = []
        for start in range(self._n):
            if seen[start]:
                continue
            stack = [start]
            seen[start] = True
            comp = []
            while stack:
                v = stack.pop()
                comp.append(v)
                for u in targets[offsets[v] : offsets[v + 1]]:
                    if not seen[u]:
                        seen[u] = True
                        stack.append(u)
            comp.sort()
            components.append(comp)
        return components

    def is_connected(self) -> bool:
        """Whether the graph is connected (the empty graph is connected)."""
        return len(self.connected_components()) <= 1

    def is_forest(self) -> bool:
        """Whether the graph is acyclic."""
        return self.num_edges == self._n - len(self.connected_components())

    def is_tree(self) -> bool:
        """Whether the graph is connected and acyclic."""
        return self.is_forest() and self.is_connected()

    def bfs_distances(self, source: int, cutoff: Optional[int] = None) -> Dict[int, int]:
        """Map of vertex -> distance from ``source``, up to ``cutoff``."""
        offsets = self._offsets
        targets = self._targets
        dist = {source: 0}
        frontier = [source]
        d = 0
        while frontier and (cutoff is None or d < cutoff):
            d += 1
            nxt = []
            for v in frontier:
                for u in targets[offsets[v] : offsets[v + 1]]:
                    if u not in dist:
                        dist[u] = d
                        nxt.append(u)
            frontier = nxt
        return dist

    def ball(self, center: int, radius: int) -> List[int]:
        """Sorted vertices within distance ``radius`` of ``center``."""
        if radius == 1:
            # What the BFS returns on a simple graph, without the BFS.
            out = self.neighbors(center)
            out.append(center)
            out.sort()
            return out
        return sorted(self.bfs_distances(center, cutoff=radius))

    def girth(self) -> Optional[int]:
        """Length of the shortest cycle, or ``None`` if acyclic.

        Runs one truncated BFS per vertex; exact for simple graphs.
        """
        cycle = self.shortest_cycle()
        return len(cycle) if cycle is not None else None

    def shortest_cycle(
        self, shorter_than: Optional[int] = None
    ) -> Optional[List[int]]:
        """A shortest cycle as a vertex list, or ``None`` if acyclic.

        One truncated BFS per root; when a non-tree edge closes a cycle,
        the witness is reconstructed through the BFS-tree paths (trimmed
        at their meeting point, so the reported length is exact).

        With ``shorter_than`` set, only cycles of length strictly below
        it are searched for (``None`` returned otherwise) — the BFS depth
        is then bounded, which is much faster on high-girth graphs.
        """
        adj = self._adjacency()
        best: Optional[List[int]] = None
        for root in range(self._n):
            dist = {root: 0}
            parent = {root: -1}
            frontier = [root]
            while frontier:
                bound = shorter_than
                if best is not None and (bound is None or len(best) < bound):
                    bound = len(best)
                if bound is not None and 2 * dist[frontier[0]] >= bound:
                    break
                nxt = []
                for v in frontier:
                    for u in adj[v]:
                        if u not in dist:
                            dist[u] = dist[v] + 1
                            parent[u] = v
                            nxt.append(u)
                        elif parent[v] != u and dist[u] >= dist[v]:
                            cycle = _close_cycle(parent, v, u)
                            if (
                                cycle is not None
                                and (best is None or len(cycle) < len(best))
                                and (
                                    shorter_than is None
                                    or len(cycle) < shorter_than
                                )
                            ):
                                best = cycle
                frontier = nxt
        return best

    def short_cycles(self, shorter_than: int) -> List[List[int]]:
        """A greedy batch of vertex-disjoint cycles, each of length
        strictly below ``shorter_than``.

        Used by girth repair: fixing a whole batch between rescans is
        much cheaper than one full scan per cycle.  The batch is not
        guaranteed maximal or shortest-first.
        """
        adj = self._adjacency()
        blocked = [False] * self._n
        found: List[List[int]] = []
        for root in range(self._n):
            if blocked[root]:
                continue
            dist = {root: 0}
            parent = {root: -1}
            frontier = [root]
            witness: Optional[List[int]] = None
            while frontier and witness is None:
                if 2 * dist[frontier[0]] >= shorter_than:
                    break
                nxt = []
                for v in frontier:
                    if blocked[v]:
                        continue
                    for u in adj[v]:
                        if blocked[u]:
                            continue
                        if u not in dist:
                            dist[u] = dist[v] + 1
                            parent[u] = v
                            nxt.append(u)
                        elif parent[v] != u and dist[u] >= dist[v]:
                            cycle = _close_cycle(parent, v, u)
                            if cycle is not None and len(cycle) < shorter_than:
                                witness = cycle
                                break
                    if witness is not None:
                        break
                frontier = nxt
            if witness is not None:
                for x in witness:
                    blocked[x] = True
                found.append(witness)
        return found

    def diameter(self) -> int:
        """Diameter of a connected graph.

        Raises
        ------
        GraphError
            If the graph is empty or disconnected.
        """
        if self._n == 0:
            raise GraphError("diameter of the empty graph is undefined")
        if not self.is_connected():
            raise GraphError("diameter of a disconnected graph is undefined")
        adj = self._adjacency()
        best = 0
        for v in range(self._n):
            best = max(best, max(_bfs(adj, v, None).values()))
        return best

    # ------------------------------------------------------------------
    # Derived graphs
    # ------------------------------------------------------------------
    def induced_subgraph(self, keep: Iterable[int]) -> Tuple["Graph", List[int]]:
        """The subgraph induced by ``keep``.

        Equal to ``Graph`` over this graph's edges between kept vertices,
        renumbered and in their original order, without re-validating
        them: a subgraph of a simple graph is simple.

        Returns
        -------
        (subgraph, originals):
            ``originals[i]`` is the original index of subgraph vertex ``i``.
        """
        originals = sorted(set(keep))
        index = {v: i for i, v in enumerate(originals)}
        n = self._n
        mask = bytearray(n)
        for v in originals:
            if 0 <= v < n:
                mask[v] = 1
        eu = self._eu
        ev = self._ev
        kept = list(
            compress(
                zip(eu, ev),
                map(and_, map(mask.__getitem__, eu), map(mask.__getitem__, ev)),
            )
        )
        sub_u = [index[u] for u, _ in kept]
        sub_v = [index[v] for _, v in kept]
        return Graph._trusted(len(originals), sub_u, sub_v), originals

    def power_graph(self, k: int) -> "Graph":
        """The graph ``G^k``: same vertices, edges between distinct
        vertices at distance at most ``k`` in ``G``."""
        if k < 1:
            raise GraphError(f"power must be >= 1, got {k}")
        return self._distance_graph(k, lambda d: d >= 1)

    def distance_k_graph(self, k: int) -> "Graph":
        """The graph with edges between vertices at distance *exactly* k."""
        if k < 1:
            raise GraphError(f"distance must be >= 1, got {k}")
        return self._distance_graph(k, lambda d: d == k)

    def _distance_graph(self, k: int, keep: Callable[[int], bool]) -> "Graph":
        adj = self._adjacency()
        eu: List[int] = []
        ev: List[int] = []
        for v in range(self._n):
            for u, d in _bfs(adj, v, k).items():
                if u > v and keep(d):
                    eu.append(v)
                    ev.append(u)
        return Graph._trusted(self._n, eu, ev)


def _csr_from_edges(
    n: int, eu: Sequence[int], ev: Sequence[int]
) -> Tuple[List[int], List[int], List[int]]:
    """``(offsets, targets, rports)`` for edges ``zip(eu, ev)`` on ``n``
    vertices: each edge takes the next free port at both endpoints."""
    degree = [0] * n
    for u in eu:
        degree[u] += 1
    for v in ev:
        degree[v] += 1
    offsets = [0, *accumulate(degree)]
    targets = [0] * offsets[-1]
    rports = [0] * offsets[-1]
    cursor = offsets[:-1]
    for u, v in zip(eu, ev):
        su = cursor[u]
        sv = cursor[v]
        cursor[u] = su + 1
        cursor[v] = sv + 1
        targets[su] = v
        targets[sv] = u
        rports[su] = sv - offsets[v]
        rports[sv] = su - offsets[u]
    return offsets, targets, rports


def _bfs(
    adj: List[List[int]], source: int, cutoff: Optional[int]
) -> Dict[int, int]:
    """:meth:`Graph.bfs_distances` over a prebuilt adjacency view."""
    dist = {source: 0}
    frontier = [source]
    d = 0
    while frontier and (cutoff is None or d < cutoff):
        d += 1
        nxt = []
        for v in frontier:
            for u in adj[v]:
                if u not in dist:
                    dist[u] = d
                    nxt.append(u)
        frontier = nxt
    return dist


def _close_cycle(
    parent: Dict[int, int], v: int, u: int
) -> Optional[List[int]]:
    """The simple cycle formed by BFS-tree paths of ``v`` and ``u`` plus
    the non-tree edge ``{v, u}``, trimmed at the paths' meeting point."""

    def path_to_root(x: int) -> List[int]:
        out = [x]
        while parent[x] != -1:
            x = parent[x]
            out.append(x)
        return out

    pv = path_to_root(v)
    pu = path_to_root(u)
    in_pv = {x: i for i, x in enumerate(pv)}
    # First vertex of u's path that also lies on v's path is the meeting
    # point (LCA in the BFS tree).
    for j, x in enumerate(pu):
        if x in in_pv:
            i = in_pv[x]
            cycle = pv[: i + 1] + pu[:j][::-1]
            return cycle if len(cycle) >= 3 else None
    return None


def from_edge_list(edges: Iterable[Edge], n: Optional[int] = None) -> Graph:
    """Build a :class:`Graph` from an edge list, inferring ``n`` if absent."""
    edge_list = list(edges)
    if n is None:
        n = 1 + max((max(u, v) for u, v in edge_list), default=-1)
    return Graph(n, edge_list)
