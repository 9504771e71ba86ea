"""Deterministic vertex partitioning (left from the removed sharded backend).

A :class:`Partition` assigns every vertex of a port-numbered graph to
exactly one of ``n_shards`` shards and precomputes the boundary
structure: for each vertex whose neighborhood crosses a shard boundary,
the set of *foreign* shards holding one of its neighbors (its ghost
consumers).

Both placement modes are pure functions of ``(graph, n_shards, seed)``:

- ``"contiguous"`` — shard ``s`` owns the index block
  ``[floor(s*n/N), floor((s+1)*n/N))``.  Matches the CSR layout, so
  boundary edges are exactly the block-crossing edges.
- ``"random"`` — shard membership is hash-derived per vertex with the
  same splitmix64 mix the fault adversary uses
  (:func:`repro.faults.runtime.mix64`), never a sequential RNG draw.
  Placement therefore cannot depend on construction order, and two
  processes computing the partition independently agree bit-for-bit.

Empty shards are legal (``n_shards > n`` simply leaves the tail shards
with no vertices) and so are singleton shards.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Tuple

from ...core.errors import ReproError
from ...faults.runtime import mix64
from ...graphs.graph import Graph

#: Placement modes accepted by :func:`partition_graph`.
CONTIGUOUS = "contiguous"
RANDOM = "random"
PARTITION_MODES = (CONTIGUOUS, RANDOM)

#: Domain tag separating the placement hash from the fault-decision
#: streams (which use small stream ids on the same mixer).
_STREAM_PLACEMENT = 0x5A4D


@dataclass(frozen=True)
class Partition:
    """An immutable shard assignment plus its boundary structure."""

    #: Number of shards (some possibly empty).
    n_shards: int
    #: Placement mode (``"contiguous"`` or ``"random"``).
    mode: str
    #: Placement seed (only the random mode consults it).
    seed: int
    #: ``owner[v]`` -> shard id owning vertex ``v``.
    owner: Tuple[int, ...]
    #: ``shards[s]`` -> ascending vertex ids owned by shard ``s``.
    shards: Tuple[Tuple[int, ...], ...]
    #: Ghost-consumer map: boundary vertex -> sorted foreign shards
    #: containing at least one of its neighbors.  Vertices whose whole
    #: neighborhood is shard-local do not appear.
    consumers: Dict[int, Tuple[int, ...]]

    @property
    def boundary_vertices(self) -> Tuple[int, ...]:
        """Vertices with at least one cross-shard neighbor, ascending."""
        return tuple(sorted(self.consumers))


def partition_graph(
    graph: Graph,
    n_shards: int,
    *,
    mode: str = CONTIGUOUS,
    seed: int = 0,
) -> Partition:
    """Partition ``graph`` into ``n_shards`` shards deterministically.

    A pure function: no RNG state is consumed, so repeated calls with
    the same arguments — in any process, in any order — return equal
    partitions (the property tests in ``tests/test_sharded.py`` pin
    this).
    """
    if n_shards < 1:
        raise ReproError(
            f"shard count must be a positive integer, got {n_shards}"
        )
    if mode not in PARTITION_MODES:
        raise ReproError(
            f"unknown partition mode {mode!r}; "
            f"expected one of {', '.join(PARTITION_MODES)}"
        )
    n = graph.num_vertices
    if mode == CONTIGUOUS:
        owner = tuple(v * n_shards // n for v in range(n)) if n else ()
    else:
        owner = tuple(
            mix64(seed, _STREAM_PLACEMENT, v) % n_shards for v in range(n)
        )
    shard_lists: List[List[int]] = [[] for _ in range(n_shards)]
    for v in range(n):
        shard_lists[owner[v]].append(v)
    consumers: Dict[int, Tuple[int, ...]] = {}
    for v in range(n):
        home = owner[v]
        foreign = {owner[u] for u in graph.neighbors(v)}
        foreign.discard(home)
        if foreign:
            consumers[v] = tuple(sorted(foreign))
    return Partition(
        n_shards=n_shards,
        mode=mode,
        seed=seed,
        owner=owner,
        shards=tuple(tuple(block) for block in shard_lists),
        consumers=consumers,
    )


def boundary_edges(
    graph: Graph, part: Partition, shard_a: int, shard_b: int
) -> FrozenSet[Tuple[int, int]]:
    """Edges with one endpoint owned by ``shard_a`` and the other by
    ``shard_b``, as canonical ``(min, max)`` pairs.

    Computed by scanning ``shard_a``'s vertices only, so
    ``boundary_edges(g, p, a, b) == boundary_edges(g, p, b, a)`` is a
    real symmetry property (two independent scans), not a tautology —
    exactly what the partitioner test suite asserts across all shard
    pairs.
    """
    if shard_a == shard_b:
        return frozenset()
    edges = set()
    for v in part.shards[shard_a]:
        for u in graph.neighbors(v):
            if part.owner[u] == shard_b:
                edges.add((min(u, v), max(u, v)))
    return frozenset(edges)
