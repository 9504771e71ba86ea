"""Tree generators.

Trees are the paper's central graph class: the headline separation
(Theorems 5, 10, 11) is about Δ-coloring trees.  The experiments need
trees of controlled maximum degree Δ, both *balanced* (complete Δ-ary,
diameter Θ(log_Δ n)) and *random* (degree-capped random attachment,
Prüfer-uniform).
"""

from __future__ import annotations

import random
from typing import List, Optional, Sequence

from ..graph import Graph, GraphError


def complete_dary_tree(arity: int, depth: int) -> Graph:
    """A complete rooted tree where every internal vertex has ``arity``
    children, of the given ``depth`` (depth 0 is a single vertex).

    The maximum degree of the result is ``arity + 1`` (internal,
    non-root vertices), so a degree-Δ instance uses ``arity = Δ - 1``.
    Vertices are numbered in BFS order with the root at 0.
    """
    if arity < 1:
        raise GraphError(f"arity must be >= 1, got {arity}")
    if depth < 0:
        raise GraphError(f"depth must be >= 0, got {depth}")
    return Graph.from_parents(_level_parents([arity] * depth))


def complete_regular_tree(degree: int, depth: int) -> Graph:
    """The complete Δ-regular tree of the given depth: the root has
    ``degree`` children and every other internal vertex has
    ``degree - 1`` children (so all internal vertices have degree Δ).

    This is the extremal instance of Theorem 5: diameter 2·depth =
    Θ(log_{Δ-1} n), and low-degree peeling strips it exactly one level
    per round — deterministic Δ-coloring on it must pay the full
    Ω(log_Δ n).
    """
    if degree < 2:
        raise GraphError(f"degree must be >= 2, got {degree}")
    if depth < 0:
        raise GraphError(f"depth must be >= 0, got {depth}")
    arities = [degree] + [degree - 1] * (depth - 1) if depth else []
    return Graph.from_parents(_level_parents(arities))


def _level_parents(arities: Sequence[int]) -> List[int]:
    """Parent array of the complete rooted tree, in BFS order, whose
    vertices at depth ``i`` each have ``arities[i]`` children."""
    parents: List[int] = []
    level_start, level_size = 0, 1
    for arity in arities:
        for parent in range(level_start, level_start + level_size):
            parents.extend([parent] * arity)
        level_start += level_size
        level_size *= arity
    return parents


def complete_regular_tree_with_size(degree: int, min_vertices: int) -> Graph:
    """The smallest complete Δ-regular tree with >= ``min_vertices``
    vertices."""
    depth = 0
    while True:
        g = complete_regular_tree(degree, depth)
        if g.num_vertices >= min_vertices:
            return g
        depth += 1


def complete_tree_with_max_degree(max_degree: int, min_vertices: int) -> Graph:
    """The smallest complete (Δ-1)-ary tree with max degree ``max_degree``
    and at least ``min_vertices`` vertices.

    Convenience constructor for experiments sweeping n at fixed Δ.
    """
    if max_degree < 2:
        raise GraphError(f"max degree must be >= 2, got {max_degree}")
    arity = max_degree - 1
    depth = 1
    while True:
        size = _complete_tree_size(arity, depth)
        if size >= min_vertices:
            return complete_dary_tree(arity, depth)
        depth += 1


def _complete_tree_size(arity: int, depth: int) -> int:
    if arity == 1:
        return depth + 1
    return (arity ** (depth + 1) - 1) // (arity - 1)


def random_tree_prufer(n: int, rng: random.Random) -> Graph:
    """A uniformly random labeled tree on ``n`` vertices via a Prüfer
    sequence.  Maximum degree is not controlled (typically Θ(log n /
    log log n))."""
    if n < 1:
        raise GraphError(f"tree needs at least 1 vertex, got {n}")
    if n == 1:
        return Graph(1, [])
    if n == 2:
        return Graph(2, [(0, 1)])
    seq = [rng.randrange(n) for _ in range(n - 2)]
    return tree_from_prufer(seq)


def tree_from_prufer(seq: Sequence[int]) -> Graph:
    """Decode a Prüfer sequence into the tree it encodes.

    A sequence of length ``n - 2`` over ``{0, .., n-1}`` encodes a unique
    labeled tree on ``n`` vertices.
    """
    n = len(seq) + 2
    degree = [1] * n
    for v in seq:
        if not 0 <= v < n:
            raise GraphError(f"Prüfer symbol {v} out of range for n={n}")
        degree[v] += 1
    edges = []
    # Min-leaf elimination without a heap: classic two-pointer scan.
    ptr = 0
    leaf = -1
    for v in seq:
        if leaf < 0:
            while degree[ptr] != 1:
                ptr += 1
            leaf = ptr
        edges.append((leaf, v))
        degree[leaf] -= 1
        degree[v] -= 1
        if degree[v] == 1 and v < ptr:
            leaf = v
        else:
            leaf = -1
    last = [v for v in range(n) if degree[v] == 1]
    edges.append((last[0], last[1]))
    return Graph(n, edges)


def random_tree_bounded_degree(
    n: int, max_degree: int, rng: random.Random
) -> Graph:
    """A random tree on ``n`` vertices with maximum degree ≤ ``max_degree``.

    Built by random attachment: each new vertex picks a uniformly random
    existing vertex that still has residual degree.  This is the workhorse
    instance family for the Δ-coloring experiments: the realized maximum
    degree equals ``max_degree`` for all but tiny ``n``.
    """
    if n < 1:
        raise GraphError(f"tree needs at least 1 vertex, got {n}")
    if max_degree < 2 and n > 2:
        raise GraphError(
            f"cannot build a tree on {n} > 2 vertices with max degree {max_degree}"
        )
    parents: List[int] = []
    residual: List[int] = []  # vertices with spare degree, with multiplicity 1
    degree = [0] * n
    if n >= 2:
        residual.append(0)
    for v in range(1, n):
        idx = rng.randrange(len(residual))
        parent = residual[idx]
        parents.append(parent)
        degree[parent] += 1
        degree[v] += 1
        if degree[parent] >= max_degree:
            residual.pop(idx)
        if degree[v] < max_degree:
            residual.append(v)
    return Graph.from_parents(parents)


def random_tree_preferential(
    n: int, max_degree: int, rng: random.Random, seed_hub: bool = False
) -> Graph:
    """A preferential-attachment random tree with degree cap
    ``max_degree``: each new vertex attaches to an existing vertex with
    probability proportional to its degree (capped vertices excluded).

    Unlike uniform attachment, this reliably *realizes* the cap — the
    generator of choice for experiments pinning Δ (e.g. Δ = 55 for
    Theorem 11) at moderate n.  With ``seed_hub`` the first
    ``max_degree`` vertices attach to vertex 0, *guaranteeing* the
    realized maximum degree equals the cap whenever n > max_degree.
    """
    if n < 1:
        raise GraphError(f"tree needs at least 1 vertex, got {n}")
    if max_degree < 2 and n > 2:
        raise GraphError(
            f"cannot build a tree on {n} > 2 vertices with max degree {max_degree}"
        )
    parents: List[int] = []
    degree = [0] * n
    pool: List[int] = [0]  # vertex tokens, multiplicity = degree (min 1)
    start = 1
    if seed_hub:
        hub_children = min(n - 1, max_degree)
        for v in range(1, hub_children + 1):
            parents.append(0)
            degree[0] += 1
            degree[v] += 1
            pool.append(v)
            if degree[0] < max_degree:
                pool.append(0)
        start = hub_children + 1
    for v in range(start, n):
        parent = -1
        for _ in range(10 * max_degree):
            candidate = pool[rng.randrange(len(pool))]
            if degree[candidate] < max_degree:
                parent = candidate
                break
        if parent < 0:
            # Pool saturated with capped vertices: rebuild it.
            pool = [
                u
                for u in range(v)
                for _ in range(max(1, degree[u]))
                if degree[u] < max_degree
            ]
            if not pool:
                raise GraphError(
                    f"all vertices capped at degree {max_degree} before "
                    f"reaching n={n}"
                )
            parent = pool[rng.randrange(len(pool))]
        parents.append(parent)
        degree[parent] += 1
        degree[v] += 1
        pool.append(parent)
        pool.append(v)
    return Graph.from_parents(parents)


def spider_graph(legs: int, leg_length: int) -> Graph:
    """A spider: ``legs`` paths of ``leg_length`` edges sharing one center.

    Center has degree ``legs``; every other vertex has degree ≤ 2.  Used
    as an adversarial tree (one high-degree hub, long chains).
    """
    if legs < 0 or leg_length < 0:
        raise GraphError("legs and leg_length must be non-negative")
    parents: List[int] = []
    for _ in range(legs):
        prev = 0
        for _ in range(leg_length):
            parents.append(prev)
            prev = len(parents)
    return Graph.from_parents(parents)


def caterpillar_graph(spine: int, legs_per_vertex: int) -> Graph:
    """A caterpillar: a path of ``spine`` vertices, each with
    ``legs_per_vertex`` pendant leaves."""
    if spine < 1:
        raise GraphError(f"spine must have at least 1 vertex, got {spine}")
    parents = list(range(spine - 1))
    for i in range(spine):
        parents.extend([i] * legs_per_vertex)
    return Graph.from_parents(parents)


def random_forest(
    n: int, trees: int, max_degree: Optional[int], rng: random.Random
) -> Graph:
    """A forest on ``n`` vertices with ``trees`` components.

    Component sizes are balanced (within one vertex of each other).  Each
    component is a bounded-degree random tree if ``max_degree`` is given,
    otherwise Prüfer-uniform.
    """
    if trees < 1 or trees > max(n, 1):
        raise GraphError(f"cannot split {n} vertices into {trees} trees")
    sizes = [n // trees + (1 if i < n % trees else 0) for i in range(trees)]
    edges = []
    offset = 0
    for size in sizes:
        if size == 0:
            continue
        if max_degree is None:
            part = random_tree_prufer(size, rng)
        else:
            part = random_tree_bounded_degree(size, max_degree, rng)
        edges.extend((offset + u, offset + v) for u, v in part.edges())
        offset += size
    return Graph(n, edges)
