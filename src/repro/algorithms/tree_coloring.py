"""Deterministic q-coloring of forests — Theorem 9 (Barenboim–Elkin).

Theorem 9: for q >= 3 there is a DetLOCAL algorithm q-coloring trees in
O(log_q n + log* n) rounds, independent of Δ.  This is the deterministic
side of the paper's headline separation (run with q = Δ), and the
finishing subroutine of both randomized algorithms (Theorem 10 Phase 2
with q = √Δ, Theorem 11 Phase 2 with q = 3).

Our implementation follows the Nash-Williams/H-partition scheme of [27]:

1. **Peel** (:class:`PeelingAlgorithm`): iteratively remove vertices with
   at most q-1 remaining neighbors.  On forests each iteration removes at
   least a (1 - 2/q) fraction (at most 2n/q vertices of a forest have
   degree >= q), so the number of layers is O(log n / log(q/2)) =
   O(log_q n).  Every vertex ends with at most q-1 neighbors in its own
   or higher layers (its *up-set*).
2. **Orient** edges toward the up-set (ties inside a layer broken by ID):
   out-degree <= q-1.  One information-exchange round.
3. **Oriented Linial** (:class:`~repro.algorithms.linial.OrientedLinialColoring`):
   a proper O(q²)-coloring in O(log* n) rounds, escaping only the <= q-1
   out-neighbors per vertex.
4. **Within-layer reduction**: in parallel across layers, reduce the
   restriction of that coloring to each layer's induced subgraph (degree
   <= q-1 there) down to q colors — these are only *schedule* colors.
5. **Layer sweep** (:class:`LayerSweepColoring`): process layers top
   down; within a layer, the q schedule classes act one round apiece.
   When a vertex acts, every already-final neighbor is in its up-set
   (<= q-1 of them), so a free color in {0..q-1} always exists.

Total: O(q · log_q n + q·log q + log* n) rounds — Theorem 9's bound for
the constant q the paper uses, with our layer sweep paying an extra
factor q on the log_q n term (documented in DESIGN.md).
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from .drivers import AlgorithmReport, PhaseLog
from .linial import OrientedLinialColoring, linial_schedule
from .reduction import KuhnWattenhoferReduction, _smallest_free
from ..core.algorithm import Inbox, SyncAlgorithm
from ..core.context import Model, NodeContext
from ..core.engine import run_local
from ..core.ids import sequential_ids
from ..graphs.graph import Graph


class PeelingAlgorithm(SyncAlgorithm):
    """H-partition by iterated low-degree peeling.

    Globals:
        ``threshold``: peel vertices with at most this many remaining
        neighbors (use q-1 for q-coloring forests; more generally at
        least 2·arboricity for guaranteed progress).

    Output: the vertex's layer number (the 0-based round it peeled in).
    """

    name = "h-partition-peeling"

    def setup(self, ctx: NodeContext) -> None:
        ctx.publish("active")

    def step(self, ctx: NodeContext, inbox: Inbox) -> None:
        active_neighbors = sum(1 for msg in inbox if msg == "active")
        if active_neighbors <= ctx.globals["threshold"]:
            # The layer number *is* the peel round by definition; the
            # round index is common knowledge in a synchronous model,
            # so publishing it reveals nothing out-of-view.
            ctx.publish(("peeled", ctx.now))  # repro: ignore[LM006]
            ctx.halt(ctx.now)


class LayerSweepColoring(SyncAlgorithm):
    """Final recoloring sweep of the H-partition (stage 5 above).

    Node input:
        ``layer``: this vertex's H-partition layer;
        ``schedule_color``: its color in the within-layer q-coloring.
    Globals:
        ``q``: target palette size;
        ``max_layer``: the highest layer number (common knowledge — any
        upper bound derivable from n and q works; we pass the exact
        value, which only shortens the idle tail).

    Vertex v acts in round ``(max_layer - layer(v)) · q +
    schedule_color(v)`` and picks the smallest color of ``0..q-1`` not
    already fixed by a neighbor.  Already-final neighbors are exactly
    (a subset of) v's up-set, of size <= q-1, so a color is always free.
    """

    name = "layer-sweep-coloring"

    def setup(self, ctx: NodeContext) -> None:
        q = ctx.globals["q"]
        wake = (
            ctx.globals["max_layer"] - ctx.input["layer"]
        ) * q + ctx.input["schedule_color"]
        ctx.publish(("tmp",))
        ctx.sleep_until(wake)

    def step(self, ctx: NodeContext, inbox: Inbox) -> None:
        q = ctx.globals["q"]
        taken = {
            msg[1]
            for msg in inbox
            if isinstance(msg, tuple) and msg[0] == "final"
        }
        color = _smallest_free(taken, q)
        ctx.publish(("final", color))
        ctx.halt(color)


def h_partition(
    graph: Graph,
    threshold: int,
    log: Optional[PhaseLog] = None,
    max_rounds: int = 100_000,
) -> List[int]:
    """Compute the H-partition layers (threshold-peeling driver)."""
    result = run_local(
        graph,
        PeelingAlgorithm(),
        Model.DET,
        global_params={"threshold": threshold},
        max_rounds=max_rounds,
    )
    if log is not None:
        log.add("peeling", result)
    return result.outputs


def up_ports_from_layers(
    graph: Graph, layers: Sequence[int], ids: Sequence[int]
) -> List[List[int]]:
    """Ports toward each vertex's up-set: strictly higher layer, or the
    same layer with a larger ID (the tie-break orientation).

    Every vertex learns its neighbors' layers and IDs in one round; the
    caller accounts that round (see :func:`barenboim_elkin_coloring`).
    """
    offsets, targets, _ = graph.csr()
    out: List[List[int]] = []
    for v in graph.vertices():
        ports = []
        for p, u in enumerate(targets[offsets[v] : offsets[v + 1]]):
            if layers[u] > layers[v] or (
                layers[u] == layers[v] and ids[u] > ids[v]
            ):
                ports.append(p)
        out.append(ports)
    return out


def same_layer_ports(graph: Graph, layers: Sequence[int]) -> List[List[int]]:
    """Ports joining each vertex to same-layer neighbors."""
    offsets, targets, _ = graph.csr()
    # Each port slot's far-end layer, gathered once.
    far = [layers[u] for u in targets]
    return [
        [
            s - offsets[v]
            for s in range(offsets[v], offsets[v + 1])
            if far[s] == layers[v]
        ]
        for v in graph.vertices()
    ]


def barenboim_elkin_coloring(
    graph: Graph,
    q: int,
    ids: Optional[Sequence[int]] = None,
    id_space: Optional[int] = None,
    max_rounds: int = 100_000,
) -> AlgorithmReport:
    """DetLOCAL q-coloring of a forest (Theorem 9 pipeline).

    Parameters
    ----------
    graph:
        A forest (arbitrary graphs are accepted whenever the peeling
        terminates, e.g. graphs of arboricity <= (q-1)/2).
    q:
        Palette size, >= 3.
    ids:
        Unique vertex IDs (default ``0..n-1``).
    id_space:
        Size of the ID space (defaults to the smallest power of two
        >= n); governs the Linial schedule.

    Returns
    -------
    AlgorithmReport
        ``labeling`` is a proper coloring with colors ``0..q-1``;
        ``rounds`` sums all five stages.
    """
    if q < 3:
        raise ValueError(f"Theorem 9 needs q >= 3, got {q}")
    n = graph.num_vertices
    if ids is None:
        ids = sequential_ids(n)
    if id_space is None:
        id_space = 1 << max(1, (n - 1).bit_length())
    log = PhaseLog()

    # Stage 1: peel into layers.
    layers = h_partition(graph, q - 1, log, max_rounds=max_rounds)

    # Stage 2: one exchange round to learn neighbor layers and IDs.
    log.add_rounds("layer-exchange", 1, messages=2 * graph.num_edges)
    up_ports = up_ports_from_layers(graph, layers, ids)
    layer_ports = same_layer_ports(graph, layers)

    # Stage 3: oriented Linial coloring, escaping <= q-1 out-neighbors.
    linial_run = log.add(
        "oriented-linial",
        run_local(
            graph,
            OrientedLinialColoring(),
            Model.DET,
            ids=ids,
            node_inputs=[{"out_ports": ports} for ports in up_ports],
            global_params={"out_degree": q - 1, "id_space": id_space},
            max_rounds=max_rounds,
        ),
    )
    palette = linial_schedule(id_space, max(1, q - 1))[-1]

    # Stage 4: reduce within-layer colorings to q schedule colors, all
    # layers in parallel (each layer subgraph has degree <= q-1 < q).
    schedule_run = log.add(
        "within-layer-reduction",
        run_local(
            graph,
            KuhnWattenhoferReduction(),
            Model.DET,
            ids=ids,
            node_inputs=[
                {"color": linial_run.outputs[v], "active_ports": layer_ports[v]}
                for v in graph.vertices()
            ],
            global_params={"palette": palette, "target": q},
            max_rounds=max_rounds,
        ),
    )

    # Stage 5: top-down layer sweep.
    max_layer = max(layers) if layers else 0
    sweep_run = log.add(
        "layer-sweep",
        run_local(
            graph,
            LayerSweepColoring(),
            Model.DET,
            ids=ids,
            node_inputs=[
                {"layer": layers[v], "schedule_color": schedule_run.outputs[v]}
                for v in graph.vertices()
            ],
            global_params={"q": q, "max_layer": max_layer},
            max_rounds=max_rounds,
        ),
    )
    return AlgorithmReport(sweep_run.outputs, log.total_rounds, log)
