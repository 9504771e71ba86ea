"""``repro.backends.sharded`` — the deterministic vertex partitioner
left over from the removed sharded round engine.

The multi-process backend itself is gone (it never beat the serial
fast engine; see ROADMAP item 4).  Only the pure-function partitioner
and its property tests remain, and they are due to be deleted in a
follow-up change.  Nothing registers or imports this package.
"""

from .partition import (
    CONTIGUOUS,
    PARTITION_MODES,
    RANDOM,
    Partition,
    boundary_edges,
    partition_graph,
)

__all__ = [
    "CONTIGUOUS",
    "PARTITION_MODES",
    "RANDOM",
    "Partition",
    "boundary_edges",
    "partition_graph",
]
