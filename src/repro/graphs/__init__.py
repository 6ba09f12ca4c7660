"""Graph substrates: snapshot graphs, merged inter-snapshot graphs, and
the history index behind globally relevant graphs and vocabularies."""

from repro.graphs.snapshot import SnapshotGraph, build_snapshot
from repro.graphs.merge import merge_snapshots
from repro.graphs.history import HistoryIndex
from repro.graphs.compiled import (
    CompiledGraph,
    compiled,
    compiled_cache_stats,
    reset_compiled_cache_stats,
)
from repro.graphs.sampler import (
    FanoutSpec,
    NeighborSampler,
    SampleScope,
    induce_window,
    sample_scope,
)

__all__ = [
    "SnapshotGraph",
    "build_snapshot",
    "merge_snapshots",
    "HistoryIndex",
    "CompiledGraph",
    "compiled",
    "compiled_cache_stats",
    "reset_compiled_cache_stats",
    "FanoutSpec",
    "NeighborSampler",
    "SampleScope",
    "induce_window",
    "sample_scope",
]
