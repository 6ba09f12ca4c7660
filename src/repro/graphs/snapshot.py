"""Snapshot graphs: the per-timestamp multi-relational graph G_t.

A snapshot holds the concurrent facts of one timestamp as parallel
``src``/``rel``/``dst`` edge arrays — the layout every GNN layer in this
repo consumes.  Inverse edges (``o, r + |R|, s``) are added so message
passing reaches both endpoints, matching RE-GCN/HisRES preprocessing.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Optional

import numpy as np


def stable_array_digest(array: np.ndarray) -> int:
    """Process-stable 64-bit content digest of an array's bytes.

    Content fingerprints key caches that may be *shared across
    processes* (the serving cluster's encoder-state tier), so they must
    not depend on Python's per-process ``hash()`` salt
    (``PYTHONHASHSEED``).  blake2b over the raw bytes is deterministic
    everywhere and fast enough for per-snapshot edge arrays.
    """
    digest = hashlib.blake2b(
        np.ascontiguousarray(array).tobytes(), digest_size=8
    ).digest()
    return int.from_bytes(digest, "big")


@dataclass
class SnapshotGraph:
    """Edge-list view of one (or several merged) snapshots.

    Attributes:
        src, rel, dst: parallel int arrays, one entry per directed edge.
        num_entities: size of the node space.
        num_relations: size of the (already doubled) relation space.
        timestamps: sorted unique source timestamps of the edges.
    """

    src: np.ndarray
    rel: np.ndarray
    dst: np.ndarray
    num_entities: int
    num_relations: int
    timestamps: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))

    def __post_init__(self):
        self.src = np.asarray(self.src, dtype=np.int64)
        self.rel = np.asarray(self.rel, dtype=np.int64)
        self.dst = np.asarray(self.dst, dtype=np.int64)
        if not (len(self.src) == len(self.rel) == len(self.dst)):
            raise ValueError("src/rel/dst must be parallel arrays")
        # Lazy memos; graphs are immutable once built, so derived
        # quantities are computed at most once per instance.
        self._in_degree: Optional[np.ndarray] = None
        self._in_degree_norm: Optional[np.ndarray] = None
        self._active_nodes: Optional[np.ndarray] = None
        self._compiled = None  # filled by repro.graphs.compiled.compiled
        self._content_fp = None  # filled by content_fingerprint()
        self._line_graph = None  # filled by repro.graphs.line_graph.line_graph

    @property
    def num_edges(self) -> int:
        return len(self.src)

    def in_degree(self) -> np.ndarray:
        """In-degree per node (used for mean aggregation); memoized."""
        if self._in_degree is None:
            self._in_degree = np.bincount(self.dst, minlength=self.num_entities).astype(np.int64)
        return self._in_degree

    def in_degree_norm(self) -> np.ndarray:
        """1/in-degree per edge destination, 0-degree guarded; memoized."""
        if self._in_degree_norm is None:
            deg = self.in_degree().astype(np.float64)
            deg[deg == 0] = 1.0
            self._in_degree_norm = 1.0 / deg[self.dst]
        return self._in_degree_norm

    def active_nodes(self) -> np.ndarray:
        """Nodes appearing as an endpoint of at least one edge; memoized."""
        if self._active_nodes is None:
            self._active_nodes = np.unique(np.concatenate([self.src, self.dst]))
        return self._active_nodes

    def triples(self) -> np.ndarray:
        """(num_edges, 3) array of (src, rel, dst)."""
        return np.stack([self.src, self.rel, self.dst], axis=1)

    def content_fingerprint(self) -> tuple:
        """Cheap content key over the edge set; memoized.

        Two graphs with the same edges (in the same order) over the
        same entity/relation spaces fingerprint identically, regardless
        of which builder instance — or which *process* — materialised
        them (see :func:`stable_array_digest`).  Used by the execution
        plane to key cached encoder states on window content, and by
        the cluster's shared encoder-state tier to share encodes
        between worker processes.
        """
        if self._content_fp is None:
            self._content_fp = (
                self.num_entities,
                self.num_relations,
                self.num_edges,
                stable_array_digest(self.src),
                stable_array_digest(self.rel),
                stable_array_digest(self.dst),
            )
        return self._content_fp


def build_snapshot(
    quads: np.ndarray,
    num_entities: int,
    num_relations: int,
    add_inverse: bool = True,
) -> SnapshotGraph:
    """Build a snapshot graph from (n, 4) quadruples.

    Args:
        quads: facts at one timestamp (or several, for merged graphs).
        num_relations: the *base* relation count; with ``add_inverse``
            the resulting graph uses ids in ``[0, 2 * num_relations)``.
    """
    quads = np.asarray(quads, dtype=np.int64).reshape(-1, 4)
    src, rel, dst = quads[:, 0], quads[:, 1], quads[:, 2]
    if add_inverse:
        src = np.concatenate([src, quads[:, 2]])
        rel = np.concatenate([rel, quads[:, 1] + num_relations])
        dst = np.concatenate([dst, quads[:, 0]])
        rel_space = 2 * num_relations
    else:
        rel_space = num_relations
    timestamps = np.unique(quads[:, 3]) if len(quads) else np.zeros(0, dtype=np.int64)
    return SnapshotGraph(
        src=src,
        rel=rel,
        dst=dst,
        num_entities=num_entities,
        num_relations=rel_space,
        timestamps=timestamps,
    )
