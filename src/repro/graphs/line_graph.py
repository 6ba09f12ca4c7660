"""Relation line graphs (the RETIA / RPC substrate).

The *line graph* of a snapshot has one node per **relation** and an
edge between two relations whenever they share an entity in some pair
of facts — e.g. facts ``(a, r1, b)`` and ``(b, r2, c)`` connect ``r1``
and ``r2``.  RETIA (ICDE 2023) and RPC (SIGIR 2023) aggregate over this
structure so relation representations are informed by which relations
co-occur around the same entities.

We build the line graph in the doubled relation space (inverse
relations included), with three co-occurrence modes matching the
object/subject roles the original papers distinguish.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Set, Tuple

import numpy as np

from repro.graphs.snapshot import SnapshotGraph


def build_line_graph(graph: SnapshotGraph) -> SnapshotGraph:
    """Line graph of a snapshot: relation nodes, shared-entity edges.

    Returns a :class:`SnapshotGraph` whose ``src``/``dst`` are relation
    ids and whose ``rel`` field encodes the co-occurrence mode:

    - 0: head-head (two facts share their subject entity),
    - 1: tail-tail (two facts share their object entity),
    - 2: tail-head (one fact's object is another's subject — the
      sequential composition pattern of 2-hop paths).

    Self-pairs (a relation with itself) are skipped; duplicate edges
    are emitted once.
    """
    by_subject: Dict[int, Set[int]] = defaultdict(set)
    by_object: Dict[int, Set[int]] = defaultdict(set)
    for s, r, o in zip(graph.src, graph.rel, graph.dst):
        by_subject[int(s)].add(int(r))
        by_object[int(o)].add(int(r))

    edges: Set[Tuple[int, int, int]] = set()

    def connect(group_a: Set[int], group_b: Set[int], mode: int) -> None:
        for r1 in group_a:
            for r2 in group_b:
                if r1 != r2:
                    edges.add((r1, mode, r2))

    entities = set(by_subject) | set(by_object)
    for entity in entities:
        heads = by_subject.get(entity, set())
        tails = by_object.get(entity, set())
        connect(heads, heads, 0)
        connect(tails, tails, 1)
        connect(tails, heads, 2)

    if edges:
        array = np.asarray(sorted(edges), dtype=np.int64)
        src, mode, dst = array[:, 0], array[:, 1], array[:, 2]
    else:
        src = mode = dst = np.zeros(0, dtype=np.int64)
    return SnapshotGraph(
        src=src,
        rel=mode,
        dst=dst,
        num_entities=graph.num_relations,  # nodes are relations
        num_relations=3,  # co-occurrence modes
    )


def line_graph(graph: SnapshotGraph) -> SnapshotGraph:
    """Return the graph's line graph, building it at most once.

    The build is memoized on the graph instance (like
    :func:`repro.graphs.compiled.compiled`), so the memo lives and dies
    with the snapshot and can never be served for another graph.
    """
    if graph._line_graph is None:
        graph._line_graph = build_line_graph(graph)
    return graph._line_graph


def relation_cooccurrence_counts(graph: SnapshotGraph) -> np.ndarray:
    """(|R'|, |R'|) matrix counting shared-entity co-occurrences.

    Used by RPC's relational-correspondence unit to weight relation
    pairs by how often they interact.
    """
    n = graph.num_relations
    counts = np.zeros((n, n))
    line = build_line_graph(graph)
    np.add.at(counts, (line.src, line.dst), 1.0)
    return counts
