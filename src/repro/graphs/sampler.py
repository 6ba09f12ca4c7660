"""Seeded k-hop neighbor sampling over the compiled sorted-CSR layouts.

The sampler bounds *who participates* in an encode: starting from the
query batch's seed entities it expands the temporal fan-in closure —
newest history first, because the GRU recurrence propagates information
forward in time, so a seed's receptive field reaches *backward* through
progressively older snapshots — and extracts the induced subgraph over
the sampled node set (ShaDow/Cluster-GCN style: fan-out caps bound the
node budget per hop; message passing then runs over *all* edges among
the sampled nodes, so every interior node keeps its full in-edge set
and its recomputed degree norms match its induced in-degree).

Determinism contract (see ``docs/sampling.md``):

- expansion is a pure function of ``(window content fingerprint, seed
  entities, fanout spec, sample seed)`` — the per-hop RNG is keyed on
  exactly that tuple, never on process state;
- exhaustive caps (``None``/``0``/"full") consume no randomness and
  degenerate to the identity: when the closure covers every edge
  endpoint of every graph in the window, :func:`induce_window` returns
  the *original* window object, so downstream encodes and decodes are
  bitwise-identical to the full-graph plan (the parity fence);
- a capped expansion with the same seed reproduces the same closure —
  and therefore the same induced graphs and the same scores — bit for
  bit.

Induced graphs are plain :class:`~repro.graphs.snapshot.SnapshotGraph`
instances over the compacted local id space (``local_nodes`` maps local
-> global; relations keep their global ids), so the existing
:mod:`repro.graphs.compiled` layouts, degree norms, and segment kernels
apply unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

import numpy as np

from repro.graphs.compiled import compiled
from repro.graphs.snapshot import SnapshotGraph, stable_array_digest
from repro.obs.lru import BoundedLRU

__all__ = [
    "FanoutSpec",
    "SampleScope",
    "NeighborSampler",
    "sample_scope",
    "induce_window",
]

_EMPTY = np.zeros(0, dtype=np.int64)


def _parse_cap(token) -> Optional[int]:
    """One per-hop cap: positive int, or None for 'take every in-edge'."""
    if token is None:
        return None
    if isinstance(token, str):
        token = token.strip().lower()
        if token in ("", "full", "all", "none", "inf"):
            return None
        token = int(token)
    cap = int(token)
    return None if cap <= 0 else cap


@dataclass(frozen=True)
class FanoutSpec:
    """Per-hop fan-in caps, e.g. ``FanoutSpec.parse("8,4")``.

    ``fanouts[h]`` bounds how many in-edges of each frontier node hop
    ``h`` may follow; ``None`` (spelled ``full``/``0`` in strings) takes
    all of them.  ``len(fanouts)`` is the hop count applied to *each*
    graph of the window during closure expansion, so it should be at
    least the deepest per-graph receptive field (GCN layer count).
    """

    fanouts: Tuple[Optional[int], ...]

    def __post_init__(self):
        if not self.fanouts:
            raise ValueError("FanoutSpec needs at least one hop")

    @property
    def hops(self) -> int:
        return len(self.fanouts)

    @property
    def exhaustive(self) -> bool:
        """No cap binds anywhere: sampling degenerates to the identity."""
        return all(cap is None for cap in self.fanouts)

    def key(self) -> Tuple:
        """Canonical form for cache keys."""
        return tuple(-1 if cap is None else int(cap) for cap in self.fanouts)

    @classmethod
    def parse(cls, spec) -> "FanoutSpec":
        """Accept a FanoutSpec, int, int sequence, or ``"8,4"`` string."""
        if isinstance(spec, cls):
            return spec
        if spec is None:
            return cls((None, None))
        if isinstance(spec, (int, np.integer)):
            cap = _parse_cap(spec)
            return cls((cap, cap))
        if isinstance(spec, str):
            return cls(tuple(_parse_cap(tok) for tok in spec.split(",")))
        return cls(tuple(_parse_cap(tok) for tok in spec))


@dataclass(frozen=True)
class SampleScope:
    """Result of one closure expansion.

    Attributes:
        nodes: sorted global entity ids of the sampled closure, or None
            for the identity scope (no restriction).
        identity: True when the closure covers every edge endpoint of
            every graph — induction would change nothing, so the
            original window is reused verbatim (the bitwise fence).
        seeds: the (unique, sorted) seed entities the expansion started
            from.
        stats: per-expansion accounting (hops walked, nodes added...).
    """

    nodes: Optional[np.ndarray]
    identity: bool
    seeds: np.ndarray
    stats: Dict[str, int]

    @property
    def num_nodes(self) -> Optional[int]:
        return None if self.nodes is None else int(len(self.nodes))

    def fingerprint(self) -> Hashable:
        if self.identity:
            return ("identity", len(self.seeds), stable_array_digest(self.seeds))
        return (len(self.nodes), stable_array_digest(self.nodes))


def _window_graphs(window) -> List[SnapshotGraph]:
    """Expansion order: global graph first (it is applied *last* by the
    encoders, so seeds need its fan-in before anything else), then
    snapshots and merged graphs newest -> oldest (the GRU recurrence
    makes receptive fields grow backward in time)."""
    graphs: List[SnapshotGraph] = []
    if window.global_graph is not None:
        graphs.append(window.global_graph)
    graphs.extend(reversed(window.snapshots))
    graphs.extend(reversed(window.merged))
    return graphs


def _hop_rng(seed: int, graph: SnapshotGraph, hop: int, graph_index: int) -> np.random.Generator:
    """Deterministic per-(graph, hop) generator, independent of process state."""
    fp = graph.content_fingerprint()
    material = [int(seed) & 0xFFFFFFFF, graph_index, hop] + [
        int(part) & 0xFFFFFFFF for part in fp[3:]
    ]
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(material)))


def _sampled_in_neighbors(
    graph: SnapshotGraph, frontier: np.ndarray, cap: Optional[int], rng_factory
) -> np.ndarray:
    """In-neighbors of ``frontier``, at most ``cap`` sampled edges per node.

    Walks the destination-sorted CSR layout of the compiled graph;
    when no node exceeds the cap the selection is exhaustive and no
    randomness is consumed (exhaustive caps are seed-independent).
    """
    if graph.num_edges == 0 or frontier.size == 0:
        return _EMPTY
    layout = compiled(graph).dst_layout
    counts = layout.counts[frontier]
    total = int(counts.sum())
    if total == 0:
        return _EMPTY
    # gather the sorted-edge positions of every frontier node's in-edges
    group = np.repeat(np.arange(len(frontier)), counts)
    group_start = np.repeat(np.cumsum(counts) - counts, counts)
    pos = layout.indptr[frontier][group] + (np.arange(total) - group_start)
    edge_idx = layout.order[pos]
    if cap is not None and int(counts.max(initial=0)) > cap:
        keys = rng_factory().random(total)
        order = np.lexsort((keys, group))
        rank = np.arange(total) - group_start  # groups stay contiguous under lexsort
        edge_idx = edge_idx[order[rank < cap]]
    return np.unique(graph.src[edge_idx])


def _covers_all_endpoints(graphs: Sequence[SnapshotGraph], closure: np.ndarray) -> bool:
    """True when every edge endpoint of every graph lies in ``closure``."""
    for graph in graphs:
        if graph.num_edges == 0:
            continue
        if not np.isin(graph.src, closure, assume_unique=False).all():
            return False
        if not np.isin(graph.dst, closure, assume_unique=False).all():
            return False
    return True


def sample_scope(window, seeds, spec: FanoutSpec, seed: int = 0) -> SampleScope:
    """Expand the seeded temporal fan-in closure of ``window``.

    Args:
        window: a :class:`repro.core.window.HistoryWindow` (full, not
            already scoped).
        seeds: entity ids the query batch touches (subjects, and gold
            objects when training).
        spec: per-hop fan-in caps; exhaustive specs short-circuit to
            the identity scope.
        seed: sampling seed; capped expansions are a pure function of
            (window content, seeds, spec, seed).
    """
    seeds = np.unique(np.asarray(seeds, dtype=np.int64).reshape(-1))
    stats: Dict[str, int] = {"hops": 0, "graphs": 0, "frontier_peak": int(seeds.size)}
    if spec.exhaustive:
        return SampleScope(nodes=None, identity=True, seeds=seeds, stats=stats)
    graphs = _window_graphs(window)
    stats["graphs"] = len(graphs)
    closure = seeds
    for graph_index, graph in enumerate(graphs):
        frontier = closure
        for hop, cap in enumerate(spec.fanouts):
            neighbors = _sampled_in_neighbors(
                graph,
                frontier,
                cap,
                lambda g=graph, h=hop, i=graph_index: _hop_rng(seed, g, h, i),
            )
            frontier = np.setdiff1d(neighbors, closure, assume_unique=False)
            stats["hops"] += 1
            if frontier.size == 0:
                break
            closure = np.union1d(closure, frontier)
            stats["frontier_peak"] = max(stats["frontier_peak"], int(frontier.size))
    if _covers_all_endpoints(graphs, closure):
        return SampleScope(nodes=None, identity=True, seeds=seeds, stats=stats)
    return SampleScope(nodes=closure, identity=False, seeds=seeds, stats=stats)


def _induce_graph(graph: Optional[SnapshotGraph], nodes: np.ndarray) -> Optional[SnapshotGraph]:
    """Induced subgraph over ``nodes`` with compacted (local) entity ids.

    Keeps every edge whose *both* endpoints are sampled; relation ids
    keep their global space.  Degree norms and CSR layouts are derived
    lazily from the induced edge arrays by :mod:`repro.graphs.compiled`,
    so normalisation reflects induced in-degrees, not the full graph's.
    """
    if graph is None:
        return None
    if graph.num_edges == 0:
        return SnapshotGraph(
            src=_EMPTY,
            rel=_EMPTY,
            dst=_EMPTY,
            num_entities=int(len(nodes)),
            num_relations=graph.num_relations,
            timestamps=graph.timestamps,
        )
    keep = np.isin(graph.src, nodes) & np.isin(graph.dst, nodes)
    return SnapshotGraph(
        src=np.searchsorted(nodes, graph.src[keep]),
        rel=graph.rel[keep],
        dst=np.searchsorted(nodes, graph.dst[keep]),
        num_entities=int(len(nodes)),
        num_relations=graph.num_relations,
        timestamps=graph.timestamps,
    )


def induce_window(window, scope: SampleScope):
    """Materialise the induced window for a scope.

    Identity scopes return the *original* window object — same graph
    instances, same fingerprint, same cached encoder states — which is
    what makes the exhaustive-fanout parity fence bitwise.
    """
    if scope.identity:
        return window
    from repro.core.window import HistoryWindow  # deferred: core imports graphs

    nodes = scope.nodes
    return HistoryWindow(
        snapshots=[_induce_graph(g, nodes) for g in window.snapshots],
        merged=[_induce_graph(g, nodes) for g in window.merged],
        deltas=list(window.deltas),
        global_graph=_induce_graph(window.global_graph, nodes),
        prediction_time=window.prediction_time,
        facts=window.facts,
        local_nodes=nodes,
    )


class NeighborSampler:
    """Seeded sampler + LRU over induced windows.

    One instance is shared by a consumer (trainer epoch, serving
    engine); repeated query batches over the same window content reuse
    the induced graphs — and with them the compiled layouts memoized on
    each induced graph instance.  Events land on the obs registry as
    ``repro_cache_events_total{cache="induced_window",owner,instance,event}``
    with ``event in (hit, miss, identity)``: a lookup that finds nothing
    counts as ``identity`` when the sampled closure is the whole window,
    else as ``miss``.
    """

    def __init__(
        self,
        fanout="16,8",
        seed: int = 0,
        cache_entries: int = 64,
        owner: str = "sampler",
    ):
        self.spec = FanoutSpec.parse(fanout)
        self.seed = int(seed)
        self.owner = owner
        self._cache = BoundedLRU(cache_entries, cache="induced_window", owner=owner)

    def _key(self, window, seeds: np.ndarray) -> Hashable:
        return (
            window.fingerprint(),
            int(len(seeds)),
            stable_array_digest(seeds),
            self.spec.key(),
            self.seed,
        )

    def induce(self, window, seeds) -> Tuple[object, SampleScope]:
        """(induced window, scope) for a query batch; cached on content."""
        seeds = np.unique(np.asarray(seeds, dtype=np.int64).reshape(-1))
        key = self._key(window, seeds)
        hit = self._cache.peek(key)
        if hit is not None:
            return hit
        scope = sample_scope(window, seeds, self.spec, seed=self.seed)
        induced = induce_window(window, scope)
        self._cache.record("identity" if scope.identity else "miss")
        self._cache.put(key, (induced, scope))
        return induced, scope

    def stats(self) -> Dict[str, int]:
        return {
            "entries": len(self._cache),
            "fanout": list(self.spec.key()),
            "seed": self.seed,
            **{event: self._cache.count(event) for event in ("hit", "miss", "identity")},
        }
