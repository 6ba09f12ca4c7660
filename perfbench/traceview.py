"""Per-layer self times from the spans of one traced benchmark run.

A run yields one or more span *sources*: the generator's in-process
tracer and, for the serving workloads, the Chrome trace the server
writes on shutdown.  Parent/child edges ride on span ids, so a client
span in the generator parents the server's ``http.request`` through the
``traceparent`` header the client injects.

A span's self time is its duration minus the part of it its children
cover: the union of their intervals for children recorded on the same
clock (same source), their durations for children in another source.
Only spans descending from the run's timed root spans are counted.
``coverage`` is one minus the share of the roots' wall time that is
self time of spans outside the named layers.  (Summing the named
layers' self times instead would pass 1 wherever a tree runs branches
in parallel, as the cluster's scatter to two shards does.)
"""

from __future__ import annotations

import json
from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence

# span name -> layer whose self time it carries
LAYER_OF: Dict[str, str] = {
    "http.request": "http.server",
    "loadgen.predict": "http.transport",
    "loadgen.batch": "http.transport",
    "loadgen.ingest": "http.transport",
    "engine.predict_batch": "engine.predict_batch",
    "engine.ingest": "engine.ingest",
    "window.build": "window.build",
    "window.absorb": "window.absorb",
    "encoder.encode": "encode",
    "eval.encode": "encode",
    "eval.decode": "decode",
    "shard.decode": "shard.decode",
    "cluster.scatter": "router.scatter",
    "router.predict": "router.merge",
    "router.ingest": "router.ingest",
    "state_tier.wait": "state_tier.wait",
    "train.step": "train.step",
    "nn.forward": "nn.forward",
    "nn.backward": "nn.backward",
    "nn.optimizer": "nn.optimizer",
    "sampler.induce": "sampler.induce",
    "bench.walk": "eval.rank",
}

# client spans: their self time is transport only if the server's span
# was stitched under them
CLIENT_SPANS = ("loadgen.predict", "loadgen.batch", "loadgen.ingest")


@dataclass
class Span:
    name: str
    start: float
    end: float
    span_id: str
    parent_id: Optional[str]
    source: int

    @property
    def duration(self) -> float:
        return self.end - self.start


def from_tracer(tracer, source: int = 0) -> List[Span]:
    return [
        Span(r.name, r.start, r.end if r.end is not None else r.start,
             r.span_id, r.parent_span_id, source)
        for r in tracer.spans()
    ]


def from_chrome(path: str, source: int) -> List[Span]:
    with open(path) as fh:
        events = json.load(fh).get("traceEvents", [])
    spans = []
    for event in events:
        if event.get("ph") != "X":
            continue
        args = event.get("args") or {}
        if "span_id" not in args:
            continue
        start = float(event["ts"]) / 1e6
        spans.append(
            Span(event["name"], start, start + float(event["dur"]) / 1e6,
                 args["span_id"], args.get("parent_span_id"), source)
        )
    return spans


def _covered(parent: Span, children: Sequence[Span]) -> float:
    """Seconds of ``parent`` covered by its children."""
    foreign = sum(c.duration for c in children if c.source != parent.source)
    intervals = sorted(
        (max(c.start, parent.start), min(c.end, parent.end))
        for c in children
        if c.source == parent.source
    )
    local = 0.0
    cur_lo = cur_hi = None
    for lo, hi in intervals:
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                local += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        local += cur_hi - cur_lo
    return min(parent.duration, local + foreign)


@dataclass
class Analysis:
    wall_s: float
    layer_self_s: Dict[str, float]
    layer_count: Dict[str, int]
    durations: Dict[str, List[float]]
    gaps: Dict[str, float]
    roots: int

    @property
    def coverage(self) -> float:
        if self.wall_s <= 0:
            return 0.0
        return max(0.0, 1.0 - sum(self.gaps.values()) / self.wall_s)

    def mean_self_ms(self, layer: str) -> float:
        n = self.layer_count.get(layer, 0)
        return 1e3 * self.layer_self_s.get(layer, 0.0) / n if n else 0.0

    def top_gaps(self, limit: int = 3) -> List[Dict[str, object]]:
        ranked = sorted(self.gaps.items(), key=lambda kv: kv[1], reverse=True)[:limit]
        return [
            {"span": name, "self_s": round(s, 6), "share": round(s / self.wall_s, 4)}
            for name, s in ranked if self.wall_s > 0
        ]


def analyze(sources: Iterable[List[Span]], root_names: Sequence[str]) -> Analysis:
    spans = [s for source in sources for s in source]
    children: Dict[str, List[Span]] = defaultdict(list)
    for s in spans:
        if s.parent_id:
            children[s.parent_id].append(s)
    roots = [s for s in spans if s.name in root_names]
    layer_self: Dict[str, float] = defaultdict(float)
    layer_count: Dict[str, int] = defaultdict(int)
    durations: Dict[str, List[float]] = defaultdict(list)
    gaps: Dict[str, float] = defaultdict(float)
    seen = set()
    stack = list(roots)
    while stack:
        s = stack.pop()
        if s.span_id in seen:
            continue
        seen.add(s.span_id)
        kids = children.get(s.span_id, [])
        stack.extend(kids)
        own = s.duration - _covered(s, kids)
        durations[s.name].append(s.duration)
        layer = LAYER_OF.get(s.name)
        if s.name in CLIENT_SPANS and not any(k.source != s.source for k in kids):
            gaps[f"{s.name} (no server span)"] += own
        elif layer is None:
            gaps[s.name] += own
        else:
            layer_self[layer] += own
            layer_count[layer] += 1
    return Analysis(
        wall_s=sum(r.duration for r in roots),
        layer_self_s=dict(layer_self),
        layer_count=dict(layer_count),
        durations=dict(durations),
        gaps=dict(gaps),
        roots=len(roots),
    )
