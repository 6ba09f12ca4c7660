"""Metric vocabulary of the benchmark and how each is computed.

End-to-end metrics are what a user of the workload sees; every
workload reports all of them, each with the meaning its workload gives
it (see ``perfbench/README.md``).  Per-layer metrics come from the
traced run; a layer a workload does not exercise reads 0.
"""

from __future__ import annotations

import statistics
from typing import Dict, List, Optional

from perfbench import common as C

# (name, unit, better)
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("read_qps", "q/s", "higher"),
    ("read_p50_ms", "ms", "lower"),
    ("write_qps", "1/s", "higher"),
)

PER_LAYER = (
    ("http.server_ms", "ms", "lower"),
    ("http.transport_ms", "ms", "lower"),
    ("engine.pred_cache_hit_ratio", "ratio", "higher"),
    ("engine.batch_mean", "count", "higher"),
    ("engine.predict_batch_p50_ms", "ms", "lower"),
    ("engine.predict_batch_p99_ms", "ms", "lower"),
    ("engine.ingest_ms", "ms", "lower"),
    ("window.build_ms", "ms", "lower"),
    ("window.absorb_ms", "ms", "lower"),
    ("window.graph_cache_hit_ratio", "ratio", "higher"),
    ("window.global_builds", "count", "lower"),
    ("encode.ms", "ms", "lower"),
    ("encode.count", "count", "lower"),
    ("encode.state_cache_hit_ratio", "ratio", "higher"),
    ("decode.ms", "ms", "lower"),
    ("eval.mean_group_size", "count", "higher"),
    ("eval.rank_ms", "ms", "lower"),
    ("nn.forward_ms", "ms", "lower"),
    ("nn.backward_ms", "ms", "lower"),
    ("nn.optimizer_ms", "ms", "lower"),
    ("nn.segment_share", "ratio", "lower"),
    ("nn.segment_calls", "count", "lower"),
    ("nn.segment_mbytes", "MB", "lower"),
    ("nn.matmul_share", "ratio", "lower"),
    ("sampler.closure_nodes_mean", "count", "lower"),
    ("sampler.induce_ms", "ms", "lower"),
    ("train.step_ms", "ms", "lower"),
    ("router.scatter_ms", "ms", "lower"),
    ("router.merge_ms", "ms", "lower"),
    ("shard.decode_ms", "ms", "lower"),
    ("state_tier.wait_ms", "ms", "lower"),
    ("router.partial_ratio", "ratio", "lower"),
    ("loadgen.late_p99_ms", "ms", "lower"),
    ("trace.coverage", "ratio", "higher"),
    ("trace.overhead", "ratio", "lower"),
)

COVERAGE_BAR = 0.9


def mean_ms(values: List[float]) -> float:
    return 1e3 * statistics.fmean(values) if values else 0.0


def pct_ms(values: List[float], q: float) -> float:
    return 1e3 * C.quantile(sorted(values), q) if values else 0.0


def hit_ratio(hits: float, misses: float) -> float:
    total = hits + misses
    return hits / total if total else 0.0


def graph_cache_ratio(stats: Dict[str, int]) -> float:
    """Hits over lookups across a WindowBuilder's graph caches."""
    hits = sum(v for k, v in stats.items() if k.endswith("_hits"))
    builds = sum(v for k, v in stats.items() if k.endswith("_builds"))
    return hit_ratio(hits, builds)


def span_layers(analysis) -> Dict[str, float]:
    """Per-layer metrics every traced run derives from its spans."""
    d = analysis.durations
    return {
        "http.server_ms": analysis.mean_self_ms("http.server"),
        "http.transport_ms": analysis.mean_self_ms("http.transport"),
        "engine.predict_batch_p50_ms": pct_ms(d.get("engine.predict_batch", []), 0.5),
        "engine.predict_batch_p99_ms": pct_ms(d.get("engine.predict_batch", []), 0.99),
        "engine.ingest_ms": mean_ms(d.get("engine.ingest", [])),
        "window.build_ms": mean_ms(d.get("window.build", [])),
        "window.absorb_ms": mean_ms(d.get("window.absorb", [])),
        "encode.ms": mean_ms(d.get("encoder.encode", [])),
        "encode.count": float(len(d.get("encoder.encode", []))),
        "decode.ms": mean_ms(d.get("eval.decode", [])),
        "nn.forward_ms": mean_ms(d.get("nn.forward", [])),
        "nn.backward_ms": mean_ms(d.get("nn.backward", [])),
        "nn.optimizer_ms": mean_ms(d.get("nn.optimizer", [])),
        "sampler.induce_ms": mean_ms(d.get("sampler.induce", [])),
        "train.step_ms": mean_ms(d.get("train.step", [])),
        "router.scatter_ms": analysis.mean_self_ms("router.scatter"),
        "router.merge_ms": analysis.mean_self_ms("router.merge"),
        "shard.decode_ms": mean_ms(d.get("shard.decode", [])),
        "state_tier.wait_ms": mean_ms(d.get("state_tier.wait", [])),
        "trace.coverage": analysis.coverage,
    }


def complete(values: Dict[str, float]) -> Dict[str, Dict[str, object]]:
    """Every per-layer metric with its unit (0 for unexercised layers)."""
    return {
        name: {"value": float(values.get(name, 0.0)), "unit": unit}
        for name, unit, _ in PER_LAYER
    }


def end_to_end(values: Dict[str, float]) -> Dict[str, Dict[str, object]]:
    return {name: {"value": float(values[name]), "unit": unit} for name, unit, _ in END_TO_END}


def coverage_report(analysis) -> Optional[Dict[str, object]]:
    """Named uncovered gaps when coverage falls under the bar."""
    if analysis.coverage >= COVERAGE_BAR:
        return None
    return {
        "coverage": round(analysis.coverage, 4),
        "bar": COVERAGE_BAR,
        "uncovered": analysis.top_gaps(),
    }
