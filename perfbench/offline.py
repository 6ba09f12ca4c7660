"""``offline``: the ``repro train`` / ``repro eval`` path, in four phases.

(a) one full-graph ``Trainer.train_epoch`` over a capped timeline;
(b) one neighbor-sampled epoch (``fanout=8,4;batch=128;seed=0``), capped;
(c) a cold HisRES ``TimelineEvaluator.evaluate_walk`` of the test split
    after the full train+valid history, with a fresh window builder and
    plan, as ``repro eval`` pays;
(d) the same walk for CyGNet (copy-mode, dense history masks).

The four phases form one round.  A run measures whole rounds: as many
as fit ``--seconds`` by the first round's length, at least one.  The
cyclic garbage collector runs between phases, so one phase's leftover
autograd graphs never inflate the next one's peak memory or time.
"""

from __future__ import annotations

import gc
import math
import statistics
import time
from typing import Dict, List

from perfbench import common as C

SAMPLER = "fanout=8,4;batch=128;seed=0"
# timeline caps of the two training phases (timestamps walked; every
# timestamp after the first optimises one or more steps)
PHASE_CAPS = {"icews14": {"train": 7, "sampled": 12}, "tiny": {"train": 6, "sampled": 6}}
SETUP_REPEATS = 3


def _count_train_queries(dataset, cap: int) -> int:
    """Raw + inverse queries optimised by a capped epoch (the first
    timestamp only fills the history)."""
    items = sorted(dataset.train.facts_by_time().items())[:cap]
    return sum(2 * len(quads) for _, quads in items[1:])


class _AbsorbClock:
    """Records when a window builder absorbs each timestamp."""

    def __init__(self, builder):
        self.times: List[float] = []
        original = builder.absorb

        def absorb(quads):
            original(quads)
            self.times.append(time.perf_counter())

        builder.absorb = absorb

    def step_seconds(self, started: float, steps: int) -> List[float]:
        """Per-timestamp latencies of the last ``steps`` absorbs."""
        marks = [started] + self.times
        marks = marks[-(steps + 1):]
        return [b - a for a, b in zip(marks, marks[1:])]


def _setup(shape: str, seed: int):
    from repro.baselines import MODEL_REGISTRY
    from repro.training import TimelineEvaluator, Trainer

    dataset = C.synthesize(shape, seed)
    trainers = {}
    for phase, sampler in (("train", None), ("sampled", SAMPLER)):
        trainers[phase] = Trainer(
            C.build_model(C.MODEL, dataset, seed),
            dataset,
            history_length=C.MODEL["history_length"],
            granularity=C.MODEL["granularity"],
            use_global=C.MODEL["use_global"],
            seed=seed,
            sampler=sampler,
        )
    walk_models = {
        "hisres": (C.build_model(C.MODEL, dataset, seed), C.window_config(C.MODEL)),
        "cygnet": (
            C.build_model(C.COPY_MODEL, dataset, seed),
            C.window_config(
                C.COPY_MODEL,
                track_vocabulary=MODEL_REGISTRY["cygnet"].requirements.vocabulary,
            ),
        ),
    }
    return dataset, trainers, walk_models, TimelineEvaluator(dataset)


def run(seed: int, seconds: float, trace: bool, shape: str) -> Dict:
    from repro.obs import enable_tracing, disable_tracing, span

    setup_times = []
    for _ in range(SETUP_REPEATS):
        started = time.perf_counter()
        dataset, trainers, walk_models, evaluator = _setup(shape, seed)
        setup_times.append(time.perf_counter() - started)

    # one untimed step per trainer, so the timed epochs do not pay the
    # process's first touch of their autograd working set
    for trainer in trainers.values():
        trainer.train_epoch(max_timestamps=2)

    sampler_probe = None
    undo = []
    if trace:
        from perfbench import probes as P

        enable_tracing(reset=True, max_spans=1_000_000)
        undo += P.install_window_probes()
        for trainer in trainers.values():
            undo += P.install_trainer_probes(trainer)
        sampler_probe = P.SamplerProbe(
            trainers["sampled"].scoped_plan.sampler, dataset.num_entities
        )
        undo.append(sampler_probe.undo)

    caps = PHASE_CAPS[shape]
    train_queries = {p: _count_train_queries(dataset, caps[p]) for p in ("train", "sampled")}
    work = {p: {"queries": 0, "seconds": 0.0, "runs": 0} for p in ("train", "sampled", "hisres", "cygnet")}
    mrrs: Dict[str, float] = {}
    walk_steps: Dict[str, List[float]] = {"hisres": [], "cygnet": []}
    walk_stats: Dict[str, Dict] = {}
    window_stats: Dict[str, Dict] = {}
    failed = 0

    def train_phase(phase: str) -> None:
        nonlocal failed
        trainer = trainers[phase]
        with span("bench.train", phase=phase):
            loss, secs = C.timed(trainer.train_epoch, max_timestamps=caps[phase])
        if not math.isfinite(loss):
            failed += 1
        work[phase]["queries"] += train_queries[phase]
        work[phase]["seconds"] += secs
        work[phase]["runs"] += 1
        window_stats[phase] = trainer.window_builder.cache_stats()

    def walk_phase(key: str) -> None:
        nonlocal failed
        model, config = walk_models[key]
        model.eval()
        builder = config.build(dataset.num_entities, dataset.num_relations)
        clock = _AbsorbClock(builder)
        plan = evaluator.make_plan(model)
        started = time.perf_counter()
        with span("bench.walk", model=key):
            result = evaluator.evaluate_walk(
                model, builder, dataset.test,
                warmup_splits=(dataset.train, dataset.valid), plan=plan,
            )
        secs = time.perf_counter() - started
        stats = dict(evaluator.last_walk_stats)
        if key in mrrs and mrrs[key] != result.mrr:
            failed += 1
        mrrs[key] = result.mrr
        walk_steps[key] += clock.step_seconds(started, stats["eval_timestamps"])
        work[key]["queries"] += stats["eval_queries"]
        work[key]["seconds"] += secs
        work[key]["runs"] += 1
        stats["state_cache"] = plan.cache.stats()
        walk_stats[key] = stats
        window_stats[key] = builder.cache_stats()

    phases = [
        lambda: train_phase("train"),
        lambda: train_phase("sampled"),
        lambda: walk_phase("hisres"),
        lambda: walk_phase("cygnet"),
    ]
    gc.collect()
    started = time.perf_counter()
    rounds = 1
    done = 0
    while done < rounds * len(phases):
        phases[done % len(phases)]()
        done += 1
        gc.collect()
        if done == len(phases):
            rounds = max(1, int(seconds / (time.perf_counter() - started)))

    result = {
        "attempted": done,
        "setup_times": setup_times,
        "dataset": C.dataset_shape(dataset),
        "work": work,
        "mrrs": mrrs,
        "walk_steps": walk_steps,
        "walk_stats": walk_stats,
        "window_stats": window_stats,
        "failed": failed,
    }
    if trace:
        tracer = disable_tracing()
        for fn in undo:
            fn()
        result["tracer"] = tracer
        result["sampler"] = sampler_probe.stats()
        result["op_profile"] = _op_profile(trainers["train"])
    return result


def _op_profile(trainer) -> Dict[str, float]:
    """Op mix of one extra full-graph step under the op profiler.

    Its patching inflates absolute time, so only shares and counts are
    reported; the step runs after the timed phases.
    """
    from repro.obs import OpProfiler

    with OpProfiler(record_events=False) as prof:
        trainer.train_epoch(max_timestamps=2)
    rows = prof.table()
    total = sum(r["self_s"] for r in rows) or 1.0
    segment = [r for r in rows if str(r["op"]).startswith("segment_")]
    return {
        "segment_share": sum(r["self_s"] for r in segment) / total,
        "segment_calls": sum(r["count"] for r in segment),
        "segment_mbytes": sum(r["bytes"] for r in segment) / 1e6,
        "matmul_share": sum(r["self_s"] for r in rows if r["op"] == "matmul") / total,
    }


def overhead_basis(result: Dict) -> float:
    """Seconds one round of the four phases took (tracing-overhead basis)."""
    return sum(w["seconds"] / w["runs"] for w in result["work"].values() if w["runs"])


def summarize(result: Dict, trace: bool) -> Dict:
    """End-to-end values, the workload's named row metrics and layer values."""
    from perfbench import metrics as M
    from perfbench import traceview as T

    work = result["work"]
    hisres_steps = result["walk_steps"]["hisres"]

    def qps(*phases):
        q = sum(work[p]["queries"] for p in phases)
        s = sum(work[p]["seconds"] for p in phases)
        return q / s if s else 0.0

    e2e = {
        "setup_s": statistics.median(result["setup_times"]),
        "peak_rss_mb": C.self_peak_rss_mb(),
        "read_qps": qps("hisres", "cygnet"),
        "read_p50_ms": M.pct_ms(hisres_steps, 0.5),
        "write_qps": qps("train", "sampled"),
    }
    named = {
        "setup_s": C.summarize(result["setup_times"], "s"),
        "peak_rss_mb": {"unit": "MB", "n": 1, "value": e2e["peak_rss_mb"]},
        "failed_ratio": {"unit": "fraction", "n": result["attempted"],
                         "value": result["failed"] / result["attempted"]},
        "train_queries_per_s": C.rate(work["train"]["queries"], work["train"]["seconds"], "q/s"),
        "train_sampled_queries_per_s": C.rate(
            work["sampled"]["queries"], work["sampled"]["seconds"], "q/s"),
        "eval_queries_per_s": C.rate(work["hisres"]["queries"], work["hisres"]["seconds"], "q/s"),
        "eval_copy_queries_per_s": C.rate(
            work["cygnet"]["queries"], work["cygnet"]["seconds"], "q/s"),
        "eval_step_ms": C.summarize([1e3 * s for s in hisres_steps], "ms"),
        "eval_step_p90_ms": {"unit": "ms", "n": len(hisres_steps),
                             "value": M.pct_ms(hisres_steps, 0.9)},
        "eval_copy_step_ms": C.summarize(
            [1e3 * s for s in result["walk_steps"]["cygnet"]], "ms"),
    }
    out = {"e2e": e2e, "named": named}
    if not trace:
        return out

    analysis = T.analyze([T.from_tracer(result["tracer"])], ("bench.train", "bench.walk"))
    layers = M.span_layers(analysis)
    hisres = result["walk_stats"]["hisres"]
    walk_timestamps = sum(
        result["walk_stats"][k]["eval_timestamps"] * work[k]["runs"] for k in ("hisres", "cygnet")
    )
    window_stats = result["window_stats"]
    merged: Dict[str, int] = {}
    for stats in window_stats.values():
        for key, value in stats.items():
            merged[key] = merged.get(key, 0) + value
    layers.update(
        {
            "window.graph_cache_hit_ratio": M.graph_cache_ratio(merged),
            "window.global_builds": float(merged.get("global_builds", 0)),
            "encode.state_cache_hit_ratio": float(hisres["state_cache"]["hit_rate"]),
            "eval.mean_group_size": float(hisres["eval_mean_group_size"]),
            "eval.rank_ms": 1e3 * analysis.layer_self_s.get("eval.rank", 0.0) / walk_timestamps,
            "sampler.closure_nodes_mean": result["sampler"]["closure_nodes_mean"],
            "nn.segment_share": result["op_profile"]["segment_share"],
            "nn.segment_calls": result["op_profile"]["segment_calls"],
            "nn.segment_mbytes": result["op_profile"]["segment_mbytes"],
            "nn.matmul_share": result["op_profile"]["matmul_share"],
        }
    )
    out.update(layers=layers, analysis=analysis)
    return out


def config(shape: str) -> Dict:
    return {
        "phases": ["train", "sampled", "hisres_walk", "cygnet_walk"],
        "timeline_caps": PHASE_CAPS[shape],
        "sampler": SAMPLER,
        "copy_model": dict(C.COPY_MODEL),
        "setup_repeats": SETUP_REPEATS,
    }
