"""``serve`` and ``serve-cluster``: HTTP serving under seeded traffic.

``serve`` runs ``python -m repro.cli serve CKPT --warmup DATA.tsv`` with
default settings in its own process.  ``serve-cluster`` runs a router
and two entity-range shard engines sharing a state-tier directory, in
one server process (``perfbench/cluster_server.py``).  Both replay the
test split (see :mod:`perfbench.loadgen`): an open loop at a fixed rate,
then a closed loop on two connections.
"""

from __future__ import annotations

import json
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

from perfbench import common as C
from perfbench import loadgen as L

# Traffic per shape.  The open loop offers ``open_load`` of the tick rate
# the closed loop just measured, in at most ``open_ticks`` ticks.
TRAFFIC = {
    "icews14": {
        "singles_per_tick": 30,
        "hot_pairs": 2,
        "batch_size": 16,
        "zipf": 1.2,
        "recent_snapshots": 3,
        "top_k": 10,
        "open_share": 0.6,
        "open_load": 0.25,
        "open_ticks": 8,
    },
    "tiny": {
        "singles_per_tick": 8,
        "hot_pairs": 3,
        "batch_size": 4,
        "zipf": 1.2,
        "recent_snapshots": 3,
        "top_k": 5,
        "open_share": 0.6,
        "open_load": 0.25,
        "open_ticks": 8,
    },
}
SETUP_REPEATS = 3
WARM_PREDICTS = 3
CONNECTIONS = 2
# share of each tick's slowest requests averaged into the tick tail (see
# _tick_tail): the slowest ~3 of a tick's 31 are its two hot-pair misses
# and its batch, plus cache hits queued behind them on ``serve``
TAIL_SHARE = 0.1
START_TIMEOUT_S = 120.0


def config(shape: str) -> Dict:
    return {"traffic": dict(TRAFFIC[shape]), "connections": CONNECTIONS,
            "setup_repeats": SETUP_REPEATS, "warm_predicts": WARM_PREDICTS}


class Server:
    """One server process under test, started and stopped by the run."""

    def __init__(self, workload: str, workdir: Path, trace_path: Optional[Path]):
        self.workdir = workdir
        self.stats_path = workdir / "stats.json"
        ckpt, data = str(workdir / "model.npz"), str(workdir / "data.tsv")
        if workload == "serve":
            head = [sys.executable, "-m", "repro.cli"]
            if trace_path is not None:
                head = [sys.executable, str(C.ROOT / "perfbench" / "traced_serve.py")]
            argv = head + ["serve", ckpt, "--warmup", data, "--port", "0"]
        else:
            argv = [sys.executable, str(C.ROOT / "perfbench" / "cluster_server.py"), ckpt,
                    "--warmup", data, "--state-dir", str(workdir / "state"),
                    "--stats", str(self.stats_path)]
        if trace_path is not None:
            argv += ["--trace", str(trace_path)]
        self.log = open(workdir / "server.log", "w")
        self.proc = subprocess.Popen(argv, cwd=C.ROOT, env=C.child_env(),
                                     stdout=self.log, stderr=subprocess.STDOUT)
        self.url = self._wait_for_url()

    def _wait_for_url(self) -> str:
        deadline = time.monotonic() + START_TIMEOUT_S
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                break
            for line in (self.workdir / "server.log").read_text().splitlines():
                if " at http://" in line:
                    return line.split(" at ", 1)[1].split()[0]
            time.sleep(0.02)
        self.stop()
        raise RuntimeError("server did not start:\n" + (self.workdir / "server.log").read_text())

    def peak_rss_mb(self) -> float:
        return C.proc_peak_rss_mb(self.proc.pid)

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.log.close()


def _warm_predicts(url: str, dataset, count: int) -> None:
    """Pay lazy first-request costs before timing starts."""
    last = sorted(dataset.valid.facts_by_time().items())[-1][1]
    sender = L.Sender(url)
    for s, r in last[:count, :2].tolist():
        op = L.Op("predict", -1, {"subject": s, "relation": r, "top_k": 10})
        sender.execute(op)
        if not op.ok:
            raise RuntimeError(f"warm-up predict failed: {op.error}")


def _setup(workload: str, shape: str, seed: int, rep: int, trace: bool):
    from repro.data import save_tsv

    workdir = C.scratch_dir(f"{workload}-{rep}")
    dataset = C.synthesize(shape, seed)
    save_tsv(dataset, str(workdir / "data.tsv"))
    C.write_checkpoint(C.build_model(C.MODEL, dataset, seed), dataset, workdir / "model.npz")
    trace_path = workdir / "server_trace.json" if trace else None
    server = Server(workload, workdir, trace_path)
    try:
        _warm_predicts(server.url, dataset, WARM_PREDICTS)
    except Exception:
        server.stop()
        raise
    return dataset, server, trace_path


def run(workload: str, seed: int, seconds: float, trace: bool, shape: str,
        corrupt_reference: bool = False) -> Dict:
    from repro.obs import disable_tracing, enable_tracing

    cfg = TRAFFIC[shape]
    setup_times: List[float] = []
    for rep in range(SETUP_REPEATS):
        started = time.perf_counter()
        dataset, server, trace_path = _setup(workload, shape, seed, rep, trace)
        setup_times.append(time.perf_counter() - started)
        if rep < SETUP_REPEATS - 1:
            server.stop()
            shutil.rmtree(server.workdir, ignore_errors=True)

    plan = L.TrafficPlan(dataset, seed, cfg)
    try:
        if trace:
            enable_tracing(reset=True, max_spans=1_000_000)
        # closed loop first: its tick rate sets the open loop's schedule
        closed_ticks, closed_wall = L.closed_loop(
            server.url, plan, 0, len(plan.ticks) - cfg["open_ticks"],
            seconds * (1 - cfg["open_share"]), CONNECTIONS)
        tick_s = 1.0 / (cfg["open_load"] * _tick_rates(L.executed_ops(closed_ticks))["ticks"])
        count = min(cfg["open_ticks"], max(2, round(seconds * cfg["open_share"] / tick_s)))
        open_ticks, _ = L.open_loop(
            server.url, plan, len(closed_ticks), count, tick_s, CONNECTIONS)
        tracer = disable_tracing() if trace else None
        engine_stats = None
        if workload == "serve":
            engine_stats = L.Sender(server.url).client.stats()["engine"]
        peak_rss = C.self_peak_rss_mb() + server.peak_rss_mb()
    finally:
        server.stop()
    if workload == "serve-cluster":
        engine_stats = json.loads(server.stats_path.read_text())

    ticks = closed_ticks + open_ticks
    checks = _check_answers(server.workdir, ticks, cfg, corrupt_reference)
    ops = L.executed_ops(ticks)
    failed_ops = [op for op in ops if not op.ok or (op.response or {}).get("partial")]
    result = {
        "attempted": len(ops),
        "failed": len(failed_ops) + checks["mismatches"],
        "errors": sorted({op.error for op in failed_ops if op.error})[:5],
        "setup_times": setup_times,
        "dataset": C.dataset_shape(dataset),
        "plan": plan,
        "open_ops": L.executed_ops(open_ticks),
        "closed_ops": L.executed_ops(closed_ticks),
        "closed_wall": closed_wall,
        "repeat_share": L.repeat_share(ticks),
        "ticks": {"open": len(open_ticks), "closed": len(closed_ticks)},
        "open_tick_s": tick_s,
        "peak_rss_mb": peak_rss,
        "engine_stats": engine_stats,
        "checks": checks,
        "workload": workload,
    }
    if trace:
        result["tracer"] = tracer
        result["server_trace"] = str(trace_path)
    return result


def _check_answers(workdir: Path, ticks, cfg: Dict, corrupt: bool) -> Dict:
    """Replay the run's ticks into an in-process single-process engine and
    compare each check batch's top-k ids and scores bitwise."""
    from repro.data import load_tsv
    from repro.serving import InferenceEngine

    reference = InferenceEngine.from_checkpoint(str(workdir / "model.npz"))
    history = load_tsv(str(workdir / "data.tsv"))
    for split in (history.train, history.valid):
        reference.store.warm_up(split)

    def answers(rows):
        return [[(p["entity"], p["score"]) for p in row["predictions"]] for row in rows]

    compared = mismatches = 0
    for tick in ticks:
        reference.ingest(tick.events, timestamp=tick.timestamp)
        reference.flush()
        op = tick.check
        if op is None or not op.ok:
            continue
        expected = reference.predict_many(op.body["queries"], default_top_k=cfg["top_k"])
        if corrupt:
            expected[0]["predictions"][0]["score"] += 1.0
        compared += 1
        mismatches += answers(expected) != answers(op.response["results"])
    return {"check_batches": compared, "mismatches": mismatches,
            "queries_per_check": cfg["batch_size"]}


def _latencies(ops: List[L.Op]) -> List[float]:
    """Seconds from due time to completion; a failed request counts as
    taking the client's whole timeout."""
    return [op.done - op.due if op.ok else L.CLIENT_TIMEOUT_S for op in ops]


def _tick_tail(ops: List[L.Op]) -> float:
    """Mean over ticks of each tick's slowest ``TAIL_SHARE`` of requests,
    with the worst tick left out.

    A percentile of a tick's ~31 requests lands on the edge between its
    few misses and its many hits, and flips between them from run to
    run; the mean of the slowest tenth does not.  One tick in a few
    sometimes stalls for about a second on a 2-core host; leaving out
    the worst tick keeps that from swinging the run's figure."""
    per_tick: Dict[int, List[float]] = {}
    for op, latency in zip(ops, _latencies(ops)):
        per_tick.setdefault(op.tick, []).append(latency)
    tails = []
    for values in per_tick.values():
        slowest = sorted(values, reverse=True)[: max(1, round(TAIL_SHARE * len(values)))]
        tails.append(statistics.fmean(slowest))
    tails.sort()
    return statistics.fmean(tails[:-1] if len(tails) > 2 else tails)


def _tick_rates(ops: List[L.Op]) -> Dict[str, float]:
    """Closed-loop queries answered and events ingested per second.

    A tick spans from its ingest to the next tick's ingest; the last,
    unfinished tick and the slowest tick are left out.  Like
    :func:`_tick_tail`, dropping the slowest tick keeps a rare
    one-second stall from swinging the run's figure."""
    starts: Dict[int, float] = {}
    events: Dict[int, int] = {}
    answered: Dict[int, int] = {}
    for op in ops:
        if op.kind == "ingest":
            starts[op.tick] = op.sent
            events[op.tick] = len(op.body["events"]) if op.ok else 0
        elif op.ok:
            answered[op.tick] = answered.get(op.tick, 0) + op.queries
    ticks = sorted(starts)
    if len(ticks) < 2:
        raise RuntimeError("the closed loop finished fewer than two ticks")
    spans = sorted(((starts[n] - starts[t]), t) for t, n in zip(ticks, ticks[1:]))
    kept = spans[:-1] if len(spans) > 2 else spans
    seconds = sum(span for span, _ in kept)
    return {
        "queries": sum(answered.get(t, 0) for _, t in kept) / seconds,
        "events": sum(events[t] for _, t in kept) / seconds,
        "ticks": len(kept) / seconds,
    }


def overhead_basis(result: Dict) -> float:
    """Closed-loop seconds per answered query (tracing-overhead basis)."""
    return 1.0 / _tick_rates(result["closed_ops"])["queries"]


def summarize(result: Dict, trace: bool) -> Dict:
    from perfbench import metrics as M
    from perfbench import traceview as T

    plan = result["plan"]
    open_predicts = [op for op in result["open_ops"] if op.kind != "ingest"]
    latencies = _latencies(open_predicts)
    ingests = [op for op in result["open_ops"] + result["closed_ops"] if op.kind == "ingest"]
    ingest_rt = [op.done - op.sent for op in ingests if op.ok]
    closed = _tick_rates(result["closed_ops"])
    answered = sum(op.queries for op in result["closed_ops"] if op.ok)
    predict = C.summarize([1e3 * s for s in latencies], "ms")
    tail = predict.get("tail_percentile", 90)
    pooled_tail = 1e3 * C.quantile(sorted(latencies), tail / 100.0)
    e2e = {
        "setup_s": statistics.median(result["setup_times"]),
        "peak_rss_mb": result["peak_rss_mb"],
        "read_qps": closed["queries"],
        "read_p50_ms": predict["median"],
        "write_qps": closed["events"],
    }
    named = {
        "setup_s": C.summarize(result["setup_times"], "s"),
        "peak_rss_mb": {"unit": "MB", "n": 1, "value": result["peak_rss_mb"]},
        "failed_ratio": {"unit": "fraction", "n": result["attempted"],
                         "value": result["failed"] / result["attempted"]},
        "predict_p50_ms": predict,
        f"predict_p{tail}_ms": {"unit": "ms", "n": predict["n"], "value": pooled_tail},
        "predict_tick_slowest_tenth_ms": {
            "unit": "ms", "n": result["ticks"]["open"], "value": 1e3 * _tick_tail(open_predicts)},
        "ingest_p50_ms": C.summarize([1e3 * s for s in ingest_rt], "ms"),
        "predict_capacity_qps": C.rate(answered, result["closed_wall"], "q/s"),
        "offered_rate_rps": {"unit": "1/s", "n": len(open_predicts),
                             "value": plan.requests_per_tick / result["open_tick_s"]},
        "batch_share": {"unit": "fraction", "n": len(open_predicts), "value": plan.batch_share},
        "repeat_share": {"unit": "fraction", "n": len(open_predicts) + len(result["closed_ops"]),
                         "value": result["repeat_share"]},
        "ticks": {"unit": "count", "n": 2, "value": result["ticks"]},
    }
    out = {"e2e": e2e, "named": named, "checks": result["checks"]}
    if result.get("errors"):
        out["checks"] = dict(result["checks"], errors=result["errors"])
    if not trace:
        return out

    sources = [T.from_tracer(result["tracer"], 0), T.from_chrome(result["server_trace"], 1)]
    analysis = T.analyze(sources, T.CLIENT_SPANS)
    layers = M.span_layers(analysis)
    lates = [op.sent - op.due for op in result["open_ops"]]
    layers["loadgen.late_p99_ms"] = M.pct_ms(lates, 0.99)
    layers.update(_engine_layers(result["engine_stats"], result["workload"]))
    if result["workload"] == "serve-cluster":
        predicts = [op for op in result["open_ops"] + result["closed_ops"]
                    if op.kind != "ingest" and op.ok]
        partial = sum(1 for op in predicts if op.response.get("partial"))
        layers["router.partial_ratio"] = partial / len(predicts) if predicts else 0.0
    out.update(layers=layers, analysis=analysis)
    return out


def _engine_layers(stats: Dict, workload: str) -> Dict[str, float]:
    """Cache and batching ratios from the engines' own ``stats()``."""
    from perfbench import metrics as M

    engines = [stats] if workload == "serve" else stats["engines"]
    total = lambda path: sum(_dig(e, path) for e in engines)  # noqa: E731
    graph = {}
    for engine in engines:
        for key, value in engine["store"]["graph_caches"].items():
            graph[key] = graph.get(key, 0) + value
    batches = total("batching.batches")
    return {
        "engine.pred_cache_hit_ratio": M.hit_ratio(total("cache.hits"), total("cache.misses")),
        "engine.batch_mean": total("batching.batched_queries") / batches if batches else 0.0,
        "encode.state_cache_hit_ratio": M.hit_ratio(
            total("state_cache.hits"), total("state_cache.misses")),
        "window.graph_cache_hit_ratio": M.graph_cache_ratio(
            {k: v for k, v in graph.items() if not k.startswith("compiled_")}),
        "window.global_builds": float(graph.get("global_builds", 0)),
    }


def _dig(d: Dict, path: str) -> float:
    for key in path.split("."):
        d = (d or {}).get(key) or {}
    return float(d) if isinstance(d, (int, float)) else 0.0
