"""Serving benchmark: entity-sharded decode scaling at 1/2/4 workers.

End-to-end serving speed (HTTP ``/ingest`` + ``/predict``, single
process and through the router) is measured by ``perfbench/run.py``;
this file keeps the one row perfbench has no counterpart for.  Wall
clock on a few-core machine cannot show parallel gain, so the scaling
criterion uses *capacity* throughput — total queries divided by the
busiest worker's decode-busy seconds (the critical path if shards ran
on their own cores) — with the sequential one-core wall clock reported
alongside.  The result is one run-ledger record.
"""

import time

import numpy as np

from repro.baselines import build_model

from benchmarks.conftest import emit_bench, print_table


def test_cluster_decode_scaling(benchmark):
    """Entity-sharded decode capacity at 1/2/4 workers.

    Uses a vocabulary large enough (16384 entities) that range decode
    dominates the duplicated per-query embedding work, and calls each
    shard's ``partial_topk`` sequentially: ``capacity_qps`` treats the
    busiest shard as the critical path (what N real cores would give),
    ``seq_wall_qps`` is the honest one-core wall clock.
    """
    from repro.core.config import WindowConfig
    from repro.core.execution import merge_topk
    from repro.serving import OnlineHistoryStore, ShardEngine, partition_entities

    num_entities, num_relations, dim = 16384, 12, 16
    num_queries, top_k = 32, 10
    rng = np.random.default_rng(0)
    model = build_model("hisres", num_entities, num_relations, dim=dim)
    store = OnlineHistoryStore(
        num_entities, num_relations,
        window_config=WindowConfig(history_length=3, granularity=1),
    )
    for t in range(6):
        triples = np.stack([
            rng.integers(0, num_entities, 150),
            rng.integers(0, num_relations, 150),
            rng.integers(0, num_entities, 150),
        ], axis=1).astype(np.int64)
        store.ingest(triples, timestamp=t)
    store.flush()
    queries = [
        {"subject": 1 + (i * 37) % (num_entities - 1),
         "relation": i % num_relations, "top_k": top_k}
        for i in range(num_queries)
    ]

    rounds = 10

    def run():
        rows = []
        merged_by_workers = {}
        for num_workers in (1, 2, 4):
            # cache_entries=0 disables the prediction cache so every
            # round re-runs the decode; the encoder state stays cached
            # (the HisRES global graph is query-conditioned, so the
            # warm-up must use the SAME query batch as the measurement)
            engines = [
                ShardEngine(model, store, shard, model_key="hisres",
                            batch_window_s=0.0, cache_entries=0)
                for shard in partition_entities(num_entities, num_workers)
            ]
            for engine in engines:  # encode once, outside the measurement
                engine.partial_topk(queries)
                engine.decode_busy_s = 0.0
            start = time.perf_counter()
            for _ in range(rounds):
                partials = [engine.partial_topk(queries) for engine in engines]
            wall_s = time.perf_counter() - start
            merged_by_workers[num_workers] = [
                merge_topk(
                    [(np.asarray(p[q]["entities"]), np.asarray(p[q]["scores"]))
                     for p in partials],
                    top_k,
                )[0].tolist()
                for q in range(num_queries)
            ]
            total = num_queries * rounds
            busies = [engine.decode_busy_s for engine in engines]
            rows.append({
                "workers": num_workers,
                "capacity_qps": total / max(max(busies), 1e-9),
                "seq_wall_qps": total / max(wall_s, 1e-9),
                "max_busy_ms": max(busies) * 1e3,
                "total_busy_ms": sum(busies) * 1e3,
            })
        return rows, merged_by_workers

    rows, merged = benchmark.pedantic(run, rounds=1, iterations=1)
    print_table(
        "Extension: cluster decode scaling (16384 entities, capacity basis)",
        rows,
        columns=("workers", "capacity_qps", "seq_wall_qps",
                 "max_busy_ms", "total_busy_ms"),
    )
    by_workers = {r["workers"]: r for r in rows}
    scaling = {
        "basis": "capacity: queries / max per-shard decode-busy seconds "
                 "(see module docstring)",
        "num_entities": num_entities,
        "queries": num_queries,
        "rows": {
            str(w): {
                "capacity_qps": round(r["capacity_qps"], 2),
                "seq_wall_qps": round(r["seq_wall_qps"], 2),
                "max_busy_ms": round(r["max_busy_ms"], 3),
                "total_busy_ms": round(r["total_busy_ms"], 3),
            }
            for w, r in by_workers.items()
        },
        "capacity_speedup_4v1": round(
            by_workers[4]["capacity_qps"] / by_workers[1]["capacity_qps"], 3
        ),
    }
    emit_bench(
        "serving_cluster_scaling", {"cluster_scaling": scaling},
        dataset="synthetic-16384", model="hisres",
    )

    # shard-merged top-k must not depend on the shard count
    assert merged[2] == merged[1] and merged[4] == merged[1]
    assert by_workers[4]["capacity_qps"] >= 1.8 * by_workers[1]["capacity_qps"], (
        "4-way entity sharding should cut the per-worker decode critical "
        "path by well over the 1.8x acceptance floor"
    )
