"""Serving benchmark: entity-sharded decode scaling at 1/2/4 workers.

End-to-end serving speed (HTTP ``/ingest`` + ``/predict``, single
process and through the router) is measured by ``perfbench/run.py``;
this file keeps the one row perfbench has no counterpart for.  Wall
clock on a few-core machine cannot show parallel gain, so the scaling
criterion uses *capacity* throughput — the batch's queries divided by
the busiest worker's decode-busy seconds in the median timed round (the
critical path if shards ran on their own cores) — with the sequential
one-core wall clock reported alongside.  Every shard count gets the
same untimed warm-up on the same query batch, and the shard counts
alternate within each timed round.  The result is one run-ledger
record.
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
    busiest shard as the critical path (what N real cores would give)
    and takes the median over rounds, ``seq_wall_qps`` is the honest
    one-core wall clock.
    """
    from repro.core.config import WindowConfig
    from repro.core.execution import merge_topk
    from repro.obs.metrics import get_registry
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

    warm_rounds, rounds, counts = 2, 30, (1, 2, 4)

    def run():
        # cache_entries=0 disables the prediction cache so every round
        # re-runs the decode; the encoder state stays cached
        clusters = {
            n: [
                ShardEngine(model, store, shard, model_key="hisres", cache_entries=0)
                for shard in partition_entities(num_entities, n)
            ]
            for n in counts
        }
        decode_seconds = get_registry().get("repro_shard_decode_seconds_total")

        def decode_busy(engine):
            # the engine's own registry child: its shard and instance
            return decode_seconds.labels(
                shard=engine.shard.index, instance=engine.instance
            ).value

        critical_s = {n: [] for n in counts}  # busiest shard's decode s, per round
        busy_s = {n: 0.0 for n in counts}
        wall_s = {n: 0.0 for n in counts}
        partials = {}
        # every shard count gets the same untimed warm-up rounds on the
        # SAME query batch as the measurement (the HisRES global graph
        # is query-conditioned), so encodes and first-touch costs stay
        # out of the timed rounds; the counts alternate within each
        # round, so a slow stretch of the machine hits all of them
        for round_index in range(warm_rounds + rounds):
            for n, engines in clusters.items():
                before = [decode_busy(engine) for engine in engines]
                start = time.perf_counter()
                partials[n] = [engine.partial_topk(queries) for engine in engines]
                if round_index < warm_rounds:
                    continue
                wall_s[n] += time.perf_counter() - start
                busy = [decode_busy(engine) - b for engine, b in zip(engines, before)]
                critical_s[n].append(max(busy))
                busy_s[n] += sum(busy)
        rows = []
        for n in counts:
            # the median round, so one descheduled round cannot set the ratio
            median_s = float(np.median(critical_s[n]))
            rows.append({
                "workers": n,
                "capacity_qps": num_queries / max(median_s, 1e-9),
                "seq_wall_qps": num_queries * rounds / max(wall_s[n], 1e-9),
                "critical_ms_p50": median_s * 1e3,
                "critical_ms_max": max(critical_s[n]) * 1e3,
                "total_busy_ms": busy_s[n] * 1e3,
            })
        merged_by_workers = {
            n: [
                merge_topk(
                    [(np.asarray(p[q]["entities"]), np.asarray(p[q]["scores"]))
                     for p in partials[n]],
                    top_k,
                )[0].tolist()
                for q in range(num_queries)
            ]
            for n in counts
        }
        return rows, merged_by_workers

    rows, merged = benchmark.pedantic(run, rounds=1, iterations=1)
    print_table(
        "Extension: cluster decode scaling (16384 entities, capacity basis)",
        rows,
        columns=("workers", "capacity_qps", "seq_wall_qps",
                 "critical_ms_p50", "critical_ms_max", "total_busy_ms"),
    )
    by_workers = {r["workers"]: r for r in rows}
    scaling = {
        "basis": "capacity: queries / median over rounds of the busiest "
                 "shard's decode-busy seconds (see module docstring)",
        "num_entities": num_entities,
        "queries": num_queries,
        "rows": {
            str(w): {
                "capacity_qps": round(r["capacity_qps"], 2),
                "seq_wall_qps": round(r["seq_wall_qps"], 2),
                "critical_ms_p50": round(r["critical_ms_p50"], 3),
                "critical_ms_max": round(r["critical_ms_max"], 3),
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
