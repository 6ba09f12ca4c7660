#!/usr/bin/env python3
"""A 2-shard serving cluster in one process, for the ``serve-cluster`` workload.

Builds one :class:`~repro.serving.shard.ShardEngine` per entity range
with :func:`~repro.serving.cluster.build_shard_engine` (sharing one
encoder-state tier directory), warms each store with the history
splits, and fronts them with :func:`~repro.serving.cluster.launch_local_cluster`.
Prints ``cluster router at URL`` once ready and serves until SIGTERM.
On shutdown it writes the engines' ``stats()`` and, with ``--trace``,
the process's one tracer as a Chrome trace.

    python3 perfbench/cluster_server.py CKPT --warmup DATA.tsv --state-dir DIR \
        --stats stats.json [--trace trace.json]
"""

import argparse
import json
import signal
import sys
import threading
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import common as C  # noqa: E402

SHARDS = 2


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="in-process 2-shard serving cluster")
    p.add_argument("checkpoint")
    p.add_argument("--warmup", required=True, help="TSV whose train+valid splits are replayed")
    p.add_argument("--state-dir", required=True)
    p.add_argument("--stats", required=True, help="where to write engine stats on shutdown")
    p.add_argument("--trace", default=None)
    args = p.parse_args(argv)

    C.bootstrap()
    from repro.data import load_tsv
    from repro.obs import disable_tracing, enable_tracing
    from repro.serving.cluster import build_shard_engine, launch_local_cluster

    if args.trace:
        from perfbench.probes import install_window_probes

        enable_tracing(reset=True, max_spans=1_000_000)
        install_window_probes()
    history = load_tsv(args.warmup)
    engines = []
    for index in range(SHARDS):
        engine = build_shard_engine(
            args.checkpoint, shard_index=index, num_shards=SHARDS, state_dir=args.state_dir
        )
        for split in (history.train, history.valid):
            engine.store.warm_up(split)
        engines.append(engine)
    cluster = launch_local_cluster(engines)

    stop = threading.Event()
    for sig in (signal.SIGTERM, signal.SIGINT):
        signal.signal(sig, lambda *_: stop.set())
    print(f"cluster router at {cluster.url}", flush=True)
    while not stop.wait(0.2):
        pass
    cluster.stop()
    with open(args.stats, "w") as fh:
        json.dump({"engines": [e.stats() for e in engines], "router": cluster.router.stats()},
                  fh, default=str)
    if args.trace:
        disable_tracing().write_chrome_trace(args.trace)
    return 0


if __name__ == "__main__":
    sys.exit(main())
