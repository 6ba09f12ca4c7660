"""Command-line interface: ``python -m repro.cli <command>``.

Commands:

- ``generate``  — write a synthetic dataset profile to TSV;
- ``stats``     — Table 2-style statistics of a profile or TSV file;
- ``train``     — train any registered model on a profile/TSV and
  report time-filtered test metrics (``--save`` checkpoints it);
- ``eval``      — evaluate a saved checkpoint on a dataset split;
- ``serve``     — run the online inference HTTP server from a checkpoint
  (``--workers N`` runs the sharded cluster: a router frontend + N
  entity-range decode workers sharing an encoder-state tier);
- ``ingest``    — stream events to a running server;
- ``predict``   — top-k query against a running server (or offline);
- ``profile``   — run a few train/eval steps under the op-level
  profiler; prints the per-op table and writes a Chrome trace;
- ``report``    — render the run ledger as trajectory tables with
  sparklines (``--markdown``/``--html`` write static reports);
- ``regress``   — compare the newest ledger run against its rolling
  baseline; exits 1 on regression;
- ``table2|table3|table4|figure5`` — regenerate a paper artifact;
- ``mechanisms``— per-mechanism capability profile of a model.

Global flags: ``--log-level`` wires the ``repro`` loggers to stderr;
``train``/``serve``/``profile`` accept ``--trace PATH`` to record spans
as Chrome ``trace_event`` JSON (load in chrome://tracing or Perfetto).

``train`` and ``eval`` append one schema'd record per run to the run
ledger (``runs/ledger.jsonl``; ``--ledger PATH`` overrides,
``--no-ledger`` disables) — see ``docs/run_ledger.md``.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
from typing import List, Optional

from repro.baselines import MODEL_REGISTRY
from repro.data import generate_dataset, get_profile, load_tsv, save_tsv


def _load_dataset(args):
    if args.dataset.endswith(".tsv"):
        return load_tsv(args.dataset)
    return generate_dataset(args.dataset)


def _fresh_trainer(args, dataset):
    """A Trainer over a new ``args.model``, its window flags from the registry."""
    from repro.baselines import build_model
    from repro.training import Trainer

    model = build_model(args.model, dataset.num_entities, dataset.num_relations, dim=args.dim)
    return Trainer(
        model, dataset, history_length=args.history_length,
        **MODEL_REGISTRY[args.model].window_flags(),
        learning_rate=args.lr, seed=args.seed,
    )


def cmd_generate(args) -> int:
    dataset = generate_dataset(args.profile, seed=args.seed)
    save_tsv(dataset, args.output)
    print(f"wrote {len(dataset)} facts to {args.output}")
    return 0


def cmd_stats(args) -> int:
    dataset = _load_dataset(args)
    stats = dataset.statistics()
    stats["repetition_ratio"] = round(dataset.repetition_ratio(), 3)
    print(json.dumps(stats, indent=2))
    return 0


def _finish_trace(path: Optional[str]) -> None:
    """Write and disable the global tracer if ``--trace`` was given."""
    if path:
        from repro.obs import disable_tracing

        disable_tracing().write_chrome_trace(path)
        print(f"wrote span trace to {path}", file=sys.stderr)


def _open_ledger(args):
    """Resolve ``--ledger``/``--no-ledger`` to a RunLedger (or None)."""
    if getattr(args, "no_ledger", False):
        return None
    from repro.obs.runs import RunLedger, default_ledger_path

    return RunLedger(getattr(args, "ledger", None) or default_ledger_path())


def cmd_train(args) -> int:
    from repro.experiments.runner import RunConfig, run_model_on_dataset
    from repro.obs.health import TrainingAborted

    if args.trace:
        from repro.obs import enable_tracing

        enable_tracing(reset=True)
    dataset = _load_dataset(args)
    config = RunConfig(
        dim=args.dim,
        history_length=args.history_length,
        epochs=args.epochs,
        patience=args.patience,
        learning_rate=args.lr,
        seed=args.seed,
        sampler=args.sampler,
        graph_cache_entries=args.graph_cache_entries,
    )
    try:
        row = run_model_on_dataset(
            args.model,
            dataset,
            config,
            save_path=args.save,
            ledger=_open_ledger(args),
            extra_record={"trace_path": args.trace},
        )
    except TrainingAborted as exc:
        print(f"ABORTED: {exc}", file=sys.stderr)
        if exc.bundle:
            print(f"diagnostic bundle: {exc.bundle}", file=sys.stderr)
        return 3
    finally:
        _finish_trace(args.trace)
    print(json.dumps(row, indent=2, default=float))
    return 0


def cmd_eval(args) -> int:
    """Evaluate a checkpointed model on a dataset split (no training)."""
    from repro.baselines import build_model
    from repro.core.config import WindowConfig
    from repro.nn.serialization import read_checkpoint_metadata, load_checkpoint
    from repro.training import TimelineEvaluator

    dataset = _load_dataset(args)
    meta = read_checkpoint_metadata(args.load_checkpoint)
    if "model" not in meta:
        raise SystemExit(
            f"checkpoint {args.load_checkpoint!r} has no serving metadata; "
            "re-save it with `repro.cli train --save`"
        )
    model = build_model(
        meta["model"], int(meta["num_entities"]), int(meta["num_relations"]),
        dim=int(meta.get("dim", 32)),
    )
    load_checkpoint(model, args.load_checkpoint)
    model.eval()
    window = meta.get("window") or {}
    overrides = {} if "history_length" in window else {"history_length": args.history_length}
    if args.graph_cache_entries is not None:
        overrides["cache_entries"] = args.graph_cache_entries
    window_config = WindowConfig.from_dict(window, **overrides)
    builder = window_config.build(dataset.num_entities, dataset.num_relations)
    evaluator = TimelineEvaluator(dataset)
    plan = evaluator.make_plan(model)
    if getattr(args, "sampler", None):
        from repro.core.execution import ScopedExecutionPlan
        from repro.training.loader import SamplerConfig

        sampler_config = SamplerConfig.parse(args.sampler)
        plan = ScopedExecutionPlan(plan, sampler_config.build(owner="eval"))
    if args.split == "test":
        warmup, split = (dataset.train, dataset.valid), dataset.test
    else:
        warmup, split = (dataset.train,), dataset.valid
    result = evaluator.evaluate_walk(
        model, builder, split, warmup_splits=warmup, plan=plan
    )
    walk_stats = dict(evaluator.last_walk_stats)
    payload = {
        "model": meta.get("model_name", meta["model"]),
        "checkpoint": args.load_checkpoint,
        "dataset": dataset.name,
        "split": args.split,
        "sampler": getattr(args, "sampler", None),
        "mrr": result.mrr * 100,
        "hits@1": result.hits(1) * 100,
        "hits@3": result.hits(3) * 100,
        "hits@10": result.hits(10) * 100,
        **walk_stats,
    }
    ledger = _open_ledger(args)
    if ledger is not None:
        metrics = {k: payload[k] for k in ("mrr", "hits@1", "hits@3", "hits@10")}
        # batched-walk accounting rides along so `repro regress` can
        # watch eval wall-clock and grouping efficiency over time
        metrics.update(walk_stats)
        record = ledger.append(
            kind="eval",
            model=str(meta["model"]),
            dataset=dataset.name,
            config={
                "split": args.split,
                "history_length": window_config.history_length,
                "sampler": getattr(args, "sampler", None),
            },
            metrics=metrics,
            extra={"checkpoint": args.load_checkpoint},
        )
        payload["run_id"] = record["run_id"]
    print(json.dumps(payload, indent=2, default=float))
    return 0


def _warm_store(store, warmup: Optional[str], warmup_splits: str) -> None:
    """Replay dataset splits into a history store as pre-serving history."""
    if not warmup:
        return
    if warmup.endswith(".tsv"):
        from repro.data import load_tsv

        warmup_dataset = load_tsv(warmup)
    else:
        warmup_dataset = generate_dataset(warmup)
    for split_name in warmup_splits.split(","):
        split_name = split_name.strip()
        if split_name:
            store.warm_up(getattr(warmup_dataset, split_name))


def _build_engine(args):
    """Shared serve/predict path: checkpoint -> warmed-up engine."""
    from repro.serving import InferenceEngine

    engine = InferenceEngine.from_checkpoint(
        args.checkpoint,
        cache_entries=args.cache_entries,
        state_cache_entries=args.state_cache_entries,
        graph_cache_entries=getattr(args, "graph_cache_entries", None),
    )
    _warm_store(engine.store, args.warmup, args.warmup_splits)
    return engine


def _cluster_config(args):
    """Map a ``serve --workers N`` argparse namespace onto a ClusterConfig."""
    from repro.serving import ClusterConfig

    return ClusterConfig(
        checkpoint=args.checkpoint,
        num_workers=args.workers,
        host=args.host,
        port=args.port,
        state_dir=args.state_dir,
        warmup=args.warmup,
        warmup_splits=args.warmup_splits,
        cache_entries=args.cache_entries,
        state_cache_entries=args.state_cache_entries,
        graph_cache_entries=getattr(args, "graph_cache_entries", None),
        verbose=args.verbose,
        trace=bool(getattr(args, "trace", None)),
        request_log_entries=getattr(args, "request_log_entries", 256),
    )


def _run_cluster(args) -> int:
    """Spawn workers + router and serve until SIGTERM/SIGINT drains."""
    from repro.serving import ClusterSupervisor
    from repro.serving.server import run_with_graceful_shutdown

    trace_path = getattr(args, "trace", None)
    if trace_path:
        # router-side tracing; workers get --trace-spans and return
        # their spans in /decode replies, so the trace written on
        # shutdown is the merged cross-process view
        from repro.obs import enable_tracing

        enable_tracing(reset=True)
    supervisor = ClusterSupervisor(_cluster_config(args))
    try:
        server = supervisor.start()
    except RuntimeError as exc:
        supervisor.stop()
        raise SystemExit(str(exc))
    print(
        f"cluster router at {server.url} "
        f"({args.workers} workers, state tier {supervisor.state_dir})  "
        "(Ctrl-C to drain and stop)",
        flush=True,
    )
    try:
        run_with_graceful_shutdown(server)
    finally:
        server.server_close()
        supervisor.stop()
        _finish_trace(trace_path)
    return 0


def _run_router_only(args) -> int:
    """Front pre-spawned workers: no subprocess spawn, no handshake.

    ``--worker-urls`` names ``repro.cli cluster-worker`` processes that
    are already running (other hosts, a process manager); their shard
    assignments are read back from ``GET /health`` and validated to
    tile the entity space before the router starts scattering.
    """
    from repro.serving import ClusterRouter, create_router_server
    from repro.serving.cluster import attach_workers
    from repro.serving.server import run_with_graceful_shutdown

    urls = [u.strip() for u in args.worker_urls.split(",") if u.strip()]
    try:
        workers = attach_workers(urls)
    except (RuntimeError, ValueError) as exc:
        raise SystemExit(str(exc))
    if args.trace:
        from repro.obs import enable_tracing

        enable_tracing(reset=True)
    router = ClusterRouter(workers)
    server = create_router_server(
        router,
        host=args.host,
        port=args.port,
        verbose=args.verbose,
        request_log_entries=getattr(args, "request_log_entries", 256),
    )
    print(
        f"cluster router at {server.url} fronting {len(workers)} "
        "pre-spawned workers  (Ctrl-C to drain and stop)",
        flush=True,
    )
    try:
        run_with_graceful_shutdown(server)
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
        _finish_trace(args.trace)
    return 0


def cmd_serve(args) -> int:
    from repro.serving import create_server
    from repro.serving.server import run_with_graceful_shutdown

    if getattr(args, "worker_urls", None):
        return _run_router_only(args)
    if args.checkpoint is None:
        raise SystemExit("serve needs a checkpoint (or --worker-urls)")
    if getattr(args, "workers", 1) > 1:
        return _run_cluster(args)
    if args.trace:
        from repro.obs import enable_tracing

        enable_tracing(reset=True)
    engine = _build_engine(args)
    server = create_server(
        engine,
        host=args.host,
        port=args.port,
        verbose=args.verbose,
        request_log_entries=getattr(args, "request_log_entries", 256),
    )
    print(f"serving {engine.model_key} at {server.url}  (Ctrl-C to stop)", flush=True)
    try:
        run_with_graceful_shutdown(server)
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
        _finish_trace(args.trace)
    return 0


def cmd_cluster_worker(args) -> int:
    """One decode worker process (spawned by the cluster supervisor).

    Prints a ``CLUSTER-WORKER-READY {json}`` handshake line carrying the
    bound URL + shard range, then serves until SIGTERM/SIGINT drains it.
    """
    import json as _json

    from repro.serving import create_worker_server
    from repro.serving.cluster import READY_PREFIX, build_shard_engine
    from repro.serving.server import run_with_graceful_shutdown

    if getattr(args, "trace_spans", False):
        # in-memory spans only: the router collects them over /decode
        # and owns the merged trace file
        from repro.obs import enable_tracing

        enable_tracing(reset=True)
    engine = build_shard_engine(
        args.checkpoint,
        shard_index=args.shard_index,
        num_shards=args.num_shards,
        state_dir=args.state_dir,
        cache_entries=args.cache_entries,
        state_cache_entries=args.state_cache_entries,
        graph_cache_entries=args.graph_cache_entries,
    )
    _warm_store(engine.store, args.warmup, args.warmup_splits)
    server = create_worker_server(
        engine,
        host=args.host,
        port=args.port,
        request_log_entries=getattr(args, "request_log_entries", 256),
    )
    print(
        READY_PREFIX
        + _json.dumps({"url": server.url, "shard": engine.shard.as_dict()}),
        flush=True,
    )
    try:
        run_with_graceful_shutdown(server)
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
    return 0


def cmd_ingest(args) -> int:
    from repro.serving import ServingClient

    if (args.tsv is None) == (args.events is None):
        raise SystemExit("provide exactly one of --tsv or --events")
    if args.tsv is not None:
        import numpy as np

        rows = np.loadtxt(args.tsv, dtype=int, delimiter="\t", ndmin=2).tolist()
    else:
        rows = json.loads(args.events)
    client = ServingClient(args.url)
    result = client.ingest(rows, timestamp=args.timestamp, flush=args.flush)
    print(json.dumps(result, indent=2))
    return 0


def cmd_predict(args) -> int:
    if (args.url is None) == (args.checkpoint is None):
        raise SystemExit("provide exactly one of --url or --checkpoint")
    if args.url is not None:
        from repro.serving import ServingClient

        result = ServingClient(args.url).predict(
            args.subject, args.relation, top_k=args.top_k, inverse=args.inverse
        )
    else:
        engine = _build_engine(args)
        result = {
            "subject": args.subject,
            "relation": args.relation,
            "inverse": args.inverse,
            "predictions": engine.predict(
                args.subject, args.relation, top_k=args.top_k, inverse=args.inverse
            ),
        }
    print(json.dumps(result, indent=2))
    return 0


def cmd_table(args) -> int:
    from repro.experiments import (
        table2_dataset_statistics,
        table3_main_results,
        table4_ablations,
    )
    from repro.experiments.runner import format_rows

    if args.command == "table2":
        rows = table2_dataset_statistics()
        columns = ("dataset", "entities", "relations", "training_facts",
                   "validation_facts", "testing_facts", "timestamps")
    elif args.command == "table3":
        rows = table3_main_results(datasets=args.datasets or None)
        columns = ("model", "dataset", "mrr", "hits@1", "hits@3", "hits@10")
    else:
        rows = table4_ablations(datasets=args.datasets or None)
        columns = ("model", "dataset", "mrr", "hits@1", "hits@3", "hits@10")
    print(format_rows(rows, columns=columns))
    return 0


def cmd_figure5(args) -> int:
    from repro.experiments import (
        figure5a_granularity_sensitivity,
        figure5b_layer_sensitivity,
    )
    from repro.experiments.runner import format_rows

    if args.panel == "a":
        rows = figure5a_granularity_sensitivity()
        print(format_rows(rows, columns=("granularity", "mrr", "hits@1", "hits@10")))
    else:
        rows = figure5b_layer_sensitivity()
        print(format_rows(rows, columns=("num_layers", "mrr", "hits@1", "hits@10")))
    return 0


def cmd_forecast(args) -> int:
    from repro.core import Forecaster

    dataset = _load_dataset(args)
    trainer = _fresh_trainer(args, dataset)
    trainer.fit(epochs=args.epochs, patience=args.patience)
    forecaster = Forecaster(
        trainer.model, dataset.num_entities, dataset.num_relations,
        window_config=trainer.window_config,
    )
    forecaster.warm_up(dataset.train)
    forecaster.warm_up(dataset.valid)
    predictions = forecaster.predict(args.subject, args.relation, top_k=args.top_k)
    print(json.dumps([p.__dict__ for p in predictions], indent=2))
    return 0


def cmd_degradation(args) -> int:
    from repro.analysis import history_dependence

    dataset = _load_dataset(args)
    trainer = _fresh_trainer(args, dataset)
    trainer.fit(epochs=args.epochs, patience=args.patience)
    summary = history_dependence(trainer.model, dataset, trainer.window_builder)
    print(json.dumps(summary, indent=2))
    return 0


def cmd_report(args) -> int:
    """Render the run ledger as trajectory tables."""
    from repro.obs.report import render_html, render_markdown, render_terminal
    from repro.obs.runs import RunLedger, default_ledger_path

    ledger = RunLedger(args.ledger or default_ledger_path())
    filters = dict(kind=args.kind, model=args.model, dataset=args.dataset, last=args.last)
    print(render_terminal(ledger, **filters))
    if args.markdown:
        with open(args.markdown, "w", encoding="utf-8") as handle:
            handle.write(render_markdown(ledger, **filters))
        print(f"wrote markdown report to {args.markdown}", file=sys.stderr)
    if args.html:
        with open(args.html, "w", encoding="utf-8") as handle:
            handle.write(render_html(ledger, **filters))
        print(f"wrote html report to {args.html}", file=sys.stderr)
    return 0


def cmd_regress(args) -> int:
    """Ledger regression check; exits 1 when a metric regressed."""
    from repro.obs.regress import main as regress_main

    argv = []
    for flag in ("ledger", "kind", "model", "dataset", "metrics"):
        value = getattr(args, flag)
        if value:
            argv.extend([f"--{flag}", str(value)])
    argv.extend(["--window", str(args.window)])
    return regress_main(argv)


def cmd_profile(args) -> int:
    """Run a few training (and optionally eval) steps under the profiler.

    Mirrors ``Trainer.train_epoch`` step-for-step but brackets each
    region with :meth:`OpProfiler.block` (window build, forward,
    backward, optimizer step, absorb) so that the per-op table accounts
    for essentially all of the step wall-clock, then writes the
    individual op invocations as a Chrome trace.
    """
    from repro.nn import clip_grad_norm_, no_grad
    from repro.obs import OpProfiler, enable_tracing, span

    dataset = _load_dataset(args)
    trainer = _fresh_trainer(args, dataset)
    model = trainer.model
    if args.trace:
        enable_tracing(reset=True)
    builder = trainer.window_builder
    builder.reset()
    items = sorted(dataset.train.facts_by_time().items())
    train_left = int(args.steps)
    eval_left = int(args.eval_steps)
    train_steps = eval_steps = 0
    prof = OpProfiler()
    # collect earlier garbage first: a collection it triggers mid-run
    # would land in whatever glue is running and skew the attribution
    gc.collect()
    with prof:
        for t, quads in items:
            if train_left <= 0 and eval_left <= 0:
                break
            with prof.block("queries"):
                queries = trainer.evaluator.queries_with_inverse(quads)
            if builder.history_filled and train_left > 0:
                model.train()
                with span("profile.train_step", t=int(t)), prof.block("train.step"):
                    with prof.block("window_build"):
                        window = builder.window_for(queries, prediction_time=t)
                    model.zero_grad()
                    with prof.block("forward"):
                        loss = model.loss(window, queries)
                    with prof.block("backward"):
                        loss.backward()
                    with prof.block("optimizer.step"):
                        clip_grad_norm_(model.parameters(), trainer.grad_clip)
                        trainer.optimizer.step()
                train_left -= 1
                train_steps += 1
            elif builder.history_filled and eval_left > 0:
                model.eval()
                with span("profile.eval_step", t=int(t)), prof.block("eval.step"):
                    with prof.block("window_build"):
                        window = builder.window_for(queries, prediction_time=t)
                    with no_grad(), prof.block("eval.predict"):
                        model.predict_entities(window, queries)
                eval_left -= 1
                eval_steps += 1
            with prof.block("absorb"):
                builder.absorb(quads)
    print(prof.format_table())
    prof.write_chrome_trace(args.output)
    print(
        f"profiled {train_steps} train + {eval_steps} eval steps; "
        f"wrote op trace to {args.output}",
        file=sys.stderr,
    )
    _finish_trace(args.trace)
    return 0


def cmd_mechanisms(args) -> int:
    from repro.analysis import per_mechanism_metrics

    profile = get_profile(args.dataset)
    dataset = generate_dataset(args.dataset)
    trainer = _fresh_trainer(args, dataset)
    trainer.fit(epochs=args.epochs, patience=args.patience)
    result = per_mechanism_metrics(trainer.model, dataset, profile, trainer.window_builder)
    print(json.dumps(result, indent=2))
    return 0


def _add_ledger_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--ledger", default=None, metavar="PATH",
                   help="run-ledger JSONL (default: runs/ledger.jsonl, "
                        "or $REPRO_RUN_LEDGER)")
    p.add_argument("--no-ledger", action="store_true",
                   help="do not append this run to the ledger")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    parser.add_argument(
        "--log-level", default=None, metavar="LEVEL",
        help="attach a stderr handler to the 'repro' loggers (DEBUG/INFO/WARNING/...)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write a synthetic profile to TSV")
    p.add_argument("profile")
    p.add_argument("output")
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("stats", help="dataset statistics")
    p.add_argument("dataset", help="profile name or .tsv path")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("train", help="train a registered model")
    p.add_argument("model", choices=sorted(MODEL_REGISTRY))
    p.add_argument("dataset", help="profile name or .tsv path")
    p.add_argument("--dim", type=int, default=32)
    p.add_argument("--epochs", type=int, default=20)
    p.add_argument("--patience", type=int, default=8)
    p.add_argument("--history-length", type=int, default=2)
    p.add_argument("--lr", type=float, default=0.01)
    p.add_argument("--seed", type=int, default=3)
    p.add_argument("--save", default=None, metavar="PATH",
                   help="checkpoint the trained model (weights + serving metadata)")
    p.add_argument("--sampler", default=None, metavar="SPEC",
                   help="neighbor-sampled mini-batch training, e.g. "
                        "'fanout=8,4;batch=128;seed=0' or just '8,4' "
                        "(default: full-graph one-step-per-snapshot)")
    p.add_argument("--graph-cache-entries", type=int, default=None, metavar="N",
                   help="WindowBuilder graph-cache LRU capacity "
                        "(default: builder default, 4096)")
    p.add_argument("--trace", default=None, metavar="PATH",
                   help="record training spans as Chrome trace_event JSON")
    _add_ledger_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a saved checkpoint (no training)")
    p.add_argument("dataset", help="profile name or .tsv path")
    p.add_argument("--load-checkpoint", required=True, metavar="PATH",
                   help="checkpoint written by `train --save`")
    p.add_argument("--split", choices=["valid", "test"], default="test")
    p.add_argument("--history-length", type=int, default=2,
                   help="fallback window length for metadata-less checkpoints")
    p.add_argument("--graph-cache-entries", type=int, default=None, metavar="N",
                   help="WindowBuilder graph-cache LRU capacity override")
    p.add_argument("--sampler", default=None, metavar="SPEC",
                   help="sampled evaluation walk via the neighbor sampler, e.g. "
                        "'fanout=8,4;seed=0' (exhaustive fanouts like 'fanout=full' "
                        "reproduce the full walk bitwise)")
    _add_ledger_flags(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("serve", help="run the online inference HTTP server")
    p.add_argument("checkpoint", nargs="?", default=None,
                   help="checkpoint written by `train --save` "
                        "(not needed with --worker-urls)")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8420)
    p.add_argument("--warmup", default=None,
                   help="profile name or .tsv to replay as history before serving")
    p.add_argument("--warmup-splits", default="train,valid",
                   help="comma-separated splits to replay (default: train,valid)")
    p.add_argument("--cache-entries", type=int, default=4096)
    p.add_argument("--state-cache-entries", type=int, default=8,
                   help="encoder-state LRU capacity beneath the prediction cache (0 disables)")
    p.add_argument("--graph-cache-entries", type=int, default=None, metavar="N",
                   help="WindowBuilder graph-cache LRU capacity override")
    p.add_argument("--workers", type=int, default=1,
                   help="decode worker processes; >1 runs the sharded cluster "
                        "(router + entity-range workers, see docs/serving_cluster.md)")
    p.add_argument("--worker-urls", default=None, metavar="URLS",
                   help="comma-separated URLs of pre-spawned cluster workers; "
                        "runs only the router frontend (no local spawn)")
    p.add_argument("--state-dir", default=None, metavar="DIR",
                   help="shared encoder-state tier directory for cluster workers "
                        "(default: a fresh temp dir)")
    p.add_argument("--verbose", action="store_true", help="log every request")
    p.add_argument("--trace", default=None, metavar="PATH",
                   help="record request spans; written on shutdown (with "
                        "--workers/--worker-urls: one merged cross-process trace)")
    p.add_argument("--request-log-entries", type=int, default=256, metavar="N",
                   help="per-request audit ring capacity for GET /debug/requests "
                        "(0 disables; default 256)")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser(
        "cluster-worker",
        help="one decode worker (spawned by the cluster supervisor)",
    )
    p.add_argument("checkpoint", help="checkpoint written by `train --save`")
    p.add_argument("--shard-index", type=int, required=True)
    p.add_argument("--num-shards", type=int, required=True)
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=0, help="0 auto-picks a port")
    p.add_argument("--state-dir", default=None, metavar="DIR",
                   help="shared encoder-state tier directory")
    p.add_argument("--warmup", default=None)
    p.add_argument("--warmup-splits", default="train,valid")
    p.add_argument("--cache-entries", type=int, default=4096)
    p.add_argument("--state-cache-entries", type=int, default=8)
    p.add_argument("--graph-cache-entries", type=int, default=None, metavar="N")
    p.add_argument("--trace-spans", action="store_true",
                   help="record spans in memory and return them on /decode "
                        "(the router merges and writes the trace file)")
    p.add_argument("--request-log-entries", type=int, default=256, metavar="N",
                   help="per-request audit ring capacity (0 disables)")
    p.set_defaults(func=cmd_cluster_worker)

    p = sub.add_parser("ingest", help="stream events to a running server")
    p.add_argument("--url", required=True, help="server base URL")
    p.add_argument("--tsv", default=None, help="4-column TSV of quadruples")
    p.add_argument("--events", default=None,
                   help='JSON list of [s, r, o] or [s, r, o, t] rows')
    p.add_argument("--timestamp", type=int, default=None)
    p.add_argument("--flush", action="store_true",
                   help="seal the open snapshot so it is queryable immediately")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("predict", help="top-k objects for one (s, r, ?) query")
    p.add_argument("subject", type=int)
    p.add_argument("relation", type=int)
    p.add_argument("--url", default=None, help="query a running server")
    p.add_argument("--checkpoint", default=None,
                   help="offline mode: load this checkpoint locally")
    p.add_argument("--warmup", default=None,
                   help="offline mode: profile/.tsv history to replay")
    p.add_argument("--warmup-splits", default="train,valid")
    p.add_argument("--cache-entries", type=int, default=4096)
    p.add_argument("--state-cache-entries", type=int, default=8,
                   help="encoder-state LRU capacity beneath the prediction cache (0 disables)")
    p.add_argument("--graph-cache-entries", type=int, default=None, metavar="N",
                   help="WindowBuilder graph-cache LRU capacity override")
    p.add_argument("--top-k", type=int, default=10)
    p.add_argument("--inverse", action="store_true",
                   help="rank subjects of (?, r, o) instead")
    p.set_defaults(func=cmd_predict)

    for name in ("table2", "table3", "table4"):
        p = sub.add_parser(name, help=f"regenerate {name}")
        p.add_argument("--datasets", nargs="*", default=None)
        p.set_defaults(func=cmd_table)

    p = sub.add_parser("figure5", help="regenerate figure 5")
    p.add_argument("panel", choices=["a", "b"])
    p.set_defaults(func=cmd_figure5)

    p = sub.add_parser("profile", help="profile a few train/eval steps per op")
    p.add_argument("model", nargs="?", default="hisres", choices=sorted(MODEL_REGISTRY))
    p.add_argument("dataset", nargs="?", default="unit_tiny",
                   help="profile name or .tsv path (default: unit_tiny)")
    p.add_argument("--steps", type=int, default=8,
                   help="training steps (timestamps) to profile")
    p.add_argument("--eval-steps", type=int, default=0,
                   help="additional no-grad prediction steps to profile")
    p.add_argument("--dim", type=int, default=32)
    p.add_argument("--history-length", type=int, default=2)
    p.add_argument("--lr", type=float, default=0.01)
    p.add_argument("--seed", type=int, default=3)
    p.add_argument("--output", default="profile.json", metavar="PATH",
                   help="Chrome trace_event JSON of individual op calls")
    p.add_argument("--trace", default=None, metavar="PATH",
                   help="also record coarse spans to this path")
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser("mechanisms", help="per-mechanism capability profile")
    p.add_argument("model", choices=sorted(MODEL_REGISTRY))
    p.add_argument("dataset", help="profile name")
    p.add_argument("--dim", type=int, default=32)
    p.add_argument("--epochs", type=int, default=20)
    p.add_argument("--patience", type=int, default=8)
    p.add_argument("--history-length", type=int, default=2)
    p.add_argument("--lr", type=float, default=0.01)
    p.add_argument("--seed", type=int, default=3)
    p.set_defaults(func=cmd_mechanisms)

    p = sub.add_parser("forecast", help="train, then rank objects for one query")
    p.add_argument("model", choices=sorted(MODEL_REGISTRY))
    p.add_argument("dataset", help="profile name or .tsv path")
    p.add_argument("subject", type=int)
    p.add_argument("relation", type=int)
    p.add_argument("--top-k", type=int, default=10)
    p.add_argument("--dim", type=int, default=32)
    p.add_argument("--epochs", type=int, default=20)
    p.add_argument("--patience", type=int, default=8)
    p.add_argument("--history-length", type=int, default=2)
    p.add_argument("--lr", type=float, default=0.01)
    p.add_argument("--seed", type=int, default=3)
    p.set_defaults(func=cmd_forecast)

    p = sub.add_parser(
        "report",
        help="render the run ledger as trajectory tables with sparklines",
    )
    p.add_argument("--ledger", default=None, metavar="PATH",
                   help="run-ledger JSONL (default: runs/ledger.jsonl)")
    p.add_argument("--kind", default=None, help="filter: train/eval/bench/seed/multiseed")
    p.add_argument("--model", default=None)
    p.add_argument("--dataset", default=None)
    p.add_argument("--last", type=int, default=20, help="rows per group table")
    p.add_argument("--markdown", default=None, metavar="PATH",
                   help="also write a Markdown report")
    p.add_argument("--html", default=None, metavar="PATH",
                   help="also write a static HTML report")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser(
        "regress",
        help="compare the newest ledger run against its rolling baseline (exit 1 on regression)",
    )
    p.add_argument("--ledger", default=None, metavar="PATH")
    p.add_argument("--kind", default=None)
    p.add_argument("--model", default=None)
    p.add_argument("--dataset", default=None)
    p.add_argument("--window", type=int, default=8,
                   help="baseline runs for the rolling median")
    p.add_argument("--metrics", default=None,
                   help="comma-separated metric names to judge")
    p.set_defaults(func=cmd_regress)

    p = sub.add_parser("degradation", help="single-step vs frozen-history MRR")
    p.add_argument("model", choices=sorted(MODEL_REGISTRY))
    p.add_argument("dataset", help="profile name or .tsv path")
    p.add_argument("--dim", type=int, default=32)
    p.add_argument("--epochs", type=int, default=20)
    p.add_argument("--patience", type=int, default=8)
    p.add_argument("--history-length", type=int, default=2)
    p.add_argument("--lr", type=float, default=0.01)
    p.add_argument("--seed", type=int, default=3)
    p.set_defaults(func=cmd_degradation)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.log_level:
        from repro.obs import configure_logging

        configure_logging(args.log_level)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
