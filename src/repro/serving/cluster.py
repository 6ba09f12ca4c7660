"""Cluster assembly: spawn workers, supervise them, wire the router.

Topology (see ``docs/serving_cluster.md``):

- one :class:`~repro.serving.router.RouterServer` frontend;
- N ``repro.cli cluster-worker`` subprocesses, each a
  :class:`~repro.serving.shard.ShardEngine` over one contiguous entity
  range, sharing encoder states through a
  :class:`~repro.serving.state_tier.SharedEncoderStateStore` directory;
- a :class:`ClusterSupervisor` that performs the spawn handshake
  (workers print a ``CLUSTER-WORKER-READY`` line with their bound URL),
  monitors liveness, restarts dead workers, replays the router's ingest
  journal into restarts, and revives them in the scatter set.

:func:`launch_local_cluster` builds the same wiring from in-process
worker threads — the parity/degradation tests use it to compare a
cluster against a single-process engine without subprocess overhead.
"""

from __future__ import annotations

import json
import logging
import os
import subprocess
import sys
import tempfile
import threading
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.nn.serialization import read_checkpoint_metadata
from repro.serving.audit import AUDIT_DEFAULT_CAPACITY
from repro.serving.engine import load_served_model
from repro.serving.router import (
    ClusterRouter,
    RouterServer,
    WorkerRef,
    create_router_server,
)
from repro.serving.shard import (
    EntityShard,
    ShardEngine,
    ShardWorkerServer,
    create_worker_server,
    partition_entities,
)
from repro.serving.state_tier import SharedEncoderStateStore, TieredStateCache

READY_PREFIX = "CLUSTER-WORKER-READY "

logger = logging.getLogger("repro.serving.cluster")


@dataclass
class ClusterConfig:
    """Everything needed to stand up router + workers from a checkpoint."""

    checkpoint: str
    num_workers: int = 2
    host: str = "127.0.0.1"
    port: int = 8420
    state_dir: Optional[str] = None
    warmup: Optional[str] = None
    warmup_splits: str = "train,valid"
    cache_entries: int = 4096
    state_cache_entries: int = 8
    graph_cache_entries: Optional[int] = None
    request_timeout_s: float = 30.0
    ready_timeout_s: float = 120.0
    restart_limit: int = 3
    monitor_interval_s: float = 0.5
    verbose: bool = False
    trace: bool = False
    request_log_entries: int = AUDIT_DEFAULT_CAPACITY
    metrics_ttl_s: float = 5.0


def build_shard_engine(
    checkpoint: str,
    shard_index: int,
    num_shards: int,
    state_dir: Optional[str] = None,
    cache_entries: int = 4096,
    state_cache_entries: int = 8,
    graph_cache_entries: Optional[int] = None,
) -> ShardEngine:
    """Checkpoint -> one worker's :class:`ShardEngine`.

    Loads like :meth:`InferenceEngine.from_checkpoint` (one
    :func:`~repro.serving.engine.load_served_model`) but restricts decode
    to shard ``shard_index`` of ``num_shards`` and, when ``state_dir``
    is given, stacks a :class:`TieredStateCache` over the shared
    encoder-state directory so sibling workers encode each window once.
    """
    model, store, meta = load_served_model(checkpoint, graph_cache_entries)
    shard = partition_entities(store.num_entities, num_shards)[shard_index]
    owner = f"shard{shard_index}"
    state_cache = None
    if state_dir and state_cache_entries:
        state_cache = TieredStateCache(
            SharedEncoderStateStore(state_dir, owner=owner),
            capacity=state_cache_entries,
            owner=owner,
        )
    return ShardEngine(
        model,
        store,
        shard,
        model_key=meta["model"],
        cache_entries=cache_entries,
        metadata=meta,
        state_cache_entries=state_cache_entries,
        state_cache=state_cache,
    )


def attach_workers(
    urls: Sequence[str], timeout_s: float = 30.0
) -> List[tuple]:
    """Probe pre-spawned shard workers and derive the router wiring.

    Each worker's ``GET /health`` response carries its shard assignment
    (``{"shard": {"index", "num_shards", "lo", "hi"}}``); the pairs are
    sorted by shard index and validated to be one contiguous cover of
    ``[0, num_entities)`` before they reach the
    :class:`~repro.serving.router.ClusterRouter`.  This is the
    ``repro serve --worker-urls`` path: the router fronts workers that
    were started elsewhere (other hosts, a process manager) instead of
    spawning localhost subprocesses through the supervisor handshake.

    Returns ``(url, EntityShard)`` pairs ready for ``ClusterRouter``.
    Raises :class:`RuntimeError` when a worker is unreachable, is not a
    shard worker, or the declared shards do not tile the entity space.
    """
    from repro.serving.client import ServingClient, ServingError

    if not urls:
        raise ValueError("attach_workers needs at least one worker URL")
    pairs = []
    for url in urls:
        url = url.rstrip("/")
        try:
            health = ServingClient(url, timeout=timeout_s).health()
        except (ServingError, OSError) as exc:
            raise RuntimeError(f"worker {url} is unreachable: {exc}") from exc
        shard_dict = health.get("shard")
        if not isinstance(shard_dict, dict):
            raise RuntimeError(
                f"worker {url} reports no shard assignment "
                f"(role={health.get('role')!r}); point --worker-urls at "
                "`repro.cli cluster-worker` processes"
            )
        try:
            shard = EntityShard(**{k: int(v) for k, v in shard_dict.items()})
        except TypeError as exc:
            raise RuntimeError(f"worker {url} sent a malformed shard: {shard_dict!r}") from exc
        pairs.append((url, shard))
    pairs.sort(key=lambda pair: pair[1].index)
    shards = [shard for _, shard in pairs]
    declared = {shard.num_shards for shard in shards}
    if declared != {len(shards)}:
        raise RuntimeError(
            f"workers disagree on cluster size: {len(shards)} URLs given but "
            f"shards declare num_shards={sorted(declared)}"
        )
    indices = [shard.index for shard in shards]
    if indices != list(range(len(shards))):
        raise RuntimeError(
            f"shard indices {indices} are not a permutation of 0..{len(shards) - 1}"
        )
    lo = 0
    for shard in shards:
        if shard.lo != lo:
            raise RuntimeError(
                f"shard {shard.index} covers [{shard.lo}, {shard.hi}) where "
                f"[{lo}, ...) was expected — entity ranges must tile "
                "[0, num_entities) contiguously"
            )
        lo = shard.hi
    return pairs


# ----------------------------------------------------------------------
# subprocess workers
# ----------------------------------------------------------------------
class _StdoutWatcher(threading.Thread):
    """Drain a worker's stdout, capturing the READY handshake line."""

    def __init__(self, proc: subprocess.Popen):
        super().__init__(daemon=True)
        self.proc = proc
        self.ready = threading.Event()
        self.payload: Optional[Dict] = None

    def run(self) -> None:
        stream = self.proc.stdout
        if stream is None:
            return
        for line in stream:
            if line.startswith(READY_PREFIX) and not self.ready.is_set():
                try:
                    self.payload = json.loads(line[len(READY_PREFIX):])
                except json.JSONDecodeError:
                    self.payload = None
                self.ready.set()
        # keep draining until EOF so the pipe can never block the worker


class WorkerProcess:
    """One spawned ``cluster-worker`` subprocess + its handshake result."""

    def __init__(self, proc: subprocess.Popen, url: str, shard: EntityShard):
        self.proc = proc
        self.url = url
        self.shard = shard

    @property
    def alive(self) -> bool:
        return self.proc.poll() is None

    def terminate(self, timeout: float = 5.0) -> None:
        if not self.alive:
            return
        self.proc.terminate()  # SIGTERM -> graceful drain in the worker
        try:
            self.proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait(timeout=timeout)


def spawn_worker(
    config: ClusterConfig, shard_index: int, state_dir: str
) -> WorkerProcess:
    """Start one worker subprocess and wait for its READY line."""
    import repro

    cmd = [
        sys.executable,
        "-m",
        "repro.cli",
        "cluster-worker",
        config.checkpoint,
        "--shard-index", str(shard_index),
        "--num-shards", str(config.num_workers),
        "--host", config.host,
        "--port", "0",
        "--state-dir", state_dir,
        "--cache-entries", str(config.cache_entries),
        "--state-cache-entries", str(config.state_cache_entries),
        "--request-log-entries", str(config.request_log_entries),
    ]
    if config.trace:
        cmd += ["--trace-spans"]
    if config.graph_cache_entries is not None:
        cmd += ["--graph-cache-entries", str(config.graph_cache_entries)]
    if config.warmup:
        cmd += ["--warmup", config.warmup, "--warmup-splits", config.warmup_splits]
    env = dict(os.environ)
    package_root = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (package_root, env.get("PYTHONPATH")) if p
    )
    proc = subprocess.Popen(
        cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, env=env
    )
    watcher = _StdoutWatcher(proc)
    watcher.start()
    if not watcher.ready.wait(timeout=config.ready_timeout_s) or watcher.payload is None:
        proc.kill()
        raise RuntimeError(
            f"cluster worker {shard_index} did not hand shake within "
            f"{config.ready_timeout_s:.0f}s"
        )
    payload = watcher.payload
    shard = EntityShard(**payload["shard"])
    return WorkerProcess(proc, payload["url"], shard)


class ClusterSupervisor:
    """Owns the worker subprocesses and the router's view of them.

    Liveness: a monitor thread polls worker processes every
    ``monitor_interval_s``; a dead worker is restarted (bounded by
    ``restart_limit`` per shard), the router's ingest journal is
    replayed into it, and its :class:`WorkerRef` is revived so the next
    scatter includes it.  The router's ``on_failure`` hook feeds
    request-path failures into the same restart machinery.
    """

    def __init__(self, config: ClusterConfig):
        self.config = config
        meta = read_checkpoint_metadata(config.checkpoint)
        self.num_entities = int(meta["num_entities"])
        self.shards = partition_entities(self.num_entities, config.num_workers)
        self.state_dir = config.state_dir or tempfile.mkdtemp(prefix="repro-state-tier-")
        self.processes: Dict[int, WorkerProcess] = {}
        self.restarts: Dict[int, int] = {}
        self.router: Optional[ClusterRouter] = None
        self.server: Optional[RouterServer] = None
        self._stopping = threading.Event()
        self._monitor: Optional[threading.Thread] = None
        self._restart_lock = threading.Lock()

    # ------------------------------------------------------------------
    def start(self) -> RouterServer:
        """Spawn all workers, build the router, start the monitor."""
        for shard in self.shards:
            self.processes[shard.index] = spawn_worker(
                self.config, shard.index, self.state_dir
            )
        self.router = ClusterRouter(
            [(p.url, p.shard) for p in self.processes.values()],
            timeout_s=self.config.request_timeout_s,
            on_failure=self._on_scatter_failure,
        )
        self.server = create_router_server(
            self.router,
            host=self.config.host,
            port=self.config.port,
            verbose=self.config.verbose,
            request_log_entries=self.config.request_log_entries,
            metrics_ttl_s=self.config.metrics_ttl_s,
        )
        self._monitor = threading.Thread(target=self._monitor_loop, daemon=True)
        self._monitor.start()
        return self.server

    def _worker_ref(self, shard_index: int) -> Optional[WorkerRef]:
        if self.router is None:
            return None
        for ref in self.router.workers:
            if ref.shard.index == shard_index:
                return ref
        return None

    def _on_scatter_failure(self, worker: WorkerRef) -> None:
        """Router saw a worker fail a request (after retry)."""
        logger.warning("shard %d failed a scatter leg", worker.shard.index)
        # the monitor thread notices the dead process and restarts it;
        # a *hung* (still-running) process is killed so the restart path
        # has something to restart
        proc = self.processes.get(worker.shard.index)
        if proc is not None and proc.alive:
            proc.proc.kill()

    def _monitor_loop(self) -> None:
        while not self._stopping.wait(self.config.monitor_interval_s):
            for shard_index, proc in list(self.processes.items()):
                if not proc.alive and not self._stopping.is_set():
                    self._restart(shard_index)

    def _restart(self, shard_index: int) -> bool:
        with self._restart_lock:
            proc = self.processes.get(shard_index)
            if proc is not None and proc.alive:
                return True  # already restarted by another path
            used = self.restarts.get(shard_index, 0)
            if used >= self.config.restart_limit:
                logger.error(
                    "shard %d exceeded restart limit (%d); leaving it down",
                    shard_index, self.config.restart_limit,
                )
                return False
            self.restarts[shard_index] = used + 1
            logger.warning("restarting shard %d (attempt %d)", shard_index, used + 1)
            try:
                replacement = spawn_worker(self.config, shard_index, self.state_dir)
            except RuntimeError:
                logger.error("shard %d failed to respawn", shard_index)
                return False
            self.processes[shard_index] = replacement
            self._replay_journal(replacement)
            ref = self._worker_ref(shard_index)
            if ref is not None and self.router is not None:
                self.router.revive(ref, url=replacement.url)
            return True

    def _replay_journal(self, proc: WorkerProcess) -> None:
        """Re-send every accepted ingest body so history converges."""
        if self.router is None:
            return
        from repro.serving.client import ServingClient, ServingError

        client = ServingClient(proc.url, timeout=self.config.request_timeout_s)
        for body in self.router.journal.entries():
            try:
                client.post("/ingest", body)
            except ServingError:
                logger.error("journal replay failed for shard %d", proc.shard.index)
                return

    def stop(self) -> None:
        self._stopping.set()
        if self._monitor is not None:
            self._monitor.join(timeout=2.0)
        for proc in self.processes.values():
            proc.terminate()
        if self.router is not None:
            self.router.close()


# ----------------------------------------------------------------------
# in-process cluster (tests, notebooks)
# ----------------------------------------------------------------------
@dataclass
class LocalCluster:
    """In-process router + worker-thread cluster (see ``launch_local_cluster``)."""

    router: ClusterRouter
    server: RouterServer
    worker_servers: List[ShardWorkerServer]
    threads: List[threading.Thread] = field(default_factory=list)

    @property
    def url(self) -> str:
        return self.server.url

    def kill_worker(self, shard_index: int) -> None:
        """Simulate a worker crash: stop its HTTP server abruptly."""
        for ws in self.worker_servers:
            if ws.engine.shard.index == shard_index:
                ws.shutdown()
                ws.server_close()
                return
        raise ValueError(f"no worker owns shard {shard_index}")

    def stop(self) -> None:
        self.server.shutdown()
        self.server.server_close()
        for ws in self.worker_servers:
            try:
                ws.shutdown()
                ws.server_close()
            except OSError:
                pass


def launch_local_cluster(
    engines: Sequence[ShardEngine],
    host: str = "127.0.0.1",
    port: int = 0,
    timeout_s: float = 30.0,
    on_failure=None,
    request_log_entries: int = AUDIT_DEFAULT_CAPACITY,
    metrics_ttl_s: float = 0.0,
) -> LocalCluster:
    """Wire ready-made shard engines into a threaded cluster.

    Every engine gets its own :class:`ShardWorkerServer` on a daemon
    thread, and a router frontend scatters across them — the full HTTP
    path (JSON round-trips included) without subprocess start-up cost.
    ``metrics_ttl_s`` defaults to 0 (scrape on every render) so tests
    read fresh federated values.
    """
    worker_servers: List[ShardWorkerServer] = []
    threads: List[threading.Thread] = []
    for engine in engines:
        ws = create_worker_server(engine, host=host, port=0)
        thread = threading.Thread(target=ws.serve_forever, daemon=True)
        thread.start()
        worker_servers.append(ws)
        threads.append(thread)
    router = ClusterRouter(
        [(ws.url, ws.engine.shard) for ws in worker_servers],
        timeout_s=timeout_s,
        on_failure=on_failure,
    )
    server = create_router_server(
        router,
        host=host,
        port=port,
        request_log_entries=request_log_entries,
        metrics_ttl_s=metrics_ttl_s,
    )
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    threads.append(thread)
    return LocalCluster(
        router=router, server=server, worker_servers=worker_servers, threads=threads
    )
