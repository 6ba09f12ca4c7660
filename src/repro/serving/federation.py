"""Router-side metrics federation: one scrape describes the cluster.

The sharded tier puts interesting counters (decode requests, predict
calls, cache hits) inside worker processes — invisible to anyone
scraping only the router.  :class:`ClusterMetricsFederator` is a
registry collector on the router's ``/metrics``: on a TTL it scrapes
each live worker's ``/metrics``, parses the exposition text
(:func:`repro.obs.metrics.parse_prometheus_text`), and re-exports every
worker counter/gauge as an aggregated ``repro_cluster_*`` gauge family:

- one child per shard (``shard="0"``, ``shard="1"``, ...),
- plus ``shard="sum"`` and ``shard="max"`` aggregate children per
  remaining-label group,

so ``repro_engine_predict_calls_total`` on the workers becomes
``repro_cluster_engine_predict_calls_total{shard="sum"}`` (and
friends) on the router.  The per-object ``instance`` label is folded
away by summing within each worker, so a shard's value covers every
cache or engine instance living in that worker.  Histogram families are skipped (their
per-shard ``repro_cluster_scatter_seconds`` views already live on the
router) and so is anything already ``repro_cluster_``-prefixed, since
re-ingesting our own output would feed back.

Workers that share the router's registry (the in-process cluster of
:func:`~repro.serving.cluster.launch_local_cluster`) each render the
whole process's series, every sibling's included.  Such a scrape is
recognisable by the router's own ``repro_cluster_*`` families in it.
Its series are counted once across all shared scrapes, and attributed
to a shard only when they carry a ``shard`` label; the others feed
``shard="sum"`` alone (no per-shard or ``max`` child), so every
federated sum equals the registry's own total.

Re-entrancy: in that shared-registry setup, scraping a worker's
``/metrics`` re-runs this very collector on the worker's handler
thread.  A non-blocking lock makes the nested run a no-op instead of a
recursive scrape storm.

Federated values are gauges, not counters: a restarted worker resets
its counters, so the cluster-wide sum can legitimately decrease.
"""

from __future__ import annotations

import math
import threading
import time
from typing import TYPE_CHECKING, Dict, Optional, Set, Tuple

from repro.obs.metrics import MetricsRegistry, parse_prometheus_text

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (router imports us)
    from repro.serving.router import ClusterRouter

__all__ = ["ClusterMetricsFederator", "federated_name"]

FEDERATED_PREFIX = "repro_cluster_"

#: Aggregate pseudo-shards exported next to the real per-shard children.
AGGREGATE_SHARDS = ("sum", "max")


def federated_name(name: str) -> str:
    """Worker-metric name → router-side federated family name."""
    if name.startswith(FEDERATED_PREFIX):
        return name
    if name.startswith("repro_"):
        return FEDERATED_PREFIX + name[len("repro_"):]
    return FEDERATED_PREFIX + name


class ClusterMetricsFederator:
    """TTL-cached scraper re-exporting worker metrics from the router."""

    def __init__(
        self,
        router: "ClusterRouter",
        registry: MetricsRegistry,
        ttl_s: float = 5.0,
    ):
        self.router = router
        self.registry = registry
        self.ttl_s = float(ttl_s)
        self._scrape_lock = threading.Lock()
        self._last_scrape = -float("inf")
        self._scrapes = registry.counter(
            "repro_cluster_scrapes_total",
            "Worker /metrics scrapes attempted by the federator.",
            labelnames=("shard",),
        )
        self._scrape_failures = registry.counter(
            "repro_cluster_scrape_failures_total",
            "Worker /metrics scrapes that failed.",
            labelnames=("shard",),
        )
        self._live_workers = registry.gauge(
            "repro_cluster_live_workers",
            "Workers the router currently considers alive.",
        )
        self._scrape_age = registry.gauge(
            "repro_cluster_scrape_age_seconds",
            "Seconds since the last successful federation sweep.",
        )

    # ------------------------------------------------------------------
    def collect(self) -> None:
        """Registry-collector hook: refresh federated families on TTL."""
        if not self._scrape_lock.acquire(blocking=False):
            return  # nested scrape (shared-registry worker render): skip
        try:
            now = time.monotonic()
            self._live_workers.set(len(self.router.live_workers()))
            if now - self._last_scrape < self.ttl_s:
                self._scrape_age.set(max(0.0, now - self._last_scrape))
                return
            self._sweep()
            self._last_scrape = time.monotonic()
            self._scrape_age.set(0.0)
        finally:
            self._scrape_lock.release()

    def _sweep(self) -> None:
        """Scrape every live worker and rebuild the federated series."""
        # group key: (family name, labelnames minus shard/instance) ->
        # label values -> owner -> value, so sum/max aggregate within one
        # label combination and ``instance`` series fold into their owner.
        grouped: Dict[
            Tuple[str, Tuple[str, ...]], Dict[Tuple[str, ...], Dict[Optional[str], float]]
        ] = {}
        help_texts: Dict[str, str] = {}
        shared_seen: Set[Tuple] = set()
        for worker in self.router.live_workers():
            shard_label = str(worker.shard.index)
            self._scrapes.labels(shard=shard_label).inc()
            try:
                samples = parse_prometheus_text(worker.client.metrics_text())
            except Exception:
                self._scrape_failures.labels(shard=shard_label).inc()
                continue
            # our own repro_cluster_* families in the scrape: this worker
            # renders the router's registry, as do its in-process siblings
            shared = any(s.name.startswith(FEDERATED_PREFIX) for s in samples)
            for sample in samples:
                if sample.type not in ("counter", "gauge"):
                    continue  # histograms stay worker-local
                if sample.name.startswith(FEDERATED_PREFIX):
                    continue  # shared-registry feedback guard
                if not math.isfinite(sample.value):
                    continue  # NaN/Inf gauges would poison sum/max forever
                if shared:
                    identity = (sample.name, tuple(sorted(sample.labels.items())))
                    if identity in shared_seen:
                        continue  # already counted through a sibling's scrape
                    shared_seen.add(identity)
                    # which worker owns an unsharded series is unknowable
                    # here: it counts toward the sum only
                    owner = sample.labels.get("shard")
                else:
                    owner = sample.labels.get("shard", shard_label)
                labels = {
                    k: v for k, v in sample.labels.items() if k not in ("shard", "instance")
                }
                labelnames = tuple(sorted(labels))
                name = federated_name(sample.name)
                owners = grouped.setdefault((name, labelnames), {}).setdefault(
                    tuple(labels[k] for k in labelnames), {}
                )
                owners[owner] = owners.get(owner, 0.0) + sample.value
                help_texts.setdefault(
                    name, f"Federated from worker {sample.name} (per-shard + sum/max)."
                )
        for (name, labelnames), series in grouped.items():
            try:
                family = self.registry.gauge(
                    name, help_texts.get(name, ""), labelnames=("shard",) + labelnames
                )
            except ValueError:
                continue  # same name seen with different labels: first wins
            for labelvalues, owners in series.items():
                per_shard = {k: v for k, v in owners.items() if k is not None}
                for shard_label, value in per_shard.items():
                    family.labels(shard_label, *labelvalues).set(value)
                family.labels("sum", *labelvalues).set(sum(owners.values()))
                if per_shard:
                    family.labels("max", *labelvalues).set(max(per_shard.values()))
