"""Router-side metrics federation: one scrape describes the cluster.

The sharded tier puts interesting counters (decode requests, encode
modes, cache hits) inside worker processes — invisible to anyone
scraping only the router.  :class:`ClusterMetricsFederator` is a
registry collector on the router's ``/metrics``: on a TTL it scrapes
each live worker's ``/metrics``, parses the exposition text
(:func:`repro.obs.metrics.parse_prometheus_text`), and re-exports every
worker counter/gauge as an aggregated ``repro_cluster_*`` gauge family:

- one child per shard (``shard="0"``, ``shard="1"``, ...),
- plus ``shard="sum"`` and ``shard="max"`` aggregate children per
  remaining-label group,

so ``repro_engine_encode_total{mode="full"}`` on the workers becomes
``repro_cluster_engine_encode_total{shard="sum",mode="full"}`` (and
friends) on the router.  The per-object ``instance`` label is folded
away by summing within each worker, so a shard's value covers every
cache or engine instance living in that worker.  Histogram families are skipped (their
per-shard ``repro_cluster_scatter_seconds`` views already live on the
router) and so is anything already ``repro_cluster_``-prefixed —
essential in the in-process cluster, where router and workers share one
registry and re-ingesting our own output would feed back.

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
from typing import TYPE_CHECKING, Dict, List, Tuple

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
        # group key: (family name, labelnames-minus-shard) -> per-shard
        # values, so sum/max aggregate within one label combination.
        # The inner dict is keyed by shard label: a sample that already
        # carries a shard label keeps it (and scraping the same series
        # through two workers — the shared-registry in-process cluster —
        # dedups instead of double-counting it into the sum).  Within one
        # scrape, samples differing only by ``instance`` are summed.
        grouped: Dict[
            Tuple[str, Tuple[str, ...]], Dict[Tuple[str, ...], Dict[str, float]]
        ] = {}
        help_texts: Dict[str, str] = {}
        for worker in self.router.live_workers():
            shard_label = str(worker.shard.index)
            self._scrapes.labels(shard=shard_label).inc()
            try:
                samples = parse_prometheus_text(worker.client.metrics_text())
            except Exception:
                self._scrape_failures.labels(shard=shard_label).inc()
                continue
            scraped: Dict[Tuple, float] = {}
            for sample in samples:
                if sample.type not in ("counter", "gauge"):
                    continue  # histograms stay worker-local
                if sample.name.startswith(FEDERATED_PREFIX):
                    continue  # shared-registry feedback guard
                if not math.isfinite(sample.value):
                    continue  # NaN/Inf gauges would poison sum/max forever
                labels = {
                    k: v for k, v in sample.labels.items() if k not in ("shard", "instance")
                }
                labelnames = tuple(sorted(labels))
                key = (federated_name(sample.name), labelnames)
                labelvalues = tuple(labels[k] for k in labelnames)
                owner = sample.labels.get("shard", shard_label)
                series = (key, labelvalues, owner)
                scraped[series] = scraped.get(series, 0.0) + sample.value
                help_texts.setdefault(
                    federated_name(sample.name),
                    f"Federated from worker {sample.name} (per-shard + sum/max).",
                )
            for (key, labelvalues, owner), value in scraped.items():
                grouped.setdefault(key, {}).setdefault(labelvalues, {})[owner] = value
        for (name, labelnames), series in grouped.items():
            try:
                family = self.registry.gauge(
                    name, help_texts.get(name, ""), labelnames=("shard",) + labelnames
                )
            except ValueError:
                continue  # same name seen with different labels: first wins
            for labelvalues, shard_values in series.items():
                values = list(shard_values.values())
                for shard_label, value in shard_values.items():
                    family.labels(shard_label, *labelvalues).set(value)
                family.labels("sum", *labelvalues).set(sum(values))
                family.labels("max", *labelvalues).set(max(values))
