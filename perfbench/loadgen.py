"""Seeded ``/ingest`` + ``/predict`` traffic, replayed against a server.

The generator follows a preset-profile -> seeded-synthesis ->
inject-to-API pattern: the dataset comes from the workload seed, the
traffic plan below is drawn from it with the same seed, and the server
only ever sees the HTTP requests.

The test split is replayed tick by tick.  Each tick sends one
``/ingest`` of that timestamp's events with ``flush`` (rolling the
window over), then its traffic: single ``(s, r)`` queries over a fixed
number of *hot* pairs, drawn Zipf-skewed from the pairs active in the
last few snapshots (each hot pair is first asked at a fixed slot and
the other singles repeat hot pairs already asked, again Zipf-skewed),
plus one 16-query batch in the middle of the tick.  Even ticks send a
*check* batch right after their ingest; odd ticks send a batch drawn
Zipf-skewed from the whole pool.  So every tick costs the same number
of cache misses at the same points, whatever the seed.

The check batch's pairs are drawn from pairs no other request of the
neighbouring ticks uses, so the server computes all of them in one
fresh forward pass whatever the timing; an in-process reference engine
that ingested the same ticks must return bitwise the same top-k.
"""

from __future__ import annotations

import math
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

Pair = Tuple[int, int]
CLIENT_TIMEOUT_S = 60.0


@dataclass
class Op:
    kind: str  # "ingest" | "predict" | "batch"
    tick: int
    body: Dict
    due: float = math.nan
    sent: float = math.nan
    done: float = math.nan
    ok: bool = False
    response: Optional[Dict] = None
    error: str = ""

    @property
    def queries(self) -> int:
        if self.kind == "predict":
            return 1
        if self.kind == "batch":
            return len(self.body["queries"])
        return 0

    def pairs(self) -> List[Pair]:
        if self.kind == "predict":
            return [(self.body["subject"], self.body["relation"])]
        if self.kind == "batch":
            return [(q["subject"], q["relation"]) for q in self.body["queries"]]
        return []


@dataclass
class Tick:
    index: int
    timestamp: int
    events: np.ndarray
    traffic: List[Op] = field(default_factory=list)
    check: Optional[Op] = None
    ingest: Optional[Op] = None
    check_done: threading.Event = field(default_factory=threading.Event)


class TrafficPlan:
    """The seeded tick-by-tick request plan over a dataset's test split."""

    def __init__(self, dataset, seed: int, cfg: Dict):
        self.cfg = cfg
        rng = np.random.default_rng([seed, 0x10AD])
        k = cfg["recent_snapshots"]
        test = sorted(dataset.test.facts_by_time().items())
        history = [quads for _, quads in sorted(dataset.valid.facts_by_time().items())[-k:]]
        pools: List[np.ndarray] = []
        self.ticks: List[Tick] = []
        for i, (t, quads) in enumerate(test):
            history = (history + [quads])[-k:]
            pool = np.unique(np.concatenate(history)[:, :2], axis=0)
            pool = pool[rng.permutation(len(pool))]
            pools.append(pool)
            weights = 1.0 / np.arange(1, len(pool) + 1) ** cfg["zipf"]
            weights /= weights.sum()
            tick = Tick(i, int(t), np.asarray(quads)[:, :3].astype(np.int64))
            hot = rng.choice(len(pool), size=cfg["hot_pairs"], replace=False, p=weights)
            tick.traffic = [self._predict(i, pool[j]) for j in self._singles(rng, hot, weights)]
            if i % 2:
                picks = rng.choice(len(pool), size=cfg["batch_size"], replace=False, p=weights)
                tick.traffic.insert(len(tick.traffic) // 2, self._batch(i, pool[picks]))
            tick.ingest = Op("ingest", i, {"events": tick.events, "timestamp": tick.timestamp})
            self.ticks.append(tick)
        for tick in self.ticks[::2]:
            used = {
                p
                for other in self.ticks[max(0, tick.index - 1): tick.index + 2]
                for op in other.traffic
                for p in op.pairs()
            }
            pool = pools[tick.index]
            free = [j for j, (s, r) in enumerate(pool.tolist()) if (s, r) not in used]
            picks = rng.choice(free, size=cfg["batch_size"], replace=False)
            tick.check = self._batch(tick.index, pool[np.sort(picks)])

    def _singles(self, rng, hot: np.ndarray, weights: np.ndarray) -> np.ndarray:
        """Pool indices of a tick's single queries: hot pair ``j`` first
        appears at the start of the ``j``-th equal segment, and every other
        slot repeats an already-introduced hot pair, Zipf-skewed."""
        n = self.cfg["singles_per_tick"]
        segment = n // len(hot)
        out = np.empty(n, dtype=np.int64)
        for slot in range(n):
            j = min(slot // segment, len(hot) - 1)
            if slot == j * segment:
                out[slot] = hot[j]
            else:
                w = weights[hot[: j + 1]]
                out[slot] = rng.choice(hot[: j + 1], p=w / w.sum())
        return out

    def _predict(self, tick: int, pair) -> Op:
        body = {"subject": int(pair[0]), "relation": int(pair[1]), "top_k": self.cfg["top_k"]}
        return Op("predict", tick, body)

    def _batch(self, tick: int, pairs) -> Op:
        queries = [{"subject": int(s), "relation": int(r)} for s, r in pairs]
        return Op("batch", tick, {"queries": queries, "top_k": self.cfg["top_k"]})

    @property
    def requests_per_tick(self) -> int:
        return self.cfg["singles_per_tick"] + 1

    @property
    def batch_share(self) -> float:
        """Share of predict requests that are 16-query batches."""
        return 1 / self.requests_per_tick


class Sender:
    """Executes ops over HTTP with the repo's client; one per connection."""

    def __init__(self, url: str, timeout: float = CLIENT_TIMEOUT_S):
        from repro.serving.client import ServingClient

        self.client = ServingClient(url, timeout=timeout)

    def execute(self, op: Op) -> None:
        from repro.obs import span

        with span("loadgen." + op.kind):
            op.sent = time.perf_counter()
            try:
                if op.kind == "ingest":
                    op.response = self.client.ingest(
                        op.body["events"], timestamp=op.body["timestamp"], flush=True
                    )
                elif op.kind == "predict":
                    op.response = self.client.predict(
                        op.body["subject"], op.body["relation"], top_k=op.body["top_k"]
                    )
                else:
                    op.response = self.client.predict_many(
                        op.body["queries"], top_k=op.body["top_k"]
                    )
                op.ok = True
            except Exception as exc:  # every failure counts against the run
                op.error = repr(exc)
            op.done = time.perf_counter()


def _run_tick_head(sender: Sender, plan: TrafficPlan, tick: Tick) -> None:
    """Ingest (+ check batch), after the previous tick's check has
    finished (so a check is answered against exactly its tick's window)."""
    if tick.index > 0:
        plan.ticks[tick.index - 1].check_done.wait(timeout=120)
    sender.execute(tick.ingest)
    if tick.check is not None:
        tick.check.due = time.perf_counter()
        sender.execute(tick.check)
    tick.check_done.set()


def _drive(url: str, entries, connections: int, deadline: Optional[float], plan) -> None:
    """Worker threads pop ``(due, op_or_tick)`` entries in order."""
    lock = threading.Lock()
    cursor = iter(entries)

    def worker() -> None:
        sender = Sender(url)
        while True:
            with lock:
                if deadline is not None and time.perf_counter() >= deadline:
                    return
                entry = next(cursor, None)
            if entry is None:
                return
            due, item = entry
            if due is not None:
                delay = due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
            if isinstance(item, Tick):
                if due is not None:
                    item.ingest.due = due
                else:
                    item.ingest.due = time.perf_counter()
                _run_tick_head(sender, plan, item)
            else:
                item.due = due if due is not None else time.perf_counter()
                sender.execute(item)

    threads = [threading.Thread(target=worker, daemon=True) for _ in range(connections)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


def open_loop(url: str, plan: TrafficPlan, first_tick: int, count: int, tick_s: float,
              connections: int = 2) -> Tuple[List[Tick], float]:
    """Fixed-rate schedule of ``count`` ticks, one per ``tick_s``: each
    tick's head at its start, its traffic evenly spaced over the tick.
    Returns the ticks run and the wall time."""
    ticks = plan.ticks[first_tick: first_tick + count]
    start = time.perf_counter() + 0.05
    entries = []
    for k, tick in enumerate(ticks):
        base = start + k * tick_s
        entries.append((base, tick))
        # the tick's last tenth stays quiet, so its ingest meets an idle server
        gap = 0.9 * tick_s / (len(tick.traffic) + 1)
        entries.extend((base + (j + 1) * gap, op) for j, op in enumerate(tick.traffic))
    _drive(url, entries, connections, None, plan)
    return ticks, time.perf_counter() - start


def closed_loop(url: str, plan: TrafficPlan, first_tick: int, last_tick: int, seconds: float,
                connections: int = 2) -> Tuple[List[Tick], float]:
    """Back-to-back requests on ``connections`` connections until the
    deadline (or tick ``last_tick``).  Returns the ticks started and the
    wall time."""
    ticks = plan.ticks[first_tick:last_tick]
    entries = []
    for tick in ticks:
        entries.append((None, tick))
        entries.extend((None, op) for op in tick.traffic)
    start = time.perf_counter()
    _drive(url, entries, connections, start + seconds, plan)
    ended = [op.done for t in ticks for op in _ops(t) if not math.isnan(op.done)]
    if not ended:
        raise RuntimeError("the test split has no ticks left for the closed loop")
    return [t for t in ticks if not math.isnan(t.ingest.sent)], max(ended) - start


def _ops(tick: Tick) -> List[Op]:
    return [tick.ingest] + _predicts(tick)


def _predicts(tick: Tick) -> List[Op]:
    return ([tick.check] if tick.check is not None else []) + tick.traffic


def executed_ops(ticks: Sequence[Tick]) -> List[Op]:
    return [op for tick in ticks for op in _ops(tick) if not math.isnan(op.sent)]


def repeat_share(ticks: Sequence[Tick]) -> float:
    """Share of predicted pairs already asked for earlier in the same
    window version (the property the prediction cache feeds on)."""
    repeats = total = 0
    for tick in ticks:
        seen = set()
        sent = [op for op in _predicts(tick) if not math.isnan(op.sent)]
        for op in sorted(sent, key=lambda op: op.sent):
            for pair in op.pairs():
                total += 1
                repeats += pair in seen
                seen.add(pair)
    return repeats / total if total else 0.0
