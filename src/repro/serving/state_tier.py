"""Shared encoder-state tier: one encode per window, cluster-wide.

Every decode worker in a serving cluster (:mod:`repro.serving.cluster`)
needs the *same* encoder state for the same history window — the encode
is the expensive part, and with N workers the naive design runs it N
times.  This module adds a file-backed tier beneath each worker's
in-memory :class:`~repro.core.execution.EncoderStateCache`:

- :class:`SharedEncoderStateStore` — an ``.npz``-per-state directory
  keyed **exactly** like the in-memory cache: ``(model_key,
  model.version, fingerprint)``.  Only the expensive state
  crosses it: a split encoder's (HisRES, LogCL) history state, keyed on
  ``("history", window.history_fingerprint())`` and shared by every
  query set on one history, or another model's full state, keyed on
  ``window.fingerprint()``.  A split encoder's query-stage state (a few
  milliseconds of work, less than publishing, polling for and loading
  an ``.npz``) stays in each worker's memory LRU.  Fingerprints are
  cross-process stable (blake2b content digests, see
  :func:`repro.graphs.snapshot.stable_array_digest`), so two workers
  fed the same ingest stream derive byte-identical keys.  Writes are
  atomic (tmp file + ``os.replace``) so readers never observe a
  half-written state.
- **Single-flight locking** — on a tier miss, workers race for an
  ``O_CREAT | O_EXCL`` lock file; the winner encodes and publishes,
  losers poll for the published state with a timeout and fall back to
  a local encode if the winner stalls (never deadlocks, at worst does
  redundant work).  Stale locks (a worker killed mid-encode) are broken
  after ``lock_stale_s``.
- :class:`TieredStateCache` — an :class:`EncoderStateCache` subclass
  whose expensive-stage lookup goes memory -> shared tier ->
  single-flight encode.
  Workers plug it into their engine via the ``state_cache`` parameter.
- **Bounded disk use** — every successful publish unlinks all other
  published states except the newest one: the tier holds at most the
  current window's state and its predecessor, which a worker one ingest
  behind may still load.  A load that loses the race to an unlink is a
  miss, and the worker encodes locally.

Tier events are counted on ``repro_state_tier_events_total{owner,
instance, event}`` with events ``hit`` / ``miss`` / ``publish`` /
``wait`` / ``fallback``; ``instance`` is unique per store object, so
:meth:`SharedEncoderStateStore.stats` reads back only its own counts.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import time
from typing import Any, Callable, Dict, Hashable, Optional

import numpy as np

from repro.core.execution import EncoderState, EncoderStateCache
from repro.nn.tensor import Tensor
from repro.obs.metrics import get_registry, new_instance
from repro.obs.trace import span

_META_KEY = "__meta__"
#: A published state (not a lock or another writer's temp file).
_STATE_FILE = re.compile(r"^state-[0-9a-f]{32}\.npz$")


class SharedEncoderStateStore:
    """File-backed store of serialized :class:`EncoderState` objects.

    Args:
        root: directory for state files (created if missing).
        lock_timeout_s: how long a single-flight loser waits for the
            winner to publish before encoding locally.
        lock_stale_s: age after which a lock file is presumed orphaned
            (owner crashed mid-encode) and broken.
        owner: label for the tier-event counter series.
    """

    def __init__(
        self,
        root: str,
        lock_timeout_s: float = 10.0,
        lock_stale_s: float = 60.0,
        poll_interval_s: float = 0.005,
        owner: str = "tier",
    ):
        self.root = root
        os.makedirs(root, exist_ok=True)
        self.lock_timeout_s = float(lock_timeout_s)
        self.lock_stale_s = float(lock_stale_s)
        self.poll_interval_s = float(poll_interval_s)
        self.owner = owner
        self.instance = new_instance("tier")
        family = get_registry().counter(
            "repro_state_tier_events_total",
            "Shared encoder-state tier events per store instance.",
            labelnames=("owner", "instance", "event"),
        )
        self._counters = {
            event: family.labels(owner=owner, instance=self.instance, event=event)
            for event in ("hit", "miss", "publish", "wait", "fallback")
        }

    def count(self, event: str) -> None:
        self._counters[event].inc()

    # ------------------------------------------------------------------
    def path_for(self, key: Hashable) -> str:
        digest = hashlib.blake2b(repr(key).encode("utf-8"), digest_size=16).hexdigest()
        return os.path.join(self.root, f"state-{digest}.npz")

    def _lock_path(self, key: Hashable) -> str:
        return self.path_for(key) + ".lock"

    # ------------------------------------------------------------------
    def load(self, key: Hashable) -> Optional[EncoderState]:
        """Deserialize the state for ``key``, or None when absent/corrupt.

        The stored ``key_repr`` is compared against ``repr(key)`` so a
        (vanishingly unlikely) digest collision degrades to a miss, not
        to serving another window's scores.
        """
        path = self.path_for(key)
        try:
            with np.load(path, allow_pickle=False) as archive:
                meta = json.loads(bytes(archive[_META_KEY].tobytes()).decode("utf-8"))
                if meta.get("key_repr") != repr(key):
                    return None
                arrays = {
                    name: np.array(archive[name])
                    for name in archive.files
                    if name != _META_KEY
                }
        except (FileNotFoundError, OSError, ValueError, KeyError, json.JSONDecodeError):
            return None
        entity = Tensor(arrays["entity"]) if "entity" in arrays else None
        relation = Tensor(arrays["relation"]) if "relation" in arrays else None
        aux = tuple(
            Tensor(arrays[f"aux{i}"]) for i in range(int(meta.get("aux_count", 0)))
        )
        int_aux = tuple(arrays[f"int_aux{i}"] for i in range(int(meta.get("int_aux_count", 0))))
        fingerprint = key[-1] if isinstance(key, tuple) and key else None
        return EncoderState(
            entity_matrix=entity,
            relation_matrix=relation,
            aux=aux,
            fingerprint=fingerprint,
            model_version=int(meta.get("model_version", 0)),
            prediction_time=int(meta.get("prediction_time", 0)),
            int_aux=int_aux,
        )

    def store(self, key: Hashable, state: EncoderState) -> bool:
        """Atomically publish ``state`` under ``key``; False on I/O failure."""
        arrays: Dict[str, np.ndarray] = {}
        if state.entity_matrix is not None:
            arrays["entity"] = np.asarray(state.entity_matrix.data)
        if state.relation_matrix is not None:
            arrays["relation"] = np.asarray(state.relation_matrix.data)
        for i, tensor in enumerate(state.aux):
            arrays[f"aux{i}"] = np.asarray(tensor.data)
        for i, array in enumerate(state.int_aux):
            arrays[f"int_aux{i}"] = np.asarray(array, dtype=np.int64)
        meta = {
            "key_repr": repr(key),
            "model_version": int(state.model_version),
            "prediction_time": int(state.prediction_time),
            "aux_count": len(state.aux),
            "int_aux_count": len(state.int_aux),
        }
        arrays[_META_KEY] = np.frombuffer(
            json.dumps(meta).encode("utf-8"), dtype=np.uint8
        )
        path = self.path_for(key)
        tmp = f"{path}.{os.getpid()}.tmp.npz"
        try:
            with open(tmp, "wb") as handle:
                np.savez(handle, **arrays)
            os.replace(tmp, path)
        except OSError:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            return False
        self._prune(keep=path)
        return True

    def _prune(self, keep: str) -> None:
        """Unlink every published state but ``keep`` and the newest other one."""
        stamped = []
        with os.scandir(self.root) as entries:
            for entry in entries:
                if entry.path != keep and _STATE_FILE.match(entry.name):
                    try:
                        stamped.append((entry.stat().st_mtime_ns, entry.path))
                    except OSError:
                        pass  # a sibling pruned it first
        for _, path in sorted(stamped, reverse=True)[1:]:
            try:
                os.unlink(path)
            except OSError:
                pass

    # ------------------------------------------------------------------
    def try_acquire(self, key: Hashable) -> bool:
        """Claim the single-flight encode lock for ``key`` (non-blocking).

        Breaks locks older than ``lock_stale_s`` (owner presumed dead);
        after breaking, one more claim attempt is made — losing *that*
        race is still a clean False.
        """
        lock = self._lock_path(key)
        for attempt in (0, 1):
            try:
                fd = os.open(lock, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
                os.write(fd, str(os.getpid()).encode("ascii"))
                os.close(fd)
                return True
            except FileExistsError:
                if attempt:
                    return False
                try:
                    if time.time() - os.path.getmtime(lock) <= self.lock_stale_s:
                        return False
                    os.unlink(lock)  # stale: owner died mid-encode
                except OSError:
                    return False
        return False

    def release(self, key: Hashable) -> None:
        try:
            os.unlink(self._lock_path(key))
        except OSError:
            pass

    def wait_for(self, key: Hashable, timeout: Optional[float] = None) -> Optional[EncoderState]:
        """Poll for a state another worker is encoding right now.

        Returns early when the lock disappears (winner finished or
        died): one final load distinguishes published from abandoned.
        """
        deadline = time.monotonic() + (
            self.lock_timeout_s if timeout is None else float(timeout)
        )
        lock = self._lock_path(key)
        while time.monotonic() < deadline:
            state = self.load(key)
            if state is not None:
                return state
            if not os.path.exists(lock):
                return self.load(key)
            time.sleep(self.poll_interval_s)
        return self.load(key)

    def stats(self) -> Dict[str, Any]:
        try:
            entries = sum(1 for n in os.listdir(self.root) if n.endswith(".npz"))
        except OSError:
            entries = 0
        events = {event: int(counter.value) for event, counter in self._counters.items()}
        return {"root": self.root, "entries": entries, "events": events}


class TieredStateCache(EncoderStateCache):
    """Encoder-state cache with a shared on-disk tier beneath memory.

    The expensive stage's lookup (a split encoder's history state,
    another model's full state) goes in-memory LRU -> shared tier ->
    single-flight encode (winner publishes; losers wait, then fall back
    to a local encode).  Keys are identical to the base class's, so a
    worker restarted against the same tier directory warm-starts from
    its siblings' published states.
    """

    def __init__(self, tier: SharedEncoderStateStore, capacity: int = 16, owner: str = "worker"):
        super().__init__(capacity=capacity, owner=owner)
        self.tier = tier

    def _cached_or_encode(self, key: Hashable, encode: Callable[[], EncoderState]) -> EncoderState:
        state = self.get(key)
        if state is not None:
            return state

        state = self.tier.load(key)
        if state is not None:
            self.tier.count("hit")
            self.put(key, state)
            return state
        self.tier.count("miss")

        if self.tier.try_acquire(key):
            try:
                state = encode()
                if self.tier.store(key, state):
                    self.tier.count("publish")
            finally:
                self.tier.release(key)
        else:
            self.tier.count("wait")
            with span("state_tier.wait", owner=self.owner):
                state = self.tier.wait_for(key)
            if state is None:
                # winner stalled or died: encode locally rather than fail
                self.tier.count("fallback")
                state = encode()
        self.put(key, state)
        return state

    def stats(self) -> Dict[str, Any]:
        base = super().stats()
        base["tier"] = self.tier.stats()
        return base
