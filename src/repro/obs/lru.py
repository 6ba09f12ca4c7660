"""One bounded, thread-safe LRU for every cache in the system.

Window graphs, encoder states, sampled closures and per-pair
predictions all live in a :class:`BoundedLRU`.  Its hit, miss and evict
events and its live size are kept only on the metrics registry, as this
instance's children of

- ``repro_cache_events_total{cache,owner,instance,event}``
- ``repro_cache_entries{cache,owner,instance}``

``instance`` is a process-unique label assigned at construction, so two
caches with the same ``cache`` and ``owner`` never share a series and
:meth:`BoundedLRU.stats` is an exact view of this one cache.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Callable, Dict, Hashable, Iterator

from repro.obs.metrics import get_registry, new_instance

__all__ = ["BoundedLRU"]

_MISSING = object()


class BoundedLRU:
    """Least-recently-used map holding at most ``capacity`` entries.

    Args:
        capacity: entry bound; 0 disables storing (every lookup misses).
        cache: what is cached (the ``cache`` label, e.g. ``"prediction"``).
        owner: the consumer holding it (the ``owner`` label).
    """

    def __init__(self, capacity: int, cache: str, owner: str):
        if capacity < 0:
            raise ValueError("capacity must be >= 0")
        self.capacity = int(capacity)
        self.cache = cache
        self.owner = owner
        self.instance = new_instance("lru")
        self._data: "OrderedDict[Hashable, Any]" = OrderedDict()
        self._lock = threading.Lock()
        registry = get_registry()
        labels = dict(cache=cache, owner=owner, instance=self.instance)
        self._events_family = registry.counter(
            "repro_cache_events_total",
            "Cache events (hit/miss/evict, plus owner-specific ones) per cache instance.",
            labelnames=("cache", "owner", "instance", "event"),
        )
        self._events = {
            event: self._events_family.labels(event=event, **labels)
            for event in ("hit", "miss", "evict")
        }
        self._entries = registry.gauge(
            "repro_cache_entries",
            "Live entries per cache instance.",
            labelnames=("cache", "owner", "instance"),
        ).labels(**labels)

    def _lookup(self, key: Hashable, default: Any, count_miss: bool) -> Any:
        with self._lock:
            value = self._data.get(key, _MISSING)
            if value is not _MISSING:
                self._data.move_to_end(key)
        if value is not _MISSING:
            self._events["hit"].inc()
            return value
        if count_miss:
            self._events["miss"].inc()
        return default

    def get(self, key: Hashable, default: Any = None) -> Any:
        """The value for ``key`` (refreshing its recency), else ``default``."""
        return self._lookup(key, default, count_miss=True)

    def peek(self, key: Hashable, default: Any = None) -> Any:
        """Like :meth:`get`, but an absent key is not counted as a miss."""
        return self._lookup(key, default, count_miss=False)

    def put(self, key: Hashable, value: Any) -> None:
        """Insert or refresh ``key``, evicting the oldest entries past capacity."""
        if self.capacity == 0:
            return
        evicted = 0
        with self._lock:
            self._data[key] = value
            self._data.move_to_end(key)
            while len(self._data) > self.capacity:
                self._data.popitem(last=False)
                evicted += 1
            self._entries.set(len(self._data))
        if evicted:
            self._events["evict"].inc(evicted)

    def retain(self, keep: Callable[[Hashable], bool]) -> None:
        """Drop every entry whose key ``keep`` rejects (counted as evictions)."""
        with self._lock:
            dead = [key for key in self._data if not keep(key)]
            for key in dead:
                del self._data[key]
            self._entries.set(len(self._data))
        if dead:
            self._events["evict"].inc(len(dead))

    def clear(self) -> None:
        with self._lock:
            self._data.clear()
            self._entries.set(0)

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    def __iter__(self) -> Iterator[Hashable]:
        """Keys, least recently used first (a snapshot)."""
        with self._lock:
            return iter(list(self._data))

    # ------------------------------------------------------------------
    def record(self, event: str) -> None:
        """Count an owner-specific event on this instance's series."""
        self._child(event).inc()

    def count(self, event: str) -> int:
        """This instance's count for ``event``."""
        return int(self._child(event).value)

    def _child(self, event: str):
        child = self._events.get(event)
        if child is None:
            child = self._events_family.labels(
                cache=self.cache, owner=self.owner, instance=self.instance, event=event
            )
        return child

    @property
    def hits(self) -> int:
        return self.count("hit")

    @property
    def misses(self) -> int:
        return self.count("miss")

    @property
    def evictions(self) -> int:
        return self.count("evict")

    @property
    def hit_rate(self) -> float:
        hits, misses = self.hits, self.misses
        return hits / (hits + misses) if hits + misses else 0.0

    def stats(self) -> Dict[str, Any]:
        return {
            "entries": int(self._entries.value),
            "capacity": self.capacity,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "hit_rate": round(self.hit_rate, 4),
        }
