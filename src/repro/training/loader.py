"""Mini-batch query loading for neighbor-sampled training.

The chronological regime (one optimisation step per snapshot) stops
scaling once a snapshot's query set — and with it the full-graph encode
behind it — outgrows memory/latency budgets.  Sampled training keeps
the timeline walk but splits each timestamp's queries into shuffled
mini-batches, and each batch encodes only the sampler-induced fan-in
closure of its own queries (see :mod:`repro.graphs.sampler`).

Shuffling is deterministic per ``(seed, epoch, timestamp)``: resuming
or re-running an epoch replays identical batches, which keeps sampled
runs reproducible end to end (the sampler's own determinism contract
covers the per-batch subgraphs).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from repro.graphs.sampler import FanoutSpec, NeighborSampler

__all__ = ["SamplerConfig", "QueryBatchLoader"]


@dataclass(frozen=True)
class SamplerConfig:
    """Parsed form of the CLI's ``--sampler`` argument.

    The flag value is a ``;``-separated list of ``key=value`` tokens::

        --sampler fanout=8,4
        --sampler fanout=16,8;batch=256;seed=7;cache=32

    Keys:
        fanout: per-hop fan-in caps (``FanoutSpec.parse`` syntax;
            ``full`` disables capping — useful for parity runs).
        batch: queries per optimisation step (0 = one batch per
            timestamp, i.e. only the encode is scoped).
        seed: sampling + shuffling seed (independent of the model seed
            so the same initialisation can be trained under different
            sample draws).
        cache: induced-window LRU entries held by the sampler.
    """

    fanout: str = "16,8"
    batch_size: int = 128
    seed: int = 0
    cache_entries: int = 64

    @classmethod
    def parse(cls, spec) -> "SamplerConfig":
        if isinstance(spec, cls):
            return spec
        if spec is None or spec == "":
            return cls()
        known = {"fanout": "fanout", "batch": "batch_size", "seed": "seed", "cache": "cache_entries"}
        kwargs = {}
        for token in str(spec).split(";"):
            token = token.strip()
            if not token:
                continue
            if "=" not in token:
                # bare value is a fanout shorthand: --sampler 8,4
                kwargs["fanout"] = token
                continue
            key, _, value = token.partition("=")
            key = key.strip().lower()
            if key not in known:
                raise ValueError(
                    f"unknown --sampler key {key!r}; expected one of {sorted(known)}"
                )
            field_name = known[key]
            kwargs[field_name] = value.strip() if field_name == "fanout" else int(value)
        config = cls(**kwargs)
        FanoutSpec.parse(config.fanout)  # validate eagerly
        return config

    def build(self, owner: str = "trainer") -> NeighborSampler:
        return NeighborSampler(
            self.fanout, seed=self.seed, cache_entries=self.cache_entries, owner=owner
        )


class QueryBatchLoader:
    """Deterministic shuffled mini-batches of one timestamp's queries."""

    def __init__(self, batch_size: int = 128, seed: int = 0):
        self.batch_size = int(batch_size)
        self.seed = int(seed)

    def batches(
        self, queries: np.ndarray, epoch: int = 0, timestamp: int = 0
    ) -> Iterator[np.ndarray]:
        """Yield shuffled batches; pure in ``(seed, epoch, timestamp)``."""
        queries = np.asarray(queries)
        n = len(queries)
        if n == 0:
            return
        if self.batch_size <= 0 or self.batch_size >= n:
            yield queries
            return
        rng = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence([self.seed, int(epoch), int(timestamp)]))
        )
        order = rng.permutation(n)
        for start in range(0, n, self.batch_size):
            yield queries[order[start : start + self.batch_size]]
