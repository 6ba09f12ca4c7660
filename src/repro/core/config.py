"""Configuration for HisRES, including every ablation switch of Table 4,
plus the shared :class:`WindowConfig` every window-consuming entry point
(trainer, forecaster, serving engine, CLI) builds its
:class:`repro.core.window.WindowBuilder` from."""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Any, Dict, Optional


@dataclass(frozen=True)
class WindowConfig:
    """How history windows are assembled — one definition for all layers.

    Previously the trainer, forecaster, serving store/engine, and CLI
    each hardcoded their own (history_length, granularity, use_global)
    tuple; this dataclass is the single source of truth, serialised
    into checkpoint metadata (:meth:`to_dict`) and rebuilt on load
    (:meth:`from_dict`).
    """

    history_length: int = 2
    granularity: int = 2
    use_global: bool = True
    track_vocabulary: bool = False
    global_max_history: Optional[int] = None
    #: LRU capacity of the builder's snapshot/merged/global graph
    #: caches (None keeps the WindowBuilder default).  Surfaced on the
    #: CLI as ``--graph-cache-entries``.
    cache_entries: Optional[int] = None

    def __post_init__(self):
        if self.history_length < 1:
            raise ValueError("history_length must be >= 1")
        if self.granularity < 1:
            raise ValueError("granularity must be >= 1")
        if self.global_max_history is not None and self.global_max_history < 1:
            raise ValueError("global_max_history must be >= 1 or None")
        if self.cache_entries is not None and self.cache_entries < 1:
            raise ValueError("cache_entries must be >= 1 or None")

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready form for checkpoint metadata."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Optional[Dict[str, Any]] = None, **overrides) -> "WindowConfig":
        """Build from checkpoint metadata plus caller ``overrides``.

        Unknown keys in ``data`` are ignored so old checkpoints (and
        newer writers) stay loadable; an unknown override is a caller's
        typo and raises :class:`TypeError` naming it.
        """
        names = set(cls.__dataclass_fields__)
        unknown = sorted(set(overrides) - names)
        if unknown:
            raise TypeError(f"unknown window override(s): {', '.join(unknown)}")
        merged = {k: v for k, v in (data or {}).items() if k in names}
        merged.update(overrides)
        return cls(**merged)

    def build(self, num_entities: int, num_relations: int):
        """Construct the :class:`WindowBuilder` this config describes."""
        from repro.core.window import WindowBuilder

        kwargs = {}
        if self.cache_entries is not None:
            kwargs["cache_capacity"] = self.cache_entries
        return WindowBuilder(
            num_entities,
            num_relations,
            history_length=self.history_length,
            granularity=self.granularity,
            use_global=self.use_global,
            global_max_history=self.global_max_history,
            track_vocabulary=self.track_vocabulary,
            **kwargs,
        )


@dataclass
class HisRESConfig:
    """Hyper-parameters and ablation switches.

    Defaults mirror §4.1.3 of the paper where feasible; ``embedding_dim``
    defaults lower than the paper's 200 because the reproduction runs on
    CPU with small synthetic datasets.

    Ablation switches (all True/None reproduces full HisRES):

    - ``use_evolution`` — False gives HisRES-w/o-G (drop the
      multi-granularity evolutionary encoder).
    - ``use_global`` — False gives HisRES-w/o-G^H (drop the global
      relevance encoder).
    - ``use_multi_granularity`` — False gives HisRES-w/o-MG (drop the
      inter-snapshot granularity; only intra-snapshot evolution).
    - ``use_self_gating_local`` — False gives HisRES-w/o-SG1 (replace
      Eq. 8 fusion with plain summation).
    - ``use_self_gating_global`` — False gives HisRES-w/o-SG2 (replace
      Eq. 13 fusion with plain summation).
    - ``use_relation_updating`` — False gives HisRES-w/o-RU (skip Eq. 5).
    - ``global_aggregator`` — "convgat" (paper), "compgcn"
      (HisRES-w/-CompGCN) or "rgat" (HisRES-w/-RGAT).
    """

    embedding_dim: int = 32
    history_length: int = 4
    granularity: int = 2
    num_layers: int = 2
    dropout: float = 0.1
    alpha: float = 0.7
    decoder_channels: int = 8
    decoder_kernel: int = 3
    # ablation switches
    use_evolution: bool = True
    use_global: bool = True
    use_multi_granularity: bool = True
    use_self_gating_local: bool = True
    use_self_gating_global: bool = True
    use_relation_updating: bool = True
    use_time_encoding: bool = True
    global_aggregator: str = "convgat"

    def __post_init__(self):
        if self.history_length < 1:
            raise ValueError("history_length must be >= 1")
        if self.granularity < 1:
            raise ValueError("granularity must be >= 1")
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError("alpha must be in [0, 1]")
        if self.global_aggregator not in {"convgat", "compgcn", "rgat"}:
            raise ValueError(f"unknown global aggregator {self.global_aggregator!r}")
        if not self.use_evolution and not self.use_global:
            raise ValueError("at least one encoder must be enabled")
