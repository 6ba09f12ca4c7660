"""Model registry: name -> factory + window requirements.

The experiment harness builds every Table 3 row through this registry
so a model and its Trainer configuration always stay in sync.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional

from repro.baselines.base import ModelRequirements
from repro.baselines.cen import CEN
from repro.baselines.cenet import CENET
from repro.baselines.conve import ConvE, ConvTransEModel
from repro.baselines.cygnet import CyGNet
from repro.baselines.hgls import HGLS
from repro.baselines.logcl import LogCL
from repro.baselines.regcn import REGCN
from repro.baselines.renet import RENet
from repro.baselines.retia import RETIA
from repro.baselines.rpc import RPC
from repro.baselines.static import ComplEx, DistMult, RotatE
from repro.baselines.tirgn import TiRGN
from repro.baselines.xerte import XERTE
from repro.core.config import HisRESConfig
from repro.core.hisres import HisRES


@dataclass(frozen=True)
class ModelSpec:
    """How to build a model and configure its Trainer."""

    name: str
    factory: Callable
    requirements: ModelRequirements
    is_static: bool = False
    is_temporal_local: bool = False
    is_temporal_global: bool = False

    def window_flags(self) -> Dict[str, bool]:
        """The ``WindowBuilder``/``Trainer`` flags this model's windows need."""
        needs = self.requirements
        return {"use_global": needs.global_graph, "track_vocabulary": needs.vocabulary}


def _hisres_factory(num_entities: int, num_relations: int, dim: int = 32, **kwargs) -> HisRES:
    config = HisRESConfig(embedding_dim=dim, **kwargs)
    return HisRES(num_entities, num_relations, config)


def _simple(factory):
    def build(num_entities, num_relations, dim=32, **kwargs):
        return factory(num_entities, num_relations, dim=dim, **kwargs)

    return build


MODEL_REGISTRY: Dict[str, ModelSpec] = {
    "distmult": ModelSpec("DistMult", _simple(DistMult), ModelRequirements(), is_static=True),
    "complex": ModelSpec("ComplEx", _simple(ComplEx), ModelRequirements(), is_static=True),
    "conve": ModelSpec("ConvE", _simple(ConvE), ModelRequirements(), is_static=True),
    "convtranse": ModelSpec(
        "ConvTransE", _simple(ConvTransEModel), ModelRequirements(), is_static=True
    ),
    "rotate": ModelSpec("RotatE", _simple(RotatE), ModelRequirements(), is_static=True),
    "renet": ModelSpec(
        "RE-NET", _simple(RENet), RENet.requirements, is_temporal_local=True
    ),
    "cygnet": ModelSpec(
        "CyGNet", _simple(CyGNet), CyGNet.requirements, is_temporal_global=True
    ),
    "regcn": ModelSpec(
        "RE-GCN", _simple(REGCN), REGCN.requirements, is_temporal_local=True
    ),
    "cen": ModelSpec("CEN", _simple(CEN), CEN.requirements, is_temporal_local=True),
    "tirgn": ModelSpec(
        "TiRGN", _simple(TiRGN), TiRGN.requirements,
        is_temporal_local=True, is_temporal_global=True,
    ),
    "cenet": ModelSpec(
        "CENET", _simple(CENET), CENET.requirements, is_temporal_global=True
    ),
    "logcl": ModelSpec(
        "LogCL", _simple(LogCL), LogCL.requirements,
        is_temporal_local=True, is_temporal_global=True,
    ),
    "xerte": ModelSpec(
        "xERTE", _simple(XERTE), XERTE.requirements, is_temporal_local=True
    ),
    "retia": ModelSpec(
        "RETIA", _simple(RETIA), RETIA.requirements, is_temporal_local=True
    ),
    "rpc": ModelSpec("RPC", _simple(RPC), RPC.requirements, is_temporal_local=True),
    "hgls": ModelSpec(
        "HGLS", _simple(HGLS), HGLS.requirements,
        is_temporal_local=True, is_temporal_global=True,
    ),
    "hisres": ModelSpec(
        "HisRES",
        _hisres_factory,
        ModelRequirements(recent_snapshots=True, global_graph=True),
        is_temporal_local=True,
        is_temporal_global=True,
    ),
}


def build_model(key: str, num_entities: int, num_relations: int, dim: int = 32, **kwargs):
    """Instantiate a registered model by key."""
    try:
        spec = MODEL_REGISTRY[key]
    except KeyError:
        raise KeyError(f"unknown model {key!r}; available: {sorted(MODEL_REGISTRY)}") from None
    return spec.factory(num_entities, num_relations, dim=dim, **kwargs)
