"""HisRES reproduction: Historically Relevant Event Structuring for
Temporal Knowledge Graph Reasoning (ICDE 2025).

Top-level layout:

- :mod:`repro.nn` — numpy autodiff neural substrate (replaces PyTorch).
- :mod:`repro.data` — TKG datasets: quadruples, chronological splits,
  loaders, and calibrated synthetic ICEWS/GDELT-like generators.
- :mod:`repro.graphs` — snapshot graphs, merged inter-snapshot graphs,
  globally relevant graph construction, historical vocabularies.
- :mod:`repro.core` — the HisRES model and its components.
- :mod:`repro.baselines` — static and temporal baselines re-implemented
  on the same substrate.
- :mod:`repro.training` — trainer, time-aware filtered evaluation.
- :mod:`repro.experiments` — regenerate every table/figure of the paper.
- :mod:`repro.serving` — online inference: streaming ingestion,
  cached top-k prediction, stdlib HTTP/CLI frontend.
- :mod:`repro.obs` — observability plane: metrics registry (Prometheus
  export), span tracer (Chrome trace_event), op-level autodiff
  profiler, structured logging.
"""

import logging as _logging

__version__ = "1.0.0"

# Library convention: the package root logger stays silent unless the
# application (or `repro.obs.configure_logging`) attaches a handler.
_logging.getLogger("repro").addHandler(_logging.NullHandler())

_TOP_LEVEL = {
    "HisRES": ("repro.core", "HisRES"),
    "HisRESConfig": ("repro.core", "HisRESConfig"),
    "Forecaster": ("repro.core", "Forecaster"),
    "Trainer": ("repro.training", "Trainer"),
    "TimelineEvaluator": ("repro.training", "TimelineEvaluator"),
    "generate_dataset": ("repro.data", "generate_dataset"),
    "load_tsv": ("repro.data", "load_tsv"),
    "TKGDataset": ("repro.data", "TKGDataset"),
    "build_model": ("repro.baselines", "build_model"),
    "MODEL_REGISTRY": ("repro.baselines", "MODEL_REGISTRY"),
    "InferenceEngine": ("repro.serving", "InferenceEngine"),
    "OnlineHistoryStore": ("repro.serving", "OnlineHistoryStore"),
    "get_registry": ("repro.obs", "get_registry"),
    "configure_logging": ("repro.obs", "configure_logging"),
    "span": ("repro.obs", "span"),
    "enable_tracing": ("repro.obs", "enable_tracing"),
    "OpProfiler": ("repro.obs", "OpProfiler"),
}


def __getattr__(name):
    """Lazy top-level conveniences: ``from repro import HisRES, Trainer``."""
    try:
        module_name, attr = _TOP_LEVEL[name]
    except KeyError:
        raise AttributeError(f"module 'repro' has no attribute {name!r}") from None
    import importlib

    return getattr(importlib.import_module(module_name), attr)


def __dir__():
    return sorted(list(globals()) + list(_TOP_LEVEL))
