"""Benchmark-side spans around the public calls of layers that emit none.

The program already records spans for HTTP, the engine, encode/decode,
training steps and the cluster.  Window assembly, the nn substrate and
the neighbor sampler are timed here instead, by wrapping their public
methods with :func:`repro.obs.span` — only in traced runs, and without
touching ``src/``.
"""

from __future__ import annotations

import functools
import threading
from typing import Callable, Dict, List


def _wrap(owner, attr: str, name: str) -> Callable[[], None]:
    """Replace ``owner.attr`` with a span-recording wrapper; returns an undo."""
    from repro.obs import span

    original = getattr(owner, attr)

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        with span(name):
            return original(*args, **kwargs)

    setattr(owner, attr, wrapper)
    return lambda: setattr(owner, attr, original)


def install_window_probes() -> List[Callable[[], None]]:
    """``window.build`` / ``window.absorb`` around every WindowBuilder."""
    from repro.core.window import WindowBuilder

    return [
        _wrap(WindowBuilder, "window_for", "window.build"),
        _wrap(WindowBuilder, "absorb", "window.absorb"),
    ]


def install_trainer_probes(trainer) -> List[Callable[[], None]]:
    """``nn.forward`` / ``nn.backward`` / ``nn.optimizer`` for one trainer."""
    from repro.nn.tensor import Tensor

    undo = [
        _wrap(trainer.plan, "loss", "nn.forward"),
        _wrap(trainer.optimizer, "step", "nn.optimizer"),
        _wrap(Tensor, "backward", "nn.backward"),
    ]
    if trainer.scoped_plan is not None:
        undo.append(_wrap(trainer.scoped_plan, "loss", "nn.forward"))
    return undo


class SamplerProbe:
    """Times ``NeighborSampler.induce`` and records closure sizes."""

    def __init__(self, sampler, num_entities: int):
        from repro.obs import span

        self.closure_nodes: List[int] = []
        self._lock = threading.Lock()
        original = sampler.induce

        @functools.wraps(original)
        def induce(window, seeds):
            with span("sampler.induce"):
                induced, scope = original(window, seeds)
            nodes = scope.num_nodes
            with self._lock:
                # the identity scope keeps every entity
                self.closure_nodes.append(int(nodes) if nodes is not None else num_entities)
            return induced, scope

        sampler.induce = induce
        self.undo = lambda: setattr(sampler, "induce", original)

    def stats(self) -> Dict[str, float]:
        nodes = self.closure_nodes
        return {"closure_nodes_mean": sum(nodes) / len(nodes) if nodes else 0.0}
