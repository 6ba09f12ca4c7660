"""Module and parameter containers mirroring the torch.nn idiom."""

from __future__ import annotations

import contextlib
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.nn.tensor import Tensor


class Parameter(Tensor):
    """A tensor that is registered as trainable state of a module."""

    def __init__(self, data, name: Optional[str] = None):
        super().__init__(data, requires_grad=True, name=name)


class Module:
    """Base class for neural network components.

    Subclasses assign :class:`Parameter` and :class:`Module` instances as
    attributes; they are discovered automatically for optimisation,
    serialisation, and train/eval mode propagation.
    """

    def __init__(self):
        self._parameters: Dict[str, Parameter] = {}
        self._modules: Dict[str, "Module"] = {}
        self.training = True

    def __setattr__(self, key, value):
        if isinstance(value, Parameter):
            self.__dict__.setdefault("_parameters", {})[key] = value
        elif isinstance(value, Module):
            self.__dict__.setdefault("_modules", {})[key] = value
        object.__setattr__(self, key, value)

    # ------------------------------------------------------------------
    def parameters(self) -> List[Parameter]:
        """Return all trainable parameters (depth-first, deduplicated)."""
        seen: set[int] = set()
        out: List[Parameter] = []
        for _, param in self.named_parameters():
            if id(param) not in seen:
                seen.add(id(param))
                out.append(param)
        return out

    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Parameter]]:
        for name, param in self._parameters.items():
            yield (f"{prefix}{name}", param)
        for name, module in self._modules.items():
            yield from module.named_parameters(prefix=f"{prefix}{name}.")

    def modules(self) -> Iterator["Module"]:
        yield self
        for module in self._modules.values():
            yield from module.modules()

    # ------------------------------------------------------------------
    def zero_grad(self) -> None:
        for param in self.parameters():
            param.grad = None

    def train(self, mode: bool = True) -> "Module":
        for module in self.modules():
            module.training = mode
        return self

    def eval(self) -> "Module":
        return self.train(False)

    @contextlib.contextmanager
    def inference_mode(self):
        """Temporarily switch to eval + no-grad, restoring train state.

        Replaces the ``was_training = self.training; self.eval(); ...``
        boilerplate every ``predict_entities`` used to carry::

            with model.inference_mode():
                scores = model.decode(state, queries).data
        """
        from repro.nn.tensor import no_grad

        was_training = self.training
        self.eval()
        try:
            with no_grad():
                yield self
        finally:
            if was_training:
                self.train()

    # ------------------------------------------------------------------
    @property
    def version(self) -> int:
        """Monotone parameter-state version.

        Bumped whenever the module's weights change wholesale
        (:meth:`load_state_dict`) or a caller declares an in-place
        update (:meth:`bump_version` — the Trainer does this once per
        optimised epoch).  Cached encoder states are keyed on it so
        they can never outlive the weights they were computed from.
        """
        return self.__dict__.get("_version", 0)

    def bump_version(self) -> int:
        """Declare that parameters changed in place; returns the new version."""
        self.__dict__["_version"] = self.version + 1
        return self.version

    def num_parameters(self) -> int:
        """Total number of scalar trainable parameters."""
        return sum(p.size for p in self.parameters())

    # ------------------------------------------------------------------
    def state_dict(self) -> Dict[str, np.ndarray]:
        """Snapshot parameter values (copies) keyed by dotted names."""
        return {name: param.data.copy() for name, param in self.named_parameters()}

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        """Restore parameters from :meth:`state_dict` output.

        Values are copied into the existing float64 parameters.
        """
        own = dict(self.named_parameters())
        missing = set(own) - set(state)
        unexpected = set(state) - set(own)
        if missing or unexpected:
            raise KeyError(f"state mismatch: missing={sorted(missing)} unexpected={sorted(unexpected)}")
        for name, values in state.items():
            param = own[name]
            if param.shape != values.shape:
                raise ValueError(f"shape mismatch for {name}: {param.shape} vs {values.shape}")
            param.data[...] = values
        self.bump_version()

    # ------------------------------------------------------------------
    def forward(self, *args, **kwargs):
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)


class ModuleList(Module):
    """Hold an ordered list of submodules with parameter registration."""

    def __init__(self, modules=()):
        super().__init__()
        self._items: List[Module] = []
        for module in modules:
            self.append(module)

    def append(self, module: Module) -> "ModuleList":
        index = len(self._items)
        self._items.append(module)
        self._modules[str(index)] = module
        return self

    def __iter__(self) -> Iterator[Module]:
        return iter(self._items)

    def __len__(self) -> int:
        return len(self._items)

    def __getitem__(self, index: int) -> Module:
        return self._items[index]


class ModuleDict(Module):
    """Hold a name -> module mapping with parameter registration."""

    def __init__(self, modules: Optional[Dict[str, Module]] = None):
        super().__init__()
        for name, module in (modules or {}).items():
            self[name] = module

    def __setitem__(self, name: str, module: Module) -> None:
        self._modules[name] = module

    def __getitem__(self, name: str) -> Module:
        return self._modules[name]

    def __contains__(self, name: str) -> bool:
        return name in self._modules

    def keys(self):
        return self._modules.keys()

    def items(self):
        return self._modules.items()
