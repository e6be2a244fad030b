"""Module system: parameter registration, state dicts, traversal.

A deliberately small fraction of the torch.nn.Module surface — enough for
optimizers, checkpointing, and parallel wrappers to treat models uniformly.
"""

from __future__ import annotations

from typing import Any, Iterator

import numpy as np

from repro.errors import CheckpointError
from repro.tensor import Tensor, quantize

__all__ = ["Parameter", "Module"]


class Parameter(Tensor):
    """A trainable leaf tensor (always ``requires_grad=True``).

    ``is_expert`` marks parameters that belong to a (sharded) MoE expert
    and ``is_tp`` those sharded over a tensor-parallel group; parallel
    wrappers use the flags to pick the right gradient-sync communicator
    (expert-data-parallel / same-TP-shard group vs the full world).
    """

    __slots__ = ("is_expert", "is_tp")

    def __init__(self, data: Any, dtype: str = "fp32"):
        super().__init__(data, requires_grad=True, dtype=dtype)
        self.is_expert = False
        self.is_tp = False


class Module:
    """Base class for all model components."""

    #: Whether a block may checkpoint this module under ``recompute``. A
    #: sublayer that communicates, or leaves a side output such as the MoE
    #: aux loss, must run exactly once per step: it says False.
    recomputable = True

    def __init__(self) -> None:
        object.__setattr__(self, "_parameters", {})
        object.__setattr__(self, "_modules", {})
        object.__setattr__(self, "training", True)

    # ------------------------------------------------------------------ #
    # Registration (automatic via attribute assignment)
    # ------------------------------------------------------------------ #

    def __setattr__(self, name: str, value: Any) -> None:
        if isinstance(value, Parameter):
            self._parameters[name] = value
            if value.name is None:
                value.name = name
        elif isinstance(value, Module):
            self._modules[name] = value
        object.__setattr__(self, name, value)

    def register_module_list(self, name: str, modules: list["Module"]) -> list["Module"]:
        """Register a list of submodules (e.g. transformer blocks, experts)."""
        for i, m in enumerate(modules):
            self._modules[f"{name}.{i}"] = m
        object.__setattr__(self, name, modules)
        return modules

    # ------------------------------------------------------------------ #
    # Traversal
    # ------------------------------------------------------------------ #

    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Parameter]]:
        """Yield (dotted-name, parameter) pairs in registration order."""
        for name, p in self._parameters.items():
            yield (f"{prefix}{name}", p)
        for name, m in self._modules.items():
            yield from m.named_parameters(prefix=f"{prefix}{name}.")

    def parameters(self) -> list[Parameter]:
        """All parameters in registration order."""
        return [p for _, p in self.named_parameters()]

    def modules(self) -> Iterator["Module"]:
        """Yield self and every descendant module."""
        yield self
        for m in self._modules.values():
            yield from m.modules()

    def num_parameters(self) -> int:
        """Total trainable parameter count."""
        return sum(p.size for p in self.parameters())

    # ------------------------------------------------------------------ #
    # Train / eval and gradients
    # ------------------------------------------------------------------ #

    def train(self, mode: bool = True) -> "Module":
        """Set training mode recursively (affects recompute and inference capacity)."""
        for m in self.modules():
            object.__setattr__(m, "training", mode)
        return self

    def eval(self) -> "Module":
        """Set inference mode recursively."""
        return self.train(False)

    def zero_grad(self) -> None:
        """Clear gradients of every parameter."""
        for p in self.parameters():
            p.zero_grad()

    # ------------------------------------------------------------------ #
    # State dict
    # ------------------------------------------------------------------ #

    def state_dict(self) -> dict[str, np.ndarray]:
        """Copy of every parameter's data, keyed by dotted name."""
        return {name: p.data.copy() for name, p in self.named_parameters()}

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        """Load parameter values saved by :meth:`state_dict`; the key sets
        and shapes must match exactly."""
        own = dict(self.named_parameters())
        missing = sorted(set(own) - set(state))
        unexpected = sorted(set(state) - set(own))
        if missing or unexpected:
            raise CheckpointError(
                f"state dict mismatch: missing={missing[:5]}..., "
                f"unexpected={unexpected[:5]}..."
                if len(missing) > 5 or len(unexpected) > 5
                else f"state dict mismatch: missing={missing}, unexpected={unexpected}"
            )
        for name, p in own.items():
            arr = np.asarray(state[name])
            if arr.shape != p.shape:
                raise CheckpointError(
                    f"shape mismatch for {name!r}: checkpoint {arr.shape}, model {p.shape}"
                )
            p.data = quantize(arr, p.dtype).copy()

    # ------------------------------------------------------------------ #
    # Callable protocol
    # ------------------------------------------------------------------ #

    def forward(self, *args: Any, **kwargs: Any) -> Any:
        raise NotImplementedError

    def __call__(self, *args: Any, **kwargs: Any) -> Any:
        return self.forward(*args, **kwargs)
