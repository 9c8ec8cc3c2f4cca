"""Module and parameter abstractions for the :mod:`repro.nn` substrate.

A :class:`Module` owns named :class:`Parameter` tensors and child modules and
exposes the state-dict protocol that the merging code in :mod:`repro.core`
operates on: ``state_dict()`` returns a flat ``{name: numpy array}`` mapping,
``load_state_dict()`` restores it.  That mapping is the common currency between
training, checkpointing, and every merge method in this repository.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Iterator, List, Tuple

import numpy as np

from .tensor import Tensor


class Parameter(Tensor):
    """A tensor that is registered as a trainable model weight."""

    def __init__(self, data) -> None:
        super().__init__(data, requires_grad=True)


class Module:
    """Base class for neural-network components.

    Subclasses assign :class:`Parameter` and :class:`Module` instances as
    attributes; registration is automatic via ``__setattr__``.
    """

    def __init__(self) -> None:
        object.__setattr__(self, "_parameters", OrderedDict())
        object.__setattr__(self, "_modules", OrderedDict())
        object.__setattr__(self, "training", True)

    def __setattr__(self, name: str, value) -> None:
        if isinstance(value, Parameter):
            self._parameters[name] = value
        elif isinstance(value, Module):
            self._modules[name] = value
        object.__setattr__(self, name, value)

    # ------------------------------------------------------------------
    # traversal
    # ------------------------------------------------------------------
    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Parameter]]:
        """Yield ``(dotted_name, parameter)`` pairs in registration order."""
        for name, param in self._parameters.items():
            yield (f"{prefix}{name}", param)
        for name, module in self._modules.items():
            yield from module.named_parameters(prefix=f"{prefix}{name}.")

    def parameters(self) -> List[Parameter]:
        """Return all parameters as a list."""
        return [p for _, p in self.named_parameters()]

    def named_modules(self, prefix: str = "") -> Iterator[Tuple[str, "Module"]]:
        """Yield ``(dotted_name, module)`` pairs, including self as ``""``."""
        yield prefix.rstrip("."), self
        for name, module in self._modules.items():
            yield from module.named_modules(prefix=f"{prefix}{name}.")

    def num_parameters(self) -> int:
        """Total number of scalar weights in the module tree."""
        return sum(p.size for p in self.parameters())

    # ------------------------------------------------------------------
    # train/eval and gradient helpers
    # ------------------------------------------------------------------
    def train(self) -> "Module":
        """Put the module (recursively) in training mode."""
        object.__setattr__(self, "training", True)
        for m in self._modules.values():
            m.train()
        return self

    def eval(self) -> "Module":
        """Put the module (recursively) in evaluation mode."""
        object.__setattr__(self, "training", False)
        for m in self._modules.values():
            m.eval()
        return self

    def zero_grad(self) -> None:
        """Clear gradients on every parameter."""
        for p in self.parameters():
            p.zero_grad()

    # ------------------------------------------------------------------
    # state dict protocol
    # ------------------------------------------------------------------
    def state_dict(self) -> "OrderedDict[str, np.ndarray]":
        """Return a flat name → numpy array copy of all weights."""
        return OrderedDict((name, p.data.copy()) for name, p in self.named_parameters())

    def parameter_arrays(self) -> "OrderedDict[str, np.ndarray]":
        """The parameters' own arrays by state-dict name (no copies).

        The read-only counterpart of :meth:`state_dict` for readers that
        must not double the model's footprint — inference engines, merge
        planning, checkpoint writes — and the ``out`` buffers a merge
        writes straight into.  The arrays stay live: an optimizer step
        (``p.data -= ...``) shows through them, while
        :meth:`load_state_dict` replaces them.
        """
        return OrderedDict((name, p.data) for name, p in self.named_parameters())

    def load_state_dict(self, state: Dict[str, np.ndarray], strict: bool = True) -> None:
        """Load weights from a flat name → array mapping.

        Parameters
        ----------
        state:
            Mapping as produced by :meth:`state_dict`.
        strict:
            If True, missing or unexpected keys raise ``KeyError`` and shape
            mismatches raise ``ValueError``.
        """
        own = dict(self.named_parameters())
        if strict:
            missing = sorted(set(own) - set(state))
            unexpected = sorted(set(state) - set(own))
            if missing or unexpected:
                raise KeyError(
                    f"state dict mismatch: missing={missing}, unexpected={unexpected}"
                )
        for name, param in own.items():
            if name not in state:
                continue
            value = state[name]
            if np.shape(value) != param.data.shape:
                raise ValueError(
                    f"shape mismatch for {name!r}: model {param.data.shape}, "
                    f"state {np.shape(value)}"
                )
            # One C-ordered copy that casts on the way: the parameter never
            # aliases the caller's array.
            param.data = np.array(value, dtype=param.data.dtype, order="C")

    # ------------------------------------------------------------------
    # call protocol
    # ------------------------------------------------------------------
    def forward(self, *args, **kwargs):
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)


class ModuleList(Module):
    """A list of child modules registered under their index."""

    def __init__(self, modules=()) -> None:
        super().__init__()
        self._items: List[Module] = []
        for m in modules:
            self.append(m)

    def append(self, module: Module) -> None:
        name = str(len(self._items))
        self._items.append(module)
        self._modules[name] = module
        object.__setattr__(self, name, module)

    def __iter__(self) -> Iterator[Module]:
        return iter(self._items)

    def __len__(self) -> int:
        return len(self._items)

    def __getitem__(self, idx: int) -> Module:
        return self._items[idx]
