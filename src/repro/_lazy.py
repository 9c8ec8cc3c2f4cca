"""Lazy package exports (PEP 562).

A package lists which submodule each public name lives in; the submodule
is imported the first time one of its names is read, and the value is then
cached on the package.  ``import repro.serve.net`` therefore loads only the
serving stack, not the trainer, merge engine or eval harness that sit
beside it.  ``__all__`` and ``dir()`` still list every name.

Usage, in a package ``__init__``::

    __all__, __getattr__, __dir__ = lazy_exports(__name__, {
        ".rouge": ("rouge_l", "mean_rouge_l"),
        ".bleu": ("corpus_bleu",),
    })
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable, Dict, List, Sequence, Tuple


def lazy_exports(package: str, table: Dict[str, Sequence[str]]
                 ) -> Tuple[List[str], Callable[[str], object],
                            Callable[[], List[str]]]:
    """The ``__all__``, ``__getattr__`` and ``__dir__`` of ``package``,
    whose exports are ``{relative submodule: names}`` in ``table``."""
    origin = {name: module for module, names in table.items()
              for name in names}

    def __getattr__(name: str) -> object:
        module = origin.get(name)
        if module is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(module, package), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> List[str]:
        return sorted(set(vars(sys.modules[package])) | set(origin))

    return list(origin), __getattr__, __dir__
