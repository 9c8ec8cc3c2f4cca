"""The serving stack imports only the serving stack.

``repro``, ``repro.nn``, ``repro.eval``, ``repro.eval.ifeval`` and
``repro.serve`` export lazily (:mod:`repro._lazy`), so a process that
imports the network front door does not load the trainer, merge engine,
eval harness, RAG or worker pool — nor asyncio — and pays none of their
import footprint; the eval harness loads the worker pool only when it
runs one, and the load generator's helpers come without the engine and
scheduler.  The import graph is
checked in a fresh interpreter, since this suite's own process has long
since imported everything.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = str(Path(repro.__file__).resolve().parents[1])

#: Modules a fresh ``import repro.serve.net`` must not load.
NOT_SERVING = ("asyncio", "ssl", "concurrent.futures", "repro.core",
               "repro.rag", "repro.parallel", "repro.pipelines",
               "repro.eval.harness", "repro.nn.trainer")

LAZY_PACKAGES = ("repro", "repro.nn", "repro.eval", "repro.eval.ifeval",
                 "repro.serve")


def _fresh_modules(statement: str):
    """``sys.modules`` of a fresh interpreter after ``statement``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    out = subprocess.run(
        [sys.executable, "-c",
         f"import json, sys\n{statement}\nprint(json.dumps(list(sys.modules)))"],
        env=env, stdout=subprocess.PIPE, check=True, text=True, timeout=120)
    return set(json.loads(out.stdout))


@pytest.mark.parametrize("module, not_loaded", [
    ("repro.serve.net", NOT_SERVING),
    # The harness's instruction constants come without the worker pool.
    ("repro.eval.harness", ("multiprocessing", "repro.parallel")),
    ("repro.eval.mcq_eval", ("multiprocessing", "repro.parallel")),
    # The load generator's helpers come without the engine and scheduler.
    ("repro.serve.loadgen", ("repro.serve.engine", "repro.serve.cache",
                             "repro.serve.scheduler", "repro.serve.server",
                             "repro.nn.infer")),
])
def test_import_loads_only_what_the_module_needs(module, not_loaded):
    loaded = _fresh_modules(f"import {module}")
    assert module in loaded
    assert not [m for m in not_loaded if m in loaded]


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_lazy_exports_resolve_and_are_listed(package):
    module = importlib.import_module(package)
    listed = dir(module)
    for name in module.__all__:
        assert getattr(module, name) is not None, name
        assert name in listed, name
    with pytest.raises(AttributeError):
        getattr(module, "no_such_export")


def test_root_merge_is_the_registry_entry_point():
    from repro import merge
    from repro.core.registry import merge as registry_merge

    assert merge is registry_merge
    assert callable(merge)
