"""Shared fixtures for the benchmark suite.

Every ``bench_*`` file reproduces one table, figure or claim of the paper,
or an ablation of one of its design choices (DESIGN.md §3).  Speed and
parity claims about the serving and merge substrate are not here: they
are ``repro bench NAME`` drivers (:mod:`repro.bench`).  Each bench:

* builds (or loads from cache) the models it needs through the shared zoo;
* runs the experiment through :mod:`repro.pipelines.experiment`, printing a
  table whose rows mirror the paper's layout;
* times a representative operation with ``pytest-benchmark``.

Set ``REPRO_BENCH_FULL=1`` for the full evaluation protocol (all 90/39
items, all λ points); the default trims item counts so the whole suite runs
in a few minutes on a laptop.
"""

import os

import pytest

FULL = os.environ.get("REPRO_BENCH_FULL", "0") == "1"

#: Evaluation-set size cap in quick mode (None = everything).
MAX_ITEMS = None if FULL else 45


@pytest.fixture(scope="session")
def zoo():
    from repro.pipelines.model_zoo import default_zoo

    z = default_zoo(verbose=True)
    return z


@pytest.fixture(scope="session")
def tokenizer(zoo):
    return zoo.tokenizer


def print_result(title, table):
    print(f"\n=== {title} ===")
    print(table)
