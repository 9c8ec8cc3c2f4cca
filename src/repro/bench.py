"""Shared harness of the component benchmarks behind ``repro bench NAME``.

The seven benchmark modules
(``serve/{decode,kvplane,fleet,lambda}_bench.py``, ``serve/net/bench.py``,
``parallel/bench.py``, ``nn/train_bench.py``) each measure one subsystem
against its oracle or baseline.  This module is the
one place their measurement method and report schema live:

* :func:`paired` — the timing protocol: one untimed warm-up per arm, then
  rounds that run both arms back to back with the garbage collector
  collected and paused, alternating which arm goes first.  The headline is
  the median of the per-round ratios, with its quartile spread;
* :class:`Gate` — one pass/fail check on a reported value.  A gate that
  cannot bind on this machine carries a ``waiver_reason`` instead of being
  dropped; :func:`failed` lists the applied gates that did not pass;
* :func:`header` — the machine a report was measured on;
* :func:`write_snapshot` — the JSON writer of every ``BENCH_*.json``.

Not to be confused with the repo-root ``bench`` package, which is the
frozen end-to-end workload benchmark (``python -m bench run``): that one
drives the public API from outside and never imports this module.
"""

from __future__ import annotations

import gc
import json
import operator
import os
import platform
import statistics
import subprocess
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from .parallel.blas import blas_thread_policy

_OPS: Dict[str, Callable[[object, object], bool]] = {
    "==": operator.eq, "<=": operator.le, ">=": operator.ge,
    "<": operator.lt, ">": operator.gt,
}


@dataclass(frozen=True)
class Paired:
    """Per-round seconds of two arms timed by :func:`paired`."""

    a_s: List[float]
    b_s: List[float]

    @property
    def ratios(self) -> List[float]:
        """Per-round ``a / b`` time ratios."""
        return [a / b for a, b in zip(self.a_s, self.b_s)]

    @property
    def ratio(self) -> float:
        """Median of the per-round ratios — the headline."""
        return statistics.median(self.ratios)

    @property
    def quartiles(self) -> List[float]:
        """``[q1, q3]`` of the per-round ratios (both the ratio at 1 round)."""
        if len(self.ratios) < 2:
            return self.ratios * 2
        q1, _, q3 = statistics.quantiles(self.ratios, n=4, method="inclusive")
        return [q1, q3]

    @property
    def seconds(self) -> Tuple[float, float]:
        """Median per-round seconds of ``a`` and of ``b``."""
        return statistics.median(self.a_s), statistics.median(self.b_s)

    def as_dict(self) -> Dict[str, object]:
        return {"a_s": self.a_s, "b_s": self.b_s, "ratios": self.ratios,
                "ratio": self.ratio, "ratio_quartiles": self.quartiles}


def paired(a: Callable[[], object], b: Callable[[], object], rounds: int,
           clock: Callable[[], float] = time.perf_counter) -> Paired:
    """Time ``a`` against ``b`` over ``rounds`` GC-fenced, interleaved rounds.

    Each arm runs once untimed first (allocator, caches and worker pools
    settle).  Round ``i`` then runs both arms back to back — ``a`` first on
    even rounds, ``b`` first on odd ones — with garbage collected before
    and paused during the pair, so both arms see the same machine
    conditions and neither pays for the other's garbage.  Pairing cancels
    slow machine-speed drift that a min-per-side over separate runs
    cannot.  Arms that need unique request ids per call keep their own
    counter.
    """
    if rounds < 1:
        raise ValueError(f"rounds must be >= 1, got {rounds}")
    arms = (a, b)
    for arm in arms:
        arm()
    times: Tuple[List[float], List[float]] = ([], [])
    for i in range(rounds):
        gc.collect()
        gc.disable()
        try:
            for j in ((0, 1) if i % 2 == 0 else (1, 0)):
                started = clock()
                arms[j]()
                times[j].append(clock() - started)
        finally:
            gc.enable()
    return Paired(*times)


@dataclass(frozen=True)
class Gate:
    """One check ``value <op> target`` on a benchmark result.

    A gate applies unless it carries a ``waiver_reason`` (for example too
    few cores for a throughput target); waived gates are still reported
    with their value but never fail a run.
    """

    metric: str
    value: object
    target: object
    op: str
    waiver_reason: Optional[str] = None

    def __post_init__(self) -> None:
        if self.op not in _OPS:
            raise ValueError(f"unknown gate op {self.op!r}")

    @property
    def applies(self) -> bool:
        return self.waiver_reason is None

    @property
    def ok(self) -> bool:
        return bool(_OPS[self.op](self.value, self.target))

    def as_dict(self) -> Dict[str, object]:
        return {**asdict(self), "applies": self.applies, "ok": self.ok}

    @staticmethod
    def speedup(value: float, target: float, floor: float,
                waiver_reason: Optional[str]) -> List["Gate"]:
        """The ``speedup >= target`` gate plus its fallback: when the target
        is waived, ``speedup >= floor`` bounds the overhead instead."""
        return [Gate("speedup", value, target, ">=", waiver_reason),
                Gate("speedup", value, floor, ">=",
                     None if waiver_reason else "the speedup target applies")]

    @staticmethod
    def needs_cores(n: int, what: str) -> Optional[str]:
        """Waiver reason when this machine has fewer than ``n`` cores."""
        cores = _cpu_count()
        return None if cores >= n else f"{cores} core(s) < {n} {what}"


def failed(gates: List[Dict[str, object]]) -> List[Dict[str, object]]:
    """The applied gates of a report that did not pass."""
    return [g for g in gates if g["applies"] and not g["ok"]]


def format_gates(gates: List[Dict[str, object]]) -> str:
    """One line per gate: verdict, check, and the waiver reason if any."""
    lines = []
    for g in gates:
        verdict = ("PASS" if g["ok"] else "FAIL") if g["applies"] else "WAIVED"
        value, target = g["value"], g["target"]
        if isinstance(value, float):
            value = f"{value:.3g}"
        if isinstance(target, float):
            target = f"{target:.3g}"
        line = f"{verdict:<6} {g['metric']} = {value} ({g['op']} {target})"
        if not g["applies"]:
            line += f"  [{g['waiver_reason']}]"
        lines.append(line)
    return "\n".join(lines)


def _cpu_count() -> int:
    return os.cpu_count() or 1


def _blas() -> Optional[str]:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 1.26 has no dict mode
        return None
    return f"{blas.get('name')} {blas.get('version')}"


def _git_sha() -> Optional[str]:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"],
                             cwd=Path(__file__).resolve().parent,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def header() -> Dict[str, object]:
    """The machine and code a report was measured on."""
    return {"cpu_count": _cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": _blas(),
            "blas_threads": blas_thread_policy(),
            "git_sha": _git_sha()}


def write_snapshot(result: Dict[str, object], path) -> None:
    """Write a benchmark report as a JSON perf-trajectory snapshot."""
    Path(path).write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
