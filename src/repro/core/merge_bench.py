"""Merge-engine benchmark: one plan and a λ sweep vs a naive per-λ loop.

The acceptance workload of the incremental merge engine (DESIGN.md §5): a
λ sweep over one (chip, instruct) pair, by default Figure 8's 11-point
grid on the ``grande`` backbone.  The naive baseline re-runs the full
per-tensor :func:`~repro.core.geodesic.geodesic_merge` — float64
conversion, sphere projections, norms and angles — for every λ, which is
what the Figure 8 runner did before the engine existed.  The engine arm
builds one :class:`~repro.core.merge_engine.MergePlan` and evaluates every
λ from it, planning included in its time.  Three gates:

* the engine sweep beats the naive loop by >= ``SPEEDUP_TARGET``
  (median of :func:`repro.bench.paired` rounds);
* every λ point's tensors are ``np.allclose`` to the naive merge (rtol
  1e-10, atol 1e-13);
* a single-λ :meth:`~repro.core.merge_engine.GeodesicMergeEngine.merge`
  from an existing plan beats a from-scratch merge — the win the model
  zoo banks when λ is tuned interactively.

``chip``/``instruct`` name two checkpoints to sweep instead of the random
pair.  ``repro bench merge --json BENCH_merge.json`` writes the snapshot.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Optional

import numpy as np

from ..bench import Gate, header, paired

#: Engine-over-naive wall-clock floor for the whole sweep.
SPEEDUP_TARGET = 3.0

#: The λ of the single-merge comparison (the paper's default).
SINGLE_LAMBDA = 0.6


def _model_pair(backbone: str, chip: Optional[str], instruct: Optional[str],
                vocab: int):
    """``(chip, instruct, source)``: two checkpoints' state dicts, or a
    random-init pair of ``backbone`` (seeds 0 and 1)."""
    from ..nn.checkpoint import load_model
    from ..nn.transformer import TransformerLM, preset_config

    if (chip is None) != (instruct is None):
        raise ValueError("pass both chip= and instruct=, or neither")
    if chip is not None:
        chip_model, _ = load_model(chip)
        instruct_model, _ = load_model(instruct)
        if chip_model.config != instruct_model.config:
            raise ValueError("chip and instruct have different architectures")
        return (chip_model.state_dict(), instruct_model.state_dict(),
                f"{chip} / {instruct}")
    chip_sd, instruct_sd = (
        TransformerLM(preset_config(backbone, vocab_size=vocab, seed=seed))
        .state_dict() for seed in (0, 1))
    return (chip_sd, instruct_sd,
            f"random {backbone} pair (seeds 0/1, vocab {vocab})")


def run_merge_benchmark(backbone: str = "grande", chip: Optional[str] = None,
                        instruct: Optional[str] = None, points: int = 11,
                        repeats: int = 9, workers: Optional[int] = None,
                        vocab: int = 512) -> Dict[str, object]:
    """Time a ``points``-λ sweep, naive loop vs the merge engine.

    Returns a JSON-serialisable report: per-arm seconds, the sweep
    speedup, the allclose verdict, the single-λ naive-over-planned ratio,
    and the ``header`` and ``gates``.  ``workers`` forks that many sweep
    workers for the engine arm.
    """
    from .geodesic import geodesic_merge
    from .merge_engine import GeodesicMergeEngine

    if points < 2:
        raise ValueError(f"points must be >= 2, got {points}")
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    chip_sd, instruct_sd, source = _model_pair(backbone, chip, instruct,
                                               vocab)
    lams = [i / (points - 1) for i in range(points)]
    results = {}

    def naive(lam):
        return OrderedDict((key, geodesic_merge(chip_sd[key],
                                                instruct_sd[key], lam))
                           for key in chip_sd)

    def naive_sweep():
        results["naive"] = [naive(lam) for lam in lams]

    def engine_sweep():
        results["engine"] = GeodesicMergeEngine(chip_sd, instruct_sd).sweep(
            lams, n_workers=workers)

    timing = paired(naive_sweep, engine_sweep, repeats)
    allclose = all(
        np.allclose(naive_sd[key], engine_sd[key], rtol=1e-10, atol=1e-13)
        for naive_sd, engine_sd in zip(results.pop("naive"),
                                       results.pop("engine"))
        for key in chip_sd)

    engine = GeodesicMergeEngine(chip_sd, instruct_sd)
    single = paired(lambda: naive(SINGLE_LAMBDA),
                    lambda: engine.merge(SINGLE_LAMBDA), repeats)

    naive_s, engine_s = timing.seconds
    single_naive_s, single_engine_s = single.seconds
    gates = [
        Gate("speedup", timing.ratio, SPEEDUP_TARGET, ">="),
        Gate("allclose", allclose, True, "=="),
        Gate("single.speedup", single.ratio, 1.0, ">"),
    ]
    return {
        "header": header(),
        "gates": [g.as_dict() for g in gates],
        "source": source,
        "n_tensors": len(chip_sd),
        "n_params": sum(int(np.asarray(w).size) for w in chip_sd.values()),
        "points": points,
        "repeats": repeats,
        "workers": workers,
        "naive": {"seconds": naive_s},
        "engine": {"seconds": engine_s},
        "speedup": timing.ratio,
        "timing": timing.as_dict(),
        "allclose": allclose,
        "single": {"lam": SINGLE_LAMBDA, "naive_s": single_naive_s,
                   "engine_s": single_engine_s, "ratio": single.ratio,
                   "timing": single.as_dict()},
    }


def format_merge_report(result: Dict[str, object]) -> str:
    """Human-readable summary of :func:`run_merge_benchmark`."""
    single = result["single"]
    return "\n".join([
        f"workload : {result['source']}, {result['n_tensors']} tensors, "
        f"{result['n_params']:,} params, {result['points']} lambda points, "
        f"{result['repeats']} paired rounds",
        f"naive    : {result['naive']['seconds'] * 1e3:8.1f} ms per sweep",
        f"engine   : {result['engine']['seconds'] * 1e3:8.1f} ms per sweep "
        f"(plan included)",
        f"speedup  : {result['speedup']:8.2f}x median",
        f"allclose : {result['allclose']}",
        f"single   : naive {single['naive_s'] * 1e3:.2f} ms, planned "
        f"{single['engine_s'] * 1e3:.2f} ms at lambda={single['lam']} "
        f"({single['ratio']:.1f}x)",
    ])
