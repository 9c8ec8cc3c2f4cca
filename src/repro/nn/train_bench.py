"""Training-step benchmark: fused kernels vs the composed autograd graph.

Runs the same deterministic workload — identical initial weights, identical
batches, identical optimiser schedule — through two trainers that differ only
in ``use_fused``, and times the steps.  Because the fused kernels implement
mathematically identical forward/backward formulas, the loss curves must
agree to float32 tolerance; the wall-clock ratio, timed with
:func:`repro.bench.paired`, is the headline speedup gated by
``repro bench train``.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional

import numpy as np

from ..bench import Gate, header, paired
from ..obs import Observability
from .trainer import TrainConfig, Trainer
from .transformer import TransformerLM, preset_config

#: Loss-curve agreement bound between the fused and composed paths.  Both
#: sides run float32 with the same update rule; only op-ordering noise
#: (in-place softmax, folded scaling) separates them, and over tens of steps
#: it stays well under 1e-4 absolute on O(log vocab) losses.
PARITY_ATOL = 5e-4
PARITY_RTOL = 5e-4

#: Speedup floor gated against the composed path.  The headline target is
#: 2x; CI machines are noisy and share cores, so the hard gate leaves margin
#: while the committed snapshot records the measured number.
MIN_SPEEDUP = 1.5


def synthetic_sequences(n: int, seq_len: int, vocab: int,
                        seed: int = 0) -> List[List[int]]:
    """Fixed-length random token sequences avoiding the pad id 0."""
    rng = np.random.default_rng(seed)
    data = rng.integers(1, vocab, size=(n, seq_len))
    return [row.tolist() for row in data]


def run_train_benchmark(backbone: str = "grande", steps: int = 10,
                        batch_size: int = 8, seq_len: Optional[int] = None,
                        vocab: int = 256, repeats: int = 3, seed: int = 0,
                        lr: float = 1e-3,
                        obs: Optional[Observability] = None) -> Dict[str, object]:
    """Time ``steps`` training steps with fused kernels on vs off.

    Returns a JSON-serialisable report: per-side wall-clock, steps/sec,
    tokens/sec, the fused-over-composed speedup, both loss curves with their
    maximum absolute divergence, (when ``obs`` is given or by default a
    private one) the fused run's metric-registry snapshot including the
    per-kernel call and saved-bytes counters, and the ``header`` and
    ``gates``.
    """
    if steps < 1 or batch_size < 1 or repeats < 1:
        raise ValueError("steps, batch_size and repeats must be >= 1")
    config = preset_config(backbone, vocab_size=vocab, seed=seed)
    if seq_len is None:
        seq_len = config.max_seq_len
    if seq_len < 2 or seq_len > config.max_seq_len:
        raise ValueError(
            f"seq_len must be in [2, {config.max_seq_len}], got {seq_len}")
    obs = obs if obs is not None else Observability()

    fused_cfg = dataclasses.replace(config, use_fused=True)
    composed_cfg = dataclasses.replace(config, use_fused=False)
    state = TransformerLM(config).state_dict()
    sequences = synthetic_sequences(steps * batch_size, seq_len, vocab,
                                    seed=seed)
    # Each epoch visits every batch once; epochs=1 gives exactly `steps`
    # optimiser steps.  bucket_by_length is moot (fixed-length sequences) but
    # off keeps the batch order seed-determined the same way on both sides.
    def train_config(use_fused: bool) -> TrainConfig:
        return TrainConfig(lr=lr, epochs=1, batch_size=batch_size,
                           warmup_frac=0.0, seed=seed,
                           bucket_by_length=False, use_fused=use_fused)

    # One full fit per side and call, from the same initial weights.  The
    # untimed warm-up fit matters: BLAS thread spin-up, the allocator's
    # large-block cache, and the mask/RoPE caches all settle over several
    # steps.  The loss curves are deterministic, so any call's curve
    # represents its side; the fused warm-up fit records into ``obs``.
    losses: Dict[bool, List[float]] = {}
    models = {True: TransformerLM(fused_cfg),
              False: TransformerLM(composed_cfg)}

    def fit(use_fused: bool) -> None:
        model = models[use_fused]
        model.load_state_dict(state)
        trainer = Trainer(model, pad_id=0, config=train_config(use_fused),
                          obs=obs if use_fused and True not in losses
                          else None)
        losses.setdefault(use_fused, trainer.fit(sequences).losses)

    timing = paired(lambda: fit(False), lambda: fit(True), repeats)
    tokens_per_step = batch_size * (seq_len - 1)
    composed, fused = ({"seconds": s, "losses": losses[use_fused],
                        "ms_per_step": s * 1e3 / steps,
                        "steps_per_sec": steps / s,
                        "tokens_per_sec": tokens_per_step * steps / s}
                       for s, use_fused in zip(timing.seconds, (False, True)))
    diffs = np.abs(np.asarray(fused["losses"]) - np.asarray(composed["losses"]))
    parity_ok = bool(np.allclose(fused["losses"], composed["losses"],
                                 rtol=PARITY_RTOL, atol=PARITY_ATOL))
    registry = obs.registry.snapshot()
    gates = [
        Gate("parity_ok", parity_ok, True, "=="),
        Gate("speedup", timing.ratio, MIN_SPEEDUP, ">="),
        Gate("registry.kernels.*", sum(name.startswith("kernels.")
                                       for name in registry), 0, ">"),
    ]
    return {
        "header": header(),
        "gates": [g.as_dict() for g in gates],
        "backbone": backbone,
        "steps": steps,
        "batch_size": batch_size,
        "seq_len": seq_len,
        "vocab": vocab,
        "repeats": repeats,
        "tokens_per_step": tokens_per_step,
        "fused": fused,
        "composed": composed,
        "speedup": timing.ratio,
        "timing": timing.as_dict(),
        "loss_max_abs_diff": float(diffs.max()),
        "parity_ok": parity_ok,
        "registry": registry,
    }


def format_train_report(result: Dict[str, object]) -> str:
    """Human-readable summary of :func:`run_train_benchmark`."""
    fused, composed = result["fused"], result["composed"]
    lines = [
        f"workload : {result['steps']} steps x {result['batch_size']} seqs "
        f"x {result['seq_len']} tokens ({result['backbone']} backbone, "
        f"vocab {result['vocab']}, {result['repeats']} paired rounds)",
        f"composed : {composed['ms_per_step']:8.1f} ms/step  "
        f"{composed['steps_per_sec']:6.2f} steps/s  "
        f"{composed['tokens_per_sec']:9.0f} tok/s",
        f"fused    : {fused['ms_per_step']:8.1f} ms/step  "
        f"{fused['steps_per_sec']:6.2f} steps/s  "
        f"{fused['tokens_per_sec']:9.0f} tok/s",
        f"speedup  : {result['speedup']:8.2f}x median",
        f"parity   : max |loss_fused - loss_composed| = "
        f"{result['loss_max_abs_diff']:.2e} "
        f"({'OK' if result['parity_ok'] else 'FAILED'})",
    ]
    return "\n".join(lines)
