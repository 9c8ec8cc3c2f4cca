"""Training — fused single-node kernels vs. the composed autograd graph.

The acceptance workload from the fused-kernel design: >= 10 optimiser steps
at the ``grande`` backbone (the largest preset, playing LLaMA2-70B's role)
on fixed-length synthetic batches.  Both sides start from identical weights
and consume identical batches; they differ only in ``use_fused``, so the
loss curves must agree to float32 tolerance while the fused side finishes
each step roughly twice as fast (fused attention with a recomputation-free
backward, whole-head fused loss, folded RMSNorm weights, workspace reuse).

The two trainers are timed in paired rounds (:func:`repro.bench.paired`).
The gates (loss parity, the ``MIN_SPEEDUP`` floor, kernel counters) are
the benchmark module's own (:mod:`repro.nn.train_bench`); ``repro bench train
--json BENCH_train.json`` writes the snapshot.
"""

import json

from benchmarks.conftest import FULL, print_result
from repro.bench import failed, format_gates
from repro.nn.train_bench import format_train_report, run_train_benchmark


def test_fused_training_speedup_and_parity(benchmark):
    result = run_train_benchmark(
        backbone="grande", steps=10, batch_size=8, vocab=256,
        repeats=4 if FULL else 2, seed=0)
    print_result("Training: fused kernels vs composed graph (grande backbone)",
                 format_train_report(result))
    print_result("Training: fused-kernel registry snapshot",
                 json.dumps(result["registry"], indent=2, sort_keys=True))
    print(format_gates(result["gates"]))
    assert not failed(result["gates"]), format_gates(result["gates"])

    benchmark(lambda: run_train_benchmark(
        backbone="grande", steps=2, batch_size=4, vocab=256, repeats=1,
        seed=0))
