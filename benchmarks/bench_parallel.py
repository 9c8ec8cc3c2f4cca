"""Evaluation — WorkerPool fan-out vs. the serial item loop.

The acceptance workload from the parallel-layer design: the OpenROAD QA
benchmark at the ``grande`` backbone evaluated with 4 workers and serially.
Both arms run the same answerer over the same triplets, so responses and
ROUGE-L scores must be bit-identical; the wall-clock ratio is the headline
speedup, timed in paired rounds (:func:`repro.bench.paired`).

The >= 2x target assumes the machine actually has the cores to run 4
workers; on starved CI boxes it is waived and the gate degrades to an
overhead sanity bound, while parity and the pool counters are gated
unconditionally.  The gates
are the benchmark module's own (:mod:`repro.parallel.bench`); ``repro bench
parallel --json BENCH_parallel.json`` writes the snapshot.
"""

import json

import pytest

from benchmarks.conftest import FULL, print_result
from repro.bench import failed, format_gates
from repro.parallel import parallel_available
from repro.parallel.bench import format_parallel_report, run_parallel_benchmark


def test_parallel_eval_speedup_and_parity(benchmark):
    if not parallel_available():
        pytest.skip("platform cannot fork worker processes")
    result = run_parallel_benchmark(
        backbone="grande", workers=4, n_items=None if FULL else 30,
        max_new_tokens=24, repeats=3 if FULL else 2, seed=0)
    print_result("Eval: 4-worker pool vs serial loop (grande backbone)",
                 format_parallel_report(result))
    print_result("Eval: parallel-run registry snapshot",
                 json.dumps(result["registry"], indent=2, sort_keys=True))
    print(format_gates(result["gates"]))
    assert not failed(result["gates"]), format_gates(result["gates"])

    benchmark(lambda: run_parallel_benchmark(
        backbone="grande", workers=2, n_items=6, max_new_tokens=12,
        repeats=1, seed=0))
