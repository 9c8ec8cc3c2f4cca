"""Serving — cheap decode (int8 / paged KV / speculative) vs its oracles.

The cheap-decode acceptance workload: every cost-saving path must be
byte-identical to its exactness oracle (paged vs dense KV, int8 vs the
dequantized-weight exact engine, speculative vs target-only decoding) —
asserted unconditionally, like every parity gate in this suite.  The
speculative >= 1.2x tokens/sec target applies only when the measured
draft-acceptance rate clears the 0.5 floor (``target_applies``); below it
the gate degrades to an overhead bound — a draft that disagrees with its
target must not *cost* more than ``MIN_STARVED_RATIO`` of baseline
throughput.  KV accounting must show paged reserving no more than dense
under the mixed-length burst, with zero leaked blocks and an intact
free-list conservation invariant after drain.  The gates are the
benchmark module's own (:mod:`repro.serve.decode_bench`);
``repro bench decode --json BENCH_decode.json`` writes the snapshot.
"""

from benchmarks.conftest import FULL, print_result
from repro.bench import failed, format_gates
from repro.serve.decode_bench import format_decode_report, run_decode_benchmark


def test_decode_parity_memory_and_speculative_speedup(benchmark):
    result = run_decode_benchmark(
        n_requests=12 if FULL else 8,
        max_new_tokens=32,
        repeats=5 if FULL else 3,
        epochs=30, seed=0)
    print_result("Serve: cheap decode vs oracles (grande target, nano draft)",
                 format_decode_report(result))
    print(format_gates(result["gates"]))
    assert not failed(result["gates"]), format_gates(result["gates"])

    benchmark(lambda: run_decode_benchmark(
        n_requests=4, max_new_tokens=8, repeats=1, epochs=8, seed=0))
