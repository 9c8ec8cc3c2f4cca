"""Serving — zero-copy KV plane: block sharing, hot admission, paged decode.

The zero-copy acceptance workload (DESIGN.md §13).  Three gates, all
unconditional:

* shared-block prefix/session serving must be byte-identical to the dense
  copy path over mixed sampling, prefix hits, and a session resume;
* a full prefix hit must admit with **zero** KV bytes copied — asserted
  from the engine's ``serve.kv.bytes_copied`` counter, not inferred — and
  hot admission must beat cold full-prompt prefill by >= 3x;
* vectorized paged decode must cost at most 1.25x a dense decode step at
  512-token contexts (median of paired rounds).

The gates are the benchmark module's own (:mod:`repro.serve.kvplane_bench`);
``repro bench kvplane --json BENCH_kvplane.json`` writes the snapshot.
"""

from benchmarks.conftest import FULL, print_result
from repro.bench import failed, format_gates
from repro.serve.kvplane_bench import (format_kvplane_report,
                                       run_kvplane_benchmark)


def test_kvplane_parity_zero_copy_and_step_cost(benchmark):
    result = run_kvplane_benchmark(
        n_groundings=4 if FULL else 3,
        tails_per_grounding=3 if FULL else 2,
        repeats=7 if FULL else 5,
        steps=40 if FULL else 30,
        epochs=25, seed=0)
    print_result("Serve: zero-copy KV plane vs the copy path",
                 format_kvplane_report(result))
    print(format_gates(result["gates"]))
    assert not failed(result["gates"]), format_gates(result["gates"])

    benchmark(lambda: run_kvplane_benchmark(
        n_groundings=1, tails_per_grounding=1, repeats=1, steps=5,
        epochs=8, seed=0))
