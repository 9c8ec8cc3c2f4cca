"""Serving — K λ-variants from one resident plan vs K full copies.

The λ-fleet's acceptance workload: a mixed-sampling burst spread across
K = 8 merged-model variants (scalar λ grid, a layerwise ramp, a Karcher
midpoint), answered by a :class:`~repro.serve.lambda_fleet.LambdaFleetServer`
materializing every variant lazily from one shared
:class:`~repro.core.merge_engine.MergePlan`, and by K fully-materialized
per-variant oracles.

Unconditional gates: all K variants stay resident at <= ~2x one model's
bytes in the fleet parent's one plan (vs the Kx naive deployment), every
routed token stream is byte-identical to its oracle in exact mode,
scalar/layerwise cold materialization stays within a small multiple of
``engine.merge``, no replica respawns, router conservation.
The aggregate concurrent-over-sequential throughput target is
core-count-conditioned exactly like ``bench_fleet``; a starved box
degrades it to a sanity bound.  The gates are the benchmark module's own
(:mod:`repro.serve.lambda_bench`); ``repro bench lambda --json
BENCH_lambda.json`` writes the snapshot.
"""

import json

import pytest

from benchmarks.conftest import FULL, print_result
from repro.bench import failed, format_gates
from repro.parallel import parallel_available
from repro.serve.lambda_bench import format_lambda_report, run_lambda_benchmark


def test_lambda_fleet_memory_parity_and_throughput(benchmark):
    if not parallel_available():
        pytest.skip("platform cannot fork replica processes")
    result = run_lambda_benchmark(
        backbone="nano", n_variants=8,
        requests_per_variant=3 if FULL else 2,
        max_new_tokens=16, repeats=3 if FULL else 2, seed=0)
    print_result("Serve: 8-variant lambda-fleet vs materialized oracles "
                 "(nano backbone)", format_lambda_report(result))
    print_result("Serve: per-variant traffic",
                 json.dumps(result["variants"], indent=2, sort_keys=True))
    print(format_gates(result["gates"]))
    assert not failed(result["gates"]), format_gates(result["gates"])

    benchmark(lambda: run_lambda_benchmark(
        backbone="nano", n_variants=3, requests_per_variant=2,
        max_new_tokens=8, repeats=1, seed=0))
