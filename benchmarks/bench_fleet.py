"""Serving — replica fleet over inherited weights vs a single engine.

The fleet's acceptance workload: a multi-prefix-group burst answered by a
consistent-hash-routed :class:`~repro.serve.fleet.FleetServer` and by a
single engine.  Phase 1 (exact decode, prefix cache off) must be
**byte-identical** across the two arms — routing is not allowed to change
output.  Phase 2 times aggregate tokens/sec in the production
configuration (fused decode, prefix cache on) for a fleet of one replica
vs ``replicas`` replicas, in paired rounds (:func:`repro.bench.paired`).

The >= 2x aggregate-throughput target assumes the machine has the cores
to run the replicas; on starved CI boxes it is waived and the gate
degrades to a router-overhead sanity bound, while parity, zero respawns
and router conservation are gated unconditionally.  The gates are the benchmark module's own
(:mod:`repro.serve.fleet_bench`); ``repro bench fleet --json
BENCH_fleet.json`` writes the snapshot.
"""

import json

import pytest

from benchmarks.conftest import FULL, print_result
from repro.bench import failed, format_gates
from repro.parallel import parallel_available
from repro.serve.fleet_bench import format_fleet_report, run_fleet_benchmark


def test_fleet_throughput_and_byte_parity(benchmark):
    if not parallel_available():
        pytest.skip("platform cannot fork replica processes")
    result = run_fleet_benchmark(
        backbone="nano", replicas=4,
        requests_per_group=4 if FULL else 2,
        max_new_tokens=16, repeats=3 if FULL else 2, seed=0)
    print_result("Serve: 4-replica fleet vs single engine (nano backbone)",
                 format_fleet_report(result))
    print_result("Serve: fleet merged registry",
                 json.dumps(result["merged_registry"], indent=2,
                            sort_keys=True))
    print(format_gates(result["gates"]))
    assert not failed(result["gates"]), format_gates(result["gates"])

    benchmark(lambda: run_fleet_benchmark(
        backbone="nano", replicas=2, groups=2, requests_per_group=2,
        max_new_tokens=8, repeats=1, seed=0))
