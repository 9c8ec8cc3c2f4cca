"""Serving — the network front door over real sockets, gated on SLOs.

The acceptance workload from the serve.net design (DESIGN.md §9): the
nano backbone behind a real 127.0.0.1 TCP listener, driven by the
open-loop load generator.  Five phases — wire/in-process byte parity,
Poisson streaming SLOs, 9:1 two-tenant fairness, overload shedding, and
graceful drain — each gated in :mod:`repro.serve.net.bench` and
summarised in ``BENCH_net.json`` (``repro bench net --json
BENCH_net.json``).

The SLO bounds are deliberately generous (catching order-of-magnitude
regressions on shared CI boxes, not benchmarking the machine).  The
structural gates — byte identity, explicit sheds with positive retry
hints, zero protocol errors, conservation across drain — are exact and
unconditional.
"""

import json
from pathlib import Path

from benchmarks.conftest import print_result
from repro.bench import failed, format_gates
from repro.serve.loadgen import WorkloadSpec, arrival_schedule
from repro.serve.net.bench import format_net_report, run_net_benchmark


def test_net_serving_slos(benchmark):
    report = run_net_benchmark(backbone="nano", n_requests=16, seed=3)
    print_result("Serving: socket front door (nano backbone)",
                 format_net_report(report))
    print(format_gates(report["gates"]))
    assert not failed(report["gates"]), format_gates(report["gates"])

    benchmark(lambda: arrival_schedule(
        WorkloadSpec(n_requests=256, arrival="poisson")))


def test_arrival_schedules_replay_from_snapshot():
    """BENCH_net.json's arrival arrays replay the exact same schedule the
    run used (satellite: exportable/replayable arrival processes)."""
    spec = WorkloadSpec(n_requests=16, shared_prefix_tokens=48,
                        unique_tokens=12, max_new_tokens=16, vocab_size=100,
                        seed=3, arrival="poisson", arrival_rate_rps=64.0)
    fresh = arrival_schedule(spec)
    # Round-trip through JSON, as the snapshot stores them.
    restored = tuple(json.loads(json.dumps(list(fresh))))
    assert restored == fresh
    snapshot = Path(__file__).resolve().parent.parent / "BENCH_net.json"
    if snapshot.exists():
        saved = json.loads(snapshot.read_text())
        assert tuple(saved["streaming"]["arrivals"]) == fresh, (
            "committed BENCH_net.json streaming arrivals no longer match "
            "the seeded schedule — spec or RNG stream drifted")
