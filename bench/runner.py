"""Run one workload in this process, or every workload in subprocesses."""

from __future__ import annotations

import json
import math
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional, Sequence

from .common import (ROOT, UNGATED_UNITS, Workload, check_lag, emit,
                     end_to_end, itl_p50_ms, load_spec, log, merge_passes,
                     out_path, percentile, quartiles)

#: Set-ups per run: ``setup_s`` is their median, and the last one is
#: measured.  Smoke runs (tests) set up once.
SETUP_REPEATS = {"full": 5, "smoke": 1}


def workload_class(name: str):
    if name == "openroad_qa":
        from .serving import OpenroadQA
        return OpenroadQA
    if name == "long_decode":
        from .serving import LongDecode
        return LongDecode
    if name == "net_chat":
        from .chat import NetChat
        return NetChat
    if name == "fig8_sweep":
        from .fig8 import Fig8Sweep
        return Fig8Sweep
    raise SystemExit(f"bench: unknown workload {name!r}")


def _set_up(name: str, seed: int, scale: str):
    cls = workload_class(name)
    times: List[float] = []
    work: Optional[Workload] = None
    for _ in range(SETUP_REPEATS[scale]):
        if work is not None:
            work.close()
        work = cls(seed, scale)
        start = time.perf_counter()
        try:
            work.setup()
        except BaseException:
            work.close()   # a half-built set-up may own a server process
            raise
        times.append(time.perf_counter() - start)
    log(f"{name}: set-up {', '.join(f'{t:.3f}' for t in times)} s")
    return work, statistics.median(times)


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 scale: str = "full") -> dict:
    """Measure one workload and print its result line (stdout, last)."""
    work, setup_s = _set_up(name, seed, scale)
    try:
        if not trace:
            result = work.measure(seconds)
            lag = check_lag(result)
            problems = result.problems + work.verify([result])
            for problem in problems:
                log(f"{name}: FAILED CHECK: {problem}")
            log(f"{name}: gen_lag_ms_p99 {lag:.2f}")
            values = end_to_end(result, setup_s)
            print(json.dumps({"ungated": {
                key: {"value": values.pop(key), "unit": unit}
                for key, unit in UNGATED_UNITS.items()}}))
            return emit(not problems, result.attempted, result.failed,
                        values, "end_to_end")
        return _traced(work, seed, seconds)
    finally:
        work.close()


#: Untraced/traced pass pairs of a traced run.  Pairing passes a few
#: seconds apart keeps the machine's own speed drift (which on a shared
#: box exceeds the tracing cost) out of the overhead estimate.
TRACE_PAIRS = 4


def _traced(work: Workload, seed: int, seconds: float) -> dict:
    """Alternate untraced and traced passes: the traced ones give the
    per-layer numbers, the median ratio of each pair's ITL p50 gives the
    tracing overhead."""
    from .trace import layer_metrics, new_tracer

    tracer = new_tracer()
    passes = seconds / (2 * TRACE_PAIRS)
    bases, traced = [], []
    for _ in range(TRACE_PAIRS):
        bases.append(work.measure(passes))
        work.start_trace(tracer)
        try:
            traced.append(work.measure(passes, tracer))
        finally:
            work.stop_trace(tracer)
    unattributed = work.finish_trace(tracer, traced)
    everything = merge_passes(bases + traced)
    lag = check_lag(everything)
    problems = everything.problems + work.verify(bases + traced)
    if tracer.dropped:
        problems.append(f"tracer dropped {tracer.dropped} spans")
    for problem in problems:
        log(f"{work.name}: FAILED CHECK: {problem}")
    ratios = [itl_p50_ms(t) / itl_p50_ms(b) for b, t in zip(bases, traced)
              if itl_p50_ms(b) > 0]
    both = merge_passes(traced)
    accepts = [(r.accepted - r.sent) * 1e3 for r in both.reqs
               if not math.isnan(r.accepted)]
    extras = dict(both.extras)
    extras.update({
        "serve.scheduler.reported_ttft_ms_p50": percentile(both.server_ttfts_ms,
                                                           50),
        "serve.net.accept_ms_p50": percentile(accepts, 50),
        "trace.overhead_frac": statistics.median(ratios) - 1.0 if ratios else 0.0,
        "trace.unattributed_frac": unattributed,
        "bench.gen_lag_ms_p99": lag,
    })
    path = out_path(f"trace-{work.name}-seed{seed}.jsonl")
    log(f"{work.name}: {tracer.write_jsonl(path)} spans -> {path}")
    return emit(not problems, everything.attempted, everything.failed,
                layer_metrics(tracer, extras), "per_layer")


# ---------------------------------------------------------------------------
# many runs, each in its own process
# ---------------------------------------------------------------------------
def run_many(workloads: Sequence[str], seed: int, seconds: float, trace: bool,
             scale: str, repeat: int) -> int:
    """Run each workload ``repeat`` times (seeds ``seed``, ``seed+1``, ...),
    one subprocess per run, and print per-run values with the median and
    quartiles of each metric, the ungated end-to-end numbers included.
    Returns the exit status."""
    section = "per_layer" if trace else "end_to_end"
    runs: Dict[str, List[dict]] = {w: [] for w in workloads}
    status = 0
    for i in range(repeat):
        for name in workloads:
            cmd = [sys.executable, "-m", "bench", "run", "--workload", name,
                   "--seed", str(seed + i), "--seconds", str(seconds),
                   "--trace", str(int(trace)), "--scale", scale]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                  text=True, timeout=600)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                log(f"{name} seed {seed + i}: exit {proc.returncode}")
                status = 1
                continue
            result = json.loads(lines[-1])
            if len(lines) > 1 and lines[-2].startswith('{"ungated"'):
                result["metrics"].update(json.loads(lines[-2])["ungated"])
            if not result["correct"]:
                status = 1
            runs[name].append(result)
            print(f"{name} seed={seed + i} correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}")
            for metric, mv in result["metrics"].items():
                print(f"  {metric:<40} {mv['value']:>14.6g} {mv['unit']}")
    summary = _summarize(runs, section)
    print(json.dumps(summary))
    return status


def _summarize(runs: Dict[str, List[dict]], section: str) -> dict:
    spec = {m["name"]: m for m in load_spec()[section]}
    if section == "end_to_end":
        spec.update({name: {} for name in UNGATED_UNITS})
    summary: Dict[str, dict] = {}
    print(f"\n{'workload':<12} {'metric':<40} {'q1':>11} {'median':>11} "
          f"{'q3':>11} {'spread':>7} {'bound':>6}")
    for name, results in runs.items():
        summary[name] = {}
        for metric, meta in spec.items():
            values = [r["metrics"][metric]["value"] for r in results]
            if not values:
                continue
            q1, med, q3 = quartiles(values)
            spread = (q3 - q1) / abs(med) if med else 0.0
            summary[name][metric] = {"q1": q1, "median": med, "q3": q3,
                                     "spread": spread, "runs": len(values)}
            bound = meta.get("bound")
            print(f"{name:<12} {metric:<40} {q1:>11.5g} {med:>11.5g} "
                  f"{q3:>11.5g} {spread:>7.3f} "
                  f"{'' if bound is None else bound:>6}")
    return summary
