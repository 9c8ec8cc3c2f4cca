"""Socket serving benchmark: SLO-gated streaming, fairness, shed, drain.

Four phases, each against a fresh :class:`NetServerThread` over a real
127.0.0.1 socket:

``parity``
    Exact decode mode, prefix cache off: every completion fetched over the
    wire must be byte-identical to :meth:`InProcessServer.complete` on the
    same model/seeds.  Serving through sockets must not change a single
    token.
``streaming``
    Fused mode under an open-loop Poisson arrival stream: client-measured
    p50/p99 TTFT and aggregate tokens/sec — the SLO numbers.
``fairness``
    A 9:1 aggressor/minority tenant pair at equal weights.  The gate:
    the minority's p99 TTFT within :data:`FAIRNESS_RATIO_MAX` of what it
    sees running solo on an idle server.
``overload``
    Tiny queue bounds, instantaneous burst far over capacity: admission
    must shed explicitly (shed frames with positive ``retry_after_s``),
    never stall or error, and everything admitted must finish.
``drain``
    Drain under load: admitted work completes, a submit racing the drain
    is refused with the ``draining`` shed code, and the scheduler's
    conservation ledger balances.

Every phase's arrival schedule is emitted in the report (plain float
arrays), so a saved ``BENCH_net.json`` replays bit-identically through
``run_socket_workload(..., arrivals=saved)``.
"""

from __future__ import annotations

from typing import Dict, Optional

from ...bench import Gate, header
from ...nn.transformer import TransformerLM, preset_config
from ..loadgen import (WorkloadSpec, arrival_schedule, run_multi_tenant_workload,
                       run_socket_workload, synthetic_prompts)
from ..request import SamplingParams
from ..scheduler import ServeConfig
from ..server import InProcessServer
from .admission import TenantConfig
from .client import NetClient, NetClientError, ShedError
from .server import NetServerConfig, NetServerThread

#: SLO gates for the streaming phase (generous: CI boxes are slow and
#: shared; the point is catching order-of-magnitude regressions, not
#: machine benchmarking).
TTFT_P50_SLO_S = 1.0
TTFT_P99_SLO_S = 4.0
MIN_TOKENS_PER_SEC = 20.0
#: Minority-tenant p99 TTFT under 9:1 contention vs. solo.
FAIRNESS_RATIO_MAX = 2.0
#: Absolute grace floor for the fairness gate: when the contended p99 is
#: under this bound the minority is objectively fast and the solo-run
#: denominator (single-digit milliseconds on an idle server) is pure
#: scheduler jitter, so the ratio carries no signal.  The deterministic
#: WFQ release-order test in tests/test_serve_net.py holds the exact
#: fairness property; this gate catches real starvation over the wire.
FAIRNESS_ABS_FLOOR_S = 0.05


def _model(backbone: str = "nano", seed: int = 0) -> TransformerLM:
    return TransformerLM(preset_config(backbone, vocab_size=128, seed=seed))


def _start(model, serve_config: ServeConfig,
           net_config: Optional[NetServerConfig] = None) -> NetServerThread:
    handle = NetServerThread(model, serve_config=serve_config,
                             net_config=net_config or NetServerConfig())
    handle.start()
    return handle


def run_parity_phase(model, spec: WorkloadSpec) -> Dict[str, object]:
    """Byte-identity over the wire vs. the in-process exact path."""
    config = ServeConfig(decode_mode="exact", prefix_cache=False,
                         max_batch_size=4)
    reference = InProcessServer(model, config=ServeConfig(
        decode_mode="exact", prefix_cache=False, max_batch_size=4))
    expected = []
    for i, prompt in enumerate(synthetic_prompts(spec)):
        completion = reference.complete(prompt, params=SamplingParams(
            max_new_tokens=spec.max_new_tokens, temperature=spec.temperature,
            seed=spec.seed + i))
        expected.append(list(completion.token_ids))

    handle = _start(model, config)
    try:
        result = run_socket_workload(handle.server.address, spec)
        actual = [list(rec["token_ids"]) for rec in result["records"]]
        streamed = [list(rec["streamed"]) for rec in result["records"]]
    finally:
        handle.drain()
        handle.stop()
    mismatches = sum(a != e for a, e in zip(actual, expected))
    stream_mismatches = sum(s != a for s, a in zip(streamed, actual))
    return {
        "n_requests": spec.n_requests,
        "mismatches": mismatches,
        "stream_mismatches": stream_mismatches,
        "byte_identical": mismatches == 0 and stream_mismatches == 0,
        "n_errors": result["n_errors"],
    }


def run_streaming_phase(model, spec: WorkloadSpec) -> Dict[str, object]:
    """Open-loop Poisson stream; client-side TTFT/latency percentiles."""
    handle = _start(model, ServeConfig(max_batch_size=8))
    try:
        result = run_socket_workload(handle.server.address, spec)
        accounting = handle.drain()
        server_metrics = handle.server.metrics()
    finally:
        handle.stop()
    return {
        "arrival": spec.arrival,
        "arrivals": result["arrivals"],
        "n_finished": result["n_finished"],
        "n_errors": result["n_errors"],
        "tokens": result["tokens"],
        "tokens_per_second": result["tokens_per_second"],
        "ttft_p50_s": result["ttft_p50_s"],
        "ttft_p99_s": result["ttft_p99_s"],
        "latency_p50_s": result["latency_p50_s"],
        "latency_p99_s": result["latency_p99_s"],
        "conservation_ok": bool(accounting["conservation_ok"]),
        "protocol_errors": server_metrics["server"].get(
            "serve.net.protocol_errors", 0),
    }


def run_fairness_phase(model, minority_spec: WorkloadSpec,
                       aggressor_spec: WorkloadSpec) -> Dict[str, object]:
    """Minority p99 TTFT: solo vs. under a 9:1 aggressor, equal weights."""
    tenants = (TenantConfig(name="aggressor", weight=1.0, max_queue=256),
               TenantConfig(name="minority", weight=1.0, max_queue=256))

    def fresh():
        return _start(model, ServeConfig(max_batch_size=4),
                      NetServerConfig(tenants=tenants, max_queue_total=512))

    handle = fresh()
    try:
        solo = run_socket_workload(handle.server.address, minority_spec,
                                   tenant="minority")
    finally:
        handle.drain()
        handle.stop()

    handle = fresh()
    try:
        contended = run_multi_tenant_workload(
            handle.server.address,
            {"aggressor": aggressor_spec, "minority": minority_spec})
    finally:
        handle.drain()
        handle.stop()

    solo_p99 = solo["ttft_p99_s"]
    cont_p99 = contended["minority"]["ttft_p99_s"]
    return {
        "within_slo": bool(
            cont_p99 <= max(FAIRNESS_RATIO_MAX * solo_p99,
                            FAIRNESS_ABS_FLOOR_S)),
        "abs_floor_s": FAIRNESS_ABS_FLOOR_S,
        "aggressor_requests": aggressor_spec.n_requests,
        "minority_requests": minority_spec.n_requests,
        "minority_solo_ttft_p99_s": solo_p99,
        "minority_contended_ttft_p99_s": cont_p99,
        "aggressor_ttft_p99_s": contended["aggressor"]["ttft_p99_s"],
        "ratio": cont_p99 / solo_p99 if solo_p99 > 0 else 0.0,
        "arrivals": {"minority": contended["minority"]["arrivals"],
                     "aggressor": contended["aggressor"]["arrivals"]},
        "n_errors": (solo["n_errors"] + contended["minority"]["n_errors"]
                     + contended["aggressor"]["n_errors"]),
    }


def run_overload_phase(model, spec: WorkloadSpec) -> Dict[str, object]:
    """Burst far over tiny queue bounds: explicit sheds, no stalls."""
    net_config = NetServerConfig(
        default_tenant=TenantConfig(max_queue=4),
        max_queue_total=8)
    handle = _start(model, ServeConfig(max_batch_size=2), net_config)
    try:
        result = run_socket_workload(handle.server.address, spec)
        accounting = handle.drain()
    finally:
        handle.stop()
    sheds = [rec for rec in result["records"] if rec["status"] == "shed"]
    return {
        "n_requests": spec.n_requests,
        "n_finished": result["n_finished"],
        "n_shed": result["n_shed"],
        "n_errors": result["n_errors"],
        "shed_codes": sorted({rec["shed_code"] for rec in sheds}),
        "retry_after_all_positive": all(
            (rec["retry_after_s"] or 0) > 0 for rec in sheds),
        "conservation_ok": bool(accounting["conservation_ok"]),
        "arrivals": result["arrivals"],
    }


def run_drain_phase(model, spec: WorkloadSpec) -> Dict[str, object]:
    """Drain under load: in-flight finishes, a racing submit is refused."""
    import threading

    handle = _start(model, ServeConfig(max_batch_size=4))
    prompts = synthetic_prompts(spec)
    accounting = {}
    try:
        with NetClient(*handle.server.address, io_timeout=60.0) as client:
            ids = [client.submit(prompt_ids=p,
                                 params={"max_new_tokens":
                                         spec.max_new_tokens,
                                         "seed": spec.seed + i})
                   for i, p in enumerate(prompts)]
            # The drain flag must not outrace the submit frames still in
            # the socket buffer: wait until the server has admitted all.
            accepted = client.wait_accepted(ids)
            if accepted != ids:
                raise RuntimeError(f"server accepted {accepted} of {ids}")
            drainer = threading.Thread(
                target=lambda: accounting.update(handle.drain()),
                daemon=True)
            drainer.start()
            # A submit racing the drain: refused with the draining shed
            # code (probes that slip in before the flag flips complete).
            shed_code = None
            for _ in range(200):
                try:
                    client.complete(prompt_ids=prompts[0],
                                    params={"max_new_tokens": 2})
                except ShedError as exc:
                    shed_code = exc.code
                    break
                except NetClientError:
                    break  # server finished draining and closed the socket
            results = [client.wait(cid) for cid in ids]
            drainer.join(timeout=60.0)
    finally:
        handle.stop()
    return {
        "n_requests": spec.n_requests,
        "n_finished": sum(r.ok for r in results),
        "refused_code": shed_code,
        "conservation_ok": bool(accounting.get("conservation_ok", False)),
        "accounting": dict(accounting),
    }


def run_net_benchmark(backbone: str = "nano",
                      n_requests: int = 16, seed: int = 3) -> Dict[str, object]:
    """All phases on one model; the dict ``repro bench net`` reports, with
    the ``header`` and ``gates``."""
    model = _model(backbone, seed=0)
    parity_spec = WorkloadSpec(
        n_requests=min(6, n_requests), shared_prefix_tokens=24,
        unique_tokens=8, max_new_tokens=12, vocab_size=100, seed=seed)
    stream_spec = WorkloadSpec(
        n_requests=n_requests, shared_prefix_tokens=48, unique_tokens=12,
        max_new_tokens=16, vocab_size=100, seed=seed,
        arrival="poisson", arrival_rate_rps=64.0)
    minority_spec = WorkloadSpec(
        n_requests=max(4, n_requests // 4), shared_prefix_tokens=32,
        unique_tokens=8, max_new_tokens=12, vocab_size=100, seed=seed + 1,
        arrival="poisson", arrival_rate_rps=32.0)
    aggressor_spec = WorkloadSpec(
        n_requests=max(4, n_requests // 4) * 9, shared_prefix_tokens=32,
        unique_tokens=8, max_new_tokens=12, vocab_size=100, seed=seed + 2,
        arrival="batch")
    overload_spec = WorkloadSpec(
        n_requests=max(24, n_requests), shared_prefix_tokens=16,
        unique_tokens=8, max_new_tokens=16, vocab_size=100, seed=seed + 3,
        arrival="batch")
    drain_spec = WorkloadSpec(
        n_requests=4, shared_prefix_tokens=24, unique_tokens=8,
        max_new_tokens=24, vocab_size=100, seed=seed + 4)

    report = {
        "header": header(),
        "backbone": backbone,
        "seed": seed,
        "slo": {"ttft_p50_s": TTFT_P50_SLO_S, "ttft_p99_s": TTFT_P99_SLO_S,
                "min_tokens_per_second": MIN_TOKENS_PER_SEC,
                "fairness_ratio_max": FAIRNESS_RATIO_MAX},
        "parity": run_parity_phase(model, parity_spec),
        "streaming": run_streaming_phase(model, stream_spec),
        "fairness": run_fairness_phase(model, minority_spec, aggressor_spec),
        "overload": run_overload_phase(model, overload_spec),
        "drain": run_drain_phase(model, drain_spec),
    }
    parity, stream, fair, over, drain = (
        report[k] for k in ("parity", "streaming", "fairness", "overload",
                            "drain"))
    gates = [
        Gate("parity.byte_identical", parity["byte_identical"], True, "=="),
        Gate("parity.stream_mismatches", parity["stream_mismatches"], 0,
             "=="),
        Gate("streaming.n_errors", stream["n_errors"], 0, "=="),
        Gate("streaming.protocol_errors", stream["protocol_errors"], 0, "=="),
        Gate("streaming.conservation_ok", stream["conservation_ok"], True,
             "=="),
        Gate("streaming.ttft_p50_s", stream["ttft_p50_s"], TTFT_P50_SLO_S,
             "<="),
        Gate("streaming.ttft_p99_s", stream["ttft_p99_s"], TTFT_P99_SLO_S,
             "<="),
        Gate("streaming.tokens_per_second", stream["tokens_per_second"],
             MIN_TOKENS_PER_SEC, ">="),
        Gate("fairness.within_slo", fair["within_slo"], True, "=="),
        Gate("overload.n_shed", over["n_shed"], 0, ">"),
        Gate("overload.retry_after_all_positive",
             over["retry_after_all_positive"], True, "=="),
        Gate("overload.n_errors", over["n_errors"], 0, "=="),
        Gate("overload.conservation_ok", over["conservation_ok"], True, "=="),
        Gate("drain.n_finished", drain["n_finished"], drain["n_requests"],
             "=="),
        Gate("drain.refused_code", drain["refused_code"], "draining", "=="),
        Gate("drain.conservation_ok", drain["conservation_ok"], True, "=="),
    ]
    report["gates"] = [g.as_dict() for g in gates]
    report["slo_ok"] = all(g.ok for g in gates)
    return report


def format_net_report(report: Dict[str, object]) -> str:
    """Human-readable table of a :func:`run_net_benchmark` report."""
    s, f, o, d = (report["streaming"], report["fairness"],
                  report["overload"], report["drain"])
    lines = [
        f"backbone: {report['backbone']}   slo_ok: {report['slo_ok']}",
        f"parity    : {report['parity']['n_requests']} requests, "
        f"byte_identical={report['parity']['byte_identical']}",
        f"streaming : {s['n_finished']} finished, "
        f"{s['tokens_per_second']:.1f} tok/s, "
        f"TTFT p50 {s['ttft_p50_s'] * 1e3:.1f} ms / "
        f"p99 {s['ttft_p99_s'] * 1e3:.1f} ms",
        f"fairness  : minority p99 {f['minority_contended_ttft_p99_s'] * 1e3:.1f} ms "
        f"contended vs {f['minority_solo_ttft_p99_s'] * 1e3:.1f} ms solo "
        f"(ratio {f['ratio']:.2f}x, max {FAIRNESS_RATIO_MAX:.1f}x "
        f"or abs {FAIRNESS_ABS_FLOOR_S * 1e3:.0f} ms; "
        f"within_slo={f['within_slo']})",
        f"overload  : {o['n_shed']} shed / {o['n_requests']} sent "
        f"({', '.join(o['shed_codes']) or 'none'}), "
        f"{o['n_finished']} finished, errors={o['n_errors']}",
        f"drain     : {d['n_finished']}/{d['n_requests']} in-flight finished, "
        f"racing submit refused with {d['refused_code']!r}, "
        f"conservation_ok={d['conservation_ok']}",
    ]
    return "\n".join(lines)
