"""Serving benchmark: batched + prefix-cached serving vs the serial engine.

The acceptance workload of the serving subsystem (DESIGN.md §6): a burst
where every prompt shares a long instruction/context prefix (the
deployment shape of a ChipAlign assistant fronting a documentation
corpus) and differs only in a short question tail.  The serial baseline
runs :meth:`~repro.nn.infer.InferenceEngine.generate` once per request
with a fresh KV cache; the served arm runs the same requests through an
:class:`~repro.serve.server.InProcessServer` (continuous micro-batching,
prefix cache on).  Four claims, every timing through
:func:`repro.bench.paired`:

1. **Throughput** — the served burst beats the serial loop by >=
   ``SPEEDUP_TARGET`` with a non-zero prefix-cache hit rate and the same
   token count.  Each served round gets a server built before the timer
   starts, so every round starts from a cold prefix cache;
2. **Parity** — exact decode with the prefix cache off reproduces the
   serial outputs token for token, and the production (fused) outputs
   agree on at least ``AGREEMENT_FLOOR`` of the sequences (float-tolerance
   agreement, guaranteed only by the exact mode);
3. **Observability overhead** — the burst on a server with tracing and
   metrics on costs less than ``OBS_OVERHEAD_CEILING`` times the burst on
   a disabled-observability server (both warm);
4. **Inference engine** — the KV-cached engine equals autograd
   :func:`~repro.nn.generation.generate` token for token on one workload
   prompt, and is faster.

Random-init weights throughout, so no trained checkpoint is needed.
``repro bench serve --json BENCH_serve.json`` writes the snapshot.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from ..bench import Gate, header, paired
from .loadgen import WorkloadSpec, synthetic_prompts
from .request import SamplingParams
from .scheduler import ServeConfig

#: Served-over-serial wall-clock floor on the shared-prefix burst.
SPEEDUP_TARGET = 2.0

#: Minimum share of fused-mode sequences equal to the serial outputs.
AGREEMENT_FLOOR = 0.9

#: Enabled-over-disabled observability wall-clock ceiling (< 5% overhead).
OBS_OVERHEAD_CEILING = 1.05


def _serial(engine, spec: WorkloadSpec) -> List[List[int]]:
    """One request at a time, a fresh KV cache per call."""
    return [engine.generate(prompt, max_new_tokens=spec.max_new_tokens,
                            temperature=spec.temperature,
                            rng=np.random.default_rng(spec.seed + i))
            for i, prompt in enumerate(synthetic_prompts(spec))]


def _served(server, spec: WorkloadSpec) -> List[List[int]]:
    """The burst through ``server``; outputs in submission order."""
    order = [server.submit(prompt, params=SamplingParams(
                 max_new_tokens=spec.max_new_tokens,
                 temperature=spec.temperature, seed=spec.seed + i))
             for i, prompt in enumerate(synthetic_prompts(spec))]
    by_id = {c.request_id: c for c in server.run_until_idle()}
    return [list(by_id[rid].token_ids) for rid in order]


def run_serve_benchmark(backbone: str = "nano", requests: int = 32,
                        prefix_tokens: int = 120, unique_tokens: int = 12,
                        decode_tokens: int = 12, max_batch: int = 32,
                        decode_mode: str = "fused", vocab: int = 128,
                        repeats: int = 15, seed: int = 0) -> Dict[str, object]:
    """Benchmark batched serving against the serial engine.

    Returns a JSON-serialisable report: per-arm seconds and tokens/sec,
    the served-over-serial speedup, the first served burst's prefix-cache
    and batching figures and registry snapshot, the parity verdicts, the
    observability overhead, the engine-over-autograd ratio, and the
    ``header`` and ``gates``.  Raises ``ValueError`` when prompt plus
    decode tokens exceed the backbone's context window.
    """
    from ..nn.generation import generate
    from ..nn.infer import InferenceEngine
    from ..nn.transformer import TransformerLM, preset_config
    from ..obs import Observability
    from .server import InProcessServer

    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    config = preset_config(backbone, vocab_size=vocab, seed=seed)
    if prefix_tokens + unique_tokens + decode_tokens > config.max_seq_len:
        raise ValueError(
            f"prompt ({prefix_tokens + unique_tokens}) + decode "
            f"({decode_tokens}) tokens exceed the {backbone} context window "
            f"({config.max_seq_len})")
    spec = WorkloadSpec(n_requests=requests,
                        shared_prefix_tokens=prefix_tokens,
                        unique_tokens=unique_tokens,
                        max_new_tokens=decode_tokens,
                        vocab_size=min(vocab, config.vocab_size), seed=seed)
    serve_config = ServeConfig(max_batch_size=max_batch,
                               decode_mode=decode_mode)
    model = TransformerLM(config)
    engine = InferenceEngine(model)

    # Inference engine: KV-cached vs autograd decoding of one prompt.
    prompt = synthetic_prompts(spec)[0]
    decoded = {}
    infer_timing = paired(
        lambda: decoded.setdefault("autograd", generate(
            model, prompt, max_new_tokens=decode_tokens)),
        lambda: decoded.setdefault("engine", engine.generate(
            prompt, max_new_tokens=decode_tokens)),
        repeats)
    infer_ok = decoded["autograd"] == decoded["engine"]

    # Throughput.  One server per call (warm-up + rounds), built before
    # timing, so each round's burst meets a cold prefix cache; each is
    # dropped after its round.
    servers = [InProcessServer(model, config=serve_config)
               for _ in range(repeats + 1)]
    first: Dict[str, object] = {}

    def serial_arm():
        first.setdefault("serial", _serial(engine, spec))

    def served_arm():
        server = servers.pop()
        outputs = _served(server, spec)
        if "served" not in first:  # the untimed warm-up call
            first["served"] = outputs
            first["snapshot"] = server.metrics_snapshot()
            first["registry"] = server.obs.registry.snapshot()

    timing = paired(serial_arm, served_arm, repeats)
    serial_out, served_out = first["serial"], first["served"]
    tokens = sum(map(len, serial_out))
    served_tokens = sum(map(len, served_out))
    snap = first["snapshot"]

    # Parity: exact decode without the prefix cache vs the serial loop.
    exact = InProcessServer(model, config=ServeConfig(
        max_batch_size=max_batch, decode_mode="exact", prefix_cache=False))
    exact_ok = _served(exact, spec) == serial_out
    agreement = sum(a == b for a, b in zip(served_out, serial_out)) / requests

    # Observability overhead on warm servers (the warm-up call of
    # ``paired`` fills both prefix caches).
    on, off = (InProcessServer(model, config=serve_config,
                               obs=Observability(enabled=enabled))
               for enabled in (True, False))
    obs_timing = paired(lambda: _served(on, spec), lambda: _served(off, spec),
                        repeats)

    serial_s, served_s = timing.seconds
    gates = [
        Gate("speedup", timing.ratio, SPEEDUP_TARGET, ">="),
        Gate("prefix_hit_rate", snap.get("prefix_hit_rate", 0.0), 0.0, ">"),
        Gate("cached_prefix_tokens", snap["cached_prefix_tokens"], 0, ">"),
        Gate("served_tokens", served_tokens, tokens, "=="),
        Gate("parity.exact", exact_ok, True, "=="),
        Gate("served_agreement", agreement, AGREEMENT_FLOOR, ">="),
        Gate("obs.overhead_ratio", obs_timing.ratio, OBS_OVERHEAD_CEILING,
             "<"),
        Gate("parity.engine_vs_autograd", infer_ok, True, "=="),
        Gate("engine.speedup", infer_timing.ratio, 1.0, ">"),
    ]
    return {
        "header": header(),
        "gates": [g.as_dict() for g in gates],
        "backbone": backbone,
        "model": {"dim": config.dim, "n_layers": config.n_layers,
                  "max_seq_len": config.max_seq_len, "vocab": vocab},
        "requests": requests,
        "prefix_tokens": prefix_tokens,
        "unique_tokens": unique_tokens,
        "decode_tokens": decode_tokens,
        "max_batch": max_batch,
        "decode_mode": decode_mode,
        "repeats": repeats,
        "seed": seed,
        "serial": {"seconds": serial_s, "tokens": tokens,
                   "tokens_per_second": tokens / serial_s},
        "served": {"seconds": served_s, "tokens": served_tokens,
                   "tokens_per_second": served_tokens / served_s,
                   "mean_ttft_s": snap["mean_ttft_s"],
                   "mean_batch_occupancy": snap["mean_batch_occupancy"],
                   "prefix_hit_rate": snap.get("prefix_hit_rate", 0.0),
                   "cached_prefix_tokens": snap["cached_prefix_tokens"]},
        "speedup": timing.ratio,
        "timing": timing.as_dict(),
        "exact_parity_ok": exact_ok,
        "served_agreement": agreement,
        "obs_overhead": {"ratio": obs_timing.ratio,
                         "timing": obs_timing.as_dict()},
        "engine_vs_autograd": {"parity_ok": infer_ok,
                               "ratio": infer_timing.ratio,
                               "timing": infer_timing.as_dict()},
        "registry": first["registry"],
    }


def format_serve_report(result: Dict[str, object]) -> str:
    """Human-readable summary of :func:`run_serve_benchmark`."""
    serial, served = result["serial"], result["served"]
    model = result["model"]
    engine = result["engine_vs_autograd"]
    return "\n".join([
        f"workload : {result['requests']} requests, "
        f"{result['prefix_tokens']}+{result['unique_tokens']} prompt tokens "
        f"(shared+unique), {result['decode_tokens']} decode tokens, "
        f"{result['repeats']} paired rounds",
        f"model    : {result['backbone']} (dim={model['dim']}, "
        f"layers={model['n_layers']}, ctx={model['max_seq_len']}), max "
        f"batch {result['max_batch']}, decode mode {result['decode_mode']}",
        f"{'path':<8} {'tokens':>7} {'seconds':>9} {'tok/s':>9}",
        f"{'serial':<8} {serial['tokens']:>7} {serial['seconds']:>9.3f} "
        f"{serial['tokens_per_second']:>9.1f}",
        f"{'served':<8} {served['tokens']:>7} {served['seconds']:>9.3f} "
        f"{served['tokens_per_second']:>9.1f}",
        f"speedup  : {result['speedup']:.2f}x median   prefix hit rate: "
        f"{served['prefix_hit_rate']:.2f}   cached prefix tokens: "
        f"{served['cached_prefix_tokens']}   mean TTFT: "
        f"{served['mean_ttft_s'] * 1000:.1f} ms   batch occupancy: "
        f"{served['mean_batch_occupancy']:.1f}",
        f"parity   : exact {'identical' if result['exact_parity_ok'] else 'DIVERGED'}"
        f", served agreement {result['served_agreement']:.0%}",
        f"obs      : enabled/disabled {result['obs_overhead']['ratio']:.3f}x",
        f"engine   : {engine['ratio']:.1f}x over autograd decoding, "
        f"{'identical' if engine['parity_ok'] else 'DIVERGED'} tokens",
    ])
