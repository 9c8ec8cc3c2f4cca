"""λ-fleet benchmark: K merged-model variants from one plan, gated honestly.

Four phases, extending the fleet benchmark's methodology to the variant
dimension:

1. **Memory** — the headline residency gate, asserted unconditionally.
   The fleet parent holds one :class:`~repro.core.merge_engine.MergePlan`,
   which every replica inherits; its resident bytes are compared against
   one fp32 model's state-dict bytes and against the naive deployment (K
   full merged copies).  The float32-row plan must stay within
   :data:`PLAN_BYTES_LIMIT` × one model — all K variants ride that one
   footprint.
2. **Parity** — the correctness gate, asserted unconditionally.  A
   mixed-sampling burst spread across all K variants is answered by a
   :class:`~repro.serve.lambda_fleet.LambdaFleetServer` (exact decode,
   prefix cache off) and by K fully-materialized per-variant
   :class:`~repro.serve.server.InProcessServer` oracles; every token
   stream must be byte-identical.
3. **Cold start** — lazy materialization must not tax variant spin-up:
   realizing a scalar/layerwise variant from the plan is paired against
   ``engine.merge(λ)`` (the non-lazy merge it replaces) and bounded at
   :data:`MATERIALIZE_RATIO_LIMIT` ×.  Karcher variants run an iterative
   spherical mean, so their cold time is *recorded* but not gated.
4. **Throughput** — the fleet's K variant replicas answer the mixed burst
   concurrently vs the K oracle servers answering sequentially.  Like the
   fleet benchmark, the >= :data:`SPEEDUP_TARGET`-scaled gate only applies
   when the machine has the cores; a starved box gates the
   :data:`MIN_STARVED_RATIO` overhead bound instead.

Every timing uses :func:`repro.bench.paired`.
"""

from __future__ import annotations

import itertools
import statistics
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..bench import Gate, header, paired
from ..obs import Observability
from .request import SamplingParams
from .scheduler import ServeConfig

#: Resident plan payload must stay within this multiple of ONE fp32
#: model's state-dict bytes (the two compact float32 endpoint rows, plus
#: a whisker of raw-fallback slack), independent of how many variants K
#: are served from it.
PLAN_BYTES_LIMIT = 2.1

#: Cold materialization of a scalar/layerwise variant from the plan vs
#: ``engine.merge`` — same per-tensor math plus the float32 cast, so a
#: generous 5x absorbs timer noise at toy scale.
MATERIALIZE_RATIO_LIMIT = 5.0

#: Aggregate concurrent-over-sequential speedup floor at 4 variant
#: replicas, scaled by ``replicas / 4`` like the fleet benchmark.
SPEEDUP_TARGET = 2.0

#: On a core-starved box the K variant replicas time-slice; the fleet arm
#: still must not collapse under routing/IPC overhead vs the sequential
#: oracles.
MIN_STARVED_RATIO = 0.33


def default_variants(n_variants: int, n_layers: int):
    """A representative K-member family: scalar λ grid + one layerwise
    ramp + one Karcher midpoint (the three materialization kinds)."""
    from ..core.layerwise import LambdaSchedule
    from .lambda_fleet import VariantSpec

    if n_variants < 3:
        raise ValueError(f"need >= 3 variants for all kinds, got {n_variants}")
    n_scalar = n_variants - 2
    lams = np.linspace(0.2, 0.9, n_scalar)
    specs = [VariantSpec.scalar(f"lam{lam:.3f}", float(lam)) for lam in lams]
    specs.append(VariantSpec.layerwise(
        "ramp", LambdaSchedule.linear(0.25, 0.85, n_layers, default=0.6)))
    specs.append(VariantSpec.karcher("karcher", (0.5, 0.5)))
    return specs


def _workload(variants, requests_per_variant: int, prefix_tokens: int,
              unique_tokens: int, max_new_tokens: int, vocab: int, seed: int
              ) -> List[Tuple[str, Tuple[int, ...], SamplingParams]]:
    """Mixed-sampling burst with one shared-prefix group per variant."""
    out = []
    for v, spec in enumerate(variants):
        rng = np.random.default_rng(seed + v * 1000)
        prefix = tuple(int(t) for t in rng.integers(2, vocab,
                                                    size=prefix_tokens))
        for i in range(requests_per_variant):
            tail = tuple(int(t) for t in rng.integers(2, vocab,
                                                      size=unique_tokens))
            mode = (v * requests_per_variant + i) % 3
            params = SamplingParams(
                max_new_tokens=max_new_tokens,
                temperature=0.0 if mode == 0 else 0.8,
                top_k=8 if mode == 1 else None,
                top_p=0.9 if mode == 2 else None,
                seed=seed + v * 100 + i)
            out.append((spec.name, prefix + tail, params))
    return out


def _drive_lambda_fleet(fleet, workload, tag: str) -> Dict[str, Tuple[int, ...]]:
    for i, (variant, prompt, params) in enumerate(workload):
        fleet.submit(prompt, params=params, request_id=f"{tag}-{i}",
                     variant=variant)
    return {c.request_id: c.token_ids for c in fleet.run_until_idle()}


def _drive_oracles(servers, workload, tag: str) -> Dict[str, Tuple[int, ...]]:
    """Sequential fully-materialized baseline: each variant's requests run
    through its own in-process server, one variant after another."""
    out = {}
    for name, server in servers.items():
        for i, (variant, prompt, params) in enumerate(workload):
            if variant == name:
                server.submit(prompt, params=params, request_id=f"{tag}-{i}")
        out.update((c.request_id, c.token_ids)
                   for c in server.run_until_idle())
    return out


def run_lambda_benchmark(backbone: str = "nano", n_variants: int = 8,
                         replicas_per_variant: int = 1,
                         requests_per_variant: int = 3,
                         prefix_tokens: int = 24, unique_tokens: int = 8,
                         max_new_tokens: int = 16, repeats: int = 3,
                         seed: int = 0,
                         obs: Optional[Observability] = None
                         ) -> Dict[str, object]:
    """Benchmark K λ-variants from one plan against K materialized models.

    Returns a JSON-serialisable report: the residency numbers, the parity
    verdict, cold-materialization timings per variant kind,
    concurrent-vs-sequential throughput, the fleet's router/variant
    state, and the ``header`` and ``gates``.
    """
    from ..core.merge_engine import GeodesicMergeEngine
    from ..nn.transformer import TransformerLM, preset_config
    from .lambda_fleet import (LambdaFleetServer, LazyMergedModel,
                               materialize_variant)
    from .server import InProcessServer

    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    obs = obs if obs is not None else Observability()
    vocab = 64
    config = preset_config(backbone, vocab_size=vocab, seed=seed)
    chip = TransformerLM(config)
    instruct = TransformerLM(preset_config(backbone, vocab_size=vocab,
                                           seed=seed + 1))
    for model in (chip, instruct):
        model.eval()
    # Not from_models: its config check refuses differing seeds.
    engine = GeodesicMergeEngine(chip.parameter_arrays(),
                                 instruct.parameter_arrays())
    variants = default_variants(n_variants, config.n_layers)
    workload = _workload(variants, requests_per_variant, prefix_tokens,
                         unique_tokens, max_new_tokens, vocab, seed)
    n_requests = len(workload)
    total_tokens = n_requests * max_new_tokens

    # Phases 1 and 2 — residency (the fleet parent's one plan vs K
    # materialized copies) and byte parity (the λ-fleet vs per-variant
    # materialized oracles).
    exact = ServeConfig(max_batch_size=4, decode_mode="exact",
                        prefix_cache=False)
    oracles = {spec.name: InProcessServer(
        LazyMergedModel(config, engine.plan, spec), config=exact)
        for spec in variants}
    want = _drive_oracles(oracles, workload, "parity")
    with LambdaFleetServer(engine, config, variants, serve_config=exact,
                           replicas_per_variant=replicas_per_variant) as fleet:
        plan_bytes = fleet.plan_bytes()
        got = _drive_lambda_fleet(fleet, workload, "parity")
    parity_ok = got == want
    model_bytes = sum(v.nbytes for v in chip.parameter_arrays().values())
    memory = {
        "model_bytes": model_bytes,
        "plan_bytes": plan_bytes,
        "naive_bytes": n_variants * model_bytes,
        "plan_over_model": plan_bytes / model_bytes,
        "plan_over_naive": plan_bytes / (n_variants * model_bytes),
        "limit": PLAN_BYTES_LIMIT,
    }

    # Phase 3 — cold start: plan materialization vs the eager merge.
    cold = {}
    merge_times = []
    worst_gated = 0.0
    for spec in variants:
        start = paired(lambda: materialize_variant(engine.plan, spec),
                       lambda: engine.merge(0.5), repeats)
        merge_times += start.b_s
        cold[spec.name] = {"kind": spec.kind,
                           "materialize_ms": start.seconds[0] * 1e3,
                           "ratio_vs_merge": start.ratio}
        if spec.kind != "karcher":
            worst_gated = max(worst_gated, start.ratio)
    cold_summary = {"merge_ms": statistics.median(merge_times) * 1e3,
                    "worst_gated_ratio": worst_gated,
                    "limit": MATERIALIZE_RATIO_LIMIT,
                    "per_variant": cold}

    # Phase 4 — throughput: concurrent variant replicas vs sequential
    # oracles, production configuration.
    fused = ServeConfig(max_batch_size=4, decode_mode="fused",
                        prefix_cache=True)
    oracles = {spec.name: InProcessServer(
        LazyMergedModel(config, engine.plan, spec), config=fused)
        for spec in variants}
    tags = itertools.count()
    with LambdaFleetServer(engine, config, variants, serve_config=fused,
                           replicas_per_variant=replicas_per_variant,
                           obs=obs) as fleet:
        timing = paired(
            lambda: _drive_oracles(oracles, workload, f"s{next(tags)}"),
            lambda: _drive_lambda_fleet(fleet, workload, f"n{next(tags)}"),
            repeats)
        snapshot = fleet.fleet_snapshot()
        variant_report = fleet.variant_report()

    sequential, concurrent = ({"seconds": s,
                               "tokens_per_sec": total_tokens / s,
                               "ms_per_request": s * 1e3 / n_requests}
                              for s in timing.seconds)
    replicas = len(variants) * replicas_per_variant
    head = header()
    speedup_target = SPEEDUP_TARGET * replicas / 4
    waiver = Gate.needs_cores(replicas, "replicas")
    gates = [
        Gate("memory.plan_over_model", memory["plan_over_model"],
             PLAN_BYTES_LIMIT, "<="),
        Gate("parity_ok", parity_ok, True, "=="),
        Gate("cold.worst_gated_ratio", worst_gated, MATERIALIZE_RATIO_LIMIT,
             "<="),
        Gate("respawns", snapshot["respawns"], 0, "=="),
        Gate("router.conservation_ok", snapshot["router"]["conservation_ok"],
             1, "=="),
        *Gate.speedup(timing.ratio, speedup_target, MIN_STARVED_RATIO,
                      waiver),
    ]
    return {
        "header": head,
        "gates": [g.as_dict() for g in gates],
        "backbone": backbone,
        "n_variants": len(variants),
        "replicas_per_variant": replicas_per_variant,
        "replicas": replicas,
        "cpu_count": head["cpu_count"],
        "n_requests": n_requests,
        "max_new_tokens": max_new_tokens,
        "total_tokens": total_tokens,
        "repeats": repeats,
        "memory": memory,
        "parity_ok": parity_ok,
        "cold": cold_summary,
        "sequential": sequential,
        "fleet": concurrent,
        "speedup": timing.ratio,
        "timing": timing.as_dict(),
        "speedup_target": speedup_target,
        "target_applies": waiver is None,
        "respawns": snapshot["respawns"],
        "router": snapshot["router"],
        "variants": {name: {"spec": entry["spec"],
                            "finished": entry["finished"]}
                     for name, entry in variant_report.items()},
    }


def format_lambda_report(result: Dict[str, object]) -> str:
    """Human-readable summary of :func:`run_lambda_benchmark`."""
    memory, cold = result["memory"], result["cold"]
    sequential, fleet = result["sequential"], result["fleet"]
    lines = [
        f"family    : {result['n_variants']} variants x "
        f"{result['replicas_per_variant']} replica(s) "
        f"({result['backbone']} backbone, {result['n_requests']} requests, "
        f"{result['repeats']} paired rounds)",
        f"residency : plan {memory['plan_bytes'] / 1024:.0f} KiB = "
        f"{memory['plan_over_model']:.2f}x one model "
        f"(limit {memory['limit']:.1f}x; naive K-copy deployment "
        f"{memory['naive_bytes'] / 1024:.0f} KiB)",
        f"parity    : all variants "
        f"{'byte-identical' if result['parity_ok'] else 'DIVERGED'} vs "
        f"fully-materialized serving (exact mode)",
        f"cold start: worst gated variant "
        f"{cold['worst_gated_ratio']:.2f}x engine.merge "
        f"(limit {cold['limit']:.1f}x; merge {cold['merge_ms']:.1f} ms)",
        f"sequential: {sequential['ms_per_request']:8.1f} ms/req  "
        f"{sequential['tokens_per_sec']:7.1f} tok/s",
        f"fleet     : {fleet['ms_per_request']:8.1f} ms/req  "
        f"{fleet['tokens_per_sec']:7.1f} tok/s",
        f"speedup   : {result['speedup']:8.2f}x median",
        f"faults    : {result['respawns']} replica respawn(s)",
    ]
    return "\n".join(lines)
