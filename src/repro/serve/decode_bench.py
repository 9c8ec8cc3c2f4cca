"""Cheap-decode benchmark: int8 weights, paged KV, speculative decoding.

Three claims, each measured against its own oracle (DESIGN.md §11):

1. **Parity** — the acceptance gate.  A mixed-sampling burst must produce
   byte-identical token streams across every cheap path and its oracle:
   fused-paged vs fused-dense (same floats by construction), fused-int8 vs
   an exact-mode engine over the *dequantized* weights (the model int8
   actually serves; see :func:`~repro.serve.engine.dequantized_oracle_model`),
   and speculative vs target-only decoding (every emitted token is sampled
   from target logits with the request's own rng).
2. **Throughput** — tokens/sec of speculative decoding vs target-only
   decoding on a greedy in-distribution workload at batch size 1 (the
   latency-bound single-stream regime speculation is built for — a full
   batch already amortises the target forward across sequences), timed
   with :func:`repro.bench.paired`.  Speculation only wins when the draft
   agrees with the target *and* is actually cheaper to run, so the >=
   ``SPEEDUP_TARGET`` gate applies only when the measured acceptance rate
   clears ``ACCEPTANCE_FLOOR`` and the measured draft/target per-token
   cost ratio is under ``DRAFT_COST_CEILING``; otherwise the
   ``MIN_STARVED_RATIO`` overhead bound applies instead.
3. **KV memory** — peak reserved bytes and bytes per live session for the
   dense vs paged layouts under a mixed-length burst, read from
   :meth:`~repro.serve.engine.BatchedEngine.kv_stats`.  Dense reserves the
   longest-ever capacity for every slot; paged reserves per-sequence
   blocks, so mixed lengths are exactly where it pays.

Both models are *trained* (draft and target on the same cyclic corpus):
an untrained draft proposes noise, the target rejects everything, and the
benchmark would "measure" a speculation path that never engages.
``repro bench decode --json BENCH_decode.json`` writes the snapshot.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Tuple

from ..bench import Gate, header, paired
from .request import SamplingParams
from .scheduler import ServeConfig

#: Speculative-over-baseline tokens/sec floor, asserted only when the
#: draft actually agrees with the target (``target_applies``).
SPEEDUP_TARGET = 1.2

#: Minimum measured acceptance rate for the speedup target to apply: below
#: this the draft is wrong too often for speculation to possibly pay, and
#: the gate degrades to the ``MIN_STARVED_RATIO`` overhead bound.
ACCEPTANCE_FLOOR = 0.5

#: When the draft disagrees too often for speculation to pay, the
#: speculative arm still must not collapse under draft/verify overhead.
MIN_STARVED_RATIO = 0.5

#: Maximum measured draft/target per-token forward cost for the target to
#: apply.  At toy scale a box can be interpreter-overhead-bound, making
#: draft and target forwards cost the same wall time regardless of their
#: FLOP gap — speculation cannot win there no matter how good the draft.
DRAFT_COST_CEILING = 0.7


def _cycles(groups: int = 4) -> List[List[int]]:
    """Disjoint 3-token cycles, one per prompt family."""
    return [[3 + 3 * g, 4 + 3 * g, 5 + 3 * g] for g in range(groups)]


def _decode_tokens(model, tokens: int = 150):
    """An arm decoding ``tokens`` single tokens after a fixed 4-token
    prompt — the per-token forward cost of ``model``."""
    from ..nn.infer import InferenceEngine, _LayerCache
    engine = InferenceEngine(model)
    caches = [_LayerCache() for _ in engine.layers]
    engine._forward([1, 3, 4, 5], caches)

    def arm():
        for cache in caches:
            cache.truncate(4)
        for i in range(tokens):
            engine._forward([3 + (i % 3)], caches)
    return arm


def _train_backbone(backbone: str, vocab: int, corpus: List[List[int]],
                    seed: int, epochs: int):
    from ..nn.trainer import TrainConfig, Trainer
    from ..nn.transformer import TransformerLM, preset_config
    config = preset_config(backbone, vocab_size=vocab, seed=seed)
    model = TransformerLM(config)
    Trainer(model, pad_id=0,
            config=TrainConfig(epochs=epochs, batch_size=8, lr=3e-3)
            ).fit(corpus)
    model.eval()
    return model


def _workload(cycles: List[List[int]], n_requests: int, max_new_tokens: int,
              seed: int, greedy: bool = False, length_spread: int = 3
              ) -> List[Tuple[Tuple[int, ...], SamplingParams]]:
    """Prompts are cycle prefixes of varying length (in-distribution, so
    greedy continuations are learnable); sampling is mixed unless greedy."""
    out = []
    for i in range(n_requests):
        cycle = cycles[i % len(cycles)]
        reps = 1 + (i * 5) % length_spread
        prompt = tuple([1] + cycle * reps)
        if greedy:
            params = SamplingParams(max_new_tokens=max_new_tokens,
                                    temperature=0.0)
        else:
            mode = i % 3
            params = SamplingParams(
                max_new_tokens=max_new_tokens,
                temperature=0.0 if mode == 0 else 0.8,
                top_k=8 if mode == 1 else None,
                top_p=0.9 if mode == 2 else None,
                seed=seed + i)
        out.append((prompt, params))
    return out


def _drive(server, workload, tag: str) -> Dict[str, Tuple[int, ...]]:
    for i, (prompt, params) in enumerate(workload):
        server.submit(prompt, params=params, request_id=f"{tag}-{i}")
    return {c.request_id: c.token_ids for c in server.run_until_idle()}


def _kv_profile(model, workload, kv_mode: str,
                kv_block_tokens: int) -> Dict[str, object]:
    """Drive one burst through a fused server, polling KV accounting each
    step; returns peak footprint plus the post-idle leak check."""
    from .server import InProcessServer
    server = InProcessServer(model, config=ServeConfig(
        decode_mode="fused", prefix_cache=False, max_batch_size=8,
        kv_mode=kv_mode, kv_block_tokens=kv_block_tokens))
    for i, (prompt, params) in enumerate(workload):
        server.submit(prompt, params=params, request_id=f"kv-{i}")
    peak_reserved = peak_in_use = 0
    at_peak_sessions = 1
    while not server.idle:
        server.step()
        stats = server.engine.kv_stats()
        live = server.scheduler.running_count
        peak_reserved = max(peak_reserved, int(stats.get("bytes_reserved", 0)))
        if live and int(stats.get("bytes_in_use", 0)) >= peak_in_use:
            peak_in_use = int(stats["bytes_in_use"])
            at_peak_sessions = live
    out: Dict[str, object] = {
        "kv_mode": kv_mode,
        "token_bytes": int(server.engine.kv_stats()["token_bytes"]),
        "peak_bytes_reserved": peak_reserved,
        "peak_bytes_in_use": peak_in_use,
        "bytes_per_session": peak_in_use // max(at_peak_sessions, 1),
    }
    if kv_mode == "paged":
        pool = server.engine._block_pool
        out["block_tokens"] = kv_block_tokens
        out["leaked_blocks"] = pool.n_allocated if pool is not None else 0
        out["conservation_ok"] = (pool.conservation_ok()
                                  if pool is not None else True)
    return out


def run_decode_benchmark(target_backbone: str = "grande",
                         draft_backbone: str = "nano",
                         speculative_tokens: int = 3,
                         n_requests: int = 12, max_new_tokens: int = 32,
                         repeats: int = 5, epochs: int = 30,
                         seed: int = 0) -> Dict[str, object]:
    """Benchmark the cheap-decode paths against their exactness oracles.

    Returns a JSON-serialisable report: per-axis parity verdicts, weight
    bytes fp32 vs int8, KV bytes dense vs paged, speculative vs target-only
    tokens/sec with the measured acceptance rate and the derived
    ``target_applies`` flag, plus the ``header`` and ``gates``.
    """
    from ..nn.kernels import quantize_state_dict
    from .engine import dequantized_oracle_model
    from .server import InProcessServer

    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    if speculative_tokens < 1:
        raise ValueError("speculative_tokens must be >= 1")
    vocab = 32
    cycles = _cycles()
    # Endless cycles, no eos: greedy continuations stay in-distribution
    # forever, so a well-trained draft can track the target the whole way
    # (a corpus that terminates would push decoding past its own end into
    # unlearned territory where draft and target disagree on noise).
    corpus = [[1] + cycle * 12 for cycle in cycles] * 2
    target = _train_backbone(target_backbone, vocab, corpus, seed, epochs)
    draft = _train_backbone(draft_backbone, vocab, corpus, seed + 1, epochs)

    # Phase 1 — byte parity of every cheap path against its oracle, under
    # mixed sampling (greedy / top-k / top-p with per-request seeds).
    parity_load = _workload(cycles, n_requests, max_new_tokens, seed)

    def fused_server(**kw):
        kw.setdefault("decode_mode", "fused")
        kw.setdefault("prefix_cache", False)
        kw.setdefault("max_batch_size", 4)
        draft_model = kw.pop("draft_model", None)
        return InProcessServer(target, config=ServeConfig(**kw),
                               draft_model=draft_model)

    dense = _drive(fused_server(), parity_load, "dense")
    paged = _drive(fused_server(kv_mode="paged", kv_block_tokens=16),
                   parity_load, "paged")
    int8 = _drive(fused_server(weight_mode="int8"), parity_load, "int8")
    oracle_server = InProcessServer(
        dequantized_oracle_model(target),
        config=ServeConfig(decode_mode="exact", prefix_cache=False,
                           max_batch_size=4))
    int8_oracle = _drive(oracle_server, parity_load, "int8")
    spec_server = fused_server(speculative_tokens=speculative_tokens,
                               draft_model=draft)
    spec = _drive(spec_server, parity_load, "spec")
    parity = {
        "paged_vs_dense": ({k.replace("paged", "dense"): v
                            for k, v in paged.items()} == dense),
        "int8_vs_dequant_oracle": int8 == int8_oracle,
        "speculative_vs_target_only": ({k.replace("spec", "dense"): v
                                        for k, v in spec.items()} == dense),
    }

    # Phase 2 — speculative vs target-only throughput on a greedy
    # in-distribution workload at batch size 1: the single-stream latency
    # regime where each emitted token would otherwise cost one full target
    # forward.  Long decodes (spec_new_tokens) keep prefill — identical in
    # both arms — from diluting the measured decode-path ratio.
    spec_requests, spec_new_tokens = 6, 64
    greedy_load = _workload(cycles, spec_requests, spec_new_tokens, seed,
                            greedy=True)
    base_server = fused_server(max_batch_size=1)
    spec_server = fused_server(max_batch_size=1,
                               speculative_tokens=speculative_tokens,
                               draft_model=draft)
    tags, spec_runs = itertools.count(), []
    timing = paired(
        lambda: _drive(base_server, greedy_load, f"b{next(tags)}"),
        lambda: spec_runs.append(
            _drive(spec_server, greedy_load, f"s{next(tags)}")),
        repeats)
    n_tokens = sum(len(t) for t in spec_runs[-1].values())
    base, spec_arm = ({"seconds": s, "tokens_per_sec": n_tokens / s}
                      for s in timing.seconds)
    spec_stats = spec_server.scheduler.spec_stats()

    # Phase 3 — KV memory, dense vs paged, mixed-length burst (prompt
    # lengths span ~4..50 tokens so per-sequence allocation can pay).
    kv_load = _workload(cycles, n_requests, max_new_tokens, seed,
                        greedy=True, length_spread=16)
    kv_dense = _kv_profile(target, kv_load, "dense", 16)
    kv_paged = _kv_profile(target, kv_load, "paged", 16)

    # Weight memory: the quantized copy an int8 fleet's replicas inherit.
    state = target.state_dict()
    fp32_bytes = int(sum(a.nbytes for a in state.values()))
    int8_bytes = int(sum(a.nbytes
                         for a in quantize_state_dict(state).values()))

    cost = paired(_decode_tokens(draft), _decode_tokens(target), 3)
    draft_ms, target_ms = (s * 1e3 / 150 for s in cost.seconds)
    cost_ratio = cost.ratio
    acceptance = spec_stats["acceptance_rate"]
    if acceptance < ACCEPTANCE_FLOOR:
        waiver = (f"acceptance {acceptance:.2f} < {ACCEPTANCE_FLOOR:.2f} "
                  "floor")
    elif cost_ratio > DRAFT_COST_CEILING:
        waiver = (f"draft costs {cost_ratio:.2f}x of the target per token "
                  f"(> {DRAFT_COST_CEILING:.2f} ceiling)")
    else:
        waiver = None
    kv = {"dense": kv_dense, "paged": kv_paged,
          "reserved_ratio": (kv_paged["peak_bytes_reserved"]
                             / max(kv_dense["peak_bytes_reserved"], 1))}
    gates = [
        *(Gate(f"parity.{axis}", ok, True, "==")
          for axis, ok in parity.items()),
        Gate("weights.ratio", int8_bytes / fp32_bytes, 0.5, "<="),
        Gate("kv.paged.leaked_blocks", kv_paged["leaked_blocks"], 0, "=="),
        Gate("kv.paged.conservation_ok", kv_paged["conservation_ok"], True,
             "=="),
        Gate("kv.reserved_ratio", kv["reserved_ratio"], 1.0, "<="),
        Gate("kv.paged.bytes_per_session", kv_paged["bytes_per_session"],
             kv_dense["bytes_per_session"], "<"),
        *Gate.speedup(timing.ratio, SPEEDUP_TARGET, MIN_STARVED_RATIO,
                      waiver),
    ]
    head = header()
    return {
        "header": head,
        "gates": [g.as_dict() for g in gates],
        "target_backbone": target_backbone,
        "draft_backbone": draft_backbone,
        "speculative_tokens": speculative_tokens,
        "n_requests": n_requests,
        "max_new_tokens": max_new_tokens,
        "total_tokens": n_tokens,
        "repeats": repeats,
        "cpu_count": head["cpu_count"],
        "parity": parity,
        "parity_ok": all(parity.values()),
        "weights": {
            "fp32_bytes": fp32_bytes,
            "int8_bytes": int8_bytes,
            "ratio": int8_bytes / fp32_bytes,
        },
        "kv": kv,
        "speculative": spec_stats,
        "draft_ms_per_token": draft_ms,
        "target_ms_per_token": target_ms,
        "draft_cost_ratio": cost_ratio,
        "draft_cost_ceiling": DRAFT_COST_CEILING,
        "baseline": base,
        "speculative_arm": spec_arm,
        "round_ratios": timing.ratios,
        "speedup": timing.ratio,
        "timing": timing.as_dict(),
        "speedup_target": SPEEDUP_TARGET,
        "acceptance_floor": ACCEPTANCE_FLOOR,
        "target_applies": waiver is None,
    }


def format_decode_report(result: Dict[str, object]) -> str:
    """Human-readable summary of :func:`run_decode_benchmark`."""
    parity = result["parity"]
    weights, kv = result["weights"], result["kv"]
    spec = result["speculative"]
    verdict = {True: "byte-identical", False: "DIVERGED"}
    lines = [
        f"workload : {result['n_requests']} requests x "
        f"{result['max_new_tokens']} new tokens "
        f"({result['target_backbone']} target, {result['draft_backbone']} "
        f"draft, {result['repeats']} paired rounds)",
        f"parity   : paged-vs-dense {verdict[parity['paged_vs_dense']]}, "
        f"int8-vs-oracle {verdict[parity['int8_vs_dequant_oracle']]}, "
        f"speculative {verdict[parity['speculative_vs_target_only']]}",
        f"weights  : fp32 {weights['fp32_bytes']:,} B -> int8 "
        f"{weights['int8_bytes']:,} B ({weights['ratio']:.2f}x)",
        f"kv/sess  : dense {kv['dense']['bytes_per_session']:,} B -> paged "
        f"{kv['paged']['bytes_per_session']:,} B  (reserved "
        f"{kv['reserved_ratio']:.2f}x)",
        f"spec     : {spec['accepted']}/{spec['drafted']} draft tokens "
        f"accepted ({spec['acceptance_rate']:.2f}) over "
        f"{spec['rounds']} rounds; draft costs "
        f"{result['draft_cost_ratio']:.2f}x of the target per token",
        f"decode   : {result['baseline']['tokens_per_sec']:7.1f} tok/s "
        f"target-only -> {result['speculative_arm']['tokens_per_sec']:7.1f} "
        f"tok/s speculative (batch 1)",
        f"speedup  : {result['speedup']:8.2f}x median of "
        f"{result['repeats']} paired rounds",
    ]
    return "\n".join(lines)
