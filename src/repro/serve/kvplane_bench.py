"""Zero-copy KV plane benchmark: block sharing, hot admission, paged decode.

Three claims, each with its own oracle or baseline (DESIGN.md §13):

1. **Parity** — the acceptance gate.  Prefix-cache and session traffic
   through shared blocks must emit token streams byte-identical to the
   dense copy path across mixed sampling, prefix hits, and a two-turn chat
   resume.  Sharing that changes a single token is not an optimisation.
2. **Zero-copy hot admission** — the tentpole claim.  A block-aligned
   grounding prompt (the ChipAlign deployment shape: every QA request
   replays the same instruction block) is admitted cold once; every
   subsequent request reuses it as a *full prefix hit*.  The engine's
   ``kv_bytes_copied`` counter must stay **exactly zero** through the hot
   phase — adoption is refcount bumps, the covered re-insert is skipped,
   and block-aligned inserts share rather than copy — and hot admission
   must run ``>= ADMISSION_SPEEDUP_TARGET``x faster than cold (it prefills
   the question tail instead of the whole grounding).  Admission wall time
   comes from the scheduler's own ``serve.admission_s`` histogram feed.
3. **Paged decode step cost** — vectorized paged attention (one
   ``np.take`` gather per layer across the batch) must stay within
   ``PAGED_STEP_RATIO_CEILING``x of the dense slot layout per decode step
   at 512-token contexts.  Both layouts copy each running sequence's
   history every step: dense with one fancy-indexed gather of its slot
   rows, paged with one ``np.take`` over block-table indices — the
   ceiling bounds what block indirection costs on top of that copy at
   the depth where it matters.  The two layouts are timed with
   :func:`repro.bench.paired`; every timed call first rolls each sequence
   back to the same 512-token depth.

Phases 2 and 3 use untrained models (counters and step timing do not care
about weights); phase 1 trains the differential-suite toy model so the
streams being compared are meaningful.  ``repro bench kvplane --json
BENCH_kvplane.json`` writes the snapshot.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from ..bench import Gate, header, paired
from .request import SamplingParams
from .scheduler import ServeConfig

#: Hot (full-prefix-hit) admission must beat cold (full-prompt prefill)
#: admission by at least this factor.
ADMISSION_SPEEDUP_TARGET = 3.0

#: Paged decode may cost at most this multiple of dense per step at
#: 512-token contexts.
PAGED_STEP_RATIO_CEILING = 1.25

#: Context depth of the decode-step comparison.
STEP_CONTEXT_TOKENS = 512

_CORPUS = [[1, 7, 8, 9, 10, 11, 2], [1, 5, 6, 5, 6, 2]] * 4


def _train_toy(seed: int, epochs: int):
    from ..nn.trainer import TrainConfig, Trainer
    from ..nn.transformer import TransformerConfig, TransformerLM
    model = TransformerLM(TransformerConfig(
        vocab_size=24, dim=16, n_layers=2, n_heads=2, max_seq_len=48,
        seed=seed))
    Trainer(model, pad_id=0,
            config=TrainConfig(epochs=epochs, batch_size=8, lr=3e-3)
            ).fit(_CORPUS)
    model.eval()
    return model


def _untrained(max_seq_len: int, seed: int):
    from ..nn.transformer import TransformerConfig, TransformerLM
    model = TransformerLM(TransformerConfig(
        vocab_size=32, dim=32, n_layers=2, n_heads=4,
        max_seq_len=max_seq_len, seed=seed))
    model.eval()
    return model


def _server(model, **kw):
    from .server import InProcessServer
    kw.setdefault("decode_mode", "fused")
    kw.setdefault("max_batch_size", 4)
    return InProcessServer(model, config=ServeConfig(**kw))


# ---------------------------------------------------------------------------
# phase 1 — shared-vs-copy byte parity
# ---------------------------------------------------------------------------
def _parity_traffic(server) -> List[Tuple[int, ...]]:
    """Prefix-heavy mixed-sampling burst plus a two-turn session resume;
    returns every emitted stream in submission order."""
    shared = [1, 7, 8, 9, 10, 11, 7, 8]
    turn1 = server.chat("s", shared + [5],
                        params=SamplingParams(max_new_tokens=5))
    prompts = [shared + tail for tail in
               ([5], [5, 6], [9, 10], [7, 8, 9], [5, 9])]
    streams = [tuple(turn1.token_ids)]
    for i, prompt in enumerate(prompts):
        mode = i % 3
        params = SamplingParams(
            max_new_tokens=6,
            temperature=0.0 if mode == 0 else 0.8,
            top_k=4 if mode == 1 else None,
            top_p=0.9 if mode == 2 else None,
            seed=60 + i)
        rid = server.submit(prompt, params=params)
        server.run_until_idle()
        streams.append(tuple(server.result(rid).token_ids))
    resume = server.chat("s", shared + [5] + list(turn1.token_ids) + [9, 10],
                         params=SamplingParams(max_new_tokens=5))
    streams.append(tuple(resume.token_ids))
    return streams


# ---------------------------------------------------------------------------
# phase 2 — zero-copy hot admission
# ---------------------------------------------------------------------------
def _admission_phase(model, block_tokens: int, grounding_blocks: int,
                     n_groundings: int, tails_per_grounding: int,
                     seed: int) -> Dict[str, object]:
    rng = np.random.default_rng(seed)
    server = _server(model, kv_mode="paged", kv_block_tokens=block_tokens,
                     prefix_cache=True, prefix_cache_entries=64)
    eng = server.engine
    metrics = server.scheduler.metrics
    glen = grounding_blocks * block_tokens
    groundings = [[1] + [int(t) for t in rng.integers(2, 30, size=glen - 1)]
                  for _ in range(n_groundings)]

    def admit(prompt, tag):
        rid = server.submit(prompt, params=SamplingParams(max_new_tokens=1),
                            request_id=tag)
        server.run_until_idle()
        if server.result(rid) is None:
            raise RuntimeError(f"admission probe {tag} did not finish")
        return metrics.admissions[-1]

    # Warm the allocator and the interpreter on a throwaway grounding, then
    # drop its cache entries so the measured phase starts clean.
    warm = [1] + [int(t) for t in rng.integers(2, 30, size=glen - 1)]
    admit(warm, "warm-cold")
    admit(warm + [int(t) for t in rng.integers(2, 30, size=block_tokens)],
          "warm-hot")
    server.scheduler.prefix_pool.clear()
    eng.kv_bytes_copied = 0
    eng.blocks_shared = 0

    cold_times = [admit(g, f"cold-{i}") for i, g in enumerate(groundings)]
    cold_bytes = eng.kv_bytes_copied
    cold_shared = eng.blocks_shared
    hot_times = []
    for i, grounding in enumerate(groundings):
        for j in range(tails_per_grounding):
            tail = [int(t) for t in rng.integers(2, 30, size=block_tokens)]
            hot_times.append(admit(grounding + tail, f"hot-{i}-{j}"))
    hot_bytes = eng.kv_bytes_copied - cold_bytes
    registry = server.scheduler.obs.registry.snapshot()
    cold_s = sum(cold_times) / len(cold_times)
    hot_s = sum(hot_times) / len(hot_times)
    return {
        "block_tokens": block_tokens,
        "grounding_tokens": glen,
        "question_tokens": block_tokens,
        "n_groundings": n_groundings,
        "tails_per_grounding": tails_per_grounding,
        "cold_admission_s": cold_s,
        "hot_admission_s": hot_s,
        "admission_speedup": cold_s / hot_s if hot_s > 0 else float("inf"),
        "cold_bytes_copied": int(cold_bytes),
        "hot_bytes_copied": int(hot_bytes),
        "blocks_shared_cold": int(cold_shared),
        "blocks_shared": int(eng.blocks_shared),
        "counter_bytes_copied": int(registry["serve.kv.bytes_copied"]),
        "counter_blocks_shared": int(registry["serve.prefix.blocks_shared"]),
        "mean_admission_s": float(
            server.metrics_snapshot()["mean_admission_s"]),
    }


# ---------------------------------------------------------------------------
# phase 3 — paged vs dense decode step cost at depth
# ---------------------------------------------------------------------------
def _step_cost_phase(model, block_tokens: int, batch: int, repeats: int,
                     steps: int) -> Dict[str, object]:
    from .engine import BatchedEngine

    context = STEP_CONTEXT_TOKENS
    prompt = [1] + [2 + (i % 20) for i in range(context - 1)]
    tokens = [3 + b for b in range(batch)]

    def arm(kv_mode):
        eng = BatchedEngine(model, decode_mode="fused", kv_mode=kv_mode,
                            kv_block_tokens=block_tokens,
                            max_batch_size=batch)
        handles = []
        for _ in range(batch):
            handle = eng.begin_sequence()
            eng.prefill_into(prompt, handle)
            handles.append(handle)

        def run():
            # Roll back to the prompt first: every call decodes the same
            # 512-deep steady state instead of drifting deeper.
            for handle in handles:
                eng.truncate_kv(handle, context)
            for _ in range(steps):
                eng.decode(tokens, handles)
        return run

    timing = paired(arm("paged"), arm("dense"), repeats)
    paged_s, dense_s = timing.seconds
    return {
        "context_tokens": context,
        "batch": batch,
        "steps_per_round": steps,
        "repeats": repeats,
        "dense_ms_per_step": dense_s * 1e3 / steps,
        "paged_ms_per_step": paged_s * 1e3 / steps,
        "round_ratios": timing.ratios,
        "step_ratio": timing.ratio,
        "timing": timing.as_dict(),
    }


def run_kvplane_benchmark(block_tokens: int = 16, grounding_blocks: int = 14,
                          n_groundings: int = 4,
                          tails_per_grounding: int = 3,
                          batch: int = 4, repeats: int = 5, steps: int = 30,
                          epochs: int = 25, seed: int = 0
                          ) -> Dict[str, object]:
    """Benchmark the zero-copy KV plane against its copy-path baselines.

    Returns a JSON-serialisable report with the ``header`` and the
    ``gates``: byte parity of shared vs copied prefixes, zero bytes copied
    on full prefix hits (with the hot/cold admission speedup), and the
    paged/dense decode step-cost ratio at 512-token contexts.
    """
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    if block_tokens < 2 or grounding_blocks < 1:
        raise ValueError("block_tokens must be >= 2, grounding_blocks >= 1")

    # Phase 1 — parity: shared-block serving vs the dense copy path.
    toy = _train_toy(seed, epochs)
    dense_streams = _parity_traffic(_server(toy, prefix_cache=True))
    paged_streams = _parity_traffic(_server(toy, prefix_cache=True,
                                            kv_mode="paged",
                                            kv_block_tokens=4))
    parity = {"shared_vs_copy": paged_streams == dense_streams,
              "streams": len(dense_streams)}

    # Phase 2 — zero-copy hot admission on grounding-shaped prompts.
    glen = (grounding_blocks + 1) * block_tokens + 8
    admission_model = _untrained(max_seq_len=glen, seed=seed + 1)
    admission = _admission_phase(admission_model, block_tokens,
                                 grounding_blocks, n_groundings,
                                 tails_per_grounding, seed)

    # Phase 3 — paged vs dense decode step cost at 512-token contexts.
    step_model = _untrained(max_seq_len=STEP_CONTEXT_TOKENS + 128,
                            seed=seed + 2)
    step = _step_cost_phase(step_model, block_tokens, batch, repeats, steps)

    gates = [
        Gate("parity.shared_vs_copy", parity["shared_vs_copy"], True, "=="),
        Gate("admission.hot_bytes_copied", admission["hot_bytes_copied"], 0,
             "=="),
        Gate("admission.counter_blocks_shared",
             admission["counter_blocks_shared"], 0, ">"),
        Gate("admission_speedup", admission["admission_speedup"],
             ADMISSION_SPEEDUP_TARGET, ">="),
        Gate("step_ratio", step["step_ratio"], PAGED_STEP_RATIO_CEILING,
             "<="),
    ]
    head = header()
    return {
        "header": head,
        "gates": [g.as_dict() for g in gates],
        "block_tokens": block_tokens,
        "cpu_count": head["cpu_count"],
        "parity": parity,
        "parity_ok": parity["shared_vs_copy"],
        "admission": admission,
        "zero_copy_ok": admission["hot_bytes_copied"] == 0,
        "admission_speedup": admission["admission_speedup"],
        "admission_speedup_target": ADMISSION_SPEEDUP_TARGET,
        "step": step,
        "step_ratio": step["step_ratio"],
        "step_ratio_ceiling": PAGED_STEP_RATIO_CEILING,
    }


def format_kvplane_report(result: Dict[str, object]) -> str:
    """Human-readable summary of :func:`run_kvplane_benchmark`."""
    adm, step = result["admission"], result["step"]
    verdict = {True: "byte-identical", False: "DIVERGED"}
    lines = [
        f"parity   : shared-block vs copy-path serving "
        f"{verdict[result['parity_ok']]} over {result['parity']['streams']} "
        f"streams (prefix hits + session resume, mixed sampling)",
        f"admission: {adm['grounding_tokens']}-token grounding + "
        f"{adm['question_tokens']}-token question, "
        f"{adm['n_groundings']}x{adm['tails_per_grounding']} hot requests",
        f"zero-copy: {adm['hot_bytes_copied']} B copied on full prefix hits "
        f"(counter {adm['counter_bytes_copied']} B total, "
        f"{adm['counter_blocks_shared']} blocks shared)",
        f"latency  : cold {adm['cold_admission_s'] * 1e3:7.2f} ms -> hot "
        f"{adm['hot_admission_s'] * 1e3:7.2f} ms  "
        f"({result['admission_speedup']:.2f}x, target >= "
        f"{result['admission_speedup_target']:.1f}x)",
        f"decode   : dense {step['dense_ms_per_step']:.3f} ms/step -> paged "
        f"{step['paged_ms_per_step']:.3f} ms/step at "
        f"{step['context_tokens']}-token contexts (batch {step['batch']})",
        f"step cost: {result['step_ratio']:.3f}x median of "
        f"{step['repeats']} paired rounds (ceiling "
        f"{result['step_ratio_ceiling']:.2f}x)",
    ]
    return "\n".join(lines)
