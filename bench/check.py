"""``python -m bench check``: the correctness gates, outside any timed run.

* **token match** — 32 requests served by the benchmark's paged (prefix
  cache on) and dense configurations equal exact decoding token for token;
* **Fig. 8 outputs** — the full 11-lambda x 90-item ROUGE-L series on the
  seed-0 checkpoints equals the recorded series (``fig8_reference.json``),
  and merged weights equal per-tensor ``geodesic_merge`` (1e-10 of scale);
* **ledgers** — short ``openroad_qa`` and ``net_chat`` passes leave the
  request, admission and KV-block ledgers balanced.

Exits non-zero if any gate fails.
"""

from __future__ import annotations

import itertools
import json
from pathlib import Path
from typing import Callable, List, Tuple

from .common import log

REFERENCE = Path(__file__).with_name("fig8_reference.json")
SEED = 0


def token_match(kv_mode: str, prompts, new_tokens: int) -> List[str]:
    """Serve ``prompts`` as one burst and compare with exact decoding."""
    from repro.data.vocab import build_tokenizer
    from repro.serve import InProcessServer, SamplingParams, ServeConfig

    from .serving import grande

    model = grande(build_tokenizer().vocab_size, SEED)
    params = SamplingParams(max_new_tokens=new_tokens, stop_on_eos=False)
    served = InProcessServer(model, None, ServeConfig(max_batch_size=16,
                                                      kv_mode=kv_mode))
    ids = [served.submit(p, params) for p in prompts]
    served.run_until_idle()
    oracle = InProcessServer(model, None, ServeConfig(
        decode_mode="exact", prefix_cache=False, max_batch_size=1))
    matched = sum(served.result(rid).token_ids
                  == oracle.complete(p, params).token_ids
                  for rid, p in zip(ids, prompts))
    log(f"token match ({kv_mode}): {matched}/{len(prompts)}")
    return [] if matched == len(prompts) else [
        f"{kv_mode}: {len(prompts) - matched} of {len(prompts)} requests "
        "differ from exact decoding"]


def gate_token_match() -> List[str]:
    from repro.data.vocab import build_tokenizer

    from . import inputs

    tokenizer = build_tokenizer()
    openroad = inputs.openroad_prompts(tokenizer)
    order = inputs.shuffled_cycle(SEED, len(openroad), 32)
    return (token_match("paged", [openroad[i] for i in order], 48)
            + token_match("dense", list(itertools.islice(
                inputs.random_prompts(SEED, tokenizer.vocab_size), 32)), 150))


def gate_fig8() -> List[str]:
    from repro.pipelines.experiment import run_fig8
    from repro.pipelines.model_zoo import ModelZoo

    from .fig8 import LAMS, Fig8Sweep

    work = Fig8Sweep(SEED, "full")
    try:
        work.setup()
        series = run_fig8(("grande",), LAMS,
                          zoo=ModelZoo(cache_dir=work.dir)).scores["grande"]
        log("Fig. 8 ROUGE-L: " + ", ".join(f"{s:.4f}" for s in series))
        problems = []
        if json.loads(REFERENCE.read_text())["rouge_l"] != series:
            problems.append("Fig. 8 ROUGE-L series differs from "
                            f"{REFERENCE.name}")
        work.scores = list(zip(LAMS, series))
        return problems + work.verify([])
    finally:
        work.close()


def gate_ledgers() -> List[str]:
    from .common import check_lag
    from .serving import OpenroadQA
    from .chat import NetChat

    problems: List[str] = []
    for cls in (OpenroadQA, NetChat):
        work = cls(SEED, "smoke")
        try:
            work.setup()
            result = work.measure(3.0)
            check_lag(result)
            problems += result.problems + work.verify([result])
        finally:
            work.close()
    return problems


def run_checks() -> int:
    gates: List[Tuple[str, Callable[[], List[str]]]] = [
        ("token match", gate_token_match),
        ("fig8 outputs", gate_fig8),
        ("ledgers", gate_ledgers),
    ]
    failed = 0
    for name, gate in gates:
        problems = gate()
        print(f"{name:<14} {'FAIL' if problems else 'pass'}")
        for problem in problems:
            print(f"  - {problem}")
        failed += bool(problems)
    return 1 if failed else 0
