"""Seeded inputs of every workload.

Everything a workload feeds the program is derived here from ``--seed``
alone (one independent numpy stream per purpose), so the same seed always
gives the same prompts, arrival times and checkpoints, and a different seed
gives different ones.  The program under test never sees the seed.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Sequence, Tuple

import numpy as np

#: Stream ids, so changing one input never perturbs another.
_ARRIVALS, _ORDER, _PROMPTS, _WEIGHTS, _CONVERSATIONS = range(1, 6)


def rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def arrivals(seed: int, rate: float, seconds: float) -> np.ndarray:
    """Open-loop arrival offsets in ``[0, seconds)``: a Poisson process at
    ``rate`` conditioned on exactly ``rate * seconds`` arrivals (sorted
    uniform times), so the offered load is the same on every seed."""
    n = max(1, int(round(rate * seconds)))
    return np.sort(rng(seed, _ARRIVALS).uniform(0.0, seconds, size=n))


def shuffled_cycle(seed: int, n_items: int, n: int) -> List[int]:
    """``n`` indices into ``n_items`` items: fresh permutations back to back,
    so every item recurs as evenly as the count allows."""
    gen = rng(seed, _ORDER)
    out: List[int] = []
    while len(out) < n:
        out.extend(int(i) for i in gen.permutation(n_items))
    return out[:n]


def openroad_prompts(tokenizer) -> List[List[int]]:
    """The 294 OpenROAD QA prompts (90 eval + 204 train triplets) in the
    evaluation's own format — golden context first, then question and the
    fixed instruction block — tokenized as the harness tokenizes them."""
    from repro.data.openroad_qa import eval_triplets, train_triplets
    from repro.data.prompting import format_prompt
    from repro.eval.harness import OPENROAD_INSTRUCTIONS, render_instruction

    instructions = [render_instruction(i) for i in OPENROAD_INSTRUCTIONS]
    return [tokenizer.encode(format_prompt(t.question, context=t.context,
                                           instructions=instructions),
                             add_bos=True)
            for t in eval_triplets() + train_triplets()]


def random_prompts(seed: int, vocab_size: int, lo: int = 24,
                   hi: int = 48) -> Iterator[List[int]]:
    """Endless unique random-token prompts of ``lo..hi`` tokens (ids above
    the tokenizer's four special tokens)."""
    gen = rng(seed, _PROMPTS)
    seen = set()
    while True:
        p = tuple(int(t) for t in gen.integers(
            4, vocab_size, size=int(gen.integers(lo, hi + 1))))
        if p not in seen:
            seen.add(p)
            yield list(p)


def conversation_pool(tokenizer, max_prompt: int) -> List[Tuple[List[int], List[int]]]:
    """Two-turn industrial-QA conversations as ``(turn-1 prompt ids,
    follow-up suffix ids)``: the grounded first question, then a follow-up
    appended after turn 1's answer.  Only conversations whose turn-1 prompt
    fits in ``max_prompt`` tokens are kept."""
    from repro.data.industrial_qa import eval_items, multi_turn_items
    from repro.data.prompting import ASSISTANT_CUE, format_prompt

    pairs = [(format_prompt(m.first_question, context=m.context), m.question)
             for m in multi_turn_items()]
    follow_ups = [m.question for m in multi_turn_items()]
    pairs += [(format_prompt(item.question, context=item.context),
               follow_ups[i % len(follow_ups)])
              for i, item in enumerate(eval_items())]
    pool = []
    for first, follow in pairs:
        ids = tokenizer.encode(first, add_bos=True)
        if len(ids) <= max_prompt:
            pool.append((ids, tokenizer.encode(
                f"question : {follow} {ASSISTANT_CUE}")))
    return pool


def conversation_plan(seed: int, n: int, n_pool: int,
                      tenants: Dict[str, float]) -> List[Tuple[int, str]]:
    """``(pool index, tenant)`` of each of ``n`` conversations; tenants are
    drawn with probability proportional to their share."""
    gen = rng(seed, _CONVERSATIONS)
    names = sorted(tenants)
    share = np.array([tenants[t] for t in names], dtype=np.float64)
    picks = gen.choice(len(names), size=n, p=share / share.sum())
    items = gen.integers(0, n_pool, size=n)
    return [(int(i), names[int(t)]) for i, t in zip(items, picks)]


def merge_pair(seed: int, base: Dict[str, np.ndarray],
               noise: float = 0.3) -> Sequence[Dict[str, np.ndarray]]:
    """A chipnemo/instruct-like checkpoint pair: one common base plus
    independent Gaussian noise per model (``noise`` times each tensor's
    spread), the shape of two fine-tunes of one ancestor."""
    gen = rng(seed, _WEIGHTS)
    pair = []
    for _ in range(2):
        pair.append({k: (w + noise * max(float(w.std()), 0.05)
                         * gen.standard_normal(w.shape)).astype(w.dtype)
                     for k, w in base.items()})
    return pair
