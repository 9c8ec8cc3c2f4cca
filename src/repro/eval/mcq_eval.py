"""Multiple-choice evaluation by length-normalised log-probability.

The MCQ benchmark items carry no instructions, so they measure pure domain
knowledge (Figure 7).  Each choice is scored as a continuation of the
question prompt under the model; the choice with the highest per-token
log-probability wins — the standard closed-book MCQ protocol for language
models.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

import numpy as np

from ..data.mcq import DOMAINS, MCQItem
from ..data.prompting import format_prompt
from ..nn.generation import continuation_logprob


@dataclass(frozen=True)
class MCQResult:
    """Accuracy per domain plus the overall mean."""

    by_domain: Dict[str, float]

    @property
    def overall(self) -> float:
        return sum(self.by_domain.values()) / len(self.by_domain)


def choose(model, tokenizer, item: MCQItem) -> int:
    """Return the index of the model's preferred choice."""
    prompt = format_prompt(item.question)
    prompt_ids = tokenizer.encode(prompt, add_bos=True)
    scores: List[float] = []
    for choice in item.choices:
        choice_ids = tokenizer.encode(choice)
        if not choice_ids:
            raise ValueError(f"empty choice text in item {item.question!r}")
        logp = continuation_logprob(model, prompt_ids, choice_ids)
        scores.append(logp / len(choice_ids))
    return int(np.argmax(scores))


def _mcq_item(item: MCQItem) -> int:
    """Worker-side scoring: model/tokenizer ride the fork-inherited context."""
    from ..parallel import get_task_context

    ctx = get_task_context()
    return choose(ctx["model"], ctx["tokenizer"], item)


def evaluate_mcq(model, tokenizer, items: Sequence[MCQItem],
                 workers=None, obs=None) -> MCQResult:
    """Accuracy of the model over ``items``, reported per domain.

    ``workers`` > 1 scores items in a :class:`~repro.parallel.WorkerPool`
    (model weights fork-inherited, never pickled); accuracies are
    bit-identical to the serial path.
    """
    from ..parallel import WorkerPool, effective_workers, task_context

    if not items:
        raise ValueError("empty MCQ item set")
    workers = effective_workers(workers)
    if workers > 1:
        with task_context(model=model, tokenizer=tokenizer):
            pool_kwargs = {} if obs is None else {"obs": obs}
            with WorkerPool(workers, **pool_kwargs) as pool:
                chosen = pool.map_chunked(_mcq_item, list(items))
    else:
        chosen = [choose(model, tokenizer, item) for item in items]
    correct: Dict[str, int] = {}
    total: Dict[str, int] = {}
    for item, pick in zip(items, chosen):
        total[item.domain] = total.get(item.domain, 0) + 1
        if pick == item.answer_idx:
            correct[item.domain] = correct.get(item.domain, 0) + 1
    by_domain = {d: correct.get(d, 0) / total[d] for d in total}
    return MCQResult(by_domain)
