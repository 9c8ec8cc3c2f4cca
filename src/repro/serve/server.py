"""In-process inference server: the user-facing facade over the scheduler.

:class:`InProcessServer` binds a model (wrapped in a
:class:`~repro.serve.engine.BatchedEngine`), an optional tokenizer, and a
:class:`~repro.serve.scheduler.Scheduler` into one object with a small
surface:

* :meth:`submit` / :meth:`step` / :meth:`run_until_idle` — the asynchronous
  interface: enqueue any number of requests, then drive the scheduler; the
  continuous batcher interleaves them automatically;
* :meth:`complete` — synchronous one-call completion (submit + run);
* :meth:`chat` — session-aware completion that carries KV state across the
  turns of a conversation;
* :meth:`metrics_snapshot` — instrumentation as a plain dict.

"Server" here means a serving *subsystem*, not a network daemon: it lives in
the caller's process, the way the evaluation harness and examples consume
it.  A transport layer could wrap it without touching scheduling.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import replace
from typing import Callable, Dict, List, Optional, Sequence

from .engine import BatchedEngine
from .request import Completion, Request, SamplingParams
from .scheduler import Scheduler, ServeConfig


class InProcessServer:
    """Batched, prefix-caching server around one model.

    Parameters
    ----------
    model:
        A :class:`~repro.nn.transformer.TransformerLM`.  The fp32 engine
        serves the model's own weight arrays in place (no copy), so do not
        train or reload the model while the server is live; int8 mode
        quantizes into arrays of its own at construction.
    tokenizer:
        Optional; enables the text convenience APIs (``complete_text``,
        completions carrying decoded ``text``) and supplies the eos id.
    config:
        Scheduling knobs; see :class:`~repro.serve.scheduler.ServeConfig`.
    clock:
        Injectable monotonic time source (tests use a manual clock).
    eos_id:
        Overrides the tokenizer's eos id (or provides one without a
        tokenizer).
    obs:
        Shared :class:`~repro.obs.Observability` for metrics and spans.
        When omitted the server keeps a private, metrics-only handle:
        spans are stored only into a handle the caller passes.
    draft_model:
        A smaller model for speculative decoding (required when the config
        sets ``speculative_tokens > 0``, ignored otherwise).  The draft
        proposes greedy token chains that the main model verifies in one
        forward pass; emitted streams stay byte-identical to target-only
        decoding.
    """

    def __init__(self, model, tokenizer=None, config: ServeConfig = ServeConfig(),
                 clock: Callable[[], float] = time.monotonic,
                 eos_id: Optional[int] = None, obs=None,
                 draft_model=None) -> None:
        self.engine = BatchedEngine(model, decode_mode=config.decode_mode,
                                    max_batch_size=config.max_batch_size,
                                    weight_mode=config.weight_mode,
                                    kv_mode=config.kv_mode,
                                    kv_block_tokens=config.kv_block_tokens)
        self.tokenizer = tokenizer
        if eos_id is None and tokenizer is not None:
            eos_id = tokenizer.eos_id
        self.config = config
        draft_engine = None
        if draft_model is not None and config.speculative_tokens > 0:
            from ..nn.infer import InferenceEngine
            draft_engine = InferenceEngine(draft_model)
        self.scheduler = Scheduler(self.engine, config=config, clock=clock,
                                   eos_id=eos_id, obs=obs,
                                   draft_engine=draft_engine)
        self.obs = self.scheduler.obs
        self._ids = itertools.count()
        self._results: Dict[str, Completion] = {}

    # ------------------------------------------------------------------
    # async-style interface
    # ------------------------------------------------------------------
    def submit(self, prompt_ids: Sequence[int],
               params: Optional[SamplingParams] = None, priority: int = 0,
               deadline: Optional[float] = None,
               session_id: Optional[str] = None,
               request_id: Optional[str] = None) -> str:
        """Enqueue a generation job; returns its request id."""
        if request_id is None:
            request_id = f"req-{next(self._ids)}"
        request = Request(request_id=request_id,
                          prompt_ids=tuple(prompt_ids),
                          params=params or SamplingParams(),
                          priority=priority, deadline=deadline,
                          session_id=session_id)
        self.scheduler.submit(request)
        return request_id

    def submit_text(self, prompt: str, params: Optional[SamplingParams] = None,
                    **kwargs) -> str:
        """Encode a text prompt with the server tokenizer and enqueue it."""
        if self.tokenizer is None:
            raise ValueError("submit_text requires a tokenizer")
        ids = self.tokenizer.encode(prompt, add_bos=True)
        return self.submit(ids, params=params, **kwargs)

    def step(self) -> List[Completion]:
        """Advance the scheduler one step; returns new completions.

        Drains the scheduler's completion list rather than keeping
        ``step()``'s return value, so a completion is held once (in
        :meth:`result`'s map), and one that landed between steps (a direct
        ``scheduler.cancel``) is returned too.
        """
        self.scheduler.step()
        return self._collect(self.scheduler.drain_completions())

    def run_until_idle(self, max_steps: Optional[int] = None) -> List[Completion]:
        """Drive the scheduler until all submitted work is done."""
        return self._collect(self.scheduler.run_until_idle(max_steps=max_steps))

    def result(self, request_id: str) -> Optional[Completion]:
        """The completion of a finished request, if available yet."""
        return self._results.get(request_id)

    def cancel(self, request_id: str) -> bool:
        found = self.scheduler.cancel(request_id)
        self._collect(self.scheduler.drain_completions())
        return found

    @property
    def idle(self) -> bool:
        return self.scheduler.idle

    # ------------------------------------------------------------------
    # synchronous conveniences
    # ------------------------------------------------------------------
    def complete(self, prompt_ids: Sequence[int],
                 params: Optional[SamplingParams] = None,
                 session_id: Optional[str] = None,
                 timeout: Optional[float] = None) -> Completion:
        """Submit one request and run the scheduler until it finishes.

        ``timeout`` (seconds, relative to now on the server clock) becomes
        the request's absolute :attr:`~repro.serve.request.Request.deadline`,
        so a synchronous call with a large token budget surfaces as an
        ``expired`` completion instead of hanging the caller.
        """
        deadline = self.scheduler.clock() + timeout if timeout is not None else None
        request_id = self.submit(prompt_ids, params=params,
                                 session_id=session_id, deadline=deadline)
        self.run_until_idle()
        return self._results[request_id]

    def complete_text(self, prompt: str,
                      params: Optional[SamplingParams] = None,
                      session_id: Optional[str] = None,
                      timeout: Optional[float] = None) -> str:
        """Text-in/text-out completion through the tokenizer."""
        if self.tokenizer is None:
            raise ValueError("complete_text requires a tokenizer")
        ids = self.tokenizer.encode(prompt, add_bos=True)
        completion = self.complete(ids, params=params, session_id=session_id,
                                   timeout=timeout)
        return completion.text or ""

    def chat(self, session_id: str, prompt_ids: Sequence[int],
             params: Optional[SamplingParams] = None,
             timeout: Optional[float] = None) -> Completion:
        """One conversation turn; KV state is reused across calls with the
        same ``session_id`` (the prompt must replay the conversation so far,
        as the canonical prompt grammar does).  ``timeout`` bounds the turn
        like :meth:`complete`."""
        return self.complete(prompt_ids, params=params, session_id=session_id,
                             timeout=timeout)

    # ------------------------------------------------------------------
    def metrics_snapshot(self) -> Dict[str, float]:
        """Instrumentation snapshot (tokens/sec, TTFT, hit rates, …).

        Taken against the scheduler clock, so a snapshot mid-burst folds
        the open busy span in and reports live throughput.
        """
        pool = self.scheduler.prefix_pool
        snap = self.scheduler.metrics.snapshot(
            pool.stats() if pool is not None else None,
            now=self.scheduler.clock())
        if self.scheduler.draft_engine is not None:
            snap["speculative"] = self.scheduler.spec_stats()
        return snap

    def _collect(self, completions: List[Completion]) -> List[Completion]:
        out = []
        for completion in completions:
            if self.tokenizer is not None and completion.token_ids:
                completion = replace(
                    completion, text=self.tokenizer.decode(list(completion.token_ids)))
            self._results[completion.request_id] = completion
            out.append(completion)
        return out
