"""Continuous micro-batching scheduler.

The scheduler owns the request queue and the set of running sequences and
advances the whole system one *step* at a time.  Each step:

1. **expire** — queued or running requests past their deadline are evicted
   with :data:`~repro.serve.request.FinishReason.DEADLINE`;
2. **admit** — while the batch has free slots, the highest-priority queued
   request (FIFO within a priority) is prefilled: the session store and
   prefix pool are consulted for reusable KV state, only the unseen prompt
   suffix runs through the model, and the first token is sampled from the
   prefill logits (time-to-first-token is measured here);
3. **decode** — one batched engine step advances every running sequence by
   one token; finished sequences (eos / token budget / context exhaustion)
   free their slots for the next step's admissions.

Prefill is sequence-at-a-time and decode is token-at-a-time across the
batch — the Orca-style interleaving that keeps short requests from waiting
behind long ones.  With a fixed submission order and a deterministic clock,
the whole schedule — admission order, batch composition, sampled tokens —
is reproducible.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ..nn.infer import InferenceEngine, _LayerCache
from ..nn.sampling import sample_next
from ..obs import Observability
from .cache import PrefixCachePool
from .engine import (DECODE_MODES, KV_MODES, WEIGHT_MODES, BatchedEngine,
                     SequenceHandle)
from .metrics import ServerMetrics
from .request import Completion, FinishReason, Request, RequestStatus
from .sessions import SessionStore


@dataclass(frozen=True)
class ServeConfig:
    """Scheduler/server tuning knobs.

    The cheap-decode axes (DESIGN.md §11): ``weight_mode="int8"`` serves
    per-channel-quantized weights through the fused dequant-matmul kernel,
    ``kv_mode="paged"`` backs fused decode with block-pool KV allocation,
    and ``speculative_tokens=γ > 0`` drafts γ-token chains with a cheap
    draft model and verifies them in one target forward (requires a
    ``draft_model`` on the server).  All three are output-preserving:
    byte-identical token streams against their oracles is what the
    ``tests/test_decode.py`` differential suite asserts.
    """

    max_batch_size: int = 8
    decode_mode: str = "fused"
    prefix_cache: bool = True
    prefix_cache_entries: int = 32
    prefix_min_tokens: int = 8
    session_capacity: int = 32
    weight_mode: str = "fp32"
    kv_mode: str = "dense"
    kv_block_tokens: int = 16
    speculative_tokens: int = 0

    def __post_init__(self) -> None:
        if self.max_batch_size < 1:
            raise ValueError("max_batch_size must be >= 1")
        if self.decode_mode not in DECODE_MODES:
            raise ValueError(f"decode_mode must be one of {DECODE_MODES}")
        if self.weight_mode not in WEIGHT_MODES:
            raise ValueError(f"weight_mode must be one of {WEIGHT_MODES}")
        if self.kv_mode not in KV_MODES:
            raise ValueError(f"kv_mode must be one of {KV_MODES}")
        if self.kv_block_tokens < 1:
            raise ValueError("kv_block_tokens must be >= 1")
        if self.speculative_tokens < 0:
            raise ValueError("speculative_tokens must be >= 0")


class _Sequence:
    """Mutable state of one running request."""

    __slots__ = ("request", "handle", "out", "last_token", "rng",
                 "covered_ids", "prompt", "reused", "first_token_at",
                 "terminal", "draft_caches")

    def __init__(self, request: Request, prompt: Tuple[int, ...],
                 handle: SequenceHandle, reused: int) -> None:
        self.request = request
        self.prompt = prompt
        self.handle = handle
        self.reused = reused
        self.out: List[int] = []
        self.last_token: Optional[int] = None
        self.rng = np.random.default_rng(request.params.seed)
        #: Tokens whose KV state the caches currently hold.
        self.covered_ids: List[int] = list(prompt)
        #: Draft-model KV caches (speculative decoding only), lazily built
        #: and caught up from ``covered_ids`` on the first speculation round.
        self.draft_caches: Optional[List[_LayerCache]] = None
        self.first_token_at: Optional[float] = None
        #: Terminal status once finished/expired/cancelled; the guard that
        #: makes every sequence produce exactly one terminal outcome even
        #: when ``cancel`` fires from inside an ``on_token`` callback
        #: mid-decode-step.
        self.terminal: Optional[str] = None


class Scheduler:
    """Admission, batching, and eviction policy over a :class:`BatchedEngine`.

    Parameters
    ----------
    engine:
        The batched engine to drive (its ``decode_mode`` is set from the
        config when constructed through :class:`~repro.serve.server.InProcessServer`).
    config:
        Scheduling knobs.
    clock:
        Monotonic time source.  Injectable so tests and the deterministic
        load generator can run on a manual clock.
    eos_id:
        End-of-sequence token id (usually the tokenizer's); ``None``
        disables eos stopping regardless of per-request ``stop_on_eos``.
    obs:
        Shared :class:`~repro.obs.Observability`; the scheduler records
        ``serve.*`` counters into its registry and spans
        (``serve.step`` → ``serve.prefill`` / ``serve.decode_step`` /
        ``serve.expire``) into its tracer.  When none is supplied a private,
        metrics-only instance (``enabled=False``) is created: independent
        servers never mix metrics, and spans are stored only into a handle
        the caller passes and can read.
    """

    def __init__(self, engine: BatchedEngine, config: ServeConfig = ServeConfig(),
                 clock: Callable[[], float] = time.monotonic,
                 eos_id: Optional[int] = None,
                 obs: Optional[Observability] = None,
                 draft_engine: Optional[InferenceEngine] = None) -> None:
        self.engine = engine
        self.config = config
        self.clock = clock
        self.eos_id = eos_id
        self.draft_engine = draft_engine
        if config.speculative_tokens > 0:
            if draft_engine is None:
                raise ValueError("speculative_tokens > 0 requires a draft "
                                 "engine (pass draft_model to the server)")
            if draft_engine.config.vocab_size != engine.config.vocab_size:
                raise ValueError("draft and target models must share a vocab")
        #: Speculation counters: chains drafted, draft tokens proposed, and
        #: draft tokens accepted (the acceptance rate is the benchmark's
        #: honesty flag — speculation cannot win when the draft disagrees).
        self.spec_rounds = 0
        self.spec_drafted = 0
        self.spec_accepted = 0
        self.obs = (obs if obs is not None
                    else Observability(clock=clock, enabled=False))
        self.prefix_pool: Optional[PrefixCachePool] = (
            PrefixCachePool(max_entries=config.prefix_cache_entries,
                            min_match_tokens=config.prefix_min_tokens)
            if config.prefix_cache else None)
        self.sessions = SessionStore(capacity=config.session_capacity)
        self.metrics = ServerMetrics(config.max_batch_size,
                                     registry=self.obs.registry, clock=clock)
        if hasattr(engine, "attach_kv_metrics"):
            # KV-plane counters (bytes copied, blocks shared) flow through
            # the same registry as the serve.* counters, so obs-report and
            # the fleet metrics merge see them for free.
            engine.attach_kv_metrics(self.obs.registry)
        self._queue: List[Tuple[int, int, Request]] = []  # (-priority, seqno, req)
        self._seqno = 0
        self._submitted_at: Dict[str, float] = {}
        self._running: List[_Sequence] = []
        self._completions: List[Completion] = []
        #: Streaming hook: called as ``on_token(request, token, index)`` the
        #: moment a token is appended to a sequence (prefill's first token
        #: included).  The callback may call :meth:`cancel` — including for
        #: the very request being advanced — without corrupting the step.
        self.on_token: Optional[Callable[[Request, int, int], None]] = None
        #: Fair-share enqueue hook: called at the top of each step with the
        #: number of free batch slots; every returned request is submitted.
        #: An admission layer uses this to keep scheduling order authority
        #: (weighted fair queueing) outside the scheduler while reusing its
        #: expiry/metrics machinery unchanged.
        self.refill: Optional[Callable[[int], List[Request]]] = None

    # ------------------------------------------------------------------
    @property
    def queue_depth(self) -> int:
        return len(self._queue)

    @property
    def running_count(self) -> int:
        return len(self._running)

    @property
    def idle(self) -> bool:
        return not self._queue and not self._running

    def submit(self, request: Request) -> None:
        """Enqueue a request (does not run any model work)."""
        if request.request_id in self._submitted_at:
            raise ValueError(f"duplicate request_id {request.request_id!r}")
        now = self.clock()
        self._submitted_at[request.request_id] = now
        heapq.heappush(self._queue, (-request.priority, self._seqno, request))
        self._seqno += 1
        self.metrics.requests_submitted += 1
        self.metrics.mark_busy(now)

    def cancel(self, request_id: str) -> bool:
        """Cancel a queued or running request; returns whether it was found.

        Safe to call re-entrantly from an :attr:`on_token` callback while a
        decode step is in flight (a streaming client disconnecting is
        exactly this ordering): the sequence is finished exactly once and
        the in-progress step will not resurrect it.  Cancelling a request
        that already produced its terminal completion returns ``False`` and
        records nothing, so every request has exactly one terminal outcome.
        """
        for i, (_, _, request) in enumerate(self._queue):
            if request.request_id == request_id:
                del self._queue[i]
                heapq.heapify(self._queue)
                self._complete(request, RequestStatus.CANCELLED,
                               FinishReason.CANCELLED)
                self.metrics.requests_cancelled += 1
                return True
        for seq in list(self._running):
            if seq.request.request_id == request_id:
                if seq.terminal is not None:
                    return False
                if seq in self._running:
                    self._running.remove(seq)
                self._finish_seq(seq, RequestStatus.CANCELLED,
                                 FinishReason.CANCELLED)
                self.metrics.requests_cancelled += 1
                return True
        return False

    def drain_completions(self) -> List[Completion]:
        """Completions accumulated since the last drain."""
        done, self._completions = self._completions, []
        return done

    def accounting(self) -> Dict[str, int]:
        """Request-conservation ledger: every submitted request is either
        still in flight (queued/running) or reached exactly one terminal
        outcome.  ``conservation_ok`` is the invariant the fuzz suite and
        the net server's drain path assert."""
        counts = {
            "submitted": int(self.metrics.requests_submitted),
            "finished": int(self.metrics.requests_finished),
            "expired": int(self.metrics.requests_expired),
            "cancelled": int(self.metrics.requests_cancelled),
            "queued": len(self._queue),
            "running": len(self._running),
        }
        counts["conservation_ok"] = int(
            counts["submitted"] == counts["finished"] + counts["expired"]
            + counts["cancelled"] + counts["queued"] + counts["running"])
        return counts

    # ------------------------------------------------------------------
    def step(self) -> List[Completion]:
        """Run one scheduler iteration; returns completions it produced."""
        before = len(self._completions)
        now = self.clock()
        with self.obs.span("serve.step"):
            # Refill before expiry: a released request whose deadline has
            # already passed is evicted this very step instead of burning a
            # prefill first.
            if self.refill is not None:
                free = (self.config.max_batch_size - len(self._running)
                        - len(self._queue))
                if free > 0:
                    for request in self.refill(free):
                        self.submit(request)
            self._expire(now)
            self._admit()
            if self._running:
                self.metrics.record_step(len(self._queue), len(self._running))
                with self.obs.span("serve.decode_step",
                                   batch=len(self._running)):
                    self._decode_step()
        if self.idle:
            self.metrics.mark_idle(self.clock())
        return self._completions[before:]

    def run_until_idle(self, max_steps: Optional[int] = None) -> List[Completion]:
        """Step until queue and batch are empty; returns all completions."""
        steps = 0
        while not self.idle:
            self.step()
            steps += 1
            if max_steps is not None and steps >= max_steps:
                break
        return self.drain_completions()

    # ------------------------------------------------------------------
    def _expire(self, now: float) -> None:
        def stale(request: Request) -> bool:
            # >= so a request expires on the tick that *reaches* its
            # deadline, matching the net layer's retry_after_s accounting
            # (deadline - now == 0 means no budget left, not one free step).
            return request.deadline is not None and now >= request.deadline

        n_stale = (sum(stale(item[2]) for item in self._queue)
                   + sum(stale(seq.request) for seq in self._running))
        if not n_stale:
            return
        with self.obs.span("serve.expire", evicted=n_stale):
            live = []
            for item in self._queue:
                request = item[2]
                if stale(request):
                    self.metrics.requests_expired += 1
                    self._complete(request, RequestStatus.EXPIRED,
                                   FinishReason.DEADLINE)
                else:
                    live.append(item)
            if len(live) != len(self._queue):
                self._queue = live
                heapq.heapify(self._queue)
            for seq in list(self._running):
                if stale(seq.request):
                    self._running.remove(seq)
                    self.metrics.requests_expired += 1
                    self._finish_seq(seq, RequestStatus.EXPIRED,
                                     FinishReason.DEADLINE)

    def _admit(self) -> None:
        max_ctx = self.engine.config.max_seq_len
        while self._queue and len(self._running) < self.config.max_batch_size:
            _, _, request = heapq.heappop(self._queue)
            t_admit = self.clock()
            prompt = tuple(request.prompt_ids[-max_ctx:])
            reused, entry = 0, None
            if request.session_id is not None:
                reused, entry = self.sessions.lookup_prefix(
                    request.session_id, prompt)
            pool_covers = False
            if reused == 0 and self.prefix_pool is not None:
                reused, entry = self.prefix_pool.lookup(prompt)
                # A maximal hit (the lookup cap is len-1) means the stored
                # entry already serves every lookup this prompt's KV could
                # serve — re-inserting would be a pure copy/retain burn and
                # an LRU-refresh the lookup just performed anyway.
                pool_covers = entry is not None and reused >= len(prompt) - 1
            with self.obs.span("serve.prefill", tokens=len(prompt) - reused,
                               reused=reused):
                handle = self.engine.begin_sequence(entry, reused)
                logits = self.engine.prefill_into(prompt, handle)
                if self.prefix_pool is not None and not pool_covers:
                    self.prefix_pool.insert(
                        prompt,
                        lambda: self.engine.make_entry(handle, len(prompt)))
                seq = _Sequence(request, prompt, handle, reused)
            self.metrics.prefill_tokens += len(prompt) - reused
            self.metrics.cached_prefix_tokens += reused
            self.metrics.record_admission(self.clock() - t_admit)
            # t_admit, not the step's ``now``: a request the refill hook
            # submitted inside this step was not yet queued at ``now``.
            self.metrics.record_queue_wait(
                t_admit - self._submitted_at[request.request_id])
            if self._advance(seq, logits):
                self._running.append(seq)

    def _decode_step(self) -> None:
        if self.draft_engine is not None and self.config.speculative_tokens > 0:
            self._decode_step_speculative()
            return
        # Work on a snapshot: an on_token callback may cancel any member of
        # the batch (mutating self._running) mid-iteration.
        batch = list(self._running)
        tokens = [seq.last_token for seq in batch]
        for seq in batch:
            seq.covered_ids.append(seq.last_token)
        logits = self.engine.decode(tokens, [seq.handle for seq in batch])
        for row, seq in enumerate(batch):
            if seq.terminal is None:  # skip seqs cancelled earlier this step
                self._advance(seq, logits, row=row)
        self._running = [seq for seq in batch if seq.terminal is None]

    def _decode_step_speculative(self) -> None:
        """One scheduler step in speculative mode: each running sequence
        drafts a γ-token chain and verifies it against one target forward.

        Emitted tokens are byte-identical to the non-speculative path by
        construction — every token is sampled from *target* logits with the
        request's own rng, in the same order, one draw per token; the draft
        only decides how many target logit rows one forward pass yields.
        """
        batch = list(self._running)
        for seq in batch:
            if seq.terminal is None:  # skip seqs cancelled earlier this step
                self._speculate_seq(seq)
        self._running = [seq for seq in batch if seq.terminal is None]

    def _speculate_seq(self, seq: _Sequence) -> None:
        engine, draft = self.engine, self.draft_engine
        base = len(seq.covered_ids)  # == seq.handle.length
        seq.covered_ids.append(seq.last_token)
        # Cap the chain so the verify forward never overruns the target's
        # context window (the final row's CONTEXT stop still fires through
        # _advance, exactly as sequential decode would hit it).
        gamma = min(self.config.speculative_tokens,
                    engine.config.max_seq_len - (base + 1))
        # 1. The draft proposes greedily from its own KV state, catching up
        # on any covered tokens it has not seen (its first round replays
        # the whole prompt — a cheap-model prefill).
        if seq.draft_caches is None:
            seq.draft_caches = [_LayerCache() for _ in draft.layers]
        proposals: List[int] = []
        if gamma > 0:
            catch_up = seq.covered_ids[seq.draft_caches[0].length:]
            d_logits = draft._forward(catch_up, seq.draft_caches)
            for i in range(gamma):
                proposals.append(int(np.argmax(d_logits)))
                # No forward after the last proposal — its logits would
                # never be read (the next round's catch-up replays it).
                if (i + 1 == gamma or seq.draft_caches[0].length
                        >= draft.config.max_seq_len):
                    break
                d_logits = draft._forward([proposals[-1]], seq.draft_caches)
        self.spec_rounds += 1
        self.spec_drafted += len(proposals)
        # 2. One target forward scores last_token plus every proposal; its
        # KV side effect covers the whole chain, rolled back below.
        scores = engine.verify_scores([seq.last_token] + proposals,
                                      seq.handle)
        # 3. Exact accept/reject: row i is sampled with the request rng
        # exactly as sequential decode would sample it; a proposal survives
        # only if it *equals* the sampled token.  ``kv_length`` tells
        # _advance what the sequential cache length would be, so the
        # CONTEXT stop and session export see verified positions only.
        for i in range(len(proposals) + 1):
            if not self._advance(seq, scores, row=i, kv_length=base + 1 + i):
                return  # finished/cancelled: covered_ids is the valid prefix
            if i < len(proposals) and seq.last_token == proposals[i]:
                seq.covered_ids.append(seq.last_token)
                # Counted inline so acceptances in a round that ends the
                # request (the _advance early return above) are not lost.
                self.spec_accepted += 1
                continue
            break
        # 4. Roll back target KV past the verified prefix and keep the
        # draft's cache a covered-ids prefix for the next round.
        engine.truncate_kv(seq.handle, len(seq.covered_ids))
        keep = min(seq.draft_caches[0].length, len(seq.covered_ids))
        for cache in seq.draft_caches:
            cache.truncate(keep)

    def spec_stats(self) -> Dict[str, float]:
        """Speculation counters plus the derived acceptance rate."""
        return {
            "rounds": self.spec_rounds,
            "drafted": self.spec_drafted,
            "accepted": self.spec_accepted,
            "acceptance_rate": (self.spec_accepted / self.spec_drafted
                                if self.spec_drafted else 0.0),
        }

    def _advance(self, seq: _Sequence, logits: np.ndarray,
                 row: Optional[int] = None,
                 kv_length: Optional[int] = None) -> bool:
        """Sample one token for ``seq`` and apply the stop conditions.

        Mirrors :meth:`InferenceEngine.generate` exactly: an eos token ends
        the sequence without being emitted, the token budget is checked
        after appending, and context exhaustion stops decoding once the
        cache reaches the model's window.  ``kv_length`` overrides the
        handle's raw length for that last check — during speculative
        verification the cache transiently holds unverified positions, and
        the stop must fire where *sequential* decode would have fired.
        Returns True while running.
        """
        params = seq.request.params
        vec = logits if row is None else logits[row]
        token = sample_next(vec, temperature=params.temperature, rng=seq.rng,
                            top_k=params.top_k, top_p=params.top_p)
        if seq.first_token_at is None:
            # TTFT ends here, after prefill and the first sample, and before
            # any stop condition can complete the request.
            seq.first_token_at = self.clock()
            self.metrics.record_ttft(
                seq.first_token_at - self._submitted_at[seq.request.request_id])
        if params.stop_on_eos and self.eos_id is not None and token == self.eos_id:
            self._finish_seq(seq, RequestStatus.FINISHED, FinishReason.EOS)
            return False
        seq.out.append(token)
        self.metrics.tokens_generated += 1
        if self.on_token is not None:
            # The callback may cancel this very sequence (streaming client
            # gone); _finish_seq's terminal guard keeps the outcome single.
            self.on_token(seq.request, token, len(seq.out) - 1)
            if seq.terminal is not None:
                return False
        if len(seq.out) >= params.max_new_tokens:
            self._finish_seq(seq, RequestStatus.FINISHED, FinishReason.LENGTH)
            return False
        if (seq.handle.length if kv_length is None else kv_length) \
                >= self.engine.config.max_seq_len:
            self._finish_seq(seq, RequestStatus.FINISHED, FinishReason.CONTEXT)
            return False
        seq.last_token = token
        return True

    # ------------------------------------------------------------------
    def _finish_seq(self, seq: _Sequence, status: str, reason: str) -> None:
        if seq.terminal is not None:  # exactly one terminal outcome
            return
        seq.terminal = status
        request = seq.request
        if status == RequestStatus.FINISHED:
            self.metrics.requests_finished += 1
            if request.session_id is not None:
                # Retain exactly the covered prefix: during speculative
                # verification the cache transiently holds unverified
                # chain positions past covered_ids (in the non-speculative
                # path the two lengths are always equal).  make_entry keeps
                # resident blocks by reference instead of exporting copies.
                self.sessions.update(
                    request.session_id, seq.covered_ids,
                    lambda: self.engine.make_entry(seq.handle,
                                                   len(seq.covered_ids)))
        self.engine.release(seq.handle)
        submitted = self._submitted_at.pop(request.request_id, None)
        ttft = (seq.first_token_at - submitted
                if seq.first_token_at is not None and submitted is not None
                else None)
        self._completions.append(Completion(
            request_id=request.request_id,
            status=status,
            token_ids=tuple(seq.out),
            finish_reason=reason,
            ttft=ttft,
            queue_wait=ttft,
            prefill_tokens=len(seq.prompt) - seq.reused,
            cached_prefix_tokens=seq.reused,
            text=None,
        ))

    def _complete(self, request: Request, status: str, reason: str) -> None:
        """Terminal record for a request that never ran (expired/cancelled)."""
        self._submitted_at.pop(request.request_id, None)
        self._completions.append(Completion(
            request_id=request.request_id, status=status, finish_reason=reason))
