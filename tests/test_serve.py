"""Serving subsystem tests: engine parity, scheduling policy, caching."""

import numpy as np
import pytest

from repro.nn.infer import InferenceEngine
from repro.serve import (BatchedEngine, InProcessServer, PrefixCachePool,
                         Request, RequestStatus, SamplingParams, Scheduler,
                         ServeConfig, SessionStore, WorkloadSpec,
                         common_prefix_length, synthetic_prompts)
from repro.serve.request import FinishReason
from repro.serve.serve_bench import run_serve_benchmark
from tests.conftest import ManualClock


@pytest.fixture
def model(serve_model):
    return serve_model


@pytest.fixture(scope="module")
def engine(serve_model):
    return InferenceEngine(serve_model)


def _exact_server(model, **kwargs):
    kwargs.setdefault("max_batch_size", 4)
    return InProcessServer(model, config=ServeConfig(
        decode_mode="exact", prefix_cache=False, **kwargs))


# ---------------------------------------------------------------------------
# batched engine parity
# ---------------------------------------------------------------------------


MIXED_PROMPTS = ([1, 7], [1, 5, 6, 5], [1, 7, 8, 9, 10], [1, 5],
                 [1, 9, 10, 11], [1, 7, 8])


def test_exact_mode_token_parity_mixed_lengths(model, engine):
    """Exact decode mode replays the single-sequence math: identical tokens
    even with mixed prompt lengths interleaved in one batch."""
    ref = [engine.generate(p, max_new_tokens=8, eos_id=2)
           for p in MIXED_PROMPTS]
    server = _exact_server(model)
    server.scheduler.eos_id = 2
    ids = [server.submit(p, params=SamplingParams(max_new_tokens=8))
           for p in MIXED_PROMPTS]
    server.run_until_idle()
    for rid, expected in zip(ids, ref):
        assert list(server.result(rid).token_ids) == expected


def test_exact_mode_parity_with_sampling(model, engine):
    """Stochastic sampling also agrees: per-request seeded RNGs mirror the
    serial engine's RNG stream draw-for-draw."""
    ref = [engine.generate(p, max_new_tokens=8, temperature=0.8, eos_id=2,
                           rng=np.random.default_rng(100 + i))
           for i, p in enumerate(MIXED_PROMPTS)]
    server = _exact_server(model)
    server.scheduler.eos_id = 2
    ids = [server.submit(p, params=SamplingParams(max_new_tokens=8,
                                                  temperature=0.8,
                                                  seed=100 + i))
           for i, p in enumerate(MIXED_PROMPTS)]
    server.run_until_idle()
    for rid, expected in zip(ids, ref):
        assert list(server.result(rid).token_ids) == expected


def test_fused_mode_agrees_on_trained_model(model, engine):
    """Fused decode is float-tolerance equivalent; on a trained model with
    separated logits it produces the same greedy tokens."""
    ref = [engine.generate(p, max_new_tokens=8, eos_id=2)
           for p in MIXED_PROMPTS]
    server = InProcessServer(model, config=ServeConfig(
        decode_mode="fused", prefix_cache=False, max_batch_size=6), eos_id=2)
    ids = [server.submit(p, params=SamplingParams(max_new_tokens=8))
           for p in MIXED_PROMPTS]
    server.run_until_idle()
    for rid, expected in zip(ids, ref):
        assert list(server.result(rid).token_ids) == expected


def test_fused_slot_reuse_across_generations(model, engine):
    """Slots freed by finished sequences are safely reused by later ones."""
    server = InProcessServer(model, config=ServeConfig(
        decode_mode="fused", prefix_cache=False, max_batch_size=2), eos_id=2)
    for wave in range(3):
        ids = [server.submit(p, params=SamplingParams(max_new_tokens=6))
               for p in MIXED_PROMPTS[:4]]
        server.run_until_idle()
        for rid, prompt in zip(ids, MIXED_PROMPTS[:4]):
            expected = engine.generate(prompt, max_new_tokens=6, eos_id=2)
            assert list(server.result(rid).token_ids) == expected, wave


def test_batched_engine_rejects_overflow(model):
    eng = BatchedEngine(model, max_batch_size=1)
    eng.prefill_into([1, 7], eng.begin_sequence())
    with pytest.raises(RuntimeError):
        eng.begin_sequence()


@pytest.mark.parametrize("op", ["prefill_into", "decode"])
@pytest.mark.parametrize("decode_mode,kv_mode", [
    ("exact", "dense"), ("fused", "dense"), ("fused", "paged")])
def test_context_window_overflow_is_a_typed_error(model, decode_mode,
                                                  kv_mode, op):
    """Every mode refuses to run past ``max_seq_len`` with the same typed
    error, before touching the sequence's stored state."""
    eng = BatchedEngine(model, decode_mode=decode_mode, kv_mode=kv_mode,
                        max_batch_size=1, kv_block_tokens=4)
    window = model.config.max_seq_len
    handle = eng.begin_sequence()
    with pytest.raises(ValueError, match="exceeds the model context window"):
        if op == "prefill_into":
            eng.prefill_into([1] * (window + 1), handle)
        else:
            eng.prefill_into([1] * window, handle)  # fills the window
            eng.decode([1], [handle])
    assert handle.length == (0 if op == "prefill_into" else window)
    eng.release(handle)
    if eng._block_pool is not None:
        assert eng._block_pool.n_allocated == 0


# ---------------------------------------------------------------------------
# differential parity sweep: exact vs fused decode
# ---------------------------------------------------------------------------


PARITY_BATCH_SIZES = (1, 3, len(MIXED_PROMPTS))
PARITY_SAMPLERS = (
    ("greedy", {}),
    ("top_k", {"temperature": 0.8, "top_k": 3}),
    ("top_p", {"temperature": 0.9, "top_p": 0.85}),
)
#: Long shared prefix (>= prefix_min_tokens) so the cached variant takes the
#: prefix-cache *hit* path; MIXED_PROMPTS share only the BOS token, so their
#: cached variant exercises the *miss* path.
PARITY_SHARED_PROMPTS = tuple((1, 7, 8, 9, 10, 11) + (t,)
                              for t in (7, 8, 9, 5, 6, 10))


def _parity_burst(model, prompts, decode_mode, prefix_cache, batch, kwargs):
    server = InProcessServer(model, config=ServeConfig(
        decode_mode=decode_mode, prefix_cache=prefix_cache,
        prefix_min_tokens=4, max_batch_size=batch), eos_id=2)
    ids = [server.submit(p, params=SamplingParams(max_new_tokens=8,
                                                  seed=300 + i, **kwargs))
           for i, p in enumerate(prompts)]
    server.run_until_idle()
    outs = [list(server.result(r).token_ids) for r in ids]
    return outs, server.metrics_snapshot()


@pytest.mark.parametrize("batch", PARITY_BATCH_SIZES)
@pytest.mark.parametrize("sampler,kwargs", PARITY_SAMPLERS,
                         ids=[name for name, _ in PARITY_SAMPLERS])
def test_differential_exact_vs_fused_parity(model, batch, sampler, kwargs):
    """Differential sweep: fused decode must be token-identical to exact
    decode for every batch size x sampler x prefix-cache combination.

    Exact mode replays the single-sequence math and is the ground truth;
    fused mode shares one batched forward, so this pins down the claim that
    its float-tolerance drift never flips a sampled token on a trained
    model.  Sampled runs draw from per-request seeded RNGs, so the streams
    are comparable draw-for-draw across modes.
    """
    for prompts, want_hits in ((MIXED_PROMPTS, False),
                               (PARITY_SHARED_PROMPTS, True)):
        exact_uncached, _ = _parity_burst(
            model, prompts, "exact", False, batch, kwargs)
        results = {}
        for mode in ("exact", "fused"):
            results[mode], snap = _parity_burst(
                model, prompts, mode, True, batch, kwargs)
            if want_hits:
                assert snap["cached_prefix_tokens"] > 0, (mode, batch, sampler)
            else:
                assert snap["cached_prefix_tokens"] == 0, (mode, batch, sampler)
        # Fused == exact under identical cache behaviour, and the cache
        # itself never changes tokens relative to the uncached ground truth.
        assert results["fused"] == results["exact"], (batch, sampler)
        assert results["exact"] == exact_uncached, (batch, sampler)
        # The sweep must exercise real decodes, not a wall of instant-EOS
        # completions.
        assert sum(len(out) for out in results["exact"]) >= len(prompts)


# ---------------------------------------------------------------------------
# prefix cache
# ---------------------------------------------------------------------------


def test_common_prefix_length():
    assert common_prefix_length((1, 2, 3), (1, 2, 4)) == 2
    assert common_prefix_length((), (1,)) == 0
    assert common_prefix_length((5, 6), (5, 6)) == 2


def test_prefix_pool_lookup_and_eviction():
    pool = PrefixCachePool(max_entries=2, min_match_tokens=2)
    kv = [(np.ones((2, 4, 3)), np.ones((2, 4, 3)))]
    pool.insert((1, 2, 3, 4), kv)
    match, entry = pool.lookup((1, 2, 3, 9))
    assert match == 3
    assert entry.length == 4  # the stored entry covers its whole key
    assert entry.materialize(match)[0][0].shape[1] == 3
    # Too-short matches are rejected.
    match, entry = pool.lookup((1, 9, 9, 9))
    assert match == 0 and entry is None
    # LRU eviction at capacity.
    pool.insert((5, 6, 7, 8), kv)
    pool.insert((9, 10, 11, 12), kv)
    assert len(pool) == 2


def test_prefix_pool_prunes_subsumed_entries():
    """Inserting a longer prompt reclaims the capacity of stored entries
    that are strict prefixes of it — they can never out-match it."""
    pool = PrefixCachePool(max_entries=2, min_match_tokens=2)
    kv = [(np.ones((2, 8, 3)), np.ones((2, 8, 3)))]
    pool.insert((1, 2, 3), kv)
    pool.insert((1, 2, 3, 4, 5), kv)
    assert len(pool) == 1  # the (1, 2, 3) entry was subsumed
    # The reclaimed slot fits an unrelated prompt without evicting the
    # longer entry...
    pool.insert((7, 8, 9), kv)
    assert len(pool) == 2
    # ...and lookups the short entry used to serve still hit, through the
    # longer entry.
    match, entry = pool.lookup((1, 2, 3, 9))
    assert match == 3
    assert entry.materialize(match)[0][0].shape[1] == 3


def test_subsumed_insert_refreshes_subsuming_entry_lru_clock():
    """Regression: the early return for a prefix-subsumed insert must count
    as a *use* of the subsuming entry.  A hot prefix kept alive only through
    subsumed inserts used to keep a stale LRU stamp and get evicted first."""
    pool = PrefixCachePool(max_entries=2, min_match_tokens=2)
    kv = [(np.ones((2, 8, 3)), np.ones((2, 8, 3)))]
    pool.insert((1, 2, 3, 4, 5), kv)  # the hot entry
    pool.insert((7, 8, 9), kv)        # more recent by raw insert order
    pool.insert((1, 2, 3), kv)        # subsumed: served by the hot entry
    # Capacity pressure: the victim must be (7, 8, 9), not the entry that
    # just served a subsumed insert.
    pool.insert((20, 21, 22), kv)
    match, _ = pool.lookup((1, 2, 3, 4, 9))
    assert match == 4  # hot entry survived
    match, _ = pool.lookup((7, 8, 9, 9))
    assert match == 0  # the idle entry was the one evicted


def test_vectorized_scan_matches_scalar_oracle():
    """The numpy lookup scan must be bit-identical to the Python reference,
    including the first-max-in-insertion-order tie-break — also while the
    key matrix is kept across inserts that evict (small ``max_entries``)
    and inserts that prune the stored keys they subsume."""
    rng = np.random.default_rng(0)
    kv = [(np.ones((1, 24, 2)), np.ones((1, 24, 2)))]
    evicted = pruned = 0
    for trial in range(60):
        pool = PrefixCachePool(max_entries=(64, 3, 5)[trial % 3],
                               min_match_tokens=2)
        for _ in range(int(rng.integers(1, 24))):
            length = int(rng.integers(2, 12))
            # Tiny alphabet so shared prefixes and exact ties are common.
            key = tuple(int(t) for t in rng.integers(0, 4, size=length))
            if rng.random() < 0.3 and len(pool):
                # Extend a stored key: the insert prunes it as subsumed.
                stored = list(pool.entries())[
                    int(rng.integers(0, len(pool)))]
                key = stored + key
            before = set(pool.entries())
            pool.insert(key, kv)
            gone = before - set(pool.entries())
            pruned += sum(key[: len(g)] == g for g in gone)
            evicted += sum(key[: len(g)] != g for g in gone)
            for _ in range(3):
                plen = int(rng.integers(1, 14))
                prompt = tuple(int(t) for t in rng.integers(0, 4, size=plen))
                if rng.random() < 0.5 and len(pool):
                    prompt = list(pool.entries())[
                        int(rng.integers(0, len(pool)))] + prompt
                assert pool._scan(prompt) == pool._scan_scalar(prompt)
    assert evicted > 50 and pruned > 50


def test_serving_spans_are_stored_only_in_a_caller_handle(model):
    """A default server keeps a metrics-only private handle: a burst stores
    no span, while counters stay live.  A server given a handle stores the
    ``serve.step`` tree into it."""
    from repro.obs import Observability

    prompts = [(1, 7, 8, 9, 10, 11, 5, 6, 5, 6, t) for t in (7, 8, 9, 10)]
    caller = Observability()
    servers = {"default": InProcessServer(model, config=ServeConfig(
                   max_batch_size=2), eos_id=2),
               "traced": InProcessServer(model, config=ServeConfig(
                   max_batch_size=2), eos_id=2, obs=caller)}
    for server in servers.values():
        for prompt in prompts:
            server.submit(prompt, params=SamplingParams(max_new_tokens=6))
        server.run_until_idle()
        assert server.obs.registry.snapshot()["serve.decode_steps"] > 0
    assert servers["default"].obs.tracer.export_spans() == []
    names = {span.name for _, span in caller.tracer.walk()}
    assert {"serve.step", "serve.prefill", "serve.decode_step"} <= names


def test_prefix_cache_reuse_preserves_outputs(model, engine):
    """Shared-prefix requests reuse cached KV and still produce the same
    greedy tokens as uncached serving."""
    prefix = (1, 7, 8, 9, 10, 11, 5, 6, 5, 6)
    prompts = [prefix + (t,) for t in (7, 8, 9, 10)]
    uncached = InProcessServer(model, config=ServeConfig(
        prefix_cache=False, max_batch_size=4), eos_id=2)
    cached = InProcessServer(model, config=ServeConfig(
        prefix_cache=True, prefix_min_tokens=4, max_batch_size=4), eos_id=2)
    outs, completions = {}, {}
    for name, server in (("uncached", uncached), ("cached", cached)):
        ids = [server.submit(p, params=SamplingParams(max_new_tokens=6))
               for p in prompts]
        server.run_until_idle()
        # result() hands each completion over once: bind it here.
        completions[name] = [server.result(r) for r in ids]
        outs[name] = [list(c.token_ids) for c in completions[name]]
    assert outs["cached"] == outs["uncached"]
    assert sum(c.cached_prefix_tokens for c in completions["cached"]) > 0
    assert cached.metrics_snapshot()["prefix_hit_rate"] > 0


# ---------------------------------------------------------------------------
# scheduler policy
# ---------------------------------------------------------------------------


def test_priority_ordering(model):
    """With one slot, the high-priority latecomer runs before earlier
    normal-priority requests; FIFO breaks ties."""
    clock = ManualClock()
    server = InProcessServer(model, config=ServeConfig(max_batch_size=1),
                             clock=clock)
    params = SamplingParams(max_new_tokens=2)
    normal = [server.submit([1, 7], params=params) for _ in range(2)]
    vip = server.submit([1, 5], params=params, priority=5)
    order = []
    while not server.idle:
        order.extend(c.request_id for c in server.step())
    assert order == [vip] + normal


class TickingClock(ManualClock):
    """A fake clock that also advances a little on every read."""

    def __call__(self):
        self.t += 0.001
        return self.t


def test_ttft_covers_prefill_and_is_never_negative(model):
    """TTFT is read after the first token is sampled: it includes the
    prefill's clock advance, and a request the refill hook submits inside
    a step (after the step read its clock) gets no negative TTFT."""
    clock = TickingClock()
    server = InProcessServer(model, config=ServeConfig(max_batch_size=4),
                             clock=clock)
    prefill_into = server.engine.prefill_into

    def slow_prefill(*args, **kwargs):
        clock.t += 2.0
        return prefill_into(*args, **kwargs)

    server.engine.prefill_into = slow_prefill
    pending = [Request(request_id="refilled", prompt_ids=(1, 9),
                       params=SamplingParams(max_new_tokens=2))]
    server.scheduler.refill = lambda free: [pending.pop()] if pending else []
    server.submit([1, 7], params=SamplingParams(max_new_tokens=2),
                  request_id="queued")
    clock.t += 1.0
    done = {c.request_id: c for c in server.run_until_idle()}
    ttfts = server.scheduler.metrics.ttfts
    assert len(ttfts) == 2 and min(ttfts) >= 2.0
    assert done["queued"].ttft >= 3.0
    assert done["refilled"].ttft >= 2.0


def test_deadline_expiry(model):
    """Queued requests past their deadline are evicted unrun."""
    clock = ManualClock()
    server = InProcessServer(model, config=ServeConfig(max_batch_size=1),
                             clock=clock)
    params = SamplingParams(max_new_tokens=2)
    stale = server.submit([1, 7], params=params, deadline=5.0)
    fresh = server.submit([1, 5], params=params)
    clock.t = 10.0
    server.run_until_idle()
    expired = server.result(stale)
    assert expired.status == RequestStatus.EXPIRED
    assert expired.finish_reason == FinishReason.DEADLINE
    assert expired.token_ids == ()
    assert server.result(fresh).status == RequestStatus.FINISHED
    assert server.metrics_snapshot()["requests_expired"] == 1


def test_deadline_expires_exactly_at_boundary_tick(model):
    """Regression: a request whose deadline equals the current clock tick is
    *past due* — the admission layer's retry-after arithmetic and the fleet
    router both treat ``now == deadline`` as expired, and the scheduler used
    to disagree by one tick (``>`` instead of ``>=``)."""
    clock = ManualClock()
    server = InProcessServer(model, config=ServeConfig(max_batch_size=1),
                             clock=clock)
    rid = server.submit([1, 7], params=SamplingParams(max_new_tokens=2),
                        deadline=5.0)
    clock.t = 5.0
    server.run_until_idle()
    completion = server.result(rid)
    assert completion.status == RequestStatus.EXPIRED
    assert completion.finish_reason == FinishReason.DEADLINE


def test_running_request_expires_mid_decode(model):
    clock = ManualClock()
    server = InProcessServer(model, config=ServeConfig(max_batch_size=1),
                             clock=clock)
    rid = server.submit([1, 7], params=SamplingParams(max_new_tokens=30),
                        deadline=5.0)
    server.step()  # admitted and decoding
    clock.t = 10.0
    server.run_until_idle()
    assert server.result(rid).status == RequestStatus.EXPIRED


def test_cancellation(model):
    server = InProcessServer(model, config=ServeConfig(max_batch_size=1))
    params = SamplingParams(max_new_tokens=4)
    running = server.submit([1, 7], params=params)
    queued = server.submit([1, 5], params=params)
    finishing = server.submit([1, 3], params=params)
    server.step()  # admits `running` (batch of 1); the others stay queued
    assert server.cancel(queued)     # queued-path cancellation
    assert server.cancel(running)    # running-path cancellation
    assert not server.cancel("nonexistent")
    server.run_until_idle()
    assert server.result(queued).status == RequestStatus.CANCELLED
    assert server.result(running).status == RequestStatus.CANCELLED
    assert server.result(finishing).status == RequestStatus.FINISHED
    # Both cancellation paths must hit the metrics counter (it was dead).
    assert server.metrics_snapshot()["requests_cancelled"] == 2


def test_schedule_is_deterministic(model):
    """Same submissions + same clock => identical completions, token for
    token, across independent servers."""
    def run():
        clock = ManualClock()
        server = InProcessServer(model, config=ServeConfig(max_batch_size=2),
                                 clock=clock, eos_id=2)
        for i, p in enumerate(MIXED_PROMPTS):
            server.submit(p, params=SamplingParams(max_new_tokens=6,
                                                   temperature=0.7,
                                                   seed=i),
                          priority=i % 2)
            clock.t += 1.0
        server.run_until_idle()
        return [(c.request_id, tuple(c.token_ids))
                for c in [server.result(f"req-{i}")
                          for i in range(len(MIXED_PROMPTS))]]

    assert run() == run()


def test_duplicate_request_id_rejected(model):
    server = InProcessServer(model)
    server.submit([1, 7], request_id="dup")
    with pytest.raises(ValueError):
        server.submit([1, 5], request_id="dup")


def test_long_prompt_truncated_to_context(model):
    """Prompts longer than the model window keep their most recent tokens,
    mirroring InferenceEngine.generate."""
    max_ctx = model.config.max_seq_len
    prompt = [1] + [7, 8] * max_ctx
    server = _exact_server(model, )
    rid = server.submit(prompt, params=SamplingParams(max_new_tokens=4))
    server.run_until_idle()
    completion = server.result(rid)
    assert completion.status == RequestStatus.FINISHED
    engine = InferenceEngine(model)
    assert list(completion.token_ids) == engine.generate(
        prompt, max_new_tokens=4)


def test_context_exhaustion_finish_reason(model):
    max_ctx = model.config.max_seq_len
    server = _exact_server(model)
    rid = server.submit([1, 7] * ((max_ctx - 2) // 2),
                        params=SamplingParams(max_new_tokens=3 * max_ctx))
    server.run_until_idle()
    completion = server.result(rid)
    assert completion.finish_reason == FinishReason.CONTEXT
    # Matches the serial engine, whose final sampled token also never
    # enters the KV cache (hence prefill + emitted == max_ctx + 1).
    prompt = [1, 7] * ((max_ctx - 2) // 2)
    expected = InferenceEngine(model).generate(
        prompt, max_new_tokens=3 * max_ctx)
    assert list(completion.token_ids) == expected
    assert completion.prefill_tokens + len(completion.token_ids) <= max_ctx + 1


# ---------------------------------------------------------------------------
# sessions
# ---------------------------------------------------------------------------


def test_session_two_turn_kv_reuse(model):
    server = InProcessServer(model, config=ServeConfig(max_batch_size=2),
                             eos_id=2)
    turn1 = [1, 7, 8, 9]
    first = server.chat("s1", turn1, params=SamplingParams(max_new_tokens=4))
    assert first.cached_prefix_tokens == 0
    turn2 = turn1 + list(first.token_ids) + [5, 6]
    second = server.chat("s1", turn2, params=SamplingParams(max_new_tokens=4))
    assert second.cached_prefix_tokens > 0
    # The reused turn covers the first turn's prompt plus its forwarded
    # output tokens (the last sampled token never entered the KV cache).
    assert second.cached_prefix_tokens >= len(turn1)
    # And the answer matches a fresh, uncached generation of the same prompt.
    fresh = InferenceEngine(model).generate(turn2, max_new_tokens=4, eos_id=2)
    served = InProcessServer(model, config=ServeConfig(
        decode_mode="exact", prefix_cache=False)).complete(
            turn2, params=SamplingParams(max_new_tokens=4))
    # exact-mode reference for the served fused answer: compare lengths only
    # when logits are near ties; trained model separates them, so compare
    # tokens directly.
    assert list(served.token_ids) == fresh


def test_session_store_prefix_semantics():
    store = SessionStore(capacity=2)
    kv = [(np.zeros((2, 3, 4)), np.zeros((2, 3, 4)))]
    store.update("a", [1, 2, 3], kv)
    match, reused = store.lookup_prefix("a", (1, 2, 3, 4))
    assert match == 3 and reused is not None
    # A diverging prompt only reuses the common prefix.
    match, _ = store.lookup_prefix("a", (1, 2, 9, 9))
    assert match == 2
    # Unknown session: no reuse.
    match, reused = store.lookup_prefix("zz", (1, 2, 3))
    assert match == 0 and reused is None
    # LRU eviction.
    store.update("b", [1], kv)
    store.update("c", [1], kv)
    assert store.get("a") is None


# ---------------------------------------------------------------------------
# metrics + benchmark plumbing
# ---------------------------------------------------------------------------


def test_metrics_snapshot_keys_and_counts(model):
    server = InProcessServer(model, config=ServeConfig(max_batch_size=2))
    ids = [server.submit([1, 7, 8], params=SamplingParams(max_new_tokens=3))
           for _ in range(3)]
    server.run_until_idle()
    snap = server.metrics_snapshot()
    for key in ("requests_submitted", "requests_finished", "tokens_generated",
                "prefill_tokens", "cached_prefix_tokens", "decode_steps",
                "mean_ttft_s", "mean_queue_depth", "mean_batch_occupancy",
                "tokens_per_second", "prefix_hit_rate"):
        assert key in snap, key
    assert snap["requests_submitted"] == len(ids)
    assert snap["requests_finished"] == len(ids)
    assert snap["tokens_generated"] == sum(
        len(server.result(r).token_ids) for r in ids)
    assert 0 < snap["mean_batch_occupancy"] <= 2


def test_run_serve_benchmark_structure():
    result = run_serve_benchmark(requests=4, prefix_tokens=12,
                                 unique_tokens=3, decode_tokens=4,
                                 max_batch=4, vocab=20, repeats=1, seed=1)
    gates = {g["metric"]: g for g in result["gates"]}
    assert {"speedup", "prefix_hit_rate", "served_tokens", "parity.exact",
            "served_agreement", "obs.overhead_ratio",
            "parity.engine_vs_autograd", "engine.speedup"} <= set(gates)
    # Exactness holds at any size; only the timing gates depend on it.
    assert gates["parity.exact"]["ok"]
    assert gates["parity.engine_vs_autograd"]["ok"]
    assert gates["served_tokens"]["ok"]
    assert result["serial"]["tokens"] == 16
    assert result["speedup"] > 0
    assert len(result["timing"]["ratios"]) == 1
    # The registry snapshot is the first served burst's.
    assert result["registry"]["serve.requests_finished"] == 4
    assert (result["registry"]["serve.tokens_generated"]
            == result["served"]["tokens"])
    assert result["registry"]["serve.ttft_s"]["count"] == 4
    assert result["header"]["cpu_count"] >= 1


def test_request_validation():
    with pytest.raises(ValueError):
        SamplingParams(max_new_tokens=0)
    with pytest.raises(ValueError):
        SamplingParams(temperature=-1.0)
    with pytest.raises(ValueError):
        SamplingParams(top_p=1.5)
    with pytest.raises(ValueError):
        Request(request_id="r", prompt_ids=(), params=SamplingParams())
    request = Request(request_id="r", prompt_ids=[1.0, 2.0],
                      params=SamplingParams())
    assert request.prompt_ids == (1, 2)


# ---------------------------------------------------------------------------
# synchronous timeouts (complete/chat deadline propagation)
# ---------------------------------------------------------------------------


class TickingClock:
    """Monotonic clock that advances a fixed amount on every read, so a
    synchronous `complete()` loop experiences passing time without any
    real sleeping."""

    def __init__(self, tick: float = 0.25):
        self.t = 0.0
        self.tick = tick

    def __call__(self):
        self.t += self.tick
        return self.t


def test_complete_timeout_expires_instead_of_hanging(model):
    """A synchronous complete() with a huge token budget and a small
    timeout must return an `expired` completion, not spin forever."""
    server = InProcessServer(model, config=ServeConfig(max_batch_size=1),
                             clock=TickingClock())
    completion = server.complete([1, 7], params=SamplingParams(
        max_new_tokens=100_000, temperature=0.0), timeout=3.0)
    assert completion.status == RequestStatus.EXPIRED
    assert completion.finish_reason == FinishReason.DEADLINE
    acct = server.scheduler.accounting()
    assert acct["expired"] == 1 and acct["conservation_ok"] == 1


def test_complete_generous_timeout_finishes(model):
    """Control: the same request with a generous timeout runs to its
    natural finish — the deadline plumbing must not clip healthy work."""
    server = InProcessServer(model, config=ServeConfig(max_batch_size=1),
                             clock=TickingClock())
    completion = server.complete([1, 7], params=SamplingParams(
        max_new_tokens=4, temperature=0.0), timeout=1e9)
    assert completion.status == RequestStatus.FINISHED
    assert len(completion.token_ids) > 0


def test_chat_timeout_bounds_each_turn(model):
    """chat() threads the per-turn timeout through the same deadline
    path, and an expired turn does not poison the session for the next."""
    clock = TickingClock()
    server = InProcessServer(model, config=ServeConfig(max_batch_size=1),
                             clock=clock)
    turn1 = server.chat("s0", [1, 7, 8], params=SamplingParams(
        max_new_tokens=100_000, temperature=0.0), timeout=3.0)
    assert turn1.status == RequestStatus.EXPIRED
    turn2 = server.chat("s0", [1, 7, 8], params=SamplingParams(
        max_new_tokens=3, temperature=0.0), timeout=1e9)
    assert turn2.status == RequestStatus.FINISHED


# ---------------------------------------------------------------------------
# cancellation interleavings and request conservation
# ---------------------------------------------------------------------------


def test_cancel_after_terminal_outcome_returns_false(model):
    """Cancelling a request that already finished records nothing: every
    request has exactly one terminal outcome."""
    server = InProcessServer(model, config=ServeConfig(max_batch_size=1))
    rid = server.submit([1, 7], params=SamplingParams(max_new_tokens=2))
    server.run_until_idle()
    assert server.result(rid).status == RequestStatus.FINISHED
    assert not server.cancel(rid)
    acct = server.scheduler.accounting()
    assert acct["cancelled"] == 0
    assert acct["finished"] == 1 and acct["conservation_ok"] == 1


def test_on_token_cancel_mid_decode_single_outcome(model):
    """A re-entrant cancel from the streaming hook — the request being
    advanced cancels *itself* mid-step — must finish the sequence exactly
    once, free its slot, and never resurrect it."""
    server = InProcessServer(model, config=ServeConfig(max_batch_size=2))
    seen = []

    def on_token(request, token, index):
        seen.append((request.request_id, index))
        if index >= 2:
            server.scheduler.cancel(request.request_id)

    server.scheduler.on_token = on_token
    rid = server.submit([1, 7], params=SamplingParams(max_new_tokens=30))
    steps = 0
    stepped = []
    while not server.idle:
        stepped.extend(server.step())
        steps += 1
        assert steps < 100, "cancelled request was resurrected"
    completion = server.result(rid)
    assert completion.status == RequestStatus.CANCELLED
    assert completion.finish_reason == FinishReason.CANCELLED
    # The hook may observe at most one token past the cancel trigger.
    assert max(i for _, i in seen) <= 3
    acct = server.scheduler.accounting()
    assert acct["cancelled"] == 1 and acct["conservation_ok"] == 1
    assert len(server.engine._free_slots) == 2
    # Exactly one terminal completion reaches the caller, and the
    # scheduler's backlog holds no duplicate of it.
    assert [c.request_id for c in stepped] == [rid]
    assert server.scheduler.drain_completions() == []


def test_step_driven_serving_drains_scheduler_completions(model):
    """Driving the server with step() returns every completion exactly
    once, the same set run_until_idle returns, and leaves none behind in
    the scheduler (the server's result map is the only copy)."""
    prompts = [[1, 5 + i] for i in range(5)]
    params = SamplingParams(max_new_tokens=3)
    oracle = InProcessServer(model, config=ServeConfig(max_batch_size=2))
    for prompt in prompts:
        oracle.submit(prompt, params=params)
    expected = {c.request_id: c.token_ids for c in oracle.run_until_idle()}

    server = InProcessServer(model, config=ServeConfig(max_batch_size=2))
    for prompt in prompts:
        server.submit(prompt, params=params)
    stepped = []
    while not server.idle:
        stepped.extend(server.step())
        assert server.scheduler._completions == []
    assert {c.request_id: c.token_ids for c in stepped} == expected
    assert len(stepped) == len(prompts)


def test_cancel_step_interleaving_conservation_fuzz(model):
    """Randomised submit/cancel/step interleavings: whatever the order,
    the ledger must balance (each request exactly one terminal outcome)
    and every batch slot must come back."""
    rng = np.random.default_rng(1234)
    for trial in range(8):
        server = InProcessServer(model, config=ServeConfig(max_batch_size=3))
        submitted, cancelled_ok = [], 0
        for _ in range(40):
            action = rng.integers(0, 3)
            if action == 0:
                rid = server.submit(
                    [1, int(rng.integers(3, 12))],
                    params=SamplingParams(
                        max_new_tokens=int(rng.integers(1, 6))))
                submitted.append(rid)
            elif action == 1 and submitted:
                target = submitted[int(rng.integers(0, len(submitted)))]
                if server.cancel(target):
                    cancelled_ok += 1
            else:
                server.step()
        server.run_until_idle()
        acct = server.scheduler.accounting()
        assert acct["conservation_ok"] == 1, (trial, acct)
        assert acct["submitted"] == len(submitted)
        assert acct["cancelled"] == cancelled_ok
        assert acct["queued"] == 0 and acct["running"] == 0
        assert len(server.engine._free_slots) == 3
        for rid in submitted:
            assert server.result(rid) is not None, rid
