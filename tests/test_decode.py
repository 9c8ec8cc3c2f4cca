"""Cheap-decode differential suite (DESIGN.md §11).

Every cost-saving decode path must emit token streams **byte-identical**
to its exactness oracle:

* paged KV (``kv_mode="paged"``) vs the dense slot layout;
* int8 fused weights (``weight_mode="int8"``) vs an exact-mode engine over
  the dequantized weights;
* speculative decoding (``speculative_tokens=γ`` + draft model) vs
  target-only decoding.

The sweeps cover batch size {1, 3, max} × greedy/top-k/top-p sampling ×
prefix-cache hit/miss × session resume, plus randomised scheduler fuzz
(cancels, deadlines) over the paged allocator.  The block pool's ownership
invariants are property-tested with Hypothesis, and the stale-KV hazards
the paged design closes are pinned by direct regression tests.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn.infer import InferenceEngine, _LayerCache
from repro.nn.kernels import (INT8_SCALE_SUFFIX, dequantize_int8,
                              dequantize_state_dict, is_quantized_state,
                              matmul_int8_nograd, quantize_int8,
                              quantize_state_dict)
from repro.serve import (BatchedEngine, BlockPool, BlockPoolError,
                         InProcessServer, SamplingParams, ServeConfig,
                         dequantized_oracle_model)
from tests.conftest import ManualClock
from tests.conftest import make_server as _server


@pytest.fixture
def model(serve_model):
    return serve_model


@pytest.fixture
def draft(serve_draft):
    return serve_draft


PROMPTS = ([1, 7], [1, 5, 6, 5], [1, 7, 8, 9, 10], [1, 5],
           [1, 9, 10, 11], [1, 7, 8])

#: Sampling regimes of the parity sweep; the seeded stochastic modes must
#: agree draw-for-draw, not merely in distribution.
SAMPLERS = {
    "greedy": lambda i: SamplingParams(max_new_tokens=8),
    "top_k": lambda i: SamplingParams(max_new_tokens=8, temperature=0.8,
                                      top_k=4, seed=300 + i),
    "top_p": lambda i: SamplingParams(max_new_tokens=8, temperature=0.8,
                                      top_p=0.9, seed=300 + i),
}


def _drive(server, sampler):
    ids = [server.submit(p, params=SAMPLERS[sampler](i))
           for i, p in enumerate(PROMPTS)]
    server.run_until_idle()
    return [list(server.result(rid).token_ids) for rid in ids]


# ---------------------------------------------------------------------------
# paged KV vs dense layout
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("batch", [1, 3, 6])
@pytest.mark.parametrize("sampler", sorted(SAMPLERS))
def test_paged_kv_matches_dense(model, batch, sampler):
    """Same requests, same seeds: the paged block layout may never change a
    single emitted token relative to dense slots.  ``kv_block_tokens=4``
    forces every sequence across multiple block boundaries."""
    dense = _drive(_server(model, max_batch_size=batch), sampler)
    paged = _drive(_server(model, max_batch_size=batch, kv_mode="paged",
                           kv_block_tokens=4), sampler)
    assert paged == dense


@pytest.mark.parametrize("batch", [1, 3, 6])
@pytest.mark.parametrize("sampler", sorted(SAMPLERS))
def test_int8_matches_dequantized_oracle(model, batch, sampler):
    """The fused int8 path serves quantized weights; its oracle is an
    exact-mode engine over the *dequantized* weights — identical information,
    reference kernels."""
    oracle = _drive(_server(dequantized_oracle_model(model),
                            decode_mode="exact", max_batch_size=batch),
                    sampler)
    fused = _drive(_server(model, weight_mode="int8", max_batch_size=batch),
                   sampler)
    assert fused == oracle


def test_paged_pool_drains_after_load(model):
    """After the mixed burst every block returns to the pool: no leaks."""
    server = _server(model, kv_mode="paged", kv_block_tokens=4)
    _drive(server, "top_k")
    pool = server.engine._block_pool
    assert pool is not None
    assert pool.n_allocated == 0
    assert pool.conservation_ok()


# ---------------------------------------------------------------------------
# prefix-cache hits and session resume across cheap paths
# ---------------------------------------------------------------------------


SHARED = [1, 7, 8, 9, 10, 11, 7, 8]  # 8 tokens == default min_match_tokens
PREFIX_PROMPTS = [SHARED + [5], SHARED + [5, 6], SHARED + [9, 10],
                  SHARED + [7, 8, 9]]


def _drive_prefix(server):
    """Sequential submits so later prompts hit the pool entries earlier
    prompts inserted."""
    out = []
    for i, p in enumerate(PREFIX_PROMPTS):
        rid = server.submit(p, params=SamplingParams(
            max_new_tokens=6, temperature=0.8, top_k=4, seed=50 + i))
        server.run_until_idle()
        out.append(list(server.result(rid).token_ids))
    return out


@pytest.mark.parametrize("path", ["paged", "int8"])
def test_prefix_cache_hits_preserve_parity(model, path):
    """Reused-prefix prefill must not perturb the cheap paths: with the
    prefix pool on (and hitting), paged and int8 runs still match their
    oracles token-for-token."""
    if path == "paged":
        cheap = _server(model, kv_mode="paged", kv_block_tokens=4,
                        prefix_cache=True)
        oracle = _server(model, prefix_cache=True)
    else:
        cheap = _server(model, weight_mode="int8", prefix_cache=True)
        oracle = _server(dequantized_oracle_model(model),
                         decode_mode="exact", prefix_cache=True)
    got, want = _drive_prefix(cheap), _drive_prefix(oracle)
    assert cheap.scheduler.prefix_pool.hits > 0
    assert oracle.scheduler.prefix_pool.hits > 0
    assert got == want


@pytest.mark.parametrize("path", ["paged", "int8"])
def test_session_resume_parity(model, path):
    """Two chat turns on one session: turn 2 resumes the stored KV state.
    The resumed decode must agree with the oracle layout's resumed decode."""
    def turns(server):
        t1 = server.chat("s", [1, 7, 8], params=SamplingParams(
            max_new_tokens=5, temperature=0.8, top_k=4, seed=9))
        prompt2 = [1, 7, 8] + list(t1.token_ids) + [5, 6]
        t2 = server.chat("s", prompt2, params=SamplingParams(
            max_new_tokens=5, temperature=0.8, top_k=4, seed=10))
        return [list(t1.token_ids), list(t2.token_ids)]

    if path == "paged":
        cheap = _server(model, kv_mode="paged", kv_block_tokens=4,
                        max_batch_size=2)
        oracle = _server(model, max_batch_size=2)
    else:
        cheap = _server(model, weight_mode="int8", max_batch_size=2)
        oracle = _server(dequantized_oracle_model(model),
                         decode_mode="exact", max_batch_size=2)
    assert turns(cheap) == turns(oracle)


# ---------------------------------------------------------------------------
# speculative decoding vs target-only oracle
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("gamma", [1, 3])
def test_speculative_matches_target_only(model, draft, gamma):
    """γ-token speculative chains across every sampling regime: the emitted
    streams equal target-only decoding exactly, because every token is
    sampled from target logits with the request's own rng."""
    spec_server = _server(model, max_batch_size=3, speculative_tokens=gamma,
                          draft_model=draft)
    for sampler in sorted(SAMPLERS):
        base = _drive(_server(model, max_batch_size=3), sampler)
        assert _drive(spec_server, sampler) == base, (gamma, sampler)
    stats = spec_server.scheduler.spec_stats()
    assert stats["rounds"] > 0
    assert 0 <= stats["accepted"] <= stats["drafted"]
    assert 0.0 <= stats["acceptance_rate"] <= 1.0


def test_all_cheap_paths_stack(model, draft):
    """int8 + paged + speculative composed in one server still reproduce the
    exact dequantized oracle byte-for-byte."""
    oracle = _drive(_server(dequantized_oracle_model(model),
                            decode_mode="exact", max_batch_size=3), "top_k")
    combo_server = _server(model, weight_mode="int8", kv_mode="paged",
                           kv_block_tokens=4, speculative_tokens=3,
                           draft_model=draft, max_batch_size=3)
    assert _drive(combo_server, "top_k") == oracle
    pool = combo_server.engine._block_pool
    assert pool is not None and pool.n_allocated == 0


def test_speculative_config_requires_draft(model):
    with pytest.raises(ValueError):
        InProcessServer(model, config=ServeConfig(speculative_tokens=2))


# ---------------------------------------------------------------------------
# BlockPool property tests (Hypothesis)
# ---------------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(ops=st.lists(st.tuples(st.integers(0, 2), st.integers(0, 4)),
                    max_size=80),
       n_blocks=st.integers(1, 6))
def test_block_pool_random_schedules(ops, n_blocks):
    """Arbitrary alloc/free/free_owner/grow interleavings: no block is ever
    owned twice, ``allocated + free == n_blocks`` after every operation, and
    a full drain returns every block exactly once."""
    pool = BlockPool(n_blocks, block_tokens=4)
    mirror = {}  # block id -> owner, maintained independently of the pool
    for op, owner in ops:
        if op == 0:
            if pool.n_free == 0:
                pool.grow(2)
            block = pool.alloc(owner)
            assert block not in mirror, "pool handed out an owned block"
            mirror[block] = owner
        elif op == 1:
            owned = pool.owner_blocks(owner)
            if owned:
                pool.free(owned[0])
                assert mirror.pop(owned[0]) == owner
        else:
            for block in pool.free_owner(owner):
                assert mirror.pop(block) == owner
        assert pool.conservation_ok()
        assert pool.n_allocated == len(mirror)
        assert pool.n_allocated + pool.n_free == pool.n_blocks
    for owner in set(mirror.values()):
        for block in pool.free_owner(owner):
            assert mirror.pop(block) == owner
    assert not mirror
    assert pool.n_free == pool.n_blocks and pool.conservation_ok()


@settings(max_examples=40, deadline=None)
@given(n_blocks=st.integers(1, 5), extra=st.integers(1, 5))
def test_block_pool_grow_extends_id_space(n_blocks, extra):
    pool = BlockPool(n_blocks)
    first = [pool.alloc("a") for _ in range(n_blocks)]
    assert sorted(first) == list(range(n_blocks))
    pool.grow(extra)
    more = [pool.alloc("b") for _ in range(extra)]
    assert sorted(more) == list(range(n_blocks, n_blocks + extra))
    assert pool.conservation_ok() and pool.n_free == 0


def test_block_pool_double_free_raises():
    pool = BlockPool(2)
    block = pool.alloc("a")
    pool.free(block)
    with pytest.raises(BlockPoolError):
        pool.free(block)
    assert pool.conservation_ok()


def test_block_pool_exhaustion_and_unknown_free():
    pool = BlockPool(1)
    pool.alloc("a")
    with pytest.raises(BlockPoolError):
        pool.alloc("b")
    with pytest.raises(BlockPoolError):
        pool.free(99)
    assert pool.free_owner("ghost") == []  # no-op, not an error
    assert pool.conservation_ok()


def test_block_pool_validation():
    with pytest.raises(ValueError):
        BlockPool(0)
    with pytest.raises(ValueError):
        BlockPool(1, block_tokens=0)
    with pytest.raises(ValueError):
        BlockPool(1).grow(0)


# ---------------------------------------------------------------------------
# scheduler fuzz over paged KV
# ---------------------------------------------------------------------------


def test_paged_scheduler_fuzz_conservation(model):
    """Randomised submit/cancel/step/clock-advance schedules with deadlines:
    whatever the interleaving, the request ledger balances AND the block
    pool drains to empty with its free list intact."""
    rng = np.random.default_rng(4321)
    for trial in range(5):
        clock = ManualClock()
        server = _server(model, max_batch_size=3, kv_mode="paged",
                         kv_block_tokens=4, clock=clock)
        submitted = []
        for _ in range(40):
            action = rng.integers(0, 4)
            if action == 0:
                deadline = None
                if rng.integers(0, 2):
                    deadline = clock.t + float(rng.integers(1, 5))
                rid = server.submit(
                    [1, int(rng.integers(3, 12))],
                    params=SamplingParams(
                        max_new_tokens=int(rng.integers(1, 8))),
                    deadline=deadline)
                submitted.append(rid)
            elif action == 1 and submitted:
                server.cancel(submitted[int(rng.integers(0, len(submitted)))])
            elif action == 2:
                clock.t += float(rng.integers(0, 3))
            else:
                server.step()
        server.run_until_idle()
        acct = server.scheduler.accounting()
        assert acct["conservation_ok"] == 1, (trial, acct)
        assert acct["queued"] == 0 and acct["running"] == 0
        pool = server.engine._block_pool
        if pool is not None:  # stays None if every request expired unstarted
            assert pool.conservation_ok(), (trial, pool.stats())
            assert pool.n_allocated == 0, (trial, pool.stats())
        assert len(server.engine._free_slots) == 3
        for rid in submitted:
            assert server.result(rid) is not None, rid


def test_speculative_fuzz_no_divergence(model, draft):
    """Randomised mixed-sampling workloads through a speculative paged
    server always equal the target-only dense oracle, and the speculation
    ledger stays sane."""
    rng = np.random.default_rng(99)
    for trial in range(4):
        jobs = []
        for i in range(8):
            prompt = [1] + [int(t) for t in rng.integers(3, 12, size=int(
                rng.integers(1, 6)))]
            mode = int(rng.integers(0, 3))
            budget = int(rng.integers(1, 10))
            seed = trial * 100 + i
            if mode == 0:
                params = SamplingParams(max_new_tokens=budget)
            elif mode == 1:
                params = SamplingParams(max_new_tokens=budget,
                                        temperature=0.8, top_k=4, seed=seed)
            else:
                params = SamplingParams(max_new_tokens=budget,
                                        temperature=0.8, top_p=0.9, seed=seed)
            jobs.append((prompt, params))

        def run(server):
            ids = [server.submit(p, params=pp) for p, pp in jobs]
            server.run_until_idle()
            return [list(server.result(r).token_ids) for r in ids]

        gamma = int(rng.integers(1, 4))
        spec = _server(model, max_batch_size=3, speculative_tokens=gamma,
                       kv_mode="paged", kv_block_tokens=4, draft_model=draft)
        base = _server(model, max_batch_size=3)
        assert run(spec) == run(base), (trial, gamma)
        stats = spec.scheduler.spec_stats()
        assert stats["accepted"] <= stats["drafted"]
        pool = spec.engine._block_pool
        assert pool is not None and pool.n_allocated == 0


# ---------------------------------------------------------------------------
# stale-KV regression tests
# ---------------------------------------------------------------------------


def test_layer_cache_truncate_then_regrow():
    """Speculative rollback reuses buffer positions: after truncate, the
    stale tail must never resurface through any reader."""
    rng = np.random.default_rng(3)
    cache = _LayerCache()
    k1 = rng.normal(size=(2, 5, 4)).astype(np.float32)
    v1 = rng.normal(size=(2, 5, 4)).astype(np.float32)
    cache.append(k1, v1)
    cache.truncate(2)
    assert cache.length == 2
    np.testing.assert_array_equal(cache.k, k1[:, :2])
    ks, vs = cache.snapshot()
    assert ks.shape[1] == 2 and vs.shape[1] == 2
    k2 = rng.normal(size=(2, 4, 4)).astype(np.float32)
    v2 = rng.normal(size=(2, 4, 4)).astype(np.float32)
    cache.append(k2, v2)
    np.testing.assert_array_equal(
        cache.k, np.concatenate([k1[:, :2], k2], axis=1))
    np.testing.assert_array_equal(
        cache.v, np.concatenate([v1[:, :2], v2], axis=1))
    with pytest.raises(ValueError):
        cache.truncate(7)
    with pytest.raises(ValueError):
        cache.truncate(-1)


def test_paged_fresh_blocks_are_zeroed(model):
    """A reused block is zeroed at allocation, so a prior session's KV tail
    can never bleed into a new sequence (the hazard the dense path only
    masks — here the storage is physically clean)."""
    eng = BatchedEngine(model, decode_mode="fused", kv_mode="paged",
                        kv_block_tokens=4, max_batch_size=2)
    handle = eng.begin_sequence()  # 9 tokens → 3 blocks
    eng.prefill_into([1, 7, 8, 9, 10, 11, 7, 8, 9], handle)
    blocks_a = list(eng._slot_blocks[handle.slot])
    assert len(blocks_a) == 3
    eng.release(handle)
    # The hazard is real: freed blocks still hold the old sequence's KV
    # (storage layout is (H, blocks, bt, Dh)).
    assert any(np.any(eng._page_k[0][:, b] != 0.0) for b in blocks_a)
    handle2 = eng.begin_sequence()
    eng.prefill_into([1, 5, 6], handle2)  # 3 tokens → 1 reused block
    blocks_b = eng._slot_blocks[handle2.slot]
    assert len(blocks_b) == 1 and blocks_b[0] in blocks_a
    for li in range(len(eng.layers)):
        assert np.all(eng._page_k[li][:, blocks_b[0], 3:] == 0.0)
        assert np.all(eng._page_v[li][:, blocks_b[0], 3:] == 0.0)
    eng.release(handle2)


def test_dense_slot_reuse_masks_stale_tail(model):
    """Dense slots keep stale KV beyond a new sequence's length; attention
    masking must keep it invisible.  A long occupant, then a short one in
    the same slot, must reproduce the single-sequence oracle exactly."""
    oracle = InferenceEngine(model)
    server = _server(model, max_batch_size=1)
    server.submit([1, 7, 8, 9, 10], params=SamplingParams(
        max_new_tokens=10, stop_on_eos=False))
    server.run_until_idle()
    expected = oracle.generate([1, 5], max_new_tokens=6, eos_id=2)
    rid = server.submit([1, 5], params=SamplingParams(max_new_tokens=6))
    server.run_until_idle()
    # The stale tail from the 15-token occupant is still in the buffer…
    assert np.any(server.engine._slot_k[0][0, :, 8:15] != 0.0)
    # …yet the short sequence matched the from-scratch oracle.
    assert list(server.result(rid).token_ids) == expected


def test_truncate_kv_frees_whole_blocks(model):
    eng = BatchedEngine(model, decode_mode="fused", kv_mode="paged",
                        kv_block_tokens=4, max_batch_size=1)
    handle = eng.begin_sequence()
    eng.prefill_into([1, 7, 8, 9, 10, 11, 7, 8, 9], handle)  # 3 blocks
    assert len(eng._slot_blocks[handle.slot]) == 3
    eng.truncate_kv(handle, 4)  # 4 tokens → 1 block retained
    assert handle.length == 4
    assert len(eng._slot_blocks[handle.slot]) == 1
    assert eng._block_pool.n_allocated == 1
    with pytest.raises(ValueError):
        eng.truncate_kv(handle, 5)  # cannot grow back
    eng.release(handle)
    assert eng._block_pool.n_allocated == 0
    assert eng._block_pool.conservation_ok()


# ---------------------------------------------------------------------------
# int8 kernel unit tests
# ---------------------------------------------------------------------------


def test_quantize_int8_round_trip_bounds():
    rng = np.random.default_rng(0)
    w = rng.normal(size=(6, 10)).astype(np.float32)
    w[2] = 0.0  # all-zero row: scale guard
    q, scales = quantize_int8(w)
    assert q.dtype == np.int8 and q.shape == w.shape
    assert scales.shape == (6,)
    assert scales[2] == 1.0
    deq = dequantize_int8(q, scales)
    assert np.all(deq[2] == 0.0)
    # Per-row quantization error is bounded by half a step.
    assert np.all(np.abs(deq - w) <= scales[:, None] / 2 + 1e-7)
    # Every nonzero row uses the full int8 range (its max hits ±127).
    nonzero = [i for i in range(6) if i != 2]
    assert np.all(np.abs(q[nonzero]).max(axis=1) == 127)


def test_matmul_int8_matches_explicit_dequant():
    rng = np.random.default_rng(1)
    w = rng.normal(size=(5, 8)).astype(np.float32)
    q, scales = quantize_int8(w)
    for batch in (1, 3, 7):
        x = rng.normal(size=(batch, 8)).astype(np.float32)
        got = matmul_int8_nograd(x, q, scales)
        ref = x @ dequantize_int8(q, scales).T
        np.testing.assert_allclose(got, ref, rtol=1e-5, atol=1e-6)


def test_quantize_state_dict_form_and_idempotence(model):
    state = model.state_dict()
    qsd = quantize_state_dict(state)
    assert is_quantized_state(qsd) and not is_quantized_state(state)
    # The embedding gather table stays fp32, norms (1-D) pass through.
    assert qsd["tok_emb.weight"].dtype == state["tok_emb.weight"].dtype
    assert "tok_emb.weight" + INT8_SCALE_SUFFIX not in qsd
    for name, tensor in qsd.items():
        if tensor.dtype == np.int8:
            assert name + INT8_SCALE_SUFFIX in qsd
    # Quantizing an already-quantized dict is an exact no-op — what lets
    # int8 fleet replicas consume the inherited quantized state verbatim.
    again = quantize_state_dict(qsd)
    assert set(again) == set(qsd)
    for name in qsd:
        np.testing.assert_array_equal(again[name], qsd[name])
    # Dequantization restores the original key set and stays within the
    # per-channel error bound.
    deq = dequantize_state_dict(qsd)
    assert set(deq) == set(state)
    for name, tensor in state.items():
        if qsd[name].dtype == np.int8:
            step = qsd[name + INT8_SCALE_SUFFIX][:, None]
            assert np.all(np.abs(deq[name] - tensor) <= step / 2 + 1e-7)
        else:
            np.testing.assert_array_equal(deq[name], tensor)
