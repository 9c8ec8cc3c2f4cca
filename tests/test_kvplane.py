"""Zero-copy KV plane differential suite (DESIGN.md §13).

The block-sharing prefix cache must be *free* where it claims to be free and
*exact* everywhere:

* ref-counted :class:`BlockPool` invariants under random share/release/
  truncate schedules (Hypothesis): no block freed while referenced,
  ``allocated + free == n_blocks`` after every operation;
* shared-block adoption vs the copy path, byte-for-byte, over batch ×
  sampling × prefix-hit × session-resume × paged/dense — including
  speculative ``truncate_kv`` over shared blocks;
* a full prefix hit admits with **zero** KV bytes copied (counter-asserted)
  and skips the redundant pool re-insert;
* the vectorized session scan and ``common_prefix_length_np`` are
  bit-identical to the scalar oracles.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.parallel import parallel_available
from repro.serve import (ArrayEntry, BatchedEngine, BlockEntry, BlockPool,
                         BlockPoolError, PrefixCachePool, SamplingParams,
                         ServeConfig, SessionStore, common_prefix_length,
                         common_prefix_length_np)
from repro.serve.fleet import FleetServer
from tests.conftest import make_server as _server

needs_fork = pytest.mark.skipif(not parallel_available(),
                                reason="requires os.fork")


@pytest.fixture
def model(serve_model):
    return serve_model


@pytest.fixture
def draft(serve_draft):
    return serve_draft


SHARED = [1, 7, 8, 9, 10, 11, 7, 8]  # 8 tokens == default min_match_tokens
PREFIX_PROMPTS = [SHARED + [5], SHARED + [5, 6], SHARED + [9, 10],
                  SHARED + [7, 8, 9]]

SAMPLERS = {
    "greedy": lambda i: SamplingParams(max_new_tokens=6),
    "top_k": lambda i: SamplingParams(max_new_tokens=6, temperature=0.8,
                                      top_k=4, seed=700 + i),
    "top_p": lambda i: SamplingParams(max_new_tokens=6, temperature=0.8,
                                      top_p=0.9, seed=700 + i),
}


def _drive_prefix(server, sampler="top_k", prompts=PREFIX_PROMPTS,
                  session_id=None):
    """Sequential submits so later prompts hit the pool entries earlier
    prompts inserted."""
    out = []
    for i, p in enumerate(prompts):
        rid = server.submit(p, params=SAMPLERS[sampler](i),
                            session_id=session_id)
        server.run_until_idle()
        out.append(list(server.result(rid).token_ids))
    return out


# ---------------------------------------------------------------------------
# vectorized prefix scans vs scalar oracles
# ---------------------------------------------------------------------------


@settings(max_examples=120, deadline=None)
@given(a=st.lists(st.integers(0, 5), max_size=24),
       b=st.lists(st.integers(0, 5), max_size=24))
def test_common_prefix_length_np_matches_scalar(a, b):
    """The accumulate-and-sum scan is bit-identical to the Python walk on
    arbitrary pairs, including empty and fully-equal sequences."""
    assert common_prefix_length_np(a, b) == common_prefix_length(a, b)
    assert common_prefix_length_np(a, a) == len(a)
    assert common_prefix_length_np(a, []) == 0


@settings(max_examples=60, deadline=None)
@given(stored=st.lists(st.integers(0, 4), min_size=1, max_size=16),
       prompt=st.lists(st.integers(0, 4), min_size=2, max_size=16))
def test_session_lookup_matches_scalar_oracle(stored, prompt):
    """``SessionStore.lookup_prefix`` equals the scalar-oracle computation:
    common prefix capped one short of the prompt and at the entry length."""
    store = SessionStore(capacity=2)
    kv = [(np.zeros((2, len(stored), 4)), np.zeros((2, len(stored), 4)))]
    store.update("s", stored, kv)
    match, entry = store.lookup_prefix("s", prompt)
    expect = min(common_prefix_length(stored, prompt), len(prompt) - 1,
                 len(stored))
    if expect <= 0:
        assert match == 0 and entry is None
    else:
        assert match == expect and entry is not None


# ---------------------------------------------------------------------------
# ref-counted BlockPool: unit + Hypothesis property tests
# ---------------------------------------------------------------------------


def test_share_release_lifecycle():
    pool = BlockPool(4, block_tokens=4)
    block = pool.alloc("slot0")
    assert pool.refcount(block) == 1
    assert pool.share(block) == 2
    assert pool.n_shared_refs == 1
    # Owner drops its stake; the shared reference keeps the block allocated.
    pool.free(block)
    assert pool.n_allocated == 1 and pool.refcount(block) == 1
    assert pool.conservation_ok()
    # Last reference frees it.
    pool.release(block)
    assert pool.n_allocated == 0 and pool.n_free == 4
    assert pool.conservation_ok()


def test_share_release_error_cases():
    pool = BlockPool(2)
    with pytest.raises(BlockPoolError):
        pool.share(0)  # never allocated
    block = pool.alloc("a")
    with pytest.raises(BlockPoolError):
        pool.release(block)  # owner stake is not an anonymous reference
    pool.share(block)
    pool.release(block)
    with pytest.raises(BlockPoolError):
        pool.release(block)  # no anonymous reference left
    pool.free(block)
    with pytest.raises(BlockPoolError):
        pool.release(block)  # fully freed
    assert pool.conservation_ok()


def test_free_owner_preserves_shared_blocks():
    pool = BlockPool(3)
    blocks = [pool.alloc("seq") for _ in range(3)]
    pool.share(blocks[0])
    pool.share(blocks[2])
    freed = pool.free_owner("seq")
    assert freed == blocks
    # Blocks 0 and 2 survive their owner; block 1 went straight back.
    assert pool.n_allocated == 2 and pool.n_free == 1
    assert pool.refcount(blocks[1]) == 0
    pool.release(blocks[0])
    pool.release(blocks[2])
    assert pool.n_free == 3 and pool.conservation_ok()


@settings(max_examples=80, deadline=None)
@given(ops=st.lists(st.tuples(st.integers(0, 4), st.integers(0, 6)),
                    max_size=100),
       n_blocks=st.integers(1, 6))
def test_block_pool_refcount_random_schedules(ops, n_blocks):
    """Arbitrary alloc/free/free_owner/share/release interleavings against
    an independent mirror: refcounts always agree, no block is freed while
    referenced, and ``allocated + free == n_blocks`` after every step."""
    pool = BlockPool(n_blocks, block_tokens=4)
    owner_of = {}   # block -> owner (mirror of the owner stake)
    refs = {}       # block -> total refcount (mirror)
    for op, arg in ops:
        if op == 0:  # alloc
            if pool.n_free == 0:
                pool.grow(2)
            block = pool.alloc(arg % 3)
            assert block not in refs, "pool handed out a live block"
            owner_of[block] = arg % 3
            refs[block] = 1
        elif op == 1:  # free one owned block
            owned = pool.owner_blocks(arg % 3)
            if owned:
                block = owned[arg % len(owned)]
                pool.free(block)
                del owner_of[block]
                refs[block] -= 1
                if refs[block] == 0:
                    del refs[block]
        elif op == 2:  # free_owner
            for block in pool.free_owner(arg % 3):
                del owner_of[block]
                refs[block] -= 1
                if refs[block] == 0:
                    del refs[block]
        elif op == 3:  # share a live block
            live = sorted(refs)
            if live:
                block = live[arg % len(live)]
                assert pool.share(block) == refs[block] + 1
                refs[block] += 1
        else:  # release an anonymously-referenced block
            shared = sorted(b for b in refs
                            if refs[b] - (1 if b in owner_of else 0) > 0)
            if shared:
                block = shared[arg % len(shared)]
                pool.release(block)
                refs[block] -= 1
                if refs[block] == 0:
                    del refs[block]
        # Invariants after *every* operation.
        assert pool.conservation_ok()
        assert pool.n_allocated == len(refs)
        assert pool.n_allocated + pool.n_free == pool.n_blocks
        for block, count in refs.items():
            assert pool.refcount(block) == count, "block freed while referenced"
    # Drain: drop every owner stake, then every anonymous reference.
    for owner in set(owner_of.values()):
        for block in pool.free_owner(owner):
            refs[block] -= 1
            if refs[block] == 0:
                del refs[block]
    for block, count in list(refs.items()):
        for _ in range(count):
            pool.release(block)
    assert pool.n_allocated == 0 and pool.n_free == pool.n_blocks
    assert pool.n_shared_refs == 0 and pool.conservation_ok()


# ---------------------------------------------------------------------------
# engine-level sharing: prefill_into / make_entry / adoption / truncate
# ---------------------------------------------------------------------------


def _exact_kv(model, prompt, upto=None, reuse=0):
    """Exact-mode prefill of ``prompt`` on top of an adopted ``reuse``-token
    prefix of it: the oracle logits and stored KV."""
    oracle = BatchedEngine(model, decode_mode="exact")
    entry = None
    if reuse:
        src = oracle.begin_sequence()
        oracle.prefill_into(prompt, src)
        entry = oracle.make_entry(src, reuse)
    handle = oracle.begin_sequence(entry, reuse)
    logits = oracle.prefill_into(prompt, handle)
    return logits, oracle.make_entry(handle, upto).materialize()


@pytest.mark.parametrize("kv_mode", ["dense", "paged"])
def test_prefill_into_matches_exact_mode(model, kv_mode):
    """Fused ``prefill_into`` writes K/V straight into slot storage yet is
    bitwise equal to exact mode: identical logits and identical stored KV,
    for a fresh prompt and for the suffix after an adopted prefix."""
    prompt = [1, 7, 8, 9, 10, 11, 7, 8, 9]
    eng = BatchedEngine(model, decode_mode="fused", kv_mode=kv_mode,
                        kv_block_tokens=4, max_batch_size=2)
    handle = eng.begin_sequence()
    logits = eng.prefill_into(prompt, handle)
    entry = eng.make_entry(handle, 6)
    adopted = eng.begin_sequence(entry, 6)
    for reuse, h, got in ((0, handle, logits),
                          (6, adopted, eng.prefill_into(prompt, adopted))):
        logits_x, kv_x = _exact_kv(model, prompt, reuse=reuse)
        assert np.array_equal(got, logits_x)
        snapshot = eng.make_entry(h)
        for (ka, va), (kb, vb) in zip(kv_x, snapshot.materialize()):
            assert np.array_equal(ka, kb) and np.array_equal(va, vb)
        snapshot.release()
        eng.release(h)
    entry.release()
    if eng._block_pool is not None:
        assert eng._block_pool.n_allocated == 0


def test_make_entry_materialize_matches_export(model):
    """A block entry's materialized arrays equal the KV exact mode exports
    for the same prompt, at every cut point (block-aligned and mid-block)."""
    prompt = [1, 7, 8, 9, 10, 11, 7, 8, 9, 10]
    eng = BatchedEngine(model, decode_mode="fused", kv_mode="paged",
                        kv_block_tokens=4, max_batch_size=2)
    handle = eng.begin_sequence()
    eng.prefill_into(prompt, handle)
    for upto in (4, 7, 10):
        entry = eng.make_entry(handle, upto)
        assert isinstance(entry, BlockEntry) and entry.length == upto
        for (ke, ve), (kx, vx) in zip(entry.materialize(),
                                      _exact_kv(model, prompt, upto)[1]):
            assert np.array_equal(ke, kx) and np.array_equal(ve, vx)
        entry.release()
    eng.release(handle)
    assert eng._block_pool.n_allocated == 0


def test_block_aligned_adoption_copies_zero_bytes(model):
    """Full-block prefix adoption is refcount bumps only: the byte counter
    does not move, and the adopted slot decodes from the same storage."""
    prompt = [1, 7, 8, 9, 10, 11, 7, 8]  # 8 tokens == 2 full 4-token blocks
    eng = BatchedEngine(model, decode_mode="fused", kv_mode="paged",
                        kv_block_tokens=4, max_batch_size=2)
    src = eng.begin_sequence()
    eng.prefill_into(prompt, src)
    entry = eng.make_entry(src, len(prompt))
    assert entry.frag is None and len(entry.blocks) == 2
    eng.release(src)
    before = eng.kv_bytes_copied
    shared_before = eng.blocks_shared
    adopted = eng.begin_sequence(entry, len(prompt))
    assert eng.kv_bytes_copied == before, "full-block adoption copied bytes"
    assert eng.blocks_shared == shared_before + 2
    for block in entry.blocks:
        assert eng._block_pool.refcount(block) == 2  # entry + adopting slot
    eng.release(adopted)
    entry.release()
    assert eng._block_pool.n_allocated == 0


def test_partial_tail_adoption_copies_one_fragment(model):
    """A mid-block prefix copies exactly the sub-block tail (copy-on-write at
    block granularity), never the whole prefix."""
    prompt = [1, 7, 8, 9, 10, 11, 7, 8, 9, 10]  # 10 = 2 blocks + 2-token tail
    eng = BatchedEngine(model, decode_mode="fused", kv_mode="paged",
                        kv_block_tokens=4, max_batch_size=2)
    src = eng.begin_sequence()
    eng.prefill_into(prompt, src)
    entry = eng.make_entry(src, len(prompt))
    assert len(entry.blocks) == 2 and entry.frag is not None
    before = eng.kv_bytes_copied
    adopted = eng.begin_sequence(entry, len(prompt))
    assert eng.kv_bytes_copied - before == 2 * eng._token_bytes
    snapshot = eng.make_entry(adopted, len(prompt))
    for (ke, ve), (kx, vx) in zip(entry.materialize(),
                                  snapshot.materialize()):
        assert np.array_equal(ke, kx) and np.array_equal(ve, vx)
    snapshot.release()
    eng.release(src)
    eng.release(adopted)
    entry.release()
    assert eng._block_pool.n_allocated == 0


def test_truncate_kv_over_shared_blocks(model):
    """Speculative rollback over adopted blocks drops the slot's *shared*
    reference — the entry keeps its block alive and intact."""
    prompt = [1, 7, 8, 9, 10, 11, 7, 8]
    eng = BatchedEngine(model, decode_mode="fused", kv_mode="paged",
                        kv_block_tokens=4, max_batch_size=2)
    src = eng.begin_sequence()
    eng.prefill_into(prompt, src)
    entry = eng.make_entry(src, 8)
    eng.release(src)
    snapshot = [(k.copy(), v.copy()) for k, v in entry.materialize()]
    handle = eng.begin_sequence(entry, 8)
    b0, b1 = entry.blocks
    assert eng._block_pool.refcount(b1) == 2
    eng.truncate_kv(handle, 4)  # roll back past the second shared block
    assert eng._block_pool.refcount(b1) == 1, "entry lost its block"
    assert eng._slot_shared_n[handle.slot] == 1
    # The surviving sequence re-extends into a *fresh* block, never back
    # into the entry's storage.
    eng.prefill_into(prompt[:4] + [5, 6], handle)
    for (ks, vs), (ke, ve) in zip(snapshot, entry.materialize()):
        assert np.array_equal(ks, ke) and np.array_equal(vs, ve)
    eng.release(handle)
    entry.release()
    assert eng._block_pool.n_allocated == 0


def test_block_storage_grows_geometrically_past_batch_capacity(model):
    """Entries that pin blocks beyond what the batch can use at once
    (``max_batch_size`` full contexts) still grow the storage by doubling:
    the number of rebuilds is logarithmic in the blocks held, not one per
    block."""
    eng = BatchedEngine(model, decode_mode="fused", kv_mode="paged",
                        kv_block_tokens=4, max_batch_size=2)
    rebuilds = [0]
    rebuild = eng._rebuild_flat_views

    def counted_rebuild():
        rebuilds[0] += 1
        rebuild()

    eng._rebuild_flat_views = counted_rebuild
    rng = np.random.default_rng(0)
    entries = []
    for _ in range(40):
        handle = eng.begin_sequence()
        eng.prefill_into([int(t) for t in rng.integers(1, 24, 40)], handle)
        entries.append(eng.make_entry(handle))
        eng.release(handle)
    pinned = sum(len(entry.blocks) for entry in entries)
    batch_blocks = 2 * (-(-model.config.max_seq_len // 4))
    assert pinned == 40 * 10 and pinned > 10 * batch_blocks
    assert eng._block_pool.n_blocks >= pinned
    assert rebuilds[0] <= np.ceil(np.log2(eng._block_pool.n_blocks)) + 1
    for entry in entries:
        entry.release()
    assert eng._block_pool.n_allocated == 0


def test_paged_arena_is_reserved_once_and_stats_keep_doubling(model):
    """A burst that grows the logical pool 8 -> 16 -> 24 blocks (24 =
    ``max_batch`` full contexts) writes into one arena per layer: the
    ``_page_k`` / ``_page_v`` arrays stay the same objects and the flat
    views are built once.  ``kv_stats`` still reports the doubling pool —
    the values below are what the copy-at-each-doubling layout reported."""
    eng = BatchedEngine(model, decode_mode="fused", kv_mode="paged",
                        kv_block_tokens=4, max_batch_size=2)
    rebuilds = [0]
    rebuild = eng._rebuild_flat_views

    def counted_rebuild():
        rebuilds[0] += 1
        rebuild()

    eng._rebuild_flat_views = counted_rebuild
    rng = np.random.default_rng(3)
    handles = [eng.begin_sequence() for _ in range(2)]
    stats = []
    for handle in handles:
        eng.prefill_into([int(t) for t in rng.integers(1, 24, 21)], handle)
        stats.append(eng.kv_stats())
    pages = [list(eng._page_k), list(eng._page_v)]
    tokens = [1, 1]
    while handles[0].length < model.config.max_seq_len:
        logits = eng.decode(tokens, handles)
        tokens = [int(t) for t in logits.argmax(axis=1)]
        if handles[0].length in (32, 40, 48):
            stats.append(eng.kv_stats())
    assert eng._block_pool.n_blocks == 2 * (-(-model.config.max_seq_len // 4))
    assert rebuilds[0] == 1
    for kept, now in zip(pages, (eng._page_k, eng._page_v)):
        assert all(a is b for a, b in zip(kept, now))
    keys = ("blocks_total", "blocks_in_use", "bytes_reserved",
            "bytes_in_use", "token_bytes")
    assert [tuple(s[k] for k in keys) for s in stats] == [
        (8, 6, 8192, 6144, 256),
        (16, 12, 16384, 12288, 256),
        (16, 16, 16384, 16384, 256),
        (24, 20, 24576, 20480, 256),
        (24, 24, 24576, 24576, 256),
    ]
    for handle in handles:
        eng.release(handle)
    assert eng._block_pool.n_allocated == 0


# ---------------------------------------------------------------------------
# scheduler-level zero-copy admission + skip-insert regression
# ---------------------------------------------------------------------------


def test_full_prefix_hit_copies_zero_bytes(model):
    """The headline gate, as a deterministic test: a block-aligned prompt is
    stored once, and every subsequent full hit admits with **zero** KV bytes
    copied (adoption shares blocks, the covered re-insert is skipped)."""
    grounding = SHARED + [9, 10, 11, 5]  # 12 tokens == 3 full 4-token blocks
    server = _server(model, kv_mode="paged", kv_block_tokens=4,
                     prefix_cache=True)
    eng = server.engine
    rid = server.submit(grounding, params=SamplingParams(max_new_tokens=4))
    server.run_until_idle()
    assert server.result(rid) is not None
    # Cold pass: the insert shared 3 full blocks and copied nothing (the
    # prompt is block-aligned, so the entry has no tail fragment).
    assert eng.kv_bytes_copied == 0
    assert eng.blocks_shared == 3
    pool = server.scheduler.prefix_pool
    assert len(pool) == 1
    # Hot pass: full hit — adoption is 3 refcount bumps, zero bytes.
    rid = server.submit(grounding + [7], params=SamplingParams(max_new_tokens=4))
    server.run_until_idle()
    assert server.result(rid) is not None
    assert eng.kv_bytes_copied == 0, "full prefix hit copied KV bytes"
    assert eng.blocks_shared == 6
    # And the registry counters saw the same numbers.
    snap = server.scheduler.obs.registry.snapshot()
    assert snap["serve.kv.bytes_copied"] == 0
    assert snap["serve.prefix.blocks_shared"] == 6


def test_admit_skips_insert_when_pool_covers(model):
    """Regression: a prompt fully covered by the stored entry must not
    re-insert (no supplier invocation, no insert-side copies or shares)."""
    grounding = SHARED + [9, 10, 11, 5]
    server = _server(model, kv_mode="paged", kv_block_tokens=4,
                     prefix_cache=True)
    pool = server.scheduler.prefix_pool
    server.submit(grounding, params=SamplingParams(max_new_tokens=2))
    server.run_until_idle()
    keys_before = set(pool.entries())
    shared_before = server.engine.blocks_shared
    server.submit(grounding + [7], params=SamplingParams(max_new_tokens=2))
    server.run_until_idle()
    # Same entry set (covered prompts add no key), and the only new shares
    # are the 3 adoption bumps — an insert would have added 3 more.
    assert set(pool.entries()) == keys_before
    assert server.engine.blocks_shared == shared_before + 3
    # A *longer* prompt (not covered) does insert, pruning the subsumed key.
    server.submit(grounding + [7, 8, 9], params=SamplingParams(max_new_tokens=2))
    server.run_until_idle()
    assert set(pool.entries()) != keys_before
    assert server.scheduler.metrics.admissions  # histogram is being fed
    assert "mean_admission_s" in server.metrics_snapshot()


# ---------------------------------------------------------------------------
# shared-vs-copy byte-parity sweeps
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("batch", [1, 3])
@pytest.mark.parametrize("sampler", sorted(SAMPLERS))
def test_shared_prefix_parity_paged_vs_dense(model, batch, sampler):
    """Prefix-cache traffic through shared blocks emits byte-identical
    streams to the dense copy path, across batch sizes and samplers."""
    dense = _drive_prefix(_server(model, prefix_cache=True,
                                  max_batch_size=batch), sampler)
    paged = _drive_prefix(_server(model, prefix_cache=True, kv_mode="paged",
                                  kv_block_tokens=4, max_batch_size=batch),
                          sampler)
    assert paged == dense


@pytest.mark.parametrize("sampler", sorted(SAMPLERS))
def test_session_resume_parity_paged_vs_dense(model, sampler):
    """Two-turn chat resume over shared session blocks equals the dense copy
    path draw-for-draw, and reuses the same number of cached tokens."""
    def run(server):
        turn1 = SHARED + [5]
        first = server.chat("s1", turn1, params=SAMPLERS[sampler](0))
        turn2 = turn1 + list(first.token_ids) + [9, 10]
        second = server.chat("s1", turn2, params=SAMPLERS[sampler](1))
        return (list(first.token_ids), list(second.token_ids),
                second.cached_prefix_tokens)

    dense = run(_server(model, prefix_cache=True))
    paged = run(_server(model, prefix_cache=True, kv_mode="paged",
                        kv_block_tokens=4))
    assert paged == dense
    assert paged[2] > 0  # the resume actually reused cached KV


@pytest.mark.parametrize("gamma", [1, 3])
def test_speculative_over_shared_blocks_parity(model, draft, gamma):
    """Speculative decoding whose rollbacks truncate over adopted shared
    blocks still equals dense target-only decoding exactly."""
    dense = _drive_prefix(_server(model, prefix_cache=True), "top_k")
    spec = _server(model, prefix_cache=True, kv_mode="paged",
                   kv_block_tokens=4, speculative_tokens=gamma,
                   draft_model=draft)
    assert _drive_prefix(spec, "top_k") == dense
    stats = spec.scheduler.spec_stats()
    assert stats["rounds"] > 0


def test_mixed_batch_prefix_and_session_parity(model):
    """Concurrent prefix-hit + session-resume + cold traffic in one batch:
    paged sharing equals the dense copy path on every stream."""
    def run(server):
        t1 = server.chat("chat", SHARED + [5],
                         params=SamplingParams(max_new_tokens=4))
        prompts = PREFIX_PROMPTS + [SHARED + [5] + list(t1.token_ids) + [9],
                                    [1, 5, 6, 5]]
        ids = []
        for i, p in enumerate(prompts):
            sid = "chat" if i == len(PREFIX_PROMPTS) else None
            ids.append(server.submit(p, params=SamplingParams(
                max_new_tokens=5, temperature=0.8, top_k=4, seed=40 + i),
                session_id=sid))
        server.run_until_idle()
        return [list(t1.token_ids)] + \
            [list(server.result(r).token_ids) for r in ids]

    dense = run(_server(model, prefix_cache=True, max_batch_size=3))
    paged = run(_server(model, prefix_cache=True, kv_mode="paged",
                        kv_block_tokens=4, max_batch_size=3))
    assert paged == dense


# ---------------------------------------------------------------------------
# scheduler fuzz with sharing enabled
# ---------------------------------------------------------------------------


def test_paged_fuzz_with_prefix_and_sessions(model):
    """Randomised traffic with the prefix pool and sessions ON: every
    allocated block is accounted for by a live entry after drain, refcount
    conservation holds, and clearing the pools returns every block."""
    rng = np.random.default_rng(777)
    for trial in range(4):
        server = _server(model, max_batch_size=3, kv_mode="paged",
                         kv_block_tokens=4, prefix_cache=True)
        prompts = [SHARED + [int(t) for t in rng.integers(3, 12, size=3)]
                   for _ in range(4)]
        submitted = []
        for _ in range(30):
            action = rng.integers(0, 4)
            if action == 0:
                prompt = prompts[int(rng.integers(0, len(prompts)))]
                sid = None
                if rng.integers(0, 2):
                    sid = f"s{int(rng.integers(0, 3))}"
                submitted.append(server.submit(
                    list(prompt),
                    params=SamplingParams(max_new_tokens=int(
                        rng.integers(1, 6))),
                    session_id=sid))
            elif action == 1 and submitted:
                server.cancel(submitted[int(rng.integers(0, len(submitted)))])
            else:
                server.step()
        server.run_until_idle()
        acct = server.scheduler.accounting()
        assert acct["conservation_ok"] == 1, (trial, acct)
        pool = server.engine._block_pool
        assert pool is not None and pool.conservation_ok(), trial
        # Every allocated block is referenced by a pool or session entry.
        held = set()
        for entry in server.scheduler.prefix_pool.entries().values():
            held.update(entry.blocks)
        for sid in ("s0", "s1", "s2"):
            state = server.scheduler.sessions._sessions.get(sid)
            if state is not None and isinstance(state.entry, BlockEntry):
                held.update(state.entry.blocks)
        assert held == {b for b in range(pool.n_blocks)
                        if pool.refcount(b) > 0}, trial
        # Dropping the caches drains the plane completely.
        server.scheduler.prefix_pool.clear()
        server.scheduler.sessions.clear()
        assert pool.n_allocated == 0 and pool.n_shared_refs == 0, trial
        assert pool.conservation_ok(), trial


@needs_fork
def test_fleet_surfaces_kv_plane_stats(model):
    """Replica KV planes stay replica-local, but their copy/share counters
    surface in the merged fleet registry and the snapshot's ``kv`` totals."""
    config = ServeConfig(max_batch_size=4, decode_mode="fused",
                         kv_mode="paged", kv_block_tokens=4,
                         prefix_cache=True)
    with FleetServer(model, n_replicas=2, serve_config=config,
                     eos_id=2) as fleet:
        for phase in range(2):  # phase 2 hits the entries phase 1 inserted
            for i, prompt in enumerate(PREFIX_PROMPTS):
                fleet.submit(list(prompt), request_id=f"p{phase}-{i}",
                             params=SamplingParams(max_new_tokens=4,
                                                   temperature=0.8, top_k=4,
                                                   seed=20 + i))
            fleet.run_until_idle()
        snap = fleet.fleet_snapshot()
    assert snap["kv"]["blocks_shared"] > 0
    assert snap["kv"]["bytes_reserved"] > 0
    merged = snap["merged"]["counters"]
    assert merged.get("serve.prefix.blocks_shared", 0) > 0
    assert "serve.kv.bytes_copied" in merged
    replica_kv = [r["kv"] for r in snap["per_replica"].values()
                  if r["kv"] is not None]
    assert replica_kv and all(kv["mode"] == "paged" for kv in replica_kv)


def test_entry_release_on_eviction_returns_blocks(model):
    """LRU eviction of block entries releases their references — a tiny pool
    under rotating prompts cannot leak blocks."""
    server = _server(model, kv_mode="paged", kv_block_tokens=4,
                     prefix_cache=True, prefix_cache_entries=2)
    eng = server.engine
    bases = [SHARED, [1, 5, 6, 5, 6, 9, 10, 11], [1, 9, 10, 11, 7, 8, 9, 10]]
    for rnd in range(3):
        for i, base in enumerate(bases):
            server.submit(base + [3 + rnd, 4 + i],
                          params=SamplingParams(max_new_tokens=3))
            server.run_until_idle()
    pool = eng._block_pool
    assert len(server.scheduler.prefix_pool) <= 2
    assert pool.conservation_ok()
    server.scheduler.prefix_pool.clear()
    server.scheduler.sessions.clear()
    assert pool.n_allocated == 0
