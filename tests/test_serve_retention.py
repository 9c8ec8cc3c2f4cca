"""Serving state bounded by in-flight work: the completion store, the
servers' handover rule, and memory that does not grow with requests served."""

import gc
import tracemalloc

import pytest

from repro.obs import MetricRegistry
from repro.serve import (Completion, CompletionStore, InProcessServer,
                         RequestStatus, SamplingParams)
from repro.serve.server import RETAINED_COMPLETIONS
from tests.conftest import ManualClock, make_server, within


def _done(request_id, tokens=(3, 4)):
    return Completion(request_id=request_id, status=RequestStatus.FINISHED,
                      token_ids=tuple(tokens))


class _Tokenizer:
    def decode(self, ids):
        return " ".join(map(str, ids))


# ---------------------------------------------------------------------------
# the store
# ---------------------------------------------------------------------------


def test_store_hands_each_completion_over_once():
    store = CompletionStore(_Tokenizer(), MetricRegistry())
    [held] = store.collect([_done("a")])
    assert held.text == "3 4"  # decoded on collection
    assert store.take("a") is held
    assert store.take("a") is None and len(store) == 0
    assert store.take("never") is None


def test_store_drops_oldest_untaken_past_the_cap_and_counts_drops():
    registry = MetricRegistry()
    store = CompletionStore(None, registry)
    extra = 5
    store.collect([_done(f"r{i}") for i in range(RETAINED_COMPLETIONS + extra)])
    assert len(store) == RETAINED_COMPLETIONS
    assert registry.counter("serve.completions_dropped").value == extra
    assert all(store.take(f"r{i}") is None for i in range(extra))
    assert store.take(f"r{extra}").request_id == f"r{extra}"


def test_take_from_finds_a_completion_the_fifo_already_dropped():
    store = CompletionStore(None, MetricRegistry())
    burst = store.collect([_done(f"r{i}")
                           for i in range(RETAINED_COMPLETIONS + 1)])
    assert store.take_from(burst, "r0").request_id == "r0"
    assert store.take_from(burst, "r1").request_id == "r1"
    assert store.take("r1") is None  # handed over, not retained


# ---------------------------------------------------------------------------
# the servers' handover rule
# ---------------------------------------------------------------------------


def test_result_hands_over_once_and_complete_keeps_nothing(serve_model):
    server = make_server(serve_model)
    params = SamplingParams(max_new_tokens=3)
    rid = server.submit([1, 7, 8], params=params)
    [returned] = server.run_until_idle()
    assert server.result(rid) is returned
    assert server.result(rid) is None
    completion = server.complete([1, 5, 6], params=params)
    assert completion.ok
    assert server.result(completion.request_id) is None
    assert len(server._results) == 0


def test_complete_survives_a_burst_larger_than_the_cap(serve_model):
    """``complete`` finds its own completion in the burst it ran, even when
    other callers' untaken completions pushed it out of the FIFO."""
    others = RETAINED_COMPLETIONS + 8
    server = make_server(serve_model, max_batch_size=others + 1)
    for _ in range(others):
        server.submit([1, 7, 8, 9], params=SamplingParams(max_new_tokens=3,
                                                          stop_on_eos=False))
    # One token: finishes at prefill, first in the burst, so the FIFO has
    # dropped it by the time the others are collected.
    completion = server.complete([1, 5], params=SamplingParams(
        max_new_tokens=1, stop_on_eos=False))
    assert completion.ok and len(completion.token_ids) == 1
    assert len(server._results) == RETAINED_COMPLETIONS
    dropped = server.obs.registry.counter("serve.completions_dropped")
    assert dropped.value == others + 1 - RETAINED_COMPLETIONS


def test_snapshot_means_match_the_deleted_lists():
    """Queue-wait and admission means come from the registry histograms;
    on a ticking manual clock they equal what the per-request lists gave
    (values pinned from the list-based implementation)."""
    from repro.nn.transformer import TransformerConfig, TransformerLM

    class TickingClock(ManualClock):
        def __call__(self):
            self.t += 0.125
            return self.t

    model = TransformerLM(TransformerConfig(
        vocab_size=24, n_heads=2, max_seq_len=48, dim=16, n_layers=2, seed=0))
    server = make_server(model, clock=TickingClock(), max_batch_size=2,
                         prefix_cache=True, prefix_min_tokens=2)
    for i in range(5):
        server.submit([1, 7, 8, 9, 3 + i], params=SamplingParams(
            max_new_tokens=3 + i, stop_on_eos=False))
    server.run_until_idle()
    assert server.metrics_snapshot() == {
        "requests_submitted": 5, "requests_finished": 5,
        "requests_expired": 0, "requests_cancelled": 0,
        "tokens_generated": 25, "prefill_tokens": 9,
        "cached_prefix_tokens": 16, "decode_steps": 12,
        "tokens_per_second": 6.25, "mean_ttft_s": 1.775,
        "mean_queue_wait_s": 1.525, "mean_admission_s": 0.125,
        "mean_queue_depth": 0.9166666666666666,
        "mean_batch_occupancy": 1.6666666666666667, "max_batch_size": 2,
        "busy_seconds": 4.0, "prefix_entries": 1, "prefix_hits": 4,
        "prefix_misses": 1, "prefix_hit_rate": 0.8,
        "prefix_tokens_reused": 16}


# ---------------------------------------------------------------------------
# bounded growth
# ---------------------------------------------------------------------------

#: Heap growth allowed while a server answers thousands more requests that
#: nobody collects.  Fixed, whatever the request count: what may still grow
#: per request is ``ServerMetrics.ttfts`` (one float, ~36 B) and allocator
#: slack; keeping every completion cost ~450 B per request in process and
#: ~730 B on the fleet router.
GROWTH_BOUND = 256 * 1024


def _serve(server, start, stop, burst=40):
    """Answer short requests ``start..stop`` and never call ``result()``."""
    params = SamplingParams(max_new_tokens=1, stop_on_eos=False)
    for first in range(start, stop, burst):
        for k in range(first, first + burst):
            server.submit((1, 2 + k % 50, 3 + (k // 50) % 50, 4), params)
        server.run_until_idle()


def _growth(server, warm, total):
    """Traced heap growth between ``warm`` and ``total`` requests served."""
    _serve(server, 0, warm)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        _serve(server, warm, total)
        gc.collect()
        return tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def nano():
    from repro.nn.transformer import TransformerLM, preset_config

    model = TransformerLM(preset_config("nano", vocab_size=64, seed=0))
    model.eval()
    return model


def test_in_process_server_memory_does_not_grow_with_requests_served(nano):
    server = InProcessServer(nano)
    growth = _growth(server, 1000, 3000)
    assert growth < GROWTH_BOUND, growth
    assert len(server._results) == RETAINED_COMPLETIONS
    assert server.scheduler.accounting()["finished"] == 3000


def test_fleet_router_memory_does_not_grow_with_requests_served(nano):
    from repro.serve.fleet import FleetServer

    with FleetServer(nano, n_replicas=1) as fleet:
        growth = within(120, lambda: _growth(fleet, 1000, 3000))
        assert growth < GROWTH_BOUND, growth
        assert len(fleet._results) == RETAINED_COMPLETIONS
        assert fleet.accounting()["finished"] == 3000


def test_fleet_frees_a_request_id_once_its_request_finished(nano):
    """Duplicate ids are refused while in flight, as on a single server,
    and not remembered afterwards."""
    from repro.serve.fleet import FleetServer

    params = SamplingParams(max_new_tokens=1)
    with FleetServer(nano, n_replicas=1) as fleet:
        fleet.submit((1, 2, 3), params=params, request_id="dup")
        with pytest.raises(ValueError, match="duplicate"):
            fleet.submit((1, 2, 3), params=params, request_id="dup")
        within(60, fleet.run_until_idle)
        fleet.submit((1, 2, 3), params=params, request_id="dup")
        [again] = within(60, fleet.run_until_idle)
        assert again.request_id == "dup" and again.ok
