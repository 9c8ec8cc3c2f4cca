"""Replica-fleet serving: routing, byte parity, fault tolerance, metrics.

The fleet's acceptance contract is *routed output == single-engine output,
byte for byte* in exact decode mode — across sampling modes, across prefix
cache hits, and across a replica being SIGKILLed mid-decode.  The router's
conservation ledger (no request lost, none answered twice) is asserted in
every integration test.
"""

import os

import numpy as np
import pytest

from repro.nn.transformer import TransformerConfig, TransformerLM
from repro.obs import Observability
from repro.parallel import parallel_available
from repro.serve import InProcessServer, SamplingParams, ServeConfig
from repro.serve.fleet import FleetError, FleetServer, HashRing, affinity_key
from repro.serve.net import NetClient, NetServerConfig, NetServerThread
from repro.serve.request import Request
from tests.conftest import kill_busiest_replica, within

needs_fork = pytest.mark.skipif(not parallel_available(),
                                reason="requires os.fork")


@pytest.fixture(scope="module")
def model():
    # Untrained random weights: generation is deterministic given seeds,
    # which is all routing/parity care about.
    return TransformerLM(TransformerConfig(vocab_size=64, dim=16, n_layers=1,
                                           n_heads=2, max_seq_len=128,
                                           seed=0))


EXACT_CFG = ServeConfig(max_batch_size=4, decode_mode="exact",
                        prefix_cache=False)


def _mixed_requests(n=10, prompt_len=10, max_new_tokens=8, seed_base=100):
    """Requests cycling through greedy / top-k / top-p sampling."""
    out = []
    for i in range(n):
        rng = np.random.default_rng(seed_base + i)
        prompt = (1,) + tuple(int(t) for t in rng.integers(2, 60,
                                                           size=prompt_len))
        mode = i % 3
        params = SamplingParams(
            max_new_tokens=max_new_tokens,
            temperature=0.0 if mode == 0 else 0.8,
            top_k=8 if mode == 1 else None,
            top_p=0.9 if mode == 2 else None,
            seed=1000 + i)
        out.append(Request(request_id=f"r{i}", prompt_ids=prompt,
                           params=params))
    return out


def _single_server_outputs(model, requests, config=EXACT_CFG):
    server = InProcessServer(model, config=config)
    for request in requests:
        server.submit(request.prompt_ids, params=request.params,
                      request_id=request.request_id,
                      session_id=request.session_id)
    server.run_until_idle()
    return {r.request_id: server.result(r.request_id).token_ids
            for r in requests}


# ---------------------------------------------------------------------------
# router components (no processes)
# ---------------------------------------------------------------------------


class TestHashRing:
    def test_deterministic_across_instances(self):
        a = HashRing(range(4))
        b = HashRing(range(4))
        keys = [f"key-{i}" for i in range(200)]
        assert [a.node_for(k) for k in keys] == [b.node_for(k) for k in keys]

    def test_all_nodes_receive_keys(self):
        ring = HashRing(range(4))
        hit = {ring.node_for(f"key-{i}") for i in range(500)}
        assert hit == set(range(4))

    def test_removal_remaps_only_the_lost_nodes_keys(self):
        full = HashRing(range(4))
        reduced = HashRing([0, 1, 3])  # node 2 removed
        keys = [f"key-{i}" for i in range(500)]
        moved = 0
        for key in keys:
            before, after = full.node_for(key), reduced.node_for(key)
            if before == 2:
                assert after != 2
                moved += 1
            else:
                # Consistent hashing's whole point: survivors keep their keys.
                assert after == before
        assert moved > 0

    def test_rejects_empty_ring(self):
        with pytest.raises(ValueError):
            HashRing([])


class TestAffinityKey:
    def test_session_dominates_prompt(self):
        a = Request(request_id="a", prompt_ids=(1, 2, 3), session_id="s1")
        b = Request(request_id="b", prompt_ids=(9, 8, 7), session_id="s1")
        assert affinity_key(a, 8) == affinity_key(b, 8) == "s:s1"

    def test_prompt_head_groups_shared_prefixes(self):
        head = tuple(range(1, 9))
        a = Request(request_id="a", prompt_ids=head + (20, 21))
        b = Request(request_id="b", prompt_ids=head + (30, 31, 32))
        c = Request(request_id="c", prompt_ids=tuple(range(40, 50)))
        assert affinity_key(a, 8) == affinity_key(b, 8)
        assert affinity_key(a, 8) != affinity_key(c, 8)

    def test_session_turns_route_to_one_replica(self):
        ring = HashRing(range(4))
        for sid in ("alpha", "beta", "gamma"):
            turns = [Request(request_id=f"{sid}-{t}",
                             prompt_ids=tuple(range(1, 6 + t)),
                             session_id=sid) for t in range(4)]
            nodes = {ring.node_for(affinity_key(r, 8)) for r in turns}
            assert len(nodes) == 1


# ---------------------------------------------------------------------------
# fleet integration
# ---------------------------------------------------------------------------


@needs_fork
class TestFleetParity:
    def test_mixed_sampling_byte_parity_with_single_server(self, model):
        requests = _mixed_requests()
        want = _single_server_outputs(model, requests)
        with FleetServer(model, n_replicas=4, serve_config=EXACT_CFG) as fleet:
            for request in requests:
                fleet.submit(request.prompt_ids, params=request.params,
                             request_id=request.request_id)
            fleet.run_until_idle()
            got = {r.request_id: fleet.result(r.request_id).token_ids
                   for r in requests}
            accounting = fleet.accounting()
        assert got == want
        assert accounting["conservation_ok"] == 1
        assert accounting["finished"] == len(requests)

    def test_prefix_cache_hits_stay_byte_identical(self, model):
        # Three prefix groups with disjoint >=12-token heads; phase 1 warms
        # the caches, phase 2 reuses them.  Affinity sends each group to one
        # replica, so the replica's pool holds exactly the group's entries —
        # the same match lengths the single server sees, hence the same
        # suffix prefill and byte-identical outputs *through the reuse path*.
        config = ServeConfig(max_batch_size=4, decode_mode="exact",
                             prefix_cache=True, prefix_min_tokens=8)
        requests = []
        for g in range(3):
            head = tuple(range(10 * g + 2, 10 * g + 14))  # 12 disjoint ids
            for i in range(3):
                tail = tuple(int(t) for t in
                             np.random.default_rng(g * 10 + i).integers(
                                 2, 60, size=4))
                requests.append(Request(
                    request_id=f"g{g}p{i}", prompt_ids=head + tail,
                    params=SamplingParams(max_new_tokens=6)))
        phase1 = [r for r in requests if r.request_id.endswith("p0")]
        phase2 = [r for r in requests if not r.request_id.endswith("p0")]

        server = InProcessServer(model, config=config)
        for r in phase1:
            server.submit(r.prompt_ids, params=r.params,
                          request_id=r.request_id)
        server.run_until_idle()
        for r in phase2:
            server.submit(r.prompt_ids, params=r.params,
                          request_id=r.request_id)
        server.run_until_idle()
        want = {r.request_id: server.result(r.request_id).token_ids
                for r in requests}
        assert server.scheduler.prefix_pool.hits > 0

        with FleetServer(model, n_replicas=2, serve_config=config) as fleet:
            for r in phase1:
                fleet.submit(r.prompt_ids, params=r.params,
                             request_id=r.request_id)
            fleet.run_until_idle()
            for r in phase2:
                fleet.submit(r.prompt_ids, params=r.params,
                             request_id=r.request_id)
            fleet.run_until_idle()
            got = {r.request_id: fleet.result(r.request_id).token_ids
                   for r in requests}
            merged = fleet.fleet_snapshot()["merged"]
        assert got == want
        # The replicas really did serve phase 2 from their caches.
        assert merged["counters"].get("serve.cached_prefix_tokens", 0) > 0

    def test_session_turns_reuse_kv_on_one_replica(self, model):
        config = ServeConfig(max_batch_size=4, decode_mode="exact",
                             prefix_cache=False)
        with FleetServer(model, n_replicas=3, serve_config=config) as fleet:
            history = {}
            for turn in range(2):
                for s in range(3):
                    prior = history.get(s, ())
                    prompt = prior + tuple(range(2 + s, 10 + s))
                    rid = f"s{s}t{turn}"
                    fleet.submit(prompt, request_id=rid, session_id=f"s{s}",
                                 params=SamplingParams(max_new_tokens=4))
                    history[s] = prompt  # next turn extends this prompt
                fleet.run_until_idle()
            merged = fleet.fleet_snapshot()["merged"]
            accounting = fleet.accounting()
        assert accounting["conservation_ok"] == 1
        # Turn-2 prompts started with turn-1 KV already resident — only
        # possible because session affinity pinned both turns to one replica.
        assert merged["counters"].get("serve.cached_prefix_tokens", 0) > 0


class _StillbornModel:
    """A replica model whose replica exits before it is ready: the engine's
    first look at it ends the process."""

    def __getattr__(self, name):
        os._exit(3)


class _StillbornFleet(FleetServer):
    def _model_for(self, replica_id):
        return _StillbornModel()


@needs_fork
class TestFleetFaults:
    def test_sigkilled_replica_respawns_and_no_request_is_lost(self, model):
        requests = _mixed_requests(n=12, max_new_tokens=16, seed_base=200)
        want = _single_server_outputs(model, requests)

        def run():
            with FleetServer(model, n_replicas=3,
                             serve_config=EXACT_CFG) as fleet:
                for request in requests:
                    fleet.submit(request.prompt_ids, params=request.params,
                                 request_id=request.request_id)
                for _ in range(4):
                    fleet.step()
                kill_busiest_replica(fleet)
                fleet.run_until_idle()
                return ({r.request_id: fleet.result(r.request_id)
                         for r in requests},
                        fleet.accounting(), fleet.fleet_snapshot())

        results, accounting, snapshot = within(60, run)
        # Conservation: every request exactly one terminal outcome.
        assert accounting["conservation_ok"] == 1
        assert accounting["finished"] == len(requests)
        statuses = [c.status for c in results.values()]
        assert statuses == ["finished"] * len(requests)
        assert snapshot["respawns"] >= 1
        # Exact decode + per-request seeds: the respawned replica replays
        # the requeued requests to byte-identical outputs.
        got = {rid: c.token_ids for rid, c in results.items()}
        assert got == want

    def test_replicas_dying_at_startup_exhaust_the_respawn_budget(self, model):
        # No replica ever becomes ready: the fleet's lifetime respawn budget
        # must end the run in a typed error, not a hang.
        def run():
            with _StillbornFleet(model, n_replicas=1,
                                 serve_config=EXACT_CFG) as fleet:
                fleet.submit((1, 2, 3),
                             params=SamplingParams(max_new_tokens=2))
                fleet.run_until_idle()

        with pytest.raises(FleetError, match="replicas keep dying"):
            within(30, run)

    def test_duplicate_request_id_rejected(self, model):
        with FleetServer(model, n_replicas=1, serve_config=EXACT_CFG) as fleet:
            fleet.submit((1, 2, 3), request_id="dup",
                         params=SamplingParams(max_new_tokens=2))
            with pytest.raises(ValueError, match="duplicate"):
                fleet.submit((4, 5, 6), request_id="dup")
            fleet.run_until_idle()

    def test_cancel_pending_and_close_is_idempotent(self, model):
        fleet = FleetServer(model, n_replicas=1, serve_config=EXACT_CFG)
        try:
            fleet.submit((1, 2, 3, 4), request_id="a",
                         params=SamplingParams(max_new_tokens=4))
            assert fleet.cancel("a") is True
            completions = fleet.run_until_idle()
            assert fleet.result("a").status == "cancelled"
            assert fleet.accounting()["conservation_ok"] == 1
        finally:
            fleet.close()
            fleet.close()  # second close is a no-op


@needs_fork
class TestFleetMetrics:
    def test_merged_registry_sums_replica_counters(self, model):
        requests = _mixed_requests(n=8, max_new_tokens=5, seed_base=400)
        with FleetServer(model, n_replicas=2, serve_config=EXACT_CFG) as fleet:
            for request in requests:
                fleet.submit(request.prompt_ids, params=request.params,
                             request_id=request.request_id)
            fleet.run_until_idle()
            snapshot = fleet.fleet_snapshot()
            flat = fleet.metrics_snapshot()
        merged = snapshot["merged"]
        assert merged["counters"]["serve.requests_submitted"] == len(requests)
        assert merged["counters"]["serve.tokens_generated"] == 8 * 5
        assert snapshot["replicas"] == 2
        assert snapshot["router"]["finished"] == len(requests)
        # Both replicas took a share of the mixed-prefix workload.
        active = [r for r in snapshot["per_replica"].values()
                  if r["accounting"] and r["accounting"]["submitted"] > 0]
        assert len(active) == 2
        assert flat["fleet_replicas"] == 2
        assert flat["counters"]["serve.requests_submitted"] == len(requests)

    def test_repeated_snapshots_do_not_double_count(self, model):
        with FleetServer(model, n_replicas=2, serve_config=EXACT_CFG) as fleet:
            fleet.submit((1, 2, 3, 4, 5), request_id="a",
                         params=SamplingParams(max_new_tokens=4))
            fleet.run_until_idle()
            first = fleet.fleet_snapshot()["merged"]["counters"]
            second = fleet.fleet_snapshot()["merged"]["counters"]
        assert second["serve.requests_submitted"] == \
            first["serve.requests_submitted"] == 1


@needs_fork
class TestNetOverFleet:
    def test_socket_roundtrip_with_fleet_backend(self, model):
        fleet = FleetServer(model, n_replicas=2, serve_config=EXACT_CFG)
        handle = NetServerThread(None, inner=fleet,
                                 net_config=NetServerConfig())
        try:
            host, port = handle.start()
            with NetClient(host, port) as client:
                results = []
                for i in range(6):
                    rng = np.random.default_rng(300 + i)
                    prompt = [1] + [int(t) for t in
                                    rng.integers(2, 60, size=8)]
                    results.append(client.complete(
                        prompt_ids=prompt,
                        params={"max_new_tokens": 6, "seed": i}))
                assert all(r.ok for r in results)
                assert all(len(r.token_ids) == 6 for r in results)
                metrics = client.server_metrics()
            ledger = handle.drain()
            assert ledger["conservation_ok"] == 1
            assert metrics["fleet"]["replicas"] == 2
            assert metrics["server"]["fleet_replicas"] == 2
        finally:
            handle.stop()
            fleet.close()


@needs_fork
class TestFleetSpeculative:
    """Speculative decoding through the fork path: each replica builds a
    draft engine over the draft it inherited, and exact accept/reject keeps
    the emitted bytes independent of which copy of the draft did the
    proposing."""

    @pytest.fixture(scope="class")
    def draft(self):
        return TransformerLM(TransformerConfig(vocab_size=64, dim=8,
                                               n_layers=1, n_heads=1,
                                               max_seq_len=128, seed=5))

    def test_fleet_matches_in_process_speculative(self, model, draft):
        config = ServeConfig(max_batch_size=4, decode_mode="fused",
                             prefix_cache=False, speculative_tokens=3)
        requests = _mixed_requests(n=8, max_new_tokens=8, seed_base=400)
        server = InProcessServer(model, config=config, draft_model=draft)
        for r in requests:
            server.submit(r.prompt_ids, params=r.params,
                          request_id=r.request_id)
        server.run_until_idle()
        want = {r.request_id: server.result(r.request_id).token_ids
                for r in requests}
        # The workload genuinely exercised speculation in the oracle; byte
        # parity below then proves the fleet's drafted path agrees.
        assert server.scheduler.spec_stats()["rounds"] > 0
        with FleetServer(model, n_replicas=2, serve_config=config,
                         draft_model=draft) as fleet:
            for r in requests:
                fleet.submit(r.prompt_ids, params=r.params,
                             request_id=r.request_id)
            fleet.run_until_idle()
            got = {r.request_id: fleet.result(r.request_id).token_ids
                   for r in requests}
            accounting = fleet.accounting()
        assert got == want
        assert accounting["conservation_ok"] == 1

    def test_int8_fleet_with_quantized_draft_keeps_parity(self, model, draft):
        """weight_mode="int8" quantizes the draft once in the parent and
        replicas draft with its dequantized twin.  Output bytes still match
        the in-process int8 server with the full-precision draft, because
        verification resamples every token from target logits."""
        config = ServeConfig(max_batch_size=4, decode_mode="fused",
                             prefix_cache=False, speculative_tokens=2,
                             weight_mode="int8")
        requests = _mixed_requests(n=6, max_new_tokens=6, seed_base=500)
        server = InProcessServer(model, config=config, draft_model=draft)
        for r in requests:
            server.submit(r.prompt_ids, params=r.params,
                          request_id=r.request_id)
        server.run_until_idle()
        want = {r.request_id: server.result(r.request_id).token_ids
                for r in requests}
        with FleetServer(model, n_replicas=2, serve_config=config,
                         draft_model=draft) as fleet:
            for r in requests:
                fleet.submit(r.prompt_ids, params=r.params,
                             request_id=r.request_id)
            fleet.run_until_idle()
            got = {r.request_id: fleet.result(r.request_id).token_ids
                   for r in requests}
        assert got == want

    def test_speculative_still_requires_a_draft(self, model):
        with pytest.raises(ValueError, match="draft_model"):
            FleetServer(model, n_replicas=1,
                        serve_config=ServeConfig(speculative_tokens=2))
