"""λ-fleet: lazy variant materialization, routing, promotion, parity.

The tentpole contract: every variant a
:class:`~repro.serve.lambda_fleet.LambdaFleetServer` materializes lazily
from the one arena-resident :class:`~repro.core.merge_engine.MergePlan` is
**byte-identical** to loading the corresponding oracle merge
(``engine.merge`` / ``merge_layerwise`` / ``karcher_merge_state_dicts``)
into a model and serving it directly — across scalar, layerwise, and
Karcher variants, fp32 and int8 weight modes, and speculative decoding.
The autouse fixture fails any test that leaks a shared-memory segment.
"""

from collections import OrderedDict

import numpy as np
import pytest

from repro.core.karcher import karcher_merge_state_dicts
from repro.core.layerwise import LambdaSchedule, LambdaTable
from repro.core.merge_engine import (KIND_EXCLUDED, KIND_SLERP, KIND_ZERO,
                                     GeodesicMergeEngine, MergePlan,
                                     TensorPlan)
from repro.nn.kernels import quantize_state_dict
from repro.nn.transformer import TransformerConfig, TransformerLM
from repro.parallel import TensorArena, parallel_available
from repro.serve import InProcessServer, SamplingParams, ServeConfig
from repro.serve.lambda_fleet import (PLAN_PREFIX, LambdaFleetServer,
                                      LazyMergedModel, VariantSpec,
                                      materialize_variant)
from repro.serve.request import Request
from tests.conftest import kill_busiest_replica, within

needs_fork = pytest.mark.skipif(not parallel_available(),
                                reason="requires os.fork")


@pytest.fixture(autouse=True)
def no_leaked_segments():
    yield
    assert TensorArena.live_segments() == [], \
        "test leaked shared-memory segments"


CONFIG = TransformerConfig(vocab_size=64, dim=16, n_layers=2, n_heads=2,
                           max_seq_len=128, seed=0)


@pytest.fixture(scope="module")
def chip():
    return TransformerLM(CONFIG)


@pytest.fixture(scope="module")
def instruct():
    cfg = TransformerConfig(vocab_size=64, dim=16, n_layers=2, n_heads=2,
                            max_seq_len=128, seed=7)
    return TransformerLM(cfg)


@pytest.fixture(scope="module")
def engine(chip, instruct):
    return GeodesicMergeEngine(chip.state_dict(), instruct.state_dict())


EXACT_CFG = ServeConfig(max_batch_size=4, decode_mode="exact",
                        prefix_cache=False)


def _loaded_state(merged_sd):
    """What serving actually consumes: the merge loaded into model params
    (float64 -> float32 cast included)."""
    model = TransformerLM(CONFIG)
    model.load_state_dict(dict(merged_sd))
    return model.state_dict()


def _assert_state_equal(got, want):
    assert set(got) == set(want)
    for key in want:
        assert got[key].dtype == want[key].dtype, key
        assert np.array_equal(got[key], want[key]), key


# ---------------------------------------------------------------------------
# variant specs
# ---------------------------------------------------------------------------


class TestVariantSpec:
    def test_scalar_bounds(self):
        VariantSpec.scalar("ok", 0.0)
        VariantSpec.scalar("ok", 1.0)
        with pytest.raises(ValueError):
            VariantSpec.scalar("bad", 1.5)

    def test_layerwise_freezes_schedules(self):
        spec = VariantSpec.layerwise(
            "ramp", LambdaSchedule.linear(0.2, 0.8, 4))
        assert isinstance(spec.table, LambdaTable)
        table = LambdaTable(lams=(0.3, 0.4), default=0.5)
        assert VariantSpec.layerwise("tab", table).table is table

    def test_layerwise_requires_table(self):
        with pytest.raises(ValueError):
            VariantSpec(name="x", kind="layerwise")

    def test_karcher_weight_validation(self):
        VariantSpec.karcher("ok", (0.5, 0.5))
        with pytest.raises(ValueError):
            VariantSpec.karcher("bad", (0.5,))
        with pytest.raises(ValueError):
            VariantSpec.karcher("bad", (0.5, -0.1))
        with pytest.raises(ValueError):
            VariantSpec.karcher("bad", (0.0, 0.0))

    def test_unknown_kind_and_empty_name(self):
        with pytest.raises(ValueError):
            VariantSpec(name="x", kind="mystery")
        with pytest.raises(ValueError):
            VariantSpec(name="", kind="scalar")

    def test_specs_pickle(self):
        import pickle
        for spec in (VariantSpec.scalar("a", 0.3),
                     VariantSpec.layerwise(
                         "b", LambdaSchedule.linear(0.1, 0.9, 3)),
                     VariantSpec.karcher("c", (0.6, 0.4))):
            assert pickle.loads(pickle.dumps(spec)) == spec


class TestLambdaTableFreeze:
    def test_frozen_lookup_matches_schedule_bits(self):
        schedule = LambdaSchedule.linear(0.17, 0.93, 5, default=0.4)
        table = schedule.freeze()
        names = [f"blocks.{i}.attn.wq.weight" for i in range(5)]
        names += ["tok_emb.weight", "final_norm.weight", "lm_head.weight"]
        for name in names:
            assert table.lam_for(name) == schedule.lam_for(name)

    def test_out_of_range_block_raises(self):
        table = LambdaSchedule.linear(0.2, 0.8, 2).freeze()
        with pytest.raises(ValueError):
            table.lam_for("blocks.5.attn.wq.weight")


# ---------------------------------------------------------------------------
# lazy materialization vs the oracles (bit parity)
# ---------------------------------------------------------------------------


class TestMaterializeVariant:
    def test_scalar_matches_engine_merge_bits(self, engine):
        for lam in (0.0, 0.37, 0.6, 1.0):
            want = _loaded_state(engine.merge(lam))
            got = materialize_variant(engine.plan,
                                      VariantSpec.scalar("v", lam))
            _assert_state_equal(got, want)

    def test_layerwise_matches_merge_layerwise_bits(self, engine):
        schedule = LambdaSchedule.linear(0.2, 0.9, CONFIG.n_layers,
                                         default=0.5)
        want = _loaded_state(engine.merge_layerwise(schedule))
        got = materialize_variant(engine.plan,
                                  VariantSpec.layerwise("v", schedule))
        _assert_state_equal(got, want)

    def test_karcher_matches_state_dict_merge_bits(self, chip, instruct,
                                                   engine):
        weights = (0.7, 0.3)
        want = _loaded_state(karcher_merge_state_dicts(
            [chip.state_dict(), instruct.state_dict()], list(weights)))
        got = materialize_variant(engine.plan,
                                  VariantSpec.karcher("v", weights))
        _assert_state_equal(got, want)

    def test_int8_requantization_matches_oracle(self, engine):
        """int8 serving quantizes the materialized fp32 state; identical
        input bits give identical (q, scale) pairs."""
        want = quantize_state_dict(_loaded_state(engine.merge(0.45)))
        got = quantize_state_dict(materialize_variant(
            engine.plan, VariantSpec.scalar("v", 0.45)))
        _assert_state_equal(got, want)

    def test_variants_do_not_alias_outputs(self, engine):
        a = materialize_variant(engine.plan, VariantSpec.scalar("a", 0.3))
        b = materialize_variant(engine.plan, VariantSpec.scalar("b", 0.9))
        # Two variants must never share memory with each other or with
        # the plan, or the second materialization would corrupt the first.
        for key in a:
            assert not np.shares_memory(a[key], b[key]), key
        want = _loaded_state(engine.merge(0.3))
        _assert_state_equal(a, want)
        assert any(not np.array_equal(a[k], b[k]) for k in a)


class TestLazyMergedModel:
    def test_lazy_then_memoized(self, engine):
        model = LazyMergedModel(CONFIG, engine.plan,
                                VariantSpec.scalar("v", 0.5))
        assert not model.materialized
        first = model.parameter_arrays()
        assert model.materialized
        second = model.parameter_arrays()
        _assert_state_equal(second, first)
        model.release()
        assert not model.materialized
        _assert_state_equal(model.parameter_arrays(), first)

    def test_serves_like_its_oracle(self, engine):
        """An InProcessServer over the lazy model emits the same bytes as
        one over the eagerly merged model."""
        target = TransformerLM(CONFIG)
        target.load_state_dict(dict(engine.merge(0.42)))
        target.eval()
        lazy = LazyMergedModel(CONFIG, engine.plan,
                               VariantSpec.scalar("v", 0.42))
        outputs = []
        for model in (target, lazy):
            server = InProcessServer(model, config=EXACT_CFG)
            for i in range(4):
                server.submit(tuple(range(2 + i, 12 + i)),
                              params=SamplingParams(max_new_tokens=6,
                                                    temperature=0.8, top_k=8,
                                                    seed=50 + i),
                              request_id=f"r{i}")
            server.run_until_idle()
            outputs.append({f"r{i}": server.result(f"r{i}").token_ids
                            for i in range(4)})
        assert outputs[0] == outputs[1]


# ---------------------------------------------------------------------------
# karcher edge cases through the plan-based path
# ---------------------------------------------------------------------------


class TestKarcherThroughPlan:
    def test_n2_karcher_reduces_to_slerp(self, engine):
        """For two endpoints, the weighted Karcher mean with weights
        (λ, 1-λ) is the engine's SLERP point at λ (λ weights the chip
        endpoint in both conventions) — the lazy path must reproduce the
        geodesic merge to iteration tolerance."""
        lam = 0.35
        slerp = materialize_variant(engine.plan, VariantSpec.scalar("s", lam))
        karcher = materialize_variant(
            engine.plan, VariantSpec.karcher("k", (lam, 1.0 - lam)))
        for key in slerp:
            np.testing.assert_allclose(karcher[key], slerp[key],
                                       rtol=1e-6, atol=1e-7)

    def test_antipodal_log_map_error_propagates(self):
        """A mean estimate that lands antipodal to an input has no unique
        log map; the ValueError must surface through materialization, not
        produce silent garbage weights."""
        rng = np.random.default_rng(3)
        u = rng.standard_normal(8)
        u /= np.linalg.norm(u)
        rows = np.stack([u, -u])
        plan = MergePlan(OrderedDict(
            w=TensorPlan("w", KIND_SLERP, (8,), stacked=rows,
                         norm_chip=1.0, norm_instruct=1.0,
                         theta=np.pi / 2, sin_theta=1.0)))
        with pytest.raises(ValueError, match="antipodal|spread"):
            materialize_variant(plan, VariantSpec.karcher("k", (0.7, 0.3)))

    def test_excluded_tensors_rejected_for_karcher(self):
        plan = MergePlan(OrderedDict(
            w=TensorPlan("w", KIND_EXCLUDED, (4,),
                         raw_chip=np.ones(4, dtype=np.float64))))
        with pytest.raises(ValueError, match="exclude"):
            materialize_variant(plan, VariantSpec.karcher("k", (0.5, 0.5)))

    def test_zero_tensors_stay_zero_for_karcher(self):
        plan = MergePlan(OrderedDict(w=TensorPlan("w", KIND_ZERO, (3, 2))))
        state = materialize_variant(plan, VariantSpec.karcher("k", (0.5, 0.5)))
        assert state["w"].shape == (3, 2)
        assert not state["w"].any()

    def test_weighted_mean_deterministic_across_views(self, engine):
        """Two independent zero-copy attachments of the published plan
        materialize byte-identical Karcher variants — the replica-side
        determinism the fleet's multi-replica variant groups rely on."""
        spec = VariantSpec.karcher("k", (0.6, 0.4))
        with TensorArena() as arena:
            metas = engine.plan.publish(arena, prefix=PLAN_PREFIX)
            results = []
            for _ in range(2):
                with arena.handle().attach() as view:
                    plan = MergePlan.from_view(view, metas,
                                               prefix=PLAN_PREFIX)
                    results.append(materialize_variant(plan, spec))
            _assert_state_equal(results[1], results[0])
            # And both equal the never-published in-process plan's result.
            _assert_state_equal(results[0],
                                materialize_variant(engine.plan, spec))


# ---------------------------------------------------------------------------
# fleet integration
# ---------------------------------------------------------------------------


VARIANTS = [VariantSpec.scalar("lo", 0.3),
            VariantSpec.scalar("hi", 0.8),
            VariantSpec.layerwise(
                "ramp", LambdaSchedule.linear(0.25, 0.85, CONFIG.n_layers)),
            VariantSpec.karcher("mid", (0.5, 0.5))]


def _variant_requests(n=8, max_new_tokens=6):
    out = []
    for i in range(n):
        rng = np.random.default_rng(200 + i)
        prompt = (1,) + tuple(int(t) for t in rng.integers(2, 60, size=8))
        mode = i % 3
        params = SamplingParams(
            max_new_tokens=max_new_tokens,
            temperature=0.0 if mode == 0 else 0.8,
            top_k=8 if mode == 1 else None,
            top_p=0.9 if mode == 2 else None,
            seed=700 + i)
        out.append((f"r{i}", prompt, params, VARIANTS[i % len(VARIANTS)].name))
    return out


def _oracle_outputs(engine, requests, config=EXACT_CFG):
    want = {}
    for spec in VARIANTS:
        server = InProcessServer(LazyMergedModel(CONFIG, engine.plan, spec),
                                 config=config)
        ids = [rid for rid, _, _, name in requests if name == spec.name]
        for rid, prompt, params, name in requests:
            if name == spec.name:
                server.submit(prompt, params=params, request_id=rid)
        server.run_until_idle()
        for rid in ids:
            want[rid] = server.result(rid).token_ids
    return want


@needs_fork
class TestLambdaFleetParity:
    def test_mixed_variants_byte_parity(self, engine):
        requests = _variant_requests()
        want = _oracle_outputs(engine, requests)
        with LambdaFleetServer(engine, CONFIG, VARIANTS,
                               serve_config=EXACT_CFG) as fleet:
            for rid, prompt, params, name in requests:
                fleet.submit(prompt, params=params, request_id=rid,
                             variant=name)
            fleet.run_until_idle()
            got = {rid: fleet.result(rid).token_ids
                   for rid, *_ in requests}
            accounting = fleet.accounting()
        assert got == want
        assert accounting["conservation_ok"] == 1
        assert accounting["finished"] == len(requests)

    def test_int8_variants_byte_parity(self, engine):
        """Replica-side re-quantization of the lazily materialized variant
        serves the same bytes as an in-process int8 server over the fully
        built model."""
        config = ServeConfig(max_batch_size=4, decode_mode="exact",
                             prefix_cache=False, weight_mode="int8")
        requests = _variant_requests(n=4)
        want = _oracle_outputs(engine, requests, config=config)
        with LambdaFleetServer(engine, CONFIG, VARIANTS,
                               serve_config=config) as fleet:
            for rid, prompt, params, name in requests:
                fleet.submit(prompt, params=params, request_id=rid,
                             variant=name)
            fleet.run_until_idle()
            got = {rid: fleet.result(rid).token_ids
                   for rid, *_ in requests}
        assert got == want

    def test_sigkilled_variant_replica_rebuilds_from_the_plan(self, engine):
        # Kill the busiest replica of a 2-variant x 1-replica fleet mid-run.
        # Its respawn rebuilds the variant from the published plan (no
        # re-publish), and the requeued requests replay byte-identically.
        variants = VARIANTS[:2]
        names = {spec.name for spec in variants}
        requests = [r for r in _variant_requests(n=8, max_new_tokens=24)
                    if r[3] in names]
        want = _oracle_outputs(engine, requests)

        def run():
            with LambdaFleetServer(engine, CONFIG, variants,
                                   serve_config=EXACT_CFG) as fleet:
                plan_bytes = fleet.plan_bytes()
                for rid, prompt, params, name in requests:
                    fleet.submit(prompt, params=params, request_id=rid,
                                 variant=name)
                while not any(rep.inflight for rep in fleet._replicas):
                    fleet.step()
                kill_busiest_replica(fleet)
                fleet.run_until_idle()
                return ({rid: fleet.result(rid).token_ids
                         for rid, *_ in requests}, fleet.accounting(),
                        fleet.fleet_snapshot()["respawns"],
                        (plan_bytes, fleet.plan_bytes()))

        got, accounting, respawns, (before, after) = within(60, run)
        assert got == want
        assert accounting["conservation_ok"] == 1
        assert respawns >= 1
        assert after == before

    def test_memory_stays_near_one_model(self, engine, chip):
        model_bytes = sum(v.nbytes for v in chip.state_dict().values())
        with LambdaFleetServer(engine, CONFIG, VARIANTS,
                               serve_config=EXACT_CFG) as fleet:
            plan_bytes = fleet.plan_bytes()
        assert plan_bytes <= 2.1 * model_bytes, (
            f"{len(VARIANTS)} variants resident at "
            f"{plan_bytes / model_bytes:.2f}x one model")


@needs_fork
class TestLambdaFleetRouting:
    def test_explicit_policy_and_default_resolution(self, engine):
        policy_calls = []

        def by_session(request):
            policy_calls.append(request.request_id)
            return "hi" if request.session_id == "tenant-b" else None

        with LambdaFleetServer(engine, CONFIG, VARIANTS,
                               serve_config=EXACT_CFG,
                               variant_of=by_session) as fleet:
            # Explicit beats policy; policy beats default; None falls back.
            fleet.submit(tuple(range(2, 10)), request_id="explicit",
                         variant="mid", session_id="tenant-b",
                         params=SamplingParams(max_new_tokens=4))
            fleet.submit(tuple(range(3, 11)), request_id="policy",
                         session_id="tenant-b",
                         params=SamplingParams(max_new_tokens=4))
            fleet.submit(tuple(range(4, 12)), request_id="default",
                         params=SamplingParams(max_new_tokens=4))
            fleet.run_until_idle()
            report = fleet.variant_report()
        assert "explicit" not in policy_calls
        assert report["mid"]["finished"] == 1     # explicit
        assert report["hi"]["finished"] == 1      # policy
        assert report["lo"]["finished"] == 1      # default (first variant)
        assert report["lo"]["is_default"]

    def test_unknown_variant_rejected_at_submit(self, engine):
        with LambdaFleetServer(engine, CONFIG, VARIANTS[:2],
                               serve_config=EXACT_CFG) as fleet:
            with pytest.raises(KeyError, match="mystery"):
                fleet.submit(tuple(range(2, 10)), request_id="bad",
                             variant="mystery",
                             params=SamplingParams(max_new_tokens=4))
            # The rejected request left no tombstones behind.
            fleet.submit(tuple(range(2, 10)), request_id="ok",
                         params=SamplingParams(max_new_tokens=4))
            fleet.run_until_idle()
            assert fleet.result("ok").ok
            assert fleet.accounting()["conservation_ok"] == 1

    def test_session_affinity_within_variant_group(self, engine):
        """Turns of one session on one variant land on one replica, even
        with multiple replicas per variant."""
        with LambdaFleetServer(engine, CONFIG, VARIANTS[:2],
                               serve_config=EXACT_CFG,
                               replicas_per_variant=2) as fleet:
            history = ()
            for turn in range(2):
                prompt = history + tuple(range(2 + turn, 10 + turn))
                fleet.submit(prompt, request_id=f"t{turn}", session_id="s0",
                             variant="hi",
                             params=SamplingParams(max_new_tokens=4))
                history = prompt
                fleet.run_until_idle()
            merged = fleet.fleet_snapshot()["merged"]
            report = fleet.variant_report()
        assert report["hi"]["finished"] == 2
        assert report["hi"]["replicas"] == [2, 3]
        # Turn 2 found turn 1's session KV resident on its replica.
        assert merged["counters"].get("serve.cached_prefix_tokens", 0) > 0

    def test_validation_errors(self, engine):
        with pytest.raises(ValueError, match="duplicate"):
            LambdaFleetServer(engine, CONFIG,
                              [VariantSpec.scalar("a", 0.2),
                               VariantSpec.scalar("a", 0.4)])
        with pytest.raises(ValueError, match="at least one"):
            LambdaFleetServer(engine, CONFIG, [])
        with pytest.raises(ValueError, match="unknown default"):
            LambdaFleetServer(engine, CONFIG, VARIANTS[:2],
                              default_variant="nope")


@needs_fork
class TestPromotion:
    def test_promote_follows_measured_quality(self, engine):
        with LambdaFleetServer(engine, CONFIG, VARIANTS[:3],
                               serve_config=EXACT_CFG) as fleet:
            assert fleet.default_variant == "lo"
            fleet.record_quality("lo", 0.40)
            fleet.record_quality("lo", 0.50)
            fleet.record_quality("hi", 0.90)
            assert fleet.quality_of("lo") == pytest.approx(0.45)
            assert fleet.promote() == "hi"
            assert fleet.default_variant == "hi"
            # Unpinned traffic now lands on the promoted variant.
            fleet.submit(tuple(range(2, 10)), request_id="after",
                         params=SamplingParams(max_new_tokens=4))
            fleet.run_until_idle()
            report = fleet.variant_report()
            registry = fleet.obs.registry
            promotions = registry.counter("serve.fleet.promotions").value
            quality = registry.gauge("serve.fleet.variant.hi.quality").value
        assert report["hi"]["finished"] == 1
        assert report["hi"]["is_default"]
        assert promotions == 1
        assert quality == pytest.approx(0.9)

    def test_ties_keep_the_incumbent(self, engine):
        with LambdaFleetServer(engine, CONFIG, VARIANTS[:3],
                               serve_config=EXACT_CFG,
                               default_variant="ramp") as fleet:
            fleet.record_quality("lo", 0.8)
            fleet.record_quality("ramp", 0.8)
            assert fleet.promote() == "ramp"
            assert fleet.default_variant == "ramp"

    def test_min_samples_and_unknown_variant(self, engine):
        with LambdaFleetServer(engine, CONFIG, VARIANTS[:2],
                               serve_config=EXACT_CFG) as fleet:
            with pytest.raises(ValueError, match="samples"):
                fleet.promote()
            fleet.record_quality("lo", 0.5)
            with pytest.raises(ValueError, match="samples"):
                fleet.promote(min_samples=2)
            with pytest.raises(KeyError):
                fleet.record_quality("mystery", 1.0)
