"""GeodesicMergeEngine tests: plan-once/evaluate-per-λ must be numerically
indistinguishable from the naive per-tensor geodesic merge."""

from collections import OrderedDict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.geodesic import geodesic_merge
from repro.core.layerwise import LambdaSchedule, merge_state_dicts_layerwise
from repro.core.merge import merge_state_dicts
from repro.core.merge_engine import (GeodesicMergeEngine, KIND_EXCLUDED,
                                     KIND_LINEAR, KIND_PARALLEL, KIND_SLERP,
                                     KIND_ZERO, MergePlan, TensorPlan)

LAMS = [i / 10 for i in range(11)]


def make_pair(seed_a=0, seed_b=1, shapes=((3, 4), (8,), (2, 2, 3))):
    rng_a, rng_b = np.random.default_rng(seed_a), np.random.default_rng(seed_b)
    a = OrderedDict((f"blocks.{i}.w", rng_a.normal(size=s).astype(np.float32))
                    for i, s in enumerate(shapes))
    b = OrderedDict((f"blocks.{i}.w", rng_b.normal(size=s).astype(np.float32))
                    for i, s in enumerate(shapes))
    return a, b


def assert_state_dicts_close(got, want, rtol=1e-10, atol=1e-13):
    assert list(got) == list(want)
    for key in want:
        assert got[key].shape == want[key].shape, key
        assert np.allclose(got[key], want[key], rtol=rtol, atol=atol), key


# ---------------------------------------------------------------------------
# the acceptance criterion: sweep parity with per-λ merges
# ---------------------------------------------------------------------------

def test_sweep_matches_per_lambda_merge_state_dicts():
    a, b = make_pair()
    swept = GeodesicMergeEngine(a, b).sweep(LAMS)
    assert len(swept) == len(LAMS)
    for lam, merged in zip(LAMS, swept):
        assert_state_dicts_close(merged, merge_state_dicts(a, b, lam=lam))


def test_sweep_matches_naive_geodesic_per_tensor():
    """Independent ground truth: the raw per-tensor geodesic_merge loop."""
    a, b = make_pair(seed_a=5, seed_b=6)
    swept = GeodesicMergeEngine(a, b).sweep(LAMS)
    for lam, merged in zip(LAMS, swept):
        for key in a:
            ref = geodesic_merge(a[key], b[key], lam)
            assert np.allclose(merged[key], ref, rtol=1e-10, atol=1e-13), key


def test_single_merge_matches_sweep_point():
    a, b = make_pair()
    engine = GeodesicMergeEngine(a, b)
    swept = engine.sweep([0.3])
    assert_state_dicts_close(engine.merge(0.3), swept[0])


def test_layerwise_matches_standalone():
    a, b = make_pair()
    schedule = LambdaSchedule.linear(0.2, 0.9, n_layers=3)
    got = GeodesicMergeEngine(a, b).merge_layerwise(schedule)
    assert_state_dicts_close(got, merge_state_dicts_layerwise(a, b, schedule))
    for key in a:
        ref = geodesic_merge(a[key], b[key], schedule.lam_for(key))
        assert np.allclose(got[key], ref, rtol=1e-10, atol=1e-13), key


def test_fork_fanout_matches_serial():
    a, b = make_pair()
    serial = GeodesicMergeEngine(a, b).sweep(LAMS)
    forked = GeodesicMergeEngine(a, b, n_workers=3).sweep(LAMS)
    for s, f in zip(serial, forked):
        assert_state_dicts_close(f, s, rtol=0.0, atol=0.0)  # byte-identical


# ---------------------------------------------------------------------------
# property-based sweep: randomized model-shaped state dicts
# ---------------------------------------------------------------------------

#: λ grid for the property sweep: both endpoints plus an interior pair, one
#: of them deliberately "ugly" (not a round fraction of the unit interval).
PROPERTY_LAMS = (0.0, 0.31, 0.5, 1.0)


def random_model_like_pair(seed, dim, vocab, tied):
    """Random state dicts shaped like a toy LM: 2-D matmul weights, 1-D
    norm weights clustered near 1 (so the pair is nearly parallel — the
    small-angle regime), and optionally a tied embedding whose ndarray
    object is shared between the embedding and lm-head keys."""
    rng = np.random.default_rng(seed)
    pair = []
    for _ in range(2):
        sd = OrderedDict()
        emb = rng.normal(size=(vocab, dim))
        sd["embed.weight"] = emb
        sd["blocks.0.attn.w"] = rng.normal(size=(dim, dim))
        sd["blocks.0.norm.weight"] = 1.0 + 0.05 * rng.normal(size=dim)
        sd["lm_head.weight"] = emb if tied else rng.normal(size=(vocab, dim))
        pair.append(sd)
    return pair


@given(seed=st.integers(0, 10**6), dim=st.integers(2, 8),
       vocab=st.integers(3, 12), tied=st.booleans())
@settings(max_examples=30, deadline=None)
def test_property_engine_matches_naive_reference(seed, dim, vocab, tied):
    """The engine is numerically indistinguishable (rtol 1e-10) from the
    raw per-tensor geodesic_merge on randomized model-shaped inputs."""
    chip, instruct = random_model_like_pair(seed, dim, vocab, tied)
    engine = GeodesicMergeEngine(chip, instruct)
    for lam in PROPERTY_LAMS:
        merged = engine.merge(lam)
        for key in chip:
            ref = geodesic_merge(chip[key], instruct[key], lam)
            assert np.allclose(merged[key], ref, rtol=1e-10, atol=1e-13), \
                (key, lam)


@given(seed=st.integers(0, 10**6), tied=st.booleans())
@settings(max_examples=30, deadline=None)
def test_property_endpoints_recover_inputs(seed, tied):
    """SLERP endpoint invariant: λ=1 reproduces the chip model and λ=0 the
    instruct model (up to the unit-projection float round trip)."""
    chip, instruct = random_model_like_pair(seed, 5, 7, tied)
    engine = GeodesicMergeEngine(chip, instruct)
    assert_state_dicts_close(engine.merge(1.0), chip)
    assert_state_dicts_close(engine.merge(0.0), instruct)


@given(seed=st.integers(0, 10**6),
       lam=st.floats(0.0, 1.0, allow_nan=False))
@settings(max_examples=60, deadline=None)
def test_property_merged_norm_is_geometric_mean(seed, lam):
    """SLERP norm invariant: after interpolating on the unit sphere the
    merged tensor's Frobenius norm is restored to the weighted geometric
    mean ‖chip‖^λ · ‖instruct‖^(1−λ)."""
    rng = np.random.default_rng(seed)
    a, b = rng.normal(size=(4, 6)), rng.normal(size=(4, 6))
    merged = geodesic_merge(a, b, lam)
    want = np.linalg.norm(a) ** lam * np.linalg.norm(b) ** (1.0 - lam)
    assert np.isclose(np.linalg.norm(merged), want, rtol=1e-9)
    # The engine restores the identical norm.
    engine = GeodesicMergeEngine({"w": a}, {"w": b})
    assert np.isclose(np.linalg.norm(engine.merge(lam)["w"]), want, rtol=1e-9)


# ---------------------------------------------------------------------------
# plan structure and edge-case kinds
# ---------------------------------------------------------------------------

def test_plan_classifies_kinds():
    a, b = make_pair(shapes=((4,), (3,), (2,), (5,)))
    a["blocks.1.w"] = np.zeros(3, dtype=np.float32)          # one-zero
    a["blocks.2.w"] = np.zeros(2, dtype=np.float32)          # both zero
    b["blocks.2.w"] = np.zeros(2, dtype=np.float32)
    b["blocks.3.w"] = (2.5 * a["blocks.3.w"])                # parallel
    engine = GeodesicMergeEngine(a, b, exclude=("blocks.0.*",))
    kinds = {key: plan.kind for key, plan in engine.plan.tensors.items()}
    assert kinds == {"blocks.0.w": KIND_EXCLUDED, "blocks.1.w": KIND_LINEAR,
                     "blocks.2.w": KIND_ZERO, "blocks.3.w": KIND_PARALLEL}
    # Every kind still matches the naive path at every λ.
    for lam in (0.0, 0.3, 0.6, 1.0):
        merged = engine.merge(lam)
        ref = merge_state_dicts(a, b, lam=lam, exclude=("blocks.0.*",))
        assert_state_dicts_close(merged, ref)


def test_sweep_handles_edge_case_kinds():
    a, b = make_pair(shapes=((4,), (3,)))
    a["blocks.1.w"] = np.zeros(3, dtype=np.float32)
    swept = GeodesicMergeEngine(a, b).sweep(LAMS)
    for lam, merged in zip(LAMS, swept):
        assert np.allclose(merged["blocks.1.w"], (1 - lam) * b["blocks.1.w"],
                           rtol=1e-6)


def test_antipodal_raises_at_plan_time():
    a = {"w": np.array([1.0, 0.0])}
    b = {"w": np.array([-1.0, 0.0])}
    with pytest.raises(ValueError, match="antipodal"):
        GeodesicMergeEngine(a, b)


def test_mismatched_keys_raise():
    a, b = make_pair()
    del b["blocks.0.w"]
    with pytest.raises(KeyError):
        GeodesicMergeEngine(a, b)


def test_lambda_out_of_range_raises():
    a, b = make_pair()
    engine = GeodesicMergeEngine(a, b)
    with pytest.raises(ValueError):
        engine.merge(1.5)
    with pytest.raises(ValueError):
        engine.sweep([0.2, -0.1])


def test_plan_summary_and_total_params():
    a, b = make_pair()
    engine = GeodesicMergeEngine(a, b)
    assert engine.plan.total_params == sum(w.size for w in a.values())
    summary = engine.plan.summary()
    assert summary["n_tensors"] == len(a)
    assert summary["n_slerp"] == len(a)
    assert summary["angle_max"] > 0.0


def test_plan_is_isolated_from_input_mutation():
    """The plan holds its own copies; mutating the source state dicts
    afterwards must not change results."""
    a, b = make_pair()
    engine = GeodesicMergeEngine(a, b)
    expected = engine.merge(0.6)
    for key in a:
        a[key][...] = 0.0
        b[key][...] = 0.0
    assert_state_dicts_close(engine.merge(0.6), expected, rtol=0.0, atol=0.0)


# ---------------------------------------------------------------------------
# output buffers
# ---------------------------------------------------------------------------

def test_merge_into_preallocated_buffers():
    a, b = make_pair()
    engine = GeodesicMergeEngine(a, b)
    buffers = engine.new_buffers()
    merged = engine.merge(0.4, out=buffers)
    for key in a:
        assert merged[key] is buffers[key]
    assert_state_dicts_close(merged, merge_state_dicts(a, b, lam=0.4))


def test_from_models_requires_matching_architectures():
    from repro.nn.transformer import TransformerConfig, TransformerLM

    config = TransformerConfig(vocab_size=64, dim=16, n_layers=1, n_heads=2,
                               max_seq_len=16, seed=0)
    other = TransformerConfig(vocab_size=64, dim=24, n_layers=1, n_heads=2,
                              max_seq_len=16, seed=0)
    with pytest.raises(ValueError, match="architecture"):
        GeodesicMergeEngine.from_models(TransformerLM(config),
                                        TransformerLM(other))
    engine = GeodesicMergeEngine.from_models(TransformerLM(config),
                                             TransformerLM(config))
    assert isinstance(engine.plan, MergePlan)
