"""Merge-plan residency: the plan is the one resident copy of the pair.

Float32 models plan into float32 rows (float32 → float64 is exact, so
every evaluation sees the same float64 operands), and merged models are
filled one tensor at a time.  These tests pin both halves: the bits are
those of a plan whose rows were forced to float64, and the peak memory of
planning and of building merged models stays bounded.
"""

import gc
import tracemalloc
from collections import OrderedDict

import numpy as np
import pytest

from repro.core.merge_engine import (GeodesicMergeEngine, KIND_EXCLUDED,
                                     KIND_LINEAR, KIND_SLERP)
from repro.data.vocab import build_tokenizer
from repro.nn.checkpoint import save_model
from repro.nn.transformer import TransformerLM, preset_config
from repro.parallel import parallel_available
from repro.pipelines.model_zoo import RECIPE_VERSION, ModelZoo

LAMS = [round(0.1 * i, 1) for i in range(11)]
POINTS = [0.0, 0.3, 1.0]


def _widen(engine):
    """Force the engine's plan rows to float64: the layout planning used
    before rows were stored at the models' own width."""
    for tensor in engine.plan:
        if tensor.stacked is not None:
            tensor.stacked = tensor.stacked.astype(np.float64)
    return engine


def _assert_bitwise(got, want):
    assert list(got) == list(want)
    for key in want:
        assert got[key].dtype == want[key].dtype, key
        assert got[key].shape == want[key].shape, key
        assert got[key].tobytes() == want[key].tobytes(), key


# ---------------------------------------------------------------------------
# row width
# ---------------------------------------------------------------------------

def _pair(dtype, seed=0):
    rng = np.random.default_rng(seed)
    shapes = {"excluded.w": (16, 8), "linear.w": (40,), "slerp.w": (96, 64),
              "slerp.b": (64,)}
    chip = OrderedDict((k, rng.normal(size=s).astype(dtype))
                       for k, s in shapes.items())
    instruct = OrderedDict((k, rng.normal(size=s).astype(dtype))
                           for k, s in shapes.items())
    chip["linear.w"][...] = 0.0
    return chip, instruct


def test_float32_pair_plans_float32_rows():
    engine = GeodesicMergeEngine(*_pair(np.float32), exclude=("excluded.*",))
    kinds = {t.key: t.kind for t in engine.plan}
    assert kinds == {"excluded.w": KIND_EXCLUDED, "linear.w": KIND_LINEAR,
                     "slerp.w": KIND_SLERP, "slerp.b": KIND_SLERP}
    for tensor in engine.plan:
        if tensor.stacked is not None:
            assert tensor.stacked.dtype == np.float32, tensor.key
            assert tensor.stacked64.dtype == np.float64


def test_pair_float32_cannot_represent_keeps_float64_rows():
    chip, instruct = _pair(np.float64)
    assert not np.array_equal(chip["slerp.w"].astype(np.float32),
                              chip["slerp.w"])
    engine = GeodesicMergeEngine(chip, instruct)
    assert all(t.stacked.dtype == np.float64 for t in engine.plan)
    # A mixed pair is only as narrow as its widest member.
    mixed = OrderedDict((k, v.astype(np.float32)) for k, v in chip.items())
    engine = GeodesicMergeEngine(mixed, instruct)
    assert all(t.stacked.dtype == np.float64 for t in engine.plan)


@pytest.mark.parametrize("lams", [POINTS, LAMS], ids=["points", "grid"])
def test_engine_bits_match_float64_rows(lams):
    """merge, sweep, isweep(reuse_buffers=True) and sweep(out=...) over
    excluded, one-zero (linear) and slerp tensors are bitwise those of a
    plan with float64 rows."""
    pair = _pair(np.float32)
    engine = GeodesicMergeEngine(*pair, exclude=("excluded.*",))
    wide = _widen(GeodesicMergeEngine(*pair, exclude=("excluded.*",)))
    for lam in lams:
        _assert_bitwise(engine.merge(lam), wide.merge(lam))
    for got, want in zip(engine.sweep(lams), wide.sweep(lams)):
        _assert_bitwise(got, want)
    for (_, got), (_, want) in zip(engine.isweep(lams, reuse_buffers=True),
                                   wide.isweep(lams, reuse_buffers=True)):
        _assert_bitwise(got, want)
    # float32 out buffers get the float64 result with load_state_dict's
    # rounding, one tensor at a time.
    out = [OrderedDict((k, np.empty(v.shape, np.float32))
                       for k, v in pair[0].items()) for _ in lams]
    filled = engine.sweep(lams, out=out)
    assert filled == out
    for got, want in zip(filled, wide.sweep(lams)):
        _assert_bitwise(got, OrderedDict(
            (k, np.asarray(v, dtype=np.float32)) for k, v in want.items()))


def test_sweep_rejects_out_of_the_wrong_length():
    engine = GeodesicMergeEngine(*_pair(np.float32))
    with pytest.raises(ValueError, match="buffer sets"):
        engine.sweep(POINTS, out=[engine.new_buffers()])


def test_publish_stores_rows_as_planned():
    from repro.parallel import TensorArena

    engine = GeodesicMergeEngine(*_pair(np.float32), exclude=("excluded.*",))
    with TensorArena() as arena:
        engine.plan.publish(arena)
        rows = sum(t.stacked.nbytes for t in engine.plan
                   if t.stacked is not None)
        raw = sum(t.raw_chip.nbytes for t in engine.plan
                  if t.raw_chip is not None)
        assert rows + raw <= arena.nbytes < rows + raw + 64 * len(engine.plan)


# ---------------------------------------------------------------------------
# the model zoo on a random-init grande pair
# ---------------------------------------------------------------------------

def _write_pair(directory, zero_key=None):
    """A random-init grande chipnemo/instruct pair (one base plus noise per
    model) and the tokenizer, laid out the way the zoo caches them."""
    directory.mkdir()
    tokenizer = build_tokenizer()
    tokenizer.save(directory / f"tokenizer_{RECIPE_VERSION}.json")
    config = preset_config("grande", tokenizer.vocab_size, seed=5)
    base = TransformerLM(config).state_dict()
    rng = np.random.default_rng(5)
    for variant in ("chipnemo", "instruct"):
        state = {k: (w + 0.3 * max(float(w.std()), 0.05)
                     * rng.standard_normal(w.shape)).astype(w.dtype)
                 for k, w in base.items()}
        if zero_key is not None and variant == "chipnemo":
            state[zero_key][...] = 0.0
        model = TransformerLM(config)
        model.load_state_dict(state)
        save_model(model, directory / f"grande_{variant}_{RECIPE_VERSION}",
                   metadata={"family": "grande", "variant": variant})
    return directory


@pytest.fixture(scope="module")
def grande_pair(tmp_path_factory):
    return _write_pair(tmp_path_factory.mktemp("zoo") / "random")


@pytest.fixture(scope="module")
def grande_pair_one_zero(tmp_path_factory):
    return _write_pair(tmp_path_factory.mktemp("zoo") / "one_zero",
                       zero_key="blocks.0.attn_norm.weight")


def _loaded_zoo(directory):
    """A fresh zoo with both source models resident; returns it with the
    bytes of one fp32 model."""
    zoo = ModelZoo(cache_dir=directory)
    chip = zoo.chip_model("grande")
    zoo.get("grande", "instruct")
    return zoo, sum(p.data.nbytes for p in chip.parameters())


def _oracle_models(zoo, lams, sweep):
    """Merged models built the old way: a float64-row plan, a full float64
    state dict, then ``load_state_dict``."""
    wide = _widen(GeodesicMergeEngine.from_models(
        zoo.chip_model("grande"), zoo.get("grande", "instruct")))
    states = wide.sweep(lams) if sweep else [wide.merge(lam) for lam in lams]
    models = []
    for state in states:
        model = TransformerLM(zoo.chip_model("grande").config)
        model.load_state_dict(state)
        models.append(model)
    return models


def test_grande_rows_are_two_fp32_models(grande_pair):
    zoo, one_model = _loaded_zoo(grande_pair)
    plan = zoo.merge_engine("grande").plan
    assert sum(t.stacked.nbytes for t in plan) == 2 * one_model


def test_from_models_plan_is_isolated_from_the_models(grande_pair):
    """Planning reads the parameter arrays without copying them first, so
    the plan's own rows must be what later merges use."""
    zoo, _ = _loaded_zoo(grande_pair)
    chip, instruct = zoo.chip_model("grande"), zoo.get("grande", "instruct")
    engine = GeodesicMergeEngine.from_models(chip, instruct)
    want = engine.merge(0.3)
    for param in chip.parameters():
        assert not any(np.shares_memory(param.data, t.stacked)
                       for t in engine.plan)
    for param in chip.parameters():   # this zoo's private copy
        param.data[...] = 0.0
    _assert_bitwise(engine.merge(0.3), want)


def test_zoo_merged_bits_match_float64_rows(grande_pair_one_zero):
    zoo, _ = _loaded_zoo(grande_pair_one_zero)
    kinds = {t.key: t.kind for t in zoo.merge_engine("grande").plan}
    assert kinds["blocks.0.attn_norm.weight"] == KIND_LINEAR
    for lam, want in zip(POINTS, _oracle_models(zoo, POINTS, sweep=False)):
        _assert_bitwise(zoo.merged("grande", lam=lam).state_dict(),
                        want.state_dict())


@pytest.mark.parametrize("n_workers", [
    None,
    pytest.param(2, marks=pytest.mark.skipif(not parallel_available(),
                                             reason="requires os.fork"))])
@pytest.mark.parametrize("lams", [POINTS, LAMS], ids=["points", "grid"])
def test_zoo_merged_sweep_bits_match_float64_rows(grande_pair_one_zero,
                                                  lams, n_workers):
    zoo, _ = _loaded_zoo(grande_pair_one_zero)
    models = zoo.merged_sweep("grande", lams, n_workers=n_workers)
    zoo.merge_engine("grande").close()
    for got, want in zip(models, _oracle_models(zoo, lams, sweep=True)):
        _assert_bitwise(got.state_dict(), want.state_dict())
    registry = zoo.merge_engine("grande").obs.registry
    assert registry.counter("merge.evaluations").value == len(lams)


# ---------------------------------------------------------------------------
# peak memory
# ---------------------------------------------------------------------------

def _peak_multiple(directory, call):
    """Peak traced allocation of ``call(zoo)``, in fp32 models, with both
    source models already resident."""
    zoo, one_model = _loaded_zoo(directory)
    gc.collect()
    tracemalloc.start()
    try:
        call(zoo)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / one_model


def test_merge_peak_memory(grande_pair):
    """Peak ``tracemalloc`` bytes, in multiples of one fp32 model, on a
    random-init grande pair with both source models resident.

    With float64 plan rows, planning from ``state_dict()`` copies and a
    full float64 state dict per λ, the same calls peaked at: planning
    6.0x, one-λ ``merged_sweep`` 7.4x, one-λ ``merged`` 7.4x, the 11-λ
    ``merged_sweep`` 38x.  Float32 rows planned from the parameter arrays
    and tensor-at-a-time merged models read about 2.5x, 3.9x, 3.9x and
    17.5x; the 11-λ figure is 11 merged models (1.1x each with their
    non-parameter buffers), the 2x plan, and one tensor's (11, n) float64
    sweep block.
    """
    assert _peak_multiple(grande_pair, lambda z: z.merge_engine("grande")) \
        <= 3.5
    assert _peak_multiple(
        grande_pair, lambda z: z.merged_sweep("grande", [0.5])) <= 4.5
    assert _peak_multiple(
        grande_pair, lambda z: z.merged("grande", lam=0.5)) <= 4.5
    assert _peak_multiple(
        grande_pair, lambda z: z.merged_sweep("grande", LAMS)) <= 18.0
