"""Weight residency: every weight is held once.

The merge plan is the one resident copy of the chip/instruct pair.  The
zoo plans it straight from the two checkpoint archives, one tensor pair at
a time, so neither source model is built for it.  Float32 models plan
into float32 rows (float32 → float64 is exact, so every evaluation sees
the same float64 operands), and merged models are filled one tensor at a
time.  Inference engines read a model's own parameter arrays instead of a
copy (int8 engines own their quantized weights; fleet replicas read arena
views), and checkpoints load and save without a whole-model staging copy.

These tests pin both halves: the bits are those of a plan whose rows were
forced to float64 and of a plan built from loaded models, and the peak
memory of planning, merging, the Fig. 8 path and checkpoint I/O stays
bounded.
"""

from collections import OrderedDict

import numpy as np
import pytest

from repro.core.merge_engine import (GeodesicMergeEngine, KIND_EXCLUDED,
                                     KIND_LINEAR, KIND_SLERP)
from repro.data.vocab import build_tokenizer
from repro.nn.checkpoint import load_model, open_weights, save_model
from repro.nn.infer import InferenceEngine
from repro.nn.transformer import TransformerLM, preset_config
from repro.parallel import parallel_available
from repro.pipelines.model_zoo import RECIPE_VERSION, ModelZoo
from tests.conftest import traced_peak

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
    return traced_peak(lambda: call(zoo)) / one_model


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


# ---------------------------------------------------------------------------
# engines read the model's arrays in place
# ---------------------------------------------------------------------------

def _small_model(seed=0):
    from repro.nn.transformer import TransformerConfig

    return TransformerLM(TransformerConfig(
        vocab_size=32, dim=16, n_layers=2, n_heads=2, max_seq_len=32,
        seed=seed)).eval()


def _engine_weights(engine):
    """``(state-dict name, array)`` of every weight an engine reads."""
    from repro.nn.infer import BLOCK_WEIGHTS

    yield "tok_emb.weight", engine.tok_emb
    yield "final_norm.weight", engine.final_norm
    yield "lm_head.weight", engine.lm_head
    for index, layer in enumerate(engine.layers):
        for key, name in BLOCK_WEIGHTS.items():
            yield f"blocks.{index}.{name}.weight", layer[key]


def _all_engine_arrays(engine):
    """Every weight array an engine holds, packed int8 pairs included."""
    arrays = [array for _, array in _engine_weights(engine)]
    packed = getattr(engine, "_packed", None)
    if packed is not None:
        for entry in [packed.lm_head] + [w for layer in packed.layers
                                         for w in layer.values()]:
            arrays.extend(entry if isinstance(entry, tuple) else [entry])
    return arrays


def _answerer_engine(model):
    from repro.eval import LMAnswerer

    return LMAnswerer(model, tokenizer=None)._engine


def _batched(**kwargs):
    def build(model):
        from repro.serve.engine import BatchedEngine

        return BatchedEngine(model, **kwargs)
    return build


@pytest.mark.parametrize("build", [
    InferenceEngine, _answerer_engine, _batched(decode_mode="fused"),
    _batched(decode_mode="exact", kv_mode="paged")],
    ids=["infer", "answerer", "batched-fused", "batched-exact-paged"])
def test_fp32_engines_read_the_models_own_arrays(build):
    """Every weight an fp32 engine reads is the model parameter's own
    array.  At the parent each engine read a ``state_dict()`` copy, so no
    weight shared memory with the model."""
    model = _small_model()
    arrays = model.parameter_arrays()
    engine = build(model)
    for name, array in _engine_weights(engine):
        assert np.shares_memory(array, arrays[name]), name


def test_int8_engine_owns_its_weights():
    """The int8 engine serves its own quantized (and dequantized) arrays,
    pass-through norms and embedding included, as at the parent."""
    model = _small_model()
    engine = _batched(weight_mode="int8")(model)
    for array in _all_engine_arrays(engine):
        assert not any(np.shares_memory(array, param.data)
                       for param in model.parameters())


def _shares_any(array, others):
    return any(np.shares_memory(array, other) for other in others)


def _check_replica_engine(source_of, weight_mode, check):
    """Publish ``_small_model`` the way a fleet does, build a replica
    engine from the source ``source_of(arena, model)`` returns, and run
    ``check(engine, views, replica_model)`` on it before the views close."""
    from repro.parallel import TensorArena
    from repro.serve.engine import BatchedEngine

    model = _small_model()
    with TensorArena() as arena:
        source = source_of(arena, model)
        view = arena.handle().attach()
        try:
            replica_model = source.materialize(view)
            check(BatchedEngine(replica_model, weight_mode=weight_mode),
                  [view.get(name) for name in view.keys()], replica_model)
        finally:
            view.close()


@pytest.mark.parametrize("weight_mode", ["fp32", "int8"])
def test_fleet_replica_engines_read_arena_views(weight_mode):
    """A replica-fleet engine reads the published tensors themselves:
    every fp32 weight; in int8 mode the embedding, the norms and the
    unpacked int8 matrices (o, down, head)."""
    from repro.nn.kernels import quantize_state_dict
    from repro.serve.fleet import WEIGHTS_PREFIX, ArenaWeightsSource

    def publish(arena, model):
        state = model.parameter_arrays()
        if weight_mode == "int8":
            state = quantize_state_dict(state)
        arena.publish_dict(WEIGHTS_PREFIX, state)
        return ArenaWeightsSource(model.config.to_dict())

    def check(engine, views, _):
        if weight_mode == "fp32":
            for name, array in _engine_weights(engine):
                assert _shares_any(array, views), name
            return
        shared = [engine.tok_emb, engine.final_norm, *engine._packed.lm_head]
        for index, layer in enumerate(engine._packed.layers):
            shared += [*layer["o"], *layer["down"],
                       engine.layers[index]["attn_norm"]]
        assert all(_shares_any(array, views) for array in shared)

    _check_replica_engine(publish, weight_mode, check)


@pytest.mark.parametrize("weight_mode", ["fp32", "int8"])
def test_lambda_fleet_replica_engines_read_their_variant_in_place(
        weight_mode):
    """A λ-fleet replica realizes its variant privately from the plan's
    arena views; its engine then reads that one variant copy in place
    (fp32) or its own quantization of it (int8), never the plan rows."""
    from repro.serve.lambda_fleet import (PLAN_PREFIX, VariantSource,
                                          VariantSpec)

    def publish(arena, model):
        plan = GeodesicMergeEngine(model.parameter_arrays(),
                                   _small_model(1).parameter_arrays()).plan
        metas = plan.publish(arena, prefix=PLAN_PREFIX)
        return VariantSource(model.config.to_dict(), metas,
                             VariantSpec.scalar("v", 0.4), weight_mode)

    def check(engine, views, replica_model):
        own = list(replica_model.parameter_arrays().values())
        assert not any(_shares_any(array, views)
                       for array in _all_engine_arrays(engine))
        if weight_mode == "fp32":
            for name, array in _engine_weights(engine):
                assert _shares_any(array, own), name

    _check_replica_engine(publish, weight_mode, check)


# ---------------------------------------------------------------------------
# the zoo plans from its checkpoints
# ---------------------------------------------------------------------------

def _one_model_bytes(directory):
    with open_weights(directory / f"grande_chipnemo_{RECIPE_VERSION}") as w:
        return sum(w[key].nbytes for key in w.files)


def test_plan_from_archives_equals_plan_from_loaded_models(
        grande_pair_one_zero):
    """A fresh zoo plans from the two archives without building either
    model, and the plan is the one ``from_models`` builds from the loaded
    pair: same kinds, norms and Θ, same row bytes.  At the parent the zoo
    planned from the loaded models, so a fresh zoo's ``merge_engine`` left
    both source models in ``_models``."""
    fresh = ModelZoo(cache_dir=grande_pair_one_zero)
    from_archives = fresh.merge_engine("grande").plan
    assert fresh._models == {}
    zoo, _ = _loaded_zoo(grande_pair_one_zero)
    from_models = GeodesicMergeEngine.from_models(
        zoo.chip_model("grande"), zoo.get("grande", "instruct")).plan
    assert from_archives.keys == from_models.keys
    assert any(t.kind == KIND_LINEAR for t in from_archives)
    for got, want in zip(from_archives, from_models):
        assert (got.kind, got.shape) == (want.kind, want.shape), got.key
        assert (got.norm_chip, got.norm_instruct, got.theta, got.sin_theta) \
            == (want.norm_chip, want.norm_instruct, want.theta,
                want.sin_theta), got.key
        assert got.stacked.dtype == want.stacked.dtype, got.key
        assert got.stacked.tobytes() == want.stacked.tobytes(), got.key


def test_cold_fig8_holds_only_the_merged_model(grande_pair):
    """One-λ Fig. 8 on a fresh zoo keeps only the merged model, and its
    traced peak, in fp32 models, stays at the plan (2x), the merged model
    and the answers' working set.  The parent held the plan, both source
    models, the merged model and the answerer engine's weight copy, and
    peaked at 6.67x."""
    from repro.pipelines.experiment import run_fig8

    zoo = ModelZoo(cache_dir=grande_pair)
    peak = traced_peak(lambda: run_fig8(("grande",), [0.5], zoo=zoo,
                                        max_items=2))
    assert list(zoo._models) == [
        zoo._merged_key("grande", "chipalign", {"lam": 0.5})]
    assert peak / _one_model_bytes(grande_pair) <= 4.5


def test_checkpoint_io_peak_memory(grande_pair, tmp_path):
    """``load_model`` streams the archive into the parameters and
    ``save_model`` writes the parameter arrays, so neither stages a
    whole-model copy.  Peaks, in fp32 models: the parent read 2.34x
    (load) and 1.14x (save)."""
    path = grande_pair / f"grande_chipnemo_{RECIPE_VERSION}"
    model, _ = load_model(path)
    one_model = _one_model_bytes(grande_pair)
    assert traced_peak(lambda: load_model(path)) / one_model <= 1.6
    assert traced_peak(lambda: save_model(model, tmp_path / "copy")) \
        / one_model <= 0.3
    again, _ = load_model(tmp_path / "copy")
    _assert_bitwise(again.state_dict(), model.state_dict())
