"""Merge-method registry tests."""

from collections import OrderedDict

import numpy as np
import pytest

from repro.core import baselines, merge_state_dicts
from repro.core.registry import available_methods, merge, register


def sd(seed):
    rng = np.random.default_rng(seed)
    return OrderedDict(w=rng.normal(size=(4, 4)))


def test_all_paper_methods_registered():
    methods = available_methods()
    for name in ("chipalign", "modelsoup", "ta", "ties", "della", "dare"):
        assert name in methods


def test_unknown_method_raises():
    with pytest.raises(KeyError):
        merge("nonsense", chip=sd(0), instruct=sd(1))


def test_chipalign_dispatch_matches_direct_call():
    chip, instruct = sd(0), sd(1)
    via_registry = merge("chipalign", chip=chip, instruct=instruct, lam=0.7)
    direct = merge_state_dicts(chip, instruct, lam=0.7)
    assert np.allclose(via_registry["w"], direct["w"])


def test_chipalign_ignores_base():
    chip, instruct, base = sd(0), sd(1), sd(2)
    with_base = merge("chipalign", chip=chip, instruct=instruct, base=base)
    without = merge("chipalign", chip=chip, instruct=instruct)
    assert np.allclose(with_base["w"], without["w"])


def test_case_insensitive_names():
    out = merge("ChipAlign", chip=sd(0), instruct=sd(1))
    assert "w" in out


@pytest.mark.parametrize("name", ["ta", "ties", "della", "dare"])
def test_task_vector_methods_require_base(name):
    with pytest.raises(ValueError):
        merge(name, chip=sd(0), instruct=sd(1))


def test_modelsoup_dispatch():
    chip, instruct = sd(0), sd(1)
    out = merge("modelsoup", chip=chip, instruct=instruct)
    expected = baselines.model_soup([chip, instruct])
    assert np.allclose(out["w"], expected["w"])


def test_ta_dispatch_with_base():
    chip, instruct, base = sd(0), sd(1), sd(2)
    out = merge("ta", chip=chip, instruct=instruct, base=base)
    expected = baselines.task_arithmetic(base, [chip, instruct])
    assert np.allclose(out["w"], expected["w"])


def test_duplicate_registration_rejected():
    with pytest.raises(KeyError):
        @register("chipalign")
        def _dup(**kwargs):
            return {}


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("method", available_methods())
def test_every_method_leaves_its_inputs_untouched(method, dtype):
    """Callers hand merges the models' live parameter arrays (a cached zoo
    model's own weights), so a method that wrote into an input would
    silently corrupt that model.  float64 inputs matter too: there
    ``np.asarray(w, np.float64)`` is no copy."""
    from repro.nn.transformer import TransformerConfig, TransformerLM

    inputs = {}
    for role, seed in (("chip", 1), ("instruct", 2), ("base", 3)):
        model = TransformerLM(TransformerConfig(
            vocab_size=16, dim=8, n_layers=1, n_heads=2, max_seq_len=8,
            seed=seed))
        inputs[role] = OrderedDict(
            (key, value.astype(dtype, copy=False))
            for key, value in model.parameter_arrays().items())
    before = {role: {key: value.tobytes() for key, value in state.items()}
              for role, state in inputs.items()}
    merged = merge(method, **inputs)
    assert set(merged) == set(inputs["chip"])
    for role, state in inputs.items():
        for key, value in state.items():
            assert value.tobytes() == before[role][key], (role, key)
            assert not any(np.shares_memory(value, out)
                           for out in merged.values()), (role, key)
