"""Module system tests: registration, traversal, state dicts."""

import numpy as np
import pytest

from repro.nn.layers import Linear
from repro.nn.module import Module, ModuleList, Parameter


class Block(Module):
    def __init__(self):
        super().__init__()
        self.fc1 = Linear(4, 8, seed=0)
        self.fc2 = Linear(8, 2, seed=1)
        self.scale = Parameter(np.ones(1))

    def forward(self, x):
        return self.fc2(self.fc1(x)) * self.scale


def test_named_parameters_order_and_names():
    block = Block()
    names = [n for n, _ in block.named_parameters()]
    assert names == ["scale", "fc1.weight", "fc1.bias", "fc2.weight", "fc2.bias"]


def test_num_parameters():
    block = Block()
    expected = 1 + 4 * 8 + 8 + 8 * 2 + 2
    assert block.num_parameters() == expected


def test_state_dict_roundtrip():
    a, b = Block(), Block()
    b.load_state_dict(a.state_dict())
    for (_, pa), (_, pb) in zip(a.named_parameters(), b.named_parameters()):
        assert np.array_equal(pa.data, pb.data)


def test_state_dict_is_a_copy():
    block = Block()
    state = block.state_dict()
    state["scale"][0] = 99.0
    assert block.scale.data[0] == 1.0


def test_load_state_dict_strict_missing_key():
    block = Block()
    state = block.state_dict()
    del state["scale"]
    with pytest.raises(KeyError):
        block.load_state_dict(state)


def test_load_state_dict_strict_unexpected_key():
    block = Block()
    state = block.state_dict()
    state["bogus"] = np.ones(3)
    with pytest.raises(KeyError):
        block.load_state_dict(state)


def test_load_state_dict_shape_mismatch():
    block = Block()
    state = block.state_dict()
    state["scale"] = np.ones(7)
    with pytest.raises(ValueError):
        block.load_state_dict(state)


def test_load_state_dict_non_strict_partial():
    block = Block()
    original = block.fc1.weight.data.copy()
    block.load_state_dict({"scale": np.array([5.0])}, strict=False)
    assert block.scale.data[0] == 5.0
    assert np.array_equal(block.fc1.weight.data, original)


def test_load_state_dict_copies_once_and_never_aliases():
    """Every loaded parameter is a fresh C-ordered copy, bitwise equal to
    the old cast-then-copy result, for float32, float64 (cast) and
    Fortran-ordered inputs."""
    rng = np.random.default_rng(4)
    block = Block()
    state = {
        "scale": np.array([2.5], dtype=np.float32),
        "fc1.weight": rng.normal(size=(8, 4)),                       # float64
        "fc1.bias": rng.normal(size=8).astype(np.float32),
        "fc2.weight": np.asfortranarray(rng.normal(size=(2, 8))),    # F order
        "fc2.bias": rng.normal(size=2).astype(np.float32),
    }
    block.load_state_dict(state)
    for name, param in block.named_parameters():
        want = np.asarray(state[name], dtype=param.data.dtype).copy()
        assert not np.shares_memory(param.data, state[name]), name
        assert param.data.flags.c_contiguous, name
        assert param.data.dtype == want.dtype
        assert param.data.tobytes() == want.tobytes(), name


def test_load_state_dict_casting_load_allocates_one_copy():
    """A float64 → float32 load allocates the parameter once, not a cast
    temporary plus a copy of it."""
    import tracemalloc

    module = Module()
    module.w = Parameter(np.zeros(1 << 18, dtype=np.float32))
    value = np.ones(1 << 18, dtype=np.float64)
    tracemalloc.start()
    module.load_state_dict({"w": value})
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert module.w.data.dtype == np.float32
    assert peak < 1.5 * module.w.data.nbytes


def test_train_eval_recursive():
    block = Block()
    block.eval()
    assert not block.training and not block.fc1.training
    block.train()
    assert block.training and block.fc2.training


def test_zero_grad_clears_all():
    block = Block()
    from repro.nn.tensor import Tensor

    out = block(Tensor(np.ones((2, 4)))).sum()
    out.backward()
    assert block.fc1.weight.grad is not None
    block.zero_grad()
    assert all(p.grad is None for p in block.parameters())


def test_module_list():
    ml = ModuleList([Linear(2, 2, seed=i) for i in range(3)])
    assert len(ml) == 3
    assert ml[1] is list(ml)[1]
    names = [n for n, _ in ml.named_parameters()]
    assert "0.weight" in names and "2.bias" in names


def test_module_list_append_registers():
    ml = ModuleList()
    ml.append(Linear(2, 2, seed=0))
    assert len(list(ml.named_parameters())) == 2
