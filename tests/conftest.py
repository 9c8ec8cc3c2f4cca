"""Shared fixtures for the test suite."""

import gc
import os
import signal
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import settings

from repro.nn.tensor import set_default_dtype

#: Hypothesis profiles, chosen by ``HYPOTHESIS_PROFILE``.  ``default`` keeps
#: Hypothesis's own example count, so the suite runs as many examples as it
#: always has; ``ci`` raises it for every test that does not pin its own
#: ``max_examples`` (the stateful server model scales with it).
settings.register_profile("default", max_examples=100)
settings.register_profile("ci", max_examples=400)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


@pytest.fixture
def float64():
    """Run a test with float64 tensors (finite-difference gradient checks)."""
    set_default_dtype(np.float64)
    yield
    set_default_dtype(np.float32)


@pytest.fixture
def rng():
    return np.random.default_rng(0)


@pytest.fixture(scope="session")
def zoo():
    """The shared model zoo (uses the on-disk checkpoint cache; training
    happens only if checkpoints are missing)."""
    from repro.pipelines.model_zoo import default_zoo

    return default_zoo()


@pytest.fixture(scope="session")
def tokenizer(zoo):
    return zoo.tokenizer


#: Two-phrase corpus the small serving-suite models are trained on.
SERVE_CORPUS = [[1, 7, 8, 9, 10, 11, 2], [1, 5, 6, 5, 6, 2]] * 4


def _train_serve_model(**config):
    from repro.nn.trainer import TrainConfig, Trainer
    from repro.nn.transformer import TransformerConfig, TransformerLM

    m = TransformerLM(TransformerConfig(vocab_size=24, n_heads=2,
                                        max_seq_len=48, **config))
    Trainer(m, pad_id=0, config=TrainConfig(epochs=25, batch_size=8, lr=3e-3)
            ).fit(SERVE_CORPUS)
    return m


def _read_only(model):
    """Yield ``model``, then fail teardown if any test changed its weights."""
    before = model.state_dict()
    yield model
    after = model.state_dict()
    assert all(np.array_equal(before[k], after[k]) for k in before), \
        "a test mutated a shared session model"


@pytest.fixture(scope="session")
def serve_model():
    """The serving suites' target model: 24-vocab, 2 layers, trained once
    per session on :data:`SERVE_CORPUS`.  Shared, so read-only."""
    yield from _read_only(_train_serve_model(dim=16, n_layers=2, seed=0))


@pytest.fixture(scope="session")
def serve_draft():
    """A cheaper model trained on the same corpus — the speculative draft."""
    yield from _read_only(_train_serve_model(dim=8, n_layers=1, seed=1))


class ManualClock:
    """Injectable clock that only moves when a test sets ``t``."""

    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


def make_server(model, **cfg):
    """An ``InProcessServer`` with the serving suites' defaults: fused,
    no prefix cache, batch 4, EOS id 2."""
    from repro.serve import InProcessServer, ServeConfig

    cfg.setdefault("decode_mode", "fused")
    cfg.setdefault("prefix_cache", False)
    cfg.setdefault("max_batch_size", 4)
    draft_model = cfg.pop("draft_model", None)
    clock = cfg.pop("clock", None)
    kwargs = {"clock": clock} if clock is not None else {}
    return InProcessServer(model, config=ServeConfig(**cfg), eos_id=2,
                           draft_model=draft_model, **kwargs)


def numeric_grad(fn, x, eps=1e-6):
    """Central-difference gradient of scalar fn at numpy array x."""
    grad = np.zeros_like(x, dtype=np.float64)
    flat = x.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        hi = fn()
        flat[i] = orig - eps
        lo = fn()
        flat[i] = orig
        gflat[i] = (hi - lo) / (2 * eps)
    return grad


def traced_peak(call):
    """Peak bytes ``tracemalloc`` traces while ``call()`` runs.

    Garbage is collected first, so the figure counts what ``call`` itself
    allocates above the live heap; tracing stops even if ``call`` raises.
    """
    gc.collect()
    tracemalloc.start()
    try:
        call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def within(seconds, body):
    """Run ``body()`` in a daemon thread and return its result, failing the
    test if it has not finished after ``seconds``.

    A guard for tests that kill or respawn child processes: a wedged pool or
    fleet fails the one test instead of hanging the suite.  An exception
    raised by ``body`` is re-raised here.
    """
    outcome = {}

    def run():
        try:
            outcome["result"] = body()
        except BaseException as exc:  # re-raised in the test's thread
            outcome["error"] = exc

    runner = threading.Thread(target=run, daemon=True)
    runner.start()
    runner.join(timeout=seconds)
    assert not runner.is_alive(), f"no progress within {seconds} s"
    if "error" in outcome:
        raise outcome["error"]
    return outcome["result"]


def kill_busiest_replica(fleet):
    """SIGKILL the fleet replica with the most in-flight requests; returns
    its router-side record."""
    victim = max(fleet._replicas, key=lambda rep: len(rep.inflight))
    assert victim.inflight, "kill must land mid-flight"
    channel = fleet._supervisor.channels[victim.replica_id]
    os.kill(channel.process.pid, signal.SIGKILL)
    return victim
