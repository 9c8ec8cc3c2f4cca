"""Differential tests for the fused training kernels (repro.nn.kernels).

Every fused kernel is checked three ways against the composed reference:

* float64 finite-difference gradcheck of the single-node backward;
* float64 analytic-gradient parity, whole model, fused vs composed graph;
* float32 forward parity at model scale.

Plus the edge cases the fast paths introduce: ``ignore_index`` corner
batches, the overflow fallbacks of the self-verifying softmax / logsumexp,
the shared caches (causal mask, RoPE tables, tiled-RoPE expansion), the
scratch-buffer pool, and the LoRA fall-back to the composed path.
"""

import dataclasses

import numpy as np
import pytest

from repro.nn import functional as F
from repro.nn import kernels
from repro.nn.attention import RopeTable
from repro.nn.kernels import (attention_nograd, causal_mask, fused_attention,
                              fused_attention_qkv, fused_attn_block,
                              fused_cross_entropy, fused_gateup, fused_linear,
                              fused_lm_loss, fused_mlp_block, fused_rms_norm,
                              fused_swiglu, kernel_workspace)
from repro.nn.tensor import Tensor
from repro.nn.trainer import IGNORE_INDEX
from repro.nn.transformer import TransformerConfig, TransformerLM
from tests.conftest import numeric_grad

#: Analytic fused-vs-composed gradient agreement in float64.  The kernels
#: implement the same formulas with different op order; measured divergence
#: at model scale is ~3e-15 relative.
GRAD_RTOL = 1e-9

_CONFIG = TransformerConfig(vocab_size=48, dim=16, n_layers=2, n_heads=2,
                            max_seq_len=24, ffn_mult=2, seed=3)


def _small_models():
    """A fused and a composed model sharing identical weights."""
    fused = TransformerLM(dataclasses.replace(_CONFIG, use_fused=True))
    composed = TransformerLM(dataclasses.replace(_CONFIG, use_fused=False))
    composed.load_state_dict(fused.state_dict())
    return fused, composed


def _batch(rng, batch=2, seq=10, vocab=48):
    ids = rng.integers(1, vocab, size=(batch, seq))
    targets = rng.integers(1, vocab, size=(batch, seq))
    targets[-1, -2:] = IGNORE_INDEX
    return ids, targets


def multi_grad_check(build, arrays, tol=1e-6):
    """Finite-difference check of ``build(*tensors)`` w.r.t. every array."""
    tensors = [Tensor(a, requires_grad=True) for a in arrays]
    build(*tensors).backward()

    def scalar():
        return float(build(*[Tensor(a) for a in arrays]).data)

    for i, (a, t) in enumerate(zip(arrays, tensors)):
        num = numeric_grad(scalar, a)
        assert np.allclose(t.grad, num, atol=tol), (
            f"input {i}: max |analytic - numeric| = "
            f"{np.abs(t.grad - num).max():.3e}")


@pytest.mark.usefixtures("float64")
class TestGradcheck:
    """Float64 finite-difference checks of every fused backward."""

    def test_fused_rms_norm(self, rng):
        multi_grad_check(
            lambda x, w: (fused_rms_norm(x, w) ** 2.0).sum(),
            [rng.normal(size=(3, 5)), 1.0 + 0.1 * rng.normal(size=5)])

    def test_fused_linear_with_bias(self, rng):
        multi_grad_check(
            lambda x, w, b: (fused_linear(x, w, b) ** 2.0).sum(),
            [rng.normal(size=(2, 3, 4)), rng.normal(size=(5, 4)),
             rng.normal(size=5)])

    def test_fused_swiglu(self, rng):
        multi_grad_check(
            lambda g, u: (fused_swiglu(g, u) ** 2.0).sum(),
            [rng.normal(size=(2, 3, 4)), rng.normal(size=(2, 3, 4))])

    def test_fused_gateup(self, rng):
        multi_grad_check(
            lambda x, wg, wu: (fused_gateup(x, wg, wu) ** 2.0).sum(),
            [rng.normal(size=(2, 3, 4)), rng.normal(size=(6, 4)),
             rng.normal(size=(6, 4))])

    def test_fused_attention_causal_rope(self, rng):
        cos, sin = RopeTable(4).get(5, np.float64)
        multi_grad_check(
            lambda q, k, v: (fused_attention(
                q, k, v, 2, rope_cos=cos, rope_sin=sin) ** 2.0).sum(),
            [rng.normal(size=(2, 5, 8)) for _ in range(3)])

    def test_fused_attention_full(self, rng):
        multi_grad_check(
            lambda q, k, v: (fused_attention(
                q, k, v, 2, causal=False) ** 2.0).sum(),
            [rng.normal(size=(1, 4, 8)) for _ in range(3)])

    def test_fused_attention_qkv(self, rng):
        cos, sin = RopeTable(4).get(5, np.float64)
        multi_grad_check(
            lambda x, wq, wk, wv: (fused_attention_qkv(
                x, wq, wk, wv, 2, rope_cos=cos, rope_sin=sin) ** 2.0).sum(),
            [rng.normal(size=(2, 5, 8))] +
            [rng.normal(size=(8, 8)) * 0.5 for _ in range(3)])

    def test_fused_attn_block(self, rng):
        cos, sin = RopeTable(4).get(5, np.float64)
        multi_grad_check(
            lambda x, nw, wq, wk, wv, wo: (fused_attn_block(
                x, nw, wq, wk, wv, wo, 2,
                rope_cos=cos, rope_sin=sin) ** 2.0).sum(),
            [rng.normal(size=(2, 5, 8)), 1.0 + 0.1 * rng.normal(size=8)] +
            [rng.normal(size=(8, 8)) * 0.5 for _ in range(4)])

    def test_fused_attn_block_long_seq_blocked(self, rng):
        """Sequence longer than ATTN_BLOCK_ROWS exercises the row tiling."""
        old = kernels.ATTN_BLOCK_ROWS
        kernels.ATTN_BLOCK_ROWS = 3
        try:
            cos, sin = RopeTable(4).get(7, np.float64)
            multi_grad_check(
                lambda x, nw, wq, wk, wv, wo: (fused_attn_block(
                    x, nw, wq, wk, wv, wo, 1,
                    rope_cos=cos, rope_sin=sin) ** 2.0).sum(),
                [rng.normal(size=(1, 7, 4)), 1.0 + 0.1 * rng.normal(size=4)] +
                [rng.normal(size=(4, 4)) * 0.5 for _ in range(4)])
        finally:
            kernels.ATTN_BLOCK_ROWS = old

    def test_fused_mlp_block(self, rng):
        multi_grad_check(
            lambda x, nw, wg, wu, wd: (fused_mlp_block(
                x, nw, wg, wu, wd) ** 2.0).sum(),
            [rng.normal(size=(2, 3, 6)), 1.0 + 0.1 * rng.normal(size=6),
             rng.normal(size=(8, 6)) * 0.5, rng.normal(size=(8, 6)) * 0.5,
             rng.normal(size=(6, 8)) * 0.5])

    def test_fused_cross_entropy(self, rng):
        targets = np.array([[1, 4, IGNORE_INDEX], [0, 2, 6]])
        multi_grad_check(
            lambda t: fused_cross_entropy(t, targets,
                                          ignore_index=IGNORE_INDEX),
            [rng.normal(size=(2, 3, 7))])

    def test_fused_lm_loss(self, rng):
        targets = np.array([[1, 8, IGNORE_INDEX], [0, 2, 5]])
        multi_grad_check(
            lambda x, nw, wh: fused_lm_loss(x, nw, wh, targets,
                                            ignore_index=IGNORE_INDEX),
            [rng.normal(size=(2, 3, 6)), 1.0 + 0.1 * rng.normal(size=6),
             rng.normal(size=(9, 6)) * 0.5])


@pytest.mark.usefixtures("float64")
class TestFusedVsComposedGradients:
    """Whole-model analytic gradient parity, fused graph vs composed graph."""

    def test_loss_and_all_parameter_grads_match(self, rng):
        fused, composed = _small_models()
        ids, targets = _batch(rng)
        loss_f = fused.loss(ids, targets, ignore_index=IGNORE_INDEX)
        loss_c = composed.loss(ids, targets, ignore_index=IGNORE_INDEX)
        assert np.allclose(loss_f.data, loss_c.data, rtol=1e-12)
        loss_f.backward()
        loss_c.backward()
        names_f = dict(zip(fused.state_dict(), fused.parameters()))
        for name, p_c in zip(composed.state_dict(), composed.parameters()):
            p_f = names_f[name]
            assert p_f.grad is not None and p_c.grad is not None, name
            assert np.allclose(p_f.grad, p_c.grad,
                               rtol=GRAD_RTOL, atol=1e-14), (
                name, np.abs(p_f.grad - p_c.grad).max())


class TestFusedVsComposedForward:
    """Float32 forward parity at model scale."""

    def test_logits_match(self, rng):
        fused, composed = _small_models()
        ids, _ = _batch(rng)
        lf = fused(ids).data
        lc = composed(ids).data
        assert np.allclose(lf, lc, rtol=1e-4, atol=1e-5), (
            np.abs(lf - lc).max())

    def test_loss_matches(self, rng):
        fused, composed = _small_models()
        ids, targets = _batch(rng)
        lf = fused.loss(ids, targets, ignore_index=IGNORE_INDEX).item()
        lc = composed.loss(ids, targets, ignore_index=IGNORE_INDEX).item()
        assert lf == pytest.approx(lc, abs=1e-5)


class TestIgnoreIndexEdges:
    def test_all_masked_batch_is_zero_loss_zero_grad(self):
        logits = Tensor(np.random.default_rng(0).normal(size=(2, 3, 5)),
                        requires_grad=True)
        targets = np.full((2, 3), IGNORE_INDEX)
        loss = fused_cross_entropy(logits, targets,
                                   ignore_index=IGNORE_INDEX)
        assert loss.item() == 0.0
        loss.backward()
        assert np.all(logits.grad == 0.0)

    def test_all_masked_lm_loss(self, rng):
        x = Tensor(rng.normal(size=(1, 3, 4)), requires_grad=True)
        nw = Tensor(np.ones(4), requires_grad=True)
        wh = Tensor(rng.normal(size=(6, 4)), requires_grad=True)
        loss = fused_lm_loss(x, nw, wh, np.full((1, 3), IGNORE_INDEX),
                             ignore_index=IGNORE_INDEX)
        assert loss.item() == 0.0
        loss.backward()
        for t in (x, nw, wh):
            assert np.all(t.grad == 0.0)

    def test_single_unmasked_token_matches_composed(self, rng):
        data = rng.normal(size=(2, 3, 5))
        targets = np.full((2, 3), IGNORE_INDEX)
        targets[0, 1] = 2
        f = Tensor(data, requires_grad=True)
        c = Tensor(data.copy(), requires_grad=True)
        loss_f = fused_cross_entropy(f, targets, ignore_index=IGNORE_INDEX)
        loss_c = F.cross_entropy(c, targets, ignore_index=IGNORE_INDEX,
                                 use_fused=False)
        assert loss_f.item() == pytest.approx(loss_c.item(), abs=1e-6)
        loss_f.backward()
        loss_c.backward()
        assert np.allclose(f.grad, c.grad, atol=1e-6)


class TestOverflowFallbacks:
    def test_softmax_fast_redo_path_matches_stable(self):
        """Scores past float32 exp range trip the post-hoc check; the redo
        callback regenerates them and the shifted path takes over."""
        rng = np.random.default_rng(5)
        raw = (rng.normal(size=(2, 4, 4)) * 60.0).astype(np.float32)
        reference = kernels._softmax_inplace(raw.copy())
        fast = raw.copy()
        redo_calls = []

        def redo(buf):
            redo_calls.append(1)
            np.copyto(buf, raw)

        out = kernels._softmax_inplace_fast(fast, redo=redo)
        assert redo_calls, "expected the overflow fallback to trigger"
        assert np.isfinite(out).all()
        assert np.allclose(out, reference, atol=1e-6)

    def test_softmax_fast_no_redo_on_safe_scores(self):
        rng = np.random.default_rng(6)
        raw = rng.normal(size=(3, 5)).astype(np.float32)
        reference = kernels._softmax_inplace(raw.copy())
        calls = []
        out = kernels._softmax_inplace_fast(raw.copy(),
                                            redo=lambda b: calls.append(1))
        assert not calls
        assert np.allclose(out, reference, atol=1e-7)

    def test_attention_extreme_scores_finite(self, rng):
        big = Tensor((rng.normal(size=(1, 6, 8)) * 40).astype(np.float32))
        out = fused_attention(big, big, big, 2)
        assert np.isfinite(out.data).all()

    def test_lm_loss_overflow_falls_back_to_shifted(self, rng):
        """Activations large enough to overflow the unshifted exp must land
        on the shift-by-max path and still agree with the composed loss."""
        x_data = (rng.normal(size=(1, 4, 6)) * 40).astype(np.float32)
        nw = np.ones(6, dtype=np.float32)
        wh = (rng.normal(size=(12, 6)) * 4).astype(np.float32)
        targets = rng.integers(0, 12, size=(1, 4))
        loss = fused_lm_loss(Tensor(x_data), Tensor(nw), Tensor(wh), targets)
        composed = F.cross_entropy(
            fused_linear(fused_rms_norm(Tensor(x_data), Tensor(nw)),
                         Tensor(wh)),
            targets, use_fused=False)
        assert np.isfinite(loss.item())
        assert loss.item() == pytest.approx(composed.item(), rel=1e-5)


class TestCaches:
    def test_causal_mask_cached_and_readonly(self):
        m1 = causal_mask(9)
        m2 = causal_mask(9)
        assert m1 is m2
        assert not m1.flags.writeable
        assert m1[0, 1] and not m1[1, 0] and not m1[2, 2]

    def test_causal_mask_lru_bound(self):
        for n in range(1, kernels._MASK_CACHE_MAX + 20):
            causal_mask(n)
        assert len(kernels._MASK_CACHE) <= kernels._MASK_CACHE_MAX

    def test_rope_table_grows_to_power_of_two(self):
        rt = RopeTable(8)
        rt.get(100, np.float32)
        assert rt.capacity == 128
        cos_a, _ = rt.get(64, np.float32)
        cos_b, _ = rt.get(64, np.float32)
        # Same cast cache entry: views of one backing array, no re-cast.
        assert cos_a.base is cos_b.base
        rt.get(129, np.float32)
        assert rt.capacity == 256

    def test_rope_tiled_cached_and_consistent(self):
        rt = RopeTable(4)
        cos, sin = rt.get(6, np.float32)
        c1, s1, sb1 = kernels._rope_tiled(cos, sin, 3)
        c2, s2, sb2 = kernels._rope_tiled(cos, sin, 3)
        assert c1 is c2 and s1 is s2 and sb1 is sb2
        assert not c1.flags.writeable
        assert c1.shape == (6, 12)
        assert np.array_equal(sb1, -s1)

    def test_rope_flat_matches_reference_rotation(self, rng):
        """The tiled flat-layout rotation equals the per-head reference."""
        n_heads, head_dim, b, t = 3, 4, 2, 6
        rt = RopeTable(head_dim)
        cos, sin = rt.get(t, np.float64)
        x = rng.normal(size=(b, t, n_heads * head_dim))
        # Reference: split heads, rotate each (B, H, T, Dh), merge back.
        xh = x.reshape(b, t, n_heads, head_dim).transpose(0, 2, 1, 3)
        ref = kernels._rope_forward(xh, cos, sin)
        ref = ref.transpose(0, 2, 1, 3).reshape(b, t, -1)
        c_t, s_t, _ = kernels._rope_tiled(cos, sin, n_heads)
        out = np.empty_like(x)
        tmp = np.empty_like(x)
        kernels._rope_flat(x, c_t, s_t, out, tmp, n_heads, head_dim)
        assert np.allclose(out, ref, atol=1e-12)
        # In-place (out is src) must give the same answer.
        inplace = x.copy()
        kernels._rope_flat(inplace, c_t, s_t, inplace, tmp, n_heads, head_dim)
        assert np.allclose(inplace, ref, atol=1e-12)


class TestWorkspace:
    def test_take_give_reuses_buffer(self):
        ws = kernel_workspace()
        a = ws.take((7, 13), np.float32)
        ws.give(a)
        b = ws.take((7, 13), np.float32)
        assert b is a

    def test_views_are_not_pooled(self):
        ws = kernel_workspace()
        base = np.zeros((4, 4), dtype=np.float32)
        before = ws.stats()["buffers"]
        ws.give(base[1:])  # a view: must be rejected
        assert ws.stats()["buffers"] == before

    def test_stats_track_reuse(self):
        ws = kernel_workspace()
        taken0, reused0 = ws.taken, ws.reused
        x = ws.take((3, 3), np.float64)
        ws.give(x)
        ws.take((3, 3), np.float64)
        assert ws.taken == taken0 + 2
        assert ws.reused == reused0 + 1


class TestLoraFallback:
    def test_lora_disables_block_fusion_but_trains(self, rng):
        from repro.nn.lora import apply_lora, lora_parameters

        model = TransformerLM(_CONFIG)
        block = model.blocks[0]
        assert block._attn_block_fusable() and block._mlp_block_fusable()
        apply_lora(model, rank=2, targets=("q_proj", "v_proj", "gate_proj"))
        assert not block._attn_block_fusable()
        assert not block._mlp_block_fusable()
        ids, targets = _batch(rng)
        loss = model.loss(ids, targets, ignore_index=IGNORE_INDEX)
        loss.backward()
        grads = [p.grad for p in lora_parameters(model)]
        assert any(g is not None and np.any(g != 0) for g in grads)


class TestTrainingParity:
    def test_short_fused_vs_composed_training_run(self):
        """A 5-step fit must produce near-identical loss curves and tick the
        kernel counters (the CI smoke gate for the fused path)."""
        from repro.nn.train_bench import run_train_benchmark

        result = run_train_benchmark(backbone="nano", steps=5, batch_size=4,
                                     seq_len=32, vocab=64, repeats=1, seed=1)
        assert result["parity_ok"], result["loss_max_abs_diff"]
        assert len(result["fused"]["losses"]) == 5
        assert any(name.startswith("kernels.")
                   for name in result["registry"])

    def test_bench_train_cli_smoke(self, tmp_path, capsys):
        """``repro bench train`` runs, snapshots, and exits by its gates
        (at this toy size the fused path may miss the speedup floor)."""
        import json

        from repro.bench import failed
        from repro.cli import main

        out = tmp_path / "bench.json"
        code = main(["bench", "train", "backbone=nano", "steps=2",
                     "batch_size=2", "seq_len=16", "vocab=32", "repeats=1",
                     "--json", str(out)])
        result = json.loads(out.read_text())
        assert code == (1 if failed(result["gates"]) else 0)
        gates = {g["metric"]: g for g in result["gates"]}
        assert gates["parity_ok"]["ok"] and gates["registry.kernels.*"]["ok"]
        assert result["header"]["cpu_count"] >= 1
        assert "speedup" in capsys.readouterr().out


class TestAttentionNograd:
    def test_matches_fused_attention_forward(self, rng):
        q = rng.normal(size=(2, 2, 6, 4)).astype(np.float32)
        k = rng.normal(size=(2, 2, 6, 4)).astype(np.float32)
        v = rng.normal(size=(2, 2, 6, 4)).astype(np.float32)
        out = attention_nograd(q, k, v, causal_tail=6)
        # Reference via the autograd kernel on merged heads.
        merge = lambda a: a.transpose(0, 2, 1, 3).reshape(2, 6, 8)
        ref = fused_attention(Tensor(merge(q)), Tensor(merge(k)),
                              Tensor(merge(v)), 2).data
        assert np.allclose(merge(out), ref, atol=1e-6)
