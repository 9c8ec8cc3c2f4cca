"""Fused training kernels: single-autograd-node hot-path operations.

The composed :mod:`repro.nn` graph spends most of a training step on
bookkeeping rather than math: attention alone records ~28 autograd nodes per
layer (head split/merge, the 7-node RoPE rotation applied twice, QK^T, scale,
mask-fill, softmax, @V, transposes), each allocating output buffers and
backward closures.  The kernels here collapse each hot region into **one**
autograd node with a hand-derived backward:

``fused_attention``
    RoPE rotation, head split, QK^T, scaling, causal masking, softmax, @V and
    head merge in a single forward over raw numpy arrays.  The backward is
    recomputation-free: it reuses the attention probabilities saved from the
    forward (the softmax Jacobian-vector product needs only ``probs``), and
    the RoPE rotation is undone with its transpose (the map is orthogonal).
``fused_cross_entropy``
    Stable log-softmax + target gather with ``ignore_index`` support.  The
    forward keeps only per-row ``max + logsumexp`` statistics (``O(N)``, not
    the ``O(N·V)`` log-probability matrix); the backward rebuilds
    ``softmax − one_hot`` directly from the logits, scaled by the valid-token
    mask.
``fused_rms_norm``
    RMS normalisation with learned scale; saves only the per-row inverse RMS.

Derivations (also in DESIGN.md §7):

* softmax: ``dS = P ⊙ (dP − Σ_j dP_j P_j)`` where ``P`` are the saved probs.
* RoPE: ``y = c ⊙ x + s ⊙ R x`` with ``R[x1, x2] = [−x2, x1]``, so
  ``dx = c ⊙ g + Rᵀ(s ⊙ g)`` with ``Rᵀ[u1, u2] = [u2, −u1]``.
* RMSNorm: with ``r = (mean(x²) + ε)^{−1/2}`` and ``gw = g ⊙ w``:
  ``dx = r·gw − x·r³·mean(gw ⊙ x)`` and ``dw = Σ_rows g ⊙ x·r``.
* cross-entropy: ``dlogits = (softmax(logits) − one_hot(t)) · mask / count``.

Every kernel is differentially tested against the composed-op reference
(float32 forward parity, float64 analytic-gradient parity, float64
finite-difference gradcheck) in ``tests/test_kernels.py``.

Observability is opt-in: :func:`set_kernel_observability` attaches an
:class:`~repro.obs.Observability` whose registry accumulates per-kernel call
counts and *saved-bytes* counters (intermediate buffers the composed graph
would have materialized but the fused node does not), and whose tracer
records one span per kernel call.  When no observer is attached the kernels
run with zero instrumentation overhead.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Optional, Tuple

import numpy as np

from .tensor import Tensor

#: Additive mask value for disallowed attention positions (matches the
#: composed path's ``masked_fill`` constant).
MASK_VALUE = -1e30

__all__ = [
    "MASK_VALUE", "causal_mask", "fused_attention", "fused_attention_qkv",
    "fused_attn_block", "fused_cross_entropy", "fused_gateup", "fused_linear",
    "fused_lm_loss", "fused_mlp_block", "fused_rms_norm", "fused_swiglu",
    "attention_nograd",
    "INT8_SCALE_SUFFIX", "quantize_int8", "dequantize_int8",
    "matmul_int8_nograd", "quantize_state_dict", "dequantize_state_dict",
    "is_quantized_state",
    "set_kernel_observability", "kernel_observability", "kernel_workspace",
]

#: Row-block size for the causally-tiled attention kernels.  A query row
#: ``i`` only attends to keys ``[0, i]``, so processing rows in blocks and
#: truncating each block's key range at its last row skips the strictly
#: upper-triangular portion of every ``(T, T)`` buffer — scores GEMM, mask,
#: softmax, ``@V`` and all four backward products.  Smaller blocks skip more
#: of the triangle but pay more prefix re-accumulation in the backward's
#: dK/dV sums; 64 is the empirical sweet spot at the backbone scales.
ATTN_BLOCK_ROWS = 64


# ---------------------------------------------------------------------------
# observability (opt-in)
# ---------------------------------------------------------------------------
_obs = None  # type: Optional[object]


def set_kernel_observability(obs):
    """Attach an :class:`repro.obs.Observability` to the kernel layer.

    Returns the previously attached observer (or ``None``) so callers can
    scope instrumentation::

        prev = set_kernel_observability(obs)
        try:
            ...
        finally:
            set_kernel_observability(prev)

    Pass ``None`` to detach.
    """
    global _obs
    prev = _obs
    _obs = obs
    return prev


def kernel_observability():
    """The currently attached kernel observer, or ``None``."""
    return _obs


class _NullSpan:
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL_SPAN = _NullSpan()


def _span(name: str, **meta):
    return _obs.span(name, **meta) if _obs is not None else _NULL_SPAN


def _count(kernel: str, saved_bytes: int) -> None:
    if _obs is None:
        return
    registry = _obs.registry
    registry.counter(f"kernels.{kernel}.calls").inc()
    registry.counter(f"kernels.{kernel}.saved_bytes").inc(saved_bytes)


# ---------------------------------------------------------------------------
# scratch workspace (free-list buffer pool)
# ---------------------------------------------------------------------------
class _Workspace:
    """Free-list pool of kernel scratch buffers keyed by ``(shape, dtype)``.

    numpy allocates every matmul/ufunc output fresh, and once the process
    heap is warm glibc serves multi-megabyte buffers straight from ``mmap`` —
    the page-fault churn of that map/touch/unmap cycle costs ~3x the
    arithmetic for the blocked attention score products (measured 2.7 ms vs
    0.9 ms with a preallocated ``out=``).  Kernels ``take`` scratch here and
    ``give`` it back once the backward has consumed it, so steady-state
    training reuses the same few dozen buffers with no allocator traffic at
    all.  Buffers saved for a backward that never runs (e.g. a forward under
    ``no_grad``) are simply garbage-collected; the pool only ever holds
    buffers explicitly returned.  Single-threaded by design, like the rest of
    the substrate.
    """

    __slots__ = ("max_per_key", "taken", "reused", "_pool")

    def __init__(self, max_per_key: int = 6) -> None:
        self.max_per_key = max_per_key
        self.taken = 0
        self.reused = 0
        self._pool = {}

    def take(self, shape, dtype) -> np.ndarray:
        """A buffer of ``shape``/``dtype`` with arbitrary contents."""
        self.taken += 1
        free = self._pool.get((tuple(shape), np.dtype(dtype)))
        if free:
            self.reused += 1
            return free.pop()
        return np.empty(shape, dtype)

    def give(self, arr: np.ndarray) -> None:
        """Return a buffer for reuse; the caller must hold the only live use."""
        if arr.base is not None or not arr.flags.c_contiguous:
            return
        key = (arr.shape, arr.dtype)
        free = self._pool.setdefault(key, [])
        if len(free) < self.max_per_key and not any(b is arr for b in free):
            free.append(arr)

    def clear(self) -> None:
        self._pool.clear()

    def stats(self) -> dict:
        pooled = sum(len(v) for v in self._pool.values())
        nbytes = sum(b.nbytes for v in self._pool.values() for b in v)
        return {"taken": self.taken, "reused": self.reused,
                "buffers": pooled, "bytes": nbytes}


_WS = _Workspace()


def kernel_workspace() -> _Workspace:
    """The kernels' shared scratch-buffer pool (stats / clear for tests)."""
    return _WS


# ---------------------------------------------------------------------------
# causal mask cache (satellite: one (T, T) bool allocation per seq length,
# LRU-bounded, shared by the fused and composed attention paths)
# ---------------------------------------------------------------------------
_MASK_CACHE: "OrderedDict[int, np.ndarray]" = OrderedDict()
_MASK_CACHE_MAX = 32


def causal_mask(seq_len: int) -> np.ndarray:
    """Boolean mask that is True at positions a query may NOT attend to.

    Cached per sequence length (LRU of :data:`_MASK_CACHE_MAX` entries) and
    returned read-only — callers share one array instead of allocating a
    fresh ``(T, T)`` buffer every forward.
    """
    mask = _MASK_CACHE.get(seq_len)
    if mask is None:
        mask = np.triu(np.ones((seq_len, seq_len), dtype=bool), k=1)
        mask.setflags(write=False)
        _MASK_CACHE[seq_len] = mask
        if len(_MASK_CACHE) > _MASK_CACHE_MAX:
            _MASK_CACHE.popitem(last=False)
    else:
        _MASK_CACHE.move_to_end(seq_len)
    return mask


# ---------------------------------------------------------------------------
# RoPE rotation helpers (numpy, shared by forward and backward)
# ---------------------------------------------------------------------------
def _rope_forward(x: np.ndarray, cos: np.ndarray, sin: np.ndarray,
                  out: Optional[np.ndarray] = None,
                  ws: Optional[_Workspace] = None) -> np.ndarray:
    """``x*cos + rotate_half(x)*sin`` with ``rotate_half([x1,x2]) = [-x2,x1]``.

    ``out`` (distinct from ``x``) receives the result; with ``ws`` the
    half-width cross terms go through one pooled scratch buffer instead of
    two fresh allocations.
    """
    half = x.shape[-1] // 2
    if out is None:
        out = x * cos
    else:
        np.multiply(x, cos, out=out)
    x1 = x[..., :half]
    x2 = x[..., half:]
    if ws is None:
        out[..., :half] -= x2 * sin[..., :half]
        out[..., half:] += x1 * sin[..., half:]
    else:
        tmp = ws.take(x2.shape, x.dtype)
        np.multiply(x2, sin[..., :half], out=tmp)
        out[..., :half] -= tmp
        np.multiply(x1, sin[..., half:], out=tmp)
        out[..., half:] += tmp
        ws.give(tmp)
    return out


def _rope_backward(g: np.ndarray, cos: np.ndarray, sin: np.ndarray,
                   out: Optional[np.ndarray] = None,
                   ws: Optional[_Workspace] = None) -> np.ndarray:
    """Transpose of :func:`_rope_forward`: ``cos*g + [g2, -g1]*sin``."""
    half = g.shape[-1] // 2
    if out is None:
        out = g * cos
    else:
        np.multiply(g, cos, out=out)
    g1 = g[..., :half]
    g2 = g[..., half:]
    if ws is None:
        out[..., :half] += g2 * sin[..., :half]
        out[..., half:] -= g1 * sin[..., half:]
    else:
        tmp = ws.take(g2.shape, g.dtype)
        np.multiply(g2, sin[..., :half], out=tmp)
        out[..., :half] += tmp
        np.multiply(g1, sin[..., half:], out=tmp)
        out[..., half:] -= tmp
        ws.give(tmp)
    return out


def _softmax_inplace(scores: np.ndarray) -> np.ndarray:
    """Numerically stable softmax over the last axis, in the input buffer."""
    scores -= scores.max(axis=-1, keepdims=True)
    np.exp(scores, out=scores)
    scores /= scores.sum(axis=-1, keepdims=True)
    return scores


#: Largest score magnitude for which ``exp`` needs no max-subtraction: with
#: float32 ``exp`` overflowing near 88 and row sums of at most a few thousand
#: terms, 80 leaves ample headroom (float64 is far safer still).
_SOFTMAX_SHIFT_THRESHOLD = 80.0


def _softmax_inplace_fast(scores: np.ndarray, redo=None) -> np.ndarray:
    """Softmax over the last axis that skips max-subtraction when safe.

    Without ``redo``, one global reduction decides stability for the whole
    buffer: if every score is below :data:`_SOFTMAX_SHIFT_THRESHOLD`,
    ``exp`` cannot overflow and the per-row max + subtraction passes are
    skipped (the normalisation works regardless of shift).

    With ``redo`` (a callable that re-fills ``scores`` with its raw,
    pre-``exp`` values, e.g. by repeating the score GEMM + mask), even the
    up-front max read is skipped: ``exp`` runs unshifted and the cheap
    per-row sums are checked after the fact — an overflowed row shows up as
    ``inf``/``nan`` and a fully-underflowed row as ``0``, in which case the
    scores are regenerated and the classic shift-by-max path runs.  Typical
    attention scores never trip it, so the fast path does no extra full
    pass at all.

    Masked entries at :data:`MASK_VALUE` underflow to exactly 0 either way.
    Callers must guarantee every row has at least one unmasked column (true
    for causal attention rows, which always see their own position); the
    padded-row case in the inference engines keeps the unconditional
    :func:`_softmax_inplace`.
    """
    if redo is None and scores.max() > _SOFTMAX_SHIFT_THRESHOLD:
        scores -= scores.max(axis=-1, keepdims=True)
    with np.errstate(over="ignore"):
        np.exp(scores, out=scores)
        s = scores.sum(axis=-1, keepdims=True)
    if redo is not None and (not np.isfinite(s).all() or s.min() <= 0.0):
        redo(scores)
        scores -= scores.max(axis=-1, keepdims=True)
        np.exp(scores, out=scores)
        s = scores.sum(axis=-1, keepdims=True)
    # Normalise by a reciprocal-multiply: one divide per row instead of one
    # per element (vector divides cost ~2x a multiply per lane).
    np.reciprocal(s, out=s)
    scores *= s
    return scores


# ---------------------------------------------------------------------------
# fused attention
# ---------------------------------------------------------------------------
def _attn_blocks(seq: int, causal: bool):
    """Row-block bounds ``(i0, i1)`` for the causally-tiled attention core.

    With ``causal`` tiling, rows ``[i0, i1)`` only need key columns
    ``[0, i1)``; without it everything is one block over all columns.
    """
    if not causal or seq <= ATTN_BLOCK_ROWS:
        return [(0, seq)]
    return [(i0, min(i0 + ATTN_BLOCK_ROWS, seq))
            for i0 in range(0, seq, ATTN_BLOCK_ROWS)]


def _attn_forward(qs: np.ndarray, kh: np.ndarray, vh: np.ndarray,
                  causal: bool, out: Optional[np.ndarray] = None):
    """Blocked attention forward over pre-scaled queries ``qs``.

    Returns ``(ctx_h, probs_blocks)``: the context is a workspace buffer the
    caller must merge out of and ``give`` back — unless ``out`` is given
    (e.g. a head-strided view of a flat merge buffer), in which case the
    per-block context GEMMs write straight through it and no merge copy is
    needed.  ``probs_blocks`` holds one pooled attention-probability array
    per row block — the only quadratic state the backward needs.  Masked
    (strictly future) columns beyond each block's key range are never
    computed; inside the diagonal block the standard causal mask applies.
    """
    seq = qs.shape[-2]
    blocks = _attn_blocks(seq, causal)
    lead = qs.shape[:-2]
    ctx = out if out is not None else _WS.take(qs.shape, qs.dtype)
    probs_blocks = []
    for i0, i1 in blocks:
        scores = _WS.take(lead + (i1 - i0, i1), qs.dtype)

        def fill(buf, i0=i0, i1=i1):
            np.matmul(qs[..., i0:i1, :], kh[..., :i1, :].swapaxes(-1, -2),
                      out=buf)
            if causal and i1 - i0 > 1:
                np.copyto(buf[..., i0:i1], MASK_VALUE,
                          where=causal_mask(i1 - i0))

        fill(scores)
        probs = _softmax_inplace_fast(scores, redo=fill)
        np.matmul(probs, vh[..., :i1, :], out=ctx[..., i0:i1, :])
        probs_blocks.append(probs)
    return ctx, probs_blocks


def _attn_backward(gh: np.ndarray, qs: np.ndarray, kh: np.ndarray,
                   vh: np.ndarray, probs_blocks, causal: bool, scale: float,
                   dots: Optional[np.ndarray] = None,
                   out: Optional[tuple] = None):
    """Backward of :func:`_attn_forward`; returns ``(dqs_unscaled, dk, dv)``.

    ``dqs_unscaled`` is the gradient w.r.t. the *pre-scaled* queries with the
    forward's ``scale`` folded back in, i.e. the gradient w.r.t. the original
    (unscaled) q.  Without ``out`` all three results are workspace buffers
    the caller must ``give`` back; with ``out=(dq, dk, dv)`` the results are
    written into the given arrays instead (strided views are fine — e.g.
    head slices of a packed ``(B, T, 3D)`` gradient buffer), which must not
    alias ``qs``/``kh``/``vh``.  ``probs_blocks`` are consumed and returned
    to the pool.

    ``dots`` is the optional FlashAttention-style delta vector of shape
    ``lead + (seq,)``: the softmax-backward row reduction
    ``Σ_k dP_ik · P_ik`` equals ``g_i · ctx_i``, so a caller holding the
    forward's context can hand it in as one thin einsum instead of paying a
    per-block ``(rows, i1)`` reduction here.
    """
    seq = gh.shape[-2]
    blocks = _attn_blocks(seq, causal)
    if out is not None:
        dq, dk, dv = out
    else:
        dq = _WS.take(qs.shape, qs.dtype)
        dk = _WS.take(kh.shape, kh.dtype)
        dv = _WS.take(vh.shape, vh.dtype)
    head_dim = kh.shape[-1]
    lead = kh.shape[:-2]
    # The last row block's key range [0, seq) covers everyone else's, so
    # processing it first lets its dK/dV contributions assign straight into
    # the full output buffers — no zero-fill pass, and the largest block
    # skips the scratch-then-accumulate round trip entirely.
    first = True
    for (i0, i1), probs in zip(reversed(blocks), reversed(probs_blocks)):
        gh_b = gh[..., i0:i1, :]
        dp = _WS.take(probs.shape, probs.dtype)
        np.matmul(gh_b, vh[..., :i1, :].swapaxes(-1, -2), out=dp)
        if first:
            np.matmul(probs.swapaxes(-1, -2), gh_b, out=dv[..., :i1, :])
        else:
            tmp = _WS.take(lead + (i1, head_dim), kh.dtype)
            np.matmul(probs.swapaxes(-1, -2), gh_b, out=tmp)
            dv[..., :i1, :] += tmp
        # Softmax backward in the dp buffer; the einsum row-dot avoids a
        # second (rows, i1) temporary (skipped entirely when the caller
        # supplied the delta vector).
        if dots is not None:
            dot = dots[..., i0:i1]
        else:
            dot = np.einsum("...ij,...ij->...i", dp, probs)
        dp -= dot[..., None]
        dp *= probs
        dqb = dq[..., i0:i1, :]
        np.matmul(dp, kh[..., :i1, :], out=dqb)
        if scale != 1.0:
            dqb *= scale
        if first:
            np.matmul(dp.swapaxes(-1, -2), qs[..., i0:i1, :],
                      out=dk[..., :i1, :])
            first = False
        else:
            np.matmul(dp.swapaxes(-1, -2), qs[..., i0:i1, :], out=tmp)
            dk[..., :i1, :] += tmp
            _WS.give(tmp)
        _WS.give(dp)
        _WS.give(probs)
    return dq, dk, dv


def _probs_bytes(probs_blocks) -> int:
    return sum(p.nbytes for p in probs_blocks)


def _split_heads_into(buf: np.ndarray, a: np.ndarray, batch: int, seq: int,
                      n_heads: int, head_dim: int) -> np.ndarray:
    """Copy ``(B, T, H*Dh)`` data into a ``(B, H, T, Dh)`` workspace buffer.

    One strided copy — the reshape is a view of contiguous ``a`` and the
    transpose only permutes strides.
    """
    np.copyto(buf, a.reshape(batch, seq, n_heads, head_dim).transpose(0, 2, 1, 3))
    return buf


def fused_attention(q: Tensor, k: Tensor, v: Tensor, n_heads: int, *,
                    rope_cos: Optional[np.ndarray] = None,
                    rope_sin: Optional[np.ndarray] = None,
                    causal: bool = True,
                    scale: Optional[float] = None) -> Tensor:
    """Single-node scaled-dot-product attention over projected Q/K/V.

    Parameters
    ----------
    q, k, v:
        Projected activations of shape ``(B, T, D)`` (pre head-split).
    n_heads:
        Number of attention heads; ``D`` must be divisible by it.
    rope_cos, rope_sin:
        Optional RoPE tables of shape ``(T, D // n_heads)``; when given, the
        rotation is applied to Q and K inside the kernel (and transposed in
        the backward).
    causal:
        Apply the standard causal mask (cached per sequence length) with
        row-block tiling that skips the masked upper triangle entirely.
    scale:
        Score scaling; defaults to ``1/sqrt(head_dim)``.  Folded into Q once
        up front rather than spent as a full pass over the score matrix.

    Returns the head-merged context of shape ``(B, T, D)`` as **one**
    autograd node whose backward reuses the attention probabilities saved
    from the forward — no recomputation, no intermediate graph.
    """
    batch, seq, dim = q.shape
    if dim % n_heads != 0:
        raise ValueError(f"dim={dim} must be divisible by n_heads={n_heads}")
    head_dim = dim // n_heads
    if scale is None:
        scale = 1.0 / np.sqrt(head_dim)
    hshape = (batch, n_heads, seq, head_dim)

    def split(a: np.ndarray) -> np.ndarray:
        # (B, T, D) -> (B, H, T, Dh) in a pooled contiguous buffer.
        return _split_heads_into(_WS.take(hshape, a.dtype), a,
                                 batch, seq, n_heads, head_dim)

    def merge(a: np.ndarray) -> np.ndarray:
        # (B, H, T, Dh) -> (B, T, D); the reshape of the transposed view
        # copies into a fresh array (it escapes into the autograd graph).
        return a.transpose(0, 2, 1, 3).reshape(batch, seq, dim)

    with _span("kernels.fused_attention", batch=batch, seq=seq,
               heads=n_heads):
        qs, kh, vh = split(q.data), split(k.data), split(v.data)
        if rope_cos is not None:
            qr = _rope_forward(qs, rope_cos, rope_sin,
                               out=_WS.take(hshape, qs.dtype), ws=_WS)
            _WS.give(qs)
            qs = qr
            kr = _rope_forward(kh, rope_cos, rope_sin,
                               out=_WS.take(hshape, kh.dtype), ws=_WS)
            _WS.give(kh)
            kh = kr
        qs *= scale  # fold the score scaling into the small Q buffer
        ctx_h, probs_blocks = _attn_forward(qs, kh, vh, causal)
        ctx = merge(ctx_h)
        _WS.give(ctx_h)

        requires = q.requires_grad or k.requires_grad or v.requires_grad
        out = Tensor(ctx, requires_grad=requires,
                     _children=(q, k, v) if requires else (),
                     _op="fused_attention")
        # Composed-graph intermediates this node does not materialize: the
        # scale-mul and mask-fill (B,H,T,T) outputs plus the skipped upper
        # triangle, and the 8 RoPE temporaries per rotated tensor.
        saved = 2 * _probs_bytes(probs_blocks)
        if rope_cos is not None:
            saved += 8 * qs.nbytes
        _count("fused_attention", saved)

    if not out.requires_grad:
        for p in probs_blocks:
            _WS.give(p)
        _WS.give(qs)
        _WS.give(kh)
        _WS.give(vh)
        return out

    def _backward() -> None:
        with _span("kernels.fused_attention.backward", batch=batch, seq=seq):
            gh = split(out.grad)
            dqh, dkh, dvh = _attn_backward(gh, qs, kh, vh, probs_blocks,
                                           causal, scale)
            _WS.give(gh)
            if rope_cos is not None:
                dq2 = _rope_backward(dqh, rope_cos, rope_sin,
                                     out=_WS.take(hshape, dqh.dtype), ws=_WS)
                _WS.give(dqh)
                dqh = dq2
                dk2 = _rope_backward(dkh, rope_cos, rope_sin,
                                     out=_WS.take(hshape, dkh.dtype), ws=_WS)
                _WS.give(dkh)
                dkh = dk2
            if q.requires_grad:
                q._accumulate_owned(merge(dqh))
            if k.requires_grad:
                k._accumulate_owned(merge(dkh))
            if v.requires_grad:
                v._accumulate_owned(merge(dvh))
            for buf in (dqh, dkh, dvh, qs, kh, vh):
                _WS.give(buf)

    out._backward = _backward
    return out


def fused_attention_qkv(x: Tensor, wq: Tensor, wk: Tensor, wv: Tensor,
                        n_heads: int, *,
                        rope_cos: Optional[np.ndarray] = None,
                        rope_sin: Optional[np.ndarray] = None,
                        causal: bool = True,
                        scale: Optional[float] = None) -> Tensor:
    """Projections *and* attention as one autograd node.

    Concatenates the three bias-free projection weights so Q, K and V come
    out of a single ``(N, D) @ (D, 3D)`` GEMM, then runs the same blocked
    attention core as :func:`fused_attention`.  The backward mirrors it: the
    three per-tensor gradients are merged into one ``(B, T, 3D)`` buffer,
    giving one GEMM for ``dx`` and one for the stacked weight gradient
    (written at parameter shape through disjoint row views — no per-weight
    unbroadcast or defensive copy).

    Used by :class:`~repro.nn.attention.MultiHeadSelfAttention` when its
    projections are plain bias-free :class:`~repro.nn.layers.Linear` modules;
    wrapped projections (e.g. LoRA adapters) fall back to
    :func:`fused_attention` over separately projected tensors.
    """
    batch, seq, dim = x.shape
    if dim % n_heads != 0:
        raise ValueError(f"dim={dim} must be divisible by n_heads={n_heads}")
    head_dim = dim // n_heads
    if scale is None:
        scale = 1.0 / np.sqrt(head_dim)
    dt = x.data.dtype
    hshape = (batch, n_heads, seq, head_dim)

    with _span("kernels.fused_attention_qkv", batch=batch, seq=seq,
               heads=n_heads):
        w_cat = _WS.take((3 * dim, dim), dt)  # stacked (3D, D) weights
        np.concatenate([wq.data, wk.data, wv.data], axis=0, out=w_cat)
        qkv = _WS.take((batch, seq, 3 * dim), dt)
        # One GEMM projects all three; the (B,T,3,H,Dh) view of the packed
        # buffer makes each third's head split a single strided copy.
        np.matmul(x.data.reshape(-1, dim), w_cat.T,
                  out=qkv.reshape(-1, 3 * dim))
        qkv5 = qkv.reshape(batch, seq, 3, n_heads, head_dim)

        def split(part: int) -> np.ndarray:
            buf = _WS.take(hshape, dt)
            np.copyto(buf, qkv5[:, :, part].transpose(0, 2, 1, 3))
            return buf

        qs0, kh0, vh = split(0), split(1), split(2)
        _WS.give(qkv)  # backward rebuilds its gradient in a fresh buffer
        if rope_cos is not None:
            qs = _rope_forward(qs0, rope_cos, rope_sin,
                               out=_WS.take(hshape, dt), ws=_WS)
            _WS.give(qs0)
            kh = _rope_forward(kh0, rope_cos, rope_sin,
                               out=_WS.take(hshape, dt), ws=_WS)
            _WS.give(kh0)
        else:
            qs, kh = qs0, kh0
        qs *= scale
        ctx_h, probs_blocks = _attn_forward(qs, kh, vh, causal)
        ctx = ctx_h.transpose(0, 2, 1, 3).reshape(batch, seq, dim)
        _WS.give(ctx_h)

        children = (x, wq, wk, wv)
        requires = any(t.requires_grad for t in children)
        out = Tensor(ctx, requires_grad=requires,
                     _children=children if requires else (),
                     _op="fused_attention_qkv")
        # On top of fused_attention's savings, the three separate projection
        # outputs and their three (B, T, D) gradient buffers collapse into
        # the packed qkv array.
        saved = 2 * _probs_bytes(probs_blocks) + 2 * qkv.nbytes
        if rope_cos is not None:
            saved += 8 * qs.nbytes
        _count("fused_attention_qkv", saved)

    if not out.requires_grad:
        for p in probs_blocks:
            _WS.give(p)
        for buf in (qs, kh, vh, w_cat):
            _WS.give(buf)
        return out

    def _backward() -> None:
        with _span("kernels.fused_attention_qkv.backward", batch=batch,
                   seq=seq):
            gh = _split_heads_into(_WS.take(hshape, dt), out.grad,
                                   batch, seq, n_heads, head_dim)
            dqh, dkh, dvh = _attn_backward(gh, qs, kh, vh, probs_blocks,
                                           causal, scale)
            _WS.give(gh)
            if rope_cos is not None:
                dq2 = _rope_backward(dqh, rope_cos, rope_sin,
                                     out=_WS.take(hshape, dt), ws=_WS)
                _WS.give(dqh)
                dqh = dq2
                dk2 = _rope_backward(dkh, rope_cos, rope_sin,
                                     out=_WS.take(hshape, dt), ws=_WS)
                _WS.give(dkh)
                dkh = dk2
            dqkv = _WS.take((batch, seq, 3 * dim), dt)
            dqkv5 = dqkv.reshape(batch, seq, 3, n_heads, head_dim)
            for part, dpart in enumerate((dqh, dkh, dvh)):
                np.copyto(dqkv5[:, :, part], dpart.transpose(0, 2, 1, 3))
                _WS.give(dpart)
            g2 = dqkv.reshape(-1, 3 * dim)
            if x.requires_grad:
                x._accumulate_owned((g2 @ w_cat).reshape(batch, seq, dim))
            if wq.requires_grad or wk.requires_grad or wv.requires_grad:
                dw_cat = g2.T @ x.data.reshape(-1, dim)  # (3D, D), one GEMM
                # Row slices of dw_cat are disjoint, so handing out views is
                # safe for later in-place accumulation.
                wq._accumulate_owned(dw_cat[:dim])
                wk._accumulate_owned(dw_cat[dim:2 * dim])
                wv._accumulate_owned(dw_cat[2 * dim:])
            for buf in (dqkv, qs, kh, vh, w_cat):
                _WS.give(buf)

    out._backward = _backward
    return out


def attention_nograd(q: np.ndarray, k: np.ndarray, v: np.ndarray, *,
                     scale: Optional[float] = None,
                     causal_tail: int = 0,
                     invalid: Optional[np.ndarray] = None) -> np.ndarray:
    """No-grad fused attention forward for the inference engines.

    ``q`` is ``(..., Tq, Dh)`` against keys/values ``(..., Tk, Dh)`` with
    ``Tk >= Tq``.  ``causal_tail = t`` applies the causal pattern to the last
    ``t`` key columns (the engines' prefill shape: the earlier KV-cache
    prefix is fully visible, only the new block is triangular).  ``invalid``
    is an optional boolean mask (broadcastable to the score shape) of
    positions to exclude, e.g. ragged batch padding in fused decode.
    Score masking, softmax and normalisation run in one buffer.
    """
    if scale is None:
        scale = 1.0 / np.sqrt(q.shape[-1])
    scores = q @ k.swapaxes(-1, -2)
    scores *= scale
    if causal_tail > 1:
        np.copyto(scores[..., -causal_tail:], MASK_VALUE,
                  where=causal_mask(causal_tail))
    if invalid is not None:
        np.copyto(scores, MASK_VALUE, where=invalid)
    return _softmax_inplace(scores) @ v


# ---------------------------------------------------------------------------
# int8 weight quantization (no-grad serve path)
# ---------------------------------------------------------------------------
#: Key suffix marking a per-channel scale vector in a quantized state dict.
INT8_SCALE_SUFFIX = "::scale"

#: 2-D weights that stay fp32 under :func:`quantize_state_dict`.  The token
#: embedding is a gather table, not a matmul operand, so quantizing it buys
#: no fused-kernel win and costs accuracy at the model's very first op.
_QUANT_SKIP = ("tok_emb.weight",)


def quantize_int8(weight: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Symmetric per-output-channel int8 quantization of a ``(out, in)`` matrix.

    Each output row gets its own scale ``max(|row|) / 127`` so rows with
    small dynamic range keep precision (per-tensor scaling would burn the
    whole int8 budget on the largest row).  All-zero rows get scale 1 so the
    division is defined and dequantizes back to exact zeros.  Returns
    ``(q, scales)`` with ``q`` int8 of the same shape and ``scales`` a
    float vector of length ``out``.

    The map is a near-projection: ``quantize(dequantize(q, s))`` recovers
    ``q`` exactly (``max|q| == 127`` whenever the row is non-zero, so the
    recovered scale is within 1 ulp of ``s`` and the re-rounded integers
    cannot move).  The fleet path does not even rely on that: quantized
    state dicts are shared and consumed verbatim, never re-quantized.
    """
    if weight.ndim != 2:
        raise ValueError(f"expected a 2-D weight, got shape {weight.shape}")
    scales = np.abs(weight).max(axis=1) / np.float64(127.0)
    scales = np.where(scales == 0.0, 1.0, scales).astype(weight.dtype)
    q = np.rint(weight / scales[:, None]).astype(np.int8)
    return q, scales


def dequantize_int8(q: np.ndarray, scales: np.ndarray) -> np.ndarray:
    """Reconstruct the fp matrix ``q * scales[:, None]`` (the serve oracle)."""
    return q.astype(scales.dtype) * scales[:, None]


def matmul_int8_nograd(x: np.ndarray, q: np.ndarray,
                       scales: np.ndarray) -> np.ndarray:
    """Fused dequant-matmul: ``x @ dequantize(q, scales).T`` without ever
    materialising the fp32 weight matrix persistently.

    The int8 matrix is cast into a pooled scratch buffer (steady-state
    decode reuses the same buffer, no allocator traffic), the GEMM runs
    against it, and the per-channel scales are applied to the *output* —
    ``(x @ qᵀ) · s`` instead of ``x @ (q · s)ᵀ`` — which touches ``(B, out)``
    floats instead of ``(out, in)``.  The two orderings are algebraically
    identical and agree to float rounding; token-level parity with the
    dequantized dense oracle is what the differential suite asserts.
    """
    with _span("kernels.matmul_int8", shape=tuple(q.shape)):
        dtype = scales.dtype
        wf = _WS.take(q.shape, dtype)
        np.copyto(wf, q, casting="safe")
        out = x @ wf.T
        out *= scales
        _WS.give(wf)
        # Saved bytes: the persistent fp32 copy a dequantize-ahead-of-time
        # path would keep alive (3 of the 4 bytes per weight element).
        _count("matmul_int8", 3 * q.size)
    return out


def is_quantized_state(state: dict) -> bool:
    """Whether a state dict came from :func:`quantize_state_dict`."""
    return any(key.endswith(INT8_SCALE_SUFFIX) for key in state)


def quantize_state_dict(state: dict) -> dict:
    """Quantize every 2-D matmul weight of a model state dict to int8.

    Each quantized entry ``name`` becomes an int8 array plus a companion
    ``name + "::scale"`` float vector; norms (1-D) and the token embedding
    pass through as copies, so the result never aliases ``state`` — an int8
    engine owns its weights even when handed a model's live parameter
    arrays.  The result is what an int8 fleet builds once, before forking,
    and every replica inherits — roughly a quarter of the fp32 footprint —
    and what :class:`~repro.serve.engine.BatchedEngine` consumes directly in
    int8 mode, so replicas never re-quantize (re-quantization is exact,
    but using the shared ``(q, s)`` verbatim makes parity structural).
    """
    if is_quantized_state(state):
        return state
    out = {}
    for name, tensor in state.items():
        if tensor.ndim == 2 and name.endswith("weight") \
                and name not in _QUANT_SKIP:
            q, scales = quantize_int8(tensor)
            out[name] = q
            out[name + INT8_SCALE_SUFFIX] = scales
        else:
            out[name] = np.array(tensor, copy=True)
    return out


def dequantize_state_dict(state: dict) -> dict:
    """Invert :func:`quantize_state_dict` into a plain fp state dict.

    This is the *oracle model* for int8 serving: an engine built from the
    dequantized weights in exact mode defines the token streams the fused
    int8 path must reproduce byte-for-byte.
    """
    out = {}
    for name, tensor in state.items():
        if name.endswith(INT8_SCALE_SUFFIX):
            continue
        scale = state.get(name + INT8_SCALE_SUFFIX)
        out[name] = tensor if scale is None else dequantize_int8(tensor, scale)
    return out


# ---------------------------------------------------------------------------
# fused RMSNorm
# ---------------------------------------------------------------------------
def fused_rms_norm(x: Tensor, weight: Tensor, eps: float = 1e-6) -> Tensor:
    """``x / sqrt(mean(x², -1) + eps) * weight`` as one autograd node.

    Saves only the per-row inverse RMS ``r`` for the backward (the composed
    path keeps ~5 full-size intermediates alive in the graph).
    """
    with _span("kernels.fused_rms_norm", shape=tuple(x.shape)):
        xd, wd = x.data, weight.data
        ms = np.mean(np.square(xd), axis=-1, keepdims=True)
        ms += eps
        r = 1.0 / np.sqrt(ms)  # (..., 1)
        y = xd * r
        y *= wd
        requires = x.requires_grad or weight.requires_grad
        out = Tensor(y, requires_grad=requires,
                     _children=(x, weight) if requires else (),
                     _op="fused_rms_norm")
        _count("fused_rms_norm", 3 * xd.nbytes)

    if not out.requires_grad:
        return out

    def _backward() -> None:
        g = out.grad
        if weight.requires_grad:
            gw_sum = (g * x.data * r).reshape(-1, wd.shape[-1]).sum(axis=0)
            weight._accumulate_owned(gw_sum)
        if x.requires_grad:
            gw = g * wd
            inner = np.mean(gw * x.data, axis=-1, keepdims=True)
            dx = gw
            dx *= r
            dx -= x.data * (r ** 3 * inner)
            x._accumulate_owned(dx)

    out._backward = _backward
    return out


# ---------------------------------------------------------------------------
# fused linear projection
# ---------------------------------------------------------------------------
def fused_linear(x: Tensor, weight: Tensor,
                 bias: Optional[Tensor] = None) -> Tensor:
    """``x @ weight.T (+ bias)`` as one autograd node.

    The composed expression records a transpose node, a matmul node and (with
    bias) an add node; its weight gradient goes through a batched
    ``(B, in, out)`` temporary, an unbroadcast sum and a defensive copy.  Here
    the backward collapses the batch dimensions first — one ``(out, N)`` ×
    ``(N, in)`` GEMM writes the weight gradient directly at parameter shape —
    and hands freshly-allocated buffers straight to the accumulator.

    No span is recorded (this is the highest-frequency, cheapest kernel); the
    call/saved-bytes counters still tick when an observer is attached.
    """
    xd, wd = x.data, weight.data
    y = xd @ wd.T
    if bias is not None:
        y += bias.data
    children = (x, weight) if bias is None else (x, weight, bias)
    requires = any(t.requires_grad for t in children)
    out = Tensor(y, requires_grad=requires,
                 _children=children if requires else (),
                 _op="fused_linear")
    # Composed-graph temporaries avoided: the batched weight-grad buffer
    # (leading batch dims × weight size) and, with bias, the add output.
    saved = 0
    if xd.ndim > 2:
        saved += int(np.prod(xd.shape[:-2])) * wd.size * xd.itemsize
    if bias is not None:
        saved += y.nbytes
    _count("fused_linear", saved)

    if not out.requires_grad:
        return out

    def _backward() -> None:
        g = out.grad
        if x.requires_grad:
            x._accumulate_owned(g @ wd)
        need_bias = bias is not None and bias.requires_grad
        if weight.requires_grad or need_bias:
            g2 = g.reshape(-1, wd.shape[0])
            if weight.requires_grad:
                weight._accumulate_owned(g2.T @ xd.reshape(-1, wd.shape[1]))
            if need_bias:
                bias._accumulate_owned(g2.sum(axis=0))

    out._backward = _backward
    return out


# ---------------------------------------------------------------------------
# fused SwiGLU gate
# ---------------------------------------------------------------------------
def fused_swiglu(gate: Tensor, up: Tensor) -> Tensor:
    """``silu(gate) * up`` as one autograd node (the SwiGLU MLP gate).

    The composed path records a silu node and a mul node, each materializing
    a full ``(B, T, hidden)`` output plus two backward temporaries; the fused
    node saves only the sigmoid activations it needs for both factors of the
    backward:

    ``dgate = g ⊙ up ⊙ σ(gate) ⊙ (1 + gate ⊙ (1 − σ(gate)))``,
    ``dup = g ⊙ gate ⊙ σ(gate)``.
    """
    with _span("kernels.fused_swiglu", shape=tuple(gate.shape)):
        gd, ud = gate.data, up.data
        sig = 1.0 / (1.0 + np.exp(-gd))
        silu_g = gd * sig
        y = silu_g * ud
        requires = gate.requires_grad or up.requires_grad
        out = Tensor(y, requires_grad=requires,
                     _children=(gate, up) if requires else (),
                     _op="fused_swiglu")
        _count("fused_swiglu", 2 * gd.nbytes)

    if not out.requires_grad:
        return out

    def _backward() -> None:
        g = out.grad
        if gate.requires_grad:
            local = gd * (1.0 - sig)
            local += 1.0
            local *= sig
            local *= ud
            local *= g
            gate._accumulate_owned(local)
        if up.requires_grad:
            dup = g * silu_g
            up._accumulate_owned(dup)

    out._backward = _backward
    return out


def fused_gateup(x: Tensor, w_gate: Tensor, w_up: Tensor) -> Tensor:
    """Gate/up projections plus the SwiGLU gate as one autograd node.

    Computes ``silu(x @ w_gate.T) * (x @ w_up.T)`` with both projections
    packed into a single ``(N, D) @ (D, 2H)`` GEMM; the backward likewise
    writes both local gradients into one ``(B, T, 2H)`` buffer, yielding one
    GEMM for ``dx`` and one for the stacked weight gradient.

    Used by :class:`~repro.nn.layers.FeedForward` when its projections are
    plain bias-free :class:`~repro.nn.layers.Linear` modules; wrapped
    projections (e.g. LoRA) fall back to :func:`fused_swiglu` over separately
    projected tensors.
    """
    dim = x.shape[-1]
    hidden = w_gate.shape[0]
    dt = x.data.dtype
    lead = tuple(x.shape[:-1])
    with _span("kernels.fused_gateup", shape=tuple(x.shape), hidden=hidden):
        w_cat = _WS.take((2 * hidden, dim), dt)  # stacked (2H, D) weights
        np.concatenate([w_gate.data, w_up.data], axis=0, out=w_cat)
        gu = _WS.take(lead + (2 * hidden,), dt)
        # One GEMM for both projections.
        np.matmul(x.data.reshape(-1, dim), w_cat.T,
                  out=gu.reshape(-1, 2 * hidden))
        gd = gu[..., :hidden]
        ud = gu[..., hidden:]
        sig = _WS.take(lead + (hidden,), dt)
        np.negative(gd, out=sig)
        np.exp(sig, out=sig)
        sig += 1.0
        np.reciprocal(sig, out=sig)  # sigmoid(gate), saved for the backward
        silu_g = _WS.take(lead + (hidden,), dt)
        np.multiply(gd, sig, out=silu_g)
        y = silu_g * ud
        children = (x, w_gate, w_up)
        requires = any(t.requires_grad for t in children)
        out = Tensor(y, requires_grad=requires,
                     _children=children if requires else (),
                     _op="fused_gateup")
        # The separate gate/up projection outputs, the silu node output and
        # the two (B, T, H) gradient temporaries never materialize.
        _count("fused_gateup", gu.nbytes + 3 * gd.nbytes)

    if not out.requires_grad:
        for buf in (gu, sig, silu_g, w_cat):
            _WS.give(buf)
        return out

    def _backward() -> None:
        with _span("kernels.fused_gateup.backward", shape=tuple(x.shape)):
            g = out.grad
            # dgate = g * up * sig * (1 + gate * (1 - sig)), built in a
            # contiguous scratch buffer (writing through the strided dgu
            # half-views on every pass costs ~2x memory bandwidth).
            dg = _WS.take(lead + (hidden,), dt)
            np.subtract(1.0, sig, out=dg)
            dg *= gd
            dg += 1.0
            dg *= sig
            dg *= ud
            dg *= g
            dgu = _WS.take(lead + (2 * hidden,), dt)
            dgu[..., :hidden] = dg
            np.multiply(g, silu_g, out=dg)  # reuse the scratch for dup
            dgu[..., hidden:] = dg
            g2 = dgu.reshape(-1, 2 * hidden)
            if x.requires_grad:
                x._accumulate_owned((g2 @ w_cat).reshape(x.shape))
            if w_gate.requires_grad or w_up.requires_grad:
                dw_cat = g2.T @ x.data.reshape(-1, dim)  # (2H, D), one GEMM
                w_gate._accumulate_owned(dw_cat[:hidden])
                w_up._accumulate_owned(dw_cat[hidden:])
            for buf in (dg, dgu, gu, sig, silu_g, w_cat):
                _WS.give(buf)

    out._backward = _backward
    return out


# ---------------------------------------------------------------------------
# sublayer mega-kernels: pre-norm + projections + core + residual in one node
# ---------------------------------------------------------------------------
def _rms_fwd(xd: np.ndarray, wd: np.ndarray, eps: float):
    """RMSNorm forward over raw arrays: returns ``(r, xn)``.

    ``r`` is the per-row inverse RMS ``(..., 1)`` (small, heap-allocated);
    ``xn = x * r * w`` lives in a workspace buffer the caller owns.
    """
    dim = xd.shape[-1]
    ms = np.einsum("...d,...d->...", xd, xd)
    ms /= dim
    ms += eps
    r = (1.0 / np.sqrt(ms))[..., None]
    xn = _WS.take(xd.shape, xd.dtype)
    np.multiply(xd, r, out=xn)
    xn *= wd
    return r, xn


def _rms_bwd(dxn: np.ndarray, xd: np.ndarray, r: np.ndarray, wd: np.ndarray):
    """Backward of ``xn = x * r * w`` given upstream ``dxn``.

    Returns ``(dx, dnw)`` — ``dx`` freshly allocated (it escapes into the
    autograd accumulator), ``dnw`` the weight gradient row sum.  ``dxn`` is
    clobbered (scaled by ``w`` in place); the caller gives it back afterwards.
    """
    dim = xd.shape[-1]
    tmp = _WS.take(xd.shape, xd.dtype)
    np.multiply(xd, r, out=tmp)
    tmp *= dxn
    dnw = tmp.reshape(-1, dim).sum(axis=0)
    dxn *= wd  # gw = g ⊙ w
    inner = np.einsum("...d,...d->...", dxn, xd)[..., None]
    inner /= dim
    dx = np.multiply(dxn, r)
    inner *= r
    inner *= r
    inner *= r  # r³ · mean(gw ⊙ x)
    np.multiply(xd, inner, out=tmp)
    dx -= tmp
    _WS.give(tmp)
    return dx, dnw


def _rms_fwd_pre(xd: np.ndarray, eps: float):
    """Weight-free RMSNorm forward: returns ``(r, xh)`` with ``xh = x * r``.

    The sublayer mega-kernels fold the norm weight into the columns of the
    packed projection matrix instead of scaling the activations, so the
    normalised ``xh`` (not ``xh * w``) is what feeds the GEMM and what the
    weight-gradient GEMM reads back.
    """
    dim = xd.shape[-1]
    ms = np.einsum("...d,...d->...", xd, xd)
    ms /= dim
    ms += eps
    r = (1.0 / np.sqrt(ms))[..., None]
    xh = _WS.take(xd.shape, xd.dtype)
    np.multiply(xd, r, out=xh)
    return r, xh


def _rms_bwd_pre(dxh: np.ndarray, xd: np.ndarray, r: np.ndarray):
    """Backward of ``xh = x * r`` given upstream ``dxh``; returns fresh ``dx``.

    ``dx = r·dxh − x·r³·mean(dxh ⊙ x)``.  The norm-weight gradient is not
    produced here — with the weight folded into the projection matrix it
    falls out of that matrix's gradient instead.
    """
    dim = xd.shape[-1]
    inner = np.einsum("...d,...d->...", dxh, xd)[..., None]
    inner /= dim
    dx = np.multiply(dxh, r)
    inner *= r
    inner *= r
    inner *= r
    tmp = _WS.take(xd.shape, xd.dtype)
    np.multiply(xd, inner, out=tmp)
    dx -= tmp
    _WS.give(tmp)
    return dx


#: Tiled full-width RoPE tables keyed by the cast table backing array: the
#: per-head ``(T, Dh)`` cos/sin pair expands to ``(T, H·Dh)`` with the
#: rotate-half sign folded into sin, so the rotation runs as three wide
#: elementwise passes over ``(B, T, D)`` slices instead of four half-width
#: strided passes per head layout.
_ROPE_TILE_CACHE: "OrderedDict[tuple, tuple]" = OrderedDict()
_ROPE_TILE_MAX = 8


def _rope_tiled(cos: np.ndarray, sin: np.ndarray, n_heads: int):
    """Return ``(cos_t, sin_t, sin_bt)`` tiled to ``(T, H·Dh)``.

    ``sin_t`` carries the forward rotate-half signs ``[−sin₁, +sin₂]`` per
    head; ``sin_bt = −sin_t`` is the transpose (backward) variant.  Cached
    per (table identity, seq, heads) — the cast tables inside
    :class:`~repro.nn.attention.RopeTable` are long-lived, and the cache
    entry keeps the backing array alive so ``id`` cannot be recycled.
    """
    base_c = cos.base if cos.base is not None else cos
    key = (id(base_c), cos.shape[0], cos.shape[1], n_heads, cos.dtype.str)
    hit = _ROPE_TILE_CACHE.get(key)
    if hit is not None:
        _ROPE_TILE_CACHE.move_to_end(key)
        return hit[1], hit[2], hit[3]
    half = cos.shape[1] // 2
    cos_t = np.tile(cos, (1, n_heads))
    sin_signed = np.concatenate([-sin[:, :half], sin[:, half:]], axis=1)
    sin_t = np.tile(sin_signed, (1, n_heads))
    sin_bt = -sin_t
    for arr in (cos_t, sin_t, sin_bt):
        arr.setflags(write=False)
    _ROPE_TILE_CACHE[key] = (base_c, cos_t, sin_t, sin_bt)
    if len(_ROPE_TILE_CACHE) > _ROPE_TILE_MAX:
        _ROPE_TILE_CACHE.popitem(last=False)
    return cos_t, sin_t, sin_bt


def _rope_flat(src: np.ndarray, cos_t: np.ndarray, sin_t: np.ndarray,
               out: np.ndarray, tmp: np.ndarray, n_heads: int,
               head_dim: int) -> None:
    """Rotate ``(B, T, D)``-layout heads with tiled tables into ``out``.

    ``src`` may be a strided slice (e.g. the Q rows of the packed QKV
    buffer); ``out`` and ``tmp`` are contiguous ``(B, T, D)`` buffers.  With
    ``sin_bt`` as the table and ``out is src`` permitted via ``tmp`` holding
    the cross terms first, the same three passes implement the backward.
    """
    b, t, d = out.shape
    half = head_dim // 2
    s5 = src.reshape(b, t, n_heads, 2, half)
    np.multiply(s5[..., ::-1, :], sin_t.reshape(t, n_heads, 2, half),
                out=tmp.reshape(b, t, n_heads, 2, half))
    np.multiply(src, cos_t, out=out)
    out += tmp


def fused_attn_block(x: Tensor, norm_w: Tensor, wq: Tensor, wk: Tensor,
                     wv: Tensor, wo: Tensor, n_heads: int, *,
                     rope_cos: Optional[np.ndarray] = None,
                     rope_sin: Optional[np.ndarray] = None,
                     causal: bool = True,
                     scale: Optional[float] = None,
                     eps: float = 1e-6) -> Tensor:
    """Whole pre-norm attention sublayer — ``x + O(attn(norm(x)))`` — as one
    autograd node.

    Fuses, in order: RMSNorm (its weight folded into the projection columns,
    so the normalised activations are never re-scaled), the packed QKV GEMM
    (score scaling folded into the stacked Q rows), RoPE applied in the flat
    ``(B, T, D)`` layout with tiled full-width tables, the blocked attention
    core, the output projection, and the residual add.  The V head view is a
    strided slice of the packed ``(B, T, 3D)`` buffer — BLAS consumes it
    directly — and the backward writes dQ/dK/dV straight into head-strided
    views of the packed gradient buffer, so no head-layout copies remain
    on either pass.  The softmax-backward row reduction uses the
    FlashAttention delta identity ``Σ_k dP·P = g·ctx`` (one einsum per
    sublayer instead of one per row block).  Per sublayer this replaces the
    ~3 node / 4 escape-buffer chain (norm → attention node → o-projection →
    residual add) with one node and one escaping output.

    Requires plain bias-free projection weights; callers with wrapped
    projections (e.g. LoRA) use the finer-grained kernels instead.
    """
    batch, seq, dim = x.shape
    if dim % n_heads != 0:
        raise ValueError(f"dim={dim} must be divisible by n_heads={n_heads}")
    head_dim = dim // n_heads
    if scale is None:
        scale = 1.0 / np.sqrt(head_dim)
    dt = x.data.dtype
    xd = x.data

    with _span("kernels.fused_attn_block", batch=batch, seq=seq,
               heads=n_heads):
        r, xh = _rms_fwd_pre(xd, eps)
        w_cat = _WS.take((3 * dim, dim), dt)
        np.concatenate([wq.data, wk.data, wv.data], axis=0, out=w_cat)
        w_cat[:dim] *= scale  # fold score scaling into the stacked Q rows
        w_cat *= norm_w.data  # fold the norm weight into every column
        qkv = _WS.take((batch, seq, 3 * dim), dt)
        np.matmul(xh.reshape(-1, dim), w_cat.T, out=qkv.reshape(-1, 3 * dim))
        qkv5 = qkv.reshape(batch, seq, 3, n_heads, head_dim)
        qs = qkv5[:, :, 0].transpose(0, 2, 1, 3)  # strided (B, H, T, Dh)
        kh = qkv5[:, :, 1].transpose(0, 2, 1, 3)  # views of the packed buf
        vh = qkv5[:, :, 2].transpose(0, 2, 1, 3)
        if rope_cos is not None:
            # The pre-rotation q/k values are dead once rotated (the weight
            # gradient reads xh, not qkv), so the rotation runs in place on
            # the packed buffer's flat q/k slices.
            cos_t, sin_t, sin_bt = _rope_tiled(rope_cos, rope_sin, n_heads)
            tmp = _WS.take((batch, seq, dim), dt)
            _rope_flat(qkv[..., :dim], cos_t, sin_t, qkv[..., :dim], tmp,
                       n_heads, head_dim)
            _rope_flat(qkv[..., dim:2 * dim], cos_t, sin_t,
                       qkv[..., dim:2 * dim], tmp, n_heads, head_dim)
            _WS.give(tmp)
        ctxm = _WS.take((batch, seq, dim), dt)
        _, probs_blocks = _attn_forward(
            qs, kh, vh, causal,
            out=ctxm.reshape(batch, seq, n_heads, head_dim).transpose(0, 2, 1, 3))
        y = np.matmul(ctxm.reshape(-1, dim), wo.data.T).reshape(batch, seq, dim)
        y += xd  # residual folded into the node

        children = (x, norm_w, wq, wk, wv, wo)
        requires = any(t.requires_grad for t in children)
        out = Tensor(y, requires_grad=requires,
                     _children=children if requires else (),
                     _op="fused_attn_block")
        # vs. the composed sublayer: probs upper triangle + RoPE temporaries
        # (as in fused_attention_qkv) plus the norm output, its gradient, the
        # context gradient and the residual-add output never escape.
        saved = 2 * _probs_bytes(probs_blocks) + 2 * qkv.nbytes + 4 * y.nbytes
        if rope_cos is not None:
            saved += 8 * batch * seq * dim * y.itemsize
        _count("fused_attn_block", saved)

    if not out.requires_grad:
        for p in probs_blocks:
            _WS.give(p)
        for buf in (qkv, xh, ctxm, w_cat):
            _WS.give(buf)
        return out

    def _backward() -> None:
        with _span("kernels.fused_attn_block.backward", batch=batch, seq=seq):
            g = out.grad
            g2 = g.reshape(-1, dim)
            dctxm = _WS.take((batch, seq, dim), dt)
            np.matmul(g2, wo.data, out=dctxm.reshape(-1, dim))
            # FlashAttention delta: the softmax-backward row dot
            # Σ_k dP_ik·P_ik collapses to g_i·ctx_i, computable per head
            # from the merged context before it is released.
            dots = np.einsum("bthd,bthd->bht",
                             dctxm.reshape(batch, seq, n_heads, head_dim),
                             ctxm.reshape(batch, seq, n_heads, head_dim))
            if wo.requires_grad:
                wo._accumulate_owned(g2.T @ ctxm.reshape(-1, dim))
            _WS.give(ctxm)
            gh = dctxm.reshape(batch, seq, n_heads,
                               head_dim).transpose(0, 2, 1, 3)
            dqkv = _WS.take((batch, seq, 3 * dim), dt)
            dqkv5 = dqkv.reshape(batch, seq, 3, n_heads, head_dim)
            _attn_backward(gh, qs, kh, vh, probs_blocks, causal, 1.0,
                           dots=dots,
                           out=(dqkv5[:, :, 0].transpose(0, 2, 1, 3),
                                dqkv5[:, :, 1].transpose(0, 2, 1, 3),
                                dqkv5[:, :, 2].transpose(0, 2, 1, 3)))
            _WS.give(dctxm)
            if rope_cos is not None:
                # Transposed rotation applied in place on the packed q/k
                # gradient slices (the cross terms are buffered first).
                tmp = _WS.take((batch, seq, dim), dt)
                _rope_flat(dqkv[..., :dim], cos_t, sin_bt, dqkv[..., :dim],
                           tmp, n_heads, head_dim)
                _rope_flat(dqkv[..., dim:2 * dim], cos_t, sin_bt,
                           dqkv[..., dim:2 * dim], tmp, n_heads, head_dim)
                _WS.give(tmp)
            _WS.give(qkv)
            gq2 = dqkv.reshape(-1, 3 * dim)
            dxh = _WS.take((batch, seq, dim), dt)
            np.matmul(gq2, w_cat, out=dxh.reshape(-1, dim))
            if (wq.requires_grad or wk.requires_grad or wv.requires_grad
                    or norm_w.requires_grad):
                dw_s = gq2.T @ xh.reshape(-1, dim)  # (3D, D), one GEMM
                if norm_w.requires_grad:
                    # Chain through the folded columns: with
                    # Ws[i,c] = s_i·nw_c·W[i,c], dnw_c = Σ_i dWs[i,c]·s_i·W[i,c].
                    dnw = np.einsum("rc,rc->c", dw_s[:dim], wq.data)
                    dnw *= scale
                    dnw += np.einsum("rc,rc->c", dw_s[dim:2 * dim], wk.data)
                    dnw += np.einsum("rc,rc->c", dw_s[2 * dim:], wv.data)
                    norm_w._accumulate_owned(dnw)
                dw_s *= norm_w.data  # un-fold the column norm weight
                dw_s[:dim] *= scale  # un-fold the Q-row scaling
                if wq.requires_grad:
                    wq._accumulate_owned(dw_s[:dim])
                if wk.requires_grad:
                    wk._accumulate_owned(dw_s[dim:2 * dim])
                if wv.requires_grad:
                    wv._accumulate_owned(dw_s[2 * dim:])
            _WS.give(dqkv)
            _WS.give(w_cat)
            dx = _rms_bwd_pre(dxh, xd, r)
            _WS.give(dxh)
            _WS.give(xh)
            if x.requires_grad:
                dx += g  # residual branch
                x._accumulate_owned(dx)

    out._backward = _backward
    return out


def fused_mlp_block(x: Tensor, norm_w: Tensor, w_gate: Tensor, w_up: Tensor,
                    w_down: Tensor, *, eps: float = 1e-6) -> Tensor:
    """Whole pre-norm MLP sublayer — ``x + down(silu(gate(n)) * up(n))`` with
    ``n = norm(x)`` — as one autograd node.

    Fuses the RMSNorm (its weight folded into the packed projection columns),
    the packed gate/up GEMM, the SwiGLU gate, the down projection and the
    residual add; every intermediate lives in a workspace buffer, so the
    sublayer's only escaping allocations are its output and the weight
    gradients.
    """
    batch, seq, dim = x.shape
    hidden = w_gate.shape[0]
    dt = x.data.dtype
    lead = (batch, seq)
    xd = x.data

    with _span("kernels.fused_mlp_block", shape=tuple(x.shape),
               hidden=hidden):
        r, xh = _rms_fwd_pre(xd, eps)
        w_cat = _WS.take((2 * hidden, dim), dt)
        np.concatenate([w_gate.data, w_up.data], axis=0, out=w_cat)
        w_cat *= norm_w.data  # fold the norm weight into every column
        gu = _WS.take(lead + (2 * hidden,), dt)
        np.matmul(xh.reshape(-1, dim), w_cat.T, out=gu.reshape(-1, 2 * hidden))
        gd = gu[..., :hidden]
        ud = gu[..., hidden:]
        sig = _WS.take(lead + (hidden,), dt)
        np.negative(gd, out=sig)
        np.exp(sig, out=sig)
        sig += 1.0
        np.reciprocal(sig, out=sig)  # sigmoid(gate)
        silu_g = _WS.take(lead + (hidden,), dt)
        np.multiply(gd, sig, out=silu_g)
        hmid = _WS.take(lead + (hidden,), dt)
        np.multiply(silu_g, ud, out=hmid)
        # Precompute the gate-gradient factor dfac = up·silu'(gate) =
        # up·(sig + silu(gate)·(1 − sig)) while up/sig are still hot: the
        # backward's whole gate chain collapses to one multiply by dh, and
        # neither the packed gate/up buffer nor sig needs to survive the
        # forward.
        dfac = _WS.take(lead + (hidden,), dt)
        np.multiply(silu_g, sig, out=dfac)
        np.subtract(silu_g, dfac, out=dfac)
        dfac += sig
        dfac *= ud
        _WS.give(sig)
        _WS.give(gu)
        y = np.matmul(hmid.reshape(-1, hidden),
                      w_down.data.T).reshape(batch, seq, dim)
        y += xd  # residual folded into the node

        children = (x, norm_w, w_gate, w_up, w_down)
        requires = any(t.requires_grad for t in children)
        out = Tensor(y, requires_grad=requires,
                     _children=children if requires else (),
                     _op="fused_mlp_block")
        # vs. the composed sublayer: gate/up/silu/mul outputs and their
        # gradients plus the norm output/grad and residual-add output.
        _count("fused_mlp_block", 2 * gu.nbytes + 4 * gd.nbytes + 4 * y.nbytes)

    if not out.requires_grad:
        for buf in (dfac, silu_g, hmid, xh, w_cat):
            _WS.give(buf)
        return out

    def _backward() -> None:
        with _span("kernels.fused_mlp_block.backward", shape=tuple(x.shape)):
            g = out.grad
            g2 = g.reshape(-1, dim)
            dh = _WS.take(lead + (hidden,), dt)
            np.matmul(g2, w_down.data, out=dh.reshape(-1, hidden))
            if w_down.requires_grad:
                w_down._accumulate_owned(g2.T @ hmid.reshape(-1, hidden))
            _WS.give(hmid)
            # dgate = dh·dfac (factor precomputed in the forward) and
            # dup = dh·silu(gate), each written straight into its half of
            # the packed gradient buffer.
            dgu = _WS.take(lead + (2 * hidden,), dt)
            np.multiply(dh, dfac, out=dgu[..., :hidden])
            np.multiply(dh, silu_g, out=dgu[..., hidden:])
            for buf in (dh, dfac, silu_g):
                _WS.give(buf)
            gq2 = dgu.reshape(-1, 2 * hidden)
            dxh = _WS.take(lead + (dim,), dt)
            np.matmul(gq2, w_cat, out=dxh.reshape(-1, dim))
            if (w_gate.requires_grad or w_up.requires_grad
                    or norm_w.requires_grad):
                dw_s = gq2.T @ xh.reshape(-1, dim)  # (2H, D), one GEMM
                if norm_w.requires_grad:
                    dnw = np.einsum("rc,rc->c", dw_s[:hidden], w_gate.data)
                    dnw += np.einsum("rc,rc->c", dw_s[hidden:], w_up.data)
                    norm_w._accumulate_owned(dnw)
                dw_s *= norm_w.data  # un-fold the column norm weight
                if w_gate.requires_grad:
                    w_gate._accumulate_owned(dw_s[:hidden])
                if w_up.requires_grad:
                    w_up._accumulate_owned(dw_s[hidden:])
            _WS.give(dgu)
            _WS.give(w_cat)
            dx = _rms_bwd_pre(dxh, xd, r)
            _WS.give(dxh)
            _WS.give(xh)
            if x.requires_grad:
                dx += g  # residual branch
                x._accumulate_owned(dx)

    out._backward = _backward
    return out


# ---------------------------------------------------------------------------
# fused cross-entropy
# ---------------------------------------------------------------------------
def fused_cross_entropy(logits: Tensor, targets: np.ndarray,
                        ignore_index: Optional[int] = None) -> Tensor:
    """Mean token cross-entropy as one autograd node with O(N) saved state.

    Identical semantics to the composed :func:`repro.nn.functional.cross_entropy`
    (including ``ignore_index`` masking and the all-masked-batch guard), but
    the forward retains only the per-row ``max + logsumexp`` vector: the
    backward rebuilds ``softmax(logits) − one_hot(targets)`` directly from
    the logits data, scaled by ``mask / count``, so the full ``(N, V)``
    log-probability matrix never outlives the forward.
    """
    targets = np.asarray(targets, dtype=np.int64)
    vocab = logits.shape[-1]
    with _span("kernels.fused_cross_entropy", rows=int(targets.size),
               vocab=vocab):
        flat_logits = logits.data.reshape(-1, vocab)
        flat_targets = targets.reshape(-1)
        if ignore_index is not None:
            mask = flat_targets != ignore_index
            safe_targets = np.where(mask, flat_targets, 0)
            count = max(int(mask.sum()), 1)
        else:
            mask = None
            safe_targets = flat_targets
            count = len(flat_targets)
        rows = np.arange(len(flat_targets))

        m = flat_logits.max(axis=-1)
        shifted = _WS.take(flat_logits.shape, flat_logits.dtype)
        np.subtract(flat_logits, m[:, None], out=shifted)
        np.exp(shifted, out=shifted)
        # lse_full[i] = max_i + log(sum_j exp(logits_ij - max_i)); the only
        # O(N) state the backward needs.
        lse_full = m + np.log(shifted.sum(axis=-1))
        _WS.give(shifted)
        picked = flat_logits[rows, safe_targets] - lse_full
        if mask is not None:
            loss_val = -(picked * mask).sum() / count
        else:
            loss_val = -picked.sum() / count

        out = Tensor(loss_val, requires_grad=logits.requires_grad,
                     _children=(logits,) if logits.requires_grad else (),
                     _op="fused_cross_entropy")
        _count("fused_cross_entropy", flat_logits.nbytes)

    if not out.requires_grad:
        return out

    def _backward() -> None:
        with _span("kernels.fused_cross_entropy.backward",
                   rows=len(flat_targets)):
            probs = logits.data.reshape(-1, vocab) - lse_full[:, None]
            np.exp(probs, out=probs)
            probs[rows, safe_targets] -= 1.0
            if mask is not None:
                probs *= mask[:, None]
            probs *= float(out.grad) / count
            logits._accumulate_owned(probs.reshape(logits.shape))

    out._backward = _backward
    return out


def fused_lm_loss(x: Tensor, norm_w: Tensor, w_head: Tensor,
                  targets: np.ndarray,
                  ignore_index: Optional[int] = None,
                  eps: float = 1e-6) -> Tensor:
    """Final RMSNorm + LM head + mean cross-entropy as one autograd node.

    Semantically ``fused_cross_entropy(linear(rms_norm(x)), targets)``, but
    the ``(B, T, V)`` logits live in a workspace buffer instead of escaping
    into the graph, and their gradient is rebuilt in the same buffer — the
    two largest arrays of a training step never hit the allocator.  Used by
    :meth:`repro.nn.transformer.TransformerLM.loss` when the head is a plain
    bias-free projection.
    """
    targets = np.asarray(targets, dtype=np.int64)
    dim = x.shape[-1]
    vocab = w_head.shape[0]
    dt = x.data.dtype
    xd = x.data
    with _span("kernels.fused_lm_loss", rows=int(targets.size), vocab=vocab):
        r, xh = _rms_fwd_pre(xd, eps)
        ws_head = _WS.take((vocab, dim), dt)
        np.multiply(w_head.data, norm_w.data, out=ws_head)  # fold norm weight
        logits = _WS.take((int(np.prod(x.shape[:-1])), vocab), dt)
        np.matmul(xh.reshape(-1, dim), ws_head.T, out=logits)
        flat_targets = targets.reshape(-1)
        if ignore_index is not None:
            mask = flat_targets != ignore_index
            safe_targets = np.where(mask, flat_targets, 0)
            count = max(int(mask.sum()), 1)
        else:
            mask = None
            safe_targets = flat_targets
            count = len(flat_targets)
        rows = np.arange(len(flat_targets))
        # Self-verifying fast path: exponentiate unshifted and check the
        # resulting logsumexp.  Overflow (inf), total underflow (log 0) or
        # a NaN row all yield a non-finite entry, which triggers the
        # classic shift-by-max recomputation; typical training logits stay
        # far inside float range, so the per-row max and subtract passes
        # are skipped.
        shifted = _WS.take(logits.shape, dt)
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            np.exp(logits, out=shifted)
            lse_full = np.log(shifted.sum(axis=-1))
        if not np.isfinite(lse_full).all():
            m = logits.max(axis=-1)
            np.subtract(logits, m[:, None], out=shifted)
            np.exp(shifted, out=shifted)
            lse_full = np.log(shifted.sum(axis=-1))
            lse_full += m
        _WS.give(shifted)
        picked = logits[rows, safe_targets] - lse_full
        if mask is not None:
            loss_val = -(picked * mask).sum() / count
        else:
            loss_val = -picked.sum() / count

        children = (x, norm_w, w_head)
        requires = any(t.requires_grad for t in children)
        out = Tensor(loss_val, requires_grad=requires,
                     _children=children if requires else (),
                     _op="fused_lm_loss")
        # The logits and their gradient (the two largest per-step buffers),
        # the norm output and its gradient all stay out of the graph.
        _count("fused_lm_loss", 2 * logits.nbytes + 2 * xh.nbytes)

    if not out.requires_grad:
        _WS.give(logits)
        _WS.give(ws_head)
        _WS.give(xh)
        return out

    def _backward() -> None:
        with _span("kernels.fused_lm_loss.backward",
                   rows=len(flat_targets)):
            # dlogits = (softmax − one_hot) · mask · g / count, rebuilt in
            # the saved logits buffer itself.
            np.subtract(logits, lse_full[:, None], out=logits)
            np.exp(logits, out=logits)
            logits[rows, safe_targets] -= 1.0
            if mask is not None:
                np.multiply(logits, mask[:, None], out=logits)
            np.multiply(logits, float(out.grad) / count, out=logits)
            if w_head.requires_grad or norm_w.requires_grad:
                dw_s = logits.T @ xh.reshape(-1, dim)  # grad of folded head
                if norm_w.requires_grad:
                    norm_w._accumulate_owned(
                        np.einsum("rc,rc->c", dw_s, w_head.data))
                dw_s *= norm_w.data  # un-fold the column norm weight
                if w_head.requires_grad:
                    w_head._accumulate_owned(dw_s)
            dxh = _WS.take(xd.shape, dt)
            np.matmul(logits, ws_head, out=dxh.reshape(-1, dim))
            _WS.give(logits)
            _WS.give(ws_head)
            dx = _rms_bwd_pre(dxh, xd, r)
            _WS.give(dxh)
            _WS.give(xh)
            if x.requires_grad:
                x._accumulate_owned(dx)

    out._backward = _backward
    return out
