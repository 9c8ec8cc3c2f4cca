"""Fast autoregressive inference with a KV cache.

The autograd :class:`~repro.nn.transformer.TransformerLM` recomputes the
whole prefix for every generated token.  :class:`InferenceEngine` reads the
model's weight arrays in place and runs a pure-numpy forward pass with
per-layer key/value caching, so each new token costs one incremental step —
a ~20× speed-up that the benchmark harness and examples rely on.

The engine is validated against the autograd model in the test suite: both
paths produce identical logits (up to float tolerance) for the same weights.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from .attention import rope_cache
from .kernels import attention_nograd
from .sampling import sample_next, softmax as _softmax
from .transformer import TransformerLM


#: Short name of each per-block weight -> its state-dict module path.
BLOCK_WEIGHTS = {"attn_norm": "attn_norm", "q": "attn.q_proj",
                 "k": "attn.k_proj", "v": "attn.v_proj", "o": "attn.o_proj",
                 "mlp_norm": "mlp_norm", "gate": "mlp.gate_proj",
                 "up": "mlp.up_proj", "down": "mlp.down_proj"}


def _rms_norm(x: np.ndarray, weight: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    ms = (x * x).mean(axis=-1, keepdims=True)
    return x / np.sqrt(ms + eps) * weight


def _silu(x: np.ndarray) -> np.ndarray:
    return x / (1.0 + np.exp(-x))


def _rope(x: np.ndarray, cos: np.ndarray, sin: np.ndarray) -> np.ndarray:
    """Rotary embedding of ``x`` (``cos``/``sin`` broadcast over its rows)."""
    half = x.shape[-1] // 2
    rotated = np.concatenate([-x[..., half:], x[..., :half]], axis=-1)
    return x * cos + rotated * sin


class _LayerCache:
    """Accumulated keys/values for one attention layer: ``(H, T, Dh)``.

    Storage is a preallocated buffer grown by amortised doubling, so
    appending one decoded token is an O(1) copy of that token's K/V rather
    than an O(T) re-concatenation of the whole history.  ``.k`` / ``.v``
    stay views of shape ``(H, T, Dh)``, as the old concatenating cache
    exposed.
    """

    __slots__ = ("_k", "_v", "_len")

    #: Initial buffer capacity (tokens); doubled whenever it runs out.
    INITIAL_CAPACITY = 64

    def __init__(self) -> None:
        self._k: Optional[np.ndarray] = None
        self._v: Optional[np.ndarray] = None
        self._len = 0

    def _ensure_capacity(self, extra: int, like: np.ndarray) -> None:
        needed = self._len + extra
        if self._k is None:
            cap = max(self.INITIAL_CAPACITY, needed)
            heads, _, head_dim = like.shape
            self._k = np.empty((heads, cap, head_dim), dtype=like.dtype)
            self._v = np.empty_like(self._k)
            return
        cap = self._k.shape[1]
        if needed <= cap:
            return
        while cap < needed:
            cap *= 2
        grown_k = np.empty((self._k.shape[0], cap, self._k.shape[2]), dtype=self._k.dtype)
        grown_v = np.empty_like(grown_k)
        grown_k[:, : self._len] = self._k[:, : self._len]
        grown_v[:, : self._len] = self._v[:, : self._len]
        self._k, self._v = grown_k, grown_v

    def append(self, k_new: np.ndarray, v_new: np.ndarray) -> None:
        t = k_new.shape[1]
        self._ensure_capacity(t, k_new)
        self._k[:, self._len: self._len + t] = k_new
        self._v[:, self._len: self._len + t] = v_new
        self._len += t

    def truncate(self, length: int) -> None:
        """Drop cached positions beyond ``length`` (speculative rollback).

        Only the logical length moves; the buffer keeps its capacity and the
        stale tail data stays in place until the next :meth:`append`
        overwrites it.  Every reader — ``.k`` / ``.v`` views,
        :meth:`snapshot`, :meth:`append`'s write offset — is gated on
        ``_len``, so shrink-then-regrow reuse cannot resurface the tail
        (pinned by a regression test in ``tests/test_decode.py``).
        """
        if length < 0 or length > self._len:
            raise ValueError(
                f"truncate length {length} outside [0, {self._len}]")
        self._len = length

    def snapshot(self, upto: Optional[int] = None):
        """Copies of the first ``upto`` cached positions (default: all)."""
        upto = self._len if upto is None else min(upto, self._len)
        return self._k[:, :upto].copy(), self._v[:, :upto].copy()

    @property
    def k(self) -> Optional[np.ndarray]:
        return None if self._k is None else self._k[:, : self._len]

    @property
    def v(self) -> Optional[np.ndarray]:
        return None if self._v is None else self._v[:, : self._len]

    @property
    def length(self) -> int:
        return self._len


class _CacheStore:
    """KV store of the layer loop over per-sequence :class:`_LayerCache` s.

    The loop calls :meth:`end` (longest length after the write, for the
    context-window check), :meth:`reserve`, :meth:`rope` and
    :meth:`attend` per layer, and :meth:`commit`.  This store covers ``t``
    consecutive new positions of one sequence; subclasses override
    :meth:`history` to keep K/V elsewhere.
    """

    def __init__(self, engine: "InferenceEngine",
                 caches: List[_LayerCache]) -> None:
        self.engine = engine
        self.caches = caches
        self.start = caches[0].length

    def end(self, t: int) -> int:
        return self.start + t

    def reserve(self, t: int) -> None:
        self.cos = self.engine._cos[self.start: self.start + t]
        self.sin = self.engine._sin[self.start: self.start + t]

    def commit(self, t: int) -> None:
        pass  # _LayerCache.append already advanced each layer's length

    def history(self, li: int, k: np.ndarray, v: np.ndarray):
        """Store the new ``(H, T, Dh)`` rows; return the whole history."""
        cache = self.caches[li]
        cache.append(k, v)
        return cache.k, cache.v

    def rope(self, x: np.ndarray) -> np.ndarray:
        """Rotate new ``(T, H, Dh)`` rows by their positions, head-major."""
        return _rope(x.transpose(1, 0, 2), self.cos, self.sin)

    def attend(self, li: int, q: np.ndarray, k: np.ndarray,
               v: np.ndarray) -> np.ndarray:
        """Store the new rows' K/V (``q``/``k`` already rotated, ``v`` as
        ``(T, H, Dh)``); return their ``(T, D)`` attention context."""
        t = q.shape[1]
        k_all, v_all = self.history(li, k, v.transpose(1, 0, 2))
        # Fused no-grad attention: mask only the new block (the earlier
        # history is fully visible), softmax in the scores buffer.
        return attention_nograd(q, k_all, v_all, causal_tail=t) \
            .transpose(1, 0, 2).reshape(t, -1)


class _Unpacked:
    """Projection strategy with one GEMM per weight matrix — the shapes of
    single-sequence decoding, which every bitwise oracle is pinned to."""

    def __init__(self, layers: List[Dict[str, object]], lm_head) -> None:
        self.layers = layers
        self.lm_head = lm_head

    @staticmethod
    def _mm(h: np.ndarray, w) -> np.ndarray:
        return h @ w.T

    def qkv(self, h: np.ndarray, li: int):
        layer = self.layers[li]
        return (self._mm(h, layer["q"]), self._mm(h, layer["k"]),
                self._mm(h, layer["v"]))

    def out(self, ctx: np.ndarray, li: int) -> np.ndarray:
        return self._mm(ctx, self.layers[li]["o"])

    def mlp(self, h: np.ndarray, li: int) -> np.ndarray:
        layer = self.layers[li]
        return self._mm(_silu(self._mm(h, layer["gate"]))
                        * self._mm(h, layer["up"]), layer["down"])

    def head(self, x: np.ndarray) -> np.ndarray:
        return self._mm(x, self.lm_head)


class InferenceEngine:
    """Incremental decoder over a trained :class:`TransformerLM`.

    The engine reads the model's own weight arrays — whatever
    ``model.parameter_arrays()`` returns (a :class:`TransformerLM`'s
    parameters, or the inherited arrays of a fleet replica's model) — and
    holds no copy of its own, so serving a model costs no second model.
    The contract that buys: :meth:`~repro.nn.module.Module.load_state_dict`
    replaces the arrays, so rebuild the engine after loading new weights;
    and an optimizer step writes into them, so never train a model in
    place while one of its engines is live.  The engine processes one
    sequence at a time (the evaluation protocol is greedy single-sequence
    decoding, like the paper's temperature-0 setting).
    """

    def __init__(self, model: TransformerLM) -> None:
        config = model.config
        if config.pos_encoding != "rope":
            raise ValueError("InferenceEngine supports RoPE models only")
        self.config = config
        self.n_heads = config.n_heads
        self.head_dim = config.dim // config.n_heads
        state = model.parameter_arrays()
        self.tok_emb = state["tok_emb.weight"]
        self.final_norm = state["final_norm.weight"]
        self.lm_head = state["lm_head.weight"]
        self.layers: List[Dict[str, np.ndarray]] = [
            {key: state[f"blocks.{i}.{name}.weight"]
             for key, name in BLOCK_WEIGHTS.items()}
            for i in range(config.n_layers)]
        self._unpacked = _Unpacked(self.layers, self.lm_head)
        cos, sin = rope_cache(config.max_seq_len, self.head_dim)
        self._cos = cos.astype(self.tok_emb.dtype)
        self._sin = sin.astype(self.tok_emb.dtype)

    # ------------------------------------------------------------------
    def _layer_loop(self, ids: Sequence[int], kv, proj=None,
                    all_rows: bool = False) -> np.ndarray:
        """The transformer forward every inference path runs.

        Norm → QKV → RoPE → KV write → attention → O → SwiGLU per layer,
        then the final norm and LM head.  ``kv`` is a KV store (see
        :class:`_CacheStore`) that owns RoPE positions, K/V storage and
        the attention context; ``proj`` is a projection strategy
        (default :class:`_Unpacked`).  Returns logits of every row
        (``all_rows``) or of the last row only.
        """
        ids = np.asarray(ids, dtype=np.int64)
        t = len(ids)
        if kv.end(t) > self.config.max_seq_len:
            raise ValueError("sequence exceeds the model context window")
        kv.reserve(t)
        proj = proj or self._unpacked
        rows = (t, self.n_heads, self.head_dim)
        x = self.tok_emb[ids]  # (T, D)
        for li, layer in enumerate(self.layers):
            h = _rms_norm(x, layer["attn_norm"])
            q, k, v = proj.qkv(h, li)
            q, k = kv.rope(q.reshape(rows)), kv.rope(k.reshape(rows))
            x = x + proj.out(kv.attend(li, q, k, v.reshape(rows)), li)
            x = x + proj.mlp(_rms_norm(x, layer["mlp_norm"]), li)
        kv.commit(t)
        if all_rows:
            return proj.head(_rms_norm(x, self.final_norm))  # (T, vocab)
        return proj.head(_rms_norm(x[-1:], self.final_norm))[0]

    def _forward(self, ids: Sequence[int], caches: List[_LayerCache]) -> np.ndarray:
        """Run ``ids`` through the model, extending ``caches``; returns the
        logits of the final position."""
        return self._layer_loop(ids, _CacheStore(self, caches))

    # ------------------------------------------------------------------
    def logits(self, ids: Sequence[int]) -> np.ndarray:
        """Next-token logits after consuming ``ids`` (fresh cache)."""
        caches = [_LayerCache() for _ in self.layers]
        return self._forward(list(ids), caches)

    def generate(self, prompt_ids: Sequence[int], max_new_tokens: int = 48,
                 temperature: float = 0.0, eos_id: Optional[int] = None,
                 rng: Optional[np.random.Generator] = None,
                 top_k: Optional[int] = None,
                 top_p: Optional[float] = None) -> List[int]:
        """Greedy / sampled continuation of ``prompt_ids`` (KV-cached)."""
        if not prompt_ids:
            raise ValueError("prompt_ids must be non-empty")
        if temperature < 0:
            raise ValueError(f"temperature must be >= 0, got {temperature}")
        rng = rng or np.random.default_rng(0)
        max_ctx = self.config.max_seq_len
        ids = [int(i) for i in prompt_ids][-max_ctx:]
        caches = [_LayerCache() for _ in self.layers]
        logits = self._forward(ids, caches)
        out: List[int] = []
        for _ in range(max_new_tokens):
            next_id = sample_next(logits, temperature=temperature, rng=rng,
                                  top_k=top_k, top_p=top_p)
            if eos_id is not None and next_id == eos_id:
                break
            out.append(next_id)
            if caches[0].length >= max_ctx:
                break  # context exhausted
            logits = self._forward([next_id], caches)
        return out


def generate_text_fast(engine: InferenceEngine, tokenizer, prompt: str,
                       max_new_tokens: int = 48, temperature: float = 0.0,
                       rng: Optional[np.random.Generator] = None) -> str:
    """Encode, generate with the engine, decode — the fast twin of
    :func:`repro.nn.generation.generate_text`."""
    ids = tokenizer.encode(prompt, add_bos=True)
    out = engine.generate(ids, max_new_tokens=max_new_tokens,
                          temperature=temperature, eos_id=tokenizer.eos_id, rng=rng)
    return tokenizer.decode(out)
