"""Decoder-only transformer language model.

This is the substrate standing in for the LLaMA / Qwen backbones merged by the
paper: pre-norm RMSNorm blocks, bias-free attention projections, SwiGLU MLPs,
learned positional embeddings, and an untied LM head.  Its weights are exposed
through the state-dict protocol consumed by :mod:`repro.core`.
"""

from __future__ import annotations

from dataclasses import dataclass, asdict
from typing import Optional

import numpy as np

from . import kernels
from .attention import MultiHeadSelfAttention
from .layers import Dropout, Embedding, FeedForward, Linear, RMSNorm
from .module import Module, ModuleList
from .tensor import Tensor


@dataclass(frozen=True)
class TransformerConfig:
    """Hyperparameters of a :class:`TransformerLM`.

    The named presets in :func:`preset_config` mirror the paper's backbone
    families at toy scale (see DESIGN.md §1).
    """

    vocab_size: int
    dim: int = 64
    n_layers: int = 2
    n_heads: int = 4
    max_seq_len: int = 128
    ffn_mult: int = 4
    dropout: float = 0.0
    seed: int = 0
    # "rope" (LLaMA-style rotary, the default) or "learned" absolute.
    pos_encoding: str = "rope"
    # Route attention / RMSNorm / loss through the single-node fused kernels
    # (repro.nn.kernels); False keeps the composed-op reference graph.
    use_fused: bool = True

    def to_dict(self) -> dict:
        return asdict(self)

    @staticmethod
    def from_dict(d: dict) -> "TransformerConfig":
        return TransformerConfig(**d)


def preset_config(name: str, vocab_size: int, seed: int = 0) -> TransformerConfig:
    """Return a named backbone preset.

    ``nano`` / ``micro`` / ``grande`` play the roles of Qwen1.5-14B,
    LLaMA3-8B, and LLaMA2-70B respectively — same architecture family,
    increasing capacity.
    """
    presets = {
        "nano": dict(dim=48, n_layers=2, n_heads=4, max_seq_len=176),
        "micro": dict(dim=64, n_layers=2, n_heads=4, max_seq_len=176),
        "grande": dict(dim=96, n_layers=3, n_heads=6, max_seq_len=208),
    }
    if name not in presets:
        raise KeyError(f"unknown preset {name!r}; choose from {sorted(presets)}")
    return TransformerConfig(vocab_size=vocab_size, seed=seed, **presets[name])


class TransformerBlock(Module):
    """Pre-norm transformer block: ``x + attn(norm(x))`` then ``x + mlp(norm(x))``.

    When a sublayer's modules are in their default fused configuration —
    plain bias-free projections, fused RMSNorm, no dropout — the whole
    sublayer (norm, projections, core, residual) runs as one autograd node
    via :func:`repro.nn.kernels.fused_attn_block` /
    :func:`repro.nn.kernels.fused_mlp_block`.  Any deviation (LoRA-wrapped
    projections, ``use_fused=False``, ``dropout > 0``) falls back to the
    composed module chain, which remains the differential reference.
    Eligibility is re-checked every forward, so post-construction surgery
    such as :func:`repro.nn.lora.apply_lora` is picked up automatically.
    """

    def __init__(self, config: TransformerConfig, seed: int) -> None:
        super().__init__()
        rng = np.random.default_rng(seed)
        seeds = rng.integers(0, 2 ** 31 - 1, size=2)
        self.attn_norm = RMSNorm(config.dim, use_fused=config.use_fused)
        self.attn = MultiHeadSelfAttention(config.dim, config.n_heads, seed=int(seeds[0]),
                                           rope=config.pos_encoding == "rope",
                                           max_seq_len=config.max_seq_len,
                                           use_fused=config.use_fused)
        self.mlp_norm = RMSNorm(config.dim, use_fused=config.use_fused)
        self.mlp = FeedForward(config.dim, config.dim * config.ffn_mult, seed=int(seeds[1]),
                               use_fused=config.use_fused)
        self.dropout = Dropout(config.dropout, seed=int(seeds[1]) ^ 0x5EED)

    def _attn_block_fusable(self) -> bool:
        attn = self.attn
        return (self.dropout.p == 0.0
                and type(attn) is MultiHeadSelfAttention and attn.use_fused
                and attn._plain_qkv()
                and type(attn.o_proj) is Linear and attn.o_proj.bias is None
                and type(self.attn_norm) is RMSNorm and self.attn_norm.use_fused)

    def _mlp_block_fusable(self) -> bool:
        mlp = self.mlp
        return (self.dropout.p == 0.0
                and type(mlp) is FeedForward and mlp.use_fused
                and all(type(p) is Linear and p.bias is None
                        for p in (mlp.gate_proj, mlp.up_proj, mlp.down_proj))
                and type(self.mlp_norm) is RMSNorm and self.mlp_norm.use_fused)

    def forward(self, x: Tensor) -> Tensor:
        if self._attn_block_fusable():
            attn = self.attn
            cos = sin = None
            if attn.rope:
                cos, sin = attn._rope_table.get(x.shape[1], x.data.dtype)
            x = kernels.fused_attn_block(
                x, self.attn_norm.weight, attn.q_proj.weight,
                attn.k_proj.weight, attn.v_proj.weight, attn.o_proj.weight,
                attn.n_heads, rope_cos=cos, rope_sin=sin,
                eps=self.attn_norm.eps)
        else:
            x = x + self.dropout(self.attn(self.attn_norm(x)))
        if self._mlp_block_fusable():
            mlp = self.mlp
            x = kernels.fused_mlp_block(
                x, self.mlp_norm.weight, mlp.gate_proj.weight,
                mlp.up_proj.weight, mlp.down_proj.weight,
                eps=self.mlp_norm.eps)
        else:
            x = x + self.dropout(self.mlp(self.mlp_norm(x)))
        return x


class TransformerLM(Module):
    """Decoder-only causal language model over integer token ids."""

    def __init__(self, config: TransformerConfig) -> None:
        super().__init__()
        self.config = config
        if config.pos_encoding not in ("rope", "learned"):
            raise ValueError(f"unknown pos_encoding {config.pos_encoding!r}")
        rng = np.random.default_rng(config.seed)
        seeds = rng.integers(0, 2 ** 31 - 1, size=config.n_layers + 3)
        self.tok_emb = Embedding(config.vocab_size, config.dim, seed=int(seeds[0]))
        if config.pos_encoding == "learned":
            self.pos_emb = Embedding(config.max_seq_len, config.dim, seed=int(seeds[1]))
        else:
            self.pos_emb = None
        self.blocks = ModuleList(
            TransformerBlock(config, seed=int(seeds[2 + i])) for i in range(config.n_layers)
        )
        self.final_norm = RMSNorm(config.dim, use_fused=config.use_fused)
        self.lm_head = Linear(config.dim, config.vocab_size, bias=False,
                              seed=int(seeds[-1]), use_fused=config.use_fused)

    def _backbone(self, ids: np.ndarray) -> Tensor:
        """Embeddings + transformer blocks; everything before the final norm."""
        ids = np.asarray(ids, dtype=np.int64)
        if ids.ndim == 1:
            ids = ids[None, :]
        batch, seq = ids.shape
        if seq > self.config.max_seq_len:
            raise ValueError(
                f"sequence length {seq} exceeds max_seq_len={self.config.max_seq_len}"
            )
        x = self.tok_emb(ids)
        if self.pos_emb is not None:
            positions = np.broadcast_to(np.arange(seq), (batch, seq))
            x = x + self.pos_emb(positions)
        for block in self.blocks:
            x = block(x)
        return x

    def forward(self, ids: np.ndarray) -> Tensor:
        """Map token ids ``(batch, seq)`` to next-token logits ``(batch, seq, vocab)``."""
        x = self.final_norm(self._backbone(ids))
        return self.lm_head(x)

    def loss(self, ids: np.ndarray, targets: np.ndarray,
             ignore_index: Optional[int] = None) -> Tensor:
        """Mean next-token cross-entropy over ``(ids, targets)`` as a scalar.

        With the default fused configuration the final norm, LM head and
        cross-entropy run as one autograd node
        (:func:`repro.nn.kernels.fused_lm_loss`), so the ``(B, T, V)`` logits
        and their gradient never escape into the graph.  Otherwise this is
        exactly ``cross_entropy(self(ids), targets)`` on the composed (or
        per-op fused) reference path.
        """
        if (type(self.final_norm) is RMSNorm and self.final_norm.use_fused
                and type(self.lm_head) is Linear and self.lm_head.bias is None
                and self.lm_head.use_fused):
            return kernels.fused_lm_loss(
                self._backbone(ids), self.final_norm.weight,
                self.lm_head.weight, targets, ignore_index=ignore_index,
                eps=self.final_norm.eps)
        from . import functional as F
        logits = self.forward(ids)
        if self.config.use_fused:
            return kernels.fused_cross_entropy(logits, targets,
                                               ignore_index=ignore_index)
        return F.cross_entropy(logits, targets, ignore_index=ignore_index)

    def clone(self) -> "TransformerLM":
        """Return a structurally identical model with copied weights."""
        other = TransformerLM(self.config)
        other.load_state_dict(self.parameter_arrays())  # copies on load
        return other
