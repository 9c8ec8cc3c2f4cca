"""Batched decoding engine: step N independent sequences at once.

:class:`BatchedEngine` extends the single-sequence
:class:`~repro.nn.infer.InferenceEngine` with what the scheduler needs:

* **prefill with KV reuse** — a new sequence's caches can be preloaded with
  KV state from the prefix pool or a chat session, so prefill only runs the
  unseen suffix of the prompt;
* **batched decode** — one call advances every running sequence by a token;
* **KV export** — a sequence's accumulated KV state can be snapshotted for
  the prefix pool or the session store;
* **zero-copy admission** — :meth:`begin_sequence` adopts a pool/session
  :class:`~repro.serve.cache.KVEntry` (shared block references in paged
  mode: a refcount bump plus at most one sub-block tail copy), and
  :meth:`prefill_into` runs the prompt forward writing K/V straight into
  the adopted slot/block storage, eliminating the cache-then-``bind``
  double materialization; :meth:`make_entry` snapshots a sequence back
  into an entry the same way — shared blocks out, not copies.  The
  ``kv_bytes_copied`` / ``blocks_shared`` counters account every KV byte
  that moves between storage locations (and every block reference taken),
  which is how the kvplane benchmark asserts a full prefix hit copies
  *zero* KV bytes;
* **speculative verification** — :meth:`verify_scores` scores a chain of
  candidate tokens in one forward pass and :meth:`truncate_kv` rolls the
  cache back past a rejection, the primitives the scheduler's speculative
  decode loop is built on.

Two decode modes, selected at construction:

``"fused"`` (default)
    Sequences live in engine-owned *slots*: per layer, one ragged batch
    buffer of shape ``(max_batch, heads, capacity, head_dim)`` plus a
    length vector, grown by amortised doubling.  A decode step runs the
    embeddings, attention projections, and SwiGLU MLP as single ``(B, ·)``
    matmuls, writes each sequence's new K/V into its slot row with one
    fancy-indexed store per layer, and attends over the running slots'
    histories with out-of-range positions masked to ``-1e30``.  Dense
    slots are picked with an index array, so every step copies each
    running sequence's ``Tmax``-long K/V history, per layer, into a fresh
    gather buffer (paged mode gathers its blocks the same way).  BLAS
    matmuls are not bitwise row-stable across batch shapes, so fused
    logits match the single-sequence engine to ~1e-6 float tolerance;
    near-degenerate logit ties could in principle resolve differently.
``"exact"``
    Sequences keep per-sequence :class:`~repro.nn.infer._LayerCache` state
    and decode loops them through ``InferenceEngine._forward`` with the
    exact array shapes of single-sequence decoding — guaranteeing
    token-for-token parity with :meth:`InferenceEngine.generate`.  Use for
    regression comparisons and determinism-critical evaluation.

Orthogonal to the decode mode, two cheap-serve axes (DESIGN.md §11):

``weight_mode="int8"``
    Matmul weights are held as per-output-channel int8 with float scales
    (:func:`~repro.nn.kernels.quantize_state_dict`) and fused decode runs
    :func:`~repro.nn.kernels.matmul_int8_nograd` — the dequantization
    happens inside the kernel against a pooled scratch buffer, never as a
    persistent fp32 matrix.  Prefill and the exact decode path run on the
    *dequantized* weights, which makes exact mode the byte-level oracle
    for the quantized model (see :func:`dequantized_oracle_model`).  A
    model whose ``state_dict()`` is already quantized (the fleet's
    arena-published form) is consumed verbatim, never re-quantized.
``kv_mode="paged"``
    Fused-mode KV storage is carved into fixed-size blocks handed out by a
    reference-counted :class:`~repro.serve.cache.BlockPool`, so a slot
    holds exactly the blocks its sequence needs instead of reserving the
    longest-ever capacity — and *full* blocks are shared read-only between
    prefix-pool/session entries and the slots that adopt them, with the
    partial tail block copied on adoption (copy-on-write at block
    granularity; see DESIGN.md §13).  Blocks are zeroed on allocation — a
    reused block can never leak a prior session's tail into a fresh
    sequence (the dense path only *masks* stale tails; the paged path
    erases them).  Per layer the storage is one ``(H, blocks, bt, Dh)``
    array viewed flat as ``(H, blocks·bt, Dh)``; per-slot gather-index
    rows (``_gather_pad``) map sequence positions to flat storage
    positions, so a decode step is one fancy-index store and one gather
    per layer across the whole batch — no per-sequence Python loop.  The
    dense layout stays the differential oracle: both layouts feed
    bit-identical gathered histories to the same attention kernel.

Sequences are handed to callers as opaque :class:`SequenceHandle` objects;
the scheduler never touches the storage representation.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..nn.infer import InferenceEngine, _LayerCache, _rms_norm, _silu
from ..nn.kernels import (INT8_SCALE_SUFFIX, attention_nograd,
                          dequantize_state_dict, is_quantized_state,
                          matmul_int8_nograd, quantize_state_dict)
from .cache import ArrayEntry, BlockEntry, BlockPool, KVEntry, LayerKV

DECODE_MODES = ("fused", "exact")
WEIGHT_MODES = ("fp32", "int8")
KV_MODES = ("dense", "paged")

#: Initial per-slot token capacity of the fused dense batch buffers.
_INITIAL_SLOT_CAPACITY = 64

#: Initial block count of the paged KV pool (doubled on demand).
_INITIAL_POOL_BLOCKS = 8


class _StateModel:
    """Duck-typed model view over a plain state dict (config + weights).

    :class:`~repro.nn.infer.InferenceEngine` only ever reads ``.config``
    and ``.state_dict()``, so this shim lets the engine be built from a
    transformed weight set — the dequantized twin of an int8 model, or the
    fleet's arena-backed views — without materialising a TransformerLM.
    """

    __slots__ = ("config", "_state")

    def __init__(self, config, state: Dict[str, np.ndarray]) -> None:
        self.config = config
        self._state = state

    def state_dict(self) -> Dict[str, np.ndarray]:
        return self._state


def dequantized_oracle_model(model) -> _StateModel:
    """The fp32 model an int8 engine actually serves.

    Quantize-then-dequantize the model's weights (identity if they are
    already quantized) and wrap the result.  An exact-mode engine built
    from this model defines the token streams the fused int8 path must
    reproduce — the differential oracle of the int8 parity suite.
    """
    state = model.state_dict()
    if not is_quantized_state(state):
        state = quantize_state_dict(state)
    return _StateModel(model.config, dequantize_state_dict(state))


class SequenceHandle:
    """Opaque reference to one live sequence inside the engine."""

    __slots__ = ("slot", "caches", "_engine")

    def __init__(self, engine: "BatchedEngine", slot: Optional[int],
                 caches: Optional[List[_LayerCache]]) -> None:
        self._engine = engine
        self.slot = slot
        self.caches = caches

    @property
    def length(self) -> int:
        """Number of tokens whose KV state the sequence holds."""
        if self.caches is not None:
            return self.caches[0].length
        return int(self._engine._slot_lens[self.slot])


class BatchedEngine(InferenceEngine):
    """Multi-sequence extension of the KV-cached inference engine."""

    def __init__(self, model, decode_mode: str = "fused",
                 max_batch_size: int = 8, weight_mode: str = "fp32",
                 kv_mode: str = "dense", kv_block_tokens: int = 16) -> None:
        if decode_mode not in DECODE_MODES:
            raise ValueError(f"decode_mode must be one of {DECODE_MODES}, "
                             f"got {decode_mode!r}")
        if weight_mode not in WEIGHT_MODES:
            raise ValueError(f"weight_mode must be one of {WEIGHT_MODES}, "
                             f"got {weight_mode!r}")
        if kv_mode not in KV_MODES:
            raise ValueError(f"kv_mode must be one of {KV_MODES}, "
                             f"got {kv_mode!r}")
        if max_batch_size < 1:
            raise ValueError("max_batch_size must be >= 1")
        if kv_block_tokens < 1:
            raise ValueError("kv_block_tokens must be >= 1")
        qstate = None
        if weight_mode == "int8":
            state = model.state_dict()
            qstate = (state if is_quantized_state(state)
                      else quantize_state_dict(state))
            # Prefill and the exact decode path run the *dequantized*
            # model, so every path of this engine serves one consistent
            # set of (quantized) weights.
            model = _StateModel(model.config, dequantize_state_dict(qstate))
        super().__init__(model)
        self.decode_mode = decode_mode
        self.max_batch_size = max_batch_size
        self.weight_mode = weight_mode
        self.kv_mode = kv_mode
        # Fused-mode slot storage, allocated lazily on first bind.
        self._slot_k: List[np.ndarray] = []
        self._slot_v: List[np.ndarray] = []
        self._slot_lens = np.zeros(max_batch_size, dtype=np.int64)
        self._free_slots = list(range(max_batch_size - 1, -1, -1))
        # Paged-KV state: block storage per layer plus per-slot block tables.
        self._kv_block_tokens = kv_block_tokens
        self._block_pool: Optional[BlockPool] = None
        self._page_k: List[np.ndarray] = []
        self._page_v: List[np.ndarray] = []
        # Flat (H, blocks*bt, Dh) views over the block storage (true views:
        # the reshape merges contiguous axes), rebuilt on growth.
        self._flat_k: List[np.ndarray] = []
        self._flat_v: List[np.ndarray] = []
        self._slot_blocks: List[List[int]] = [[] for _ in range(max_batch_size)]
        # How many leading blocks of each slot's table are *shared* (adopted
        # from a pool/session entry via BlockPool.share rather than owned):
        # those are released, not freed, when the slot drops them.
        self._slot_shared_n: List[int] = [0] * max_batch_size
        # Per-slot flat gather indices: row `slot`, position `t` holds the
        # flat storage index of that sequence position, kept in sync with
        # the block table.  Entries beyond a slot's table are stale or zero;
        # both index storage that has been zeroed at least once (block 0 is
        # always the first allocation), so gathered padding is finite and
        # the attention mask's exact-zero softmax weights null it out.
        self._gather_pad = np.zeros((max_batch_size, 0), dtype=np.int64)
        self._block_arange = np.arange(kv_block_tokens, dtype=np.int64)
        # KV-plane accounting: bytes physically copied between KV storage
        # locations (adoption tails, binds, exports, entry fragments) and
        # block references taken via BlockPool.share.  Plain ints always;
        # mirrored into registry counters once attach_kv_metrics is called.
        self.kv_bytes_copied = 0
        self.blocks_shared = 0
        self._kv_copied_counter = None
        self._blocks_shared_counter = None
        # Concatenated projection weights: one gemm for Q|K|V and gate|up
        # per layer instead of five (fused decode only; the exact path keeps
        # the single-sequence shapes).  In int8 mode the packed matrices are
        # int8 with per-row scales and the gemms run the fused
        # dequant-matmul kernel instead.
        self._fused_w = None
        self._int8_w = None
        self._int8_head: Optional[Tuple[np.ndarray, np.ndarray]] = None
        if weight_mode == "int8":
            self._int8_w = []
            for i in range(len(self.layers)):
                prefix = f"blocks.{i}."

                def qs(name: str, prefix=prefix):
                    key = prefix + name
                    return qstate[key], qstate[key + INT8_SCALE_SUFFIX]

                q_q, s_q = qs("attn.q_proj.weight")
                q_k, s_k = qs("attn.k_proj.weight")
                q_v, s_v = qs("attn.v_proj.weight")
                q_g, s_g = qs("mlp.gate_proj.weight")
                q_u, s_u = qs("mlp.up_proj.weight")
                self._int8_w.append({
                    "qkv": (np.concatenate([q_q, q_k, q_v], axis=0),
                            np.concatenate([s_q, s_k, s_v])),
                    "gate_up": (np.concatenate([q_g, q_u], axis=0),
                                np.concatenate([s_g, s_u])),
                    "o": qs("attn.o_proj.weight"),
                    "down": qs("mlp.down_proj.weight"),
                })
            self._int8_head = (qstate["lm_head.weight"],
                               qstate["lm_head.weight" + INT8_SCALE_SUFFIX])
        else:
            self._fused_w = [{
                "qkv": np.concatenate([layer["q"], layer["k"], layer["v"]],
                                      axis=0),
                "gate_up": np.concatenate([layer["gate"], layer["up"]],
                                          axis=0),
                "o": layer["o"],
                "down": layer["down"],
            } for layer in self.layers]

    # ------------------------------------------------------------------
    # fused-path projections (fp32 packed gemm or int8 fused dequant)
    # ------------------------------------------------------------------
    def _mm(self, h: np.ndarray, li: int, name: str) -> np.ndarray:
        """``h @ W.T`` for fused decode, through the active weight mode."""
        if self._int8_w is not None:
            q, scales = self._int8_w[li][name]
            return matmul_int8_nograd(h, q, scales)
        return h @ self._fused_w[li][name].T

    def _head(self, x: np.ndarray) -> np.ndarray:
        if self._int8_head is not None:
            return matmul_int8_nograd(x, *self._int8_head)
        return x @ self.lm_head.T

    # ------------------------------------------------------------------
    # KV copy/share accounting
    # ------------------------------------------------------------------
    @property
    def _token_bytes(self) -> int:
        """Bytes of K+V state one position holds across all layers."""
        return (2 * len(self.layers) * self.n_heads * self.head_dim
                * self.tok_emb.dtype.itemsize)

    def attach_kv_metrics(self, registry) -> None:
        """Mirror the KV-plane counters into a metric registry.

        The scheduler calls this with its observability registry so
        ``serve.kv.bytes_copied`` and ``serve.prefix.blocks_shared`` flow
        through ``obs-report`` and the fleet metrics merge for free.
        """
        self._kv_copied_counter = registry.counter("serve.kv.bytes_copied")
        self._blocks_shared_counter = registry.counter(
            "serve.prefix.blocks_shared")

    def _count_copied(self, tokens: int) -> None:
        if tokens <= 0:
            return
        nbytes = int(tokens) * self._token_bytes
        self.kv_bytes_copied += nbytes
        if self._kv_copied_counter is not None:
            self._kv_copied_counter.inc(nbytes)

    def _count_shared(self, blocks: int = 1) -> None:
        self.blocks_shared += blocks
        if self._blocks_shared_counter is not None:
            self._blocks_shared_counter.inc(blocks)

    # ------------------------------------------------------------------
    # prefill
    # ------------------------------------------------------------------
    def new_caches(self) -> List[_LayerCache]:
        """Fresh, empty per-layer caches for one sequence."""
        return [_LayerCache() for _ in self.layers]

    def prefill(self, prompt_ids: Sequence[int], caches: List[_LayerCache],
                reused_kv: Optional[List[LayerKV]] = None) -> np.ndarray:
        """Run a prompt through the model, seeding ``caches``.

        ``reused_kv`` (from :class:`~repro.serve.cache.PrefixCachePool` or a
        session) preloads the caches with the KV state of the first
        ``reused`` prompt tokens; only the remaining suffix is computed.
        Returns the next-token logits of the final prompt position.
        """
        if not prompt_ids:
            raise ValueError("prompt_ids must be non-empty")
        if caches[0].length:
            raise ValueError("prefill requires fresh caches")
        reused = 0
        if reused_kv is not None:
            reused = reused_kv[0][0].shape[1]
            if reused >= len(prompt_ids):
                raise ValueError("reused prefix must be shorter than the prompt")
            for cache, (k, v) in zip(caches, reused_kv):
                cache.preload(k, v)
            self._count_copied(reused)
        suffix = [int(i) for i in prompt_ids[reused:]]
        return self._forward(suffix, caches)

    # ------------------------------------------------------------------
    # sequence lifecycle
    # ------------------------------------------------------------------
    def bind(self, caches: List[_LayerCache]) -> SequenceHandle:
        """Adopt a prefilled sequence into the engine's decode storage.

        In exact mode the handle keeps the per-sequence caches; in fused
        mode their KV state is copied into a free batch slot (a one-time
        cost per request) and the caches are dropped.
        """
        if self.decode_mode == "exact":
            return SequenceHandle(self, None, caches)
        slot = self._claim_slot()
        length = caches[0].length
        if self.kv_mode == "paged":
            self._ensure_paged(slot, length)
        else:
            self._ensure_slot_storage(length)
        for li, cache in enumerate(caches):
            self._write_kv_span(li, slot, 0, cache.k, cache.v)
        self._count_copied(length)
        self._slot_lens[slot] = length
        return SequenceHandle(self, slot, None)

    def _claim_slot(self) -> int:
        if not self._free_slots:
            raise RuntimeError(f"all {self.max_batch_size} slots in use")
        return self._free_slots.pop()

    # ------------------------------------------------------------------
    # zero-copy admission: entry adoption + prefill into slot storage
    # ------------------------------------------------------------------
    def begin_sequence(self, entry: Optional[KVEntry] = None,
                       match: int = 0) -> SequenceHandle:
        """Open a sequence, optionally adopting ``match`` positions from a
        pool/session entry.

        The cheap path is fused-paged mode with a :class:`BlockEntry` from
        this engine: every *full* shared block is adopted by refcount bump
        (zero bytes move), and only the sub-block remainder — at most
        ``block_tokens - 1`` positions — is copied into a freshly owned
        block the sequence may then append into (the entry's block stays
        read-only: copy-on-write at block granularity).  Dense slots and
        exact caches adopt by copying ``match`` positions, which is what
        the byte-parity sweep compares against.
        """
        if entry is None:
            match = 0
        else:
            match = min(match, entry.length)
        if self.decode_mode == "exact":
            caches = self.new_caches()
            if entry is not None and match > 0:
                kvs = (entry.layer_kv if isinstance(entry, ArrayEntry)
                       else entry.materialize(match))
                for cache, (k, v) in zip(caches, kvs):
                    cache.preload(k[:, :match], v[:, :match])
                self._count_copied(match)
            return SequenceHandle(self, None, caches)
        slot = self._claim_slot()
        if match > 0:
            if self.kv_mode == "paged":
                self._adopt_paged(slot, entry, match)
            else:
                self._ensure_slot_storage(match)
                kvs = (entry.layer_kv if isinstance(entry, ArrayEntry)
                       else entry.materialize(match))
                for li, (k, v) in enumerate(kvs):
                    self._write_kv_span(li, slot, 0, k[:, :match], v[:, :match])
                self._count_copied(match)
        self._slot_lens[slot] = match
        return SequenceHandle(self, slot, None)

    def _adopt_paged(self, slot: int, entry: KVEntry, match: int) -> None:
        """Seed a paged slot with ``match`` positions from ``entry``."""
        bt = self._kv_block_tokens
        if not (isinstance(entry, BlockEntry) and entry.plane is self):
            # Foreign payload (array entry, or another engine's blocks):
            # fall back to a plain copy into owned blocks.
            self._ensure_paged(slot, match)
            kvs = (entry.layer_kv if isinstance(entry, ArrayEntry)
                   else entry.materialize(match))
            for li, (k, v) in enumerate(kvs):
                self._write_kv_span(li, slot, 0, k[:, :match], v[:, :match])
            self._count_copied(match)
            return
        n_share = min(match // bt, len(entry.blocks))
        for block in entry.blocks[:n_share]:
            self._block_pool.share(block)
            self._adopt_block(slot, block)
        self._slot_shared_n[slot] = n_share
        self._count_shared(n_share)
        rem = match - n_share * bt
        if rem > 0:
            # Partial tail: copy `rem` positions into a fresh owned block so
            # this sequence can append without mutating the shared entry.
            block = self._alloc_block(slot)
            lo = block * bt
            if n_share < len(entry.blocks):
                src = entry.blocks[n_share] * bt
                for li in range(len(self.layers)):
                    self._flat_k[li][:, lo: lo + rem] = \
                        self._flat_k[li][:, src: src + rem]
                    self._flat_v[li][:, lo: lo + rem] = \
                        self._flat_v[li][:, src: src + rem]
            else:
                for li, (k, v) in enumerate(entry.frag):
                    self._flat_k[li][:, lo: lo + rem] = k[:, :rem]
                    self._flat_v[li][:, lo: lo + rem] = v[:, :rem]
            self._count_copied(rem)

    def prefill_into(self, prompt_ids: Sequence[int],
                     handle: SequenceHandle) -> np.ndarray:
        """Run the unseen prompt suffix forward, writing K/V directly into
        the handle's decode storage.

        The zero-copy twin of :meth:`prefill` + :meth:`bind`: positions the
        handle already holds (adopted via :meth:`begin_sequence`) are
        skipped, and the computed K/V lands in slot/block storage as it is
        produced — no ``_LayerCache`` intermediate, no second
        materialization.  Mirrors ``InferenceEngine._forward`` operation
        for operation (same unpacked weights, shapes and kernel calls), so
        its logits match the cache-based prefill bit-for-bit in dense mode
        and to gather layout in paged mode.  Returns the next-token logits
        of the final prompt position.
        """
        if not prompt_ids:
            raise ValueError("prompt_ids must be non-empty")
        if handle.caches is not None:
            suffix = [int(i) for i in prompt_ids[handle.caches[0].length:]]
            if not suffix:
                raise ValueError("reused prefix must be shorter than the prompt")
            return self._forward(suffix, handle.caches)
        slot = handle.slot
        start = int(self._slot_lens[slot])
        suffix = [int(i) for i in prompt_ids[start:]]
        if not suffix:
            raise ValueError("reused prefix must be shorter than the prompt")
        t = len(suffix)
        if start + t > self.config.max_seq_len:
            raise ValueError("prompt exceeds the model context window")
        if self.kv_mode == "paged":
            self._ensure_paged(slot, start + t)
        else:
            self._ensure_slot_storage(start + t)
        heads, head_dim = self.n_heads, self.head_dim
        x = self.tok_emb[np.asarray(suffix, dtype=np.int64)]  # (T, D)
        for li, layer in enumerate(self.layers):
            h = _rms_norm(x, layer["attn_norm"])
            q = (h @ layer["q"].T).reshape(t, heads, head_dim).transpose(1, 0, 2)
            k = (h @ layer["k"].T).reshape(t, heads, head_dim).transpose(1, 0, 2)
            v = (h @ layer["v"].T).reshape(t, heads, head_dim).transpose(1, 0, 2)
            q = self._apply_rope(q, start)
            k = self._apply_rope(k, start)
            self._write_kv_span(li, slot, start, k, v)
            k_all, v_all = self._slot_kv_view(li, slot, start + t)
            # Contiguous copies so the attention matmuls see the same
            # operand layouts as the cache-based prefill oracle.
            k_all = np.ascontiguousarray(k_all)
            v_all = np.ascontiguousarray(v_all)
            ctx = attention_nograd(q, k_all, v_all, causal_tail=t) \
                .transpose(1, 0, 2).reshape(t, -1)
            x = x + ctx @ layer["o"].T
            h = _rms_norm(x, layer["mlp_norm"])
            x = x + (_silu(h @ layer["gate"].T) * (h @ layer["up"].T)) \
                @ layer["down"].T
        self._slot_lens[slot] = start + t
        x = _rms_norm(x[-1:], self.final_norm)
        return (x @ self.lm_head.T)[0]

    def make_entry(self, handle: SequenceHandle,
                   upto: Optional[int] = None) -> KVEntry:
        """Snapshot the first ``upto`` positions as a pool/session entry.

        Fused-paged sequences retain their resident *full* blocks by
        reference (one :meth:`BlockPool.share` each — zero bytes move) and
        copy only the sub-block tail fragment; dense/exact sequences export
        owned array copies.  The caller owns the returned entry and must
        arrange its ``release()`` (the pools do).
        """
        if handle.caches is not None:
            arrays = [cache.snapshot(upto) for cache in handle.caches]
            self._count_copied(arrays[0][0].shape[1] if arrays else 0)
            return ArrayEntry(arrays)
        slot = handle.slot
        length = int(self._slot_lens[slot]) if upto is None else \
            min(upto, int(self._slot_lens[slot]))
        if self.kv_mode != "paged":
            out = [(self._slot_k[li][slot, :, :length].copy(),
                    self._slot_v[li][slot, :, :length].copy())
                   for li in range(len(self.layers))]
            self._count_copied(length)
            return ArrayEntry(out, length)
        bt = self._kv_block_tokens
        n_full = length // bt
        blocks = self._slot_blocks[slot][:n_full]
        for block in blocks:
            self._block_pool.share(block)
        self._count_shared(n_full)
        rem = length - n_full * bt
        frag = None
        if rem > 0:
            src = self._slot_blocks[slot][n_full] * bt
            frag = [(self._flat_k[li][:, src: src + rem].copy(),
                     self._flat_v[li][:, src: src + rem].copy())
                    for li in range(len(self.layers))]
            self._count_copied(rem)
        return BlockEntry(self, blocks, frag, length)

    def release_block(self, block: int) -> None:
        """Drop one shared block reference (``BlockEntry.release`` hook)."""
        self._block_pool.release(block)

    def gather_entry_kv(self, entry: "BlockEntry",
                        upto: Optional[int] = None) -> List[LayerKV]:
        """Materialize a block entry as owned per-layer arrays (the exact
        engine's adoption path and the parity oracles)."""
        upto = entry.length if upto is None else min(upto, entry.length)
        bt = self._kv_block_tokens
        from_blocks = min(upto, len(entry.blocks) * bt)
        if from_blocks:
            n_b = -(-from_blocks // bt)  # ceil
            idx = (np.asarray(entry.blocks[:n_b], dtype=np.int64)[:, None] * bt
                   + self._block_arange[None, :]).ravel()[:from_blocks]
        else:
            idx = np.empty(0, dtype=np.int64)
        out = []
        for li in range(len(self.layers)):
            k = self._flat_k[li][:, idx]
            v = self._flat_v[li][:, idx]
            if upto > from_blocks:
                fk, fv = entry.frag[li]
                k = np.concatenate([k, fk[:, : upto - from_blocks]], axis=1)
                v = np.concatenate([v, fv[:, : upto - from_blocks]], axis=1)
            out.append((k, v))
        self._count_copied(upto)
        return out

    def release(self, handle: SequenceHandle) -> None:
        """Return a sequence's resources to the engine.

        Shared head blocks (adopted from an entry) drop the slot's extra
        reference; owned blocks drop their owner stake.  Either way a block
        returns to the free list only when its last reference goes — pool
        and session entries keep their blocks alive past the sequence.
        """
        if handle.slot is not None:
            slot = handle.slot
            if self._block_pool is not None:
                shared = self._slot_blocks[slot][: self._slot_shared_n[slot]]
                for block in shared:
                    self._block_pool.release(block)
                self._block_pool.free_owner(slot)
                self._slot_blocks[slot] = []
                self._slot_shared_n[slot] = 0
            self._slot_lens[slot] = 0
            self._free_slots.append(slot)
            handle.slot = None
        handle.caches = None

    def export_kv(self, handle: SequenceHandle,
                  upto: Optional[int] = None) -> List[LayerKV]:
        """Copy the first ``upto`` cached positions of every layer."""
        if handle.caches is not None:
            out = [cache.snapshot(upto) for cache in handle.caches]
            self._count_copied(out[0][0].shape[1] if out else 0)
            return out
        slot = handle.slot
        length = int(self._slot_lens[slot]) if upto is None else \
            min(upto, int(self._slot_lens[slot]))
        self._count_copied(length)
        if self.kv_mode == "paged":
            idx = self._gather_pad[slot, :length]
            return [(self._flat_k[li][:, idx], self._flat_v[li][:, idx])
                    for li in range(len(self.layers))]
        return [(self._slot_k[li][slot, :, :length].copy(),
                 self._slot_v[li][slot, :, :length].copy())
                for li in range(len(self.layers))]

    # ------------------------------------------------------------------
    # storage growth (dense slots / paged blocks)
    # ------------------------------------------------------------------
    def _ensure_slot_storage(self, needed: int) -> None:
        """Grow the shared dense slot buffers to hold ``needed`` tokens."""
        old_cap = self._slot_k[0].shape[2] if self._slot_k else 0
        if needed <= old_cap:
            return
        cap = max(old_cap, _INITIAL_SLOT_CAPACITY)
        while cap < needed:
            cap *= 2
        cap = min(cap, max(self.config.max_seq_len, needed))
        dtype = self.tok_emb.dtype
        shape = (self.max_batch_size, self.n_heads, cap, self.head_dim)
        if not self._slot_k:
            self._slot_k = [np.zeros(shape, dtype=dtype) for _ in self.layers]
            self._slot_v = [np.zeros(shape, dtype=dtype) for _ in self.layers]
            return
        for li in range(len(self.layers)):
            for bufs in (self._slot_k, self._slot_v):
                grown = np.zeros(shape, dtype=dtype)
                grown[:, :, :old_cap] = bufs[li]
                bufs[li] = grown

    def _ensure_block_storage(self, needed: int) -> None:
        """Grow the paged block storage (and the pool) to ``needed`` blocks.

        Backing arrays are ``np.empty`` — block *contents* are zeroed at
        allocation time in :meth:`_alloc_block`, which is the guarantee the
        fresh-slot-zeroing regression test pins.
        """
        have = self._page_k[0].shape[1] if self._page_k else 0
        if needed <= have and self._block_pool is not None:
            return
        bt = self._kv_block_tokens
        max_blocks = self.max_batch_size * (-(-self.config.max_seq_len // bt))
        cap = max(have, _INITIAL_POOL_BLOCKS)
        while cap < needed:
            cap *= 2
        cap = min(cap, max(max_blocks, needed))
        dtype = self.tok_emb.dtype
        shape = (self.n_heads, cap, bt, self.head_dim)
        if not self._page_k:
            self._page_k = [np.empty(shape, dtype=dtype) for _ in self.layers]
            self._page_v = [np.empty(shape, dtype=dtype) for _ in self.layers]
            self._block_pool = BlockPool(cap, bt)
            self._rebuild_flat_views()
            return
        if cap == have:
            return
        for li in range(len(self.layers)):
            for bufs in (self._page_k, self._page_v):
                grown = np.empty(shape, dtype=dtype)
                grown[:, :have] = bufs[li]
                bufs[li] = grown
        self._block_pool.grow(cap - have)
        self._rebuild_flat_views()

    def _rebuild_flat_views(self) -> None:
        """Refresh the flat (H, blocks*bt, Dh) views after storage growth
        (merging the contiguous block/token axes keeps them true views)."""
        h, d = self.n_heads, self.head_dim
        self._flat_k = [page.reshape(h, -1, d) for page in self._page_k]
        self._flat_v = [page.reshape(h, -1, d) for page in self._page_v]

    def _alloc_block(self, slot: int) -> int:
        """Allocate one zeroed block to ``slot``, growing the pool if dry."""
        if self._block_pool is None or self._block_pool.n_free == 0:
            have = self._block_pool.n_blocks if self._block_pool else 0
            self._ensure_block_storage(have + 1)
        block = self._block_pool.alloc(slot)
        for li in range(len(self.layers)):
            self._page_k[li][:, block] = 0.0
            self._page_v[li][:, block] = 0.0
        self._adopt_block(slot, block)
        return block

    def _adopt_block(self, slot: int, block: int) -> None:
        """Append ``block`` to a slot's table and extend its gather row."""
        table = self._slot_blocks[slot]
        n = len(table)
        bt = self._kv_block_tokens
        self._ensure_gather_width((n + 1) * bt)
        self._gather_pad[slot, n * bt: (n + 1) * bt] = \
            block * bt + self._block_arange
        table.append(block)

    def _ensure_gather_width(self, needed: int) -> None:
        width = self._gather_pad.shape[1]
        if needed <= width:
            return
        new_w = max(width, _INITIAL_SLOT_CAPACITY)
        while new_w < needed:
            new_w *= 2
        grown = np.zeros((self.max_batch_size, new_w), dtype=np.int64)
        grown[:, :width] = self._gather_pad
        self._gather_pad = grown

    def _ensure_paged(self, slot: int, upto: int) -> None:
        """Allocate blocks until ``slot`` can hold ``upto`` tokens."""
        bt = self._kv_block_tokens
        while len(self._slot_blocks[slot]) * bt < upto:
            self._alloc_block(slot)

    def kv_stats(self) -> Dict[str, object]:
        """KV-storage accounting of the fused decode path.

        ``bytes_reserved`` is what the engine has allocated; ``bytes_in_use``
        is what live sequences actually hold — equal for the dense layout
        (every bound slot reserves full capacity), proportional to real
        sequence lengths for the paged one.  The decode benchmark derives
        its KV-bytes-per-session numbers from this.
        """
        itemsize = self.tok_emb.dtype.itemsize
        token_bytes = (2 * len(self.layers) * self.n_heads
                       * self.head_dim * itemsize)
        out: Dict[str, object] = {"mode": self.kv_mode,
                                  "token_bytes": token_bytes,
                                  "bytes_copied": self.kv_bytes_copied,
                                  "blocks_shared": self.blocks_shared}
        if self.decode_mode != "fused":
            out["mode"] = "exact"
            return out
        if self.kv_mode == "paged":
            pool = self._block_pool
            bt = self._kv_block_tokens
            n_total = pool.n_blocks if pool is not None else 0
            n_used = pool.n_allocated if pool is not None else 0
            out.update({
                "block_tokens": bt,
                "blocks_total": n_total,
                "blocks_in_use": n_used,
                "shared_refs": pool.n_shared_refs if pool is not None else 0,
                "bytes_reserved": n_total * bt * token_bytes,
                "bytes_in_use": n_used * bt * token_bytes,
            })
        else:
            cap = self._slot_k[0].shape[2] if self._slot_k else 0
            busy = int((self._slot_lens > 0).sum())
            out.update({
                "slot_capacity": cap,
                "slots_in_use": busy,
                "bytes_reserved": self.max_batch_size * cap * token_bytes,
                "bytes_in_use": busy * cap * token_bytes,
            })
        return out

    # ------------------------------------------------------------------
    # batched decode
    # ------------------------------------------------------------------
    def decode(self, tokens: Sequence[int],
               handles: Sequence[SequenceHandle]) -> np.ndarray:
        """Advance every sequence by one token; returns ``(B, vocab)`` logits.

        ``tokens[b]`` is sequence *b*'s most recently sampled token; its K/V
        is appended to sequence *b*'s cached state as a side effect, exactly
        like a single-sequence ``_forward([token], caches)`` call.
        """
        if len(tokens) != len(handles):
            raise ValueError("tokens and handles must align")
        if not tokens:
            raise ValueError("empty decode batch")
        if self.decode_mode == "exact":
            return np.stack([self._forward([int(t)], handle.caches)
                             for t, handle in zip(tokens, handles)])
        return self._decode_fused(tokens, handles)

    def _decode_fused(self, tokens: Sequence[int],
                      handles: Sequence[SequenceHandle]) -> np.ndarray:
        batch = len(tokens)
        heads, head_dim = self.n_heads, self.head_dim
        slots = np.asarray([handle.slot for handle in handles])
        positions = self._slot_lens[slots].copy()  # (B,) pre-append lengths
        if int(positions.max()) >= self.config.max_seq_len:
            raise ValueError("a sequence exceeds the model context window")
        paged = self.kv_mode == "paged"
        if paged:
            for b, handle in enumerate(handles):
                self._ensure_paged(handle.slot, int(positions[b]) + 1)
        else:
            self._ensure_slot_storage(int(positions.max()) + 1)
        x = self.tok_emb[np.asarray(tokens, dtype=np.int64)]  # (B, D)
        cos = self._cos[positions][:, None, :]  # (B, 1, Dh)
        sin = self._sin[positions][:, None, :]
        half = head_dim // 2
        lengths = positions + 1  # per-sequence lengths after the append
        t_max = int(lengths.max())
        invalid = np.arange(t_max)[None, :] >= lengths[:, None]  # (B, Tmax)
        scale = 1.0 / np.sqrt(head_dim)
        dim = heads * head_dim
        if paged:
            # Flat storage indices of each sequence's history (padded rows:
            # stale/zero indices land on once-zeroed storage, and masked
            # scores give them exactly-zero softmax weight) and of each
            # new token's write position — one store + one gather per layer
            # across the whole batch, no per-sequence loop.
            # Raveled for np.take: ~7x faster than 2-D fancy indexing on
            # the (H, N, Dh) flat views (take hits the optimized
            # contiguous-row copy path, mapiter does not).
            gather_idx = self._gather_pad[slots, :t_max].ravel()  # (B*Tmax,)
            write_idx = self._gather_pad[slots, positions]  # (B,)
        for li, layer in enumerate(self.layers):
            h = _rms_norm(x, layer["attn_norm"])
            qkv = self._mm(h, li, "qkv")  # (B, 3*D)
            q = qkv[:, :dim].reshape(batch, heads, head_dim)
            k = qkv[:, dim: 2 * dim].reshape(batch, heads, head_dim)
            v = qkv[:, 2 * dim:].reshape(batch, heads, head_dim)
            q = q * cos + np.concatenate([-q[..., half:], q[..., :half]], -1) * sin
            k = k * cos + np.concatenate([-k[..., half:], k[..., :half]], -1) * sin
            if paged:
                self._flat_k[li][:, write_idx] = k.transpose(1, 0, 2)
                self._flat_v[li][:, write_idx] = v.transpose(1, 0, 2)
                k_all = np.take(self._flat_k[li], gather_idx, axis=1) \
                    .reshape(heads, batch, t_max, head_dim)
                v_all = np.take(self._flat_v[li], gather_idx, axis=1) \
                    .reshape(heads, batch, t_max, head_dim)
                # Head-major batching: per-(h, b) operand slices are the
                # same contiguous (Tmax, Dh) layouts the dense path feeds
                # the kernel, so the gathered histories stay bit-identical.
                ctx = attention_nograd(q.transpose(1, 0, 2)[:, :, None, :],
                                       k_all, v_all, scale=scale,
                                       invalid=invalid[None, :, None, :])
                ctx = ctx[:, :, 0, :].transpose(1, 0, 2).reshape(batch, -1)
            else:
                self._slot_k[li][slots, :, positions] = k
                self._slot_v[li][slots, :, positions] = v
                # One vectorised gather per buffer (ragged rows padded to Tmax).
                k_all = self._slot_k[li][slots, :, :t_max]  # (B, H, Tmax, Dh)
                v_all = self._slot_v[li][slots, :, :t_max]
                # Fused no-grad attention: mask, softmax and @V in one buffer.
                ctx = attention_nograd(q[:, :, None, :], k_all, v_all,
                                       scale=scale,
                                       invalid=invalid[:, None, None, :])
                ctx = ctx[:, :, 0, :].reshape(batch, -1)
            x = x + self._mm(ctx, li, "o")
            h = _rms_norm(x, layer["mlp_norm"])
            gate_up = self._mm(h, li, "gate_up")  # (B, 2*ffn)
            ffn = gate_up.shape[1] // 2
            x = x + self._mm(_silu(gate_up[:, :ffn]) * gate_up[:, ffn:],
                             li, "down")
        self._slot_lens[slots] = lengths
        x = _rms_norm(x, self.final_norm)
        return self._head(x)  # (B, vocab)

    # ------------------------------------------------------------------
    # speculative decoding primitives
    # ------------------------------------------------------------------
    def verify_scores(self, tokens: Sequence[int],
                      handle: SequenceHandle) -> np.ndarray:
        """Score a chain of tokens in one forward; returns ``(T, vocab)``.

        Row ``i`` holds the next-token logits after consuming
        ``tokens[:i + 1]`` — exactly what ``i + 1`` sequential single-token
        decode calls would produce (to float tolerance; token-level parity
        is what the speculative differential suite asserts).  The chain's
        K/V is appended to the handle's cache as a side effect; the caller
        rolls back unverified positions with :meth:`truncate_kv`.
        """
        if not tokens:
            raise ValueError("empty verification chain")
        if handle.length + len(tokens) > self.config.max_seq_len:
            raise ValueError("verification chain exceeds the context window")
        if handle.caches is not None:
            return self._forward_all([int(t) for t in tokens], handle.caches)
        return self._verify_fused([int(t) for t in tokens], handle)

    def truncate_kv(self, handle: SequenceHandle, length: int) -> None:
        """Roll a sequence's cache back to ``length`` positions.

        Exact-mode caches shrink their logical length; fused slots shrink
        the length vector; paged slots additionally drop now-unused whole
        blocks (the partial tail block is kept and its stale positions are
        overwritten by the next append — and masked until then, like every
        position beyond a sequence's length).  Owned blocks return to the
        pool's free list; shared ones (adopted from an entry — possible
        only if a truncation descends below the adopted prefix) drop the
        slot's reference and live on with the entry.
        """
        if handle.caches is not None:
            for cache in handle.caches:
                cache.truncate(length)
            return
        slot = handle.slot
        current = int(self._slot_lens[slot])
        if length < 0 or length > current:
            raise ValueError(f"truncate length {length} outside [0, {current}]")
        self._slot_lens[slot] = length
        if self.kv_mode == "paged" and self._block_pool is not None:
            keep = -(-length // self._kv_block_tokens)  # ceil
            blocks = self._slot_blocks[slot]
            while len(blocks) > keep:
                block = blocks.pop()
                if len(blocks) < self._slot_shared_n[slot]:
                    self._block_pool.release(block)
                    self._slot_shared_n[slot] = len(blocks)
                else:
                    self._block_pool.free(block)

    def _forward_all(self, ids: Sequence[int],
                     caches: List[_LayerCache]) -> np.ndarray:
        """Exact-path multi-token forward returning logits at *every*
        position (``InferenceEngine._forward`` keeps only the last row)."""
        ids = np.asarray(ids, dtype=np.int64)
        x = self.tok_emb[ids]  # (T, D)
        start = caches[0].length
        for layer, cache in zip(self.layers, caches):
            h = _rms_norm(x, layer["attn_norm"])
            t = h.shape[0]
            q = (h @ layer["q"].T).reshape(t, self.n_heads, self.head_dim) \
                .transpose(1, 0, 2)
            k = (h @ layer["k"].T).reshape(t, self.n_heads, self.head_dim) \
                .transpose(1, 0, 2)
            v = (h @ layer["v"].T).reshape(t, self.n_heads, self.head_dim) \
                .transpose(1, 0, 2)
            q = self._apply_rope(q, start)
            k = self._apply_rope(k, start)
            cache.append(k, v)
            ctx = attention_nograd(q, cache.k, cache.v, causal_tail=t) \
                .transpose(1, 0, 2).reshape(t, -1)
            x = x + ctx @ layer["o"].T
            h = _rms_norm(x, layer["mlp_norm"])
            x = x + (_silu(h @ layer["gate"].T) * (h @ layer["up"].T)) \
                @ layer["down"].T
        x = _rms_norm(x, self.final_norm)
        return x @ self.lm_head.T  # (T, vocab)

    def _verify_fused(self, tokens: List[int],
                      handle: SequenceHandle) -> np.ndarray:
        """Fused-path multi-token forward against slot storage.

        The single-sequence twin of :meth:`_decode_fused`: same packed
        projections (fp32 or int8), same storage writes, but ``T`` chained
        positions at once with the exact path's ``causal_tail`` masking —
        one GEMM set per layer instead of one per token.
        """
        slot = handle.slot
        start = int(self._slot_lens[slot])
        t = len(tokens)
        if self.kv_mode == "paged":
            self._ensure_paged(slot, start + t)
        else:
            self._ensure_slot_storage(start + t)
        heads, head_dim = self.n_heads, self.head_dim
        dim = heads * head_dim
        x = self.tok_emb[np.asarray(tokens, dtype=np.int64)]  # (T, D)
        for li, layer in enumerate(self.layers):
            h = _rms_norm(x, layer["attn_norm"])
            qkv = self._mm(h, li, "qkv")  # (T, 3*D)
            q = qkv[:, :dim].reshape(t, heads, head_dim).transpose(1, 0, 2)
            k = qkv[:, dim: 2 * dim].reshape(t, heads, head_dim) \
                .transpose(1, 0, 2)
            v = qkv[:, 2 * dim:].reshape(t, heads, head_dim).transpose(1, 0, 2)
            q = self._apply_rope(q, start)
            k = self._apply_rope(k, start)
            self._write_kv_span(li, slot, start, k, v)
            k_all, v_all = self._slot_kv_view(li, slot, start + t)
            ctx = attention_nograd(q, k_all, v_all, causal_tail=t) \
                .transpose(1, 0, 2).reshape(t, -1)
            x = x + self._mm(ctx, li, "o")
            h = _rms_norm(x, layer["mlp_norm"])
            gate_up = self._mm(h, li, "gate_up")
            ffn = gate_up.shape[1] // 2
            x = x + self._mm(_silu(gate_up[:, :ffn]) * gate_up[:, ffn:],
                             li, "down")
        self._slot_lens[slot] = start + t
        x = _rms_norm(x, self.final_norm)
        return self._head(x)  # (T, vocab)

    def _write_kv_span(self, li: int, slot: int, start: int,
                       k: np.ndarray, v: np.ndarray) -> None:
        """Store ``(H, T, Dh)`` K/V rows at positions ``start..start+T-1``."""
        t = k.shape[1]
        if self.kv_mode != "paged":
            self._slot_k[li][slot, :, start: start + t] = k
            self._slot_v[li][slot, :, start: start + t] = v
            return
        idx = self._gather_pad[slot, start: start + t]
        self._flat_k[li][:, idx] = k
        self._flat_v[li][:, idx] = v

    def _slot_kv_view(self, li: int, slot: int, upto: int
                      ) -> Tuple[np.ndarray, np.ndarray]:
        """The first ``upto`` positions of a slot's K/V (view if dense,
        gathered copy if paged)."""
        if self.kv_mode != "paged":
            return (self._slot_k[li][slot, :, :upto],
                    self._slot_v[li][slot, :, :upto])
        idx = self._gather_pad[slot, :upto]
        return self._flat_k[li][:, idx], self._flat_v[li][:, idx]
