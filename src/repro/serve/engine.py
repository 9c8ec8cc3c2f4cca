"""Batched decoding engine: step N independent sequences at once.

:class:`BatchedEngine` extends the single-sequence
:class:`~repro.nn.infer.InferenceEngine` with what the scheduler needs:

* **admission** — :meth:`begin_sequence` opens a sequence, optionally
  adopting a pool/session :class:`~repro.serve.cache.KVEntry` (shared
  block references in paged mode: a refcount bump plus at most one
  sub-block tail copy), and :meth:`prefill_into` runs the unseen prompt
  suffix forward, writing K/V straight into the sequence's storage;
  :meth:`make_entry` snapshots a sequence back into an entry the same way
  — shared blocks out, not copies.  The ``kv_bytes_copied`` /
  ``blocks_shared`` counters account every KV byte that moves between
  storage locations (and every block reference taken), which is how the
  kvplane benchmark asserts a full prefix hit copies *zero* KV bytes;
* **batched decode** — one call advances every running sequence by a token;
* **speculative verification** — :meth:`verify_scores` scores a chain of
  candidate tokens in one forward pass and :meth:`truncate_kv` rolls the
  cache back past a rejection, the primitives the scheduler's speculative
  decode loop is built on.

Each runs the one transformer forward, ``InferenceEngine._layer_loop``,
with a KV store (per-sequence caches, one slot's span, or the ragged
decode batch) and a projection strategy (unpacked, or packed fp32/int8).

Two decode modes, selected at construction:

``"fused"`` (default)
    Sequences live in engine-owned *slots*: per layer, one ragged batch
    buffer of shape ``(max_batch, heads, capacity, head_dim)`` plus a
    length vector, grown by amortised doubling.  (Not reserved at
    ``max_seq_len`` up front: each slot-and-head row is its own run of
    pages, so short sequences would touch a page per row.)  A decode step
    runs the embeddings, attention projections, and SwiGLU MLP as single
    ``(B, ·)`` matmuls, writes each sequence's new K/V into its slot row
    with one fancy-indexed store per layer, and attends over the running
    slots' histories with out-of-range positions masked to ``-1e30``.  Dense
    slots are picked with an index array, so every step copies each
    running sequence's ``Tmax``-long K/V history, per layer, into a fresh
    gather buffer (paged mode gathers its blocks the same way).  BLAS
    matmuls are not bitwise row-stable across batch shapes, so fused
    logits match the single-sequence engine to ~1e-6 float tolerance;
    near-degenerate logit ties could in principle resolve differently.
    Prefill runs the unpacked single-sequence projections, so its logits
    and stored K/V are bitwise equal to exact mode's.
``"exact"``
    Sequences keep per-sequence :class:`~repro.nn.infer._LayerCache` state
    and decode loops them through ``InferenceEngine._forward`` with the
    exact array shapes of single-sequence decoding — guaranteeing
    token-for-token parity with :meth:`InferenceEngine.generate`.  Use for
    regression comparisons and determinism-critical evaluation, and as the
    oracle of the fused paths.

Orthogonal to the decode mode, two cheap-serve axes (DESIGN.md §11):

``weight_mode="int8"``
    Matmul weights are held as per-output-channel int8 with float scales
    (:func:`~repro.nn.kernels.quantize_state_dict`) and fused decode runs
    :func:`~repro.nn.kernels.matmul_int8_nograd` — the dequantization
    happens inside the kernel against a pooled scratch buffer, never as a
    persistent fp32 matrix.  Prefill and the exact decode path run on the
    *dequantized* weights, which makes exact mode the byte-level oracle
    for the quantized model (see :func:`dequantized_oracle_model`).  A
    model whose ``parameter_arrays()`` is already quantized (what an int8
    fleet's replicas inherit) is consumed verbatim, never re-quantized.
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
    arena, reserved once for ``max_batch`` full contexts and viewed flat
    as ``(H, blocks·bt, Dh)``; the pool's logical size still doubles, and
    blocks past it are never written, so never resident.  Per-slot
    gather-index rows (``_gather_pad``) map sequence positions to flat
    storage positions, so a decode step is one fancy-index store and one
    gather per layer across the whole batch — no per-sequence Python loop.
    The dense layout stays the differential oracle: both layouts feed
    bit-identical gathered histories to the same attention kernel.

Sequences are handed to callers as opaque :class:`SequenceHandle` objects;
the scheduler never touches the storage representation.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from ..nn.infer import (BLOCK_WEIGHTS, InferenceEngine, _CacheStore,
                        _LayerCache, _Unpacked, _rope, _silu)
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
    and ``.parameter_arrays()``, so this shim lets the engine be built from
    a transformed weight set — the dequantized twin of an int8 model, the
    quantization an int8 fleet's replicas inherit — without materialising
    a TransformerLM.
    """

    __slots__ = ("config", "_state")

    def __init__(self, config, state: Dict[str, np.ndarray]) -> None:
        self.config = config
        self._state = state

    def parameter_arrays(self) -> Dict[str, np.ndarray]:
        return self._state


def dequantized_oracle_model(model) -> _StateModel:
    """The fp32 model an int8 engine actually serves.

    Quantize-then-dequantize the model's weights (identity if they are
    already quantized) and wrap the result.  An exact-mode engine built
    from this model defines the token streams the fused int8 path must
    reproduce — the differential oracle of the int8 parity suite.
    """
    state = model.parameter_arrays()
    if not is_quantized_state(state):
        state = quantize_state_dict(state)
    return _StateModel(model.config, dequantize_state_dict(state))


def _entry_kv(entry: KVEntry, match: int) -> List[LayerKV]:
    """The first ``match`` positions of an entry as per-layer ``(k, v)``
    (views of an array entry; a gathered copy of a block entry)."""
    kvs = (entry.layer_kv if isinstance(entry, ArrayEntry)
           else entry.materialize(match))
    return [(k[:, :match], v[:, :match]) for k, v in kvs]


def _pack(*weights):
    """Stack projection weights row-wise into one GEMM operand; int8
    weights are ``(q, scales)`` pairs and stack pairwise."""
    if isinstance(weights[0], tuple):
        return (np.concatenate([q for q, _ in weights], axis=0),
                np.concatenate([s for _, s in weights]))
    return np.concatenate(weights, axis=0)


class _Packed(_Unpacked):
    """Projection strategy of fused decode and verification: Q|K|V and
    gate|up as one GEMM each, over fp32 or int8 ``(q, scales)`` weights."""

    @staticmethod
    def _mm(h: np.ndarray, w) -> np.ndarray:
        if isinstance(w, tuple):
            return matmul_int8_nograd(h, *w)
        return h @ w.T

    def qkv(self, h: np.ndarray, li: int):
        qkv = self._mm(h, self.layers[li]["qkv"])  # (T, 3*D)
        dim = qkv.shape[1] // 3
        return qkv[:, :dim], qkv[:, dim: 2 * dim], qkv[:, 2 * dim:]

    def mlp(self, h: np.ndarray, li: int) -> np.ndarray:
        gate_up = self._mm(h, self.layers[li]["gate_up"])  # (T, 2*ffn)
        ffn = gate_up.shape[1] // 2
        return self._mm(_silu(gate_up[:, :ffn]) * gate_up[:, ffn:],
                        self.layers[li]["down"])


class _SlotSpan(_CacheStore):
    """KV store of fused prefill and verification: ``t`` new positions of
    one slot, written straight into its dense slab or paged blocks."""

    def __init__(self, engine: "BatchedEngine", slot: int) -> None:
        self.engine = engine
        self.slot = slot
        self.start = int(engine._slot_lens[slot])

    def reserve(self, t: int) -> None:
        super().reserve(t)
        self.engine._reserve(self.slot, self.start + t)

    def commit(self, t: int) -> None:
        self.engine._slot_lens[self.slot] = self.start + t

    def history(self, li: int, k: np.ndarray, v: np.ndarray):
        e, slot, end = self.engine, self.slot, self.start + k.shape[1]
        e._write_kv_span(li, slot, self.start, k, v)
        if e.kv_mode == "paged":
            idx = e._gather_pad[slot, :end]
            return e._flat_k[li][:, idx], e._flat_v[li][:, idx]
        # Contiguous copies so the attention matmuls see the same operand
        # layouts as exact mode.
        return (np.ascontiguousarray(e._slot_k[li][slot, :, :end]),
                np.ascontiguousarray(e._slot_v[li][slot, :, :end]))


class _DecodeBatch:
    """KV store of a fused decode step: one new position for each of ``B``
    slots.  Ragged histories are padded to the longest and masked; dense
    slots are gathered by index array, paged blocks by one ``np.take``."""

    def __init__(self, engine: "BatchedEngine", slots: List[int]) -> None:
        self.engine = engine
        self.slots = np.asarray(slots)
        self.positions = engine._slot_lens[self.slots].copy()  # pre-append

    def end(self, t: int) -> int:
        return int(self.positions.max()) + 1

    def reserve(self, t: int) -> None:
        e, pos = self.engine, self.positions
        self.lengths = pos + 1  # per-sequence lengths after the append
        self.t_max = int(self.lengths.max())
        if e.kv_mode == "paged":
            for slot, p in zip(self.slots, pos):
                e._ensure_paged(int(slot), int(p) + 1)
            # Flat indices of each history (padded rows land on once-zeroed
            # storage that the mask weights at exactly zero) and of each
            # new token, raveled for np.take: ~7x faster than 2-D fancy
            # indexing (take hits the contiguous-row copy path).
            self.gather_idx = e._gather_pad[self.slots, :self.t_max].ravel()
            self.write_idx = e._gather_pad[self.slots, pos]  # (B,)
        else:
            e._ensure_slot_storage(self.t_max)
        self.cos = e._cos[pos][:, None, :]  # (B, 1, Dh)
        self.sin = e._sin[pos][:, None, :]
        self.invalid = (np.arange(self.t_max)[None, :]
                        >= self.lengths[:, None])  # (B, Tmax)

    def commit(self, t: int) -> None:
        self.engine._slot_lens[self.slots] = self.lengths

    def rope(self, x: np.ndarray) -> np.ndarray:
        return _rope(x, self.cos, self.sin)  # (B, H, Dh)

    def attend(self, li: int, q: np.ndarray, k: np.ndarray,
               v: np.ndarray) -> np.ndarray:
        e, batch = self.engine, len(self.slots)
        if e.kv_mode == "paged":
            flat_k, flat_v = e._flat_k[li], e._flat_v[li]
            flat_k[:, self.write_idx] = k.transpose(1, 0, 2)
            flat_v[:, self.write_idx] = v.transpose(1, 0, 2)
            shape = (e.n_heads, batch, self.t_max, e.head_dim)
            k_all = np.take(flat_k, self.gather_idx, axis=1).reshape(shape)
            v_all = np.take(flat_v, self.gather_idx, axis=1).reshape(shape)
            # Head-major batching: per-(h, b) operand slices are the same
            # contiguous (Tmax, Dh) layouts the dense path feeds the
            # kernel, so the gathered histories stay bit-identical.
            ctx = attention_nograd(q.transpose(1, 0, 2)[:, :, None, :],
                                   k_all, v_all,
                                   invalid=self.invalid[None, :, None, :])
            return ctx[:, :, 0, :].transpose(1, 0, 2).reshape(batch, -1)
        slot_k, slot_v = e._slot_k[li], e._slot_v[li]
        slot_k[self.slots, :, self.positions] = k
        slot_v[self.slots, :, self.positions] = v
        # One vectorised gather per buffer (ragged rows padded to Tmax);
        # fused no-grad attention: mask, softmax and @V in one buffer.
        ctx = attention_nograd(q[:, :, None, :],
                               slot_k[self.slots, :, :self.t_max],
                               slot_v[self.slots, :, :self.t_max],
                               invalid=self.invalid[:, None, None, :])
        return ctx[:, :, 0, :].reshape(batch, -1)


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
            state = model.parameter_arrays()
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
        # Fused-mode slot storage, allocated lazily on first use.
        self._slot_k: List[np.ndarray] = []
        self._slot_v: List[np.ndarray] = []
        self._slot_lens = np.zeros(max_batch_size, dtype=np.int64)
        self._free_slots = list(range(max_batch_size - 1, -1, -1))
        # Paged-KV state: the block arena per layer plus per-slot block
        # tables.
        self._kv_block_tokens = kv_block_tokens
        self._block_pool: Optional[BlockPool] = None
        self._page_k: List[np.ndarray] = []
        self._page_v: List[np.ndarray] = []
        # Flat (H, blocks*bt, Dh) views over the block arena (true views:
        # the reshape merges contiguous axes), rebuilt only if it moves.
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
        # Sized once for a full context: no sequence holds more blocks.
        bt = kv_block_tokens
        width = -(-self.config.max_seq_len // bt) * bt
        self._gather_pad = np.zeros((max_batch_size, width), dtype=np.int64)
        self._block_arange = np.arange(kv_block_tokens, dtype=np.int64)
        # KV-plane accounting: bytes physically copied between KV storage
        # locations (adoption copies and tails, entry snapshots) and
        # block references taken via BlockPool.share.  Plain ints always;
        # mirrored into registry counters once attach_kv_metrics is called.
        self.kv_bytes_copied = 0
        self.blocks_shared = 0
        self._kv_copied_counter = None
        self._blocks_shared_counter = None
        # Fused decode and verification pack Q|K|V and gate|up into one
        # GEMM each.  In int8 mode the packed matrices are int8 with
        # per-row scales and the GEMMs run the fused dequant-matmul kernel.
        layers, head = self.layers, self.lm_head
        if weight_mode == "int8":
            def q8(key: str):
                return qstate[key], qstate[key + INT8_SCALE_SUFFIX]

            layers = [{key: q8(f"blocks.{i}.{name}.weight")
                       for key, name in BLOCK_WEIGHTS.items()
                       if not key.endswith("norm")}
                      for i in range(len(self.layers))]
            head = q8("lm_head.weight")
        self._packed = _Packed([{
            "qkv": _pack(layer["q"], layer["k"], layer["v"]),
            "gate_up": _pack(layer["gate"], layer["up"]),
            "o": layer["o"],
            "down": layer["down"],
        } for layer in layers], head)

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
    # admission: entry adoption + prefill into sequence storage
    # ------------------------------------------------------------------
    def _claim_slot(self) -> int:
        if not self._free_slots:
            raise RuntimeError(f"all {self.max_batch_size} slots in use")
        return self._free_slots.pop()

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
        match = 0 if entry is None else min(match, entry.length)
        if self.decode_mode == "exact":
            caches = [_LayerCache() for _ in self.layers]
            if match > 0:
                for cache, (k, v) in zip(caches, _entry_kv(entry, match)):
                    cache.append(k, v)
                self._count_copied(match)
            return SequenceHandle(self, None, caches)
        slot = self._claim_slot()
        if match > 0:
            if (self.kv_mode == "paged" and isinstance(entry, BlockEntry)
                    and entry.plane is self):
                self._adopt_blocks(slot, entry, match)
            else:
                # Dense slot, or a foreign payload (array entry, another
                # engine's blocks): a plain copy into owned storage.
                self._reserve(slot, match)
                for li, (k, v) in enumerate(_entry_kv(entry, match)):
                    self._write_kv_span(li, slot, 0, k, v)
                self._count_copied(match)
        self._slot_lens[slot] = match
        return SequenceHandle(self, slot, None)

    def _adopt_blocks(self, slot: int, entry: BlockEntry, match: int) -> None:
        """Seed a paged slot with ``match`` positions of this engine's
        block ``entry``: shared full blocks, one copied partial tail."""
        bt = self._kv_block_tokens
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

    def _span(self, handle: SequenceHandle) -> _CacheStore:
        """The KV store extending one sequence by consecutive positions."""
        if handle.caches is not None:
            return _CacheStore(self, handle.caches)
        return _SlotSpan(self, handle.slot)

    def prefill_into(self, prompt_ids: Sequence[int],
                     handle: SequenceHandle) -> np.ndarray:
        """Run the prompt suffix the handle does not hold yet forward,
        writing K/V straight into its storage; returns the next-token
        logits of the final prompt position.  Every mode runs the unpacked
        projections, so fused prefill is bitwise equal to exact mode."""
        if not prompt_ids:
            raise ValueError("prompt_ids must be non-empty")
        kv = self._span(handle)
        suffix = [int(i) for i in prompt_ids[kv.start:]]
        if not suffix:
            raise ValueError("reused prefix must be shorter than the prompt")
        return self._layer_loop(suffix, kv)

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
        """Grow the block pool (and, past the arena, the storage) to
        ``needed`` blocks.

        The :class:`BlockPool` is the *logical* size, grown by doubling and
        clamped to ``max_blocks`` (what the batch can use at once) while
        ``needed`` fits; :meth:`kv_stats` reports it.  The physical per-layer
        arena is one ``np.empty((H, A, bt, Dh))`` array with ``A`` the
        larger of ``max_blocks`` and the pool, allocated on first use.  The
        pool hands out only ids below its logical size and every block is
        zeroed in :meth:`_alloc_block` (the guarantee the fresh-slot-zeroing
        regression test pins), so arena blocks past the pool are never
        written and never become resident: ``bytes_reserved`` is an upper
        bound on resident KV.  Only when entries pin more than
        ``max_blocks`` does the arena move, by doubling, with the flat views
        rebuilt.
        """
        pool = self._block_pool
        have = pool.n_blocks if pool is not None else 0
        if needed <= have:
            return
        bt = self._kv_block_tokens
        max_blocks = self.max_batch_size * (-(-self.config.max_seq_len // bt))
        cap = max(have, _INITIAL_POOL_BLOCKS)
        while cap < needed:
            cap *= 2
        # Clamp to what the batch can use at once; past that (entries pin
        # blocks beyond it) keep doubling, so growth stays amortized.
        if needed <= max_blocks:
            cap = min(cap, max_blocks)
        if pool is None:
            self._block_pool = BlockPool(cap, bt)
        else:
            self._block_pool.grow(cap - have)
        arena = self._page_k[0].shape[1] if self._page_k else 0
        if cap <= arena:
            return
        size = max(max_blocks, cap)
        shape = (self.n_heads, size, bt, self.head_dim)
        dtype = self.tok_emb.dtype
        for bufs in (self._page_k, self._page_v):
            for li in range(len(self.layers)):
                grown = np.empty(shape, dtype=dtype)
                if arena:
                    grown[:, :have] = bufs[li][:, :have]
                    bufs[li] = grown
                else:
                    bufs.append(grown)
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
        self._gather_pad[slot, n * bt: (n + 1) * bt] = \
            block * bt + self._block_arange
        table.append(block)

    def _ensure_paged(self, slot: int, upto: int) -> None:
        """Allocate blocks until ``slot`` can hold ``upto`` tokens."""
        bt = self._kv_block_tokens
        while len(self._slot_blocks[slot]) * bt < upto:
            self._alloc_block(slot)

    def _reserve(self, slot: int, upto: int) -> None:
        """Make ``slot`` able to hold ``upto`` tokens in either layout."""
        if self.kv_mode == "paged":
            self._ensure_paged(slot, upto)
        else:
            self._ensure_slot_storage(upto)

    def kv_stats(self) -> Dict[str, object]:
        """KV-storage accounting of the fused decode path.

        ``bytes_reserved`` is the logical capacity — the block pool, or
        every slot at ``slot_capacity`` — an upper bound on resident KV:
        the paged arena is reserved once for ``max_batch`` full contexts,
        but blocks past the pool are never written, so never resident.
        ``bytes_in_use`` is what live sequences actually hold — equal for
        the dense layout (every bound slot reserves full capacity),
        proportional to real sequence lengths for the paged one.  The
        decode benchmark derives its KV-bytes-per-session numbers from
        this.
        """
        token_bytes = self._token_bytes
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
        kv = _DecodeBatch(self, [handle.slot for handle in handles])
        return self._layer_loop(tokens, kv, self._packed, all_rows=True)

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
        proj = None if handle.caches is not None else self._packed
        return self._layer_loop([int(t) for t in tokens], self._span(handle),
                                proj, all_rows=True)

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
