"""Prefix KV-cache pool: reuse attention state across requests that share a
prompt prefix.

ChipAlign-style deployments have *highly* shareable prefixes: every OpenROAD
QA prompt opens with the same grounding-instruction block, and RAG prompts
share the retrieved-context template.  Because a token's K/V state depends
only on the tokens before it, the cached KV of any stored prompt is valid
for **every** prefix of that prompt — so a lookup returns the longest stored
entry that prefixes the new prompt, truncated to the match length, and
prefill only has to process the unseen suffix.

Entries are bounded and evicted LRU.  Payloads are :class:`KVEntry` objects:
either owned array copies (:class:`ArrayEntry`, the dense/exact engines) or
shared references into the engine's paged block plane (:class:`BlockEntry`) —
a hit on a block entry costs refcount bumps plus at most one sub-block tail
copy instead of materializing the whole ``(H, T, Dh)`` stack.  Entries are
immutable once stored (full blocks are shared read-only; the live sequence
only ever writes at positions beyond the shared prefix), so they are safe to
share between concurrent sequences.

Note on exactness: prefill of a suffix runs matmuls with different shapes
than a full-prompt prefill, so reused-prefix logits agree with the
from-scratch path to float tolerance (~1e-6), not bit-for-bit — the same
caveat batched serving systems such as vLLM document.  Run the server with
``prefix_cache=False`` when bitwise reproducibility matters.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

#: One layer's cached state: ``(k, v)`` arrays of shape ``(H, T, Dh)``.
LayerKV = Tuple[np.ndarray, np.ndarray]


def common_prefix_length(a: Sequence[int], b: Sequence[int]) -> int:
    """Length of the longest common prefix of two token sequences."""
    n = min(len(a), len(b))
    for i in range(n):
        if a[i] != b[i]:
            return i
    return n


def common_prefix_length_np(a, b) -> int:
    """Vectorized twin of :func:`common_prefix_length`.

    Same accumulate-and-sum scan :meth:`PrefixCachePool._scan` runs over its
    key matrix, applied to a single pair: the first mismatch kills the
    running AND, so the sum of the accumulated mask *is* the common-prefix
    length.  Bit-identical to the scalar walk (parity-tested).
    """
    n = min(len(a), len(b))
    if n == 0:
        return 0
    eq = (np.asarray(a[:n], dtype=np.int64)
          == np.asarray(b[:n], dtype=np.int64))
    return int(np.logical_and.accumulate(eq).sum())


# ---------------------------------------------------------------------------
# KV entry payloads
# ---------------------------------------------------------------------------
class KVEntry:
    """Stored KV payload of a prefix-pool or session entry.

    ``length`` is the number of cached positions.  :meth:`materialize`
    returns owned per-layer ``(k, v)`` copies (the exact engine's adoption
    path and the debugging/oracle path); engines with slot storage adopt
    entries directly without materializing.  :meth:`release` drops whatever
    resources the entry retains — pools call it on eviction, pruning,
    replacement, and declined inserts.
    """

    length: int = 0

    def materialize(self, upto: Optional[int] = None) -> List[LayerKV]:
        raise NotImplementedError

    def release(self) -> None:  # pragma: no cover - overridden where needed
        pass


class ArrayEntry(KVEntry):
    """Entry backed by owned array copies — the copy path's payload."""

    __slots__ = ("layer_kv", "length")

    def __init__(self, layer_kv: List[LayerKV],
                 length: Optional[int] = None) -> None:
        self.layer_kv = layer_kv
        width = layer_kv[0][0].shape[1] if layer_kv else 0
        self.length = width if length is None else min(length, width)

    def materialize(self, upto: Optional[int] = None) -> List[LayerKV]:
        upto = self.length if upto is None else min(upto, self.length)
        return [(k[:, :upto].copy(), v[:, :upto].copy())
                for k, v in self.layer_kv]


class BlockEntry(KVEntry):
    """Entry backed by shared references into an engine's block plane.

    ``blocks`` are *full* blocks (``block_tokens`` positions each), shared
    read-only — the entry holds one :meth:`BlockPool.share` reference per
    block and releases them when dropped.  ``frag`` is the copied sub-block
    tail (per-layer ``(k, v)`` arrays of fewer than ``block_tokens``
    positions): a partial block belongs to a live, still-writing sequence,
    so it cannot be shared and is copied instead — copy-on-write at block
    granularity.
    """

    __slots__ = ("plane", "blocks", "frag", "length")

    def __init__(self, plane, blocks: List[int],
                 frag: Optional[List[LayerKV]], length: int) -> None:
        self.plane = plane
        self.blocks = list(blocks)
        self.frag = frag
        self.length = length

    def materialize(self, upto: Optional[int] = None) -> List[LayerKV]:
        return self.plane.gather_entry_kv(self, upto)

    def release(self) -> None:
        blocks, self.blocks = self.blocks, []
        for block in blocks:
            self.plane.release_block(block)


#: What callers may hand to ``insert``/``update``: a ready entry, a lazy
#: supplier invoked only if the insert is accepted (so a declined insert
#: costs nothing — no copy, no retain), or a legacy per-layer array list.
KVPayload = Union[KVEntry, Callable[[], KVEntry], List[LayerKV]]


def coerce_entry(payload: KVPayload, length: int) -> KVEntry:
    """Normalize an accepted insert payload to a :class:`KVEntry`."""
    if isinstance(payload, KVEntry):
        return payload
    if callable(payload):
        entry = payload()
        if not isinstance(entry, KVEntry):
            raise TypeError("KV payload supplier must return a KVEntry")
        return entry
    return ArrayEntry([(k[:, :length].copy(), v[:, :length].copy())
                       for k, v in payload])


class PrefixCachePool:
    """LRU pool of prompt KV states keyed by their token ids.

    Parameters
    ----------
    max_entries:
        Entry cap; least-recently-used entries are evicted beyond it.
    min_match_tokens:
        Shortest reusable prefix.  Very short matches (a shared BOS token)
        are not worth the copy, so they count as misses.
    """

    def __init__(self, max_entries: int = 32, min_match_tokens: int = 8) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.max_entries = max_entries
        self.min_match_tokens = min_match_tokens
        self._entries: Dict[Tuple[int, ...], KVEntry] = {}
        self._clock = 0
        self._last_used: Dict[Tuple[int, ...], int] = {}
        # Padded key matrix backing the vectorized lookup scan: one int64
        # row per entry, written once at insert and reset to padding when
        # the entry leaves; rows are reused, so ``_order`` (the insertion
        # sequence number of each row's key) carries the insertion-order
        # tie-break.
        self._matrix = np.full((0, 0), -1, dtype=np.int64)
        self._order = np.zeros(0, dtype=np.int64)
        self._row_keys: List[Optional[Tuple[int, ...]]] = []
        self._row_of: Dict[Tuple[int, ...], int] = {}
        self._free_rows: List[int] = []
        self._inserted = 0
        self.hits = 0
        self.misses = 0
        self.tokens_reused = 0

    def __len__(self) -> int:
        return len(self._entries)

    def entries(self) -> Dict[Tuple[int, ...], KVEntry]:
        """Live key → entry mapping (the dict itself; treat as read-only)."""
        return self._entries

    # ------------------------------------------------------------------
    def lookup(self, prompt_ids: Sequence[int]
               ) -> Tuple[int, Optional[KVEntry]]:
        """Longest reusable prefix of ``prompt_ids``.

        Returns ``(match_len, entry)`` — the stored :class:`KVEntry` itself,
        *not* a copy: adoption cost is the engine's business (shared blocks
        make it a refcount bump).  ``(0, None)`` on a miss.  The match is
        capped at ``len(prompt_ids) - 1`` so at least one prompt token always
        runs through prefill (the model needs a forward pass to produce
        logits).
        """
        prompt = tuple(int(i) for i in prompt_ids)
        best_key, best_len = self._scan(prompt)
        if best_key is None or best_len < self.min_match_tokens:
            self.misses += 1
            return 0, None
        entry = self._entries[best_key]
        best_len = min(best_len, entry.length)
        if best_len < self.min_match_tokens:
            self.misses += 1
            return 0, None
        self.hits += 1
        self.tokens_reused += best_len
        self._clock += 1
        self._last_used[best_key] = self._clock
        return best_len, entry

    def _scan(self, prompt: Tuple[int, ...]
              ) -> Tuple[Optional[Tuple[int, ...]], int]:
        """Longest-common-prefix scan over all entries, vectorized.

        One ``(entries, width)`` comparison against a padded key matrix
        replaces the per-entry Python loop, so fleet-scale prefill pays
        numpy time instead of O(entries · prompt_len) interpreter time.
        Bit-identical to :meth:`_scan_scalar` (asserted in tests),
        including the first-max-in-insertion-order tie-break.
        """
        limit = len(prompt) - 1
        if not self._entries or limit < 1:
            return None, 0
        cmp_len = min(self._matrix.shape[1], limit)
        row = np.asarray(prompt[:cmp_len], dtype=np.int64)
        # Key padding is -1, which never equals a (non-negative) token id,
        # so a shorter key stops matching exactly at its own length and a
        # free row never matches at all.
        eq = self._matrix[:, :cmp_len] == row[None, :]
        matches = np.logical_and.accumulate(eq, axis=1).sum(axis=1)
        best_len = int(matches.max())
        if best_len == 0:
            return None, 0
        tied = np.flatnonzero(matches == best_len)
        best = tied[int(self._order[tied].argmin())]
        return self._row_keys[best], best_len

    def _scan_scalar(self, prompt: Tuple[int, ...]
                     ) -> Tuple[Optional[Tuple[int, ...]], int]:
        """Reference Python-loop scan kept as the parity oracle for
        :meth:`_scan`."""
        limit = len(prompt) - 1
        best_key: Optional[Tuple[int, ...]] = None
        best_len = 0
        for key in self._entries:
            match = min(common_prefix_length(key, prompt), limit)
            if match > best_len:
                best_key, best_len = key, match
        return best_key, best_len

    def _add_row(self, key: Tuple[int, ...]) -> None:
        """Write a new entry's key into a free matrix row."""
        rows, width = self._matrix.shape
        if not self._free_rows or len(key) > width:
            # Grow: rows by doubling (capped at the most the pool can hold
            # at once), width to the new key's length.
            if not self._free_rows:
                grown = min(max(2 * rows, 1), self.max_entries + 1)
                self._free_rows = list(range(grown - 1, rows - 1, -1))
                self._row_keys.extend([None] * (grown - rows))
                self._order = np.concatenate(
                    [self._order, np.zeros(grown - rows, dtype=np.int64)])
                rows = grown
            matrix = np.full((rows, max(width, len(key))), -1, dtype=np.int64)
            matrix[: self._matrix.shape[0], :width] = self._matrix
            self._matrix = matrix
        row = self._free_rows.pop()
        self._matrix[row, : len(key)] = key
        self._order[row] = self._inserted
        self._inserted += 1
        self._row_keys[row] = key
        self._row_of[key] = row

    def _drop(self, key: Tuple[int, ...]) -> None:
        """Remove an entry (releasing its payload) and free its row."""
        self._entries.pop(key).release()
        del self._last_used[key]
        row = self._row_of.pop(key)
        self._matrix[row] = -1
        self._row_keys[row] = None
        self._free_rows.append(row)

    def insert(self, prompt_ids: Sequence[int], payload: KVPayload) -> None:
        """Store the KV state of a fully prefilled prompt.

        ``payload`` may be a ready :class:`KVEntry`, a zero-argument supplier
        invoked only when the insert is accepted (the scheduler passes
        ``lambda: engine.make_entry(...)`` so declined inserts cost nothing),
        or a legacy per-layer array list (copied at store).  The pool owns
        accepted entries and releases them on eviction/pruning/replacement;
        a ready entry that is declined is released here.
        """
        key = tuple(int(i) for i in prompt_ids)
        if len(key) < self.min_match_tokens:
            self._decline(payload)
            return
        if key in self._entries:
            self._clock += 1
            self._last_used[key] = self._clock
            self._decline(payload)
            return
        # A new entry that is a prefix of a stored one adds no information —
        # but the insert is still a use of the subsuming entry (it serves
        # every lookup the new key could), so refresh its LRU clock.  Hot
        # prefixes kept alive only via subsumed inserts must stay resident.
        for stored in self._entries:
            if len(stored) >= len(key) and stored[: len(key)] == key:
                self._clock += 1
                self._last_used[stored] = self._clock
                self._decline(payload)
                return
        # Conversely, stored entries that are strict prefixes of the new key
        # are subsumed by it (every lookup they could serve, it serves at
        # least as well) — prune them so they stop burning entry capacity
        # and lengthening the O(entries · len) lookup scan.
        subsumed = [stored for stored in self._entries
                    if len(stored) < len(key) and key[: len(stored)] == stored]
        for stored in subsumed:
            self._drop(stored)
        self._entries[key] = coerce_entry(payload, len(key))
        self._add_row(key)
        self._clock += 1
        self._last_used[key] = self._clock
        while len(self._entries) > self.max_entries:
            self._drop(min(self._last_used, key=self._last_used.get))

    @staticmethod
    def _decline(payload: KVPayload) -> None:
        """Dispose of a payload the pool chose not to store.  Suppliers are
        simply never invoked; ready entries must drop their retained blocks."""
        if isinstance(payload, KVEntry):
            payload.release()

    def clear(self) -> None:
        """Drop every entry, releasing retained block references."""
        for entry in self._entries.values():
            entry.release()
        self._entries.clear()
        self._last_used.clear()
        self._matrix[:] = -1
        self._row_keys = [None] * len(self._row_keys)
        self._row_of.clear()
        self._free_rows = list(range(len(self._row_keys) - 1, -1, -1))

    # ------------------------------------------------------------------
    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> Dict[str, float]:
        return {
            "entries": len(self._entries),
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": self.hit_rate,
            "tokens_reused": self.tokens_reused,
        }


# ---------------------------------------------------------------------------
# paged-KV block allocator
# ---------------------------------------------------------------------------
class BlockPoolError(RuntimeError):
    """An allocation/free request violated the pool's ownership rules."""


class BlockPool:
    """Reference-counted free-list allocator of fixed-size KV blocks.

    The dense engine sizes every batch slot for the longest sequence the
    engine has ever seen — ``max_batch × capacity`` tokens of K/V per layer,
    whatever each slot actually holds.  Paged allocation (the vLLM model)
    instead carves KV storage into blocks of ``block_tokens`` positions and
    hands them out on demand: a short chat turn holds one block while a
    long grounding prompt holds twenty, and freeing a sequence returns its
    blocks for immediate reuse.

    The pool manages only *bookkeeping* — integer block ids with a refcount
    and at most one *owner* tag (the engine uses its slot index).  Ownership
    is one reference; :meth:`share`/:meth:`release` add and drop anonymous
    read-only references (prefix-pool and session entries, slots adopting a
    shared prefix).  A block returns to the free list only when its last
    reference drops.  Storage lives with the engine, which also zeroes a
    block's K/V on every :meth:`alloc` so a reused block can never leak a
    prior session's tail into a fresh sequence (the regression the dense
    path only masks; see DESIGN.md §11).

    Invariants, enforced here and property-tested with Hypothesis:

    * a block is owned by at most one owner at a time (no aliasing);
    * every live block has refcount ≥ 1, and an owned block's refcount
      covers its owner stake;
    * ``allocated + free == n_blocks`` after every operation (conservation) —
      a block is *allocated* while any reference remains, so no block is
      freed while still referenced;
    * dropping a reference a block doesn't hold (double-free, foreign
      release) raises :class:`BlockPoolError` instead of corrupting state.
    """

    def __init__(self, n_blocks: int, block_tokens: int = 16) -> None:
        if n_blocks < 1:
            raise ValueError("n_blocks must be >= 1")
        if block_tokens < 1:
            raise ValueError("block_tokens must be >= 1")
        self.block_tokens = block_tokens
        self._n_blocks = n_blocks
        # LIFO free list, seeded so block 0 is handed out first — freshly
        # freed blocks are reused while still cache-warm.
        self._free = list(range(n_blocks - 1, -1, -1))
        self._owner: Dict[int, object] = {}
        self._owned: Dict[object, List[int]] = {}
        self._refs: Dict[int, int] = {}

    # ------------------------------------------------------------------
    @property
    def n_blocks(self) -> int:
        return self._n_blocks

    @property
    def n_free(self) -> int:
        return len(self._free)

    @property
    def n_allocated(self) -> int:
        return len(self._refs)

    @property
    def n_shared_refs(self) -> int:
        """Anonymous (non-owner) references currently outstanding."""
        return sum(self._refs.values()) - len(self._owner)

    def refcount(self, block: int) -> int:
        return self._refs.get(block, 0)

    def owner_blocks(self, owner) -> List[int]:
        """The blocks ``owner`` holds, in allocation order (a copy)."""
        return list(self._owned.get(owner, ()))

    # ------------------------------------------------------------------
    def alloc(self, owner) -> int:
        """Hand a free block to ``owner`` (refcount 1); raises when the pool
        is empty (the engine grows storage and calls :meth:`grow` first)."""
        if not self._free:
            raise BlockPoolError(
                f"pool exhausted: all {self._n_blocks} blocks allocated")
        block = self._free.pop()
        self._owner[block] = owner
        self._owned.setdefault(owner, []).append(block)
        self._refs[block] = 1
        return block

    def share(self, block: int) -> int:
        """Add an anonymous read-only reference to a live block; returns the
        new refcount.  Shared blocks outlive their owner — the entry (or
        adopting slot) must :meth:`release` what it shares."""
        refs = self._refs.get(block)
        if refs is None:
            raise BlockPoolError(f"block {block} is not allocated")
        self._refs[block] = refs + 1
        return refs + 1

    def release(self, block: int) -> None:
        """Drop one anonymous reference; frees the block when it was the
        last reference of any kind."""
        refs = self._refs.get(block)
        if refs is None:
            raise BlockPoolError(f"block {block} is not allocated")
        if refs - (1 if block in self._owner else 0) < 1:
            raise BlockPoolError(
                f"block {block} has no shared reference to release")
        refs -= 1
        if refs == 0:
            del self._refs[block]
            self._free.append(block)
        else:
            self._refs[block] = refs

    def free(self, block: int) -> None:
        """Drop a block's *owner* stake (must be owned).  The block returns
        to the free list only if no shared references remain."""
        owner = self._owner.pop(block, None)
        if owner is None:
            raise BlockPoolError(f"block {block} is not allocated")
        owned = self._owned[owner]
        owned.remove(block)
        if not owned:
            del self._owned[owner]
        self._drop_ref(block)

    def free_owner(self, owner) -> List[int]:
        """Drop the owner stake of every block ``owner`` holds; returns them
        in allocation order.  Blocks still referenced by entries stay
        allocated.  Freeing an owner with no blocks is a no-op (a released
        exact-mode sequence never allocated any)."""
        blocks = self._owned.pop(owner, [])
        for block in blocks:
            del self._owner[block]
            self._drop_ref(block)
        return blocks

    def _drop_ref(self, block: int) -> None:
        refs = self._refs[block] - 1
        if refs == 0:
            del self._refs[block]
            self._free.append(block)
        else:
            self._refs[block] = refs

    def grow(self, extra: int) -> None:
        """Add ``extra`` fresh blocks (ids continue past the current range)."""
        if extra < 1:
            raise ValueError("extra must be >= 1")
        start = self._n_blocks
        self._n_blocks += extra
        self._free.extend(range(self._n_blocks - 1, start - 1, -1))

    # ------------------------------------------------------------------
    def conservation_ok(self) -> bool:
        """``allocated + free == n_blocks`` with disjoint, alias-free sets
        and refcounts covering every outstanding stake."""
        if self.n_allocated + self.n_free != self._n_blocks:
            return False
        free = set(self._free)
        if len(free) != len(self._free) or free & set(self._refs):
            return False
        if any(refs < 1 for refs in self._refs.values()):
            return False
        if not set(self._owner) <= set(self._refs):
            return False
        per_owner = [b for blocks in self._owned.values() for b in blocks]
        return (len(per_owner) == len(set(per_owner))
                and set(per_owner) == set(self._owner))

    def stats(self) -> Dict[str, int]:
        return {
            "n_blocks": self._n_blocks,
            "block_tokens": self.block_tokens,
            "allocated": self.n_allocated,
            "free": self.n_free,
            "owners": len(self._owned),
            "shared_refs": self.n_shared_refs,
        }
