"""Hierarchical tracing: timed spans with an injectable monotonic clock.

A :class:`Tracer` records *spans* — named intervals with metadata — into a
forest of trees: ``span("merge.plan")`` opened inside ``span("fig8.run")``
becomes its child.  The clock is injectable, so tests drive a fake
monotonic counter and assert exact span durations and nesting without ever
sleeping; production code gets :func:`time.perf_counter`.

Storage is a packed log, not an object forest: each finished span is one
fixed-width binary row (interned name id, span id, parent span id, start,
end; 36 bytes) appended to a bytearray, so a stored span creates no
GC-tracked object.  Metadata is stored only for spans that carry it: a
12-byte row (span id, interned key-tuple id) plus the values, appended to
one flat list.  The readers (:attr:`Tracer.roots`, :meth:`Tracer.walk`,
:meth:`Tracer.render`, the exports) rebuild :class:`Span` trees from the
log on demand and cache them until the next record, so a long-running
server pays for trees only when someone reads them.

Spans are bounded: past ``max_spans`` stored rows the tracer keeps timing
but stops *storing*, counting the overflow in ``dropped`` — a long-running
server cannot leak memory through its own instrumentation.  The decision is
made when a span finishes, and children finish before their parent, so a
span dropped at the cap leaves its already-stored children counted but
unreachable from the roots.  Export as a pretty-printed tree
(:meth:`Tracer.render`) or one JSON object per span (:meth:`Tracer.to_jsonl`,
:meth:`Tracer.write_jsonl`).
"""

from __future__ import annotations

import itertools
import json
import struct
import time
from typing import Callable, Dict, Iterator, List, Optional, Tuple

#: Default cap on stored spans (the log, not the stack).
MAX_SPANS = 100_000

#: Parent id of a root span.
_NO_PARENT = -1

#: One stored span: name id, span id, parent span id, start, end.  One
#: packed row appends about 2.5x faster than five parallel ``array``
#: appends (CPython 3.11, x86-64), and the exit path runs once per span.
_ROW = struct.Struct("<iqqdd")
_ROW_SIZE = _ROW.size
_pack_row = _ROW.pack
#: One metadata write: span id, key-tuple id.
_META_ROW = struct.Struct("<qi")


def _sanitize_meta(value: object) -> object:
    """JSON-scalar metadata passes through; anything else becomes repr."""
    if value is None or isinstance(value, (str, int, float, bool)):
        return value
    return repr(value)


class Span:
    """One timed, named interval; children are spans opened inside it."""

    __slots__ = ("name", "start", "end", "meta", "children")

    def __init__(self, name: str, start: float,
                 meta: Optional[Dict[str, object]] = None) -> None:
        self.name = name
        self.start = start
        self.end = start
        self.meta = meta
        self.children: List["Span"] = []

    @property
    def duration(self) -> float:
        return self.end - self.start

    def walk(self, depth: int = 0) -> Iterator[Tuple[int, "Span"]]:
        """Depth-first (self, then children) with depths."""
        yield depth, self
        for child in self.children:
            yield from child.walk(depth + 1)

    def find(self, name: str) -> List["Span"]:
        """All descendants (including self) with the given name."""
        return [span for _, span in self.walk() if span.name == name]

    def __repr__(self) -> str:
        return (f"Span({self.name!r}, duration={self.duration:.6f}, "
                f"children={len(self.children)})")


class _NullSpanContext:
    """Returned by a disabled tracer: no clock reads, no storage."""

    __slots__ = ()
    _SPAN = Span("<disabled>", 0.0)

    def __enter__(self) -> Span:
        return self._SPAN

    def __exit__(self, *exc) -> bool:
        return False


_NULL_CONTEXT = _NullSpanContext()


class _SpanContext:
    """A live span: its own context manager and the handle ``with`` binds.

    While open it is what :attr:`Tracer.current` returns.  When it exits it
    becomes one log row and the handle keeps only its span id, so assigning
    :attr:`meta` after the ``with`` block still reaches the stored span
    (in-place edits of the old dict after exit do not).
    """

    __slots__ = ("_tracer", "name", "_meta", "start", "end", "_id",
                 "_stored")

    def __init__(self, tracer: "Tracer", name: str,
                 meta: Optional[Dict[str, object]]) -> None:
        self._tracer = tracer
        self.name = name
        self._meta = meta
        self._stored = False

    @property
    def meta(self) -> Optional[Dict[str, object]]:
        return self._meta

    @meta.setter
    def meta(self, value: Optional[Dict[str, object]]) -> None:
        self._meta = value
        if self._stored:
            self._tracer._store_meta(self._id, value or {})

    def __enter__(self) -> "_SpanContext":
        # Bookkeeping sits between the two clock reads where it can, as
        # the object-forest recorder's did, so the share of time no span
        # covers measures the program, not the tracer.
        tracer = self._tracer
        self.start = tracer.clock()
        self._id = next(tracer._ids)
        tracer._stack.append(self)
        return self

    def __exit__(self, *exc) -> bool:
        tracer = self._tracer
        stack = tracer._stack
        # Unwind to this span even if inner contexts leaked (exceptions).
        while stack and stack[-1] is not self:
            stack.pop()
        if stack:
            stack.pop()
        rows = tracer._rows
        if len(rows) >= tracer.max_spans * _ROW_SIZE:
            self.end = tracer.clock()
            tracer.dropped += 1
            return False
        # Inlined row write: this is the per-span hot path.
        name_id = tracer._name_ids.get(self.name)
        if name_id is None:
            name_id = tracer._intern(self.name)
        self.end = tracer.clock()
        self._stored = True
        rows += _pack_row(name_id, self._id,
                          stack[-1]._id if stack else _NO_PARENT,
                          self.start, self.end)
        if self._meta:
            tracer._store_meta(self._id, self._meta)
        return False


class Tracer:
    """Span recorder with an injectable clock.

    Parameters
    ----------
    clock:
        Monotonic time source; tests inject a fake counter for
        deterministic spans.
    max_spans:
        Stored-span cap; exceeding it increments :attr:`dropped` instead of
        growing memory.
    enabled:
        ``False`` turns :meth:`span` into a shared no-op context (used to
        measure instrumentation overhead, or to run cold).
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter,
                 max_spans: int = MAX_SPANS, enabled: bool = True) -> None:
        self.clock = clock
        self.max_spans = max_spans
        self.enabled = enabled
        # Span ids are never reused, not even across reset(): a handle kept
        # from before a reset writes its metadata to no current row.
        self._ids = itertools.count()
        self.reset()

    # ------------------------------------------------------------------
    def span(self, name: str, **meta: object):
        """Context manager timing one named interval.

        Spans opened while another span is active become its children::

            with tracer.span("merge.sweep", points=11):
                with tracer.span("merge.evaluate", lam=0.5):
                    ...
        """
        if not self.enabled:
            return _NULL_CONTEXT
        return _SpanContext(self, name, meta or None)

    @property
    def current(self) -> Optional[_SpanContext]:
        """The innermost open span, if any."""
        return self._stack[-1] if self._stack else None

    def reset(self) -> None:
        """Forget every stored span and the open-span stack.  A span open
        across the reset is stored when it exits, without the children it
        stored before."""
        self.dropped = 0
        self._stack: List[_SpanContext] = []
        self._names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self._keysets: List[tuple] = []
        self._keyset_ids: Dict[tuple, int] = {}
        self._rows = bytearray()
        # A later metadata row for the same span id wins.
        self._meta_rows = bytearray()
        self._meta_values: List[object] = []
        # Span trees built from the log, valid while its size is unchanged.
        self._forest: List[Span] = []
        self._forest_size = (0, 0)

    # ------------------------------------------------------------------
    # the log
    # ------------------------------------------------------------------
    def _intern(self, name: str) -> int:
        """The id of ``name``, assigning the next one on first use."""
        name_id = self._name_ids.get(name)
        if name_id is None:
            name_id = self._name_ids[name] = len(self._names)
            self._names.append(name)
        return name_id

    def _store_meta(self, span_id: int, meta: Dict[str, object]) -> None:
        keys = tuple(meta)
        keys_id = self._keyset_ids.get(keys)
        if keys_id is None:
            keys_id = self._keyset_ids[keys] = len(self._keysets)
            self._keysets.append(keys)
        self._meta_rows += _META_ROW.pack(span_id, keys_id)
        self._meta_values.extend(meta.values())

    @property
    def roots(self) -> List[Span]:
        """The stored forest as :class:`Span` trees, rebuilt from the log
        on first read after a record.  Children (and roots) appear in the
        order they were stored; spans whose parent was never stored (it hit
        the cap or never exited) are unreachable."""
        size = (len(self._rows), len(self._meta_rows))
        if size != self._forest_size:
            self._forest = self._build_forest()
            self._forest_size = size
        return self._forest

    def _build_forest(self) -> List[Span]:
        # Unpack copies: another thread may record while this one reads (a
        # span that exits after its patch was removed), and a bytearray
        # cannot grow while iter_unpack holds a buffer export of it.
        rows = bytes(self._rows)
        metas: Dict[int, Optional[Dict[str, object]]] = {}
        values = iter(self._meta_values)
        for span_id, keys_id in _META_ROW.iter_unpack(bytes(self._meta_rows)):
            keys = self._keysets[keys_id]
            metas[span_id] = dict(zip(keys, values)) or None
        by_id: Dict[int, Span] = {}
        for name_id, span_id, _, start, end in _ROW.iter_unpack(rows):
            span = Span(self._names[name_id], start, metas.get(span_id))
            span.end = end
            by_id[span_id] = span
        roots: List[Span] = []
        for _, span_id, parent_id, _, _ in _ROW.iter_unpack(rows):
            if parent_id == _NO_PARENT:
                roots.append(by_id[span_id])
            elif parent_id in by_id:
                by_id[parent_id].children.append(by_id[span_id])
        return roots

    # ------------------------------------------------------------------
    def walk(self) -> Iterator[Tuple[int, Span]]:
        for root in self.roots:
            yield from root.walk()

    def find(self, name: str) -> List[Span]:
        """All recorded spans with the given name, depth-first order."""
        return [span for _, span in self.walk() if span.name == name]

    def render(self, max_roots: Optional[int] = None) -> str:
        """Pretty-printed span forest with durations and metadata.

        ``max_roots`` elides the middle of very long forests (a server
        traced over thousands of steps) while keeping head and tail.
        """
        roots = self.roots
        elided = 0
        if max_roots is not None and len(roots) > max_roots:
            head = max(1, max_roots // 2)
            tail = max_roots - head
            elided = len(roots) - head - tail
            roots = roots[:head] + roots[len(roots) - tail:]
        lines = []
        for i, root in enumerate(roots):
            if elided and i == max(1, (max_roots or 0) // 2):
                lines.append(f"... {elided} more root spans ...")
            for depth, span in root.walk():
                meta = ""
                if span.meta:
                    meta = "  [" + " ".join(f"{k}={v}" for k, v in
                                            sorted(span.meta.items())) + "]"
                lines.append(f"{'  ' * depth}{span.name:<{max(1, 40 - 2 * depth)}}"
                             f" {span.duration * 1e3:9.3f} ms{meta}")
        if self.dropped:
            lines.append(f"... {self.dropped} spans dropped (max_spans="
                         f"{self.max_spans}) ...")
        return "\n".join(lines)

    def export_spans(self) -> List[Dict[str, object]]:
        """The span forest as nested plain dicts, safe to pickle or JSON.

        Metadata values outside the JSON scalar types are replaced with
        their ``repr`` so a worker process can always ship its trace back
        to the parent, whatever objects landed in span metadata.
        :meth:`absorb` is the inverse.
        """
        def export(span: Span) -> Dict[str, object]:
            record: Dict[str, object] = {"name": span.name, "start": span.start,
                                         "end": span.end}
            if span.meta:
                record["meta"] = {k: _sanitize_meta(v)
                                  for k, v in span.meta.items()}
            if span.children:
                record["children"] = [export(c) for c in span.children]
            return record

        return [export(root) for root in self.roots]

    def absorb(self, spans: List[Dict[str, object]]) -> int:
        """Graft an :meth:`export_spans` forest into this tracer.

        Absorbed roots become children of the innermost *open* span when
        one is active (so worker traces nest under the parent's fan-out
        span), or new roots otherwise.  The stored-span cap applies
        parent-first: a record arriving past ``max_spans`` is counted in
        :attr:`dropped` together with its whole subtree.  Returns the
        number stored.
        """
        stored = 0

        def subtree_size(record: Dict[str, object]) -> int:
            return 1 + sum(subtree_size(c) for c in record.get("children", ()))

        def graft(record: Dict[str, object], parent_id: int) -> None:
            nonlocal stored
            if len(self._rows) >= self.max_spans * _ROW_SIZE:
                self.dropped += subtree_size(record)
                return
            stored += 1
            span_id = next(self._ids)
            self._rows += _pack_row(self._intern(record["name"]), span_id,
                                    parent_id, float(record["start"]),
                                    float(record["end"]))
            if record.get("meta"):
                self._store_meta(span_id, record["meta"])
            for child in record.get("children", ()):
                graft(child, span_id)

        parent_id = self._stack[-1]._id if self._stack else _NO_PARENT
        for record in spans:
            graft(record, parent_id)
        return stored

    def to_jsonl(self) -> str:
        """One JSON object per span (depth-first), with ancestry paths."""
        lines = []

        def emit(span: Span, path: str, depth: int) -> None:
            record = {"name": span.name, "path": path, "depth": depth,
                      "start": span.start, "end": span.end,
                      "duration": span.duration}
            if span.meta:
                record["meta"] = span.meta
            lines.append(json.dumps(record, sort_keys=True))
            for child in span.children:
                emit(child, f"{path}/{child.name}", depth + 1)

        for root in self.roots:
            emit(root, root.name, 0)
        return "\n".join(lines)

    def write_jsonl(self, path) -> int:
        """Write :meth:`to_jsonl` to a file; returns the span-line count."""
        text = self.to_jsonl()
        with open(path, "w") as handle:
            if text:
                handle.write(text + "\n")
        return len(text.splitlines()) if text else 0
