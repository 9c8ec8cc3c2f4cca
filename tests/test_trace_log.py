"""The tracer's columnar span log against the object-forest recorder it
replaced, kept here as the oracle: random span programs must export, render
and drop identically.  Plus the log's own contracts — write-through span
handles, the cap and reset rules, and its memory bound."""

import gc
import json
import sys
import threading
import tracemalloc
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import Tracer


class FakeClock:
    """Every read advances by one: deterministic span timestamps."""

    def __init__(self):
        self.t = 0.0

    def __call__(self):
        now = self.t
        self.t += 1.0
        return now


# ---------------------------------------------------------------------------
# oracle: the object-forest recorder (one Span object per stored span)
# ---------------------------------------------------------------------------


def _sanitize_meta(value):
    if value is None or isinstance(value, (str, int, float, bool)):
        return value
    return repr(value)


class _Span:
    __slots__ = ("name", "start", "end", "meta", "children")

    def __init__(self, name, start, meta=None):
        self.name = name
        self.start = start
        self.end = start
        self.meta = meta
        self.children = []

    @property
    def duration(self):
        return self.end - self.start

    def walk(self, depth=0) -> Iterator[Tuple[int, "_Span"]]:
        yield depth, self
        for child in self.children:
            yield from child.walk(depth + 1)


class _SpanContext:
    __slots__ = ("_tracer", "_name", "_meta", "_span")

    def __init__(self, tracer, name, meta):
        self._tracer = tracer
        self._name = name
        self._meta = meta

    def __enter__(self):
        tracer = self._tracer
        span = _Span(self._name, tracer.clock(), self._meta)
        tracer._stack.append(span)
        self._span = span
        return span

    def __exit__(self, *exc):
        tracer = self._tracer
        span = self._span
        span.end = tracer.clock()
        stack = tracer._stack
        while stack and stack[-1] is not span:
            stack.pop()
        if stack:
            stack.pop()
        if tracer._recorded >= tracer.max_spans:
            tracer.dropped += 1
            return False
        tracer._recorded += 1
        if stack:
            stack[-1].children.append(span)
        else:
            tracer.roots.append(span)
        return False


class ForestTracer:
    """The object-forest recorder the columnar log replaced."""

    def __init__(self, clock: Callable[[], float], max_spans: int) -> None:
        self.clock = clock
        self.max_spans = max_spans
        self.reset()

    def span(self, name: str, **meta: object) -> _SpanContext:
        return _SpanContext(self, name, meta or None)

    def reset(self) -> None:
        self.roots: List[_Span] = []
        self.dropped = 0
        self._stack: List[_Span] = []
        self._recorded = 0

    def render(self, max_roots: Optional[int] = None) -> str:
        roots = self.roots
        elided = 0
        if max_roots is not None and len(roots) > max_roots:
            head = max(1, max_roots // 2)
            tail = max_roots - head
            elided = len(roots) - head - tail
            roots = roots[:head] + roots[len(self.roots) - tail:]
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
        def export(span):
            record = {"name": span.name, "start": span.start, "end": span.end}
            if span.meta:
                record["meta"] = {k: _sanitize_meta(v)
                                  for k, v in span.meta.items()}
            if span.children:
                record["children"] = [export(c) for c in span.children]
            return record

        return [export(root) for root in self.roots]

    def absorb(self, spans) -> int:
        stored = 0

        def subtree_size(record):
            return 1 + sum(subtree_size(c) for c in record.get("children", ()))

        def rebuild(record):
            nonlocal stored
            if self._recorded >= self.max_spans:
                self.dropped += subtree_size(record)
                return None
            self._recorded += 1
            stored += 1
            span = _Span(record["name"], float(record["start"]),
                         dict(record["meta"]) if record.get("meta") else None)
            span.end = float(record["end"])
            span.children = [c for c in (rebuild(child) for child in
                                         record.get("children", ()))
                             if c is not None]
            return span

        parent = self._stack[-1] if self._stack else None
        for record in spans:
            span = rebuild(record)
            if span is None:
                continue
            if parent is not None:
                parent.children.append(span)
            else:
                self.roots.append(span)
        return stored

    def to_jsonl(self) -> str:
        lines = []

        def emit(span, path, depth):
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


# ---------------------------------------------------------------------------
# differential: random span programs through both recorders
# ---------------------------------------------------------------------------

NAMES = st.sampled_from(["serve.step", "serve.decode_step", "a", "b"])
META_VALUES = st.one_of(
    st.integers(-5, 1000), st.booleans(), st.none(), st.text(max_size=3),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.tuples(st.integers(0, 3)))  # not a JSON scalar: exported as repr
META = st.dictionaries(st.sampled_from(["batch", "n", "total", "lam"]),
                       META_VALUES, max_size=3)


def _record(children=None):
    optional = {"meta": META}
    if children is not None:
        optional["children"] = st.lists(children, max_size=3)
    return st.fixed_dictionaries(
        {"name": NAMES, "start": st.floats(0, 50), "end": st.floats(50, 99)},
        optional=optional)


RECORDS = st.recursive(_record(), _record, max_leaves=6)

OPS = st.one_of(
    st.tuples(st.just("open"), NAMES, META),
    st.tuples(st.just("close")),
    # An exception unwinds the span `depth` levels below the innermost
    # one, leaking every context opened inside it.
    st.tuples(st.just("raise"), st.integers(1, 3)),
    # A leaked context exits after its parent did.
    st.tuples(st.just("late_close"), st.integers(0, 7)),
    # Assign .meta on a recent handle, open or already exited.
    st.tuples(st.just("meta"), st.integers(0, 7), META | st.none()),
    st.tuples(st.just("absorb"), st.lists(RECORDS, max_size=3)),
    st.tuples(st.just("reset")),
)


def _run(program, max_spans):
    """Apply one span program to both recorders in lock step."""
    new = Tracer(clock=FakeClock(), max_spans=max_spans)
    old = ForestTracer(clock=FakeClock(), max_spans=max_spans)
    handles = []    # (new handle, old handle), in open order
    contexts = []   # their context managers
    open_stack: List[int] = []
    leaked: List[int] = []
    for op in program:
        kind = op[0]
        if kind == "open":
            pair = new.span(op[1], **op[2]), old.span(op[1], **op[2])
            contexts.append(pair)
            handles.append((pair[0].__enter__(), pair[1].__enter__()))
            open_stack.append(len(handles) - 1)
        elif kind == "close" and open_stack:
            for ctx in contexts[open_stack.pop()]:
                ctx.__exit__(None, None, None)
        elif kind == "raise" and len(open_stack) > op[1]:
            target = open_stack[-1 - op[1]]
            leaked.extend(open_stack[-op[1]:])
            del open_stack[-1 - op[1]:]
            error = RuntimeError("boom")
            for ctx in contexts[target]:
                ctx.__exit__(RuntimeError, error, None)
        elif kind == "late_close" and leaked:
            for ctx in contexts[leaked.pop(op[1] % len(leaked))]:
                ctx.__exit__(None, None, None)
        elif kind == "meta" and handles:
            for handle in handles[-1 - op[1] % len(handles)]:
                handle.meta = None if op[2] is None else dict(op[2])
        elif kind == "absorb":
            assert new.absorb(op[1]) == old.absorb(op[1])
        elif kind == "reset":
            new.reset()
            old.reset()
            # A context still open at a reset is never exited afterwards
            # here: see test_reset_forgets_children_of_spans_open_across_it.
            open_stack.clear()
            leaked.clear()
    return new, old


@settings(max_examples=300, deadline=None)
@given(program=st.lists(OPS, max_size=40),
       max_spans=st.sampled_from([1, 2, 3, 5, 8, 10_000]))
def test_columnar_log_matches_forest_recorder(program, max_spans):
    new, old = _run(program, max_spans)
    assert new.export_spans() == old.export_spans()
    assert new.to_jsonl() == old.to_jsonl()
    assert new.render() == old.render()
    assert new.render(max_roots=3) == old.render(max_roots=3)
    assert new.dropped == old.dropped


# ---------------------------------------------------------------------------
# the log's own contracts
# ---------------------------------------------------------------------------


def test_meta_assigned_after_exit_reaches_the_log():
    tracer = Tracer(clock=FakeClock())
    with tracer.span("outer"):
        with tracer.span("inner", n=1) as inner:
            pass
        assert tracer.roots == []
    assert tracer.roots[0].children[0].meta == {"n": 1}
    inner.meta = {"n": 4, "total": 9}
    assert inner.meta == {"n": 4, "total": 9}
    (child,) = tracer.roots[0].children  # the cached trees were rebuilt
    assert child.meta == {"n": 4, "total": 9}
    assert json.loads(tracer.to_jsonl().splitlines()[1])["meta"] == {
        "n": 4, "total": 9}
    inner.meta = None
    assert tracer.roots[0].children[0].meta is None


def test_cap_decides_at_exit_so_a_dropped_parent_orphans_its_children():
    """The cap counts stored rows when a span finishes.  Children finish
    first, so at the cap a parent can be dropped after its children were
    stored: they stay counted toward the cap but no root reaches them."""
    tracer = Tracer(clock=FakeClock(), max_spans=2)
    with tracer.span("parent") as parent:
        for _ in range(2):
            with tracer.span("child"):
                pass
    assert tracer.roots == [] and tracer.dropped == 1
    parent.meta = {"n": 1}  # a dropped span has no row to write to
    with tracer.span("later"):
        pass
    assert tracer.roots == [] and tracer.dropped == 2


def test_reset_forgets_children_of_spans_open_across_it():
    """reset() discards every stored row.  A span open across the reset is
    stored when it exits, but without the children it stored before."""
    tracer = Tracer(clock=FakeClock())
    with tracer.span("open-across-reset"):
        with tracer.span("before"):
            pass
        tracer.reset()
        with tracer.span("after"):
            pass
    assert [root.name for root in tracer.roots] == ["after",
                                                    "open-across-reset"]
    assert tracer.roots[1].children == []


def test_reading_while_another_thread_records():
    """A reader may build trees while another thread still records (a span
    that exits after its tracing patch was removed): neither side raises,
    and every span read is well formed."""
    tracer = Tracer()
    errors = []

    def record():
        try:
            _record_scheduler_chains(tracer, 20_000)
        except Exception as exc:  # reported by the assertion below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    writer = threading.Thread(target=record)
    try:
        writer.start()
        while writer.is_alive():
            for record in tracer.export_spans():
                assert record["name"] == "serve.net.pump_step"
    finally:
        writer.join(timeout=60)
        sys.setswitchinterval(interval)
    assert not writer.is_alive() and errors == []
    assert len(tracer.roots) == 20_000


def _record_scheduler_chains(tracer: Tracer, chains: int) -> None:
    """The spans a net-served scheduler records per step."""
    for i in range(chains):
        with tracer.span("serve.net.pump_step"):
            with tracer.span("serve.step"):
                with tracer.span("serve.decode_step", batch=1 + i % 8):
                    pass


def test_stored_span_costs_at_most_64_bytes_and_no_gc_object():
    chains = 30_000
    tracer = Tracer(max_spans=3 * chains)
    _record_scheduler_chains(tracer, 10)  # intern names and key tuples
    tracer.reset()
    gc.collect()
    tracked = len(gc.get_objects())
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        _record_scheduler_chains(tracer, chains)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    new_objects = len(gc.get_objects()) - tracked
    assert tracer.dropped == 0
    assert retained / (3 * chains) <= 64, retained / (3 * chains)
    assert new_objects < 100, new_objects
    assert len(tracer.roots) == chains
