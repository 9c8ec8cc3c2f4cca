"""Layer-by-layer tracing from outside the program.

A traced run wraps the public callables of each layer *where their callers
look them up* — ``repro.serve.scheduler.sample_next``, not
``repro.nn.sampling.sample_next``; ``BatchedEngine.decode`` on the class the
scheduler's engine instance resolves it through — so no file under ``src/``
changes and an untraced run executes the unmodified code.

Each call becomes one span of the repository's own
:class:`repro.obs.trace.Tracer`, nested under the span of the wrapped call
that made it.  Optional work counts (rows decoded, prompt tokens reused out
of tokens looked up, ...) ride in the span's meta as ``n`` and ``total``.
Spans stay in memory until the run ends and are then written as JSONL.  A
span's self time is its duration minus that of its direct children.
"""

from __future__ import annotations

import functools
import importlib
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.obs.trace import Span, Tracer

from .common import metric_units, percentile

#: Stored-span cap of a traced run: far above what one produces, so a run
#: that reaches it is reported as failed rather than silently truncated.
MAX_SPANS = 5_000_000


def new_tracer() -> Tracer:
    return Tracer(max_spans=MAX_SPANS)


def _len1(args, result, pre):
    return len(args[1]), 0


def _prefill_count(args, result, pre):
    # prefill_into(prompt_ids, handle): tokens run = prompt minus the KV
    # positions the handle already held when the call started.
    return len(args[1]) - pre, 0


def _prefill_pre(args):
    return args[2].length


def _lookup_count(args, result, pre):
    # (prompt) -> (matched, entry): tokens served from cache of tokens asked.
    return result[0], len(args[1])


def _session_lookup_count(args, result, pre):
    # (session_id, prompt) -> (matched, entry)
    return result[0], len(args[2])


def _encode_count(args, result, pre):
    return len(result), 0


#: (module, attribute path, span name, count fn, pre-call fn).  Every
#: workload installs the whole table; layers a workload does not reach
#: simply record no spans.
PATCHES: Tuple[tuple, ...] = (
    ("repro.serve.server", "InProcessServer.submit", "serve.server.submit",
     None, None),
    ("repro.serve.server", "InProcessServer.step", "serve.server.step",
     None, None),
    ("repro.serve.scheduler", "Scheduler.step", "serve.scheduler.step",
     None, None),
    ("repro.serve.scheduler", "sample_next", "nn.sampling.sample_next",
     None, None),
    ("repro.serve.engine", "BatchedEngine.begin_sequence",
     "serve.engine.begin_sequence", None, None),
    ("repro.serve.engine", "BatchedEngine.prefill_into",
     "serve.engine.prefill", _prefill_count, _prefill_pre),
    ("repro.serve.engine", "BatchedEngine.decode", "serve.engine.decode",
     _len1, None),
    ("repro.serve.engine", "BatchedEngine.make_entry",
     "serve.engine.make_entry", None, None),
    ("repro.serve.engine", "BatchedEngine.release", "serve.engine.release",
     None, None),
    ("repro.serve.cache", "PrefixCachePool.lookup", "serve.cache.lookup",
     _lookup_count, None),
    ("repro.serve.cache", "PrefixCachePool.insert", "serve.cache.insert",
     None, None),
    ("repro.serve.sessions", "SessionStore.lookup_prefix",
     "serve.sessions.lookup", _session_lookup_count, None),
    ("repro.serve.sessions", "SessionStore.update", "serve.sessions.update",
     None, None),
    ("repro.serve.net.protocol", "parse_frame", "serve.net.parse_frame",
     None, None),
    ("repro.serve.net.protocol", "encode_frame", "serve.net.encode_frame",
     None, None),
    ("repro.serve.net.admission", "AdmissionController.admit",
     "serve.net.admit", None, None),
    ("repro.serve.net.admission", "AdmissionController.next_batch",
     "serve.net.next_batch", None, None),
    ("repro.serve.net.admission", "AdmissionController.record_outcome",
     "serve.net.record_outcome", None, None),
    ("repro.nn.infer", "generate_text_fast", "nn.infer.generate_text_fast",
     None, None),
    ("repro.nn.infer", "sample_next", "nn.sampling.sample_next", None, None),
    ("repro.nn.tokenizer", "WordTokenizer.encode", "nn.tokenizer.encode",
     _encode_count, None),
    ("repro.nn.tokenizer", "WordTokenizer.decode", "nn.tokenizer.decode",
     _len1, None),
    ("repro.core.merge_engine", "GeodesicMergeEngine.__init__",
     "core.merge_engine.plan", None, None),
    ("repro.core.merge_engine", "GeodesicMergeEngine.sweep",
     "core.merge_engine.sweep", None, None),
    ("repro.pipelines.model_zoo", "ModelZoo.get", "pipelines.model_zoo.get",
     None, None),
    ("repro.pipelines.model_zoo", "ModelZoo.merged_sweep",
     "pipelines.model_zoo.merged_sweep", None, None),
    ("repro.eval.harness", "rouge_l", "eval.rouge.rouge_l", None, None),
)

#: A net server's event loop: its wait for socket readiness (idle time,
#: recorded so it is not mistaken for unattributed work) and the socket
#: reads and writes its transports make.
LOOP_PATCHES: Tuple[tuple, ...] = (
    ("selectors", "DefaultSelector.select", "bench.loop_idle", None, None),
    ("socket", "socket.send", "serve.net.socket_send", None, None),
    ("socket", "socket.recv", "serve.net.socket_recv", None, None),
)


def _resolve(module: str, path: str):
    owner = importlib.import_module(module)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr


class Patches:
    """Replace attributes and put every original back on :meth:`restore`."""

    def __init__(self) -> None:
        self._saved: List[tuple] = []

    def install(self, module: str, path: str,
                make: Callable[[Callable], Callable]) -> None:
        owner, attr = _resolve(module, path)
        own = attr in vars(owner)
        original = getattr(owner, attr)
        setattr(owner, attr, make(original))
        self._saved.append((owner, attr, original, own))

    def restore(self) -> None:
        while self._saved:
            owner, attr, original, own = self._saved.pop()
            if own:
                setattr(owner, attr, original)
            else:  # inherited: drop the override to expose the base again
                delattr(owner, attr)


def _wrapper_factory(tracer: Tracer, name: str, count, pre):
    def make(original):
        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            before = pre(args) if pre is not None else None
            with tracer.span(name) as span:
                result = original(*args, **kwargs)
            if count is not None:
                n, total = count(args, result, before)
                span.meta = {"n": n, "total": total}
            return result
        return wrapper
    return make


def install(tracer: Tracer, table: Sequence[tuple] = PATCHES) -> Patches:
    """Wrap every callable of ``table`` so each call records a span on
    ``tracer``; the returned :class:`Patches` undoes it."""
    patches = Patches()
    for module, path, name, count, pre in table:
        patches.install(module, path, _wrapper_factory(tracer, name, count, pre))
    return patches


# ---------------------------------------------------------------------------
# analysis
# ---------------------------------------------------------------------------
def with_parents(tracer: Tracer) -> Iterator[Tuple[Span, Optional[Span]]]:
    """Every recorded span with its parent (None for a root)."""
    stack = [(root, None) for root in reversed(tracer.roots)]
    while stack:
        span, parent = stack.pop()
        yield span, parent
        stack.extend((child, span) for child in reversed(span.children))


def self_time(span: Span) -> float:
    return span.duration - sum(child.duration for child in span.children)


def unattributed_frac(roots: Sequence[Span],
                      windows: Sequence[Tuple[float, float]]) -> float:
    """Share of the windows' time that no root span covers: time the
    program spent outside every traced layer (and outside the benchmark's
    own marked idle waits)."""
    covered = sum(max(0.0, min(s.end, b) - max(s.start, a))
                  for a, b in windows for s in roots)
    total = sum(b - a for a, b in windows)
    return max(0.0, 1.0 - covered / total) if total > 0 else 0.0


def layer_metrics(tracer: Tracer, extras: Dict[str, float]) -> Dict[str, float]:
    """Every per-layer metric of BENCHMARK.json from the traced passes.

    ``extras`` carries what spans cannot: engine counters and KV peaks, the
    scheduler's own TTFT record, client-side net counts, generator lag and
    the trace's overhead/unattributed shares.  A layer the workload never
    reached reports 0.
    """
    by: Dict[str, List[Span]] = {}
    gen_tokens = 0
    load_s = 0.0
    for span, parent in with_parents(tracer):
        by.setdefault(span.name, []).append(span)
        parent_name = parent.name if parent is not None else None
        if (span.name == "nn.sampling.sample_next"
                and parent_name == "nn.infer.generate_text_fast"):
            gen_tokens += 1
        # Nested ModelZoo.get calls (chip_model -> get) count once.
        if (span.name == "pipelines.model_zoo.get"
                and parent_name != "pipelines.model_zoo.get"):
            load_s += span.duration

    def durs(name: str, scale: float) -> List[float]:
        return [s.duration * scale for s in by.get(name, ())]

    def count(name: str, key: str) -> float:
        return float(sum(s.meta[key] for s in by.get(name, ())))

    def per(total: float, n: float, scale: float = 1.0) -> float:
        return total * scale / n if n else 0.0

    decode = durs("serve.engine.decode", 1.0)
    steps = by.get("serve.scheduler.step", [])
    samples = durs("nn.sampling.sample_next", 1.0)
    generate = durs("nn.infer.generate_text_fast", 1.0)
    tok_spans = by.get("nn.tokenizer.encode", []) + by.get("nn.tokenizer.decode", [])
    metrics = dict.fromkeys(metric_units("per_layer"), 0.0)
    metrics.update({
        "serve.engine.decode_ms_p50": percentile(durs("serve.engine.decode", 1e3), 50),
        "serve.engine.decode_ms_p99": percentile(durs("serve.engine.decode", 1e3), 99),
        "serve.engine.decode_rows_mean": per(count("serve.engine.decode", "n"),
                                             len(decode)),
        "serve.engine.decode_us_per_row": per(sum(decode),
                                              count("serve.engine.decode", "n"), 1e6),
        "serve.engine.prefill_ms_p50": percentile(durs("serve.engine.prefill", 1e3), 50),
        "serve.engine.prefill_us_per_token": per(
            sum(durs("serve.engine.prefill", 1.0)),
            count("serve.engine.prefill", "n"), 1e6),
        "serve.engine.prefill_tokens": count("serve.engine.prefill", "n"),
        "serve.engine.make_entry_us_p50": percentile(
            durs("serve.engine.make_entry", 1e6), 50),
        "serve.cache.lookup_us_p50": percentile(durs("serve.cache.lookup", 1e6), 50),
        "serve.cache.insert_us_p50": percentile(durs("serve.cache.insert", 1e6), 50),
        "serve.cache.hit_token_frac": per(count("serve.cache.lookup", "n"),
                                          count("serve.cache.lookup", "total")),
        "serve.sessions.lookup_us_p50": percentile(
            durs("serve.sessions.lookup", 1e6), 50),
        "serve.sessions.update_us_p50": percentile(
            durs("serve.sessions.update", 1e6), 50),
        "serve.sessions.reused_token_frac": per(
            count("serve.sessions.lookup", "n"),
            count("serve.sessions.lookup", "total")),
        "serve.scheduler.step_ms_p50": percentile(
            durs("serve.scheduler.step", 1e3), 50),
        "serve.scheduler.self_us_per_step": per(
            sum(self_time(s) for s in steps), len(steps), 1e6),
        "nn.sampling.us_per_token": per(sum(samples), len(samples), 1e6),
        "nn.infer.generate_ms_p50": percentile(
            durs("nn.infer.generate_text_fast", 1e3), 50),
        "nn.infer.us_per_token": per(sum(generate), gen_tokens, 1e6),
        "nn.tokenizer.us_per_token": per(sum(s.duration for s in tok_spans),
                                         sum(s.meta["n"] for s in tok_spans), 1e6),
        "core.merge_engine.plan_ms": sum(durs("core.merge_engine.plan", 1e3)),
        "core.merge_engine.sweep_ms": sum(durs("core.merge_engine.sweep", 1e3)),
        "pipelines.model_zoo.load_ms": load_s * 1e3,
        "pipelines.model_zoo.merged_sweep_ms": sum(
            durs("pipelines.model_zoo.merged_sweep", 1e3)),
        "eval.rouge.rouge_ms_total": sum(durs("eval.rouge.rouge_l", 1e3)),
    })
    metrics.update(extras)
    return metrics
