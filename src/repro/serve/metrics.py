"""Serving instrumentation: a thin view over the shared metric registry.

The numbers a capacity planner actually wants from an in-process server:
throughput (generated tokens/sec), time-to-first-token, queue depth, batch
occupancy (how full each decode step's batch was), and prefix-cache
efficiency.  Since the observability layer landed, :class:`ServerMetrics`
owns no counters of its own — every count lives in a
:class:`~repro.obs.MetricRegistry` under the ``serve.*`` namespace, so the
scheduler's numbers appear in the same snapshot as merge/train/eval metrics
when one :class:`~repro.obs.Observability` is threaded through a pipeline.
The attribute API (``metrics.tokens_generated += 1``) is preserved as
properties over the registry, and :meth:`ServerMetrics.snapshot` still
renders everything as a plain dict for benchmarks and the CLI.

Busy-time accounting: ``mark_busy``/``mark_idle`` clock the span between
the first and last moment work existed.  A snapshot taken *mid-span* folds
the still-open span in (without closing it), so ``tokens_per_second`` is
correct on a live server — previously the open span was ignored and a
mid-run snapshot read 0.0 or wildly inflated throughput.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from ..obs import MetricRegistry

#: Integer totals the scheduler maintains, exposed as ``serve.<name>``.
COUNTER_NAMES = (
    "requests_submitted", "requests_finished", "requests_expired",
    "requests_cancelled", "tokens_generated", "prefill_tokens",
    "cached_prefix_tokens", "decode_steps",
)

#: Latency histogram bucket bounds (seconds): sub-ms to tens of seconds.
LATENCY_BUCKETS = (0.001, 0.005, 0.02, 0.1, 0.5, 2.0, 10.0, 60.0)


class ServerMetrics:
    """Registry-backed counters owned by one server instance.

    Parameters
    ----------
    max_batch_size:
        The configured slot count (reported in snapshots).
    registry:
        The shared :class:`~repro.obs.MetricRegistry` to write into; a
        private one is created when not supplied.
    clock:
        Optional monotonic clock.  When present, snapshots fold the open
        busy span in automatically; without it callers can pass ``now=``
        to :meth:`snapshot` explicitly.

    Queue-wait and admission times live only in the ``serve.queue_wait_s``
    and ``serve.admission_s`` histograms; :meth:`snapshot` takes their
    means from the histograms' running totals (servers that share one
    registry share them).  :attr:`ttfts` is the one per-request list left,
    one float per admitted request for the life of the server: the
    repository benchmark reads its length and slices it by index, so it
    stays until that benchmark reads the ``serve.ttft_s`` histogram
    instead.
    """

    def __init__(self, max_batch_size: int,
                 registry: Optional[MetricRegistry] = None,
                 clock: Optional[Callable[[], float]] = None) -> None:
        self.max_batch_size = max_batch_size
        self.registry = registry if registry is not None else MetricRegistry()
        self._clock = clock
        self._counters = {name: self.registry.counter(f"serve.{name}")
                          for name in COUNTER_NAMES}
        self._ttft_hist = self.registry.histogram("serve.ttft_s",
                                                  LATENCY_BUCKETS)
        self._queue_wait_hist = self.registry.histogram("serve.queue_wait_s",
                                                        LATENCY_BUCKETS)
        self._admission_hist = self.registry.histogram("serve.admission_s",
                                                       LATENCY_BUCKETS)
        self._busy_gauge = self.registry.gauge("serve.busy_seconds")
        #: Every recorded TTFT, in order (see the class docstring).
        self.ttfts: List[float] = []
        self._queue_depth_sum = 0
        self._occupancy_sum = 0
        self._busy_started: Optional[float] = None
        self._busy_accum = 0.0

    # ------------------------------------------------------------------
    def record_step(self, queue_depth: int, running: int) -> None:
        """Account one scheduler step's queue depth and batch occupancy."""
        self._counters["decode_steps"].inc()
        self._queue_depth_sum += queue_depth
        self._occupancy_sum += running

    def record_ttft(self, seconds: float) -> None:
        self.ttfts.append(seconds)
        self._ttft_hist.observe(seconds)

    def record_queue_wait(self, seconds: float) -> None:
        self._queue_wait_hist.observe(seconds)

    def record_admission(self, seconds: float) -> None:
        """Wall time of one admission: KV lookup + adoption + suffix
        prefill + pool insert.  The hot-vs-cold-prefix gap lands here."""
        self._admission_hist.observe(seconds)

    def mark_busy(self, now: float) -> None:
        """Clock the span between the first and last moment work existed."""
        if self._busy_started is None:
            self._busy_started = now

    def mark_idle(self, now: float) -> None:
        if self._busy_started is not None:
            self._busy_accum += now - self._busy_started
            self._busy_started = None
            self._busy_gauge.set(self._busy_accum)

    def busy_seconds_at(self, now: Optional[float] = None) -> float:
        """Busy time including the still-open span, without closing it."""
        busy = self._busy_accum
        if self._busy_started is not None:
            if now is None and self._clock is not None:
                now = self._clock()
            if now is not None:
                busy += max(0.0, now - self._busy_started)
        return busy

    # ------------------------------------------------------------------
    @property
    def busy_seconds(self) -> float:
        return self.busy_seconds_at()

    @property
    def mean_ttft(self) -> float:
        return sum(self.ttfts) / len(self.ttfts) if self.ttfts else 0.0

    @property
    def mean_queue_depth(self) -> float:
        steps = self.decode_steps
        return self._queue_depth_sum / steps if steps else 0.0

    @property
    def mean_batch_occupancy(self) -> float:
        steps = self.decode_steps
        return self._occupancy_sum / steps if steps else 0.0

    @property
    def tokens_per_second(self) -> float:
        busy = self.busy_seconds_at()
        if busy <= 0:
            return 0.0
        return self.tokens_generated / busy

    def snapshot(self, prefix_stats: Optional[Dict[str, float]] = None,
                 now: Optional[float] = None) -> Dict[str, float]:
        """Point-in-time metrics dict (JSON-serialisable).

        ``now`` (or the injected clock) lets a snapshot taken while the
        server is mid-burst account the open busy span — the counters stay
        untouched, so a later ``mark_idle`` still closes the span exactly
        once.
        """
        busy = self.busy_seconds_at(now)
        snap: Dict[str, float] = {
            name: self._counters[name].value for name in COUNTER_NAMES}
        snap.update({
            "tokens_per_second": (self.tokens_generated / busy
                                  if busy > 0 else 0.0),
            "mean_ttft_s": self.mean_ttft,
            "mean_queue_wait_s": self._queue_wait_hist.mean,
            "mean_admission_s": self._admission_hist.mean,
            "mean_queue_depth": self.mean_queue_depth,
            "mean_batch_occupancy": self.mean_batch_occupancy,
            "max_batch_size": self.max_batch_size,
            "busy_seconds": busy,
        })
        if prefix_stats is not None:
            snap.update({f"prefix_{key}": value
                         for key, value in prefix_stats.items()})
        return snap


def _counter_property(name: str) -> property:
    def fget(self: ServerMetrics) -> int:
        return self._counters[name].value

    def fset(self: ServerMetrics, value: int) -> None:
        self._counters[name].set(value)

    return property(fget, fset, doc=f"Registry view of serve.{name}.")


for _name in COUNTER_NAMES:
    setattr(ServerMetrics, _name, _counter_property(_name))
del _name
