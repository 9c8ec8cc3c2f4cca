"""Fault-tolerant work-stealing process pool with deterministic results.

:class:`WorkerPool` fans a list of items out to forked worker processes as
chunked tasks.  Scheduling is pull-based: every idle worker asks for the
next pending chunk, so fast workers naturally steal load from slow ones —
the work-stealing property — while the parent keeps exact accounting of
which worker holds which task.  That accounting is what buys fault
tolerance:

* a worker that **dies** mid-task (OOM-killed, segfault, ``SIGKILL``) is
  detected by liveness polling; the pool respawns the slot and requeues
  its task;
* a task that exceeds its **timeout** gets its worker killed and the task
  requeued;
* both paths consume one of the task's bounded **retries** — a task that
  keeps failing raises :class:`ParallelTaskError` instead of hanging the
  map or silently dropping items;
* results are reassembled **by task index**, so the returned list is in
  input order no matter which worker finished when, and a retried task
  whose first result arrives late is discarded, not double-counted;
* a worker that dies right after sending a result still gets that result
  accepted: respawn reads its channel to EOF first.

The process channel itself — spawn, event pipes, the ``ready`` handshake,
respawn and teardown — belongs to
:class:`~repro.parallel.supervisor.ProcessSupervisor`, shared with the
serve fleet; this module keeps only the pool's messages.

Observability rides along: each task executes against a fresh
:class:`~repro.obs.Observability` (reachable from task code via
:func:`worker_obs`) whose export is shipped back with the result and
absorbed — exactly once, keyed by task identity — into the pool's parent
handle.  Serial fallbacks push the parent handle via :func:`task_obs`, so
item functions are written once and record correctly in both modes.

Large read-only inputs should not travel through task pickles: publish
them in a :class:`~repro.parallel.arena.TensorArena` (any start method) or
stage them in module globals under :func:`task_context` before the pool
forks (fork inheritance, zero-copy).
"""

from __future__ import annotations

import itertools
import math
import time
import traceback
from collections import deque
from contextlib import contextmanager
from typing import (Callable, Dict, Iterator, List, Optional, Sequence,
                    Tuple)

from ..obs import Observability
from .supervisor import READY, ProcessSupervisor, parallel_available

#: Seconds between scheduler wake-ups while waiting on workers.
POLL_INTERVAL = 0.02

#: Default extra attempts granted to a failing task.
MAX_RETRIES = 2


def effective_workers(workers: Optional[int]) -> int:
    """Resolve a ``workers=`` knob: 0/None/no-fork all mean serial."""
    if not workers or workers <= 1 or not parallel_available():
        return 1
    return int(workers)


class ParallelTaskError(RuntimeError):
    """A task failed more times than its retry budget allows."""

    def __init__(self, message: str, task_index: Optional[int] = None,
                 cause: str = "") -> None:
        super().__init__(message)
        self.task_index = task_index
        self.cause = cause


# ---------------------------------------------------------------------------
# task-scoped state visible to item functions (both worker and serial modes)
# ---------------------------------------------------------------------------

#: Module-level staging area inherited by forked workers.  Set entries with
#: :func:`task_context` *before* constructing the pool; item functions read
#: them with :func:`get_task_context`.  Values never cross a pickle.
_TASK_CONTEXT: Dict[str, object] = {}

_WORKER_OBS: List[Observability] = []


def get_task_context() -> Dict[str, object]:
    """The staged task context (see :func:`task_context`)."""
    return _TASK_CONTEXT


@contextmanager
def task_context(**entries: object):
    """Stage fork-inherited state for item functions.

    Must wrap pool construction — workers fork at construction (and at
    respawn, which also happens inside the ``with``), inheriting whatever
    is staged here without any pickling::

        with task_context(answerer=answerer):
            with WorkerPool(4) as pool:
                pool.map_chunked(_item_fn, items)
    """
    saved = {key: _TASK_CONTEXT[key] for key in entries if key in _TASK_CONTEXT}
    _TASK_CONTEXT.update(entries)
    try:
        yield _TASK_CONTEXT
    finally:
        for key in entries:
            if key in saved:
                _TASK_CONTEXT[key] = saved[key]
            else:
                _TASK_CONTEXT.pop(key, None)


@contextmanager
def task_obs(obs: Observability):
    """Make ``obs`` the handle :func:`worker_obs` returns (serial mode)."""
    _WORKER_OBS.append(obs)
    try:
        yield obs
    finally:
        _WORKER_OBS.pop()


def worker_obs() -> Observability:
    """The Observability of the currently executing task.

    Inside a pool worker this is the per-task handle whose export ships
    back with the result; in a serial fallback it is whatever the caller
    pushed with :func:`task_obs` (typically the parent handle).  Outside
    both, a throwaway handle — recording is then a no-op by design.
    """
    if _WORKER_OBS:
        return _WORKER_OBS[-1]
    return Observability()


# ---------------------------------------------------------------------------
# worker process
# ---------------------------------------------------------------------------


def _maybe_export(obs: Observability) -> Optional[Dict[str, object]]:
    """Ship the task's obs only when something was recorded."""
    exported = obs.export()
    if not exported["metrics"]["counters"] and not exported["metrics"]["gauges"] \
            and not exported["metrics"]["histograms"] and not exported["spans"]:
        return None
    return exported


def _worker_main(conn, events, initializer, initargs) -> None:
    if initializer is not None:
        initializer(*initargs)
    events.send(READY)
    while True:
        task = conn.recv()
        if task is None:
            return
        task_id, attempt, fn, chunk = task
        obs = Observability()
        try:
            with task_obs(obs):
                payload = [fn(item) for item in chunk]
        except Exception:
            events.send(("error", task_id, attempt, traceback.format_exc()))
        else:
            events.send(("done", task_id, attempt, payload,
                         _maybe_export(obs)))


# ---------------------------------------------------------------------------
# parent-side pool
# ---------------------------------------------------------------------------

#: Monotonic pool ids making absorb keys unique across pools in a process.
_POOL_SEQ = itertools.count()


class _Task:
    """One chunk in flight through the pool."""

    __slots__ = ("task_id", "index", "fn", "chunk", "attempts")

    def __init__(self, task_id: int, index: int, fn, chunk) -> None:
        self.task_id = task_id
        self.index = index
        self.fn = fn
        self.chunk = chunk
        self.attempts = 0


class WorkerPool:
    """Forked process pool: work-stealing dispatch, respawn, retries.

    Parameters
    ----------
    n_workers:
        Worker process count (>= 1).
    initializer, initargs:
        Run once in every (re)spawned worker before it accepts tasks —
        e.g. attaching a :class:`~repro.parallel.arena.ArenaHandle`.
        Must be picklable (module-level function, plain-data args).
    task_timeout:
        Default per-task (per-chunk) wall-clock budget in seconds; a task
        over budget has its worker killed and is retried.  ``None`` waits
        forever.
    max_retries:
        Extra attempts granted to a task after its first failure (crash,
        timeout, or exception) before :class:`ParallelTaskError`.
    obs:
        Parent observability handle; receives pool counters
        (``parallel.*``), a span per map, and each accepted task's worker
        snapshot (absorbed exactly once).  Private when omitted.
    """

    def __init__(self, n_workers: int, *, initializer: Optional[Callable] = None,
                 initargs: Tuple = (), task_timeout: Optional[float] = None,
                 max_retries: int = MAX_RETRIES,
                 obs: Optional[Observability] = None) -> None:
        if n_workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {n_workers}")
        if max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {max_retries}")
        if not parallel_available():
            raise RuntimeError("WorkerPool requires os.fork "
                               "(use the serial fallback on this platform)")
        self.n_workers = n_workers
        self.task_timeout = task_timeout
        self.max_retries = max_retries
        self.obs = obs if obs is not None else Observability()
        self._pool_uid = next(_POOL_SEQ)
        #: Per worker slot: ``(task_id, dispatched_at)`` while busy.
        self._assigned: List[Optional[Tuple[int, float]]] = [None] * n_workers
        self._active: Dict[int, _Task] = {}
        self._pending: deque = deque()
        self._completed: Dict[int, List] = {}
        self._next_task_id = 0
        self._closed = False
        self._supervisor = ProcessSupervisor(
            _worker_main, lambda slot: (initializer, initargs), n_workers,
            self._handle_result, budget=n_workers * (max_retries + 2),
            exhausted=lambda budget: ParallelTaskError(
                "workers keep dying faster than the pool may respawn "
                f"them ({budget} respawns exhausted)"),
            obs=self.obs)

    # ------------------------------------------------------------------
    def map_chunked(self, fn: Callable, items: Sequence, *,
                    chunk_size: Optional[int] = None,
                    timeout: Optional[float] = None) -> List:
        """Apply ``fn`` to every item across the workers; ordered results.

        Items travel in chunks of ``chunk_size`` (default: ~4 chunks per
        worker) — the unit of dispatch, timeout, and retry.  ``fn`` must be
        a module-level (picklable) function of one item; big shared inputs
        belong in :func:`task_context` or a ``TensorArena``, not in items.
        The returned list is in input order regardless of completion order.
        """
        flat: List = []
        for _, part in self.imap_chunked(fn, items, chunk_size=chunk_size,
                                         timeout=timeout):
            flat.extend(part)
        return flat

    def imap_chunked(self, fn: Callable, items: Sequence, *,
                     chunk_size: Optional[int] = None,
                     timeout: Optional[float] = None,
                     ) -> Iterator[Tuple[int, List]]:
        """Like :meth:`map_chunked` but yields ``(chunk_index, results)``
        lazily, in chunk order, as chunks complete (ordered streaming)."""
        if self._closed:
            raise ValueError("pool is closed")
        items = list(items)
        if not items:
            return
        if chunk_size is None:
            chunk_size = max(1, math.ceil(len(items) / (self.n_workers * 4)))
        if chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
        timeout = self.task_timeout if timeout is None else timeout
        chunks = [items[start: start + chunk_size]
                  for start in range(0, len(items), chunk_size)]
        registry = self.obs.registry
        registry.counter("parallel.maps").inc()
        registry.counter("parallel.items").inc(len(items))
        registry.counter("parallel.tasks").inc(len(chunks))
        with self.obs.span("parallel.map", items=len(items),
                           chunks=len(chunks), workers=self.n_workers):
            yield from self._run(fn, chunks, timeout)

    # ------------------------------------------------------------------
    def _run(self, fn: Callable, chunks: List[List], timeout: Optional[float],
             ) -> Iterator[Tuple[int, List]]:
        self._pending, self._completed = deque(), {}
        for index, chunk in enumerate(chunks):
            task = _Task(self._next_task_id, index, fn, chunk)
            self._next_task_id += 1
            self._pending.append(task)
            self._active[task.task_id] = task
        next_yield = 0
        self._supervisor.refill()  # the respawn budget is per map
        try:
            while next_yield < len(chunks):
                self._dispatch()
                self._supervisor.drain(POLL_INTERVAL)
                self._police_workers(timeout)
                while next_yield in self._completed:
                    yield next_yield, self._completed.pop(next_yield)
                    next_yield += 1
        finally:
            # Abandoned/errored maps leave nothing behind: forget tasks so
            # stale completions from still-running workers are discarded.
            for task in self._pending:
                self._active.pop(task.task_id, None)
            for assigned in self._assigned:
                if assigned is not None:
                    self._active.pop(assigned[0], None)

    def _dispatch(self) -> None:
        for slot in range(self.n_workers):
            if not self._pending:
                return
            if (self._assigned[slot] is not None
                    or not self._supervisor.ready(slot)):
                continue
            task = self._pending.popleft()
            task.attempts += 1
            if not self._supervisor.send(
                    slot, (task.task_id, task.attempts, task.fn, task.chunk)):
                # Worker died between polls; put the task back, liveness
                # policing will respawn the slot and charge the attempt.
                task.attempts -= 1
                self._pending.appendleft(task)
                continue
            self._assigned[slot] = (task.task_id, time.monotonic())

    def _handle_result(self, slot: int, _generation: int,
                       message: Tuple) -> None:
        if message[0] == "done":
            _, task_id, attempt, payload, exported = message
            self._release_slot(slot, task_id)
            task = self._active.get(task_id)
            if task is None or attempt != task.attempts:
                # Stale: an earlier attempt of a retried task finished
                # late (its worker was timed out or presumed dead).
                # Only the live attempt's result and obs export count.
                return
            self._active.pop(task_id)
            try:
                # Completed before its requeued retry was re-dispatched:
                # drop the pending copy instead of running it again.
                self._pending.remove(task)
            except ValueError:
                pass
            self._completed[task.index] = payload
            self.obs.registry.counter("parallel.tasks_completed").inc()
            if exported is not None:
                # Keyed by stable task identity, not the per-attempt
                # registry uid — each attempt runs under a fresh
                # registry, so uid keying would let two attempts of one
                # task both land and double-count its metrics.
                task_key = f"parallel.pool{self._pool_uid}.task{task_id}"
                if self.obs.absorb(exported, key=task_key):
                    self.obs.registry.counter(
                        "parallel.snapshots_absorbed").inc()
            return
        # "error"
        _, task_id, attempt, trace_text = message
        self._release_slot(slot, task_id)
        task = self._active.get(task_id)
        if task is None or attempt != task.attempts or task in self._pending:
            return  # stale attempt, or the task is already requeued
        self.obs.registry.counter("parallel.task_errors").inc()
        self._retry_or_fail(task, trace_text)

    def _release_slot(self, slot: int, task_id: int) -> None:
        assigned = self._assigned[slot]
        if assigned is not None and assigned[0] == task_id:
            self._assigned[slot] = None

    def _police_workers(self, timeout: Optional[float]) -> None:
        now = time.monotonic()
        for slot in range(self.n_workers):
            assigned = self._assigned[slot]
            dead = not self._supervisor.alive(slot)
            timed_out = (assigned is not None and timeout is not None
                         and now - assigned[1] > timeout)
            if not dead and not timed_out:
                continue
            if timed_out and not dead:
                self.obs.registry.counter("parallel.task_timeouts").inc()
            # Respawning harvests what the worker sent before it died, so a
            # task whose result already arrived is released, not retried.
            self._supervisor.respawn(slot)
            assigned, self._assigned[slot] = self._assigned[slot], None
            task = self._active.get(assigned[0]) if assigned else None
            if task is not None:
                cause = "task timeout" if timed_out else "worker died"
                self._retry_or_fail(task, cause)

    def _retry_or_fail(self, task: _Task, cause: str) -> None:
        if task.attempts <= self.max_retries:
            self.obs.registry.counter("parallel.task_retries").inc()
            self._pending.appendleft(task)
            return
        self._active.pop(task.task_id, None)
        raise ParallelTaskError(
            f"task {task.index} failed {task.attempts} time(s), "
            f"retry budget ({self.max_retries}) exhausted:\n{cause}",
            task_index=task.index, cause=cause)

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Shut every worker down (idempotent); the pool is unusable after."""
        if self._closed:
            return
        self._closed = True
        self._supervisor.close()
        self._active.clear()

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self) -> None:
        try:
            self.close()
        except Exception:
            pass
