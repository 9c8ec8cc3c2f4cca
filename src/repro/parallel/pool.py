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
* each worker reports on a **result pipe of its own**, written
  synchronously, so a worker killed mid-write can garble or wedge only its
  own channel — never a lock or a stream the other workers share.

Observability rides along: each task executes against a fresh
:class:`~repro.obs.Observability` (reachable from task code via
:func:`worker_obs`) whose export is shipped back with the result and
absorbed — exactly once, keyed by registry uid — into the pool's parent
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
import multiprocessing
import os
import signal
import time
import traceback
from collections import deque
from contextlib import contextmanager
from multiprocessing.connection import wait
from typing import (Callable, Dict, Iterator, List, Optional, Sequence,
                    Tuple)

from ..obs import Observability
from .blas import pin_blas_threads

#: Seconds between scheduler wake-ups while waiting on workers.
POLL_INTERVAL = 0.02

#: Default extra attempts granted to a failing task.
MAX_RETRIES = 2


def parallel_available() -> bool:
    """Whether the process-parallel paths can run here (fork support)."""
    return hasattr(os, "fork")


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


def _worker_main(worker_id: int, conn, results, initializer, initargs) -> None:
    try:
        if initializer is not None:
            initializer(*initargs)
        results.send(("ready", worker_id, os.getpid()))
        while True:
            try:
                task = conn.recv()
            except (EOFError, OSError):
                return
            if task is None:
                return
            task_id, attempt, fn, chunk = task
            obs = Observability()
            try:
                with task_obs(obs):
                    payload = [fn(item) for item in chunk]
            except Exception:
                results.send(("error", worker_id, task_id, attempt,
                              traceback.format_exc()))
            else:
                results.send(("done", worker_id, task_id, attempt,
                              payload, _maybe_export(obs)))
    except KeyboardInterrupt:
        pass


# ---------------------------------------------------------------------------
# process lifecycle (shared with the serve fleet)
# ---------------------------------------------------------------------------


def _child_main(target: Callable, *args) -> None:
    """Every forked child's entry point: one BLAS thread, then ``target``."""
    pin_blas_threads()
    target(*args)


class ProcessSupervisor:
    """Fork-process lifecycle shared by :class:`WorkerPool` and
    :class:`repro.serve.fleet.FleetServer`: pipe-oriented spawn, kill+join
    teardown, and counted respawn.

    :meth:`spawn` builds a one-way parent→child command pipe, starts a
    daemon process that pins its BLAS threads
    (:func:`~repro.parallel.blas.pin_blas_threads`) and then runs
    ``target(proc_id, recv_end, *extra_args)``, closes the child's pipe
    end in the parent, and returns ``(process, send_conn)`` — the parent
    dispatches over ``send_conn``.
    """

    def __init__(self, obs: Optional[Observability] = None,
                 respawn_counter: str = "parallel.worker_respawns") -> None:
        if not parallel_available():
            raise RuntimeError("ProcessSupervisor requires os.fork")
        self.ctx = multiprocessing.get_context("fork")
        self.obs = obs if obs is not None else Observability()
        self.respawn_counter = respawn_counter

    def spawn(self, target: Callable, proc_id: int,
              extra_args: Tuple = ()) -> Tuple[object, object]:
        recv_end, send_end = self.ctx.Pipe(duplex=False)
        # Pipe(False) gives (recv, send): the child reads commands from
        # recv_end while the parent keeps send_end for dispatch.
        process = self.ctx.Process(
            target=_child_main,
            args=(target, proc_id, recv_end) + tuple(extra_args),
            daemon=True)
        process.start()
        recv_end.close()  # parent keeps only the sending end
        return process, send_end

    def terminate(self, process, conn, join_timeout: float = 2.0) -> None:
        """Kill (if alive), join, and close the dispatch pipe."""
        if process.is_alive():
            process.kill()
        process.join(timeout=join_timeout)
        try:
            conn.close()
        except OSError:
            pass

    def respawn(self, target: Callable, proc_id: int, extra_args: Tuple,
                process, conn) -> Tuple[object, object]:
        """Tear the dead/hung process down and spawn a replacement."""
        self.terminate(process, conn)
        replacement = self.spawn(target, proc_id, extra_args)
        self.obs.registry.counter(self.respawn_counter).inc()
        return replacement


# ---------------------------------------------------------------------------
# parent-side pool
# ---------------------------------------------------------------------------

#: Monotonic pool ids making absorb keys unique across pools in a process.
_POOL_SEQ = itertools.count()


class _WorkerSlot:
    """One worker position: process + dispatch and result pipes +
    scheduling state."""

    __slots__ = ("process", "conn", "results", "state", "task_id", "attempt",
                 "dispatched_at")

    def __init__(self, process, conn, results) -> None:
        self.process = process
        self.conn = conn
        self.results = results
        self.state = "starting"  # starting -> idle <-> busy; closed at exit
        self.task_id: Optional[int] = None
        self.attempt = 0
        self.dispatched_at = 0.0


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
        self._supervisor = ProcessSupervisor(obs=self.obs)
        self._ctx = self._supervisor.ctx
        self._pool_uid = next(_POOL_SEQ)
        self._initializer = initializer
        self._initargs = initargs
        self._slots: List[_WorkerSlot] = []
        self._active: Dict[int, _Task] = {}
        self._next_task_id = 0
        self._closed = False
        for worker_id in range(n_workers):
            self._slots.append(self._spawn(worker_id))

    # ------------------------------------------------------------------
    def _spawn(self, worker_id: int,
               dead: Optional[_WorkerSlot] = None) -> _WorkerSlot:
        """Start the worker for ``worker_id``, tearing ``dead`` down first."""
        results, result_end = self._ctx.Pipe(duplex=False)
        args = (result_end, self._initializer, self._initargs)
        if dead is None:
            process, conn = self._supervisor.spawn(_worker_main, worker_id,
                                                   args)
        else:
            process, conn = self._supervisor.respawn(
                _worker_main, worker_id, args, dead.process, dead.conn)
            dead.results.close()
        # The worker holds the only sending end, so its death reads as EOF.
        result_end.close()
        return _WorkerSlot(process, conn, results)

    def _respawn(self, worker_id: int) -> None:
        self._slots[worker_id] = self._spawn(worker_id,
                                             self._slots[worker_id])

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
        pending: deque = deque()
        for index, chunk in enumerate(chunks):
            task = _Task(self._next_task_id, index, fn, chunk)
            self._next_task_id += 1
            pending.append(task)
            self._active[task.task_id] = task
        completed: Dict[int, List] = {}
        next_yield = 0
        respawn_budget = self.n_workers * (self.max_retries + 2)
        try:
            while next_yield < len(chunks):
                self._dispatch(pending)
                self._drain_results(pending, completed)
                respawn_budget = self._police_workers(
                    pending, timeout, respawn_budget)
                while next_yield in completed:
                    yield next_yield, completed.pop(next_yield)
                    next_yield += 1
        finally:
            # Abandoned/errored maps leave nothing behind: forget tasks so
            # stale completions from still-running workers are discarded.
            for task in pending:
                self._active.pop(task.task_id, None)
            for task_id in [t for t in self._active
                            if any(s.task_id == t for s in self._slots)]:
                self._active.pop(task_id, None)

    def _dispatch(self, pending: deque) -> None:
        for slot in self._slots:
            if not pending:
                return
            if slot.state != "idle":
                continue
            task = pending.popleft()
            task.attempts += 1
            try:
                slot.conn.send((task.task_id, task.attempts, task.fn,
                                task.chunk))
            except (OSError, BrokenPipeError):
                # Worker died between polls; put the task back, liveness
                # policing will respawn the slot and charge the attempt.
                task.attempts -= 1
                pending.appendleft(task)
                slot.state = "starting"
                continue
            slot.state = "busy"
            slot.task_id = task.task_id
            slot.attempt = task.attempts
            slot.dispatched_at = time.monotonic()

    def _drain_results(self, pending: deque, completed: Dict[int, List]) -> None:
        """Handle every message waiting on the result pipes, blocking up to
        one poll interval for the first."""
        conns = [slot.results for slot in self._slots]
        timeout = POLL_INTERVAL
        while conns:
            ready = wait(conns, timeout)
            if not ready:
                return
            timeout = 0
            for conn in ready:
                try:
                    message = conn.recv()
                except (EOFError, OSError):
                    # The worker died (possibly mid-message); liveness
                    # policing respawns it with a fresh pipe.
                    conns.remove(conn)
                    continue
                self._handle_result(message, pending, completed)

    def _handle_result(self, message: Tuple, pending: deque,
                       completed: Dict[int, List]) -> None:
        kind = message[0]
        if kind == "ready":
            _, worker_id, _pid = message
            slot = self._slots[worker_id]
            if slot.state == "starting":
                slot.state = "idle"
            return
        if kind == "done":
            _, worker_id, task_id, attempt, payload, exported = message
            self._release_slot(worker_id, task_id)
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
                pending.remove(task)
            except ValueError:
                pass
            completed[task.index] = payload
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
        # kind == "error"
        _, worker_id, task_id, attempt, trace_text = message
        self._release_slot(worker_id, task_id)
        task = self._active.get(task_id)
        if task is None or attempt != task.attempts or task in pending:
            return  # stale attempt, or the task is already requeued
        self.obs.registry.counter("parallel.task_errors").inc()
        self._retry_or_fail(task, pending, trace_text)

    def _release_slot(self, worker_id: int, task_id: int) -> None:
        slot = self._slots[worker_id]
        if slot.task_id == task_id:
            slot.state = "idle"
            slot.task_id = None

    def _police_workers(self, pending: deque, timeout: Optional[float],
                        respawn_budget: int) -> int:
        now = time.monotonic()
        for worker_id, slot in enumerate(self._slots):
            dead = not slot.process.is_alive()
            timed_out = (slot.state == "busy" and timeout is not None
                         and now - slot.dispatched_at > timeout)
            if not dead and not timed_out:
                continue
            if timed_out and not dead:
                self.obs.registry.counter("parallel.task_timeouts").inc()
            task = self._active.get(slot.task_id) if slot.task_id is not None \
                else None
            if respawn_budget <= 0:
                raise ParallelTaskError(
                    "workers keep dying faster than the pool may respawn "
                    f"them ({self.n_workers * (self.max_retries + 2)} "
                    "respawns exhausted)")
            self._respawn(worker_id)
            respawn_budget -= 1
            if task is not None:
                cause = "task timeout" if timed_out else "worker died"
                self._retry_or_fail(task, pending, cause)
        return respawn_budget

    def _retry_or_fail(self, task: _Task, pending: deque, cause: str) -> None:
        if task.attempts <= self.max_retries:
            self.obs.registry.counter("parallel.task_retries").inc()
            pending.appendleft(task)
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
        for slot in self._slots:
            if slot.process.is_alive():
                try:
                    slot.conn.send(None)
                except (OSError, BrokenPipeError):
                    pass
        deadline = time.monotonic() + 2.0
        for slot in self._slots:
            slot.process.join(timeout=max(0.0, deadline - time.monotonic()))
            if slot.process.is_alive():
                slot.process.kill()
                slot.process.join(timeout=1.0)
            for conn in (slot.conn, slot.results):
                try:
                    conn.close()
                except OSError:
                    pass
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
