"""Process-parallel execution layer: a fault-tolerant fork-based worker pool.

* :class:`WorkerPool` — fork-based work-stealing pool with per-task
  timeouts, automatic respawn of dead workers, bounded retries, and
  deterministic (input-order) results; per-task observability snapshots
  ship back with each result and fold into the parent handle exactly once.

Both the pool and the serve fleets fork through one
:class:`ProcessSupervisor`, which owns every child's pipes, the ``ready``
handshake, respawn and teardown.  Fork is also the one way read-only
tensors reach a child: pool workers read what :func:`task_context` staged,
fleet replicas the model or merge plan they were forked with — the
parent's own arrays, inherited copy-on-write, never copied or pickled.  A
respawned child inherits them again.

Every ``workers=`` knob in the repo (eval harness, merge-engine λ-sweeps,
model zoo, RAG indexing) resolves through :func:`effective_workers` and
falls back to the serial code path when parallelism is unavailable or not
requested — results are bit-identical either way.  Every forked child runs
with one BLAS thread (:mod:`repro.parallel.blas`).
"""

from .blas import CHILD_BLAS_THREADS, blas_threads, pin_blas_threads
from .pool import (MAX_RETRIES, POLL_INTERVAL, ParallelTaskError, WorkerPool,
                   effective_workers, get_task_context, task_context,
                   task_obs, worker_obs)
from .supervisor import ProcessSupervisor, parallel_available

__all__ = [
    "CHILD_BLAS_THREADS", "blas_threads", "pin_blas_threads",
    "MAX_RETRIES", "POLL_INTERVAL", "ParallelTaskError", "ProcessSupervisor",
    "WorkerPool", "effective_workers", "get_task_context",
    "parallel_available", "task_context", "task_obs", "worker_obs",
]
