"""repro.parallel: fault-tolerant pool, fork-inherited context, determinism.

The determinism classes are the subsystem's acceptance contract: every
benchmark evaluated with ``workers=4`` must be **bit-identical** to the
serial loop — responses, judge verdicts, accuracies, and the observability
counter totals that ride back in worker snapshots.
"""

import multiprocessing
import os
import signal
import time

import pytest

from repro.obs import Observability
from repro.parallel import (CHILD_BLAS_THREADS, ParallelTaskError,
                            WorkerPool, blas_threads, effective_workers,
                            get_task_context, parallel_available,
                            task_context, task_obs, worker_obs)
from tests.conftest import within

needs_fork = pytest.mark.skipif(not parallel_available(),
                                reason="requires os.fork")


# ---------------------------------------------------------------------------
# WorkerPool — item functions must live at module level (they cross a pipe)
# ---------------------------------------------------------------------------


def _square(x):
    return x * x


def _mul_by_ctx_factor(x):
    return x * get_task_context()["factor"]


def _count_and_square(x):
    worker_obs().registry.counter("t.items").inc()
    return x * x


def _boom(x):
    raise ValueError(f"boom on {x}")


def _kill_first_attempt(x):
    ctx = get_task_context()
    if x == ctx["victim"] and not os.path.exists(ctx["flag"]):
        open(ctx["flag"], "w").close()
        os.kill(os.getpid(), signal.SIGKILL)
    return x * x


def _sleep_long(x):
    time.sleep(30)
    return x


def _kill_first_attempt_of_every_fourth(x):
    flag = os.path.join(get_task_context()["flags"], str(x))
    if x % 4 == 3 and not os.path.exists(flag):
        open(flag, "w").close()
        os.kill(os.getpid(), signal.SIGKILL)
    return x * x


def _forge_events(pool, slot=0):
    """Swap a worker's event pipe in the pool's supervisor for one the test
    writes wire messages to; returns the sending end."""
    recv_end, send_end = multiprocessing.get_context("fork").Pipe(
        duplex=False)
    channel = pool._supervisor.channels[slot]
    channel.events.close()
    channel.events = recv_end
    return send_end


def _sigkill_self():
    os.kill(os.getpid(), signal.SIGKILL)


def _count_then_kill_first_attempt(x):
    worker_obs().registry.counter("t.items").inc()
    ctx = get_task_context()
    if x == ctx["victim"] and not os.path.exists(ctx["flag"]):
        open(ctx["flag"], "w").close()
        os.kill(os.getpid(), signal.SIGKILL)
    return x * x


@needs_fork
class TestWorkerPool:
    def test_map_returns_ordered_results(self):
        items = list(range(23))
        with WorkerPool(3) as pool:
            assert pool.map_chunked(_square, items) == [x * x for x in items]

    def test_imap_yields_chunks_in_order(self):
        with WorkerPool(2) as pool:
            out = list(pool.imap_chunked(_square, list(range(10)),
                                         chunk_size=3))
        assert [index for index, _ in out] == [0, 1, 2, 3]
        assert [r for _, part in out for r in part] == \
            [x * x for x in range(10)]

    def test_empty_items_and_reuse(self):
        with WorkerPool(2) as pool:
            assert pool.map_chunked(_square, []) == []
            assert pool.map_chunked(_square, [4]) == [16]
            assert pool.map_chunked(_square, [5, 6]) == [25, 36]

    def test_task_context_is_fork_inherited(self):
        with task_context(factor=7):
            with WorkerPool(2) as pool:
                assert pool.map_chunked(_mul_by_ctx_factor, [1, 2, 3]) == \
                    [7, 14, 21]
        assert "factor" not in get_task_context()

    def test_worker_obs_ships_back_exactly_once(self):
        obs = Observability()
        items = list(range(20))
        with WorkerPool(3, obs=obs) as pool:
            pool.map_chunked(_count_and_square, items)
        snap = obs.registry.snapshot()
        assert snap["t.items"] == len(items)  # absorbed once, not per retry
        assert snap["parallel.maps"] == 1
        assert snap["parallel.items"] == len(items)
        assert snap["parallel.tasks_completed"] == snap["parallel.tasks"]
        assert snap["parallel.snapshots_absorbed"] >= 1

    def test_serial_fallback_records_into_caller_obs(self):
        obs = Observability()
        with task_obs(obs):
            results = [_count_and_square(x) for x in range(5)]
        assert results == [x * x for x in range(5)]
        assert obs.registry.snapshot()["t.items"] == 5
        # Outside any task scope, worker_obs is a throwaway handle.
        assert worker_obs() is not obs

    def test_exception_exhausts_retries_with_traceback(self):
        obs = Observability()
        with WorkerPool(2, max_retries=1, obs=obs) as pool:
            with pytest.raises(ParallelTaskError) as err:
                pool.map_chunked(_boom, [1, 2, 3], chunk_size=1)
        assert "boom on" in str(err.value)
        assert err.value.task_index is not None
        snap = obs.registry.snapshot()
        assert snap["parallel.task_errors"] >= 2  # initial + retry at least
        assert snap["parallel.task_retries"] >= 1

    def test_stale_attempt_done_is_discarded_not_accepted(self):
        # Regression: a retried task's *first* attempt finishing late (its
        # worker was presumed dead) must not be accepted as the result — the
        # contract is that only the live attempt's payload and obs export
        # count.  Forge the two wire messages the race produces.
        from collections import deque

        from repro.parallel.pool import _Task

        def export_with(value):
            obs = Observability()
            obs.registry.counter("t.regress").inc(value)
            return obs.export()

        obs = Observability()
        with WorkerPool(1, obs=obs) as pool:
            task = _Task(task_id=0, index=0, fn=_square, chunk=[3])
            task.attempts = 2  # a retry is the live attempt
            pool._active[0] = task
            forge = _forge_events(pool)
            forge.send(("done", 0, 1, ["stale"], export_with(100)))
            forge.send(("done", 0, 2, ["live"], export_with(1)))
            pool._pending = deque()
            completed = pool._completed
            pool._supervisor.drain()
            assert completed == {0: ["live"]}
            assert obs.registry.snapshot()["t.regress"] == 1

    def test_done_racing_its_requeued_retry_drops_the_pending_copy(self):
        # Regression: a task whose worker was declared dead is requeued, but
        # the old attempt's done arrives before the retry is dispatched.
        # Accepting the done must also retire the pending copy, or the task
        # runs (and counts) twice.
        from collections import deque

        from repro.parallel.pool import _Task

        obs = Observability()
        with WorkerPool(1, obs=obs) as pool:
            task = _Task(task_id=0, index=0, fn=_square, chunk=[2])
            task.attempts = 1
            pool._active[0] = task
            pool._pending = pending = deque([task])
            _forge_events(pool).send(("done", 0, 1, [4], None))
            completed = pool._completed
            pool._supervisor.drain()
            assert completed == {0: [4]}
            assert len(pending) == 0  # not re-dispatched after completing

    def test_done_sent_just_before_sigkill_is_accepted_not_retried(self):
        # Regression: a worker sends its task's done and is SIGKILLed before
        # the next liveness sweep.  Respawn must read the corpse's channel
        # to EOF first: the result is accepted, nothing is requeued, and a
        # pool without retries does not fail a task that finished.
        from repro.parallel.pool import _Task

        def police():
            obs = Observability()
            with WorkerPool(1, max_retries=0, obs=obs) as pool:
                task = _Task(task_id=0, index=0, fn=_square, chunk=[5])
                task.attempts = 1
                pool._active[0] = task
                pool._assigned[0] = (0, time.monotonic())  # busy with it
                forge = _forge_events(pool)
                forge.send(("done", 0, 1, [25], None))
                forge.close()  # the dead worker held the only write end
                victim = pool._supervisor.channels[0].process
                os.kill(victim.pid, signal.SIGKILL)
                victim.join()
                pool._police_workers(timeout=None)
                return pool._completed, list(pool._pending), obs

        completed, pending, obs = within(30, police)
        assert completed == {0: [25]}
        assert pending == []
        snap = obs.registry.snapshot()
        assert snap["parallel.worker_respawns"] == 1
        assert "parallel.task_retries" not in snap

    def test_kill_mid_task_counts_each_item_exactly_once(self, tmp_path):
        # Conservation across SIGKILL + retry: the killed attempt's partial
        # counts die with its registry; the successful attempt's snapshot is
        # absorbed exactly once, so the total equals the item count even
        # though the victim chunk ran (partially) twice.
        obs = Observability()
        items = list(range(12))

        def run():
            with task_context(victim=5, flag=str(tmp_path / "killed")):
                with WorkerPool(3, obs=obs) as pool:
                    return pool.map_chunked(_count_then_kill_first_attempt,
                                            items, chunk_size=2)

        results = within(60, run)
        assert results == [x * x for x in items]
        snap = obs.registry.snapshot()
        assert snap["parallel.worker_respawns"] >= 1
        assert snap["t.items"] == len(items)

    def test_killed_worker_is_respawned_and_task_retried(self, tmp_path):
        obs = Observability()
        items = list(range(12))

        def run():
            with task_context(victim=7, flag=str(tmp_path / "killed")):
                with WorkerPool(3, obs=obs) as pool:
                    return pool.map_chunked(_kill_first_attempt, items,
                                            chunk_size=2)

        results = within(60, run)
        assert results == [x * x for x in items]
        assert (tmp_path / "killed").exists()
        snap = obs.registry.snapshot()
        assert snap["parallel.worker_respawns"] >= 1
        assert snap["parallel.task_retries"] >= 1

    def test_repeated_kills_never_wedge_the_pool(self, tmp_path):
        # Stress: a dozen workers die mid-chunk.  With one result queue
        # shared by every worker, a death during a result write could
        # leave the queue's lock held or a partial message in the shared
        # pipe, and the map then hung (in 2-5 of 10 runs on 2 vCPUs).
        obs = Observability()
        items = list(range(48))

        def run():
            with task_context(flags=str(tmp_path)):
                with WorkerPool(4, obs=obs) as pool:
                    return pool.map_chunked(
                        _kill_first_attempt_of_every_fourth, items,
                        chunk_size=2)

        results = within(60, run)
        assert results == [x * x for x in items]
        assert obs.registry.snapshot()["parallel.worker_respawns"] >= 12

    def test_timeout_kills_worker_and_fails_fast(self):
        obs = Observability()
        started = time.monotonic()

        def run():
            with WorkerPool(2, task_timeout=0.4, max_retries=0,
                            obs=obs) as pool:
                pool.map_chunked(_sleep_long, [1])

        with pytest.raises(ParallelTaskError) as err:
            within(30, run)
        assert time.monotonic() - started < 10.0
        assert "timeout" in err.value.cause
        assert obs.registry.snapshot()["parallel.task_timeouts"] >= 1

    def test_workers_dying_at_startup_exhaust_the_respawn_budget(
            self, monkeypatch):
        # Every worker SIGKILLs itself before it is ready (forked children
        # inherit the patched BLAS pin every child runs first), so no task
        # can ever run: the per-map respawn budget must end the map in a
        # typed error.
        from repro.parallel import supervisor

        monkeypatch.setattr(supervisor, "pin_blas_threads", _sigkill_self)
        obs = Observability()

        def run():
            with WorkerPool(2, max_retries=0, obs=obs) as pool:
                pool.map_chunked(_square, [1, 2, 3])

        with pytest.raises(ParallelTaskError, match="workers keep dying"):
            within(30, run)
        assert obs.registry.snapshot()["parallel.worker_respawns"] == 2 * 2

    def test_close_terminates_all_workers(self):
        pool = WorkerPool(3)
        processes = [channel.process for channel in pool._supervisor.channels]
        pool.close()
        pool.close()  # idempotent
        assert all(not p.is_alive() for p in processes)
        with pytest.raises(ValueError):
            pool.map_chunked(_square, [1])

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            WorkerPool(0)
        with pytest.raises(ValueError):
            WorkerPool(1, max_retries=-1)
        with WorkerPool(1) as pool:
            with pytest.raises(ValueError):
                pool.map_chunked(_square, [1, 2], chunk_size=0)


def test_effective_workers_resolution():
    assert effective_workers(None) == 1
    assert effective_workers(0) == 1
    assert effective_workers(1) == 1
    if parallel_available():
        assert effective_workers(4) == 4


# ---------------------------------------------------------------------------
# BLAS thread policy: forked children pin, the parent keeps its threads
# ---------------------------------------------------------------------------


def _child_blas_threads(_):
    return blas_threads()


@needs_fork
def test_forked_children_run_one_blas_thread():
    parent = blas_threads()
    with WorkerPool(2) as pool:
        counts = pool.map_chunked(_child_blas_threads, list(range(4)))
    assert blas_threads() == parent
    if parent is None:
        assert counts == [None] * 4   # no bundled OpenBLAS: the pin is a no-op
    else:
        assert counts == [CHILD_BLAS_THREADS] * 4


def test_blas_pin_without_openblas_is_a_recorded_no_op(monkeypatch):
    from repro import bench
    from repro.parallel import blas

    monkeypatch.setattr(blas, "_openblas", lambda: (None, "no OpenBLAS here"))
    assert blas.pin_blas_threads() == "no OpenBLAS here"
    assert blas.blas_threads() is None
    assert bench.header()["blas_threads"] == {
        "parent": None, "children": None, "pin_unavailable": "no OpenBLAS here"}


def test_header_records_parent_and_child_blas_threads():
    from repro import bench

    policy = bench.header()["blas_threads"]
    assert policy["parent"] == blas_threads()
    if policy["parent"] is not None:
        assert policy == {"parent": blas_threads(),
                          "children": CHILD_BLAS_THREADS,
                          "pin_unavailable": None}


# ---------------------------------------------------------------------------
# Determinism: workers=4 must be bit-identical to the serial loop
# ---------------------------------------------------------------------------


def _non_pool_counters(obs):
    """Registry totals excluding the pool's own bookkeeping counters."""
    return {name: value for name, value in obs.registry.snapshot().items()
            if not name.startswith("parallel.")}


@pytest.fixture(scope="module")
def substrate():
    from repro.data.vocab import build_tokenizer
    from repro.nn.transformer import TransformerLM, preset_config

    tokenizer = build_tokenizer()
    config = preset_config("nano", vocab_size=tokenizer.vocab_size, seed=3)
    model = TransformerLM(config)
    model.eval()
    return model, tokenizer


@needs_fork
class TestDeterminism:
    def test_openroad_bit_identical(self, substrate):
        from repro.data.openroad_qa import eval_triplets
        from repro.eval.harness import LMAnswerer, run_openroad

        model, tokenizer = substrate
        answerer = LMAnswerer(model, tokenizer, max_new_tokens=16)
        triplets = eval_triplets()[:12]
        serial_obs, par_obs = Observability(), Observability()
        serial = run_openroad(answerer, triplets, obs=serial_obs)
        par = run_openroad(answerer, triplets, obs=par_obs, workers=4)
        assert par.responses == serial.responses
        assert par.references == serial.references
        assert par.by_category == serial.by_category
        assert par.overall == serial.overall
        assert _non_pool_counters(par_obs) == _non_pool_counters(serial_obs)

    def test_industrial_judge_scores_bit_identical(self, substrate):
        from repro.data.industrial_qa import eval_items
        from repro.eval.harness import LMAnswerer, run_industrial

        model, tokenizer = substrate
        answerer = LMAnswerer(model, tokenizer, max_new_tokens=16)
        items = eval_items()[:8]
        serial_obs, par_obs = Observability(), Observability()
        serial = run_industrial(answerer, items, obs=serial_obs)
        par = run_industrial(answerer, items, obs=par_obs, workers=4)
        assert par.verdicts == serial.verdicts  # judge scores included
        assert par.responses == serial.responses
        assert par.by_category == serial.by_category
        assert par.overall == serial.overall
        assert _non_pool_counters(par_obs) == _non_pool_counters(serial_obs)

    def test_industrial_multiturn_bit_identical(self, substrate):
        from repro.data.industrial_qa import multi_turn_items
        from repro.eval.harness import LMAnswerer, run_industrial_multiturn

        model, tokenizer = substrate
        answerer = LMAnswerer(model, tokenizer, max_new_tokens=16)
        items = multi_turn_items()[:6]
        serial = run_industrial_multiturn(answerer, items)
        par = run_industrial_multiturn(answerer, items, workers=4)
        assert par.verdicts == serial.verdicts
        assert par.responses == serial.responses
        assert par.overall == serial.overall

    def test_ifeval_bit_identical(self, substrate):
        from repro.data.ifeval_data import ifeval_prompts
        from repro.eval.ifeval.evaluator import evaluate_model

        model, tokenizer = substrate
        prompts = ifeval_prompts(n_prompts=8)
        serial = evaluate_model(model, tokenizer, prompts, max_new_tokens=12)
        par = evaluate_model(model, tokenizer, prompts, max_new_tokens=12,
                             workers=4)
        assert par == serial  # all four accuracies, frozen-dataclass equality

    def test_mcq_bit_identical(self, substrate):
        from repro.data.mcq import mcq_items
        from repro.eval.mcq_eval import evaluate_mcq

        model, tokenizer = substrate
        items = mcq_items()[:12]
        serial = evaluate_mcq(model, tokenizer, items)
        par = evaluate_mcq(model, tokenizer, items, workers=4)
        assert par.by_domain == serial.by_domain
        assert par.overall == serial.overall
