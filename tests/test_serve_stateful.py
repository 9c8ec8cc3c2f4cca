"""A stateful model of the in-process server (Hypothesis rule-based).

Hypothesis drives an :class:`~repro.serve.InProcessServer` on a manual
clock through random interleavings of submit (with or without a deadline
or session), step, cancel, clock advances past deadlines, taking results,
ending sessions and clearing the caches when idle, on both KV layouts, and
shrinks any failing sequence to a minimal one.  After every rule:

* the scheduler's request ledger balances, and agrees with the model;
* every request id has at most one terminal completion (exactly one once
  the server is idle);
* the completions the server retains are exactly the model's FIFO, within
  the cap, and every drop was counted;
* the paged block pool conserves its refcounts.

Once idle with the prefix cache and sessions cleared, no KV is held.
"""

from collections import OrderedDict

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (Bundle, RuleBasedStateMachine, invariant,
                                 precondition, rule, run_state_machine_as_test)

from repro.serve import RequestStatus, SamplingParams
from repro.serve import server as server_module
from tests.conftest import ManualClock, make_server

#: Retention cap while the model runs: small, so drops happen within one
#: short run.
CAP = 4
SESSIONS = ("alice", "bob")
TERMINAL = (RequestStatus.FINISHED, RequestStatus.EXPIRED,
            RequestStatus.CANCELLED)


class ServerModel(RuleBasedStateMachine):
    """Rules over one server; the model is what the caller has seen."""

    model = None
    kv_mode = "dense"

    def __init__(self):
        super().__init__()
        self.clock = ManualClock()
        self.server = make_server(
            self.model, clock=self.clock, kv_mode=self.kv_mode,
            kv_block_tokens=4, max_batch_size=2, prefix_cache=True,
            prefix_min_tokens=2, prefix_cache_entries=3)
        self.submitted = 0
        #: request id -> status of its one terminal completion.
        self.terminal = {}
        #: The server's retention FIFO, as the caller can know it.
        self.held = OrderedDict()
        self.dropped = 0

    requests = Bundle("requests")

    # ------------------------------------------------------------------
    def _record(self, request_id, status):
        assert request_id not in self.terminal, \
            f"{request_id} reached a second terminal outcome"
        assert status in TERMINAL
        self.terminal[request_id] = status
        self.held[request_id] = status
        if len(self.held) > CAP:
            self.held.popitem(last=False)
            self.dropped += 1

    def _record_all(self, completions):
        for completion in completions:
            self._record(completion.request_id, completion.status)

    # ------------------------------------------------------------------
    @rule(target=requests,
          tail=st.lists(st.integers(3, 23), min_size=1, max_size=8),
          shared=st.booleans(),
          max_new_tokens=st.integers(1, 5),
          priority=st.integers(0, 2),
          deadline=st.none() | st.sampled_from([0.0, 0.5, 2.0]),
          session=st.none() | st.sampled_from(SESSIONS))
    def submit(self, tail, shared, max_new_tokens, priority, deadline,
               session):
        prompt = ([1, 7, 8, 9, 10] if shared else [1]) + tail
        self.submitted += 1
        return self.server.submit(
            prompt, params=SamplingParams(max_new_tokens=max_new_tokens),
            priority=priority, session_id=session,
            deadline=None if deadline is None else self.clock.t + deadline)

    @rule()
    def step(self):
        self._record_all(self.server.step())

    @rule()
    def run_until_idle(self):
        self._record_all(self.server.run_until_idle())

    @rule(request_id=requests)
    def cancel(self, request_id):
        was_terminal = request_id in self.terminal
        found = self.server.cancel(request_id)
        # Found exactly when the request had no outcome yet; the server
        # holds the cancellation for result() (cancel returns none).
        assert found is not was_terminal
        if found:
            self._record(request_id, RequestStatus.CANCELLED)

    @rule(seconds=st.sampled_from([0.25, 1.0, 3.0]))
    def advance_clock(self, seconds):
        self.clock.t += seconds

    @rule(request_id=requests)
    def take_result(self, request_id):
        completion = self.server.result(request_id)
        expected = self.held.pop(request_id, None)
        if expected is None:
            assert completion is None
        else:
            assert completion.request_id == request_id
            assert completion.status == expected
        assert self.server.result(request_id) is None  # handed over once

    @rule(session=st.sampled_from(SESSIONS))
    def end_session(self, session):
        self.server.scheduler.sessions.drop(session)

    @precondition(lambda self: self.server.idle)
    @rule()
    def clear_caches_when_idle(self):
        self._check_no_kv_held()

    # ------------------------------------------------------------------
    def _check_no_kv_held(self):
        scheduler = self.server.scheduler
        scheduler.prefix_pool.clear()
        scheduler.sessions.clear()
        stats = self.server.engine.kv_stats()
        assert stats["bytes_in_use"] == 0, stats
        pool = self.server.engine._block_pool
        if pool is not None:
            assert pool.n_allocated == 0 and pool.conservation_ok()

    @invariant()
    def ledger_balances(self):
        ledger = self.server.scheduler.accounting()
        assert ledger["conservation_ok"] == 1, ledger
        assert ledger["submitted"] == self.submitted
        assert (ledger["finished"] + ledger["expired"]
                + ledger["cancelled"]) == len(self.terminal)

    @invariant()
    def retention_matches_model(self):
        store = self.server._results
        assert len(store) == len(self.held) <= CAP
        dropped = self.server.obs.registry.counter("serve.completions_dropped")
        assert dropped.value == self.dropped

    @invariant()
    def block_pool_conserved(self):
        pool = self.server.engine._block_pool
        assert pool is None or pool.conservation_ok()

    def teardown(self):
        self._record_all(self.server.run_until_idle())
        assert len(self.terminal) == self.submitted
        self._check_no_kv_held()


@pytest.mark.parametrize("kv_mode", ["dense", "paged"])
def test_server_state_machine(kv_mode, serve_model, monkeypatch):
    monkeypatch.setattr(server_module, "RETAINED_COMPLETIONS", CAP)
    machine = type(f"ServerModel_{kv_mode}", (ServerModel,),
                   {"model": serve_model, "kv_mode": kv_mode})
    # Half the active profile's examples (tests/conftest.py): 50 by
    # default, more under HYPOTHESIS_PROFILE=ci.
    run_state_machine_as_test(machine, settings=settings(
        max_examples=max(1, settings.default.max_examples // 2),
        stateful_step_count=50, deadline=None))
