"""Network front door tests: protocol, admission policy, sockets, drain.

Policy layers (token bucket, weighted fair queueing, deadline propagation)
run on manual clocks — pure determinism, no sleeps.  Transport tests run
against a real :class:`NetServerThread` on an ephemeral 127.0.0.1 port:
byte identity with the in-process server, stream event ordering,
cancel/disconnect slot reclamation, slow-consumer shedding, and graceful
drain with a conservation check.
"""

import json
import selectors
import socket
import threading
import time
from pathlib import Path

import pytest

from repro.nn.transformer import TransformerConfig, TransformerLM
from repro.serve import InProcessServer, SamplingParams, ServeConfig
from repro.serve.loadgen import (WorkloadSpec, arrival_schedule,
                                 run_socket_workload, synthetic_prompts)
from repro.serve.net import (AdmissionController, NetClient, NetClientError,
                             NetServerConfig, NetServerThread, ProtocolError,
                             ShedError, TenantConfig, TokenBucket, protocol)
from repro.serve.net.server import _Connection
from repro.serve.request import Request


@pytest.fixture(scope="module")
def model():
    # Untrained random weights: generation is deterministic given seeds,
    # which is all the transport/policy layers care about.
    return TransformerLM(TransformerConfig(vocab_size=32, dim=16, n_layers=1,
                                           n_heads=2, max_seq_len=96, seed=0))


@pytest.fixture(scope="module")
def long_model():
    # Long context window so a 512-token request genuinely stays in flight
    # while a test cancels/disconnects/sheds it (with a short window it
    # would finish at the context bound before the interruption lands).
    return TransformerLM(TransformerConfig(vocab_size=32, dim=16, n_layers=1,
                                           n_heads=2, max_seq_len=1024,
                                           seed=0))


class ManualClock:
    def __init__(self, t=0.0):
        self.t = t

    def __call__(self):
        return self.t


def _request(rid, n_prompt=4, max_new_tokens=8, deadline=None):
    return Request(request_id=rid, prompt_ids=tuple(range(1, 1 + n_prompt)),
                   params=SamplingParams(max_new_tokens=max_new_tokens),
                   deadline=deadline)


def _wait_until(cond, timeout=10.0, interval=0.005):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if cond():
            return True
        time.sleep(interval)
    return False


def _start_server(model, serve_config=None, net_config=None):
    handle = NetServerThread(
        model,
        serve_config=serve_config or ServeConfig(max_batch_size=4),
        net_config=net_config or NetServerConfig())
    handle.start()
    return handle


# ---------------------------------------------------------------------------
# wire protocol
# ---------------------------------------------------------------------------


def test_frame_roundtrip_and_parse_errors():
    frame = {"op": "submit", "id": "a", "prompt_ids": [1, 2], "tenant": "t"}
    assert protocol.parse_frame(protocol.encode_frame(frame)) == frame

    with pytest.raises(ProtocolError) as err:
        protocol.parse_frame(b"not json\n")
    assert err.value.code == protocol.E_PARSE
    with pytest.raises(ProtocolError):
        protocol.parse_frame(b"[1, 2]\n")  # not an object
    with pytest.raises(ProtocolError):
        protocol.parse_frame(b"x" * (protocol.MAX_FRAME_BYTES + 1))

    with pytest.raises(ProtocolError) as err:
        protocol.validate_op({"op": "reboot"})
    assert err.value.code == protocol.E_UNKNOWN_OP
    with pytest.raises(ProtocolError) as err:
        protocol.validate_op({"id": "x"})
    assert err.value.code == protocol.E_PROTOCOL


def test_validate_submit_rejections():
    ok = {"op": "submit", "id": "a", "prompt_ids": [1, 2]}
    assert protocol.validate_submit(dict(ok)) == ok

    bad = [
        {"op": "submit", "prompt_ids": [1]},               # no id
        {"op": "submit", "id": "a"},                       # no prompt
        {"op": "submit", "id": "a", "prompt_ids": []},     # empty
        {"op": "submit", "id": "a", "prompt_ids": [1, True]},
        {"op": "submit", "id": "a", "prompt": ""},
        {"op": "submit", "id": "a", "prompt_ids": [1], "params": 3},
        {"op": "submit", "id": "a", "prompt_ids": [1], "timeout_s": 0},
        {"op": "submit", "id": "a", "prompt_ids": [1], "timeout_s": -1.0},
        {"op": "submit", "id": "a", "prompt_ids": [1], "priority": "high"},
        {"op": "submit", "id": "a", "prompt_ids": [1], "tenant": ""},
    ]
    for frame in bad:
        with pytest.raises(ProtocolError):
            protocol.validate_submit(frame)


def test_shed_frame_rejects_unknown_code():
    with pytest.raises(ValueError):
        protocol.shed_frame("a", "walrus", 1.0)


# ---------------------------------------------------------------------------
# token bucket + weighted fair queueing (manual clock, no sleeps)
# ---------------------------------------------------------------------------


def test_token_bucket_burst_deplete_refill():
    clock = ManualClock()
    bucket = TokenBucket(rate=2.0, burst=3, clock=clock)
    # Starts full: the whole burst is immediately spendable.
    for _ in range(3):
        ok, retry = bucket.try_take()
        assert ok and retry == 0.0
    ok, retry = bucket.try_take()
    assert not ok
    assert retry == pytest.approx(0.5)  # 1 token deficit at 2 tok/s
    clock.t += 0.5
    ok, _ = bucket.try_take()
    assert ok
    # Refill caps at burst even after a long idle gap.
    clock.t += 100.0
    assert bucket.tokens == pytest.approx(3.0)


def test_token_bucket_infinite_rate_never_sheds():
    bucket = TokenBucket(rate=float("inf"), burst=1, clock=ManualClock())
    assert all(bucket.try_take()[0] for _ in range(100))


def test_wfq_minority_not_stuck_behind_aggressor():
    """The fairness property, deterministically: 9 aggressor requests are
    queued ahead of 1 minority request at equal weights; WFQ releases the
    minority within the first two slots (solo it would be slot one — the
    2x TTFT bound holds by construction)."""
    clock = ManualClock()
    admission = AdmissionController(
        tenants=(TenantConfig(name="aggr"), TenantConfig(name="minor")),
        clock=clock, default_config=None)
    for i in range(9):
        assert admission.admit("aggr", _request(f"a{i}")).admitted
    assert admission.admit("minor", _request("m0")).admitted

    order = []
    while True:
        released = admission.next_batch(1)
        if not released:
            break
        order.append(released[0].request_id)
    assert order.index("m0") <= 1, (
        f"minority released at position {order.index('m0')}: {order}")
    assert len(order) == 10


def test_wfq_weights_bias_release_share():
    clock = ManualClock()
    admission = AdmissionController(
        tenants=(TenantConfig(name="heavy", weight=3.0, max_queue=128),
                 TenantConfig(name="light", weight=1.0, max_queue=128)),
        clock=clock, default_config=None, max_queue_total=1024)
    for i in range(80):
        assert admission.admit("heavy", _request(f"h{i}")).admitted
        assert admission.admit("light", _request(f"l{i}")).admitted
    first_40 = [r.request_id[0] for r in admission.next_batch(40)]
    # Weight 3 vs 1: about 3/4 of released slots go to the heavy tenant.
    assert 27 <= first_40.count("h") <= 33, first_40


def test_wfq_idle_tenant_banks_no_credit():
    """A tenant that was idle while others burned virtual time must not
    monopolise the release order when it comes back."""
    clock = ManualClock()
    admission = AdmissionController(
        tenants=(TenantConfig(name="busy"), TenantConfig(name="idle")),
        clock=clock, default_config=None, max_queue_total=1024)
    for i in range(50):
        assert admission.admit("busy", _request(f"b{i}")).admitted
    admission.next_batch(50)  # busy burns 50 requests of virtual time
    for i in range(4):
        assert admission.admit("busy", _request(f"B{i}")).admitted
        assert admission.admit("idle", _request(f"i{i}")).admitted
    release = [r.request_id[0] for r in admission.next_batch(8)]
    # Fair interleave, not 4 idle releases in a row.
    assert release[:2] != ["i", "i"], release
    assert release.count("i") == 4 and release.count("B") == 4


# ---------------------------------------------------------------------------
# admission: sheds, deadlines, conservation
# ---------------------------------------------------------------------------


def test_admission_rate_limit_sheds_with_retry_hint():
    clock = ManualClock()
    admission = AdmissionController(
        tenants=(TenantConfig(name="t", rate=1.0, burst=2),),
        clock=clock, default_config=None)
    assert admission.admit("t", _request("r0")).admitted
    assert admission.admit("t", _request("r1")).admitted
    decision = admission.admit("t", _request("r2"))
    assert not decision.admitted
    assert decision.shed_code == protocol.SHED_RATE_LIMITED
    assert decision.retry_after_s >= 0.05
    clock.t += 1.0  # one token refills
    assert admission.admit("t", _request("r2")).admitted


def test_admission_queue_bounds():
    clock = ManualClock()
    admission = AdmissionController(
        tenants=(TenantConfig(name="small", max_queue=2),
                 TenantConfig(name="other", max_queue=64)),
        clock=clock, default_config=None, max_queue_total=3)
    assert admission.admit("small", _request("s0")).admitted
    assert admission.admit("small", _request("s1")).admitted
    per_tenant = admission.admit("small", _request("s2"))
    assert not per_tenant.admitted
    assert per_tenant.shed_code == protocol.SHED_QUEUE_FULL
    assert admission.admit("other", _request("o0")).admitted
    global_bound = admission.admit("other", _request("o1"))
    assert not global_bound.admitted
    assert global_bound.shed_code == protocol.SHED_QUEUE_FULL
    assert global_bound.retry_after_s > 0


def test_admission_draining_and_unknown_tenant():
    admission = AdmissionController(clock=ManualClock(),
                                    default_config=None)
    refused = admission.admit("nobody", _request("r0"))
    assert not refused.admitted
    permissive = AdmissionController(clock=ManualClock())
    permissive.draining = True
    decision = permissive.admit("default", _request("r1"))
    assert not decision.admitted
    assert decision.shed_code == protocol.SHED_DRAINING


def test_deadline_propagation_clamps_and_defaults():
    clock = ManualClock(100.0)
    admission = AdmissionController(
        tenants=(TenantConfig(name="capped", max_timeout_s=5.0,
                              default_timeout_s=2.0),),
        clock=clock, default_config=None)

    def admitted_deadline(rid, timeout_s=None, deadline=None):
        decision = admission.admit("capped", _request(rid, deadline=deadline),
                                   timeout_s=timeout_s)
        assert decision.admitted
        return decision.deadline

    assert admitted_deadline("r0") == pytest.approx(102.0)       # default
    assert admitted_deadline("r1", timeout_s=1.0) == pytest.approx(101.0)
    assert admitted_deadline("r2", timeout_s=60.0) == pytest.approx(105.0)
    # An existing (earlier) absolute deadline is never extended.
    assert admitted_deadline("r3", timeout_s=4.0,
                             deadline=100.5) == pytest.approx(100.5)
    # The released request carries the propagated deadline.
    released = {r.request_id: r for r in admission.next_batch(4)}
    assert released["r1"].deadline == pytest.approx(101.0)


def test_admission_conservation_ledger():
    clock = ManualClock()
    admission = AdmissionController(clock=clock)
    for i in range(6):
        assert admission.admit("default", _request(f"r{i}")).admitted
    assert admission.cancel_queued("r5")
    released = admission.next_batch(8)
    assert [r.request_id for r in released] == [f"r{i}" for i in range(5)]
    admission.record_outcome("r0", "finished", tokens=8)
    admission.record_outcome("r1", "expired")
    admission.record_outcome("r2", "cancelled")
    assert admission.conservation_ok()
    snap = admission.snapshot()
    tenant = snap["tenants"]["default"]
    assert tenant["accepted"] == 6
    assert tenant["finished"] == 1 and tenant["expired"] == 1
    assert tenant["cancelled"] == 2  # one queued cancel + one released
    # Unknown outcomes don't corrupt the ledger.
    admission.record_outcome("ghost", "finished")
    assert admission.conservation_ok()


# ---------------------------------------------------------------------------
# sockets: byte identity, streaming, errors
# ---------------------------------------------------------------------------


SPEC = WorkloadSpec(n_requests=6, shared_prefix_tokens=10, unique_tokens=4,
                    max_new_tokens=8, vocab_size=30, seed=11)


def test_socket_byte_identity_with_in_process_server(model):
    """The acceptance gate: token streams over a real socket are
    byte-identical to InProcessServer.complete in exact mode."""
    config = ServeConfig(decode_mode="exact", prefix_cache=False,
                         max_batch_size=4)
    reference = InProcessServer(model, config=ServeConfig(
        decode_mode="exact", prefix_cache=False, max_batch_size=4))
    expected = []
    for i, prompt in enumerate(synthetic_prompts(SPEC)):
        completion = reference.complete(prompt, params=SamplingParams(
            max_new_tokens=SPEC.max_new_tokens, seed=SPEC.seed + i))
        expected.append(list(completion.token_ids))

    handle = _start_server(model, serve_config=config)
    try:
        result = run_socket_workload(handle.server.address, SPEC)
        assert result["n_errors"] == 0
        assert result["n_finished"] == SPEC.n_requests
        for record, want in zip(result["records"], expected):
            assert list(record["token_ids"]) == want
            assert record["streamed"] == want  # streamed == final
    finally:
        handle.drain()
        handle.stop()


def test_stream_event_ordering_and_multiplexing(model):
    """Interleaved streams on one connection: per-id indices are contiguous
    from 0 and the streamed tokens reassemble the final sequence."""
    handle = _start_server(model)
    host, port = handle.server.address
    try:
        with NetClient(host, port) as client:
            ids = [client.submit(prompt_ids=[1, 2 + i, 3],
                                 params={"max_new_tokens": 6,
                                         "seed": i},
                                 stream=True)
                   for i in range(3)]
            results = {cid: client.wait(cid) for cid in ids}
        for cid, result in results.items():
            assert result.ok
            tokens = [e for e in result.events if e.get("event") == "token"]
            assert [e["index"] for e in tokens] == list(range(len(tokens)))
            assert [e["token"] for e in tokens] == list(result.token_ids)
            assert result.ttft_s is not None and result.ttft_s >= 0
    finally:
        handle.drain()
        handle.stop()


def test_submit_without_stream_sends_no_token_events(model):
    handle = _start_server(model)
    host, port = handle.server.address
    try:
        with NetClient(host, port) as client:
            result = client.complete(prompt_ids=[1, 5, 3],
                                     params={"max_new_tokens": 4},
                                     stream=False)
        assert result.ok and len(result.token_ids) == 4
        assert not [e for e in result.events if e.get("event") == "token"]
    finally:
        handle.drain()
        handle.stop()


def test_protocol_errors_keep_connection_alive(long_model):
    handle = _start_server(long_model)
    host, port = handle.server.address
    try:
        with NetClient(host, port) as client:
            client._sock.sendall(b"this is not json\n")
            event = client.recv_event()
            assert event["event"] == "error"
            assert event["code"] == protocol.E_PARSE

            client.send_frame({"op": "reboot", "id": "x"})
            event = client.recv_event()
            assert event["code"] == protocol.E_UNKNOWN_OP

            client.send_frame({"op": "submit", "id": "y"})
            event = client.recv_event()
            assert event["code"] == protocol.E_PROTOCOL

            # Text prompts need a server-side tokenizer; this server has none.
            client.send_frame({"op": "submit", "id": "z", "prompt": "hi"})
            event = client.recv_event()
            assert event["event"] == "error"

            client.send_frame({"op": "submit", "id": "p", "prompt_ids": [1],
                               "params": {"max_new_tokens": -3}})
            event = client.recv_event()
            assert event["code"] == protocol.E_BAD_PARAMS

            # Duplicate in-flight id.  "dup" must still be running when the
            # second frame lands, so it asks for far more tokens than the
            # exchange takes and is cancelled once the error has arrived.
            first = client.submit(prompt_ids=[1, 2], stream=False,
                                  params={"max_new_tokens": 512},
                                  client_id="dup")
            assert client.wait_accepted([first]) == [first]
            client.send_frame({"op": "submit", "id": "dup",
                               "prompt_ids": [1, 2]})
            event = next(client.events_for("dup"))
            assert event["event"] == "error"
            assert event["code"] == protocol.E_DUPLICATE
            client.cancel(first)
            result = client.wait(first)
            assert result.status == "cancelled"

            # After all that abuse the connection still answers probes.
            assert client.health()["status"] in ("ok", "draining")
    finally:
        handle.drain()
        handle.stop()


def test_cancel_unknown_id_reports_not_found(model):
    handle = _start_server(model)
    host, port = handle.server.address
    try:
        with NetClient(host, port) as client:
            client.cancel("never-submitted")
            event = client.recv_event()
            assert event["event"] == "cancelled"
            assert event["found"] is False
    finally:
        handle.drain()
        handle.stop()


def test_timeout_over_socket_surfaces_expired(model):
    handle = _start_server(model)
    host, port = handle.server.address
    try:
        with NetClient(host, port) as client:
            result = client.complete(prompt_ids=[1, 2, 3],
                                     params={"max_new_tokens": 64},
                                     timeout_s=1e-4)
        assert result.status == "expired"
        assert result.finish_reason == "deadline"
    finally:
        handle.drain()
        handle.stop()


def test_rate_limit_shed_over_socket(model):
    net_config = NetServerConfig(
        default_tenant=TenantConfig(rate=0.001, burst=1))
    handle = _start_server(model, net_config=net_config)
    host, port = handle.server.address
    try:
        with NetClient(host, port) as client:
            first = client.complete(prompt_ids=[1, 2],
                                    params={"max_new_tokens": 2})
            assert first.ok
            with pytest.raises(ShedError) as err:
                client.complete(prompt_ids=[1, 2],
                                params={"max_new_tokens": 2})
            assert err.value.code == protocol.SHED_RATE_LIMITED
            assert err.value.retry_after_s > 0
    finally:
        handle.drain()
        handle.stop()


def test_health_and_metrics_verbs(model):
    handle = _start_server(model)
    host, port = handle.server.address
    try:
        with NetClient(host, port) as client:
            health = client.health()
            assert health["status"] == "ok"
            assert health["connections"] == 1
            metrics = client.server_metrics()
            assert "accounting" in metrics and "admission" in metrics
            assert metrics["accounting"]["conservation_ok"] == 1
    finally:
        handle.drain()
        handle.stop()


# ---------------------------------------------------------------------------
# cancellation, disconnects, slow consumers (slot-leak checks)
# ---------------------------------------------------------------------------


def _free_slots(handle):
    return len(handle.server.inner.engine._free_slots)


def test_cancel_over_socket_mid_stream_frees_slot(long_model):
    handle = _start_server(long_model)
    host, port = handle.server.address
    max_batch = handle.server.inner.config.max_batch_size
    try:
        with NetClient(host, port) as client:
            cid = client.submit(prompt_ids=[1, 2, 3],
                                params={"max_new_tokens": 64}, stream=True)
            events = client.events_for(cid)
            seen = 0
            for event in events:
                if event.get("event") == "token":
                    seen += 1
                    if seen == 2:
                        client.cancel(cid)
                if event.get("event") == "done":
                    assert event["status"] == "cancelled"
                    break
        assert _wait_until(lambda: _free_slots(handle) == max_batch)
        acct = handle.server.scheduler.accounting()
        assert acct["cancelled"] == 1 and acct["conservation_ok"] == 1
    finally:
        handle.drain()
        handle.stop()


def test_disconnect_mid_stream_cancels_and_frees_slot(long_model):
    """A client that vanishes mid-stream must not orphan its batch slot."""
    handle = _start_server(long_model)
    host, port = handle.server.address
    max_batch = handle.server.inner.config.max_batch_size
    try:
        client = NetClient(host, port)
        client.submit(prompt_ids=[1, 2, 3],
                      params={"max_new_tokens": 512}, stream=True)
        event = client.recv_event()
        assert event["event"] == "accepted"
        client.close()  # hang up with the stream mid-decode

        def cancelled_once():
            # The cancel lands in the scheduler if the request was already
            # released, else in the admission queue — either way the tenant
            # ledger records exactly one cancellation.
            snap = handle.server.admission.snapshot()
            return snap["tenants"]["default"]["cancelled"] == 1

        assert _wait_until(cancelled_once)
        assert _wait_until(lambda: _free_slots(handle) == max_batch)
        assert handle.server.scheduler.accounting()["conservation_ok"] == 1
        assert handle.server.admission.conservation_ok()
        # The server is still fully serviceable afterwards.
        with NetClient(host, port) as probe:
            result = probe.complete(prompt_ids=[4, 5],
                                    params={"max_new_tokens": 3})
            assert result.ok
    finally:
        handle.drain()
        handle.stop()


def test_outbox_bound_is_enforced():
    """Per-connection write buffering is bounded: when the peer stops
    reading, send() refuses new frames instead of growing without limit."""
    server_sock, client_sock = socket.socketpair()
    server_sock.setblocking(False)
    conn = _Connection(server_sock, outbox_limit=4)
    big = protocol.error_frame("protocol", "x" * 200_000)
    accepted = 0
    try:
        for _ in range(64):
            if not conn.send(big):
                break
            accepted += 1
            conn.flush()  # what the loop does when the socket is writable
        assert accepted < 64, "outbox never filled"
        assert len(conn.outbox) <= 4
        assert conn.overflowed
    finally:
        client_sock.close()
        server_sock.close()


def test_partial_writes_deliver_every_frame_intact_and_in_order():
    """A peer with a small receive buffer that reads slowly forces partial
    sends; the unsent tail stays queued and every frame still arrives
    whole and in order."""
    server_sock, client_sock = socket.socketpair()
    client_sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
    server_sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 4096)
    server_sock.setblocking(False)
    frames = [protocol.token_frame(f"c{i % 3}", i, i * 7) for i in range(400)]
    frames[::50] = [protocol.error_frame("protocol", "y" * 3000, f"big{i}")
                    for i in range(len(frames[::50]))]
    conn = _Connection(server_sock, outbox_limit=len(frames))
    for frame in frames:
        assert conn.send(frame)
    received = bytearray()

    def slow_reader():
        while True:
            chunk = client_sock.recv(512)
            if not chunk:
                return
            received.extend(chunk)
            time.sleep(0.0005)

    reader = threading.Thread(target=slow_reader, daemon=True)
    reader.start()
    partial = False
    with selectors.DefaultSelector() as selector:
        selector.register(server_sock, selectors.EVENT_WRITE)
        deadline = time.monotonic() + 30.0
        while not conn.flush():
            partial = partial or conn.head_sent > 0
            assert time.monotonic() < deadline, "outbox never drained"
            selector.select(1.0)
    server_sock.close()
    reader.join(30.0)
    client_sock.close()
    assert not reader.is_alive()
    assert partial, "no write was partial; the test exercised nothing"
    lines = bytes(received).split(b"\n")
    assert lines[-1] == b""
    assert [protocol.parse_frame(line) for line in lines[:-1]] == frames


def test_frames_of_one_step_leave_in_one_send(model, monkeypatch):
    """Everything one scheduler step emits for a connection (here a token
    frame for each of three batched streams) is written with one send."""
    handle = _start_server(model)
    server = handle.server
    steps = [0]
    emitted = {}  # steps taken -> token frames that step emitted
    sends = []  # (steps taken before the send, bytes sent)
    step, on_token = server.scheduler.step, server.scheduler.on_token

    def counted_step():
        steps[0] += 1
        return step()

    def counted_on_token(request, token, index):
        emitted[steps[0]] = emitted.get(steps[0], 0) + 1
        on_token(request, token, index)

    real_send = socket.socket.send

    def recorded_send(sock, data, *args):
        sent = real_send(sock, data, *args)
        if threading.current_thread().name == "repro-serve-net":
            sends.append((steps[0], bytes(data[:sent])))
        return sent

    monkeypatch.setattr(server.scheduler, "step", counted_step)
    monkeypatch.setattr(server.scheduler, "on_token", counted_on_token)
    monkeypatch.setattr(socket.socket, "send", recorded_send)
    try:
        with NetClient(*server.address) as client:
            ids = [client.submit(prompt_ids=[1, 2 + i, 3], stream=True,
                                 params={"max_new_tokens": 8, "seed": i})
                   for i in range(3)]
            results = [client.wait(cid) for cid in ids]
        assert all(r.ok for r in results)
        recorded = list(sends)
    finally:
        handle.drain()
        handle.stop()
    after_step = [n for n, _ in recorded]
    assert len(after_step) == len(set(after_step)), "a step took two sends"
    sent = {n: data.count(b'"event":"token"') for n, data in recorded}
    assert {n: sent.get(n, 0) for n in emitted} == emitted
    assert sum(emitted.values()) == 3 * 8
    assert max(emitted.values()) >= 3  # the streams shared steps


def test_slow_consumer_shed_cancels_and_frees_slot(long_model):
    """The slow-consumer path end-to-end: the shed cancels the connection's
    live requests, frees their slots, and tells the client why."""
    handle = _start_server(long_model)
    host, port = handle.server.address
    max_batch = handle.server.inner.config.max_batch_size
    server = handle.server
    try:
        # A short io_timeout: the shed must close the socket, not leave
        # the client waiting for its own timeout.
        client = NetClient(host, port, io_timeout=5.0)
        client.submit(prompt_ids=[1, 2, 3],
                      params={"max_new_tokens": 512}, stream=True)
        assert client.recv_event()["event"] == "accepted"
        assert _wait_until(lambda: len(server._connections) == 1)
        conn = next(iter(server._connections.values()))
        server.call_soon_threadsafe(server._shed_slow_consumer, conn)

        saw_shed_error = False
        with pytest.raises(NetClientError, match="closed by server"):
            while True:
                event = client.recv_event()
                if (event.get("event") == "error"
                        and event.get("code") == protocol.E_SLOW_CONSUMER):
                    saw_shed_error = True
        assert saw_shed_error
        assert _wait_until(lambda: _free_slots(handle) == max_batch)
        assert _wait_until(lambda: (
            server.admission.snapshot()["tenants"]["default"]["cancelled"]
            == 1))
        assert server.scheduler.accounting()["conservation_ok"] == 1
        assert server.admission.conservation_ok()
        client.close()
    finally:
        handle.drain()
        handle.stop()


# ---------------------------------------------------------------------------
# graceful drain
# ---------------------------------------------------------------------------


def test_drain_finishes_in_flight_refuses_new_and_conserves(model):
    handle = _start_server(model)
    host, port = handle.server.address
    prompts = [[1, 2 + i, 3] for i in range(4)]
    accounting = {}
    try:
        with NetClient(host, port, io_timeout=60.0) as client:
            ids = [client.submit(prompt_ids=p, params={"max_new_tokens": 24})
                   for p in prompts]
            assert client.wait_accepted(ids) == ids
            drainer = threading.Thread(
                target=lambda: accounting.update(handle.drain()), daemon=True)
            drainer.start()
            shed_code = None
            for _ in range(200):
                try:
                    client.complete(prompt_ids=[1, 2],
                                    params={"max_new_tokens": 2})
                except ShedError as exc:
                    shed_code = exc.code
                    break
                except NetClientError:
                    break
            results = [client.wait(cid) for cid in ids]
            drainer.join(timeout=60.0)
        assert all(r.ok for r in results), [r.status for r in results]
        assert shed_code == protocol.SHED_DRAINING
        assert accounting["conservation_ok"] == 1
        assert accounting["queued"] == 0 and accounting["running"] == 0
        # The listener is closed: new connections are refused outright.
        with pytest.raises(OSError):
            socket.create_connection((host, port), timeout=2.0)
    finally:
        handle.stop()


def test_two_tenant_smoke_over_socket(model):
    """Two tenants with explicit contracts sharing one server: both finish
    their Poisson workloads with zero errors (the CI smoke shape)."""
    net_config = NetServerConfig(tenants=(
        TenantConfig(name="alpha", weight=1.0),
        TenantConfig(name="beta", weight=1.0)))
    handle = _start_server(model, net_config=net_config)
    try:
        spec = WorkloadSpec(n_requests=5, shared_prefix_tokens=8,
                            unique_tokens=4, max_new_tokens=5, vocab_size=30,
                            seed=2, arrival="poisson", arrival_rate_rps=200.0)
        outcomes = {}

        def drive(tenant):
            outcomes[tenant] = run_socket_workload(
                handle.server.address, spec, tenant=tenant)

        threads = [threading.Thread(target=drive, args=(t,), daemon=True)
                   for t in ("alpha", "beta")]
        for t in threads:
            t.start()
        for t in threads:
            t.join(60.0)
        for tenant in ("alpha", "beta"):
            assert outcomes[tenant]["n_finished"] == spec.n_requests
            assert outcomes[tenant]["n_errors"] == 0
            # Generous p99 TTFT bound: this is a smoke gate for CI boxes,
            # not the SLO benchmark (bench_net.py holds the tight one).
            assert outcomes[tenant]["ttft_p99_s"] < 10.0
        proto_errors = handle.server.obs.registry.counter(
            "serve.net.protocol_errors").value
        assert proto_errors == 0
        ledger = handle.drain()
        assert ledger["conservation_ok"] == 1
        snap = handle.server.admission.snapshot()
        assert snap["tenants"]["alpha"]["finished"] == spec.n_requests
        assert snap["tenants"]["beta"]["finished"] == spec.n_requests
    finally:
        handle.stop()


# ---------------------------------------------------------------------------
# arrival schedules (exportable / replayable)
# ---------------------------------------------------------------------------


def test_arrival_schedules_shapes_and_determinism():
    batch = WorkloadSpec(n_requests=5)
    assert arrival_schedule(batch) == (0.0,) * 5

    poisson = WorkloadSpec(n_requests=64, arrival="poisson",
                           arrival_rate_rps=100.0, seed=9)
    a1, a2 = arrival_schedule(poisson), arrival_schedule(poisson)
    assert a1 == a2
    assert all(b >= a for a, b in zip(a1, a1[1:]))  # non-decreasing
    mean_gap = a1[-1] / len(a1)
    assert 0.004 < mean_gap < 0.03  # ~1/rate on average

    bursty = WorkloadSpec(n_requests=7, arrival="bursty", burst_size=3,
                          burst_gap_s=0.5)
    assert arrival_schedule(bursty) == (0.0, 0.0, 0.0, 0.5, 0.5, 0.5, 1.0)

    # Changing the arrival process never perturbs the prompt stream.
    assert (synthetic_prompts(poisson)
            == synthetic_prompts(WorkloadSpec(n_requests=64, seed=9)))

    with pytest.raises(ValueError):
        WorkloadSpec(arrival="uniform")
    with pytest.raises(ValueError):
        WorkloadSpec(arrival="poisson", arrival_rate_rps=0)


def test_arrival_schedules_replay_from_snapshot():
    """BENCH_net.json's arrival arrays replay the exact same schedule the
    run used (the streaming phase's spec in :mod:`repro.serve.net.bench`)."""
    spec = WorkloadSpec(n_requests=16, shared_prefix_tokens=48,
                        unique_tokens=12, max_new_tokens=16, vocab_size=100,
                        seed=3, arrival="poisson", arrival_rate_rps=64.0)
    fresh = arrival_schedule(spec)
    # Round-trip through JSON, as the snapshot stores them.
    restored = tuple(json.loads(json.dumps(list(fresh))))
    assert restored == fresh
    snapshot = Path(__file__).resolve().parent.parent / "BENCH_net.json"
    if snapshot.exists():
        saved = json.loads(snapshot.read_text())
        assert tuple(saved["streaming"]["arrivals"]) == fresh, (
            "committed BENCH_net.json streaming arrivals no longer match "
            "the seeded schedule — spec or RNG stream drifted")


def test_socket_workload_replays_explicit_arrivals(model):
    handle = _start_server(model)
    try:
        spec = WorkloadSpec(n_requests=3, shared_prefix_tokens=6,
                            unique_tokens=4, max_new_tokens=4, vocab_size=30,
                            seed=5, arrival="poisson", arrival_rate_rps=500.0)
        saved = arrival_schedule(spec)
        result = run_socket_workload(handle.server.address, spec,
                                     arrivals=saved)
        assert tuple(result["arrivals"]) == saved
        assert result["n_finished"] == 3
        with pytest.raises(ValueError):
            run_socket_workload(handle.server.address, spec,
                                arrivals=saved[:-1])
    finally:
        handle.drain()
        handle.stop()


def test_drain_benchmark_phase_stops_its_server_when_it_fails(model,
                                                              monkeypatch):
    """A failing drain phase raises (also under ``python -O``) and leaves
    no server thread or socket behind."""
    from repro.serve.net import bench

    monkeypatch.setattr(NetClient, "wait_accepted", lambda self, ids, **kw: [])
    spec = WorkloadSpec(n_requests=2, shared_prefix_tokens=6,
                        unique_tokens=4, max_new_tokens=2, vocab_size=30,
                        seed=0)
    before = set(threading.enumerate())
    with pytest.raises(RuntimeError, match="accepted"):
        bench.run_drain_phase(model, spec)
    assert not [t for t in threading.enumerate()
                if t not in before and t.is_alive()]
