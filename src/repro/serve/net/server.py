"""TCP front door over the in-process serving subsystem: one selectors loop.

:class:`NetServer` is the concurrent edge the ROADMAP's "millions of users"
story needs: real sockets in front of the continuous-batching scheduler.
One loop thread owns everything.  A :class:`selectors.DefaultSelector`
holds the listening socket, every client socket and one end of a wakeup
socket pair; connections split their reads into newline-delimited JSON
frames (:mod:`repro.serve.net.protocol`), the admission layer
(:mod:`repro.serve.net.admission`) rate-limits and fair-queues per tenant,
and the *pump* runs :meth:`Scheduler.step` whenever work exists, with a
zero-timeout ``select`` between steps so accepts and reads interleave with
decoding.  With no work the loop blocks in ``select(idle_poll_s)``.

Streaming is push-based: the scheduler's ``on_token`` hook fires inside the
decode step and the token frame lands in the connection's *outbox*, which
is bounded by frame count.  After each step every connection with queued
frames writes them with one coalesced ``send``; a partial write keeps the
unsent tail queued and arms the socket for a writable event, which flushes
it the same way.  A client that stops reading fills its outbox and is shed
(``slow_consumer`` error frame, connection closed, its requests cancelled)
rather than growing server memory without bound; a client that disconnects
mid-stream has its requests cancelled the moment the loop reads EOF,
freeing batch slots immediately.

Graceful drain (:meth:`NetServer.drain`): close the listener and refuse new
work (admission sheds with ``draining``), finish every admitted request
within the grace period, flush every outbox, then close.  The scheduler's
conservation ledger (:meth:`Scheduler.accounting`) is checkable afterwards
— drain leaks nothing.

The blocking model work runs *on* the loop thread by design: one scheduler
step is the atom of progress, and interleaving I/O between steps keeps TTFT
bounded without cross-thread hand-offs that would break the deterministic
schedule.  Other threads talk to the loop only through
:meth:`NetServer.call_soon_threadsafe`.  :class:`NetServerThread` hosts the
loop in a daemon thread for tests, benchmarks, and embedding in synchronous
code.
"""

from __future__ import annotations

import itertools
import selectors
import socket
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, List, Optional, Set, Tuple

from ...obs import Observability
from ..metrics import LATENCY_BUCKETS
from ..request import Completion, FinishReason, RequestStatus, Request, SamplingParams
from ..scheduler import ServeConfig
from ..server import InProcessServer
from . import protocol
from .admission import AdmissionController, TenantConfig
from .protocol import ProtocolError

#: Bytes asked of one ``recv``.
RECV_BYTES = 1 << 16
#: Seconds a closing connection gets to flush its outbox before its socket
#: is closed regardless.
FLUSH_GRACE_S = 5.0

_READ = selectors.EVENT_READ
_WRITE = selectors.EVENT_WRITE


@dataclass(frozen=True)
class NetServerConfig:
    """Transport and admission knobs of the network front door."""

    host: str = "127.0.0.1"
    #: Port to bind; 0 picks an ephemeral port (read it off ``address``).
    port: int = 0
    #: Concurrent connection cap; accepts beyond it are closed immediately.
    max_connections: int = 128
    #: Outbound frames buffered per connection before the client is shed
    #: as a slow consumer.
    outbox_limit: int = 1024
    #: Pump sleep while no work exists (seconds).
    idle_poll_s: float = 0.002
    #: Tenant contracts; unknown tenants fall back to ``default_tenant``.
    tenants: Tuple[TenantConfig, ...] = ()
    #: Contract for tenants not listed in ``tenants`` (``None`` refuses them).
    default_tenant: Optional[TenantConfig] = field(default_factory=TenantConfig)
    #: Global admitted-but-unscheduled queue bound (backpressure horizon).
    max_queue_total: int = 256
    #: Seconds a drain waits for in-flight work before forcing shutdown.
    drain_grace_s: float = 60.0


class _Connection:
    """One non-blocking client socket: a read buffer split on ``\\n`` and
    an outbox of encoded frames, bounded by frame count."""

    _ids = itertools.count()

    def __init__(self, sock: socket.socket, outbox_limit: int) -> None:
        self.conn_id = f"conn-{next(self._ids)}"
        self.sock = sock
        self.outbox_limit = outbox_limit
        self.outbox: Deque[bytes] = deque()
        #: Bytes of ``outbox[0]`` already written by a partial send.
        self.head_sent = 0
        #: Received bytes after the last newline (an incomplete frame).
        self.inbuf = b""
        #: No new frames are queued; the socket closes once flushed.
        self.closed = False
        self.overflowed = False
        #: Armed for a writable event (the last flush was partial).
        self.blocked = False
        #: ``time.monotonic()`` past which a closing socket is dropped.
        self.close_by = 0.0
        #: client_id -> request_id for in-flight work on this connection.
        self.live: Dict[str, str] = {}

    def send(self, frame: Dict[str, object]) -> bool:
        """Queue a frame for delivery; ``False`` marks a slow consumer."""
        if self.closed:
            return False
        if len(self.outbox) >= self.outbox_limit:
            self.overflowed = True
            return False
        self.outbox.append(protocol.encode_frame(frame))
        return True

    def flush(self) -> bool:
        """Write the outbox with one coalesced ``send``; frames the socket
        did not take stay queued.  Returns whether the outbox is empty;
        raises ``OSError`` if the peer is gone."""
        if not self.outbox:
            return True
        data = b"".join(self.outbox)
        try:
            sent = self.sock.send(memoryview(data)[self.head_sent:])
        except BlockingIOError:
            sent = 0
        sent += self.head_sent
        outbox = self.outbox
        while outbox and sent >= len(outbox[0]):
            sent -= len(outbox.popleft())
        self.head_sent = sent
        return not outbox

    def feed(self, data: bytes) -> List[bytes]:
        """The complete lines ``data`` finishes; the tail stays buffered."""
        *lines, self.inbuf = (self.inbuf + data).split(b"\n")
        return lines


class _Binding:
    """Server-side state of one in-flight request."""

    __slots__ = ("client_id", "conn", "stream", "tenant", "arrived_at",
                 "first_token_at")

    def __init__(self, client_id: str, conn: _Connection, stream: bool,
                 tenant: str, arrived_at: float) -> None:
        self.client_id = client_id
        self.conn = conn
        self.stream = stream
        self.tenant = tenant
        self.arrived_at = arrived_at
        self.first_token_at: Optional[float] = None


class NetServer:
    """TCP serving daemon: protocol + admission + scheduler pump.

    Parameters mirror :class:`~repro.serve.server.InProcessServer` plus the
    transport config.  :meth:`start` binds; :meth:`serve_forever` runs the
    loop on the calling thread until a drain completes.  All state is owned
    by the loop thread; :meth:`drain` and :meth:`call_soon_threadsafe` are
    the calls other threads may make.  :class:`NetServerThread` hosts one
    from synchronous code.
    """

    def __init__(self, model, tokenizer=None,
                 serve_config: ServeConfig = ServeConfig(),
                 net_config: NetServerConfig = NetServerConfig(),
                 clock: Callable[[], float] = time.monotonic,
                 eos_id: Optional[int] = None,
                 obs: Optional[Observability] = None,
                 inner=None) -> None:
        # ``inner`` injects a pre-built backend exposing the
        # InProcessServer surface (scheduler facade, tokenizer, obs,
        # metrics_snapshot) — how `repro serve-fleet` puts a replica
        # FleetServer behind this front door.  ``model`` is ignored then.
        if inner is None:
            inner = InProcessServer(model, tokenizer, serve_config,
                                    clock=clock, eos_id=eos_id, obs=obs)
        self.inner = inner
        self.scheduler = self.inner.scheduler
        self.obs = self.inner.obs
        self.net_config = net_config
        self.clock = clock
        self.admission = AdmissionController(
            tenants=net_config.tenants, clock=clock,
            max_queue_total=net_config.max_queue_total,
            default_config=net_config.default_tenant, obs=self.obs)
        self.scheduler.refill = self.admission.next_batch
        self.scheduler.on_token = self._on_token
        self._ids = itertools.count()
        self._bindings: Dict[str, _Binding] = {}  # request_id -> binding
        self._connections: Dict[str, _Connection] = {}
        #: Connections with frames queued since the last flush.
        self._dirty: Set[_Connection] = set()
        #: Shed or hung-up connections still flushing their outbox.
        self._closing: Set[_Connection] = set()
        self._selector: Optional[selectors.BaseSelector] = None
        self._listener: Optional[socket.socket] = None
        self._wake_r: Optional[socket.socket] = None
        self._wake_w: Optional[socket.socket] = None
        self._callbacks: Deque[Tuple[Callable, tuple]] = deque()
        #: ``clock()`` at which a requested drain stops waiting for work.
        self._drain_deadline: Optional[float] = None
        #: Set once the loop has closed every socket.
        self._closed = threading.Event()
        self.draining = False
        self.address: Optional[Tuple[str, int]] = None
        self.started_at = clock()
        reg = self.obs.registry
        self._conn_gauge = reg.gauge("serve.net.connections")
        self._conn_total = reg.counter("serve.net.connections_total")
        self._frames_in = reg.counter("serve.net.frames_in")
        self._frames_out = reg.counter("serve.net.frames_out")
        self._proto_errors = reg.counter("serve.net.protocol_errors")
        self._slow_sheds = reg.counter("serve.net.slow_consumer_sheds")

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> Tuple[str, int]:
        """Bind the listening socket; returns (host, port).  Connections
        queue in the backlog until :meth:`serve_forever` runs."""
        host, port = self.net_config.host, self.net_config.port
        family = socket.getaddrinfo(host, port, type=socket.SOCK_STREAM)[0][0]
        self._listener = socket.create_server((host, port), family=family)
        self._listener.setblocking(False)
        self.address = self._listener.getsockname()[:2]
        self._wake_r, self._wake_w = socket.socketpair()
        self._wake_r.setblocking(False)
        self._wake_w.setblocking(False)
        self._selector = selectors.DefaultSelector()
        self._selector.register(self._listener, _READ, self._accept)
        self._selector.register(self._wake_r, _READ, self._run_callbacks)
        return self.address

    def serve_forever(self) -> None:
        """Run the loop on this thread until a drain has closed everything."""
        if self._selector is None:
            self.start()
        try:
            while self._drain_deadline is None:
                self._run_once()
            with self.obs.span("serve.net.drain"):
                while (self._has_work()
                       and self.clock() < self._drain_deadline):
                    self._run_once()
                # In-flight work is done (or grace expired); flush every
                # outbox.
                self._close_everything()
        finally:
            self._close_everything()

    def drain(self, grace_s: Optional[float] = None,
              timeout: Optional[float] = None) -> Dict[str, int]:
        """Graceful shutdown, from any thread but the loop's: refuse new
        work, finish admitted work within ``grace_s``, flush, close.

        Returns the scheduler's post-drain accounting ledger; raises
        ``TimeoutError`` if the loop has not closed within ``timeout``.
        """
        grace_s = self.net_config.drain_grace_s if grace_s is None else grace_s
        self.call_soon_threadsafe(self._begin_drain, grace_s)
        if not self._closed.wait(timeout):
            raise TimeoutError(
                f"net server did not finish draining within {timeout} s")
        return self.scheduler.accounting()

    def call_soon_threadsafe(self, callback: Callable, *args) -> None:
        """Run ``callback(*args)`` on the loop thread at its next wakeup."""
        self._callbacks.append((callback, args))
        try:
            self._wake_w.send(b"\0")
        except OSError:  # a wakeup is already pending, or the loop closed
            pass

    def _begin_drain(self, grace_s: float) -> None:
        self.draining = True
        self.admission.draining = True
        self._close_listener()
        deadline = self.clock() + grace_s
        if self._drain_deadline is None or deadline < self._drain_deadline:
            self._drain_deadline = deadline

    def _close_listener(self) -> None:
        if self._listener is not None:
            self._selector.unregister(self._listener)
            self._listener.close()
            self._listener = None

    def _close_everything(self) -> None:
        """Cancel what is still live, flush every outbox (for at most
        :data:`FLUSH_GRACE_S`), close every socket."""
        if self._closed.is_set():
            return
        self._close_listener()
        for conn in list(self._connections.values()):
            self._close_connection(conn)
        # The cancels above owe their tenants' ledgers a terminal outcome.
        for completion in self.scheduler.drain_completions():
            self._emit_done(completion)
        self._conn_gauge.set(0)
        while self._closing:
            self._poll(FLUSH_GRACE_S)
        self._selector.close()
        self._wake_r.close()
        self._wake_w.close()
        self._closed.set()

    # ------------------------------------------------------------------
    # the loop
    # ------------------------------------------------------------------
    def _has_work(self) -> bool:
        return not self.scheduler.idle or self.admission.queued_total > 0

    def _run_once(self) -> None:
        """One turn: socket events, one scheduler step if work exists,
        done frames, then one coalesced write per connection."""
        self._poll(0.0 if self._has_work() else self.net_config.idle_poll_s)
        if self._has_work():
            with self.obs.span("serve.net.pump_step"):
                self.scheduler.step()
        # Drain the completion list, not step()'s return value: a cancel
        # landing between steps (client hangup, cancel verb) appends its
        # terminal completion outside any step, and it still owes the
        # client a done frame.
        for completion in self.scheduler.drain_completions():
            self._emit_done(completion)
        dirty, self._dirty = self._dirty, set()
        for conn in dirty:
            if not conn.blocked:
                self._flush(conn)

    def _poll(self, timeout: float) -> None:
        for key, mask in self._selector.select(timeout):
            conn = key.data
            if type(conn) is not _Connection:
                conn()  # the listener's or the wakeup socket's handler
                continue
            if mask & _WRITE:
                self._flush(conn)
            if mask & _READ and not conn.closed:
                self._read(conn)
        if self._closing:
            now = time.monotonic()
            for conn in [c for c in self._closing if now >= c.close_by]:
                self._drop_socket(conn)

    def _run_callbacks(self) -> None:
        try:
            self._wake_r.recv(RECV_BYTES)
        except OSError:
            pass
        while self._callbacks:
            callback, args = self._callbacks.popleft()
            callback(*args)

    # ------------------------------------------------------------------
    # connection handling
    # ------------------------------------------------------------------
    def _accept(self) -> None:
        while self._listener is not None:
            try:
                sock, _ = self._listener.accept()
            except OSError:  # backlog empty (or out of descriptors)
                return
            sock.setblocking(False)
            if len(self._connections) >= self.net_config.max_connections:
                try:
                    sock.send(protocol.encode_frame(protocol.shed_frame(
                        "", protocol.SHED_QUEUE_FULL, 1.0)))
                except OSError:
                    pass
                sock.close()
                continue
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            conn = _Connection(sock, self.net_config.outbox_limit)
            self._selector.register(sock, _READ, conn)
            self._connections[conn.conn_id] = conn
            self._conn_total.inc()
            self._conn_gauge.set(len(self._connections))
            with self.obs.span("serve.net.accept", conn=conn.conn_id):
                pass

    def _read(self, conn: _Connection) -> None:
        try:
            data = conn.sock.recv(RECV_BYTES)
        except BlockingIOError:
            return
        except OSError:
            data = b""
        if not data:  # EOF: the client hung up
            self._close_connection(conn)
            return
        for line in conn.feed(data):
            if conn.closed:
                return
            self._frames_in.inc()
            self._dispatch(conn, line)
        if len(conn.inbuf) > protocol.MAX_FRAME_BYTES:
            # No newline in sight: the stream cannot be resynchronised.
            self._proto_errors.inc()
            self._send(conn, protocol.error_frame(
                protocol.E_PARSE,
                f"frame exceeds {protocol.MAX_FRAME_BYTES} bytes"))
            self._close_connection(conn)

    def _flush(self, conn: _Connection) -> None:
        try:
            empty = conn.flush()
        except OSError:  # the peer is gone: nothing more can be delivered
            conn.outbox.clear()
            if not conn.closed:
                self._close_connection(conn)
            self._drop_socket(conn)
            return
        if conn.closed:
            if empty:
                self._drop_socket(conn)
        elif empty == conn.blocked:
            conn.blocked = not empty
            self._selector.modify(conn.sock, _READ | (_WRITE * conn.blocked),
                                  conn)

    def _close_connection(self, conn: _Connection) -> None:
        """Stop reading from ``conn``, cancel what it still has in flight,
        and close its socket once its outbox is flushed."""
        conn.closed = True
        self._teardown_connection(conn)
        if not conn.outbox:
            self._drop_socket(conn)
            return
        conn.close_by = time.monotonic() + FLUSH_GRACE_S
        self._closing.add(conn)
        self._selector.modify(conn.sock, _WRITE, conn)

    def _drop_socket(self, conn: _Connection) -> None:
        self._closing.discard(conn)
        self._dirty.discard(conn)
        try:
            self._selector.unregister(conn.sock)
        except (KeyError, ValueError):  # already dropped
            return
        conn.sock.close()

    def _teardown_connection(self, conn: _Connection) -> None:
        """Cancel everything a vanished/shed client still has in flight."""
        for client_id, request_id in list(conn.live.items()):
            self._cancel_request(request_id)
        conn.live.clear()
        self._connections.pop(conn.conn_id, None)
        self._conn_gauge.set(len(self._connections))

    def _cancel_request(self, request_id: str) -> bool:
        if self.admission.cancel_queued(request_id):
            binding = self._bindings.pop(request_id, None)
            if binding is not None:
                binding.conn.live.pop(binding.client_id, None)
                self._send(binding.conn, protocol.done_frame(
                    binding.client_id,
                    Completion(request_id=request_id,
                               status=RequestStatus.CANCELLED,
                               finish_reason=FinishReason.CANCELLED)))
            return True
        return self.scheduler.cancel(request_id)

    # ------------------------------------------------------------------
    # frame dispatch
    # ------------------------------------------------------------------
    def _dispatch(self, conn: _Connection, line: bytes) -> None:
        try:
            frame = protocol.parse_frame(line)
            op = protocol.validate_op(frame)
        except ProtocolError as exc:
            self._proto_errors.inc()
            self._send(conn, protocol.error_frame(exc.code, str(exc),
                                                  exc.client_id))
            return
        with self.obs.span("serve.net.frame", op=op):
            if op in ("submit", "stream"):
                self._op_submit(conn, frame, stream=(op == "stream"))
            elif op == "cancel":
                self._op_cancel(conn, frame)
            elif op == "health":
                self._send(conn, protocol.health_frame(self.health()))
            elif op == "metrics":
                self._send(conn, protocol.metrics_frame(self.metrics()))

    def _op_submit(self, conn: _Connection, frame: Dict[str, object],
                   stream: bool) -> None:
        try:
            protocol.validate_submit(frame)
        except ProtocolError as exc:
            self._proto_errors.inc()
            self._send(conn, protocol.error_frame(exc.code, str(exc),
                                                  exc.client_id))
            return
        client_id = frame["id"]
        if client_id in conn.live:
            self._proto_errors.inc()
            self._send(conn, protocol.error_frame(
                protocol.E_DUPLICATE,
                f"id {client_id!r} is already in flight", client_id))
            return
        prompt_ids = frame.get("prompt_ids")
        if prompt_ids is None:
            if self.inner.tokenizer is None:
                self._proto_errors.inc()
                self._send(conn, protocol.error_frame(
                    protocol.E_PROTOCOL,
                    "server has no tokenizer; send 'prompt_ids'", client_id))
                return
            prompt_ids = self.inner.tokenizer.encode(frame["prompt"],
                                                     add_bos=True)
        try:
            params = SamplingParams(**frame.get("params", {}))
        except (TypeError, ValueError) as exc:
            self._proto_errors.inc()
            self._send(conn, protocol.error_frame(protocol.E_BAD_PARAMS,
                                                  str(exc), client_id))
            return
        tenant = frame.get("tenant", "default")
        request_id = f"net-{next(self._ids)}"
        try:
            request = Request(request_id=request_id,
                              prompt_ids=tuple(prompt_ids), params=params,
                              priority=frame.get("priority", 0),
                              session_id=frame.get("session"))
        except ValueError as exc:
            self._proto_errors.inc()
            self._send(conn, protocol.error_frame(protocol.E_BAD_PARAMS,
                                                  str(exc), client_id))
            return
        with self.obs.span("serve.net.admit", tenant=tenant):
            decision = self.admission.admit(tenant, request,
                                            timeout_s=frame.get("timeout_s"))
        if not decision.admitted:
            self._send(conn, protocol.shed_frame(client_id,
                                                 decision.shed_code,
                                                 decision.retry_after_s))
            return
        binding = _Binding(client_id, conn, stream, tenant, self.clock())
        self._bindings[request_id] = binding
        conn.live[client_id] = request_id
        self._send(conn, protocol.accepted_frame(client_id, request_id))

    def _op_cancel(self, conn: _Connection, frame: Dict[str, object]) -> None:
        try:
            client_id = protocol.validate_cancel(frame)
        except ProtocolError as exc:
            self._proto_errors.inc()
            self._send(conn, protocol.error_frame(exc.code, str(exc)))
            return
        request_id = conn.live.get(client_id)
        if request_id is None:
            self._send(conn, protocol.cancelled_frame(client_id, False))
            return
        found = self._cancel_request(request_id)
        self._send(conn, protocol.cancelled_frame(client_id, found))

    # ------------------------------------------------------------------
    # scheduler callbacks
    # ------------------------------------------------------------------
    def _on_token(self, request: Request, token: int, index: int) -> None:
        binding = self._bindings.get(request.request_id)
        if binding is None:
            return
        if index == 0:
            binding.first_token_at = self.clock()
            self.obs.registry.histogram(
                f"serve.net.ttft_s.{binding.tenant}",
                LATENCY_BUCKETS).observe(
                    binding.first_token_at - binding.arrived_at)
        if not binding.stream or binding.conn.closed:
            return
        ok = self._send(binding.conn,
                        protocol.token_frame(binding.client_id, index, token))
        if not ok:
            self._shed_slow_consumer(binding.conn)

    def _shed_slow_consumer(self, conn: _Connection) -> None:
        """A full outbox means the client cannot keep up: close and cancel.

        Runs re-entrantly from ``on_token`` inside a decode step — the
        scheduler's terminal-outcome guard makes that safe.
        """
        if conn.closed:
            return
        self._slow_sheds.inc()
        # Bypass the (full) outbox bound for the farewell frame; the client
        # may or may not read it before the close lands.
        conn.outbox.append(protocol.encode_frame(protocol.error_frame(
            protocol.E_SLOW_CONSUMER, "outbox limit exceeded")))
        self._close_connection(conn)

    def _emit_done(self, completion: Completion) -> None:
        binding = self._bindings.pop(completion.request_id, None)
        self.admission.record_outcome(completion.request_id,
                                      completion.status,
                                      tokens=len(completion.token_ids))
        if binding is None:
            return
        binding.conn.live.pop(binding.client_id, None)
        now = self.clock()
        self.obs.registry.histogram(
            f"serve.net.latency_s.{binding.tenant}",
            LATENCY_BUCKETS).observe(now - binding.arrived_at)
        text = None
        if self.inner.tokenizer is not None and completion.token_ids:
            text = self.inner.tokenizer.decode(list(completion.token_ids))
        if not binding.conn.closed:
            ok = self._send(binding.conn, protocol.done_frame(
                binding.client_id, completion, text))
            if not ok:
                self._shed_slow_consumer(binding.conn)

    def _send(self, conn: _Connection, frame: Dict[str, object]) -> bool:
        ok = conn.send(frame)
        if ok:
            self._frames_out.inc()
            self._dirty.add(conn)
        return ok

    # ------------------------------------------------------------------
    # probes
    # ------------------------------------------------------------------
    def health(self) -> Dict[str, object]:
        return {
            "status": "draining" if self.draining else "ok",
            "uptime_s": self.clock() - self.started_at,
            "connections": len(self._connections),
            "admission_queued": self.admission.queued_total,
            "scheduler_queued": self.scheduler.queue_depth,
            "running": self.scheduler.running_count,
            "tenants": self.admission.tenant_names(),
        }

    def metrics(self) -> Dict[str, object]:
        out = {
            "server": self.inner.metrics_snapshot(),
            "admission": self.admission.snapshot(),
            "accounting": self.scheduler.accounting(),
        }
        fleet_snapshot = getattr(self.inner, "fleet_snapshot", None)
        if fleet_snapshot is not None:
            # Merged per-replica registries; refresh=False keeps the probe
            # non-blocking (uses the last collected exports).
            out["fleet"] = fleet_snapshot(refresh=False)
        return out


class NetServerThread:
    """Host a :class:`NetServer` loop on a dedicated daemon thread.

    The synchronous facade tests, benchmarks, and the load generator use::

        handle = NetServerThread(model, net_config=cfg)
        host, port = handle.start()
        ... drive it over sockets ...
        ledger = handle.drain()      # graceful: finish admitted work
        handle.stop()                # tear the loop down

    ``drain``/``stop`` are thread-safe and idempotent.
    """

    def __init__(self, model, tokenizer=None,
                 serve_config: ServeConfig = ServeConfig(),
                 net_config: NetServerConfig = NetServerConfig(),
                 clock: Callable[[], float] = time.monotonic,
                 eos_id: Optional[int] = None,
                 obs: Optional[Observability] = None,
                 inner=None) -> None:
        self.server = NetServer(model, tokenizer, serve_config, net_config,
                                clock=clock, eos_id=eos_id, obs=obs,
                                inner=inner)
        self._thread: Optional[threading.Thread] = None
        self._stopped = False

    def start(self) -> Tuple[str, int]:
        """Bind, then run the loop on the daemon thread; returns the
        bound (host, port)."""
        address = self.server.start()
        self._thread = threading.Thread(target=self.server.serve_forever,
                                        daemon=True, name="repro-serve-net")
        self._thread.start()
        return address

    @property
    def address(self) -> Tuple[str, int]:
        return self.server.address

    def drain(self, grace_s: Optional[float] = None,
              timeout: float = 120.0) -> Dict[str, int]:
        """Graceful shutdown from the caller's thread; returns the ledger."""
        return self.server.drain(grace_s, timeout)

    def stop(self, timeout: float = 10.0) -> None:
        """Close at once (in-flight work is cancelled) and join the loop."""
        if self._stopped:
            return
        self._stopped = True
        if self._thread is not None and self._thread.is_alive():
            self.server.call_soon_threadsafe(self.server._begin_drain, 0.0)
            self._thread.join(timeout)
