"""Asyncio TCP front door over the in-process serving subsystem.

:class:`NetServer` is the concurrent edge the ROADMAP's "millions of users"
story needs: real sockets in front of the continuous-batching scheduler.
One asyncio event loop owns everything — connection handlers parse
newline-delimited JSON frames (:mod:`repro.serve.net.protocol`), the
admission layer (:mod:`repro.serve.net.admission`) rate-limits and
fair-queues per tenant, and a single *pump* task drives
:meth:`Scheduler.step` whenever work exists, yielding to the loop between
steps so accepts and reads interleave with decoding.

Streaming is push-based: the scheduler's ``on_token`` hook fires inside the
decode step and the token frame lands in the connection's bounded *outbox*;
a per-connection writer task flushes the outbox to the socket with
``drain()`` backpressure.  A client that stops reading fills its outbox and
is shed (connection closed, its requests cancelled) rather than growing
server memory without bound; a client that disconnects mid-stream has its
requests cancelled the moment the reader loop observes EOF, freeing batch
slots immediately.

Graceful drain (`drain()`): stop accepting connections and new work
(admission sheds with ``draining``), finish every admitted request, flush
every outbox, then close.  The scheduler's conservation ledger
(:meth:`Scheduler.accounting`) is checkable afterwards — drain leaks
nothing.

The blocking model work runs *on* the event loop thread by design: one
scheduler step is the atom of progress, and interleaving I/O between steps
keeps TTFT bounded without cross-thread hand-offs that would break the
deterministic schedule.  :class:`NetServerThread` hosts the loop in a
daemon thread for tests, benchmarks, and embedding in synchronous code.
"""

from __future__ import annotations

import asyncio
import itertools
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Tuple

from ...obs import Observability
from ..metrics import LATENCY_BUCKETS
from ..request import Completion, FinishReason, RequestStatus, Request, SamplingParams
from ..scheduler import ServeConfig
from ..server import InProcessServer
from . import protocol
from .admission import AdmissionController, TenantConfig
from .protocol import ProtocolError


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
    """One client socket: reader state plus a bounded outbox + writer task."""

    _ids = itertools.count()

    def __init__(self, writer: asyncio.StreamWriter, outbox_limit: int) -> None:
        self.conn_id = f"conn-{next(self._ids)}"
        self.writer = writer
        self.outbox_limit = outbox_limit
        self.outbox: asyncio.Queue = asyncio.Queue()
        self.closed = False
        self.overflowed = False
        #: client_id -> request_id for in-flight work on this connection.
        self.live: Dict[str, str] = {}
        self.writer_task: Optional[asyncio.Task] = None

    def send(self, frame: Dict[str, object]) -> bool:
        """Queue a frame for delivery; ``False`` marks a slow consumer."""
        if self.closed:
            return False
        if self.outbox.qsize() >= self.outbox_limit:
            self.overflowed = True
            return False
        self.outbox.put_nowait(protocol.encode_frame(frame))
        return True

    async def run_writer(self) -> None:
        try:
            while True:
                data = await self.outbox.get()
                if data is None:  # close sentinel
                    break
                self.writer.write(data)
                await self.writer.drain()
        except (ConnectionError, asyncio.CancelledError, RuntimeError):
            pass
        # Everything queued before the sentinel is flushed: close the
        # transport, which also hands the connection's reader EOF, so a
        # client shed from the pump side is disconnected at once instead
        # of staying parked in readline().
        self.writer.close()

    async def flush_and_close(self) -> None:
        self.closed = True
        self.outbox.put_nowait(None)
        if self.writer_task is not None:
            try:
                await asyncio.wait_for(self.writer_task, timeout=5.0)
            except (asyncio.TimeoutError, asyncio.CancelledError):
                self.writer_task.cancel()
        try:
            self.writer.close()
            await self.writer.wait_closed()
        except (ConnectionError, RuntimeError):
            pass


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
    transport config.  All state is owned by the event loop thread; use
    :class:`NetServerThread` to host one from synchronous code.
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
        self._server: Optional[asyncio.base_events.Server] = None
        self._pump_task: Optional[asyncio.Task] = None
        self._work_event: Optional[asyncio.Event] = None
        self._finished: Optional[asyncio.Event] = None
        self._stopping = False
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
    async def start(self) -> Tuple[str, int]:
        """Bind the listening socket and start the pump; returns (host, port)."""
        self._work_event = asyncio.Event()
        self._finished = asyncio.Event()
        self._server = await asyncio.start_server(
            self._handle_connection, self.net_config.host,
            self.net_config.port)
        sock = self._server.sockets[0]
        self.address = sock.getsockname()[:2]
        self._pump_task = asyncio.get_running_loop().create_task(self._pump())
        return self.address

    async def serve_forever(self) -> None:
        await self.start()
        try:
            await self._pump_task
        finally:
            await self._close_everything()

    async def drain(self, grace_s: Optional[float] = None) -> Dict[str, int]:
        """Graceful shutdown: refuse new work, finish admitted work, flush.

        Returns the scheduler's post-drain accounting ledger.
        """
        grace_s = self.net_config.drain_grace_s if grace_s is None else grace_s
        self.draining = True
        self.admission.draining = True
        if self._server is not None:
            self._server.close()
        deadline = self.clock() + grace_s
        with self.obs.span("serve.net.drain"):
            while ((not self.scheduler.idle
                    or self.admission.queued_total > 0)
                   and self.clock() < deadline):
                await asyncio.sleep(self.net_config.idle_poll_s)
            # In-flight work is done (or grace expired); flush every outbox.
            self._stopping = True
            if self._work_event is not None:
                self._work_event.set()
            await self._close_everything()
        return self.scheduler.accounting()

    async def _close_everything(self) -> None:
        if self._pump_task is not None and not self._pump_task.done():
            self._stopping = True
            if self._work_event is not None:
                self._work_event.set()
            try:
                await asyncio.wait_for(self._pump_task, timeout=10.0)
            except (asyncio.TimeoutError, asyncio.CancelledError):
                self._pump_task.cancel()
        for conn in list(self._connections.values()):
            await conn.flush_and_close()
        self._connections.clear()
        self._conn_gauge.set(0)
        if self._server is not None:
            self._server.close()
            try:
                await self._server.wait_closed()
            except RuntimeError:
                pass

    # ------------------------------------------------------------------
    # pump: the single task that advances the scheduler
    # ------------------------------------------------------------------
    async def _pump(self) -> None:
        while True:
            # Drain the completion list, not step()'s return value: a
            # cancel landing between steps (client hangup, cancel verb)
            # appends its terminal completion outside any step, and it
            # still owes the client a done frame.
            for completion in self.scheduler.drain_completions():
                self._emit_done(completion)
            has_work = (not self.scheduler.idle
                        or self.admission.queued_total > 0)
            if self._stopping and not has_work:
                break
            if not has_work:
                self._work_event.clear()
                try:
                    await asyncio.wait_for(
                        self._work_event.wait(),
                        timeout=self.net_config.idle_poll_s)
                except asyncio.TimeoutError:
                    pass
                continue
            with self.obs.span("serve.net.pump_step"):
                self.scheduler.step()
            # Yield so accepts/reads/writes interleave with decode steps.
            await asyncio.sleep(0)

    def _kick(self) -> None:
        if self._work_event is not None:
            self._work_event.set()

    # ------------------------------------------------------------------
    # connection handling
    # ------------------------------------------------------------------
    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        try:
            await self._serve_connection(reader, writer)
        except asyncio.CancelledError:
            # Shutdown cancels straggler handlers; end the task *normally*
            # so asyncio.streams' connection_made done-callback (which
            # calls task.exception() unguarded on 3.11) stays quiet.
            pass

    async def _serve_connection(self, reader: asyncio.StreamReader,
                                writer: asyncio.StreamWriter) -> None:
        if (self.draining
                or len(self._connections) >= self.net_config.max_connections):
            writer.write(protocol.encode_frame(protocol.shed_frame(
                "", protocol.SHED_DRAINING if self.draining
                else protocol.SHED_QUEUE_FULL, 1.0)))
            try:
                await writer.drain()
            except ConnectionError:
                pass
            writer.close()
            return
        conn = _Connection(writer, self.net_config.outbox_limit)
        conn.writer_task = asyncio.get_running_loop().create_task(
            conn.run_writer())
        self._connections[conn.conn_id] = conn
        self._conn_total.inc()
        self._conn_gauge.set(len(self._connections))
        with self.obs.span("serve.net.accept", conn=conn.conn_id):
            pass
        try:
            while True:
                try:
                    line = await reader.readline()
                except (ConnectionError, asyncio.IncompleteReadError):
                    break
                if not line:
                    break
                if conn.closed:
                    break
                self._frames_in.inc()
                self._dispatch(conn, line)
        finally:
            self._teardown_connection(conn)
            await conn.flush_and_close()

    def _teardown_connection(self, conn: _Connection) -> None:
        """Cancel everything a vanished/shed client still has in flight."""
        for client_id, request_id in list(conn.live.items()):
            self._cancel_request(request_id)
        conn.live.clear()
        self._connections.pop(conn.conn_id, None)
        self._conn_gauge.set(len(self._connections))
        self._kick()

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
        self._kick()

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
        self._kick()

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
        conn.outbox.put_nowait(protocol.encode_frame(protocol.error_frame(
            protocol.E_SLOW_CONSUMER, "outbox limit exceeded")))
        conn.closed = True
        self._teardown_connection(conn)
        conn.outbox.put_nowait(None)

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
    """Host a :class:`NetServer` on a dedicated event-loop thread.

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
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._started = threading.Event()
        self._stopped = False

    def start(self, timeout: float = 10.0) -> Tuple[str, int]:
        self._thread = threading.Thread(target=self._run, daemon=True,
                                        name="repro-serve-net")
        self._thread.start()
        if not self._started.wait(timeout):
            raise RuntimeError("net server failed to start in time")
        return self.server.address

    def _run(self) -> None:
        self._loop = asyncio.new_event_loop()
        asyncio.set_event_loop(self._loop)

        async def main():
            await self.server.start()
            self._started.set()
            # The loop stays alive (serving drains, probes, late reads)
            # until stop() sets the finished event.
            await self.server._finished.wait()

        try:
            self._loop.run_until_complete(main())
        finally:
            try:
                self._loop.run_until_complete(
                    self.server._close_everything())
            except RuntimeError:
                pass
            # Retire every straggler (connection handlers blocked in
            # readline, writer tasks) before closing the loop — a pending
            # task garbage-collected after loop close raises from inside
            # its coroutine at arbitrary interpreter points.
            pending = [t for t in asyncio.all_tasks(self._loop)
                       if not t.done()]
            for task in pending:
                task.cancel()
            if pending:
                self._loop.run_until_complete(
                    asyncio.gather(*pending, return_exceptions=True))
            self._loop.close()

    @property
    def address(self) -> Tuple[str, int]:
        return self.server.address

    def drain(self, grace_s: Optional[float] = None,
              timeout: float = 120.0) -> Dict[str, int]:
        """Graceful shutdown from the caller's thread; returns the ledger."""
        future = asyncio.run_coroutine_threadsafe(
            self.server.drain(grace_s), self._loop)
        return future.result(timeout)

    def stop(self, timeout: float = 10.0) -> None:
        if self._stopped:
            return
        self._stopped = True
        if self._loop is not None and self._loop.is_running():
            def _halt():
                self.server._stopping = True
                self.server._kick()
                self.server._finished.set()
            self._loop.call_soon_threadsafe(_halt)
        if self._thread is not None:
            self._thread.join(timeout)
