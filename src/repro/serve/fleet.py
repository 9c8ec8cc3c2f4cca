"""Replica-fleet serving over inherited weights (ROADMAP open item 2).

One host, one copy of the weights, N engines: :class:`FleetServer` forks N
replica processes, each running its own
:class:`~repro.serve.engine.BatchedEngine` + continuous-batching
:class:`~repro.serve.scheduler.Scheduler` over the **parent's own model**,
inherited across the fork.  The engine reads ``parameter_arrays()`` in
place and nothing writes them, so the pages stay shared copy-on-write and
no replica ever copies the weights.  An int8 fleet quantizes once, in the
parent, before forking, and every replica serves that one quantization.
The parent routes requests, streams token events back, and re-merges
per-replica metric registries into a fleet view.

Routing is consistent-hash affinity (:class:`HashRing`): a request keyed by
its session id — or, absent a session, its first ``affinity_prefix_tokens``
prompt tokens — always lands on the same replica, so session KV state and
prefix-cache entries stay hot where their traffic goes.  Replicas sharing a
prompt prefix therefore reproduce the single-server prefix-cache behaviour
(the byte-parity suite relies on this).

Every replica's pipes belong to the
:class:`~repro.parallel.supervisor.ProcessSupervisor` that
:class:`~repro.parallel.WorkerPool` forks through too; this module keeps
only the replica's messages.  The supervisor stamps each event with the
replica slot and its spawn generation (the *epoch*).  Liveness polling
detects a dead replica; respawn first harvests what it sent before dying
(completions it finished are kept), then its remaining in-flight requests
are requeued at the front of the router — a ``done`` counts only from the
epoch the request is dispatched to, so no request is lost *or*
double-answered — and a fresh replica is forked, inheriting the same
weights again.  Respawn never copies or re-quantizes weights.

Which model a replica serves is :meth:`FleetServer._model_for`'s answer, so
subclasses can serve heterogeneous replicas without touching the
fork/respawn machinery: the
:class:`~repro.serve.lambda_fleet.LambdaFleetServer` hands each replica a
:class:`~repro.serve.lambda_fleet.LazyMergedModel` that realizes its
variant from the parent's :class:`~repro.core.merge_engine.MergePlan`.
Speculative decoding rides the same path: pass ``draft_model=`` and every
replica builds a draft :class:`~repro.nn.infer.InferenceEngine` over the
inherited draft (its quantize-dequantize twin, built once in the parent,
when serving int8) — exact accept/reject keeps fleet output byte-identical
to in-process serving whatever the draft weights.

:class:`FleetServer` mirrors the :class:`~repro.serve.server.InProcessServer`
surface (``submit`` / ``step`` / ``run_until_idle`` / ``complete`` /
``metrics_snapshot``) and exposes a scheduler facade with the ``refill`` /
``on_token`` hooks, so the network front door runs over a fleet unchanged:
``NetServerThread(inner=FleetServer(...))``.
"""

from __future__ import annotations

import bisect
import hashlib
import itertools
import time
from collections import OrderedDict, deque
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..nn.infer import InferenceEngine
from ..nn.kernels import quantize_state_dict
from ..obs import Observability
from ..parallel.pool import POLL_INTERVAL
from ..parallel.supervisor import READY, ProcessSupervisor
from .engine import BatchedEngine, _StateModel, dequantized_oracle_model
from .request import Completion, FinishReason, Request, RequestStatus, SamplingParams
from .scheduler import Scheduler, ServeConfig
from .server import CompletionStore

#: Default per-replica in-flight bound, in multiples of ``max_batch_size``
#: (one batch decoding plus one batch queued keeps admission snappy without
#: piling a dead replica's worth of work behind one slow engine).
INFLIGHT_FACTOR = 2

#: Seconds the router blocks on replica events when an iteration moved
#: nothing, instead of spinning while replicas decode.
ROUTER_WAIT = 0.005


class FleetError(RuntimeError):
    """The fleet cannot make progress (respawn budget exhausted)."""


# ---------------------------------------------------------------------------
# consistent-hash router
# ---------------------------------------------------------------------------


class HashRing:
    """Consistent hashing over replica ids with virtual nodes.

    Stable under membership change: removing one node remaps only the keys
    that hashed to it; every other key keeps its assignment (asserted in the
    test suite).  Hashing is blake2b, so placement is deterministic across
    processes and runs — no ``PYTHONHASHSEED`` dependence.
    """

    def __init__(self, nodes: Sequence[int], vnodes: int = 64) -> None:
        if not nodes:
            raise ValueError("HashRing needs at least one node")
        points: List[Tuple[int, int]] = []
        for node in nodes:
            for v in range(vnodes):
                points.append((self._hash(f"node-{node}#{v}"), node))
        points.sort()
        self._points = [p for p, _ in points]
        self._nodes = [n for _, n in points]

    @staticmethod
    def _hash(key: str) -> int:
        digest = hashlib.blake2b(key.encode("utf-8"), digest_size=8).digest()
        return int.from_bytes(digest, "big")

    def node_for(self, key: str) -> int:
        i = bisect.bisect_right(self._points, self._hash(key))
        return self._nodes[i % len(self._nodes)]


def affinity_key(request: Request, prefix_tokens: int) -> str:
    """Routing key: the session when there is one, else the prompt head.

    Keying sessions keeps multi-turn KV state on one replica; keying the
    first ``prefix_tokens`` prompt ids sends prefix-sharing requests (the
    dominant ChipAlign traffic shape) to the replica whose prefix cache
    already holds their common head.
    """
    if request.session_id is not None:
        return f"s:{request.session_id}"
    head = request.prompt_ids[:prefix_tokens]
    return "p:" + ",".join(str(t) for t in head)


# ---------------------------------------------------------------------------
# replica process
# ---------------------------------------------------------------------------


def _replica_engine(model, serve_config: ServeConfig) -> BatchedEngine:
    """The engine a replica serves ``model`` with, reading its arrays in
    place (an int8 engine keeps the quantized arrays it is handed)."""
    state = model.parameter_arrays()
    release = getattr(model, "release", None)
    if release is not None:
        # A lazily merged variant, just realized: drop the model's memo so
        # ``state`` holds the one copy (an int8 replica then frees its fp32
        # source before the engine allocates its dequantized twin).
        release()
    if serve_config.weight_mode == "int8":
        # The identity for a plain int8 fleet, whose parent quantized once,
        # before forking: the engine consumes those (int8, ``::scale``)
        # pairs verbatim, so every replica serves the identical weights.
        state = quantize_state_dict(state)
    return BatchedEngine(_StateModel(model.config, state),
                         decode_mode=serve_config.decode_mode,
                         max_batch_size=serve_config.max_batch_size,
                         weight_mode=serve_config.weight_mode,
                         kv_mode=serve_config.kv_mode,
                         kv_block_tokens=serve_config.kv_block_tokens)


def _replica_main(conn, events, model, draft_model,
                  serve_config: ServeConfig, eos_id: Optional[int]) -> None:
    """One replica: build an engine over the inherited model, serve the pipes.

    ``model`` (and the optional ``draft_model``) are the parent's own
    objects, inherited across the fork: the served model for a plain fleet
    (already quantized when serving int8), a lazily merged variant for a
    λ-fleet.

    Runs under :class:`~repro.parallel.supervisor.ProcessSupervisor`:
    commands (``submit`` / ``cancel`` / ``metrics``, ``None`` to stop)
    arrive on ``conn`` and events (``token`` / ``done`` / ``metrics``) leave
    on ``events`` after the :data:`~repro.parallel.supervisor.READY`
    handshake.  Events carry no replica id or epoch: the parent stamps
    both from the channel they arrive on.
    """
    # Metrics only: a replica ships its registry, never its spans.
    obs = Observability(enabled=False)
    engine = _replica_engine(model, serve_config)
    draft_engine = (InferenceEngine(draft_model)
                    if draft_model is not None else None)
    scheduler = Scheduler(engine, config=serve_config, eos_id=eos_id,
                          obs=obs, draft_engine=draft_engine)

    def on_token(request: Request, token: int, index: int) -> None:
        events.send(("token", request.request_id, int(token), int(index)))

    scheduler.on_token = on_token
    events.send(READY)
    while True:
        # Commands first (non-blocking while decoding, blocking-ish when
        # idle so an idle replica doesn't spin a core).
        while conn.poll(0 if not scheduler.idle else POLL_INTERVAL):
            message = conn.recv()
            if message is None:
                return
            kind = message[0]
            if kind == "submit":
                _, request, deadline_remaining = message
                if deadline_remaining is not None:
                    request = replace(
                        request,
                        deadline=time.monotonic() + deadline_remaining)
                scheduler.submit(request)
            elif kind == "cancel":
                scheduler.cancel(message[1])
            elif kind == "metrics":
                events.send(("metrics", message[1], obs.registry.export(),
                             scheduler.accounting(), engine.kv_stats()))
        if not scheduler.idle:
            scheduler.step()
        # Drain outside the step guard: a cancel landing between steps
        # still owes the parent its terminal completion.
        for completion in scheduler.drain_completions():
            events.send(("done", completion))


# ---------------------------------------------------------------------------
# parent-side fleet
# ---------------------------------------------------------------------------


class _Replica:
    """Router-side state of one replica epoch (its channel is the
    supervisor's)."""

    __slots__ = ("replica_id", "inflight", "last_export", "last_accounting",
                 "last_kv", "last_seq")

    def __init__(self, replica_id: int) -> None:
        self.replica_id = replica_id
        self.inflight: Set[str] = set()
        self.last_export: Optional[Dict[str, object]] = None
        self.last_accounting: Optional[Dict[str, int]] = None
        self.last_kv: Optional[Dict[str, object]] = None
        self.last_seq = -1


class _FleetScheduler:
    """Scheduler facade: the exact surface the network front door drives.

    ``NetServer`` assigns :attr:`refill` and :attr:`on_token` and calls
    ``step`` / ``drain_completions`` / ``cancel`` / ``accounting`` exactly
    as it would on a real :class:`~repro.serve.scheduler.Scheduler`; the
    facade forwards everything to the fleet's router.
    """

    def __init__(self, fleet: "FleetServer") -> None:
        self._fleet = fleet
        self.clock = fleet.clock
        self.on_token: Optional[Callable[[Request, int, int], None]] = None
        self.refill: Optional[Callable[[int], List[Request]]] = None

    def submit(self, request: Request) -> None:
        self._fleet._submit_request(request)

    def step(self) -> List[Completion]:
        return self._fleet._step()

    def drain_completions(self) -> List[Completion]:
        return self._fleet._drain_completions()

    def cancel(self, request_id: str) -> bool:
        return self._fleet._cancel(request_id)

    def accounting(self) -> Dict[str, int]:
        return self._fleet.accounting()

    @property
    def idle(self) -> bool:
        return self._fleet.idle

    @property
    def queue_depth(self) -> int:
        return len(self._fleet._pending)

    @property
    def running_count(self) -> int:
        return len(self._fleet._inflight)


class FleetServer:
    """N engine replicas over inherited weights behind a consistent-hash
    router.

    Completions follow the :class:`~repro.serve.server.InProcessServer`
    rule: :meth:`result` hands one over and forgets it, and completions
    nobody takes wait in a FIFO of
    :data:`~repro.serve.server.RETAINED_COMPLETIONS` (64), oldest dropped
    first and counted in ``serve.completions_dropped``.  A request id may
    not be reused while that request is in flight; once it has finished
    the id is free again, as on a single server.

    Parameters
    ----------
    model:
        A ``TransformerLM``; every replica, respawns included, serves this
        object's own arrays, inherited across the fork (int8 fleets serve
        its quantization, made once, here).  The engine contract applies:
        do not update the model in place or ``load_state_dict`` it while
        the fleet is alive, because a respawned replica inherits whatever
        the parent holds at that moment and would then serve different
        weights from its siblings (fp32 fleets take no snapshot).
    tokenizer / serve_config / clock / eos_id / obs:
        As in :class:`~repro.serve.server.InProcessServer`.  ``serve_config``
        applies per replica (each runs its own scheduler, prefix cache, and
        session store).
    n_replicas:
        Engine replica count (>= 1).
    draft_model:
        Draft ``TransformerLM`` for speculative decoding; required when
        ``serve_config.speculative_tokens > 0``.  Every replica builds a
        draft engine over the inherited draft (over its quantize-dequantize
        twin, built once here, when serving int8).
    affinity_prefix_tokens:
        Prompt-head length used as the routing key for sessionless requests.
        Keep it <= ``serve_config.prefix_min_tokens`` when byte parity with
        a single server matters: any two prompts sharing a reusable prefix
        then share a routing key, so all cache-hit relationships stay
        intra-replica.
    max_inflight_per_replica:
        Router-side bound on requests outstanding at one replica; default
        ``max_batch_size * INFLIGHT_FACTOR``.
    """

    def __init__(self, model, tokenizer=None, n_replicas: int = 2,
                 serve_config: ServeConfig = ServeConfig(),
                 clock: Callable[[], float] = time.monotonic,
                 eos_id: Optional[int] = None,
                 obs: Optional[Observability] = None,
                 affinity_prefix_tokens: int = 8,
                 max_inflight_per_replica: Optional[int] = None,
                 draft_model=None) -> None:
        if n_replicas < 1:
            raise ValueError(f"n_replicas must be >= 1, got {n_replicas}")
        if serve_config.speculative_tokens > 0 and draft_model is None:
            raise ValueError(
                "speculative_tokens > 0 requires a draft_model: every "
                "replica builds a draft engine over it")
        self.n_replicas = n_replicas
        self.tokenizer = tokenizer
        if eos_id is None and tokenizer is not None:
            eos_id = tokenizer.eos_id
        self.eos_id = eos_id
        self.config = serve_config
        self.clock = clock
        self.obs = (obs if obs is not None
                    else Observability(enabled=False))
        self.affinity_prefix_tokens = affinity_prefix_tokens
        self.max_inflight_per_replica = (
            max_inflight_per_replica if max_inflight_per_replica is not None
            else serve_config.max_batch_size * INFLIGHT_FACTOR)

        if serve_config.weight_mode == "int8":
            # Quantize once, before forking: every replica inherits the one
            # set of int8 matrices and scale vectors (~28% of fp32).  The
            # draft's quantize-dequantize twin is shared the same way;
            # exact accept/reject keeps output bytes immune to it.
            if model is not None:
                model = _StateModel(model.config, quantize_state_dict(
                    model.parameter_arrays()))
            if draft_model is not None:
                draft_model = dequantized_oracle_model(draft_model)
        self._model = model
        self._draft_model = draft_model
        self._ring = HashRing(range(n_replicas))
        self._replicas = [_Replica(i) for i in range(n_replicas)]

        self.scheduler = _FleetScheduler(self)
        self._pending: deque = deque()  # routed but not yet dispatched
        #: request_id -> (replica_id, epoch) it is currently dispatched to.
        self._inflight: "OrderedDict[str, Tuple[int, int]]" = OrderedDict()
        #: request_id -> request, for every request in flight.
        self._requests: Dict[str, Request] = {}
        self._results = CompletionStore(tokenizer, self.obs.registry)
        self._completions: List[Completion] = []
        self._ids = itertools.count()
        self._metrics_seq = 0
        self._closed = False
        self._counts = {"submitted": 0, "finished": 0, "expired": 0,
                        "cancelled": 0}
        registry = self.obs.registry
        self._dispatch_counter = registry.counter("serve.fleet.dispatched")
        self._requeue_counter = registry.counter("serve.fleet.requeued")
        self._stale_counter = registry.counter("serve.fleet.stale_events")
        registry.gauge("serve.fleet.replicas").set(n_replicas)
        self._supervisor = ProcessSupervisor(
            _replica_main, self._replica_args, n_replicas, self._handle_event,
            budget=n_replicas * 4,
            exhausted=lambda budget: FleetError(
                "replicas keep dying faster than the fleet may respawn "
                f"them ({budget} respawns exhausted)"),
            obs=self.obs, respawn_counter="serve.fleet.replica_respawns")

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def _model_for(self, replica_id: int):
        """The model replica ``replica_id`` serves (overridable; the base
        fleet is homogeneous)."""
        return self._model

    def _replica_args(self, replica_id: int) -> Tuple:
        return (self._model_for(replica_id), self._draft_model, self.config,
                self.eos_id)

    def close(self) -> None:
        """Stop replicas and fold their final metrics in."""
        if self._closed:
            return
        self._closed = True
        try:
            self._collect_metrics(timeout=1.0)
        except Exception:
            pass
        for rep, channel in zip(self._replicas, self._supervisor.channels):
            self._absorb_replica(rep, channel.generation)
        self._supervisor.close()

    def __enter__(self) -> "FleetServer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self) -> None:
        try:
            self.close()
        except Exception:
            pass

    def _absorb_replica(self, rep: _Replica, epoch: int) -> None:
        """Fold a replica epoch's last metric export into the parent
        registry, exactly once per (replica, epoch)."""
        if rep.last_export is not None:
            self.obs.registry.absorb(
                rep.last_export, key=f"serve.fleet.r{rep.replica_id}.e{epoch}")

    # ------------------------------------------------------------------
    # InProcessServer-mirror surface
    # ------------------------------------------------------------------
    def submit(self, prompt_ids: Sequence[int],
               params: Optional[SamplingParams] = None, priority: int = 0,
               deadline: Optional[float] = None,
               session_id: Optional[str] = None,
               request_id: Optional[str] = None,
               variant: Optional[str] = None) -> str:
        """Enqueue a generation job; returns its request id.

        ``variant`` names the served model variant on a variant-aware fleet
        (:class:`~repro.serve.lambda_fleet.LambdaFleetServer`); the base
        fleet is homogeneous and ignores it.
        """
        if request_id is None:
            request_id = f"req-{next(self._ids)}"
        request = Request(request_id=request_id,
                          prompt_ids=tuple(prompt_ids),
                          params=params or SamplingParams(),
                          priority=priority, deadline=deadline,
                          session_id=session_id, variant=variant)
        self._submit_request(request)
        return request_id

    def _submit_request(self, request: Request) -> None:
        if self._closed:
            raise ValueError("fleet is closed")
        if request.request_id in self._requests:
            raise ValueError(f"duplicate request_id {request.request_id!r}")
        self._requests[request.request_id] = request
        self._pending.append(request)
        self._counts["submitted"] += 1

    def step(self) -> List[Completion]:
        """Advance the router one iteration; returns new completions."""
        self._step()
        return self._results.collect(self._drain_completions())

    def run_until_idle(self, max_steps: Optional[int] = None
                       ) -> List[Completion]:
        """Drive the fleet until all submitted work is done; returns every
        completion since the last step (keep this list to read back a
        burst)."""
        out: List[Completion] = []
        steps = 0
        while not self.idle:
            out.extend(self.step())
            steps += 1
            if max_steps is not None and steps >= max_steps:
                break
        out.extend(self._results.collect(self._drain_completions()))
        return out

    def complete(self, prompt_ids: Sequence[int],
                 params: Optional[SamplingParams] = None,
                 session_id: Optional[str] = None,
                 timeout: Optional[float] = None) -> Completion:
        """Submit one request and run the fleet until it finishes."""
        deadline = self.clock() + timeout if timeout is not None else None
        request_id = self.submit(prompt_ids, params=params,
                                 session_id=session_id, deadline=deadline)
        return self._results.take_from(self.run_until_idle(), request_id)

    def result(self, request_id: str) -> Optional[Completion]:
        """Hand over a finished request's completion and forget it
        (``None`` if unfinished, already taken or dropped)."""
        return self._results.take(request_id)

    def cancel(self, request_id: str) -> bool:
        found = self._cancel(request_id)
        self._results.collect(self._drain_completions())
        return found

    @property
    def idle(self) -> bool:
        return not self._pending and not self._inflight

    def accounting(self) -> Dict[str, int]:
        """Fleet-level request-conservation ledger (parent's eye view)."""
        counts = dict(self._counts)
        counts["queued"] = len(self._pending)
        counts["running"] = len(self._inflight)
        counts["conservation_ok"] = int(
            counts["submitted"] == counts["finished"] + counts["expired"]
            + counts["cancelled"] + counts["queued"] + counts["running"])
        return counts

    # ------------------------------------------------------------------
    # router core
    # ------------------------------------------------------------------
    def _step(self) -> None:
        if self._closed:
            raise ValueError("fleet is closed")
        if self.scheduler.refill is not None:
            free = (self.n_replicas * self.config.max_batch_size
                    - len(self._pending) - len(self._inflight))
            if free > 0:
                for request in self.scheduler.refill(free):
                    self._submit_request(request)
        self._expire_pending()
        dispatched = self._dispatch()
        handled = self._supervisor.drain()
        self._police_replicas()
        if not dispatched and not handled and not self.idle:
            self._supervisor.drain(ROUTER_WAIT)

    def _expire_pending(self) -> None:
        """Expire not-yet-dispatched requests on the parent clock (the same
        >= boundary the replica schedulers apply to dispatched ones)."""
        now = self.clock()
        live = deque()
        for request in self._pending:
            if request.deadline is not None and now >= request.deadline:
                self._requests.pop(request.request_id, None)
                self._counts["expired"] += 1
                self._completions.append(Completion(
                    request_id=request.request_id,
                    status=RequestStatus.EXPIRED,
                    finish_reason=FinishReason.DEADLINE))
            else:
                live.append(request)
        self._pending = live

    def _route(self, request: Request) -> int:
        """The replica a request belongs on (overridable; the base fleet
        consistent-hashes over all replicas)."""
        return self._ring.node_for(
            affinity_key(request, self.affinity_prefix_tokens))

    def _dispatch(self) -> int:
        dispatched = 0
        kept = deque()
        while self._pending:
            request = self._pending.popleft()
            replica_id = self._route(request)
            rep = self._replicas[replica_id]
            if (not self._supervisor.ready(replica_id)
                    or len(rep.inflight) >= self.max_inflight_per_replica):
                kept.append(request)
                continue
            remaining = (request.deadline - self.clock()
                         if request.deadline is not None else None)
            if not self._supervisor.send(replica_id,
                                         ("submit", request, remaining)):
                kept.append(request)  # policing will respawn and re-route
                continue
            rep.inflight.add(request.request_id)
            self._inflight[request.request_id] = (
                replica_id, self._supervisor.channels[replica_id].generation)
            self._dispatch_counter.inc()
            dispatched += 1
        self._pending = kept
        return dispatched

    def _handle_event(self, replica_id: int, epoch: int,
                      message: Tuple) -> None:
        kind = message[0]
        if kind == "token":
            _, request_id, token, index = message
            if self._inflight.get(request_id) != (replica_id, epoch):
                self._stale_counter.inc()
                return
            callback = self.scheduler.on_token
            request = self._requests.get(request_id)
            if callback is not None and request is not None:
                callback(request, token, index)
        elif kind == "done":
            _, completion = message
            if self._inflight.get(completion.request_id) != (replica_id,
                                                             epoch):
                self._stale_counter.inc()  # dead epoch, or already requeued
                return
            self._inflight.pop(completion.request_id)
            self._replicas[replica_id].inflight.discard(completion.request_id)
            self._finish(completion)
        elif kind == "metrics":
            rep = self._replicas[replica_id]
            (_, rep.last_seq, rep.last_export, rep.last_accounting,
             rep.last_kv) = message

    def _finish(self, completion: Completion) -> None:
        self._requests.pop(completion.request_id, None)
        if completion.status == RequestStatus.EXPIRED:
            self._counts["expired"] += 1
        elif completion.status == RequestStatus.CANCELLED:
            self._counts["cancelled"] += 1
        else:
            self._counts["finished"] += 1
        self._completions.append(completion)

    def _police_replicas(self) -> None:
        """Liveness sweep: respawn a dead replica and requeue its work."""
        for replica_id, rep in enumerate(self._replicas):
            if self._supervisor.alive(replica_id):
                continue
            epoch = self._supervisor.channels[replica_id].generation
            # Respawn first harvests everything the corpse sent before
            # dying: completions it finished are kept, not re-run.
            self._supervisor.respawn(replica_id)
            self._absorb_replica(rep, epoch)
            # Requeue survivors at the front, preserving dispatch order.
            orphans = [request_id for request_id, owner
                       in self._inflight.items()
                       if owner == (replica_id, epoch)]
            for request_id in reversed(orphans):
                self._inflight.pop(request_id)
                self._pending.appendleft(self._requests[request_id])
                self._requeue_counter.inc()
            self._replicas[replica_id] = _Replica(replica_id)

    def _cancel(self, request_id: str) -> bool:
        for i, request in enumerate(self._pending):
            if request.request_id == request_id:
                del self._pending[i]
                self._requests.pop(request_id, None)
                self._counts["cancelled"] += 1
                self._completions.append(Completion(
                    request_id=request_id, status=RequestStatus.CANCELLED,
                    finish_reason=FinishReason.CANCELLED))
                return True
        assignment = self._inflight.get(request_id)
        if assignment is None:
            return False
        # A failed send means the replica is dying: policing requeues the
        # request and the caller may retry.
        self._supervisor.send(assignment[0], ("cancel", request_id))
        return True

    def _drain_completions(self) -> List[Completion]:
        done, self._completions = self._completions, []
        return done

    # ------------------------------------------------------------------
    # metrics
    # ------------------------------------------------------------------
    def _collect_metrics(self, timeout: float = 0.5) -> None:
        """Ask every live replica for a fresh registry export; wait (while
        still servicing token/done events) until all reply or time runs out."""
        self._metrics_seq += 1
        waiting = {replica_id for replica_id in range(self.n_replicas)
                   if self._supervisor.ready(replica_id)
                   and self._supervisor.send(replica_id,
                                             ("metrics", self._metrics_seq))}
        deadline = time.monotonic() + timeout
        while waiting and time.monotonic() < deadline:
            self._supervisor.drain(POLL_INTERVAL)
            waiting = {replica_id for replica_id in waiting
                       if self._replicas[replica_id].last_seq
                       < self._metrics_seq}

    def fleet_snapshot(self, refresh: bool = True,
                       timeout: float = 0.5) -> Dict[str, object]:
        """Merged fleet metrics view: one registry folded from every
        replica's latest export, plus per-replica accounting.

        Merging starts from a fresh registry each call (replica exports are
        cumulative), so repeated snapshots never double-count.
        """
        from ..obs.metrics import MetricRegistry

        if refresh and not self._closed:
            self._collect_metrics(timeout=timeout)
        merged = MetricRegistry()
        per_replica: Dict[str, object] = {}
        # Per-replica KV planes are replica-local (each process owns its own
        # block pool), so footprints sum while sharing never crosses
        # replicas; the aggregate is the fleet's total copy/shares bill.
        kv_totals = {"bytes_copied": 0, "blocks_shared": 0,
                     "bytes_reserved": 0, "bytes_in_use": 0}
        for rep, channel in zip(self._replicas, self._supervisor.channels):
            if rep.last_export is not None:
                merged.absorb(rep.last_export, key=f"replica-{rep.replica_id}")
            if rep.last_kv is not None:
                for key in kv_totals:
                    kv_totals[key] += int(rep.last_kv.get(key, 0))
            per_replica[str(rep.replica_id)] = {
                "epoch": channel.generation,
                "alive": self._supervisor.alive(rep.replica_id),
                "inflight": len(rep.inflight),
                "accounting": rep.last_accounting,
                "kv": rep.last_kv,
            }
        return {
            "replicas": self.n_replicas,
            "respawns": int(self.obs.registry.counter(
                "serve.fleet.replica_respawns").value),
            "router": self.accounting(),
            "merged": merged.export(),
            "kv": kv_totals,
            "per_replica": per_replica,
        }

    def metrics_snapshot(self) -> Dict[str, object]:
        """Flat instrumentation snapshot (the ``metrics`` verb's ``server``
        section when a fleet backs the network front door)."""
        snap = self.fleet_snapshot(timeout=0.25)
        merged = snap["merged"]
        return {
            "fleet_replicas": self.n_replicas,
            "router_pending": len(self._pending),
            "router_inflight": len(self._inflight),
            "replica_respawns": snap["respawns"],
            "requests_requeued": int(self._requeue_counter.value),
            "counters": merged["counters"],
            "gauges": merged["gauges"],
        }
