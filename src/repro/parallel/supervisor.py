"""The fork boundary: one supervisor owns every child's pipes.

:class:`ProcessSupervisor` is the single parent↔child channel under both
:class:`~repro.parallel.WorkerPool` and
:class:`~repro.serve.fleet.FleetServer`.  Each slot holds one forked child
and two one-way pipes: a command pipe the parent writes and an event pipe
the child writes.  The supervisor closes the child's ends in the parent
right after the fork, so the child holds the only write end of its event
pipe and its death always reads as EOF — never a wedged lock in a queue
shared with its siblings.

Callers keep only a message handler.  :meth:`ProcessSupervisor.drain`
hands it every event as ``(slot, generation, message)``: the parent stamps
the slot and its spawn generation, so children send bare messages.  The
``ready`` handshake is handled here.  :meth:`ProcessSupervisor.respawn`
harvests a dead child's buffered events through the same handler before
it tears the slot down — a result the child finished before it died is
never lost or run twice — and charges a bounded respawn budget.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import time
from multiprocessing.connection import wait
from typing import Callable, List, Optional, Tuple

from ..obs import Observability
from .blas import pin_blas_threads

#: What a child sends on its event pipe once it can take commands.
READY = ("ready",)

#: Seconds :meth:`ProcessSupervisor.close` lets children exit after the
#: stop message before it kills them.
STOP_GRACE = 2.0


def parallel_available() -> bool:
    """Whether the process-parallel paths can run here (fork support)."""
    return hasattr(os, "fork")


def _child_main(target: Callable, conn, events, *args) -> None:
    """Every forked child's entry point: one BLAS thread, then ``target``
    until it returns, its parent goes away, or it is interrupted."""
    pin_blas_threads()
    try:
        target(conn, events, *args)
    except (EOFError, OSError, KeyboardInterrupt):
        pass


class _Channel:
    """One spawn of one slot: the child and both pipe ends the parent keeps."""

    __slots__ = ("slot", "generation", "process", "conn", "events", "ready",
                 "eof")

    def __init__(self, slot: int, generation: int, process, conn,
                 events) -> None:
        self.slot = slot
        self.generation = generation
        self.process = process
        self.conn = conn
        self.events = events
        self.ready = False
        self.eof = False


class ProcessSupervisor:
    """Forked children behind one channel protocol.

    Slot ``i``'s child runs ``target(conn, events, *args_for(i))`` — it reads
    commands from ``conn`` (``None`` means stop), sends :data:`READY` on
    ``events`` once it can serve, then sends whatever messages its parent's
    ``handler(slot, generation, message)`` understands.

    ``budget`` bounds :meth:`respawn`; past it, :meth:`respawn` raises
    ``exhausted(budget)`` instead.  Owners with a per-job budget call
    :meth:`refill` at each job's start.
    """

    def __init__(self, target: Callable, args_for: Callable[[int], Tuple],
                 n_slots: int, handler: Callable[[int, int, object], None], *,
                 budget: int, exhausted: Callable[[int], Exception],
                 obs: Optional[Observability] = None,
                 respawn_counter: str = "parallel.worker_respawns") -> None:
        if not parallel_available():
            raise RuntimeError("ProcessSupervisor requires os.fork")
        self.ctx = multiprocessing.get_context("fork")
        self.target = target
        self.args_for = args_for
        self.handler = handler
        self.budget = budget
        self.respawns_left = budget
        self.exhausted = exhausted
        self.obs = obs if obs is not None else Observability()
        self.respawn_counter = respawn_counter
        self.channels: List[_Channel] = []
        for slot in range(n_slots):
            self.spawn(slot)

    def spawn(self, slot: int) -> None:
        """Fork slot ``slot``'s child (next generation) with fresh pipes."""
        generation = (self.channels[slot].generation + 1
                      if slot < len(self.channels) else 0)
        conn_recv, conn = self.ctx.Pipe(duplex=False)
        events, events_send = self.ctx.Pipe(duplex=False)
        process = self.ctx.Process(
            target=_child_main, daemon=True,
            args=(self.target, conn_recv, events_send, *self.args_for(slot)))
        process.start()
        conn_recv.close()
        events_send.close()
        channel = _Channel(slot, generation, process, conn, events)
        if slot < len(self.channels):
            self.channels[slot] = channel
        else:
            self.channels.append(channel)

    def alive(self, slot: int) -> bool:
        """The slot's child is running and its event pipe is readable."""
        channel = self.channels[slot]
        return not channel.eof and channel.process.is_alive()

    def ready(self, slot: int) -> bool:
        """The slot's child has sent :data:`READY` and is still alive."""
        return self.channels[slot].ready and self.alive(slot)

    def send(self, slot: int, message) -> bool:
        """Send one command; False, and the slot no longer ready, when its
        pipe is gone."""
        channel = self.channels[slot]
        try:
            channel.conn.send(message)
        except (OSError, BrokenPipeError):
            channel.ready = False
            return False
        return True

    def drain(self, timeout: float = 0.0) -> int:
        """Receive every waiting event, blocking up to ``timeout`` for the
        first; returns the number of messages received."""
        received = 0
        while True:
            live = {ch.events: ch for ch in self.channels if not ch.eof}
            if not live:
                return received
            ready = wait(list(live), timeout)
            if not ready:
                return received
            timeout = 0
            for events in ready:
                received += self._receive(live[events])

    def _receive(self, channel: _Channel) -> int:
        try:
            message = channel.events.recv()
        except (EOFError, OSError, pickle.UnpicklingError):
            # The child died, possibly mid-message: its channel is done.
            channel.eof = True
            return 0
        if message == READY:
            channel.ready = True
        else:
            self.handler(channel.slot, channel.generation, message)
        return 1

    def refill(self) -> None:
        """Restore the full respawn budget."""
        self.respawns_left = self.budget

    def respawn(self, slot: int) -> None:
        """Replace slot ``slot``'s dead or hung child.

        Kills it if it still runs, hands everything it sent before dying to
        the handler (under the old generation), closes its pipes, and forks
        the next generation.
        """
        if self.respawns_left <= 0:
            raise self.exhausted(self.budget)
        self.respawns_left -= 1
        channel = self.channels[slot]
        self._stop(channel.process)
        # The child is gone, so all it wrote is buffered: read to EOF.  A
        # grandchild still holding the write end leaves poll() False.
        while not channel.eof and channel.events.poll(0):
            self._receive(channel)
        self._close_pipes(channel)
        self.obs.registry.counter(self.respawn_counter).inc()
        self.spawn(slot)

    def close(self) -> None:
        """Send every child the stop message, join them against one
        deadline, kill stragglers, and close every pipe."""
        for slot, channel in enumerate(self.channels):
            if channel.process.is_alive():
                self.send(slot, None)
        deadline = time.monotonic() + STOP_GRACE
        for channel in self.channels:
            channel.process.join(timeout=max(0.0, deadline - time.monotonic()))
            self._stop(channel.process)
            self._close_pipes(channel)

    @staticmethod
    def _stop(process) -> None:
        if process.is_alive():
            process.kill()
        process.join(timeout=1.0)

    @staticmethod
    def _close_pipes(channel: _Channel) -> None:
        for end in (channel.conn, channel.events):
            try:
                end.close()
            except OSError:
                pass
