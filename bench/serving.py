"""In-process serving workloads: ``openroad_qa`` (open loop) and
``long_decode`` (closed loop), both on the ``grande`` model.

The serving thread submits requests between scheduler steps and blocks
only when the server is idle; the open loop adds one generator thread that
keeps the arrival schedule.  Tokens are timestamped by the scheduler's
public ``on_token`` streaming hook, the same hook the socket front door
streams from.
"""

from __future__ import annotations

import queue
import threading
import time
from typing import Callable, Iterator, List, Sequence

from . import inputs
from .common import (PassResult, Req, Workload, check_answers,
                     check_client_limits, peak_rss_mb)


def grande(vocab_size: int, seed: int):
    """Random-init ``grande`` model; weights come from the run's seed."""
    from repro.nn.transformer import TransformerLM, preset_config

    return TransformerLM(preset_config("grande", vocab_size, seed=seed))


def _recorder(reqs, tracer):
    clock = time.perf_counter

    def on_token(request, token, index):
        req = reqs[request.request_id]
        req.times.append(clock())
        req.tokens.append(token)

    if tracer is None:
        return on_token

    def traced(request, token, index):
        with tracer.span("bench.on_token"):
            on_token(request, token, index)

    return traced


def _step(server, reqs, tracer, kv_peak) -> list:
    """One scheduler step; traced passes then sample the KV reservation."""
    completions = server.step()
    for completion in completions:
        reqs[completion.request_id].finish(completion.token_ids,
                                           completion.status)
    if tracer is not None:
        with tracer.span("bench.kv_probe"):
            stats = server.engine.kv_stats()
            kv_peak[0] = max(kv_peak[0], stats.get("bytes_reserved", 0))
            kv_peak[1] = max(kv_peak[1], stats.get("bytes_in_use", 0))
    return completions


def _counters(server) -> tuple:
    """Cumulative counters a pass reports the growth of."""
    return (server.engine.kv_bytes_copied, server.engine.blocks_shared,
            len(server.scheduler.metrics.ttfts))


def _pass_extras(server, kv_peak, before) -> dict:
    """KV-plane counts of one pass (bytes copied and blocks shared since
    ``before``) and the peaks sampled after each traced step."""
    now = _counters(server)
    return {"serve.engine.kv_bytes_copied": now[0] - before[0],
            "serve.engine.blocks_shared": now[1] - before[1],
            "serve.engine.kv_reserved_mb_peak": kv_peak[0] / 2 ** 20,
            "serve.engine.kv_in_use_mb_peak": kv_peak[1] / 2 ** 20}


def _server_ttfts(server, before) -> List[float]:
    """The scheduler's own TTFT record of the pass's admissions."""
    return [s * 1e3 for s in server.scheduler.metrics.ttfts[before[2]:]]


def open_loop(server, prompts: Sequence[Sequence[int]], offsets, params,
              tracer=None) -> PassResult:
    """Offer ``prompts[i]`` at ``offsets[i]`` seconds whatever the server
    is doing; every request is timed from when it was due.

    A generator thread keeps the schedule and hands due requests to the
    serving thread, which submits them between scheduler steps (the server
    is single-threaded), so a long step delays requests — counted in their
    TTFT — but never the schedule.  The generator's own lateness is the
    reported lag.
    """
    clock = time.perf_counter
    reqs = {}
    server.scheduler.on_token = _recorder(reqs, tracer)
    handoff: "queue.SimpleQueue" = queue.SimpleQueue()
    lags: List[float] = []
    kv_peak = [0, 0]
    before = _counters(server)
    opened = clock()
    start = opened + 0.005

    def generate():
        for i, offset in enumerate(offsets):
            due = start + offset
            wait = due - clock()
            if wait > 0:
                time.sleep(wait)
            lags.append((clock() - due) * 1e3)
            handoff.put((i, due))
        handoff.put(None)

    def wait_for_arrival():
        if tracer is None:
            return handoff.get()
        with tracer.span("bench.idle"):
            return handoff.get()

    def take(item) -> bool:
        if item is None:  # the schedule is exhausted
            return False
        i, due = item
        rid = server.submit(prompts[i], params)
        reqs[rid] = Req(due=due, expect_tokens=params.max_new_tokens,
                        prompt=tuple(prompts[i]))
        return True

    thread = threading.Thread(target=generate, name="bench-generator")
    thread.start()
    threads = threading.active_count()
    offered = True
    try:
        while offered or not server.idle:
            if server.idle:
                offered = take(wait_for_arrival())
            while offered:
                try:
                    offered = take(handoff.get_nowait())
                except queue.Empty:
                    break
            if not server.idle:
                _step(server, reqs, tracer, kv_peak)
    finally:
        thread.join()
    end = max(r.times[-1] for r in reqs.values() if r.times)
    records = list(reqs.values())
    return PassResult(
        reqs=records, elapsed_s=end - start,
        window_tokens=sum(len(r.times) for r in records),
        window_answers=sum(r.ok for r in records), rss_mb=peak_rss_mb(),
        gen_lags_ms=lags, problems=check_client_limits(threads, 0),
        window=(opened, end), server_ttfts_ms=_server_ttfts(server, before),
        extras=_pass_extras(server, kv_peak, before))


def closed_loop(server, next_prompt: Callable[[], Sequence[int]],
                clients: int, params, seconds: float,
                tracer=None) -> PassResult:
    """``clients`` callers, each sending its next prompt the moment its
    previous answer completes, for ``seconds``; in-flight requests are then
    drained (and checked) but only the window's output is counted."""
    clock = time.perf_counter
    reqs = {}
    server.scheduler.on_token = _recorder(reqs, tracer)

    def send():
        prompt = next_prompt()
        due = clock()
        rid = server.submit(prompt, params)
        reqs[rid] = Req(due=due, expect_tokens=params.max_new_tokens,
                        prompt=tuple(prompt))

    kv_peak = [0, 0]
    before = _counters(server)
    start = clock()
    stop = start + seconds
    for _ in range(clients):
        send()
    while not server.idle:
        for _ in _step(server, reqs, tracer, kv_peak):
            if clock() < stop:
                send()
    records = list(reqs.values())
    return PassResult(
        reqs=records, elapsed_s=seconds,
        window_tokens=sum(sum(t <= stop for t in r.times) for r in records),
        window_answers=sum(r.ok and r.times[-1] <= stop for r in records),
        rss_mb=peak_rss_mb(), problems=check_client_limits(1, 0),
        window=(start, clock()), server_ttfts_ms=_server_ttfts(server, before),
        extras=_pass_extras(server, kv_peak, before))


def verify(server, model, results: Sequence[PassResult], params,
           sample: int, name: str) -> List[str]:
    """Output and ledger checks after the measured passes.

    * every request finished with its full token budget, and its streamed
      tokens equal its completion;
    * repeated prompts got identical answers, and ``sample`` distinct
      prompts match exact decoding token for token (exact mode without the
      prefix cache, batch 1: the reference the serving suites use), up to
      the rare flips :func:`check_answers` tolerates;
    * the request ledger balances, and with the prefix cache and sessions
      cleared the paged KV pool holds no block.
    """
    from repro.serve import InProcessServer, ServeConfig

    problems: List[str] = []
    reqs = [r for result in results for r in result.reqs]
    bad = [r for r in reqs if not r.ok]
    if bad:
        problems.append(f"{len(bad)} of {len(reqs)} requests did not finish "
                        f"with {params.max_new_tokens} streamed tokens")
    oracle = InProcessServer(model, None, ServeConfig(
        decode_mode="exact", prefix_cache=False, max_batch_size=1))
    problems += check_answers(
        reqs, lambda p: tuple(oracle.complete(list(p), params=params).token_ids),
        sample, name)
    ledger = server.scheduler.accounting()
    if not ledger["conservation_ok"] or ledger["queued"] or ledger["running"]:
        problems.append(f"request ledger does not balance: {ledger}")
    if server.engine.kv_mode == "paged":
        if server.scheduler.prefix_pool is not None:
            server.scheduler.prefix_pool.clear()
        server.scheduler.sessions.clear()
        in_use = server.engine.kv_stats()["blocks_in_use"]
        if in_use:
            problems.append(f"{in_use} KV blocks still held after idle")
    return problems


class _Serving(Workload):
    """Shared set-up and checks of the two in-process workloads."""

    config: dict = {}
    new_tokens = 0
    sample = 0

    def setup(self) -> None:
        from repro.data.vocab import build_tokenizer
        from repro.serve import InProcessServer, SamplingParams, ServeConfig

        self.tokenizer = build_tokenizer()
        self.model = grande(self.tokenizer.vocab_size, self.seed)
        self.server = InProcessServer(self.model, self.tokenizer,
                                      ServeConfig(**self.config))
        self.params = SamplingParams(max_new_tokens=self.new_tokens,
                                     stop_on_eos=False)
        self.prepare()

    def prepare(self) -> None:
        raise NotImplementedError

    def warm(self, prompts) -> None:
        """One closed burst through the server so storage growth, BLAS
        warm-up and cache fill happen before timing, as in a server that
        has been up for a while."""
        for prompt in prompts:
            self.server.submit(prompt, self.params)
        self.server.run_until_idle()

    def verify(self, results) -> List[str]:
        return verify(self.server, self.model, results, self.params,
                      self.sample, self.name)


class OpenroadQA(_Serving):
    """OpenROAD QA traffic at 30 req/s, open loop, paged KV + prefix cache.

    The server saturates at about 75 req/s on a two-vCPU box (TTFT p50
    doubles by 60 req/s); 30 req/s keeps a slow phase of a shared box from
    tipping the run into an unbounded queue."""

    name = "openroad_qa"
    config = {"max_batch_size": 16, "kv_mode": "paged"}
    new_tokens = 48
    sample = 16
    rate = 30.0

    def prepare(self) -> None:
        self.prompts = inputs.openroad_prompts(self.tokenizer)
        self.warm(self.prompts[:32])

    def measure(self, seconds: float, tracer=None) -> PassResult:
        offsets = inputs.arrivals(self.seed, self.rate, seconds)
        order = inputs.shuffled_cycle(self.seed, len(self.prompts),
                                      len(offsets))
        return open_loop(self.server, [self.prompts[i] for i in order],
                         offsets, self.params, tracer)


class LongDecode(_Serving):
    """Unique random prompts, 150 new tokens each, 16 closed-loop clients
    on the default (dense) KV layout."""

    name = "long_decode"
    config = {"max_batch_size": 16}
    new_tokens = 150
    sample = 8
    clients = 16

    def prepare(self) -> None:
        self.prompts: Iterator[List[int]] = inputs.random_prompts(
            self.seed, self.tokenizer.vocab_size)
        self.warm([next(self.prompts) for _ in range(self.clients)])

    def measure(self, seconds: float, tracer=None) -> PassResult:
        return closed_loop(self.server, lambda: next(self.prompts),
                           self.clients, self.params, seconds, tracer)
