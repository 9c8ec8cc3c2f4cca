"""``net_chat``: two-turn chats over one socket to a server process.

Conversations arrive open loop (Poisson, 25/s) from two tenants.  Turn 1 is
a grounded industrial-QA question; the moment its answer completes, turn 2
replays turn 1's prompt and answer plus a follow-up question under the same
``session``, so the server can resume from the session's KV state.  Every
response streams 24 tokens.

The client is one process with one connection and two threads: the main
thread keeps the arrival schedule, a reader thread demultiplexes events and
sends each turn 2.
"""

from __future__ import annotations

import json
import select
import subprocess
import sys
import threading
import time
from typing import Dict, List, Tuple

from . import inputs
from .chat_server import TENANTS, nano
from .common import ROOT, PassResult, Req, Workload, check_client_limits, out_path

#: Conversations per second.  At 40/s the client's own event handling (one
#: Python reader thread decoding ~1900 token frames/s) competed with the
#: server for the box's two cores, and clock-time metrics spread 0.35 over
#: ten seeds; at 25/s they spread 0.10-0.15.
RATE = 25.0
NEW_TOKENS = 24
WARM_CONVERSATIONS = 8
REPLY_TIMEOUT_S = 60.0


class NetChat(Workload):
    name = "net_chat"

    def setup(self) -> None:
        from repro.data.vocab import build_tokenizer
        from repro.nn.transformer import preset_config
        from repro.serve.net import NetClient

        self.tokenizer = build_tokenizer()
        # Turn 2 must fit the context window with both answers:
        # prompt + 24 + follow-up + 24 tokens.
        max_ctx = preset_config("nano", self.tokenizer.vocab_size).max_seq_len
        self.pool = inputs.conversation_pool(self.tokenizer,
                                             max_ctx - 2 * NEW_TOKENS - 16)
        self.spans_path = out_path(f"trace-{self.name}-seed{self.seed}"
                                   "-server.json")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "bench.chat_server", "--seed",
             str(self.seed), "--spans", str(self.spans_path)],
            cwd=ROOT, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            text=True)
        hello = self._read()
        self.client = NetClient(hello["host"], hello["port"])
        self._trace_off: dict = {}
        self._conversations = 0
        # Warm-up: a few conversations 50 ms apart, from a plan no measured
        # pass uses, so storage growth and the prefix cache fill happen
        # before timing.
        self._run(inputs.conversation_plan(self.seed + 10 ** 6,
                                           WARM_CONVERSATIONS, len(self.pool),
                                           TENANTS),
                  [0.05 * i for i in range(WARM_CONVERSATIONS)])
        self._ttfts_seen = len(self._command("stats")["ttfts_s"])

    # -- server process control -------------------------------------------
    def _read(self) -> dict:
        ready, _, _ = select.select([self.proc.stdout], [], [],
                                    REPLY_TIMEOUT_S)
        line = self.proc.stdout.readline() if ready else ""
        if not line:
            raise RuntimeError("net_chat server did not answer")
        return json.loads(line)

    def _command(self, command: str) -> dict:
        self.proc.stdin.write(command + "\n")
        self.proc.stdin.flush()
        return self._read()

    def start_trace(self, tracer) -> None:
        self._command("trace-on")

    def stop_trace(self, tracer) -> None:
        self._trace_off = self._command("trace-off")

    def finish_trace(self, tracer, traced) -> float:
        """Adopt the server's spans; its unattributed share is the one that
        counts, since every traced layer runs in the server."""
        tracer.absorb(json.loads(self.spans_path.read_text()))
        tracer.dropped += self._trace_off["dropped"]
        return self._trace_off["unattributed"]

    # -- one measured pass -----------------------------------------------
    def measure(self, seconds: float, tracer=None) -> PassResult:
        offsets = inputs.arrivals(self.seed, RATE, seconds)
        plan = inputs.conversation_plan(self.seed, len(offsets),
                                        len(self.pool), TENANTS)
        result = self._run(plan, offsets)
        stats = self._command("stats")
        result.rss_mb = stats["rss_mb"]
        result.server_ttfts_ms = [s * 1e3 for s in stats["ttfts_s"]
                                  [self._ttfts_seen:]]
        self._ttfts_seen = len(stats["ttfts_s"])
        return result

    def _run(self, plan: List[Tuple[int, str]], offsets) -> PassResult:
        """Drive one open-loop set of conversations to completion."""
        clock = time.perf_counter
        client = self.client
        reqs: Dict[str, Req] = {}
        turn_of: Dict[str, Tuple[int, int]] = {}   # client id -> (conv, turn)
        counts = {"shed": 0, "errors": 0, "open": len(plan)}
        finished = threading.Event()
        first = self._conversations
        self._conversations += len(plan)

        def send(conv: int, turn: int, prompt: List[int], due: float) -> None:
            cid = f"c{first + conv}t{turn}"
            # Recorded before the frame goes out: the reader may see the
            # reply before send_frame returns.
            reqs[cid] = Req(due=due, expect_tokens=NEW_TOKENS, sent=clock(),
                            prompt=tuple(prompt))
            turn_of[cid] = (conv, turn)
            client.send_frame({
                "op": "stream", "id": cid, "tenant": plan[conv][1],
                "session": f"s{first + conv}", "prompt_ids": prompt,
                "params": {"max_new_tokens": NEW_TOKENS,
                           "stop_on_eos": False}})

        def close_conversation() -> None:
            counts["open"] -= 1
            if counts["open"] == 0:
                finished.set()

        def reader() -> None:
            while not finished.is_set():
                event = client.recv_event()
                now = clock()
                cid = event.get("id")
                req = reqs.get(cid)
                kind = event.get("event")
                if req is None:
                    counts["errors"] += kind == "error"
                    continue
                if kind == "accepted":
                    req.accepted = now
                elif kind == "token":
                    req.times.append(now)
                    req.tokens.append(event["token"])
                elif kind == "done":
                    req.finish(event["token_ids"], event["status"])
                    conv, turn = turn_of[cid]
                    if turn == 1 and req.ok:
                        suffix = self.pool[plan[conv][0]][1]
                        send(conv, 2, list(req.prompt) + req.tokens + suffix,
                             now)
                    else:
                        close_conversation()
                elif kind in ("shed", "error"):
                    counts["shed" if kind == "shed" else "errors"] += 1
                    close_conversation()

        reader_error: List[BaseException] = []

        def guarded_reader() -> None:
            try:
                reader()
            except BaseException as exc:  # report, never hang the pass
                reader_error.append(exc)
                finished.set()

        thread = threading.Thread(target=guarded_reader, name="bench-reader")
        thread.start()
        threads = threading.active_count()
        lags: List[float] = []
        start = clock() + 0.01
        for conv, offset in enumerate(offsets):
            due = start + offset
            wait = due - clock()
            if wait > 0:
                time.sleep(wait)
            lags.append((clock() - due) * 1e3)
            send(conv, 1, self.pool[plan[conv][0]][0], due)
        finished.wait(REPLY_TIMEOUT_S)
        finished.set()
        thread.join(REPLY_TIMEOUT_S)
        problems = check_client_limits(threads, 1)
        if reader_error:
            problems.append(f"reader failed: {reader_error[0]!r}")
        if counts["open"]:
            problems.append(f"{counts['open']} conversations never finished")
        records = list(reqs.values())
        ends = [r.times[-1] for r in records if r.times]
        end = max(ends) if ends else clock()
        return PassResult(
            reqs=records, elapsed_s=end - start,
            window_tokens=sum(len(r.times) for r in records),
            window_answers=sum(r.ok for r in records), rss_mb=0.0,
            gen_lags_ms=lags, problems=problems, window=(start, end),
            extras={"serve.net.shed": float(counts["shed"]),
                    "serve.net.protocol_errors": float(counts["errors"])})

    # -- checks ----------------------------------------------------------
    def verify(self, results) -> List[str]:
        """Every turn finished with its 24 streamed tokens; sampled turns
        match exact decoding of the same prompt on the same weights; the
        drained server's request and admission ledgers balance."""
        from repro.serve import InProcessServer, SamplingParams, ServeConfig

        problems: List[str] = []
        reqs = [r for result in results for r in result.reqs]
        bad = [r for r in reqs if not r.ok]
        if bad:
            problems.append(f"{len(bad)} of {len(reqs)} turns did not finish "
                            f"with {NEW_TOKENS} streamed tokens")
        oracle = InProcessServer(
            nano(self.tokenizer.vocab_size, self.seed), None,
            ServeConfig(decode_mode="exact", prefix_cache=False,
                        max_batch_size=1))
        params = SamplingParams(max_new_tokens=NEW_TOKENS, stop_on_eos=False)
        good = [r for r in reqs if r.ok]
        for req in good[:: max(1, len(good) // 8)][:8]:
            want = list(oracle.complete(list(req.prompt), params).token_ids)
            if want != req.tokens:
                problems.append("served tokens differ from exact decoding")
                break
        report = self._command("stop")
        if not report["ledger"]["conservation_ok"]:
            problems.append(f"request ledger does not balance: "
                            f"{report['ledger']}")
        if not report["admission_ok"]:
            problems.append("admission ledger does not balance")
        return problems

    def close(self) -> None:
        client = getattr(self, "client", None)
        if client is not None:
            client.close()
        proc = getattr(self, "proc", None)
        if proc is None:
            return
        if proc.poll() is None:
            try:
                proc.stdin.close()
            except OSError:
                pass
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        proc.stdout.close()
