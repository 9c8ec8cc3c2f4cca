"""Deterministic synthetic load generation and the socket load drivers.

The workload models the traffic shape ChipAlign deployments actually see: a
fleet of engineers asking questions through the same assistant, so every
prompt opens with the same instruction/context block (the shared prefix) and
diverges only in the question tail.  Prompts are built directly in token-id
space from a seeded RNG, so a given :class:`WorkloadSpec` always produces
the same requests — no tokenizer or trained checkpoint required.

The in-process serving benchmark (:mod:`repro.serve.serve_bench`) runs
these prompts through the serial engine and an
:class:`~repro.serve.server.InProcessServer`.  Here live the drivers over
real sockets: :func:`run_socket_workload` / :func:`run_multi_tenant_workload`
against a :class:`~repro.serve.net.server.NetServer`, with **open-loop**
arrival processes (:func:`arrival_schedule`: batch, Poisson, or bursty) —
requests launch at their scheduled instants regardless of completions, the
arrival discipline that actually exposes queueing collapse.  Arrival
schedules are plain seeded arrays, exportable in benchmark artifacts and
replayable bit-for-bit with ``arrivals=``.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

#: Arrival processes understood by :func:`arrival_schedule`.
ARRIVAL_PROCESSES = ("batch", "poisson", "bursty")


@dataclass(frozen=True)
class WorkloadSpec:
    """Shape of a synthetic request burst."""

    n_requests: int = 16
    #: Tokens of instruction/context block shared by every prompt.
    shared_prefix_tokens: int = 96
    #: Tokens unique to each request (the "question" tail).
    unique_tokens: int = 12
    #: Decode budget per request.
    max_new_tokens: int = 24
    #: Token-id universe the prompts draw from (kept below the model vocab).
    vocab_size: int = 64
    temperature: float = 0.0
    seed: int = 0
    #: Arrival process for socket workloads: "batch" (all at t=0, the
    #: closed-burst shape of the in-process serving benchmark), "poisson"
    #: (open-loop exponential inter-arrivals), or "bursty" (groups of
    #: ``burst_size`` arriving together every ``burst_gap_s``).
    arrival: str = "batch"
    #: Mean arrival rate (requests/second) for the "poisson" process.
    arrival_rate_rps: float = 32.0
    #: Requests per burst for the "bursty" process.
    burst_size: int = 4
    #: Seconds between burst starts for the "bursty" process.
    burst_gap_s: float = 0.25

    def __post_init__(self) -> None:
        if self.n_requests < 1:
            raise ValueError("n_requests must be >= 1")
        if self.unique_tokens < 1:
            raise ValueError("unique_tokens must be >= 1 (prompts must differ)")
        if self.arrival not in ARRIVAL_PROCESSES:
            raise ValueError(f"arrival must be one of {ARRIVAL_PROCESSES}")
        if self.arrival_rate_rps <= 0:
            raise ValueError("arrival_rate_rps must be > 0")
        if self.burst_size < 1:
            raise ValueError("burst_size must be >= 1")
        if self.burst_gap_s < 0:
            raise ValueError("burst_gap_s must be >= 0")


def synthetic_prompts(spec: WorkloadSpec) -> List[Tuple[int, ...]]:
    """The workload's prompts: shared prefix + per-request unique tail.

    Token ids start at 1 (0 is conventionally padding) and are generated
    from ``spec.seed`` alone, so the same spec always yields the same burst.
    """
    rng = np.random.default_rng(spec.seed)
    high = max(2, spec.vocab_size)
    prefix = tuple(int(t) for t in rng.integers(1, high, size=spec.shared_prefix_tokens))
    prompts = []
    for _ in range(spec.n_requests):
        tail = tuple(int(t) for t in rng.integers(1, high, size=spec.unique_tokens))
        prompts.append(prefix + tail)
    return prompts


# ----------------------------------------------------------------------
# open-loop socket workloads
# ----------------------------------------------------------------------

def arrival_schedule(spec: WorkloadSpec) -> Tuple[float, ...]:
    """Seeded arrival offsets (seconds from workload start), one per request.

    The arrival stream is seeded independently of the prompt stream
    (``[spec.seed, 1]`` vs. ``spec.seed``), so changing the arrival process
    never perturbs the prompts.  The returned tuple is plain data: export
    it in a benchmark artifact and pass it back as ``arrivals=`` to
    :func:`run_socket_workload` for a bit-identical replay.
    """
    if spec.arrival == "batch":
        return (0.0,) * spec.n_requests
    if spec.arrival == "poisson":
        rng = np.random.default_rng([spec.seed, 1])
        gaps = rng.exponential(1.0 / spec.arrival_rate_rps,
                               size=spec.n_requests)
        return tuple(float(t) for t in np.cumsum(gaps))
    # bursty: groups of burst_size arriving together every burst_gap_s
    return tuple((i // spec.burst_size) * spec.burst_gap_s
                 for i in range(spec.n_requests))


def percentile(values: Sequence[float], q: float) -> float:
    """``numpy.percentile`` with an explicit 0.0 for empty inputs."""
    if not values:
        return 0.0
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def run_socket_workload(address: Tuple[str, int], spec: WorkloadSpec,
                        tenant: str = "default",
                        arrivals: Optional[Sequence[float]] = None,
                        stream: bool = True,
                        timeout_s: Optional[float] = None,
                        max_wait_s: float = 120.0) -> Dict[str, object]:
    """Drive one tenant's workload at a real :class:`NetServer` socket.

    Open-loop: requests are submitted at their scheduled arrival offsets
    regardless of how the server is keeping up — a dedicated reader thread
    collects interleaved events while the caller's thread holds the send
    schedule.  Per-request client-side TTFT/latency are measured with
    ``time.perf_counter`` around the actual socket writes, so they include
    queueing delay the server's own histograms cannot see.

    Shed responses are terminal outcomes, not errors: they land in the
    per-request records with their ``retry_after_s`` hint and are counted
    in the summary, because explicit load shedding under overload is
    behavior the benchmarks assert *for*.
    """
    from .net.client import NetClient  # local import: avoid package cycle

    host, port = address
    prompts = synthetic_prompts(spec)
    if arrivals is None:
        arrivals = arrival_schedule(spec)
    if len(arrivals) != spec.n_requests:
        raise ValueError("arrivals length must equal spec.n_requests")

    client = NetClient(host, port, tenant=tenant)
    records: Dict[str, Dict[str, object]] = {}
    done = threading.Event()
    reader_error: List[str] = []

    def reader() -> None:
        remaining = spec.n_requests
        try:
            while remaining > 0:
                event = client.recv_event()
                now = time.perf_counter()
                kind = event.get("event")
                rec = records.get(event.get("id"))
                if rec is None:
                    if kind == "error":
                        reader_error.append(str(event.get("code")))
                    continue
                if kind == "token":
                    if rec["first_token_at"] is None:
                        rec["first_token_at"] = now
                    rec["streamed"].append(int(event["token"]))
                elif kind == "done":
                    rec["done_at"] = now
                    rec["status"] = event["status"]
                    rec["finish_reason"] = event.get("finish_reason")
                    rec["token_ids"] = tuple(event.get("token_ids", ()))
                    rec["server_ttft_s"] = event.get("ttft_s")
                    remaining -= 1
                elif kind == "shed":
                    rec["done_at"] = now
                    rec["status"] = "shed"
                    rec["shed_code"] = event.get("code")
                    rec["retry_after_s"] = event.get("retry_after_s")
                    remaining -= 1
                elif kind == "error":
                    rec["done_at"] = now
                    rec["status"] = "error"
                    rec["error_code"] = event.get("code")
                    remaining -= 1
        except Exception as exc:  # transport loss ends the workload
            reader_error.append(str(exc))
        finally:
            done.set()

    reader_thread = threading.Thread(target=reader, daemon=True)
    reader_thread.start()

    start = time.perf_counter()
    for i, (prompt, offset) in enumerate(zip(prompts, arrivals)):
        delay = start + offset - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        client_id = f"{tenant}-{i}"
        records[client_id] = {
            "client_id": client_id, "arrival_offset_s": float(offset),
            "submitted_at": None, "first_token_at": None, "done_at": None,
            "status": "pending", "finish_reason": None, "token_ids": (),
            "streamed": [], "server_ttft_s": None, "shed_code": None,
            "retry_after_s": None, "error_code": None,
        }
        params = {"max_new_tokens": spec.max_new_tokens,
                  "temperature": spec.temperature, "seed": spec.seed + i}
        records[client_id]["submitted_at"] = time.perf_counter()
        try:
            client.submit(prompt_ids=prompt, params=params, stream=stream,
                          timeout_s=timeout_s, client_id=client_id)
        except Exception as exc:
            records[client_id]["status"] = "error"
            records[client_id]["error_code"] = str(exc)
            break

    done.wait(max_wait_s)
    client.close()
    reader_thread.join(timeout=5.0)

    finished = [r for r in records.values() if r["status"] == "finished"]
    ttfts = [r["first_token_at"] - r["submitted_at"] for r in finished
             if r["first_token_at"] is not None]
    latencies = [r["done_at"] - r["submitted_at"] for r in finished
                 if r["done_at"] is not None]
    done_times = [r["done_at"] for r in records.values()
                  if r["done_at"] is not None]
    wall = (max(done_times) - start) if done_times else 0.0
    tokens = sum(len(r["token_ids"]) for r in finished)
    statuses: Dict[str, int] = {}
    for r in records.values():
        statuses[r["status"]] = statuses.get(r["status"], 0) + 1
    return {
        "tenant": tenant,
        "arrival": spec.arrival,
        "arrivals": [float(t) for t in arrivals],
        "records": [records[f"{tenant}-{i}"] for i in range(spec.n_requests)
                    if f"{tenant}-{i}" in records],
        "statuses": statuses,
        "n_finished": len(finished),
        "n_shed": statuses.get("shed", 0),
        "n_expired": statuses.get("expired", 0),
        "n_errors": statuses.get("error", 0) + len(reader_error),
        "tokens": tokens,
        "wall_s": wall,
        "tokens_per_second": tokens / wall if wall > 0 else 0.0,
        "ttft_p50_s": percentile(ttfts, 50), "ttft_p99_s": percentile(ttfts, 99),
        "latency_p50_s": percentile(latencies, 50),
        "latency_p99_s": percentile(latencies, 99),
        "reader_errors": list(reader_error),
    }


def run_multi_tenant_workload(
        address: Tuple[str, int], specs: Dict[str, WorkloadSpec],
        timeout_s: Optional[float] = None,
        max_wait_s: float = 120.0) -> Dict[str, Dict[str, object]]:
    """Run one :func:`run_socket_workload` per tenant, concurrently.

    Each tenant gets its own connection and its own open-loop schedule;
    all start from (approximately) the same instant, so cross-tenant
    fairness comparisons — the 9:1 aggressor/minority shape the benchmark
    gates on — are apples-to-apples.
    """
    results: Dict[str, Dict[str, object]] = {}
    errors: Dict[str, BaseException] = {}

    def worker(name: str, spec: WorkloadSpec) -> None:
        try:
            results[name] = run_socket_workload(
                address, spec, tenant=name, timeout_s=timeout_s,
                max_wait_s=max_wait_s)
        except BaseException as exc:
            errors[name] = exc

    threads = [threading.Thread(target=worker, args=(name, spec), daemon=True)
               for name, spec in specs.items()]
    for t in threads:
        t.start()
    for t in threads:
        t.join(max_wait_s + 10.0)
    if errors:
        name, exc = next(iter(errors.items()))
        raise RuntimeError(f"tenant {name!r} workload failed: {exc}") from exc
    return results
