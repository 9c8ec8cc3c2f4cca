"""Fleet benchmark: N routed replicas vs a single engine, gated on parity.

Two phases, mirroring the parallel-eval benchmark's methodology:

1. **Parity** — the acceptance gate.  A mixed-sampling burst (greedy,
   top-k, top-p with per-request seeds) is answered by a single
   :class:`~repro.serve.server.InProcessServer` and by a routed
   :class:`~repro.serve.fleet.FleetServer`, both in exact decode mode with
   the prefix cache off; every token stream must be byte-identical.
2. **Throughput** — the headline number.  The production configuration
   (fused decode, prefix cache on) runs the same multi-prefix-group
   workload through a fleet of one replica and a fleet of ``replicas``
   replicas; aggregate tokens/sec is timed with
   :func:`repro.bench.paired`.

The >= 2x aggregate-throughput target is only physically reachable when
the machine has at least ``replicas`` cores, so on a starved box the gate
is waived and the ``MIN_STARVED_RATIO`` overhead bound applies instead;
parity, respawn-free operation and router conservation are gated
everywhere.

Prompts are grouped into ``groups`` disjoint shared-prefix families (the
ChipAlign traffic shape: one grounding block per assistant, many question
tails) so the consistent-hash router actually spreads load — a single
shared prefix would pin the whole burst to one replica by design.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..bench import Gate, header, paired
from ..obs import Observability
from .request import SamplingParams
from .scheduler import ServeConfig

#: Aggregate tokens/sec floor for the headline 4-replica configuration,
#: asserted only when ``target_applies``.  Reports scale it by
#: ``replicas / 4`` — the same 0.5-per-replica efficiency floor — so a
#: 2-replica smoke run is gated at 1.0x, not an unreachable 2x.
SPEEDUP_TARGET = 2.0

#: When the core count can't sustain the replicas, the routed arm still
#: must not collapse under dispatch/IPC overhead: replicas time-slicing a
#: single core stay within ~3x of the single-replica arm.
MIN_STARVED_RATIO = 0.33


def _workload(groups: int, requests_per_group: int, prefix_tokens: int,
              unique_tokens: int, max_new_tokens: int, vocab: int,
              seed: int) -> List[Tuple[Tuple[int, ...], SamplingParams]]:
    """Multi-group burst: per-group shared prefixes, mixed sampling modes."""
    out = []
    for g in range(groups):
        rng = np.random.default_rng(seed + g * 1000)
        prefix = tuple(int(t) for t in rng.integers(2, vocab,
                                                    size=prefix_tokens))
        for i in range(requests_per_group):
            tail = tuple(int(t) for t in rng.integers(2, vocab,
                                                      size=unique_tokens))
            mode = (g * requests_per_group + i) % 3
            params = SamplingParams(
                max_new_tokens=max_new_tokens,
                temperature=0.0 if mode == 0 else 0.8,
                top_k=8 if mode == 1 else None,
                top_p=0.9 if mode == 2 else None,
                seed=seed + g * 100 + i)
            out.append((prefix + tail, params))
    return out


def _drive_fleet(fleet, workload, tag: str) -> Dict[str, Tuple[int, ...]]:
    """Submit the whole burst (unique ids per round) and run it to idle."""
    ids = []
    for i, (prompt, params) in enumerate(workload):
        ids.append(fleet.submit(prompt, params=params,
                                request_id=f"{tag}-{i}"))
    fleet.run_until_idle()
    return {rid: fleet.result(rid).token_ids for rid in ids}


def run_fleet_benchmark(backbone: str = "nano", replicas: int = 4,
                        groups: Optional[int] = None,
                        requests_per_group: int = 4,
                        prefix_tokens: int = 32, unique_tokens: int = 8,
                        max_new_tokens: int = 16, repeats: int = 3,
                        seed: int = 0,
                        obs: Optional[Observability] = None
                        ) -> Dict[str, object]:
    """Benchmark ``replicas`` routed replicas against a single engine.

    Returns a JSON-serialisable report: the parity verdict, per-arm
    wall-clock and aggregate tokens/sec, the fleet-over-single speedup,
    respawn and requeue counts (zero in a healthy run), the fleet arm's
    merged metric registry, and the ``header`` and ``gates``.
    """
    from ..nn.transformer import TransformerLM, preset_config
    from .fleet import FleetServer
    from .server import InProcessServer

    if replicas < 2:
        raise ValueError(f"replicas must be >= 2, got {replicas}")
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    obs = obs if obs is not None else Observability()
    vocab = 64
    config = preset_config(backbone, vocab_size=vocab, seed=seed)
    model = TransformerLM(config)
    model.eval()
    groups = groups if groups is not None else replicas * 2
    workload = _workload(groups, requests_per_group, prefix_tokens,
                         unique_tokens, max_new_tokens, vocab, seed)
    n_requests = len(workload)
    total_tokens = n_requests * max_new_tokens

    # Phase 1 — byte parity in exact mode (the batch-independent decode
    # path, so routing must be invisible in the output bytes).
    exact = ServeConfig(max_batch_size=4, decode_mode="exact",
                        prefix_cache=False)
    single_server = InProcessServer(model, config=exact)
    for i, (prompt, params) in enumerate(workload):
        single_server.submit(prompt, params=params, request_id=f"parity-{i}")
    single_server.run_until_idle()
    want = {f"parity-{i}": single_server.result(f"parity-{i}").token_ids
            for i in range(n_requests)}
    with FleetServer(model, n_replicas=replicas, serve_config=exact) as fleet:
        got = _drive_fleet(fleet, workload, "parity")
    parity_ok = got == want

    # Phase 2 — aggregate throughput in the production configuration.
    # The warm-up call per arm settles fork costs, BLAS spin-up and
    # the prefix-cache fill before timing.
    fused = ServeConfig(max_batch_size=4, decode_mode="fused",
                        prefix_cache=True)
    tags = itertools.count()
    with FleetServer(model, n_replicas=1, serve_config=fused) as one, \
            FleetServer(model, n_replicas=replicas, serve_config=fused,
                        obs=obs) as many:
        timing = paired(
            lambda: _drive_fleet(one, workload, f"s{next(tags)}"),
            lambda: _drive_fleet(many, workload, f"n{next(tags)}"),
            repeats)
        snapshot = many.fleet_snapshot()

    single, multi = ({"seconds": s, "tokens_per_sec": total_tokens / s,
                      "ms_per_request": s * 1e3 / n_requests}
                     for s in timing.seconds)
    head = header()
    speedup_target = SPEEDUP_TARGET * replicas / 4
    waiver = Gate.needs_cores(replicas, "replicas")
    gates = [
        Gate("parity_ok", parity_ok, True, "=="),
        Gate("respawns", snapshot["respawns"], 0, "=="),
        Gate("router.conservation_ok", snapshot["router"]["conservation_ok"],
             1, "=="),
        *Gate.speedup(timing.ratio, speedup_target, MIN_STARVED_RATIO,
                      waiver),
    ]
    return {
        "header": head,
        "gates": [g.as_dict() for g in gates],
        "backbone": backbone,
        "replicas": replicas,
        "cpu_count": head["cpu_count"],
        "n_requests": n_requests,
        "groups": groups,
        "max_new_tokens": max_new_tokens,
        "total_tokens": total_tokens,
        "repeats": repeats,
        "single": single,
        "fleet": multi,
        "speedup": timing.ratio,
        "timing": timing.as_dict(),
        "speedup_target": speedup_target,
        "target_applies": waiver is None,
        "parity_ok": parity_ok,
        "respawns": snapshot["respawns"],
        "router": snapshot["router"],
        "merged_registry": snapshot["merged"],
    }


def format_fleet_report(result: Dict[str, object]) -> str:
    """Human-readable summary of :func:`run_fleet_benchmark`."""
    single, fleet = result["single"], result["fleet"]
    lines = [
        f"workload : {result['n_requests']} requests in {result['groups']} "
        f"prefix groups ({result['backbone']} backbone, "
        f"{result['max_new_tokens']} new tokens, {result['repeats']} paired "
        f"rounds)",
        f"1 replica: {single['ms_per_request']:8.1f} ms/req  "
        f"{single['tokens_per_sec']:7.1f} tok/s",
        f"{result['replicas']} replicas: {fleet['ms_per_request']:7.1f} "
        f"ms/req  {fleet['tokens_per_sec']:7.1f} tok/s",
        f"speedup  : {result['speedup']:8.2f}x median",
        f"parity   : routed output "
        f"{'byte-identical' if result['parity_ok'] else 'DIVERGED'} "
        f"to the single engine (exact mode)",
        f"faults   : {result['respawns']} replica respawn(s)",
    ]
    return "\n".join(lines)
