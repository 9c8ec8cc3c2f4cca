"""Command-line interface: ``python -m repro <command>``.

Subcommands mirror how an adopter would actually use the release:

* ``merge``   — fuse two (or more) checkpoints with any registered method;
* ``sweep``   — evaluate a λ sweep of the geodesic merge on OpenROAD QA;
* ``zoo``     — build / list the model-zoo checkpoints;
* ``chat``    — one-shot grounded question answering with a zoo model;
* ``table``   — regenerate one of the paper's tables or figures;
* ``bench NAME`` — one gated component benchmark (decode, fleet, kvplane,
  lambda, merge, net, parallel, serve, train; see :mod:`repro.bench`),
  exit 1 if an applied gate fails;
* ``obs-report`` — end-to-end train→merge→serve→eval→rag flow with the
  observability layer on: span tree + metric registry snapshot.
"""

from __future__ import annotations

import argparse
import importlib
import inspect
import sys
import typing
from pathlib import Path
from typing import Dict, List, Optional

from .core.karcher import karcher_merge_state_dicts
from .core.registry import available_methods, merge
from .nn.checkpoint import load_model, save_model, save_state_dict
from .nn.transformer import TransformerLM


def _cmd_merge(args: argparse.Namespace) -> int:
    chip, _ = load_model(args.chip)
    instruct, _ = load_model(args.instruct)
    if chip.config != instruct.config:
        print("error: models have different architectures", file=sys.stderr)
        return 2
    base_sd = None
    if args.base:
        base, _ = load_model(args.base)
        base_sd = base.state_dict()
    merged_sd = merge(args.method, chip=chip.state_dict(),
                      instruct=instruct.state_dict(), base=base_sd,
                      lam=args.lam)
    model = TransformerLM(chip.config)
    model.load_state_dict(dict(merged_sd))
    save_model(model, args.output, metadata={
        "method": args.method, "lam": args.lam,
        "chip": str(args.chip), "instruct": str(args.instruct)})
    print(f"merged with {args.method} (lam={args.lam}) -> {args.output}.npz")
    return 0


def _cmd_merge_many(args: argparse.Namespace) -> int:
    models = [load_model(path)[0] for path in args.models]
    configs = {m.config for m in models}
    if len(configs) != 1:
        print("error: models have different architectures", file=sys.stderr)
        return 2
    merged_sd = karcher_merge_state_dicts([m.state_dict() for m in models],
                                          weights=args.weights)
    out = TransformerLM(models[0].config)
    out.load_state_dict(dict(merged_sd))
    save_model(out, args.output, metadata={"method": "karcher",
                                           "inputs": [str(p) for p in args.models]})
    print(f"karcher-merged {len(models)} models -> {args.output}.npz")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from .data import eval_triplets
    from .eval import LMAnswerer, run_openroad
    from .pipelines import default_zoo

    zoo = default_zoo(verbose=True)
    triplets = eval_triplets()[: args.items] if args.items else eval_triplets()
    lams = [round(i / (args.points - 1), 3) for i in range(args.points)]
    print(f"lambda sweep on {args.family} over {len(triplets)} items")
    for lam in lams:
        model = zoo.merged(args.family, "chipalign", lam=lam)
        report = run_openroad(LMAnswerer(model, zoo.tokenizer), triplets)
        print(f"  lambda={lam:<6} rougeL={report.overall:.3f}")
    return 0


def _cmd_zoo(args: argparse.Namespace) -> int:
    from .pipelines import FAMILIES, default_zoo
    from .pipelines.model_zoo import CHIP_VARIANT

    zoo = default_zoo(verbose=True)
    if args.action == "build":
        zoo.prewarm()
        print("zoo ready at", zoo.cache_dir)
    else:
        for family in FAMILIES:
            variants = ["base", "instruct", CHIP_VARIANT[family]]
            print(f"{family}: {', '.join(variants)}")
    return 0


def _cmd_chat(args: argparse.Namespace) -> int:
    from .data.openroad_qa import documentation_corpus
    from .eval import LMAnswerer, OPENROAD_INSTRUCTIONS
    from .pipelines import default_zoo
    from .rag import RagPipeline

    zoo = default_zoo()
    if args.variant == "chipalign":
        model = zoo.merged(args.family, "chipalign", lam=args.lam)
    else:
        model = zoo.get(args.family, args.variant)
    answerer = LMAnswerer(model, zoo.tokenizer)
    retriever = RagPipeline(documentation_corpus())
    context = retriever.retrieve(args.question).context
    answer = answerer.answer(args.question, context=context,
                             instructions=OPENROAD_INSTRUCTIONS)
    print(f"context : {context}")
    print(f"answer  : {answer}")
    return 0


def _cmd_table(args: argparse.Namespace) -> int:
    from .pipelines import (run_complexity, run_fig2, run_fig7, run_fig8,
                            run_table1, run_table2, run_table3)

    artifact = args.artifact
    if artifact == "table1":
        for result in run_table1(max_items=args.items):
            print(f"\n[{result.family}]\n{result.table}")
    elif artifact == "table2":
        print(run_table2().table)
    elif artifact == "table3":
        print(run_table3().table)
    elif artifact == "fig2":
        print(run_fig2().table)
    elif artifact == "fig7":
        print(run_fig7().table)
    elif artifact == "fig8":
        print(run_fig8(max_items=args.items).table)
    elif artifact == "complexity":
        result = run_complexity()
        print(result.table)
        print(f"linear-fit R^2 = {result.linear_fit_r2:.4f}")
    return 0


def _cmd_serve_net(args: argparse.Namespace) -> int:
    """Run the socket front door in the foreground until SIGINT/SIGTERM,
    then drain gracefully (finish in-flight work, refuse new work)."""
    import signal
    import threading

    from .nn.transformer import preset_config
    from .serve import ServeConfig
    from .serve.net import NetServerConfig, NetServerThread, TenantConfig

    config = preset_config(args.backbone, vocab_size=args.vocab, seed=args.seed)
    model = TransformerLM(config)
    try:
        serve_config = ServeConfig(max_batch_size=args.max_batch,
                                   decode_mode=args.decode_mode)
        net_config = NetServerConfig(
            host=args.host, port=args.port,
            default_tenant=TenantConfig(rate=args.rate, burst=args.burst,
                                        max_queue=args.max_queue),
            max_queue_total=args.max_queue_total)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    handle = NetServerThread(model, serve_config=serve_config,
                             net_config=net_config)
    host, port = handle.start()
    print(f"serve-net: {args.backbone} backbone listening on {host}:{port} "
          f"(max batch {args.max_batch}, decode mode {args.decode_mode})")
    print("serve-net: SIGINT/SIGTERM drains gracefully")

    stop = threading.Event()
    signal.signal(signal.SIGINT, lambda *_: stop.set())
    signal.signal(signal.SIGTERM, lambda *_: stop.set())
    stop.wait()
    print("serve-net: draining (finishing in-flight, refusing new work)...")
    ledger = handle.drain(grace_s=args.grace)
    handle.stop()
    print(f"serve-net: drained — {ledger}")
    return 0 if ledger.get("conservation_ok") else 1


def _cmd_serve_fleet(args: argparse.Namespace) -> int:
    """Run N engine replicas over one inherited weight copy behind the
    socket front door, in the foreground until SIGINT/SIGTERM."""
    import signal
    import threading

    from .nn.transformer import preset_config
    from .parallel import parallel_available
    from .serve import ServeConfig
    from .serve.fleet import FleetServer
    from .serve.net import NetServerConfig, NetServerThread, TenantConfig

    if not parallel_available():
        print("error: this platform cannot fork replica processes",
              file=sys.stderr)
        return 2
    config = preset_config(args.backbone, vocab_size=args.vocab,
                           seed=args.seed)
    model = TransformerLM(config)
    try:
        serve_config = ServeConfig(max_batch_size=args.max_batch,
                                   decode_mode=args.decode_mode)
        net_config = NetServerConfig(
            host=args.host, port=args.port,
            default_tenant=TenantConfig(rate=args.rate, burst=args.burst,
                                        max_queue=args.max_queue),
            max_queue_total=args.max_queue_total)
        fleet = FleetServer(model, n_replicas=args.replicas,
                            serve_config=serve_config)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    handle = NetServerThread(None, inner=fleet, net_config=net_config)
    try:
        host, port = handle.start()
        print(f"serve-fleet: {args.replicas} x {args.backbone} replicas on "
              f"one shared weight copy, listening on {host}:{port} "
              f"(max batch {args.max_batch}/replica, decode mode "
              f"{args.decode_mode})")
        print("serve-fleet: SIGINT/SIGTERM drains gracefully")

        stop = threading.Event()
        signal.signal(signal.SIGINT, lambda *_: stop.set())
        signal.signal(signal.SIGTERM, lambda *_: stop.set())
        stop.wait()
        print("serve-fleet: draining (finishing in-flight, refusing new "
              "work)...")
        ledger = handle.drain(grace_s=args.grace)
        handle.stop()
        print(f"serve-fleet: drained — {ledger}")
        return 0 if ledger.get("conservation_ok") else 1
    finally:
        handle.stop()
        fleet.close()


#: ``repro bench NAME`` -> (benchmark module, needs process fork).
#: Each module defines ``run_NAME_benchmark`` and ``format_NAME_report``.
BENCHMARKS = {
    "decode": ("repro.serve.decode_bench", False),
    "kvplane": ("repro.serve.kvplane_bench", False),
    "fleet": ("repro.serve.fleet_bench", True),
    "lambda": ("repro.serve.lambda_bench", True),
    "merge": ("repro.core.merge_bench", False),
    "net": ("repro.serve.net.bench", False),
    "parallel": ("repro.parallel.bench", True),
    "serve": ("repro.serve.serve_bench", False),
    "train": ("repro.nn.train_bench", False),
}


def _bench_params(run) -> Dict[str, tuple]:
    """The settable keyword parameters of a ``run_*_benchmark`` function:
    name -> (type, whether ``None`` is allowed).  Only int/float/str
    parameters can be set from the command line."""
    hints = typing.get_type_hints(run)
    params = {}
    for name in inspect.signature(run).parameters:
        hint = hints.get(name)
        args = typing.get_args(hint)
        kinds = [a for a in args if a is not type(None)] or [hint]
        if len(kinds) == 1 and kinds[0] in (int, float, str):
            params[name] = (kinds[0], type(None) in args)
    return params


def _bench_kwargs(run, pairs: List[str]) -> Dict[str, object]:
    """Parse ``key=value`` pairs against ``run``'s signature; raises
    ``ValueError`` naming the valid keys on any bad pair."""
    params = _bench_params(run)
    valid = ", ".join(params)
    kwargs = {}
    for pair in pairs:
        key, sep, raw = pair.partition("=")
        if not sep or key not in params:
            raise ValueError(f"unknown parameter {pair!r}; "
                             f"valid keys: {valid}")
        kind, nullable = params[key]
        if nullable and raw == "None":
            kwargs[key] = None
            continue
        try:
            kwargs[key] = kind(raw)
        except ValueError:
            raise ValueError(f"{key}={raw!r} is not a valid {kind.__name__}; "
                             f"valid keys: {valid}") from None
    return kwargs


def _cmd_bench(args: argparse.Namespace) -> int:
    from .bench import failed, format_gates, write_snapshot
    from .parallel import parallel_available

    module_name, needs_fork = BENCHMARKS[args.name]
    module = importlib.import_module(module_name)
    run = getattr(module, f"run_{args.name}_benchmark")
    try:
        kwargs = _bench_kwargs(run, args.params)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if needs_fork and not parallel_available():
        print("error: this platform cannot fork worker processes",
              file=sys.stderr)
        return 2
    try:
        result = run(**kwargs)
    except (KeyError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(getattr(module, f"format_{args.name}_report")(result))
    print(format_gates(result["gates"]))
    if args.json:
        write_snapshot(result, args.json)
        print(f"snapshot written to {args.json}")
    failures = failed(result["gates"])
    for gate in failures:
        print(f"error: gate {gate['metric']} {gate['op']} {gate['target']} "
              f"failed: {gate['value']}", file=sys.stderr)
    return 1 if failures else 0


def _cmd_obs_report(args: argparse.Namespace) -> int:
    from .obs import Observability
    from .obs.report import run_obs_flow

    obs = None
    if args.fake_clock:
        # Deterministic trace: every clock read advances exactly 1 ms, so
        # span durations depend only on the number of instrumented events.
        ticks = iter(range(10**9))

        def fake_clock() -> float:
            return next(ticks) * 1e-3

        obs = Observability(clock=fake_clock)
    obs, summary = run_obs_flow(obs=obs, epochs=args.epochs, items=args.items,
                                lam=args.lam)
    if args.fleet:
        # Fold a replica fleet's merged registry into the same report: run
        # a small routed burst and absorb every replica's serve.* counters
        # alongside the in-process flow's metrics.
        from .nn.transformer import preset_config
        from .parallel import parallel_available
        from .serve import SamplingParams, ServeConfig
        from .serve.fleet import FleetServer

        if not parallel_available():
            print("error: --fleet requires os.fork", file=sys.stderr)
            return 2
        model = TransformerLM(preset_config("nano", vocab_size=64, seed=0))
        with obs.span("serve.fleet.flow", replicas=args.fleet):
            with FleetServer(model, n_replicas=args.fleet,
                             serve_config=ServeConfig(max_batch_size=4),
                             obs=obs) as fleet:
                for i in range(args.fleet * 3):
                    fleet.submit(tuple(range(2 + i, 12 + i)),
                                 params=SamplingParams(max_new_tokens=4),
                                 request_id=f"obs-{i}")
                fleet.run_until_idle()
                merged = fleet.fleet_snapshot()["merged"]
        obs.registry.absorb(merged, key="obs-report-fleet")
    print(obs.report(max_roots=args.max_roots))
    print("== flow summary ==")
    for key, value in summary.items():
        print(f"{key:<20} {value}")
    if args.jsonl:
        obs.tracer.write_jsonl(args.jsonl)
        print(f"spans written to {args.jsonl}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="ChipAlign reproduction command-line tools")
    sub = parser.add_subparsers(dest="command", required=True)

    p_merge = sub.add_parser("merge", help="merge two checkpoints")
    p_merge.add_argument("--chip", required=True, type=Path)
    p_merge.add_argument("--instruct", required=True, type=Path)
    p_merge.add_argument("--base", type=Path, default=None,
                         help="base checkpoint (task-vector methods)")
    p_merge.add_argument("--method", default="chipalign",
                         choices=available_methods())
    p_merge.add_argument("--lam", type=float, default=0.6)
    p_merge.add_argument("--output", "-o", required=True, type=Path)
    p_merge.set_defaults(fn=_cmd_merge)

    p_many = sub.add_parser("merge-many",
                            help="Karcher-mean merge of N checkpoints")
    p_many.add_argument("models", nargs="+", type=Path)
    p_many.add_argument("--weights", nargs="+", type=float, default=None)
    p_many.add_argument("--output", "-o", required=True, type=Path)
    p_many.set_defaults(fn=_cmd_merge_many)

    p_sweep = sub.add_parser("sweep", help="lambda sweep on OpenROAD QA")
    p_sweep.add_argument("--family", default="nano")
    p_sweep.add_argument("--points", type=int, default=11)
    p_sweep.add_argument("--items", type=int, default=45)
    p_sweep.set_defaults(fn=_cmd_sweep)

    p_zoo = sub.add_parser("zoo", help="build or list the model zoo")
    p_zoo.add_argument("action", choices=("build", "list"))
    p_zoo.set_defaults(fn=_cmd_zoo)

    p_chat = sub.add_parser("chat", help="one-shot grounded QA")
    p_chat.add_argument("question")
    p_chat.add_argument("--family", default="micro")
    p_chat.add_argument("--variant", default="chipalign",
                        choices=("instruct", "eda", "chipnemo", "chipalign"))
    p_chat.add_argument("--lam", type=float, default=0.6)
    p_chat.set_defaults(fn=_cmd_chat)

    p_table = sub.add_parser("table", help="regenerate a paper artifact")
    p_table.add_argument("artifact", choices=("table1", "table2", "table3",
                                              "fig2", "fig7", "fig8",
                                              "complexity"))
    p_table.add_argument("--items", type=int, default=None)
    p_table.set_defaults(fn=_cmd_table)

    p_net = sub.add_parser(
        "serve-net",
        help="run the socket front door until SIGTERM, then drain")
    p_net.add_argument("--backbone", default="nano",
                       help="model preset to serve (nano/micro/grande)")
    p_net.add_argument("--host", default="127.0.0.1")
    p_net.add_argument("--port", type=int, default=0,
                       help="TCP port (0 = ephemeral, printed at startup)")
    p_net.add_argument("--max-batch", type=int, default=8)
    p_net.add_argument("--decode-mode", default="fused",
                       choices=("fused", "exact"))
    p_net.add_argument("--rate", type=float, default=float("inf"),
                       help="default tenant token-bucket rate (req/s)")
    p_net.add_argument("--burst", type=int, default=16,
                       help="default tenant token-bucket burst size")
    p_net.add_argument("--max-queue", type=int, default=64,
                       help="per-tenant admitted-queue bound")
    p_net.add_argument("--max-queue-total", type=int, default=256,
                       help="global admitted-queue bound")
    p_net.add_argument("--grace", type=float, default=60.0,
                       help="drain grace period in seconds")
    p_net.add_argument("--vocab", type=int, default=128)
    p_net.add_argument("--seed", type=int, default=0)
    p_net.set_defaults(fn=_cmd_serve_net)

    p_fleet = sub.add_parser(
        "serve-fleet",
        help="serve N engine replicas over one inherited weight copy "
             "behind the socket front door")
    p_fleet.add_argument("--backbone", default="nano",
                         choices=("nano", "micro", "grande"))
    p_fleet.add_argument("--replicas", type=int, default=2,
                         help="engine replica process count")
    p_fleet.add_argument("--host", default="127.0.0.1")
    p_fleet.add_argument("--port", type=int, default=0,
                         help="TCP port (0 = ephemeral, printed at startup)")
    p_fleet.add_argument("--max-batch", type=int, default=8,
                         help="continuous-batching slots per replica")
    p_fleet.add_argument("--decode-mode", default="fused",
                         choices=("fused", "exact"))
    p_fleet.add_argument("--rate", type=float, default=float("inf"),
                         help="default tenant token-bucket rate (req/s)")
    p_fleet.add_argument("--burst", type=int, default=16,
                         help="default tenant token-bucket burst size")
    p_fleet.add_argument("--max-queue", type=int, default=64,
                         help="per-tenant admitted-queue bound")
    p_fleet.add_argument("--max-queue-total", type=int, default=256,
                         help="global admitted-queue bound")
    p_fleet.add_argument("--grace", type=float, default=60.0,
                         help="drain grace period in seconds")
    p_fleet.add_argument("--vocab", type=int, default=128)
    p_fleet.add_argument("--seed", type=int, default=0)
    p_fleet.set_defaults(fn=_cmd_serve_fleet)

    p_bench = sub.add_parser(
        "bench",
        help="run one gated component benchmark; exit 1 if an applied "
             "gate fails",
        description="Parameters are the keyword arguments of the benchmark's "
                    "run_NAME_benchmark function, given as key=value.")
    p_bench.add_argument("name", choices=sorted(BENCHMARKS))
    p_bench.add_argument("params", nargs="*", metavar="key=value",
                         help="override a run_NAME_benchmark parameter")
    p_bench.add_argument("--json", type=Path, default=None, metavar="PATH",
                         help="also write the report as a JSON snapshot")
    p_bench.set_defaults(fn=_cmd_bench)

    p_obs = sub.add_parser(
        "obs-report",
        help="trace an end-to-end flow and print the span tree + metrics")
    p_obs.add_argument("--epochs", type=int, default=4,
                       help="training epochs for the stub model")
    p_obs.add_argument("--items", type=int, default=3,
                       help="OpenROAD QA items in the eval stage")
    p_obs.add_argument("--lam", type=float, default=0.6,
                       help="geodesic interpolation weight for the merge stage")
    p_obs.add_argument("--max-roots", type=int, default=40,
                       help="root spans shown before eliding the middle")
    p_obs.add_argument("--fake-clock", action="store_true",
                       help="use a deterministic 1ms-per-read clock")
    p_obs.add_argument("--fleet", type=int, default=0, metavar="N",
                       help="also run an N-replica serve fleet and fold its "
                            "merged registry into the report")
    p_obs.add_argument("--jsonl", type=Path, default=None,
                       help="also export the spans as JSONL")
    p_obs.set_defaults(fn=_cmd_obs_report)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    # ``bench NAME --json PATH key=value ...``: argparse stops filling the
    # ``params`` list at the first option, so later pairs arrive as extras.
    args, extra = parser.parse_known_args(argv)
    if extra:
        if args.command != "bench":
            parser.error(f"unrecognized arguments: {' '.join(extra)}")
        args.params += extra
    return args.fn(args)


if __name__ == "__main__":
    raise SystemExit(main())
