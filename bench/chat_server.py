"""The ``net_chat`` server process: a ``NetServerThread`` over ``nano``.

Started by :mod:`bench.chat` as ``python -m bench.chat_server --seed N
--spans PATH``.  It prints one JSON line with its address, then obeys one
command per stdin line and answers each with one JSON line on stdout:

``trace-on``   wrap the layers (see :mod:`bench.trace`) and open a window
``trace-off``  unwrap, write the spans of every window so far to PATH
               (``Tracer.export_spans`` as JSON)
``stats``      peak RSS and the scheduler's own TTFT record so far
``stop``       drain (finish admitted work), report the ledgers, exit

Stdin closing (the benchmark died) also stops the server.
"""

from __future__ import annotations

import argparse
import json
import sys

from .common import peak_rss_mb

#: Two weighted tenants share the server; WFQ gives ``eng`` three times
#: ``ops``'s decode share under contention.
TENANTS = {"eng": 3.0, "ops": 1.0}


def nano(vocab_size: int, seed: int):
    """Random-init ``nano`` model; the client rebuilds the same weights
    from the same seed for its exact-decoding oracle."""
    from repro.nn.transformer import TransformerLM, preset_config

    return TransformerLM(preset_config("nano", vocab_size, seed=seed))


def _reply(payload: dict) -> None:
    print(json.dumps(payload), flush=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m bench.chat_server")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spans", required=True)
    args = parser.parse_args(argv)

    from repro.data.vocab import build_tokenizer
    from repro.serve import ServeConfig
    from repro.serve.net import NetServerConfig, NetServerThread, TenantConfig

    from .trace import LOOP_PATCHES, PATCHES, install, new_tracer, unattributed_frac

    tokenizer = build_tokenizer()
    tenants = tuple(TenantConfig(name=name, weight=weight)
                    for name, weight in TENANTS.items())
    handle = NetServerThread(
        nano(tokenizer.vocab_size, args.seed), tokenizer, ServeConfig(),
        NetServerConfig(tenants=tenants, default_tenant=None))
    host, port = handle.start()
    server = handle.server
    _reply({"host": host, "port": port})

    tracer = new_tracer()
    patches = None
    windows = []
    try:
        for line in sys.stdin:
            command = line.strip()
            if command == "trace-on":
                patches = install(tracer, PATCHES + LOOP_PATCHES)
                windows.append((tracer.clock(), float("inf")))
                _reply({})
            elif command == "trace-off":
                patches.restore()
                windows[-1] = (windows[-1][0], tracer.clock())
                # Only the event-loop thread runs traced code here, so one
                # span stack (the tracer's) sees every call.
                with open(args.spans, "w") as fh:
                    json.dump(tracer.export_spans(), fh)
                _reply({"unattributed": unattributed_frac(tracer.roots,
                                                          windows),
                        "dropped": tracer.dropped})
            elif command == "stats":
                _reply({"rss_mb": peak_rss_mb(),
                        "ttfts_s": list(server.scheduler.metrics.ttfts)})
            elif command == "stop":
                ledger = handle.drain(grace_s=30.0)
                _reply({"ledger": ledger,
                        "admission_ok": server.admission.conservation_ok()})
                break
    finally:
        handle.stop()
    return 0


if __name__ == "__main__":
    sys.exit(main())
