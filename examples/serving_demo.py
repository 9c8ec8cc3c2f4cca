"""Serving subsystem tour: concurrent traffic, priorities, and chat sessions.

Simulates the deployment shape ChipAlign targets — many engineers asking an
assistant questions at once — without needing a trained checkpoint: a
random-weight nano backbone serves a synthetic burst through the continuous
micro-batching scheduler, then the demo walks through priority scheduling,
deadline expiry, and a two-turn chat session whose KV state is carried
between turns.

Run:  python examples/serving_demo.py
"""

from repro.nn.transformer import TransformerLM, preset_config
from repro.serve import (InProcessServer, SamplingParams, ServeConfig,
                         WorkloadSpec, synthetic_prompts)
from repro.serve.serve_bench import format_serve_report, run_serve_benchmark


def banner(title):
    print(f"\n=== {title} ===")


def main():
    banner("1. serial vs batched+prefix-cached throughput")
    # The same random-weight nano model and burst this demo serves below.
    print(format_serve_report(run_serve_benchmark(repeats=3)))

    model = TransformerLM(preset_config("nano", vocab_size=128, seed=0))
    spec = WorkloadSpec(n_requests=16, shared_prefix_tokens=120,
                        unique_tokens=12, max_new_tokens=24,
                        vocab_size=128, seed=0)

    banner("2. priorities: a late VIP request overtakes the queue")
    server = InProcessServer(model, config=ServeConfig(max_batch_size=1))
    prompts = synthetic_prompts(spec)
    params = SamplingParams(max_new_tokens=4)
    bulk = [server.submit(p, params=params) for p in prompts[:3]]
    vip = server.submit(prompts[3], params=params, priority=10)
    finish_order = []
    while not server.idle:
        finish_order.extend(c.request_id for c in server.step())
    print(f"submitted: {bulk + [vip]} (last one priority=10)")
    print(f"finished : {finish_order}")
    assert finish_order[0] == vip

    banner("3. deadlines: stale requests expire instead of wasting compute")
    server = InProcessServer(model, config=ServeConfig(max_batch_size=1))
    keep = server.submit(prompts[0], params=params)
    drop = server.submit(prompts[1], params=params, deadline=0.0)
    server.run_until_idle()
    for rid in (keep, drop):
        completion = server.result(rid)  # handed over once
        print(f"{rid}: {completion.status:<8} ({completion.finish_reason})")

    banner("4. chat sessions: turn 2 reuses turn 1's KV state")
    server = InProcessServer(model, config=ServeConfig(max_batch_size=4))
    turn1 = list(prompts[0][:40])
    first = server.chat("alice", turn1, params=SamplingParams(max_new_tokens=8))
    # The canonical grammar replays the conversation, so turn 2's prompt
    # extends turn 1's tokens — exactly what the session store caches.
    turn2 = turn1 + list(first.token_ids) + list(prompts[1][:10])
    second = server.chat("alice", turn2, params=SamplingParams(max_new_tokens=8))
    print(f"turn 1: prefilled {first.prefill_tokens} tokens, "
          f"reused {first.cached_prefix_tokens}")
    print(f"turn 2: prefilled {second.prefill_tokens} tokens, "
          f"reused {second.cached_prefix_tokens} from the session")

    banner("5. instrumentation snapshot")
    for key, value in sorted(server.metrics_snapshot().items()):
        print(f"{key:<24} {value}")


if __name__ == "__main__":
    main()
