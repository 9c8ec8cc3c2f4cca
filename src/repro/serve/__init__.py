"""Batched, prefix-caching inference serving.

The deployment layer the ROADMAP's "serves heavy traffic" goal asks for:
instead of one :class:`~repro.nn.infer.InferenceEngine` call per prompt with
a fresh KV cache each time, an :class:`InProcessServer` admits typed
:class:`Request` objects through a continuous micro-batching
:class:`Scheduler`, decodes many sequences per step through a
:class:`BatchedEngine`, reuses shared prompt prefixes from a
:class:`PrefixCachePool`, carries chat state in a :class:`SessionStore`,
and exposes throughput/latency instrumentation via
:meth:`InProcessServer.metrics_snapshot`.

Quickstart::

    from repro.serve import InProcessServer, SamplingParams, ServeConfig

    server = InProcessServer(model, tokenizer)
    for prompt in prompts:                       # shared-prefix traffic
        server.submit_text(prompt, SamplingParams(max_new_tokens=32))
    completions = server.run_until_idle()
    print(server.metrics_snapshot()["tokens_per_second"])

See DESIGN.md §6 and ``repro bench serve`` for the benchmark workflow.

The network front door — real sockets, streaming, multi-tenant admission
control — lives in :mod:`repro.serve.net` (DESIGN.md §9, ``repro
serve-net`` / ``repro bench net``).  Multi-process replica serving
over one inherited weight copy lives in :mod:`repro.serve.fleet`
(DESIGN.md §10, ``repro serve-fleet`` / ``repro bench fleet``).

Cheap-decode serving — int8 weights (``ServeConfig(weight_mode="int8")``),
paged KV allocation (``kv_mode="paged"``), and speculative decoding
(``speculative_tokens=k`` plus a ``draft_model``) — lives across
:mod:`repro.serve.engine`, :mod:`repro.serve.cache`, and the scheduler
(DESIGN.md §11, ``repro bench decode``).  All three paths emit token
streams byte-identical to exact fp32 dense decoding.

The λ-fleet — many merged-model variants (scalar λ, per-layer schedules,
Karcher weights) materialized lazily from one inherited
:class:`~repro.core.merge_engine.MergePlan`, with variant-aware routing
and quality-driven promotion — lives in :mod:`repro.serve.lambda_fleet`
(DESIGN.md §12, ``repro bench lambda``).
"""

from .._lazy import lazy_exports

# Lazy: a process that only needs a light module (the load generator's
# helpers, the request types) does not load the engine and scheduler.
__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".engine": ("BatchedEngine", "DECODE_MODES", "KV_MODES", "WEIGHT_MODES",
                "dequantized_oracle_model"),
    ".request": ("Completion", "FinishReason", "Request", "RequestStatus",
                 "SamplingParams"),
    ".cache": ("ArrayEntry", "BlockEntry", "BlockPool", "BlockPoolError",
               "KVEntry", "PrefixCachePool", "common_prefix_length",
               "common_prefix_length_np"),
    ".scheduler": ("Scheduler", "ServeConfig"),
    ".metrics": ("ServerMetrics",),
    ".sessions": ("SessionState", "SessionStore"),
    ".server": ("CompletionStore", "InProcessServer"),
    ".loadgen": ("ARRIVAL_PROCESSES", "WorkloadSpec", "arrival_schedule",
                 "percentile", "run_multi_tenant_workload",
                 "run_socket_workload", "synthetic_prompts"),
})
