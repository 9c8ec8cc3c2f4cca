"""Tests of the benchmark itself (not collected by the repository suite).

Run with ``python -m pytest bench/test_bench.py`` from the repository root.
"""

from __future__ import annotations

import itertools
import json
import subprocess
import sys

import numpy as np
import pytest

from bench import inputs
from bench.common import ROOT, load_spec, out_path

SPEC = load_spec()
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SEED = 7


def smoke_run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "-m", "bench", "run", "--workload", workload,
         "--seed", str(SEED), "--seconds", "2", "--trace", str(trace),
         "--scale", "smoke"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=300)
    assert proc.returncode == 0
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_emits_every_metric(workload, trace):
    result = smoke_run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    section = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in section}
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    else:
        assert result["metrics"]["trace.unattributed_frac"]["value"] <= 0.10
        check_trace_file(out_path(f"trace-{workload}-seed{SEED}.jsonl"))


def check_trace_file(path):
    """Spans are written depth-first with their depth: a span's children
    are the following spans one level deeper, up to its next sibling."""
    with open(path) as fh:
        spans = [json.loads(line) for line in fh]
    assert spans
    own = [s["duration"] for s in spans]
    open_at_depth = {}
    for i, span in enumerate(spans):
        assert span["start"] <= span["end"]
        open_at_depth[span["depth"]] = i
        if span["depth"] > 0:
            own[open_at_depth[span["depth"] - 1]] -= span["duration"]
    assert min(own) >= -1e-9
    wall = max(s["end"] for s in spans) - min(s["start"] for s in spans)
    assert sum(own) <= wall + 1e-9


def test_same_seed_same_inputs_other_seed_other_inputs():
    from repro.data.vocab import build_tokenizer
    from repro.nn.transformer import TransformerLM, preset_config

    tokenizer = build_tokenizer()
    base = TransformerLM(preset_config("grande", tokenizer.vocab_size,
                                       seed=1)).state_dict()
    pool = inputs.conversation_pool(tokenizer, 100)

    def draw(seed):
        return {
            "arrivals": inputs.arrivals(seed, 45.0, 2.0).tolist(),
            "order": inputs.shuffled_cycle(seed, 294, 300),
            "prompts": list(itertools.islice(
                inputs.random_prompts(seed, tokenizer.vocab_size), 20)),
            "plan": inputs.conversation_plan(seed, 50, len(pool),
                                             {"eng": 3.0, "ops": 1.0}),
            "weights": [np.concatenate([w.ravel() for w in sd.values()])
                        for sd in inputs.merge_pair(seed, base)],
        }

    a, b, c = draw(1), draw(1), draw(2)
    for key in a:
        same = (all(np.array_equal(x, y) for x, y in zip(a[key], b[key]))
                if key == "weights" else a[key] == b[key])
        other = (all(np.array_equal(x, y) for x, y in zip(a[key], c[key]))
                 if key == "weights" else a[key] == c[key])
        assert same, key
        assert not other, key
