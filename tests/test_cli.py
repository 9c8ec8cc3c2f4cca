"""CLI tests (merge and merge-many commands run fully offline on tiny models)."""

import argparse
import importlib
import json

import numpy as np
import pytest

from repro.bench import failed
from repro.cli import BENCHMARKS, build_parser, main
from repro.nn.checkpoint import load_model, save_model
from repro.nn.transformer import TransformerConfig, TransformerLM


@pytest.fixture
def checkpoints(tmp_path):
    config = TransformerConfig(vocab_size=16, dim=8, n_layers=1, n_heads=2,
                               max_seq_len=8, seed=0)
    paths = {}
    for name, seed_shift in (("chip", 0.02), ("instruct", -0.02), ("base", 0.0)):
        model = TransformerLM(config)
        model.tok_emb.weight.data = model.tok_emb.weight.data + np.float32(seed_shift)
        path = tmp_path / name
        save_model(model, path)
        paths[name] = path
    return config, paths, tmp_path


def test_parser_has_all_commands():
    parser = build_parser()
    subparsers = next(action for action in parser._actions
                      if isinstance(action, argparse._SubParsersAction))
    # Exactly these: every timed claim runs through ``repro bench NAME``,
    # so the old per-benchmark subcommands are gone.
    assert set(subparsers.choices) == {
        "merge", "merge-many", "sweep", "zoo", "chat", "table", "serve-net",
        "serve-fleet", "bench", "obs-report"}
    for name in ("decode", "kvplane", "fleet", "lambda", "merge", "net",
                 "parallel", "serve", "train"):
        assert parser.parse_args(["bench", name]).name == name


def test_every_benchmark_module_exposes_its_driver():
    for name, (module_name, _) in BENCHMARKS.items():
        module = importlib.import_module(module_name)
        assert callable(getattr(module, f"run_{name}_benchmark"))
        assert callable(getattr(module, f"format_{name}_report"))


def test_obs_report_command(capsys, tmp_path):
    """obs-report runs the end-to-end flow and prints the span tree plus
    registry snapshot; the fake clock makes the trace deterministic."""
    jsonl = tmp_path / "spans.jsonl"
    code = main(["obs-report", "--fake-clock", "--epochs", "2",
                 "--items", "2", "--jsonl", str(jsonl)])
    out = capsys.readouterr().out
    assert code == 0
    assert "== span tree ==" in out
    assert "obs_report.flow" in out and "serve.decode_step" in out
    assert "== metric registry ==" in out
    assert '"merge.plans": 1' in out
    assert "== flow summary ==" in out
    assert jsonl.exists() and "obs_report.flow" in jsonl.read_text()


def test_merge_command(checkpoints, capsys):
    config, paths, tmp = checkpoints
    out = tmp / "merged"
    code = main(["merge", "--chip", str(paths["chip"]),
                 "--instruct", str(paths["instruct"]),
                 "--lam", "0.6", "--output", str(out)])
    assert code == 0
    merged, meta = load_model(out)
    assert meta["method"] == "chipalign" and meta["lam"] == 0.6
    assert merged.config == config


def test_merge_command_with_base_method(checkpoints, capsys):
    _, paths, tmp = checkpoints
    out = tmp / "merged_ties"
    code = main(["merge", "--chip", str(paths["chip"]),
                 "--instruct", str(paths["instruct"]),
                 "--base", str(paths["base"]),
                 "--method", "ties", "--output", str(out)])
    assert code == 0
    _, meta = load_model(out)
    assert meta["method"] == "ties"


def test_merge_rejects_architecture_mismatch(checkpoints, tmp_path, capsys):
    _, paths, tmp = checkpoints
    other = TransformerLM(TransformerConfig(vocab_size=16, dim=16, n_layers=1,
                                            n_heads=2, max_seq_len=8, seed=0))
    other_path = tmp_path / "other"
    save_model(other, other_path)
    code = main(["merge", "--chip", str(paths["chip"]),
                 "--instruct", str(other_path),
                 "--output", str(tmp / "x")])
    assert code == 2


def test_bench_merge_cli_smoke(checkpoints, tmp_path, capsys):
    """``repro bench merge`` on two tiny checkpoints: the engine's sweep
    matches the naive loop, and the exit code follows the gates (at this
    toy size the engine may miss the speedup floor)."""
    _, paths, _ = checkpoints
    out = tmp_path / "merge.json"
    code = main(["bench", "merge", f"chip={paths['chip']}",
                 f"instruct={paths['instruct']}", "points=5", "repeats=1",
                 "--json", str(out)])
    result = json.loads(out.read_text())
    assert code == (1 if failed(result["gates"]) else 0)
    gates = {g["metric"]: g for g in result["gates"]}
    assert gates["allclose"]["ok"]
    assert result["points"] == 5 and result["header"]["cpu_count"] >= 1
    assert "speedup" in capsys.readouterr().out


def test_bench_merge_rejects_lone_checkpoint(checkpoints, capsys):
    _, paths, _ = checkpoints
    assert main(["bench", "merge", f"chip={paths['chip']}"]) == 2
    assert "chip= and instruct=" in capsys.readouterr().err


def test_bench_serve_cli_smoke(tmp_path, capsys):
    out = tmp_path / "serve.json"
    code = main(["bench", "serve", "requests=3", "prefix_tokens=10",
                 "unique_tokens=2", "decode_tokens=3", "max_batch=3",
                 "vocab=24", "repeats=1", "--json", str(out)])
    result = json.loads(out.read_text())
    assert code == (1 if failed(result["gates"]) else 0)
    assert result["header"]["cpu_count"] >= 1
    gates = {g["metric"]: g for g in result["gates"]}
    assert gates["parity.exact"]["ok"]
    assert "speedup" in capsys.readouterr().out


def test_bench_serve_rejects_overlong_prompt(capsys):
    # nano's context window is 176 tokens.
    assert main(["bench", "serve", "prefix_tokens=170", "unique_tokens=4",
                 "decode_tokens=8"]) == 2
    assert "context window" in capsys.readouterr().err


def test_merge_many_command(checkpoints, capsys):
    _, paths, tmp = checkpoints
    out = tmp / "karcher"
    code = main(["merge-many", str(paths["chip"]), str(paths["instruct"]),
                 str(paths["base"]), "--output", str(out)])
    assert code == 0
    merged, meta = load_model(out)
    assert meta["method"] == "karcher"
    ids = np.array([[1, 2]])
    assert np.isfinite(merged(ids).data).all()
