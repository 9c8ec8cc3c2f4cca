"""CLI tests (merge and merge-many commands run fully offline on tiny models)."""

import numpy as np
import pytest

from repro.cli import build_parser, main
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
    text = parser.format_help()
    for command in ("merge", "merge-many", "sweep", "zoo", "chat", "table",
                    "merge-sweep", "serve-bench", "obs-report", "bench"):
        assert command in text
    assert "bench-lambda" not in text
    for name in ("decode", "kvplane", "fleet", "lambda", "net", "parallel",
                 "train"):
        assert parser.parse_args(["bench", name]).name == name


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


def test_merge_sweep_command(checkpoints, capsys):
    """merge-sweep on two tiny checkpoints: reports timings and exits 0
    only when the engine's sweep matches the naive loop."""
    _, paths, _ = checkpoints
    code = main(["merge-sweep", "--chip", str(paths["chip"]),
                 "--instruct", str(paths["instruct"]),
                 "--points", "5", "--repeats", "1"])
    out = capsys.readouterr().out
    assert code == 0
    assert "outputs allclose      : True" in out
    assert "speedup" in out


def test_merge_sweep_rejects_lone_checkpoint(checkpoints, capsys):
    _, paths, _ = checkpoints
    assert main(["merge-sweep", "--chip", str(paths["chip"])]) == 2


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
