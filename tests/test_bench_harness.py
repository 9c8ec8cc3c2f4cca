"""The shared benchmark harness (:mod:`repro.bench`) and ``repro bench``."""

import gc
import json
from typing import Optional

import pytest

from repro.bench import Gate, failed, paired, write_snapshot
from repro.cli import main


def _fake_arms(durations):
    """Two arms that advance a fake clock by their next scripted duration
    and log their name on each call."""
    now, log = [0.0], []

    def arm(name):
        steps = iter(durations[name])

        def run():
            log.append(name)
            now[0] += next(steps)
        return run
    return arm("a"), arm("b"), (lambda: now[0]), log


def test_paired_alternates_order_after_one_warmup_per_arm():
    a, b, clock, log = _fake_arms({"a": [9, 1, 1, 1, 1], "b": [9, 1, 1, 1, 1]})
    paired(a, b, 4, clock=clock)
    assert log == ["a", "b", "a", "b", "b", "a", "a", "b", "b", "a"]


def test_paired_median_and_quartiles_on_even_rounds():
    # Warm-up durations (first entries) are never timed.  Per-round a/b
    # ratios are 1, 4, 2, 3: the median of an even count is the mean of
    # the two middle values, not the upper one.
    a, b, clock, _ = _fake_arms({"a": [100, 1, 4, 2, 3],
                                 "b": [100, 1, 1, 1, 1]})
    timing = paired(a, b, 4, clock=clock)
    assert timing.a_s == [1, 4, 2, 3] and timing.b_s == [1, 1, 1, 1]
    assert timing.ratios == [1, 4, 2, 3]
    assert timing.ratio == 2.5
    assert timing.quartiles == [1.75, 3.25]
    assert timing.seconds == (2.5, 1)
    a, b, clock, _ = _fake_arms({"a": [0, 3], "b": [0, 2]})
    assert paired(a, b, 1, clock=clock).quartiles == [1.5, 1.5]


def test_paired_reenables_gc_when_an_arm_raises():
    def boom():
        if calls:
            raise RuntimeError("arm failed")
        calls.append(1)
    calls = []
    with pytest.raises(RuntimeError, match="arm failed"):
        paired(lambda: None, boom, 3)
    assert gc.isenabled()
    with pytest.raises(ValueError):
        paired(lambda: None, lambda: None, 0)


def test_gate_waiver_and_fallback():
    assert Gate("x", 1.0, 2.0, ">=").as_dict() == {
        "metric": "x", "value": 1.0, "target": 2.0, "op": ">=",
        "waiver_reason": None, "applies": True, "ok": False}
    target, floor = Gate.speedup(0.5, 2.0, 0.33, "1 core(s) < 4 workers")
    assert not target.applies and not target.ok
    assert floor.applies and floor.ok
    # A waived failing gate never fails the run; an applied one does.
    assert failed([target.as_dict(), floor.as_dict()]) == []
    target, floor = Gate.speedup(0.5, 2.0, 0.33, None)
    assert failed([target.as_dict(), floor.as_dict()]) == [target.as_dict()]
    assert Gate.needs_cores(1, "workers") is None
    assert "core(s) < 100000 workers" in Gate.needs_cores(100000, "workers")
    with pytest.raises(ValueError):
        Gate("x", 1, 1, "~")


def _fake_train(gates):
    def run(backbone: str = "nano", steps: int = 10,
            seq_len: Optional[int] = None, lr: float = 1e-3):
        return {"gates": [g.as_dict() for g in gates], "steps": steps}
    return run


@pytest.mark.parametrize("gates, code", [
    ([Gate("speedup", 3.0, 1.5, ">=")], 0),
    ([Gate("speedup", 1.0, 1.5, ">=", "waived for the test")], 0),
    ([Gate("speedup", 1.0, 1.5, ">=")], 1),
])
def test_bench_cli_exit_code_follows_applied_gates(monkeypatch, tmp_path,
                                                   capsys, gates, code):
    from repro.nn import train_bench

    monkeypatch.setattr(train_bench, "run_train_benchmark", _fake_train(gates))
    monkeypatch.setattr(train_bench, "format_train_report",
                        lambda result: f"steps {result['steps']}")
    out = tmp_path / "snap.json"
    assert main(["bench", "train", "--json", str(out), "steps=3"]) == code
    assert "steps 3" in capsys.readouterr().out
    assert json.loads(out.read_text())["gates"] == [g.as_dict() for g in gates]


@pytest.mark.parametrize("argv", [
    ["bench", "nope"],
    ["bench", "train", "bogus=1"],
    ["bench", "train", "steps"],
    ["bench", "train", "steps=ten"],
    ["bench", "train", "--bogus"],
])
def test_bench_cli_rejects_unknown_names_and_keys(argv, capsys):
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse rejects an unknown NAME
        code = exc.code
    assert code == 2
    if argv[1] == "train":
        assert "valid keys: backbone, steps" in capsys.readouterr().err


def test_bench_keys_are_the_run_signature():
    from repro.cli import _bench_kwargs
    from repro.nn.train_bench import run_train_benchmark

    assert _bench_kwargs(run_train_benchmark,
                         ["seq_len=None", "lr=0.5", "backbone=grande"]) == {
        "seq_len": None, "lr": 0.5, "backbone": "grande"}
    with pytest.raises(ValueError, match="valid keys"):  # not a CLI value
        _bench_kwargs(run_train_benchmark, ["obs=1"])


def test_write_snapshot_is_sorted_json(tmp_path):
    path = tmp_path / "s.json"
    write_snapshot({"b": 1, "a": [1.5]}, path)
    assert path.read_text() == '{\n  "a": [\n    1.5\n  ],\n  "b": 1\n}\n'
