"""Tests of the benchmark itself.

Run from the root of a checkout::

    python3 -m pytest perfbench/tests -q

The full-size runs replay one cycle per workload and take a few minutes.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
from spans import ROOT as ROOT_SPAN  # noqa: E402
from spans import Recorder  # noqa: E402
from workloads import RECORDED_SEED, WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
PREDICTIONS = json.loads((BENCH / "predictions.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
#: a seed no pinned value or tuning run used
HELD_OUT_SEED = 2


def _declared(section: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in SPEC[section]}


def _run(workload: str, seed: int, trace: int, scale: str, *extra: str) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed)]
    cmd += ["--seconds", "0", "--trace", str(trace), "--scale", scale, *extra]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], done.stdout
    assert result["failed"] == 0 and result["attempted"] >= 1
    return result


def test_benchmark_json_follows_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["perfbench"]
    assert set(SPEC["workloads"][0]) == {"name", "why"}
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS) == list(run.WORKLOAD_NAMES)
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
        assert re.fullmatch(r"[A-Za-z0-9_.-]+", name), name
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.fullmatch(metric["unit"]), metric
        assert metric["better"] in ("higher", "lower")
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_predictions_name_declared_metrics_and_workloads():
    per_layer = set(_declared("per_layer"))
    end_to_end = set(_declared("end_to_end"))
    listed = {m for layer in PREDICTIONS["layers"].values() for m in layer["metrics"]}
    assert listed == per_layer
    assert set(PREDICTIONS["workloads"]) == set(WORKLOADS)
    for layer in PREDICTIONS["layers"].values():
        if isinstance(layer["moves"], dict):
            for workload, moved in layer["moves"].items():
                assert workload in WORKLOADS
                if isinstance(moved, list):
                    assert set(moved) <= end_to_end
    for kind in ("zero", "nonzero"):
        for workload, metrics in PREDICTIONS[kind].items():
            assert workload in WORKLOADS
            assert set(metrics) <= per_layer


def test_tail_is_the_highest_percentile_with_ten_requests_beyond():
    walls = [float(i) for i in range(40)]
    assert run._tail(walls) == (29.0, 75.0)
    assert run._tail([3.0, 1.0, 2.0]) == (3.0, 100.0)


def test_self_time_subtracts_child_spans_and_closes():
    rec = Recorder()

    def child() -> None:
        time.sleep(0.02)

    def parent() -> None:
        time.sleep(0.01)
        traced_child()

    traced_child = rec.wrap(child, "sched")
    traced_parent = rec.wrap(parent, "sim")
    _, wall = rec.run_request(0, traced_parent)
    assert rec.calls == {"request": 1, "sim": 1, "sched": 1}
    assert rec.self_s["sched"] >= 0.02
    assert 0.01 <= rec.self_s["sim"] < 0.02
    assert rec.self_s[ROOT_SPAN] < 0.005
    assert sum(rec.self_s.values()) == pytest.approx(wall, rel=0.01)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_tiny_run_emits_every_declared_metric(workload, trace):
    result = _run(workload, RECORDED_SEED, trace, "tiny")
    declared = _declared("per_layer" if trace else "end_to_end")
    assert {k: m["unit"] for k, m in result["metrics"].items()} == declared
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_one_command_runs_every_workload():
    result = _run("all", RECORDED_SEED, 0, "tiny")
    expected = {f"{w}/{m}": u for w in WORKLOADS for m, u in _declared("end_to_end").items()}
    assert {k: m["unit"] for k, m in result["metrics"].items()} == expected


def test_spans_file_holds_every_span(tmp_path):
    path = tmp_path / "spans.bin"
    result = _run("traced-transcode", RECORDED_SEED, 1, "tiny", "--spans", str(path))
    meta = json.loads(Path(f"{path}.json").read_text())
    rows = np.fromfile(path, dtype=[tuple(field) for field in meta["dtype"]])
    assert len(rows) == meta["rows"]
    names = np.array(meta["names"])[rows["name"]]
    roots = rows["parent"] < 0
    assert set(names[roots]) == {ROOT_SPAN}
    assert roots.sum() == result["attempted"]
    assert (rows["end"] >= rows["start"]).all()
    assert (rows["parent"][~roots] < np.flatnonzero(~roots)).all()
    sched = (names == "sched").sum() / result["attempted"]
    assert sched == result["metrics"]["sched.calls"]["value"]


@pytest.mark.parametrize("seed", [RECORDED_SEED, HELD_OUT_SEED])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_output_checks_pass_at_recorded_and_held_out_seed(workload, seed):
    _run(workload, seed, 0, "full")


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_traced_run_reproduces_untraced_outputs(workload):
    # the run fails its checks when a traced pass's simulated outputs differ
    # from the untraced pass's, or a zero-work prediction does not hold
    result = _run(workload, RECORDED_SEED, 1, "full")
    assert result["metrics"]["trace.overhead_ratio"]["value"] > 1.0


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    cmd = [sys.executable, "perfbench/run.py", "--workload", "fleet-mixed", "--seed", "1"]
    cmd += ["--seconds", "1", "--trace", "0"]
    done = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert "correct" not in done.stdout
