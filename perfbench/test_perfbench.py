"""Tests of the benchmark itself: `python3 -m pytest perfbench`."""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

from spans import LayerStats, SpanRecorder  # noqa: E402


def test_self_time_subtracts_direct_children_only():
    # job [0, 10] > a [1, 5] > b [2, 3];  job > b [6, 8]
    stats = LayerStats(
        ["job", "a", "b"],
        name_id=[0, 1, 2, 2],
        start=[0.0, 1.0, 2.0, 6.0],
        end=[10.0, 5.0, 3.0, 8.0],
        parent=[-1, 0, 1, 0],
    )
    assert stats.summary("job")["self_s"] == 10.0 - 4.0 - 2.0
    assert stats.summary("a")["self_s"] == 3.0
    assert stats.summary("b") == {"calls": 2, "total_s": 3.0, "self_s": 3.0, "p50_us": 1.5e6, "p99_us": 1.99e6}
    assert stats.summary("missing")["calls"] == 0
    assert list(stats.children_named("a", "b")) == [1]
    assert list(stats.children_named("job", "b")) == [1]


def test_recorder_wraps_callers_lookup_and_restores_it():
    from consensusgame import agents, consensus, harness, setfn

    originals = (harness.step_strategic, agents.deviation_disutility, setfn.SetFunction.__post_init__)
    recorder = SpanRecorder()
    recorder.install()
    try:
        assert harness.step_strategic is consensus.step_strategic
        import numpy as np

        agents.step_reward(np.zeros((2, 2)), np.array([0.5, 0.5]), 1.0, 0.1, np.zeros(2))
        setfn.SetFunction(1, np.array([0.0, 1.0]))
    finally:
        recorder.uninstall()
    assert (harness.step_strategic, agents.deviation_disutility, setfn.SetFunction.__post_init__) == originals
    names = [recorder.names[i] for i in recorder.name_id]
    assert names == ["agents.step_reward", "consensus.deviation_disutility", "setfn.SetFunction"]
    assert list(recorder.parent) == [-1, 0, -1]


def test_smoke_run_prints_every_named_metric_with_its_unit():
    result = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke"],
        capture_output=True, text=True, timeout=600, cwd=HERE.parent,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert result.stdout.count(" ok") == 2 * len(spec["workloads"])
