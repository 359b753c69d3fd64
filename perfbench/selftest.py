"""Tests of the benchmark itself.

Run from the repository root::

    python3 -m pytest perfbench/selftest.py -q

The smoke tests shrink every workload to a few hundred points and one
second, then check the printed result against ``BENCHMARK.json``.  The
oracle tests feed it deliberately corrupted answers.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys
import tempfile
import threading
import time

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import loadgen  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = ("mixed_batch", "sparse_single", "insert_mix", "pool_fanout")


@pytest.fixture
def tiny(monkeypatch):
    """Shrink every workload so a run takes a few seconds."""
    # run.main points the temp directory into perfbench/out; undo that.
    monkeypatch.setattr(tempfile, "tempdir", tempfile.tempdir)
    for name, value in {
        "MIXED_N": 600,
        "SPARSE_N": 600,
        "HELD_OUT": 200,
        "BATCH": 50,
        "INSERT_BASE": 400,
        "INSERT_TOTAL": 1200,
        "NOMINAL_REQUESTS": 40,
    }.items():
        monkeypatch.setattr(workloads, name, value)


def _declared(section: str) -> dict[str, str]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


def _run(capsys, workload: str, trace: int) -> tuple[int, dict, dict]:
    code = run.main(
        ["--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace)]
    )
    lines = capsys.readouterr().out.strip().splitlines()
    return code, json.loads(lines[-2]) if len(lines) > 1 else {}, json.loads(lines[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_matches_the_declared_schema(tiny, capsys, workload, trace):
    code, info, result = _run(capsys, workload, trace)
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert result["failed"] == 0
    declared = _declared("per_layer" if trace else "end_to_end")
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], float)
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    host = info["host"]
    assert {"nproc", "loadavg", "python", "numpy", "blas"} <= set(host)
    assert "warm_up" in info["details"]


def test_corrupted_answer_fails_the_run(tiny, capsys, monkeypatch):
    real_query = workloads.Index.query

    def corrupted(self, request, radius=None):
        answer = real_query(self, request, radius)
        first = answer[0]
        far = int(self.n - 1) if first.ids.size == 0 else int(first.ids[0])
        bad = dataclasses.replace(
            first,
            ids=np.append(first.ids, far),
            distances=np.append(first.distances, 0.0),
        )
        return type(answer)((bad, *answer[1:]))

    monkeypatch.setattr(workloads.Index, "query", corrupted)
    code, _, result = _run(capsys, "mixed_batch", 0)
    assert code == 1
    assert result == {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}


def test_run_without_the_program_exits_nonzero(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mixed_batch",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode not in (0, None)
    assert '"correct"' not in proc.stdout


# ----------------------------------------------------------------------
# The oracle
# ----------------------------------------------------------------------


@pytest.fixture
def truth():
    rng = np.random.default_rng(0)
    points = rng.uniform(0.0, 1.0, size=(500, 4))
    queries = rng.uniform(0.0, 1.0, size=(5, 4))
    return oracle.Truth(points, queries, 0.3)


def _exact_answer(truth, qi):
    within = truth.dists[qi] <= truth.radius
    return truth.ids[qi][within], truth.dists[qi][within]


def test_oracle_accepts_exact_and_partial_answers(truth):
    ids, dists = _exact_answer(truth, 0)
    assert ids.size > 3
    assert truth.check(0, ids, dists, exact=True) == 1.0
    # An LSH answer may miss neighbours; recall says how many.
    assert truth.check(0, ids[::2], dists[::2], exact=False) < 1.0
    # Row order does not matter.
    assert truth.check(0, ids[::-1], dists[::-1], exact=True) == 1.0


def test_oracle_rejects_an_exact_answer_missing_a_neighbour(truth):
    ids, dists = _exact_answer(truth, 1)
    with pytest.raises(oracle.Violation, match="misses"):
        truth.check(1, ids[1:], dists[1:], exact=True)


def test_oracle_rejects_a_point_beyond_the_radius(truth):
    ids, dists = _exact_answer(truth, 2)
    outside = np.setdiff1d(np.arange(500), truth.ids[2])[0]
    with pytest.raises(oracle.Violation, match="not within"):
        truth.check(2, np.append(ids, outside), np.append(dists, 0.1), exact=False)


def test_oracle_rejects_duplicates_and_wrong_distances(truth):
    ids, dists = _exact_answer(truth, 3)
    with pytest.raises(oracle.Violation, match="duplicate"):
        truth.check(3, np.append(ids, ids[0]), np.append(dists, dists[0]), exact=False)
    with pytest.raises(oracle.Violation, match="distance"):
        truth.check(3, ids, dists + 1e-3, exact=False)


def test_oracle_limits_the_truth_to_present_points(truth):
    ids, dists = _exact_answer(truth, 4)
    present = int(ids[len(ids) // 2])
    keep = ids < present
    assert truth.check(4, ids[keep], dists[keep], exact=True, present=present) == 1.0
    with pytest.raises(oracle.Violation):
        truth.check(4, ids, dists, exact=True, present=present)


def test_oracle_rechecks_a_changed_answer(truth):
    ids, dists = _exact_answer(truth, 0)
    truth.check(0, ids, dists, exact=True)
    with pytest.raises(oracle.Violation):
        truth.check(0, ids[1:], dists[1:], exact=True)


# ----------------------------------------------------------------------
# Spans and the open-loop generator
# ----------------------------------------------------------------------


def test_self_time_subtracts_the_union_of_children():
    # parent [0, 10]; children [1, 4] and [3, 6] overlap (parallel threads).
    recorded = [
        (1, "parent", 0.0, 10.0, 0, 1),
        (2, "child", 1.0, 4.0, 1, 1),
        (3, "child", 3.0, 6.0, 1, 1),
    ]
    rows = spans.self_times(recorded)
    assert rows["parent"]["self_s"] == pytest.approx(5.0)
    assert rows["child"]["calls"] == 2
    assert rows["child"]["self_s"] == pytest.approx(6.0)


def test_recorder_nests_spans_and_anchors_other_threads():
    recorder = spans.SpanRecorder()

    class Layer:
        def outer(self):
            self.inner()
            worker = threading.Thread(target=self.inner)
            worker.start()
            worker.join(timeout=10)
            assert not worker.is_alive()

        def inner(self):
            time.sleep(0.001)

    recorder.wrap(Layer, "outer", "outer")
    recorder.wrap(Layer, "inner", "inner")
    recorder.bind_main_thread()
    recorder.active = True
    recorder.request = 7
    Layer().outer()
    recorder.active = False
    recorder.restore()
    by_name = {}
    for span in recorder.spans:
        by_name.setdefault(span[1], []).append(span)
    (outer,) = by_name["outer"]
    assert [span[4] for span in by_name["inner"]] == [outer[0], outer[0]]
    assert {span[5] for span in recorder.spans} == {7}
    assert not hasattr(Layer.inner, "__wrapped__")


def test_open_loop_charges_latency_from_the_schedule():
    rng = np.random.default_rng(0)

    def slow(_):
        time.sleep(0.004)
        return True

    # 500/s against a 4 ms call: the queue must build.
    overloaded = loadgen.run_open_loop(slow, list(range(100)), 500.0, rng)
    assert overloaded.growing()
    assert overloaded.latencies[-1] > 0.05
    relaxed = loadgen.run_open_loop(lambda _: True, list(range(50)), 200.0, rng)
    assert not relaxed.growing()
    assert relaxed.errors == 0
