"""Tests of the benchmark itself, on its short mode.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
#: the most of the traced wall time that no layer span may cover
#: (traced runs leave about 0.01 of it uncovered, short or full size)
UNATTRIBUTED_MAX = 0.05

sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

from common import PARALLEL_REFERENCE_S, REFERENCE_S, Seeds, SpeedReference  # noqa: E402
from tracing import LAYER_SPANS, Tracer  # noqa: E402


def run_bench(workload: str, trace: int, cwd: Path = ROOT, script: Path = HERE / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--short"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def result_line(completed) -> dict:
    assert completed.returncode == 0, completed.stderr[-2000:]
    return json.loads(completed.stdout.strip().splitlines()[-1])


def test_spec_shape():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert 2 <= len(SPEC["workloads"]) <= 8
    names = [w["name"] for w in SPEC["workloads"]]
    names += [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert all(NAME.match(name) for name in names)
    assert len(set(names)) == len(names)
    for workload in SPEC["workloads"]:
        assert set(workload) == {"name", "why"} and len(workload["why"]) <= 200
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25 and UNIT.match(metric["unit"])
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"} and UNIT.match(metric["unit"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_short_run_emits_every_end_to_end_metric(workload):
    result = result_line(run_bench(workload, 0))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {name: value["unit"] for name, value in result["metrics"].items()} == units
    for name, value in result["metrics"].items():
        assert value["value"] > 0, name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_short_traced_run_reconciles(workload):
    started = time.perf_counter()
    completed = run_bench(workload, 1)
    elapsed = time.perf_counter() - started
    result = result_line(completed)
    assert result["correct"] is True and result["failed"] == 0
    units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {name: value["unit"] for name, value in result["metrics"].items()} == units
    metrics = {name: value["value"] for name, value in result["metrics"].items()}
    wall = metrics["trace.wall_s"]
    assert 0 < wall < elapsed

    detail = json.loads((ROOT / ".perfbench_work" / f"{workload}-s3-t1" / "result.json").read_text())
    spans = detail["spans"]
    # a tree: each span inside its parent (top-level spans inside the
    # traced wall, timed outside every span), siblings in sequence
    last_end = defaultdict(float)
    for name, start, end, parent in spans:
        low, high = (0.0, wall) if parent < 0 else spans[parent][1:3]
        assert low <= start <= end <= high, name
        assert start >= last_end[parent], name
        last_end[parent] = end

    # self times recomputed from the spans are the reported ones
    covered_by_children = defaultdict(float)
    for _, start, end, parent in spans:
        if parent >= 0:
            covered_by_children[parent] += end - start
    self_times = defaultdict(float)
    for index, (name, start, end, _) in enumerate(spans):
        self_times[name] += end - start - covered_by_children[index]
    assert set(self_times) == set(LAYER_SPANS)
    for span in LAYER_SPANS:
        assert metrics[f"{span}_s"] == pytest.approx(self_times[span], rel=1e-6, abs=1e-9)
        assert metrics[f"{span}_s"] > 0, span

    # the self times and the unattributed share add up to the wall
    attributed = sum(self_times.values())
    assert attributed <= wall
    assert metrics["trace.unattributed_frac"] == pytest.approx(1 - attributed / wall, abs=1e-6)
    assert metrics["trace.unattributed_frac"] <= UNATTRIBUTED_MAX


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    completed = run_bench(WORKLOADS[0], 0, cwd=tmp_path, script=tmp_path / "perfbench" / "run.py")
    assert completed.returncode != 0
    assert completed.stdout == ""


def test_seeds_are_stable_and_disjoint():
    first, second = Seeds(7), Seeds(7)
    roles = {"train": 1, "host": 6, "row": 3, "heldout": 3}
    taken = {role: first.take(role, count) for role, count in roles.items()}
    assert taken == {role: second.take(role, count) for role, count in roles.items()}
    assert first.take("host", 6) == taken["host"]
    every = [seed for seeds in taken.values() for seed in seeds]
    assert len(set(every)) == len(every)
    assert Seeds(8).take("host", 6) != taken["host"]


def test_nesting_errors_catch_a_broken_tree():
    tracer = Tracer()
    tracer.spans = [
        ["outer", 1.0, 5.0, -1],
        ["inner", 0.5, 2.0, 0],  # starts before its parent
        ["inner", 1.5, 3.0, 0],  # overlaps its previous sibling
        ["late", 4.0, 11.0, -1],  # overlaps "outer", ends after the wall
    ]
    errors = tracer.nesting_errors(0.0, 10.0)
    assert [error.split(" ", 3)[2:] for error in errors] == [
        ["(inner)", "lies outside its parent"],
        ["(inner)", "overlaps its previous sibling"],
        ["(late)", "lies outside its parent"],
        ["(late)", "overlaps its previous sibling"],
    ]
    assert len(tracer.nesting_errors(0.0, 20.0)) == 3
    tracer.spans = tracer.spans[:1]
    assert tracer.nesting_errors(0.0, 10.0) == []


def test_self_time_subtracts_children():
    tracer = Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
        with tracer.span("inner"):
            pass
    (_, o_start, o_end, _), (_, a_start, a_end, _), (_, b_start, b_end, _) = tracer.spans
    self_times = tracer.self_times()
    assert self_times["inner"] == pytest.approx((a_end - a_start) + (b_end - b_start))
    assert self_times["outer"] == pytest.approx((o_end - o_start) - self_times["inner"])
    assert tracer.top_level_seconds() == pytest.approx(sum(self_times.values()))


def test_speed_reference_normalizes_toward_the_reference_speed():
    speed = SpeedReference()
    speed.measure()
    assert speed.samples[0] > 0
    speed.samples = [REFERENCE_S * 2, REFERENCE_S * 2, REFERENCE_S * 9]  # a slow run
    assert speed.factor() == pytest.approx(2.0)
    measured = {"setup_s": 4.0, "events_per_s": 100.0, "alert_tpr": 0.9}
    normalized = speed.normalize(measured, ["setup_s"], ["events_per_s"])
    assert normalized == {"setup_s": 2.0, "events_per_s": 200.0, "alert_tpr": 0.9}


def test_parallel_reference_runs_in_every_worker_and_stops():
    speed = SpeedReference(2)
    try:
        speed.measure()
    finally:
        speed.close()
    assert len(speed.samples) == len(speed.parallel_samples) == 1
    assert speed.parallel_samples[0] > 0 and speed.pool is None
    assert speed.factor(parallel=True) == pytest.approx(
        speed.parallel_samples[0] / PARALLEL_REFERENCE_S
    )
