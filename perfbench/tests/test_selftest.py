"""Tiny-size self-test of the benchmark.

    python3 -m pytest perfbench/tests

Checks that the printed metric names and units match BENCHMARK.json, that
a corrupted output counts as a failed operation, and that the benchmark
refuses to run without the learntags sources.
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)

import run  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


def bench(capsys, workload: str, trace: int = 0, seed: int = 3) -> tuple[int, dict]:
    code = run.main(["--workload", workload, "--seed", str(seed), "--seconds", "0.2",
                     "--trace", str(trace), "--scale", "0.2"])
    return code, json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", ["uniform", "match"])
@pytest.mark.parametrize("trace", [0, 1])
def test_metric_names_match_benchmark_json(capsys, workload, trace):
    code, result = bench(capsys, workload, trace)
    assert code == 0 and result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared}


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)


def test_layer_map_names_declared_metrics():
    with open(os.path.join(BENCH_DIR, "layers.json"), encoding="utf-8") as fh:
        layers = json.load(fh)
    per_layer = {m["name"] for m in SPEC["per_layer"]}
    end_to_end = {m["name"] for m in SPEC["end_to_end"]}
    workloads = {w["name"] for w in SPEC["workloads"]}
    assert set(layers) == per_layer
    for entry in layers.values():
        assert set(entry["moves"]) <= end_to_end
        assert set(entry["on"]) <= workloads


def _corrupt_report(original):
    def render_report(store):
        return original(store).replace("[", "(", 1)
    return render_report


def _corrupt_ranking(original):
    def match_resources(*args, **kwargs):
        return list(reversed(original(*args, **kwargs)))
    return match_resources


@pytest.mark.parametrize("workload, module, attr, corrupt", [
    ("uniform", "pipeline", "render_report", _corrupt_report),
    ("match", "cli", "match_resources", _corrupt_ranking),
])
def test_corrupted_output_counts_as_failed(capsys, monkeypatch, workload, module, attr,
                                           corrupt):
    cli, _, pipeline = run.load_learntags()
    target = {"pipeline": pipeline, "cli": cli}[module]
    monkeypatch.setattr(target, attr, corrupt(getattr(target, attr)))
    code, result = bench(capsys, workload)
    assert code != 0
    assert result["correct"] is False
    assert 1 <= result["failed"] <= result["attempted"]
    assert result["metrics"]["ok_rate"]["value"] < 1


def test_same_seed_gives_same_inputs(tmp_path):
    import gen

    for out in ("a", "b"):
        gen.write_corpus("planted", 5, str(tmp_path / out), scale=0.2)
    for name in ("ratings.csv", "profiles.csv", "archetypes.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "uniform", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
