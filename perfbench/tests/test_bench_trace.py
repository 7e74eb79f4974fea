"""Tracing leaves verdicts alone, reports every layer, and the command keeps its contract."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import smoothchains
import sweep
import trace_layers
from smoothchains import admissible, orders

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent


def verdicts(result):
    return {r[0]: (r[1], r[2], r[3], r[4], r[6]) for r in result["elements"]}


def traced_pass(kind, size):
    tracer = trace_layers.Tracer()
    tracer.install()
    try:
        result = sweep.run_pass(kind, size, seed=2, tracer=tracer)
    finally:
        tracer.uninstall()
    return tracer, result


def test_traced_pass_reaches_the_plain_verdicts():
    for kind, size in (("theorem", 5), ("orders", 5), ("conjecture", 3)):
        plain = sweep.run_pass(kind, size, seed=2)
        _, traced = traced_pass(kind, size)
        assert verdicts(traced) == verdicts(plain)


def test_tracer_sees_calls_made_inside_the_package_and_restores_them():
    original = orders.c23
    tracer, result = traced_pass("theorem", 5)
    summary = tracer.summary()
    # c23 runs once from the driver and once inside construct_compatible_order.
    assert summary["admissible.c23.calls"] == 2 * len(result["elements"])
    nested = [s for s in tracer.spans if s[0] == "admissible.c23" and s[3] != -1]
    assert len(nested) == len(result["elements"])
    assert orders.c23 is original and admissible.c23 is original
    assert smoothchains.c23 is original
    assert summary["absent"] == []


def test_missing_layer_is_reported_absent(monkeypatch):
    gone = ("orders.gone", "smoothchains.orders", "no_such_function", "span")
    monkeypatch.setattr(trace_layers, "LAYERS", trace_layers.LAYERS + (gone,))
    tracer = trace_layers.Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.absent == ["smoothchains.orders.no_such_function"]


def bench(*argv, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *argv],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_traced_run_prints_every_per_layer_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    out = bench("--workload", "d5-conjecture", "--seed", "4", "--seconds", "1", "--trace", "1")
    assert out.returncode == 0, out.stderr
    line = json.loads(out.stdout.splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0
    assert list(line["metrics"]) == [m["name"] for m in spec["per_layer"]]
    assert line["metrics"]["type_d.product_of_root_order.calls"]["value"] > 0
    assert line["metrics"]["admissible.c23.calls"]["value"] == 0


def test_without_the_package_source_the_command_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    out = bench("--workload", "a6-orders", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
