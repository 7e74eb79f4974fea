"""smoothchains benchmark: exhaustive sweeps timed end to end and per layer.

    python3 perfbench/run.py --workload a8-theorem --seed 1 --seconds 40 --trace 0

Each pass of a workload runs ``sweep.py`` in a fresh interpreter, so the
package's caches start empty as they do for a command line user; this
process times it from outside (spawn to population ready, spawn to last
verdict) and reads the child's own peak RSS from ``os.wait4``.  Rounds
of three set-up-only start-ups and one full pass repeat while another
round fits in ``--seconds``, at least one, and each end-to-end metric is
a median over passes (``setup_s`` over all start-ups; the latency
percentiles pool the decided elements of every pass).  Every pass must
clear the oracle gate in ``oracle.py`` and reach the same per-element
verdicts as the others; a wrong verdict fails the run and is never a
metric.

With ``--trace 1`` the run makes one plain pass and one traced pass
(``trace_layers.py``), checks that both reach the same verdicts, and
reports the per-layer metrics; the plain pass's ``verdict_s`` beside the
traced one is the tracing overhead.

``--seed`` only shuffles the order elements are fed in.  Without
``--workload`` every workload runs in turn.  The last line of output is
one JSON object per the contract in ``BENCHMARK.json``.  Metric names
and units come from ``BENCHMARK.json``; the per-layer to end-to-end map
is in ``README.md`` beside this file.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import oracle

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

CHILD_TIMEOUT_S = 150
# Cold start-ups before each full pass that stop once the population is
# ready, so setup_s is a median even when one full pass fills the run.
SETUP_REPEATS = 3

# name -> (kind, size): kind picks the per-element check in sweep.py,
# size is the degree of the symmetric group or the rank of type D.
WORKLOADS = {
    "a8-theorem": ("theorem", 8),
    "a6-orders": ("orders", 6),
    "d5-conjecture": ("conjecture", 5),
}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def check_package() -> str | None:
    """Why the package under ``src/`` cannot be benchmarked, or None.

    Importing it once also leaves its bytecode compiled, so the first
    timed pass does not pay for compilation.
    """
    if not (SRC / "smoothchains" / "__init__.py").is_file():
        return f"no package source at {SRC / 'smoothchains'}"
    probe = subprocess.run(
        [sys.executable, "-c", "import smoothchains; print(smoothchains.__file__)"],
        env=child_env(), cwd=ROOT, capture_output=True, text=True, timeout=60,
    )
    if probe.returncode != 0:
        return f"importing smoothchains failed:\n{probe.stderr}"
    if Path(probe.stdout.strip()).resolve().parent != SRC / "smoothchains":
        return f"smoothchains resolves to {probe.stdout.strip()}, not to {SRC}"
    return None


def run_pass(workload: str, seed: int, *extra: str) -> dict:
    """One cold child process; returns its records plus outside timings."""
    kind, size = WORKLOADS[workload]
    cmd = [sys.executable, str(HERE / "sweep.py"), "--kind", kind, "--size", str(size),
           "--seed", str(seed), *extra]
    started = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=child_env(), cwd=ROOT)
    timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        out = proc.stdout.read()
    except BaseException:
        proc.kill()
        raise
    finally:
        timer.cancel()
        proc.stdout.close()
        # wait4 reaps the child and gives its own rusage, not the
        # cumulative maximum over all children.
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} pass exited with {proc.returncode}")
    result = json.loads(out)
    result["started"] = started
    result["peak_rss_mb"] = usage.ru_maxrss / 1024  # ru_maxrss is in KiB on Linux
    return result


def nearest_rank(sorted_values: list[float], q: float) -> float:
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def pass_metrics(result: dict) -> dict:
    decided = sum(1 for r in result["elements"] if r[1])
    check_s = result["verdict_end"] - result["setup_end"]
    return {
        "verdict_s": result["verdict_end"] - result["started"],
        "setup_s": result["setup_end"] - result["started"],
        "elements_per_s": decided / check_s,
        "peak_rss_mb": result["peak_rss_mb"],
        "decided_share": decided / len(result["elements"]),
    }


def run_metrics(passes: list[dict], setups: list[float]) -> dict:
    """Medians over passes; latency percentiles over every pass's decided elements.

    Pooling the passes' latencies, rather than taking each element's
    median, keeps a percentile that falls between two clusters of
    element costs from jumping from one to the other.
    """
    per_pass = [pass_metrics(r) for r in passes]
    out = {m: statistics.median(p[m] for p in per_pass) for m in per_pass[0]}
    out["setup_s"] = statistics.median(setups + [p["setup_s"] for p in per_pass])
    latencies = sorted(r[5] for result in passes for r in result["elements"] if r[1])
    out["element_p50_ms"] = nearest_rank(latencies, 0.50) * 1e3
    out["element_p95_ms"] = nearest_rank(latencies, 0.95) * 1e3
    return out


def verdicts(result: dict) -> dict:
    """Per-element outcome, without timings, for comparing passes."""
    return {r[0]: (r[1], r[2], r[3], r[4], r[6]) for r in result["elements"]}


def layer_metrics(plain: dict, traced: dict) -> dict:
    layers = traced["layers"]
    decided = sum(1 for r in traced["elements"] if r[1])
    check_s = sum(r[5] for r in traced["elements"])
    yielded = layers.get("ordering_engine.constrained_orders.items", 0)
    out = {k: v for k, v in layers.items() if isinstance(v, (int, float))}
    out.update({
        "ordering_engine.orders_yielded": yielded,
        "ordering_engine.orders_per_element": yielded / decided,
        "trace.decided_elements": decided,
        "trace.verdict_s": traced["verdict_end"] - traced["started"],
        "trace.untraced_verdict_s": plain["verdict_end"] - plain["started"],
        "trace.outside_spans_share": 1 - layers["top_level_element_s"] / check_s,
    })
    return out


def run_workload(workload: str, seed: int, seconds: float, trace: bool, spec: dict) -> tuple[dict, bool]:
    kind, size = WORKLOADS[workload]
    want = oracle.expected(kind, size)
    passes = []
    if trace:
        OUT.mkdir(exist_ok=True)
        span_file = OUT / f"spans-{workload}.tsv"
        passes.append(run_pass(workload, seed))
        passes.append(run_pass(workload, seed, "--trace-out", str(span_file)))
    else:
        begin = time.monotonic()
        setups = []
        longest = 0.0
        while not passes or time.monotonic() - begin + longest <= seconds:
            t0 = time.monotonic()
            for _ in range(SETUP_REPEATS):
                probe = run_pass(workload, seed, "--setup-only")
                setups.append(probe["setup_end"] - probe["started"])
            passes.append(run_pass(workload, seed))
            longest = max(longest, time.monotonic() - t0)

    problems = []
    for k, result in enumerate(passes):
        problems += [f"pass {k}: {p}" for p in oracle.gate(kind, result, want)]
    first = verdicts(passes[0])
    for k, result in enumerate(passes[1:], start=1):
        if verdicts(result) != first:
            problems.append(f"pass {k} reached other verdicts than pass 0")
    for p in problems[:20]:
        print(f"GATE {workload}: {p}")

    records = [r for result in passes for r in result["elements"]]
    names = spec["per_layer"] if trace else spec["end_to_end"]
    if trace:
        values = layer_metrics(passes[0], passes[1])
        absent = passes[1]["layers"]["absent"]
        print(f"{workload}: spans written to {span_file.relative_to(ROOT)}; "
              f"absent layers: {', '.join(absent) or 'none'}")
    else:
        values = run_metrics(passes, setups)
    decided = sum(1 for r in records if r[1])
    print(f"{workload}: seed {seed}, {len(passes)} cold passes of "
          f"{len(passes[0]['elements'])} elements, {decided} decided checks in all "
          f"(the latency percentiles' sample count in a plain run)")
    metrics = {}
    for m in names:
        metrics[m["name"]] = {"value": values.get(m["name"], 0), "unit": m["unit"]}
        print(f"  {m['name']:<44} {values.get(m['name'], 0):>14.6g} {m['unit']}")
    line = {
        "correct": not problems,
        "attempted": len(records),
        "failed": sum(1 for r in records if r[6] is not None),
        "metrics": metrics,
    }
    return line, not problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="one workload (default: every workload in turn)")
    parser.add_argument("--seed", type=int, default=0, help="shuffles feed order only")
    parser.add_argument("--seconds", type=float, default=40, help="measuring time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    reason = check_package()
    if reason is not None:
        print(f"error: {reason}", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    ok = True
    for workload in [args.workload] if args.workload else list(WORKLOADS):
        line, good = run_workload(workload, args.seed, args.seconds, bool(args.trace), spec)
        ok = ok and good
        print(json.dumps(line), flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
