"""quadsmp benchmark: end-to-end metrics untraced, per-layer metrics traced.

    python3 bench/run.py --workload example|spike|oracles|all --seed N --seconds S --trace 0|1

Run from the root of a checkout. A run repeats whole rounds of the workload,
each in a fresh process (``child.py``), at least MIN_ROUNDS times and until S
seconds have passed; every round makes the same inputs from --seed. With --trace 0 it reports the
medians over rounds of ``wall_s`` (process start to exit), ``setup_s``
(process start to the end of imports and input construction, with extra
set-up-only processes until there are MIN_SETUP_SAMPLES) and
``peak_rss_mib``. With --trace 1 the rounds run under ``tracer.Tracer`` and
the run reports the per-layer metrics instead. Each round's outputs are
checked (``workloads.py``) and must be identical across rounds.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; ``--workload all``
runs the three workloads one after another and prints one such object per
workload, keyed by name. The exit status is 1 when no round produced a
result and 2 when the checkout holds no quadsmp sources; then no result is
printed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from tracer import SPAN_NAMES  # noqa: E402

# one BLAS thread per process: steadier timings on a small shared machine,
# and no run uses more threads than cores
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
ROUND_TIMEOUT_S = 150.0
MIN_ROUNDS = 2
MIN_SETUP_SAMPLES = 5

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mib": "MiB"}
PER_LAYER = {
    **{f"{name}.self_s": "s" for name in SPAN_NAMES},
    **{f"{name}.calls": "count" for name in SPAN_NAMES},
    "regression.conditional_expectation.call_ms_p50": "ms",
    "regression.conditional_expectation.call_ms_p99": "ms",
    "regression.ridge_fallbacks": "count",
    "regression.ridge_fallback_ratio": "ratio",
    "bsde.solve_bsde_lsmc.clip_rate": "ratio",
    "trace.wall_s": "s",
    "trace.top_span_coverage": "ratio",
}


class BenchError(RuntimeError):
    """The benchmark cannot produce a result."""


def spawn(workload: str, seed: int, trace: bool, round_dir: Path, setup_only: bool = False) -> dict:
    """Run one workload process; time it and read its peak RSS from outside."""
    round_dir.mkdir(parents=True)
    cmd = [
        sys.executable, str(HERE / "child.py"), "--workload", workload, "--seed", str(seed),
        "--out", str(round_dir), "--trace", str(int(trace)),
    ] + (["--setup-only"] if setup_only else [])
    with open(round_dir / "stdout.txt", "wb") as out, open(round_dir / "stderr.txt", "wb") as err:
        t_spawn = time.monotonic()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, cwd=ROOT, env={**os.environ, **THREAD_ENV})
        killer = threading.Timer(ROUND_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        t_exit = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    result_file = round_dir / "result.json"
    if proc.returncode != 0 or not result_file.exists():
        tail = (round_dir / "stderr.txt").read_text(errors="replace")[-2000:]
        return {"ok": False, "error": f"exit {proc.returncode}: {tail}"}
    result = json.loads(result_file.read_text())
    return {
        "ok": True,
        "wall_s": t_exit - t_spawn,
        "setup_s": result["t_ready"] - t_spawn,
        "peak_rss_mib": usage.ru_maxrss / 1024.0,  # KiB on Linux
        "result": result,
    }


def _percentile(values: list, q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def per_layer_metrics(rounds: list) -> dict:
    """Medians over rounds of each round's per-layer totals."""
    traces = [r["result"]["trace"] for r in rounds]
    med = statistics.median
    metrics = {}
    for name in SPAN_NAMES:
        metrics[f"{name}.self_s"] = med([t["spans"][name]["self_s"] for t in traces])
        metrics[f"{name}.calls"] = med([t["spans"][name]["calls"] for t in traces])
    ce_ms = [ms for t in traces for ms in t["conditional_expectation_ms"]]
    metrics["regression.conditional_expectation.call_ms_p50"] = _percentile(ce_ms, 0.50)
    metrics["regression.conditional_expectation.call_ms_p99"] = _percentile(ce_ms, 0.99)
    metrics["regression.ridge_fallbacks"] = med([t["ridge_fallbacks"] for t in traces])
    metrics["regression.ridge_fallback_ratio"] = med([
        t["ridge_fallbacks"] / max(1, t["spans"]["regression.conditional_expectation"]["calls"])
        for t in traces
    ])
    clip_rates = [c for t in traces for c in t["clip_rates"]]
    metrics["bsde.solve_bsde_lsmc.clip_rate"] = statistics.fmean(clip_rates) if clip_rates else 0.0
    metrics["trace.wall_s"] = med([r["wall_s"] for r in rounds])
    metrics["trace.top_span_coverage"] = med([
        r["result"]["trace"]["top_level_s"] / (r["result"]["t_done"] - r["result"]["t_ready"])
        for r in rounds
    ])
    return {name: {"value": metrics[name], "unit": unit} for name, unit in PER_LAYER.items()}


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    ops = workloads.operations(workload)
    base = OUT / workload
    shutil.rmtree(base, ignore_errors=True)
    rounds, failed = [], 0
    start = time.monotonic()
    while len(rounds) < MIN_ROUNDS or time.monotonic() - start < seconds:
        r = spawn(workload, seed, trace, base / f"round{len(rounds)}")
        rounds.append(r)
        if not r["ok"]:
            failed += len(ops)
            print(f"{workload} round {len(rounds)}: process failed: {r['error']}", file=sys.stderr)
            continue
        errors = [op for op in r["result"]["ops"] if not op["ok"]]
        failed += len(errors)
        for op in errors:
            print(f"{workload} round {len(rounds)}: {op['name']} failed:\n{op['error']}", file=sys.stderr)
        print(
            f"{workload} round {len(rounds)}: wall {r['wall_s']:.3f} s, setup {r['setup_s']:.3f} s, "
            f"peak RSS {r['peak_rss_mib']:.1f} MiB"
        )
    done = [r for r in rounds if r["ok"]]
    if not done:
        raise BenchError(f"{workload}: no round produced a result")

    # checks: each operation's output against its reference, and the same
    # output in every round (the program promises reproducible runs)
    problems = []
    for op_name, _, check in ops:
        outputs = [
            op["output"] for r in done for op in r["result"]["ops"] if op["name"] == op_name and op["ok"]
        ]
        if not outputs:
            continue
        problems += [f"{op_name}: {p}" for p in check(outputs[0])]
        if any(json.dumps(o, sort_keys=True) != json.dumps(outputs[0], sort_keys=True) for o in outputs):
            problems.append(f"{op_name}: output differs between rounds on the same inputs")
    for p in problems:
        print(f"{workload} CHECK FAILED: {p}")

    if trace:
        metrics = per_layer_metrics(done)
    else:
        setups = [r["setup_s"] for r in done]
        while len(setups) < MIN_SETUP_SAMPLES:
            probe = spawn(workload, seed, False, base / f"setup{len(setups)}", setup_only=True)
            if not probe["ok"]:
                raise BenchError(f"{workload}: set-up probe failed: {probe['error']}")
            setups.append(probe["setup_s"])
        values = {
            "wall_s": statistics.median(r["wall_s"] for r in done),
            "setup_s": statistics.median(setups),
            "peak_rss_mib": statistics.median(r["peak_rss_mib"] for r in done),
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    attempted = len(rounds) * len(ops)
    print(
        f"{workload}: {len(rounds)} rounds, {attempted} operations attempted, {failed} failed, "
        f"checks {'passed' if not problems else 'FAILED'}"
    )
    for name, m in metrics.items():
        if not trace or m["value"]:
            print(f"{workload}  {name} = {m['value']:.6g} {m['unit']}")
    return {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.NAMES, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated run still kills and reaps its workload process (see spawn)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "quadsmp" / "__init__.py").is_file():
        print(f"no quadsmp sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    try:
        results = {name: run_workload(name, args.seed, args.seconds, bool(args.trace)) for name in names}
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(results if args.workload == "all" else results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
