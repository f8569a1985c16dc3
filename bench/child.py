"""One workload round in its own process.

    python3 bench/child.py --workload NAME --seed N --out DIR --trace 0|1 [--setup-only]

Imports quadsmp from the checkout's ``src``, builds the round's inputs, then
runs the workload's operations and writes ``DIR/result.json``: the monotonic
times at which set-up and the operations ended, each operation's output or
error, and with ``--trace 1`` the tracer's summary (the spans themselves go
to ``DIR/spans.json``). The parent times the process from outside.
"""

import argparse
import json
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    out = Path(args.out)

    sys.path[:0] = [str(SRC), str(HERE)]
    import quadsmp.cli  # noqa: F401  (the whole package, as the CLI loads it)
    import workloads

    inputs = workloads.prepare(args.workload, args.seed, out)
    t_ready = time.monotonic()
    result = {"t_ready": t_ready, "ops": []}
    if args.setup_only:
        (out / "result.json").write_text(json.dumps(result))
        return 0

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer(extra_factories=[(workloads, "linear_model")]).install()
    try:
        for name, op, _ in workloads.operations(args.workload):
            t_op = time.monotonic()
            try:
                record = {"name": name, "ok": True, "output": op(inputs)}
            except Exception:  # one failed operation is counted, the round goes on
                record = {"name": name, "ok": False, "error": traceback.format_exc()}
            record["elapsed_s"] = time.monotonic() - t_op
            result["ops"].append(record)
        result["t_done"] = time.monotonic()
    finally:
        if tracer is not None:
            tracer.restore()
    if tracer is not None:
        if all(op["ok"] for op in result["ops"]):
            tracer.require_entered(workloads.EXPECTED_SITES[args.workload])
        result["trace"] = tracer.summary()
        tracer.write_spans(out / "spans.json")
    (out / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
