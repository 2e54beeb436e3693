"""End-to-end benchmark of the LEAPS reproduction.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1> [--short]

Workloads (see ``perfbench/README.md`` for metrics and predictions):

* ``scan-capture`` / ``scan-text``: an offline forensic sweep with
  ``LeapsDetector.scan_logs`` over the ``.leapscap`` captures / raw
  text logs of a fleet of compromised and clean hosts;
* ``serve-fleet``: the ``repro.serve`` service in a child process,
  driven by a closed-loop saturate phase and an open-loop paced phase;
* ``train-table1``: the Table-I sweep (generate, train, evaluate) over
  a fixed set of catalog rows.

``--trace 0`` runs the timed passes and prints the end-to-end metrics;
``--trace 1`` runs the same work once untraced and once with spans
around every layer's public calls, checks the outputs are identical,
and prints the per-layer metrics.  Every run checks its outputs; the
last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  ``--short`` shrinks
every input, for the benchmark's own tests.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
from dataclasses import asdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("scan-capture", "scan-text", "serve-fleet", "train-table1")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--short", action="store_true", help="small inputs, for tests")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {SRC}", file=sys.stderr)
        return 2
    spec_path = ROOT / "BENCHMARK.json"
    spec = json.loads(spec_path.read_text())
    sys.path.insert(0, str(SRC))
    import workloads  # noqa: E402  (needs repro importable)

    work = ROOT / ".perfbench_work" / f"{args.workload}-s{args.seed}-t{args.trace}"
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    # temporary files (scan_logs' pool scratch) stay inside the checkout
    scratch = work / "tmp"
    scratch.mkdir()
    os.environ["TMPDIR"] = str(scratch)
    tempfile.tempdir = str(scratch)
    ctx = workloads.Context.create(args, work)
    before = os.getloadavg()
    try:
        outcome = workloads.run(ctx, args.workload, bool(args.trace))
    finally:
        ctx.speed.close()
    ctx.record["loadavg_before"] = before
    ctx.record["loadavg_after"] = os.getloadavg()
    if ctx.speed.samples:
        ctx.record["speed_factor"] = ctx.speed.factor()
        ctx.record["speed_factor_parallel"] = ctx.speed.factor(parallel=True)

    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {metric["name"]: metric["unit"] for metric in declared}
    if set(outcome.metrics) != set(units):
        missing = sorted(set(units) - set(outcome.metrics))
        extra = sorted(set(outcome.metrics) - set(units))
        print(f"error: metrics differ from BENCHMARK.json: missing {missing}, extra {extra}", file=sys.stderr)
        return 3
    detail = {
        "host": ctx.record,
        "seeds": ctx.seeds.record(),
        "sizes": asdict(ctx.sizes),
        "samples": outcome.samples,
        "failures": outcome.failures,
    }
    if outcome.spans is not None:
        detail["spans"] = outcome.spans
    (work / "result.json").write_text(json.dumps(detail, indent=1, sort_keys=True, default=str) + "\n")
    for leftover in work.iterdir():
        if leftover.is_dir():
            shutil.rmtree(leftover)
    print(json.dumps({"host": ctx.record, "seeds": ctx.seeds.record()}, sort_keys=True))
    for failure in outcome.failures:
        print(f"FAILED: {failure}", file=sys.stderr)
    result = {
        "correct": not outcome.failures,
        "attempted": outcome.attempted,
        "failed": len(outcome.failures),
        "metrics": {
            name: {"value": outcome.metrics[name], "unit": units[name]}
            for name in sorted(units)
        },
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
