"""H2O end-to-end benchmark: one workload per process.

    python3 perfbench/run.py --workload sky-adapt --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --quick          # every workload, small, checks on

Run from the root of a checkout; the store is imported from ``src/``.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` (end-to-end metrics untraced,
per-layer metrics with ``--trace 1``).  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
if not (ROOT / "src" / "repro").is_dir():
    sys.exit("perfbench: src/repro not found; run from a full checkout")
sys.path.insert(0, str(ROOT / "src"))

from h2obench import streams  # noqa: E402
from h2obench.common import p50, percentile, remove_run_dir  # noqa: E402
from h2obench.workloads import WORKLOADS, SetupClock  # noqa: E402


def end_to_end(tally, setup_s: float) -> dict:
    """Each timing is the median over the run's rounds of that round's value.

    A round is one pass over the workload's stream (one whole ingest
    cycle for ingest-trickle); the median over rounds keeps a short
    stall of the shared host from moving the run's figure.
    """
    def over_rounds(fn):
        return median([fn(q, ops, cpu) for q, ops, cpu in tally.rounds])

    return {
        "setup_s": (setup_s, "s"),
        "query_qps": (over_rounds(lambda q, ops, cpu: len(q) / sum(q)), "1/s"),
        "query_p50_ms": (over_rounds(lambda q, ops, cpu: p50(q) * 1e3), "ms"),
        "query_p90_ms": (
            over_rounds(lambda q, ops, cpu: percentile(q, 0.9) * 1e3), "ms"
        ),
        "cpu_ms_per_op": (over_rounds(lambda q, ops, cpu: cpu * 1e3 / ops), "ms"),
        "peak_rss_mb": (tally.info["rss_mb"], "MB"),
    }


def run_one(args) -> int:
    try:
        return _run_one(args)
    finally:
        remove_run_dir()


def _run_one(args) -> int:
    sizes = streams.QUICK if args.quick else streams.FULL
    clock = SetupClock()
    if args.trace:
        from h2obench.ledger import trace_run

        errors, attempted, failed, metrics = trace_run(args.workload, args.seed, sizes)
    else:
        tally = WORKLOADS[args.workload](args.seed, args.seconds, sizes, clock)
        attempted, failed, errors = tally.attempted, tally.failed, tally.errors
        metrics = end_to_end(tally, clock.setup_s) if tally.completed else {}
        info = {
            "queries": len(tally.query_s),
            "rounds": len(tally.rounds),
            "appends": len(tally.append_s),
            "cores": len(os.sched_getaffinity(0)),
            **tally.info,
        }
        if tally.append_s:
            info["append_p50_ms"] = p50(tally.append_s) * 1e3
            info["append_p99_ms"] = percentile(tally.append_s, 0.99) * 1e3
            info["append_rows_per_s"] = (
                len(tally.append_s) * sizes.ingest_batch / sum(tally.append_s)
            )
        print("info " + json.dumps(info), flush=True)
    for message in errors:
        print(f"CHECK FAILED: {message}", file=sys.stderr)
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }
    print(json.dumps(result), flush=True)
    return 0


def run_quick(args) -> int:
    """Every workload end to end at small size, each in a fresh process."""
    ok = True
    for trace in (0, 1):
        for name in WORKLOADS:
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--quick",
                 "--workload", name, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(trace)],
                capture_output=True, text=True, timeout=600, cwd=str(ROOT),
            )
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else {}
            good = (
                proc.returncode == 0
                and result.get("correct") is True
                and result.get("failed") == 0
                and result.get("metrics")
            )
            ok = ok and bool(good)
            print(f"{name} trace={trace}: {'ok' if good else 'FAILED'} "
                  f"{json.dumps(result)}", flush=True)
            if not good:
                print(proc.stderr[-3000:], file=sys.stderr)
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured time per run (default 10; 1 with --quick)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="small sizes; without --workload runs all")
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = 1.0 if args.quick else 10.0
    if args.workload is None:
        if not args.quick:
            parser.error("--workload is required (or --quick for all)")
        return run_quick(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
