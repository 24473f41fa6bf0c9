"""Command line of the pipeline benchmark.

One workload (the last line of standard output is the JSON result)::

    python3 benchmarks/pipeline/run.py --workload serve-warm --seed 1 \\
        --seconds 10 --trace 0

Every workload, each in its own subprocess, into one results file::

    PYTHONPATH=src:. python -m benchmarks.pipeline run --seed 1 --out runs.json
    PYTHONPATH=src:. python -m benchmarks.pipeline trace --seed 1 --out trace.json
    PYTHONPATH=src:. python -m benchmarks.pipeline compare base.json new.json
    PYTHONPATH=src:. python -m benchmarks.pipeline reference
"""

from __future__ import annotations

import argparse
import json
import pathlib
import subprocess
import sys

from benchmarks.pipeline import compare as compare_mod
from benchmarks.pipeline.bench import END_TO_END, PER_LAYER, measure, trace
from benchmarks.pipeline.workloads import DIGESTS_PATH, WORKLOADS, compute_digests

__all__ = ["main"]

HERE = pathlib.Path(__file__).resolve().parent
RUN_SCRIPT = HERE / "run.py"
DEFAULT_SECONDS = 10


def run_one(args: argparse.Namespace) -> int:
    workload = WORKLOADS[args.workload](args.seed, quick=args.quick)
    if args.trace:
        session, values, extras = trace(workload, args.quick, args.spans)
        units = PER_LAYER
    else:
        session, values, extras = measure(workload, args.seconds, args.quick)
        units = END_TO_END
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items()}
    result = {"correct": session.failed == 0, "attempted": session.attempted,
              "failed": session.failed, "metrics": metrics}

    print(f"workload {workload.name} (seed {args.seed}, "
          f"{'traced' if args.trace else 'end to end'}): {workload.why}")
    for name, metric in metrics.items():
        print(f"  {name:<32} {metric['value']:>14.6g} {metric['unit']}")
    for name, value in extras.items():
        if not isinstance(value, dict):
            print(f"  ({name} = {value})")
    for failure in session.failures:
        print(f"  FAILED {failure}")
    if args.record:
        record = {"workload": workload.name, "seed": args.seed,
                  "mode": "trace" if args.trace else "run",
                  **result, "extras": extras}
        pathlib.Path(args.record).write_text(json.dumps(record))
    print(json.dumps(result))
    return 0 if session.failed == 0 else 1


def run_all(args: argparse.Namespace) -> int:
    """``run``/``trace``: every workload in its own subprocess."""
    traced = args.command == "trace"
    out = pathlib.Path(args.out)
    spans_dir = out.with_suffix(".spans")
    if traced:
        spans_dir.mkdir(parents=True, exist_ok=True)
    records, status = [], 0
    for _ in range(args.repeat):
        for name in args.workload or list(WORKLOADS):
            record_path = out.with_name(f".{out.name}.{name}.part")
            cmd = [sys.executable, str(RUN_SCRIPT), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", "1" if traced else "0",
                   "--record", str(record_path)]
            if args.quick:
                cmd.append("--quick")
            if traced:
                cmd += ["--spans", str(spans_dir / f"{name}.jsonl")]
            done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            print("\n".join(done.stdout.splitlines()[:-1]), flush=True)
            if done.returncode != 0:
                status = 1
            if record_path.exists():
                records.append(json.loads(record_path.read_text()))
                record_path.unlink()
    out.write_text(json.dumps({"records": records}, indent=1) + "\n")
    print(f"wrote {len(records)} record(s) to {out}")
    return status


def write_reference(_args: argparse.Namespace) -> int:
    DIGESTS_PATH.write_text(json.dumps(compute_digests(), indent=1) + "\n")
    print(f"wrote {DIGESTS_PATH}")
    return 0


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] in {"run", "trace", "compare", "reference"}:
        parser = argparse.ArgumentParser(prog="python -m benchmarks.pipeline")
        sub = parser.add_subparsers(dest="command", required=True)
        for command in ("run", "trace"):
            p = sub.add_parser(command, help=f"{command} every workload")
            p.add_argument("--seed", type=int, required=True)
            p.add_argument("--out", required=True)
            p.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
            p.add_argument("--repeat", type=int, default=1)
            p.add_argument("--workload", action="append",
                           choices=list(WORKLOADS))
            p.add_argument("--quick", action="store_true")
            p.set_defaults(func=run_all)
        p = sub.add_parser("compare", help="compare two results files")
        p.add_argument("base")
        p.add_argument("new")
        p.set_defaults(func=compare_mod.main)
        p = sub.add_parser("reference",
                           help="recompute the analytic reference digests")
        p.set_defaults(func=write_reference)
        args = parser.parse_args(argv)
        return args.func(args)

    parser = argparse.ArgumentParser(
        prog="run.py", description="Run one workload of the pipeline benchmark.")
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="one set-up and one pass (smoke test)")
    parser.add_argument("--record", help="also write the full record here")
    parser.add_argument("--spans", help="traced run: write spans here")
    return run_one(parser.parse_args(argv))
