"""Command line of the benchmark: one workload in this process, or the suite.

``--workload NAME --trace 0|1`` is what ``BENCHMARK.json``'s command runs:
one workload, here, ending in one JSON line.  Without ``--trace`` the command
is the suite: every workload (or those named) runs untraced and then traced,
each in its own subprocess, ``--repeat`` times on consecutive seeds.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import List, Optional

from .report import catalogue, compare, machine, print_record, print_spreads
from .runner import HARNESS_DIR, load_spec, run_workload
from .workloads import WORKLOADS

REPO = HARNESS_DIR.parent.parent
#: ``--quick``: 1/20 of every dataset and a one-second phase.  Not comparable.
QUICK_SCALE, QUICK_SECONDS = 0.05, 1.0


def parse(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.harness", description=__doc__)
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS), help="run only this workload (repeatable)")
    parser.add_argument("--seed", type=int, default=1, help="seed of datasets and statement streams (default 1)")
    parser.add_argument("--seconds", type=float, help="length of the timed phase (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), help="run one workload in this process, untraced (0) or traced (1)")
    parser.add_argument("--scale", type=float, help="dataset size as a share of the full size (default 1.0)")
    parser.add_argument("--quick", action="store_true", help="1/20 scale, 1 s phases: a smoke run, numbers not comparable")
    parser.add_argument("--repeat", type=int, default=1, help="suite: run K times on seeds seed..seed+K-1 and report spreads")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"), help="compare two --out files against the bounds")
    parser.add_argument("--out", help="write the full result (JSON) here")
    parser.add_argument("--trace-out", help="write the spans of the traced run (JSON) here")
    parser.add_argument("--workdir", type=Path, help="directory for durable engines (default: benchmarks/harness/.work)")
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    args = parse(argv)
    spec = load_spec()
    metrics = catalogue(spec)
    if args.compare:
        return compare(*args.compare, metrics)
    seconds = args.seconds or (QUICK_SECONDS if args.quick else spec["run_seconds"])
    scale = args.scale or (QUICK_SCALE if args.quick else 1.0)
    # A polite kill unwinds through the clean-up below it: no child is left behind.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.trace is None:
        return suite(args, seconds, scale, metrics)
    if not args.workload or len(args.workload) != 1:
        raise SystemExit("--trace runs one workload in this process: name exactly one --workload")
    if os.environ.get("PYTHONHASHSEED") != "0":
        # String hashes order every set the engine iterates; pin them, so two
        # runs of one seed do the same work in the same order.
        os.execve(sys.executable, [sys.executable] + sys.argv, dict(os.environ, PYTHONHASHSEED="0"))
    record = run_workload(
        args.workload[0], args.seed, seconds, bool(args.trace), scale, args.workdir, args.trace_out
    )
    print_record(record, metrics)
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(contract_line(record, spec)))
    return 0 if record["correct"] else 1


def contract_line(record: dict, spec: dict) -> dict:
    """The last line of a run: exactly the metrics ``BENCHMARK.json`` names for its mode."""
    wanted = spec["per_layer"] if record["trace"] else spec["end_to_end"]
    measured = record["metrics"]
    values = {}
    for entry in wanted:
        if entry["name"] not in measured and not record["trace"]:
            raise RuntimeError(f"end-to-end metric {entry['name']} was not measured")
        # A layer the workload never entered did no work: 0.
        value = measured.get(entry["name"], {"value": 0.0})["value"]
        values[entry["name"]] = {"value": value, "unit": entry["unit"]}
    return {
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": values,
    }


def suite(args: argparse.Namespace, seconds: float, scale: float, metrics: dict) -> int:
    """Every workload untraced, then traced, each in a subprocess of its own."""
    workdir = args.workdir or HARNESS_DIR / ".work"
    workdir.mkdir(parents=True, exist_ok=True)
    environment = dict(os.environ, PYTHONHASHSEED="0")
    records = []
    status = 0
    for repeat in range(args.repeat):
        for name in args.workload or list(WORKLOADS):
            for trace in (0, 1):
                handle, out = tempfile.mkstemp(prefix="record-", suffix=".json", dir=workdir)
                os.close(handle)
                command = [
                    sys.executable, str(HARNESS_DIR), "--workload", name, "--trace", str(trace),
                    "--seed", str(args.seed + repeat), "--seconds", str(seconds),
                    "--scale", str(scale), "--workdir", str(workdir), "--out", out,
                ]
                if trace and args.trace_out:
                    target = Path(args.trace_out)
                    command += ["--trace-out", str(target.with_name(f"{target.stem}.{name}{target.suffix}"))]
                try:
                    status |= subprocess.run(command, env=environment, cwd=REPO).returncode
                    text = Path(out).read_text(encoding="utf-8")
                    if text:
                        records.append(json.loads(text))
                finally:
                    os.unlink(out)
    if args.repeat > 1:
        print_spreads(records, metrics)
    if args.out:
        result = {
            "machine": machine(REPO, workdir),
            "seed": args.seed, "scale": scale, "seconds": seconds, "repeat": args.repeat,
            "runs": records,
        }
        Path(args.out).write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    failed = sum(record["failed"] for record in records)
    print(f"\n{len(records)} runs, {failed} failed operations" + (" — FAILED" if status or failed else ""))
    return 1 if status or failed else 0
