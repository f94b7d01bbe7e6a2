#!/usr/bin/env python3
"""spweil benchmark: one command for every workload and metric.

    python3 perfbench/run.py                        # all workloads, one process each
    python3 perfbench/run.py --workload closure --seed 3 --seconds 30 --trace 0

Run from the root of a source tree (it imports spweil from src/).  With
--trace 0 it reports the end-to-end metrics of BENCHMARK.json, with --trace 1
the per-layer metrics.  Each metric is printed as "name value unit"; the
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  The full record (Python version, CPU count,
git revision, source digest, seed, failures) goes to .perfbench_out/, and
the traced run's spans to .perfbench_out/spans-<workload>-seed<seed>.jsonl.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SPEC = ROOT / "BENCHMARK.json"


def git_revision():
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest():
    """SHA-256 over src/spweil/*.py, which identifies the code without git."""
    h = hashlib.sha256()
    for path in sorted((SOURCE / "spweil").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def run_info(args):
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_revision": git_revision(), "source_sha256": source_digest(),
    }


def print_metrics(result, units):
    for name, value in result["metrics"].items():
        shown = value if isinstance(value, int) else f"{value:.6g}"
        print(f"{name:<36} {shown:<14} {units[name]}")
    frac = result["failed"] / result["attempted"]
    print(f"{'failed_frac':<36} {frac:<14.6g} frac "
          f"({result['failed']} of {result['attempted']} checks)")
    for failure in result["failures"][:10]:
        print(f"  FAILED {failure}")


def run_one(args, spec):
    sys.path.insert(0, str(SOURCE))
    from harness import run_workload

    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in metrics}
    result, tracer = run_workload(args.workload, args.seed, args.seconds,
                                  trace=bool(args.trace), layer_names=list(units))
    info = run_info(args)
    print("# " + " ".join(f"{k}={v}" for k, v in info.items()))
    print_metrics(result, units)
    if "unscaled_wall_s" in result["info"]:
        print("# as measured, before scaling to the reference speed: "
              f"wall_s={result['info']['unscaled_wall_s']:.6g} "
              f"setup_s={result['info']['unscaled_setup_s']:.6g}")

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps({**result, "info": {**info, **result["info"]}},
                                                 indent=1) + "\n")
    if tracer is not None:
        tracer.dump(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in result["metrics"].items()},
    }))
    return 0


def run_all(args, spec):
    """Each workload in its own process, one after the other."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in [w["name"] for w in spec["workloads"]]:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=False)
        print(f"== {workload}")
        print(proc.stdout, end="")
        if proc.returncode != 0:
            print(f"error: {workload} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        summary["correct"] &= result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            summary["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(summary))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per run (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SOURCE / "spweil" / "__init__.py").is_file() or not SPEC.is_file():
        print(f"error: {ROOT} does not hold src/spweil and BENCHMARK.json",
              file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names + ["all"]:
        parser.error(f"--workload must be one of {', '.join(names)} or all")
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    sys.dont_write_bytecode = True   # leave no __pycache__ in the source tree
    if args.workload == "all":
        return run_all(args, spec)
    return run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
