#!/usr/bin/env python3
"""Run the benchmark on two source trees in alternating pairs and compare them.

Usage: python3 scripts/bench_pairs.py PARENT_TREE CHANGE_TREE
           [--workload W] [--pairs N] [--seconds S] [--json]

Each tree is the root of a checkout holding perfbench/run.py and
BENCHMARK.json.  Pair i runs `perfbench/run.py --workload W --seed i
--trace 0` once in each tree, the parent first on even i and the change
first on odd i, so a drift in host speed falls on both sides.  Every run
starts from a fresh copy of its tree without __pycache__ (run_once), as a
new checkout would, so a tree's .pyc files cannot change its memory
reading.  --workload
defaults to every workload of BENCHMARK.json, --pairs to 5 and --seconds to
its run_seconds.

For every workload and every end-to-end metric of CHANGE_TREE's
BENCHMARK.json it prints both medians, the parent's interquartile range,
in how many pairs the change was better, and "unresolved" where the two
medians differ by less than that range.  Runs whose checks failed are
counted per side.  With --json it prints the same summary as one JSON
object.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

SIDES = ("parent", "change")


def pair_order(i):
    """The sides of pair i in the order they run."""
    return SIDES if i % 2 == 0 else SIDES[::-1]


def run_once(tree, workload, seed, seconds):
    """The last line of one perfbench/run.py run in tree, as a dict.  The run
    works in a fresh copy of tree without its __pycache__ directories and
    with no PYTHONPYCACHEPREFIX, so it compiles the tree's modules from
    source and reads the standard library's .pyc files as a plain run does.
    The run's .perfbench_out record is removed with the copy."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPYCACHEPREFIX"}
    with tempfile.TemporaryDirectory() as scratch:
        copy = Path(scratch) / "tree"
        shutil.copytree(tree, copy, ignore=shutil.ignore_patterns("__pycache__"))
        argv = [sys.executable, str(copy / "perfbench" / "run.py"), "--workload", workload,
                "--seed", str(seed), "--trace", "0"]
        if seconds is not None:
            argv += ["--seconds", str(seconds)]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=True, env=env)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def collect(trees, workloads, pairs, seconds):
    """{workload: [{side: result} per pair]}, running the pairs in turn."""
    samples = {w: [] for w in workloads}
    for w in workloads:
        for i in range(pairs):
            pair = {}
            for side in pair_order(i):
                print(f"# {w} pair {i + 1}/{pairs}: {side}", file=sys.stderr, flush=True)
                pair[side] = run_once(trees[side], w, i, seconds)
            samples[w].append(pair)
    return samples


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def summarize(spec, samples):
    """The comparison of each workload's pairs on BENCHMARK.json's end-to-end
    metrics: {workload: {"pairs", "failed_runs", "metrics": {metric: {...}}}}."""
    out = {}
    for w, pairs in samples.items():
        metrics = {}
        for m in spec["end_to_end"]:
            name = m["name"]
            values = {side: [p[side]["metrics"][name]["value"] for p in pairs] for side in SIDES}
            sign = 1 if m["better"] == "lower" else -1
            q1, q3 = _quartiles(values["parent"])
            medians = {side: statistics.median(values[side]) for side in SIDES}
            metrics[name] = {
                "unit": m["unit"],
                "better": m["better"],
                "parent_median": medians["parent"],
                "change_median": medians["change"],
                "parent_iqr": q3 - q1,
                "change_wins": sum(sign * (c - p) < 0
                                   for p, c in zip(values["parent"], values["change"])),
                "unresolved": abs(medians["change"] - medians["parent"]) < q3 - q1,
                "parent_runs": values["parent"],
                "change_runs": values["change"],
            }
        out[w] = {"pairs": len(pairs),
                  "failed_runs": {side: sum(bool(p[side]["failed"]) or not p[side]["correct"]
                                            for p in pairs) for side in SIDES},
                  "metrics": metrics}
    return out


def render(summary):
    """The summary as one text table per workload."""
    lines = []
    for w, data in summary.items():
        failed = data["failed_runs"]
        lines.append(f"{w}: {data['pairs']} pairs, failed runs parent {failed['parent']} "
                     f"change {failed['change']}")
        rows = [["metric", "parent", "change", "delta", "parent IQR", "wins", ""]]
        for name, m in data["metrics"].items():
            p, c = m["parent_median"], m["change_median"]
            rows.append([f"{name} ({m['unit']})", f"{p:.4g}", f"{c:.4g}",
                         f"{(c - p) / p:+.1%}" if p else "-", f"{m['parent_iqr']:.3g}",
                         f"{m['change_wins']}/{data['pairs']}",
                         "unresolved" if m["unresolved"] else ""])
        widths = [max(len(row[k]) for row in rows) for k in range(len(rows[0]))]
        lines.extend("  " + "  ".join(cell.rjust(width) for cell, width in zip(row, widths))
                     .rstrip() for row in rows)
        lines.append("")
    return "\n".join(lines)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", metavar="PARENT_TREE")
    parser.add_argument("change", metavar="CHANGE_TREE")
    parser.add_argument("--workload", default=None, help="one workload (default: all)")
    parser.add_argument("--pairs", type=int, default=5)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--json", action="store_true", help="print one JSON object")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    spec = json.loads((Path(args.change) / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.workload is not None and args.workload not in names:
        parser.error(f"--workload must be one of {', '.join(names)}")
    workloads = [args.workload] if args.workload else names
    samples = collect(dict(zip(SIDES, (args.parent, args.change))), workloads,
                      args.pairs, args.seconds)
    summary = summarize(spec, samples)
    sys.stdout.write(json.dumps(summary, indent=1) + "\n" if args.json else render(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
