#!/usr/bin/env python3
"""Print the benchmark trend across the BENCH_<n>.json records at the repo root.

Usage: python3 scripts/bench_trend.py [--json]

Each BENCH_<n>.json holds paired runs of the parent commit and of change n.
For every workload, this prints one row per record in order of n, with the
change side's median of every end-to-end metric BENCHMARK.json names; a
metric a record does not hold is shown as "-".

With --json it prints one JSON object instead: {"benches": [n, ...],
"workloads": {workload: {metric: [median or null per bench]}}}, with units
under "units".
"""

import argparse
import json
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def bench_files(root=ROOT):
    """(n, path) of every BENCH_<n>.json under root, in order of n."""
    found = []
    for path in root.glob("BENCH_*.json"):
        match = re.fullmatch(r"BENCH_(\d+)\.json", path.name)
        if match:
            found.append((int(match.group(1)), path))
    return sorted(found)


def trend(root=ROOT):
    """The trend as the --json object."""
    spec = json.loads((root / "BENCHMARK.json").read_text())
    metrics = [m["name"] for m in spec["end_to_end"]]
    workloads = [w["name"] for w in spec["workloads"]]
    benches = bench_files(root)
    table = {w: {m: [] for m in metrics} for w in workloads}
    for _, path in benches:
        record = json.loads(path.read_text())["workloads"]
        for w in workloads:
            got = record.get(w, {}).get("metrics", {})
            for m in metrics:
                table[w][m].append(got.get(m, {}).get("change_median"))
    return {"benches": [n for n, _ in benches],
            "units": {m["name"]: m["unit"] for m in spec["end_to_end"]},
            "workloads": table}


def render(data):
    """The trend as one text table per workload."""
    units = data["units"]
    head = ["bench"] + [f"{m} ({u})" for m, u in units.items()]
    lines = []
    for w, columns in data["workloads"].items():
        rows = [head] + [
            [f"BENCH_{n}"] + ["-" if columns[m][i] is None else f"{columns[m][i]:.4g}"
                              for m in units]
            for i, n in enumerate(data["benches"])]
        widths = [max(len(row[k]) for row in rows) for k in range(len(head))]
        lines.append(w)
        lines.extend("  " + "  ".join(cell.rjust(width) for cell, width in zip(row, widths))
                     for row in rows)
        lines.append("")
    return "\n".join(lines)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--json", action="store_true", help="print one JSON object")
    args = parser.parse_args(argv)
    data = trend()
    sys.stdout.write(json.dumps(data, indent=1) + "\n" if args.json else render(data))
    return 0


if __name__ == "__main__":
    sys.exit(main())
