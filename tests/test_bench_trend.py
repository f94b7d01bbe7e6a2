"""scripts/bench_trend.py reads every committed BENCH_<n>.json."""

import importlib.util
import json
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _load_script():
    path = ROOT / "scripts" / "bench_trend.py"
    spec = importlib.util.spec_from_file_location("bench_trend", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_trend_reads_every_bench_file(capsys):
    script = _load_script()
    assert script.main(["--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    committed = sorted(int(re.fullmatch(r"BENCH_(\d+)\.json", p.name).group(1))
                       for p in ROOT.glob("BENCH_*.json"))
    assert committed and data["benches"] == committed
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(data["workloads"]) == {w["name"] for w in spec["workloads"]}
    for name, columns in data["workloads"].items():
        assert set(columns) == {m["name"] for m in spec["end_to_end"]}
        for metric, values in columns.items():
            assert len(values) == len(committed)
            assert all(isinstance(v, (int, float)) and v > 0 for v in values), (name, metric)
    # the value shown for one record is that record's change-side median
    last = json.loads((ROOT / f"BENCH_{committed[-1]}.json").read_text())
    want = last["workloads"]["closure"]["metrics"]["wall_s"]["change_median"]
    assert data["workloads"]["closure"]["wall_s"][-1] == want


def test_bench_trend_text_has_a_row_per_record(capsys):
    script = _load_script()
    assert script.main([]) == 0
    out = capsys.readouterr().out
    n_files = len(list(ROOT.glob("BENCH_*.json")))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for w in spec["workloads"]:
        assert w["name"] + "\n" in out
    rows = [line for line in out.splitlines() if line.strip().startswith("BENCH_")]
    assert len(rows) == n_files * len(spec["workloads"])
