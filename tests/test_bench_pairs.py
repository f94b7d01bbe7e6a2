"""scripts/bench_pairs.py summarises paired benchmark runs of two trees."""

import importlib.util
import json
import os
import subprocess
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _load_script():
    path = ROOT / "scripts" / "bench_pairs.py"
    spec = importlib.util.spec_from_file_location("bench_pairs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SPEC = {"end_to_end": [{"name": "wall_s", "unit": "s", "better": "lower"},
                       {"name": "rate", "unit": "1/s", "better": "higher"}]}


def _run(wall, rate, failed=0, correct=True):
    return {"correct": correct, "attempted": 10, "failed": failed,
            "metrics": {"wall_s": {"value": wall, "unit": "s"},
                        "rate": {"value": rate, "unit": "1/s"}}}


def _samples(parent, change):
    return {"w": [{"parent": p, "change": c} for p, c in zip(parent, change)]}


def test_summary_of_canned_pairs():
    script = _load_script()
    parent = [_run(1.00, 5.0), _run(1.10, 5.0), _run(1.20, 5.0), _run(1.30, 5.0),
              _run(1.40, 5.0, failed=2)]
    change = [_run(0.50, 5.1), _run(1.15, 5.0), _run(0.60, 5.2), _run(0.70, 4.0),
              _run(0.80, 6.0, correct=False)]
    out = script.summarize(SPEC, _samples(parent, change))["w"]
    assert out["pairs"] == 5
    assert out["failed_runs"] == {"parent": 1, "change": 1}
    wall = out["metrics"]["wall_s"]
    assert wall["parent_median"] == 1.2 and wall["change_median"] == 0.7
    # inclusive quartiles of 1.0 .. 1.4 are 1.1 and 1.3
    assert abs(wall["parent_iqr"] - 0.2) < 1e-12
    assert wall["change_wins"] == 4          # lower is better; pair 2 lost
    assert wall["unresolved"] is False
    assert wall["parent_runs"] == [1.0, 1.1, 1.2, 1.3, 1.4]
    rate = out["metrics"]["rate"]
    assert rate["parent_iqr"] == 0 and rate["change_median"] == 5.1
    assert rate["change_wins"] == 3          # higher is better; a tie is no win
    assert rate["unresolved"] is False


def test_medians_closer_than_the_parent_spread_are_unresolved():
    script = _load_script()
    parent = [_run(w, 1.0) for w in (1.0, 1.2, 1.4, 1.6, 1.8)]
    change = [_run(w, 1.0) for w in (0.9, 1.3, 1.3, 1.5, 1.9)]
    summary = script.summarize(SPEC, _samples(parent, change))
    wall = summary["w"]["metrics"]["wall_s"]
    assert wall["parent_iqr"] > abs(wall["change_median"] - wall["parent_median"])
    assert wall["unresolved"] is True
    assert summary["w"]["metrics"]["rate"]["unresolved"] is False  # equal medians, IQR 0
    text = script.render(summary)
    row = next(line for line in text.splitlines() if "wall_s" in line)
    assert row.split()[-2:] == ["3/5", "unresolved"]
    json.dumps(summary)


def test_one_pair_and_the_run_order():
    script = _load_script()
    wall = script.summarize(SPEC, _samples([_run(2.0, 1.0)], [_run(1.0, 1.0)]))["w"]["metrics"]["wall_s"]
    assert wall["parent_iqr"] == 0 and wall["change_wins"] == 1 and not wall["unresolved"]
    assert [script.pair_order(i) for i in range(3)] == [("parent", "change"),
                                                        ("change", "parent"),
                                                        ("parent", "change")]


def test_each_run_works_in_a_fresh_copy_without_pycache(monkeypatch, tmp_path):
    # a tree's __pycache__ must not be read, and the standard library's .pyc
    # files must be, as in a plain run: every run gets its own copy of the
    # tree with no __pycache__, PYTHONPYCACHEPREFIX is not passed on, and the
    # rest of the environment is
    script = _load_script()
    monkeypatch.setenv("BENCH_PAIRS_PROBE", "kept")
    monkeypatch.setenv("PYTHONPYCACHEPREFIX", str(tmp_path / "prefix"))
    trees = {}
    for side in script.SIDES:
        tree = tmp_path / side
        (tree / "perfbench").mkdir(parents=True)
        (tree / "perfbench" / "run.py").write_text(side)
        (tree / "src" / "__pycache__").mkdir(parents=True)
        (tree / "src" / "__pycache__" / "m.cpython-311.pyc").write_bytes(b"stale")
        trees[side] = str(tree)
    copies = []

    def fake_run(argv, env, **kwargs):
        run_py = Path(argv[1])
        copy = run_py.parent.parent
        assert run_py.read_text() in trees and str(copy) not in trees.values()
        assert not list(copy.rglob("__pycache__"))
        assert "PYTHONPYCACHEPREFIX" not in env
        assert env["BENCH_PAIRS_PROBE"] == "kept"
        copies.append(copy)
        line = json.dumps(_run(1.0, 1.0))
        return subprocess.CompletedProcess(argv, 0, stdout=f"log\n{line}\n")

    monkeypatch.setattr(subprocess, "run", fake_run)
    samples = script.collect(trees, ["w"], 2, 1.0)
    assert [p["change"]["metrics"]["wall_s"]["value"] for p in samples["w"]] == [1.0, 1.0]
    assert len(copies) == len(set(copies)) == 4
    assert not any(map(os.path.exists, copies))
    assert all((Path(t) / "src" / "__pycache__").is_dir() for t in trees.values())
