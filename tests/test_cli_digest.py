"""scripts/cli_digest.py digests the CLI's output over a fixed run list."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _load_script():
    path = ROOT / "scripts" / "cli_digest.py"
    spec = importlib.util.spec_from_file_location("cli_digest", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_run_list_covers_every_command_and_field():
    module = _load_script()
    runs = module.runs()
    fields = {a[a.index("--field") + 1] for a in runs}
    assert fields == {"cyclotomic", "auto-prime", "gf2-auto", "gf:13^2", "gf:3^4",
                      "gf:4294967311"}
    assert len(runs) == 10 * len(module.SETS) + 3 * len(module.FULL_SETS) == 173
    assert {a[0] for a in runs} == {"gens", "image", "verify"}
    full = [a for a in runs if "--full" in a]
    assert [a[a.index("--format") + 1] for a in full] == ["json", "magma", "gap"]
    assert all(a[:7] == ["gens", "--r", "5", "--l", "3", "--field", "auto-prime"] for a in full)


def test_digest_is_stable_and_sees_one_byte():
    # two runs of the same argvs digest alike; one byte more or changed in
    # one stdout, or a different exit code, gives another digest
    module = _load_script()
    argvs = [a for a in module.runs() if "gf:13^2" in a and a[4] == "1"][:10]
    results = [(a, *module.run(a)) for a in argvs]
    again = [(a, *module.run(a)) for a in argvs]
    assert results == again and module.digest(results) == module.digest(again)
    argv, code, out, err = results[3]
    assert code == 0 and out
    changed = chr(ord(out[-2]) ^ 1)
    for edit in [(argv, code, out[:-2] + changed + out[-1], err), (argv, code, out + " ", err),
                 (argv, 4, out, err)]:
        assert module.digest(results[:3] + [edit] + results[4:]) != module.digest(results)


def test_main_prints_count_histogram_and_digest(capsys, monkeypatch):
    module = _load_script()
    monkeypatch.setattr(module, "SETS", [("gf:3^4", 5, 1)])
    monkeypatch.setattr(module, "FULL_SETS", [])
    assert module.main([]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[:2] == ["runs 10", "exit codes 0:8 3:2"]
    assert lines[2].startswith("sha256 ") and len(lines[2].split()[1]) == 64
