"""Negative controls and determinism checks for the benchmark's own checks.

    python3 -m pytest perfbench/test_controls.py -q

Each control runs one cycle of a workload against a deliberately broken
generator set (or a wrong expected group order, or a transposed
constituent) and requires that the benchmark counts failures instead of
reporting a clean run.  About two minutes on two CPUs.
"""

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from spweil import submodules  # noqa: E402
from spweil.symplectic import group_order  # noqa: E402
from spweil.verification import corrupt_c_entry, mutate_lambda_sign  # noqa: E402

from harness import run_workload  # noqa: E402


def one_cycle(workload, **controls):
    result, _ = run_workload(workload, 0, 0, controls=controls, min_cycles=1)
    return result


def failed_frac(result):
    return result["failed"] / result["attempted"]


@pytest.mark.parametrize("workload", ["image_stream", "gens_emit", "verify_grid", "closure"])
def test_unmutated_cycle_passes(workload):
    result = one_cycle(workload)
    assert result["failed"] == 0, result["failures"]


def test_corrupt_c_entry_trips_image_roundtrip():
    result = one_cycle("image_stream", mutate=corrupt_c_entry)
    assert failed_frac(result) > 0
    assert any("pi_map(image) != g" in f or "DoesNotNormalize" in f
               for f in result["failures"])


def test_corrupt_c_entry_trips_gens_digest():
    result = one_cycle("gens_emit", mutate=corrupt_c_entry)
    assert failed_frac(result) > 0
    assert any("digest differs" in f for f in result["failures"])


def test_lambda_sign_trips_image_digest_only():
    # -lam changes the image by a scalar, which pi_map cannot see
    result = one_cycle("image_stream", mutate=mutate_lambda_sign)
    assert failed_frac(result) > 0
    assert all("pi_map" not in f for f in result["failures"])
    assert any("digest differs" in f for f in result["failures"])


def test_transposed_constituent_trips_reference_check(monkeypatch):
    # seed 1 has no recorded digests, so only the constituent's own check
    # can see a constituent written out in the wrong orientation
    original = submodules.weil_image_irreducible
    monkeypatch.setattr(submodules, "weil_image_irreducible",
                        lambda g, gens, which: original(g, gens, which).transpose())
    result, _ = run_workload("image_stream", 1, 0, min_cycles=1)
    assert result["failed"] == 2
    assert all("constituent differs" in f for f in result["failures"])


def test_lambda_sign_trips_verify_grid():
    result = one_cycle("verify_grid", mutate=mutate_lambda_sign)
    assert failed_frac(result) > 0


def test_wrong_group_order_trips_closure():
    result = one_cycle("closure", order=lambda ell, r: group_order(ell, r) + 1)
    assert failed_frac(result) > 0


def test_traced_counts_repeat():
    names = ["fields.mul_calls", "fields.add_calls", "fields.inv_calls",
             "symplectic.word_tokens", "serialize.bytes"]
    runs = [run_workload("gens_emit", 3, 0, trace=True, layer_names=names)[0]
            for _ in range(2)]
    assert runs[0]["failed"] == 0, runs[0]["failures"]
    counts = [{n: r["metrics"][n] for n in names} for r in runs]
    assert counts[0] == counts[1]
    assert all(counts[0][n] > 0 for n in names if n != "fields.inv_calls")
