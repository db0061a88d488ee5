"""Tests of the benchmark itself: its output schema, its correctness gates
and the repeatability of its counts. None of them gates on wall time.

    python3 -m pytest bench -q
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

gf, layers_mod, workloads = run._import_library()

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _one_deck(name: str, tmp_path: Path, layers=None) -> tuple[int, int]:
    """(ops, failed ops) of one untraced deck of workload ``name``."""
    layers = layers or layers_mod.Layers()
    workload = workloads.WORKLOADS[name]
    state = workload.setup(layers, tmp_path)
    latencies, failed, _ = run._run_decks([workload.deck(state, 1, 0)], layers, state)
    return len(latencies), failed


@pytest.mark.parametrize("trace, key", [(0, "end_to_end"), (1, "per_layer")])
def test_output_lists_every_metric_with_its_unit(trace, key):
    result = _result(_bench("--workload", "explore", "--seed", "3", "--seconds", "1",
                            "--trace", str(trace)))
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC[key]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want


def test_spec_names_the_workloads_the_script_runs():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def test_tampered_oracle_value_is_a_failed_op(monkeypatch, tmp_path):
    (query, (small_T, cap, least)), *rest = workloads.EXPLORE_POOL
    monkeypatch.setattr(workloads, "EXPLORE_POOL", ((query, (small_T, cap, least + 1)), *rest))
    assert _one_deck("explore", tmp_path) == (len(workloads.EXPLORE_POOL), 1)


def test_exception_is_a_failed_op_not_a_skip(monkeypatch, tmp_path):
    # min_N_bruteforce refuses T > 5 with ValueError
    (query, (_, cap, least)), *rest = workloads.EXPLORE_POOL
    monkeypatch.setattr(workloads, "EXPLORE_POOL", ((query, (6, cap, least)), *rest))
    assert _one_deck("explore", tmp_path) == (len(workloads.EXPLORE_POOL), 1)


def test_overstated_claim_is_a_failed_certify_op(monkeypatch, tmp_path):
    def overstated(layers, seed):
        m, claim = layers.rs_cff(3, 3, 2)
        return m, dataclasses.replace(claim, r=claim.r + 1)

    monkeypatch.setattr(workloads, "CERTIFY_POOL", (("overstated", overstated),))
    assert _one_deck("certify", tmp_path) == (1, 1)


def test_bad_file_round_trip_fails_every_screen_op(tmp_path):
    layers = layers_mod.Layers()
    read = layers.read_matrix_file

    def read_one_bit_off(path):
        m, claim = read(path)
        rows = (m.rows[0] ^ 1,) + m.rows[1:]
        return dataclasses.replace(m, rows=rows), claim

    layers.read_matrix_file = read_one_bit_off
    ops, failed = _one_deck("screen", tmp_path, layers)
    assert failed == ops > 0


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_traced_counts_repeat_for_a_seed(name, monkeypatch, tmp_path):
    monkeypatch.setattr(run, "WORKDIR", tmp_path)
    workload = dataclasses.replace(workloads.WORKLOADS[name], trace_decks=1)
    runs = [run.traced_run(layers_mod, workload, seed=5) for _ in range(2)]
    counted = [
        {k: v for k, (v, unit) in metrics.items() if unit in ("count", "bytes")}
        | {"grouptest.decode.exact": metrics["grouptest.decode.exact"][0]}
        for metrics, _, _, _ in runs
    ]
    assert counted[0] == counted[1]
    assert counted[0]["trace.spans"] > 0 and counted[0]["grouptest.decode.exact"] == 1.0
    for _, _, attempted, failed in runs:
        assert attempted > 0 and failed == 0


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _bench("--workload", "explore", "--seed", "1", "--seconds", "1", "--trace", "0",
                  cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_scaling_divides_out_the_host_speed():
    # on a host twice as slow as the reference, every time halves
    assert run._scale(0.5, run.REF_MS, run.REF_MS) == pytest.approx(0.5)
    assert run._scale(0.5, run.REF_MS, 3 * run.REF_MS) == pytest.approx(0.25)
