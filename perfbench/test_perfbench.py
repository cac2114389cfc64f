"""Tests of the benchmark itself: python3 -m pytest perfbench

A tiny-size run of every workload must print every metric that
BENCHMARK.json declares, with its unit, and no failed op; a corrupted output
must be counted as a failed op, and the known-defect probes must report.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402

run._import_package()

import workloads  # noqa: E402
from oracle import Oracle  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run_all(trace: int) -> str:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", "all", "--tiny",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_tiny_run_prints_every_metric_with_its_unit(trace, section):
    out = _run_all(trace)
    results = json.loads(out.strip().splitlines()[-1])
    assert sorted(results) == sorted(w["name"] for w in SPEC["workloads"])
    for workload, result in results.items():
        assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
        assert result["correct"] is True
        assert result["attempted"] >= 1
        assert result["failed"] == 0
        assert sorted(result["metrics"]) == sorted(m["name"] for m in SPEC[section])
        for metric in SPEC[section]:
            assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
            line = [
                ln for ln in out.splitlines()
                if ln.split()[:2] == [workload, metric["name"]]
            ]
            assert line and line[0].split()[3] == metric["unit"], (workload, metric["name"])
    probes = [ln for ln in out.splitlines() if ln.startswith("curve      known-defect probe: ")]
    assert len(probes) == len(workloads.defect_probes(_probe_dir()))


def _probe_dir() -> Path:
    path = ROOT / ".perfbench-work" / "test"
    path.mkdir(parents=True, exist_ok=True)
    return path


def test_probes_flag_inadmissible_reference_and_tie():
    oracle = Oracle()
    op = next(o for o in workloads.defect_probes(_probe_dir()) if o.kind == "distillation")
    rows = op.collect(op.call())
    over = [dict(rows[0], sigma_param_used=workloads.t_star_closed_form(2, 3) + 1e-3)]
    assert any(r.startswith("inadmissible") for r in oracle.check("curve", op, over))
    tie = [o for o in workloads.defect_probes(_probe_dir()) if o.params.get("k") == "inf"][0]
    rows = tie.collect(tie.call())
    assert "tie" in [r.split(":")[0] for r in oracle.check("curve", tie, [dict(rows[0], divergence=52.0)])]


def _records(workload: str, tmp_path: Path, count=None):
    ops = workloads.BUILDERS[workload](7, tmp_path, True)
    records = []
    for idx, op in enumerate(ops[:count]):
        records.append((idx, 0.0, op.collect(op.call()), None, False))
    return ops, records


def test_perturbed_curve_divergence_is_a_failed_op(tmp_path):
    ops, records = _records("curve", tmp_path)
    failed, _, _, _ = run._check("curve", ops, records)
    assert failed == 0
    oracle = Oracle()
    victim = next(
        i for i, (idx, _, rows, _, _) in enumerate(records)
        if ops[idx].kind == "bound" and rows[0]["n"] <= 10
        and 0.0 < rows[0]["divergence"] < float("inf") and not oracle.check("curve", ops[idx], rows)
    )
    idx, latency, rows, error, traced = records[victim]
    bad_rows = [dict(rows[0], divergence=rows[0]["divergence"] * (1.0 + 1e-6))] + rows[1:]
    records[victim] = (idx, latency, bad_rows, error, traced)
    failed, reasons, _, _ = run._check("curve", ops, records)
    assert failed == 1
    assert reasons.get("divergence") == 1


def test_perturbed_commuting_divergence_is_a_failed_op(tmp_path):
    ops, records = _records("divergence", tmp_path)
    failed, _, _, _ = run._check("divergence", ops, records)
    assert failed == 0
    victim = next(i for i, r in enumerate(records) if ops[r[0]].kind == "commuting_dh")
    idx, latency, value, error, traced = records[victim]
    records[victim] = (idx, latency, value + 1e-6, error, traced)
    failed, reasons, _, _ = run._check("divergence", ops, records)
    assert failed == 1
    assert reasons == {"identity": 1}
