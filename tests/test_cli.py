import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import unext
from unext import bounds as bounds_mod
from unext import cli, linalg
from unext import extendibility as ext_mod
from unext.cli import main
from unext.states import ChannelSpec, isotropic


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_np_subcommand_json(capsys):
    code, out, _ = run_cli(capsys, "np", "--p", "0.85", "--t", "0.75", "--n", "1", "--eps", "0.05")
    assert code == 0
    payload = json.loads(out)
    assert abs(payload["beta"] - 11.0 / 12.0) < 1e-12
    assert payload["threshold_weight"] == 0
    assert abs(payload["gamma"] - 2.0 / 3.0) < 1e-12


def test_np_engines_agree(capsys):
    _, out_log, _ = run_cli(capsys, "np", "--p", "17/20", "--t", "3/4", "--n", "50", "--eps", "1/20")
    _, out_exact, _ = run_cli(
        capsys, "np", "--p", "17/20", "--t", "3/4", "--n", "50", "--eps", "1/20", "--engine", "exact"
    )
    d_log = json.loads(out_log)["D"]
    d_exact = json.loads(out_exact)["D"]
    assert abs(d_log - d_exact) < 1e-9


@pytest.mark.parametrize("engine", ["log", "exact"])
def test_np_zero_denominator_exits_one(capsys, engine):
    for flag in ("--p", "--t", "--eps"):
        argv = {"--p": "1/2", "--t": "1/3", "--eps": "1/20", flag: "1/0"}
        code, out, err = run_cli(capsys, "np", *sum(argv.items(), ()), "--n", "5", "--engine", engine)
        assert code == 1, (flag, err)
        assert out == "" and "zero denominator" in err


def test_beta_one_prints_positive_zero(capsys):
    # beta = 1 gives D = 0.0; printing -log2(beta) wrote -0.0
    code, out, _ = run_cli(capsys, "np", "--p", "0.3", "--t", "0.7", "--eps", "0", "--n", "4")
    assert code == 0
    assert out == '{\n  "D": 0.0,\n  "beta": 1.0,\n  "threshold_weight": 4,\n  "gamma": 1.0\n}\n'
    argv = "bound --channel depolarizing --p 0.75 --eps 0 --n 2 --k inf --format json".split()
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert "-0.0" not in out
    row = json.loads(out)["rows"][0]
    assert math.copysign(1.0, row["divergence"]) == math.copysign(1.0, row["rate_bound"]) == 1.0
    assert row["divergence"] == row["rate_bound"] == 0.0


def test_check_named_state_exit_codes(capsys):
    code, out, _ = run_cli(capsys, "check", "erasure:0.5", "--k", "2")
    assert code == 0
    # residual carries 4 significant digits, so its bytes do not follow the
    # last digits of the solver's arithmetic
    assert json.loads(out) == {"status": "feasible", "residual": 3.654e-10, "iterations": 4}

    code, out, _ = run_cli(capsys, "check", "isotropic:1.0:2", "--k", "2")
    assert code == 2
    assert json.loads(out) == {"status": "infeasible-signal", "residual": 0.9354, "iterations": 0}

    code, out, _ = run_cli(capsys, "check", "isotropic:0.25:2", "--k", "4")
    assert code == 0  # maximally mixed state is a product state


def test_check_never_lifts_the_certificate(monkeypatch, capsys):
    # check prints status, residual and iterations only, so a Feasible
    # verdict's blocks are never lifted to the full space
    def refuse(*args):
        raise AssertionError("check lifted a certificate")

    monkeypatch.setattr(ext_mod, "_lift", refuse)
    code, out, _ = run_cli(capsys, "check", "isotropic:0.56:2", "--k", "5")
    assert code == 0
    assert json.loads(out)["status"] == "feasible"


def test_figure_rows_make_only_the_divergence_calls_of_optimize_k(monkeypatch):
    # each row's limit curve is the one optimize_k compared against, not a
    # second evaluation
    calls = []
    np_divergence = bounds_mod.np_divergence

    def counted(*args):
        calls.append(args)
        return np_divergence(*args)

    monkeypatch.setattr(bounds_mod, "np_divergence", counted)
    for kind, p in (("depolarizing", 0.15), ("erasure", 0.3)):
        calls.clear()
        rows = cli.run_figure(kind, p, 0.05, 6, k_max=64)
        in_figure = list(calls)
        calls.clear()
        for row in rows:
            opt = bounds_mod.optimize_k(ChannelSpec(kind, p), row.n, 0.05, k_max=64)
            assert opt.k_used == row.k_used
        assert in_figure == calls, kind


def test_check_inconclusive_exit_code(capsys):
    # iteration budget too small for either signal
    code, out, _ = run_cli(capsys, "check", "isotropic:0.76:2", "--k", "2", "--max-iter", "40")
    assert code == 3
    assert json.loads(out)["status"] == "inconclusive"


def test_check_json_file_input(tmp_path, capsys):
    rho = isotropic(0.6, 2)
    path = tmp_path / "state.json"
    linalg.save_matrix_json(str(path), rho.matrix, rho.dims)
    code, out, _ = run_cli(capsys, "check", str(path), "--k", "2")
    assert code == 0
    assert json.loads(out)["status"] == "feasible"


def test_check_parse_failure_exit_code(capsys):
    code, _, err = run_cli(capsys, "check", "not-a-state:1", "--k", "2")
    assert code == 1
    assert "error" in err
    # a tol whose kernel cutoff swallows the support of a separable state
    # would print an infeasibility "proof" after 0 iterations
    for tol in ("nan", "inf", "200", "1000", "1e-3"):
        code, out, err = run_cli(capsys, "check", "isotropic:0.5:2", "--k", "2", "--tol", tol)
        assert code == 1 and out == "", tol
        assert "tol" in err
    # the guard message does not form d_B**k
    code, out, err = run_cli(capsys, "check", "isotropic:0.5:2", "--k", "1000000")
    assert code == 1 and out == ""
    assert "solver guard" in err


def test_check_rejects_invalid_matrix_file(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"dim": 2, "dims": [2], "entries": [[1, 0]] * 4}))
    code, _, err = run_cli(capsys, "check", str(path), "--k", "2")
    assert code == 1  # trace is 2, not a state
    path.write_text(json.dumps({"dim": 1, "dims": [1], "entries": [5]}))
    code, _, err = run_cli(capsys, "check", str(path), "--k", "2")
    assert code == 1
    assert "unext: error:" in err
    assert "Traceback" not in err


def test_check_rejects_large_non_psd_matrix_file(tmp_path, capsys):
    # unit trace and Hermitian, smallest eigenvalue about -0.497, and larger than
    # any size below which the PSD check could be skipped
    matrix = np.eye(300) / 300
    matrix[0, 0] += 0.5
    matrix[1, 1] -= 0.5
    path = tmp_path / "non_psd.json"
    linalg.save_matrix_json(str(path), matrix, (150, 2))
    code, out, err = run_cli(capsys, "check", str(path), "--k", "2")
    assert code == 1
    assert out == ""
    assert "minimum eigenvalue" in err


def test_bound_csv_format(capsys):
    code, out, _ = run_cli(
        capsys,
        "bound", "--channel", "depolarizing", "--p", "0.15", "--eps", "0.05",
        "--n", "1", "--k", "2", "--per-use",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "#unext-bounds v1"
    assert lines[1] == "n,rate_bound,k_used,sigma_param_used,method,divergence"
    fields = lines[2].split(",")
    assert fields[0] == "1"
    # t*(2) = 3/4: the n = 1 optimum is beta = 11/12, so log2(M) = log2(1.2)
    assert abs(float(fields[1]) - math.log2(1.2)) < 1e-12
    assert fields[4] == "post-processing"


def test_bound_raw_vs_per_use(capsys):
    _, per_use, _ = run_cli(
        capsys,
        "bound", "--channel", "depolarizing", "--p", "0.15", "--eps", "0.05",
        "--n", "4", "--k", "inf", "--per-use",
    )
    _, raw, _ = run_cli(
        capsys,
        "bound", "--channel", "depolarizing", "--p", "0.15", "--eps", "0.05",
        "--n", "4", "--k", "inf",
    )
    rate_pu = float(per_use.strip().splitlines()[2].split(",")[1])
    rate_raw = float(raw.strip().splitlines()[2].split(",")[1])
    assert abs(rate_raw - 4.0 * rate_pu) < 1e-12


def test_bound_vacuous_serialization(capsys):
    # erasure at k=2 goes vacuous for large n: "inf" in CSV, null in JSON
    code, out, _ = run_cli(
        capsys,
        "bound", "--channel", "erasure", "--p", "0.35", "--eps", "0.05",
        "--n", "40", "--k", "2",
    )
    assert code == 0
    assert out.strip().splitlines()[2].split(",")[1] == "inf"

    code, out, _ = run_cli(
        capsys,
        "bound", "--channel", "erasure", "--p", "0.35", "--eps", "0.05",
        "--n", "40", "--k", "2", "--format", "json",
    )
    row = json.loads(out)["rows"][0]
    assert row["rate_bound"] is None
    assert row["vacuous"] is True


def test_bound_n_range_and_mutual_exclusion(capsys):
    code, out, _ = run_cli(
        capsys,
        "bound", "--channel", "depolarizing", "--p", "0.15", "--eps", "0.05",
        "--n-range", "1:5", "--k", "opt",
    )
    assert code == 0
    assert len(out.strip().splitlines()) == 2 + 5
    with pytest.raises(SystemExit) as exc:
        main([
            "bound", "--channel", "depolarizing", "--p", "0.15", "--eps", "0.05",
            "--n", "1", "--n-range", "1:5", "--k", "2",
        ])
    assert exc.value.code == 1


def test_unknown_flag_exits_one(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["np", "--p", "0.5", "--t", "0.5", "--n", "1", "--eps", "0.05", "--bogus", "1"])
    assert exc.value.code == 1


def test_figure_rows_and_dominance(capsys):
    code, out, _ = run_cli(
        capsys, "figure", "depolarizing", "--p", "0.15", "--eps", "0.05", "--n-max", "8"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "#unext-bounds v1"
    assert lines[1] == "n,rate_primary,rate_limit,k_used,method"
    assert len(lines) == 2 + 8
    for line in lines[2:]:
        n, prim, lim, k_used, method = line.split(",")
        if prim != "inf" and lim != "inf":
            assert float(prim) <= float(lim) + 1e-12


def test_figure_noiseless_limit_is_one_qubit_per_use(capsys):
    code, out, _ = run_cli(
        capsys, "figure", "depolarizing", "--p", "0", "--eps", "0", "--n-max", "3"
    )
    assert code == 0
    for line in out.strip().splitlines()[2:]:
        fields = line.split(",")
        assert abs(float(fields[2]) - 1.0) < 1e-12


def test_figure_erasure_full_sweep(capsys):
    code, out, _ = run_cli(
        capsys, "figure", "erasure", "--p", "0.35", "--eps", "0.05", "--n-max", "50"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 2 + 50
    for line in lines[2:]:
        _, prim, lim, _, _ = line.split(",")
        if prim != "inf" and lim != "inf":
            assert float(prim) <= float(lim) + 1e-12


def test_figure_deterministic(capsys):
    args = ("figure", "erasure", "--p", "0.35", "--eps", "0.05", "--n-max", "6")
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second


def test_threads_env_does_not_change_output(monkeypatch, capsys):
    args = ("figure", "depolarizing", "--p", "0.15", "--eps", "0.05", "--n-max", "6")
    _, serial, _ = run_cli(capsys, *args)
    monkeypatch.setenv("UNEXT_THREADS", "3")
    _, threaded, _ = run_cli(capsys, *args)
    assert serial == threaded


def test_output_file(tmp_path, capsys):
    path = tmp_path / "rows.csv"
    code, out, _ = run_cli(
        capsys,
        "bound", "--channel", "depolarizing", "--p", "0.15", "--eps", "0.05",
        "--n", "1", "--k", "2", "--output", str(path),
    )
    assert code == 0
    assert out == ""
    assert path.read_text().startswith("#unext-bounds v1")


def test_selftest_passes_and_is_deterministic(capsys):
    code1, out1, _ = run_cli(capsys, "selftest")
    code2, out2, _ = run_cli(capsys, "selftest")
    assert code1 == code2 == 0
    assert out1 == out2
    assert out1.strip().splitlines()[-1].endswith("0 failures")


def test_selftest_detects_fixture_perturbation(monkeypatch, capsys):
    closed_form = cli.t_star

    def perturbed(k):
        t, provenance = closed_form(k)
        return (t + 0.05 if k == 2 else t), provenance

    monkeypatch.setattr(cli, "t_star", perturbed)
    code, out, _ = run_cli(capsys, "selftest")
    assert code != 0
    assert "FAIL threshold-" in out


# sha256 of the README example outputs, the sweep's read from its --output
# file, and of outputs they do not print. A change that moves one of these
# must be a documented correctness fix, with the new hash noted in CHANGES.md.
OUTPUT_SHA256 = {
    "bound --channel erasure --p 0.35 --eps 0.05 --n-range 1:50 --k opt --per-use --output OUT": (
        "65cc96facee2ba108ff785ac4dd335ea0b19140bf64d133c88b5d7d52a91de0d"
    ),
    "figure depolarizing --p 0.15 --eps 0.05 --n-max 50": (
        "0699f5dd6bf307f89dea8b5d3f2470c350badb0d6ab4f29de81e3f34a39fc7a9"
    ),
    "np --p 17/20 --t 3/4 --n 100 --eps 1/20 --engine exact": (
        "2f66871214ed3bb0ea30f09d2751e0b327d51ce7a6c696815c6a9a2e47923de6"
    ),
    # JSON and raw rates: rows that go vacuous, limit and override
    # provenance, and `limit_vacuous`
    "bound --channel erasure --p 0.35 --eps 0.05 --n-range 25:32 --k opt --format json": (
        "220e243f11b73f1d3a6874dd8b461a99fe28199bb2b37fba2a57c4bdb1149962"
    ),
    "bound --channel depolarizing --p 0.15 --eps 0.05 --n-range 1:6 --k 3 --sigma-param 0.6 "
    "--format json": "275a0c87e02ee43b718b7a8c6b97bac026255094f90c15f13bb0281c169f5db4",
    "figure erasure --p 0.35 --eps 0.05 --n-max 32 --raw --format json": (
        "7a06335887ec8ed7509f020cca4120d12a230a7040b65d08194fc140a8cb05f7"
    ),
    "figure depolarizing --p 0.15 --eps 0.05 --n-max 12 --raw": (
        "32fbba9c9056d8acc45269e6a1dfea97d12ece6fa491fbe33360f48b9f015ea1"
    ),
}


def test_readme_example_outputs_are_byte_stable(tmp_path, capsys):
    out_file = tmp_path / "erasure.csv"
    for command, digest in OUTPUT_SHA256.items():
        argv = [str(out_file) if arg == "OUT" else arg for arg in command.split()]
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        data = out_file.read_bytes() if "--output" in argv else out.encode("utf-8")
        assert hashlib.sha256(data).hexdigest() == digest, command


def test_cli_import_loads_no_third_party_module_but_numpy():
    # every command pays for this import: other dependencies load where they are used
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import unext.cli\n"
        "added = {name.partition('.')[0] for name in set(sys.modules) - before}\n"
        "print(' '.join(sorted(added - set(sys.stdlib_module_names))))\n"
    )
    src = str(Path(unext.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        check=True,
    )
    assert set(run.stdout.split()) <= {"numpy", "unext"}, run.stdout
