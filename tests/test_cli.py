import argparse
import json

import numpy as np
import pytest

from qmm.cli import _emit_report, main
from qmm.harness import ReportTable
from qmm.io import load_matrix_csv, save_matrix_csv, save_report_json


@pytest.fixture
def matrices(tmp_path):
    rng = np.random.default_rng(31)
    a_path = tmp_path / "a.csv"
    b_path = tmp_path / "b.csv"
    save_matrix_csv(a_path, rng.normal(size=(3, 3)) + np.eye(3))
    save_matrix_csv(b_path, rng.normal(size=(3, 3)))
    return str(a_path), str(b_path)


def test_gen_then_multiply_then_verify(tmp_path, capsys):
    a = tmp_path / "a.csv"
    out = tmp_path / "report.json"
    assert main(["gen", "--n", "4", "--kappa", "10", "--seed", "71", "--out", str(a)]) == 0
    mat = load_matrix_csv(a)
    sigmas = np.linalg.svd(mat, compute_uv=False)
    assert sigmas[0] / sigmas[-1] == pytest.approx(10.0, rel=0.01)
    code = main(
        ["multiply", "--method", "swap", "--a", str(a), "--b", str(a), "--eps", "0.05", "--out", str(out)]
    )
    assert code == 0
    report = json.loads(out.read_text())
    assert report["schema"] == 2
    assert report["violations"] == []
    assert main(["verify", str(out)]) == 0
    assert "pass" in capsys.readouterr().out


def test_verify_fails_on_tampered_report(tmp_path, matrices, capsys):
    a, b = matrices
    out = tmp_path / "report.json"
    main(["multiply", "--method", "sve", "--a", a, "--b", b, "--eps", "0.1", "--out", str(out)])
    report = json.loads(out.read_text())
    report["rows"][0]["realized_error"] = 99.0
    out.write_text(json.dumps(report))
    assert main(["verify", str(out)]) == 1
    assert "exceeds" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text, message",
    [
        ("[]", "a report is a JSON object, not list"),
        ('{"schema": 2, "rows": 5}', "the rows are a JSON list, not int"),
        ('{"schema": 2, "rows": [1]}', "row 0: a row is a JSON object, not int"),
    ],
)
def test_verify_reports_a_malformed_report_without_a_traceback(tmp_path, capsys, text, message):
    path = tmp_path / "report.json"
    path.write_text(text)
    assert main(["verify", str(path)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: {path}: {message}\n"


def test_readout_entries_within_eps(tmp_path, matrices):
    a, b = matrices
    entries = tmp_path / "c.csv"
    code = main(
        ["readout", "--method", "swap", "--a", a, "--b", b, "--eps", "0.1", "--entries-out", str(entries)]
    )
    assert code == 0
    c_tilde = load_matrix_csv(entries)
    exact = load_matrix_csv(a) @ load_matrix_csv(b)
    assert np.max(np.abs(c_tilde - exact)) <= 0.1


def test_prepare_methods(tmp_path, capsys):
    x = tmp_path / "x.csv"
    x.write_text("1.0,2.0,4.0,8.0\n")
    for method in ("direct", "sparse", "dyadic", "signshift"):
        assert main(["prepare", "--method", method, "--x", str(x)]) == 0


@pytest.mark.parametrize("method", ["direct", "hamiltonian", "sparse", "dyadic", "signshift"])
def test_prepare_a_one_entry_vector_then_verify(tmp_path, method, capsys):
    x, out = tmp_path / "x.csv", tmp_path / "r.json"
    x.write_text("3.0\n")
    assert main(["prepare", "--method", method, "--x", str(x), "--out", str(out)]) == 0
    assert main(["verify", str(out)]) == 0


@pytest.mark.parametrize("method", ["sve", "hhl"])
def test_readout_of_a_zero_a_is_one_error_line(tmp_path, matrices, method, capsys):
    zero = tmp_path / "zero.csv"
    save_matrix_csv(zero, np.zeros((3, 3)))
    assert main(["readout", "--method", method, "--a", str(zero), "--b", matrices[1]]) == 1
    assert capsys.readouterr().err == "error: A is zero\n"


def test_gen_rejects_a_nan_kappa(tmp_path, capsys):
    out = tmp_path / "a.csv"
    assert main(["gen", "--n", "3", "--kappa", "nan", "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: condition number must be finite\n"
    assert not out.exists()


def test_malformed_csv_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("1.0,nope\n")
    code = main(["multiply", "--method", "swap", "--a", str(bad), "--b", str(bad)])
    assert code == 1
    assert "line 1" in capsys.readouterr().err


@pytest.mark.parametrize("excess, violated", [(1e-16, False), (1e-14, True)])
def test_report_verify_and_exit_code_share_one_violation_rule(tmp_path, excess, violated, capsys):
    # an lcu row's bound is its eps and verify keeps its stored realized
    # error, so the excess over the bound is all that the three judge
    row = {"id": "lcu-row", "method": "lcu", "eps": 0.05, "bound": 0.05, "realized_error": 0.05 + excess}
    table = ReportTable(method="lcu", config={}, rows=[row])
    assert table.violations == (["lcu-row"] if violated else [])
    assert _emit_report(table, argparse.Namespace(out=None)) == int(violated)
    assert capsys.readouterr().out.split()[-1] == ("VIOLATION" if violated else "ok")
    save_report_json(tmp_path / "r.json", table.to_dict())
    assert main(["verify", str(tmp_path / "r.json")]) == int(violated)


def test_scaling_rejects_kappa_below_one(capsys):
    assert main(["scaling", "--method", "prep-sparse", "--kappa", "0.5"]) == 1
    assert "condition number is at least 1" in capsys.readouterr().err


def test_scaling_prints_slopes(capsys):
    code = main(
        ["scaling", "--method", "readout-swap", "--n-grid", "2,4", "--eps-grid", "0.125,0.0625", "--seeds", "1"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "cost_vs_inv_eps" in out
    assert "cost_vs_n" in out


def test_exact_phase_flag(tmp_path, matrices):
    a, b = matrices
    out = tmp_path / "r.json"
    code = main(
        ["multiply", "--method", "hhl", "--a", a, "--b", b, "--eps", "0.05", "--exact-phase", "--out", str(out)]
    )
    assert code == 0
    report = json.loads(out.read_text())
    assert report["rows"][0]["realized_error"] < 1e-7


def test_multiply_rejects_options_the_method_ignores(matrices, capsys):
    a, b = matrices
    assert main(["multiply", "--method", "lcu", "--a", a, "--b", b, "--phase-bits", "8"]) == 1
    assert "'lcu' takes no phase_bits" in capsys.readouterr().err
    assert main(["multiply", "--method", "swap", "--a", a, "--b", b, "--strict-support"]) == 1
    assert "'swap' takes no strict_support" in capsys.readouterr().err


def test_readout_rejects_strict_support_for_swap(matrices, capsys):
    a, b = matrices
    assert main(["readout", "--method", "swap", "--a", a, "--b", b, "--strict-support"]) == 1
    assert "'readout-swap' takes no strict_support" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["readout", "--method", "sve", "--phase-bits", "8"],
        ["readout", "--method", "hhl", "--exact-phase"],
        ["prepare", "--method", "direct", "--phase-bits", "8"],
        ["prepare", "--method", "direct", "--exact-phase"],
        ["prepare", "--method", "sparse", "--strict-support"],
    ],
)
def test_verbs_have_only_the_flags_they_use(tmp_path, matrices, argv, capsys):
    a, b = matrices
    x = tmp_path / "x.csv"
    x.write_text("1.0,2.0\n")
    inputs = ["--x", str(x)] if argv[0] == "prepare" else ["--a", a, "--b", b]
    with pytest.raises(SystemExit) as exc:
        main(argv + inputs)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
