import argparse
import json

import numpy as np
import pytest

from qmm.cli import _emit_report, main
from qmm.harness import ExperimentConfig, ReportTable, run_experiment, verify_bounds
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
    assert report["schema"] == 3
    assert len(report["instances"]) == 1  # a and b are one matrix
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
        # a schema is an int: true and 1.0 equal 1, and 3.0 equals 3, but none is read
        ('{"schema": true, "rows": [{"id": "r", "x": [1.0, 2.0]}]}', "unsupported report schema True"),
        ('{"schema": 1.0, "rows": [{"id": "r", "x": [1.0, 2.0]}]}', "unsupported report schema 1.0"),
        ('{"schema": 3.0, "instances": [], "rows": []}', "unsupported report schema 3.0"),
        # the schemas earlier versions wrote: plain instance lists, and packed fields inline
        ('{"schema": 1, "rows": [{"id": "r", "x": [1.0, 2.0]}]}', "unsupported report schema 1"),
        ('{"schema": 2, "rows": [{"id": "r", "x": {"f8": "AAAAAAAA8D8=", "shape": [1]}}]}', "unsupported report schema 2"),
        ('{"schema": 3, "rows": 5}', "the rows are a JSON list, not int"),
        ('{"schema": 3, "rows": [1]}', "row 0: a row is a JSON object, not int"),
        ('{"schema": 3, "instances": {}, "rows": []}', "the instances are a JSON list, not dict"),
        (
            '{"schema": 3, "instances": [], "rows": [{"id": "r", "x": 0}]}',
            "row 'r': field 'x' cannot be decoded: index 0 is outside the 0 instances",
        ),
        (
            '{"schema": 3, "instances": [], "rows": [{"id": "r", "a": {"shape": [1], "f8": "AAAAAAAA8D8="}}]}',
            "row 'r': field 'a' cannot be decoded: an instance field is an index into the instances, not dict",
        ),
    ],
)
def test_verify_reports_a_malformed_report_without_a_traceback(tmp_path, capsys, text, message):
    path = tmp_path / "report.json"
    path.write_text(text)
    assert main(["verify", str(path)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: {path}: {message}\n"


def broken_rows(a, b) -> list[dict]:
    """An sve row whose b does not chain with its a, and a swap row
    without phase_bits: rows verify cannot recompute a bound for."""
    sve, swap = (
        run_experiment(ExperimentConfig(method=m, inputs={"a": a, "b": b})).rows[0] for m in ("sve", "swap")
    )
    sve["b"] = np.asarray(b)[:2, :2]
    del swap["phase_bits"]
    return [sve, swap]


BROKEN_ROW_PROBLEMS = [
    "sve-n3-seed0: cannot recompute from the instance: dimension mismatch: (3, 3) x (2, 2)",
    "swap-n3-seed0: cannot recompute from the instance: the row has no field 'phase_bits'",
]


def test_verify_names_what_it_cannot_recompute(tmp_path, matrices, capsys):
    rows = broken_rows(load_matrix_csv(matrices[0]), load_matrix_csv(matrices[1]))
    ok, findings = verify_bounds({"rows": rows})
    assert not ok
    assert [f"{f['id']}: {f['problem']}" for f in findings] == BROKEN_ROW_PROBLEMS
    for row, problem in zip(rows, BROKEN_ROW_PROBLEMS):
        path = tmp_path / f"{row['id']}.json"
        save_report_json(path, {"method": row["method"], "config": {}, "rows": [row]})
        assert main(["verify", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.err == problem + "\n"
        assert captured.out == "fail (1 problem(s))\n"
    path = tmp_path / "both.json"
    save_report_json(path, {"method": "mixed", "config": {}, "rows": rows})
    assert main(["verify", str(path)]) == 1
    assert capsys.readouterr().err.splitlines() == BROKEN_ROW_PROBLEMS


def test_verify_cannot_recompute_an_sve_bound_from_zero_sigma_eff(tmp_path, matrices, capsys):
    a, b = (load_matrix_csv(p) for p in matrices)
    report = run_experiment(ExperimentConfig(method="sve", inputs={"a": a, "b": b})).to_dict()
    details = report["rows"][0]["details"]
    details["sigma_eff"] = [0.0] * len(details["sigma_eff"])
    problem = "sve-n3-seed0: cannot recompute from the instance: error budget undefined for a zero product"
    ok, findings = verify_bounds(report)
    assert not ok
    assert [f"{f['id']}: {f['problem']}" for f in findings] == [problem]
    path = tmp_path / "r.json"
    save_report_json(path, report)
    assert main(["verify", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.err == problem + "\n"
    assert captured.out == "fail (1 problem(s))\n"


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


@pytest.mark.parametrize("method", ["direct", "hamiltonian", "sparse", "dyadic", "signshift"])
@pytest.mark.parametrize("scale, norm", [("e-200", "0.0"), ("e300", "inf")])
def test_prepare_of_a_vector_whose_norm_under_or_overflows_is_one_error_line(tmp_path, method, scale, norm, capsys):
    # at 1e-200 dyadic and signshift once raised ZeroDivisionError and the
    # others called x zero; at 1e300 every route warned of an overflow
    x = tmp_path / "x.csv"
    x.write_text(f"1{scale},2{scale},-3{scale}\n")
    assert main(["prepare", "--method", method, "--x", str(x)]) == 1
    assert capsys.readouterr().err == f"error: ||x|| = {norm} in float64 (it under- or overflows): rescale x\n"


@pytest.mark.parametrize("method", ["sve", "hhl"])
def test_readout_of_a_zero_a_is_one_error_line(tmp_path, matrices, method, capsys):
    zero = tmp_path / "zero.csv"
    save_matrix_csv(zero, np.zeros((3, 3)))
    assert main(["readout", "--method", method, "--a", str(zero), "--b", matrices[1]]) == 1
    assert capsys.readouterr().err == "error: A is zero\n"


@pytest.mark.parametrize("method", ["sve", "hhl"])
def test_readout_of_a_zero_b_is_one_error_line(tmp_path, matrices, method, capsys):
    zero = tmp_path / "zero.csv"
    save_matrix_csv(zero, np.zeros((3, 3)))
    assert main(["readout", "--method", method, "--a", matrices[0], "--b", str(zero)]) == 1
    assert capsys.readouterr().err == "error: B is zero\n"


@pytest.mark.parametrize("method", ["sve", "hhl"])
def test_multiply_of_nonzero_factors_with_a_zero_product_is_one_error_line(tmp_path, method, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    save_matrix_csv(a, np.diag([1.0, 0.0]))
    save_matrix_csv(b, np.array([[0.0, 0.0], [0.0, 1.0]]))
    assert main(["multiply", "--method", method, "--a", str(a), "--b", str(b)]) == 1
    assert capsys.readouterr().err == "error: AB = 0: the product state is undefined\n"


def test_a_csv_without_rows_is_one_error_line(tmp_path, matrices, capsys):
    empty = tmp_path / "empty.csv"
    empty.write_text("# a comment\n\n   \n# another\n")
    assert main(["multiply", "--method", "swap", "--a", str(empty), "--b", matrices[1]]) == 1
    assert capsys.readouterr().err == f"error: {empty}: no matrix rows found\n"


def test_prepare_of_a_matrix_is_one_error_line(tmp_path, capsys):
    x = tmp_path / "x.csv"
    x.write_text("1.0,2.0\n3.0,4.0\n")
    assert main(["prepare", "--method", "sparse", "--x", str(x)]) == 1
    assert capsys.readouterr().err == f"error: {x}: expected a single row or column of values\n"


def test_gen_rejects_a_nan_kappa(tmp_path, capsys):
    out = tmp_path / "a.csv"
    assert main(["gen", "--n", "3", "--kappa", "nan", "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: condition number must be finite\n"
    assert not out.exists()


def test_gen_rejects_a_negative_seed(tmp_path, capsys):
    out = tmp_path / "a.csv"
    assert main(["gen", "--n", "3", "--seed", "-1", "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: seed must be nonnegative, not -1\n"
    assert not out.exists()


@pytest.mark.parametrize("sigma_max", ["nan", "inf", "0", "-2"])
@pytest.mark.parametrize("n", ["1", "3"])
def test_gen_rejects_a_sigma_max_that_is_not_finite_and_positive(tmp_path, capsys, n, sigma_max):
    out = tmp_path / "a.csv"
    assert main(["gen", "--n", n, "--sigma-max", sigma_max, "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: sigma_max must be finite and positive\n"
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


@pytest.mark.parametrize(
    "method, n_grid", [("swap", "4"), ("sve", "4,4")]  # 4,4 once printed "cost_vs_n: slope=2.500 +- 0.000"
)
def test_scaling_names_each_slope_a_one_value_grid_skips(method, n_grid, capsys):
    argv = ["scaling", "--method", method, "--n-grid", n_grid, "--eps-grid", "0.1", "--seeds", "1"]
    assert main(argv) == 0
    assert capsys.readouterr().out.splitlines() == [
        "cost_vs_inv_eps: no slope, the eps grid has one distinct value",
        "cost_vs_n: no slope, the n grid has one distinct value",
    ]


def test_scaling_writes_its_cost_table(tmp_path, capsys):
    out = tmp_path / "scaling.csv"
    argv = ["--method", "prep-sparse", "--n-grid", "16,64", "--eps-grid", "0.1,0.05", "--seeds", "1,2"]
    assert main(["scaling", *argv, "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "n,eps,seed,cost,amplification_rounds,realized_error,bound"
    assert len(lines) == 9
    assert lines[1].startswith("16,0.1,1,29.0,29,")
    assert capsys.readouterr().out.splitlines() == [
        "cost_vs_inv_eps: slope=0.975 +- 0.000",
        "cost_vs_n: slope=0.000 +- 0.000",
    ]


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


@pytest.mark.parametrize(
    "argv",
    [
        ["readout", "--method", "sve", "--phase-bits", "8"],
        ["readout", "--method", "hhl", "--exact-phase"],
        ["prepare", "--method", "direct", "--phase-bits", "8"],
        ["prepare", "--method", "direct", "--exact-phase"],
        ["prepare", "--method", "sparse", "--strict-support"],
        ["multiply", "--method", "sve", "--strict-support"],
        ["readout", "--method", "hhl", "--strict-support"],
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
