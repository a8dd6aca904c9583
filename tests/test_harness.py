import importlib.util
import json
import math
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from qmm import Result, Statevector, harness, stateprep
from qmm.harness import (
    MULTIPLY_METHODS,
    PREP_METHODS,
    READOUT_METHODS,
    ExperimentConfig,
    fit_loglog_slope,
    generate_matrix,
    generate_vector,
    run_experiment,
    scaling_study,
    verify_bounds,
)
from qmm.io import load_matrix_csv, load_report_json, load_vector_csv, save_matrix_csv, save_report_json
from qmm.linalg import compute_svd
from qmm.matmul import MAX_PHASE_BITS, SupportViolationWarning, matmul_swaptest
from helpers import comparable, comparable_rows


# ---------------------------------------------------------------------------
# fixture generation

def test_generate_matrix_kappa_one_is_scaled_orthogonal():
    a = generate_matrix(3, 1.0, seed=2)
    sigmas = compute_svd(a).sigmas
    assert np.allclose(sigmas, sigmas[0])


def test_generate_matrix_hits_target_kappa():
    a = generate_matrix(4, 10.0, seed=71)
    sigmas = compute_svd(a).sigmas
    assert sigmas[0] / sigmas[-1] == pytest.approx(10.0, rel=0.01)


def test_generate_matrix_deterministic():
    a1 = generate_matrix(5, 3.0, seed=9)
    a2 = generate_matrix(5, 3.0, seed=9)
    assert np.array_equal(a1, a2)


def test_generate_matrix_validation():
    with pytest.raises(ValueError):
        generate_matrix(0, 1.0, seed=1)
    with pytest.raises(ValueError):
        generate_matrix(2, 0.5, seed=1)
    with pytest.raises(ValueError):
        generate_matrix(1, 2.0, seed=1)


def test_generate_matrix_one_by_one_is_sigma_max():
    for seed in (0, 1):
        assert np.array_equal(generate_matrix(1, 1.0, seed), [[1.0]])
    assert np.array_equal(generate_matrix(1, 1.0, 3, sigma_max=2.5), [[2.5]])


def test_generate_vector_spread():
    x = generate_vector(8, 16.0, seed=4)
    mags = np.abs(x)
    assert mags.max() / mags.min() == pytest.approx(16.0, rel=1e-12)


def test_generate_vector_rejects_an_empty_vector():
    with pytest.raises(ValueError, match="n must be positive"):
        generate_vector(0, 1.0, seed=1)


def test_generate_vector_rejects_kappa_below_one():
    # kappa 0.5 once gave a vector whose magnitude spread was 2
    with pytest.raises(ValueError, match="condition number is at least 1"):
        generate_vector(4, 0.5, seed=1)


@pytest.mark.parametrize("generate", [generate_matrix, generate_vector])
@pytest.mark.parametrize("kappa", [float("nan"), float("inf")])
def test_generators_reject_a_kappa_that_is_not_finite(generate, kappa):
    # nan once gave an all-nan matrix and nan entries, inf numpy's
    # "Geometric sequence cannot include zero"
    with pytest.raises(ValueError, match="condition number must be finite"):
        generate(3, kappa, 0)


def test_generate_vector_rejects_a_spread_one_entry_cannot_have():
    # one entry once came back as [1.], a spread of 1 for any kappa
    with pytest.raises(ValueError, match="a 1-entry vector cannot have kappa > 1"):
        generate_vector(1, 4.0, 0)
    assert np.abs(generate_vector(1, 1.0, 0)).tolist() == [1.0]


# ---------------------------------------------------------------------------
# experiments

def test_experiment_config_validation():
    with pytest.raises(ValueError, match="unknown method"):
        ExperimentConfig(method="nope")
    with pytest.raises(ValueError, match="eps"):
        ExperimentConfig(method="swap", eps=2.0)
    with pytest.raises(ValueError, match="phase_bits"):
        ExperimentConfig(method="swap", phase_bits=25)
    for bad in (1, MAX_PHASE_BITS + 1):
        with pytest.raises(ValueError, match=rf"\[2, {MAX_PHASE_BITS}\]"):
            ExperimentConfig(method="swap", phase_bits=bad)
    assert ExperimentConfig(method="swap", phase_bits=MAX_PHASE_BITS).phase_bits == MAX_PHASE_BITS
    # a width of 9.7 would run at t = 9 while the config records 9.7
    with pytest.raises(ValueError, match="phase_bits must be an integer"):
        ExperimentConfig(method="swap", phase_bits=9.7)
    with pytest.raises(ValueError, match="phase_bits must be an integer"):
        matmul_swaptest(np.eye(2), np.eye(2), phase_bits=9.7)


@pytest.mark.parametrize(
    "method, option",
    [
        ("lcu", {"phase_bits": 8}),
        ("lcu", {"exact_phase": True}),
        ("readout-sve", {"exact_phase": True}),
        ("readout-hhl", {"phase_bits": 8}),
        ("readout-swap", {"phase_bits": 8}),
        ("readout-sve", {"phase_bits": 8}),
        ("readout-hhl", {"exact_phase": True}),
        ("prep-direct", {"phase_bits": 8}),
        ("prep-sparse", {"exact_phase": True}),
    ],
)
def test_experiment_config_rejects_options_the_method_ignores(method, option):
    name = next(iter(option))
    with pytest.raises(ValueError, match=f"{method!r} takes no {name}"):
        ExperimentConfig(method=method, **option)


@pytest.mark.parametrize(
    "method, option",
    [
        ("swap", {"phase_bits": 8, "exact_phase": True}),
        ("sve", {"phase_bits": 8, "exact_phase": True}),
        ("hhl", {"phase_bits": 8, "exact_phase": True}),
        # the unset values pass for a method that takes no option
        ("readout-sve", {"phase_bits": None, "exact_phase": False}),
        ("readout-hhl", {"phase_bits": None, "exact_phase": False}),
        ("lcu", {"phase_bits": None, "exact_phase": False}),
    ],
)
def test_experiment_config_accepts_options_the_method_takes(method, option):
    assert harness.RUN_OPTIONS == ("phase_bits", "exact_phase")
    cfg = ExperimentConfig(method=method, **option)
    assert cfg.options() == (option if method in ("swap", "sve", "hhl") else {})


@pytest.mark.parametrize("method", ["sve", "hhl", "readout-sve", "readout-hhl"])
def test_a_support_violation_warns_and_is_an_error_under_the_filter(method):
    # A = diag(1, 0) leaves 1.25 / 2.25 of B's weight on its dead direction;
    # the row still keeps its bound
    inputs = {"a": np.diag([1.0, 0.0]), "b": np.array([[1.0, 0.0], [1.0, 0.5]])}
    cfg = ExperimentConfig(method=method, eps=0.1, inputs=inputs)
    with pytest.warns(SupportViolationWarning, match="5.556e-01 of B's weight"):
        row = run_experiment(cfg).rows[0]
    assert row["realized_error"] <= row["bound"]
    with warnings.catch_warnings():
        warnings.simplefilter("error", SupportViolationWarning)
        with pytest.raises(SupportViolationWarning):
            run_experiment(cfg)


def test_run_experiment_swap_identity():
    cfg = ExperimentConfig(method="swap", eps=0.05, inputs={"a": np.eye(2), "b": np.eye(2)})
    table = run_experiment(cfg)
    row = table.rows[0]
    assert row["realized_error"] <= row["bound"]
    assert row["success_probability"] == pytest.approx(0.5, abs=1e-10)
    assert not table.violations


def test_run_experiment_readout_seed31():
    rng = np.random.default_rng(31)
    cfg = ExperimentConfig(
        method="readout-swap",
        eps=0.05,
        inputs={"a": rng.normal(size=(3, 3)), "b": rng.normal(size=(3, 3))},
    )
    row = run_experiment(cfg).rows[0]
    assert row["realized_error"] <= 0.05


def test_run_experiment_deterministic_reports():
    rng = np.random.default_rng(8)
    a, b = rng.normal(size=(3, 3)), rng.normal(size=(3, 3))
    cfg = ExperimentConfig(method="sve", eps=0.1, seed=3, inputs={"a": a, "b": b})
    r1 = run_experiment(cfg).to_dict()
    r2 = run_experiment(cfg).to_dict()
    for r in (r1, r2):
        for row in r["rows"]:
            row.pop("wall_time")
        r["rows"] = comparable_rows(r["rows"])
    assert json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)


@pytest.mark.parametrize("method, names", [("sve", ("a", "b")), ("readout-swap", ("a", "b")), ("prep-dyadic", ("x",))])
def test_rows_hold_read_only_snapshots_of_the_inputs(tmp_path, method, names):
    rng = np.random.default_rng(4)
    inputs = {name: rng.normal(size=(3, 3) if name != "x" else 16) for name in names}
    table = run_experiment(ExperimentConfig(method=method, eps=0.1, seed=1, inputs=inputs))
    save_report_json(tmp_path / "before.json", table.to_dict())
    row = table.rows[0]
    kept = {name: row[name].copy() for name in names}
    for name in names:
        assert row[name].dtype == np.float64 and not row[name].flags.writeable
        inputs[name][...] = 9.0  # the caller reuses its arrays
    for name in names:
        assert np.array_equal(row[name].view(np.uint64), kept[name].view(np.uint64))
    save_report_json(tmp_path / "after.json", table.to_dict())
    assert (tmp_path / "after.json").read_bytes() == (tmp_path / "before.json").read_bytes()


# the Result fields each family sets besides method, realized_error, bound
# and ledger; the bench's reference records expect exactly these row keys
_PRODUCT = ("state", "success_probability", "phase_bits", "expected_success_probability", "details")
_SMALL_ANGLE = ("state", "success_probability", "epsilon0", "epsilon1", "details")
SET_FIELDS = {
    **dict.fromkeys(MULTIPLY_METHODS, _PRODUCT),
    **dict.fromkeys(READOUT_METHODS, ("c_tilde",)),
    **dict.fromkeys(PREP_METHODS, _SMALL_ANGLE),
    "prep-direct": ("state", "success_probability"),
}


@pytest.mark.parametrize("method", MULTIPLY_METHODS + READOUT_METHODS + PREP_METHODS)
def test_every_method_returns_a_result_whose_set_fields_make_its_row(method, monkeypatch):
    if method in PREP_METHODS:
        inputs = {"x": generate_vector(16, 4.0, seed=2)}
    else:
        inputs = {"a": generate_matrix(4, 2.0, seed=2), "b": generate_matrix(4, 2.0, seed=3)}
    results = []
    call = harness._CALLS[method]
    monkeypatch.setitem(harness._CALLS, method, lambda *args, **kw: results.append(call(*args, **kw)) or results[-1])
    row = run_experiment(ExperimentConfig(method=method, eps=0.05, seed=2, inputs=inputs)).rows[0]
    (res,) = results
    assert isinstance(res, Result)
    assert isinstance(res.state, Statevector) == (method not in READOUT_METHODS)
    always = ("realized_error", "bound", "ledger")
    assert {f.name for f in fields(res) if getattr(res, f.name) is not None} == {*always, *SET_FIELDS[method]}
    want = {name: getattr(res, name) for name in ("realized_error", "bound", *SET_FIELDS[method]) if name != "state"}
    if "c_tilde" in want:
        want["c_tilde"] = res.c_tilde.tolist()
    want.update(inputs, id=f"{method}-n{16 if 'x' in inputs else 4}-seed2", method=method, eps=0.05, ledger=res.ledger.to_dict())
    assert isinstance(row.pop("wall_time"), float)
    assert comparable(row) == comparable(want)


# ---------------------------------------------------------------------------
# scaling studies

def test_fit_loglog_slope_exact_powers():
    xs = [1, 2, 4, 8]
    slope, err = fit_loglog_slope(xs, [x**2 for x in xs])
    assert slope == pytest.approx(2.0, abs=1e-12)
    assert err < 1e-12


def test_scaling_readout_swap_slopes():
    result = scaling_study(
        "readout-swap", n_grid=[2, 4], eps_grid=[2**-3, 2**-4, 2**-5], seeds=[1, 2]
    )
    slope, _ = result["slopes"]["cost_vs_inv_eps"]
    assert abs(slope - 1.0) <= 0.15
    slope_n, _ = result["slopes"]["cost_vs_n"]
    assert abs(slope_n - 2.0) <= 0.2


def test_scaling_prep_sparse_cost_follows_inverse_eps_not_n():
    # the rounds ceil(1/eps0) depend on eps and kappa, not on n
    result = scaling_study("prep-sparse", n_grid=[16, 64], eps_grid=[0.1, 0.05], seeds=[1, 2])
    table = result["table"]
    assert [(r["n"], r["eps"], r["seed"]) for r in table] == [
        (n, eps, seed) for n in (16, 64) for eps in (0.1, 0.05) for seed in (1, 2)
    ]
    assert all(r["realized_error"] <= r["bound"] and r["cost"] == r["amplification_rounds"] for r in table)
    slope, _ = result["slopes"]["cost_vs_inv_eps"]
    assert abs(slope - 1.0) <= 0.05
    slope_n, _ = result["slopes"]["cost_vs_n"]
    assert abs(slope_n) <= 1e-12


# ---------------------------------------------------------------------------
# verification

def _sample_report():
    rng = np.random.default_rng(5)
    a = rng.normal(size=(3, 3)) + np.eye(3)
    b = rng.normal(size=(3, 3))
    cfg = ExperimentConfig(method="sve", eps=0.1, inputs={"a": a, "b": b})
    return run_experiment(cfg).to_dict()


def test_verify_bounds_clean_report():
    ok, findings = verify_bounds(_sample_report())
    assert ok
    assert findings == []


def test_verify_bounds_flags_corrupted_error():
    report = _sample_report()
    report["rows"][0]["realized_error"] = report["rows"][0]["bound"] * 10
    ok, findings = verify_bounds(report)
    assert not ok
    assert findings[0]["id"] == report["rows"][0]["id"]
    assert "exceeds" in findings[0]["problem"]


def test_verify_bounds_flags_tampered_bound():
    report = _sample_report()
    report["rows"][0]["bound"] = report["rows"][0]["bound"] * 2
    ok, findings = verify_bounds(report)
    assert not ok
    assert "recomputed" in findings[0]["problem"]


def test_verify_bounds_lcu_row_and_unknown_method():
    rng = np.random.default_rng(5)
    a, b = rng.normal(size=(3, 3)), rng.normal(size=(3, 3))
    report = run_experiment(ExperimentConfig(method="lcu", eps=0.1, inputs={"a": a, "b": b})).to_dict()
    assert verify_bounds(report) == (True, [])
    report["rows"][0]["method"] = "rank-one"  # no report row carries it
    ok, findings = verify_bounds(report)
    assert not ok and findings[0]["problem"] == "unknown method"


@pytest.mark.parametrize("method", ["sve", "hhl"])
def test_verify_bounds_derives_eps1_from_phase_bits(method):
    # a row whose stored eps1_eff and bound are inflated together must not
    # pass: eps1 comes from phase_bits and the route, not from the row
    rng = np.random.default_rng(5)
    a = rng.normal(size=(3, 3)) + np.eye(3)
    b = rng.normal(size=(3, 3))
    report = run_experiment(ExperimentConfig(method=method, eps=0.1, inputs={"a": a, "b": b})).to_dict()
    assert verify_bounds(report) == (True, [])
    row = report["rows"][0]
    row["details"]["eps1_eff"] *= 4
    row["bound"] *= 4
    ok, findings = verify_bounds(report)
    assert not ok
    assert "recomputed" in findings[0]["problem"]


@pytest.mark.parametrize("method", PREP_METHODS)
def test_verify_bounds_recomputes_prep_bounds(method):
    # prep bounds come from the row's x and eps, so inflating a row's bound
    # together with its realized error is caught
    x = generate_vector(16, 8.0, seed=2)
    report = run_experiment(ExperimentConfig(method=method, eps=0.05, inputs={"x": x})).to_dict()
    assert verify_bounds(report) == (True, [])
    row = report["rows"][0]
    row["bound"] *= 4
    row["realized_error"] *= 4
    ok, findings = verify_bounds(report)
    assert not ok
    assert "recomputed" in findings[0]["problem"]


@pytest.mark.parametrize("method", READOUT_METHODS)
def test_verify_bounds_recomputes_readout_entries(method):
    # a stored realized error one part in a million off, and a tampered
    # entry that leaves the stored realized error in place, are caught: the
    # error is recomputed from c_tilde and the instance
    a, b = generate_matrix(4, 2.0, seed=3), generate_matrix(4, 2.0, seed=4)
    report = run_experiment(ExperimentConfig(method=method, eps=0.05, inputs={"a": a, "b": b})).to_dict()
    assert verify_bounds(report) == (True, [])
    row = report["rows"][0]
    realized = row["realized_error"]
    row["realized_error"] = realized * (1.0 + 1e-6)  # still under its bound
    ok, findings = verify_bounds(report)
    assert not ok
    assert "recomputed from c_tilde" in findings[0]["problem"]
    row["realized_error"] = realized
    row["c_tilde"][0][0] += 10 * row["eps"]
    ok, findings = verify_bounds(report)
    assert not ok
    assert "recomputed from c_tilde" in findings[0]["problem"]


def test_verify_bounds_batch_of_seeded_swap_runs():
    reports = []
    for seed in range(20):
        a = generate_matrix(3, 2.0, seed=seed)
        b = generate_matrix(3, 3.0, seed=seed + 500)
        cfg = ExperimentConfig(method="swap", eps=0.1, seed=seed, inputs={"a": a, "b": b})
        reports.append(run_experiment(cfg).to_dict())
    for report in reports:
        ok, findings = verify_bounds(report)
        assert ok, findings


# ---------------------------------------------------------------------------
# pinned rows of every method

DATA = Path(__file__).parent / "data"
_spec = importlib.util.spec_from_file_location("record_pinned", DATA / "record_pinned.py")
record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(record)
PINNED_TEXT = record.PINNED.read_text()
PINNED = json.loads(PINNED_TEXT)["cases"]


def assert_matches_pinned(got, want, path="case"):
    """Ints, strings, bools and ledgers equal; floats within 1e-12 relative."""
    if isinstance(want, dict):
        assert got.keys() == want.keys(), path
        for key in want:
            if key == "ledger":
                assert got[key] == want[key], f"{path}.ledger"
            else:
                assert_matches_pinned(got[key], want[key], f"{path}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), path
        for k, (g, w) in enumerate(zip(got, want)):
            assert_matches_pinned(g, w, f"{path}[{k}]")
    elif isinstance(want, float):
        assert isinstance(got, float) and abs(got - want) <= 1e-12 * abs(want), f"{path}: {got!r} != {want!r}"
    else:
        assert type(got) is type(want) and got == want, f"{path}: {got!r} != {want!r}"


@pytest.mark.parametrize("case", PINNED, ids=record.case_id)
def test_every_method_matches_its_pinned_row(case):
    # tests/data/record_pinned.py prints what moved, and re-records with --write
    assert_matches_pinned(record.rerun(case), case)


def test_pinned_file_is_the_recorder_text():
    assert PINNED_TEXT == record.text(PINNED)


def test_record_pinned_exits_1_on_a_move_and_writes_only_with_write(tmp_path, monkeypatch, capsys):
    moved = dict(PINNED[0], row=dict(PINNED[0]["row"], bound=2.0 * PINNED[0]["row"]["bound"]))
    path = tmp_path / "pinned.json"
    path.write_text(record.text([moved]))
    monkeypatch.setattr(record, "PINNED", path)
    assert record.main([]) == 1 and path.read_text() == record.text([moved])
    assert record.main(["--write"]) == 0 and record.main([]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "0 fields moved in 1 cases"


def test_record_pinned_prints_one_line_per_added_or_dropped_key():
    old = {"id": "r", "bound": 0.5, "details": {"rounds": 3, "success_probability": 0.25}}
    new = {"id": "r", "bound": 0.5, "details": {"rounds": 3}, "weights": [0.6, 0.8]}
    assert record.moved_lines("r", old, new) == [
        "r  details.success_probability  0.25  absent  -",
        "r  weights  absent  [0.6, 0.8]  -",
    ]
    # the shared keys are still compared leaf by leaf
    new["details"]["rounds"] = 4
    assert record.moved_lines("r", old, new)[0] == "r  details.rounds  3  4  -"


def test_pinned_rows_cover_every_method():
    methods = {case["method"] for case in PINNED}
    assert methods == set(MULTIPLY_METHODS + READOUT_METHODS + PREP_METHODS)
    ids = [record.case_id(case) for case in PINNED]
    assert len(set(ids)) == len(ids)
    assert any(case["options"].get("exact_phase") for case in PINNED)
    assert any("phase_bits" in case["options"] for case in PINNED)
    assert any("a" in case for case in PINNED)
    assert {case.get("n") for case in PINNED if case["method"] in READOUT_METHODS} >= {8, 16, 32}


# ---------------------------------------------------------------------------
# state preparation rows

def test_prep_hamiltonian_reweights_the_sign_state(monkeypatch):
    x = generate_vector(64, 16.0, seed=3)
    x[::5] = 0.0
    sparse = run_experiment(ExperimentConfig(method="prep-sparse", eps=0.05, inputs={"x": x})).rows[0]
    calls = []
    prep_hamiltonian = stateprep.prep_hamiltonian

    def spy(f, base, eps):
        calls.append((np.asarray(f), base.amplitudes.real.copy()))
        return prep_hamiltonian(f, base, eps)

    monkeypatch.setattr(stateprep, "prep_hamiltonian", spy)
    monkeypatch.setattr(stateprep, "prep_sparse", lambda *args: pytest.fail("prep_sparse was called"))
    row = run_experiment(ExperimentConfig(method="prep-hamiltonian", eps=0.05, inputs={"x": x})).rows[0]
    assert len(calls) == 1
    f, base = calls[0]
    support = np.flatnonzero(x)
    sign_state = np.zeros(64)
    sign_state[support] = np.sign(x[support]) / math.sqrt(support.size)
    assert np.array_equal(f, np.abs(x))
    assert np.array_equal(base, sign_state)
    # f times the sign state is x over sqrt(z): the same state as prep-sparse
    for key in ("id", "method", "wall_time"):
        del row[key], sparse[key]
    assert comparable(row) == comparable(sparse)


# ---------------------------------------------------------------------------
# file I/O

def test_matrix_csv_roundtrip(tmp_path):
    a = np.array([[1.5, -2.0], [0.25, 3.0]])
    path = tmp_path / "m.csv"
    save_matrix_csv(path, a)
    assert np.array_equal(load_matrix_csv(path), a)


def test_matrix_csv_parse_error_names_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1.0,2.0\n3.0,oops\n")
    with pytest.raises(ValueError, match="line 2"):
        load_matrix_csv(path)


def test_matrix_csv_ragged_rows_rejected(tmp_path):
    path = tmp_path / "ragged.csv"
    path.write_text("1.0,2.0\n3.0\n")
    with pytest.raises(ValueError, match="line 2"):
        load_matrix_csv(path)


def test_vector_csv_single_line_and_column(tmp_path):
    p1 = tmp_path / "v1.csv"
    p1.write_text("1.0,2.0,3.0\n")
    assert np.array_equal(load_vector_csv(p1), [1.0, 2.0, 3.0])
    p2 = tmp_path / "v2.csv"
    p2.write_text("1.0\n2.0\n3.0\n")
    assert np.array_equal(load_vector_csv(p2), [1.0, 2.0, 3.0])


def test_matrix_csv_complex_mode_is_opt_in(tmp_path):
    # the parser reads reals only; a complex token is an error on its line
    path = tmp_path / "c.csv"
    path.write_text("1+2j,0\n0,1-2j\n")
    with pytest.raises(ValueError, match="line 1"):
        load_matrix_csv(path)


def test_report_json_schema_roundtrip(tmp_path):
    path = tmp_path / "r.json"
    save_report_json(path, {"rows": []})
    report = load_report_json(path)
    assert report["schema"] == 3
    path.write_text(json.dumps({"schema": 99}))
    with pytest.raises(ValueError, match="schema"):
        load_report_json(path)
