import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qmm.readout
from qmm.harness import generate_matrix
from qmm.linalg import exact_product
from qmm.readout import (
    inner_product_classical,
    readout_hhl,
    readout_sve,
    readout_swaptest,
)
from qmm.matmul import SupportViolationWarning, _resolve_phase_bits, matmul_sve
from qmm.statevector import CostLedger, from_vector
from qmm.circuits import coefficient_tag, generalized_swap_test
from qmm.swaptest import complex_inner_product, estimate_real_overlap, inner_product_estimate
from helpers import dense_readout, zero_row_pairs


def rand_pair(seed, n=3, shift=0.0):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(n, n)) + shift * np.eye(n), rng.normal(size=(n, n))


# ---------------------------------------------------------------------------
# classical inner product

def test_inner_product_basis_vectors():
    assert abs(inner_product_classical([1.0, 0.0], [1.0, 0.0], 0.05) - 1.0) <= 0.05


def test_inner_product_orthogonal():
    assert abs(inner_product_classical([1.0, 0.0], [0.0, 1.0], 0.05)) <= 0.05


def test_inner_product_three_four():
    # direct dot product oracle: (3,4).(4,3) = 24
    got = inner_product_classical([3.0, 4.0], [4.0, 3.0], 0.1)
    assert abs(got - 24.0) <= 0.1


def test_inner_product_rejects_vectors_of_different_sizes():
    with pytest.raises(ValueError, match="dimension mismatch: 2 vs 3"):
        inner_product_classical(np.ones(2), np.ones(3), 0.1)


def test_inner_product_zero_vector_costs_nothing():
    led = CostLedger()
    assert inner_product_classical([0.0, 0.0], [1.0, 1.0], 0.1, led) == 0.0
    assert led.total_oracle_units() == 0


def test_inner_product_norm_scaling_of_achieved_error():
    # at fixed internal quantum accuracy the absolute error scales with
    # ||x|| ||y||: verified on a fixture family of scaled copies
    rng = np.random.default_rng(14)
    x, y = rng.normal(size=6), rng.normal(size=6)
    errs = []
    for scale in (1.0, 4.0, 16.0):
        xs = scale * x
        eps_abs = 0.05 * scale**2  # keeps the internal accuracy fixed
        got = inner_product_classical(xs, scale * y, eps_abs)
        errs.append(abs(got - float(xs @ (scale * y))))
    assert errs[1] == pytest.approx(errs[0] * 16.0, rel=1e-6)
    assert errs[2] == pytest.approx(errs[0] * 256.0, rel=1e-6)


# ---------------------------------------------------------------------------
# entrywise readout

def test_readout_swaptest_identity():
    rep = readout_swaptest(np.eye(2), np.eye(2), 0.05)
    assert np.max(np.abs(rep.c_tilde - np.eye(2))) <= 0.05
    assert rep.realized_error <= 0.05


@pytest.mark.parametrize(
    "a, b, match",
    [
        (np.eye(2), np.eye(3), r"dimension mismatch: \(2, 2\) x \(3, 3\)"),
        (np.eye(2) * 1j, np.eye(2), "complex entries"),
        (np.array([[1.0, np.nan]]), np.eye(2), "finite"),
    ],
    ids=["dimension-mismatch", "complex", "non-finite"],
)
def test_readout_swaptest_rejects_bad_pairs(a, b, match):
    with pytest.raises(ValueError, match=match):
        readout_swaptest(a, b, 0.1)


def test_readout_swaptest_random_seed31():
    a, b = rand_pair(31)
    rep = readout_swaptest(a, b, 0.05)
    assert rep.realized_error <= 0.05
    assert np.max(np.abs(rep.c_tilde - exact_product(a, b))) == pytest.approx(
        rep.realized_error
    )


def test_readout_swaptest_ledger_doubles_with_matrix_scale():
    a, b = rand_pair(31)
    r1 = readout_swaptest(a, b, 0.05)
    r2 = readout_swaptest(2.0 * a, b, 0.05)
    ratio = r2.ledger.total_oracle_units() / r1.ledger.total_oracle_units()
    assert ratio == pytest.approx(2.0, rel=0.01)


def test_readout_swaptest_charges_what_its_entries_would():
    a, b = generate_matrix(4, 2.0, 5), generate_matrix(4, 2.0, 10_005)
    a[0] *= 8.0  # row 0 needs wider registers than the others
    a[2] = 0.0  # a zero row costs nothing
    eps = 0.05
    widths = {
        _resolve_phase_bits(None, min(eps / (np.linalg.norm(a[i]) * np.linalg.norm(b[:, j])), 0.5))
        for i in (0, 1, 3)
        for j in range(4)
    }
    assert len(widths) >= 2
    report = readout_swaptest(a, b, eps)
    want = CostLedger()
    want.classical_entries += a.size + b.size
    c_tilde = np.array([[inner_product_classical(a[i], b[:, j], eps, want) for j in range(4)] for i in range(4)])
    assert report.ledger.to_dict() == want.to_dict()
    assert np.array_equal(report.c_tilde, c_tilde)


def test_readout_classical_entry_count_separated():
    a, b = rand_pair(2, n=3)
    rep = readout_swaptest(a, b, 0.1)
    assert rep.ledger.classical_entries == a.size + b.size


def test_readout_sve_identity():
    rep = readout_sve(np.eye(2), np.eye(2), 0.05)
    assert rep.realized_error <= 0.05


def test_readout_sve_diagonal():
    rep = readout_sve(np.diag([1.0, 0.5]), np.eye(2), 0.05)
    assert np.max(np.abs(rep.c_tilde - np.diag([1.0, 0.5]))) <= 0.05


def test_readout_sve_random_seed37():
    a, b = rand_pair(37, n=4, shift=2.0)
    rep = readout_sve(a, b, 0.05)
    assert rep.realized_error <= 0.05


def test_readout_hhl_identity():
    rep = readout_hhl(np.eye(2), np.eye(2), 0.05)
    assert rep.realized_error <= 0.05


def test_readout_hhl_diagonal_times_ones():
    a = np.diag([2.0, 1.0])
    b = np.ones((2, 2))
    rep = readout_hhl(a, b, 0.1)
    assert np.max(np.abs(rep.c_tilde - [[2.0, 2.0], [1.0, 1.0]])) <= 0.1


def test_readout_hhl_random_seed41():
    a, b = rand_pair(41, n=4, shift=2.0)
    rep = readout_hhl(a, b, 0.05)
    assert rep.realized_error <= 0.05


def test_readout_hhl_vs_sve_ledger_direction():
    # on a well-conditioned fixture the dilation route charges no more than
    # sqrt(n)/kappa times the walk route, i.e. it wins when kappa is small
    a, b = rand_pair(5, n=4, shift=3.0)
    sve_rep = readout_sve(a, b, 0.1)
    hhl_rep = readout_hhl(a, b, 0.1)
    kappa = np.linalg.cond(a)
    assert kappa < 4.0
    assert hhl_rep.ledger.total_oracle_units() <= sve_rep.ledger.total_oracle_units()


def test_value_estimation_readouts_raise_at_the_width_cap(monkeypatch):
    # with an 8-bit cap the sigma register these readouts need is too wide:
    # they raise the error matmul_sve raises, where a clamped t1 once gave
    # entries off by more than eps_abs (1.58e-3 and 1.76e-3)
    monkeypatch.setattr(qmm.matmul, "MAX_PHASE_BITS", 8)
    a, b = generate_matrix(4, 2, 1), generate_matrix(4, 2, 10001)
    cap = r"would need a \d+-bit phase register \(cap 8\)"
    with pytest.raises(ValueError, match=cap):
        matmul_sve(a, b, eps=1e-3)
    for fn in (readout_sve, readout_hhl):
        with pytest.raises(ValueError, match=cap):
            fn(a, b, 1e-3)
    # the overlap registers obey the same cap: eps_abs = 1e-3 asks for 13
    # bits on this row-column pair, eps = 0.03 for 9 bits on unit vectors
    x, y = a[0] / np.linalg.norm(a[0]), b[:, 0] / np.linalg.norm(b[:, 0])
    sx, sy = from_vector("x", x), from_vector("x", y)
    overlap_calls = (
        lambda: readout_swaptest(a, b, 1e-3),
        lambda: inner_product_classical(a[0], b[:, 0], 1e-3),
        lambda: estimate_real_overlap(x, y, 0.03),
        lambda: inner_product_estimate(sx, sy, 0.03),
        lambda: complex_inner_product(sx, sy, 0.03),
        lambda: coefficient_tag(sx, lambda s: s, 0.03),
        lambda: generalized_swap_test(sx, sy, lambda s: s, 0.03),
    )
    for call in overlap_calls:
        with pytest.raises(ValueError, match=cap):
            call()


def test_readout_support_violation_warns():
    a = np.diag([1.0, 0.0])
    b = np.array([[1.0, 1.0], [0.5, 0.5]])
    with pytest.warns(SupportViolationWarning):
        rep = readout_sve(a, b, 0.1)
    # entries still within tolerance of the exact product
    assert rep.realized_error <= 0.1


@pytest.mark.parametrize("fn", [readout_sve, readout_hhl])
def test_value_estimation_readouts_reject_a_zero_a(fn):
    # a zero A once divided by its zero norm (ZeroDivisionError) after a
    # support warning; warnings are errors here, so the ValueError comes first
    with pytest.raises(ValueError, match="A is zero"):
        fn(np.zeros((2, 2)), np.eye(2), 0.05)


# ---------------------------------------------------------------------------
# degenerate instances: zero rows of A, and l n = 1

READOUTS = {"readout-swap": readout_swaptest, "readout-sve": readout_sve, "readout-hhl": readout_hhl}


@settings(max_examples=25, deadline=None)
@given(zero_row_pairs(), st.sampled_from(sorted(READOUTS)), st.sampled_from([0.999, 0.2, 0.05]))
def test_readouts_on_zero_rows_and_single_entries_match_dense_overlap_oracle(case, method, eps):
    a, b = case
    with warnings.catch_warnings():
        # a rank-deficient A may leave columns of B outside its row space
        warnings.simplefilter("ignore", SupportViolationWarning)
        rep = READOUTS[method](a, b, eps)
        want_c, want_ledger = dense_readout(method, a, b, eps)
    assert np.array_equal(rep.c_tilde, want_c)
    assert rep.ledger == want_ledger
    if method == "readout-swap":
        assert np.all(rep.c_tilde[np.linalg.norm(a, axis=1) == 0] == 0.0)
    err = float(np.max(np.abs(rep.c_tilde - a @ b)))
    assert rep.realized_error == err <= rep.bound == eps


@pytest.mark.parametrize("method", sorted(READOUTS))
def test_readout_qubit_budget_is_the_dense_registers(method, monkeypatch):
    # no pair state is built, but each estimate is budgeted for the full
    # register: every QMM_MAX_QUBITS value fails with the dense reference's
    # message, or passes with it
    a, b = rand_pair(7, n=3)

    def outcome(fn):
        try:
            fn(a, b, 0.05)
        except ValueError as exc:
            return str(exc)
        return None

    seen = set()
    for budget in range(6, 18):
        monkeypatch.setenv("QMM_MAX_QUBITS", str(budget))
        got = outcome(READOUTS[method])
        assert got == outcome(lambda *args: dense_readout(method, *args))
        seen.add(got is None)
    assert seen == {True, False}
