import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmm.harness import generate_vector
from qmm.circuits import fidelity, postselect
from qmm.statevector import CostLedger, PreparedState, Statevector, from_vector
from qmm.stateprep import (
    VectorSpec,
    dyadic_bands,
    _prep_by_sign_base,
    lcu_combine,
    prep_dyadic,
    prep_hamiltonian,
    prep_signshift,
    prep_sparse,
    synthesize_direct,
)


def normalized(x):
    x = np.asarray(x, dtype=float)
    return x / np.linalg.norm(x)


# ---------------------------------------------------------------------------
# vector specs

def test_vector_spec_fields():
    spec = VectorSpec.from_values([0.0, -4.0, 1.0, 0.0])
    assert list(spec.support) == [1, 2]
    assert spec.max_abs == 4.0
    assert spec.min_abs_nonzero == 1.0
    assert spec.kappa_x == 4.0


def test_vector_spec_rejects_empty_support():
    with pytest.raises(ValueError, match="support"):
        VectorSpec.from_values([0.0, 0.0])


@pytest.mark.parametrize("values", [[], [1.0, math.nan], [math.inf, 1.0], [-math.inf]])
def test_vector_spec_rejects_an_empty_or_nonfinite_vector(values):
    with pytest.raises(ValueError, match="expected a nonempty finite vector"):
        VectorSpec.from_values(values)


# ---------------------------------------------------------------------------
# direct synthesis

def test_synthesize_direct_basis_state():
    vals = np.zeros(8)
    vals[3] = 1.0
    ps = synthesize_direct(vals)
    assert np.allclose(ps.state.amplitudes, np.eye(8)[3])


def test_synthesize_direct_uniform():
    ps = synthesize_direct(np.ones(4))
    assert np.allclose(ps.state.amplitudes, 0.5)


def test_synthesize_direct_random_seed43():
    # oracle: plain normalization
    rng = np.random.default_rng(43)
    x = rng.normal(size=8)
    ps = synthesize_direct(x)
    assert fidelity(ps.state, from_vector("x", x)) > 1 - 1e-12
    assert ps.ledger.gate_units > 0


# ---------------------------------------------------------------------------
# small-angle reweighting

def test_prep_hamiltonian_constant_f_is_exact_direction():
    base = from_vector("x", [1.0, 1.0, 1.0, 1.0])
    rep = prep_hamiltonian([3.0, 3.0, 3.0, 3.0], base, eps=0.05)
    assert rep.details["kappa_f"] == 1.0
    assert fidelity(rep.state, base) > 1 - 1e-12
    # success probability ~ (c t)^2 for constant f
    t = rep.details["evolution_time"]
    assert rep.success_probability == pytest.approx(math.sin(3.0 * t) ** 2, abs=1e-12)


def test_prep_hamiltonian_two_level_example():
    base = from_vector("x", [1.0, 1.0])
    rep = prep_hamiltonian([1.0, 2.0], base, eps=0.05)
    t = rep.details["evolution_time"]
    # oracle: direct summation of the sine branch
    direct = (math.sin(t) ** 2 + math.sin(2 * t) ** 2) / 2.0
    assert rep.success_probability == pytest.approx(direct, abs=1e-15)
    assert rep.realized_error <= math.sqrt(2.0 / 3.0) * rep.epsilon1


def test_prep_hamiltonian_random_positive_seed47():
    rng = np.random.default_rng(47)
    f = np.exp(rng.uniform(0.0, 2.0, size=8))
    base = from_vector("x", np.abs(rng.normal(size=8)) + 0.1)
    rep = prep_hamiltonian(f, base, eps=0.05)
    kappa = rep.details["kappa_f"]
    assert rep.realized_error <= math.sqrt(kappa / 3.0) * rep.epsilon1
    target = normalized(f * base.amplitudes.real)
    assert np.allclose(
        np.abs(rep.state.amplitudes), np.abs(target), atol=rep.bound
    )


def test_prep_hamiltonian_success_probability_sandwich():
    rng = np.random.default_rng(3)
    for kappa in (1.0, 2.0, 8.0, 32.0):
        f = np.geomspace(1.0, 1.0 / kappa, 8)
        rng.shuffle(f)
        base = from_vector("x", np.abs(rng.normal(size=8)) + 0.05)
        rep = prep_hamiltonian(f, base, eps=0.05)
        p = rep.success_probability
        assert rep.epsilon0**2 <= p <= rep.epsilon1**2


def test_prep_hamiltonian_rejects_f_zero_on_support():
    base = from_vector("x", [1.0, 1.0])
    with pytest.raises(ValueError, match="vanishes"):
        prep_hamiltonian([1.0, 0.0], base, eps=0.05)


def test_prep_hamiltonian_rejects_a_two_register_base():
    base = Statevector((("a", 1), ("b", 1)), np.full(4, 0.5))
    with pytest.raises(ValueError, match="single register"):
        prep_hamiltonian([1.0, 2.0, 3.0, 4.0], base, eps=0.05)


def test_prep_hamiltonian_rejects_angle_overflow():
    base = from_vector("x", [1.0, 1.0])
    with pytest.raises(ValueError, match="small-angle"):
        prep_hamiltonian([1.0, 2.0], base, eps=3.0)


def test_prep_hamiltonian_amplification_model():
    base = from_vector("x", np.ones(8))
    for kappa in (2.0, 4.0, 16.0):
        f = np.geomspace(kappa, 1.0, 8)
        rep = prep_hamiltonian(f, base, eps=0.05)
        expected = math.ceil(1.0 / rep.epsilon0)
        assert rep.ledger.amplification_rounds == expected


# ---------------------------------------------------------------------------
# sparse route

def test_prep_sparse_basis_vector():
    vals = np.zeros(4)
    vals[2] = 0.7
    rep = prep_sparse(vals, 0.05)
    assert np.allclose(np.abs(rep.state.amplitudes), np.eye(4)[2], atol=1e-10)


def test_prep_sparse_two_point_support_and_unknown_penalty():
    vals = np.zeros(8)
    vals[[1, 3]] = 1.0
    known = prep_sparse(vals, 0.05, support_known=True)
    assert np.allclose(
        np.abs(known.state.amplitudes),
        np.where(np.arange(8) % 2 == 1, 1, 0)[[0, 1, 2, 3, 4, 5, 6, 7]] * 0
        + np.isin(np.arange(8), [1, 3]) / math.sqrt(2),
        atol=1e-10,
    )
    unknown = prep_sparse(vals, 0.05, support_known=False)
    # sqrt(8/2) = 2 exactly
    assert unknown.ledger.amplification_rounds == 2 * known.ledger.amplification_rounds
    assert unknown.ledger.oracle_calls == 2 * known.ledger.oracle_calls


def test_prep_sparse_relatively_uniform_seed53():
    rng = np.random.default_rng(53)
    mags = np.geomspace(1.0, 0.5, 16)
    rng.shuffle(mags)
    vals = mags * rng.choice([-1.0, 1.0], size=16)
    rep = prep_sparse(vals, 0.05)
    assert rep.realized_error <= rep.bound
    assert fidelity(rep.state, from_vector("x", vals)) > 1 - 0.05


# ---------------------------------------------------------------------------
# dyadic route

def test_dyadic_single_band_for_uniform_magnitudes():
    spec = VectorSpec.from_values([1.0, -1.0, 1.0, 1.0])
    bands = dyadic_bands(spec)
    assert len(bands) == 1
    assert np.array_equal(bands[0].values, spec.values)


def test_dyadic_bands_powers_of_two():
    spec = VectorSpec.from_values([1.0, 2.0, 4.0, 8.0])
    bands = [band.values for band in dyadic_bands(spec)]
    assert len(bands) == 4
    assert np.array_equal(sum(bands), spec.values)
    weights = [np.linalg.norm(b) for b in bands]
    assert np.allclose(weights, np.array([1, 2, 4, 8]))
    rep = prep_dyadic(spec, 0.05)
    assert np.allclose(rep.details["weights"], np.array([1, 2, 4, 8]) / math.sqrt(85.0))


def test_dyadic_band_spread_at_most_two():
    rng = np.random.default_rng(59)
    vals = rng.normal(size=64) * np.exp(rng.uniform(0, 10 * math.log(2), size=64))
    for band in dyadic_bands(VectorSpec.from_values(vals)):
        mags = np.abs(band.values[band.values != 0.0])
        assert mags.max() / mags.min() <= 2.0 + 1e-9


def test_dyadic_bands_sum_exactly():
    rng = np.random.default_rng(60)
    vals = rng.normal(size=32) * np.exp(rng.uniform(0, 7, size=32))
    bands = dyadic_bands(VectorSpec.from_values(vals))
    assert np.array_equal(sum(band.values for band in bands), vals)


def test_prep_dyadic_wide_spread_seed59():
    rng = np.random.default_rng(59)
    mags = np.geomspace(1.0, 2.0**-10, 64)
    rng.shuffle(mags)
    vals = mags * rng.choice([-1.0, 1.0], size=64)
    rep = prep_dyadic(vals, 0.05)
    assert fidelity(rep.state, from_vector("x", vals)) >= 1 - 0.05
    assert rep.realized_error <= rep.bound


# ---------------------------------------------------------------------------
# sign-shift route

def test_signshift_all_positive_uniform():
    vals = np.ones(4)
    rep = prep_signshift(vals, 0.05)
    # z = 2x/..., y = x: combination is exact for a uniform vector
    assert rep.realized_error < 1e-10
    norm_x = 2.0
    norm_y = 2.0
    norm_z = 4.0
    assert rep.success_probability == pytest.approx(
        norm_x**2 / (2 * (norm_y**2 + norm_z**2))
    )


def test_signshift_antisymmetric_pair():
    rep = prep_signshift(np.array([1.0, -1.0]), 0.05)
    assert rep.realized_error < 1e-10
    assert np.allclose(np.abs(rep.state.amplitudes), [1, 1] / np.sqrt(2.0))


def test_signshift_random_seed61():
    rng = np.random.default_rng(61)
    vals = rng.normal(size=8)
    rep = prep_signshift(vals, 0.05)
    assert fidelity(rep.state, from_vector("x", vals)) >= 1 - 0.05
    # construction identity z - y = x, exact on dyadic inputs
    spec = VectorSpec.from_values(np.round(vals * 1024) / 1024)
    m = spec.max_abs
    y = m * np.where(spec.values >= 0, 1.0, -1.0)
    z = spec.values + y
    assert np.array_equal(z - y, spec.values)
    spread = (m + spec.max_abs) / (m + spec.min_abs_nonzero)
    assert spread <= 2.0


# ---------------------------------------------------------------------------
# combination

def test_lcu_single_state_identity():
    s = from_vector("q", [1.0, 2.0])
    out = lcu_combine([PreparedState(s, 1.0, CostLedger())], [1.0])
    assert fidelity(out.state, s) > 1 - 1e-12
    assert out.success_probability == pytest.approx(1.0)


def test_lcu_two_basis_states_make_plus():
    s0 = from_vector("q", [1.0, 0.0])
    s1 = from_vector("q", [0.0, 1.0])
    out = lcu_combine(
        [PreparedState(s0, 1.0, CostLedger()), PreparedState(s1, 1.0, CostLedger())],
        [1.0, 1.0],
    )
    assert np.allclose(out.state.amplitudes, [1, 1] / np.sqrt(2.0))
    assert out.success_probability == pytest.approx(0.5)


def test_lcu_three_random_states_match_direct_sum():
    rng = np.random.default_rng(67)
    states = []
    for _ in range(3):
        states.append(PreparedState(from_vector("q", rng.normal(size=4)), 1.0, CostLedger()))
    w = rng.normal(size=3)
    out = lcu_combine(states, w)
    direct = sum(wi * ps.state.amplitudes for wi, ps in zip(w, states))
    direct = direct / np.linalg.norm(direct)
    assert np.max(np.abs(out.state.amplitudes - direct)) < 1e-10


def test_lcu_rejects_cancellation():
    s = from_vector("q", [1.0, 0.0])
    with pytest.raises(ValueError, match="cancelled"):
        lcu_combine(
            [PreparedState(s, 1.0, CostLedger()), PreparedState(s, 1.0, CostLedger())],
            [1.0, -1.0],
        )


def test_lcu_rejects_malformed_inputs_from_lists_and_generators():
    s = PreparedState(from_vector("q", [1.0, 0.0]), 1.0, CostLedger())
    wide = PreparedState(from_vector("q", [1.0, 0.0, 0.0, 0.0]), 1.0, CostLedger())
    cases = [
        ([], [], "nothing to combine"),
        ([], [1.0], "nothing to combine"),
        ([s], [], "one weight per state required"),
        ([s, s], [1.0], "one weight per state required"),
        ([s], [1.0, 1.0], "one weight per state required"),
        ([s, s], [0.0, 0.0], "weights must not all vanish"),
        ([s, wide], [1.0, 1.0], "all states must share one register layout"),
    ]
    for states, weights, message in cases:
        for given_states in (states, (ps for ps in states)):
            with pytest.raises(ValueError, match=message):
                lcu_combine(given_states, weights)
    out = lcu_combine((ps for ps in [s, s]), [1.0, 2.0])
    assert out.ledger == lcu_combine([s, s], [1.0, 2.0]).ledger


# ---------------------------------------------------------------------------
# cross-method agreement

def test_all_methods_agree_pairwise():
    eps = 0.05
    for seed in (11, 12, 13, 14):
        rng = np.random.default_rng(seed)
        mags = np.geomspace(1.0, 2.0**-10, 32)
        rng.shuffle(mags)
        vals = mags * rng.choice([-1.0, 1.0], size=32)
        direct = synthesize_direct(vals).state
        dyadic = prep_dyadic(vals, eps).state
        shift = prep_signshift(vals, eps).state
        assert fidelity(direct, dyadic) >= 1 - 2 * eps
        assert fidelity(direct, shift) >= 1 - 2 * eps
        assert fidelity(dyadic, shift) >= 1 - 2 * eps


@pytest.mark.parametrize("route", [prep_sparse, prep_dyadic, prep_signshift, _prep_by_sign_base])
@pytest.mark.parametrize("x", [[3.0], [-2.0]])
def test_small_angle_routes_prepare_a_one_entry_vector(route, x):
    # the base state once had pad_dim(1) = 1 amplitude on a one-qubit
    # register; it is now from_vector's two-amplitude register
    rep = route(np.array(x), 0.05)
    assert rep.state.layout == (("x", 1),)
    assert np.array_equal(rep.state.amplitudes, [math.copysign(1.0, x[0]), 0.0])
    assert rep.realized_error == 0.0 <= rep.bound


# ---------------------------------------------------------------------------
# the direct sine branch against the staged flag state


def flag_state_prep_hamiltonian(f, base, eps):
    """Reference prep_hamiltonian: stage the 2 dim flag state
    sum_k b_k (cos(f(k) t)|0> + i sin(f(k) t)|1>)|k>, postselect flag = 1
    and divide by the global i, as the circuit reads."""
    reg = base.layout[0][0]
    dim = base.amplitudes.size
    fvals = np.asarray(f, dtype=float).reshape(-1)
    if fvals.size != dim:
        padded = np.zeros(dim)
        padded[: fvals.size] = fvals
        fvals = padded
    b = base.amplitudes
    if np.max(np.abs(b.imag)) > 1e-12:
        raise ValueError("base state must be real")
    b = b.real
    populated = np.abs(b) > 1e-14
    if np.any(np.abs(fvals[populated]) < 1e-300):
        raise ValueError("f vanishes on the support of the base state")
    if not 0.0 < eps < 1.0:
        raise ValueError("accuracy must lie in (0, 1): larger values would push "
                         "evolution angles out of the small-angle window")
    fmax = float(np.max(np.abs(fvals[populated])))
    fmin = float(np.min(np.abs(fvals[populated])))
    kappa_f = fmax / fmin
    eps1 = eps / math.sqrt(kappa_f)
    t_evo = eps1 / fmax
    angles = np.where(populated, fvals * t_evo, 0.0)
    flag_amps = np.concatenate([b * np.cos(angles), 1j * b * np.sin(angles)])
    staged = Statevector((("flag", 1), base.layout[0]), flag_amps)
    ledger = CostLedger()
    picked = postselect(staged, "flag", 1, ledger)
    eps0 = math.sin(fmin * t_evo) * (1.0 - 1e-9)
    rounds = math.ceil(1.0 / eps0)
    ledger.amplification_rounds += rounds
    ledger.charge_oracle(rounds)
    ledger.gate_units += rounds
    target = from_vector(reg, np.where(populated, fvals * b, 0.0), pad=False)
    produced = Statevector(picked.state.layout, picked.state.amplitudes / 1j)
    realized = float(np.linalg.norm(produced.amplitudes - target.amplitudes))
    return produced, picked.success_probability, realized, eps0, eps1, ledger


def bits(values) -> np.ndarray:
    return np.asarray(values, dtype=np.float64).view(np.uint64)


@st.composite
def hamiltonian_inputs(draw):
    """Signed f with zeros, a base state with zero amplitudes (and sometimes
    an imaginary part), and eps across (0, 0.999] plus rejected values."""
    n = draw(st.integers(1, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    f = rng.normal(size=n) * np.exp(rng.uniform(-8.0, 8.0, size=n))
    f[rng.random(n) < draw(st.sampled_from([0.0, 0.05, 0.5]))] = 0.0
    b = rng.normal(size=n)
    b[rng.random(n) < draw(st.sampled_from([0.0, 0.3, 0.9]))] = 0.0
    # amplitudes below the 1e-14 support cut, of either sign
    b[rng.random(n) < draw(st.sampled_from([0.0, 0.1]))] = rng.choice([-1e-300, -1e-16, 1e-16])
    b[rng.integers(n)] = 1.0
    if draw(st.booleans()):  # f set on the base's support only
        f = np.where(b != 0.0, np.where(f == 0.0, 1.0, f), f)
    base = from_vector("x", b + 1j * b * draw(st.sampled_from([0.0] * 7 + [1e-3])))
    if draw(st.integers(0, 3)):
        eps = draw(st.floats(1e-12, 0.999))
    else:
        eps = draw(st.sampled_from([0.999, 1e-9, 1e-12, 0.0, 1.0, -0.5]))
    return f, base, eps


@settings(max_examples=300)
@given(hamiltonian_inputs())
def test_prep_hamiltonian_matches_flag_state_oracle_bit_for_bit(case):
    f, base, eps = case
    try:
        want = flag_state_prep_hamiltonian(f, base, eps)
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            prep_hamiltonian(f, base, eps)
        assert str(got.value) == str(exc)
        return
    produced, prob, realized, eps0, eps1, ledger = want
    rep = prep_hamiltonian(f, base, eps)
    amps = rep.state.amplitudes
    assert rep.state.layout == produced.layout
    assert np.array_equal(bits(amps.real), bits(produced.amplitudes.real))
    assert not np.any(amps.imag) and not np.any(produced.amplitudes.imag)
    assert bits(rep.success_probability) == bits(prob)
    assert bits(rep.realized_error) == bits(realized)
    assert bits(rep.epsilon0) == bits(eps0) and bits(rep.epsilon1) == bits(eps1)
    assert rep.ledger == ledger
    assert rep.realized_error <= rep.bound


def test_prep_hamiltonian_rejects_a_vanishing_sine_branch():
    base = from_vector("x", [1.0, 1.0])
    with pytest.raises(ValueError, match="outcome 1 of 'flag' has zero probability"):
        prep_hamiltonian([1.0, 1.0], base, eps=1e-12)


@pytest.mark.parametrize(
    "route, multiple", [(prep_sparse, 5.5), (_prep_by_sign_base, 6.0), (prep_dyadic, 8.5), (prep_signshift, 5.5)]
)
def test_small_angle_routes_allocate_a_few_vectors_at_n_65536(route, multiple):
    # at the peak: the base, the produced and target states and their
    # difference (four complex vectors), plus float temporaries; prep_sparse
    # drops its base once the target is built, and f = |x| adds half a
    # vector for the sign base (measured: prep_sparse 4.00 vectors, the sign
    # base 5.50). The pieces of prep_dyadic (7.63) and prep_signshift (4.63)
    # build no target; prep_dyadic combines its band states one at a time,
    # and prep_signshift builds its sign state only after z and the z state
    # are consumed, and takes z's support from x. A staged 2 dim flag state
    # or one more amplitude copy held across the peak goes over the line.
    x = generate_vector(1 << 16, 4.0, seed=1)
    vector = 16 * x.size  # one complex amplitude vector, 1 MiB
    tracemalloc.start()
    try:
        route(x, 0.05)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < multiple * vector
