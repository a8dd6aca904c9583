"""The closed-form, k-batched value-estimation kernels (route.components and
sve_transform) against the per-triple block simulations they replace, the
stacked swap-plane kernel against its per-entry computation, and the swap
route's label means against the plane distribution."""
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qmm.linalg import compute_svd, pad_dim, pad_matrix
from qmm.circuits import sve_transform
from qmm.matmul import (
    _KERNEL_BLOCK,
    _PLANE_BLOCK,
    _ROTATION_EIGENVECTORS,
    _TWO_PI_HI,
    _TWO_PI_LO,
    MAX_PHASE_BITS,
    SupportViolationWarning,
    _fejer_blocks,
    _hhl_component,
    _mu_phases,
    _phase0_after_undo,
    _qpe_rows,
    _rotation,
    _sve_component,
    _swap_label_means,
    _swap_plane_probabilities,
    _walk_plane,
    dilation_route,
    matmul_hhl,
    matmul_sve,
    matmul_swaptest,
    walk_route,
)
from qmm.qpe import swap_value
from qmm.swaptest import _modal_overlap
from helpers import swap_closed_form_entries

ROUTES = {"sve": walk_route, "hhl": dilation_route}
PIPELINES = {"sve": matmul_sve, "hhl": matmul_hhl}


def oracle(method: str, route, frob: float, sigma: float, t: int, weights: np.ndarray) -> complex:
    """Gate-level block simulation of one singular triple on ROUTES[method]."""
    if method == "sve":
        return _sve_component(sigma, frob, t, weights)
    return _hhl_component(sigma, route.details["evolution_time"], t, weights)


def oracle_tolerance(t: int) -> float:
    # the oracle's repeated squaring drifts by about 2^t ulp: at t = 12 it was
    # off by up to 9.3e-13 from a 40-digit sum the closed form met to 1.5e-13
    return max(1e-12, 5e-16 * 2**t)


@st.composite
def kernel_inputs(draw):
    t = draw(st.integers(2, 12))
    frob = draw(st.floats(0.1, 10.0))
    sigma_max = frob * draw(st.floats(0.05, 1.0))
    sigmas = np.array(draw(st.lists(st.floats(0.0, frob), min_size=1, max_size=4)))
    random_weights = draw(st.booleans())
    seed = draw(st.integers(0, 2**32 - 1))
    return t, frob, sigma_max, sigmas, random_weights, seed


@settings(max_examples=150)
@given(kernel_inputs(), st.sampled_from(sorted(ROUTES)))
def test_batched_components_match_block_oracle(case, method):
    t, frob, sigma_max, sigmas, random_weights, seed = case
    route = ROUTES[method](frob, sigma_max)
    if random_weights:
        weights = np.random.default_rng(seed).uniform(-1.0, 1.0, 1 << t)
    else:
        weights = route.rotation(t)[1]
    got = route.components(sigmas, t, weights)
    want = np.array([oracle(method, route, frob, s, t, weights) for s in sigmas])
    assert got.shape == sigmas.shape
    assert np.max(np.abs(got - want)) <= oracle_tolerance(t)


def reference_fejer_blocks(phases: np.ndarray, t: int):
    """Reference kernel: both sines taken for every label, on a half-angle
    gathered from the 2 pi m / T grid by a modular index."""
    T = 1 << t
    labels = np.arange(T)
    centred = labels - T // 2
    grid = centred * (_TWO_PI_HI / T) + centred * (_TWO_PI_LO / T)
    step = max(1, _KERNEL_BLOCK // T)
    for lo in range(0, phases.size, step):
        rows = slice(lo, lo + step)
        p = np.rint(phases[rows] * (T / (2.0 * math.pi)))
        rest = (phases[rows] - p * (_TWO_PI_HI / T)) - p * (_TWO_PI_LO / T)
        shift = (p.astype(np.int64) + T // 2) % T
        half = grid[(labels[None, :] + shift[:, None]) % T]
        half += rest[:, None]
        half *= 0.5
        tiny = np.abs(half) * (2 * T) < 1e-6
        f = np.sin(T * half)
        np.sin(half, out=half)
        half *= T
        f[tiny] = half[tiny] = 1.0
        f /= half
        f *= f
        yield rows, f


@st.composite
def kernel_phases(draw):
    t = draw(st.integers(1, 16))
    T = 1 << t
    on_grid = st.integers(-2 * T, 2 * T).map(lambda j: 2.0 * math.pi * j / T)
    # inside the tiny-delta branch (|delta| T < 1e-6) and just outside it
    nudges = [0.0, 1e-13, -1e-13, 1e-9 / T, -1e-9 / T, 1e-5 / T, -1e-5 / T]
    phase = st.one_of(
        st.floats(-4.0 * math.pi, 4.0 * math.pi),
        st.sampled_from([0.0, 2.0 * math.pi]),
        st.builds(lambda p, e: p + e, on_grid, st.sampled_from(nudges)),
    )
    return t, np.array(draw(st.lists(phase, min_size=1, max_size=6)))


@settings(max_examples=200, deadline=None)
@given(kernel_phases())
def test_fejer_blocks_match_two_sine_reference(case):
    t, phases = case
    with warnings.catch_warnings():
        # an on-grid row left unmasked would divide 0 / 0
        warnings.simplefilter("error")
        got = list(_fejer_blocks(phases, t))
        want = list(reference_fejer_blocks(phases, t))
    assert [rows for rows, _ in got] == [rows for rows, _ in want]
    for (_, f), (_, g) in zip(got, want):
        assert f.shape == g.shape
        assert np.max(np.abs(f - g)) <= 1e-15


@st.composite
def degenerate_pairs(draw):
    """Rank-deficient or non-square A, possibly with zero columns, and a B with AB != 0."""
    rows, cols = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    rank = draw(st.integers(1, min(rows, cols)))
    zero_cols = draw(st.lists(st.integers(0, cols - 1), max_size=cols - 1, unique=True))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = rng.normal(size=(rows, rank)) @ rng.normal(size=(rank, cols))
    a[:, zero_cols] = 0.0
    b = rng.normal(size=(cols, draw(st.integers(1, 4))))
    assume(np.linalg.norm(a @ b) > 1e-6)
    return a, b


@settings(max_examples=80, deadline=None)
@given(degenerate_pairs(), st.integers(2, 10), st.sampled_from(sorted(ROUTES)))
def test_degenerate_inputs_match_block_oracle_and_keep_bound(case, t, method):
    a, b = case
    frob = float(np.linalg.norm(a))
    d = pad_dim(max(a.shape))
    sigmas = compute_svd(pad_matrix(a, d, d)).sigmas
    route = ROUTES[method](frob, float(sigmas[0]))
    # sigma = 0 and sigma = ||A||_F put the walk angle exactly on the label grid
    probe = np.concatenate([sigmas, [0.0, frob]])
    weights = route.rotation(t)[1]
    got = route.components(probe, t, weights)
    want = np.array([oracle(method, route, frob, s, t, weights) for s in probe])
    assert np.max(np.abs(got - want)) <= oracle_tolerance(t)
    with warnings.catch_warnings():
        # columns of B outside A's row space are reported, not fatal
        warnings.simplefilter("ignore", SupportViolationWarning)
        res = PIPELINES[method](a, b, phase_bits=t)
    assert res.phase_bits == t
    assert res.realized_error <= res.bound


@settings(max_examples=60, deadline=None)
@given(degenerate_pairs(), st.floats(0.01, 0.999) | st.just(0.999), st.sampled_from(["swap", *sorted(ROUTES)]))
def test_eps_up_to_one_matches_oracles_and_keeps_bound(case, eps, method):
    a, b = case
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SupportViolationWarning)
        res = {"swap": matmul_swaptest, **PIPELINES}[method](a, b, eps=eps)
    assert res.realized_error <= res.bound
    t = res.phase_bits
    if method == "swap":
        want = swap_closed_form_entries(a, b, t)
        got = res.state.reshaped()[: want.shape[0], : want.shape[1]]
        assert np.max(np.abs(got - want / np.linalg.norm(want))) <= 1e-11
        return
    frob = float(np.linalg.norm(a))
    d = pad_dim(max(a.shape))
    sigmas = compute_svd(pad_matrix(a, d, d)).sigmas
    route = ROUTES[method](frob, float(sigmas[0]))
    weights = route.rotation(t)[1]
    want = np.array([oracle(method, route, frob, s, t, weights) for s in sigmas])
    assert np.max(np.abs(route.components(sigmas, t, weights) - want)) <= oracle_tolerance(t)


def grid_sigma(method: str, route, frob: float, t: int) -> float:
    """A singular value whose eigenphase sits exactly on a label (the tiny-delta branch)."""
    y = (1 << t) // 8 + 1
    if method == "sve":
        return frob * math.cos(math.pi * y / (1 << t))  # theta = 2 pi y / T
    return 2.0 * math.pi * y / (1 << t) / route.details["evolution_time"]


@pytest.mark.parametrize("t", [2, 5, 9, 12])
@pytest.mark.parametrize("method", sorted(ROUTES))
def test_batched_components_edge_values(method, t):
    frob, sigma_max = 2.5, 1.75
    route = ROUTES[method](frob, sigma_max)
    # sigma near 0 puts the walk block near -I, where the oracle's 2x2
    # eigensolver once lost half its digits to cancellation
    sigmas = np.array([0.0, 1e-6 * frob, sigma_max, frob, grid_sigma(method, route, frob, t)])
    w0 = route.rotation(t)[1]
    rng = np.random.default_rng(t)
    # the readout's two columns, plus random signed weights
    weights = np.stack([w0, np.sqrt(1.0 - w0**2), rng.uniform(-1.0, 1.0, 1 << t)], axis=1)
    got = route.components(sigmas, t, weights)
    assert got.shape == (5, 3)
    for j in range(3):
        want = np.array([oracle(method, route, frob, s, t, weights[:, j]) for s in sigmas])
        assert np.max(np.abs(got[:, j] - want)) <= oracle_tolerance(t)
        # the columns are independent label sums
        assert np.max(np.abs(route.components(sigmas, t, weights[:, j]) - got[:, j])) <= 1e-14


# 30-digit sums of the closed form for the same float inputs; above t = 12
# the block oracle's own error (up to 3.1e-12 at t = 14 against such sums) passes the tolerance
PINNED_WIDE = [
    ("sve", 1.0, 0.9, 14, [0.3, 0.61, 0.9], [
        [0.3333212378443932, 0.9428119586031523 + 1.0874323922433329e-10j],
        [0.6777197356121886, 0.7352044925650212 + 6.083176353488763e-09j],
        [0.9999544182654116, 0.0014246380790349045 + 1.309746913965181e-09j],
    ]),
    ("sve", 1.0, 0.9, 16, [0.3, 0.61, 0.9], [
        [0.3333212390269719, 0.9428081149922077 + 1.0404825045611992e-10j],
        [0.6777683751257293, 0.7352736971378727 + 2.339388055069288e-11j],
        [0.9999627403411372, 0.006431631776704231 + 1.2077493182232573e-10j],
    ]),
    ("hhl", 2.0, 1.5, 14, [0.2, 0.77, 1.5], [
        [0.13330291850799464, 0.0], [0.5133243592072652, 0.0], [1.0, 0.0],
    ]),
    ("hhl", 2.0, 1.5, 16, [0.2, 0.77, 1.5], [
        [0.13333305264113413, 0.0], [0.5133209552815029, 0.0], [1.0, 0.0],
    ]),
]


@pytest.mark.parametrize("method, frob, sigma_max, t, sigmas, want", PINNED_WIDE)
def test_batched_components_match_high_precision_sums(method, frob, sigma_max, t, sigmas, want):
    route = ROUTES[method](frob, sigma_max)
    w0 = route.rotation(t)[1]
    got = route.components(np.array(sigmas), t, np.stack([w0, np.sqrt(1.0 - w0**2)], axis=1))
    assert np.max(np.abs(got - np.array(want))) <= 1e-12


@pytest.mark.parametrize("method", sorted(ROUTES))
def test_batched_components_never_build_the_full_kernel_array(method):
    route = ROUTES[method](3.0, 2.0)
    for d, t in ((64, 16), (2, MAX_PHASE_BITS)):
        weights = route.rotation(t)[1]
        sigmas = np.linspace(0.0, 3.0, d)
        tracemalloc.start()
        try:
            route.components(sigmas, t, weights)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one 2^t row of float64 is 8 * 2^t bytes; the (64, 2^16) array alone is 64 rows
        assert peak < 32 * 8 * (1 << t)


@pytest.mark.parametrize("t", [16, MAX_PHASE_BITS])
def test_swap_plane_distribution_drift_stays_within_oracle_tolerance(t):
    # the swap plane's label distribution from the gate-level rows (u^(2^k)
    # by repeated squaring) against its Fejer mixture
    # (F(2 theta - 2 pi y / T) + F(-2 theta - 2 pi y / T)) / 2; measured
    # drift 1.0e-12 (decoded value 1.7e-12) at t = 16, 1.5e-11 (2.7e-11) at t = 20
    svals = swap_value(np.arange(1 << t), t)
    for s in (-0.93, 0.2, 0.77):
        theta = math.asin(math.sqrt((1.0 + s) / 2.0))
        rows = _qpe_rows(_rotation(2.0 * theta), np.array([math.sin(theta), math.cos(theta)]), t)
        probs = np.sum(np.abs(rows) ** 2, axis=1)
        want = sum(f.sum(axis=0) for _, f in _fejer_blocks(np.array([2.0 * theta, -2.0 * theta]), t)) / 2.0
        assert np.max(np.abs(probs - want)) <= oracle_tolerance(t)
        assert abs(probs @ svals - want @ svals) <= oracle_tolerance(t)


def plane_oracle(s: float, t: int) -> np.ndarray:
    """One overlap's swap-plane label distribution from its own _qpe_rows
    call, as each entry computed it before the planes were stacked."""
    theta = math.asin(math.sqrt((1.0 + min(max(s, -1.0), 1.0)) / 2.0))
    rows = _qpe_rows(_rotation(2.0 * theta), np.array([math.sin(theta), math.cos(theta)]), t)
    return np.sum(np.abs(rows) ** 2, axis=1)


@st.composite
def plane_stacks(draw):
    """(t, overlaps): uniform draws from [-1, 1], the exact values -1, 0 and
    1, and near-ties, 2^t theta / pi within a few ulp of a half-integer with
    sin^2(theta) = (1 + s)/2; 1, 7 or one past a block's overlaps."""
    t = draw(st.integers(2, 14))
    T = 1 << t
    k = draw(st.sampled_from([1, 7, max(1, _PLANE_BLOCK >> t) + 1]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    s = rng.uniform(-1.0, 1.0, k)
    kinds = rng.integers(0, 3, k)
    s[kinds == 1] = rng.choice([-1.0, 0.0, 1.0], int(np.sum(kinds == 1)))
    for r in np.flatnonzero(kinds == 2):
        theta = math.pi * (int(rng.integers(0, T // 2)) + 0.5) / T
        s[r] = -math.cos(2.0 * (theta + int(rng.integers(-4, 5)) * math.ulp(theta)))
    return t, s


@settings(max_examples=60, deadline=None)
@given(plane_stacks())
def test_stacked_swap_plane_matches_per_entry_kernel(case):
    t, s = case
    covered = []
    for rows, probs in _swap_plane_probabilities(s, t):
        covered += range(s.size)[rows]
        assert probs.shape == (len(range(s.size)[rows]), 1 << t)
        for p, v in zip(probs, s[rows]):
            assert np.array_equal(p, plane_oracle(v, t))
    assert covered == list(range(s.size))
    modal = [swap_value(int(np.argmax(plane_oracle(v, t))), t) for v in s]
    assert np.array_equal(_modal_overlap(s, t, 1, None), modal)


@settings(max_examples=60, deadline=None)
@given(plane_stacks())
def test_swap_label_means_match_the_plane_distribution(case):
    t, s = case
    svals = swap_value(np.arange(1 << t), t)
    got = list(_swap_label_means(s, t))
    want = list(_swap_plane_probabilities(s, t))
    assert [rows for rows, _ in got] == [rows for rows, _ in want]
    for (rows, means), (_, probs) in zip(got, want):
        assert means.shape == (len(range(s.size)[rows]),)
        assert np.max(np.abs(means - probs @ svals)) <= 1e-14
        for m, v in zip(means, s[rows]):
            ((_, own),) = _swap_label_means(np.array([v]), t)
            assert np.array_equal(own, [m])


# 30-digit values of ((T - 1) s - cos(2 theta (T - 1))) / T at the float theta
# = asin(sqrt((1 + s) / 2)) the plane is built from (near s = 1 that float is
# up to 1.6e-10 from the exact angle, asin being ill-conditioned there); the
# means drift from them by about 2^t ulp through the repeated squaring of the
# powers: measured 8.5e-13 at t = 15, 6.8e-12 at t = 18, 2.7e-11 at t = 20
PINNED_SWAP_S = [-0.93, 0.2, 0.77, 1.0 - 1e-12, -(1.0 - 1e-12)]
PINNED_SWAP_WIDE = [
    (15, [-0.929989735815960554984453898907, 0.199977934462372543025084883868, 0.769948649188471795812457670549,
          0.999999967235951073432710184064, -0.999999967239587529560597508728]),
    (18, [-0.929996963748429560307916115816, 0.200000965826859412062849841327, 0.769995725849913940899544196275,
          0.999999740822858695356535267698, -0.999999740851300200858983598399]),
    (20, [-0.929999904854419548688846916813, 0.200000722150310532480982972854, 0.769998375314873867731797544,
          0.99999912997010485941647249911, -0.999999130048305301417834198752]),
]


@pytest.mark.parametrize("t, want", PINNED_SWAP_WIDE)
def test_swap_label_means_match_high_precision_values(t, want):
    got = np.concatenate([means for _, means in _swap_label_means(np.array(PINNED_SWAP_S), t)])
    assert np.max(np.abs(got - np.array(want))) <= oracle_tolerance(t)


@pytest.mark.parametrize("t", [8, 12])
def test_stacked_swap_plane_peaks_at_a_few_blocks(t):
    # one block holds _PLANE_BLOCK labels of two complex amplitudes
    block = 32 * max(_PLANE_BLOCK, 1 << t)
    s = np.linspace(-1.0, 1.0, 64)
    for run in (lambda: [p.sum() for _, p in _swap_plane_probabilities(s, t)], lambda: _modal_overlap(s, t, 1, None)):
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # measured 2.7 blocks (t = 8, iterating) and 2.3 (the modal decode)
        assert peak < 3 * block


def block_sve_transform(a, x, t: int) -> np.ndarray:
    """sve_transform's amplitude table from one block simulation per triple."""
    frob = float(np.linalg.norm(a))
    d = pad_dim(max(a.shape))
    bundle = compute_svd(pad_matrix(a, d, d))
    xp = np.zeros(d)
    xp[: x.size] = x / np.linalg.norm(x)
    alphas = bundle.right_vectors.conj().T @ xp
    T = 1 << t
    codes = np.minimum(np.round(np.abs(np.cos(np.pi * np.arange(T) / T)) * T), T - 1).astype(int)
    amps = np.zeros((d, T), dtype=complex)
    for k in range(d):
        sigma = bundle.sigmas[k] if k < bundle.sigmas.size else 0.0
        theta, init = _walk_plane(sigma, frob)
        rows = _qpe_rows(_rotation(theta), init, t) * _mu_phases(t)[:, None]
        g = _phase0_after_undo(rows, np.array([theta, -theta]), _ROTATION_EIGENVECTORS, t)
        prof = np.zeros(T, dtype=complex)
        np.add.at(prof, codes, g[:, 0])
        amps += alphas[k] * np.outer(bundle.left_vectors[:, k], prof)
    return amps / np.linalg.norm(amps)


@pytest.mark.parametrize("shape, t", [((4, 4), 8), ((3, 5), 6), ((8, 8), 10)])
def test_sve_transform_matches_block_simulation(shape, t):
    rng = np.random.default_rng(t)
    a = rng.normal(size=shape)
    x = rng.normal(size=shape[1])
    got = sve_transform(a, x, phase_bits=t).reshaped()
    assert np.max(np.abs(got - block_sve_transform(a, x, t))) <= oracle_tolerance(t)
