"""Quantum multiplication pipelines producing the amplitude-encoded state
of C = AB, with instance-evaluated error budgets and cost accounting.

Four routes are implemented:

  * matmul_swaptest: per-(i,j) branch-angle estimation of the row/column
    inner products, written into the amplitudes by a controlled rotation.
  * matmul_sve: phase estimation of the row-column walk operator
    W = (2MM^dag - I)(2NN^dag - I) (circuits.SVEOperators); on the
    invariant plane of the k-th singular triple W rotates by theta_k with
    cos(theta_k/2) = sigma_k/||A||_F, so labels decode singular values.
  * matmul_hhl: the same template on the Hermitian dilation
    [[0, A], [A^dag, 0]], whose eigenvalues are +-sigma_k; label accuracy is
    then relative to sigma_max instead of ||A||_F.
  * matmul_lcu: AB = sum_j A_.j B_j. combined from its rank-one column-row
    terms, product states assembled directly; the swap pipeline on one
    term is their simulated oracle (tests/helpers.rank_one_product).

matmul_sve and matmul_hhl are one body, _matmul_by_value_estimation, run
on a _ValueRoute (walk_route or dilation_route) that carries what the two
differ in: accuracy scale, decode grid, rotation ceiling and component
kernel. The sve and hhl readouts use the same routes.

All registers the circuits would entangle factor into independent blocks
(one per matrix entry or singular triple), so each block is simulated
exactly on its invariant subspace and the blocks are reassembled; tests
cross-check this factorization against unfactored full-register simulations
of each pipeline on small instances. The singular-triple blocks have a
closed form: estimation and its undo weight each label by the Fejer kernel
of the block's eigenphase, so the sve and hhl components (and
circuits.sve_transform) are evaluated for all triples at once as
Fejer-weighted label sums. The block simulations _sve_component and
_hhl_component stay as the oracles the closed form is tested against.
The swap route reads only each entry's label mean, which the Fourier
transform turns into a lag-one sum over the controlled powers
(_swap_label_means), so its blocks are simulated without the transform;
the label distributions (_swap_plane_probabilities) serve the readouts and
are the oracle that read is tested against.
"""
from __future__ import annotations

import math
import warnings
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .linalg import (
    as_matrix,
    compute_svd,
    exact_product,
    pad_dim,
    pad_matrix,
    vectorize,
)
from .qpe import _controlled_powers
from .statevector import (
    CostLedger,
    Result,
    Statevector,
    _owned,
    aligned_distance,
    charge_amplification,
)

MAX_PHASE_BITS = 20
SUPPORT_TOL = 1e-9


class SupportViolationWarning(UserWarning):
    """B has weight outside the nonzero singular directions of A.
    warnings.simplefilter("error", SupportViolationWarning) makes it an error."""


# ---------------------------------------------------------------------------
# exact per-block simulation helpers

def _rotation(angle: float) -> np.ndarray:
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, s], [-s, c]])


# eigenvectors of _rotation(angle), for its eigenphases +angle and -angle
_ROTATION_EIGENVECTORS = np.array([[1.0, 1.0], [1.0j, -1.0j]]) / math.sqrt(2.0)


def _qpe_powers(u: np.ndarray, psi: np.ndarray, t: int) -> np.ndarray:
    """Controlled powers of a forward estimation before its Fourier
    transform: every label starts from psi/sqrt(2^t), so
    qpe._controlled_powers gets that one complex128 start row and fills the
    labels by doubling. u (..., d, d) and psi (..., d) may stack independent
    blocks on a leading axis; the powers are (..., d, 2^t), label last."""
    start = np.asarray(psi, dtype=complex)[..., None, :] / math.sqrt(1 << t)
    return _controlled_powers(start, np.asarray(u, dtype=complex), t)


def _qpe_rows(u: np.ndarray, psi: np.ndarray, t: int) -> np.ndarray:
    """Forward phase-estimation amplitudes restricted to an invariant
    subspace: rows[y] is the system amplitude attached to label y, the
    Fourier transform of _qpe_powers over the labels; rows is (..., 2^t, d),
    a label-first view. circuits.phase_estimate lays these rows out on its
    dense register."""
    rows = np.fft.fft(_qpe_powers(u, psi, t), axis=-1)
    rows /= math.sqrt(1 << t)
    return np.swapaxes(rows, -1, -2)


_PLANE_BLOCK = 1 << 13  # labels per block of swap planes: 256 KB of (k, 2, 2^t) complex powers


def _swap_planes(s: np.ndarray, t: int):
    """Yield (rows, u, psi) over blocks of the overlaps s = Re<x|y>, each
    clipped to [-1, 1]: on the plane of its branch states the swap test's
    Grover rotation at overlap s[rows][r] is u[r], a turn by 2*theta with
    sin^2(theta) = (1 + s)/2, and its start state is psi[r] = (sin theta,
    cos theta). A block stacks the planes of max(1, _PLANE_BLOCK / 2^t)
    overlaps for one controlled-powers call."""
    s = np.asarray(s, dtype=float)
    step = max(1, _PLANE_BLOCK >> t)
    for lo in range(0, s.size, step):
        rows = slice(lo, lo + step)
        thetas = [math.asin(math.sqrt((1.0 + min(max(v, -1.0), 1.0)) / 2.0)) for v in s[rows].tolist()]
        u = np.array([_rotation(2.0 * theta) for theta in thetas])
        psi = np.array([[math.sin(theta), math.cos(theta)] for theta in thetas])
        yield rows, u, psi


def _swap_plane_probabilities(s: np.ndarray, t: int):
    """Yield (rows, probs) over the blocks of _swap_planes: probs[r] is the
    label distribution of a t-bit phase estimation of the swap test's
    Grover rotation at overlap s[rows][r]. Used by readout, swaptest and
    circuits.coefficient_tag, and the oracle _swap_label_means is tested
    against."""
    for rows, u, psi in _swap_planes(s, t):
        yield rows, np.sum(np.abs(_qpe_rows(u, psi, t)) ** 2, axis=-1)


def _swap_label_means(s: np.ndarray, t: int):
    """Yield (rows, means) over the blocks of _swap_planes: means[r] is the
    label mean sum_y p(y) swap_value(y, t) of the overlap s[rows][r], read
    off the controlled powers x_y without their Fourier transform.

    swap_value(y, t) = -cos(2 pi y / 2^t), and the transform turns the
    cyclic label shift into that phase, so the mean is the lag-one sum
    -Re sum_y <x_y | x_{(y+1) mod 2^t}> (Brassard-Hoyer-Mosca-Tapp). Each
    Re <a|b> is taken as the dot of the interleaved (re, im) floats, one
    pairwise sum per plane coordinate. Used by matmul_swaptest."""
    for rows, u, psi in _swap_planes(s, t):
        x = _qpe_powers(u, psi, t).view(float)  # (k, 2, 2^(t+1)): re, im of each label
        lag = np.sum(x[..., :-2] * x[..., 2:], axis=-1)
        lag += np.sum(x[..., -2:] * x[..., :2], axis=-1)
        yield rows, -(lag[:, 0] + lag[:, 1])


def _phase0_after_undo(weighted_rows: np.ndarray, phases: np.ndarray, q: np.ndarray, t: int) -> np.ndarray:
    """Per-label contribution to the phase-|0..0> system component after the
    estimation circuit of a block u, with eigenphases phases and orthonormal
    eigenvectors q[:, k], is inverted on label-weighted amplitudes.

    out[y] = (1/T) sum_z w^{zy} (u^dag)^z rows[y]; the geometric sums over z
    are evaluated in closed form from that spectrum (exact, and checked
    against the gate-by-gate inversion in tests).
    """
    T = 1 << t
    coords = weighted_rows @ q.conj()
    y = np.arange(T)
    delta = 2.0 * np.pi * y[:, None] / T - np.asarray(phases)[None, :]
    delta = np.angle(np.exp(1j * delta))  # reduce to (-pi, pi]
    half = delta / 2.0
    tiny = np.abs(delta) * T < 1e-6
    den = np.where(tiny, 1.0, np.sin(half))
    ratio = np.where(tiny, float(T), np.sin(T * half) / den)
    geo = np.exp(1j * (T - 1) * half) * ratio
    return (coords * geo / T) @ q.T


def _mu_phases(t: int) -> np.ndarray:
    """Half-angle phase shift exp(i theta~/2) per label, signed by the
    wrap-around branch; converts N|v> components into M|u> components."""
    T = 1 << t
    y = np.arange(T)
    ytilde = np.where(y <= T // 2, y, y - T)
    return np.exp(1j * np.pi * ytilde / T)


def _sigma_decode(t: int, frob: float) -> np.ndarray:
    """Singular-value decode of walk labels: frob * |cos(pi y / 2^t)|."""
    T = 1 << t
    return frob * np.abs(np.cos(np.pi * np.arange(T) / T))


def _lambda_decode(t: int, t0: float) -> np.ndarray:
    """Signed eigenvalue decode of dilation labels: (2 pi ytilde / 2^t)/t0."""
    T = 1 << t
    y = np.arange(T)
    ytilde = np.where(y <= T // 2, y, y - T)
    return (2.0 * np.pi * ytilde / T) / t0


def _walk_plane(sigma: float, frob: float):
    """Walk restricted to one singular plane, in the orthonormal basis
    (M|u>, complement): _rotation(theta) with cos(theta/2) = sigma/frob.
    Returns theta and the N|v> coordinates in that basis."""
    c = min(max(sigma / frob, 0.0), 1.0)
    theta = 2.0 * math.acos(c)
    init = np.array([c, math.sqrt(max(0.0, 1.0 - c * c))])
    return theta, init


def _sve_component(sigma: float, frob: float, t: int, weights: np.ndarray) -> complex:
    """Amplitude left on (M|u_k>, phase=0) after running label weights
    through the walk plane of one singular triple. The complement coordinate
    is exactly outside range(M) and is lost to the data postselection."""
    theta, init = _walk_plane(sigma, frob)
    rows = _qpe_rows(_rotation(theta), init, t) * (weights * _mu_phases(t))[:, None]
    g = _phase0_after_undo(rows, np.array([theta, -theta]), _ROTATION_EIGENVECTORS, t)
    return complex(g.sum(axis=0)[0])


def _hhl_component(sigma: float, t0: float, t: int, weights: np.ndarray) -> complex:
    """Amplitude left on (|u_k> ⊗ top dilation block, phase=0) for one
    eigenpair +-sigma of the dilation, given signed label weights."""
    phases = np.array([sigma * t0, -sigma * t0])
    init = np.array([1.0, -1.0]) / math.sqrt(2.0)  # (0, v_k) in the +- basis
    rows = _qpe_rows(np.diag(np.exp(1j * phases)), init, t) * weights[:, None]
    g = _phase0_after_undo(rows, phases, np.eye(2), t).sum(axis=0)
    return complex((g[0] + g[1]) / math.sqrt(2.0))


# ---------------------------------------------------------------------------
# closed-form value-estimation kernels
#
# Estimation on a t-bit register followed by its undo multiplies the label-y
# weight of an eigenphase phi by the Fejer kernel
#   F(delta) = sin^2(T delta / 2) / (T^2 sin^2(delta / 2)),  delta = phi - 2 pi y / T
# (Brassard-Hoyer-Mosca-Tapp), so every singular triple's component is a
# Fejer-weighted label sum. The functions below evaluate those sums for all
# triples at once; _sve_component and _hhl_component, which simulate the
# circuit block, are the oracles they are tested against.

_KERNEL_BLOCK = 1 << 15  # elements per block of the (k, 2^t) kernel array
# 2 pi = _TWO_PI_HI + _TWO_PI_LO, the high part short enough that its product
# with a label index is exact; sin(fl(pi)) = pi - fl(pi) restores the low bits
_TWO_PI_HI = math.ldexp(math.floor(math.ldexp(2.0 * math.pi, 29)), -29)
_TWO_PI_LO = (2.0 * math.pi - _TWO_PI_HI) + 2.0 * math.sin(math.pi)


def _fejer_blocks(phases: np.ndarray, t: int):
    """Yield (rows, f) over row blocks of phases, f[r, y] = F(phases[rows][r]
    + 2 pi y / 2^t). A block holds max(_KERNEL_BLOCK, 2^t) elements at most,
    so the whole (k, 2^t) array is never built.

    F changes by O(T) per radian near its peak, so delta is reduced to
    about [-pi, pi] to its own relative accuracy: phase = 2 pi p / T + rest
    with |rest| <= pi / T (two-part 2 pi), and delta = rest + 2 pi m / T
    for the centred index m = (p + y) mod T. No sine is taken per label:
      * the numerator sin^2(T delta / 2) = sin^2(T rest / 2 + pi m)
        = sin^2(T rest / 2) is one value per row;
      * the denominator's sin(delta / 2) = sin(pi m / T) cos(rest / 2)
        + cos(pi m / T) sin(rest / 2), with the sines and cosines of the
        centred half-grid pi m / T taken once per call. For m != 0,
        |pi m / T| >= 2 |rest / 2|, so the first term outweighs the second
        and the sum loses at most a factor of 3 to cancellation; for m = 0
        it is sin(rest / 2) exactly.
    Label y of a row reads index y of the window that starts at the row's
    shift (p + T/2) mod T in the grids laid end to end twice."""
    T = 1 << t
    centred = np.arange(T) - T // 2
    half_grid = centred * (0.5 * _TWO_PI_HI / T) + centred * (0.5 * _TWO_PI_LO / T)  # pi m / T
    windows = np.lib.stride_tricks.sliding_window_view
    sines = windows(np.tile(np.sin(half_grid), 2), T)
    cosines = windows(np.tile(np.cos(half_grid), 2), T)
    step = max(1, _KERNEL_BLOCK // T)
    for lo in range(0, phases.size, step):
        rows = slice(lo, lo + step)
        p = np.rint(phases[rows] * (T / (2.0 * math.pi)))
        rest = (phases[rows] - p * (_TWO_PI_HI / T)) - p * (_TWO_PI_LO / T)
        shift = (p.astype(np.int64) + T // 2) % T
        den = sines[shift]  # T sin(delta / 2); scaling by T = 2^t is exact
        den *= (T * np.cos(0.5 * rest))[:, None]
        den += cosines[shift] * (T * np.sin(0.5 * rest))[:, None]
        # |delta| * T < 1e-6 only at m = 0, label (T/2 - shift) mod T, where F = 1
        tiny = np.flatnonzero(np.abs(rest) * T < 1e-6)
        peak = (T // 2 - shift[tiny]) % T
        den[tiny, peak] = 1.0
        f = np.divide(np.sin(0.5 * T * rest)[:, None], den, out=den)
        f[tiny, peak] = 1.0
        f *= f
        yield rows, f


def _mirrored(labels: np.ndarray, axis: int = 0) -> np.ndarray:
    """labels[(-y) mod 2^t] along the label axis."""
    return np.roll(np.flip(labels, axis), 1, axis)


def _fejer_sums(phases: np.ndarray, t: int, weights: np.ndarray):
    """plus[k] = sum_y F(phases[k] + 2 pi y/T) weights[y] and minus[k], the
    same with -2 pi y/T, for (T, m) weights; each is (k, m) complex. F is
    even and 2 pi-periodic, so minus is plus on the mirrored weights."""
    m = weights.shape[1]
    both = np.concatenate([weights, _mirrored(weights)], axis=1)
    real = np.concatenate([both.real, both.imag], axis=1)
    out = np.empty((phases.size, 4 * m))
    for rows, f in _fejer_blocks(phases, t):
        out[rows] = f @ real
    sums = out[:, : 2 * m] + 1j * out[:, 2 * m :]
    return sums[:, :m], sums[:, m:]


def _walk_angles(sigmas: np.ndarray, frob: float) -> np.ndarray:
    """Walk rotation angle theta_k, cos(theta_k / 2) = sigma_k / frob."""
    return 2.0 * np.arccos(np.clip(np.asarray(sigmas, dtype=float) / frob, 0.0, 1.0))


def _walk_components(sigmas: np.ndarray, frob: float, t: int, weights: np.ndarray) -> np.ndarray:
    """_sve_component for every sigma_k at once: N|v_k> has amplitude
    exp(-+i theta_k / 2) / sqrt(2) on the walk's e^{+-i theta_k} eigenvectors,
    each of which overlaps M|u_k> by 1/sqrt(2). weights is (T,) or (T, m)."""
    T = 1 << t
    theta = _walk_angles(sigmas, frob)
    w = np.reshape(weights, (T, -1)) * _mu_phases(t)[:, None]
    plus, minus = _fejer_sums(theta, t, w)
    turn = np.exp(0.5j * theta)[:, None]
    return (0.5 * (turn * plus + turn.conj() * minus)).reshape(theta.shape + np.shape(weights)[1:])


def _dilation_components(sigmas: np.ndarray, t0: float, t: int, weights: np.ndarray) -> np.ndarray:
    """_hhl_component for every sigma_k at once: (0, v_k) has amplitude
    +-1/sqrt(2) on the eigenphases +-sigma_k t0. weights is (T,) or (T, m)."""
    T = 1 << t
    phases = np.asarray(sigmas, dtype=float) * t0
    plus, minus = _fejer_sums(phases, t, np.reshape(weights, (T, -1)))
    return (0.5 * (minus - plus)).reshape(phases.shape + np.shape(weights)[1:])


# ---------------------------------------------------------------------------
# value-estimation routes

@dataclass(frozen=True)
class _ValueRoute:
    """One way of reading the singular values of A off a phase register.

    A t-bit register reads each singular value to eps1 = scale / 2^t.
    decode(t) maps labels to values, ceiling(t) is the largest value the
    grid decodes for sigma_max, and components(sigmas, t, weights) gives,
    for every sigma_k, the amplitude its singular triple keeps after its
    labels are rotated by weights ((T,) or (T, m)) and the estimation is
    undone.
    """

    scale: float
    lowest: float  # smallest rotation value: 0 for unsigned decodes, -1 for signed
    decode: Callable[[int], np.ndarray]
    ceiling: Callable[[int], float]
    components: Callable[[np.ndarray, int, np.ndarray], np.ndarray]
    details: dict

    def rotation(self, t: int) -> tuple[float, np.ndarray]:
        """Rotation constant c_rot = 1 / ceiling(t) and the per-label
        rotation values c_rot * decode(t), clipped to [lowest, 1]."""
        c_rot = 1.0 / max(self.ceiling(t), 1e-300)
        return c_rot, np.clip(c_rot * self.decode(t), self.lowest, 1.0)


def walk_route(frob_a: float, sigma_max: float) -> _ValueRoute:
    """Walk operator of A (Kerenidis-Prakash SVE): labels decode
    ||A||_F |cos(pi y / 2^t)|, accurate to 2 pi ||A||_F / 2^t."""
    theta_top = 2.0 * math.acos(min(sigma_max / frob_a, 1.0))

    def ceiling(t: int) -> float:
        # the floor label decodes at or above sigma_max, so the dominant
        # component never hits the clip
        T = 1 << t
        return frob_a * abs(math.cos(math.pi * math.floor(theta_top * T / (2.0 * math.pi)) / T))

    return _ValueRoute(
        scale=2.0 * math.pi * frob_a,
        lowest=0.0,
        decode=lambda t: _sigma_decode(t, frob_a),
        ceiling=ceiling,
        components=lambda sigmas, t, weights: _walk_components(sigmas, frob_a, t, weights),
        details={},
    )


def dilation_route(frob_a: float, sigma_max: float) -> _ValueRoute:
    """Hermitian dilation [[0, A], [A^dag, 0]] evolved for t0 = pi / (2
    sigma_max) (HHL): labels decode the signed eigenvalues +-sigma_k,
    accurate to 8 sigma_max / 2^t."""
    t0 = math.pi / (2.0 * sigma_max)

    def ceiling(t: int) -> float:
        # decode of the label at or above sigma_max, as _lambda_decode does it
        T = 1 << t
        y = min(math.ceil(sigma_max * t0 * T / (2.0 * math.pi)), T // 2)
        return abs((2.0 * math.pi * y / T) / t0)

    return _ValueRoute(
        scale=8.0 * sigma_max,
        lowest=-1.0,
        decode=lambda t: _lambda_decode(t, t0),
        ceiling=ceiling,
        components=lambda sigmas, t, weights: _dilation_components(sigmas, t0, t, weights),
        details={"evolution_time": t0},
    )


# ---------------------------------------------------------------------------
# error budgets

def swaptest_error_bound(frob_a: float, frob_b: float, frob_c: float, eps_inner: float) -> float:
    """State-error budget of the swap-test pipeline for per-entry inner
    product accuracy eps_inner: sqrt(2 r^2 + 2 r^4) * eps_inner with
    r = ||A||_F ||B||_F / ||C||_F."""
    r2 = (frob_a * frob_b / frob_c) ** 2
    return math.sqrt(2.0 * r2 + 2.0 * r2 * r2) * eps_inner


def sve_error_bound(
    eps1: float,
    col_norms: np.ndarray,
    alpha: np.ndarray,
    sigma_eff: np.ndarray,
    sigma_exact: np.ndarray,
) -> float:
    """Instance evaluation of the singular-value pipeline error budget for
    per-component accuracy |sigma~ - sigma| <= eps1:

      2 eps1^2 ||B||^2 / Z + 2 eps1^2 ||B||^4 max|sigma~+sigma|^2 / (Z (sqrt(Z)+sqrt(W))^2)

    where Z and W weight the squared column norms by estimated and exact
    singular values respectively."""
    weights = (col_norms**2)[None, :] * np.abs(alpha) ** 2  # (k, j)
    z = float(np.sum(weights * (sigma_eff**2)[:, None]))
    w = float(np.sum(weights * (sigma_exact**2)[:, None]))
    if z <= 0 or w <= 0:
        raise ValueError("error budget undefined for a zero product")
    b2 = float(np.sum(col_norms**2))
    max_sum = float(np.max(sigma_eff + sigma_exact))
    term1 = 2.0 * eps1**2 * b2 / z
    term2 = 2.0 * eps1**2 * b2**2 * max_sum**2 / (z * (math.sqrt(z) + math.sqrt(w)) ** 2)
    return math.sqrt(term1 + term2)


# ---------------------------------------------------------------------------
# swap-test pipeline

def _check_real_pair(a, b):
    a = as_matrix(a, allow_complex=False)
    b = as_matrix(b, allow_complex=False)
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"dimension mismatch: {a.shape} x {b.shape}")
    return a, b


def _resolve_phase_bits(phase_bits, accuracy, scale: float = math.pi, guard: int = 2) -> int:
    """Width t of every phase register in qmm: the pipelines', the readouts'
    singular-value and overlap registers, the swap-test estimators' and
    coefficient_tag's. An explicit phase_bits must be an integer (Python or
    numpy, not a float or a bool) in [2, MAX_PHASE_BITS]; otherwise t reads
    a value to accuracy on a scale / 2^t grid plus guard bits (overlaps: pi
    and 2; value routes: route.scale and 0), at least 2, and a t above
    MAX_PHASE_BITS raises before any register is built."""
    if phase_bits is not None:
        if isinstance(phase_bits, bool) or not isinstance(phase_bits, (int, np.integer)):
            raise ValueError(f"phase_bits must be an integer, got {phase_bits!r}")
        t = int(phase_bits)
        if not 2 <= t <= MAX_PHASE_BITS:
            raise ValueError(f"phase_bits must lie in [2, {MAX_PHASE_BITS}], got {t}")
        return t
    if accuracy is None:
        raise ValueError("need either eps or phase_bits")
    if not accuracy > 0:
        raise ValueError(f"accuracy must be positive, got {accuracy}")
    t = max(math.ceil(math.log2(scale / accuracy)) + guard, 2)
    if t > MAX_PHASE_BITS:
        raise ValueError(f"would need a {t}-bit phase register (cap {MAX_PHASE_BITS})")
    return t


def _product_state(amps: np.ndarray, rows: int, cols: int) -> tuple[Statevector, float]:
    """Normalize a (rows x cols)-supported amplitude table onto padded
    (row, col) registers; returns the state and the squared norm."""
    lp, npad = pad_dim(rows), pad_dim(cols)
    table = np.zeros((lp, npad), dtype=complex)
    table[:rows, :cols] = amps[:rows, :cols]
    norm2 = float(np.sum(np.abs(table) ** 2))
    if norm2 <= 0:
        raise ValueError("pipeline produced a zero state")
    layout = (("row", int(math.log2(lp))), ("col", int(math.log2(npad))))
    return _owned(layout, table.reshape(-1) / math.sqrt(norm2)), norm2


def _pipeline_ledger(oracles: int, per_step: int, t: int, success: float) -> CostLedger:
    """Cost of a product-state pipeline: its state-preparation oracles,
    per_step controlled calls per step of a t-bit estimation (4 for swap and
    lcu, 2 for sve and hhl), postselection at the given success probability
    and the amplification it needs."""
    ledger = CostLedger()
    ledger.charge_oracle(oracles)
    ledger.charge_phase_estimation(t, per_step)
    ledger.record_postselect(success)
    charge_amplification(ledger, success)
    return ledger


def _nonzero_product(a, b) -> tuple[np.ndarray, float]:
    """(AB, ||AB||_F): the one zero-product rule of the product-state
    pipelines, whose state is undefined at ||AB||_F <= 1e-14."""
    c = exact_product(a, b)
    frob_c = float(np.linalg.norm(c))
    if frob_c <= 1e-14:
        raise ValueError("AB = 0: the product state is undefined")
    return c, frob_c


def matmul_swaptest(
    a,
    b,
    eps: float | None = None,
    phase_bits: int | None = None,
    *,
    exact_phase: bool = False,
) -> Result:
    """Produce the state of AB by estimating every row-column inner product
    in superposition and rotating it into an amplitude.

    The per-entry estimate is the exact postselected amplitude mean over the
    phase-label distribution, which stays within pi/2^t of the true inner
    product; the state error then obeys swaptest_error_bound at
    eps_inner = pi/2^t. Success probability is Z/(||A||_F ||B||_F)^2. The
    means come from _swap_label_means: the entries' swap planes stacked
    into a few controlled-powers calls, each mean a lag-one sum over the
    powers, with no Fourier transform and no label distribution.
    """
    a, b = _check_real_pair(a, b)
    c, frob_c = _nonzero_product(a, b)
    frob_a = float(np.linalg.norm(a))
    frob_b = float(np.linalg.norm(b))
    row_norms = np.linalg.norm(a, axis=1)
    col_norms = np.linalg.norm(b, axis=0)
    r2 = (frob_a * frob_b / frob_c) ** 2
    t = _resolve_phase_bits(phase_bits, None if eps is None else eps / math.sqrt(2 * r2 + 2 * r2 * r2))
    eps_inner = math.pi / (1 << t)
    l, n = a.shape[0], b.shape[1]

    # the overlap of every entry whose row and column are nonzero, row-major
    rows, cols = np.flatnonzero(row_norms), np.flatnonzero(col_norms)
    s = []
    for i in rows:
        arow = a[i] / row_norms[i]
        s += [float(np.clip(arow @ (b[:, j] / col_norms[j]), -1.0, 1.0)) for j in cols]
    s = np.array(s)
    s_eff = s.copy()
    if not exact_phase:
        # postselected-branch amplitude: the probability-weighted label
        # decode (rotation value is even across the +- pair)
        for block, means in _swap_label_means(s, t):
            s_eff[block] = means
    amps = np.zeros((l, n))
    amps[np.ix_(rows, cols)] = (row_norms[rows, None] * col_norms[cols]) * s_eff.reshape(rows.size, cols.size)

    state, z = _product_state(amps, l, n)
    success = z / (frob_a * frob_b) ** 2
    realized = aligned_distance(state, vectorize(c))
    bound = swaptest_error_bound(frob_a, frob_b, frob_c, eps_inner)
    return Result(
        realized_error=realized,
        bound=bound,
        ledger=_pipeline_ledger(2, 4, t, success),
        state=state,
        success_probability=success,
        phase_bits=t,
        expected_success_probability=frob_c**2 / (frob_a * frob_b) ** 2,
        details={"eps_inner": eps_inner},
    )


def matmul_lcu(a, b, eps: float = 0.05) -> Result:
    """State of AB as the weighted combination of rank-one column-row
    products AB = sum_j A_.j B_j. , combined with weights ||A_.j|| ||B_j.||.
    Each term is the product state of a normalized column and row, so it is
    assembled directly (matmul_swaptest on the column and row simulates one
    as the oracle).

    Success probability is ||C||_F^2 / (sum_j ||A_.j|| ||B_j.||)^2, never
    below the swap-test pipeline's, and the inner estimations need only the
    target accuracy rather than its square, so the charged cost is no larger
    on any instance.
    """
    a, b = _check_real_pair(a, b)
    l, n = a.shape[0], b.shape[1]
    if l * n == 1:
        raise ValueError("a 1x1 product has no column-row decomposition to combine")
    c, frob_c = _nonzero_product(a, b)  # also every product with no nonzero column-row term
    col_a = np.linalg.norm(a, axis=0)
    row_b = np.linalg.norm(b, axis=1)
    lam = col_a * row_b
    live = lam > 0
    t = _resolve_phase_bits(None, eps)
    # sum_j lam_j (A_.j / ||A_.j||)(B_j. / ||B_j.||) over the live terms: built
    # from the normalized terms, not copied from AB, so realized_error checks it
    combined = (a[:, live] / col_a[live] * lam[live]) @ (b[live] / row_b[live][:, None])
    state, _ = _product_state(combined, l, n)
    success = frob_c**2 / float(np.sum(lam)) ** 2
    return Result(
        realized_error=aligned_distance(state, vectorize(c)),
        bound=eps,
        ledger=_pipeline_ledger(2, 4, t, success),
        state=state,
        success_probability=success,
        phase_bits=t,
        expected_success_probability=success,
        details={"weight_sum": float(np.sum(lam))},
    )


# ---------------------------------------------------------------------------
# singular-value pipelines

def _sve_setup(a, b):
    """(a, b, bundle, sigmas, col_norms, frob_b, alpha) for the sve and hhl
    pipelines and readouts: the SVD of A padded to d x d, d = pad_dim(max(l, m)),
    all d of its singular values, and alpha[k, j] = <v_k|B_.j>/||B_.j||."""
    a, b = _check_real_pair(a, b)
    d = pad_dim(max(a.shape))
    bp = pad_matrix(b, d, b.shape[1])
    bundle = compute_svd(pad_matrix(a, d, d))
    col_norms = np.linalg.norm(bp, axis=0)
    frob_b = float(np.linalg.norm(bp))
    bhat = np.where(col_norms[None, :] > 0, bp / np.where(col_norms == 0, 1.0, col_norms)[None, :], 0.0)
    alpha = bundle.right_vectors.conj().T @ bhat
    return a, b, bundle, bundle.sigmas, col_norms, frob_b, alpha


def _check_support(sigmas, alpha, col_norms, frob_b) -> None:
    dead = sigmas <= SUPPORT_TOL * max(float(sigmas[0]), 1.0)
    bad = float(np.sum((col_norms**2)[None, :] * np.abs(alpha[dead]) ** 2) / frob_b**2)
    if bad > 1e-10:
        warnings.warn(
            f"{bad:.3e} of B's weight lies outside the nonzero singular "
            f"directions of A; success probability degrades accordingly",
            SupportViolationWarning,
        )


def _assemble_sve_state(bundle, a_vec, alpha, col_norms, frob_b, l, n):
    psi = (bundle.left_vectors * a_vec[None, :]) @ (alpha * (col_norms / frob_b)[None, :])
    return _product_state(psi, l, n)


def _matmul_by_value_estimation(a, b, eps, phase_bits, route_of, *, exact_phase) -> Result:
    """State of AB from the column-encoded state of B: estimate every
    singular value of A on the route's phase register, rotate by c_rot times
    the decoded value, undo the estimation and postselect.

    Per-component singular values are read to eps1 = route.scale / 2^t; the
    realized state distance obeys sve_error_bound(eps1, ...). Success
    probability approaches ||AB||_F^2 / (||B||_F^2 sigma_max^2).
    """
    a0, b0, bundle, sigmas, col_norms, frob_b, alpha = _sve_setup(a, b)
    c, frob_c = _nonzero_product(a0, b0)
    _check_support(sigmas, alpha, col_norms, frob_b)
    sigma_max = float(sigmas[0])
    route = route_of(float(np.linalg.norm(a0)), sigma_max)
    eps1_target = None if eps is None else eps * frob_c**2 / (2.0 * frob_b**2 * sigma_max)
    t = _resolve_phase_bits(phase_bits, eps1_target, route.scale, 0)
    T = 1 << t
    # per-component accuracy actually achieved by the probability-weighted
    # label decode (worst case measured well under this; asserted in tests)
    eps1_eff = route.scale / T

    if exact_phase:
        c_rot = 1.0 / sigma_max
        a_vec = (c_rot * sigmas).astype(complex)
    else:
        c_rot, weights = route.rotation(t)
        live = np.any(np.abs(alpha) > 1e-14, axis=1)
        a_vec = np.zeros(sigmas.size, dtype=complex)
        a_vec[live] = route.components(sigmas[live], t, weights)

    state, success = _assemble_sve_state(bundle, a_vec, alpha, col_norms, frob_b, a0.shape[0], b0.shape[1])
    sigma_eff = np.abs(a_vec) / c_rot
    return Result(
        realized_error=aligned_distance(state, vectorize(c)),
        bound=sve_error_bound(eps1_eff, col_norms, alpha, sigma_eff, sigmas),
        ledger=_pipeline_ledger(1, 2, t, success),
        state=state,
        success_probability=success,
        phase_bits=t,
        expected_success_probability=frob_c**2 / (frob_b**2 * sigma_max**2),
        details={
            "eps1_eff": eps1_eff,
            "sigma_eff": sigma_eff.tolist(),
            "sigma_exact": sigmas.tolist(),
            "rotation_scale": c_rot,
            **route.details,
        },
    )


def matmul_sve(
    a,
    b,
    eps: float | None = None,
    phase_bits: int | None = None,
    *,
    exact_phase: bool = False,
) -> Result:
    """State of AB via singular-value estimation on the walk operator of A,
    starting from the column-encoded state of B; singular values are read
    to eps1 = 2 pi ||A||_F / 2^t (walk_route)."""
    return _matmul_by_value_estimation(a, b, eps, phase_bits, walk_route, exact_phase=exact_phase)


def matmul_hhl(
    a,
    b,
    eps: float | None = None,
    phase_bits: int | None = None,
    *,
    exact_phase: bool = False,
) -> Result:
    """State of AB via phase estimation of exp(i Adilated t0) on the
    Hermitian dilation of A; the matmul_sve template with label accuracy
    eps1 = 8 sigma_max / 2^t instead of 2 pi ||A||_F / 2^t (dilation_route)."""
    return _matmul_by_value_estimation(a, b, eps, phase_bits, dilation_route, exact_phase=exact_phase)
