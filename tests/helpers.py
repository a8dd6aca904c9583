"""Helpers shared by the test modules: bit-exact row comparison, the
dense-register overlap oracle and degenerate matrix instances."""
import numpy as np
from hypothesis import assume
from hypothesis import strategies as st

from qmm.io import INSTANCE_FIELDS
from qmm.qpe import PhaseConfig, grover_rotation, phase_estimate, swap_value
from qmm.statevector import marginal_probabilities
from qmm.swaptest import superposed_pair_state


def comparable(row: dict) -> dict:
    """The row with each instance field replaced by its float64 bit patterns
    (nested lists of uint64), so that == and json.dumps compare it bit for bit."""
    return {
        k: np.asarray(v, dtype=np.float64).view(np.uint64).tolist() if k in INSTANCE_FIELDS else v
        for k, v in row.items()
    }


def comparable_rows(rows: list[dict]) -> list[dict]:
    return [comparable(row) for row in rows]


def dense_overlap_estimate(x, y, eps, ledger=None):
    """Reference estimator: the Grover rotation on the full register."""
    cfg = PhaseConfig.from_epsilon(eps)
    phi = superposed_pair_state(x, y)
    if ledger is not None:
        ledger.charge_oracle(2)
    est = phase_estimate(grover_rotation(phi), phi, cfg, ledger)
    label = int(np.argmax(marginal_probabilities(est, "phase")))
    return float(swap_value(label, cfg.phase_bits))


@st.composite
def zero_row_pairs(draw):
    """A with zero rows (one row at least nonzero) times B, or a 1 x k by
    k x 1 product (l n = 1); AB != 0."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        l, m, n = 1, draw(st.integers(1, 5)), 1
    else:
        l, m, n = draw(st.integers(2, 4)), draw(st.integers(1, 3)), draw(st.integers(1, 3))
    a = rng.normal(size=(l, m))
    if l > 1:
        zero = draw(st.lists(st.integers(0, l - 1), min_size=1, max_size=l - 1, unique=True))
        a[zero] = 0.0
    b = rng.normal(size=(m, n))
    assume(np.linalg.norm(a @ b) > 1e-3)
    return a, b
