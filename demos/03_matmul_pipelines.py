"""The three product-state pipelines side by side on one instance.

Each run returns a qmm.Result: the realized distance to the exact |AB>
(realized_error), the instance evaluation of its error budget (bound; the
realized value must stay under it), the postselection probability against
its closed form, the charged costs (ledger) and the product state (state).
"""
import numpy as np

from qmm import exact_product, matmul_hhl, matmul_lcu, matmul_swaptest, matmul_sve, vectorize
from qmm.harness import generate_matrix
from qmm.statevector import aligned_distance

a = generate_matrix(4, kappa_target=3.0, seed=5)
b = generate_matrix(4, kappa_target=2.0, seed=6)
c = exact_product(a, b)
print(f"instance: 4x4, kappa(A)=3, ||A||F||B||F/||C||F = "
      f"{np.linalg.norm(a) * np.linalg.norm(b) / np.linalg.norm(c):.3f}\n")

print(f"{'method':>8} {'error':>10} {'budget':>10} {'P(success)':>11} {'P formula':>10} {'rounds':>7} {'ctrl calls':>11}")
for name, runner in (
    ("swap", lambda: matmul_swaptest(a, b, phase_bits=10)),
    ("sve", lambda: matmul_sve(a, b, phase_bits=10)),
    ("hhl", lambda: matmul_hhl(a, b, phase_bits=10)),
    ("lcu", lambda: matmul_lcu(a, b, eps=0.05)),
):
    res = runner()
    led = res.ledger
    print(
        f"{name:>8} {res.realized_error:>10.2e} {res.bound:>10.2e} "
        f"{res.success_probability:>11.4f} {res.expected_success_probability:>10.4f} "
        f"{led.amplification_rounds:>7} {led.controlled_oracle_calls:>11}"
    )

print("\nexact-phase mode (phase labels replaced by exact angles) collapses")
print("every pipeline onto the exact product state:")
for name, fn in (("swap", matmul_swaptest), ("sve", matmul_sve), ("hhl", matmul_hhl)):
    res = fn(a, b, phase_bits=6, exact_phase=True)
    print(f"  {name}: distance to |AB> = {aligned_distance(res.state, vectorize(c)):.2e}")
