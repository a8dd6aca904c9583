"""Overlap estimation from the Grover-rotation spectrum, and its coherent
generalization that writes f(overlap) into a register.

The control state (|+>|x> + |->|y>)/sqrt(2) has |0>-branch probability
(1 + <x|y>)/2; phase estimation of the rotation built from it reads the
branch angle off a pi/2^t grid, so halving the target accuracy costs one
more phase bit (denominator doubles).
"""
import numpy as np

from qmm import from_vector, generalized_swap_test, inner_product_estimate
from qmm.statevector import CostLedger
from qmm.swaptest import tag_modal_value

rng = np.random.default_rng(21)
x = rng.normal(size=8)
x /= np.linalg.norm(x)
y = rng.normal(size=8)
y /= np.linalg.norm(y)
px, py = from_vector("x", x), from_vector("y", y)

exact = float(x @ y)
print(f"exact <x|y> = {exact:+.6f}\n")
print(f"{'eps':>10} {'estimate':>12} {'error':>10} {'oracle units':>13}")
for k in range(3, 10):
    eps = 2.0**-k
    ledger = CostLedger()
    est = inner_product_estimate(px, py, eps, ledger)
    print(f"{eps:>10.5f} {est:>+12.6f} {abs(est - exact):>10.2e} {ledger.total_oracle_units():>13}")

print("\ncoherent version: tag register carries f(s) = s^2 without measuring")
out = generalized_swap_test(px, py, lambda s: s * s, 2**-6)
print(f"layout: {out.layout}")
print(f"modal tag decode: {tag_modal_value(out):+.6f}  (exact s^2 = {exact**2:+.6f})")
