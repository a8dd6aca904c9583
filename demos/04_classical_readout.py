"""Entrywise (classical-output) multiplication with an absolute per-entry
accuracy contract, and the cost anatomy behind it.

The swap route pays ||A_i.|| ||B_.j|| / eps per entry; the sve/hhl routes
nest a singular-value pipeline inside each overlap estimate. The classical
norm pass (one touch per matrix entry) is tracked separately from oracle
costs.
"""
from qmm import exact_product, readout_hhl, readout_sve, readout_swaptest
from qmm.harness import generate_matrix

a = generate_matrix(4, kappa_target=2.0, seed=11)
b = generate_matrix(4, kappa_target=2.0, seed=12)
c = exact_product(a, b)

eps = 0.05
print(f"eps_abs = {eps}\n")
print(f"{'method':>14} {'max entry error':>16} {'oracle units':>14} {'classical entries':>18}")
for name, fn in (("readout-swap", readout_swaptest), ("readout-sve", readout_sve), ("readout-hhl", readout_hhl)):
    rep = fn(a, b, eps)
    led = rep.ledger
    print(
        f"{name:>14} {rep.realized_error:>16.4e} "
        f"{led.total_oracle_units():>14.3e} {led.classical_entries:>18}"
    )

print("\nestimates vs exact entries (swap route):")
rep = readout_swaptest(a, b, eps)
for i in range(4):
    row = "  ".join(f"{rep.c_tilde[i, j]:+.3f}({c[i, j]:+.3f})" for j in range(4))
    print("  " + row)

print("\ncost scales linearly with the matrix scale at fixed eps_abs:")
for scale in (1.0, 2.0, 4.0):
    rep = readout_swaptest(scale * a, b, eps)
    print(f"  scale {scale:>3.0f}: oracle units = {rep.ledger.total_oracle_units():.3e}")
