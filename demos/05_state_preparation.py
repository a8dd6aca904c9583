"""Five ways to amplitude-encode one classical vector.

The generic synthesis is exact but its gate model grows with the full
dimension. The small-angle route is cheap when the magnitudes are nearly
uniform; the dyadic and sign-shift decompositions turn any spread into
nearly-uniform pieces, so their cost depends only weakly (or not at all) on
the spread kappa(x).
"""
import numpy as np

from qmm import from_vector, prep_dyadic, prep_signshift, prep_sparse, synthesize_direct
from qmm.circuits import fidelity
from qmm.harness import generate_vector
from qmm.stateprep import VectorSpec, dyadic_bands

x = generate_vector(32, kappa_target=2.0**8, seed=59)
target = from_vector("x", x)
spec = VectorSpec.from_values(x)
print(f"dim {x.size}, kappa(x) = {spec.kappa_x:.1f}\n")

bands = dyadic_bands(spec)
print(f"dyadic split: {len(bands)} bands, per-band magnitude spread "
      f"{max(band.kappa_x for band in bands):.3f} (<= 2)")
print(f"bands sum back to x exactly: {np.array_equal(sum(band.values for band in bands), x)}\n")

# every route returns a qmm.Result: the state, its realized distance to |x>
# and the bound that distance must stay under, and the costs charged
rows = [
    ("direct", synthesize_direct(x)),
    ("sparse", prep_sparse(x, 0.05)),
    ("dyadic", prep_dyadic(x, 0.05)),
    ("signshift", prep_signshift(x, 0.05)),
]
print(f"{'method':>10} {'fidelity':>10} {'distance':>10} {'bound':>9} {'P(success)':>11} {'amp rounds':>11} {'gate units':>12}")
for name, res in rows:
    led = res.ledger
    print(
        f"{name:>10} {fidelity(res.state, target):>10.6f} {res.realized_error:>10.2e} {res.bound:>9.2e} "
        f"{res.success_probability:>11.4f} {led.amplification_rounds:>11} {led.gate_units:>12.3e}"
    )

print("\namplification cost of the small-angle route grows like kappa^(3/2):")
base = from_vector("k", np.ones(16))
from qmm import prep_hamiltonian

for kappa in (2.0, 8.0, 32.0):
    f = np.geomspace(kappa, 1.0, 16)
    rep = prep_hamiltonian(f, base, eps=0.05)
    print(f"  kappa(f) = {kappa:>4.0f}: rounds = {rep.ledger.amplification_rounds:>6} "
          f"(distance {rep.realized_error:.2e} <= bound {rep.bound:.2e})")
