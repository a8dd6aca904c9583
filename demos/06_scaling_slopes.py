"""Fitted cost slopes standing in for asymptotic run-time claims.

The ledger counts oracle and controlled-oracle calls; on log-log grids the
fitted slopes recover the advertised scalings: entrywise readout is linear
in 1/eps and quadratic in the matrix size (at unit-bounded singular
values), and small-angle preparation amplifies like kappa^(3/2).
"""
from qmm.harness import scaling_study

study = scaling_study(
    "readout-swap",
    n_grid=[2, 4, 8],
    eps_grid=[2.0**-3, 2.0**-4, 2.0**-5, 2.0**-6],
    seeds=[1, 2, 3],
)
print("readout-swap cost table (mean over seeds):")
print(f"{'n':>3} {'eps':>9} {'cost':>12}")
seen = set()
for row in study["table"]:
    key = (row["n"], row["eps"])
    if key in seen:
        continue
    seen.add(key)
    cells = [r["cost"] for r in study["table"] if (r["n"], r["eps"]) == key]
    print(f"{row['n']:>3} {row['eps']:>9.5f} {sum(cells) / len(cells):>12.1f}")

for name, (slope, stderr) in study["slopes"].items():
    print(f"{name}: {slope:.3f} +- {1.96 * stderr:.3f}")

print()
prep = scaling_study("prep-sparse", n_grid=[16], eps_grid=[0.05], seeds=[1, 2], kappa=8.0)
print(f"prep-sparse at kappa 8: amplification rounds = "
      f"{[r['amplification_rounds'] for r in prep['table']]}")
