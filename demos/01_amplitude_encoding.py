"""Amplitude encoding of matrices and the marginal states the pipelines
start from.

A matrix A becomes the unit state with amplitudes a_ij/||A||_F on a (row,
col) register pair. Tracing out either register leaves the row-norm or
column-norm marginal, which is exactly the initial data the multiplication
pipelines consume.
"""
import numpy as np

from qmm import matrix_profile, vectorize
from qmm.circuits import col_marginal_state, marginal_probabilities, pipeline_initial_state, row_marginal_state

rng = np.random.default_rng(0)
a = rng.normal(size=(3, 3))

print("matrix A:")
print(np.round(a, 3))

prof = matrix_profile(a)
print(f"\n||A||_F = {prof.frobenius:.4f}, sigma_max = {prof.sigma_max:.4f}, kappa = {prof.kappa:.2f}")

state = vectorize(a)
print(f"\n|A> lives on registers {state.layout} ({state.total_qubits} qubits)")
print("amplitude table (padded to powers of two):")
print(np.round(state.reshaped().real, 4))

row_probs = marginal_probabilities(state, "row")
print("\nrow marginal of |A>:", np.round(row_probs, 4))
print("row_norms^2 / ||A||^2:", np.round(prof.row_norms**2 / prof.frobenius**2, 4))

print("\nrow-norm state |A_F.>:", np.round(row_marginal_state(a).amplitudes.real, 4))
print("col-norm state |A_.F>:", np.round(col_marginal_state(a).amplitudes.real, 4))

b = rng.normal(size=(3, 3))
init = pipeline_initial_state(a, b)
print("\npipeline initial state on (row of A, col of B):")
print(np.round(init.reshaped().real, 4))
