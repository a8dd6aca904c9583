"""Exact statevector simulation of quantum matrix-multiplication pipelines,
entrywise readout, and amplitude-encoding state preparation, with every run
checked against closed-form error budgets and a cost ledger standing in for
oracle-query run time.

The paper's circuits, simulated gate by gate (the generalized swap test,
the generalized SVE, phase estimation and the dense register gates), are in
qmm.circuits, which this package does not import."""

from .linalg import (
    MatrixProfile,
    SVDBundle,
    compute_svd,
    exact_product,
    hermitian_dilation,
    matrix_profile,
    vectorize,
)
from .matmul import (
    matmul_hhl,
    matmul_lcu,
    matmul_swaptest,
    matmul_sve,
    rank_one_product,
)
from .readout import inner_product_classical, readout_hhl, readout_sve, readout_swaptest
from .statevector import (
    CostLedger,
    PreparedState,
    Result,
    Statevector,
    aligned_distance,
    charge_amplification,
    from_vector,
)
from .stateprep import (
    VectorSpec,
    lcu_combine,
    prep_dyadic,
    prep_hamiltonian,
    prep_signshift,
    prep_sparse,
    synthesize_direct,
)
from .swaptest import complex_inner_product, inner_product_estimate

__version__ = "0.1.0"
