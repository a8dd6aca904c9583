"""Exact statevector simulation of quantum matrix-multiplication pipelines,
entrywise readout, and amplitude-encoding state preparation, with every run
checked against closed-form error budgets and a cost ledger standing in for
oracle-query run time."""

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
    PipelineResult,
    SVEOperators,
    matmul_hhl,
    matmul_lcu,
    matmul_swaptest,
    matmul_sve,
    rank_one_product,
    sve_transform,
)
from .qpe import (
    grover_rotation,
    invert_phase_estimate,
    phase_estimate,
    tag_even_function,
)
from .readout import ReadoutReport, inner_product_classical, readout_hhl, readout_sve, readout_swaptest
from .statevector import (
    CostLedger,
    PreparedState,
    Statevector,
    aligned_distance,
    apply_unitary,
    basis_state,
    charge_amplification,
    fidelity,
    from_vector,
    marginal_probabilities,
    postselect,
    tensor,
)
from .stateprep import (
    PrepReport,
    VectorSpec,
    lcu_combine,
    prep_dyadic,
    prep_hamiltonian,
    prep_signshift,
    prep_sparse,
    synthesize_direct,
)
from .swaptest import (
    coefficient_tag,
    complex_inner_product,
    generalized_swap_test,
    inner_product_estimate,
)

__version__ = "0.1.0"
