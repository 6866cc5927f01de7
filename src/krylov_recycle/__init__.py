"""Sparse iterative solvers with deflated restarting and subspace recycling.

GMRES-DR / FGMRES-DR, GCRO-DR / FGCRO-DR for sequences of linear systems
with converging right-hand sides, scalar ILU(k) preconditioning, and a
partitioned linear block Gauss-Seidel driver for two-field coupled systems.
"""

from .coupled import (
    AitkenRelaxation,
    CoupledProblem,
    CouplingHistory,
    PartitionConfig,
    SolverSpec,
    gen_coupled_problem,
    lbgs_solve,
    lbgs_spectral_radius,
    monolithic_oracle,
    structural_response,
    structural_update,
)
from .errors import KrylovError
from .gcro import (
    RecycleSpace,
    RecyclingSolver,
    arnoldi_projected,
    fgcrodr_solve,
    flexible_strategy_b_pairs,
    gcro_harmonic_ritz,
    gcro_lsq_blockwise,
    gcrodr_solve,
    warm_start,
)
from .gmres import (
    ArnoldiState,
    fgmres_cycle,
    fgmresdr_solve,
    gmres_solve,
    gmresdr_solve,
    harmonic_ritz_standard,
    harmonic_ritz_strategy_a,
)
from .operators import (
    IdentityPreconditioner,
    IluFactorization,
    IluPreconditioner,
    InnerGmresPreconditioner,
    JacobiPreconditioner,
    LinearOperator,
    MatvecCounter,
    SparseMatrix,
    as_operator,
    build_preconditioner,
    gen_convection_diffusion,
    ilu_factor,
    read_matrix_market,
    read_rhs,
    sparse_lu,
    write_matrix_market,
    write_rhs,
)
from .records import ConvergenceRecord, SolveReport
from .smallalg import (
    EigenPairSet,
    SubspaceDistance,
    grassmann_distance,
    hessenberg_lsq,
    principal_angles,
    reduced_qr,
    small_generalized_eig,
    small_standard_eig,
)

__version__ = "0.1.0"
