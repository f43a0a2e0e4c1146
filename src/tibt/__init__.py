"""Balanced truncation and adaptive tangential-interpolation model reduction.

The package provides classical square-root balanced truncation, truncated
controllable/observable realizations, interpolatory reduction through
Sylvester equations, a two-sided fixed-point iteration for H2-optimal
reduction, and two adaptive drivers: a low-rank Lyapunov solver and a
low-rank balanced-truncation algorithm, both of which pick their
interpolation data and rank automatically.
"""

from .alrs import AlrsConfig, AlrsResult, LowRankGramian, alrs_lyap
from .atia import AtiaConfig, AtiaResult, atia_bt, atia_hsv_compare
from .benchmarks import (
    heat_rod,
    illustrative4,
    load_matrix_market,
    random_stable,
    save_matrix_market,
)
from .errors import (
    DenseInfeasibleError,
    DimensionMismatchError,
    InterimUnstableError,
    NonHurwitzError,
    NotSymmetricError,
    ParseError,
    RepeatedPolesError,
    ShiftSolveFailure,
    SingularProjectionError,
    SingularSeparationError,
    SingularValueTieError,
    SpectrumOverlapError,
    TibtError,
)
from .linalg import (
    DenseOperator,
    LinearOperator,
    TridiagonalOperator,
    ordered_svd,
    orthonormalize,
    psd_factor,
    solve_lyapunov_dense,
    solve_lyapunov_pair,
    solve_sylvester_skinny,
)
from .metrics import FreqGrid, gramian_rel_error, hinf_rel_error, pq_rel_error, sigma_sweep
from .reducers import (
    InterpolationData,
    ReducedModel,
    bt_from_factors,
    bt_square_root,
    h2_optimality_residuals,
    project,
    tangential_interpolate,
    tcr,
    tor,
    tsia,
    two_step_lowrank_bt,
)
from .system import (
    GramianPair,
    PoleResidue,
    StateSpaceModel,
    eval_transfer,
    eval_transfer_derivative,
    gramians_dense,
    hankel_singular_values,
    is_hurwitz,
    pole_residue,
)

__version__ = "0.1.0"
