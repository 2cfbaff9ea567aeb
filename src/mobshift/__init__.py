"""Finite-truncation certification toolkit for the unitary representation
families of the disc-automorphism cover group and the homogeneous weighted
shift operators attached to them."""

from .errors import (
    ClassificationError,
    EmptyInteriorError,
    GridSizeError,
    NotSkewAdjointError,
    NumericsError,
    ParameterError,
    ParameterRangeError,
    PoleError,
    RecoveryError,
    SingularMatrixError,
    WindowMismatchError,
)
from .homogeneity import (
    DefectReport,
    homogeneity_defect,
    infinitesimal_reports,
    kappa_commutator,
    kappa_flow_derivative,
    mobius_of_operator,
    reducible_lambda_check,
)
from .inductive import (
    AminusOneFit,
    classify_a_minus1,
    isotypic_component,
    ladder_cancellation,
    normalizer_defect,
    sharp_isotypic_flip,
    te_tf_coefficients,
)
from .mobius import GroupPath, MobiusElement, flow, path_to_mobius, star_path
from .numkernel import (
    BILATERAL,
    MONOMIAL,
    ORTHONORMAL,
    UNILATERAL,
    OperatorMatrix,
    TruncationWindow,
    interior_norm,
    mat_exp,
    solve,
)
from .repn import (
    ANTIHOLO,
    COMPLEMENTARY,
    HOLO,
    PRINCIPAL,
    REDUCIBLE,
    Realization,
    RepnParams,
    circle_rep_matrix,
    classify_series,
    default_grid_size,
    generator_matrix,
    gram,
    reducible_generator_matrix,
    rep_matrix,
    to_orthonormal,
    unitarity_defect,
)
from .shifts import (
    canonical_shift,
    reducible_shift,
    shift_matrix,
    weight_sequence,
)
from .specialfn import NormSequence, norm_ratio, norm_sq_sequence

__version__ = "0.1.0"
