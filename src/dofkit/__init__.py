"""Exact degrees-of-freedom analysis for K-user vector interference
channels, with a Monte Carlo cross-check and a self-similar input
constructor (uniform grid codewords; its normalized DoF falls like 1/k in
the resolution exponent k, see README).  Exact results are Fractions,
computed on integers over a common denominator inside."""

from .construct import (
    ConstructionParams,
    clear_to_integers,
    constructed_dof,
    fold_codewords,
    grid_build,
    lift_selfsimilar,
    minkowski_check,
    uniform_codewords,
)
from .dimension import (
    DimValue,
    convolve_linear,
    dim_mixture_sum,
    dim_selfsimilar,
    dim_subspace_sum,
    entropy_finite,
    minmax_dist,
    open_set_check,
)
from .engine import (
    DofReport,
    FeasibilityCert,
    MimoConfig,
    ParallelDecomposition,
    ReceiverTerms,
    StandardForm,
    StrictnessClaim,
    complex_stack,
    compose_independent,
    cyclic_delay_channel,
    dof_eval,
    is_standard_form,
    mimo_check,
    parallel_extract,
    rational_strictness,
    scale_transform,
    search_best_subspace,
    standardize_3user,
    upper_bound,
)
from .errors import AnalysisError, DofkitError, InputError
from .estimator import (
    DimEstimate,
    EstimatorConfig,
    estimate_dim,
    estimate_dof,
    quantized_entropy,
    sample_scheme,
)
from .linalg import (
    ChannelMatrix,
    DerangementCert,
    RatMatrix,
    Subspace,
    find_derangement,
    mat_det,
    mat_rank,
    projected_dim,
)
from .schemes import (
    FiniteDist,
    MixtureScheme,
    SelfSimilarScheme,
    SubspaceScheme,
    validate_scheme,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
