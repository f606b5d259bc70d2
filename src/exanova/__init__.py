"""Exact-arithmetic linear models for crossed ANOVA layouts.

The numerator sum of squares for any linear hypothesis is the extra SSE
from fitting the restricted model; it tests exactly the estimable part
of the hypothesis, and no competing numerator does better.  Everything
up to p-values is exact rational arithmetic.

The observation-space oracle (`effects.incidence`, `effects.model_matrix`,
`hypotest.type_numerator`, `hypotest.testing_target`) is not exported
here: `type_ss` works in cell space, and the oracle serves `verify` and
the tests from its own modules.
"""

from .dominance import DominanceReport, check_dominance
from .effects import (
    CellLayout,
    ContrastScheme,
    EffectId,
    all_effects,
    c_block,
    contrast_matrix,
    effect_model_matrix,
    h_projector,
    s_matrix,
    u_matrix,
)
from .exactlin import (
    Projector,
    RatMatrix,
    Subspace,
    column_vector,
    is_nnd,
    primitive_columns,
    projector,
    solve_linear,
)
from .fdist import FParams, f_cdf, f_quantile, power
from .hypotest import (
    HypothesisSpec,
    LinearModel,
    ParamPoint,
    TestResult,
    adjust_rhs,
    estimable_part,
    f_statistic,
    ncp,
    restriction_nullbasis,
    rmfm_projector,
    rmfm_ss,
    sse,
    type_ss,
)
from .reference import builtin_layout, target_span

__version__ = "0.1.0"

__all__ = [
    "RatMatrix",
    "Subspace",
    "Projector",
    "projector",
    "is_nnd",
    "solve_linear",
    "primitive_columns",
    "column_vector",
    "EffectId",
    "all_effects",
    "ContrastScheme",
    "CellLayout",
    "u_matrix",
    "s_matrix",
    "h_projector",
    "contrast_matrix",
    "c_block",
    "effect_model_matrix",
    "LinearModel",
    "HypothesisSpec",
    "ParamPoint",
    "TestResult",
    "restriction_nullbasis",
    "rmfm_projector",
    "rmfm_ss",
    "sse",
    "estimable_part",
    "type_ss",
    "ncp",
    "f_statistic",
    "adjust_rhs",
    "DominanceReport",
    "check_dominance",
    "FParams",
    "f_cdf",
    "f_quantile",
    "power",
    "builtin_layout",
    "target_span",
    "__version__",
]
