"""Exact-arithmetic linear models for crossed ANOVA layouts.

The numerator sum of squares for any linear hypothesis is the extra SSE
from fitting the restricted model; it tests exactly the estimable part
of the hypothesis, and no competing numerator does better.  Everything
up to p-values is exact rational arithmetic.

The general hypothesis route takes the paper's design matrix X and
hypothesis matrix G as plain `RatMatrix` arguments: `rmfm_projector(x, g)`
and `estimable_part(x, g)`.  The rest of the observation-space oracle
(`effects.incidence`, `hypotest.type_numerator`,
`hypotest.testing_target`) is not exported here: `type_ss` works in cell
space, and the oracle serves `verify` and the tests from its own modules.
"""

from .dominance import DominanceReport, check_dominance
from .effects import (
    CellLayout,
    ContrastScheme,
    EffectId,
    all_effects,
    c_block,
    effect_model_matrix,
    h_projector,
    s_matrix,
    u_matrix,
)
from .exactlin import (
    RatMatrix,
    Subspace,
    column_vector,
    is_nnd,
    is_projector,
    primitive_columns,
    projector,
    solve_linear,
)
from .fdist import f_cdf, f_quantile, power
from .hypotest import (
    TestResult,
    estimable_part,
    restriction_nullbasis,
    rmfm_projector,
    sse,
    type_ss,
)
from .reference import builtin_layout, target_span

__version__ = "0.1.0"

__all__ = [
    "RatMatrix",
    "Subspace",
    "projector",
    "is_projector",
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
    "c_block",
    "effect_model_matrix",
    "TestResult",
    "restriction_nullbasis",
    "rmfm_projector",
    "sse",
    "estimable_part",
    "type_ss",
    "DominanceReport",
    "check_dominance",
    "f_cdf",
    "f_quantile",
    "power",
    "builtin_layout",
    "target_span",
    "__version__",
]
