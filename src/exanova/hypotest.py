"""Restricted-vs-full-model hypothesis testing for linear models.

For a model with design matrix X and a linear hypothesis G'beta = 0, the
numerator sum of squares used throughout is the extra SSE incurred by
fitting the restricted model: its projector is P_X - P_XN, where the
columns of N span the orthogonal complement of sp(G).  That quadratic
form tests exactly the estimable part of the hypothesis,
sp(X') intersect sp(G), with no tolerance anywhere: all of this module
is exact rational arithmetic.  Floats appear only in p-values.

The two-factor type 1/2/3 SS take the cell route instead: an
`AnovaPlan` aggregates the response into cell totals once, and every
SS type of that response reads them, with no n x n matrix.  Each SS is
one count-weighted Gram-Schmidt pass over the reduced model's columns
followed by the effect's, so the two fits are nested by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from operator import mul
from typing import Sequence

from . import fdist
from .effects import (
    CellLayout,
    ContrastScheme,
    EffectId,
    all_effects,
    c_block,
    effect_model_matrix,
    incidence,
)
from .exactlin import (
    RatMatrix,
    Subspace,
    projector,
    weighted_basis,
)

__all__ = [
    "AnovaPlan",
    "TestResult",
    "restriction_nullbasis",
    "rmfm_projector",
    "sse",
    "estimable_part",
    "testing_target",
    "type_model_set",
    "type_numerator",
    "type_ss",
    "quad_form",
]


@dataclass
class TestResult:
    """Numerator and denominator sums of squares with their F statistic.

    f_value is defined only when the numerator has positive degrees of
    freedom and the denominator sum of squares is positive; otherwise it
    (and the p-value) is None.  estimable_part is the subspace of the
    cell means that the numerator actually tests.
    """

    ss_num: Fraction
    nu_num: int
    ss_den: Fraction
    nu_den: int
    f_value: Fraction | None
    estimable_part: Subspace
    p_value: float | None = None


def _check_pair(x: RatMatrix, g: RatMatrix) -> None:
    """A design X with a column and a nonzero entry, and a hypothesis
    matrix G with a column and one row per column of X."""
    if x.ncols < 1:
        raise ValueError("design matrix needs at least one column")
    if x.is_zero:
        raise ValueError("design matrix needs at least one nonzero entry")
    if g.ncols < 1:
        raise ValueError("hypothesis matrix needs at least one column")
    if g.nrows != x.ncols:
        raise ValueError(
            f"hypothesis has {g.nrows} coefficient rows, model has {x.ncols} coefficients"
        )


def _int_vector(y: Sequence[Fraction | int | str]) -> tuple[list[int], int]:
    """y as integer numerators over their least common denominator."""
    ys = [v if isinstance(v, (int, Fraction)) else Fraction(v) for v in y]
    den = math.lcm(*(v.denominator for v in ys))
    return [v.numerator * (den // v.denominator) for v in ys], den


def quad_form(y: Sequence[Fraction | int | str], p: RatMatrix) -> Fraction:
    """y' P y as an exact rational, from integer sums: y's numerators
    over its common denominator d and P's over its own, so
    y'Py = sum_i y_i (P y)_i / (den_P d^2)."""
    ys, d = _int_vector(y)
    if p.shape != (len(ys), len(ys)):
        raise ValueError("response length does not match the matrix")
    rows, den = p.int_rows()
    total = sum(yi * sum(map(mul, row, ys)) for yi, row in zip(ys, rows) if yi)
    return Fraction(total, den * d * d)


def restriction_nullbasis(g: RatMatrix) -> RatMatrix:
    """Basis N of the orthogonal complement of sp(G); the restricted model
    {X b : G'b = 0} is then spanned by X N."""
    return g.colspace.complement().basis


def rmfm_projector(x: RatMatrix, g: RatMatrix) -> RatMatrix:
    """Projector of the restricted-minus-full extra SSE: P_X - P_XN."""
    _check_pair(x, g)
    restricted = projector(x @ restriction_nullbasis(g))
    return projector(x).minus(restricted)


def sse(y: Sequence[Fraction | int | str], x: RatMatrix) -> Fraction:
    """Residual sum of squares of y against the column space of x:
    y'y - sum (u'y)^2/(u'u) over the orthogonal basis u of
    `weighted_basis(x)`, with no projector formed.  Summed over the
    integers, with l = lcm(u'u) and y's numerators over its common
    denominator d."""
    ys, d = _int_vector(y)
    if len(ys) != x.nrows:
        raise ValueError("response length does not match the matrix")
    kept = [e for e in weighted_basis(x) if e is not None]
    l = math.lcm(*(uu for _, uu in kept))
    fitted = sum(sum(map(mul, u, ys)) ** 2 * (l // uu) for u, uu in kept)
    return Fraction(sum(map(mul, ys, ys)) * l - fitted, l * d * d)


def estimable_part(x: RatMatrix, g: RatMatrix) -> Subspace:
    """The testable portion of the hypothesis: sp(X') intersect sp(G).

    Proposition 1 says this is also sp(X' P_H) for the numerator
    projector P_H; `verify prop1` checks that identity.
    """
    _check_pair(x, g)
    return x.transpose().colspace.intersect(g.colspace)


def testing_target(m: RatMatrix, k: RatMatrix, p: RatMatrix) -> Subspace:
    """What a numerator SS tests about the cell means, in the model
    whose cell-mean matrix is m: the span of P_m K' P."""
    if k.nrows != p.nrows:
        raise ValueError("incidence rows must match the projector's space")
    if k.ncols != m.nrows:
        raise ValueError("incidence columns must match the cell-mean model rows")
    return (projector(m).matrix @ k.transpose() @ p).colspace


def type_model_set(t: int, effect: EffectId) -> frozenset[EffectId]:
    """Effect set of the model in which a type-t SS removes `effect`:
    type 1 is mean plus the effect, type 2 the additive model, type 3
    the saturated model.  Two-factor naming."""
    if effect.nfactors != 2:
        raise ValueError("type-based SS naming is defined for two-factor layouts")
    if t == 1:
        return frozenset({EffectId((0, 0)), effect})
    if t == 2:
        return frozenset({EffectId((0, 0)), EffectId((1, 0)), EffectId((0, 1))})
    if t == 3:
        return frozenset(all_effects(2))
    raise ValueError("SS type must be 1, 2, or 3")


def type_numerator(
    t: int,
    effect: EffectId,
    layout: CellLayout,
    scheme: ContrastScheme | None = None,
) -> RatMatrix:
    """Numerator projector of the type-t SS for `effect`: the projector
    difference from dropping the effect's columns out of its model."""
    model_set = type_model_set(t, effect)
    if effect not in model_set:
        raise ValueError(f"effect {effect} is not in the type-{t} model")
    k = incidence(layout)
    full = projector(k @ effect_model_matrix(model_set, layout.dims, scheme))
    rest = model_set - {effect}
    if not rest:
        return full.matrix
    return full.minus(projector(k @ effect_model_matrix(rest, layout.dims, scheme)))


class AnovaPlan:
    """What every SS of one layout and response shares, built once: the
    counts D = K'K, the cell totals t = K'y as integers over the
    response's common denominator, and the denominator, the
    saturated-model residual sum(y^2) - sum(t_c^2/n_c) on
    n - (number of nonempty cells) df.  The projector P_m of a report
    model m is built on first use and shared by every SS reported in m."""

    def __init__(self, layout: CellLayout, y: Sequence[Fraction | int | str],
                 scheme: ContrastScheme | None = None):
        if len(y) != layout.n:
            raise ValueError(f"need {layout.n} responses, got {len(y)}")
        ys, den = _int_vector(y)
        cells = iter(ys)
        totals = [sum(islice(cells, nc)) for nc in layout.counts]
        fitted = sum(Fraction(tc * tc, nc) for tc, nc in zip(totals, layout.counts) if nc)
        self.ss_den = (sum(map(mul, ys, ys)) - fitted) / (den * den)
        self.nu_den = layout.n - sum(1 for nc in layout.counts if nc)
        self.totals = totals
        self.den = den
        self.layout = layout
        self.scheme = scheme
        self._report_projectors: dict[frozenset[EffectId], RatMatrix] = {}

    def ss(self, t: int, effect: EffectId, *,
           report_set: frozenset[EffectId] | None = None) -> TestResult:
        """Type-t SS for one effect of a two-factor layout, from one
        D-weighted Gram-Schmidt pass over the columns [M_r | M_e]: the
        reduced model's blocks, then the effect's.  The vectors u kept
        from M_e span what the effect adds to the reduced fit, so the SS
        is the sum of (u't)^2/(u'Du) over them and its df is their number.
        Its testing target sp(P_m D U_e) is sp(P_m D(A_f - A_r)D) for the
        fits A = M(M'DM)^-M' (the u are D-orthogonal with u'Du > 0, so
        the Du are independent), and that equals testing_target(m, K,
        type_numerator(...)) because sp(B K') = sp(B K'K); `report_set`
        picks m (default: the SS's own model)."""
        model_set = type_model_set(t, effect)
        if effect not in model_set:
            raise ValueError(f"effect {effect} is not in the type-{t} model")
        dims, counts = self.layout.dims, self.layout.counts
        rest = sorted(model_set - {effect}, key=EffectId.sort_key)
        blocks = [c_block(e, dims, self.scheme) for e in (*rest, effect)]
        split = sum(b.ncols for b in blocks[:-1])
        kept = [e for e in weighted_basis(RatMatrix.hstack(*blocks), counts)[split:] if e is not None]
        ss_num = sum((Fraction(sum(map(mul, u, self.totals)) ** 2, uu) for u, uu in kept),
                     Fraction(0)) / (self.den * self.den)
        nu_num = len(kept)
        f_value: Fraction | None = None
        p: float | None = None
        if nu_num > 0 and self.nu_den > 0 and self.ss_den > 0:
            f_value = (ss_num / nu_num) / (self.ss_den / self.nu_den)
            p = fdist.p_value_from(float(f_value), nu_num, self.nu_den)
        report = report_set if report_set is not None else model_set
        if report not in self._report_projectors:
            m = effect_model_matrix(report, dims, self.scheme)
            self._report_projectors[report] = projector(m).matrix
        du = RatMatrix([[nc * u[i] for u, _ in kept] for i, nc in enumerate(counts)])
        target = (self._report_projectors[report] @ du).colspace
        return TestResult(
            ss_num=ss_num,
            nu_num=nu_num,
            ss_den=self.ss_den,
            nu_den=self.nu_den,
            f_value=f_value,
            estimable_part=target,
            p_value=p,
        )


def type_ss(
    t: int,
    effect: EffectId,
    layout: CellLayout,
    y: Sequence[Fraction | int | str],
    scheme: ContrastScheme | None = None,
    *,
    report_set: frozenset[EffectId] | None = None,
) -> TestResult:
    """One type-t sum of squares: `AnovaPlan.ss` on a plan of its own.
    A caller wanting several SS of one response builds the plan once."""
    return AnovaPlan(layout, y, scheme).ss(t, effect, report_set=report_set)

