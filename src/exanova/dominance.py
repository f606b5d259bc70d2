"""Checks that no competing numerator beats the restricted-minus-full one.

Given a design X, a matrix H with sp(H) inside sp(X), and any L whose
quadratic form tests the same thing (sp(X'L) = sp(X'H)), five facts
hold: projecting L back into the model recovers sp(H); L lives inside
sp(H) plus the residual space; the noncentrality-governing matrix
X'P_H X - X'P_L X is nonnegative definite; the degrees of freedom
satisfy nu_H = nu_{P_X L} <= nu_L <= nu_H + n - nu_X; and
P_H + (I - P_X) - P_L is symmetric and idempotent.  All are decided
exactly over the rationals.  `verify.DOMINANCE_FACTS` words one check
per fact, for both the randomized suite and `verify dominance --matrices`.
"""

from __future__ import annotations

from dataclasses import dataclass

from .exactlin import RatMatrix, is_nnd, is_projector, projector

__all__ = ["DominanceReport", "check_dominance"]


@dataclass(frozen=True)
class DominanceReport:
    """The five competing-numerator facts as bools, with the df values
    behind the sandwich.  `aux_idempotent`: P_H + (I - P_X) - P_L is
    symmetric and idempotent.

    When the preconditions hold the bools are all True; a False field means
    a bug, not a property of the inputs (violated preconditions raise
    instead of reporting).
    """

    span_recovered: bool
    containment: bool
    nnd_holds: bool
    nu_h: int
    nu_pxl: int
    nu_l: int
    df_slack: int  # n - nu_X
    df_bounds_hold: bool
    aux_idempotent: bool


def check_dominance(x: RatMatrix, h: RatMatrix, l: RatMatrix) -> DominanceReport:
    """Evaluate the five facts for a competing numerator matrix L.

    Preconditions, checked first and raised on failure:
    sp(H) inside sp(X), and sp(X'L) = sp(X'H).
    """
    n = x.nrows
    if h.nrows != n or l.nrows != n:
        raise ValueError("X, H, L must have the same number of rows")
    p_x = projector(x).matrix
    if p_x @ h != h:
        raise ValueError("precondition failed: sp(H) is not contained in sp(X)")
    xt = x.transpose()
    if (xt @ l).colspace != (xt @ h).colspace:
        raise ValueError("precondition failed: sp(X'L) differs from sp(X'H)")

    p_h = projector(h).matrix
    p_l = projector(l).matrix

    pxl = (p_x @ l).colspace
    span_recovered = pxl == h.colspace
    # sp(H) and sp(X)-perp are orthogonal, so the projector onto their sum
    # is the plain sum of projectors; containment iff it fixes L
    enlarged = p_h + (RatMatrix.identity(n) - p_x)
    containment = enlarged @ l == l
    nnd_holds = is_nnd(xt @ p_h @ x - xt @ p_l @ x)
    aux_idempotent = is_projector(enlarged - p_l)

    nu_h = int(p_h.trace())
    nu_pxl = pxl.dim
    nu_l = int(p_l.trace())
    slack = n - int(p_x.trace())
    df_bounds_hold = nu_h == nu_pxl <= nu_l <= nu_h + slack

    return DominanceReport(
        span_recovered=span_recovered,
        containment=containment,
        nnd_holds=nnd_holds,
        nu_h=nu_h,
        nu_pxl=nu_pxl,
        nu_l=nu_l,
        df_slack=slack,
        df_bounds_hold=df_bounds_hold,
        aux_idempotent=aux_idempotent,
    )

