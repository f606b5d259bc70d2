"""Seeded verification suites behind the `verify` command.

Each suite returns a list of Check records; everything except the float
distribution checks is decided by exact rational identities, so a
failure is a genuine defect, never a tolerance artifact.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction

from . import fdist
from .dominance import check_dominance
from .effects import (
    ContrastScheme,
    EffectId,
    all_effects,
    c_block,
    effect_model_matrix,
    h_projector,
    helmert_contrast,
    incidence,
)
from .exactlin import (
    RatMatrix,
    Subspace,
    column_vector,
    is_projector,
    projector,
    solve_linear,
)
from .hypotest import (
    estimable_part,
    restriction_nullbasis,
    rmfm_projector,
    sse,
    testing_target,
    type_model_set,
    type_numerator,
    quad_form,
)
from .reference import LAYOUT_NAMES, TARGET_PAIRS, builtin_layout, target_span

__all__ = [
    "Check",
    "verify_table1",
    "verify_prop1",
    "verify_prop2",
    "verify_prop3",
    "verify_fdist",
    "random_int_matrix",
    "random_prop1_instance",
    "random_prop2_instance",
    "difference_scheme",
    "DOMINANCE_FACTS",
    "DEFAULT_SEED",
    "PROP3_DEFAULT_DIMS",
]

DEFAULT_SEED = 20240806
PROP3_DEFAULT_DIMS: tuple[tuple[int, ...], ...] = (
    (2,),
    (3,),
    (4,),
    (2, 3),
    (3, 3),
    (4, 4),
    (2, 2, 2),
    (4, 4, 3),
)


@dataclass(frozen=True)
class Check:
    name: str
    passed: bool
    detail: str = ""

    def line(self) -> str:
        mark = "PASS" if self.passed else "FAIL"
        suffix = f"  ({self.detail})" if self.detail else ""
        return f"{mark}  {self.name}{suffix}"


def _checks(names: list[tuple[str, str]], first: dict[str, str]) -> list[Check]:
    """One Check per (key, name), failed with its own first failure as the
    detail when `first` holds one for that key."""
    return [Check(name, key not in first, first.get(key, "")) for key, name in names]


# -- shared random instance generators -----------------------------------


def random_int_matrix(
    rng: random.Random, nrows: int, ncols: int, lo: int = -3, hi: int = 3,
    max_rank: int | None = None,
) -> RatMatrix:
    if max_rank is None:
        return RatMatrix(
            [[rng.randint(lo, hi) for _ in range(ncols)] for _ in range(nrows)], 1
        )
    r = max(1, max_rank)
    a = RatMatrix([[rng.randint(lo, hi) for _ in range(r)] for _ in range(nrows)], 1)
    b = RatMatrix([[rng.randint(lo, hi) for _ in range(ncols)] for _ in range(r)], 1)
    return a @ b


def random_prop1_instance(rng: random.Random) -> tuple[RatMatrix, RatMatrix]:
    """Random (X, G): mixed ranks, G sometimes zero, sometimes with columns
    drawn from the row space of X, sometimes plainly random."""
    n = rng.randint(1, 12)
    k = rng.randint(1, 7)
    while True:
        x = random_int_matrix(rng, n, k, max_rank=rng.choice([None, None, 1, 2, 3]))
        if not x.is_zero:
            break
    g_cols = rng.randint(1, 4)
    mode = rng.randrange(8)
    if mode == 0:
        g = RatMatrix.zeros(k, g_cols)
    elif mode in (1, 2):
        # columns inside sp(X'): X'v for random v
        cols = []
        for _ in range(g_cols):
            v = column_vector([rng.randint(-3, 3) for _ in range(n)])
            cols.append(x.transpose() @ v)
        g = RatMatrix.hstack(*cols)
    else:
        g = random_int_matrix(rng, k, g_cols, max_rank=rng.choice([None, 1, 2]))
    return x, g


def random_prop2_instance(
    rng: random.Random,
) -> tuple[RatMatrix, RatMatrix, RatMatrix]:
    """Random (X, H, L) with sp(H) in sp(X) and sp(X'L) = sp(X'H) by
    construction: L = H A + W B, A nonsingular, W spanning sp(X)-perp."""
    n = rng.randint(2, 10)
    while True:
        x = random_int_matrix(rng, n, rng.randint(1, n), max_rank=rng.choice([None, 1, 2]))
        if not x.is_zero:
            break
    hc = rng.randint(1, 3)
    h = x @ random_int_matrix(rng, x.ncols, hc)
    while True:
        a = random_int_matrix(rng, hc, hc)
        if a.rank() == hc:
            break
    w = x.colspace.complement().basis
    if w.ncols:
        l = h @ a + w @ random_int_matrix(rng, w.ncols, hc)
    else:
        l = h @ a
    return x, h, l


def difference_scheme(dims: tuple[int, ...]) -> ContrastScheme:
    """A second valid contrast family (level 1 minus each later level),
    used to check that spans are scheme-independent."""
    mats = []
    for m in dims:
        num = [[0] * (m - 1) for _ in range(m)]
        for j in range(m - 1):
            num[0][j] = 1
            num[j + 1][j] = -1
        mats.append(RatMatrix(num, 1))
    return ContrastScheme.user(mats)


# -- suite: published targets ---------------------------------------------


def verify_table1() -> list[Check]:
    """Recompute every stored testing-target span for the three built-in
    layouts and compare, exactly, against the reference matrices."""
    checks: list[Check] = []
    a_effect = EffectId((1, 0))
    c10_span = helmert_contrast(3).kron(RatMatrix.ones(3)).colspace
    second_diff = RatMatrix.from_rows([[0], [1], [-1]]).kron(RatMatrix.ones(3)).colspace
    targets: dict[tuple[str, int, int], Subspace] = {}
    for lname in LAYOUT_NAMES:
        layout = builtin_layout(lname)
        k = incidence(layout)
        nums = {t: type_numerator(t, a_effect, layout) for t in (1, 2, 3)}
        models = {
            m: effect_model_matrix(type_model_set(m, a_effect), layout.dims)
            for m in (1, 2, 3)
        }
        for t, m in TARGET_PAIRS + ((1, 1), (2, 2), (3, 3)):
            targets[lname, t, m] = testing_target(models[m], k, nums[t])
        for t, m in TARGET_PAIRS:
            got = targets[lname, t, m]
            checks.append(Check(f"table1 {lname} target({t},{m}) matches stored span",
                                got == target_span(lname, t, m), f"dim {got.dim}"))
        for t in (1, 2, 3):
            if lname == "n2" and t == 3:
                want, label = second_diff, "span((0,1,-1) x ones)"
            else:
                want, label = c10_span, "span(C10)"
            checks.append(Check(f"table1 {lname} own-model target({t},{t}) equals {label}",
                                targets[lname, t, t] == want))
    h10_span = h_projector(a_effect, (3, 3)).colspace
    checks.append(Check("table1 n1 saturated-model target of the type-1 SS misses all A main effects",
                        targets["n1", 1, 3].intersect(h10_span).dim == 0))
    return checks


# -- suite: restricted-minus-full tests the estimable part ----------------


def _independent_h(x: RatMatrix, estimable: Subspace) -> RatMatrix:
    """Build H with sp(H) in sp(X) and X'H exactly the estimable basis E,
    as X W for the solution W of X'X W = E (estimable columns are always
    in sp(X'X))."""
    return x @ solve_linear(x.transpose() @ x, estimable.basis)


def verify_prop1(seed: int = DEFAULT_SEED, trials: int = 500) -> list[Check]:
    """Randomized identity suite for the extra-SSE numerator projector."""
    rng = random.Random(seed)
    first: dict[str, str] = {}
    for trial in range(trials):
        x, g = random_prop1_instance(rng)
        p_h = rmfm_projector(x, g)
        if not is_projector(p_h):
            first.setdefault("shape", f"trial {trial}: projector not idempotent")
        left = (x.transpose() @ p_h).colspace
        right = estimable_part(x, g)
        if left != right:
            first.setdefault("forward", f"trial {trial}: tested span mismatch")
        h = _independent_h(x, right)
        if projector(h).matrix != p_h:
            first.setdefault("reverse", f"trial {trial}: independent H gives a different projector")
        y = [
            Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(x.nrows)
        ]
        restricted = x @ restriction_nullbasis(g)
        lhs = quad_form(y, p_h)
        if lhs != sse(y, restricted) - sse(y, x) or lhs < 0:
            first.setdefault("ss", f"trial {trial}: extra-SSE routes disagree")
    return _checks([
        ("shape", f"prop1 numerator projector symmetric idempotent ({trials} trials)"),
        ("forward", f"prop1 tested span equals estimable part ({trials} trials)"),
        ("reverse", f"prop1 independently built H recovers the same projector ({trials} trials)"),
        ("ss", f"prop1 quadratic form equals restricted-minus-full SSE ({trials} trials)"),
    ], first)


# -- suite: no competing numerator is better -------------------------------

# (DominanceReport field, check wording, first-failure wording) for each of
# the report's five facts; `verify dominance --matrices` reads it too
DOMINANCE_FACTS: tuple[tuple[str, str, str], ...] = (
    ("span_recovered", "projected competitor recovers sp(H)", "span not recovered"),
    ("containment", "competitor contained in sp(H) + residual space", "containment fails"),
    ("nnd_holds", "noncentrality difference is nonnegative definite", "ncp difference not nnd"),
    ("df_bounds_hold", "df sandwich nu_H <= nu_L <= nu_H + n - nu_X", "df sandwich fails"),
    ("aux_idempotent", "auxiliary projector symmetric idempotent", "auxiliary matrix not idempotent"),
)


def verify_prop2(seed: int = DEFAULT_SEED, trials: int = 200) -> list[Check]:
    """Randomized dominance suite over constructed (X, H, L) triples: one
    check per fact in DOMINANCE_FACTS, over every trial."""
    rng = random.Random(seed)
    first: dict[str, str] = {}
    for trial in range(trials):
        rpt = check_dominance(*random_prop2_instance(rng))
        for field, _, failure in DOMINANCE_FACTS:
            if not getattr(rpt, field):
                first.setdefault(field, f"trial {trial}: {failure}")
    return _checks(
        [(field, f"prop2 {wording} ({trials} trials)") for field, wording, _ in DOMINANCE_FACTS],
        first,
    )


# -- suite: effect columns may simply be dropped ---------------------------


def verify_prop3(
    dims_list: tuple[tuple[int, ...], ...] = PROP3_DEFAULT_DIMS,
) -> list[Check]:
    """For every effect subset: the contrast blocks span the summed effect
    projector's range, and dropping one effect's block lands exactly on
    the intersection with that effect's orthogonal complement.  Also
    checks that a second contrast family spans identically."""
    return [check for dims in dims_list for check in _prop3_checks(dims)]


def _prop3_checks(dims: tuple[int, ...]) -> list[Check]:
    """The three prop3 checks for one layout, as one walk over the effect
    subsets by size.  Each size's table maps a subset (a combination tuple)
    to its block span, its second-family span and its summed h_projector,
    each built from the subset's prefix in the table one size down; the
    removal check reads its expected span from that table too.  Only two
    tables are alive at a time, and both are freed before the next layout
    is built."""
    ambient = math.prod(dims)
    effs = all_effects(len(dims))
    blocks = {e: c_block(e, dims) for e in effs}
    h_mats = {e: h_projector(e, dims) for e in effs}
    comp_h = {e: h_mats[e].colspace.complement() for e in effs}
    alt = difference_scheme(dims)
    alt_blocks = {e: c_block(e, dims, alt) for e in effs}
    first: dict[str, str] = {}
    zero = Subspace.zero(ambient)
    prev = {(): (zero, zero, RatMatrix.zeros(ambient, ambient))}
    for r in range(1, len(effs) + 1):
        cur: dict[tuple[EffectId, ...], tuple[Subspace, Subspace, RatMatrix]] = {}
        for combo in itertools.combinations(effs, r):
            span, alt_span, h_sum = prev[combo[:-1]]
            last = combo[-1]
            span = RatMatrix.hstack(span.basis, blocks[last]).colspace
            alt_span = RatMatrix.hstack(alt_span.basis, alt_blocks[last]).colspace
            h_sum = h_sum + h_mats[last]
            cur[combo] = span, alt_span, h_sum
            where = f"subset {{{','.join(map(str, combo))}}}"
            if span != h_sum.colspace:
                first.setdefault("span", f"span mismatch at {where}")
            if alt_span != span:
                first.setdefault("scheme", f"scheme dependence at {where}")
            for star in combo:
                want = prev[tuple(e for e in combo if e != star)][0]
                if span.intersect(comp_h[star]) != want:
                    first.setdefault("removal", f"removal mismatch at {where} minus {star}")
        prev = cur
    label = "x".join(map(str, dims))
    nsubsets = 2 ** len(effs) - 1
    return _checks([
        ("span", f"prop3 dims {label}: blocks span the summed projector ({nsubsets} subsets)"),
        ("removal", f"prop3 dims {label}: dropping a block hits the complement intersection"),
        ("scheme", f"prop3 dims {label}: second contrast family spans identically"),
    ], first)


# -- suite: float distribution sanity --------------------------------------


def verify_fdist() -> list[Check]:
    """Deterministic battery for the F distribution code: exact symmetry
    and reduction facts, the Markov bound on the cdf at twice the mean up
    to noncentrality 4000, quantile round trips, and power monotonicity
    over one (alpha, nu1, nu2, ncp) grid, walked once per axis: increasing
    in noncentrality and denominator df, decreasing in numerator df."""
    checks: list[Check] = []

    sym_ok = all(abs(fdist.f_cdf(1.0, nu, nu) - 0.5) <= 1e-12 for nu in (1, 2, 5, 10, 40))
    checks.append(Check("fdist central cdf at 1 with equal dfs is 1/2", sym_ok))

    red_ok = all(
        fdist.f_cdf(x, n1, n2, 0.0) == fdist.f_cdf(x, n1, n2)
        for x in (0.3, 1.0, 2.7)
        for n1, n2 in ((1, 1), (2, 10), (6, 3))
    )
    checks.append(Check("fdist zero noncentrality reduces exactly to the central cdf", red_ok))

    # Markov's inequality gives P(F >= 2 E[F]) <= 1/2 for every F
    # distribution, so this needs no oracle; the grid reaches ncp at which
    # the Poisson weight exp(-ncp/2) of k = 0 underflows
    markov_ok = all(
        fdist.f_cdf(2.0 * (n2 / (n2 - 2.0)) * (n1 + d) / n1, n1, n2, d) >= 0.5
        for n1 in (1, 2, 4)
        for n2 in (20, 1000)
        for d in (0.0, 2.0, 200.0, 1000.0, 1460.0, 1600.0, 4000.0)
    )
    checks.append(Check("fdist cdf at twice the mean is at least 1/2 (Markov)", markov_ok))

    rt_ok = True
    for alpha in (0.01, 0.05, 0.5, 0.95):
        for n1, n2 in ((1, 1), (2, 10), (5, 5), (7, 3)):
            q = fdist.f_quantile(alpha, n1, n2)
            if abs(fdist.f_cdf(q, n1, n2) - (1.0 - alpha)) > 1e-10:
                rt_ok = False
    checks.append(Check("fdist quantile/cdf round trip within 1e-10", rt_ok))

    size_ok = all(
        abs(fdist.power(a, n1, n2, 0.0) - a) <= 1e-10
        for a in (0.01, 0.05, 0.1)
        for n1, n2 in ((2, 8), (4, 16))
    )
    checks.append(Check("fdist power at zero noncentrality equals the level", size_ok))

    # (alpha, nu1, nu2, ncp) grid
    grid = ((0.01, 0.05, 0.1, 0.25), (1, 2, 3, 4, 5, 6), (4, 8, 16, 32),
            (0.0, 0.5, 1.0, 2.0, 4.0, 8.0))
    pw = {point: fdist.power(*point) for point in itertools.product(*grid)}
    slack = 1e-10

    def monotone(axis: int, sign: int) -> bool:
        """Power moves by `sign` between neighbours along one axis: by more
        than `slack` where the lower point's ncp is positive, by no less
        than -slack where it is zero."""
        step = dict(zip(grid[axis], grid[axis][1:]))
        for lo in pw:
            if lo[axis] in step:
                hi = lo[:axis] + (step[lo[axis]],) + lo[axis + 1:]
                diff = sign * (pw[hi] - pw[lo])
                if not (diff > slack if lo[3] > 0 else diff >= -slack):
                    return False
        return True

    checks.append(Check("fdist power nondecreasing in noncentrality (strict when positive)", monotone(3, 1)))
    checks.append(Check("fdist power increasing in denominator df at positive noncentrality", monotone(2, 1)))
    checks.append(Check("fdist power decreasing in numerator df at positive noncentrality", monotone(1, -1)))
    return checks
