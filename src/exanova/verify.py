"""Seeded verification suites behind the `verify` command.

Each suite returns a list of Check records; everything except the float
distribution checks is decided by exact rational identities, so a
failure is a genuine defect, never a tolerance artifact.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction

from . import fdist
from .dominance import auxiliary_projector, check_dominance
from .effects import (
    CellLayout,
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
    Projector,
    RatMatrix,
    Subspace,
    colspace,
    column_vector,
    complement,
    intersect,
    projector,
    solve_linear,
)
from .hypotest import (
    HypothesisSpec,
    LinearModel,
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
    w = complement(colspace(x)).basis
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
    c10_span = colspace(helmert_contrast(3).kron(RatMatrix.ones(3)))
    second_diff = colspace(
        RatMatrix.from_rows([[0], [1], [-1]]).kron(RatMatrix.ones(3))
    )
    for lname in LAYOUT_NAMES:
        layout = builtin_layout(lname)
        k = incidence(layout)
        nums = {t: type_numerator(t, a_effect, layout) for t in (1, 2, 3)}
        models = {
            m: effect_model_matrix(type_model_set(m, a_effect), layout.dims)
            for m in (1, 2, 3)
        }
        for t, m in TARGET_PAIRS:
            got = testing_target(models[m], k, nums[t])
            want = target_span(lname, t, m)
            checks.append(
                Check(
                    f"table1 {lname} target({t},{m}) matches stored span",
                    got == want,
                    f"dim {got.dim}",
                )
            )
        for t in (1, 2, 3):
            gtt = testing_target(models[t], k, nums[t])
            if lname == "n2" and t == 3:
                want, label = second_diff, "span((0,1,-1) x ones)"
            else:
                want, label = c10_span, "span(C10)"
            checks.append(
                Check(
                    f"table1 {lname} own-model target({t},{t}) equals {label}",
                    gtt == want,
                )
            )
    layout = builtin_layout("n1")
    k = incidence(layout)
    g13 = testing_target(
        effect_model_matrix(all_effects(2), layout.dims),
        k,
        type_numerator(1, EffectId((1, 0)), layout),
    )
    h10_span = colspace(h_projector(EffectId((1, 0)), (3, 3)).matrix)
    checks.append(
        Check(
            "table1 n1 saturated-model target of the type-1 SS misses all A main effects",
            intersect(g13, h10_span).dim == 0,
        )
    )
    return checks


# -- suite: restricted-minus-full tests the estimable part ----------------


def _independent_h(x: RatMatrix, estimable: Subspace) -> RatMatrix:
    """Build H with sp(H) in sp(X) and X'H exactly the estimable basis, by
    solving X'X w = e for each basis column e."""
    gram = x.transpose() @ x
    cols = []
    for j in range(estimable.dim):
        e = estimable.basis.column(j)
        w = solve_linear(gram, e)
        assert w is not None, "estimable columns are always in sp(X'X)"
        cols.append(x @ column_vector(w))
    if not cols:
        return RatMatrix.zeros(x.nrows, 0)
    return RatMatrix.hstack(*cols)


def verify_prop1(seed: int = DEFAULT_SEED, trials: int = 500) -> list[Check]:
    """Randomized identity suite for the extra-SSE numerator projector."""
    rng = random.Random(seed)
    forward_ok = reverse_ok = ss_ok = shape_ok = True
    first_fail = ""
    for trial in range(trials):
        x, g = random_prop1_instance(rng)
        model = LinearModel(x)
        spec = HypothesisSpec(g)
        p_h = rmfm_projector(model, spec)
        if not (p_h.matrix.is_symmetric and p_h.matrix @ p_h.matrix == p_h.matrix):
            shape_ok = False
            first_fail = first_fail or f"trial {trial}: projector not idempotent"
        xt = x.transpose()
        left = colspace(xt @ p_h.matrix)
        right = intersect(colspace(xt), colspace(g))
        if left != right:
            forward_ok = False
            first_fail = first_fail or f"trial {trial}: tested span mismatch"
        h = _independent_h(x, right)
        if projector(h) != p_h:
            reverse_ok = False
            first_fail = first_fail or f"trial {trial}: independent H gives a different projector"
        y = [
            Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(model.n)
        ]
        restricted = x @ restriction_nullbasis(spec)
        lhs = quad_form(y, p_h.matrix)
        if lhs != sse(y, restricted) - sse(y, x) or lhs < 0:
            ss_ok = False
            first_fail = first_fail or f"trial {trial}: extra-SSE routes disagree"
    return [
        Check(f"prop1 numerator projector symmetric idempotent ({trials} trials)", shape_ok, first_fail if not shape_ok else ""),
        Check(f"prop1 tested span equals estimable part ({trials} trials)", forward_ok, first_fail if not forward_ok else ""),
        Check(f"prop1 independently built H recovers the same projector ({trials} trials)", reverse_ok, first_fail if not reverse_ok else ""),
        Check(f"prop1 quadratic form equals restricted-minus-full SSE ({trials} trials)", ss_ok, first_fail if not ss_ok else ""),
    ]


# -- suite: no competing numerator is better -------------------------------


def verify_prop2(seed: int = DEFAULT_SEED, trials: int = 200) -> list[Check]:
    """Randomized dominance suite over constructed (X, H, L) triples."""
    rng = random.Random(seed)
    span_ok = contain_ok = nnd_ok = df_ok = aux_ok = True
    first_fail = ""
    for trial in range(trials):
        x, h, l = random_prop2_instance(rng)
        rpt = check_dominance(x, h, l)
        if not rpt.span_recovered:
            span_ok = False
            first_fail = first_fail or f"trial {trial}: span not recovered"
        if not rpt.containment:
            contain_ok = False
            first_fail = first_fail or f"trial {trial}: containment fails"
        if not rpt.nnd_holds:
            nnd_ok = False
            first_fail = first_fail or f"trial {trial}: ncp difference not nnd"
        if not rpt.df_bounds_hold:
            df_ok = False
            first_fail = first_fail or f"trial {trial}: df sandwich fails"
        q = auxiliary_projector(x, h, l)
        if not (q.is_symmetric and q @ q == q):
            aux_ok = False
            first_fail = first_fail or f"trial {trial}: auxiliary matrix not idempotent"
    return [
        Check(f"prop2 projected competitor recovers sp(H) ({trials} trials)", span_ok, first_fail if not span_ok else ""),
        Check(f"prop2 competitor contained in sp(H) + residual space ({trials} trials)", contain_ok, first_fail if not contain_ok else ""),
        Check(f"prop2 noncentrality difference is nonnegative definite ({trials} trials)", nnd_ok, first_fail if not nnd_ok else ""),
        Check(f"prop2 df sandwich nu_H <= nu_L <= nu_H + n - nu_X ({trials} trials)", df_ok, first_fail if not df_ok else ""),
        Check(f"prop2 auxiliary projector symmetric idempotent ({trials} trials)", aux_ok, first_fail if not aux_ok else ""),
    ]


# -- suite: effect columns may simply be dropped ---------------------------


def verify_prop3(
    dims_list: tuple[tuple[int, ...], ...] = PROP3_DEFAULT_DIMS,
) -> list[Check]:
    """For every effect subset: the contrast blocks span the summed effect
    projector's range, and dropping one effect's block lands exactly on
    the intersection with that effect's orthogonal complement.  Also
    checks that a second contrast family spans identically."""
    checks: list[Check] = []
    for dims in dims_list:
        f = len(dims)
        ambient = 1
        for d in dims:
            ambient *= d
        effs = all_effects(f)
        blocks = {e: c_block(e, dims) for e in effs}
        h_mats = {e: h_projector(e, dims).matrix for e in effs}
        comp_h = {e: complement(colspace(h_mats[e])) for e in effs}
        alt = difference_scheme(dims)
        alt_blocks = {e: c_block(e, dims, alt) for e in effs}
        span_ok = removal_ok = scheme_ok = True
        detail = ""
        span_cache: dict[frozenset[EffectId], Subspace] = {}

        def span_of(subset: frozenset[EffectId], n=ambient) -> Subspace:
            if not subset:
                return Subspace.zero(n)
            if subset not in span_cache:
                span_cache[subset] = colspace(
                    RatMatrix.hstack(*(blocks[e] for e in effs if e in subset))
                )
            return span_cache[subset]

        for r in range(1, len(effs) + 1):
            for combo in itertools.combinations(effs, r):
                subset = frozenset(combo)
                s_c = span_of(subset)
                h_sum = RatMatrix.zeros(ambient, ambient)
                for e in combo:
                    h_sum = h_sum + h_mats[e]
                if s_c != colspace(h_sum):
                    span_ok = False
                    detail = detail or f"span mismatch at subset {{{','.join(map(str, combo))}}}"
                alt_c = RatMatrix.hstack(*(alt_blocks[e] for e in effs if e in subset))
                if colspace(alt_c) != s_c:
                    scheme_ok = False
                    detail = detail or f"scheme dependence at subset {{{','.join(map(str, combo))}}}"
                for star in combo:
                    got = intersect(s_c, comp_h[star])
                    want = span_of(subset - {star})
                    if got != want:
                        removal_ok = False
                        detail = detail or (
                            f"removal mismatch at subset {{{','.join(map(str, combo))}}} minus {star}"
                        )
        label = "x".join(map(str, dims))
        nsubsets = 2 ** len(effs) - 1
        checks.append(
            Check(f"prop3 dims {label}: blocks span the summed projector ({nsubsets} subsets)", span_ok, detail if not span_ok else "")
        )
        checks.append(
            Check(f"prop3 dims {label}: dropping a block hits the complement intersection", removal_ok, detail if not removal_ok else "")
        )
        checks.append(
            Check(f"prop3 dims {label}: second contrast family spans identically", scheme_ok, detail if not scheme_ok else "")
        )
    return checks


# -- suite: float distribution sanity --------------------------------------


def verify_fdist() -> list[Check]:
    """Deterministic battery for the F distribution code: exact symmetry
    and reduction facts, the Markov bound on the cdf at twice the mean up
    to noncentrality 4000, quantile round trips, and the power-monotonicity
    grid (increasing in noncentrality and denominator df, decreasing in
    numerator df)."""
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

    alphas = (0.01, 0.05, 0.1, 0.25)
    nu1s = (1, 2, 3, 4, 5, 6)
    nu2s = (4, 8, 16, 32)
    ncps = (0.0, 0.5, 1.0, 2.0, 4.0, 8.0)
    crit = {
        (a, n1, n2): fdist.f_quantile(a, n1, n2)
        for a in alphas
        for n1 in nu1s
        for n2 in nu2s
    }
    pw = {
        (a, n1, n2, d): 1.0 - fdist.f_cdf(crit[(a, n1, n2)], n1, n2, d)
        for a in alphas
        for n1 in nu1s
        for n2 in nu2s
        for d in ncps
    }
    slack = 1e-10
    mono_ncp = mono_nu2 = mono_nu1 = True
    for a in alphas:
        for n1 in nu1s:
            for n2 in nu2s:
                for lo, hi in zip(ncps, ncps[1:]):
                    diff = pw[(a, n1, n2, hi)] - pw[(a, n1, n2, lo)]
                    if diff < -slack or (lo > 0 and diff <= slack):
                        mono_ncp = False
    for a in alphas:
        for n1 in nu1s:
            for d in ncps:
                for lo, hi in zip(nu2s, nu2s[1:]):
                    diff = pw[(a, n1, hi, d)] - pw[(a, n1, lo, d)]
                    ok = diff > slack if d > 0 else diff >= -slack
                    if not ok:
                        mono_nu2 = False
    for a in alphas:
        for n2 in nu2s:
            for d in ncps:
                for lo, hi in zip(nu1s, nu1s[1:]):
                    diff = pw[(a, hi, n2, d)] - pw[(a, lo, n2, d)]
                    ok = diff < -slack if d > 0 else diff <= slack
                    if not ok:
                        mono_nu1 = False
    checks.append(Check("fdist power nondecreasing in noncentrality (strict when positive)", mono_ncp))
    checks.append(Check("fdist power increasing in denominator df at positive noncentrality", mono_nu2))
    checks.append(Check("fdist power decreasing in numerator df at positive noncentrality", mono_nu1))
    return checks
