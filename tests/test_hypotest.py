"""Unit tests for the restricted-vs-full-model engine."""

import random
from fractions import Fraction

import pytest

from exanova.effects import (
    CellLayout,
    ContrastScheme,
    EffectId,
    all_effects,
    effect_model_matrix,
    h_projector,
    helmert_contrast,
    incidence,
    u_matrix,
)
from exanova.exactlin import (
    RatMatrix,
    Subspace,
    column_vector,
    projector,
)
from exanova.hypotest import (
    estimable_part,
    quad_form,
    restriction_nullbasis,
    rmfm_projector,
    sse,
    testing_target as target_of,
    type_model_set,
    type_numerator,
    type_ss,
)
from exanova.reference import builtin_layout, target_span

F = Fraction
A_EFFECT = EffectId((1, 0))


def random_matrix(rng, nrows, ncols, max_rank=None):
    if max_rank is None:
        return RatMatrix.from_rows(
            [[rng.randint(-3, 3) for _ in range(ncols)] for _ in range(nrows)]
        )
    r = max(1, max_rank)
    a = [[rng.randint(-3, 3) for _ in range(r)] for _ in range(nrows)]
    b = [[rng.randint(-3, 3) for _ in range(ncols)] for _ in range(r)]
    return RatMatrix.from_rows(a) @ RatMatrix.from_rows(b)


def unit(n, j):
    """The j-th coordinate vector of R^n, as a column."""
    return column_vector([int(i == j) for i in range(n)])


def random_model(rng, max_n=8, max_coef=5):
    while True:
        n = rng.randint(1, max_n)
        k = rng.randint(1, max_coef)
        x = random_matrix(rng, n, k, max_rank=rng.choice([None, 1, 2]))
        if not x.is_zero:
            return x


class TestRestrictionNullbasis:
    def test_full_hypothesis_kills_model(self):
        assert restriction_nullbasis(RatMatrix.identity(3)).ncols == 0

    def test_zero_hypothesis_is_vacuous(self):
        n = restriction_nullbasis(RatMatrix.zeros(3, 2))
        assert n.colspace == Subspace.full(3)

    def test_single_coordinate(self):
        e2 = column_vector([0, 1, 0])
        n = restriction_nullbasis(e2)
        assert n.colspace == RatMatrix.hstack(unit(3, 0), unit(3, 2)).colspace


class TestRmfmProjector:
    def test_vacuous_restriction_gives_zero(self):
        rng = random.Random(12)
        x = random_model(rng)
        assert rmfm_projector(x, RatMatrix.zeros(x.ncols, 1)) == RatMatrix.zeros(x.nrows, x.nrows)

    @pytest.mark.parametrize("x, g, message", [
        (RatMatrix.zeros(2, 0), RatMatrix.identity(1), "design matrix needs at least one column"),
        (RatMatrix.zeros(2, 2), RatMatrix.identity(2), "design matrix needs at least one nonzero entry"),
        (RatMatrix.identity(2), RatMatrix.zeros(2, 0), "hypothesis matrix needs at least one column"),
        (RatMatrix.identity(2), RatMatrix.identity(3),
         "hypothesis has 3 coefficient rows, model has 2 coefficients"),
    ])
    def test_pair_checked(self, x, g, message):
        for route in (rmfm_projector, estimable_part):
            with pytest.raises(ValueError, match=message):
                route(x, g)

    def test_column_selector_matches_column_omission(self):
        # dropping the A-effect columns equals restricting with a
        # coordinate-selecting hypothesis on those columns
        layout = builtin_layout("n0")
        k = incidence(layout)
        x = k @ effect_model_matrix(all_effects(2), layout.dims)
        # canonical order is 00, 10, 01, 11 with widths 1, 2, 2, 4
        selector = RatMatrix.hstack(unit(x.ncols, 1), unit(x.ncols, 2))
        got = rmfm_projector(x, selector)
        want = type_numerator(3, A_EFFECT, layout)
        assert got == want

    def test_balanced_effect_restriction_is_kron(self):
        layout = CellLayout.from_grid([[2, 2], [2, 2]])
        k = incidence(layout)
        x = k @ effect_model_matrix(all_effects(2), layout.dims)
        got = rmfm_projector(x, unit(4, 1))
        want = h_projector(A_EFFECT, (2, 2)).kron(u_matrix(2))
        assert got == want

    def test_projector_is_symmetric_idempotent(self):
        rng = random.Random(5)
        for _ in range(25):
            x = random_model(rng)
            g = random_matrix(rng, x.ncols, rng.randint(1, 3))
            p = rmfm_projector(x, g)
            assert p.is_symmetric
            assert p @ p == p


def rmfm_ss(y, x, g):
    """The extra SSE: the quadratic form of the numerator projector."""
    return quad_form(y, rmfm_projector(x, g))


class TestRmfmSs:
    def test_zero_when_response_fits_restricted_model(self):
        rng = random.Random(77)
        for _ in range(20):
            x = random_model(rng)
            g = random_matrix(rng, x.ncols, rng.randint(1, 2))
            n_basis = restriction_nullbasis(g)
            coeffs = column_vector([rng.randint(-2, 2) for _ in range(n_basis.ncols)]) \
                if n_basis.ncols else None
            if coeffs is None:
                continue
            rows, den = (x @ n_basis @ coeffs).int_rows()
            y = [F(v, den) for (v,) in rows]
            assert rmfm_ss(y, x, g) == 0

    def test_zero_when_response_orthogonal_to_model(self):
        x = RatMatrix.from_rows([[1, 0], [1, 0], [0, 1]])
        y = [1, -1, 0]  # orthogonal to both columns
        assert rmfm_ss(y, x, RatMatrix.identity(2)) == 0

    def test_balanced_cell_mean_closed_form(self):
        layout = CellLayout.from_grid([[2, 2], [2, 2]])
        y = [1, 1, 2, 2, 3, 3, 4, 4]
        res = type_ss(3, A_EFFECT, layout, y)
        assert res.ss_num == 8  # 2 * sum over cells of (rowmean - grand)^2
        assert res.nu_num == 1

    def test_equals_sse_difference(self):
        rng = random.Random(31)
        for _ in range(25):
            x = random_model(rng)
            g = random_matrix(rng, x.ncols, rng.randint(1, 3))
            y = [F(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(x.nrows)]
            restricted = x @ restriction_nullbasis(g)
            direct = rmfm_ss(y, x, g)
            assert direct == sse(y, restricted) - sse(y, x)
            assert direct >= 0


class TestSseAndQuadForm:
    """The integer-sum routes against the projector route they replace."""

    @staticmethod
    def fractional_response(rng, n):
        # odd over even: no entry reduces to an integer
        return [F(rng.randrange(-9, 10, 2), rng.choice((2, 4, 6, 10))) for _ in range(n)]

    def test_match_projector_route(self):
        rng = random.Random(58)
        for _ in range(40):
            x = random_model(rng)
            n = x.nrows
            y = self.fractional_response(rng, n)
            yv = column_vector(y)
            p = projector(x).matrix
            general = random_matrix(rng, n, n)
            c = F(rng.randint(1, 5), rng.randint(1, 7))
            general = general @ RatMatrix.from_rows([[c * (i == j) for j in range(n)] for i in range(n)])
            for mat in (p, general):
                assert RatMatrix.from_rows([[quad_form(y, mat)]]) == yv.transpose() @ mat @ yv
            resid = RatMatrix.identity(n) - p
            assert RatMatrix.from_rows([[sse(y, x)]]) == yv.transpose() @ resid @ yv

    def test_zero_column_design_leaves_everything(self):
        y = [F(1, 2), 3, F(-5, 4)]
        assert sse(y, RatMatrix.zeros(3, 0)) == sum(v * v for v in y)
        assert sse(y, RatMatrix.zeros(3, 2)) == sum(v * v for v in y)
        assert quad_form(y, RatMatrix.zeros(3, 3)) == 0

    @pytest.mark.parametrize("y", [[], [1, 2], [1, 2, 3, 4]])
    def test_length_mismatch_raises(self, y):
        with pytest.raises(ValueError, match="response length"):
            sse(y, RatMatrix.identity(3))
        with pytest.raises(ValueError, match="response length"):
            quad_form(y, RatMatrix.identity(3))

    def test_non_square_matrix_raises(self):
        with pytest.raises(ValueError, match="response length"):
            quad_form([1, 2], RatMatrix.ones(2, 3))


class TestEstimablePart:
    def test_full_rank_model_everything_estimable(self):
        x = RatMatrix.from_rows([[1, 0], [0, 1], [1, 1]])
        g = RatMatrix.from_rows([[1, 0], [2, 1]])
        assert estimable_part(x, g) == g.colspace

    def test_saturated_cell_means_with_empty_cell(self):
        layout = builtin_layout("n2")
        x = incidence(layout)  # cell-means coding: beta is the cell-mean vector
        c10 = helmert_contrast(3).kron(RatMatrix.ones(3))
        got = estimable_part(x, c10)
        want = RatMatrix.from_rows([[0], [1], [-1]]).kron(RatMatrix.ones(3)).colspace
        assert got == want
        assert got.dim == 1

    def test_saturated_cell_means_filled_layouts(self):
        c10 = helmert_contrast(3).kron(RatMatrix.ones(3))
        for name in ("n0", "n1"):
            got = estimable_part(incidence(builtin_layout(name)), c10)
            assert got == c10.colspace


class TestTestingTarget:
    def test_additive_model_target_under_proportional_counts(self):
        layout = builtin_layout("n1")
        k = incidence(layout)
        m_add = effect_model_matrix(type_model_set(2, A_EFFECT), layout.dims)
        p1 = type_numerator(1, A_EFFECT, layout)
        c10 = helmert_contrast(3).kron(RatMatrix.ones(3))
        assert target_of(m_add, k, p1) == c10.colspace

    def test_saturated_model_target_under_proportional_counts(self):
        layout = builtin_layout("n1")
        k = incidence(layout)
        m_sat = effect_model_matrix(all_effects(2), layout.dims)
        p1 = type_numerator(1, A_EFFECT, layout)
        assert target_of(m_sat, k, p1) == target_span("n1", 1, 3)

    def test_zero_projector_gives_zero_target(self):
        layout = builtin_layout("n0")
        k = incidence(layout)
        m = effect_model_matrix(all_effects(2), layout.dims)
        assert target_of(m, k, RatMatrix.zeros(18, 18)) == Subspace.zero(9)

    def test_proportional_counts_lose_main_effects_in_saturated_model(self):
        layout = builtin_layout("n1")
        k = incidence(layout)
        m_add = effect_model_matrix(type_model_set(2, A_EFFECT), layout.dims)
        m_sat = effect_model_matrix(all_effects(2), layout.dims)
        p1 = type_numerator(1, A_EFFECT, layout)
        c10_span = helmert_contrast(3).kron(RatMatrix.ones(3)).colspace
        h10_span = h_projector(A_EFFECT, (3, 3)).colspace
        assert target_of(m_add, k, p1) == c10_span
        assert target_of(m_sat, k, p1).intersect(h10_span) == Subspace.zero(9)


class TestTypeSs:
    def test_balanced_types_agree(self):
        layout = CellLayout.from_grid([[3, 3, 3], [3, 3, 3], [3, 3, 3]])
        rng = random.Random(2)
        y = [F(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(layout.n)]
        results = [type_ss(t, A_EFFECT, layout, y) for t in (1, 2, 3)]
        assert results[0].ss_num == results[1].ss_num == results[2].ss_num

    def test_own_model_targets_under_proportional_counts(self):
        layout = builtin_layout("n1")
        rng = random.Random(8)
        y = [rng.randint(-5, 5) for _ in range(layout.n)]
        c10_span = helmert_contrast(3).kron(RatMatrix.ones(3)).colspace
        r1 = type_ss(1, A_EFFECT, layout, y)
        r2 = type_ss(2, A_EFFECT, layout, y)
        assert r1.estimable_part == c10_span
        assert r2.estimable_part == c10_span

    def test_empty_cell_type3_has_one_df(self):
        layout = builtin_layout("n2")
        rng = random.Random(9)
        y = [rng.randint(-5, 5) for _ in range(layout.n)]
        res = type_ss(3, A_EFFECT, layout, y)
        assert res.nu_num == 1
        assert res.estimable_part is not None and res.estimable_part.dim == 1

    def test_saturated_single_rep_has_no_residual(self):
        layout = CellLayout.from_grid([[1, 1], [1, 1]])
        res = type_ss(3, A_EFFECT, layout, [1, 2, 3, 4])
        assert res.nu_den == 0
        assert res.f_value is None
        assert res.p_value is None
        assert res.ss_num > 0

    def test_effect_must_belong_to_model(self):
        layout = CellLayout.from_grid([[2, 2], [2, 2]])
        with pytest.raises(ValueError):
            type_ss(2, EffectId((1, 1)), layout, [0] * 8)

    def test_response_length_checked(self):
        layout = CellLayout.from_grid([[2, 2], [2, 2]])
        with pytest.raises(ValueError):
            type_ss(3, A_EFFECT, layout, [1, 2, 3])


def random_contrast(rng, m):
    """A random valid m x (m-1) contrast matrix: random columns, centred."""
    while True:
        raw = [[rng.randint(-3, 3) for _ in range(m - 1)] for _ in range(m)]
        c = RatMatrix.from_rows(
            [[F(v) - F(sum(r[j] for r in raw), m) for j, v in enumerate(row)] for row in raw]
        )
        if c.rank() == m - 1:
            return c


def random_layout(rng, sizes=(2, 4), counts=(0, 0, 1, 2, 3)):
    """A layout with `sizes` levels per factor and cell counts drawn from
    `counts`, often with empty cells, every level observed."""
    while True:
        dims = (rng.randint(*sizes), rng.randint(*sizes))
        cells = tuple(rng.choice(counts) for _ in range(dims[0] * dims[1]))
        try:
            return CellLayout(dims, cells)
        except ValueError:
            continue


class TestTypeSsCellSpace:
    """type_ss works in cell space; the observation-space projectors are
    its oracle, and must agree exactly, for every effect (the mean
    included) and every SS type whose model holds it."""

    @staticmethod
    def check_layout(rng, layout, scheme):
        effects = all_effects(2)
        y = [F(rng.randint(-9, 9), rng.choice((1, 2, 4))) for _ in range(layout.n)]
        k = incidence(layout)
        q = RatMatrix.identity(layout.n) - projector(k).matrix
        ss_den, nu_den = quad_form(y, q), int(q.trace())
        for effect in effects:
            for t in (1, 2, 3):
                if effect not in type_model_set(t, effect):
                    continue
                report_set = frozenset(e for e in effects if rng.random() < 0.6)
                report_set = report_set or frozenset(effects[:1])
                res = type_ss(t, effect, layout, y, scheme, report_set=report_set)
                p_num = type_numerator(t, effect, layout, scheme)
                ss_num, nu_num = quad_form(y, p_num), int(p_num.trace())
                f_value = None
                if nu_num > 0 and nu_den > 0 and ss_den > 0:
                    f_value = (ss_num / nu_num) / (ss_den / nu_den)
                assert (res.ss_num, res.nu_num, res.ss_den, res.nu_den, res.f_value) == (
                    ss_num, nu_num, ss_den, nu_den, f_value
                )
                m = effect_model_matrix(report_set, layout.dims, scheme)
                assert res.estimable_part == target_of(m, k, p_num)

    def test_matches_observation_space_oracle(self):
        rng = random.Random(2024)
        with_empty = 0
        for _ in range(14):
            layout = random_layout(rng)
            with_empty += 0 in layout.counts
            scheme = None
            if rng.random() < 0.5:
                scheme = ContrastScheme.user([random_contrast(rng, m) for m in layout.dims])
            self.check_layout(rng, layout, scheme)
        assert with_empty >= 5  # the draw must exercise empty cells

    def test_wide_layouts_match_oracle(self):
        # 5x5 to 6x6 with about one cell in five empty and 1-2 replicates
        rng = random.Random(2025)
        for _ in range(3):
            layout = random_layout(rng, sizes=(5, 6), counts=(0, 1, 1, 1, 2))
            assert 0 in layout.counts
            self.check_layout(rng, layout, None)

