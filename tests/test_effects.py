"""Unit tests for effect projectors, contrast blocks, and layouts."""

import itertools
from fractions import Fraction

import pytest

from exanova.effects import (
    CellLayout,
    ContrastScheme,
    EffectId,
    all_effects,
    c_block,
    canonical_order,
    effect_model_matrix,
    h_projector,
    helmert_contrast,
    incidence,
    s_matrix,
    u_matrix,
)
from exanova.exactlin import RatMatrix, Subspace, projector

F = Fraction

N0 = CellLayout.from_grid([[1, 2, 3], [3, 1, 2], [3, 2, 1]])
N1 = CellLayout.from_grid([[6, 4, 4], [3, 2, 2], [3, 2, 2]])
N2 = CellLayout.from_grid([[0, 2, 3], [3, 1, 2], [3, 2, 1]])


def difference_scheme(dims):
    """Second valid contrast family: level 1 minus each later level."""
    mats = []
    for m in dims:
        num = [[0] * (m - 1) for _ in range(m)]
        for j in range(m - 1):
            num[0][j] = 1
            num[j + 1][j] = -1
        mats.append(RatMatrix(num, 1))
    return ContrastScheme.user(mats)


class TestAveragingCentering:
    def test_u2(self):
        assert u_matrix(2) == RatMatrix([[1, 1], [1, 1]], 2)

    def test_s2(self):
        assert s_matrix(2) == RatMatrix([[1, -1], [-1, 1]], 2)

    def test_trace_s5(self):
        assert s_matrix(5).trace() == 4

    def test_sum_to_identity(self):
        for m in (1, 2, 5):
            assert u_matrix(m) + s_matrix(m) == RatMatrix.identity(m)
            assert (u_matrix(m) @ s_matrix(m)).is_zero

    def test_zero_levels_rejected(self):
        with pytest.raises(ValueError):
            u_matrix(0)


class TestEffectIds:
    def test_parse_and_str(self):
        e = EffectId.parse("10")
        assert e.bits == (1, 0)
        assert str(e) == "10"
        with pytest.raises(ValueError):
            EffectId.parse("12")

    def test_canonical_order_two_factors(self):
        effs = all_effects(2)
        assert [str(e) for e in effs] == ["00", "10", "01", "11"]

    def test_canonical_order_three_factors(self):
        effs = all_effects(3)
        assert [str(e) for e in effs] == [
            "000", "100", "010", "001", "110", "101", "011", "111",
        ]

    def test_mixed_lengths_rejected(self):
        with pytest.raises(ValueError):
            canonical_order([EffectId.parse("10"), EffectId.parse("1")])


class TestHProjectors:
    def test_grand_mean_block(self):
        h = h_projector(EffectId.parse("00"), (3, 3))
        assert h == RatMatrix([[1] * 9] * 9, 9)

    def test_partition_of_identity(self):
        total = RatMatrix.zeros(9, 9)
        for e in all_effects(2):
            total = total + h_projector(e, (3, 3))
        assert total == RatMatrix.identity(9)

    def test_pairwise_orthogonal(self):
        h10 = h_projector(EffectId.parse("10"), (3, 3))
        h01 = h_projector(EffectId.parse("01"), (3, 3))
        assert (h10 @ h01).is_zero

    @pytest.mark.parametrize(
        "dims",
        [(2,), (4,), (2, 3), (4, 4), (2, 2, 2), (3, 2, 4)],
    )
    def test_partition_and_orthogonality_generic(self, dims):
        effs = all_effects(len(dims))
        mats = [h_projector(e, dims) for e in effs]
        total = mats[0]
        for p in mats[1:]:
            total = total + p
        n = 1
        for d in dims:
            n *= d
        assert total == RatMatrix.identity(n)
        for p, q in itertools.combinations(mats, 2):
            assert (p @ q).is_zero


class TestContrasts:
    def test_three_level_default(self):
        assert helmert_contrast(3) == RatMatrix.from_rows([[2, 0], [-1, 1], [-1, -1]])

    def test_two_level_default(self):
        assert helmert_contrast(2) == RatMatrix.from_rows([[1], [-1]])

    def test_projector_is_centering(self):
        assert projector(helmert_contrast(4)).matrix == s_matrix(4)

    def test_minimum_levels(self):
        with pytest.raises(ValueError):
            helmert_contrast(1)

    def test_user_scheme_validation(self):
        with pytest.raises(ValueError):
            ContrastScheme.user([RatMatrix.from_rows([[1], [1]])])  # columns not contrasts
        with pytest.raises(ValueError):
            ContrastScheme.user([RatMatrix.from_rows([[1, -1], [-1, 1]])])  # wrong shape
        good = difference_scheme((3,))
        assert good.matrix_for(3, 0).ncols == 2
        with pytest.raises(ValueError):
            good.matrix_for(4, 0)


class TestCBlocks:
    def test_a_main_block_repeats_rows(self):
        c10 = c_block(EffectId.parse("10"), (3, 3))
        want = helmert_contrast(3).kron(RatMatrix.ones(3))
        assert c10 == want
        assert c10.shape == (9, 2)
        rows, den = helmert_contrast(3).int_rows()
        assert c10.int_rows() == (tuple(r for r in rows for _ in range(3)), den)

    def test_grand_mean_block_is_ones(self):
        assert c_block(EffectId.parse("00"), (3, 3)) == RatMatrix.ones(9)

    def test_interaction_projector(self):
        p = projector(c_block(EffectId.parse("11"), (3, 3)))
        assert p.matrix == s_matrix(3).kron(s_matrix(3))

    @pytest.mark.parametrize("dims", [(2, 3), (3, 3), (2, 2, 3)])
    def test_block_projector_matches_h_both_schemes(self, dims):
        user = difference_scheme(dims)
        for e in all_effects(len(dims)):
            h = h_projector(e, dims)
            assert projector(c_block(e, dims)).matrix == h
            assert projector(c_block(e, dims, user)).matrix == h


class TestEffectModelMatrix:
    def test_full_set_spans_everything(self):
        m = effect_model_matrix(all_effects(2), (3, 3))
        assert m.colspace == Subspace.full(9)

    def test_additive_model_span(self):
        effs = [EffectId.parse(s) for s in ("00", "10", "01")]
        m = effect_model_matrix(effs, (3, 3))
        hsum = (
            h_projector(EffectId.parse("00"), (3, 3))
            + h_projector(EffectId.parse("10"), (3, 3))
            + h_projector(EffectId.parse("01"), (3, 3))
        )
        assert m.colspace == hsum.colspace

    def test_grand_mean_only(self):
        m = effect_model_matrix([EffectId.parse("00")], (3, 3))
        assert m.colspace == RatMatrix.ones(9).colspace

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError):
            effect_model_matrix([], (3, 3))

    @pytest.mark.parametrize("dims", [(3,), (2, 3), (2, 2, 2)])
    def test_removal_identities(self, dims):
        # span equals the summed projector's range; dropping one effect's
        # block lands exactly on the intersection with that effect's
        # orthogonal complement
        effs = all_effects(len(dims))
        n = 1
        for d in dims:
            n *= d
        for r in range(1, len(effs) + 1):
            for subset in itertools.combinations(effs, r):
                m = effect_model_matrix(subset, dims)
                hsum = RatMatrix.zeros(n, n)
                for e in subset:
                    hsum = hsum + h_projector(e, dims)
                span = m.colspace
                assert span == hsum.colspace
                for star in subset:
                    rest = [e for e in subset if e != star]
                    reduced = (
                        effect_model_matrix(rest, dims).colspace
                        if rest
                        else Subspace.zero(n)
                    )
                    target = span.intersect(h_projector(star, dims).colspace.complement())
                    assert reduced == target


class TestLayoutsAndIncidence:
    def test_layout_totals(self):
        assert N0.n == 18
        assert N1.n == 28
        assert N2.n == 17

    def test_marginal_validation(self):
        with pytest.raises(ValueError):
            CellLayout.from_grid([[0, 0], [1, 1]])
        # empty cells are fine as long as margins are positive
        CellLayout.from_grid([[0, 1], [1, 1]])

    def test_incidence_column_sums_and_row_sums(self):
        k = incidence(N0)
        assert k.shape == (18, 9)
        colsums = RatMatrix.ones(18).transpose() @ k
        assert colsums == RatMatrix.from_rows([[1, 2, 3, 3, 1, 2, 3, 2, 1]])
        rowsums = k @ RatMatrix.ones(9)
        assert rowsums == RatMatrix.ones(18)

    def test_incidence_empty_cell_column_is_zero(self):
        k = incidence(N2)
        assert all(row[0] == 0 for row in k.int_rows()[0])

    def test_balanced_incidence_is_kron(self):
        layout = CellLayout.from_grid([[2, 2], [2, 2]])
        assert incidence(layout) == RatMatrix.identity(4).kron(RatMatrix.ones(2))

    def test_model_matrix_saturated_spans_incidence(self):
        k = incidence(N0)
        m = k @ effect_model_matrix(all_effects(2), N0.dims)
        assert m.colspace == k.colspace
        assert m.colspace.dim == 9

    def test_model_matrix_grand_mean_is_ones(self):
        m = incidence(N1) @ effect_model_matrix([EffectId.parse("00")], N1.dims)
        assert m.colspace == RatMatrix.ones(28).colspace

    def test_balanced_model_projector_is_kron(self):
        layout = CellLayout.from_grid([[3, 3], [3, 3]])
        effs = [EffectId.parse(s) for s in ("00", "10")]
        p = projector(incidence(layout) @ effect_model_matrix(effs, layout.dims))
        hsum = (
            h_projector(EffectId.parse("00"), (2, 2))
            + h_projector(EffectId.parse("10"), (2, 2))
        )
        assert p.matrix == hsum.kron(u_matrix(3))
