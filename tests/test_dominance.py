"""Unit tests for the competing-numerator dominance checks."""

import random

import pytest

from exanova.dominance import check_dominance
from exanova.exactlin import RatMatrix, is_nnd


def all_hold(rpt):
    """The four conclusions of the dominance proposition."""
    return rpt.span_recovered and rpt.containment and rpt.nnd_holds and rpt.df_bounds_hold


def random_matrix(rng, nrows, ncols, max_rank=None):
    if max_rank is None:
        return RatMatrix.from_rows(
            [[rng.randint(-3, 3) for _ in range(ncols)] for _ in range(nrows)]
        )
    r = max(1, max_rank)
    a = [[rng.randint(-3, 3) for _ in range(r)] for _ in range(nrows)]
    b = [[rng.randint(-3, 3) for _ in range(ncols)] for _ in range(r)]
    return RatMatrix.from_rows(a) @ RatMatrix.from_rows(b)


def dominance_instance(rng, max_n=8):
    """X, H with sp(H) in sp(X), and L = H A + W B with A nonsingular."""
    while True:
        n = rng.randint(2, max_n)
        x = random_matrix(rng, n, rng.randint(1, n), max_rank=rng.choice([None, 1, 2]))
        if x.is_zero:
            continue
        hc = rng.randint(1, 3)
        h = x @ random_matrix(rng, x.ncols, hc)
        while True:
            a = random_matrix(rng, hc, hc)
            if a.rank() == hc:
                break
        w = x.colspace.complement().basis
        if w.ncols:
            l = h @ a + w @ random_matrix(rng, w.ncols, hc)
        else:
            l = h @ a
        return x, h, l


class TestCheckDominance:
    def test_identity_case(self):
        x = RatMatrix.from_rows([[1, 0], [0, 1], [1, 1]])
        h = RatMatrix.from_rows([[1], [0], [1]])
        rpt = check_dominance(x, h, h)
        assert all_hold(rpt)
        assert rpt.nu_l == rpt.nu_h == 1
        diff = x.transpose() @ (
            RatMatrix.zeros(3, 3)
        ) @ x  # H == L so the nnd difference is exactly zero
        assert is_nnd(diff)

    def test_padding_with_residual_directions(self):
        rng = random.Random(10)
        x = random_matrix(rng, 6, 3)
        h = x @ random_matrix(rng, 3, 2)
        z = x.colspace.complement().basis
        assert z.ncols > 0
        l = RatMatrix.hstack(h, z)
        rpt = check_dominance(x, h, l)
        assert all_hold(rpt)
        assert rpt.nu_l > rpt.nu_h

    def test_precondition_span_violation_raises(self):
        x = RatMatrix.from_rows([[1, 0], [0, 1], [0, 0]])
        h = RatMatrix.from_rows([[1], [0], [0]])
        l = RatMatrix.from_rows([[0], [1], [0]])
        with pytest.raises(ValueError, match="X'L"):
            check_dominance(x, h, l)

    def test_precondition_containment_violation_raises(self):
        x = RatMatrix.from_rows([[1], [0], [0]])
        h = RatMatrix.from_rows([[0], [1], [0]])
        with pytest.raises(ValueError, match="sp\\(H\\)"):
            check_dominance(x, h, h)

    def test_randomized_instances(self):
        rng = random.Random(1234)
        for _ in range(40):
            x, h, l = dominance_instance(rng)
            rpt = check_dominance(x, h, l)
            assert all_hold(rpt)
            assert rpt.aux_idempotent
