"""Unit tests for the exact linear algebra core."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exanova.exactlin import (
    Projector,
    RatMatrix,
    Subspace,
    colspace,
    column_vector,
    complement,
    intersect,
    is_nnd,
    nullspace,
    projector,
    rank,
    solve_linear,
    subspace_sum,
    weighted_fit,
)

F = Fraction

C3 = RatMatrix.from_rows([[2, 0], [-1, 1], [-1, -1]])
ONES3 = RatMatrix.ones(3)


def slow_canonical_colspace(m: RatMatrix) -> list[list[Fraction]]:
    """Independent oracle: reduced column echelon by Fraction Gauss-Jordan."""
    cols = [[m.entry(i, j) for i in range(m.nrows)] for j in range(m.ncols)]
    basis: list[list[Fraction]] = []
    for v in cols:
        v = list(v)
        for b in basis:
            lead = next(i for i, x in enumerate(b) if x != 0)
            if v[lead] != 0:
                f = v[lead]
                v = [x - f * y for x, y in zip(v, b)]
        if any(x != 0 for x in v):
            lead = next(i for i, x in enumerate(v) if x != 0)
            piv = v[lead]
            v = [x / piv for x in v]
            for b in basis:
                if b[lead] != 0:
                    f = b[lead]
                    b[:] = [x - f * y for x, y in zip(b, v)]
            basis.append(v)
    basis.sort(key=lambda b: next(i for i, x in enumerate(b) if x != 0))
    return basis


def slow_kernel_basis(m: RatMatrix) -> list[list[Fraction]]:
    """Independent oracle: a kernel basis by Fraction Gauss-Jordan, one
    vector per free column."""
    a = [[m.entry(i, j) for j in range(m.ncols)] for i in range(m.nrows)]
    pivots: list[int] = []
    for c in range(m.ncols):
        r = len(pivots)
        p = next((i for i in range(r, m.nrows) if a[i][c] != 0), None)
        if p is None:
            continue
        a[r], a[p] = a[p], a[r]
        a[r] = [x / a[r][c] for x in a[r]]
        for i in range(m.nrows):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
    vecs = []
    for free in (c for c in range(m.ncols) if c not in pivots):
        v = [F(0)] * m.ncols
        v[free] = F(1)
        for i, pc in enumerate(pivots):
            v[pc] = -a[i][free]
        vecs.append(v)
    return vecs


def int_rows(nrows, ncols):
    return st.lists(st.lists(st.integers(-4, 4), min_size=ncols, max_size=ncols),
                    min_size=nrows, max_size=nrows)


@st.composite
def int_matrices(draw):
    """Integer matrices up to 5 x 5, zero, rank-deficient, 1 x n and n x 1
    ones included."""
    nrows = draw(st.integers(1, 5))
    ncols = draw(st.integers(1, 5))
    kind = draw(st.sampled_from(("dense", "low_rank", "zero")))
    if kind == "zero":
        return RatMatrix.zeros(nrows, ncols)
    if kind == "dense":
        return RatMatrix(draw(int_rows(nrows, ncols)))
    r = draw(st.integers(1, min(nrows, ncols)))
    return RatMatrix(draw(int_rows(nrows, r))) @ RatMatrix(draw(int_rows(r, ncols)))


def random_matrix(rng, nrows, ncols, lo=-4, hi=4, max_rank=None):
    if max_rank is None:
        return RatMatrix.from_rows(
            [[rng.randint(lo, hi) for _ in range(ncols)] for _ in range(nrows)]
        )
    r = max(1, max_rank)
    a = [[rng.randint(lo, hi) for _ in range(r)] for _ in range(nrows)]
    b = [[rng.randint(lo, hi) for _ in range(ncols)] for _ in range(r)]
    return RatMatrix.from_rows(a) @ RatMatrix.from_rows(b)


class TestRatMatrix:
    def test_entries_are_exact_fractions(self):
        m = RatMatrix.from_rows([["0.5", 2], [F(1, 3), -1]])
        assert m.entry(0, 0) == F(1, 2)
        assert m.entry(1, 0) == F(1, 3)

    def test_normalization_gives_structural_equality(self):
        a = RatMatrix([[2, 4], [6, 8]], 4)
        b = RatMatrix([[1, 2], [3, 4]], 2)
        assert a == b
        assert hash(a) == hash(b)

    def test_product_and_kron(self):
        a = RatMatrix.from_rows([[1, 2], [3, 4]])
        v = column_vector([1, 1])
        assert (a @ v).to_rows() == [[3], [7]]
        k = RatMatrix.identity(2).kron(RatMatrix.ones(2))
        assert k.shape == (4, 2)
        assert k.to_rows() == [[1, 0], [1, 0], [0, 1], [0, 1]]

    def test_zero_column_matrices_are_legal(self):
        z = RatMatrix.zeros(3, 0)
        assert z.shape == (3, 0)
        assert (RatMatrix.from_rows([[1, 2, 3]]) @ z).shape == (1, 0)
        assert RatMatrix.hstack(z, ONES3).shape == (3, 1)

    def test_rational_entries_rejected(self):
        with pytest.raises(ValueError, match="from_rows"):
            RatMatrix([[1.5, F(1, 2)]])
        with pytest.raises(ValueError, match="from_rows"):
            RatMatrix([[2, 0], [0, F(1, 2)]])
        assert RatMatrix([[2.0, 1]]) == RatMatrix([[2, 1]])

    def test_rational_denominator_rejected(self):
        with pytest.raises(ValueError, match="from_rows"):
            RatMatrix([[1, 2]], 2.7)
        with pytest.raises(ValueError, match="from_rows"):
            RatMatrix([[1, 2]], F(3, 2))

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(m=int_matrices(), den=st.integers(1, 12), as_tuples=st.booleans())
    def test_internal_constructor_matches_public(self, m, den, as_tuples):
        rows = [list(r) for r in m.int_rows()[0]]
        if as_tuples:
            rows = [tuple(r) for r in rows]
        public = RatMatrix(rows, den)
        internal = RatMatrix._of(rows, den)
        assert internal == public
        assert hash(internal) == hash(public)
        assert RatMatrix._of(*public.int_rows(), normalized=True) == public

    def test_trace_requires_square(self):
        with pytest.raises(ValueError):
            RatMatrix.from_rows([[1, 2, 3]]).trace()

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            RatMatrix.identity(2) @ RatMatrix.identity(3)
        with pytest.raises(ValueError):
            RatMatrix.identity(2) + RatMatrix.identity(3)


class TestColspace:
    def test_identity_spans_everything(self):
        s = colspace(RatMatrix.identity(3))
        assert s.dim == 3
        assert s == Subspace.full(3)

    def test_ones_column(self):
        s = colspace(ONES3)
        assert s.dim == 1
        assert s.basis == ONES3

    def test_contrast_columns_span_complement_of_ones(self):
        assert colspace(C3) == complement(colspace(ONES3))
        assert colspace(C3).dim == 2

    def test_zero_matrix_gives_zero_subspace(self):
        assert colspace(RatMatrix.zeros(4, 2)) == Subspace.zero(4)

    def test_canonical_basis_matches_fraction_oracle(self):
        rng = random.Random(421)
        for _ in range(80):
            nr = rng.randint(1, 8)
            nc = rng.randint(1, 8)
            m = random_matrix(rng, nr, nc, max_rank=rng.choice([None, 1, 2, 3]))
            got = colspace(m)
            want = slow_canonical_colspace(m)
            assert got.dim == len(want)
            assert [
                [got.basis.entry(i, j) for i in range(nr)] for j in range(got.dim)
            ] == want

    @settings(derandomize=True, max_examples=80, deadline=None)
    @given(m=int_matrices())
    def test_nullspace_is_canonical_kernel(self, m):
        got = nullspace(m)
        assert (m @ got.basis).is_zero
        vecs = slow_kernel_basis(m)
        assert got.dim == len(vecs)
        if not vecs:
            assert got == Subspace.zero(m.ncols)
            return
        spanning = RatMatrix.from_rows([list(r) for r in zip(*vecs)])
        # one reduction gives the basis the two-reduction route gives
        assert got == colspace(spanning)
        assert [
            [got.basis.entry(i, j) for i in range(m.ncols)] for j in range(got.dim)
        ] == slow_canonical_colspace(spanning)

    def test_same_span_same_basis(self):
        rng = random.Random(7)
        for _ in range(30):
            m = random_matrix(rng, 5, 3)
            mix = random_matrix(rng, 3, 4)
            scaled = (m @ mix)
            s1 = colspace(m)
            s2 = colspace(RatMatrix.hstack(m, scaled))
            assert s1 == s2


class TestProjector:
    def test_projector_of_ones_is_averaging(self):
        p = projector(RatMatrix.ones(2))
        assert p.matrix == RatMatrix([[1, 1], [1, 1]], 2)

    def test_projector_of_identity(self):
        assert projector(RatMatrix.identity(4)).matrix == RatMatrix.identity(4)

    def test_projector_of_contrasts_is_centering(self):
        u3 = RatMatrix([[1] * 3] * 3, 3)
        assert projector(C3).matrix == RatMatrix.identity(3) - u3

    def test_projector_properties_random(self):
        rng = random.Random(99)
        for _ in range(60):
            m = random_matrix(rng, rng.randint(1, 7), rng.randint(1, 6),
                              max_rank=rng.choice([None, 1, 2]))
            p = projector(m)
            assert p.matrix.is_symmetric
            assert p.matrix @ p.matrix == p.matrix
            assert p.nu == m.rank()
            assert p.matrix @ m == m

    def test_zero_matrix_gives_zero_projector(self):
        assert projector(RatMatrix.zeros(3, 2)) == Projector.zero(3)

    def test_validating_constructor_rejects_junk(self):
        with pytest.raises(ValueError):
            Projector(RatMatrix.from_rows([[1, 2], [2, 1]]))
        with pytest.raises(ValueError):
            Projector(RatMatrix.from_rows([[1, 1], [0, 1]]))

    def test_nested_difference(self):
        p = Projector.identity(3)
        q = projector(ONES3)
        d = p.minus(q)
        assert d.nu == 2
        with pytest.raises(ValueError):
            q.minus(d)


class TestWeightedFit:
    def test_unit_weights_give_projector(self):
        m = RatMatrix.from_rows([[1, 2], [1, 0], [1, -1], [1, 4]])
        a, r = weighted_fit(m, [1, 1, 1, 1])
        assert a == projector(m).matrix
        assert r == 2

    def test_matches_observation_space_projector(self):
        # K A K' is the projector onto sp(K M) for the incidence K of
        # the weights, zero weights (empty cells) included
        rng = random.Random(19)
        for _ in range(30):
            c, p = rng.randint(2, 6), rng.randint(1, 4)
            m = RatMatrix.from_rows([[rng.randint(-2, 2) for _ in range(p)] for _ in range(c)])
            weights = [rng.choice((0, 1, 2, 3)) for _ in range(c)]
            if not any(weights):
                continue
            k = RatMatrix(
                [[int(i == j) for j in range(c)] for i in range(c) for _ in range(weights[i])]
            )
            a, r = weighted_fit(m, weights)
            assert k @ a @ k.T == projector(k @ m).matrix
            assert r == rank(k @ m)

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            weighted_fit(RatMatrix.identity(2), [1, -1])
        with pytest.raises(ValueError):
            weighted_fit(RatMatrix.identity(2), [1])


class TestSubspaceCalculus:
    def test_complement_examples(self):
        assert complement(colspace(ONES3)) == colspace(C3)
        assert complement(Subspace.zero(2)) == Subspace.full(2)
        assert complement(Subspace.full(2)) == Subspace.zero(2)

    def test_complement_involution(self):
        rng = random.Random(5)
        for _ in range(40):
            s = colspace(random_matrix(rng, rng.randint(1, 7), rng.randint(1, 7),
                                       max_rank=rng.choice([None, 1, 2])))
            assert complement(complement(s)) == s

    @settings(derandomize=True, max_examples=30, deadline=None)
    @given(m=int_matrices())
    def test_complement_is_memoized(self, m):
        s = colspace(m)
        assert s.complement() is s.complement()
        assert complement(s).complement() == s

    def test_intersect_examples(self):
        e = RatMatrix.identity(3)
        s12 = colspace(RatMatrix.hstack(e.column(0), e.column(1)))
        s23 = colspace(RatMatrix.hstack(e.column(1), e.column(2)))
        assert intersect(s12, s23) == colspace(e.column(1))
        assert intersect(s12, s12) == s12
        with pytest.raises(ValueError):
            intersect(Subspace.zero(2), Subspace.zero(3))

    def test_intersect_agrees_with_direct_route(self):
        # independent route: solve [B1 | -B2] z = 0 and map back through B1
        rng = random.Random(31)
        for _ in range(40):
            n = rng.randint(2, 6)
            s1 = colspace(random_matrix(rng, n, rng.randint(1, n)))
            s2 = colspace(random_matrix(rng, n, rng.randint(1, n)))
            got = intersect(s1, s2)
            if s1.dim == 0 or s2.dim == 0:
                assert got.dim == 0
                continue
            stacked = RatMatrix.hstack(s1.basis, s2.basis.scale(-1))
            ker = nullspace(stacked)
            if ker.dim == 0:
                direct = Subspace.zero(n)
            else:
                kb_rows, kb_den = ker.basis.int_rows()
                coeff = RatMatrix(kb_rows[: s1.dim], kb_den)
                direct = colspace(s1.basis @ coeff)
            assert got == direct

    def test_sum_and_nullspace_examples(self):
        e = RatMatrix.identity(3)
        assert subspace_sum(colspace(e.column(0)), colspace(e.column(1))) == colspace(
            RatMatrix.hstack(e.column(0), e.column(1))
        )
        assert nullspace(ONES3.transpose()) == colspace(C3)
        s3 = RatMatrix.identity(3) - RatMatrix([[1] * 3] * 3, 3)
        assert rank(s3) == 2


class TestIsNnd:
    def test_projector_is_nnd(self):
        assert is_nnd(projector(RatMatrix.ones(2)).matrix)

    def test_negative_identity_is_not(self):
        assert not is_nnd(RatMatrix.identity(2).scale(-1))

    def test_indefinite_two_by_two(self):
        # det = 1*1 - 2*2 = -3 < 0, so one eigenvalue is negative
        m = RatMatrix.from_rows([[1, 2], [2, 1]])
        assert not is_nnd(m)

    def test_zero_diagonal_with_offdiagonal_fails(self):
        m = RatMatrix.from_rows([[0, 1], [1, 0]])
        assert not is_nnd(m)

    def test_gram_matrices_are_nnd(self):
        rng = random.Random(17)
        for _ in range(40):
            a = random_matrix(rng, rng.randint(1, 6), rng.randint(1, 6))
            assert is_nnd(a.transpose() @ a)

    def test_requires_symmetry(self):
        with pytest.raises(ValueError):
            is_nnd(RatMatrix.from_rows([[1, 2], [0, 1]]))


class TestSolveLinear:
    def test_solves_square_system(self):
        a = RatMatrix.from_rows([[2, 1], [1, 3]])
        b = column_vector([5, 10])
        x = solve_linear(a, b)
        assert a @ column_vector(x) == b

    def test_detects_inconsistency(self):
        a = RatMatrix.from_rows([[1, 1], [1, 1]])
        assert solve_linear(a, column_vector([0, 1])) is None

    def test_underdetermined_particular_solution(self):
        rng = random.Random(3)
        for _ in range(30):
            a = random_matrix(rng, rng.randint(1, 5), rng.randint(1, 6))
            xtrue = column_vector([rng.randint(-3, 3) for _ in range(a.ncols)])
            b = a @ xtrue
            x = solve_linear(a, b)
            assert x is not None
            assert a @ column_vector(x) == b
