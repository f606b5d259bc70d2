"""Unit tests for the exact linear algebra core."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exanova import exactlin
from exanova.exactlin import (
    Projector,
    RatMatrix,
    Subspace,
    column_vector,
    is_nnd,
    is_projector,
    projector,
    solve_linear,
    weighted_basis,
)

F = Fraction

C3 = RatMatrix.from_rows([[2, 0], [-1, 1], [-1, -1]])
ONES3 = RatMatrix.ones(3)


def fraction_rows(m: RatMatrix) -> list[list[Fraction]]:
    """The entries of m as Fractions, row by row."""
    num, den = m.int_rows()
    return [[F(v, den) for v in r] for r in num]


def fraction_columns(m: RatMatrix) -> list[list[Fraction]]:
    return [list(c) for c in zip(*fraction_rows(m))]


def slow_canonical_colspace(m: RatMatrix) -> list[list[Fraction]]:
    """Independent oracle: reduced column echelon by Fraction Gauss-Jordan."""
    cols = fraction_columns(m)
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
    a = fraction_rows(m)
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


@st.composite
def wide_int_matrices(draw):
    """Rank-deficient integer matrices up to 8 x 8 with entries up to 2^80,
    some with a zero leading column or row and some whose first pivot,
    of the matrix and of its transpose, is negative."""
    nrows = draw(st.integers(1, 8))
    ncols = draw(st.integers(1, 8))
    bound = draw(st.sampled_from((4, 2**40, 2**80)))
    r = draw(st.integers(1, max(1, min(nrows, ncols) - 1)))
    a = draw(st.lists(st.lists(st.integers(-bound, bound), min_size=r, max_size=r),
                      min_size=nrows, max_size=nrows))
    b = draw(int_rows(r, ncols))
    rows = [[sum(x * y for x, y in zip(ra, cb)) for cb in zip(*b)] for ra in a]
    lead = draw(st.sampled_from(("any", "zero column", "zero row", "negative")))
    if lead == "zero column":
        for row in rows:
            row[0] = 0
    elif lead == "zero row":
        rows[0] = [0] * ncols
    elif lead == "negative" and rows[0][0] > 0:
        rows[0] = [-v for v in rows[0]]
    return RatMatrix(rows)


@st.composite
def subspace_pairs(draw):
    """Two subspaces of one R^n, n up to 6, spanned by at most n - 1
    rational columns over a denominator above 1.  The second is random,
    zero, full, spans the first plus more, or shares one vector with it;
    the pair is drawn in either order."""
    n = draw(st.integers(2, 6))

    def columns():
        return RatMatrix(draw(int_rows(n, draw(st.integers(1, n - 1)))), draw(st.integers(2, 9)))

    s = columns().colspace
    kind = draw(st.sampled_from(("random", "zero", "full", "nested", "shared")))
    if kind == "zero":
        t = Subspace.zero(n)
    elif kind == "full":
        t = Subspace.full(n)
    elif kind == "nested":
        t = RatMatrix.hstack(s.basis, columns()).colspace
    elif kind == "shared" and s.dim:
        t = RatMatrix.hstack(s.basis @ RatMatrix(draw(int_rows(s.dim, 1))), columns()).colspace
    else:
        t = columns().colspace
    return (t, s) if draw(st.booleans()) else (s, t)


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
        assert m == RatMatrix([[3, 12], [2, -6]], 6)
        assert fraction_rows(m) == [[F(1, 2), 2], [F(1, 3), -1]]

    def test_normalization_gives_structural_equality(self):
        a = RatMatrix([[2, 4], [6, 8]], 4)
        b = RatMatrix([[1, 2], [3, 4]], 2)
        assert a == b
        assert hash(a) == hash(b)

    def test_product_and_kron(self):
        a = RatMatrix.from_rows([[1, 2], [3, 4]])
        v = column_vector([1, 1])
        assert a @ v == RatMatrix.from_rows([[3], [7]])
        k = RatMatrix.identity(2).kron(RatMatrix.ones(2))
        assert k.shape == (4, 2)
        assert k == RatMatrix.from_rows([[1, 0], [1, 0], [0, 1], [0, 1]])

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
        s = RatMatrix.identity(3).colspace
        assert s.dim == 3
        assert s == Subspace.full(3)

    def test_ones_column(self):
        s = ONES3.colspace
        assert s.dim == 1
        assert s.basis == ONES3

    def test_contrast_columns_span_complement_of_ones(self):
        assert C3.colspace == ONES3.colspace.complement()
        assert C3.colspace.dim == 2

    def test_zero_matrix_gives_zero_subspace(self):
        assert RatMatrix.zeros(4, 2).colspace == Subspace.zero(4)

    def test_canonical_basis_matches_fraction_oracle(self):
        rng = random.Random(421)
        for _ in range(80):
            nr = rng.randint(1, 8)
            nc = rng.randint(1, 8)
            m = random_matrix(rng, nr, nc, max_rank=rng.choice([None, 1, 2, 3]))
            got = m.colspace
            want = slow_canonical_colspace(m)
            assert got.dim == len(want)
            assert fraction_columns(got.basis) == want

    @settings(derandomize=True, max_examples=80, deadline=None)
    @given(m=int_matrices())
    def test_nullspace_is_canonical_kernel(self, m):
        got = m.nullspace
        assert (m @ got.basis).is_zero
        vecs = slow_kernel_basis(m)
        assert got.dim == len(vecs)
        if not vecs:
            assert got == Subspace.zero(m.ncols)
            return
        spanning = RatMatrix.from_rows([list(r) for r in zip(*vecs)])
        # one reduction gives the basis the two-reduction route gives
        assert got == spanning.colspace
        assert fraction_columns(got.basis) == slow_canonical_colspace(spanning)

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(m=wide_int_matrices())
    def test_wide_entries_match_fraction_oracles(self, m):
        col = m.colspace
        assert fraction_columns(col.basis) == slow_canonical_colspace(m)
        ker = m.nullspace
        vecs = slow_kernel_basis(m)
        assert ker.dim == len(vecs)
        if vecs:
            spanning = RatMatrix.from_rows([list(r) for r in zip(*vecs)])
            assert fraction_columns(ker.basis) == slow_canonical_colspace(spanning)
        # both bases are built as already reduced; the public constructor,
        # which reduces by the gcd, must give the same matrix
        for s in (col, ker):
            if s.dim:
                assert RatMatrix(*s.basis.int_rows()) == s.basis

    def test_same_span_same_basis(self):
        rng = random.Random(7)
        for _ in range(30):
            m = random_matrix(rng, 5, 3)
            mix = random_matrix(rng, 3, 4)
            scaled = (m @ mix)
            s1 = m.colspace
            s2 = RatMatrix.hstack(m, scaled).colspace
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
            p = projector(m).matrix
            assert p.is_symmetric
            assert p @ p == p
            assert p.trace() == m.rank()
            assert p @ m == m

    def test_zero_matrix_gives_zero_projector(self):
        assert projector(RatMatrix.zeros(3, 2)).matrix == RatMatrix.zeros(3, 3)

    def test_is_projector_rejects_junk(self):
        assert not is_projector(RatMatrix.from_rows([[1, 2], [2, 1]]))  # not idempotent
        assert not is_projector(RatMatrix.from_rows([[1, 1], [0, 1]]))  # not symmetric
        assert not is_projector(RatMatrix.ones(2, 3))  # not square
        for m in (RatMatrix.zeros(3, 2), RatMatrix.identity(4), ONES3, C3):
            assert is_projector(projector(m).matrix)

    def test_nested_difference(self):
        p = projector(RatMatrix.identity(3))
        q = projector(ONES3)
        d = p.minus(q)
        assert d == RatMatrix.identity(3) - RatMatrix([[1] * 3] * 3, 3)
        with pytest.raises(ValueError):
            q.minus(Projector(d))
        with pytest.raises(ValueError):
            p.minus(projector(RatMatrix.identity(2)))


def weighted_sum(entries, n: int) -> RatMatrix:
    """sum of u u'/(u'Wu) over the kept entries of weighted_basis."""
    total = [[F(0)] * n for _ in range(n)]
    for u, uu in filter(None, entries):
        for i in range(n):
            for j in range(n):
                total[i][j] += F(u[i] * u[j], uu)
    return RatMatrix.from_rows(total)


class TestWeightedBasis:
    def test_unit_weights_give_projector(self):
        m = RatMatrix.from_rows([[1, 2], [1, 0], [1, -1], [1, 4]])
        entries = weighted_basis(m, [1, 1, 1, 1])
        assert weighted_sum(entries, 4) == projector(m).matrix
        assert weighted_basis(m) == entries
        assert sum(e is not None for e in entries) == 2

    def test_matches_observation_space_projector(self):
        # K (sum u u'/u'Wu) K' is the projector onto sp(K M) for the
        # incidence K of the weights, zero weights (empty cells) included
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
            entries = weighted_basis(m, weights)
            assert len(entries) == p
            assert k @ weighted_sum(entries, c) @ k.transpose() == projector(k @ m).matrix
            assert sum(e is not None for e in entries) == (k @ m).rank()

    def test_prefix_entries_are_the_prefix_basis(self):
        rng = random.Random(23)
        for _ in range(30):
            c, p = rng.randint(2, 6), rng.randint(2, 5)
            rows = [[rng.randint(-2, 2) for _ in range(p)] for _ in range(c)]
            weights = [rng.choice((0, 1, 2, 3)) for _ in range(c)]
            entries = weighted_basis(RatMatrix.from_rows(rows), weights)
            for w in range(1, p):
                prefix = RatMatrix.from_rows([r[:w] for r in rows])
                assert weighted_basis(prefix, weights) == entries[:w]

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            weighted_basis(RatMatrix.identity(2), [1, -1])
        with pytest.raises(ValueError):
            weighted_basis(RatMatrix.identity(2), [1])


class TestSubspaceCalculus:
    def test_complement_examples(self):
        assert ONES3.colspace.complement() == C3.colspace
        assert Subspace.zero(2).complement() == Subspace.full(2)
        assert Subspace.full(2).complement() == Subspace.zero(2)

    def test_complement_involution(self):
        rng = random.Random(5)
        for _ in range(40):
            s = random_matrix(rng, rng.randint(1, 7), rng.randint(1, 7),
                              max_rank=rng.choice([None, 1, 2])).colspace
            assert s.complement().complement() == s

    @settings(derandomize=True, max_examples=30, deadline=None)
    @given(m=int_matrices())
    def test_complement_is_memoized(self, m):
        s = m.colspace
        assert s.complement() is s.complement()
        assert s.complement().complement() == s

    def test_intersect_examples(self):
        e1, e2, e3 = (column_vector([int(i == j) for i in range(3)]) for j in range(3))
        s12 = RatMatrix.hstack(e1, e2).colspace
        s23 = RatMatrix.hstack(e2, e3).colspace
        assert s12.intersect(s23) == e2.colspace
        assert s12.intersect(s12) == s12
        with pytest.raises(ValueError):
            Subspace.zero(2).intersect(Subspace.zero(3))

    def test_intersect_agrees_with_direct_route(self):
        # independent route: solve [B1 | -B2] z = 0 and map back through B1
        rng = random.Random(31)
        for _ in range(40):
            n = rng.randint(2, 6)
            s1 = random_matrix(rng, n, rng.randint(1, n)).colspace
            s2 = random_matrix(rng, n, rng.randint(1, n)).colspace
            got = s1.intersect(s2)
            if s1.dim == 0 or s2.dim == 0:
                assert got.dim == 0
                continue
            stacked = RatMatrix.hstack(s1.basis, RatMatrix.zeros(n, s2.dim) - s2.basis)
            ker = stacked.nullspace
            if ker.dim == 0:
                direct = Subspace.zero(n)
            else:
                kb_rows, kb_den = ker.basis.int_rows()
                coeff = RatMatrix(kb_rows[: s1.dim], kb_den)
                direct = (s1.basis @ coeff).colspace
            assert got == direct

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(pair=subspace_pairs())
    def test_intersect_matches_complement_of_summed_complements(self, pair):
        s, t = pair
        got = s.intersect(t)
        old = RatMatrix.hstack(s.complement().basis, t.complement().basis).colspace.complement()
        assert got == old
        assert got.basis.colspace.basis == got.basis

    def test_intersect_makes_one_reduction(self, monkeypatch):
        s = RatMatrix.from_rows([[1, 0], [F(1, 2), 1], [0, 3], [2, 0]]).colspace
        t = RatMatrix.from_rows([[1, 0], [F(3, 2), 0], [3, 0], [2, F(1, 3)]]).colspace
        s.complement(), t.complement()
        calls = []
        rref = exactlin._rref_int
        monkeypatch.setattr(exactlin, "_rref_int", lambda m: calls.append(1) or rref(m))
        assert s.intersect(t).dim == 1
        assert len(calls) == 1

    def test_sum_and_nullspace_examples(self):
        assert ONES3.transpose().nullspace == C3.colspace
        s3 = RatMatrix.identity(3) - RatMatrix([[1] * 3] * 3, 3)
        assert s3.rank() == 2


class TestIsNnd:
    def test_projector_is_nnd(self):
        assert is_nnd(projector(RatMatrix.ones(2)).matrix)

    def test_negative_identity_is_not(self):
        assert not is_nnd(RatMatrix([[-1, 0], [0, -1]]))

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
        assert x.shape == (2, 1)
        assert a @ x == b

    def test_detects_inconsistency(self):
        a = RatMatrix.from_rows([[1, 1], [1, 1]])
        assert solve_linear(a, column_vector([0, 1])) is None
        # one inconsistent column makes the whole system inconsistent
        b = RatMatrix.from_rows([[1, 0], [1, 1]])
        assert solve_linear(a, b) is None

    def test_underdetermined_particular_solution(self):
        rng = random.Random(3)
        for _ in range(30):
            a = random_matrix(rng, rng.randint(1, 5), rng.randint(1, 6))
            xtrue = column_vector([rng.randint(-3, 3) for _ in range(a.ncols)])
            b = a @ xtrue
            x = solve_linear(a, b)
            assert x is not None
            assert a @ x == b

    def test_many_right_hand_sides_match_one_at_a_time(self):
        rng = random.Random(8)
        for _ in range(30):
            a = random_matrix(rng, rng.randint(1, 5), rng.randint(1, 6))
            cols = [a @ random_matrix(rng, a.ncols, 1) for _ in range(rng.randint(0, 4))]
            b = RatMatrix.hstack(RatMatrix.zeros(a.nrows, 0), *cols)
            x = solve_linear(a, b)
            assert x is not None and x.shape == (a.ncols, b.ncols)
            assert a @ x == b
            one_at_a_time = (solve_linear(a, c) for c in cols)
            assert RatMatrix.hstack(RatMatrix.zeros(a.ncols, 0), *one_at_a_time) == x
