"""Exact rational matrix arithmetic and subspace calculus.

Every value is immutable and every operation is exact over the rationals,
so matrix equality (and therefore subspace equality, via canonical bases)
is plain structural comparison with no tolerances.

Matrices are stored as integer entries over a single positive denominator.
This keeps the hot paths (echelon reduction, Gram-Schmidt, products) in
native integer arithmetic, which is 30-60x faster than Fraction-per-entry
storage while remaining exact.

Each operation of the subspace calculus has one spelling, on the value
it acts on: `m.colspace` and `m.nullspace` (cached properties),
`m.rank()`, `m.trace()`, `s.complement()` and `s.intersect(t)`; the sum
of two subspaces is `RatMatrix.hstack(s.basis, t.basis).colspace`.  The
module functions are the operations that are more than a forward to a
method: `projector`, `weighted_basis`, `is_projector`, `is_nnd`,
`solve_linear`, `primitive_columns` and `column_vector`.
`m.rank()` is `m.colspace.dim`, and `solve_linear(a, b)` solves for
every column of b in one reduction of `[a | b]`.

A projector is a plain `RatMatrix`, and its rank is `int(p.trace())`.
`projector(m)` returns a `Projector` record of one: its `matrix`, and
`minus`, the nested difference P - Q with its nesting check.  Nothing
checks what it is given; `is_projector` is the one exact check, which
`verify` makes.

The public constructor checks every entry; results built inside this
module from rows that are already integer go through the trusted
`RatMatrix._of`, which skips those checks.  Every echelon form comes
from `_rref_int`, a fraction-free Gauss-Jordan pass on primitive rows,
whose canonical output needs no further gcd reduction.  A kernel costs
one echelon reduction, of the matrix with its columns reversed, whose
free-variable basis is already canonical.  Each Subspace computes its
orthogonal complement at most once.  `s.intersect(t)` restricts s to t:
one kernel, of t's memoized complement against s's basis, whose
canonical basis maps through s's basis to a canonical basis with no
echelon pass on the result.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property
from itertools import chain
from operator import mul
from typing import Sequence

__all__ = [
    "RatMatrix",
    "Subspace",
    "Projector",
    "projector",
    "weighted_basis",
    "is_projector",
    "is_nnd",
    "solve_linear",
    "primitive_columns",
    "column_vector",
]


class RatMatrix:
    """Dense matrix of exact rationals.

    Internally a tuple of integer rows over one positive denominator,
    normalized so that gcd(entries, denominator) == 1.  Matrices with
    zero columns are legal (they carry an ambient row count); matrices
    must have at least one row.
    """

    def __init__(self, num_rows: Sequence[Sequence[int]], den: int = 1):
        rows = []
        for r in num_rows:
            r = tuple(r)
            ints = tuple(map(int, r))
            if ints != r:
                bad = next(v for v, i in zip(r, ints) if v != i)
                raise ValueError(f"entries must be integers, got {bad!r}; use RatMatrix.from_rows for rationals")
            rows.append(ints)
        if not rows:
            raise ValueError("matrix needs at least one row")
        ncols = len(rows[0])
        if any(len(r) != ncols for r in rows):
            raise ValueError("ragged rows")
        d = int(den)
        if d != den:
            raise ValueError(f"denominator must be an integer, got {den!r}; use RatMatrix.from_rows for rationals")
        if d == 0:
            raise ValueError("zero denominator")
        if d < 0:
            d = -d
            rows = [tuple(-v for v in r) for r in rows]
        self._set(rows, d, False)

    @classmethod
    def _of(cls, rows: Sequence[Sequence[int]], den: int = 1, *, normalized: bool = False) -> "RatMatrix":
        """Trusted internal constructor: `rows` are at least one equal-length
        sequence of int and `den` is a positive int, so the per-entry
        coercion and the shape checks of `__init__` are skipped.  Reduces by
        the common gcd unless `normalized` says it is already 1."""
        self = object.__new__(cls)
        self._set(rows, den, normalized)
        return self

    def _set(self, rows: Sequence[Sequence[int]], den: int, normalized: bool) -> None:
        if not normalized and den != 1:
            g = math.gcd(den, *chain.from_iterable(rows))
            if g > 1:
                den //= g
                rows = [tuple([v // g for v in r]) for r in rows]
        self._num: tuple[tuple[int, ...], ...] = tuple(map(tuple, rows))
        self._den: int = den
        self.nrows: int = len(self._num)
        self.ncols: int = len(self._num[0])

    # -- constructors ---------------------------------------------------

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[Fraction | int | str]]) -> "RatMatrix":
        """Build from rows of ints, Fractions, or exact numeric strings."""
        frac_rows = [[Fraction(v) for v in r] for r in rows]
        den = math.lcm(*(v.denominator for r in frac_rows for v in r))
        num = [[v.numerator * (den // v.denominator) for v in r] for r in frac_rows]
        return cls(num, den)

    @classmethod
    def identity(cls, n: int) -> "RatMatrix":
        return cls._of([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def zeros(cls, nrows: int, ncols: int) -> "RatMatrix":
        return cls._of([(0,) * ncols] * nrows)

    @classmethod
    def ones(cls, nrows: int, ncols: int = 1) -> "RatMatrix":
        return cls._of([(1,) * ncols] * nrows)

    # -- basic accessors ------------------------------------------------

    @property
    def shape(self) -> tuple[int, int]:
        return (self.nrows, self.ncols)

    def int_rows(self) -> tuple[tuple[tuple[int, ...], ...], int]:
        """The normalized (integer rows, denominator) pair."""
        return self._num, self._den

    @property
    def is_zero(self) -> bool:
        return all(v == 0 for r in self._num for v in r)

    @property
    def is_square(self) -> bool:
        return self.nrows == self.ncols

    @property
    def is_symmetric(self) -> bool:
        if not self.is_square:
            return False
        m = self._num
        return all(m[i][j] == m[j][i] for i in range(self.nrows) for j in range(i))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RatMatrix):
            return NotImplemented
        return self.shape == other.shape and self._den == other._den and self._num == other._num

    def __hash__(self) -> int:
        return hash((self._num, self._den))

    def __repr__(self) -> str:
        body = "; ".join(" ".join(str(Fraction(v, self._den)) for v in r) for r in self._num)
        return f"RatMatrix({self.nrows}x{self.ncols} [{body}])"

    # -- arithmetic -----------------------------------------------------

    def __add__(self, other: "RatMatrix") -> "RatMatrix":
        return self._combine(other, 1)

    def __sub__(self, other: "RatMatrix") -> "RatMatrix":
        return self._combine(other, -1)

    def _combine(self, other: "RatMatrix", sign: int) -> "RatMatrix":
        """self + sign * other, in one pass over the entries."""
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch: {self.shape} vs {other.shape}")
        d = math.lcm(self._den, other._den)
        fa, fb = d // self._den, sign * (d // other._den)
        num = [
            tuple([fa * a + fb * b for a, b in zip(ra, rb)])
            for ra, rb in zip(self._num, other._num)
        ]
        return RatMatrix._of(num, d)

    def __matmul__(self, other: "RatMatrix") -> "RatMatrix":
        if self.ncols != other.nrows:
            raise ValueError(f"shape mismatch for product: {self.shape} @ {other.shape}")
        if self.ncols == 0:
            return RatMatrix.zeros(self.nrows, other.ncols)
        cols = list(zip(*other._num))
        num = [tuple([sum(map(mul, row, col)) for col in cols]) for row in self._num]
        return RatMatrix._of(num, self._den * other._den)

    def transpose(self) -> "RatMatrix":
        if self.ncols == 0:
            raise ValueError("cannot transpose a zero-column matrix (zero-row matrices are not supported)")
        return RatMatrix._of(list(zip(*self._num)), self._den, normalized=True)

    def kron(self, other: "RatMatrix") -> "RatMatrix":
        num = [
            tuple([a * b for a in ra for b in rb])
            for ra in self._num
            for rb in other._num
        ]
        return RatMatrix._of(num, self._den * other._den)

    @staticmethod
    def hstack(*mats: "RatMatrix") -> "RatMatrix":
        if not mats:
            raise ValueError("hstack of nothing")
        n = mats[0].nrows
        if any(m.nrows != n for m in mats):
            raise ValueError("hstack: row counts differ")
        den = math.lcm(*(m._den for m in mats))
        scaled = [(m._num, den // m._den) for m in mats]
        num = [
            tuple([v * f for rows, f in scaled for v in rows[i]])
            for i in range(n)
        ]
        return RatMatrix._of(num, den)

    def trace(self) -> Fraction:
        if not self.is_square:
            raise ValueError("trace of a non-square matrix")
        return Fraction(sum(self._num[i][i] for i in range(self.nrows)), self._den)

    # -- echelon machinery ----------------------------------------------

    def rank(self) -> int:
        return self.colspace.dim

    @cached_property
    def colspace(self) -> "Subspace":
        """Column space, with canonical (reduced column echelon) basis."""
        if self.ncols == 0 or self.is_zero:
            return Subspace.zero(self.nrows)
        rows, den, _ = _rref_int(list(zip(*self._num)))
        # Already reduced: echelon row i is a primitive row times den/pv_i,
        # and its pivot entry is den, so the gcd of den and every entry
        # divides gcd_i(den/pv_i), which is 1 when den = lcm_i(pv_i).
        return Subspace(self.nrows, RatMatrix._of(list(zip(*rows)), den, normalized=True))

    @cached_property
    def nullspace(self) -> "Subspace":
        """Kernel {x : M x = 0}, a subspace of R^ncols, with canonical basis.

        One reduction, of M with its columns reversed.  Its free-variable
        basis, read back in the original column order, has each vector
        lead with 1 at its own free column, be zero at every other free
        column and be nonzero only at pivot columns after its lead: that
        is already the reduced column echelon form of the kernel.
        """
        n = self.ncols
        if n == 0:
            raise ValueError("nullspace of a zero-column matrix is not representable")
        rows, den, pivs = _rref_int([r[::-1] for r in self._num])
        piv_set = set(pivs)
        # free columns of the reversed matrix, in increasing original order
        free = [c for c in range(n - 1, -1, -1) if c not in piv_set]
        if not free:
            return Subspace.zero(n)
        basis: list[tuple[int, ...]] = [()] * n
        for row, pc in zip(rows, pivs):
            basis[n - 1 - pc] = tuple([-row[c] for c in free])
        zero = [0] * len(free)
        for t, c in enumerate(free):
            unit = zero.copy()
            unit[t] = den
            basis[n - 1 - c] = tuple(unit)
        # Already reduced, as in colspace: row i contributes den/pv_i times
        # its entries off the pivot columns, whose gcd with pv_i is 1 since
        # the row is primitive, so the gcd of den and the basis entries
        # divides gcd_i(den/pv_i) = 1.
        return Subspace(n, RatMatrix._of(basis, den, normalized=True))


def _rref_int(m: list[Sequence[int]]) -> tuple[tuple[tuple[int, ...], ...], int, tuple[int, ...]]:
    """Fraction-free reduced row echelon form of an integer matrix.

    Gauss-Jordan on primitive rows: each pivot row is divided by its
    content and made to lead positive; every other row with a nonzero
    entry f in the pivot column, above or below, becomes
    (p/g) row - (f/g) pivot row for g = gcd(p, f) and is divided by its
    content, and a row with a zero there is left alone.  There is no
    backward pass.  A reduced echelon form with primitive rows and
    positive pivots is unique, so the result is canonical.  Returns the
    pivot rows scaled by one positive denominator `den` = lcm of the
    pivots (pivot entries equal den exactly), plus the pivot column
    indices.  Rows of `m` are replaced, never changed in place.
    """
    nr = len(m)
    nc = len(m[0]) if nr else 0
    piv_cols: list[int] = []
    r = 0
    for c in range(nc):
        pr = -1
        for i in range(r, nr):
            if m[i][c]:
                pr = i
                break
        if pr < 0:
            continue
        row_r = m[pr]
        if pr != r:
            m[pr] = m[r]
        g = math.gcd(*row_r)
        if row_r[c] < 0:
            g = -g
        if g != 1:
            row_r = [v // g for v in row_r]
        m[r] = row_r
        p = row_r[c]
        for i, row_i in enumerate(m):
            f = row_i[c]
            if f and i != r:
                g = math.gcd(p, f)
                a, b = p // g, f // g
                new = [a * x - b * y for x, y in zip(row_i, row_r)]
                g = math.gcd(*new)
                if g > 1:
                    new = [v // g for v in new]
                m[i] = new
        piv_cols.append(c)
        r += 1
        if r == nr:
            break
    pivots = [m[i][c] for i, c in enumerate(piv_cols)]
    den = math.lcm(*pivots)
    out = tuple(
        tuple(row) if pv == den else tuple([v * (den // pv) for v in row])
        for row, pv in zip(m, pivots)
    )
    return out, den, tuple(piv_cols)


class Subspace:
    """A linear subspace of R^n held by its canonical basis.

    The basis is the reduced column echelon form of any spanning set
    (leading entries 1, ordered by first nonzero row), so equal
    subspaces have structurally identical bases and `==` is exact.
    """

    __slots__ = ("ambient", "basis", "_comp")

    def __init__(self, ambient: int, basis: RatMatrix):
        if basis.nrows != ambient:
            raise ValueError("basis rows must match ambient dimension")
        self.ambient = ambient
        self.basis = basis
        self._comp: Subspace | None = None

    @classmethod
    def zero(cls, ambient: int) -> "Subspace":
        return cls(ambient, RatMatrix.zeros(ambient, 0))

    @classmethod
    def full(cls, ambient: int) -> "Subspace":
        return cls(ambient, RatMatrix.identity(ambient))

    @property
    def dim(self) -> int:
        return self.basis.ncols

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Subspace):
            return NotImplemented
        return self.ambient == other.ambient and self.basis == other.basis

    def __hash__(self) -> int:
        return hash((self.ambient, self.basis))

    def __repr__(self) -> str:
        return f"Subspace(dim {self.dim} of R^{self.ambient})"

    def complement(self) -> "Subspace":
        """Orthogonal complement within the ambient space.

        Computed once per object: a Subspace is immutable.  The complement
        keeps no link back, so memoizing makes no reference cycle.
        """
        if self._comp is None:
            if self.dim == 0:
                self._comp = Subspace.full(self.ambient)
            else:
                self._comp = self.basis.transpose().nullspace
        return self._comp

    def intersect(self, other: "Subspace") -> "Subspace":
        """Intersection, as the restriction of self to other: with B the
        canonical basis of self and W a basis of other's (memoized)
        complement, self ∩ other = B ker(W'B).

        The kernel is one small reduction, dim other^⊥ x dim self.  Its
        canonical basis K makes B K canonical with no further pass: column
        i of B is zero above its pivot row p_i, and row p_i of B is e_i, so
        column j of B K leads with 1 at p_l for K's lead l of column j, and
        every other column is 0 there.  So B K copies K's row i at row
        p_i; only the other rows take dot products.
        """
        if self.ambient != other.ambient:
            raise ValueError("ambient dimension mismatch")
        w_num = other.complement().basis._num
        s = self.dim
        if s == 0 or not w_num[0]:
            return self
        b_num, b_den = self.basis._num, self.basis._den
        b_cols = list(zip(*b_num))
        wb = [[sum(map(mul, wc, bc)) for bc in b_cols] for wc in zip(*w_num)]
        ker = RatMatrix._of(wb, normalized=True).nullspace
        if ker.dim == 0:
            return Subspace.zero(self.ambient)
        k_num, k_den = ker.basis._num, ker.basis._den
        k_cols = list(zip(*k_num))
        rows: list[tuple[int, ...]] = []
        i = 0
        for row in b_num:
            if i < s and row[i]:
                rows.append(tuple([b_den * v for v in k_num[i]]))
                i += 1
            else:
                rows.append(tuple([sum(map(mul, row, kc)) for kc in k_cols]))
        return Subspace(self.ambient, RatMatrix._of(rows, b_den * k_den))


class Projector:
    """The record `projector(m)` returns: the projection matrix, and
    `minus`, the difference of nested projectors as a plain matrix."""

    __slots__ = ("matrix",)

    def __init__(self, matrix: RatMatrix):
        self.matrix = matrix

    def minus(self, other: "Projector") -> RatMatrix:
        """P - Q for nested projectors; requires sp(Q) inside sp(P)."""
        if self.matrix.shape != other.matrix.shape:
            raise ValueError("ambient dimension mismatch")
        if self.matrix @ other.matrix != other.matrix:
            raise ValueError("projector difference requires nested ranges")
        return self.matrix - other.matrix


def weighted_basis(m: RatMatrix, weights: Sequence[int] | None = None) -> list[tuple[list[int], int] | None]:
    """Gram-Schmidt without normalization over the columns of m, in order,
    in the inner product u'Wv with W = diag(weights) (the identity when
    weights is None), so everything stays integer.

    One entry per column: (u, u'Wu) for an integer multiple u of what the
    column leaves once the earlier kept vectors are projected out, or None
    where u'Wu = 0 (the column adds nothing).  With nonnegative weights
    the sum of u u'/(u'Wu) over the kept entries is M (M'WM)^- M' and their
    number is rank(W^(1/2) M).  Gram-Schmidt never looks ahead, so the
    entries of a column prefix are the prefix's own: the entries past the
    prefix carry exactly what the later columns add to it.
    """
    if weights is not None and (len(weights) != m.nrows or any(d < 0 for d in weights)):
        raise ValueError("need one nonnegative weight per row")
    out: list[tuple[list[int], int] | None] = []
    kept: list[tuple[list[int], list[int], int]] = []
    for col in zip(*m._num):
        w = list(col)
        for u, wu, uu in kept:
            uw = sum(map(mul, wu, w))
            if uw:
                w = [uu * a - uw * b for a, b in zip(w, u)]
                g = math.gcd(*w)
                if g > 1:
                    w = [v // g for v in w]
        ww = w if weights is None else [d * v for d, v in zip(weights, w)]
        norm = sum(map(mul, ww, w))
        if norm:
            kept.append((w, ww, norm))
            out.append((w, norm))
        else:
            out.append(None)
    return out


def projector(m: RatMatrix) -> Projector:
    """Orthogonal projector onto the column space of m:
    P = sum of u u'/(u'u) over the orthogonal basis of `weighted_basis(m)`."""
    n = m.nrows
    kept = [e for e in weighted_basis(m) if e is not None]
    den = math.lcm(*(uu for _, uu in kept))
    num = [[0] * n for _ in range(n)]
    for u, uu in kept:
        c = den // uu
        for i, ui in enumerate(u):
            if ui:
                cui = c * ui
                row = num[i]
                for j, uj in enumerate(u):
                    if uj:
                        row[j] += cui * uj
    return Projector(RatMatrix._of(num, den))


def is_projector(m: RatMatrix) -> bool:
    """Exact test that m is an orthogonal projection matrix: symmetric
    (hence square) and idempotent."""
    return m.is_symmetric and m @ m == m


def is_nnd(m: RatMatrix) -> bool:
    """Exact nonnegative-definiteness test for a symmetric rational matrix.

    Diagonal-pivoted elimination over integers: repeatedly pivot on a
    positive diagonal entry and form the (rescaled) Schur complement.
    The matrix is nnd iff no negative diagonal ever appears and any
    remaining all-zero-diagonal block is entirely zero.
    """
    if not m.is_square:
        raise ValueError("nnd test needs a square matrix")
    if not m.is_symmetric:
        raise ValueError("nnd test needs a symmetric matrix")
    a = [list(r) for r in m._num]
    active = list(range(m.nrows))
    while active:
        pivot = -1
        for i in active:
            d = a[i][i]
            if d < 0:
                return False
            if d > 0 and pivot < 0:
                pivot = i
        if pivot < 0:
            return all(a[i][j] == 0 for i in active for j in active)
        active.remove(pivot)
        d = a[pivot][pivot]
        col = {i: a[i][pivot] for i in active}
        for i in active:
            ci = col[i]
            row = a[i]
            arow = a[pivot]
            for j in active:
                row[j] = d * row[j] - ci * arow[j]
        g = math.gcd(*(a[i][j] for i in active for j in active))
        if g > 1:
            for i in active:
                row = a[i]
                for j in active:
                    row[j] //= g
    return True


def solve_linear(a: RatMatrix, b: RatMatrix) -> RatMatrix | None:
    """A particular rational solution X of a X = b, with one column per
    column of b, or None if any column is inconsistent.

    One reduction of [a | b]; free variables are set to zero.
    """
    n = a.ncols
    if b.nrows != a.nrows or n == 0:
        raise ValueError("need a with columns and b with as many rows as a")
    rows, den, pivs = _rref_int(list(RatMatrix.hstack(a, b)._num))
    if pivs and pivs[-1] >= n:
        return None
    x = [(0,) * b.ncols] * n
    for row, pc in zip(rows, pivs):
        x[pc] = row[n:]
    return RatMatrix._of(x, den)


def primitive_columns(m: RatMatrix) -> list[list[int]]:
    """Integer-scaled representatives of the columns: denominators cleared,
    each column divided by its gcd, first nonzero entry positive.  Scaling
    does not change the spanned subspace."""
    out: list[list[int]] = []
    for j in range(m.ncols):
        col = [m._num[i][j] for i in range(m.nrows)]
        g = math.gcd(*col)
        if g > 1:
            col = [v // g for v in col]
        lead = next((v for v in col if v), 0)
        if lead < 0:
            col = [-v for v in col]
        out.append(col)
    return out


def column_vector(values: Sequence[Fraction | int | str]) -> RatMatrix:
    return RatMatrix.from_rows([[v] for v in values])
