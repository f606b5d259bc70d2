"""Exact rational matrix arithmetic and subspace calculus.

Every value is immutable and every operation is exact over the rationals,
so matrix equality (and therefore subspace equality, via canonical bases)
is plain structural comparison with no tolerances.

Matrices are stored as integer entries over a single positive denominator.
This keeps the hot paths (echelon reduction, Gram-Schmidt, products) in
native integer arithmetic, which is 30-60x faster than Fraction-per-entry
storage while remaining exact.

The public constructor checks every entry; results built inside this
module from rows that are already integer go through the trusted
`RatMatrix._of`, which skips those checks.  A kernel costs one echelon
reduction, of the matrix with its columns reversed, whose free-variable
basis is already canonical.  Each Subspace computes its orthogonal
complement at most once, so `intersect`, which is the complement of the
sum of the complements, reuses the complements of operands it has seen.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property
from operator import mul
from typing import Iterable, Sequence

Rat = Fraction

__all__ = [
    "Rat",
    "RatMatrix",
    "Subspace",
    "Projector",
    "colspace",
    "nullspace",
    "projector",
    "weighted_fit",
    "complement",
    "intersect",
    "subspace_sum",
    "rank",
    "trace",
    "is_nnd",
    "solve_linear",
    "primitive_columns",
    "column_vector",
]


def _lcm(a: int, b: int) -> int:
    return a // math.gcd(a, b) * b


def _content(values: Iterable[int], start: int = 0) -> int:
    """gcd of all values (and `start`); 0 only if everything is zero."""
    g = start
    for v in values:
        if v:
            g = math.gcd(g, v)
            if g == 1:
                return 1
    return g


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
            g = _content((v for r in rows for v in r), start=den)
            if g > 1:
                den //= g
                rows = [tuple(v // g for v in r) for r in rows]
        self._num: tuple[tuple[int, ...], ...] = tuple(map(tuple, rows))
        self._den: int = den
        self.nrows: int = len(self._num)
        self.ncols: int = len(self._num[0])

    # -- constructors ---------------------------------------------------

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[Fraction | int | str]]) -> "RatMatrix":
        """Build from rows of ints, Fractions, or exact numeric strings."""
        frac_rows = [[Fraction(v) for v in r] for r in rows]
        den = 1
        for r in frac_rows:
            for v in r:
                den = _lcm(den, v.denominator)
        num = [[v.numerator * (den // v.denominator) for v in r] for r in frac_rows]
        return cls(num, den)

    @classmethod
    def identity(cls, n: int) -> "RatMatrix":
        return cls._of([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def zeros(cls, nrows: int, ncols: int) -> "RatMatrix":
        return cls._of([(0,) * ncols] * nrows)

    @classmethod
    def diagonal(cls, values: Sequence[int]) -> "RatMatrix":
        n = len(values)
        return cls([[values[i] if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def ones(cls, nrows: int, ncols: int = 1) -> "RatMatrix":
        return cls._of([(1,) * ncols] * nrows)

    # -- basic accessors ------------------------------------------------

    @property
    def shape(self) -> tuple[int, int]:
        return (self.nrows, self.ncols)

    def entry(self, i: int, j: int) -> Fraction:
        return Fraction(self._num[i][j], self._den)

    def column(self, j: int) -> "RatMatrix":
        return RatMatrix._of([(r[j],) for r in self._num], self._den)

    def to_rows(self) -> list[list[Fraction]]:
        d = self._den
        return [[Fraction(v, d) for v in r] for r in self._num]

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
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch: {self.shape} vs {other.shape}")
        d = _lcm(self._den, other._den)
        fa, fb = d // self._den, d // other._den
        num = [
            tuple(fa * a + fb * b for a, b in zip(ra, rb))
            for ra, rb in zip(self._num, other._num)
        ]
        return RatMatrix._of(num, d)

    def __sub__(self, other: "RatMatrix") -> "RatMatrix":
        return self + (-other)

    def __neg__(self) -> "RatMatrix":
        return RatMatrix._of([tuple(-v for v in r) for r in self._num], self._den, normalized=True)

    def scale(self, c: Fraction | int) -> "RatMatrix":
        c = Fraction(c)
        num = [tuple(c.numerator * v for v in r) for r in self._num]
        return RatMatrix._of(num, self._den * c.denominator)

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

    @property
    def T(self) -> "RatMatrix":
        return self.transpose()

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
        den = 1
        for m in mats:
            den = _lcm(den, m._den)
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

    @cached_property
    def _rref(self) -> tuple[tuple[tuple[int, ...], ...], int, tuple[int, ...]]:
        """Reduced row echelon form of this matrix, as (pivot rows, den, pivot cols).

        Denominator-free: the row space does not depend on the stored
        denominator, so only the integer rows enter.
        """
        return _rref_int([list(r) for r in self._num])

    def rank(self) -> int:
        if self.ncols == 0:
            return 0
        return len(self._rref[2])

    @cached_property
    def colspace(self) -> "Subspace":
        """Column space, with canonical (reduced column echelon) basis."""
        if self.ncols == 0 or self.is_zero:
            return Subspace.zero(self.nrows)
        rows, den, _ = self.transpose()._rref
        return Subspace(self.nrows, RatMatrix._of(list(zip(*rows)), den))

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
        return Subspace(n, RatMatrix._of(basis, den))


def _rref_int(m: list[list[int]]) -> tuple[tuple[tuple[int, ...], ...], int, tuple[int, ...]]:
    """Fraction-free reduced row echelon form of an integer matrix.

    Forward pass is Bareiss elimination (single-step exact division by
    the previous pivot); the backward pass clears above pivots with
    cross-multiplication and per-row gcd reduction.  Returns the pivot
    rows scaled by one positive denominator `den` (pivot entries equal
    den exactly), plus the pivot column indices.
    """
    nr = len(m)
    nc = len(m[0]) if nr else 0
    piv_cols: list[int] = []
    prev = 1
    r = 0
    for c in range(nc):
        pr = -1
        for i in range(r, nr):
            if m[i][c]:
                pr = i
                break
        if pr < 0:
            continue
        if pr != r:
            m[r], m[pr] = m[pr], m[r]
        p = m[r][c]
        for i in range(r + 1, nr):
            f = m[i][c]
            row_i = m[i]
            if f:
                row_r = m[r]
                m[i] = [(p * a - f * b) // prev for a, b in zip(row_i, row_r)]
            elif p != prev:
                m[i] = [(p * a) // prev for a in row_i]
        prev = p
        piv_cols.append(c)
        r += 1
        if r == nr:
            break
    k = len(piv_cols)
    for idx in range(k - 1, -1, -1):
        c = piv_cols[idx]
        row_p = m[idx]
        p = row_p[c]
        for i in range(idx):
            f = m[i][c]
            if f:
                new = [p * a - f * b for a, b in zip(m[i], row_p)]
                g = _content(new)
                if g > 1:
                    new = [v // g for v in new]
                m[i] = new
    prim: list[list[int]] = []
    piv_vals: list[int] = []
    for idx in range(k):
        row = m[idx]
        g = _content(row)
        if g > 1:
            row = [v // g for v in row]
        if row[piv_cols[idx]] < 0:
            row = [-v for v in row]
        prim.append(row)
        piv_vals.append(row[piv_cols[idx]])
    den = 1
    for p in piv_vals:
        den = _lcm(den, p)
    out = tuple(
        tuple(v * (den // pv) for v in row) for row, pv in zip(prim, piv_vals)
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

    def sum(self, other: "Subspace") -> "Subspace":
        if self.ambient != other.ambient:
            raise ValueError("ambient dimension mismatch")
        return RatMatrix.hstack(self.basis, other.basis).colspace

    def intersect(self, other: "Subspace") -> "Subspace":
        """Intersection, computed as the complement of the sum of complements."""
        if self.ambient != other.ambient:
            raise ValueError("ambient dimension mismatch")
        return self.complement().sum(other.complement()).complement()

    def projector(self) -> "Projector":
        return projector(self.basis)


class Projector:
    """Orthogonal projection matrix: symmetric, idempotent, integer trace."""

    __slots__ = ("matrix", "nu")

    def __init__(self, matrix: RatMatrix, *, check: bool = True):
        if check:
            if not matrix.is_square:
                raise ValueError("projector matrix must be square")
            if not matrix.is_symmetric:
                raise ValueError("projector matrix must be symmetric")
            if matrix @ matrix != matrix:
                raise ValueError("projector matrix must be idempotent")
        tr = matrix.trace()
        if tr.denominator != 1 or tr < 0:
            raise ValueError("projector trace must be a nonnegative integer")
        self.matrix = matrix
        self.nu = int(tr)

    @classmethod
    def zero(cls, n: int) -> "Projector":
        return cls(RatMatrix.zeros(n, n), check=False)

    @classmethod
    def identity(cls, n: int) -> "Projector":
        return cls(RatMatrix.identity(n), check=False)

    @property
    def ambient(self) -> int:
        return self.matrix.nrows

    def apply(self, v: RatMatrix) -> RatMatrix:
        return self.matrix @ v

    def complement(self) -> "Projector":
        return Projector(RatMatrix.identity(self.ambient) - self.matrix, check=False)

    def minus(self, other: "Projector") -> "Projector":
        """Difference of nested projectors; requires sp(other) inside sp(self)."""
        if self.ambient != other.ambient:
            raise ValueError("ambient dimension mismatch")
        if self.matrix @ other.matrix != other.matrix:
            raise ValueError("projector difference requires nested ranges")
        return Projector(self.matrix - other.matrix, check=False)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Projector):
            return NotImplemented
        return self.matrix == other.matrix

    def __hash__(self) -> int:
        return hash(self.matrix)

    def __repr__(self) -> str:
        return f"Projector(rank {self.nu} on R^{self.ambient})"


# -- operation forms of the subspace calculus -----------------------------


def colspace(m: RatMatrix) -> Subspace:
    """Subspace spanned by the columns of m, with canonical basis."""
    return m.colspace


def nullspace(m: RatMatrix) -> Subspace:
    return m.nullspace


def rank(m: RatMatrix) -> int:
    return m.rank()


def trace(m: RatMatrix) -> Fraction:
    return m.trace()


def complement(s: Subspace) -> Subspace:
    return s.complement()


def intersect(s1: Subspace, s2: Subspace) -> Subspace:
    return s1.intersect(s2)


def subspace_sum(s1: Subspace, s2: Subspace) -> Subspace:
    return s1.sum(s2)


def _gram_sum(m: RatMatrix, weights: Sequence[int] | None = None) -> tuple[RatMatrix, int]:
    """sum of u u'/(u'Wu) over a W-orthogonal integer basis of sp(m), and
    the number of basis vectors, where W = diag(weights) (the identity
    when weights is None).

    Gram-Schmidt without normalization, so everything stays rational.
    A column whose remainder has u'Wu = 0 is dropped; with nonnegative
    weights the sum is then M (M'WM)^- M' and the count is
    rank(W^(1/2) M).
    """
    n = m.nrows
    ortho: list[list[int]] = []
    wortho: list[list[int]] = []
    norms: list[int] = []
    if m.ncols:
        for col in zip(*m._num):
            w = list(col)
            for u, wu, uu in zip(ortho, wortho, norms):
                uw = sum(map(mul, wu, w))
                if uw:
                    w = [uu * a - uw * b for a, b in zip(w, u)]
                    g = _content(w)
                    if g > 1:
                        w = [v // g for v in w]
            ww = w if weights is None else [d * v for d, v in zip(weights, w)]
            norm = sum(map(mul, ww, w))
            if norm:
                ortho.append(w)
                wortho.append(ww)
                norms.append(norm)
    den = 1
    for uu in norms:
        den = _lcm(den, uu)
    num = [[0] * n for _ in range(n)]
    for u, uu in zip(ortho, norms):
        c = den // uu
        for i, ui in enumerate(u):
            if ui:
                cui = c * ui
                row = num[i]
                for j, uj in enumerate(u):
                    if uj:
                        row[j] += cui * uj
    return RatMatrix._of(num, den), len(ortho)


def projector(m: RatMatrix) -> Projector:
    """Orthogonal projector onto the column space of m:
    P = sum of u u'/(u'u) over an orthogonal integer basis."""
    return Projector(_gram_sum(m)[0], check=False)


def weighted_fit(m: RatMatrix, weights: Sequence[int]) -> tuple[RatMatrix, int]:
    """A = M (M'WM)^- M' for W = diag(weights) with nonnegative integer
    weights, together with rank(W^(1/2) M).

    With W = K'K for an incidence matrix K, K A K' is the orthogonal
    projector onto sp(K M), so for cell totals t = K'y the fitted sum
    of squares is t'At.  W A W does not depend on the g-inverse chosen,
    which is what makes A usable even when some weights are zero.
    """
    if len(weights) != m.nrows or any(d < 0 for d in weights):
        raise ValueError("need one nonnegative weight per row")
    return _gram_sum(m, weights)


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
        g = _content(a[i][j] for i in active for j in active)
        if g > 1:
            for i in active:
                row = a[i]
                for j in active:
                    row[j] //= g
    return True


def solve_linear(a: RatMatrix, b: RatMatrix) -> list[Fraction] | None:
    """A particular rational solution x of a x = b, or None if inconsistent.

    Free variables are set to zero.
    """
    if b.ncols != 1 or b.nrows != a.nrows:
        raise ValueError("right-hand side must be a matching column vector")
    aug = RatMatrix.hstack(a, b)
    rows, den, pivs = aug._rref
    if pivs and pivs[-1] == a.ncols:
        return None
    x = [Fraction(0)] * a.ncols
    for j, pc in enumerate(pivs):
        x[pc] = Fraction(rows[j][a.ncols], den)
    return x


def primitive_columns(m: RatMatrix) -> list[list[int]]:
    """Integer-scaled representatives of the columns: denominators cleared,
    each column divided by its gcd, first nonzero entry positive.  Scaling
    does not change the spanned subspace."""
    out: list[list[int]] = []
    for j in range(m.ncols):
        col = [m._num[i][j] for i in range(m.nrows)]
        g = _content(col)
        if g > 1:
            col = [v // g for v in col]
        lead = next((v for v in col if v), 0)
        if lead < 0:
            col = [-v for v in col]
        out.append(col)
    return out


def column_vector(values: Sequence[Fraction | int | str]) -> RatMatrix:
    return RatMatrix.from_rows([[v] for v in values])
