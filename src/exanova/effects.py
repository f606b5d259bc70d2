"""Effect machinery for crossed f-factor layouts.

Effects are named by binary tuples: bit k set means factor k enters the
effect.  The two-factor effects are (0,0) grand mean, (1,0) A main
effects, (0,1) B main effects, (1,1) AB interaction.  Each effect has an
orthogonal projector on cell-mean space (a Kronecker product of
averaging and centering blocks) and a contrast-coded model block whose
columns span exactly that projector's range, so a model can drop an
effect by dropping its columns.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from .exactlin import Projector, RatMatrix

__all__ = [
    "EffectId",
    "all_effects",
    "canonical_order",
    "ContrastScheme",
    "CellLayout",
    "u_matrix",
    "s_matrix",
    "h_projector",
    "contrast_matrix",
    "c_block",
    "effect_model_matrix",
    "incidence",
    "model_matrix",
]


@dataclass(frozen=True)
class EffectId:
    """An ANOVA effect, as one inclusion bit per factor."""

    bits: tuple[int, ...]

    def __post_init__(self):
        if not self.bits:
            raise ValueError("effect needs at least one factor bit")
        if any(b not in (0, 1) for b in self.bits):
            raise ValueError("effect bits must be 0 or 1")
        object.__setattr__(self, "bits", tuple(self.bits))

    @classmethod
    def parse(cls, text: str) -> "EffectId":
        if not text or any(c not in "01" for c in text):
            raise ValueError(f"invalid effect string {text!r} (want e.g. '10')")
        return cls(tuple(int(c) for c in text))

    @property
    def nfactors(self) -> int:
        return len(self.bits)

    @property
    def order(self) -> int:
        return sum(self.bits)

    def __str__(self) -> str:
        return "".join(str(b) for b in self.bits)

    def sort_key(self):
        return (self.order, tuple(i for i, b in enumerate(self.bits) if b))


def all_effects(nfactors: int) -> tuple[EffectId, ...]:
    """Every effect for `nfactors` crossed factors, in canonical order."""
    ids = [EffectId(bits) for bits in itertools.product((0, 1), repeat=nfactors)]
    return tuple(sorted(ids, key=EffectId.sort_key))


def canonical_order(effects: Iterable[EffectId]) -> tuple[EffectId, ...]:
    effs = sorted(set(effects), key=EffectId.sort_key)
    if not effs:
        raise ValueError("empty effect set")
    f = effs[0].nfactors
    if any(e.nfactors != f for e in effs):
        raise ValueError("effects disagree on the number of factors")
    return tuple(effs)


def u_matrix(m: int) -> Projector:
    """Averaging projector onto the span of the all-ones vector."""
    if m < 1:
        raise ValueError("need at least one level")
    return Projector(RatMatrix([[1] * m] * m, m), check=False)


def s_matrix(m: int) -> Projector:
    """Centering projector onto the contrast space (complement of ones)."""
    if m < 1:
        raise ValueError("need at least one level")
    num = [[m - 1 if i == j else -1 for j in range(m)] for i in range(m)]
    return Projector(RatMatrix(num, m), check=False)


def h_projector(effect: EffectId, dims: Sequence[int]) -> Projector:
    """Effect projector on cell-mean space: Kronecker product of centering
    blocks for included factors and averaging blocks for the rest."""
    dims = tuple(dims)
    if len(dims) != effect.nfactors:
        raise ValueError("dims length must match the effect's factor count")
    out: RatMatrix | None = None
    for bit, m in zip(effect.bits, dims):
        block = (s_matrix(m) if bit else u_matrix(m)).matrix
        out = block if out is None else out.kron(block)
    assert out is not None
    return Projector(out, check=False)


def helmert_contrast(m: int) -> RatMatrix:
    """Default contrast matrix: column j has m-j in row j, -1 below, 0 above.

    For m = 3 this is [[2, 0], [-1, 1], [-1, -1]].
    """
    if m < 2:
        raise ValueError("contrasts need at least two levels")
    num = [[0] * (m - 1) for _ in range(m)]
    for j in range(1, m):
        num[j - 1][j - 1] = m - j
        for i in range(j, m):
            num[i][j - 1] = -1
    return RatMatrix(num)


class ContrastScheme:
    """Choice of contrast columns per factor.

    The default scheme builds the Helmert-style matrix above for every
    factor; a user scheme supplies one validated matrix per factor.
    Any valid scheme spans the same contrast space, so model column
    spaces (and every sum of squares) are scheme-independent.
    """

    def __init__(self, per_factor: tuple[RatMatrix, ...] | None = None):
        self._per_factor = per_factor

    @classmethod
    def helmert(cls) -> "ContrastScheme":
        return cls(None)

    @classmethod
    def user(cls, matrices: Sequence[RatMatrix]) -> "ContrastScheme":
        mats = tuple(matrices)
        for k, c in enumerate(mats):
            m = c.nrows
            if m < 2 or c.ncols != m - 1:
                raise ValueError(f"factor {k}: contrast matrix must be m x (m-1) with m >= 2")
            colsums = RatMatrix.ones(m).transpose() @ c
            if not colsums.is_zero:
                raise ValueError(f"factor {k}: contrast columns must sum to zero")
            if c.rank() != m - 1:
                raise ValueError(f"factor {k}: contrast columns must be linearly independent")
        return cls(mats)

    @property
    def is_default(self) -> bool:
        return self._per_factor is None

    def matrix_for(self, m: int, factor: int = 0) -> RatMatrix:
        if self._per_factor is None:
            return helmert_contrast(m)
        if factor >= len(self._per_factor):
            raise ValueError(f"scheme has no contrast matrix for factor {factor}")
        c = self._per_factor[factor]
        if c.nrows != m:
            raise ValueError(
                f"factor {factor}: contrast matrix has {c.nrows} rows, layout has {m} levels"
            )
        return c


def contrast_matrix(m: int, scheme: ContrastScheme | None = None, factor: int = 0) -> RatMatrix:
    """Contrast columns spanning the complement of the ones vector in R^m."""
    scheme = scheme or ContrastScheme.helmert()
    return scheme.matrix_for(m, factor)


def c_block(effect: EffectId, dims: Sequence[int], scheme: ContrastScheme | None = None) -> RatMatrix:
    """Model columns for one effect: Kronecker product of ones columns and
    per-factor contrast matrices.  Its projector equals h_projector(effect)."""
    dims = tuple(dims)
    if len(dims) != effect.nfactors:
        raise ValueError("dims length must match the effect's factor count")
    scheme = scheme or ContrastScheme.helmert()
    out: RatMatrix | None = None
    for k, (bit, m) in enumerate(zip(effect.bits, dims)):
        if bit:
            block = scheme.matrix_for(m, k) if m >= 2 else RatMatrix.zeros(1, 0)
        else:
            block = RatMatrix.ones(m)
        out = block if out is None else out.kron(block)
    assert out is not None
    return out


def effect_model_matrix(
    effects: Iterable[EffectId], dims: Sequence[int], scheme: ContrastScheme | None = None
) -> RatMatrix:
    """Concatenated contrast blocks for a set of effects (the cell-mean
    model matrix).  Dropping an effect's block restricts the model to
    exclude exactly that effect."""
    ordered = canonical_order(effects)
    return RatMatrix.hstack(*(c_block(e, dims, scheme) for e in ordered))


@dataclass(frozen=True)
class CellLayout:
    """Cell counts of a crossed layout, in lexicographic cell order
    (first factor slowest).  Empty cells are allowed; every level of
    every factor must be observed at least once."""

    dims: tuple[int, ...]
    counts: tuple[int, ...]

    def __post_init__(self):
        dims = tuple(int(d) for d in self.dims)
        counts = tuple(int(c) for c in self.counts)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "counts", counts)
        if not dims or any(d < 1 for d in dims):
            raise ValueError("factor level counts must be positive")
        if len(counts) != math.prod(dims):
            raise ValueError("need one count per cell")
        if any(c < 0 for c in counts):
            raise ValueError("cell counts must be nonnegative")
        for k, d in enumerate(dims):
            for level in range(d):
                if all(
                    n == 0
                    for cell, n in zip(self.cells(), counts)
                    if cell[k] == level
                ):
                    raise ValueError(
                        f"factor {k} level {level + 1} has no observations"
                    )

    @classmethod
    def from_grid(cls, grid: Sequence[Sequence[int]]) -> "CellLayout":
        """Two-factor layout from a nested array: rows are levels of the
        first factor, columns of the second."""
        a = len(grid)
        b = len(grid[0])
        if any(len(row) != b for row in grid):
            raise ValueError("ragged count grid")
        return cls((a, b), tuple(n for row in grid for n in row))

    @property
    def nfactors(self) -> int:
        return len(self.dims)

    @property
    def ncells(self) -> int:
        return len(self.counts)

    @property
    def n(self) -> int:
        return sum(self.counts)

    def cells(self) -> Iterable[tuple[int, ...]]:
        return itertools.product(*(range(d) for d in self.dims))

    def cell_index(self, levels: Sequence[int]) -> int:
        idx = 0
        for level, d in zip(levels, self.dims):
            idx = idx * d + level
        return idx

    def grid(self) -> list[list[int]]:
        if self.nfactors != 2:
            raise ValueError("grid view only exists for two factors")
        a, b = self.dims
        return [list(self.counts[i * b : (i + 1) * b]) for i in range(a)]


def incidence(layout: CellLayout) -> RatMatrix:
    """Observation-to-cell indicator matrix (n x ncells).

    Rows are grouped by cell in lexicographic order, then by replicate;
    an empty cell contributes a zero column.
    """
    rows = []
    for idx, count in enumerate(layout.counts):
        row = [0] * layout.ncells
        row[idx] = 1
        rows.extend([tuple(row)] * count)
    return RatMatrix(rows)


def model_matrix(
    effects: Iterable[EffectId], layout: CellLayout, scheme: ContrastScheme | None = None
) -> RatMatrix:
    """Observation-space design matrix: incidence times the cell-mean model."""
    return incidence(layout) @ effect_model_matrix(effects, layout.dims, scheme)
