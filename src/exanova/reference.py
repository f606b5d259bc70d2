"""Built-in reference layouts and their expected testing-target spans.

Three 3x3 cell-count configurations ship with the package: `n0` is
plainly unbalanced, `n1` has proportional subclass counts, and `n2` has
one empty cell.  For each, the data files record spanning columns of
the subspace that the type-t A-effect SS tests in model m, for the
off-diagonal pairs (t, m) in {(1,2), (1,3), (2,3)}.  The verification
suite recomputes these spans from scratch and demands exact equality.
"""

from __future__ import annotations

import json
from functools import lru_cache
from importlib import resources

from .effects import CellLayout
from .exactlin import RatMatrix, Subspace

__all__ = ["LAYOUT_NAMES", "TARGET_PAIRS", "builtin_layout", "target_span", "target_columns"]

LAYOUT_NAMES = ("n0", "n1", "n2")
TARGET_PAIRS = ((1, 2), (1, 3), (2, 3))


@lru_cache(maxsize=None)
def _load(name: str):
    path = resources.files("exanova.reference_data").joinpath(name)
    return json.loads(path.read_text())


def builtin_layout(name: str) -> CellLayout:
    layouts = _load("layouts.json")
    if name not in layouts:
        raise ValueError(f"unknown layout {name!r}; have {sorted(layouts)}")
    return CellLayout.from_grid(layouts[name])


def target_columns(layout_name: str, t: int, m: int) -> list[list[int]]:
    """Stored spanning columns (as 9-vectors in cell order) for pair (t, m)."""
    targets = _load("targets.json")
    if layout_name not in targets:
        raise ValueError(f"unknown layout {layout_name!r}")
    key = f"{t}{m}"
    if key not in targets[layout_name]:
        raise ValueError(f"no stored target for pair ({t}, {m})")
    return targets[layout_name][key]


def target_span(layout_name: str, t: int, m: int) -> Subspace:
    cols = target_columns(layout_name, t, m)
    return RatMatrix(list(zip(*cols)), 1).colspace
