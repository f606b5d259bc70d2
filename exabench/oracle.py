"""Checks made apart from exanova.

Nothing here imports exanova.  The anova oracle recomputes every sum of
squares in cell space from the cell totals, the counts and the raw sum
of squares, with its own Fraction elimination and its own model bases
(row and column indicators, difference contrasts).  The F-distribution
oracle is scipy, with mpmath where scipy underflows.  Both libraries are
imported lazily, so that the benchmark can read its peak memory before
they are loaded.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

# p-values of the anova table are judged against scipy within this absolute
# tolerance, finer than the table's 6-significant-digit rendering; relative
# accuracy in the tail is judged by the fdist-range workload instead.
ANOVA_P_ABS_TOL = 1e-7
FDIST_P_REL_TOL = 1e-8
FDIST_PROB_ABS_TOL = 1e-9


# -- exact linear algebra over Fractions -----------------------------------


def _eliminate(rows: list[list[Fraction]], ncols: int) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form of the first `ncols` columns (extra columns
    ride along); returns the pivot rows and pivot columns."""
    rows = [list(r) for r in rows]
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = 1 / rows[r][c]
        # rows from r on are zero left of column c
        piv = [(k, v * inv) for k, v in enumerate(rows[r]) if k >= c and v]
        rows[r] = [Fraction(0)] * c + [v * inv for v in rows[r][c:]]
        for i in range(len(rows)):
            f = rows[i][c]
            if i != r and f != 0:
                row = rows[i]
                for k, v in piv:
                    row[k] -= f * v
        pivots.append(c)
        r += 1
    return rows[:r], pivots


def rank(rows: list[list[int | Fraction]]) -> int:
    if not rows or not rows[0]:
        return 0
    return len(_eliminate([[Fraction(v) for v in r] for r in rows], len(rows[0]))[1])


def nullspace(rows: list[list[int]], ncols: int) -> list[list[Fraction]]:
    """Basis vectors x with rows @ x = 0."""
    red, pivots = _eliminate([[Fraction(v) for v in r] for r in rows], ncols)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        x = [Fraction(0)] * ncols
        x[f] = Fraction(1)
        for row, pc in zip(red, pivots):
            x[pc] = -row[f]
        basis.append(x)
    return basis


def fitted_ss(cols: list[list[int]], counts: list[int], totals: list[Fraction]) -> tuple[Fraction, int]:
    """Model sum of squares y'P_X y and rank(X) for X = K M, where the
    columns of M are the integer vectors `cols` in cell space: solves
    (M'DM) b = M't and returns (t'M b, rank(M'DM))."""
    p = len(cols)
    weighted = [[n * x for n, x in zip(counts, u)] for u in cols]
    gram = [[sum(a * b for a, b in zip(w, v)) for v in cols] for w in weighted]
    rhs = [sum(x * t for x, t in zip(u, totals) if x) for u in cols]
    aug = [[Fraction(v) for v in row] + [Fraction(r)] for row, r in zip(gram, rhs)]
    red, pivots = _eliminate(aug, p)
    ss = sum(rhs[pc] * row[p] for row, pc in zip(red, pivots))
    return Fraction(ss), len(pivots)


# -- model bases in cell space (factor A slowest) ---------------------------


def _unit(m: int, i: int) -> list[int]:
    return [1 if k == i else 0 for k in range(m)]


def _diff(m: int, i: int) -> list[int]:
    return [1 if k == i else -1 if k == i + 1 else 0 for k in range(m)]


def _outer(u: list[int], v: list[int]) -> list[int]:
    return [a * b for a in u for b in v]


@lru_cache(maxsize=None)
def contrasts(effect: str, a: int, b: int) -> tuple[tuple[int, ...], ...]:
    """Difference contrasts spanning the effect's space of cell-mean
    functionals: A rows (e_i - e_i+1) x 1, B 1 x (e_j - e_j+1), AB both."""
    ones_a, ones_b = [1] * a, [1] * b
    if effect == "A":
        cols = [_outer(_diff(a, i), ones_b) for i in range(a - 1)]
    elif effect == "B":
        cols = [_outer(ones_a, _diff(b, j)) for j in range(b - 1)]
    else:
        cols = [_outer(_diff(a, i), _diff(b, j)) for i in range(a - 1) for j in range(b - 1)]
    return tuple(tuple(c) for c in cols)


@lru_cache(maxsize=None)
def _model(name: str, a: int, b: int) -> tuple[tuple[int, ...], ...]:
    ones_a, ones_b = [1] * a, [1] * b
    rows = [_outer(_unit(a, i), ones_b) for i in range(a)]
    cols = [_outer(ones_a, _unit(b, j)) for j in range(b)]
    if name == "mean":
        out = [[1] * (a * b)]
    elif name == "rows":
        out = rows
    elif name == "cols":
        out = cols
    elif name == "additive":
        out = rows + cols
    elif name == "mean+AB":
        out = [[1] * (a * b)] + [list(c) for c in contrasts("AB", a, b)]
    elif name == "cells":
        out = [_unit(a * b, c) for c in range(a * b)]
    elif name.startswith("drop:"):
        # the cell space orthogonal to the dropped effect's contrasts,
        # each basis vector scaled to integers
        out = []
        for x in nullspace([list(c) for c in contrasts(name[5:], a, b)], a * b):
            scale = math.lcm(*(v.denominator for v in x))
            out.append([int(v * scale) for v in x])
    else:
        raise ValueError(name)
    return tuple(tuple(c) for c in out)


# (full model, reduced model) per (effect, SS type)
_TYPE_MODELS = {
    ("A", 1): ("rows", "mean"),
    ("B", 1): ("cols", "mean"),
    ("AB", 1): ("mean+AB", "mean"),
    ("A", 2): ("additive", "cols"),
    ("B", 2): ("additive", "rows"),
    ("A", 3): ("cells", "drop:A"),
    ("B", 3): ("cells", "drop:B"),
    ("AB", 3): ("cells", "drop:AB"),
}


def expected_types(effect: str) -> tuple[int, ...]:
    return (1, 3) if effect == "AB" else (1, 2, 3)


class CellData:
    """Sufficient statistics of a two-factor dataset: counts, cell totals
    and the raw sum of squares."""

    def __init__(self, dims: tuple[int, int], counts: list[int], totals: list[Fraction], sumsq: Fraction):
        self.dims = dims
        self.counts = counts
        self.totals = totals
        self.sumsq = sumsq
        self.n = sum(counts)
        self._fits: dict[str, tuple[Fraction, int]] = {}

    def fit(self, model: str) -> tuple[Fraction, int]:
        if model not in self._fits:
            cols = [list(c) for c in _model(model, *self.dims)]
            self._fits[model] = fitted_ss(cols, self.counts, self.totals)
        return self._fits[model]

    def residual(self) -> tuple[Fraction, int]:
        sse = self.sumsq - sum(
            Fraction(t * t, 1) / n for t, n in zip(self.totals, self.counts) if n
        )
        return sse, self.n - sum(1 for n in self.counts if n)

    def type_ss(self, effect: str, t: int) -> tuple[Fraction, int]:
        full, reduced = _TYPE_MODELS[(effect, t)]
        ss_f, r_f = self.fit(full)
        ss_r, r_r = self.fit(reduced)
        return ss_f - ss_r, r_f - r_r


def balanced_self_test() -> list[str]:
    """Checks the oracle on balanced layouts, where the three SS types
    agree and SS_A = b r sum_i (ybar_i - ybar)^2.  Returns failures."""
    errors = []
    for a, b, r in ((2, 3, 2), (3, 3, 3), (4, 2, 1)):
        counts = [r] * (a * b)
        ys = [[Fraction((7 * c + 3 * k) % 11 - 5, 4) for k in range(r)] for c in range(a * b)]
        totals = [sum(v) for v in ys]
        data = CellData((a, b), counts, totals, sum(v * v for cell in ys for v in cell))
        n = a * b * r
        grand = sum(totals) / n
        row_means = [sum(totals[i * b:(i + 1) * b]) / (b * r) for i in range(a)]
        closed_a = b * r * sum((m - grand) ** 2 for m in row_means)
        for effect in ("A", "B", "AB"):
            got = {t: data.type_ss(effect, t) for t in expected_types(effect)}
            if len(set(got.values())) != 1:
                errors.append(f"balanced {a}x{b}x{r}: types disagree for {effect}: {got}")
        if data.type_ss("A", 1) != (closed_a, a - 1):
            errors.append(f"balanced {a}x{b}x{r}: SS_A {data.type_ss('A', 1)} != closed form {closed_a}")
    return errors


def _frac(d: dict) -> Fraction:
    return Fraction(d["num"], d["den"])


def scipy_f_sf(x: float, d1: float, d2: float) -> float:
    from scipy import stats

    return float(stats.f.sf(x, d1, d2))


def check_anova_json(doc: dict, effect: str, data: CellData) -> list[str]:
    """Every exact field of one `anova --type all --output json` document
    against the oracle; p against scipy within ANOVA_P_ABS_TOL."""
    errs: list[str] = []
    a, b = data.dims
    grid = [list(data.counts[i * b:(i + 1) * b]) for i in range(a)]
    if doc["layout"] != {"dims": [a, b], "counts": grid, "n": data.n}:
        errs.append(f"layout {doc['layout']} != dims {data.dims} counts {grid}")
    if doc["model"] != "saturated" or doc["effect"] != effect:
        errs.append(f"model/effect {doc['model']}/{doc['effect']}")
    sse, dfe = data.residual()
    den = doc["denominator"]
    if den is None or _frac(den["ss"]) != sse or den["df"] != dfe:
        errs.append(f"denominator {den} != SS {sse}, df {dfe}")
    types = [t["type"] for t in doc["tests"]]
    if types != list(expected_types(effect)):
        errs.append(f"types {types}")
    skipped = [s["type"] for s in doc["skipped"]]
    if skipped != ([2] if effect == "AB" else []):
        errs.append(f"skipped {skipped}")
    empty = [c for c, n in enumerate(data.counts) if n == 0]
    for test in doc["tests"]:
        t = test["type"]
        where = f"{effect} type {t}"
        ss, df = data.type_ss(effect, t)
        if _frac(test["ss"]) != ss or test["ss"]["float"] != float(ss) or test["df"] != df:
            errs.append(f"{where}: SS {test['ss']} df {test['df']} != {ss}, {df}")
        f_exact = (ss / df) / (sse / dfe) if df > 0 and dfe > 0 and sse > 0 else None
        if f_exact is None:
            if test["f"] is not None or test["p"] is not None:
                errs.append(f"{where}: F should be undefined")
        else:
            if test["f"] is None or _frac(test["f"]) != f_exact:
                errs.append(f"{where}: F {test['f']} != {f_exact}")
            p_ref = scipy_f_sf(float(f_exact), df, dfe)
            if test["p"] is None or not abs(test["p"] - p_ref) <= ANOVA_P_ABS_TOL:
                errs.append(f"{where}: p {test['p']} vs scipy {p_ref}")
        basis = test["target_basis"]
        if test["estimable_dim"] != len(basis) or rank(basis) != len(basis):
            errs.append(f"{where}: target basis of {len(basis)} columns, dim {test['estimable_dim']}")
        if any(col[c] for col in basis for c in empty):
            errs.append(f"{where}: target puts weight on an empty cell")
        if t == 3:
            # the type-3 target is the estimable part of the effect:
            # its contrasts that vanish on the empty cells
            con = contrasts(effect, a, b)
            want_dim = len(con) - rank([[col[c] for col in con] for c in empty])
            if not (test["estimable_dim"] == df == want_dim):
                errs.append(f"{where}: estimable_dim {test['estimable_dim']}, df {df}, expected {want_dim}")
            reduced = _model(f"drop:{effect}", a, b)
            if any(sum(x * y for x, y in zip(col, v)) for col in basis for v in reduced):
                errs.append(f"{where}: target leaves the effect's contrast space")
    return errs


# -- verify suites ------------------------------------------------------------

VERIFY_LINES = {"table1": 19, "prop1": 4, "dominance": 5, "prop3": 3}
VERIFY_TRIALS = {"prop1": 500, "dominance": 200}


def check_verify_output(suite: str, rc: int, text: str, dims: str | None = None) -> list[str]:
    """Exit status 0, every check line PASS, the line count the suite
    implies, and the trial count or dims each line must name."""
    lines = text.splitlines()
    if rc != 0:
        return [f"verify {suite}: exit status {rc}"]
    want = VERIFY_LINES[suite]
    checks, summary = lines[:-1], lines[-1] if lines else ""
    errs = []
    if len(checks) != want or summary != f"{want}/{want} checks passed":
        errs.append(f"verify {suite}: {len(checks)} check lines, summary {summary!r}")
    for line in checks:
        if not line.startswith("PASS  "):
            errs.append(f"verify {suite}: {line}")
        elif suite in VERIFY_TRIALS and f"({VERIFY_TRIALS[suite]} trials)" not in line:
            errs.append(f"verify {suite}: trial count missing in {line!r}")
        elif suite == "prop3" and f"dims {dims.replace(',', 'x')}:" not in line:
            errs.append(f"verify prop3: dims missing in {line!r}")
    return errs


# -- F distribution -----------------------------------------------------------


class FdistOracle:
    """Reference values from scipy.stats (f.sf, f.isf, ncf.cdf, ncf.sf),
    with mpmath's incomplete beta for central p-values that scipy cannot
    represent.  Values are memoised, since fixed grid points recur in
    every round."""

    def __init__(self):
        from scipy import stats
        import mpmath

        self._stats = stats
        self._mp = mpmath
        self._memo: dict[tuple, float] = {}

    def __call__(self, kind: str, args: tuple) -> float:
        key = (kind, args)
        if key not in self._memo:
            self._memo[key] = getattr(self, "_" + kind)(*args)
        return self._memo[key]

    def _p_value_from(self, x: float, d1: float, d2: float) -> float:
        p = float(self._stats.f.sf(x, d1, d2))
        if p < 1e-290:
            mp = self._mp
            with mp.workdps(40):
                z = mp.mpf(d2) / (mp.mpf(d2) + mp.mpf(d1) * mp.mpf(x))
                p = float(mp.betainc(mp.mpf(d2) / 2, mp.mpf(d1) / 2, 0, z, regularized=True))
        return p

    def _power(self, alpha: float, d1: float, d2: float, ncp: float) -> float:
        crit = self._stats.f.isf(alpha, d1, d2)
        return float(self._stats.ncf.sf(crit, d1, d2, ncp))

    def _f_cdf(self, x: float, d1: float, d2: float, ncp: float) -> float:
        return float(self._stats.ncf.cdf(x, d1, d2, ncp))

    def check(self, kind: str, args: tuple, got: float) -> str | None:
        want = self(kind, args)
        if kind == "p_value_from":
            ok = math.isclose(got, want, rel_tol=FDIST_P_REL_TOL, abs_tol=0.0)
        else:
            ok = abs(got - want) <= FDIST_PROB_ABS_TOL
        return None if ok else f"{kind}{args} = {got!r}, reference {want!r}"
