"""The three workloads: seeded inputs, the timed op, and its check.

Each workload yields timed batches of `batch_len` ops from one
`random.Random(seed)` stream, so a seed fixes every input.  `run` is the
only part that is timed; `check` runs after the timed loop, may load
oracle libraries, and gives each op of a batch its errors and its known
fault.  `load` rebuilds a batch's input from its log record.  Every op
of the anova and verify workloads is a batch of its own and fresh;
fdist-range times whole rounds of a fixed grid, in which only the points
known to be safe are jittered by the seed (see README.md).
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import oracle


def run_cli(argv: list[str]) -> tuple[int, str]:
    """exanova.cli.main in this process, with its output captured.  The
    function is looked up at call time, so a traced run sees the wrapper."""
    from exanova import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue() + err.getvalue()


# -- anova-tall --------------------------------------------------------------


@dataclass
class AnovaInput:
    dims: tuple[int, int]
    counts: list[int]
    cells: list[list[int]]  # responses in hundredths, per cell
    csv: str


def _decimal(y100: int) -> str:
    sign = "-" if y100 < 0 else ""
    return f"{sign}{abs(y100) // 100}.{abs(y100) % 100:02d}"


class AnovaWorkload:
    """anova-tall: the paper's n2 shape, a 3x3 layout with one empty cell
    and 10-14 observations in every other cell, n = 88.  Counts, the empty
    position, effects and noise are drawn per op.  One op is the full
    table for one CSV: `anova --type all --output json` for A, B and AB."""

    batch_len = 1
    count_ops = 3
    effects = ("A", "B", "AB")
    dims = (3, 3)
    empty = 1
    per_cell = (10, 14)
    n = 88

    def __init__(self, seed: int, workdir: Path):
        self.rng = random.Random(seed)
        self.path = workdir / f"anova-{seed}.csv"
        self._last: tuple | None = None

    def _counts(self) -> list[int]:
        a, b = self.dims
        rng = self.rng
        # empty cells in distinct rows and columns, so every level is observed
        rows = rng.sample(range(a), self.empty)
        cols = rng.sample(range(b), self.empty)
        empty = {i * b + j for i, j in zip(rows, cols)}
        lo, hi = self.per_cell
        full = [c for c in range(a * b) if c not in empty]
        counts = [0 if c in empty else lo for c in range(a * b)]
        for _ in range(self.n - lo * len(full)):
            c = rng.choice([c for c in full if counts[c] < hi])
            counts[c] += 1
        return counts

    def next_input(self) -> AnovaInput:
        a, b = self.dims
        rng = self.rng
        counts = self._counts()
        alpha = [rng.randint(-300, 300) for _ in range(a)]
        beta = [rng.randint(-300, 300) for _ in range(b)]
        cells = [
            [1000 + alpha[c // b] + beta[c % b] + rng.randint(-150, 150) + rng.randint(-400, 400)
             for _ in range(counts[c])]
            for c in range(a * b)
        ]
        key = (tuple(counts), tuple(map(tuple, cells)))
        assert key != self._last, "consecutive ops must differ"
        self._last = key
        rows = [f"{c // b + 1},{c % b + 1},{_decimal(y)}" for c in range(a * b) for y in cells[c]]
        rng.shuffle(rows)
        return AnovaInput(self.dims, counts, cells, "A,B,y\n" + "\n".join(rows) + "\n")

    def prepare(self, inp: AnovaInput) -> None:
        self.path.write_text(inp.csv)

    def run(self, inp: AnovaInput) -> list[tuple[int, str]]:
        return [
            run_cli(["anova", "--data", str(self.path), "--effect", e, "--type", "all", "--output", "json"])
            for e in self.effects
        ]

    def load(self, fields: dict) -> AnovaInput:
        return AnovaInput(tuple(fields["dims"]), fields["counts"], fields["cells"], fields["csv"])

    def check(self, inp: AnovaInput, out: list[tuple[int, str]]) -> list[tuple[list[str], str | None]]:
        totals = [Fraction(sum(ys), 100) for ys in inp.cells]
        sumsq = Fraction(sum(y * y for ys in inp.cells for y in ys), 10000)
        data = oracle.CellData(inp.dims, inp.counts, totals, sumsq)
        errs = []
        for effect, (rc, text) in zip(self.effects, out):
            if rc != 0:
                errs.append(f"anova {effect}: exit status {rc}: {text.strip()}")
                continue
            errs.extend(oracle.check_anova_json(json.loads(text), effect, data))
        return [(errs, None)]

    def close(self) -> None:
        self.path.unlink(missing_ok=True)


# -- verify-props ------------------------------------------------------------

PROP3_DIMS = ("2,2,3", "2,3,2", "3,2,2")


@dataclass
class VerifyInput:
    seed: int
    dims: str


class VerifyWorkload:
    """One op runs `verify table1`, `verify prop1 --seed s`, `verify
    dominance --seed s` and `verify prop3 --dims d`.  s is fresh per op;
    d cycles through the orderings of a 2x2x3 layout, which cost about the
    same, so every three consecutive ops hold the same mix."""

    batch_len = 1
    count_ops = 3

    def __init__(self, seed: int, workdir: Path):
        self.rng = random.Random(seed)
        self.k = self.rng.randrange(len(PROP3_DIMS))

    def next_input(self) -> VerifyInput:
        self.k += 1
        return VerifyInput(self.rng.randrange(1, 2**31), PROP3_DIMS[self.k % len(PROP3_DIMS)])

    def prepare(self, inp: VerifyInput) -> None:
        pass

    def run(self, inp: VerifyInput) -> list[tuple[int, str]]:
        s = str(inp.seed)
        return [
            run_cli(["verify", "table1"]),
            run_cli(["verify", "prop1", "--seed", s]),
            run_cli(["verify", "dominance", "--seed", s]),
            run_cli(["verify", "prop3", "--dims", inp.dims]),
        ]

    def load(self, fields: dict) -> VerifyInput:
        return VerifyInput(**fields)

    def check(self, inp: VerifyInput, out: list[tuple[int, str]]) -> list[tuple[list[str], str | None]]:
        errs = []
        for suite, (rc, text) in zip(("table1", "prop1", "dominance", "prop3"), out):
            errs.extend(oracle.check_verify_output(suite, rc, text, inp.dims))
        return [(errs, None)]

    def close(self) -> None:
        pass


# -- fdist-range -------------------------------------------------------------


def _log_sf_even(x: float, d1: int, d2: float) -> float:
    """log P(F > x) for even numerator df, by the finite-sum closed form
    (1-z)^(d2/2) sum_j C(d2/2+j-1, j) z^j, z = d1 x / (d1 x + d2)."""
    z = d1 * x / (d1 * x + d2)
    h = d2 / 2.0
    terms = [math.lgamma(h + j) - math.lgamma(h) - math.lgamma(j + 1.0) + (j * math.log(z) if j else 0.0)
             for j in range(d1 // 2)]
    top = max(terms)
    return h * math.log(d2 / (d1 * x + d2)) + top + math.log(sum(math.exp(t - top) for t in terms))


def f_for_p(p: float, d1: int, d2: float) -> float:
    """The F value whose upper tail is p (bisection on log x)."""
    lo, hi, target = -20.0, 700.0, math.log(p)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if _log_sf_even(math.exp(mid), d1, d2) > target:
            lo = mid
        else:
            hi = mid
    return math.exp(0.5 * (lo + hi))


@dataclass(frozen=True)
class FdistPoint:
    kind: str        # p_value_from, power or f_cdf
    args: tuple
    fault: str | None  # known fault that makes this point fail today, else None


# Points the seed may jitter are chosen away from both faults: p-values of
# 0.5 to 1e-5, and ncp of at most 1000 * 1.05, well below 1431, where the
# Poisson mass sum of f_cdf starts to stall.  The other points are fixed.
SAFE_P = (0.5, 0.1, 1e-2, 1e-3, 1e-4, 1e-5)
TAIL_P = (1e-12, 1e-20, 1e-50, 1e-100, 1e-200, 1e-300)
P_DFS = [(d1, d2) for d1 in (2, 4) for d2 in (8, 30, 100, 1000)]
POWER_SAFE = [(a, d1, d2, ncp) for a in (0.05, 0.01) for d1 in (1, 2, 4) for d2 in (20, 100, 1000)
              for ncp in (2.0, 20.0, 200.0, 1000.0)]
POWER_BIG = [(0.05, d1, d2, ncp) for d1 in (2, 4) for d2 in (100, 1000) for ncp in (1600.0, 4000.0)]
CDF_AT = (0.25, 0.5, 0.8, 1.0, 1.25, 2.0)
CDF_SAFE = [(d1, d2, ncp) for d1 in (2, 4) for d2 in (20, 1000) for ncp in (1.0, 10.0, 100.0, 1000.0)]
CDF_BIG = [(d1, 1000, ncp) for d1 in (2, 4) for ncp in (1600.0, 4000.0)]
# Fault (b) makes f_cdf return 0.0 at these ncp.  At half the mean the true
# CDF is below 1e-9, so 0.0 passes there, and at these ncp power comes out
# right (about 1): those points pay the cost of (b) but carry no fault label.
CDF_BIG_AT = (0.5, 0.8, 1.0, 1.25, 2.0)
CDF_BIG_FAILS_FROM = 0.8


def _cdf_point(d1: int, d2: int, ncp: float, at: float) -> float:
    """`at` times the mean of the noncentral F distribution."""
    return at * (d2 / (d2 - 2.0)) * (d1 + ncp) / d1


@dataclass
class FdistRound:
    points: list[FdistPoint]


class FdistWorkload:
    """One op is one evaluation.  A round is the whole grid, shuffled, and
    is timed as one batch; failures are counted per evaluation.
    Per-layer counts are taken over the first round."""

    def __init__(self, seed: int, workdir: Path):
        self.rng = random.Random(seed)
        self.fixed = (
            [FdistPoint("p_value_from", (f_for_p(p, d1, d2), d1, d2), "a") for d1, d2 in P_DFS for p in TAIL_P]
            + [FdistPoint("power", args, None) for args in POWER_BIG]
            + [FdistPoint("f_cdf", (_cdf_point(d1, d2, ncp, at), d1, d2, ncp),
                          "b" if at >= CDF_BIG_FAILS_FROM else None)
               for d1, d2, ncp in CDF_BIG for at in CDF_BIG_AT]
        )
        self.p_bases = [(f_for_p(p, d1, d2), d1, d2) for d1, d2 in P_DFS for p in SAFE_P]
        self.batch_len = len(self.fixed) + len(self.p_bases) + len(POWER_SAFE) + len(CDF_SAFE) * len(CDF_AT)
        self.count_ops = self.batch_len
        self._ref: oracle.FdistOracle | None = None
        self._calls: list = []

    def next_input(self) -> FdistRound:
        u = self.rng.uniform
        pts = list(self.fixed)
        pts += [FdistPoint("p_value_from", (x * u(0.98, 1.02), d1, d2), None) for x, d1, d2 in self.p_bases]
        pts += [FdistPoint("power", (a, d1, d2, ncp * u(0.95, 1.05)), None) for a, d1, d2, ncp in POWER_SAFE]
        for d1, d2, ncp in CDF_SAFE:
            ncp *= u(0.95, 1.05)
            pts += [FdistPoint("f_cdf", (_cdf_point(d1, d2, ncp, at), d1, d2, ncp), None) for at in CDF_AT]
        self.rng.shuffle(pts)
        return FdistRound(pts)

    def prepare(self, inp: FdistRound) -> None:
        # looked up on the module after tracing is installed, so that a
        # traced run times the wrappers; the timed loop only calls them
        from exanova import fdist

        self._calls = [(getattr(fdist, p.kind), p.args) for p in inp.points]

    def run(self, inp: FdistRound) -> list[float]:
        return [fn(*args) for fn, args in self._calls]

    def load(self, fields: dict) -> FdistRound:
        return FdistRound([FdistPoint(p["kind"], tuple(p["args"]), p["fault"]) for p in fields["points"]])

    def check(self, inp: FdistRound, out: list[float]) -> list[tuple[list[str], str | None]]:
        if self._ref is None:
            self._ref = oracle.FdistOracle()
        res = []
        for p, got in zip(inp.points, out, strict=True):
            err = self._ref.check(p.kind, p.args, got)
            res.append(([err] if err else [], p.fault))
        return res

    def close(self) -> None:
        pass


WORKLOADS = {
    "anova-tall": AnovaWorkload,
    "verify-props": VerifyWorkload,
    "fdist-range": FdistWorkload,
}
