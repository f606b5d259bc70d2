"""Acceptance suite: every exit criterion at its stated tolerance.

Each criterion prints one PASS/FAIL line (run with `pytest -s` to watch
them stream).  Exact criteria use zero tolerance; the float distribution
criteria use the stated numeric tolerances and a seeded Monte Carlo
oracle.
"""

import itertools
import math
import random
import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np

from exanova import fdist
from exanova.effects import (
    CellLayout,
    EffectId,
    all_effects,
    h_projector,
    u_matrix,
)
from exanova.hypotest import type_model_set, type_numerator, type_ss
from exanova.reference import builtin_layout
from exanova.verify import (
    DEFAULT_SEED,
    verify_fdist,
    verify_prop1,
    verify_prop2,
    verify_prop3,
    verify_table1,
)

F = Fraction


@contextmanager
def criterion(number: int, title: str):
    try:
        yield
    except BaseException:
        print(f"criterion {number} ({title}): FAIL")
        raise
    print(f"criterion {number} ({title}): PASS")


def _assert_all(checks):
    failed = [c for c in checks if not c.passed]
    assert not failed, "; ".join(c.line() for c in failed)


def test_criterion_1_published_targets_reproduced_exactly():
    with criterion(1, "reference target spans, exact, < 5 s"):
        t0 = time.perf_counter()
        checks = verify_table1()
        elapsed = time.perf_counter() - t0
        offdiag = [c for c in checks if "matches stored span" in c.name]
        assert len(offdiag) == 9
        _assert_all(offdiag)
        assert elapsed < 5.0, f"took {elapsed:.2f}s"


def test_criterion_2_own_model_target_claims():
    with criterion(2, "own-model targets and proportional-count disjointness"):
        checks = verify_table1()
        diag = [c for c in checks if "own-model target" in c.name]
        disjoint = [c for c in checks if "misses all A main effects" in c.name]
        assert len(diag) == 9 and len(disjoint) == 1
        _assert_all(diag + disjoint)


def test_criterion_3_restricted_minus_full_suite():
    with criterion(3, "500 random instances: numerator tests the estimable part, < 30 s"):
        t0 = time.perf_counter()
        checks = verify_prop1(seed=DEFAULT_SEED, trials=500)
        elapsed = time.perf_counter() - t0
        _assert_all(checks)
        assert elapsed < 30.0, f"took {elapsed:.2f}s"


def test_criterion_4_competing_numerator_suite():
    with criterion(4, "200 constructed competitors: all four dominance conclusions"):
        checks = verify_prop2(seed=DEFAULT_SEED, trials=200)
        _assert_all(checks)


def test_criterion_5_effect_column_omission_suite():
    with criterion(5, "all effect subsets up to dims 4x4x3, plus scheme invariance"):
        checks = verify_prop3()  # covers f = 1, 2, 3 up to (4, 4, 3)
        _assert_all(checks)


def _balanced_layout(a: int, b: int, m: int) -> CellLayout:
    return CellLayout((a, b), tuple([m] * (a * b)))


def _balanced_a_ss_oracle(y, a, b, m) -> Fraction:
    """Independent route: m * sum over cells of (A-level mean - grand mean)^2,
    from brute-force means."""
    grand = sum(y, F(0)) / len(y)
    level_means = []
    for i in range(a):
        chunk = y[i * b * m : (i + 1) * b * m]
        level_means.append(sum(chunk, F(0)) / len(chunk))
    return m * sum(((level_means[i] - grand) ** 2 for i in range(a) for _ in range(b)), F(0))


def test_criterion_6_balanced_closed_form():
    with criterion(6, "balanced numerator projectors are Kronecker blocks; cell-mean oracle"):
        rng = random.Random(618)
        for a, b in itertools.product((2, 3), repeat=2):
            for m in (1, 2, 3):
                layout = _balanced_layout(a, b, m)
                um = u_matrix(m)
                for effect in all_effects(2):
                    want = h_projector(effect, (a, b)).kron(um)
                    for t in (1, 2, 3):
                        if effect not in type_model_set(t, effect):
                            continue
                        got = type_numerator(t, effect, layout)
                        assert got == want, (a, b, m, str(effect), t)
                y = [F(rng.randint(-12, 12), rng.choice([1, 2, 3])) for _ in range(layout.n)]
                res = type_ss(3, EffectId((1, 0)), layout, y)
                assert res.ss_num == _balanced_a_ss_oracle(y, a, b, m)


def test_criterion_7_type_equality_iff_balanced():
    with criterion(7, "types 1/2/3 agree exactly when balanced, differ on unbalanced counts"):
        rng = random.Random(618)
        a_eff = EffectId((1, 0))
        layout = _balanced_layout(3, 3, 2)
        y = [F(rng.randint(-12, 12), rng.choice([1, 2, 3])) for _ in range(layout.n)]
        ss = [type_ss(t, a_eff, layout, y).ss_num for t in (1, 2, 3)]
        assert ss[0] == ss[1] == ss[2]

        n0 = builtin_layout("n0")
        rng = random.Random(20240806)
        y0 = [F(rng.randint(-20, 20), rng.choice([1, 2, 4])) for _ in range(n0.n)]
        ss0 = [type_ss(t, a_eff, n0, y0).ss_num for t in (1, 2, 3)]
        assert len(set(ss0)) == 3, f"expected pairwise distinct, got {ss0}"


MC_GRID = (
    # (nu1, nu2, ncp), probe points
    ((2, 10, 4.0), (1.0, 3.0, 6.0)),
    ((1, 4, 0.5), (0.5, 2.0, 5.0)),
    ((5, 20, 8.0), (1.0, 2.5, 4.0)),
    ((3, 7, 2.0), (0.8, 2.0, 4.0)),
)
MC_DRAWS = 10_000_000


def test_criterion_8_f_distribution_numerics():
    with criterion(8, "F numerics: symmetry, round trip, 1e7-draw MC oracle, power grid, < 2 min"):
        t0 = time.perf_counter()
        for nu in (1, 2, 5, 10, 40):
            assert abs(fdist.f_cdf(1.0, nu, nu) - 0.5) <= 1e-12
        for alpha in (0.01, 0.05, 0.5, 0.95):
            for nu1, nu2 in ((1, 1), (2, 10), (5, 5), (7, 3)):
                q = fdist.f_quantile(alpha, nu1, nu2)
                assert abs(fdist.f_cdf(q, nu1, nu2) - (1.0 - alpha)) <= 1e-10

        rng = np.random.default_rng(20240806)
        chunk = 1_000_000
        points_checked = 0
        for (nu1, nu2, lam), xs in MC_GRID:
            counts = np.zeros(len(xs), dtype=np.int64)
            done = 0
            while done < MC_DRAWS:
                k = min(chunk, MC_DRAWS - done)
                num = rng.noncentral_chisquare(nu1, lam, size=k) / nu1
                den = rng.chisquare(nu2, size=k) / nu2
                ratio = num / den
                for i, x in enumerate(xs):
                    counts[i] += int((ratio <= x).sum())
                done += k
            for i, x in enumerate(xs):
                phat = counts[i] / MC_DRAWS
                se = math.sqrt(max(phat * (1.0 - phat), 1e-12) / MC_DRAWS)
                got = fdist.f_cdf(x, nu1, nu2, lam)
                assert abs(got - phat) <= 3.0 * se, (
                    f"cdf({x}; {nu1}, {nu2}, ncp={lam}) = {got} vs MC {phat} (3se = {3*se:.2e})"
                )
                points_checked += 1
        assert points_checked == 12

        _assert_all(verify_fdist())  # includes the power-monotonicity grid
        elapsed = time.perf_counter() - t0
        assert elapsed < 120.0, f"took {elapsed:.2f}s"
