"""Runs sets of benchmark runs and summarises them; used for README figures.

    python3 exabench/report.py runs --label set1 --seeds 1-10 [--trace 1]
    python3 exabench/report.py summary set1
    python3 exabench/report.py compare set1 set2
    python3 exabench/report.py overhead
    python3 exabench/report.py scaling
    python3 exabench/report.py fdist-share

`runs` calls run.py once per (workload, seed), for the workloads of
BENCHMARK.json, one at a time and for its run_seconds, and writes
exabench/out/report-<label>.json.  It prints, per workload and metric,
the median and the spread (q3 - q1) / median over the seeds, and the
pooled op-time tail: the highest percentile with at least ten samples
beyond it.  `summary` prints the same for a saved set.  `compare` prints
how much worse each set's medians are than the other's, both ways,
against the bounds in BENCHMARK.json.  `overhead` runs seeds 1-4
untraced and then traced, back to back, so that both runs of a pair see
the machine at about the same speed, and gives the median of the paired
differences of op_p50_s (traced minus untraced); it writes
report-overhead.json.  `scaling` times type_ss (all three types, effect
A) on 3x3 layouts with one empty cell as n grows.  `fdist-share` times a
few fdist-range rounds by kind of evaluation and by ncp regime, with the
failures in each.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
OVERHEAD_SEEDS = (1, 2, 3, 4)


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def _bench() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


WORKLOADS = tuple(w["name"] for w in _bench()["workloads"])


def tail(samples: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it, given
    only with forty samples or more."""
    xs = sorted(samples)
    if len(xs) < 40:
        return f"median only (n={len(xs)})"
    return f"p{100 * (len(xs) - 10) / len(xs):.4g} {xs[-11]:.4g} s (n={len(xs)})"


def run_one(w: str, s: int, trace: int) -> dict:
    """One run of run.py; raises if it fails."""
    t0 = time.perf_counter()
    res = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", w, "--seed", str(s),
         "--seconds", str(_bench()["run_seconds"]), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    wall = time.perf_counter() - t0
    if res.returncode != 0:
        raise RuntimeError(f"{w} seed {s} trace {trace}: exit {res.returncode}\n{res.stderr}")
    line = json.loads(res.stdout.strip().splitlines()[-1])
    rec = json.loads((OUT / f"result-{w}-s{s}-t{trace}.json").read_text())
    print(f"{w} seed {s} trace {trace}: {wall:.1f} s wall, {line['attempted']} ops, {line['failed']} failed",
          file=sys.stderr)
    return {"workload": w, "seed": s, "trace": trace, "wall_s": wall, "result": line,
            "op_times_s": rec["op_times_s"], "op_p50_s": rec["op_p50_s"]}


def cmd_runs(args) -> int:
    rows = [run_one(w, s, args.trace) for w in WORKLOADS for s in _seeds(args.seeds)]
    (OUT / f"report-{args.label}.json").write_text(json.dumps(rows) + "\n")
    summarise(rows)
    return 0


def summarise(rows: list[dict]) -> None:
    for w in dict.fromkeys(r["workload"] for r in rows):
        rs = [r for r in rows if r["workload"] == w]
        shares = {r["result"]["failed"] / r["result"]["attempted"] for r in rs}
        print(f"{w}: {len(rs)} runs, failed share {sorted(shares)}, "
              f"{statistics.median(r['wall_s'] for r in rs):.1f} s wall per run, "
              f"pooled op time {tail([t for r in rs for t in r['op_times_s']])}")
        for m in rs[0]["result"]["metrics"]:
            vals = [r["result"]["metrics"][m]["value"] for r in rs]
            med = statistics.median(vals)
            spread = ""
            if len(vals) >= 2 and med:
                q1, _, q3 = statistics.quantiles(vals, n=4)
                spread = f"  spread {(q3 - q1) / med:.4f}"
            print(f"  {m:38s} median {med:.6g}{spread}")


def _load(label: str) -> list[dict]:
    return json.loads((OUT / f"report-{label}.json").read_text())


def cmd_summary(args) -> int:
    summarise(_load(args.label))
    return 0


def cmd_compare(args) -> int:
    a, b = _load(args.first), _load(args.second)
    bench = {m["name"]: m for m in _bench()["end_to_end"]}
    worst = [0.0, 0.0]
    for w in dict.fromkeys(r["workload"] for r in a):
        for m, spec in bench.items():
            ma = statistics.median(r["result"]["metrics"][m]["value"] for r in a if r["workload"] == w)
            mb = statistics.median(r["result"]["metrics"][m]["value"] for r in b if r["workload"] == w)
            sign = 1 if spec["better"] == "lower" else -1
            # how much worse each set's median is than the other's
            worse = (sign * (mb - ma) / ma, sign * (ma - mb) / mb)
            worst = [max(x, y / spec["bound"]) for x, y in zip(worst, worse)]
            print(f"{w:13s} {m:12s} {ma:.6g} -> {mb:.6g}  {args.second} worse by {worse[0]:+.4f}, "
                  f"{args.first} worse by {worse[1]:+.4f} (bound {spec['bound']})")
    print(f"largest worsening as a share of its bound: {args.second} {worst[0]:.3f}, {args.first} {worst[1]:.3f}")
    return 0


def cmd_overhead(args) -> int:
    rows = [run_one(w, s, trace) for w in WORKLOADS for s in OVERHEAD_SEEDS for trace in (0, 1)]
    (OUT / "report-overhead.json").write_text(json.dumps(rows) + "\n")
    for w in WORKLOADS:
        pairs = [(a["op_p50_s"], b["op_p50_s"]) for a, b in zip(rows[::2], rows[1::2]) if a["workload"] == w]
        diff = statistics.median(t - p for p, t in pairs)
        rel = statistics.median((t - p) / p for p, t in pairs)
        each = ", ".join(f"{(t - p) / p:+.1%}" for p, t in pairs)
        print(f"{w:13s} {len(pairs)} pairs, untraced op_p50_s median {statistics.median(p for p, _ in pairs):.4g} s, "
              f"paired overhead median {diff:+.4g} s ({rel:+.1%}); each pair: {each}")
    return 0


def cmd_scaling(args) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from fractions import Fraction

    from exanova import CellLayout, EffectId, type_ss

    for per in (5, 11, 22, 44):
        counts = [per] * 8 + [0]
        layout = CellLayout((3, 3), tuple(counts))
        y = [Fraction((7 * i) % 13, 4) for i in range(layout.n)]
        t0 = time.perf_counter()
        for t in (1, 2, 3):
            type_ss(t, EffectId((1, 0)), layout, y)
        print(f"n={layout.n:4d}  type_ss types 1-3, effect A: {time.perf_counter() - t0:.3f} s")
    return 0


def cmd_fdist_share(args) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from collections import Counter

    import oracle
    from exanova import fdist
    from workloads import FdistWorkload

    wl, ref = FdistWorkload(1, OUT), oracle.FdistOracle()
    ops, secs, fails = Counter(), Counter(), Counter()
    for _ in range(3):
        for p in wl.next_input().points:
            big = p.kind != "p_value_from" and p.args[-1] > 1490
            key = (p.kind, "ncp > 1490" if big else "ncp <= 1490" if p.kind != "p_value_from" else f"fault {p.fault}")
            fn = getattr(fdist, p.kind)
            t0 = time.perf_counter()
            out = fn(*p.args)
            secs[key] += time.perf_counter() - t0
            ops[key] += 1
            if ref.check(p.kind, p.args, out):
                fails[key] += 1
    total_ops, total_s = sum(ops.values()), sum(secs.values())
    for key in sorted(ops):
        print(f"{key[0]:13s} {key[1]:12s} {ops[key] / 3:5.0f} per round  {ops[key] / total_ops:6.1%} of ops  "
              f"{secs[key] / total_s:6.1%} of time  {fails[key] / 3:4.0f} failed per round")
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("runs")
    r.add_argument("--label", required=True)
    r.add_argument("--seeds", default="1-10")
    r.add_argument("--trace", type=int, choices=(0, 1), default=0)
    r.set_defaults(func=cmd_runs)
    m = sub.add_parser("summary")
    m.add_argument("label")
    m.set_defaults(func=cmd_summary)
    c = sub.add_parser("compare")
    c.add_argument("first")
    c.add_argument("second")
    c.set_defaults(func=cmd_compare)
    sub.add_parser("overhead").set_defaults(func=cmd_overhead)
    s = sub.add_parser("scaling")
    s.set_defaults(func=cmd_scaling)
    sub.add_parser("fdist-share").set_defaults(func=cmd_fdist_share)
    args = ap.parse_args()
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
