"""Benchmark for exanova: one seeded workload, run as a closed loop.

    python3 exabench/run.py --workload anova-tall --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; exanova is imported from its
`src/` directory.  One process, one client, no threads: the next op
starts when the previous one returns, until `--seconds` have passed.
Ops are timed in batches of a fixed size: one op for anova and verify,
one round of the grid for fdist-range, so that a run holds whole rounds.
An op's time is its batch's time over the batch size.  Outputs are
checked against oracles after the timed loop.  The last line of standard output
is one JSON object with `correct`, `attempted`, `failed` and `metrics`:
the end-to-end metrics with `--trace 0`, the per-layer metrics with
`--trace 1`.  Per-op times go to `exabench/out/`, and so do the spans of
a traced run.  See exabench/README.md.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# Cold starts are spread over the run, between ops, so that setup_s
# samples the machine over the same stretch of time as the ops do.
SETUP_EVERY_S = 2.0
SETUP_CODE = (
    "import time; t0 = time.perf_counter(); import sys; sys.path.insert(0, sys.argv[1]); "
    "import exanova.cli; exanova.cli.build_parser(); print(repr(time.perf_counter() - t0))"
)


def cold_start() -> float:
    """Time for a fresh interpreter to import exanova and build the CLI
    parser, measured inside the child."""
    res = subprocess.run(
        [sys.executable, "-c", SETUP_CODE, str(SRC)],
        cwd=ROOT, capture_output=True, text=True, timeout=60, check=True,
    )
    return float(res.stdout)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "exanova" / "__init__.py").is_file():
        print(f"error: no exanova sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import exanova

    if Path(exanova.__file__).resolve().parent != SRC / "exanova":
        print(f"error: imported exanova from {exanova.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; have {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    import exanova.cli, exanova.verify  # noqa: E401  (every layer loaded before tracing)

    cold_start()  # untimed, so that byte code is cached
    wl = WORKLOADS[args.workload](args.seed, OUT)
    tracer = None
    if args.trace:
        from spans import PER_LAYER, Tracer

        tracer = Tracer(wl.count_ops)
        tracer.install()

    # Each batch's time, input and output go to a log file, not to memory,
    # so that peak memory does not grow with the number of ops a run completes.
    log_path = OUT / f"ops-{args.workload}-s{args.seed}-t{args.trace}.jsonl"
    nops = 0
    setups: list[float] = []
    next_setup = time.perf_counter()
    deadline = next_setup + args.seconds
    with open(log_path, "w", encoding="utf-8") as log:
        try:
            while True:
                if time.perf_counter() >= next_setup:
                    setups.append(cold_start())
                    next_setup = time.perf_counter() + SETUP_EVERY_S
                inp = wl.next_input()
                wl.prepare(inp)
                if tracer:
                    tracer.op_id = nops
                t0 = time.perf_counter()
                out = wl.run(inp)
                t1 = time.perf_counter()
                nops += wl.batch_len
                log.write(json.dumps([t1 - t0, dataclasses.asdict(inp), out]) + "\n")
                if t1 >= deadline and nops >= wl.count_ops:
                    break
        finally:
            if tracer:
                tracer.op_id = -1
                tracer.uninstall()
            wl.close()
    rss = peak_rss_mb()  # before any oracle library is imported

    times: list[float] = []  # per op: a batch's time over its ops
    batch_s = 0.0
    failed = 0
    unexpected: list[str] = []
    import oracle

    unexpected += oracle.balanced_self_test()
    with open(log_path, encoding="utf-8") as log:
        for line in log:
            t, fields, out = json.loads(line)
            times.append(t / wl.batch_len)
            batch_s += t
            for errs, fault in wl.check(wl.load(fields), out):
                if errs:
                    failed += 1
                    if fault is None:
                        unexpected += errs
    for e in unexpected[:20]:
        print(f"FAIL {e}", file=sys.stderr)
    correct = not unexpected

    op_p50 = statistics.median(times)
    setup_s = statistics.median(setups)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "op_times_s": times, "setup_times_s": setups, "setup_s": setup_s, "peak_rss_mb": rss, "op_p50_s": op_p50,
    }
    if tracer:
        values = tracer.metrics(nops)
        metrics = {m: {"value": values[m], "unit": u} for m, u in PER_LAYER}
        stem = OUT / f"trace-{args.workload}-s{args.seed}"
        tracer.write(stem)
        record["spans"] = len(tracer.name)
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "op_p50_s": {"value": op_p50, "unit": "s"},
            "ops_per_s": {"value": nops / batch_s, "unit": "1/s"},
            "peak_rss_mb": {"value": rss, "unit": "MB"},
        }
    record["metrics"] = metrics
    (OUT / f"result-{args.workload}-s{args.seed}-t{args.trace}.json").write_text(json.dumps(record) + "\n")
    print(json.dumps({"correct": correct, "attempted": nops, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
