"""Per-call cost of crscl, before and after a change: writes BENCH_per_call.json.

Runs `crscl bench --format json` at the per-call sizes (n = 1, 8, 64) in
fresh processes, for two source trees and both precisions, alternating the
trees round by round.  Each row's per-call time is the median of the
bench's repetitions; the summary takes the median over rounds, and the
median of the per-round ratios.

    python3 tools/bench_per_call.py --before /path/to/parent/src --after src \\
        --before-label c95a241 --after-label change --out BENCH_per_call.json

A tree whose bench has no `us_per_call` column gets it from
`ns_per_element * n`, which is the same median.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

import numpy as np

SIZES = (1, 8, 64)
PRECISIONS = ("binary32", "binary64")
# Repetitions per row: a call takes 10-30 us, and a median of the bench's
# default 15 moved by up to 30% between runs on a 2-core shared host.
REPS = 201

# Restricts the bench to SIZES and REPS, so both trees run the same rows,
# and runs it once untimed first, so neither tree's first row pays for
# warming up.
CODE = (
    "import os, sys; import crscl.cli as c; c._BENCH_SIZES = {sizes!r}; c._BENCH_REPS = {reps}; "
    "argv = ['bench', '--format', 'json', '--seed', '{seed}', '--precision', '{precision}']; "
    "c.main(argv + ['--out', os.devnull]); sys.exit(c.main(argv))"
)


def run_bench(src: str, precision: str, seed: int) -> dict:
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src), OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1")
    code = CODE.format(sizes=SIZES, reps=REPS, seed=seed, precision=precision)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True, capture_output=True, text=True)
    report = json.loads(out.stdout)
    for row in report["rows"]:
        row.setdefault("us_per_call", round(row["ns_per_element"] * row["n"] / 1e3, 3))
    return report


def table(reports: list) -> dict:
    """us_per_call[precision][engine][n]: the per-call time of each round,
    in round order."""
    out = {}
    for rep in reports:
        for r in rep["rows"]:
            out.setdefault(rep["precision"], {}).setdefault(r["engine"], {}).setdefault(str(r["n"]), []).append(
                r["us_per_call"]
            )
    return out


def summarize(before: dict, after: dict) -> dict:
    out = {}
    for p in PRECISIONS:
        b1, a1 = before[p]["crscl"]["1"], after[p]["crscl"]["1"]
        # Both trees run back to back in each round, so the ratio within a
        # round is less exposed to the host's slow and fast spells.
        ratios = [a / b for b, a in zip(b1, a1)]
        mb, ma = statistics.median(b1), statistics.median(a1)
        out[p] = {
            "crscl_us_per_call_n1": {
                "before": mb,
                "after": ma,
                "reduction": round(1 - ma / mb, 3),
                "paired_reduction": round(1 - statistics.median(ratios), 3),
            },
            # Reported only: is crscl now no slower than naive Smith?
            "crscl_over_naive_smith_after": {
                str(n): round(statistics.median(after[p]["crscl"][str(n)]) / statistics.median(after[p]["naive_smith"][str(n)]), 3)
                for n in SIZES
            },
        }
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--before", required=True, help="src directory of the earlier tree")
    ap.add_argument("--after", required=True, help="src directory of the later tree")
    ap.add_argument("--before-label", default="before")
    ap.add_argument("--after-label", default="after")
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--rounds", type=int, default=25)
    ap.add_argument("--out", default="BENCH_per_call.json")
    args = ap.parse_args()
    runs = {"before": [], "after": []}
    for k in range(args.rounds):
        order = ("before", "after") if k % 2 == 0 else ("after", "before")
        for side in order:
            for p in PRECISIONS:
                runs[side].append(run_bench(getattr(args, side), p, args.seed))
    us = {side: table(reports) for side, reports in runs.items()}
    result = {
        "command": "tools/bench_per_call.py",
        "sizes": list(SIZES),
        "reps": REPS,
        "seed": args.seed,
        "rounds": args.rounds,
        "numpy": np.__version__,
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "labels": {"before": args.before_label, "after": args.after_label},
        "summary": summarize(us["before"], us["after"]),
        "us_per_call": us,
        # The whole bench report of the first round, per tree and precision.
        "bench_round_1": {side: reports[: len(PRECISIONS)] for side, reports in runs.items()},
    }
    with open(args.out, "w") as fh:
        json.dump(result, fh, indent=1)
        fh.write("\n")
    print(json.dumps(result["summary"], indent=1))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
