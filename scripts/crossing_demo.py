#!/usr/bin/env python3
"""Export the CDFs of the unique-crossing gamma example as CSV.

With iid gamma components, weights a = (2, 1, 1) majorize b = (1.5, 1.5, 1)
and the two weighted sums share a mean, so their CDFs cross exactly once
and neither sum dominates the other. This script tabulates both CDFs and
their difference so the crossing can be plotted.

Example:
    python3 scripts/crossing_demo.py --alpha 1 --out crossing.csv
"""

import argparse
import sys

import numpy as np

from stochorder import run_counterexample


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--alpha", type=float, default=1.0, help="gamma shape")
    ap.add_argument("--a", default="2,1,1")
    ap.add_argument("--b", default="1.5,1.5,1")
    ap.add_argument("--points", type=int, default=400)
    ap.add_argument("--out", default="crossing.csv")
    args = ap.parse_args()

    a = tuple(float(t) for t in args.a.split(","))
    b = tuple(float(t) for t in args.b.split(","))

    report = run_counterexample(args.alpha, a, b)
    v = report.verdict
    print(f"relation={v.relation.value} crossings={v.crossing_count} "
          f"mean_gap={v.meta['mean_gap']:.2e}")

    fa, fb = report.cdfs
    hi = min(fa.grid[-1], fb.grid[-1])
    xs = np.linspace(0.0, hi, args.points)
    va, vb = fa.evaluate(xs), fb.evaluate(xs)

    with open(args.out, "w") as f:
        f.write("x,F_a,F_b,diff\n")
        for x, ya, yb in zip(xs, va, vb):
            f.write(f"{x:.10g},{ya:.10g},{yb:.10g},{ya - yb:.10g}\n")
    print(f"wrote {args.points} rows to {args.out}")
    return 0 if report.consistent else 2


if __name__ == "__main__":
    sys.exit(main())
