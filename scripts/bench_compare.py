"""Benchmark two source checkouts in alternating pairs and record the result.

    python3 scripts/bench_compare.py --parent DIR --change DIR \\
        --workload suite --pairs 10 --first-seed 3001 --trace-seed 7 \\
        --output BENCH_<n>.json

Pair i runs ``benchmark/run.py --workload W --seed <first-seed + i>`` in both
checkouts, the parent first on even i and the change first on odd i, with the
run length the benchmark sets. The output file gets one entry per workload:
every run's end-to-end metrics, each side's quartiles per metric, and how many
pairs the change won (ties count for neither side). Each metric also gets a
verdict, printed as one line: the change/parent ratio of the medians, whether
the gain rule holds (the change wins at least nine tenths of the pairs and
its median is better than the parent's by more than the parent's IQR), and
whether the change's median is worse than the parent's by more than the
metric's ``bound`` in ``BENCHMARK.json``. With ``--trace-seed`` each
checkout also makes one ``--trace 1`` run, whose per-layer metrics are kept
beside the pairs. An existing output file keeps its other workloads, so the
workloads can be measured one invocation at a time.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


# lines of a failed run's standard error that are printed
STDERR_TAIL = 20


def bench_run(checkout: Path, side: str, workload: str, seed: int, trace: bool) -> dict:
    """One ``benchmark/run.py`` run; its last output line is the result. A
    failed run ends the script with exit 1, after printing what failed and
    the end of the run's standard error."""
    cmd = [sys.executable, "benchmark/run.py", "--workload", workload,
           "--seed", str(seed), "--trace", str(int(trace))]
    out = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True,
                         timeout=1800)
    if out.returncode != 0:
        tail = "\n".join(out.stderr.rstrip().splitlines()[-STDERR_TAIL:])
        print(f"bench_compare: {side} run of {workload} failed: seed {seed} exited "
              f"{out.returncode}; last lines of stderr:\n{tail}", file=sys.stderr)
        raise SystemExit(1)
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    sha = [ln.split(":", 1)[1].strip() for ln in lines if ln.startswith("suite report sha256:")]
    return {
        "seed": seed,
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "report_sha256": sha[0] if sha else None,
        "metrics": {k: v["value"] for k, v in result["metrics"].items()},
    }


def quartiles(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": q2, "q3": q3, "iqr": q3 - q1}


def summarize(runs: dict, end_to_end: list[dict]) -> dict:
    out = {}
    for spec in end_to_end:
        name, higher = spec["name"], spec["better"] == "higher"
        parent = [r["metrics"][name] for r in runs["parent"]]
        change = [r["metrics"][name] for r in runs["change"]]
        wins = sum((c > p) if higher else (c < p) for p, c in zip(parent, change))
        pq, cq = quartiles(parent), quartiles(change)
        # how much better the change's median is, in the metric's unit
        gain = (cq["median"] - pq["median"]) * (1 if higher else -1)
        out[name] = {
            "unit": spec["unit"],
            "better": spec["better"],
            "bound": spec["bound"],
            "parent": pq,
            "change": cq,
            "change_wins": wins,
            "pairs": len(parent),
            "ratio": cq["median"] / pq["median"] if pq["median"] else None,
            "gain_rule": 10 * wins >= 9 * len(parent) and gain > pq["iqr"],
            "past_bound": -gain > spec["bound"] * abs(pq["median"]),
        }
    return out


def verdict_line(name: str, s: dict) -> str:
    ratio = "n/a" if s["ratio"] is None else f"{s['ratio']:.3f}"
    return (f"{name}: parent median {s['parent']['median']:.4g} (IQR {s['parent']['iqr']:.3g}), "
            f"change median {s['change']['median']:.4g}, change/parent {ratio}, "
            f"change won {s['change_wins']}/{s['pairs']}; "
            f"gain rule {'holds' if s['gain_rule'] else 'fails'}; "
            f"{'worse than the parent past' if s['past_bound'] else 'within'} "
            f"its bound of {s['bound']:.0%}")


def machine() -> dict:
    import numpy
    import scipy

    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, required=True)
    parser.add_argument("--trace-seed", type=int)
    parser.add_argument("--output", type=Path, required=True)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2: quartiles need two runs per side")

    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    spec = json.loads((checkouts["change"] / "BENCHMARK.json").read_text())
    runs = {side: [] for side in SIDES}
    for i in range(args.pairs):
        seed = args.first_seed + i
        for side in (SIDES if i % 2 == 0 else SIDES[::-1]):
            runs[side].append(bench_run(checkouts[side], side, args.workload, seed, False))
            print(f"pair {i + 1}/{args.pairs} {side}: "
                  f"{json.dumps(runs[side][-1]['metrics'])}", flush=True)
    entry = {
        "pairs": args.pairs,
        "order": "parent first in even pairs, change first in odd pairs",
        "summary": summarize(runs, spec["end_to_end"]),
        "runs": runs,
    }
    if args.trace_seed is not None:
        entry["trace"] = {side: bench_run(checkouts[side], side, args.workload, args.trace_seed, True)
                          for side in SIDES}

    doc = json.loads(args.output.read_text()) if args.output.exists() else {}
    doc["machine"] = machine()
    doc.setdefault("workloads", {})[args.workload] = entry
    args.output.write_text(json.dumps(doc, indent=1) + "\n")
    for name, s in entry["summary"].items():
        print(verdict_line(name, s))
    return 0


if __name__ == "__main__":
    sys.exit(main())
