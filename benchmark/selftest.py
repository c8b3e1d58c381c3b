"""Self-test of the benchmark at a tiny input size (about a minute).

    python3 benchmark/selftest.py

Checks that every workload emits every metric named in BENCHMARK.json with
its unit, that a corrupted reference answer is counted as a failed op, that
suite scenarios the per-scenario clock misses fail, and that the benchmark
exits non-zero, printing no result, where the library's sources are
missing. Exits 0 when all of that holds.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile

import run as bench

SIZES = {"suite": 9, "screen": 3}


def _metric_problems(label, result, expected, positive) -> list[str]:
    got = result["metrics"]
    problems = []
    for m in expected:
        entry = got.get(m["name"])
        if entry is None:
            problems.append(f"{label}: metric {m['name']} missing")
            continue
        value = entry["value"]
        if entry["unit"] != m["unit"]:
            problems.append(f"{label}: {m['name']} has unit {entry['unit']}, not {m['unit']}")
        if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{label}: {m['name']} = {value!r} is not a finite number")
        elif positive and value <= 0:
            problems.append(f"{label}: {m['name']} = {value} is not positive")
    extra = set(got) - {m["name"] for m in expected}
    if extra:
        problems.append(f"{label}: unexpected metrics {sorted(extra)}")
    return problems


def main() -> int:
    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    bench.import_library()
    problems = []

    for wl in spec["workloads"]:
        name = wl["name"]
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            label = f"{name} trace={int(trace)}"
            res = bench.run(name, seed=1, seconds=0, trace=trace, size=SIZES[name],
                            min_ops=SIZES[name])
            problems += _metric_problems(label, res, spec[key], positive=not trace)
            if res["failed"] or not res["correct"]:
                problems.append(f"{label}: {res['failed']} of {res['attempted']} ops failed")
            if trace and name == "screen" \
                    and res["metrics"]["orders.convolve_weighted.calls"]["value"] != 0:
                problems.append(f"{label}: the oracle ran on a workload that bypasses it")

    def flip_first_answer(w):
        w.expected[0][0] = not w.expected[0][0]

    res = bench.run("screen", seed=1, seconds=0, trace=False, size=3, min_ops=3,
                    corrupt=flip_first_answer)
    if res["correct"] or res["failed"] != 1:
        problems.append(f"corrupted reference not counted: {res['failed']} failed, "
                        f"correct={res['correct']}")

    def stop_clock(w):
        w._clock = lambda orig: orig

    res = bench.run("suite", seed=1, seconds=0, trace=False, size=SIZES["suite"],
                    min_ops=SIZES["suite"], corrupt=stop_clock)
    if res["correct"] or res["failed"] != SIZES["suite"]:
        problems.append(f"untimed suite scenarios not failed: {res['failed']} failed")

    with tempfile.TemporaryDirectory(dir=bench.OUT_DIR) as bare:
        shutil.copy(bench.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(bench.BENCH_DIR, f"{bare}/{bench.BENCH_DIR.name}",
                        ignore=shutil.ignore_patterns("__pycache__"))
        out = subprocess.run(
            [sys.executable, f"{bench.BENCH_DIR.name}/run.py", "--workload", "screen",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=120,
        )
        if out.returncode == 0 or '"correct"' in out.stdout:
            problems.append(f"ran without the library's sources: exit {out.returncode}")

    for p in problems:
        print(f"SELFTEST FAIL: {p}")
    print(f"selftest: {'FAIL' if problems else 'PASS'} ({len(problems)} problems)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
