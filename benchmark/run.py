"""Run one benchmark workload of stochorder and print its metrics.

    python3 benchmark/run.py --workload {suite,screen} \\
        --seed N --seconds T --trace {0,1}

Run it from the root of a source checkout; the library is imported from
``src/`` there, so no build step is needed. The last line of standard output
is one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``. With ``--trace 0`` the metrics are the end-to-end ones of
``BENCHMARK.json``; with ``--trace 1`` they are the per-layer ones, taken
from one pass over the workload's inputs with span wrappers installed (see
``trace.py``), so they do not depend on ``--seconds`` or on the speed of the
machine. Spans go to ``.bench_out/spans-<workload>-seed<N>.json.gz``, never
into the metrics.

Every op is checked; a failing op is counted in ``failed`` and does not
stop the run. Numeric libraries are held to one thread.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".bench_out"
# set-up is timed this many times, each in a fresh interpreter
SETUP_RUNS = 3
# p95 needs at least 10 ops beyond it, so an untraced run times at least 200
MIN_TIMED_OPS = 200


def import_library() -> None:
    """Import stochorder from ``src/`` of the checkout, and nowhere else."""
    src = (ROOT / "src").resolve()
    sys.path.insert(0, str(src))
    import stochorder

    if not Path(stochorder.__file__).resolve().is_relative_to(src):
        raise ImportError(f"stochorder came from {stochorder.__file__}, not {src}")


def _setup_once(workload: str, seed: int, size: int | None) -> float:
    """Seconds to import stochorder and build the workload's inputs."""
    t0 = time.perf_counter()
    import_library()
    import workloads

    tmp = tempfile.mkdtemp(prefix=f"probe-{workload}-", dir=OUT_DIR)
    try:
        workloads.WORKLOADS[workload](seed, tmp, size)
        return time.perf_counter() - t0
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def _setup_seconds(workload: str, seed: int, size: int | None) -> list[float]:
    """Set-up time of SETUP_RUNS fresh interpreters."""
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    if size:
        cmd += ["--size", str(size)]
    times = []
    for _ in range(SETUP_RUNS):
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                             timeout=120, check=True)
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return times


class Measurement:
    def __init__(self):
        self.ops = []
        self.units = 0

    @property
    def busy_s(self) -> float:
        return sum(o.latency_s for o in self.ops)

    @property
    def ops_per_s(self) -> float:
        return len(self.ops) / self.busy_s


def measure(w, seconds: float, min_ops: int = 0, units: int | None = None) -> Measurement:
    """Run units of the workload for ``seconds`` and at least ``min_ops`` ops,
    or exactly ``units`` units when given.

    A unit is one op, or one whole suite of ops; each op's latency is its own
    library time, so correctness checks stay outside it. No unit starts that
    the last one's duration says would end past the deadline, so a run of
    long units (a whole suite) overshoots ``seconds`` by less than one unit.
    """
    m = Measurement()
    deadline = time.perf_counter() + seconds
    while True:
        t0 = time.perf_counter()
        m.ops.extend(w.run_unit(m.units))
        m.units += 1
        t1 = time.perf_counter()
        if units is not None:
            if m.units >= units:
                return m
        elif t1 + (t1 - t0) > deadline and len(m.ops) >= min_ops:
            return m


def _source_digest() -> str:
    """sha256 over the library's source files."""
    import stochorder

    h = hashlib.sha256()
    for path in sorted(Path(stochorder.__file__).parent.glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _check_repeat(w, ops) -> str:
    """The suite report of a seed must not change between runs of the same
    source; the digest is kept in ``.bench_out`` across runs."""
    path = OUT_DIR / "suite-sha256.json"
    known = json.loads(path.read_text()) if path.exists() else {}
    key = f"{_source_digest()}:seed{w.master_seed}:n{w.n}"
    digest = w.digests[0] if w.digests else None
    if digest is None:
        return ""
    if key in known and known[key] != digest:
        for o in ops:
            o.ok, o.error = False, f"report sha256 {digest} differs from earlier run {known[key]}"
    elif key not in known:
        known[key] = digest
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(known, indent=1))
        os.replace(tmp, path)
    return digest


def run(workload: str, seed: int, seconds: float, trace: bool, size: int | None = None,
        min_ops: int = MIN_TIMED_OPS, corrupt=None) -> dict:
    """One benchmark run; returns the result object that ``main`` prints.

    ``size`` shrinks the inputs and ``corrupt`` edits the built workload
    before timing; both exist for the self-test only.
    """
    import workloads
    import trace as tracing

    OUT_DIR.mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT_DIR)
    try:
        w = workloads.WORKLOADS[workload](seed, tmp, size)
        if corrupt is not None:
            corrupt(w)
        if trace:
            # one pass over the inputs, first untraced and then traced: the
            # totals cover a fixed amount of work, and the two passes give
            # the overhead
            base = measure(w, 0, units=w.units_per_pass)
            rec = tracing.Recorder()
            rec.install()
            try:
                traced = measure(w, 0, units=w.units_per_pass)
            finally:
                rec.uninstall()
            spans = OUT_DIR / f"spans-{workload}-seed{seed}.json.gz"
            rec.write(spans)
            print(f"spans: {len(rec.names)} written to {spans}")
            metrics = rec.metrics(len(traced.ops))
            metrics["trace.overhead_frac"] = (base.ops_per_s / traced.ops_per_s - 1.0, "ratio")
            ops = base.ops + traced.ops
            timed = traced
        else:
            setup = _setup_seconds(workload, seed, size)
            timed = measure(w, seconds, min_ops)
            ops = timed.ops
            lat_ms = sorted(o.latency_s * 1e3 for o in ops)
            metrics = {
                "ops_per_s": (timed.ops_per_s, "1/s"),
                "op_p50_ms": (statistics.median(lat_ms), "ms"),
                "op_p95_ms": (statistics.quantiles(lat_ms, n=20)[18], "ms"),
                "setup_s": (statistics.median(setup), "s"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            }
            print(f"set-up times (s): {', '.join(f'{t:.3f}' for t in setup)}")
            print(f"op latency over {len(lat_ms)} ops: p50 {metrics['op_p50_ms'][0]:.3f} ms, "
                  f"p95 {metrics['op_p95_ms'][0]:.3f} ms")
        if workload == "suite":
            print(f"suite report sha256: {_check_repeat(w, ops)}")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    failed = [o for o in ops if not o.ok]
    for err in sorted({o.error for o in failed})[:5]:
        print(f"failed op: {err}", file=sys.stderr)
    print(f"{workload} seed {seed}: {len(ops)} ops, {timed.busy_s:.2f} s timed, "
          f"failed_frac {len(failed) / len(ops):.4f} ({len(failed)}/{len(ops)})")
    return {
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("suite", "screen"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", type=int, default=None, help=argparse.SUPPRESS)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_probe:
        OUT_DIR.mkdir(exist_ok=True)
        print(_setup_once(args.workload, args.seed, args.size))
        return 0
    try:
        import_library()
    except ImportError as exc:
        print(f"benchmark: cannot import stochorder from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 1
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), size=args.size)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
