"""Command-line surface.

Subcommands map one-to-one onto library operations; every report is JSON
(CDFs additionally export as two-column CSV) and embeds the resolved
configuration and tool version so runs are reproducible byte for byte.

Exit codes: 0 success/consistent, 2 verdict-inconsistent or
hypothesis-failed (for suite: any scenario not consistent), 1
usage/domain/numeric errors or a sample count too large to allocate.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from dataclasses import asdict
from enum import Enum
from typing import Optional

from . import __version__
from .errors import ParameterError, StochOrderError
from .majorization import MajorizationMode, check_majorize, t_transform_chain
from .transforms import ConditionVariant, classify_pq, closed_form_conditions
from .distributions import log_concavity_classify, lr_compare
from .orders import convolve_weighted
from .harness import (
    PROFILE_STAGES,
    Scenario,
    SuiteConfig,
    _compare_weightings,
    check_hypotheses,
    dist_from_spec,
    run_counterexample,
    run_suite,
    timed,
    transform_from_spec,
    verify_iid_theorem,
    verify_noniid_theorem,
    write_crossing_csv,
)

_MODES = {
    "m": MajorizationMode.FULL,
    "full": MajorizationMode.FULL,
    "sub": MajorizationMode.WEAK_SUB,
    "weak_sub": MajorizationMode.WEAK_SUB,
    "sup": MajorizationMode.WEAK_SUP,
    "weak_sup": MajorizationMode.WEAK_SUP,
}


class _Parser(argparse.ArgumentParser):
    """Argument parser that exits with code 1 on usage errors, and reads an
    argument such as ``-1,2`` or ``-1e1`` as a value; its subparsers are
    ``_Parser``s too."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse takes only -N and -N.M for values; no option of this
        # parser starts with a digit, so "-" before a digit begins a value
        self._negative_number_matcher = re.compile(r"^-\.?\d")

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        sys.exit(1)


def _parse_vector(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(t) for t in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated vector: {text!r}")


def _spec_arg(from_spec):
    """Argument type reading ``name:x,y,...`` as the spec ``[name, x, y, ...]``
    through ``from_spec``; a spec it refuses is a usage error of the option."""
    def parse(text: str):
        name, _, args = text.partition(":")
        try:
            return from_spec([name] + (args.split(",") if args else []))
        except StochOrderError as exc:  # a bad spec, or an out-of-range exponent
            raise argparse.ArgumentTypeError(str(exc)) from exc
    return parse


def _parse_variant(text: str) -> ConditionVariant:
    try:
        return ConditionVariant(text.removesuffix("_case"))
    except ValueError:
        raise argparse.ArgumentTypeError(f"variant must be convex or concave, got {text!r}")


def _enum_value(obj):
    """``json``'s fallback: an enum as its value; any other object still raises."""
    return obj.value if isinstance(obj, Enum) else json.JSONEncoder().default(obj)


def _write_json(output: Optional[str], **doc) -> None:
    """``doc`` after ``tool`` and ``version``, as strict JSON, to ``output`` or
    stdout; an enum is written as its value."""
    doc = {"tool": "stochorder", "version": __version__, **doc}
    text = json.dumps(doc, indent=2, allow_nan=False, default=_enum_value) + "\n"
    if output is None:
        sys.stdout.write(text)
    else:
        with open(output, "w") as f:
            f.write(text)


def _write_profile(path: str, command: str, entries: list[dict]) -> None:
    """Stage times of a run as JSON: per scenario, and summed over them.
    They go to their own file, so the report's bytes never depend on them."""
    totals = {}
    for name in ("scenario",) + PROFILE_STAGES:
        runs = [e["stages"][name] for e in entries if name in e["stages"]]
        if runs:
            totals[name] = {
                "count": len(runs),
                "cpu_s": sum(r["cpu_s"] for r in runs),
                "wall_s": sum(r["wall_s"] for r in runs),
            }
    _write_json(path, command=command,
                clock="thread CPU (time.thread_time) and wall (time.perf_counter) seconds",
                totals=totals, scenarios=entries)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="stochorder", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--output")
    dist, transform = _spec_arg(dist_from_spec), _spec_arg(transform_from_spec)

    p = sub.add_parser("major", help="check a (weak) majorization order", parents=[output])
    p.add_argument("--x", type=_parse_vector, required=True)
    p.add_argument("--y", type=_parse_vector, required=True)
    p.add_argument("--mode", choices=sorted(_MODES), default="m")
    p.add_argument("--tol", type=float, default=1e-12)

    p = sub.add_parser("chain", help="T-transform chain from sort(x) to sort(y)", parents=[output])
    p.add_argument("--x", type=_parse_vector, required=True)
    p.add_argument("--y", type=_parse_vector, required=True)

    p = sub.add_parser("conditions", help="closed-form check of the coupling conditions",
                       parents=[output])
    p.add_argument("--phi", type=transform, required=True)
    p.add_argument("--psi", type=transform, required=True)
    p.add_argument("--variant", type=_parse_variant, default=ConditionVariant.CONVEX_CASE)

    p = sub.add_parser("classify", help="power-pair parameter region", parents=[output])
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--q", type=float, required=True)

    p = sub.add_parser("logconcave", help="log-concavity of psi^-1(X)", parents=[output])
    p.add_argument("--dist", type=dist, required=True)
    p.add_argument("--psi", type=transform, default="power:1", help="default power:1, X itself")

    p = sub.add_parser("lr", help="likelihood-ratio order comparison", parents=[output])
    p.add_argument("--d1", type=dist, required=True)
    p.add_argument("--d2", type=dist, required=True)

    p = sub.add_parser("convolve", help="CDF of a weighted sum", parents=[output])
    p.add_argument("--dists", type=lambda text: [dist(t) for t in text.split(";")],
                   required=True,
                   help="semicolon-separated specs, e.g. gengamma:1,1,1;gengamma:1,2,1")
    p.add_argument("--weights", type=_parse_vector, required=True)
    p.add_argument("--csv", help="write the CDF as two-column CSV here")
    p.add_argument("--compare-weights", type=_parse_vector, default=None,
                   help="also convolve with these weights and compare")

    p = sub.add_parser("verify", help="run one scenario file end to end", parents=[output])
    p.add_argument("--scenario", required=True, help="path to a scenario JSON file")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--samples", type=int, default=None)
    p.add_argument("--delta", type=float, default=None)
    p.add_argument("--profile", metavar="PATH",
                   help="write per-stage thread CPU and wall times here (JSON)")

    p = sub.add_parser("counterexample", help="unique-crossing gamma demonstration",
                       parents=[output])
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--a", type=_parse_vector, required=True)
    p.add_argument("--b", type=_parse_vector, required=True)
    p.add_argument("--csv", help="write x, F_a, F_b and F_a - F_b at 400 points here as CSV")

    p = sub.add_parser("suite", help="randomized theorem verification suite", parents=[output])
    p.add_argument("--n", type=int, default=SuiteConfig.n_scenarios)
    p.add_argument("--seed", type=int, default=SuiteConfig.master_seed)
    p.add_argument("--samples", type=int, default=SuiteConfig.n_samples)
    p.add_argument("--delta", type=float, default=SuiteConfig.delta)
    p.add_argument("--presets", default=None,
                   help="comma-separated preset names (default: all)")
    p.add_argument("--profile", metavar="PATH",
                   help="write per-stage thread CPU and wall times here (JSON)")

    return parser


def _cmd_major(args) -> int:
    result = check_majorize(args.x, args.y, _MODES[args.mode], args.tol)
    config = {"x": list(args.x), "y": list(args.y), "mode": args.mode, "tol": args.tol}
    _write_json(args.output, config=config, result={"holds": bool(result)})
    return 0


def _cmd_chain(args) -> int:
    chain = t_transform_chain(args.x, args.y)
    config = {"x": list(args.x), "y": list(args.y)}
    _write_json(args.output, config=config, result={"steps": [list(s) for s in chain]})
    return 0


def _cmd_conditions(args) -> int:
    result = asdict(closed_form_conditions(args.phi, args.psi, args.variant))
    if result["ratio_inf"] == -math.inf:  # JSON has no -Infinity
        result["ratio_inf"] = None
    config = {"phi": list(args.phi.kind), "psi": list(args.psi.kind), "variant": args.variant}
    _write_json(args.output, config=config, result=result)
    return 0


def _cmd_classify(args) -> int:
    region = classify_pq(args.p, args.q)
    if args.output is None:
        print(region.value)
    else:
        _write_json(args.output, config={"p": args.p, "q": args.q}, result={"region": region})
    return 0


def _cmd_logconcave(args) -> int:
    res = log_concavity_classify(args.dist, args.psi)
    config = {"dist": args.dist.label, "psi": list(args.psi.kind)}
    _write_json(args.output, config=config, result=asdict(res))
    return 0


def _cmd_lr(args) -> int:
    res = lr_compare(args.d1, args.d2)
    config = {"d1": args.d1.label, "d2": args.d2.label}
    _write_json(args.output, config=config, result=asdict(res))
    return 0


def _cmd_convolve(args) -> int:
    if args.compare_weights is None:
        cdf = convolve_weighted(args.dists, args.weights)
    else:
        cdf, _, verdict = _compare_weightings(args.dists, args.weights, args.compare_weights)
    config = {
        "dists": [d.label for d in args.dists],
        "weights": list(args.weights),
        "compare_weights": list(args.compare_weights) if args.compare_weights else None,
    }
    result = {
        "grid_points": len(cdf.values),
        "grid_max": float(cdf.knots(slice(-1, None))[0]),
        "tail_tol": cdf.tail_tol,
        "meta": cdf.meta,
    }
    if args.csv:
        cdf.to_csv(args.csv)
        result["csv"] = args.csv
    if args.compare_weights is not None:
        result["comparison"] = {
            "relation": verdict.relation,
            "max_pos_dev": verdict.max_pos_dev,
            "max_neg_dev": verdict.max_neg_dev,
            "crossing_count": verdict.crossing_count,
        }
    _write_json(args.output, config=config, result=result)
    return 0


def _cmd_verify(args) -> int:
    try:
        with open(args.scenario, encoding="utf-8") as f:
            data = json.load(f)
    except (UnicodeDecodeError, RecursionError) as exc:  # not UTF-8, or nested too deep
        raise ParameterError(f"{args.scenario}: not a readable JSON file: {exc}") from None
    if not isinstance(data, dict):
        raise ParameterError(f"scenario file must hold a JSON object, not {type(data).__name__}")
    if args.seed is not None:
        data["seed"] = args.seed
    if args.samples is not None:
        data["n_samples"] = args.samples
    if args.delta is not None:
        data["delta"] = args.delta
    s = Scenario.from_dict(data)
    config = s.to_dict()
    stages = {}
    with timed(stages, "hypotheses"):
        hyp = check_hypotheses(s)
    if not hyp.all_pass:
        result = {
            "status": "hypothesis_not_established",
            "failed_field": hyp.first_not_passing()[0],
            "hypothesis": hyp.to_dict(),
        }
        code = 2
    else:
        verify = verify_iid_theorem if s.is_iid else verify_noniid_theorem
        report = verify(s, hyp, stages)
        result, code = report.to_dict(), 0 if report.consistent else 2
    _write_json(args.output, config=config, result=result)
    if args.profile:
        _write_profile(args.profile, "verify", [{"label": s.label, "stages": stages}])
    return code


def _cmd_counterexample(args) -> int:
    report = run_counterexample(args.alpha, args.a, args.b)
    config = {"alpha": args.alpha, "a": list(args.a), "b": list(args.b)}
    result = report.to_dict()
    if args.csv:
        write_crossing_csv(args.csv, *report.cdfs)
        result["csv"] = args.csv
    _write_json(args.output, config=config, result=result)
    return 0 if report.consistent else 2


def _cmd_suite(args) -> int:
    config = SuiteConfig(
        n_scenarios=args.n, master_seed=args.seed, n_samples=args.samples, delta=args.delta,
        presets=SuiteConfig.presets if args.presets is None else tuple(args.presets.split(",")),
    )
    report = run_suite(config)
    _write_json(args.output, config=config.to_dict(), result=report.to_dict())
    if args.profile is not None:
        entries = [{"index": r["index"], "preset": r["preset"], "status": r["status"],
                    "stages": st} for r, st in zip(report.records, report.stages)]
        _write_profile(args.profile, "suite", entries)
    return 0 if report.n_consistent == len(report.records) else 2


_COMMANDS = {
    "major": _cmd_major,
    "chain": _cmd_chain,
    "conditions": _cmd_conditions,
    "classify": _cmd_classify,
    "logconcave": _cmd_logconcave,
    "lr": _cmd_lr,
    "convolve": _cmd_convolve,
    "verify": _cmd_verify,
    "counterexample": _cmd_counterexample,
    "suite": _cmd_suite,
}


def run(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (StochOrderError, OSError, json.JSONDecodeError, MemoryError) as exc:
        print(f"stochorder: error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
