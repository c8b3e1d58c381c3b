"""Command-line surface.

Subcommands map one-to-one onto library operations; every report is JSON
(CDFs additionally export as two-column CSV) and embeds the resolved
configuration and tool version so runs are reproducible byte for byte.

Exit codes: 0 success/consistent, 2 verdict-inconsistent or
hypothesis-failed, 1 usage/domain/numeric errors.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict
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
    StageClock,
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
    """Argument parser that exits with code 1 on usage errors."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        sys.exit(1)


def _parse_vector(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(t) for t in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated vector: {text!r}")


def _text_spec(text: str) -> list[str]:
    """``name:x,y,...`` as the spec ``[name, x, y, ...]``."""
    name, _, args = text.partition(":")
    return [name] + (args.split(",") if args else [])


def _parse_transform_arg(text: str):
    try:
        return transform_from_spec(_text_spec(text))
    except StochOrderError as exc:  # a bad or out-of-range exponent
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _parse_dist_arg(text: str):
    try:
        return dist_from_spec(_text_spec(text))
    except ParameterError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _parse_variant(text: str) -> ConditionVariant:
    if text in ("convex", "convex_case"):
        return ConditionVariant.CONVEX_CASE
    if text in ("concave", "concave_case"):
        return ConditionVariant.CONCAVE_CASE
    raise argparse.ArgumentTypeError(f"variant must be convex or concave, got {text!r}")


def _parse_lc_variant(text: str):
    if text in ("identity", "log"):
        return text
    name, _, arg = text.partition(":")
    if name == "power" and arg:
        return ("power", float(arg))
    raise argparse.ArgumentTypeError(
        f"variant must be identity, log or power:r, got {text!r}"
    )


def _resolve_output(path: Optional[str]) -> Optional[str]:
    if path is None:
        return None
    base = os.environ.get("STOCHORDER_OUTPUT_DIR")
    if base and not os.path.isabs(path):
        return os.path.join(base, path)
    return path


def _emit(report: dict, config: dict, output: Optional[str]) -> None:
    doc = {"tool": "stochorder", "version": __version__, "config": config,
           "result": report}
    text = json.dumps(doc, indent=2, allow_nan=False) + "\n"
    path = _resolve_output(output)
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w") as f:
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
    doc = {"tool": "stochorder", "version": __version__, "command": command,
           "clock": "thread CPU (time.thread_time) and wall (time.perf_counter) seconds",
           "totals": totals, "scenarios": entries}
    with open(_resolve_output(path), "w") as f:
        f.write(json.dumps(doc, indent=2, allow_nan=False) + "\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="stochorder", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("major", help="check a (weak) majorization order")
    p.add_argument("--x", type=_parse_vector, required=True)
    p.add_argument("--y", type=_parse_vector, required=True)
    p.add_argument("--mode", choices=sorted(_MODES), default="m")
    p.add_argument("--tol", type=float, default=1e-12)
    p.add_argument("--output")

    p = sub.add_parser("chain", help="T-transform chain from sort(x) to sort(y)")
    p.add_argument("--x", type=_parse_vector, required=True)
    p.add_argument("--y", type=_parse_vector, required=True)
    p.add_argument("--output")

    p = sub.add_parser("conditions", help="closed-form check of the coupling conditions")
    p.add_argument("--phi", type=_parse_transform_arg, required=True)
    p.add_argument("--psi", type=_parse_transform_arg, required=True)
    p.add_argument("--variant", type=_parse_variant, default=ConditionVariant.CONVEX_CASE)
    p.add_argument("--output")

    p = sub.add_parser("classify", help="power-pair parameter region")
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--q", type=float, required=True)
    p.add_argument("--output")

    p = sub.add_parser("logconcave", help="log-concavity of a transformed variable")
    p.add_argument("--dist", type=_parse_dist_arg, required=True)
    p.add_argument("--variant", type=_parse_lc_variant, default="identity")
    p.add_argument("--output")

    p = sub.add_parser("lr", help="likelihood-ratio order comparison")
    p.add_argument("--d1", type=_parse_dist_arg, required=True)
    p.add_argument("--d2", type=_parse_dist_arg, required=True)
    p.add_argument("--output")

    p = sub.add_parser("convolve", help="CDF of a weighted sum")
    p.add_argument("--dists", required=True,
                   help="semicolon-separated specs, e.g. gengamma:1,1,1;gengamma:1,2,1")
    p.add_argument("--weights", type=_parse_vector, required=True)
    p.add_argument("--csv", help="write the CDF as two-column CSV here")
    p.add_argument("--compare-weights", type=_parse_vector, default=None,
                   help="also convolve with these weights and compare")
    p.add_argument("--output")

    p = sub.add_parser("verify", help="run one scenario file end to end")
    p.add_argument("--scenario", required=True, help="path to a scenario JSON file")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--samples", type=int, default=None)
    p.add_argument("--delta", type=float, default=None)
    p.add_argument("--output")
    p.add_argument("--profile", metavar="PATH",
                   help="write per-stage thread CPU and wall times here (JSON)")

    p = sub.add_parser("counterexample", help="unique-crossing gamma demonstration")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--a", type=_parse_vector, required=True)
    p.add_argument("--b", type=_parse_vector, required=True)
    p.add_argument("--csv", help="write x, F_a, F_b and F_a - F_b at 400 points here as CSV")
    p.add_argument("--output")

    p = sub.add_parser("suite", help="randomized theorem verification suite")
    p.add_argument("--n", type=int, default=SuiteConfig.n_scenarios)
    p.add_argument("--seed", type=int, default=SuiteConfig.master_seed)
    p.add_argument("--samples", type=int, default=SuiteConfig.n_samples)
    p.add_argument("--delta", type=float, default=SuiteConfig.delta)
    p.add_argument("--presets", default=None,
                   help="comma-separated preset names (default: all)")
    p.add_argument("--output")
    p.add_argument("--profile", metavar="PATH",
                   help="write per-stage thread CPU and wall times here (JSON)")

    return parser


def _cmd_major(args) -> int:
    result = check_majorize(args.x, args.y, _MODES[args.mode], args.tol)
    config = {"x": list(args.x), "y": list(args.y), "mode": args.mode, "tol": args.tol}
    _emit({"holds": bool(result)}, config, args.output)
    return 0


def _cmd_chain(args) -> int:
    chain = t_transform_chain(args.x, args.y)
    config = {"x": list(args.x), "y": list(args.y)}
    _emit({"steps": [list(s) for s in chain]}, config, args.output)
    return 0


def _cmd_conditions(args) -> int:
    result = asdict(closed_form_conditions(args.phi, args.psi, args.variant))
    if result["ratio_inf"] == -math.inf:  # JSON has no -Infinity
        result["ratio_inf"] = None
    config = {
        "phi": list(args.phi.kind),
        "psi": list(args.psi.kind),
        "variant": args.variant.value,
    }
    _emit(result, config, args.output)
    return 0


def _cmd_classify(args) -> int:
    region = classify_pq(args.p, args.q)
    if args.output is None:
        print(region.value)
    else:
        _emit({"region": region.value}, {"p": args.p, "q": args.q}, args.output)
    return 0


def _cmd_logconcave(args) -> int:
    res = log_concavity_classify(args.dist, args.variant)
    variant = args.variant if isinstance(args.variant, str) else list(args.variant)
    config = {"dist": args.dist.label, "variant": variant}
    _emit(
        {"verdict": res.verdict.value, "witness": res.witness, "detail": res.detail},
        config,
        args.output,
    )
    return 0


def _cmd_lr(args) -> int:
    res = lr_compare(args.d1, args.d2)
    config = {"d1": args.d1.label, "d2": args.d2.label}
    _emit(
        {
            "verdict": res.verdict.value,
            "witness": list(res.witness) if res.witness is not None else None,
            "detail": res.detail,
        },
        config,
        args.output,
    )
    return 0


def _cmd_convolve(args) -> int:
    dists = [dist_from_spec(_text_spec(t)) for t in args.dists.split(";")]
    if args.compare_weights is None:
        cdf = convolve_weighted(dists, args.weights)
    else:
        cdf, _, verdict = _compare_weightings(dists, args.weights, args.compare_weights)
    config = {
        "dists": [d.label for d in dists],
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
        cdf.to_csv(_resolve_output(args.csv))
        result["csv"] = args.csv
    if args.compare_weights is not None:
        result["comparison"] = {
            "relation": verdict.relation.value,
            "max_pos_dev": verdict.max_pos_dev,
            "max_neg_dev": verdict.max_neg_dev,
            "crossing_count": verdict.crossing_count,
        }
    _emit(result, config, args.output)
    return 0


def _cmd_verify(args) -> int:
    with open(args.scenario) as f:
        data = json.load(f)
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
    clock = StageClock() if args.profile else None
    with timed(clock, "hypotheses"):
        hyp = check_hypotheses(s)
    if not hyp.all_pass:
        name, check = hyp.first_not_passing()
        _emit(
            {
                "status": "hypothesis_not_established",
                "failed_field": name,
                "hypothesis": hyp.to_dict(),
            },
            config,
            args.output,
        )
        code = 2
    else:
        verify = verify_iid_theorem if s.is_iid else verify_noniid_theorem
        report = verify(s, hyp, clock)
        _emit(report.to_dict(), config, args.output)
        code = 0 if report.consistent else 2
    if clock is not None:
        _write_profile(args.profile, "verify", [{"label": s.label, "stages": clock.stages}])
    return code


def _cmd_counterexample(args) -> int:
    report = run_counterexample(args.alpha, args.a, args.b)
    config = {"alpha": args.alpha, "a": list(args.a), "b": list(args.b)}
    result = report.to_dict()
    if args.csv:
        write_crossing_csv(_resolve_output(args.csv), *report.cdfs)
        result["csv"] = args.csv
    _emit(result, config, args.output)
    return 0 if report.consistent else 2


def _cmd_suite(args) -> int:
    config = SuiteConfig(
        n_scenarios=args.n, master_seed=args.seed, n_samples=args.samples, delta=args.delta,
        presets=SuiteConfig.presets if args.presets is None else tuple(args.presets.split(",")),
    )
    report = run_suite(config)
    _emit(report.to_dict(), config.to_dict(), args.output)
    if args.profile is not None:
        entries = [
            {"index": r["index"], "preset": r["preset"], "status": r["status"],
             "stages": c.stages}
            for r, c in zip(report.records, report.clocks)
        ]
        _write_profile(args.profile, "suite", entries)
    ok = report.n_inconsistent == 0 and report.n_failed_hypotheses == 0
    return 0 if ok else 2


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
    except (StochOrderError, OSError, json.JSONDecodeError) as exc:
        print(f"stochorder: error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
