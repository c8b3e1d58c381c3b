"""Verification scenarios tying the pieces together: hypothesis checking
(premise order in transformed coordinates, convexity conditions,
log-concavity, lr chains), Monte-Carlo plus exact-oracle conclusion tests,
the unique-crossing counterexample, and randomized scenario suites.

A scenario's components are gamma-family variables (``GeneralizedGamma`` or
``GammaPower``) and its phi and psi are built-in transform kinds, so every
hypothesis is decided in closed form or by a finite exact check.

Direction conventions: in the convex case the a-weighted sum is predicted
to dominate stochastically; in the concave case the b-weighted sum is.
For non-identical variables (given in lr-decreasing order) the convex case
pairs the i-th largest coefficient with the i-th variable, the concave
case the i-th smallest.
"""

from __future__ import annotations

import math
import numbers
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager, nullcontext
from dataclasses import asdict, dataclass, field, fields
from enum import Enum
from itertools import repeat
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .errors import DomainError, OrderError, ParameterError, StochOrderError
from .majorization import (
    MajorizationMode,
    WeightVector,
    as_weight_vector,
    check_majorize,
)
from .transforms import (
    ConditionVariant,
    Direction,
    Transform,
    closed_form_conditions,
    make_exp,
    make_log_shift,
    make_power,
)
from .distributions import (
    Dist,
    GammaPower,
    GeneralizedGamma,
    LRVerdict,
    LogConcavity,
    log_concavity_classify,
    lr_compare,
)
from .orders import (
    DEFAULT_DELTA,
    NumericCDF,
    OrderVerdict,
    Relation,
    convolve_weighted,
    st_compare_empirical,
    st_compare_exact,
)

ORACLE_MAX_N = 4
# draws of each sum in a scenario's DKW test, unless the scenario says otherwise
DEFAULT_N_SAMPLES = 100_000


# the stages of a scenario that a StageClock times, in order
PROFILE_STAGES = ("hypotheses", "sampling", "dkw", "oracle_a", "oracle_b", "exact")


class StageClock:
    """Thread CPU and wall seconds of the stages of one scenario, which the
    command line's ``--profile`` writes. Timings never enter a report, which
    stays byte-reproducible."""

    def __init__(self):
        self.stages: dict[str, dict[str, float]] = {}

    @contextmanager
    def stage(self, name: str):
        cpu, wall = time.thread_time(), time.perf_counter()
        try:
            yield
        finally:
            self.stages[name] = {
                "cpu_s": time.thread_time() - cpu,
                "wall_s": time.perf_counter() - wall,
            }


def timed(clock: Optional[StageClock], name: str):
    """``clock.stage(name)``, or no timing where there is no clock."""
    return nullcontext() if clock is None else clock.stage(name)


class CheckStatus(Enum):
    PASS = "pass"
    FAIL = "fail"


@dataclass(frozen=True)
class HypothesisCheck:
    """One hypothesis's status, which a closed form or a finite exact check
    decided."""

    status: CheckStatus
    detail: str = ""
    witness: Optional[tuple] = None


@dataclass(frozen=True)
class HypothesisReport:
    majorization_ok: HypothesisCheck
    conditions_ok: HypothesisCheck
    logconcavity_ok: HypothesisCheck
    lr_chain_ok: HypothesisCheck

    def items(self):
        return tuple((f.name, getattr(self, f.name)) for f in fields(self))

    @property
    def all_pass(self) -> bool:
        return all(c.status is CheckStatus.PASS for _, c in self.items())

    def first_not_passing(self) -> Optional[tuple[str, HypothesisCheck]]:
        for name, c in self.items():
            if c.status is not CheckStatus.PASS:
                return name, c
        return None

    def to_dict(self) -> dict:
        # every hypothesis is decided analytically, which "basis" records
        return {
            name: {"status": c.status.value, "basis": "analytic", "detail": c.detail,
                   "witness": list(c.witness) if c.witness is not None else None}
            for name, c in self.items()
        }


@dataclass(frozen=True)
class Scenario:
    """One executable instance of a weighted-sum comparison theorem. Each
    component is a ``GeneralizedGamma`` or a ``GammaPower``."""

    dists: tuple[Dist, ...]
    phi: Transform
    psi: Transform
    variant: ConditionVariant
    a: WeightVector
    b: WeightVector
    premise_mode: MajorizationMode = MajorizationMode.FULL
    n_samples: int = DEFAULT_N_SAMPLES
    seed: int = 42
    delta: float = DEFAULT_DELTA
    label: str = ""

    def __post_init__(self):
        object.__setattr__(self, "dists", tuple(self.dists))
        for d in self.dists:
            if not isinstance(d, Dist):
                raise ParameterError(f"components are gengamma or gammapower, not {d!r}")
        for name in ("a", "b"):
            w = as_weight_vector(getattr(self, name))
            if any(t < 0 for t in w):
                raise ParameterError(f"weights must be nonnegative, got {name} = {list(w)}")
            object.__setattr__(self, name, w)
        n = len(self.dists)
        if not (n == len(self.a) == len(self.b)):
            raise ParameterError(
                f"dists/a/b lengths differ: {n}, {len(self.a)}, {len(self.b)}"
            )
        object.__setattr__(self, "n_samples", _integral(self.n_samples, "n_samples"))
        object.__setattr__(self, "seed", _integral(self.seed, "seed"))
        _check_sampling(self.n_samples, self.delta)
        if self.seed < 0:
            raise ParameterError(f"seed must be >= 0, got {self.seed}")

    @property
    def is_iid(self) -> bool:
        return all(d == self.dists[0] for d in self.dists[1:])

    def to_dict(self) -> dict:
        return {
            "dists": [_dist_to_spec(d) for d in self.dists],
            "phi": list(self.phi.kind),
            "psi": list(self.psi.kind),
            "variant": self.variant.value,
            "a": list(self.a),
            "b": list(self.b),
            "premise_mode": self.premise_mode.value,
            "n_samples": self.n_samples,
            "seed": self.seed,
            "delta": self.delta,
            "label": self.label,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Scenario":
        """The scenario of a ``to_dict`` dict; a missing optional field takes
        its default."""
        try:
            return cls(
                dists=tuple(dist_from_spec(s) for s in data["dists"]),
                phi=transform_from_spec(data["phi"]),
                psi=transform_from_spec(data["psi"]),
                variant=ConditionVariant(data["variant"]),
                a=_weights_field(data["a"], "a"),
                b=_weights_field(data["b"], "b"),
                **{k: coerce(data[k]) for k, coerce in _OPTIONAL_FIELDS.items() if k in data},
            )
        except KeyError as exc:
            raise ParameterError(f"scenario is missing field {exc}") from exc
        except StochOrderError:
            raise
        except (TypeError, ValueError, OverflowError) as exc:
            raise ParameterError(f"malformed scenario: {exc}") from exc


# the optional fields of a scenario dict and their coercions (Scenario
# checks the integer fields itself)
_OPTIONAL_FIELDS = {"premise_mode": MajorizationMode, "n_samples": lambda v: v,
                    "seed": lambda v: v, "delta": float, "label": str}


def _weights_field(value, name: str) -> tuple:
    """A weight vector of a scenario dict: an array of numbers or their text."""
    if not isinstance(value, (list, tuple)) or any(isinstance(t, (bool, np.bool_)) for t in value):
        raise ParameterError(f"{name} must be an array of numbers, not {value!r}")
    return tuple(value)


def _check_sampling(n_samples: int, delta: float) -> None:
    if n_samples < 1000:
        raise ParameterError("n_samples must be >= 1000")
    if not 0 < delta < 1:
        raise ParameterError("delta must lie in (0, 1)")


def _integral(value, name: str) -> int:
    """An integer field: an int, a numpy integer, or a number or text with an
    integer value. A bool, or a fractional or non-finite number, is rejected
    rather than truncated."""
    if isinstance(value, numbers.Integral) and not isinstance(value, bool):
        return int(value)
    if not isinstance(value, (bool, np.bool_)):
        try:
            if float(value).is_integer():
                return int(float(value))
        except (TypeError, ValueError):
            pass
    raise ParameterError(f"{name} must be an integer, got {value!r}")


def _dist_to_spec(d: Dist) -> list:
    if isinstance(d, GeneralizedGamma):
        return ["gengamma", d.p, d.alpha, d.lam]
    return ["gammapower", d.r, d.alpha, d.lam]


def _spec_fields(spec, arity: dict[str, int], what: str) -> tuple[str, list[float]]:
    """Name and numeric fields of a spec ``[name, *numbers]``, checked
    against the number of fields each known name takes."""
    if isinstance(spec, str) or not isinstance(spec, Sequence) or not spec \
            or not isinstance(spec[0], str) or spec[0] not in arity:
        raise ParameterError(f"unknown {what} spec {spec!r}; choose from {sorted(arity)}")
    name, fields = spec[0], list(spec[1:])
    if len(fields) != arity[name]:
        raise ParameterError(
            f"{what} {name!r} takes {arity[name]} numeric field(s), "
            f"got {len(fields)} in {list(spec)!r}"
        )
    values = []
    for f in fields:
        try:
            v = math.nan if isinstance(f, bool) else float(f)
        except (TypeError, ValueError, OverflowError):
            v = math.nan
        if not math.isfinite(v):
            raise ParameterError(f"{what} {name!r}: {f!r} is not a finite number")
        values.append(v)
    return name, values


def dist_from_spec(spec: Sequence) -> Dist:
    """Distribution from ``["gengamma", p, alpha, lam]`` or
    ``["gammapower", r, alpha, lam]``; the inverse of ``_dist_to_spec``.
    Numeric fields may be numbers or their text."""
    name, values = _spec_fields(spec, {"gengamma": 3, "gammapower": 3}, "distribution")
    return (GeneralizedGamma if name == "gengamma" else GammaPower)(*values)


def transform_from_spec(spec: Sequence) -> Transform:
    """Transform from ``["exp"]``, ``["power", r]`` or ``["logshift"]``."""
    name, values = _spec_fields(spec, {"exp": 0, "power": 1, "logshift": 0}, "transform")
    return Transform((name, *values))


@dataclass(frozen=True)
class TheoremReport:
    hypothesis: HypothesisReport
    verdict: OrderVerdict
    oracle_verdict: Optional[OrderVerdict]
    consistent: bool
    predicted: str            # "a" or "b"
    label: str = ""
    # the oracle CDFs of the A- and B-sums, where the caller wants them
    # (run_counterexample); never part of the report
    cdfs: Optional[tuple[NumericCDF, NumericCDF]] = field(
        default=None, compare=False, repr=False
    )

    def to_dict(self) -> dict:
        return {
            "label": self.label,
            "predicted": self.predicted,
            "consistent": self.consistent,
            "hypothesis": self.hypothesis.to_dict(),
            "verdict": _verdict_to_dict(self.verdict),
            "oracle_verdict": (
                _verdict_to_dict(self.oracle_verdict)
                if self.oracle_verdict is not None
                else None
            ),
        }


def _verdict_to_dict(v: OrderVerdict) -> dict:
    return {**asdict(v), "relation": v.relation.value, "meta": dict(sorted(v.meta.items()))}


def _inverse_weights(phi: Transform, w: WeightVector) -> np.ndarray:
    out = []
    for t in w:
        try:
            v = float(phi.inverse(float(t)))
        except (ValueError, OverflowError, ZeroDivisionError) as exc:
            raise DomainError(
                f"{phi.label} inverse undefined at weight {t}"
            ) from exc
        if not math.isfinite(v):
            raise DomainError(f"{phi.label} inverse non-finite at weight {t}")
        out.append(v)
    return np.asarray(out)


def _licensed_weak_mode(variant: ConditionVariant, phi: Transform) -> MajorizationMode:
    """The weak order that may replace full majorization in the premise."""
    increasing = phi.direction is Direction.INCREASING
    if variant is ConditionVariant.CONVEX_CASE:
        return MajorizationMode.WEAK_SUB if increasing else MajorizationMode.WEAK_SUP
    return MajorizationMode.WEAK_SUP if increasing else MajorizationMode.WEAK_SUB


def _psi_variant(psi: Transform):
    """The transform of X whose log-concavity the hypothesis needs.

    psi^{-1}(X) for psi = exp is log X; for psi = x^r it is X^(1/r); for
    psi = logshift it is exp(X) - e.
    """
    if psi.kind[0] == "power":
        return ("power", 1.0 / psi.kind[1])
    return "log" if psi.kind[0] == "exp" else "logshift"


def _check_log_concavity(dists: Sequence[Dist], psi: Transform) -> HypothesisCheck:
    variant = _psi_variant(psi)
    for d in dict.fromkeys(dists):
        res = log_concavity_classify(d, variant)
        if res.verdict is LogConcavity.NOT_LOG_CONCAVE:
            return HypothesisCheck(
                CheckStatus.FAIL,
                f"{d.label}: {res.detail}",
                witness=(res.witness,) if res.witness is not None else None,
            )
    return HypothesisCheck(CheckStatus.PASS, "log-concave for every component")


def _check_lr_chain(dists: Sequence[Dist]) -> HypothesisCheck:
    if all(d == dists[0] for d in dists[1:]):
        return HypothesisCheck(CheckStatus.PASS, "identical distributions")
    for i in range(len(dists) - 1):
        res = lr_compare(dists[i], dists[i + 1])
        if res.verdict is not LRVerdict.D1_LR_GREATER:
            return HypothesisCheck(
                CheckStatus.FAIL,
                f"pair ({i}, {i + 1}): {res.verdict.value} ({res.detail})",
                witness=res.witness,
            )
    return HypothesisCheck(CheckStatus.PASS, "lr-decreasing chain verified")


def _check_conditions(
    phi: Transform, psi: Transform, variant: ConditionVariant
) -> HypothesisCheck:
    """Conditions (a) and (b), decided in closed form."""
    closed = closed_form_conditions(phi, psi, variant)
    failed = []
    if not closed.condition_a_holds:
        failed.append(f"phi'' has sign {closed.phi2_sign:+d} in the {variant.value} case")
    if not closed.condition_b_holds:
        failed.append(f"inf r_phi r_psi = {closed.ratio_inf:.6g} < 1")
    if failed:
        return HypothesisCheck(CheckStatus.FAIL, "closed form: " + "; ".join(failed))
    return HypothesisCheck(
        CheckStatus.PASS,
        f"closed form: phi'' sign {closed.phi2_sign:+d}, "
        f"inf r_phi r_psi = {closed.ratio_inf:.6g}",
    )


def check_hypotheses(s: Scenario) -> HypothesisReport:
    """Evaluate every hypothesis of the scenario's theorem.

    The premise order is checked between the phi-inverse images of the
    weight vectors; a weak premise mode must match the mode licensed by the
    variant and the direction of phi. The coupling conditions, the
    log-concavity and the lr chain are decided in closed form.
    """
    inv_a = _inverse_weights(s.phi, s.a)
    inv_b = _inverse_weights(s.phi, s.b)

    mode, full = s.premise_mode, s.premise_mode is MajorizationMode.FULL
    licensed = _licensed_weak_mode(s.variant, s.phi)
    if not full and mode is not licensed:
        maj = HypothesisCheck(
            CheckStatus.FAIL,
            f"mode {mode.value} not licensed here (expected {licensed.value})",
        )
    elif check_majorize(inv_b, inv_a, mode):
        maj = HypothesisCheck(
            CheckStatus.PASS,
            "full majorization premise" if full else f"weak premise ({mode.value})",
        )
    else:
        maj = HypothesisCheck(CheckStatus.FAIL, "premise order fails")

    cond = _check_conditions(s.phi, s.psi, s.variant)
    logcc = _check_log_concavity(s.dists, s.psi)
    lr = _check_lr_chain(s.dists)
    return HypothesisReport(maj, cond, logcc, lr)


def _sample_weighted_sums(
    dists: Sequence[Dist], a: np.ndarray, b: np.ndarray, n: int, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """Draws of sum_i a_i X_i and of sum_i b_i X_i, both made from the same
    n draws of each X_i, component i from the i-th child of
    ``SeedSequence(seed)``. Each sum keeps its own law and its own n draws;
    the DKW band bounds each ECDF's error on its own and joins the two by a
    union bound, which needs no independence between the samples. Only one
    component's draws are held at a time."""
    sum_a, sum_b, scaled = np.zeros(n), np.zeros(n), np.empty(n)
    children = np.random.SeedSequence(seed).spawn(len(dists))
    for d, wa, wb, child in zip(dists, a, b, children):
        draws = d.sample(n, int(child.generate_state(1)[0]))
        sum_a += np.multiply(draws, wa, out=scaled)
        draws *= wb
        sum_b += draws
    return sum_a, sum_b


def _anti_theorem_deviation(v: OrderVerdict, predicted: str) -> float:
    # predicted "a": theorem claims F_A <= F_B, so positive F_A - F_B refutes
    return v.max_pos_dev if predicted == "a" else v.max_neg_dev


def _compare_weightings(
    dists: Sequence[Dist], w_a, w_b, clock: Optional[StageClock] = None
) -> tuple[NumericCDF, NumericCDF, OrderVerdict]:
    """The oracle's tables of sum_i w_a[i] X_i and of sum_i w_b[i] X_i, and
    their exact comparison; ``clock``, if given, times the three stages.
    Both functions are looked up in this module at each call, where the
    benchmark's traced run puts its wrappers."""
    with timed(clock, "oracle_a"):
        cdf_a = convolve_weighted(dists, w_a)
    with timed(clock, "oracle_b"):
        cdf_b = convolve_weighted(dists, w_b)
    with timed(clock, "exact"):
        verdict = st_compare_exact(cdf_a, cdf_b)
    return cdf_a, cdf_b, verdict


def _run_comparison(
    s: Scenario,
    hyp: HypothesisReport,
    a_used: np.ndarray,
    b_used: np.ndarray,
    clock: Optional[StageClock] = None,
) -> TheoremReport:
    """The DKW test of the two sums and, for at most ``ORACLE_MAX_N``
    components, the oracle's, one after the other on the calling thread;
    ``clock``, if given, times each stage."""
    predicted = "a" if s.variant is ConditionVariant.CONVEX_CASE else "b"
    with timed(clock, "sampling"):
        sample_a, sample_b = _sample_weighted_sums(
            s.dists, a_used, b_used, s.n_samples, s.seed
        )
    with timed(clock, "dkw"):
        verdict = st_compare_empirical(sample_a, sample_b, s.delta)
    del sample_a, sample_b
    oracle: Optional[OrderVerdict] = None
    if len(s.dists) <= ORACLE_MAX_N:
        oracle = _compare_weightings(s.dists, a_used, b_used, clock)[2]
    consistent = _anti_theorem_deviation(verdict, predicted) <= verdict.band
    if oracle is not None:
        consistent = consistent and (
            _anti_theorem_deviation(oracle, predicted) <= oracle.band
        )
    return TheoremReport(
        hypothesis=hyp,
        verdict=verdict,
        oracle_verdict=oracle,
        consistent=consistent,
        predicted=predicted,
        label=s.label,
    )


def _require_pass(s: Scenario, hyp: Optional[HypothesisReport]) -> HypothesisReport:
    """The scenario's hypothesis report (computed unless given), which must
    pass."""
    if hyp is None:
        hyp = check_hypotheses(s)
    bad = hyp.first_not_passing()
    if bad is not None:
        name, check = bad
        raise OrderError(
            f"hypothesis {name} is {check.status.value}: {check.detail}"
        )
    return hyp


def verify_iid_theorem(
    s: Scenario, hyp: Optional[HypothesisReport] = None, clock: Optional[StageClock] = None
) -> TheoremReport:
    """Conclusion test for identically distributed components. ``hyp`` is
    the scenario's hypothesis report, if it is already computed; ``clock``,
    if given, times the comparison's stages."""
    if not s.is_iid:
        raise ParameterError("verify_iid_theorem requires identical dists")
    return _run_comparison(s, _require_pass(s, hyp), s.a.as_array(), s.b.as_array(), clock)


def verify_noniid_theorem(
    s: Scenario, hyp: Optional[HypothesisReport] = None, clock: Optional[StageClock] = None
) -> TheoremReport:
    """Conclusion test for an lr-decreasing chain of components. ``hyp`` is
    the scenario's hypothesis report, if it is already computed; ``clock``,
    if given, times the comparison's stages.

    The convex case pairs the i-th largest coefficient with the i-th
    variable of the chain; the concave case pairs the i-th smallest.
    """
    step = -1 if s.variant is ConditionVariant.CONVEX_CASE else 1
    a_used, b_used = (np.sort(w.as_array())[::step] for w in (s.a, s.b))
    return _run_comparison(s, _require_pass(s, hyp), a_used, b_used, clock)


def run_counterexample(
    alpha: float,
    a: WeightVector | Sequence[float],
    b: WeightVector | Sequence[float],
) -> TheoremReport:
    """Unique-crossing demonstration for gamma weighted sums.

    With a majorizing b, equal weight totals force equal means, so the two
    CDFs cannot be st-ordered; when a and b differ in exactly two sorted
    components the difference crosses zero exactly once. The report is
    consistent when the oracle shows that one crossing and the two means
    agree to 1e-8.
    """
    if not alpha >= 1:  # also rejects NaN
        raise ParameterError(f"alpha must be >= 1, got {alpha}")
    av = as_weight_vector(a).as_array()
    bv = as_weight_vector(b).as_array()
    if av.shape != bv.shape or len(av) < 3:
        raise ParameterError("need weight vectors of equal length n >= 3")
    if not check_majorize(bv, av, MajorizationMode.FULL):
        raise ParameterError("a must majorize b")
    ndiff = int(np.sum(~np.isclose(np.sort(av), np.sort(bv), rtol=1e-12, atol=1e-12)))
    if ndiff != 2:
        raise ParameterError(
            f"a and b must differ in exactly two sorted components, not {ndiff}"
        )
    n = len(av)
    dist = GeneralizedGamma(p=1.0, alpha=float(alpha), lam=1.0)
    fa, fb, verdict = _compare_weightings([dist] * n, av, bv)
    mean_a = float(alpha * np.sum(av))
    mean_b = float(alpha * np.sum(bv))
    verdict.meta.update(
        {"mean_a": mean_a, "mean_b": mean_b, "mean_gap": abs(mean_a - mean_b)}
    )
    crossing_as_predicted = (
        verdict.relation is Relation.CROSSING and verdict.crossing_count == 1
    )
    consistent = crossing_as_predicted and abs(mean_a - mean_b) < 1e-8
    trivially = HypothesisCheck(CheckStatus.PASS, "counterexample preconditions hold")
    hyp = HypothesisReport(trivially, trivially, trivially, trivially)
    return TheoremReport(
        hypothesis=hyp,
        verdict=verdict,
        oracle_verdict=verdict,
        consistent=consistent,
        predicted="crossing",
        label=f"counterexample alpha={alpha:g}",
        cdfs=(fa, fb),
    )


def write_crossing_csv(path: str, cdf_a: NumericCDF, cdf_b: NumericCDF) -> None:
    """F_a, F_b and F_a - F_b at 400 evenly spaced points of [0, the lower
    of the two tables' last knots], as CSV for plotting: one ``np.savetxt``
    with a ``x,F_a,F_b,diff`` header and each number in ``%.10g``."""
    last = slice(-1, None)
    xs = np.linspace(0.0, min(cdf_a.knots(last)[0], cdf_b.knots(last)[0]), 400)
    va, vb = cdf_a.evaluate(xs), cdf_b.evaluate(xs)
    np.savetxt(path, np.column_stack((xs, va, vb, va - vb)), fmt="%.10g", delimiter=",",
               header="x,F_a,F_b,diff", comments="")


# ---------------------------------------------------------------------------
# Randomized suite generation
# ---------------------------------------------------------------------------


def _loguniform(rng: np.random.Generator, n: int, lo: float, hi: float) -> np.ndarray:
    return np.exp(rng.uniform(math.log(lo), math.log(hi), size=n))


def _t_transform_mix(rng: np.random.Generator, u: np.ndarray, k: int) -> np.ndarray:
    """Apply k random averaging T-transforms; result is majorized by u."""
    v = np.array(u, dtype=float)
    for _ in range(k):
        i, j = rng.choice(len(v), size=2, replace=False)
        lam = float(rng.uniform(0.1, 0.9))
        vi, vj = v[i], v[j]
        v[i] = lam * vi + (1.0 - lam) * vj
        v[j] = lam * vj + (1.0 - lam) * vi
    return v


def _weights_pair(
    rng: np.random.Generator, phi: Transform, n: int, lo: float
) -> tuple[np.ndarray, np.ndarray]:
    """Weight vectors with phi^{-1}(a) majorizing phi^{-1}(b) exactly, a
    drawn log-uniform on [lo, 10]."""
    a = _loguniform(rng, n, lo, 10.0)
    u = np.array([phi.inverse(float(t)) for t in a])
    v = _t_transform_mix(rng, u, k=int(rng.integers(1, 4)))
    b = np.array([phi.eval(float(t)) for t in v])
    return a, b


def _weaken(
    rng: np.random.Generator,
    b: np.ndarray,
    phi: Transform,
    mode: MajorizationMode,
) -> np.ndarray:
    """Perturb b so the premise holds in the weak order but (generically)
    not the full one: lower the transformed coordinates for the
    submajorization premise, raise them for the supmajorization one."""
    v = np.array([phi.inverse(float(t)) for t in b])
    span = 0.1 * (1.0 + float(np.max(np.abs(v))))
    if mode is MajorizationMode.WEAK_SUB:
        if np.all(v > 0):
            # multiplicative shrink keeps power-transform coordinates positive
            v = v * (1.0 - rng.uniform(0.0, 0.3))
        else:
            v = v - rng.uniform(0.0, span)
    else:
        v = v + rng.uniform(0.0, span)
    return np.array([phi.eval(float(t)) for t in v])


class _Preset(NamedTuple):
    """One suite preset: a phi/psi family on the boundary 1/p + 1/q = 1,
    the theorem's case, the ranges of the family exponent and of the
    component shape alpha, and how the components differ."""

    family: str                    # "exp", "a1", "a2", "a3" or "logshift"
    variant: ConditionVariant
    exponent: tuple[float, float]
    alpha: tuple[float, float]
    chain: Optional[str] = None    # None (identical), "rate" or "shape"


_CONVEX, _CONCAVE = ConditionVariant.CONVEX_CASE, ConditionVariant.CONCAVE_CASE
# alpha >= 3 keeps the inverse-power tail of the a1 components short enough
# for the convolution oracle
_PRESETS = {
    "exp_exp": _Preset("exp", _CONVEX, (1.0, 3.0), (1.0, 4.0)),
    "power_a1": _Preset("a1", _CONVEX, (1.05, 1.45), (3.0, 5.0)),
    "power_a2": _Preset("a2", _CONVEX, (0.72, 0.95), (1.0, 2.0)),
    "power_a3": _Preset("a3", _CONCAVE, (1.2, 4.0), (1.0, 4.0)),
    "logshift": _Preset("logshift", _CONCAVE, (2.0, 4.0), (1.0, 4.0)),
    "noniid_exp": _Preset("exp", _CONVEX, (1.0, 3.0), (1.0, 4.0), "rate"),
    "noniid_a1": _Preset("a1", _CONVEX, (1.05, 1.45), (3.0, 5.0), "shape"),
    "noniid_a2": _Preset("a2", _CONVEX, (0.72, 0.95), (1.0, 4.0), "rate"),
    "noniid_a3": _Preset("a3", _CONCAVE, (1.2, 4.0), (1.0, 4.0), "rate"),
}


@dataclass(frozen=True)
class SuiteConfig:
    n_scenarios: int = 200
    master_seed: int = 42
    n_samples: int = DEFAULT_N_SAMPLES
    delta: float = DEFAULT_DELTA
    presets: tuple[str, ...] = tuple(_PRESETS)

    def __post_init__(self):
        for name in ("n_scenarios", "master_seed", "n_samples"):
            object.__setattr__(self, name, _integral(getattr(self, name), name))
        if self.n_scenarios < 1:
            raise ParameterError(f"n_scenarios must be >= 1, got {self.n_scenarios}")
        if self.master_seed < 0:
            raise ParameterError(f"master_seed must be >= 0, got {self.master_seed}")
        _check_sampling(self.n_samples, self.delta)
        if not self.presets or any(p not in _PRESETS for p in self.presets):
            raise ParameterError(
                f"presets must be chosen from {sorted(_PRESETS)}, got {list(self.presets)}"
            )

    def to_dict(self) -> dict:
        return {**asdict(self), "presets": list(self.presets)}


def _family_transforms(family: str, x: Optional[float]) -> tuple[Transform, Transform]:
    """phi and psi of a preset family at its exponent draw x."""
    if family == "exp":
        phi = make_exp()
        return phi, phi
    if family == "a1":  # phi = t^(1/q) with q in (0, 1); conjugate psi, p < 0
        return make_power(x), make_power(1.0 - x)
    psi = make_power(1.0 / x)  # x = p
    if family == "logshift":
        return make_log_shift(), psi
    return make_power(1.0 - 1.0 / x), psi  # a2: q < 0; a3: q > 1


def _components(
    rng: np.random.Generator, row: _Preset, power: float, n: int
) -> tuple[Dist, ...]:
    """Identical components, or an lr-decreasing chain in rate or shape."""
    make = GammaPower if row.family == "a1" else GeneralizedGamma
    if row.chain == "shape":
        # the negative power of a1 flips the lr order, so ascending shapes
        # give a decreasing chain
        alphas = np.sort(rng.uniform(*row.alpha, size=n))
        lam = float(rng.uniform(0.5, 2.0))
        return tuple(make(power, float(al), lam) for al in alphas)
    alpha = float(rng.uniform(*row.alpha))
    if row.chain == "rate":  # ascending rates: lr-decreasing
        lams = np.sort(rng.uniform(0.5, 2.0, size=n))
        return tuple(make(power, alpha, float(l)) for l in lams)
    return (make(power, alpha, float(rng.uniform(0.5, 2.0))),) * n


def generate_scenario(
    preset: str,
    seed_seq: np.random.SeedSequence,
    n_samples: int = DEFAULT_N_SAMPLES,
    delta: float = DEFAULT_DELTA,
    label: str = "",
) -> Scenario:
    """Randomized scenario for a named preset; deterministic per seed.

    The weak premise, when drawn, is the one the preset's case licenses.
    The exp family draws its exponent after the weights, the others before.
    """
    if preset not in _PRESETS:
        raise ParameterError(
            f"unknown preset {preset!r}; choose from {sorted(_PRESETS)}"
        )
    row = _PRESETS[preset]
    rng = np.random.default_rng(seed_seq)
    n = int(rng.integers(2, 5))
    x = None if row.family == "exp" else float(rng.uniform(*row.exponent))
    phi, psi = _family_transforms(row.family, x)
    lo = 1.0 if row.family == "logshift" else 0.1
    a, b = _weights_pair(rng, phi, n, lo=lo)
    mode = MajorizationMode.FULL
    if rng.random() < 0.5:
        mode = _licensed_weak_mode(row.variant, phi)
        b = _weaken(rng, b, phi, mode)
    if x is None:
        x = float(rng.uniform(*row.exponent))
    return Scenario(
        dists=_components(rng, row, 1.0 - x if row.family == "a1" else x, n),
        phi=phi,
        psi=psi,
        variant=row.variant,
        a=tuple(a),
        b=tuple(b),
        premise_mode=mode,
        n_samples=n_samples,
        seed=int(rng.integers(2**31 - 1)),
        delta=delta,
        label=label or preset,
    )


@dataclass
class SuiteReport:
    """A suite's config, its records and one ``StageClock`` per scenario,
    both in index order; the clocks are never part of ``to_dict``. Each
    count of the summary is read from the records' statuses."""

    config: SuiteConfig
    records: list = field(default_factory=list)
    clocks: list = field(default_factory=list)

    @property
    def n_consistent(self) -> int:
        return sum(r["status"] == "consistent" for r in self.records)

    @property
    def n_inconsistent(self) -> int:
        return sum(r["status"] == "inconsistent" for r in self.records)

    @property
    def n_failed_hypotheses(self) -> int:
        return sum(r["status"] == "failed_hypotheses" for r in self.records)

    @property
    def n_run(self) -> int:
        return self.n_consistent + self.n_inconsistent

    def to_dict(self) -> dict:
        return {
            "config": self.config.to_dict(),
            "summary": {
                "run": self.n_run,
                "consistent": self.n_consistent,
                "inconsistent": self.n_inconsistent,
                # every hypothesis is decided, so no scenario is ever skipped;
                # the key stays for the readers of the summary
                "skipped_unknown": 0,
                "failed_hypotheses": self.n_failed_hypotheses,
            },
            "records": self.records,
        }


def run_scenario(config: SuiteConfig, i: int, clock: Optional[StageClock] = None) -> dict:
    """Record of scenario ``i`` of the suite; a pure function of the config
    and the index.

    A scenario with a failing hypothesis (which the generators should never
    produce) is marked failed_hypotheses; every other scenario gets a
    consistency verdict. ``clock``, if given, times the whole scenario
    ("scenario") and each of its stages.
    """
    with timed(clock, "scenario"):
        preset = config.presets[i % len(config.presets)]
        s = generate_scenario(
            preset,
            # the i-th child of SeedSequence(master_seed).spawn(n), made directly
            np.random.SeedSequence(config.master_seed, spawn_key=(i,)),
            n_samples=config.n_samples,
            delta=config.delta,
            label=f"{preset}#{i}",
        )
        record: dict = {"index": i, "preset": preset, "scenario": s.to_dict()}
        with timed(clock, "hypotheses"):
            hyp = check_hypotheses(s)
        if not hyp.all_pass:
            record["status"] = "failed_hypotheses"
            record["hypothesis"] = hyp.to_dict()
            return record
        tr = (
            verify_iid_theorem(s, hyp, clock)
            if s.is_iid
            else verify_noniid_theorem(s, hyp, clock)
        )
        record["status"] = "consistent" if tr.consistent else "inconsistent"
        record["report"] = tr.to_dict()
        return record


# scenarios run at once by run_suite, each serial inside
SUITE_LANES = 2


def run_suite(config: SuiteConfig = SuiteConfig()) -> SuiteReport:
    """Run the randomized theorem suite; its records are a pure function of
    the config.

    Scenarios run on ``SUITE_LANES`` threads, which the sampling, the sorts,
    the CDF evaluations and the FFTs allow because they release the GIL.
    ``Executor.map`` yields the records in index order; the error of the
    lowest failing index surfaces, as in a serial loop, and cancels the
    scenarios not yet started. Each scenario is timed by its own
    ``StageClock``, and the report's ``clocks`` hold them in index order.
    """
    clocks = [StageClock() for _ in range(config.n_scenarios)]
    with ThreadPoolExecutor(max_workers=SUITE_LANES) as lanes:
        records = list(lanes.map(run_scenario, repeat(config), range(config.n_scenarios), clocks))
    return SuiteReport(config, records, clocks)
