"""Strictly monotone scalar transforms on (0, inf), the Hessian-style
convexity conditions coupling a transform pair, the (p, q) region
classifier for the power family, and the pairwise transform-dominance
check.

The two scalar conditions checked on a grid are

    (a)  sign condition on phi''            (>= 0 convex case, <= 0 concave)
    (b)  phi''(u) psi''(v) phi(u) psi(v) >= [phi'(u) psi'(v)]^2

A true/true report certifies the conditions on the grid only: the
conditions are universally quantified over (0, inf)^2, so a grid check can
falsify but never prove them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable

import numpy as np

from .errors import NumericError, ParameterError

_VALIDATION_GRID = np.geomspace(0.5, 2.0, 9)
_INVERSE_RTOL = 1e-9
# loose enough that central-difference truncation error on steep powers
# (exponents up to ~1000) stays below it, while formula mistakes of
# relative size O(1) are still caught
_DERIV_TOL = 1e-2
# grace margins for the grid conditions: conjugate power pairs sit exactly on
# the equality boundary of the product condition, where roundoff produces
# margins of either sign around 1e-14
_COND_A_RTOL = 1e-12
_COND_B_LOG_TOL = 1e-9


class Direction(Enum):
    INCREASING = "increasing"
    DECREASING = "decreasing"


class ConditionVariant(Enum):
    CONVEX_CASE = "convex"    # phi'' >= 0 together with condition (b)
    CONCAVE_CASE = "concave"  # phi'' <= 0 together with condition (b)


class PQRegion(Enum):
    A0 = "A0"
    A1 = "A1"
    A2 = "A2"
    A3 = "A3"
    NONE = "NONE"


class Dominance(Enum):
    PHI2_BETTER = "phi2_better"
    UNDETERMINED = "undetermined"


def _fd1(f: Callable[[float], float], x: float) -> float:
    h = 1e-6 * (1.0 + abs(x))
    return (f(x + h) - f(x - h)) / (2 * h)


def _fd2(f: Callable[[float], float], x: float) -> float:
    h = 1.2e-4 * (1.0 + abs(x))
    return (f(x + h) - 2 * f(x) + f(x - h)) / (h * h)


@dataclass(frozen=True)
class Transform:
    """Twice-differentiable strictly monotone map with evaluable inverse.

    Consistency (monotonicity, inverse round-trip, derivative agreement
    with central differences) is spot-checked on a grid at construction.
    """

    eval: Callable[[float], float]
    d1: Callable[[float], float]
    d2: Callable[[float], float]
    inverse: Callable[[float], float]
    direction: Direction
    label: str
    kind: tuple = field(default=("custom",))

    def __post_init__(self):
        vals = np.array([self.eval(x) for x in _VALIDATION_GRID])
        if not np.all(np.isfinite(vals)):
            raise NumericError(f"{self.label}: non-finite values on validation grid")
        diffs = np.diff(vals)
        if self.direction is Direction.INCREASING:
            if not np.all(diffs > 0):
                raise NumericError(f"{self.label}: not strictly increasing")
        else:
            if not np.all(diffs < 0):
                raise NumericError(f"{self.label}: not strictly decreasing")
        for x, y in zip(_VALIDATION_GRID, vals):
            back = self.inverse(y)
            if abs(back - x) > _INVERSE_RTOL * (1.0 + abs(x)):
                raise NumericError(f"{self.label}: inverse inconsistent at x={x}")
            for got, ref in ((self.d1(x), _fd1(self.eval, x)),
                             (self.d2(x), _fd2(self.eval, x))):
                if abs(got - ref) > _DERIV_TOL * (1.0 + abs(ref)):
                    raise NumericError(
                        f"{self.label}: derivative mismatch at x={x}: {got} vs {ref}"
                    )

    def __call__(self, x: float) -> float:
        return self.eval(x)


def make_exp() -> Transform:
    return Transform(
        eval=math.exp,
        d1=math.exp,
        d2=math.exp,
        inverse=math.log,
        direction=Direction.INCREASING,
        label="exp",
        kind=("exp",),
    )


def make_power(r: float) -> Transform:
    """x -> x^r on (0, inf); increasing iff r > 0."""
    r = float(r)
    if r == 0.0:
        raise ParameterError("power exponent must be nonzero")
    return Transform(
        eval=lambda x: x**r,
        d1=lambda x: r * x ** (r - 1.0),
        d2=lambda x: r * (r - 1.0) * x ** (r - 2.0),
        inverse=lambda y: y ** (1.0 / r),
        direction=Direction.INCREASING if r > 0 else Direction.DECREASING,
        label=f"power({r:g})",
        kind=("power", r),
    )


def make_log_shift() -> Transform:
    """x -> log(x + e); maps [0, inf) into [1, inf)."""
    return Transform(
        eval=lambda x: math.log(x + math.e),
        d1=lambda x: 1.0 / (x + math.e),
        d2=lambda x: -1.0 / (x + math.e) ** 2,
        inverse=lambda y: math.exp(y) - math.e,
        direction=Direction.INCREASING,
        label="logshift",
        kind=("logshift",),
    )


def make_transform(
    eval: Callable[[float], float],
    inverse: Callable[[float], float],
    direction: Direction,
    label: str = "custom",
    d1: Callable[[float], float] | None = None,
    d2: Callable[[float], float] | None = None,
) -> Transform:
    """User-supplied transform; derivatives fall back to central differences
    (then the construction-time consistency check is tautological at the
    documented 1e-5 tolerance)."""
    return Transform(
        eval=eval,
        d1=d1 if d1 is not None else (lambda x: _fd1(eval, x)),
        d2=d2 if d2 is not None else (lambda x: _fd2(eval, x)),
        inverse=inverse,
        direction=direction,
        label=label,
    )


@dataclass(frozen=True)
class GridSpec:
    """Log-spaced evaluation grid over [lo, hi] (per axis for 2-D checks)."""

    lo: float = 1e-3
    hi: float = 1e3
    n: int = 64

    def __post_init__(self):
        if not (0 < self.lo < self.hi) or self.n < 2:
            raise ParameterError(f"invalid grid spec {self}")

    def points(self) -> np.ndarray:
        return np.geomspace(self.lo, self.hi, self.n)

    def describe(self) -> str:
        return f"log-spaced {self.n} points on [{self.lo:g}, {self.hi:g}]"


DEFAULT_CONDITION_GRID = GridSpec(1e-3, 1e3, 64)


@dataclass(frozen=True)
class ConditionReport:
    condition_a_holds: bool
    condition_b_holds: bool
    worst_violation_a: float
    worst_point_a: tuple[float, float]
    worst_violation_b: float
    worst_point_b: tuple[float, float]
    grid_spec: str

    @property
    def both_hold(self) -> bool:
        return self.condition_a_holds and self.condition_b_holds

    @property
    def worst_violation(self) -> float:
        return max(self.worst_violation_a, self.worst_violation_b)

    @property
    def worst_point(self) -> tuple[float, float]:
        if self.worst_violation_a >= self.worst_violation_b:
            return self.worst_point_a
        return self.worst_point_b


def _eval_grid(fn, pts: np.ndarray, label: str) -> np.ndarray:
    vals = []
    for x in pts:
        try:
            vals.append(float(fn(float(x))))
        except OverflowError:
            raise NumericError(f"{label} overflows at x={x:g}")
    out = np.array(vals, dtype=float)
    bad = ~np.isfinite(out)
    if np.any(bad):
        raise NumericError(f"{label} non-finite at x={pts[bad][0]:g}")
    return out


def _log_abs_and_sign(vals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``log|f|`` and the sign (-1, 0 or 1) of each value; a zero gets log
    0.0 and is marked by its sign 0.

    The logs come from ``math.log`` one value at a time, since numpy's
    vectorized log may differ from it in the last bit."""
    fs = vals.tolist()
    logs = [math.log(abs(f)) if f != 0 else 0.0 for f in fs]
    signs = [math.copysign(1.0, f) if f != 0 else 0.0 for f in fs]
    return np.array(logs), np.array(signs)


def check_convexity_conditions(
    phi: Transform,
    psi: Transform,
    variant: ConditionVariant,
    grid: GridSpec = DEFAULT_CONDITION_GRID,
) -> ConditionReport:
    """Evaluate the sign condition on phi'' and the product condition on a
    (u, v) grid, reporting worst margins (condition a on the natural scale,
    condition b on a log scale; <= 0 means the point satisfies it)."""
    us = grid.points()
    vs = grid.points()
    phi_u = _eval_grid(phi.eval, us, f"{phi.label}")
    phi1_u = _eval_grid(phi.d1, us, f"{phi.label}'")
    phi2_u = _eval_grid(phi.d2, us, f"{phi.label}''")
    psi_v = _eval_grid(psi.eval, vs, f"{psi.label}")
    psi1_v = _eval_grid(psi.d1, vs, f"{psi.label}'")
    psi2_v = _eval_grid(psi.d2, vs, f"{psi.label}''")

    if variant is ConditionVariant.CONVEX_CASE:
        viol_a = -phi2_u
    else:
        viol_a = phi2_u
    ia = int(np.argmax(viol_a))
    worst_a = float(viol_a[ia])

    # log-scale margin of rhs - lhs for the products lhs = phi'' psi'' phi psi
    # and rhs = (phi' psi')^2; <= 0 means lhs >= rhs holds at the point, and
    # a sign failure (lhs <= 0 < rhs) is +inf
    l2u, s2u = _log_abs_and_sign(phi2_u)
    l2v, s2v = _log_abs_and_sign(psi2_v)
    l0u, s0u = _log_abs_and_sign(phi_u)
    l0v, s0v = _log_abs_and_sign(psi_v)
    l1u, s1u = _log_abs_and_sign(phi1_u)
    l1v, s1v = _log_abs_and_sign(psi1_v)
    # the four logs are added left to right at every point, the order a
    # point-by-point sum uses, so each margin is bit-identical to it
    log_l = ((l2u[:, None] + l2v) + l0u[:, None]) + l0v
    log_r = ((l1u[:, None] + l1v) + l1u[:, None]) + l1v
    sign_l = (s2u * s0u)[:, None] * (s2v * s0v)
    rhs_zero = (s1u == 0)[:, None] | (s1v == 0)
    margin = np.where(sign_l > 0, log_r - log_l, math.inf)
    margin[rhs_zero & (sign_l > 0)] = -math.inf
    margin[rhs_zero & (sign_l == 0)] = 0.0
    # argmax takes the first worst point in row-major order
    ib, jb = divmod(int(np.argmax(margin)), margin.shape[1])
    worst_b = float(margin[ib, jb])

    return ConditionReport(
        condition_a_holds=worst_a <= _COND_A_RTOL * (1.0 + float(np.max(np.abs(phi2_u)))),
        condition_b_holds=worst_b <= _COND_B_LOG_TOL,
        worst_violation_a=worst_a,
        worst_point_a=(float(us[ia]), float(vs[0])),
        worst_violation_b=worst_b,
        worst_point_b=(float(us[ib]), float(vs[jb])),
        grid_spec=grid.describe(),
    )


def classify_pq(p: float, q: float) -> PQRegion:
    """Region of the power-pair parameter plane; boundary equalities are
    included exactly as written."""
    if not (math.isfinite(p) and math.isfinite(q)):
        raise ParameterError("p and q must be finite")
    if p == 0 or q == 0:
        raise ParameterError("p and q must be nonzero")
    if p < 0 and q < 0:
        return PQRegion.A0
    if p < 0 and 0 < q < 1 and 1 / p + 1 / q >= 1:
        return PQRegion.A1
    if 0 < p < 1 and q < 0 and 1 / p + 1 / q >= 1:
        return PQRegion.A2
    if p > 1 and q > 1 and 1 / p + 1 / q <= 1:
        return PQRegion.A3
    return PQRegion.NONE


def second_differences(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Second divided differences of ys over the (possibly nonuniform) grid
    xs, one per interior point xs[1:-1]; positive where ys curves upward."""
    x0, x1, x2 = xs[:-2], xs[1:-1], xs[2:]
    return ((ys[2:] - ys[1:-1]) / (x2 - x1) - (ys[1:-1] - ys[:-2]) / (x1 - x0)) / (x2 - x0)


DEFAULT_COMPARE_GRID = GridSpec(1e-3, 1e3, 256)


def compare_transforms(
    phi1: Transform,
    phi2: Transform,
    variant: ConditionVariant,
    grid: GridSpec = DEFAULT_COMPARE_GRID,
    tol: float = 1e-9,
) -> Dominance:
    """Pairwise dominance: does phi2 admit a weaker premise than phi1?

    Forms g = phi2^{-1} o phi1 (negated in the concave case) and checks the
    shape condition selected by the two declared directions: convexity of g
    when the directions agree with cases (i)/(iii), concavity for (ii)/(iv).
    A grid check can only certify PHI2_BETTER, never refute it.
    """
    xs = grid.points()
    sign = 1.0 if variant is ConditionVariant.CONVEX_CASE else -1.0
    g = np.empty_like(xs)
    for i, x in enumerate(xs):
        y = phi1.eval(float(x))
        g[i] = sign * phi2.inverse(y)
    if not np.all(np.isfinite(g)):
        raise NumericError("composition left the representable domain")

    # cases: (i) inc/inc -> convex, (ii) inc/dec -> concave,
    #        (iii) dec/inc -> convex, (iv) dec/dec -> concave
    want_convex = phi2.direction is Direction.INCREASING

    dd = second_differences(xs, g)
    scale = tol * (1.0 + np.abs(g[1:-1])) / ((xs[1:-1] - xs[:-2]) * (xs[2:] - xs[:-2]))
    if want_convex:
        ok = bool(np.all(dd >= -scale))
    else:
        ok = bool(np.all(dd <= scale))
    return Dominance.PHI2_BETTER if ok else Dominance.UNDETERMINED
