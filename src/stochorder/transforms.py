"""Strictly monotone scalar transforms on (0, inf), the Hessian-style
convexity conditions coupling a transform pair, and the (p, q) region
classifier for the power family.

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
from functools import cached_property
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


def _fd1(f: Callable[[float], float], x: float) -> float:
    h = 1e-6 * (1.0 + abs(x))
    return (f(x + h) - f(x - h)) / (2 * h)


def _fd2(f: Callable[[float], float], x: float) -> float:
    """Second central difference at steps h and h/2, Richardson-extrapolated
    so that the h^2 error term cancels: for a steep map such as x**-990 that
    term alone is 1% of f''."""
    h = 1.2e-4 * (1.0 + abs(x))
    fx = f(x)

    def central(step: float) -> float:
        return (f(x + step) - 2 * fx + f(x - step)) / (step * step)

    return (4 * central(h / 2) - central(h)) / 3


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
        with np.errstate(over="ignore"):  # overflow is reported just below
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
    if not math.isfinite(r):
        raise ParameterError(f"power exponent must be finite, got {r}")
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


@dataclass(frozen=True)
class GridSpec:
    """Log-spaced evaluation grid over [lo, hi] (per axis for 2-D checks)."""

    lo: float = 1e-3
    hi: float = 1e3
    n: int = 64

    def __post_init__(self):
        if not (0 < self.lo < self.hi) or self.n < 2:
            raise ParameterError(f"invalid grid spec {self}")

    @cached_property
    def axis(self) -> tuple[float, ...]:
        """The points as floats, built once per spec (a ``geomspace`` costs
        about 30 us); a tuple, so that no caller can change them."""
        return tuple(np.geomspace(self.lo, self.hi, self.n).tolist())

    def points(self) -> np.ndarray:
        return np.array(self.axis)

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


def _eval_grid(fn, pts: list[float], label: str) -> list[float]:
    vals = []
    try:
        for x in pts:
            vals.append(float(fn(x)))
    except OverflowError:
        raise NumericError(f"{label} overflows at x={x:g}")
    if not all(map(math.isfinite, vals)):
        bad = next(x for x, f in zip(pts, vals) if not math.isfinite(f))
        raise NumericError(f"{label} non-finite at x={bad:g}")
    return vals


def check_convexity_conditions(
    phi: Transform,
    psi: Transform,
    variant: ConditionVariant,
    grid: GridSpec = DEFAULT_CONDITION_GRID,
) -> ConditionReport:
    """Evaluate the sign condition on phi'' and the product condition on a
    (u, v) grid, reporting worst margins (condition a on the natural scale,
    condition b on a log scale; <= 0 means the point satisfies it)."""
    # u and v run over the same axis
    pts = grid.axis
    phi_u = _eval_grid(phi.eval, pts, f"{phi.label}")
    phi1_u = _eval_grid(phi.d1, pts, f"{phi.label}'")
    phi2_u = _eval_grid(phi.d2, pts, f"{phi.label}''")
    psi_v = _eval_grid(psi.eval, pts, f"{psi.label}")
    psi1_v = _eval_grid(psi.d1, pts, f"{psi.label}'")
    psi2_v = _eval_grid(psi.d2, pts, f"{psi.label}''")

    viol_a = np.array(phi2_u)
    if variant is ConditionVariant.CONVEX_CASE:
        viol_a = -viol_a
    ia = int(np.argmax(viol_a))
    worst_a = float(viol_a[ia])

    # log-scale margin of rhs - lhs for the products lhs = phi'' psi'' phi psi
    # and rhs = (phi' psi')^2; <= 0 means lhs >= rhs holds at the point, and
    # a sign failure (lhs <= 0 < rhs) is +inf
    vals = (phi2_u, psi2_v, phi_u, psi_v, phi1_u, psi1_v)
    # log|f| comes from math.log one value at a time, since numpy's
    # vectorized log may differ from it in the last bit; a zero gets log 0.0
    # and is marked by its sign 0
    l2u, l2v, l0u, l0v, l1u, l1v = np.array(
        [[math.log(abs(f)) if f != 0 else 0.0 for f in v] for v in vals]
    )
    s2u, s2v, s0u, s0v, s1u, s1v = np.sign(vals)
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
        condition_a_holds=worst_a <= _COND_A_RTOL * (1.0 + max(map(abs, phi2_u))),
        condition_b_holds=worst_b <= _COND_B_LOG_TOL,
        worst_violation_a=worst_a,
        worst_point_a=(pts[ia], pts[0]),
        worst_violation_b=worst_b,
        worst_point_b=(pts[ib], pts[jb]),
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

