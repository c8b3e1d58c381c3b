"""Strictly monotone scalar transforms on (0, inf), the Hessian-style
convexity conditions coupling a transform pair, and the (p, q) region
classifier for the power family.

A ``Transform`` is its kind: ``("exp",)``, ``("power", r)`` or
``("logshift",)``. The map, its two derivatives, its inverse, its direction
and its label follow from the kind and are bound once at construction.

The two scalar conditions are

    (a)  sign condition on phi''            (>= 0 convex case, <= 0 concave)
    (b)  phi''(u) psi''(v) phi(u) psi(v) >= [phi'(u) psi'(v)]^2

``closed_form_conditions`` decides both over all of (0, inf)^2. With
r_f = f f'' / f'^2, condition (b) reads r_phi(u) r_psi(v) >= 1, and r_f is
the constant (a - 1)/a for x^a, 1 for exp and -log(u + e) for logshift, so
(b) holds iff the infimum of the product is at least 1.
``check_convexity_conditions`` scans a grid instead: it can falsify the
conditions on the grid, never prove them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from typing import Callable

import numpy as np

from .errors import NumericError, ParameterError

# grace margins for the grid conditions: conjugate power pairs sit exactly on
# the equality boundary of the product condition, where roundoff produces
# margins of either sign around 1e-14
_COND_A_RTOL = 1e-12
_COND_B_LOG_TOL = 1e-9
# the power exponents a Transform takes: x**r is finite on [0.5, 2] for
# |r| < 1024, and y**(1/r) returns x to within 1e-9 (1 + x) for |r| >= 1e-7
_POWER_RANGE = (1e-7, 1024.0)


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


def _exp_maps() -> tuple:
    return math.exp, math.exp, math.exp, math.log, Direction.INCREASING, "exp"


def _power_maps(r: float) -> tuple:
    if not math.isfinite(r):
        raise ParameterError(f"power exponent must be finite, got {r}")
    if r == 0.0:
        raise ParameterError("power exponent must be nonzero")
    lo, hi = _POWER_RANGE
    if not lo <= abs(r) < hi:
        raise NumericError(f"power({r:g}): exponent must satisfy {lo:g} <= |r| < {hi:g}")
    return (
        lambda x: x**r,
        lambda x: r * x ** (r - 1.0),
        lambda x: r * (r - 1.0) * x ** (r - 2.0),
        lambda y: y ** (1.0 / r),
        Direction.INCREASING if r > 0 else Direction.DECREASING,
        f"power({r:g})",
    )


def _logshift_maps() -> tuple:
    return (
        lambda x: math.log(x + math.e),
        lambda x: 1.0 / (x + math.e),
        lambda x: -1.0 / (x + math.e) ** 2,
        lambda y: math.exp(y) - math.e,
        Direction.INCREASING,
        "logshift",
    )


_KINDS = {"exp": _exp_maps, "power": _power_maps, "logshift": _logshift_maps}


@dataclass(frozen=True)
class Transform:
    """A strictly monotone, twice-differentiable map of (0, inf) with an
    inverse, given by its kind: ``("exp",)``, ``("power", r)`` or
    ``("logshift",)``. Two transforms are equal iff their kinds are."""

    kind: tuple
    eval: Callable[[float], float] = field(init=False, repr=False, compare=False)
    d1: Callable[[float], float] = field(init=False, repr=False, compare=False)
    d2: Callable[[float], float] = field(init=False, repr=False, compare=False)
    inverse: Callable[[float], float] = field(init=False, repr=False, compare=False)
    direction: Direction = field(init=False, compare=False)
    label: str = field(init=False, compare=False)

    def __post_init__(self):
        kind = self.kind
        name = kind[0] if isinstance(kind, tuple) and kind else None
        if not isinstance(name, str) or name not in _KINDS \
                or len(kind) != (2 if name == "power" else 1):
            raise ParameterError(
                f"unknown transform kind {self.kind!r}; choose from "
                "('exp',), ('power', r) or ('logshift',)"
            )
        if name == "power":
            kind = (name, float(kind[1]))
        maps = _KINDS[name](*kind[1:])
        for attr, value in zip(("kind", "eval", "d1", "d2", "inverse", "direction", "label"),
                               (kind, *maps)):
            object.__setattr__(self, attr, value)


def make_exp() -> Transform:
    return Transform(("exp",))


def make_power(r: float) -> Transform:
    """x -> x^r on (0, inf), for a finite r with 1e-7 <= |r| < 1024 (outside
    that range a ``NumericError``); increasing iff r > 0."""
    return Transform(("power", r))


def make_log_shift() -> Transform:
    """x -> log(x + e); maps [0, inf) into [1, inf)."""
    return Transform(("logshift",))


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


def _curvature_ratio(t: Transform) -> tuple[int, float, float]:
    """The sign of t'' on (0, inf), and the infimum and supremum there of
    r_t = t t'' / t'^2."""
    kind = t.kind[0]
    if kind == "power":
        a = t.kind[1]
        r = (a - 1.0) / a
        return int(a > 1 or a < 0) - int(0 < a < 1), r, r
    if kind == "exp":
        return 1, 1.0, 1.0
    # logshift: -log(u + e) runs over (-inf, -1) as u runs over (0, inf)
    return -1, -math.inf, -1.0


@dataclass(frozen=True)
class ClosedFormConditions:
    """Conditions (a) and (b) decided over all of (0, inf)^2: ``phi2_sign``
    is the sign of phi'' there, and ``ratio_inf`` the infimum of
    r_phi(u) r_psi(v)."""

    condition_a_holds: bool
    condition_b_holds: bool
    phi2_sign: int
    ratio_inf: float


def closed_form_conditions(
    phi: Transform, psi: Transform, variant: ConditionVariant
) -> ClosedFormConditions:
    """Conditions (a) and (b) for two transforms, decided in closed form.
    Condition (b) takes the grid's grace margin on the log scale: conjugate
    pairs on 1/p + 1/q = 1 have a product of 1 up to rounding."""
    ratio_phi, ratio_psi = _curvature_ratio(phi), _curvature_ratio(psi)
    sign = ratio_phi[0]
    # a product over a box is least at a corner; a zero end makes a zero
    # product, also against an infinite one
    inf = min(x * y if x and y else 0.0 for x in ratio_phi[1:] for y in ratio_psi[1:])
    return ClosedFormConditions(
        condition_a_holds=sign >= 0 if variant is ConditionVariant.CONVEX_CASE else sign <= 0,
        condition_b_holds=inf > 0 and -math.log(inf) <= _COND_B_LOG_TOL,
        phi2_sign=sign,
        ratio_inf=inf,
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

