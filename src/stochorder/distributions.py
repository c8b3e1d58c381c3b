"""Generalized gamma machinery: densities, exact sampling via gamma draws,
closed-form log-concavity classification of psi^{-1}(X) for a transform
psi (a power, the log or the shifted exp of X), and closed-form
likelihood-ratio-order comparison. ``Dist`` is ``GammaPower``; every layer
above takes only it and its subclass ``GeneralizedGamma``.

``GammaPower(r, alpha, lam)`` is ``X = G**r`` with ``G ~ Gamma(alpha,
rate=lam)``; ``r < 0`` gives the inverse branch needed when a decreasing
power transform must map the variable back to a gamma.
``GeneralizedGamma(p, alpha, lam)``, with density proportional to
``x**(alpha*p - 1) * exp(-lam * x**p)`` on (0, inf) (``X**p ~ Gamma(alpha,
rate=lam)``), is the ``GammaPower`` with ``r = 1/p``: it keeps ``p``, its
label and its spec, and inherits every method.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Optional

import numpy as np

# scipy.special is imported in the methods that use it, as scipy.integrate
# is in DensitySpec: ``import stochorder``, and the commands that evaluate
# no gamma function, then load no scipy at all

from .errors import DomainError, NumericError, ParameterError
from .transforms import Transform

_NORMALIZATION_TOL = 1e-6
_EPS = float(np.finfo(float).eps)


def _check_finite(d, names: tuple[str, ...]) -> None:
    """Reject NaN and +-inf parameters, which pass the ``<= 0`` checks."""
    for name in names:
        if not math.isfinite(getattr(d, name)):
            raise ParameterError(f"{name} must be finite, got {getattr(d, name)}")


@dataclass(frozen=True)
class GammaPower:
    """X = G**r with G ~ Gamma(alpha, rate=lam); r may be negative."""

    r: float
    alpha: float
    lam: float

    def __post_init__(self):
        _check_finite(self, ("r", "alpha", "lam"))
        if self.r == 0:
            raise ParameterError("r must be nonzero")
        if self.alpha <= 0 or self.lam <= 0:
            raise ParameterError("alpha and lam must be positive")

    @property
    def label(self) -> str:
        return f"gammapower(r={self.r:g}, alpha={self.alpha:g}, lam={self.lam:g})"

    def logpdf(self, x):
        from scipy import special

        x = np.asarray(x, dtype=float)
        if np.isnan(x).any():
            raise ParameterError("density argument must not be NaN")
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            lx = np.log(x)
            out = (
                self.alpha * math.log(self.lam)
                - special.gammaln(self.alpha)
                - math.log(abs(self.r))
                + (self.alpha / self.r - 1.0) * lx
                - self.lam * np.exp(lx / self.r)
            )
        return np.where(x > 0, out, -np.inf)

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        with np.errstate(over="ignore"):
            out = np.exp(self.logpdf(x))
        if np.isscalar(x) or x.ndim == 0:
            return float(out)
        return out

    def cdf(self, x):
        from scipy import special

        x = np.asarray(x, dtype=float)
        # one fresh array, which every step overwrites; the operators are
        # those of lam * max(x, 0) ** (1 / r), and so are the bits
        g = np.maximum(x, 0.0, out=np.empty_like(x))
        with np.errstate(divide="ignore"):
            g **= 1.0 / self.r
        g *= self.lam
        tail = special.gammainc if self.r > 0 else special.gammaincc
        out = tail(self.alpha, g, out=g)
        outside = ~(x > 0)  # x <= 0, and NaN
        if outside.any():
            if np.isnan(x[outside]).any():
                raise ParameterError("cdf argument must not be NaN")
            out[outside] = 0.0
        return float(out) if out.ndim == 0 else out

    def ppf(self, u):
        from scipy import special

        u = np.asarray(u, dtype=float)
        if np.isnan(u).any():
            raise ParameterError("ppf argument must not be NaN")
        if np.any((u < 0) | (u > 1)):
            raise DomainError("quantile level outside [0, 1]")
        uu = u if self.r > 0 else 1.0 - u
        g = special.gammaincinv(self.alpha, uu) / self.lam
        out = g**self.r
        return float(out) if out.ndim == 0 else out

    def mean(self) -> float:
        from scipy import special

        if self.alpha + self.r <= 0:
            return math.inf
        return math.exp(
            special.gammaln(self.alpha + self.r) - special.gammaln(self.alpha)
        ) * self.lam ** (-self.r)

    def sample(self, n: int, seed: int) -> np.ndarray:
        if n < 1:
            raise ParameterError("n must be >= 1")
        rng = np.random.default_rng(seed)
        draws = rng.gamma(self.alpha, 1.0 / self.lam, size=n)
        draws **= self.r  # in place, the same bits as draws ** r
        return draws


@dataclass(frozen=True, init=False)
class GeneralizedGamma(GammaPower):
    """Three-parameter family F_{p, alpha, lam}, the gamma power with
    r = 1/p; Weibull at alpha=1, gamma at p=1, generalized Rayleigh at p=2."""

    p: float

    def __init__(self, p: float, alpha: float, lam: float):
        if not (0 < p < math.inf and 1.0 / p < math.inf):
            raise ParameterError(f"p must be positive and finite with a finite 1/p, got {p}")
        object.__setattr__(self, "p", p)
        super().__init__(1.0 / p, alpha, lam)

    @property
    def label(self) -> str:
        return f"gengamma(p={self.p:g}, alpha={self.alpha:g}, lam={self.lam:g})"


Dist = GammaPower


@dataclass(frozen=True)
class DensitySpec:
    """A density on an interval, normalization-checked at construction: what
    ``transformed_density`` returns. It is no ``Dist``, and no layer above
    takes it."""

    pdf: Callable
    support: tuple[float, float]
    label: str = "density"

    def __post_init__(self):
        lo, hi = self.support
        if not lo < hi:
            raise ParameterError(f"empty support {self.support}")
        # Imported here: scipy.integrate pulls in scipy.optimize and
        # scipy.linalg, about a third of ``import stochorder``'s time.
        from scipy import integrate

        total, err = integrate.quad(
            lambda t: float(self.pdf(t)), lo, hi, limit=300
        )
        if abs(total - 1.0) > _NORMALIZATION_TOL + err:
            raise NumericError(
                f"{self.label}: density integrates to {total}, not 1"
            )


class LogConcavity(Enum):
    LOG_CONCAVE = "log_concave"
    NOT_LOG_CONCAVE = "not_log_concave"


@dataclass(frozen=True)
class LogConcavityResult:
    verdict: LogConcavity
    witness: Optional[float] = None
    detail: str = ""


def gamma_power_logconcave(t: float, alpha: float) -> bool:
    """Whether G**t (G gamma with shape alpha) has a log-concave density.

    Exact characterization from the sign of the log-density curvature:
    holds iff 0 < t <= 1 and t <= alpha.
    """
    if not (math.isfinite(t) and math.isfinite(alpha)):
        raise ParameterError(f"t and alpha must be finite, got {t} and {alpha}")
    return 0 < t <= 1.0 and t <= alpha


def _power_witness(t: float, alpha: float, lam: float) -> Optional[float]:
    """A point where the log density of G**t curves upward, for G**t not
    log-concave; None where that point is not a finite positive float, or
    where its curvature is below what a double resolves.

    With a = alpha/t - 1, b = 1/t and c = lam*b*(b-1), the curvature is
    (log f)''(y) = y**-2 * (-a - c*u) at the gamma-scale point u = y**b.
    Where -a - c*u is within a few rounding errors of its own terms (t
    within a few ulps of alpha, so that a is roundoff), the curvature
    belongs to the rounding of t alone: no second difference of the log
    density can show it, and no witness is given. The verdict, exact for
    the float t, stands.
    """
    a, b = alpha / t - 1.0, 1.0 / t
    c = lam * b * (b - 1.0)
    if a < 0:
        u = 1.0 if c <= 0 else -a / (2.0 * c)
    else:  # c < 0 here, unless lam*b*(b-1) underflowed to 0
        u = (a + 1.0) / -c if c < 0 else math.inf
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        y = float(np.float64(u) ** t)
        cu = float(np.float64(c) * u)
    if not -a - cu > 8 * _EPS * (abs(alpha / t) + abs(cu)):
        return None
    return y if 0 < y < math.inf else None


def _logshift_witness(x_dist: GammaPower) -> Optional[float]:
    """A point where the log density of Y = exp(X) - e curves upward.

    With x = log(y + e) and L = log f_X, (log f_Y)''(y) = (L'' - L' + 1)(x)
    / (y + e)**2. For X = G**r the bracket is 1 - a(1/x + 1/x**2) +
    lam*b*x**(b-2)*(x + 1 - b), with a = alpha/r - 1 and b = 1/r; it tends to
    1, to 1 + lam or to +inf, so Y is never log-concave. None when the bracket
    is still not positive where exp(x) would overflow.
    """
    a, b, lam = x_dist.alpha / x_dist.r - 1.0, 1.0 / x_dist.r, x_dist.lam
    for x in (2.0**k for k in range(10)):  # x <= 512; exp(x) overflows past 709.78
        with np.errstate(over="ignore", invalid="ignore"):
            tail = lam * b * np.float64(x) ** (b - 2.0) * (x + 1.0 - b)
        if 1.0 - a * (1.0 / x + 1.0 / x**2) + float(tail) > 0:
            return math.exp(x) - math.e
    return None


def log_concavity_classify(d: Dist, psi: Transform) -> LogConcavityResult:
    """Classify log-concavity of psi^{-1}(X), the variable the hypothesis
    names for the transform ``psi``, in closed form.

    For psi = x^s it is X^(1/s) = G**(r/s), a power of the underlying gamma,
    log-concave iff ``gamma_power_logconcave(t, alpha)``; otherwise the
    witness is a point of positive log-density curvature. For psi = exp it is
    log X, always log-concave, and for psi = logshift it is exp(X) - e, never.
    """
    if psi.kind[0] == "logshift":
        return LogConcavityResult(
            LogConcavity.NOT_LOG_CONCAVE,
            witness=_logshift_witness(d),
            detail="exp(X) - e: positive log-density curvature",
        )
    if psi.kind[0] == "exp":  # log X = r * log G, and log G is log-concave
        return LogConcavityResult(LogConcavity.LOG_CONCAVE, detail="log transform")
    t = d.r * (1.0 / psi.kind[1])  # X**(1/s) = G**(r/s); |t| past the float range is > 1
    if math.isfinite(t) and gamma_power_logconcave(t, d.alpha):
        return LogConcavityResult(
            LogConcavity.LOG_CONCAVE, detail=f"gamma power t={t:g}"
        )
    return LogConcavityResult(
        LogConcavity.NOT_LOG_CONCAVE,
        witness=_power_witness(t, d.alpha, d.lam),
        detail=f"gamma power t={t:g}: positive log-density curvature",
    )


class LRVerdict(Enum):
    D1_LR_GREATER = "d1_lr_greater"
    D2_LR_GREATER = "d2_lr_greater"
    NOT_ORDERED = "not_ordered"


@dataclass(frozen=True)
class LRResult:
    verdict: LRVerdict
    witness: Optional[tuple[float, float]] = None
    detail: str = ""


def _lr_cross_power(g1: GammaPower, g2: GammaPower) -> LRResult:
    """The closed-form rule for powers r1 != r2.

    With b = 1/r, the slope x (log f1/f2)'(x) is A - l1 b1 x**b1 + l2 b2 x**b2,
    A = a1 b1 - a2 b2. Its one turning point x* solves x*^(b2-b1) =
    l1 b1**2 / (l2 b2**2); it is a minimum for b2 > b1 and a maximum for
    b2 < b1, and the slope is unbounded the other way, so its sign at x*
    decides. There the slope is A + c T with c = (r2 - r1)/r1**2 and
    T = l1 x*^b1; it is summed in logs, so no term overflows.
    """
    r1, r2 = g1.r, g2.r
    # log x* = log(l1 b1**2 / (l2 b2**2)) / (b2 - b1) = k r1, and log T = log l1 + k
    k = (
        math.log(g1.lam) - math.log(g2.lam) + 2.0 * (math.log(abs(r2)) - math.log(abs(r1)))
    ) * r2 / (r1 - r2)
    log_ct = math.log(g1.lam) + k + math.log(abs(r2 - r1)) - 2.0 * math.log(abs(r1))
    a = g1.alpha / r1 - g2.alpha / r2
    log_a = math.log(abs(a)) if a else -math.inf
    top = max(log_a, log_ct)  # the slope at x*, divided by exp(top)
    slope = math.copysign(math.exp(log_a - top), a) + math.copysign(
        math.exp(log_ct - top), r2 - r1
    )
    is_min = (r1 > r2) == ((r1 > 0) == (r2 > 0))  # b2 > b1
    if slope >= 0 if is_min else slope <= 0:
        v = LRVerdict.D1_LR_GREATER if is_min else LRVerdict.D2_LR_GREATER
        return LRResult(v, detail="analytic gamma-power rule")
    with np.errstate(over="ignore", invalid="ignore"):
        xstar = float(np.exp(k * r1))
    return LRResult(
        LRVerdict.NOT_ORDERED,
        witness=(xstar, xstar) if 0 < xstar < math.inf else None,
        detail="density ratio rises and falls",
    )


def lr_compare(d1: Dist, d2: Dist) -> LRResult:
    """Likelihood-ratio-order comparison of two densities, in closed form.

    Same-power gamma pairs are decided from the monotonicity of
    ``g**(a1-a2) * exp(-(l1-l2) g)``; ties report D1_LR_GREATER. Pairs of
    different powers go to ``_lr_cross_power``.
    """
    if d1.r != d2.r:
        return _lr_cross_power(d1, d2)
    da, dl = d1.alpha - d2.alpha, d1.lam - d2.lam
    inc_in_g = da >= 0 and dl <= 0
    dec_in_g = da <= 0 and dl >= 0
    if inc_in_g and dec_in_g:  # identical
        return LRResult(LRVerdict.D1_LR_GREATER, detail="equal distributions")
    if inc_in_g or dec_in_g:
        ratio_increasing = inc_in_g if d1.r > 0 else dec_in_g
        v = LRVerdict.D1_LR_GREATER if ratio_increasing else LRVerdict.D2_LR_GREATER
        return LRResult(v, detail="analytic gamma-power rule")
    # one parameter pushes each way: unimodal ratio, no ordering;
    # the turning point of the ratio sits at g* = (a1-a2)/(l1-l2), and its
    # x* = g*^r may lie outside the floats
    with np.errstate(over="ignore"):
        xstar = float(np.float64(da / dl) ** d1.r)
    return LRResult(
        LRVerdict.NOT_ORDERED,
        witness=(xstar, xstar) if 0 < xstar < math.inf else None,
        detail="density ratio rises and falls",
    )


def transformed_density(d: Dist, psi: Transform) -> DensitySpec:
    """Density of ``psi^{-1}(X)`` by change of variables."""
    lo_x, hi_x = sorted((float(d.ppf(1e-12)), float(d.ppf(1.0 - 1e-12))))
    a, b = psi.inverse(lo_x), psi.inverse(hi_x)
    lo_y, hi_y = (a, b) if a < b else (b, a)
    probe = np.linspace(lo_y, hi_y, 33)
    d1 = np.array([psi.d1(float(t)) for t in probe])
    if not np.all(np.isfinite(d1)) or np.any(d1 == 0):
        raise NumericError(f"{psi.label}: derivative vanishes on transformed support")
    pdf_x = d.pdf

    def pdf_y(y):
        return float(pdf_x(psi.eval(float(y)))) * abs(psi.d1(float(y)))

    return DensitySpec(
        pdf=pdf_y,
        support=(lo_y, hi_y),
        label=f"{psi.label}^-1({d.label})",
    )
