"""Reference CDFs for the tests, independent of the gamma-family CDFs that
the library evaluates."""

import numpy as np
from scipy import integrate

from stochorder import GammaPower, ParameterError


def quadrature_cdf(d: GammaPower, points: np.ndarray) -> np.ndarray:
    """F of d at the sorted points, by piecewise adaptive quadrature of the
    pdf."""
    pts = np.sort(np.asarray(points, dtype=float))
    if not np.all(np.isfinite(pts)):
        raise ParameterError("quadrature_cdf points must be finite")
    vals = np.empty_like(pts)
    acc = 0.0
    prev = 0.0
    for i, t in enumerate(pts):
        if t > prev:
            seg, _ = integrate.quad(lambda x: float(d.pdf(x)), prev, t, limit=200)
            acc += seg
            prev = t
        vals[i] = min(acc, 1.0)
    return np.maximum.accumulate(vals)
