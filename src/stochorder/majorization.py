"""Vector preorders (majorization and its weak variants), constructive
T-transform chains, and an exact-integer reference for the orders.

Conventions: ``x <=_m y`` (``FULL``) means the partial sums of the smallest
components of ``x`` dominate those of ``y`` and the totals agree; ``WEAK_SUP``
(``x <=^w y``) keeps only the bottom-sum family, ``WEAK_SUB`` (``x <=_w y``)
keeps only the top-sum family with reversed inequality.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from itertools import accumulate
from numbers import Real
from typing import Iterable, Sequence

import numpy as np

from .errors import DimensionError, InternalError, OrderError, ParameterError

DEFAULT_TOL = 1e-12


class MajorizationMode(Enum):
    FULL = "full"
    WEAK_SUB = "weak_sub"
    WEAK_SUP = "weak_sup"


@dataclass(frozen=True)
class WeightVector:
    """Immutable finite real vector of coefficients.

    Entries may be negative (transformed coordinates such as ``log a_i``);
    operations that need nonnegativity enforce it themselves.
    """

    values: tuple[float, ...]

    def __post_init__(self):
        if len(self.values) < 1:
            raise ParameterError("WeightVector needs at least one entry")
        vals = tuple(float(v) for v in self.values)
        if not all(np.isfinite(vals)):
            raise ParameterError(f"non-finite entry in {vals}")
        object.__setattr__(self, "values", vals)

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self):
        return iter(self.values)

    def as_array(self) -> np.ndarray:
        return np.asarray(self.values, dtype=float)


VectorLike = WeightVector | Sequence[float] | np.ndarray


def as_weight_vector(v: VectorLike) -> WeightVector:
    if isinstance(v, WeightVector):
        return v
    return WeightVector(tuple(float(t) for t in np.atleast_1d(np.asarray(v, dtype=float))))


@dataclass(frozen=True)
class TChain:
    """Chain of vectors from the majorized endpoint up to the majorizing one.

    Consecutive (sorted) steps differ in at most two coordinates and are
    linked by a single T-transform.
    """

    steps: tuple[WeightVector, ...] = field()

    def __len__(self) -> int:
        return len(self.steps)


def sort_increasing(v: VectorLike) -> WeightVector:
    """Stable nondecreasing rearrangement."""
    arr = as_weight_vector(v).as_array()
    return WeightVector(tuple(np.sort(arr, kind="stable")))


# looked up once: check_majorize runs per vector pair in premise screening
_FULL = MajorizationMode.FULL
_WEAK_SUB = MajorizationMode.WEAK_SUB
_WEAK_SUP = MajorizationMode.WEAK_SUP
_INF = math.inf
_NINF = -math.inf
_isfinite = math.isfinite


def _sorted_values(v: VectorLike) -> list[float]:
    """Nondecreasing plain floats of ``v``, under the checks of
    :class:`WeightVector`: at least one entry, every entry finite."""
    if isinstance(v, (tuple, list)):
        vals = list(map(float, v))
    elif isinstance(v, WeightVector):
        return sorted(v.values)
    else:
        if isinstance(v, np.ndarray):
            v = v.tolist()
        vals = [float(v)] if isinstance(v, Real) else list(map(float, v))
    if not vals:
        raise ParameterError("WeightVector needs at least one entry")
    if not all(map(_isfinite, vals)):
        raise ParameterError(f"non-finite entry in {tuple(vals)}")
    vals.sort()
    return vals


def check_majorize(
    x: VectorLike,
    y: VectorLike,
    mode: MajorizationMode = MajorizationMode.FULL,
    tol: float = DEFAULT_TOL,
) -> bool:
    """True iff ``x`` is (weakly) majorized by ``y`` in the given mode.

    All sum comparisons of ``a`` against ``b`` carry the relative slack
    ``tol * (1 + max(|a|, |b|))``. Equal inputs (up to order) are always
    majorized, also where their sums overflow to inf.
    """
    if not 0 <= tol < math.inf:
        raise ParameterError(f"tol must be finite and >= 0, got {tol!r}")
    if mode is not _FULL and mode is not _WEAK_SUB and mode is not _WEAK_SUP:
        raise ParameterError(f"mode must be a MajorizationMode, got {mode!r}")
    xs = _sorted_values(x)
    ys = _sorted_values(y)
    if len(xs) != len(ys):
        raise DimensionError(f"length mismatch: {len(xs)} vs {len(ys)}")
    # each step first tries the fast test: finite sums already in order pass
    # the slack test for any tol >= 0. Otherwise the slack test decides; it
    # is a negated ``<=``/``>=``, so a NaN from sums that overflow to inf (or
    # from a slack of 0 * inf) fails it, and a failed step then answers
    # whether the sorted inputs are equal, which keeps the order reflexive
    if mode is _WEAK_SUB:
        # top sums: sum_{i>=j} x_(i) <= sum_{i>=j} y_(i)
        for a, b in zip(accumulate(reversed(xs)), accumulate(reversed(ys))):
            if not (_NINF < a <= b < _INF
                    or a <= b + tol * (1.0 + max(abs(a), abs(b)))):
                return xs == ys
        return True
    bx = list(accumulate(xs))
    by = list(accumulate(ys))
    if mode is not _WEAK_SUP:  # FULL: the totals agree
        a, b = bx.pop(), by.pop()
        if not (_NINF < a == b < _INF
                or abs(a - b) <= tol * (1.0 + max(abs(a), abs(b)))):
            return xs == ys
    # bottom sums: sum_{i<=j} x_(i) >= sum_{i<=j} y_(i)
    for a, b in zip(bx, by):
        if not (_NINF < b <= a < _INF
                or a >= b - tol * (1.0 + max(abs(a), abs(b)))):
            return xs == ys
    return True


def t_transform_chain(x: VectorLike, y: VectorLike) -> TChain:
    """Constructive chain of T-transforms linking ``sort(x)`` to ``sort(y)``.

    Requires ``x <=_m y`` at ``DEFAULT_TOL``, which also sets the slack of
    the reduction. Classical reduction: repeatedly transfer mass
    between the extreme pair of differing coordinates; at most ``n - 1``
    transforms.
    """
    xv = as_weight_vector(x)
    yv = as_weight_vector(y)
    if not check_majorize(xv, yv, MajorizationMode.FULL):
        raise OrderError("t_transform_chain requires x <=_m y")
    # internal work in decreasing arrangement; sortedness is preserved by
    # the extreme-pair transfer rule
    target = np.sort(xv.as_array())[::-1].copy()
    cur = np.sort(yv.as_array())[::-1].copy()
    n = len(cur)
    scale = 1.0 + float(np.max(np.abs(np.concatenate([target, cur]))))
    eps = DEFAULT_TOL * scale

    def to_step(desc: np.ndarray) -> WeightVector:
        return WeightVector(tuple(desc[::-1]))

    steps_rev = [to_step(cur)]
    for _ in range(n):
        diff = cur - target
        if np.max(np.abs(diff)) <= eps:
            break
        # largest index j with cur_j > target_j, then smallest k > j with
        # cur_k < target_k (decreasing arrangement)
        above = np.nonzero(diff > eps)[0]
        below = np.nonzero(diff < -eps)[0]
        j = above[-1]
        k = below[below > j][0]
        delta = min(cur[j] - target[j], target[k] - cur[k])
        cur[j] -= delta
        cur[k] += delta
        steps_rev.append(to_step(cur))
    else:  # pragma: no cover
        raise InternalError("T-transform reduction did not terminate in n steps")
    steps_rev[-1] = sort_increasing(xv)  # snap the endpoint exactly
    return TChain(tuple(reversed(steps_rev)))


def brute_force_majorize(
    x: Iterable[int], y: Iterable[int], mode: MajorizationMode
) -> bool:
    """Exact-integer reference evaluation of the three order definitions.

    Independent oracle for :func:`check_majorize`; works directly from the
    defining sum inequalities with Python integer arithmetic.
    """
    xs = sorted(int(t) for t in x)
    ys = sorted(int(t) for t in y)
    if len(xs) != len(ys):
        raise DimensionError("length mismatch")
    n = len(xs)
    if mode is MajorizationMode.WEAK_SUP:
        return all(sum(xs[: j + 1]) >= sum(ys[: j + 1]) for j in range(n))
    if mode is MajorizationMode.WEAK_SUB:
        return all(sum(xs[j:]) <= sum(ys[j:]) for j in range(n))
    return sum(xs) == sum(ys) and all(
        sum(xs[: j + 1]) >= sum(ys[: j + 1]) for j in range(n - 1)
    )
