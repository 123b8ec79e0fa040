"""Tail-stable normal primitives and truncated-Gaussian inversion.

The inference pipeline reduces to one numeric task: evaluate the CDF of a
standard Gaussian with shifted mean, truncated to a union of disjoint
intervals, and invert that CDF in the mean parameter.  Everything here is a
pure function of its arguments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from scipy.special import log_ndtr, ndtri

_SQRT2 = math.sqrt(2.0)
_INF = math.inf

#: Total truncated mass below this floor is treated as numerically zero.
MASS_FLOOR = 1e-300

#: Initial half-width (in standard deviations) of the mean bracket used by
#: :func:`invert_truncated_mu`; doubled up to ``_BRACKET_DOUBLINGS`` times.
BRACKET_SPAN = 40.0
_BRACKET_DOUBLINGS = 4

#: Convergence tolerances for the mean inversion: absolute on the mean and
#: on the CDF residual, whichever is met first.
MU_TOL = 1e-10
CDF_RESIDUAL_TOL = 1e-12


class DegenerateSupportError(ArithmeticError):
    """The truncated mass underflowed; the mean is unidentifiable in doubles."""


class BracketFailureError(ArithmeticError):
    """Bracket expansion for the mean inversion exceeded its configured span."""


class BoundaryStatisticError(ValueError):
    """The observed statistic is not in the interior of its support.

    The support is closed, so a statistic exactly on an endpoint belongs to
    it, but the truncated CDF is then 0 or 1 for every mean and cannot be
    inverted.
    """


def normal_cdf(x: float) -> float:
    """Standard normal CDF with full relative accuracy in both tails.

    Evaluated through the complementary error function; the upper tail is
    never formed as ``1 - cdf``, so values like ``normal_cdf(-8)`` keep
    their leading digits instead of rounding against 1.
    """
    if not math.isfinite(x):
        raise ValueError(f"normal_cdf requires finite x, got {x!r}")
    return 0.5 * math.erfc(-x / _SQRT2)


def normal_sf(x: float) -> float:
    """Upper tail probability P(Z >= x), tail-stable like :func:`normal_cdf`."""
    if not math.isfinite(x):
        raise ValueError(f"normal_sf requires finite x, got {x!r}")
    return 0.5 * math.erfc(x / _SQRT2)


def normal_quantile(p: float) -> float:
    """Inverse of :func:`normal_cdf` on (0, 1)."""
    if not 0.0 < p < 1.0:
        raise ValueError(f"normal_quantile requires p in (0, 1), got {p!r}")
    return float(ndtri(p))


def _log_normal_cdf(x: float) -> float:
    if x == _INF:
        return 0.0
    if x == -_INF:
        return -_INF
    return float(log_ndtr(x))


@dataclass(frozen=True)
class IntervalUnion:
    """A sorted union of pairwise-disjoint closed intervals.

    Endpoints may be ``-inf``/``+inf``; the empty union is allowed.  The
    constructor enforces ``lo <= hi`` within each interval and a strictly
    positive gap between consecutive intervals, so instances are always in
    canonical form (build from raw pieces with ``support.merge_intervals``).
    """

    intervals: tuple[tuple[float, float], ...] = field(default=())

    def __post_init__(self) -> None:
        canon = tuple((float(lo), float(hi)) for lo, hi in self.intervals)
        object.__setattr__(self, "intervals", canon)
        prev_hi = -_INF
        for k, (lo, hi) in enumerate(canon):
            if math.isnan(lo) or math.isnan(hi):
                raise ValueError("interval endpoints must not be NaN")
            if lo > hi:
                raise ValueError(f"interval {k} has lo > hi: ({lo}, {hi})")
            if k > 0 and lo <= prev_hi:
                raise ValueError(
                    f"intervals must be disjoint and increasing; "
                    f"interval {k} starts at {lo} <= previous end {prev_hi}"
                )
            prev_hi = hi

    @property
    def is_empty(self) -> bool:
        return not self.intervals

    @property
    def infimum(self) -> float:
        if self.is_empty:
            raise ValueError("empty union has no infimum")
        return self.intervals[0][0]

    @property
    def supremum(self) -> float:
        if self.is_empty:
            raise ValueError("empty union has no supremum")
        return self.intervals[-1][1]

    def contains(self, x: float, tol: float = 0.0) -> bool:
        """Membership test with an optional absolute slack at the endpoints."""
        return any(lo - tol <= x <= hi + tol for lo, hi in self.intervals)

    def interior_contains(self, x: float) -> bool:
        return any(lo < x < hi for lo, hi in self.intervals)

    def __iter__(self):
        return iter(self.intervals)

    def __len__(self) -> int:
        return len(self.intervals)


@dataclass(frozen=True)
class TruncatedGaussian:
    """Unit-variance Gaussian with mean ``mu`` truncated to ``support``.

    ``mu`` lives in t-statistic units: for an effect with variance v it is
    the standardized mean theta / sqrt(v).
    """

    mu: float
    support: IntervalUnion

    def __post_init__(self) -> None:
        if not math.isfinite(self.mu):
            raise ValueError(f"mu must be finite, got {self.mu!r}")
        if self.support.is_empty:
            raise ValueError("truncation support must be nonempty")

    def cdf(self, x: float) -> float:
        return truncated_cdf(x, self)


def _interval_mass(a: float, b: float) -> float:
    """Standard normal mass of the shifted interval [a, b], a <= b.

    The difference is taken between complementary tail probabilities on the
    side of smaller mass (switching at the shifted midpoint) so the result
    never suffers catastrophic cancellation against 1.
    """
    if a == b:
        return 0.0
    if a == -_INF and b == _INF:
        return 1.0
    if a == -_INF:
        return normal_cdf(b)
    if b == _INF:
        return normal_sf(a)
    if a + b > 0.0:
        mass = normal_sf(a) - normal_sf(b)
    else:
        mass = normal_cdf(b) - normal_cdf(a)
    return max(mass, 0.0)


def _log_interval_mass(a: float, b: float) -> float:
    """log of :func:`_interval_mass`, stable far into the tails."""
    if a >= b:
        return -_INF
    if a == -_INF and b == _INF:
        return 0.0
    if a == -_INF:
        return _log_normal_cdf(b)
    if b == _INF:
        return _log_normal_cdf(-a)
    if a + b > 0.0:
        log_hi, log_lo = _log_normal_cdf(-a), _log_normal_cdf(-b)
    else:
        log_hi, log_lo = _log_normal_cdf(b), _log_normal_cdf(a)
    diff = log_lo - log_hi
    if diff >= 0.0:
        return -_INF
    return log_hi + math.log1p(-math.exp(diff))


def _logsumexp(values: list[float]) -> float:
    top = max(values, default=-_INF)
    if top == -_INF:
        return -_INF
    return top + math.log(sum(math.exp(v - top) for v in values))


def truncated_cdf(x: float, dist: TruncatedGaussian) -> float:
    """CDF of a truncated Gaussian at ``x``.

    Returns the mass of ``support ∩ (-inf, x]`` over the total support mass,
    both under N(mu, 1).  Raises :class:`DegenerateSupportError` when the
    total mass underflows ``MASS_FLOOR`` (the conditioning event is
    effectively impossible under this mean).
    """
    if not math.isfinite(x):
        raise ValueError(f"truncated_cdf requires finite x, got {x!r}")
    mu = dist.mu
    num = 0.0
    den = 0.0
    for lo, hi in dist.support:
        den += _interval_mass(lo - mu, hi - mu)
        if x > lo:
            num += _interval_mass(lo - mu, min(hi, x) - mu)
    if den < MASS_FLOOR:
        raise DegenerateSupportError(
            f"total truncated mass underflowed ({den!r}) at mu={mu!r}"
        )
    return min(max(num / den, 0.0), 1.0)


def _truncated_cdf_log(x: float, mu: float, support: IntervalUnion) -> float:
    """Log-space evaluation of the truncated CDF.

    Used by the mean inversion, where bracket expansion probes means tens of
    standard deviations away from the support and the direct masses underflow.
    """
    log_num: list[float] = []
    log_den: list[float] = []
    for lo, hi in support:
        log_den.append(_log_interval_mass(lo - mu, hi - mu))
        if x > lo:
            log_num.append(_log_interval_mass(lo - mu, min(hi, x) - mu))
    den = _logsumexp(log_den)
    if den == -_INF:
        raise DegenerateSupportError(
            f"truncated mass vanished in log space at mu={mu!r}"
        )
    num = _logsumexp(log_num)
    if num == -_INF:
        return 0.0
    return min(math.exp(num - den), 1.0)


def invert_truncated_mu(x_obs: float, support: IntervalUnion, p: float) -> float:
    """Solve ``truncated_cdf(x_obs, (mu, support)) = p`` for the mean.

    The truncated CDF is strictly decreasing in ``mu`` with limits 1 and 0
    as ``mu -> -inf`` and ``mu -> +inf``, so the root is unique.  It is found
    by bisection on an expanding bracket centred at ``x_obs``; a bracket
    wider than ``BRACKET_SPAN * 2**_BRACKET_DOUBLINGS`` standard deviations
    signals a numerically degenerate support.
    """
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must lie in (0, 1), got {p!r}")
    if support.is_empty:
        raise ValueError("support must be nonempty")
    if not support.interior_contains(x_obs):
        raise BoundaryStatisticError(
            f"x_obs={x_obs!r} must lie in the interior of the support"
        )

    span = BRACKET_SPAN
    lo = hi = x_obs
    for _ in range(_BRACKET_DOUBLINGS + 1):
        lo, hi = x_obs - span, x_obs + span
        f_lo = _truncated_cdf_log(x_obs, lo, support)
        f_hi = _truncated_cdf_log(x_obs, hi, support)
        if f_lo >= p >= f_hi:
            break
        span *= 2.0
    else:
        raise BracketFailureError(
            f"could not bracket the quantile: F({lo})={f_lo!r}, "
            f"F({hi})={f_hi!r}, target p={p!r}"
        )

    while hi - lo > MU_TOL:
        mid = 0.5 * (lo + hi)
        f_mid = _truncated_cdf_log(x_obs, mid, support)
        if abs(f_mid - p) <= CDF_RESIDUAL_TOL:
            return mid
        if f_mid > p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
