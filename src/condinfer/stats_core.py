"""Log-space truncated-Gaussian evaluation and inversion.

The inference pipeline reduces to one numeric task: evaluate the CDF of a
standard Gaussian with shifted mean, truncated to a union of disjoint
intervals, and invert that CDF in the mean parameter.  One evaluator gives
the log masses below and above the statistic, each from its smaller tail,
and serves both :func:`truncated_cdf` and the inversion kernel, which
solves a batch of (statistic, support, target) problems at once with no cap
on how far a root may lie from its statistic (next to a support endpoint,
thousands of standard deviations is a real answer); a problem whose
truncated mass vanishes in doubles fails alone.  :func:`invert_truncated_mu`
is the kernel's one entry: one statistic with one support raises its error,
a stack of (statistic, support) pairs gets each pair's error back in a list.
Everything here is a pure function of its arguments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from statistics import NormalDist

import numpy as np

_INF = math.inf
_STANDARD_NORMAL = NormalDist()

#: Convergence tolerance of the mean inversion: the final bracket is at most
#: ``max(MU_TOL, MU_RTOL * |mu|)`` wide.  The relative part only matters
#: beyond |mu| = 1000, where doubles are too coarse for the absolute one.
MU_TOL = 1e-10
MU_RTOL = 1e-13

#: Per-problem status codes of :func:`_invert_batch`.
_SOLVED, _BOUNDARY, _DEGENERATE = 0, 1, 2


class DegenerateSupportError(ArithmeticError):
    """The truncated mass underflowed; the mean is unidentifiable in doubles."""


class BoundaryStatisticError(ValueError):
    """The observed statistic is not in the interior of its support.

    The support is closed, so a statistic exactly on an endpoint belongs to
    it, but the truncated CDF is then 0 or 1 for every mean and cannot be
    inverted.
    """


def normal_quantile(p: float) -> float:
    """Inverse of the standard normal CDF on (0, 1)."""
    if not 0.0 < p < 1.0:
        raise ValueError(f"normal_quantile requires p in (0, 1), got {p!r}")
    return _STANDARD_NORMAL.inv_cdf(p)


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


#: Cody's (1969) rational approximations of the normal CDF, one row per
#: range of |x|: numerator and denominator coefficients, highest degree
#: first, zero-padded to a common length.
_CODY = np.array([
    # |x| <= 0.67448975, in x^2: Phi(x) = 1/2 + x P(x^2) / Q(x^2)
    [
        [0, 0, 0, 0, 0.065682337918207449113, 2.2352520354606839287,
         161.02823106855587881, 1067.6894854603709582, 18154.981253343561249],
        [0, 0, 0, 0, 1.0, 47.20258190468824187, 976.09855173777669322,
         10260.932208618978205, 45507.789335026729956],
    ],
    # |x| <= sqrt(32), in |x|: Phi(-|x|) = exp(-x^2/2) P(|x|) / Q(|x|)
    [
        [1.0765576773720192317e-8, 0.39894151208813466764, 8.8831497943883759412,
         93.506656132177855979, 597.27027639480026226, 2494.5375852903726711,
         6848.1904505362823326, 11602.651437647350124, 9842.7148383839780218],
        [1.0, 22.266688044328115691, 235.38790178262499861, 1519.377599407554805,
         6485.558298266760755, 18615.571640885098091, 34900.952721145977266,
         38912.003286093271411, 19685.429676859990727],
    ],
    # beyond, in 1/x^2: Phi(-|x|) = exp(-x^2/2) (1/sqrt(2 pi) - P/Q x^-2) / |x|
    [
        [0, 0, 0, 0.02307344176494017303, 0.21589853405795699, 0.1274011611602473639,
         0.022235277870649807, 0.001421619193227893466, 2.9112874951168792e-5],
        [0, 0, 0, 1.0, 1.28426009614491121, 0.468238212480865118,
         0.0659881378689285515, 0.00378239633202758244, 7.29751555083966205e-5],
    ],
])
_CODY_EDGES = (0.67448975, math.sqrt(32.0))
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


def _log_ndtr(x: np.ndarray) -> np.ndarray:
    """Elementwise log of the standard normal CDF, accurate to a few ulp
    relative in both tails.

    Cody's rational approximations in the log-space arrangement of R's
    ``pnorm``: the central range gives log(1/2 + x P/Q); beyond it the
    lower tail is -x^2/2 + log(P/Q), with x^2 split at trunc(16 |x|)/16 so
    that neither part loses digits nor underflows, and the upper tail is
    log1p of minus that tail's value.  ±inf and NaN pass through.
    """
    x = np.asarray(x, dtype=float)
    # x^2 overflows long before 1e170; the cap keeps inf - inf out of the split
    y = np.minimum(np.abs(x), 1e170)
    branch = (y > _CODY_EDGES[0]).astype(np.intp) + (y > _CODY_EDGES[1])
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        t = np.where(branch == 0, x * x, np.where(branch == 1, y, 1.0 / (y * y)))
        coef = _CODY[branch]
        acc = coef[..., 0]
        for k in range(1, coef.shape[-1]):
            acc = acc * t[..., None] + coef[..., k]
        ratio = acc[..., 0] / acc[..., 1]
        tail = np.where(branch == 1, ratio, (_INV_SQRT_2PI - t * ratio) / y)
        y16 = np.trunc(16.0 * y) / 16.0
        log_head, log_rest = -0.5 * y16 * y16, -0.5 * (y - y16) * (y + y16)
        out = np.where(
            x > 0.0,
            np.log1p(-np.exp(log_head) * np.exp(log_rest) * tail),
            log_head + log_rest + np.log(tail),
        )
        return np.where(branch == 0, np.log(0.5 + x * ratio), out)


def _log_mass(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Elementwise log of the standard normal mass of [a, b], a <= b, as a
    difference of tail probabilities on the smaller-tail side, so it keeps
    its relative accuracy far out; an empty piece (a == b) gives -inf."""
    right = a + b > 0.0
    ends = np.stack((np.where(right, -a, b), np.where(right, -b, a)))
    log_upper, log_lower = _log_ndtr(ends)
    return log_upper + np.log1p(-np.exp(log_lower - log_upper))


def _log_masses_around(x: np.ndarray, lo: np.ndarray, hi: np.ndarray):
    """Split row i's intervals [lo_ik, hi_ik] (padded with empty ones,
    lo == hi) at x_i.  The function returned maps the means to rows
    (log L, log U): the log masses under N(mu_i, 1) below and above x_i,
    so F = 1 / (1 + exp(log U - log L)), with NaN log odds where both vanish."""
    cut = np.clip(x[:, None], lo, hi)
    # below-x and above-x pieces of every interval: shape (problem, 2, k)
    starts = np.stack((lo, cut), axis=1)
    ends = np.stack((cut, hi), axis=1)

    def log_masses(mu: np.ndarray) -> np.ndarray:
        shift = mu[:, None, None]
        return np.logaddexp.reduce(_log_mass(starts - shift, ends - shift), axis=-1).T

    return log_masses


def truncated_cdf(x: float, dist: TruncatedGaussian) -> float:
    """CDF of a truncated Gaussian at ``x``.

    The mass of ``support ∩ (-inf, x]`` over the total support mass, both
    under N(mu, 1), evaluated in log space by the inversion kernel's
    evaluator.  Raises :class:`DegenerateSupportError` where the kernel
    does: when the masses below and above ``x`` both vanish in doubles (the
    conditioning event is effectively impossible under this mean).
    """
    if not math.isfinite(x):
        raise ValueError(f"truncated_cdf requires finite x, got {x!r}")
    lo, hi = np.array(dist.support.intervals).T[:, None]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        log_masses = _log_masses_around(np.array([x]), lo, hi)
        (log_below,), (log_above,) = log_masses(np.array([dist.mu]))
        log_odds = log_above - log_below
        if math.isnan(log_odds):
            raise DegenerateSupportError(
                f"truncated mass vanished in log space at mu={dist.mu!r}"
            )
        return float(1.0 / (1.0 + np.exp(log_odds)))


def _invert_batch(
    x: np.ndarray, lo: np.ndarray, hi: np.ndarray, p: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Solve ``F(x_i; mu_i) = p_i`` for every problem i at once.

    F is the CDF of N(mu, 1) truncated to the union of the intervals
    [lo_ik, hi_ik] of row i; rows are padded with empty intervals
    (lo == hi).  With L and U the truncated masses below and above x, the
    log odds r(mu) = log U - log L increase strictly from -inf to inf, and
    F = p exactly where r equals log((1 - p) / p).  Each root is bracketed
    by steps of 1, 2, 4, ... away from x, then refined by Chandrupatla's
    method (inverse quadratic interpolation where it is safe, bisection
    otherwise) until the bracket is narrower than ``max(MU_TOL, MU_RTOL *
    |mu|)`` (mu: the first bracket's end of larger magnitude); the answer is
    the secant point of the final bracket.  Returns the roots and status
    codes: a statistic outside the interior of its support (``_BOUNDARY``)
    or a truncated mass that vanishes in doubles (``_DEGENERATE``) gives NaN
    for that problem alone.
    """
    x = np.asarray(x, dtype=float)
    p = np.asarray(p, dtype=float)
    target = np.log1p(-p) - np.log(p)
    code = np.where(((lo < x[:, None]) & (x[:, None] < hi)).any(axis=1), _SOLVED, _BOUNDARY)
    log_masses = _log_masses_around(x, lo, hi)

    def g(mu):
        log_below, log_above = log_masses(mu)
        return log_above - log_below - target

    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # bracket: [a, b] with g(a) and g(b) of opposite signs (or a root)
        a, fa = x.copy(), g(x)
        b, fb = a.copy(), fa.copy()
        code[(code == _SOLVED) & np.isnan(fa)] = _DEGENERATE
        step = np.where(fa < 0.0, 1.0, -1.0)
        open_ = (code == _SOLVED) & (fa != 0.0)
        while open_.any():
            b = np.where(open_, x + step, b)
            fb = np.where(open_, g(b), fb)
            code[open_ & np.isnan(fb)] = _DEGENERATE
            open_ &= (code == _SOLVED) & (np.sign(fb) == np.sign(fa))
            a, fa = np.where(open_, b, a), np.where(open_, fb, fa)
            step = np.where(open_, 2.0 * step, step)

        # Chandrupatla: a is the newest point, b the opposite-sign end, c the
        # point dropped last; t is the next point's position within [a, b].
        # A finished problem takes t = 0, which re-evaluates a and keeps its
        # bracket as it is.
        c, fc = b, fb
        t = np.full(x.shape, 0.5)
        half_tol = 0.5 * np.maximum(MU_TOL, MU_RTOL * np.maximum(np.abs(a), np.abs(b)))
        active = (code == _SOLVED) & (fa != 0.0) & (fb != 0.0)
        while True:
            limit = half_tol / np.abs(b - a)
            active &= limit < 0.5
            if not active.any():
                break
            t = np.where(active, np.minimum(np.maximum(t, limit), 1.0 - limit), 0.0)
            xt = a + t * (b - a)
            ft = g(xt)
            code[active & np.isnan(ft)] = _DEGENERATE
            active &= (code == _SOLVED) & (ft != 0.0)
            same = np.sign(ft) == np.sign(fa)
            c, fc = np.where(same, a, b), np.where(same, fa, fb)
            b, fb = np.where(same, b, a), np.where(same, fb, fa)
            a, fa = xt, ft
            # inverse quadratic interpolation through a, b and c where the
            # fit is monotone on the bracket, bisection elsewhere
            xi = (a - b) / (c - b)
            phi = (fa - fb) / (fc - fb)
            iqi = (phi**2 < xi) & ((1.0 - phi) ** 2 < 1.0 - xi)
            t = np.where(
                iqi,
                fa / (fb - fa) * fc / (fb - fc)
                + (c - a) / (b - a) * fa / (fc - fa) * fb / (fc - fb),
                0.5,
            )

        secant = a - fa * (b - a) / (fb - fa)
        root = np.where(np.isfinite(secant), secant, np.where(np.abs(fa) < np.abs(fb), a, b))
    root[code != _SOLVED] = math.nan
    return root, code


def invert_truncated_mu(x_obs, support, p):
    """Solve ``truncated_cdf(x_obs, (mu, support)) = p`` for the mean.

    The truncated CDF is strictly decreasing in ``mu`` with limits 1 and 0
    as ``mu -> -inf`` and ``mu -> +inf``, so each root is unique.  ``p`` is
    one target in (0, 1), giving a float, or a sequence of targets, giving
    an array of roots; all of them are solved in one call of the batch
    kernel.  Raises :class:`BoundaryStatisticError` when ``x_obs`` is not in
    the interior of the support and :class:`DegenerateSupportError` when
    the truncated mass vanishes in doubles.

    A sequence of statistics with a sequence of supports, one per pair,
    gives ``(roots, errors)`` from one kernel call: ``roots`` of shape
    (pairs, targets), and ``errors`` with each pair's error, or None where
    every root of the pair was found.  A pair with an error has a row of
    NaN roots; the other pairs are unaffected.
    """
    targets = np.atleast_1d(np.asarray(p, dtype=float))
    if targets.ndim != 1 or not np.all((targets > 0.0) & (targets < 1.0)):
        raise ValueError(f"p must lie in (0, 1), got {p!r}")
    single = isinstance(support, IntervalUnion)
    stats, supports = ([x_obs], [support]) if single else (list(x_obs), list(support))
    if len(stats) != len(supports):
        raise ValueError(f"{len(stats)} statistics for {len(supports)} supports")
    if any(union.is_empty for union in supports):
        raise ValueError("support must be nonempty")
    width = max((len(union) for union in supports), default=1)
    bounds = np.zeros((len(supports), 2, width))
    for i, union in enumerate(supports):
        bounds[i, :, : len(union)] = np.array(union.intervals).T
    bounds = np.repeat(bounds, targets.size, axis=0)
    roots, code = _invert_batch(
        np.repeat(np.asarray(stats, dtype=float), targets.size),
        bounds[:, 0],
        bounds[:, 1],
        np.tile(targets, len(supports)),
    )
    roots, code = roots.reshape(-1, targets.size), code.reshape(-1, targets.size)
    errors = [None] * len(stats)
    for i in np.flatnonzero((code != _SOLVED).any(axis=1)).tolist():
        if (code[i] == _BOUNDARY).any():
            errors[i] = BoundaryStatisticError(
                f"x_obs={stats[i]!r} must lie in the interior of the support"
            )
        else:
            errors[i] = DegenerateSupportError(
                f"truncated mass vanished in log space for x_obs={stats[i]!r}"
            )
        roots[i] = math.nan
    if not single:
        return roots, errors
    if errors[0] is not None:
        raise errors[0]
    return float(roots[0, 0]) if np.ndim(p) == 0 else roots[0]
