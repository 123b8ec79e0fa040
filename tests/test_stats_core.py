"""Normal primitives and truncated-Gaussian inversion.

Expected values were frozen from independent oracles: mpmath root finding
on the CDF for quantiles and the closed-form truncation expressions for the
truncated CDF.  Live references are 60-digit mpmath evaluations and scipy's
``ndtr``, neither of which shares code with ``stats_core``.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import mp_truncated_cdf, mp_truncated_root

from condinfer.stats_core import (
    MU_TOL,
    BoundaryStatisticError,
    DegenerateSupportError,
    IntervalUnion,
    TruncatedGaussian,
    invert_truncated_mu,
    normal_quantile,
    truncated_cdf,
    _BOUNDARY,
    _DEGENERATE,
    _SOLVED,
    _invert_batch,
    _log_ndtr,
)

INF = math.inf

# mpmath root of phi(t) = p
Q95 = 1.6448536269514727149
Q975 = 1.9599639845400542355
# (0.5 - phi(xb - X) + phi(-xb - X)) / (1 - phi(xb - X) + phi(-xb - X))
# at xb = 1.6449, X = 2
TWO_SIDED_AT_OBS = 0.21737601747563172159
# (phi(1.96) - phi(1.6449)) / (1 - phi(1.6449))
ONE_TAIL_196 = 0.49999427117108823221


def test_frozen_oracle_values_recompute():
    # regenerate every frozen constant from the high-precision oracle
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 40

    def phi(x):
        return 0.5 * mp.erfc(-mp.mpf(x) / mp.sqrt(2))

    assert float(mp.findroot(lambda t: phi(t) - mp.mpf("0.95"), 1.5)) == pytest.approx(
        Q95, abs=1e-15
    )
    assert float(
        mp.findroot(lambda t: phi(t) - mp.mpf("0.975"), 1.9)
    ) == pytest.approx(Q975, abs=1e-15)
    xb, x = mp.mpf("1.6449"), mp.mpf(2)
    closed = (mp.mpf("0.5") - phi(xb - x) + phi(-xb - x)) / (
        1 - phi(xb - x) + phi(-xb - x)
    )
    assert float(closed) == pytest.approx(TWO_SIDED_AT_OBS, rel=1e-15)
    one_tail = (phi("1.96") - phi(xb)) / (1 - phi(xb))
    assert float(one_tail) == pytest.approx(ONE_TAIL_196, rel=1e-15)


def test_normal_quantile_examples():
    assert normal_quantile(0.5) == 0.0
    assert normal_quantile(0.95) == pytest.approx(Q95, abs=1e-12)
    assert normal_quantile(0.975) == pytest.approx(Q975, abs=1e-12)


def test_normal_quantile_domain():
    for bad in (0.0, 1.0, -0.2, 1.3):
        with pytest.raises(ValueError):
            normal_quantile(bad)


@given(st.floats(min_value=1e-12, max_value=1.0 - 1e-12))
@settings(max_examples=200, deadline=None)
def test_quantile_round_trip(p):
    ndtr = pytest.importorskip("scipy.special").ndtr
    assert ndtr(normal_quantile(p)) == pytest.approx(p, abs=1e-12)


def test_log_ndtr_matches_mpmath():
    # Cody's branch edges and both sides of them, the far lower tail out to
    # -1e8, and the upper tail up to where log Phi leaves the normal doubles
    mp = pytest.importorskip("mpmath")
    edges = [0.67448975, math.sqrt(32.0), 37.5]
    edges += [np.nextafter(e, s) for e in edges for s in (0.0, INF)]
    x = np.concatenate([
        np.linspace(-60.0, 37.5, 1201),
        -np.logspace(1.0, 8.0, 200),
        edges,
        np.negative(edges),
        [0.0, 1e-300, -1e-300, 16.6],
    ])
    with mp.workdps(60):
        # for x > 0, log(ncdf(x)) would round away the tail even at 60 digits
        expected = np.array([
            float(mp.log1p(-mp.ncdf(-v)) if v > 0 else mp.log(mp.ncdf(v)))
            for v in map(mp.mpf, x.tolist())
        ])
    got = _log_ndtr(x)
    assert np.all(np.abs(got - expected) <= 1e-14 * np.abs(expected))
    np.testing.assert_array_equal(_log_ndtr(np.array([-INF, INF, 1e8])), [-INF, 0.0, 0.0])
    assert np.isnan(_log_ndtr(np.array([math.nan]))).all()


def test_normal_quantile_matches_ndtri():
    ndtri = pytest.importorskip("scipy.special").ndtri
    p = np.concatenate([
        np.logspace(-300.0, math.log10(0.5), 400),
        1.0 - np.logspace(-15.0, math.log10(0.5), 400),
        np.random.default_rng(3).uniform(size=200),
    ])
    got = np.array([normal_quantile(v) for v in p.tolist()])
    assert np.all(np.abs(got - ndtri(p)) <= 2e-15 * np.abs(ndtri(p)))


def test_interval_union_validation():
    IntervalUnion()  # empty is fine
    IntervalUnion(((-INF, 1.0), (2.0, INF)))
    with pytest.raises(ValueError):
        IntervalUnion(((2.0, 1.0),))
    with pytest.raises(ValueError):
        IntervalUnion(((0.0, 1.0), (1.0, 2.0)))  # touching, not disjoint
    with pytest.raises(ValueError):
        IntervalUnion(((0.0, math.nan),))


def test_interval_union_membership():
    union = IntervalUnion(((-INF, -1.0), (2.0, 3.0)))
    assert union.contains(-5.0)
    assert union.contains(2.0)
    assert not union.contains(0.0)
    assert union.interior_contains(2.5)
    assert not union.interior_contains(2.0)
    assert union.infimum == -INF and union.supremum == 3.0


def test_truncated_gaussian_requires_support():
    with pytest.raises(ValueError):
        TruncatedGaussian(0.0, IntervalUnion())


def test_truncated_cdf_untruncated():
    dist = TruncatedGaussian(0.0, IntervalUnion(((-INF, INF),)))
    assert truncated_cdf(0.0, dist) == pytest.approx(0.5, abs=1e-15)


def test_truncated_cdf_one_tail():
    dist = TruncatedGaussian(0.0, IntervalUnion(((1.6449, INF),)))
    assert truncated_cdf(1.96, dist) == pytest.approx(ONE_TAIL_196, abs=1e-13)
    assert truncated_cdf(1.96, dist) == pytest.approx(0.5, abs=1e-4)


def test_truncated_cdf_two_sided_closed_form():
    xb = 1.6449
    dist = TruncatedGaussian(2.0, IntervalUnion(((-INF, -xb), (xb, INF))))
    assert truncated_cdf(2.0, dist) == pytest.approx(TWO_SIDED_AT_OBS, abs=1e-14)


def test_truncated_cdf_range_and_monotonicity_in_x():
    dist = TruncatedGaussian(0.3, IntervalUnion(((-2.0, -1.0), (0.5, 1.5))))
    xs = np.linspace(-3, 3, 101)
    vals = [truncated_cdf(x, dist) for x in xs]
    assert vals[0] == 0.0 and vals[-1] == 1.0
    assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_truncated_cdf_degenerate_mass():
    # 100 standard deviations out both masses are below 1e-2000 but their
    # logs are finite, so the CDF is still exact: 1 - 1.7e-22 rounds to 1
    support = IntervalUnion(((100.0, 101.0),))
    below, above = mp_truncated_cdf(100.5, support.intervals, 0.0)
    assert above == pytest.approx(1.7e-22, rel=0.05)
    assert truncated_cdf(100.5, TruncatedGaussian(0.0, support)) == below == 1.0
    # 1e160 out the logs of both masses are -inf too, so the log odds are
    # NaN, as where the inversion kernel gives up: the CDF is undefined
    with pytest.raises(DegenerateSupportError):
        truncated_cdf(2e160, TruncatedGaussian(0.0, IntervalUnion(((1e160, 1e161),))))


def test_truncated_cdf_rejects_nonfinite():
    dist = TruncatedGaussian(0.0, IntervalUnion(((-INF, INF),)))
    for bad in (math.nan, INF, -INF):
        with pytest.raises(ValueError):
            truncated_cdf(bad, dist)


def test_truncated_cdf_matches_mpmath():
    # random unions of one to four intervals at least 0.2 wide and apart,
    # some unbounded, with means up to 40 standard deviations from x.  The
    # log masses are of order (mu - x)^2 / 2 and carry a few ulp of that,
    # so the error is relative to the smaller of F and 1 - F, scaled by
    # 1 + (mu - x)^2, plus the rounding of F itself
    rng = np.random.default_rng(5)
    for _ in range(300):
        k = int(rng.integers(1, 5))
        cuts = -5.0 + np.cumsum(rng.uniform(0.2, 2.5, 2 * k))
        cuts[0] = -INF if rng.random() < 0.3 else cuts[0]
        cuts[-1] = INF if rng.random() < 0.3 else cuts[-1]
        intervals = tuple(zip(cuts[0::2].tolist(), cuts[1::2].tolist()))
        lo, hi = np.clip(intervals[int(rng.integers(k))], -8.0, 8.0)
        x = float(rng.uniform(lo, hi))
        mu = float(rng.uniform(-3.0, 3.0) if rng.random() < 0.5 else rng.uniform(-40.0, 40.0))
        below, above = mp_truncated_cdf(x, intervals, mu)
        got = truncated_cdf(x, TruncatedGaussian(mu, IntervalUnion(intervals)))
        assert abs(got - below) <= 2.0**-52 + 1e-13 * min(below, above) * (1.0 + (mu - x) ** 2)


def test_truncated_cdf_monotone_in_mu():
    # strictly decreasing in the mean at fixed x: finite differences over
    # 100 random (x, mu, support) triples
    rng = np.random.default_rng(42)
    for _ in range(100):
        lo = rng.uniform(-3, 0)
        hi = lo + rng.uniform(0.5, 3)
        lo2 = hi + rng.uniform(0.2, 2)
        hi2 = lo2 + rng.uniform(0.5, 3)
        support = IntervalUnion(((lo, hi), (lo2, hi2)))
        x = rng.uniform(lo, hi) if rng.random() < 0.5 else rng.uniform(lo2, hi2)
        mu = rng.uniform(-4, 4)
        f0 = truncated_cdf(x, TruncatedGaussian(mu, support))
        f1 = truncated_cdf(x, TruncatedGaussian(mu + 0.05, support))
        assert f1 < f0


def test_truncated_cdf_interval_additivity():
    # the union CDF is the mass-weighted combination of per-interval CDFs
    ndtr = pytest.importorskip("scipy.special").ndtr
    rng = np.random.default_rng(7)
    for _ in range(50):
        cuts = np.sort(rng.uniform(-4, 4, size=6))
        pieces = [(cuts[0], cuts[1]), (cuts[2], cuts[3]), (cuts[4], cuts[5])]
        mu = rng.uniform(-2, 2)
        support = IntervalUnion(tuple(pieces))
        x = rng.uniform(cuts[0], cuts[5])
        whole = truncated_cdf(x, TruncatedGaussian(mu, support))
        masses = [ndtr(hi - mu) - ndtr(lo - mu) for lo, hi in pieces]
        parts = []
        for (lo, hi), mass in zip(pieces, masses):
            if x <= lo:
                parts.append(0.0)
            elif x >= hi:
                parts.append(mass)
            else:
                piece = TruncatedGaussian(mu, IntervalUnion(((lo, hi),)))
                parts.append(truncated_cdf(x, piece) * mass)
        combined = sum(parts) / sum(masses)
        assert whole == pytest.approx(combined, abs=1e-13)


def test_invert_untruncated():
    support = IntervalUnion(((-INF, INF),))
    x_obs = normal_quantile(0.9)
    assert invert_truncated_mu(x_obs, support, 0.9) == pytest.approx(0.0, abs=1e-8)


def test_invert_round_trip_one_tail():
    support = IntervalUnion(((1.6449, INF),))
    mu = invert_truncated_mu(1.96, support, 0.5)
    back = truncated_cdf(1.96, TruncatedGaussian(mu, support))
    assert back == pytest.approx(0.5, abs=1e-8)


def test_invert_two_sided_shrinks_toward_zero():
    xb = 1.6449
    support = IntervalUnion(((-INF, -xb), (xb, INF)))
    mu = invert_truncated_mu(2.0, support, 0.5)
    assert mu < 2.0


def test_invert_round_trip_random():
    rng = np.random.default_rng(11)
    for _ in range(60):
        lo = rng.uniform(-2, 0)
        hi = lo + rng.uniform(1, 3)
        support = IntervalUnion(
            ((-INF, lo), (hi, INF)) if rng.random() < 0.5 else ((lo, hi),)
        )
        x = rng.uniform(lo + 0.05, hi - 0.05) if len(support) == 1 else (
            hi + abs(rng.normal())
        )
        p = rng.uniform(0.02, 0.98)
        mu = invert_truncated_mu(x, support, p)
        assert truncated_cdf(x, TruncatedGaussian(mu, support)) == pytest.approx(
            p, abs=1e-7
        )


def test_invert_preconditions():
    support = IntervalUnion(((0.0, 1.0),))
    with pytest.raises(ValueError):
        invert_truncated_mu(2.0, support, 0.5)  # outside support
    with pytest.raises(ValueError):
        invert_truncated_mu(0.5, support, 1.0)
    with pytest.raises(ValueError):
        invert_truncated_mu(0.5, IntervalUnion(), 0.5)


def test_invert_bracket_failure():
    # observed value glued to the lower edge of a bounded support: the
    # p = 0.99 quantile lies about 4600 standard deviations away and is a
    # real answer.  Far out the log masses are of order mu^2 / 2, so doubles
    # carry about 1e-9 relative accuracy in the root.
    root = invert_truncated_mu(2.001, IntervalUnion(((2.0, 4.0),)), 0.99)
    assert root == pytest.approx(-4603.16947, rel=1e-8)
    assert root == pytest.approx(mp_truncated_root(2.001, ((2.0, 4.0),), 0.99), rel=1e-8)


# statistics a few thousandths from a support endpoint, with a target whose
# root lies hundreds to thousands of standard deviations away: an effect of
# an m = 371 two-sided Holm instance, then four replications of
# DesignConfig(reps=20000, seed=1, sided="one", event="equal")
FAR_TAIL_CASES = [
    (3.6430, ((3.6394, 3.7040),), 0.95),
    (2.861956822810166, ((2.687691263194274, 2.862574231382836),), 0.05),
    (1.960267838925044, ((1.959963984540054, 2.533313302809788),), 0.95),
    (3.171155626169457, ((2.0537489106318225, 3.171491436552747),), 0.05),
    (4.470619842292195, ((4.467138226369531, INF),), 0.95),
]


@pytest.mark.parametrize("x, intervals, p", FAR_TAIL_CASES)
def test_invert_far_tail_matches_mpmath(x, intervals, p):
    root = invert_truncated_mu(x, IntervalUnion(intervals), p)
    assert abs(root - x) > 640.0
    assert root == pytest.approx(mp_truncated_root(x, intervals, p), rel=1e-8)


def test_invert_matches_scalar_root_finder():
    # inside the reach of a capped bracket the kernel's roots are unchanged:
    # they agree with Brent's method on a linear-space truncated CDF built
    # from scipy's ndtr to MU_TOL, for all three targets of an effect solved
    # in one call
    from scipy.optimize import brentq
    from scipy.special import ndtr

    def mass(a, b):
        return ndtr(b) - ndtr(a) if a + b < 0.0 else ndtr(-a) - ndtr(-b)

    def linear_cdf(x, mu, intervals):
        below = sum(mass(lo - mu, min(hi, x) - mu) for lo, hi in intervals if lo < x)
        above = sum(mass(max(lo, x) - mu, hi - mu) for lo, hi in intervals if hi > x)
        return below / (below + above)

    rng = np.random.default_rng(19)
    for _ in range(60):
        lo = rng.uniform(-2, 0)
        hi = lo + rng.uniform(1, 3)
        if rng.random() < 0.5:
            support = IntervalUnion(((-INF, lo), (hi, INF)))
            x = hi + abs(rng.normal())
        else:
            support = IntervalUnion(((lo, hi),))
            x = rng.uniform(lo + 0.05, hi - 0.05)
        targets = (0.95, 0.5, 0.05)
        roots = invert_truncated_mu(x, support, targets)
        for p, root in zip(targets, roots):
            expected = brentq(
                lambda mu: linear_cdf(x, mu, support.intervals) - p,
                x - 30.0,
                x + 30.0,
                xtol=1e-14,
            )
            assert abs(root - expected) <= MU_TOL


def test_invert_targets_in_one_call_match_single_targets():
    support = IntervalUnion(((-INF, -1.6449), (1.6449, INF)))
    roots = invert_truncated_mu(2.0, support, [0.95, 0.5, 0.05])
    assert roots.shape == (3,)
    for p, root in zip((0.95, 0.5, 0.05), roots):
        assert root == pytest.approx(invert_truncated_mu(2.0, support, p), abs=MU_TOL)
    with pytest.raises(ValueError):
        invert_truncated_mu(2.0, support, [0.5, 1.0])


def test_batch_failures_stay_per_problem():
    # problem 1 sits 1e-12 above its support's lower end: its p = 0.99 root
    # is near -4.6e12, where the piece of the support below the statistic
    # is narrower than the spacing of doubles and its mass vanishes;
    # problem 3 sits on an endpoint.  Only those two fail.
    x = np.array([2.5, 2.0 + 1e-12, 2.5, 2.0])
    lo = np.full((4, 1), 2.0)
    hi = np.full((4, 1), 4.0)
    p = np.array([0.99, 0.99, 0.05, 0.5])
    roots, code = _invert_batch(x, lo, hi, p)
    assert code.tolist() == [_SOLVED, _DEGENERATE, _SOLVED, _BOUNDARY]
    assert np.isnan(roots[[1, 3]]).all()
    for i in (0, 2):
        alone = invert_truncated_mu(2.5, IntervalUnion(((2.0, 4.0),)), p[i])
        assert roots[i] == pytest.approx(alone, abs=MU_TOL)
    with pytest.raises(DegenerateSupportError):
        invert_truncated_mu(2.0 + 1e-12, IntervalUnion(((2.0, 4.0),)), 0.99)
    with pytest.raises(BoundaryStatisticError):
        invert_truncated_mu(2.0, IntervalUnion(((2.0, 4.0),)), 0.5)
