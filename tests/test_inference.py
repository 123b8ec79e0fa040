"""End-to-end conditional inference pipeline."""

import math

import numpy as np
import pytest

from conftest import mp_truncated_root
from condinfer.inference import (
    EffectEstimates,
    infer_significant,
    studentize,
    unconditional_ci,
)
from condinfer.stats_core import (
    MU_TOL,
    IntervalUnion,
    TruncatedGaussian,
    invert_truncated_mu,
    normal_quantile,
    truncated_cdf,
)
from condinfer.support import SelectionEvent, conditional_support, decompose
from condinfer.testing import ThresholdSpec, step_down_select

INF = math.inf


def test_studentize_examples():
    e = EffectEstimates(np.array([2.0]), np.array([[4.0]]))
    x, omega, sd = studentize(e)
    assert x[0] == pytest.approx(1.0)
    assert sd[0] == pytest.approx(2.0)

    e = EffectEstimates(np.array([1.0, 1.0]), np.array([[1.0, 0.5], [0.5, 1.0]]))
    _, omega, _ = studentize(e)
    assert omega[0, 1] == pytest.approx(0.5)

    e = EffectEstimates(np.array([1.0, 2.0]), np.diag([4.0, 9.0]))
    _, omega, _ = studentize(e)
    np.testing.assert_allclose(omega, np.eye(2), atol=1e-15)


def test_effect_estimates_validation():
    with pytest.raises(ValueError):
        EffectEstimates(np.ones(2), np.array([[1.0, 0.4], [0.2, 1.0]]))
    with pytest.raises(ValueError):
        EffectEstimates(np.ones(2), np.array([[1.0, 0.0], [0.0, -1.0]]))
    with pytest.raises(ValueError):
        EffectEstimates(np.ones(2), np.array([[1.0, 1.2], [1.2, 1.0]]))
    with pytest.raises(ValueError):
        EffectEstimates(np.ones(2), np.eye(3))
    with pytest.raises(ValueError):
        EffectEstimates(np.ones(2), np.eye(2), labels=["only_one"])
    with pytest.raises(ValueError, match="at least one effect"):
        EffectEstimates(np.ones(0), np.ones((0, 0)))


def test_unconditional_ci_examples():
    e = EffectEstimates(np.array([1.0]), np.array([[1.0]]))
    lo, hi = unconditional_ci(e, 0, 0.1)
    assert lo == pytest.approx(-0.6449, abs=1e-4)
    assert hi == pytest.approx(2.6449, abs=1e-4)

    e = EffectEstimates(np.array([0.0]), np.array([[4.0]]))
    lo, hi = unconditional_ci(e, 0, 0.05)
    assert lo == pytest.approx(-3.9199, abs=1e-4)
    assert hi == pytest.approx(3.9199, abs=1e-4)

    # translation equivariance: the width never depends on the estimate
    e1 = EffectEstimates(np.array([5.0]), np.array([[4.0]]))
    lo1, hi1 = unconditional_ci(e1, 0, 0.05)
    assert hi1 - lo1 == pytest.approx(hi - lo, abs=1e-12)

    # an index outside [0, m) is refused, not read from the other end
    for s in (-1, 1):
        with pytest.raises(ValueError, match="out of range"):
            unconditional_ci(e1, s, 0.05)


def test_infer_univariate_shrinks_toward_zero():
    e = EffectEstimates(np.array([2.0]), np.array([[1.0]]))
    spec = ThresholdSpec("holm", 0.1, 1, "two")
    results = infer_significant(e, spec, event_kind="equal", alpha=0.1)
    assert len(results) == 1
    r = results[0]
    assert r.estimate_ub < 2.0
    assert r.ci_lo <= r.estimate_ub <= r.ci_hi
    assert r.naive_estimate == 2.0
    assert r.support.intervals[0][0] == -INF


def test_infer_empty_when_nothing_selected():
    e = EffectEstimates(np.zeros(3), np.eye(3))
    spec = ThresholdSpec("holm", 0.1, 3, "two")
    assert infer_significant(e, spec) == []


def test_univariate_two_sided_shrinkage_always():
    # for a single effect passing a two-sided test, the corrected estimate
    # always moves strictly toward zero
    rng = np.random.default_rng(17)
    c = normal_quantile(0.95)
    support = IntervalUnion(((-INF, -c), (c, INF)))
    for _ in range(100):
        x = rng.uniform(c + 1e-3, c + 6) * rng.choice([-1.0, 1.0])
        mu = invert_truncated_mu(float(x), support, 0.5)
        assert abs(mu) < abs(x)


def test_joint_mode_divides_alpha():
    e = EffectEstimates(np.array([5.0, 6.0]), np.eye(2))
    spec = ThresholdSpec("holm", 0.1, 2, "two")
    plain = infer_significant(e, spec, alpha=0.1, joint=False)
    joint = infer_significant(e, spec, alpha=0.1, joint=True)
    assert len(plain) == len(joint) == 2
    for p, j in zip(plain, joint):
        assert p.alpha == 0.1
        assert j.alpha == 0.05
        # tighter per-effect level means a wider interval
        assert j.ci_hi - j.ci_lo > p.ci_hi - p.ci_lo
        # the naive interval ignores the joint adjustment
        assert j.naive_ci_lo == p.naive_ci_lo


def test_event_kinds_recorded():
    e = EffectEstimates(np.array([3.0, 0.1]), np.eye(2))
    spec = ThresholdSpec("holm", 0.1, 2, "two")
    eq = infer_significant(e, spec, event_kind="equal")
    sup = infer_significant(e, spec, event_kind="superset")
    assert eq[0].event.kind == "equal"
    assert eq[0].event.indices == frozenset({0})
    assert sup[0].event.kind == "superset"


def test_per_effect_failure_does_not_abort_others():
    # effect 0 sits exactly on its one-sided critical value, an endpoint of
    # its closed support, so it cannot be inverted and is reported as an
    # error; effect 2 is unaffected
    c = normal_quantile(0.95)
    omega = np.eye(3)
    omega[0, 1] = omega[1, 0] = 0.9
    e = EffectEstimates(np.array([c, 0.9 * c - 1e-4, 6.0]), omega)
    spec = ThresholdSpec("fixed", 0.1, 3, "one", table=(c, c, c))
    results = infer_significant(e, spec, event_kind="equal", alpha=0.02)
    assert len(results) == 2
    failed, good = results
    assert failed.s == 0
    assert failed.error is not None
    assert math.isnan(failed.estimate_ub)
    assert "boundary" in failed.flags
    assert not math.isnan(failed.naive_estimate)
    assert good.s == 2
    assert good.error is None
    assert good.ci_lo <= good.estimate_ub <= good.ci_hi


def test_boundary_statistic_is_flagged_not_raised():
    # a statistic exactly at its critical value sits on the closed support's
    # endpoint, where the truncated CDF cannot be inverted
    e = EffectEstimates(np.array([2.0, 0.5]), np.eye(2))
    spec = ThresholdSpec("fixed", 0.1, 2, "one", table=(2.0, 1.0))
    (r,) = infer_significant(e, spec)
    assert r.flags == ("boundary",)
    assert r.error.startswith("BoundaryStatisticError")
    assert r.support.intervals == ((2.0, INF),)
    assert math.isnan(r.estimate_ub) and math.isnan(r.ci_lo)
    # the other selected effects are still returned
    e = EffectEstimates(np.array([2.0, 0.5, 4.0]), np.eye(3))
    spec = ThresholdSpec("fixed", 0.1, 3, "one", table=(3.0, 2.0, 1.0))
    edge, good = infer_significant(e, spec)
    assert (edge.s, edge.flags) == (0, ("boundary",))
    assert good.s == 2 and good.error is None and good.flags == ()
    assert good.support.intervals == ((3.0, INF),)
    assert good.ci_lo < good.estimate_ub < good.ci_hi


def test_large_t_falls_back_to_unconditional():
    # at t = 40 the two-tail support holds all but a negligible share of the
    # mass near the mean, so the exact conditional interval is the
    # unconditional one up to the inversion tolerance; no flag is set
    e = EffectEstimates(np.array([40.0]), np.array([[1.0]]))
    spec = ThresholdSpec("holm", 0.1, 1, "two")
    (r,) = infer_significant(e, spec, alpha=0.1)
    assert r.flags == () and r.error is None
    assert len(r.support) == 2
    lo, hi = unconditional_ci(e, 0, 0.1)
    assert r.ci_lo == pytest.approx(lo, abs=MU_TOL)
    assert r.ci_hi == pytest.approx(hi, abs=MU_TOL)
    assert r.estimate_ub == pytest.approx(40.0, abs=MU_TOL)


def test_large_t_near_a_correlated_threshold_is_exact():
    # t = 37.5 with a 0.99-correlated insignificant effect: the support is
    # one bounded interval [34.83, 38.15] just above the statistic, and the
    # exact conditional interval reaches 3 standard deviations past the
    # unconditional one.  The reference is a 60-digit mpmath bisection.
    omega = np.array([[1.0, 0.99], [0.99, 1.0]])
    e = EffectEstimates(np.array([37.5, 1.0]), omega)
    spec = ThresholdSpec("holm", 0.1, 2, "two")
    (r,) = infer_significant(e, spec, event_kind="equal", alpha=0.1)
    assert r.s == 0 and r.flags == () and r.error is None
    ((lo, hi),) = r.support.intervals
    assert lo == pytest.approx(34.8284, abs=1e-4)
    assert hi == pytest.approx(38.1514, abs=1e-4)
    for p, value in ((0.95, r.ci_lo), (0.5, r.estimate_ub), (0.05, r.ci_hi)):
        assert value == pytest.approx(mp_truncated_root(37.5, r.support, p), abs=1e-9)
    assert (r.ci_lo, r.estimate_ub, r.ci_hi) == pytest.approx(
        (35.8953, 38.2133, 42.2159), abs=1e-4
    )
    assert r.ci_hi > r.naive_ci_hi + 3.0


def test_results_in_effect_index_order_and_scaled():
    # effects on very different scales: outputs come back ordered by index
    # and in effect units
    theta = np.array([0.4, -30.0, 0.0])
    cov = np.diag([0.01, 25.0, 1.0])
    e = EffectEstimates(theta, cov)
    spec = ThresholdSpec("holm", 0.1, 3, "two")
    results = infer_significant(e, spec, event_kind="equal", alpha=0.1)
    assert [r.s for r in results] == [0, 1]
    r0, r1 = results
    assert abs(r0.estimate_ub) < abs(theta[0])
    assert abs(r1.estimate_ub) < abs(theta[1])
    assert r1.estimate_ub < 0.0


def test_workers_give_identical_results():
    rng = np.random.default_rng(3)
    theta = np.array([3.2, 2.8, 0.3, -3.5])
    e = EffectEstimates(theta, np.eye(4))
    spec = ThresholdSpec("holm", 0.1, 4, "two")
    serial = infer_significant(e, spec, workers=1)
    parallel = infer_significant(e, spec, workers=4)
    assert len(serial) == len(parallel) == 3
    for a, b in zip(serial, parallel):
        assert a.s == b.s
        assert a.estimate_ub == b.estimate_ub
        assert (a.ci_lo, a.ci_hi) == (b.ci_lo, b.ci_hi)


def test_workers_below_one_rejected(monkeypatch):
    e = EffectEstimates(np.array([3.2, 0.3]), np.eye(2))
    spec = ThresholdSpec("holm", 0.1, 2, "two")
    with pytest.raises(ValueError, match="workers must be at least 1"):
        infer_significant(e, spec, workers=-2)
    # a non-integer count is refused even where two effects are selected
    two = EffectEstimates(np.array([3.2, 3.0]), np.eye(2))
    for workers in (1.5, "2", True):
        with pytest.raises(ValueError, match="workers must be an integer"):
            infer_significant(two, spec, workers=workers)
    monkeypatch.setenv("CONDINFER_WORKERS", "0")
    with pytest.raises(ValueError, match="workers must be at least 1"):
        infer_significant(e, spec)


def test_batched_estimates_rejected():
    # R x m estimates with R == m would otherwise reach the matrix form of
    # select; both single-problem entry points refuse them
    rng = np.random.default_rng(4)
    batch = EffectEstimates(rng.normal(3.0, 1.0, size=(3, 3)), np.tile(np.eye(3), (3, 1, 1)))
    spec = ThresholdSpec("holm", 0.1, 3, "two")
    with pytest.raises(ValueError, match="single problem"):
        infer_significant(batch, spec)
    with pytest.raises(ValueError, match="single problem"):
        unconditional_ci(batch, 0, 0.1)


def test_known_v_conditional_coverage_and_median_unbiasedness():
    # direct Gaussian draws with known covariance: conditional coverage and
    # the sign split of the corrected estimator are exact up to MC noise
    rng = np.random.default_rng(29)
    m = 2
    mu = np.array([1.8, 0.4])
    omega = np.array([[1.0, 0.4], [0.4, 1.0]])
    chol = np.linalg.cholesky(omega)
    spec = ThresholdSpec("holm", 0.1, m, "two")
    target = frozenset({0})
    event = SelectionEvent.equal(target)
    x_obs, supports, transforms = [], [], []
    for _ in range(4000):
        x = mu + chol @ rng.standard_normal(m)
        if step_down_select(x, spec).significant_set != target:
            continue
        d = decompose(x, omega, 0)
        support = conditional_support(d, spec, event)
        transforms.append(truncated_cdf(d.x_s, TruncatedGaussian(mu[0], support)))
        x_obs.append(d.x_s)
        supports.append(support)
    # every draw's three targets in one kernel call; any unsolved root fails
    roots, errors = invert_truncated_mu(x_obs, supports, (0.95, 0.5, 0.05))
    assert errors == [None] * len(x_obs)
    lo, ub, hi = roots.T
    covered = (lo <= mu[0]) & (mu[0] <= hi)
    above = ub >= mu[0]
    n = len(covered)
    assert n > 300
    se_cov = math.sqrt(0.9 * 0.1 / n)
    assert abs(np.mean(covered) - 0.9) <= 3 * se_cov
    se_med = math.sqrt(0.25 / n)
    assert abs(np.mean(above) - 0.5) <= 3 * se_med
    # Rosenblatt transform at the truth is uniform on [0, 1]
    from scipy.stats import kstest

    stat = kstest(np.asarray(transforms), "uniform").statistic
    assert stat < 1.62762 / math.sqrt(n)
