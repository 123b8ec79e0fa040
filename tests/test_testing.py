"""Threshold families, selection procedures, and the wild-cluster bootstrap."""

import itertools
import math

import numpy as np
import pytest

from condinfer.stats_core import normal_quantile
from condinfer.testing import (
    STEP_DOWN,
    STEP_UP,
    ThresholdSpec,
    ZeroVarianceError,
    _batch_membership,
    load_bootstrap_draws,
    save_bootstrap_draws,
    step_down_select,
    step_up_select,
    stream_keys,
    threshold_value,
    thresholds_by_step,
    wild_bootstrap_draws,
)


def bisect_quantile(p, lo=-10.0, hi=10.0):
    """Independent quantile oracle: bisection on scipy's normal CDF."""
    from scipy.special import ndtr

    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if ndtr(mid) < p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_holm_threshold_examples():
    spec = ThresholdSpec("holm", 0.1, 5, "two")
    # full set: beta_1 = 0.1/5, two-sided tail 0.01
    assert threshold_value(spec, range(5)) == pytest.approx(
        bisect_quantile(0.99), abs=1e-4
    )
    assert threshold_value(spec, range(5)) == pytest.approx(2.3263, abs=1e-4)
    # singleton: beta_5 = 0.1, tail 0.05
    assert threshold_value(spec, [3]) == pytest.approx(
        bisect_quantile(0.95), abs=1e-4
    )
    assert threshold_value(spec, [3]) == pytest.approx(1.6449, abs=1e-4)


def test_family_formulas_against_direct_computation():
    m, level = 6, 0.12
    for k in range(1, m + 1):
        j = m - k + 1
        subset = range(k)
        one = {
            "bonferroni": level / m,
            "sidak": 1 - (1 - level) ** (1 / m),
            "holm": level / k,
            "sidak_holm": 1 - (1 - level) ** (1 / k),
            "bh": k * level / m,
            "by": k * level / (m * sum(1 / i for i in range(1, m + 1))),
        }
        for family, tail in one.items():
            spec = ThresholdSpec(family, level, m, "one")
            assert threshold_value(spec, subset) == pytest.approx(
                normal_quantile(1 - tail), abs=1e-12
            )
            spec2 = ThresholdSpec(family, level, m, "two")
            assert threshold_value(spec2, subset) == pytest.approx(
                normal_quantile(1 - tail / 2), abs=1e-12
            )
        gamma = 0.4
        fl = math.floor(gamma * j)
        fdp_tail = (fl + 1) * level / (m + fl + 1 - j)
        spec = ThresholdSpec("fdp", level, m, "one", gamma=gamma)
        assert threshold_value(spec, subset) == pytest.approx(
            normal_quantile(1 - fdp_tail), abs=1e-12
        )


def test_fixed_table_is_step_indexed():
    table = (2.5, 2.0, 1.5)
    spec = ThresholdSpec("fixed", 0.1, 3, "two", table=table)
    assert threshold_value(spec, range(3)) == 2.5  # step 1
    assert threshold_value(spec, [0]) == 1.5  # step 3


def test_bootstrap_threshold_hand_enumeration():
    # per-row maxima over A = {0, 1} are 0.5, 1.0, 1.5, 2.0, 2.5; the
    # (1 - 0.2) empirical quantile is the ceil(0.8 * 5) = 4th order stat
    draws = np.array([[0.5, 0.1], [1.0, 0.2], [1.5, 0.3], [2.0, 0.1], [2.5, 0.2]])
    spec = ThresholdSpec("bootstrap", 0.2, 2, "one", draws=draws)
    assert threshold_value(spec, [0, 1]) == 2.0


def test_bootstrap_threshold_monotone_in_subset():
    rng = np.random.default_rng(3)
    draws = rng.standard_normal((200, 6))
    spec = ThresholdSpec("bootstrap", 0.1, 6, "two", draws=draws)
    for _ in range(50):
        a = set(rng.choice(6, size=rng.integers(1, 6), replace=False).tolist())
        extra = set(rng.choice(6, size=rng.integers(1, 6), replace=False).tolist())
        b = a | extra
        assert threshold_value(spec, a) <= threshold_value(spec, b)


def test_threshold_monotone_over_subset_chains():
    rng = np.random.default_rng(8)
    m = 7
    specs = [
        ThresholdSpec("bonferroni", 0.1, m, "two"),
        ThresholdSpec("sidak", 0.1, m, "one"),
        ThresholdSpec("holm", 0.05, m, "two"),
        ThresholdSpec("sidak_holm", 0.1, m, "one"),
        ThresholdSpec("fdp", 0.1, m, "two", gamma=0.3),
        ThresholdSpec("fixed", 0.1, m, "one", table=(3.0, 2.5, 2.0, 1.8, 1.5, 1.2, 1.0)),
    ]
    for spec in specs:
        for _ in range(30):
            perm = rng.permutation(m)
            chain = [set(perm[: k + 1].tolist()) for k in range(m)]
            values = [threshold_value(spec, c) for c in chain]
            assert all(b >= a for a, b in zip(values, values[1:]))


def test_steps_are_computed_once_and_read_only():
    spec = ThresholdSpec("holm", 0.1, 6, "two")
    steps = spec.steps
    assert spec.steps is steps and thresholds_by_step(spec) is steps
    assert not steps.flags.writeable
    for j in range(1, 7):
        assert steps[j - 1] == threshold_value(spec, range(j - 1, 6))
    assert ThresholdSpec("bootstrap", 0.1, 2, draws=np.eye(2)).steps is None
    # a step without a positive threshold raises where it is needed
    spec = ThresholdSpec("holm", 0.6, 2, "one")
    assert math.isnan(spec.steps[1])
    with pytest.raises(ValueError):
        thresholds_by_step(spec)
    with pytest.raises(ValueError):
        step_down_select([3.0, 3.0], spec)
    assert step_down_select([0.1, 0.1], spec).significant == ()  # stops before it
    with pytest.raises(ValueError):
        step_up_select([3.0, 3.0], ThresholdSpec("bh", 0.6, 2, "one"))
    assert step_down_select([3.0, 0.1], ThresholdSpec("holm", 0.6, 2, "two")).significant == (0,)


def test_step_up_thresholds_ascending():
    for family in ("bh", "by"):
        spec = ThresholdSpec(family, 0.1, 8, "two")
        steps = thresholds_by_step(spec)
        assert np.all(np.diff(steps) >= 0)


def test_threshold_errors():
    spec = ThresholdSpec("holm", 0.1, 3, "two")
    with pytest.raises(ValueError):
        threshold_value(spec, [])
    with pytest.raises(ValueError):
        threshold_value(spec, [5])
    # a tail level at or above one half leaves no positive critical value
    with pytest.raises(ValueError):
        threshold_value(ThresholdSpec("bh", 0.6, 2, "one"), [0, 1])


def test_spec_validation():
    with pytest.raises(ValueError):
        ThresholdSpec("nope", 0.1, 3)
    with pytest.raises(ValueError):
        ThresholdSpec("holm", 1.2, 3)
    with pytest.raises(ValueError):
        ThresholdSpec("fdp", 0.1, 3)  # missing gamma
    with pytest.raises(ValueError):
        ThresholdSpec("bootstrap", 0.1, 3, draws=np.zeros((1, 3)))
    with pytest.raises(ValueError):
        ThresholdSpec("fixed", 0.1, 3, table=(1.0, 2.0))
    # step-down tables must be non-increasing, step-up tables non-decreasing
    with pytest.raises(ValueError):
        ThresholdSpec("fixed", 0.1, 2, "one", table=(1.0, 2.0))
    with pytest.raises(ValueError):
        ThresholdSpec("fixed", 0.1, 2, "one", table=(2.0, 1.0), procedure=STEP_UP)
    ThresholdSpec("fixed", 0.1, 3, "one", table=(2.0, 2.0, 1.0))
    ThresholdSpec("fixed", 0.1, 3, "one", table=(1.0, 2.0, 2.0), procedure=STEP_UP)
    with pytest.raises(ValueError):
        ThresholdSpec("bh", 0.1, 3, procedure=STEP_DOWN)
    assert ThresholdSpec("bh", 0.1, 3).procedure == STEP_UP
    assert ThresholdSpec("holm", 0.1, 3).procedure == STEP_DOWN


def test_step_down_hand_traces():
    spec = ThresholdSpec("holm", 0.1, 2, "two")
    assert step_down_select([0.0, 0.0], spec).significant == ()
    out = step_down_select([2.2, 1.8], spec)
    assert out.significant == (0, 1)
    assert out.per_step_threshold[0] == pytest.approx(1.9600, abs=1e-4)
    assert out.per_step_threshold[1] == pytest.approx(1.6449, abs=1e-4)
    assert step_down_select([2.2, 1.5], spec).significant == (0,)
    # detection order follows decreasing magnitude
    out = step_down_select([-1.8, 2.2], spec)
    assert out.significant == (1, 0)


def test_step_up_hand_traces():
    spec = ThresholdSpec("bh", 0.1, 2, "one")
    steps = thresholds_by_step(spec)
    assert steps[0] == pytest.approx(1.2816, abs=1e-4)
    assert steps[1] == pytest.approx(1.6449, abs=1e-4)
    assert step_up_select([1.3, 1.5], spec).significant_set == {0, 1}
    assert step_up_select([-5.0, -5.0], spec).significant == ()
    assert step_up_select([1.0, 1.7], spec).significant == (1,)


def test_step_up_tests_largest_statistic():
    # a single huge statistic among duds must still be detected
    spec = ThresholdSpec("bh", 0.1, 3, "one")
    out = step_up_select([-1.0, -2.0, 4.0], spec)
    assert out.significant == (2,)


def test_selection_outcome_partition():
    spec = ThresholdSpec("holm", 0.1, 4, "two")
    out = step_down_select([3.0, 0.1, -2.9, 0.2], spec)
    assert set(out.significant) | set(out.insignificant) == set(range(4))
    assert not set(out.significant) & set(out.insignificant)


def brute_force_step_down_sets(x, spec):
    """All S satisfying the set-level characterization of step-down selection."""
    m = spec.m
    score = np.abs(x) if spec.sided == "two" else np.asarray(x, dtype=float)
    hits = []
    for r in range(m + 1):
        for s_tuple in itertools.combinations(range(m), r):
            s_set = set(s_tuple)
            comp = [h for h in range(m) if h not in s_set]
            if comp and any(
                score[h] >= threshold_value(spec, comp) for h in comp
            ):
                continue
            if not s_set:
                hits.append(s_set)
                continue
            for sigma in itertools.permutations(s_tuple):
                ok = True
                for rank, h in enumerate(sigma):
                    subset = list(sigma[rank:]) + comp
                    if score[h] < threshold_value(spec, subset):
                        ok = False
                        break
                if ok:
                    hits.append(s_set)
                    break
    return hits


def brute_force_step_up_sets(x, spec):
    """All S satisfying the set-level characterization of step-up selection."""
    m = spec.m
    score = np.abs(x) if spec.sided == "two" else np.asarray(x, dtype=float)
    steps = thresholds_by_step(spec)
    hits = []
    for r in range(m + 1):
        for s_tuple in itertools.combinations(range(m), r):
            s_set = set(s_tuple)
            comp = [h for h in range(m) if h not in s_set]
            if s_set and any(
                score[h] < steps[m - len(s_set)] for h in s_set
            ):
                continue
            if not comp:
                hits.append(s_set)
                continue
            found = False
            for sigma in itertools.permutations(comp):
                if all(score[h] < steps[j] for j, h in enumerate(sigma)):
                    found = True
                    break
            if found:
                hits.append(s_set)
    return hits


def test_step_down_matches_set_characterization():
    rng = np.random.default_rng(101)
    families = ["holm", "bonferroni", "sidak_holm", "fdp"]
    for _ in range(200):
        m = int(rng.integers(1, 7))
        family = families[int(rng.integers(len(families)))]
        kwargs = {"gamma": 0.35} if family == "fdp" else {}
        spec = ThresholdSpec(
            family, float(rng.uniform(0.05, 0.2)), m,
            ["one", "two"][int(rng.integers(2))], **kwargs,
        )
        x = rng.normal(0, 2, size=m)
        selected = step_down_select(x, spec).significant_set
        hits = brute_force_step_down_sets(x, spec)
        assert len(hits) == 1
        assert set(selected) == hits[0]


def test_step_up_matches_set_characterization():
    rng = np.random.default_rng(202)
    for _ in range(200):
        m = int(rng.integers(1, 7))
        family = ["bh", "by"][int(rng.integers(2))]
        spec = ThresholdSpec(
            family, float(rng.uniform(0.05, 0.2)), m,
            ["one", "two"][int(rng.integers(2))],
        )
        x = rng.normal(0, 2, size=m)
        selected = step_up_select(x, spec).significant_set
        hits = brute_force_step_up_sets(x, spec)
        assert len(hits) == 1
        assert set(selected) == hits[0]


def test_holm_dominates_bonferroni():
    rng = np.random.default_rng(55)
    for _ in range(200):
        m = int(rng.integers(1, 8))
        x = rng.normal(0, 2, size=m)
        holm = step_down_select(x, ThresholdSpec("holm", 0.1, m, "two"))
        bonf = step_down_select(x, ThresholdSpec("bonferroni", 0.1, m, "two"))
        assert bonf.significant_set <= holm.significant_set


def test_batch_membership_matches_scalar_procedures():
    rng = np.random.default_rng(31)
    for family, proc in (("holm", step_down_select), ("by", step_up_select)):
        for sided in ("one", "two"):
            m = 5
            spec = ThresholdSpec(family, 0.1, m, sided)
            xs = rng.normal(0, 2, size=(m, 300))
            member = _batch_membership(xs, spec)
            for k in range(xs.shape[1]):
                expected = proc(xs[:, k], spec).significant_set
                assert set(np.nonzero(member[:, k])[0].tolist()) == expected


def test_wild_bootstrap_shape_and_determinism():
    rng = np.random.default_rng(0)
    residuals = rng.standard_normal((4, 3))
    clusters = [0, 0, 1, 1]
    draws = wild_bootstrap_draws(residuals, clusters, 5, seed=9)
    assert draws.shape == (5, 3)
    again = wild_bootstrap_draws(residuals, clusters, 5, seed=9)
    np.testing.assert_array_equal(draws, again)
    other = wild_bootstrap_draws(residuals, clusters, 5, seed=10)
    assert not np.array_equal(draws, other)


def test_wild_bootstrap_single_cluster_sign_algebra():
    # with one cluster the replicate estimate is the signed column mean
    rng = np.random.default_rng(1)
    residuals = rng.standard_normal((6, 2)) + 0.3
    col_mean = residuals.mean(axis=0)
    draws = wild_bootstrap_draws(residuals, np.zeros(6, dtype=int), 8, seed=4)
    # t = estimate / (|sum| / n) = sign(weight) * sign-consistent unit
    assert np.allclose(np.abs(draws), 1.0)
    # reconstruct the estimates: estimate = t * |column mean|
    estimates = draws * np.abs(col_mean)
    for b in range(8):
        assert np.allclose(np.abs(estimates[b]), np.abs(col_mean))
        assert np.allclose(estimates[b], col_mean) or np.allclose(
            estimates[b], -col_mean
        )


def test_wild_bootstrap_matches_per_replicate_formula():
    # replicate b: weighted column means over the cluster-robust standard
    # error of the weighted residuals, with weights from (seed, b) alone
    rng = np.random.default_rng(5)
    residuals = rng.standard_normal((40, 3))
    clusters = rng.integers(0, 7, size=40)
    draws = wild_bootstrap_draws(residuals, clusters, 6, seed=11)
    _, inverse = np.unique(clusters, return_inverse=True)
    for b in range(6):
        gen = np.random.Generator(
            np.random.Philox(np.random.SeedSequence(entropy=11, spawn_key=(b,)))
        )
        weights = gen.integers(0, 2, size=inverse.max() + 1) * 2 - 1
        weighted = residuals * weights[inverse, None]
        sums = np.zeros((inverse.max() + 1, 3))
        np.add.at(sums, inverse, weighted)
        se = np.sqrt((sums**2).sum(axis=0)) / 40
        np.testing.assert_allclose(draws[b], weighted.mean(axis=0) / se, rtol=1e-12, atol=1e-14)


@pytest.mark.parametrize("seed", [0, 1, 4, 31000096, 2**32 + 5, 2**70 + 123])
def test_stream_keys_match_seed_sequence(seed):
    indices = [*range(300), 2**31, 2**32 - 1]
    expected = [
        np.random.SeedSequence(entropy=seed, spawn_key=(b,)).generate_state(2, np.uint64)
        for b in indices
    ]
    np.testing.assert_array_equal(stream_keys(seed, indices), expected)


def test_stream_keys_reject_out_of_range():
    for seed, indices in ((0, [2**32]), (0, [-1]), (-1, [0])):
        with pytest.raises(ValueError):
            stream_keys(seed, indices)


def test_wild_bootstrap_zero_residuals_error():
    with pytest.raises(ZeroVarianceError):
        wild_bootstrap_draws(np.zeros((4, 2)), [0, 0, 1, 1], 3, seed=0)


def test_bootstrap_draws_csv_round_trip(tmp_path):
    rng = np.random.default_rng(2)
    draws = rng.standard_normal((7, 3))
    path = tmp_path / "draws.csv"
    save_bootstrap_draws(path, draws)
    back = load_bootstrap_draws(path)
    np.testing.assert_allclose(back, draws, atol=1e-12)
    with open(path) as fh:
        first = fh.readline()
    assert len(first.split(",")) == 3
