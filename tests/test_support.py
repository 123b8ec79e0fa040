"""Conditional-support geometry against the brute-force selection oracle."""

import math

import numpy as np
import pytest

import condinfer as ci
import condinfer.cli  # noqa: F401 - the traced run wraps names in it
from condinfer import support
from conftest import (
    load_bench_module,
    random_correlation,
    random_selected_instance,
    random_spec,
)
from condinfer.stats_core import DegenerateSupportError, IntervalUnion
from condinfer.support import (
    _EVERYWHERE,
    Decomposition,
    InconsistentEventError,
    SelectionEvent,
    _below_hull,
    _count_step_down,
    _flagged,
    _gaps,
    _lines,
    _member,
    _window,
    conditional_support,
    decompose,
    membership_oracle,
    membership_profile,
    merge_intervals,
)
from condinfer.testing import (
    STEP_DOWN,
    STEP_UP,
    ThresholdSpec,
    threshold_value,
    thresholds_by_step,
    wild_bootstrap_draws,
)

INF = math.inf


def grid_matches_oracle(d, spec, event, support, lo=-10.0, hi=10.0, n=2001):
    """Compare membership on a grid, skipping points near support endpoints."""
    grid = np.linspace(lo, hi, n)
    ends = np.array(
        [e for pair in support.intervals for e in pair if math.isfinite(e)]
    )
    if ends.size:
        keep = np.abs(grid[:, None] - ends[None, :]).min(axis=1) > 1e-6
    else:
        keep = np.ones(grid.shape, dtype=bool)
    oracle = membership_profile(grid[keep], d, spec, event)
    computed = np.array([support.contains(g) for g in grid[keep]])
    return bool(np.all(oracle == computed)), int(keep.sum())


def probe_points(support, step=1e-7):
    """(x, expected membership): the midpoint of every interval and gap, and
    a relative ``step`` inside and outside every finite endpoint that has
    room."""
    ivs = support.intervals
    probes = []
    for k, (lo, hi) in enumerate(ivs):
        if math.isfinite(lo) and math.isfinite(hi):
            inside = 0.5 * (lo + hi)
        elif math.isfinite(lo) or math.isfinite(hi):
            inside = lo + 1.0 if math.isfinite(lo) else hi - 1.0
        else:
            inside = 0.0
        probes.append((inside, True))
        prev_hi = ivs[k - 1][1] if k else -INF
        next_lo = ivs[k + 1][0] if k + 1 < len(ivs) else INF
        if k + 1 < len(ivs):
            probes.append((0.5 * (hi + next_lo), False))
        below = lo - step * max(1.0, abs(lo))
        above = hi + step * max(1.0, abs(hi))
        if math.isfinite(lo) and below > prev_hi:
            probes.append((below, False))
        if math.isfinite(hi) and above < next_lo:
            probes.append((above, False))
        for end, inward in ((lo, 1.0), (hi, -1.0)):
            near = end + inward * step * max(1.0, abs(end))
            if math.isfinite(end) and lo < near < hi:
                probes.append((near, True))
    return probes


def assert_probes_match_oracle(d, spec, event, support):
    probes = probe_points(support)
    xs = np.array([p for p, _ in probes])
    want = np.array([w for _, w in probes])
    got = membership_profile(xs, d, spec, event)
    assert np.array_equal(got, want), (
        spec.family, spec.procedure, spec.sided, event, support.intervals,
        xs[got != want],
    )


CARDINALITY_FAMILIES = ("holm", "bonferroni", "sidak", "sidak_holm", "fdp", "fixed", "bh", "by")


def _degenerate_instance(spec, rng):
    """Random statistics and correlations with degenerate geometry planted
    at random: lines of slope zero, |rho| = 1, a tie, and a statistic
    exactly at the critical value x̄(A) of a random subset A (possibly on a
    flat line)."""
    m = spec.m
    omega = random_correlation(m, rng)
    x = rng.normal(0.0, 2.5, size=m)
    h, g = rng.choice(m, size=2, replace=m < 2)
    sign = float(rng.choice([-1.0, 1.0])) if spec.sided == "two" else 1.0
    if rng.random() < 0.4:  # uncorrelated with every other effect
        omega[h, :] = omega[:, h] = 0.0
        omega[h, h] = 1.0
    elif rng.random() < 0.4 and h != g:  # perfectly (anti-)correlated pair
        omega[h, :] = sign * omega[g, :]
        omega[:, h] = sign * omega[:, g]
        x[h] = sign * x[g]
    if rng.random() < 0.3:  # tied scores
        x[h] = sign * x[g]
    if rng.random() < 0.3:  # exactly at a critical value
        x[h] = sign * threshold_value(spec, rng.permutation(m)[int(rng.integers(m)) :])
    return x, omega


def _check_degenerate_support(spec, kind, rng):
    """Probe-check the support of one planted-degenerate instance against
    the oracle, for ``equal`` or a random required subset; False when the
    instance selects nothing."""
    x, omega = _degenerate_instance(spec, rng)
    selected = sorted(ci.select(x, spec).significant_set)
    if not selected:
        return False
    s = int(rng.choice(selected))
    if kind == "equal":
        event = SelectionEvent.equal(selected)
    else:
        event = SelectionEvent.superset([h for h in selected if h == s or rng.random() < 0.5])
    d = decompose(x, omega, s)
    assert_probes_match_oracle(d, spec, event, conditional_support(d, spec, event))
    return True


def test_decompose_examples():
    d = decompose(np.array([1.5, 2.0]), np.eye(2), 0)
    np.testing.assert_allclose(d.z, [0.0, 2.0])
    omega = np.array([[1.0, 0.5], [0.5, 1.0]])
    d = decompose(np.array([2.0, 1.0]), omega, 0)
    np.testing.assert_allclose(d.z, [0.0, 0.0], atol=1e-15)
    # reconstruction and the structural zero
    rng = np.random.default_rng(0)
    omega = random_correlation(4, rng)
    x = rng.normal(size=4)
    for s in range(4):
        d = decompose(x, omega, s)
        assert d.z[s] == 0.0
        np.testing.assert_allclose(d.omega_col * x[s] + d.z, x, atol=1e-13)


def test_decompose_validation():
    with pytest.raises(ValueError):
        decompose(np.ones(3), np.eye(2), 0)
    bad = np.eye(2)
    bad[0, 1] = 0.3
    with pytest.raises(ValueError):
        decompose(np.ones(2), bad, 0)
    off_diag = np.array([[1.1, 0.0], [0.0, 1.0]])
    with pytest.raises(ValueError):
        decompose(np.ones(2), off_diag, 0)


def test_selection_event_validation():
    SelectionEvent.equal([0, 1])
    SelectionEvent.superset([2])
    with pytest.raises(ValueError):
        SelectionEvent.superset([])
    with pytest.raises(ValueError):
        SelectionEvent("nonsense", frozenset({1}))


def test_merge_intervals_examples():
    assert merge_intervals([(1, 2), (2, 3)]).intervals == ((1.0, 3.0),)
    assert merge_intervals([]).is_empty
    assert merge_intervals([(0, 1), (5, 6), (0.5, 2)]).intervals == (
        (0.0, 2.0),
        (5.0, 6.0),
    )
    # near-touching pieces coalesce, genuine gaps survive
    out = merge_intervals([(0.0, 1.0), (1.0 + 1e-12, 2.0), (3.0, 4.0)])
    assert out.intervals == ((0.0, 2.0), (3.0, 4.0))
    with pytest.raises(ValueError):
        merge_intervals([(2.0, 1.0)])


def test_membership_oracle_examples():
    spec1 = ThresholdSpec("holm", 0.1, 1, "two")
    d1 = decompose(np.array([2.0]), np.eye(1), 0)
    event1 = SelectionEvent.equal([0])
    assert membership_oracle(2.0, d1, spec1, event1)
    assert not membership_oracle(1.0, d1, spec1, event1)

    spec2 = ThresholdSpec("holm", 0.1, 2, "two")
    d2 = decompose(np.array([1.7, 2.5]), np.eye(2), 0)
    event2 = SelectionEvent.equal([0, 1])
    assert membership_oracle(1.7, d2, spec2, event2)
    assert not membership_oracle(1.5, d2, spec2, event2)


def test_support_univariate_two_sided():
    spec = ThresholdSpec("holm", 0.1, 1, "two")
    d = decompose(np.array([2.0]), np.eye(1), 0)
    support = conditional_support(d, spec, SelectionEvent.equal([0]))
    c = 1.6448536269514722
    np.testing.assert_allclose(
        support.intervals, [(-INF, -c), (c, INF)], atol=1e-9
    )


def test_support_two_effect_equal_event():
    spec = ThresholdSpec("holm", 0.1, 2, "two")
    d = decompose(np.array([1.7, 2.5]), np.eye(2), 0)
    support = conditional_support(d, spec, SelectionEvent.equal([0, 1]))
    c = 1.6448536269514722
    np.testing.assert_allclose(
        support.intervals, [(-INF, -c), (c, INF)], atol=1e-9
    )


def test_support_two_effect_superset_event():
    spec = ThresholdSpec("holm", 0.1, 2, "two")
    d = decompose(np.array([2.5, 1.0]), np.eye(2), 0)
    support = conditional_support(d, spec, SelectionEvent.superset([0]))
    c = 1.959963984540054
    np.testing.assert_allclose(
        support.intervals, [(-INF, -c), (c, INF)], atol=1e-9
    )


def test_support_flat_line_binds_per_cell():
    # identity correlation puts every other statistic on a flat line; when
    # the flat value sits between two step thresholds it rules out exactly
    # the cells where it is ranked first
    spec = ThresholdSpec("holm", 0.1, 2, "two")
    x = np.array([2.2, 1.8])  # both selected: 2.2 >= 1.96, 1.8 >= 1.6449
    d = decompose(x, np.eye(2), 0)
    support = conditional_support(d, spec, SelectionEvent.equal([0, 1]))
    c = 1.959963984540054
    np.testing.assert_allclose(
        support.intervals, [(-INF, -c), (c, INF)], atol=1e-9
    )
    ok, _ = grid_matches_oracle(d, spec, SelectionEvent.equal([0, 1]), support)
    assert ok


def test_support_coincident_lines():
    omega = np.array([[1.0, 0.5, 0.5], [0.5, 1.0, 0.6], [0.5, 0.6, 1.0]])
    x = np.array([3.0, 2.4, 2.4])  # lines for effects 1 and 2 coincide
    spec = ThresholdSpec("holm", 0.1, 3, "two")
    from condinfer.testing import step_down_select

    outcome = step_down_select(x, spec)
    assert outcome.significant_set == {0, 1, 2}
    d = decompose(x, omega, 0)
    event = SelectionEvent.equal([0, 1, 2])
    support = conditional_support(d, spec, event)
    ok, _ = grid_matches_oracle(d, spec, event, support)
    assert ok


def test_support_oracle_equivalence_random():
    rng = np.random.default_rng(97)
    for _ in range(120):
        x, omega, spec, outcome = random_selected_instance(rng)
        selected = sorted(outcome.significant_set)
        s = int(rng.choice(selected))
        if rng.random() < 0.5:
            event = SelectionEvent.equal(selected)
        else:
            req = [h for h in selected if h == s or rng.random() < 0.6]
            event = SelectionEvent.superset(req)
        d = decompose(x, omega, s)
        support = conditional_support(d, spec, event)
        ok, checked = grid_matches_oracle(d, spec, event, support)
        assert ok, (spec.family, spec.sided, spec.procedure, event.kind)
        assert checked > 1900


def test_support_oracle_equivalence_bootstrap_family():
    rng = np.random.default_rng(13)
    for _ in range(25):
        m = int(rng.integers(2, 6))
        residuals = rng.standard_normal((30, m))
        clusters = rng.integers(0, 6, size=30)
        draws = wild_bootstrap_draws(residuals, clusters, 99, int(rng.integers(1e6)))
        sided = ["one", "two"][int(rng.integers(2))]
        spec = ThresholdSpec("bootstrap", 0.15, m, sided, draws=draws)
        omega = random_correlation(m, rng)
        x = rng.normal(0, 2, size=m)
        from condinfer.testing import step_down_select

        outcome = step_down_select(x, spec)
        if not outcome.significant_set:
            continue
        selected = sorted(outcome.significant_set)
        s = int(rng.choice(selected))
        event = (
            SelectionEvent.equal(selected)
            if rng.random() < 0.5
            else SelectionEvent.superset([s])
        )
        d = decompose(x, omega, s)
        support = conditional_support(d, spec, event)
        ok, _ = grid_matches_oracle(d, spec, event, support, n=1201)
        assert ok


def test_observed_point_always_in_support():
    rng = np.random.default_rng(23)
    for _ in range(150):
        x, omega, spec, outcome = random_selected_instance(rng)
        selected = sorted(outcome.significant_set)
        s = int(rng.choice(selected))
        for event in (
            SelectionEvent.equal(selected),
            SelectionEvent.superset([s]),
        ):
            d = decompose(x, omega, s)
            support = conditional_support(d, spec, event)
            assert support.contains(d.x_s, tol=1e-9 * max(1.0, abs(d.x_s)))


def test_interval_count_bound():
    rng = np.random.default_rng(61)
    for _ in range(150):
        x, omega, spec, outcome = random_selected_instance(rng)
        m = spec.m
        selected = sorted(outcome.significant_set)
        s = int(rng.choice(selected))
        event = (
            SelectionEvent.equal(selected)
            if rng.random() < 0.5
            else SelectionEvent.superset([s])
        )
        d = decompose(x, omega, s)
        support = conditional_support(d, spec, event)
        assert len(support) <= m * (m + 1) // 2 + 1


def test_count_engine_matches_oracle_on_every_cardinality_family():
    # each family, sidedness and event kind, with planted degenerate
    # geometry; probes sit at every interval and gap midpoint and just
    # outside every finite endpoint
    rng = np.random.default_rng(2024)
    cases = [(f, p) for f in CARDINALITY_FAMILIES for p in (STEP_DOWN, STEP_UP)]
    cases = [(f, p) for f, p in cases if f == "fixed" or (p == STEP_UP) == (f in ("bh", "by"))]
    checked = {}
    for family, procedure in cases:
        for sided in ("one", "two"):
            for kind in ("equal", "superset"):
                done = 0
                while done < 25:
                    m = int(rng.integers(1, 8))
                    spec = random_spec(m, rng, (family,), sided, procedure)
                    if family == "fixed" and rng.random() < 0.3:  # repeated levels
                        table = tuple(np.round(spec.table, 1))
                        spec = ThresholdSpec("fixed", spec.level, m, sided, table=table, procedure=procedure)
                    done += _check_degenerate_support(spec, kind, rng)
                checked[family, procedure, sided, kind] = done
    assert len(checked) == 9 * 2 * 2


def test_bootstrap_support_matches_oracle():
    # the walk's window and per-cell cuts on both sides and event kinds,
    # with the same planted degenerate geometry as the count engine's test
    rng = np.random.default_rng(77)
    for sided in ("one", "two"):
        for kind in ("equal", "superset"):
            done = 0
            while done < 30:
                m = int(rng.integers(1, 8))
                residuals, clusters = rng.standard_normal((30, m)), rng.integers(0, 6, size=30)
                draws = wild_bootstrap_draws(residuals, clusters, 99, int(rng.integers(1e6)))
                spec = ThresholdSpec("bootstrap", 0.15, m, sided, draws=draws)
                done += _check_degenerate_support(spec, kind, rng)


def _stack(decompositions):
    """The decompositions as one stacked decomposition."""
    return Decomposition(
        s=np.array([d.s for d in decompositions]),
        x_s=np.array([d.x_s for d in decompositions]),
        z=np.stack([d.z for d in decompositions]),
        omega_col=np.stack([d.omega_col for d in decompositions]),
    )


def _single_results(decompositions, spec, events):
    """Each problem's support intervals from its own call, or its error type."""
    out = []
    for d, event in zip(decompositions, events):
        try:
            out.append(conditional_support(d, spec, event).intervals)
        except (DegenerateSupportError, InconsistentEventError) as exc:
            out.append(type(exc))
    return out


def assert_stack_matches_single_calls(decompositions, spec, events, monkeypatch):
    """The stacked call gives each problem its single call's endpoints
    (under ==) or error type, and reversing the stack reverses it, also
    when blocks are so small that problems are split across them; returns
    the kinds of result seen (the error types, IntervalUnion)."""
    want = _single_results(decompositions, spec, events)
    for shared, block in ((support._SHARED, support._BLOCK), (40, 60)):
        with monkeypatch.context() as patch:
            patch.setattr(support, "_SHARED", shared)
            patch.setattr(support, "_BLOCK", block)
            for order in (slice(None), slice(None, None, -1)):
                got = conditional_support(_stack(decompositions[order]), spec, events[order])
                assert [
                    r.intervals if isinstance(r, IntervalUnion) else type(r) for r in got
                ] == want[order], (shared, block)
    return {w if isinstance(w, type) else IntervalUnion for w in want}


def test_stacked_supports_match_single_problem_supports(monkeypatch):
    # stacks of 1 to 40 problems on one spec, for every cardinality family
    # (step-up fixed included), both sides, equal and superset events mixed
    # in one stack, planted degenerate geometry, and events drawn at random
    # as well as from the selection, so that some single calls raise
    rng = np.random.default_rng(4040)
    cases = [(f, STEP_DOWN) for f in CARDINALITY_FAMILIES if f not in ("bh", "by")]
    cases += [(f, STEP_UP) for f in ("bh", "by", "fixed")]
    seen = set()
    for trial in range(4 * len(cases)):
        family, procedure = cases[trial % len(cases)]
        m = int(rng.integers(1, 9))
        spec = random_spec(m, rng, (family,), ("one", "two")[trial % 2], procedure)
        decompositions, events = [], []
        for _ in range(int(rng.integers(1, 41))):
            x, omega = _degenerate_instance(spec, rng)
            s = int(rng.integers(m))
            chosen = sorted(ci.select(x, spec).significant_set)
            if not chosen or rng.random() < 0.2:
                chosen = [h for h in range(m) if rng.random() < 0.5] or [s]
            if rng.random() < 0.5:
                event = SelectionEvent.equal(chosen)
            else:
                event = SelectionEvent.superset([h for h in chosen if h == s or rng.random() < 0.5] or [s])
            decompositions.append(decompose(x, omega, s))
            events.append(event)
        seen |= assert_stack_matches_single_calls(decompositions, spec, events, monkeypatch)
    assert seen == {DegenerateSupportError, InconsistentEventError, IntervalUnion}
    # the bootstrap family walks each problem of the stack on its own
    draws = wild_bootstrap_draws(rng.standard_normal((30, 4)), rng.integers(0, 6, size=30), 99, 8)
    spec = ThresholdSpec("bootstrap", 0.15, 4, "two", draws=draws)
    decompositions, events = [], []
    for k in range(12):
        x, omega = _degenerate_instance(spec, rng)
        s = int(rng.integers(4))
        chosen = sorted(ci.select(x, spec).significant_set) or [s]
        decompositions.append(decompose(x, omega, s))
        events.append(SelectionEvent.equal(chosen) if k % 2 else SelectionEvent.superset([s]))
    assert IntervalUnion in assert_stack_matches_single_calls(decompositions, spec, events, monkeypatch)


def _factor_model(m, rng, n_signal, signal):
    loadings = rng.uniform(0.2, 0.7, size=m)
    omega = np.outer(loadings, loadings)
    np.fill_diagonal(omega, 1.0)
    mu = np.zeros(m)
    mu[rng.choice(m, size=n_signal, replace=False)] = signal * rng.choice([-1.0, 1.0], n_signal)
    return mu + np.linalg.cholesky(omega) @ rng.standard_normal(m), omega


def test_paper_scale_supports_match_independent_references():
    # m = 371 as in the paper's application: equal events endpoint by
    # endpoint against the benchmark checker's closed form, and superset
    # events (every selected effect required, and the effect alone) against
    # the membership oracle; two-sided Holm selects 8 effects of both signs
    checker = load_bench_module("checker")
    rng = np.random.default_rng(371)
    m = 371
    compared = 0
    for sided in ("two", "one"):
        x, omega = _factor_model(m, rng, n_signal=8, signal=5.5)
        spec = ThresholdSpec("holm", 0.1, m, sided)
        rule = checker.Rule("holm", 0.1, sided, m)
        selected = ci.select(x, spec).significant_set
        assert selected == rule.select(x) and selected
        if sided == "two":
            signs = np.sign(x[sorted(selected)])
            assert len(selected) == 8 and signs.min() < 0.0 < signs.max()
        event = SelectionEvent.equal(selected)
        for s in sorted(selected):
            d = decompose(x, omega, s)
            support = conditional_support(d, spec, event)
            exact = checker.step_down_equal_support(rule, d.omega_col, d.z, selected)
            assert len(support) == len(exact)
            for mine, theirs in zip(support.intervals, exact):
                np.testing.assert_allclose(mine, theirs, rtol=1e-8, atol=1e-8)
            compared += 1
            for required in (selected, [s]):
                superset = SelectionEvent.superset(required)
                assert_probes_match_oracle(d, spec, superset, conditional_support(d, spec, superset))
    assert compared >= 8


def _whole_window_superset(a, b, t, event, two):
    """Step-down superset support of the lines (a, b) with every level cut
    across the whole window, instead of only where some required score is
    below it, as a stack of one problem."""
    m = t.size
    inside = np.isin(np.arange(m), sorted(event.indices))
    window = _EVERYWHERE if two else _window(-a[inside], -b[inside], -t[-1], False)
    need = np.arange(1, m + 1)

    def bad_step(rows, n):
        return (n[0] < need[rows, None]) & (n[1] < inside.sum())

    la, lb = _lines(a[None], b[None], two)
    bounds = (np.full(m, window[0]), np.full(m, window[1]))
    bad = _flagged(la, lb, t, np.zeros(m, dtype=int), bad_step, bounds, _member(inside[None], two))
    return _gaps((np.full(1, window[0]), np.full(1, window[1])), bad)


def assert_level_windows_change_nothing(a, b, spec, required):
    """The step-down superset support of the lines (a, b) is bit-identical
    to cutting every level across the whole window, and matches the oracle."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    d = Decomposition(s=0, x_s=0.0, z=b, omega_col=a)
    event = SelectionEvent.superset(required)
    t, two = thresholds_by_step(spec), spec.sided == "two"
    inside = np.isin(np.arange(spec.m), required)
    got = _count_step_down(a[None], b[None], t, inside[None], "superset", two)
    want = _whole_window_superset(a, b, t, event, two)
    assert all(np.array_equal(g, w) for g, w in zip(got, want)), (got, want)
    assert_probes_match_oracle(d, spec, event, merge_intervals(zip(*got[1:])))
    return got[1:]


def test_level_windows_match_whole_window_cuts_on_random_instances():
    # degenerate geometry planted as in the oracle tests: flat lines, ties,
    # |rho| = 1 and statistics exactly at a critical value
    rng = np.random.default_rng(19)
    done = 0
    while done < 300:
        spec = random_spec(int(rng.integers(1, 9)), rng)
        if spec.procedure != STEP_DOWN:
            continue
        done += 1
        x, omega = _degenerate_instance(spec, rng)
        s = int(rng.integers(spec.m))
        d = decompose(x, omega, s)
        required = [h for h in range(spec.m) if h == s or rng.random() < 0.4]
        assert_level_windows_change_nothing(d.omega_col, d.z, spec, required)


def test_level_window_is_whole_window_for_opposite_slopes():
    # one-sided, one required score rising and one falling: at every level
    # the rising one is below it far left and the falling one far right, so
    # the level is cut across the whole window
    spec = ThresholdSpec("holm", 0.1, 3, "one")
    a, b = np.array([1.0, -0.5, 0.3]), np.array([0.0, 4.0, 1.0])
    t = thresholds_by_step(spec)
    window = _window(-a[:2], -b[:2], -t[-1], False)
    lo, hi = _below_hull(a[:2], b[:2], t, False, window)
    assert np.all(lo == window[0]) and np.all(hi == window[1])
    lo, hi = assert_level_windows_change_nothing(a, b, spec, [0, 1])
    assert lo.size


@pytest.mark.parametrize("sided", ["one", "two"])
def test_level_window_of_flat_required_score(sided):
    # a flat required score between t_1 and t_2 is below level 1 everywhere
    # and clears levels 2 and 3 everywhere, so only level 1 is cut across
    # the whole window; the other levels are cut as for x alone
    spec = ThresholdSpec("holm", 0.1, 3, sided)
    t = thresholds_by_step(spec)
    flat = 0.5 * (t[0] + t[1]) * (1.0 if sided == "one" else -1.0)
    a, b = np.array([1.0, 0.0, 0.4]), np.array([0.0, flat, 0.5])
    la, lb = _lines(a[:2], b[:2], sided == "two")
    window = _EVERYWHERE if sided == "two" else _window(-a[:2], -b[:2], -t[-1], False)
    lo, hi = _below_hull(la, lb, t, sided == "two", window)
    assert (lo[0], hi[0]) == window
    alone = _below_hull(*_lines(a[:1], b[:1], sided == "two"), t, sided == "two", window)
    assert np.array_equal(lo[1:], alone[0][1:]) and np.array_equal(hi[1:], alone[1][1:])
    assert_level_windows_change_nothing(a, b, spec, [0, 1])


def test_level_windows_can_be_empty():
    # with levels (2.5, 2, 2) the required score x clears 2 on the whole
    # one-sided window [2, inf), so only level 1 is cut
    spec = ThresholdSpec("fixed", 0.1, 3, "one", table=(2.5, 2.0, 2.0))
    a, b = np.array([1.0, 0.5, -0.25]), np.array([0.0, 0.75, 2.0])
    t = thresholds_by_step(spec)
    lo, hi = _below_hull(a[:1], b[:1], t, False, _window(-a[:1], -b[:1], -t[-1], False))
    assert list(lo < hi) == [True, False, False]
    assert_level_windows_change_nothing(a, b, spec, [0])
    # a flat required score that clears every level leaves no level to cut:
    # the support is the whole line
    spec = ThresholdSpec("holm", 0.1, 3, "two")
    a, b = np.array([1.0, 0.0, 0.5]), np.array([0.0, -3.0, 0.2])
    t = thresholds_by_step(spec)
    lo, hi = _below_hull(*_lines(a[1:2], b[1:2], True), t, True, _EVERYWHERE)
    assert not np.any(lo < hi)
    got = assert_level_windows_change_nothing(a, b, spec, [1])
    assert got[0].tolist() == [-INF] and got[1].tolist() == [INF]


def test_crossings_exactly_at_level_window_edges():
    # levels (3, 2, 1, 1): the required score x is below level 1 on the
    # window [1, 3); a second line meets level 1 exactly at x = 3 and a
    # third exactly at x = 1, both window edges (dyadic, so exact)
    spec = ThresholdSpec("fixed", 0.1, 4, "one", table=(3.0, 2.0, 1.0, 1.0))
    a, b = np.array([1.0, 0.5, 0.5, -0.5]), np.array([0.0, 1.5, 2.5, 1.5])
    t = thresholds_by_step(spec)
    window = _window(-a[:1], -b[:1], -t[-1], False)
    lo, hi = _below_hull(a[:1], b[:1], t, False, window)
    assert (lo[0], hi[0]) == (1.0, 3.0)
    assert (t[0] - b[1]) / a[1] == 3.0 and (t[0] - b[2]) / a[2] == 1.0
    assert_level_windows_change_nothing(a, b, spec, [0])
    assert_level_windows_change_nothing(-a, b + 4.0 * a, spec, [0])


def test_traced_names_exist_and_are_looked_up():
    # the benchmark's traced run wraps these names where callers look them
    # up; a rename would silently empty its per-layer figures
    layers = load_bench_module("layers")
    for module, attr, _ in layers.TIMED:
        assert callable(getattr(getattr(ci, module) if module else ci, attr)), (module, attr)
    for module, attr in layers.COUNTED:
        assert callable(getattr(getattr(ci, module), attr)), (module, attr)
    tracer = layers.Tracer(ci)
    tracer.install()
    try:
        theta = np.array([3.0, -2.6, 0.2, 2.4])
        ci.infer_significant(ci.EffectEstimates(theta, np.eye(4)), ThresholdSpec("holm", 0.1, 4, "two"))
    finally:
        tracer.uninstall()
    figures = {k: v["value"] for k, v in tracer.metrics().items()}
    # one stacked support call for the three selected effects
    assert figures["support.conditional_support_calls"] == 1
    assert figures["support.conditional_support_s"] > 0
    assert figures["support.intervals"] >= 3
    assert figures["support.raw_pieces"] >= figures["support.intervals"]
    # infer solves every effect's roots in one call of the batch kernel and
    # no longer goes through invert_truncated_mu; that time is inference's own
    assert figures["stats_core.invert_truncated_mu_calls"] == 0


def test_inconsistent_event_error():
    spec = ThresholdSpec("holm", 0.1, 2, "two")
    x = np.array([0.5, 3.0])  # only effect 1 is significant
    d = decompose(x, np.eye(2), 0)
    with pytest.raises(InconsistentEventError):
        conditional_support(d, spec, SelectionEvent.equal([0, 1]))


def test_empty_support_is_degenerate():
    # the flat second statistic can never be significant, so conditioning
    # on it being selected admits no value of x_s at all
    spec = ThresholdSpec("holm", 0.1, 2, "two")
    d = decompose(np.array([2.5, 0.5]), np.eye(2), 0)
    with pytest.raises(DegenerateSupportError):
        conditional_support(d, spec, SelectionEvent.equal([0, 1]))
    # a flat unselected bootstrap statistic exactly at x̄ of the unselected
    # set is rejected at every x_s, so equal({0}) admits nothing
    rng = np.random.default_rng(1)
    draws = wild_bootstrap_draws(rng.standard_normal((30, 2)), rng.integers(0, 6, size=30), 99, 5)
    spec = ThresholdSpec("bootstrap", 0.15, 2, "one", draws=draws)
    d = decompose(np.array([5.0, threshold_value(spec, [1])]), np.eye(2), 0)
    with pytest.raises(DegenerateSupportError):
        conditional_support(d, spec, SelectionEvent.equal([0]))


def test_support_empty_equal_set_rejected():
    spec = ThresholdSpec("holm", 0.1, 2, "two")
    d = decompose(np.array([0.1, 0.2]), np.eye(2), 0)
    with pytest.raises(ValueError):
        conditional_support(d, spec, SelectionEvent.equal([]))
