"""Monte Carlo harness: determinism, design moments, and aggregation."""

import dataclasses
import itertools
import math

import numpy as np
import pytest

from condinfer.inference import EffectEstimates, studentize, unconditional_ci
from condinfer.sim import (
    DesignConfig,
    RepRecord,
    _equicorr_cholesky,
    csv_header,
    csv_row,
    format_table,
    simulate_design,
    summarize,
    summary_dict,
)
from condinfer.stats_core import (
    BoundaryStatisticError,
    DegenerateSupportError,
    invert_truncated_mu,
)
from condinfer.support import (
    InconsistentEventError,
    SelectionEvent,
    conditional_support,
    decompose,
)
from condinfer.testing import ThresholdSpec, keyed_streams, step_down_select


def _rep_rng(seed: int, rep: int) -> np.random.Generator:
    """Replication ``rep``'s stream as numpy keys it: a Philox generator
    seeded by (seed, rep), the reference for ``keyed_streams``."""
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=(rep,)))
    )


def test_config_validation():
    DesignConfig()
    with pytest.raises(ValueError):
        DesignConfig(design="weird")
    with pytest.raises(ValueError):
        DesignConfig(n=1)
    with pytest.raises(ValueError):
        DesignConfig(rho=1.5)
    with pytest.raises(ValueError):
        DesignConfig(design="chisq", rho=-0.1)
    with pytest.raises(ValueError):
        DesignConfig(event="sometimes")
    for alpha in (0.0, 1.0, 1.5, -0.1):
        with pytest.raises(ValueError, match="alpha must lie in"):
            DesignConfig(alpha=alpha)
    # sidedness, FWER level and effects are checked when the configuration
    # is made, not inside simulate_design
    with pytest.raises(ValueError, match="sided must be"):
        DesignConfig(sided="three")
    for fwer in (0.0, 1.0, 1.5, -0.1, math.nan):
        with pytest.raises(ValueError, match="fwer must lie in"):
            DesignConfig(fwer=fwer)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="theta must be finite"):
            DesignConfig(theta=(0.05, bad, 0.0))
    DesignConfig(sided="one", fwer=0.05)
    # integer fields refuse floats when the configuration is made, not
    # later inside the simulation
    for field, value in (("n", 300.5), ("reps", 10.5), ("seed", 1.5), ("target", 1.0)):
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            DesignConfig(**{field: value})
    with pytest.raises(ValueError, match="seed must be nonnegative"):
        DesignConfig(seed=-1)
    assert DesignConfig(n=np.int64(120), seed=np.int64(3)).n == 120
    assert DesignConfig(n=100).resolved_reps == 20000
    assert DesignConfig(n=300).resolved_reps == 5000
    assert DesignConfig(n=300, reps=77).resolved_reps == 77


def test_simulation_is_deterministic():
    cfg = DesignConfig(design="normal", n=120, reps=80, seed=31)
    first = simulate_design(cfg)
    second = simulate_design(cfg)
    assert first == second
    shifted = simulate_design(DesignConfig(design="normal", n=120, reps=80, seed=32))
    assert shifted != first


def test_keyed_streams_are_the_replication_streams():
    # the block draws through one re-keyed generator; each replication's
    # stream must still be _rep_rng's
    for rep, rng in enumerate(keyed_streams(2**40 + 9, 5)):
        reference = _rep_rng(2**40 + 9, rep)
        np.testing.assert_array_equal(
            rng.standard_normal((4, 3)), reference.standard_normal((4, 3))
        )
        assert rng.integers(0, 2**62) == reference.integers(0, 2**62)


def test_chisq_transform_moments():
    # the latent sqrt(rho) equicorrelation induces rho between transformed
    # components, with unit variance
    rng = np.random.default_rng(4)
    chol = _equicorr_cholesky(2, math.sqrt(0.5))
    u = rng.standard_normal((1_000_000, 2)) @ chol.T
    y = (u**2 - 1.0) / math.sqrt(2.0)
    var = y.var(axis=0)
    corr = np.corrcoef(y.T)[0, 1]
    assert abs(var[0] - 1.0) < 0.02 and abs(var[1] - 1.0) < 0.02
    assert abs(corr - 0.5) < 0.02


def test_summarize_examples():
    cfg = DesignConfig(reps=1)
    one = summarize(
        cfg,
        [
            RepRecord(
                selected=True,
                cond_covered=True,
                naive_covered=False,
                bonf_covered=True,
                cond_length=0.5,
                naive_length=0.3,
                bonf_length=0.6,
                cond_bias=0.0,
                naive_bias=0.1,
            )
        ],
    )
    assert one.coverage_cond == 1.0
    assert one.coverage_naive == 0.0

    # lower-median convention for even counts
    recs = [
        RepRecord(
            selected=True,
            cond_covered=True,
            naive_covered=True,
            bonf_covered=True,
            cond_length=v,
            naive_length=v,
            bonf_length=v,
            cond_bias=v,
            naive_bias=v,
        )
        for v in (0.2, 0.4)
    ]
    two = summarize(cfg, recs)
    assert two.median_length_cond == 0.2

    # zero selected replications: coverage is an undefined marker, not 0
    empty = summarize(cfg, [RepRecord(selected=False)])
    assert empty.coverage_cond is None
    assert empty.sel_prob == 0.0

    with pytest.raises(ValueError):
        summarize(cfg, [])


def test_failed_replications_counted_and_excluded():
    cfg = DesignConfig(reps=3)
    recs = [
        RepRecord(selected=True, error="BoundaryStatisticError"),
        RepRecord(
            selected=True,
            cond_covered=True,
            naive_covered=True,
            bonf_covered=True,
            cond_length=0.2,
            naive_length=0.2,
            bonf_length=0.2,
            cond_bias=0.0,
            naive_bias=0.0,
        ),
        RepRecord(selected=False),
    ]
    out = summarize(cfg, recs)
    assert out.failures == 1
    assert out.reps_selected == 2
    assert out.coverage_cond == 1.0


def test_failures_counted_by_error_type():
    cfg = DesignConfig(reps=5)
    recs = [
        RepRecord(selected=True, error="BoundaryStatisticError"),
        RepRecord(selected=True, error="DegenerateSupportError"),
        RepRecord(selected=True, error="BoundaryStatisticError"),
        RepRecord(
            selected=True,
            cond_covered=True,
            naive_covered=True,
            bonf_covered=True,
            cond_length=0.2,
            naive_length=0.2,
            bonf_length=0.2,
            cond_bias=0.0,
            naive_bias=0.0,
        ),
        RepRecord(selected=False),
    ]
    out = summarize(cfg, recs)
    assert out.failures == 3
    assert out.failures_by_error == {"BoundaryStatisticError": 2, "DegenerateSupportError": 1}
    record = summary_dict(out)
    assert record["failures_by_error"] == out.failures_by_error
    # a mapping is no CSV column
    assert "failures_by_error" not in csv_header()
    assert len(csv_row(out).split(",")) == len(csv_header().split(","))
    clean = simulate_design(DesignConfig(design="normal", n=120, reps=80, seed=31))
    assert clean.failures == 0 and clean.failures_by_error == {}
    assert summarize(cfg, [RepRecord(selected=False)]).failures_by_error == {}


@pytest.mark.parametrize("event", ("superset", "equal"))
def test_block_without_selected_replications(event):
    # selection is rare at n = 100: no replication of this block selects the target
    summary = simulate_design(DesignConfig(n=100, reps=5, seed=0, event=event))
    assert summary.reps == 5 and summary.reps_selected == 0
    assert summary.failures == 0 and summary.failures_by_error == {}
    assert summary.sel_prob == 0.0 and summary.coverage_cond is None


def test_small_run_sanity():
    cfg = DesignConfig(design="normal", n=300, reps=400, seed=6)
    summary = simulate_design(cfg)
    assert 0.0 < summary.sel_prob < 0.3
    if summary.reps_selected:
        assert summary.median_length_naive < summary.median_length_cond
        assert summary.median_length_naive < summary.median_length_bonf


def test_equal_event_mode_runs():
    cfg = DesignConfig(design="normal", n=300, reps=300, seed=6, event="equal")
    summary = simulate_design(cfg)
    assert summary.reps == 300


def test_csv_and_table_rendering():
    cfg = DesignConfig(design="normal", n=120, reps=60, seed=2)
    summary = simulate_design(cfg)
    header = csv_header()
    row = csv_row(summary)
    assert len(header.split(",")) == len(row.split(","))
    text = format_table([summary])
    assert "Sel Prob" in text
    assert "Cond CI" in text
    assert "Conditional Median Bias" in text
    # zero-selected coverage renders as NA, never as 0
    empty = summarize(cfg, [RepRecord(selected=False)])
    assert "NA" in csv_row(empty)


def _one_replication(cfg, rep, chol, spec):
    """One replication through the public per-effect functions."""
    z = _rep_rng(cfg.seed, rep).standard_normal((cfg.n, cfg.m))
    latent = z @ chol.T
    if cfg.design == "chisq":
        latent = (latent**2 - 1.0) / math.sqrt(2.0)
    sample = latent + np.asarray(cfg.theta)
    estimates = EffectEstimates(
        sample.mean(axis=0), np.cov(sample, rowvar=False, ddof=1) / cfg.n
    )
    x, omega, sd = studentize(estimates)
    significant = step_down_select(x, spec).significant_set
    t = cfg.target
    if t not in significant:
        return RepRecord(selected=False)
    event = (
        SelectionEvent.superset([t])
        if cfg.event == "superset"
        else SelectionEvent.equal(significant)
    )
    try:
        d = decompose(x, omega, t)
        support = conditional_support(d, spec, event)
        lo, est, hi = sd[t] * invert_truncated_mu(
            d.x_s, support, (1.0 - cfg.alpha / 2.0, 0.5, cfg.alpha / 2.0)
        )
    except (DegenerateSupportError, InconsistentEventError, BoundaryStatisticError) as exc:
        return RepRecord(selected=True, error=type(exc).__name__)
    truth = cfg.theta[t]
    naive_lo, naive_hi = unconditional_ci(estimates, t, cfg.alpha)
    bonf_lo, bonf_hi = unconditional_ci(estimates, t, cfg.alpha / cfg.m)
    return RepRecord(
        selected=True,
        cond_covered=bool(lo <= truth <= hi),
        naive_covered=bool(naive_lo <= truth <= naive_hi),
        bonf_covered=bool(bonf_lo <= truth <= bonf_hi),
        cond_length=float(hi - lo),
        naive_length=float(naive_hi - naive_lo),
        bonf_length=float(bonf_hi - bonf_lo),
        cond_bias=float(est - truth),
        naive_bias=float(estimates.theta_hat[t] - truth),
    )


@pytest.mark.parametrize(
    "design, sided, event",
    list(itertools.product(("normal", "chisq"), ("one", "two"), ("equal", "superset"))),
)
def test_batched_block_matches_per_replication_reference(design, sided, event):
    cfg = DesignConfig(
        design=design, n=120, reps=150, seed=11, sided=sided, event=event,
        theta=(0.2, 0.12, 0.05, 0.0, 0.0),
    )
    spec = ThresholdSpec("holm", cfg.fwer, cfg.m, cfg.sided)
    chol = _equicorr_cholesky(
        cfg.m, cfg.rho if design == "normal" else math.sqrt(cfg.rho)
    )
    expected = summarize(
        cfg, [_one_replication(cfg, rep, chol, spec) for rep in range(cfg.reps)]
    )
    batched = simulate_design(cfg)
    assert batched.reps_selected == expected.reps_selected > 10
    assert batched.failures == expected.failures
    for field in dataclasses.fields(expected):
        value, reference = getattr(batched, field.name), getattr(expected, field.name)
        if isinstance(reference, float):
            assert value == pytest.approx(reference, abs=1e-9), field.name
        else:
            assert value == reference, field.name


def test_monte_carlo_standard_errors():
    cfg = DesignConfig(design="normal", n=120, reps=80, seed=31)
    summary = simulate_design(cfg)
    p, k = summary.sel_prob, summary.reps
    assert summary.sel_prob_se == pytest.approx(math.sqrt(p * (1 - p) / k))
    c, usable = summary.coverage_cond, summary.reps_selected - summary.failures
    assert summary.coverage_cond_se == pytest.approx(math.sqrt(c * (1 - c) / usable))
    empty = summarize(cfg, [RepRecord(selected=False)] * 4)
    assert empty.sel_prob_se == 0.0 and empty.coverage_cond_se is None
    assert csv_header().endswith("median_bias_naive,sel_prob_se,coverage_cond_se")
