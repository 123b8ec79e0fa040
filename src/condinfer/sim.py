"""Monte Carlo harness for coverage and bias of the conditional procedures.

Two designs over m = 5 effects with pairwise correlation rho: Gaussian
observations, and a standardized chi-squared transform of a latent Gaussian
(correlation sqrt(rho) in the latent scale induces rho after squaring).
Each replication studentizes sample means, runs Holm selection, and when
the target effect is significant records conditional, naive, and
Bonferroni-adjusted intervals for it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .inference import EffectEstimates, _infer_one, studentize, unconditional_ci
from .support import SelectionEvent
from .testing import ThresholdSpec, step_down_select

DEFAULT_THETA = (0.05, 0.03, 0.01, 0.0, 0.0)


@dataclass(frozen=True)
class DesignConfig:
    """One simulation configuration.

    ``reps=None`` resolves to 20000 for n = 100 (selection is rare there)
    and 5000 otherwise.  ``event`` picks the conditioning used for the
    conditional interval of the target effect: ``superset`` conditions only
    on the target being significant, ``equal`` on the full outcome.
    """

    design: str = "normal"
    n: int = 300
    reps: int | None = None
    seed: int = 0
    theta: tuple[float, ...] = DEFAULT_THETA
    rho: float = 0.5
    sided: str = "two"
    fwer: float = 0.1
    alpha: float = 0.1
    event: str = "superset"
    target: int = 0

    def __post_init__(self) -> None:
        if self.design not in ("normal", "chisq"):
            raise ValueError(f"unknown design {self.design!r}")
        if self.n < 2:
            raise ValueError("n must be at least 2")
        if self.reps is not None and self.reps < 1:
            raise ValueError("reps must be positive")
        m = len(self.theta)
        if m < 1:
            raise ValueError("theta must be nonempty")
        rho_floor = -1.0 / (m - 1) if m > 1 else -1.0
        if not rho_floor < self.rho < 1.0:
            raise ValueError(f"rho={self.rho} leaves the correlation matrix indefinite")
        if self.design == "chisq" and self.rho < 0.0:
            raise ValueError("the chi-squared design needs rho >= 0")
        if self.event not in ("equal", "superset"):
            raise ValueError(f"unknown event {self.event!r}")
        if not 0 <= self.target < m:
            raise ValueError("target index out of range")

    @property
    def m(self) -> int:
        return len(self.theta)

    @property
    def resolved_reps(self) -> int:
        if self.reps is not None:
            return self.reps
        return 20000 if self.n == 100 else 5000


@dataclass(frozen=True)
class RepRecord:
    """Outcome of one replication for the target effect."""

    selected: bool
    failed: bool = False
    cond_covered: bool | None = None
    naive_covered: bool | None = None
    bonf_covered: bool | None = None
    cond_length: float | None = None
    naive_length: float | None = None
    bonf_length: float | None = None
    cond_bias: float | None = None
    naive_bias: float | None = None


@dataclass(frozen=True)
class SimulationSummary:
    """Aggregates in the layout of the coverage tables."""

    config: DesignConfig
    reps: int
    reps_selected: int
    failures: int
    sel_prob: float
    coverage_cond: float | None
    coverage_naive: float | None
    coverage_bonf: float | None
    median_length_cond: float | None
    median_length_naive: float | None
    median_length_bonf: float | None
    median_bias_cond: float | None
    median_bias_naive: float | None


def _rep_rng(seed: int, rep: int) -> np.random.Generator:
    # counter-based generator keyed by (seed, replication) so serial and
    # parallel execution draw identical streams
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=(rep,)))
    )


def _equicorr_cholesky(m: int, rho: float) -> np.ndarray:
    matrix = np.full((m, m), rho)
    np.fill_diagonal(matrix, 1.0)
    return np.linalg.cholesky(matrix)


def _draw_sample(cfg: DesignConfig, rng: np.random.Generator, chol: np.ndarray):
    z = rng.standard_normal((cfg.n, cfg.m))
    latent = z @ chol.T
    if cfg.design == "normal":
        return latent + np.asarray(cfg.theta)
    return (latent**2 - 1.0) / math.sqrt(2.0) + np.asarray(cfg.theta)


def run_replication(
    cfg: DesignConfig, rep: int, chol: np.ndarray, spec: ThresholdSpec
) -> RepRecord:
    rng = _rep_rng(cfg.seed, rep)
    sample = _draw_sample(cfg, rng, chol)
    theta_hat = sample.mean(axis=0)
    cov_hat = np.cov(sample, rowvar=False, ddof=1) / cfg.n
    estimates = EffectEstimates(theta_hat, cov_hat)
    x, omega, sd = studentize(estimates)
    outcome = step_down_select(x, spec)
    sig = outcome.significant_set
    if cfg.target not in sig:
        return RepRecord(selected=False)

    truth = cfg.theta[cfg.target]
    naive_lo, naive_hi = unconditional_ci(estimates, cfg.target, cfg.alpha)
    bonf_lo, bonf_hi = unconditional_ci(estimates, cfg.target, cfg.alpha / cfg.m)
    event = (
        SelectionEvent.superset([cfg.target])
        if cfg.event == "superset"
        else SelectionEvent.equal(sig)
    )
    naive_est = float(theta_hat[cfg.target])
    result = _infer_one(
        cfg.target,
        x,
        omega,
        sd,
        spec,
        event,
        cfg.alpha,
        (naive_est, naive_lo, naive_hi),
        None,
    )
    if result.error is not None:
        return RepRecord(selected=True, failed=True)
    return RepRecord(
        selected=True,
        cond_covered=bool(result.ci_lo <= truth <= result.ci_hi),
        naive_covered=bool(naive_lo <= truth <= naive_hi),
        bonf_covered=bool(bonf_lo <= truth <= bonf_hi),
        cond_length=float(result.ci_hi - result.ci_lo),
        naive_length=float(naive_hi - naive_lo),
        bonf_length=float(bonf_hi - bonf_lo),
        cond_bias=float(result.estimate_ub - truth),
        naive_bias=float(naive_est - truth),
    )


def _lower_median(values: Sequence[float]) -> float | None:
    if not values:
        return None
    ordered = sorted(values)
    return ordered[(len(ordered) - 1) // 2]


def _fraction(flags: Sequence[bool]) -> float | None:
    if not flags:
        return None
    return sum(flags) / len(flags)


def summarize(cfg: DesignConfig, records: Sequence[RepRecord]) -> SimulationSummary:
    """Deterministic aggregation of per-replication records.

    Coverage over zero selected replications is reported as None rather
    than 0; medians use the lower-median convention.  Failed replications
    are counted and excluded from the selected-sample statistics.
    """
    if not records:
        raise ValueError("no replication records to summarize")
    n_selected = sum(r.selected for r in records)
    usable = [r for r in records if r.selected and not r.failed]
    failures = sum(r.failed for r in records)
    return SimulationSummary(
        config=cfg,
        reps=len(records),
        reps_selected=n_selected,
        failures=failures,
        sel_prob=n_selected / len(records),
        coverage_cond=_fraction([r.cond_covered for r in usable]),
        coverage_naive=_fraction([r.naive_covered for r in usable]),
        coverage_bonf=_fraction([r.bonf_covered for r in usable]),
        median_length_cond=_lower_median([r.cond_length for r in usable]),
        median_length_naive=_lower_median([r.naive_length for r in usable]),
        median_length_bonf=_lower_median([r.bonf_length for r in usable]),
        median_bias_cond=_lower_median([r.cond_bias for r in usable]),
        median_bias_naive=_lower_median([r.naive_bias for r in usable]),
    )


def simulate_design(cfg: DesignConfig) -> SimulationSummary:
    """Run every replication of a configuration and aggregate."""
    spec = ThresholdSpec(family="holm", level=cfg.fwer, m=cfg.m, sided=cfg.sided)
    chol = _equicorr_cholesky(
        cfg.m, cfg.rho if cfg.design == "normal" else math.sqrt(cfg.rho)
    )
    records = [
        run_replication(cfg, rep, chol, spec) for rep in range(cfg.resolved_reps)
    ]
    return summarize(cfg, records)


def _fmt(value: float | None, digits: int = 3) -> str:
    if value is None:
        return "NA"
    return f"{value:.{digits}f}"


CSV_FIELDS = (
    "design",
    "n",
    "sided",
    "event",
    "reps",
    "reps_selected",
    "failures",
    "sel_prob",
    "coverage_cond",
    "coverage_naive",
    "coverage_bonf",
    "median_length_cond",
    "median_length_naive",
    "median_length_bonf",
    "median_bias_cond",
    "median_bias_naive",
)


def csv_header() -> str:
    return ",".join(CSV_FIELDS)


def csv_row(summary: SimulationSummary) -> str:
    cfg = summary.config
    values = [
        cfg.design,
        cfg.n,
        cfg.sided,
        cfg.event,
        summary.reps,
        summary.reps_selected,
        summary.failures,
        summary.sel_prob,
        summary.coverage_cond,
        summary.coverage_naive,
        summary.coverage_bonf,
        summary.median_length_cond,
        summary.median_length_naive,
        summary.median_length_bonf,
        summary.median_bias_cond,
        summary.median_bias_naive,
    ]
    return ",".join("NA" if v is None else repr(v) if isinstance(v, float) else str(v) for v in values)


def format_table(summaries: Sequence[SimulationSummary]) -> str:
    """Human-readable block in the layout of the coverage tables: one
    column per configuration, grouped rows for selection probability,
    coverage, median CI length, and median bias."""
    headers = [f"{s.config.design} n={s.config.n}" for s in summaries]
    width = max(18, *(len(h) + 2 for h in headers)) if summaries else 18
    label_w = 24

    def row(label: str, values: list[str]) -> str:
        return label.ljust(label_w) + "".join(v.rjust(width) for v in values)

    lines = [
        row("", headers),
        row("Sel Prob", [_fmt(s.sel_prob) for s in summaries]),
        "",
        "Conditional Coverage",
        row("  Cond CI", [_fmt(s.coverage_cond) for s in summaries]),
        row("  Naive CI", [_fmt(s.coverage_naive) for s in summaries]),
        row("  Bonf CI", [_fmt(s.coverage_bonf) for s in summaries]),
        "",
        "Conditional Median CI Length",
        row("  Cond CI", [_fmt(s.median_length_cond) for s in summaries]),
        row("  Naive CI", [_fmt(s.median_length_naive) for s in summaries]),
        row("  Bonf CI", [_fmt(s.median_length_bonf) for s in summaries]),
        "",
        "Conditional Median Bias",
        row("  Cond Est", [_fmt(s.median_bias_cond) for s in summaries]),
        row("  Naive Est", [_fmt(s.median_bias_naive) for s in summaries]),
    ]
    return "\n".join(lines)
