"""Monte Carlo harness for coverage and bias of the conditional procedures.

Two designs over m = 5 effects with pairwise correlation rho: Gaussian
observations, and a standardized chi-squared transform of a latent Gaussian
(correlation sqrt(rho) in the latent scale induces rho after squaring).
Each replication studentizes sample means, runs Holm selection, and when
the target effect is significant records conditional, naive, and
Bonferroni-adjusted intervals for it.
"""

from __future__ import annotations

import dataclasses
import math
import operator
from collections import Counter
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .inference import EffectEstimates, _solve, studentize
from .stats_core import normal_quantile
from .support import SelectionEvent

# step_down_select stays importable here for tools that wrap it by this name
from .testing import (  # noqa: F401
    ThresholdSpec,
    _batch_membership,
    keyed_streams,
    step_down_select,
)

#: Replications whose samples are held in memory at once.
_CHUNK = 64

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
        for name in ("n", "reps", "seed", "target"):
            value = getattr(self, name)
            if value is None and name == "reps":
                continue
            try:
                object.__setattr__(self, name, operator.index(value))
            except TypeError:
                raise ValueError(f"{name} must be an integer, got {value!r}") from None
        if self.design not in ("normal", "chisq"):
            raise ValueError(f"unknown design {self.design!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")
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
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must lie in (0, 1), got {self.alpha!r}")

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
    """Outcome of one replication for the target effect; a failed one names
    its exception's class in ``error``."""

    selected: bool
    error: str | None = None
    cond_covered: bool | None = None
    naive_covered: bool | None = None
    bonf_covered: bool | None = None
    cond_length: float | None = None
    naive_length: float | None = None
    bonf_length: float | None = None
    cond_bias: float | None = None
    naive_bias: float | None = None

    @property
    def failed(self) -> bool:
        return self.error is not None


@dataclass(frozen=True)
class SimulationSummary:
    """Aggregates in the layout of the coverage tables.

    ``sel_prob_se`` and ``coverage_cond_se`` are Monte Carlo standard errors,
    sqrt(p (1 - p) / k) over the k replications each proportion averages.
    ``failures_by_error`` counts the failed replications by the class name
    of their exception; ``failures`` is its total.
    """

    config: DesignConfig
    reps: int
    reps_selected: int
    failures: int
    failures_by_error: dict[str, int] = field(hash=False)
    sel_prob: float
    coverage_cond: float | None
    coverage_naive: float | None
    coverage_bonf: float | None
    median_length_cond: float | None
    median_length_naive: float | None
    median_length_bonf: float | None
    median_bias_cond: float | None
    median_bias_naive: float | None
    sel_prob_se: float
    coverage_cond_se: float | None


def _equicorr_cholesky(m: int, rho: float) -> np.ndarray:
    matrix = np.full((m, m), rho)
    np.fill_diagonal(matrix, 1.0)
    return np.linalg.cholesky(matrix)


def _lower_median(values: Sequence[float]) -> float | None:
    if not values:
        return None
    ordered = sorted(values)
    return ordered[(len(ordered) - 1) // 2]


def _fraction(flags: Sequence[bool]) -> float | None:
    if not flags:
        return None
    return sum(flags) / len(flags)


def _standard_error(fraction: float | None, count: int) -> float | None:
    return None if fraction is None else math.sqrt(fraction * (1.0 - fraction) / count)


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
    failures = Counter(r.error for r in records if r.failed)
    sel_prob = n_selected / len(records)
    coverage_cond = _fraction([r.cond_covered for r in usable])
    return SimulationSummary(
        config=cfg,
        reps=len(records),
        reps_selected=n_selected,
        failures=sum(failures.values()),
        failures_by_error=dict(sorted(failures.items())),
        sel_prob=sel_prob,
        coverage_cond=coverage_cond,
        coverage_naive=_fraction([r.naive_covered for r in usable]),
        coverage_bonf=_fraction([r.bonf_covered for r in usable]),
        median_length_cond=_lower_median([r.cond_length for r in usable]),
        median_length_naive=_lower_median([r.naive_length for r in usable]),
        median_length_bonf=_lower_median([r.bonf_length for r in usable]),
        median_bias_cond=_lower_median([r.cond_bias for r in usable]),
        median_bias_naive=_lower_median([r.naive_bias for r in usable]),
        sel_prob_se=_standard_error(sel_prob, len(records)),
        coverage_cond_se=_standard_error(coverage_cond, len(usable)),
    )


def _block_estimates(cfg: DesignConfig, chol: np.ndarray) -> EffectEstimates:
    """Sample means and their estimated covariance for every replication.

    Replication r draws its n x m standard normals from its own stream
    keyed by (seed, r); samples are held ``_CHUNK`` replications at a time.
    """
    reps, n, m = cfg.resolved_reps, cfg.n, cfg.m
    theta_hat = np.empty((reps, m))
    cov = np.empty((reps, m, m))
    buffer = np.empty((min(reps, _CHUNK), n, m))
    streams = keyed_streams(cfg.seed, reps)
    for start in range(0, reps, _CHUNK):
        z = buffer[: min(reps - start, _CHUNK)]
        for sample, rng in zip(z, streams):
            rng.standard_normal(out=sample)
        block = slice(start, start + z.shape[0])
        # one m x n sample per replication, observations along the last axis
        sample = chol @ np.swapaxes(z, 1, 2)
        if cfg.design == "chisq":
            sample = (sample**2 - 1.0) / math.sqrt(2.0)
        sample += np.asarray(cfg.theta)[:, None]
        theta_hat[block] = sample.mean(axis=2)
        sample -= theta_hat[block, :, None]
        cov[block] = sample @ np.swapaxes(sample, 1, 2) / ((n - 1) * n)
    return EffectEstimates(theta_hat, cov)


def simulate_design(cfg: DesignConfig) -> SimulationSummary:
    """Run every replication of a configuration as one batch and aggregate.

    Estimates are validated and studentized together and Holm selection
    runs on all replications at once; the replications that select the
    target are solved together by the same path as ``infer``.  Streams are
    keyed by (seed, replication), so the result equals a one-at-a-time run.
    A replication whose support or inversion fails is counted in ``failures``
    and, by its exception's class, in ``failures_by_error``.
    """
    spec = ThresholdSpec(family="holm", level=cfg.fwer, m=cfg.m, sided=cfg.sided)
    chol = _equicorr_cholesky(
        cfg.m, cfg.rho if cfg.design == "normal" else math.sqrt(cfg.rho)
    )
    estimates = _block_estimates(cfg, chol)
    x, omega, sd = studentize(estimates)
    member = _batch_membership(x.T, spec)
    t = cfg.target
    selected = np.flatnonzero(member[t])
    problems = [
        (r, t, SelectionEvent.superset([t]) if cfg.event == "superset"
         else SelectionEvent.equal(np.flatnonzero(member[:, r])))
        for r in selected
    ]
    _, roots, errors = _solve(x, omega, sd, problems, spec, cfg.alpha)
    ok = np.array([error is None for error in errors], dtype=bool)

    truth = cfg.theta[t]
    rows = selected[ok]
    center, scale = estimates.theta_hat[rows, t], sd[rows, t]
    naive = scale * normal_quantile(1.0 - cfg.alpha / 2.0)
    bonf = scale * normal_quantile(1.0 - cfg.alpha / cfg.m / 2.0)
    ci_lo, estimate, ci_hi = roots[ok].T
    columns = {"cond_bias": estimate - truth, "naive_bias": center - truth}
    for name, lo, hi in (
        ("cond", ci_lo, ci_hi),
        ("naive", center - naive, center + naive),
        ("bonf", center - bonf, center + bonf),
    ):
        columns[f"{name}_covered"] = (lo <= truth) & (truth <= hi)
        columns[f"{name}_length"] = hi - lo
    records = [RepRecord(selected=False)] * (cfg.resolved_reps - len(selected))
    records += [
        RepRecord(selected=True, error=type(error).__name__)
        for error in errors if error is not None
    ]
    records += [
        RepRecord(selected=True, **dict(zip(columns, values)))
        for values in zip(*(column.tolist() for column in columns.values()))
    ]
    return summarize(cfg, records)


def _fmt(value: float | None, digits: int = 3) -> str:
    if value is None:
        return "NA"
    return f"{value:.{digits}f}"


def summary_dict(summary: SimulationSummary) -> dict:
    """The summary as one flat mapping: the configuration's fields, then the
    aggregates in field order (``reps`` is the resolved count)."""
    fields = dataclasses.asdict(summary)
    return {**fields.pop("config"), **fields}


#: Columns of :func:`csv_row`: four configuration fields, then every
#: scalar aggregate of :class:`SimulationSummary`.
CSV_FIELDS = ("design", "n", "sided", "event") + tuple(
    f.name
    for f in dataclasses.fields(SimulationSummary)
    if f.name not in ("config", "failures_by_error")
)


def csv_header() -> str:
    return ",".join(CSV_FIELDS)


def csv_row(summary: SimulationSummary) -> str:
    values = summary_dict(summary)
    return ",".join(
        "NA" if v is None else repr(v) if isinstance(v, float) else str(v)
        for v in (values[name] for name in CSV_FIELDS)
    )


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
