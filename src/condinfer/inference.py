"""End-to-end pipeline: studentize, select, and correct the selected effects.

For each significant effect the observed t-statistic is referred to its
truncated-Gaussian distribution given the selection event and the nuisance
direction; inverting that distribution in the mean yields a conditionally
median-unbiased estimate (p = 0.5) and an equal-tailed conditional
confidence interval (p = 1 - alpha/2 and alpha/2).
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
import numpy as np

from .stats_core import (
    BoundaryStatisticError,
    BracketFailureError,
    DegenerateSupportError,
    IntervalUnion,
    invert_truncated_mu,
    normal_quantile,
)
from .support import (
    InconsistentEventError,
    SelectionEvent,
    conditional_support,
    decompose,
)
from .testing import SelectionOutcome, ThresholdSpec, select

#: Beyond this t-statistic the normal CDF underflows and the conditional
#: interval is numerically indistinguishable from the unconditional one, so
#: inference falls back to the latter with a diagnostic flag.
LARGE_T = 37.0

_WORKERS_ENV = "CONDINFER_WORKERS"


@dataclass(eq=False)
class EffectEstimates:
    """Estimated effects with their covariance matrix, the raw input."""

    theta_hat: np.ndarray
    cov: np.ndarray
    labels: list[str] | None = None

    def __post_init__(self) -> None:
        self.theta_hat = np.asarray(self.theta_hat, dtype=float)
        self.cov = np.asarray(self.cov, dtype=float)
        m = self.theta_hat.shape[0]
        if self.theta_hat.ndim != 1:
            raise ValueError("theta_hat must be a vector")
        if self.cov.shape != (m, m):
            raise ValueError(
                f"cov must be {m} x {m}, got shape {self.cov.shape}"
            )
        if not np.all(np.isfinite(self.theta_hat)) or not np.all(
            np.isfinite(self.cov)
        ):
            raise ValueError("estimates and covariance must be finite")
        scale = max(1.0, float(np.abs(self.cov).max()))
        if np.abs(self.cov - self.cov.T).max() > 1e-10 * scale:
            raise ValueError("cov must be symmetric")
        diag = np.diag(self.cov)
        if np.any(diag <= 0.0):
            raise ValueError("cov must have a strictly positive diagonal")
        sd = np.sqrt(diag)
        corr = self.cov / np.outer(sd, sd)
        if np.abs(corr).max() > 1.0 + 1e-8:
            raise ValueError("cov implies correlations outside [-1, 1]")
        if self.labels is not None and len(self.labels) != m:
            raise ValueError("labels must match the number of effects")

    @property
    def m(self) -> int:
        return self.theta_hat.shape[0]


def studentize(
    estimates: EffectEstimates,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """t-statistics, correlation matrix, and standard deviations."""
    sd = np.sqrt(np.diag(estimates.cov))
    x = estimates.theta_hat / sd
    omega = estimates.cov / np.outer(sd, sd)
    omega = 0.5 * (omega + omega.T)
    np.fill_diagonal(omega, 1.0)
    omega = np.clip(omega, -1.0, 1.0)
    return x, omega, sd


def unconditional_ci(
    estimates: EffectEstimates, s: int, alpha: float
) -> tuple[float, float]:
    """Conventional equal-tailed interval theta_hat_s +/- sd_s z_{1-alpha/2}."""
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha!r}")
    sd = math.sqrt(estimates.cov[s, s])
    half = sd * normal_quantile(1.0 - alpha / 2.0)
    center = float(estimates.theta_hat[s])
    return center - half, center + half


@dataclass(eq=False)
class ConditionalInference:
    """Per-effect output of :func:`infer_significant`.

    ``estimate_ub`` and the conditional interval are in effect units; the
    support is in t-statistic units.  ``alpha`` is the per-effect level
    actually used (``alpha / |S|`` in joint mode).  On a per-effect numeric
    failure the conditional fields are NaN, ``error`` holds the reason and
    ``flags`` holds ``"boundary"`` (the statistic sits on a support
    endpoint) or ``"degenerate"``; other effects are unaffected.
    """

    s: int
    estimate_ub: float
    ci_lo: float
    ci_hi: float
    naive_estimate: float
    naive_ci_lo: float
    naive_ci_hi: float
    support: IntervalUnion | None
    alpha: float
    event: SelectionEvent
    label: str | None = None
    flags: tuple[str, ...] = ()
    error: str | None = None


def _infer_one(
    s: int,
    x: np.ndarray,
    omega: np.ndarray,
    sd: np.ndarray,
    spec: ThresholdSpec,
    event: SelectionEvent,
    alpha_eff: float,
    naive: tuple[float, float, float],
    label: str | None,
) -> ConditionalInference:
    naive_est, naive_lo, naive_hi = naive
    base = dict(
        s=s,
        naive_estimate=naive_est,
        naive_ci_lo=naive_lo,
        naive_ci_hi=naive_hi,
        alpha=alpha_eff,
        event=event,
        label=label,
    )
    d = decompose(x, omega, s)
    support = None
    try:
        support = conditional_support(d, spec, event)
        if abs(d.x_s) > LARGE_T:
            half = sd[s] * normal_quantile(1.0 - alpha_eff / 2.0)
            est = float(sd[s] * d.x_s)
            return ConditionalInference(
                estimate_ub=est,
                ci_lo=est - half,
                ci_hi=est + half,
                support=support,
                flags=("unconditional_fallback",),
                **base,
            )
        mu_lo = invert_truncated_mu(d.x_s, support, 1.0 - alpha_eff / 2.0)
        mu_ub = invert_truncated_mu(d.x_s, support, 0.5)
        mu_hi = invert_truncated_mu(d.x_s, support, alpha_eff / 2.0)
    except (
        DegenerateSupportError,
        BracketFailureError,
        InconsistentEventError,
        BoundaryStatisticError,
    ) as exc:
        if abs(d.x_s) > LARGE_T:
            half = sd[s] * normal_quantile(1.0 - alpha_eff / 2.0)
            est = float(sd[s] * d.x_s)
            return ConditionalInference(
                estimate_ub=est,
                ci_lo=est - half,
                ci_hi=est + half,
                support=support,
                flags=("unconditional_fallback",),
                **base,
            )
        return ConditionalInference(
            estimate_ub=math.nan,
            ci_lo=math.nan,
            ci_hi=math.nan,
            support=support,
            flags=(
                "boundary" if isinstance(exc, BoundaryStatisticError) else "degenerate",
            ),
            error=f"{type(exc).__name__}: {exc}",
            **base,
        )
    return ConditionalInference(
        estimate_ub=float(sd[s] * mu_ub),
        ci_lo=float(sd[s] * mu_lo),
        ci_hi=float(sd[s] * mu_hi),
        support=support,
        **base,
    )


def infer_significant(
    estimates: EffectEstimates,
    spec: ThresholdSpec,
    event_kind: str = "equal",
    alpha: float = 0.1,
    joint: bool = False,
    *,
    workers: int | None = None,
    outcome: SelectionOutcome | None = None,
) -> list[ConditionalInference]:
    """Selection-corrected inference for every significant effect.

    Runs the selection once; for each selected effect s, conditions on the
    observed outcome (``equal``: the exact significant set; ``superset``:
    its containment) and inverts the truncated-Gaussian distribution of the
    selected statistic at p = 1 - a/2, 0.5 and a/2, where a = alpha / |S| in
    ``joint`` mode and alpha otherwise.  Results come back in effect-index
    order; the naive fields always use the unadjusted alpha.  Returns an
    empty list when nothing is significant.
    """
    if event_kind not in ("equal", "superset"):
        raise ValueError(f"unknown event kind {event_kind!r}")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha!r}")
    x, omega, sd = studentize(estimates)
    if outcome is None:
        outcome = select(x, spec)
    selected = sorted(outcome.significant_set)
    if not selected:
        return []
    alpha_eff = alpha / len(selected) if joint else alpha
    event = (
        SelectionEvent.equal(selected)
        if event_kind == "equal"
        else SelectionEvent.superset(selected)
    )
    labels = estimates.labels or [None] * estimates.m

    def task(s: int) -> ConditionalInference:
        return _infer_one(
            s,
            x,
            omega,
            sd,
            spec,
            event,
            alpha_eff,
            (float(estimates.theta_hat[s]), *unconditional_ci(estimates, s, alpha)),
            labels[s],
        )

    if workers is None:
        workers = int(os.environ.get(_WORKERS_ENV, "1"))
    if workers > 1 and len(selected) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(task, selected))
    return [task(s) for s in selected]
