"""End-to-end pipeline: studentize, select, and correct the selected effects.

For each significant effect the observed t-statistic is referred to its
truncated-Gaussian distribution given the selection event and the nuisance
direction; inverting that distribution in the mean yields a conditionally
median-unbiased estimate (p = 0.5) and an equal-tailed conditional
confidence interval (p = 1 - alpha/2 and alpha/2).  :func:`infer_significant`
and :func:`~condinfer.sim.simulate_design` share one solve path: the
supports of all selected (row, effect, event) problems come from one
stacked :func:`~condinfer.support.conditional_support` call, then all roots
from one stacked :func:`~condinfer.stats_core.invert_truncated_mu` call, and
each failure stays with its own problem.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .stats_core import (
    BoundaryStatisticError,
    IntervalUnion,
    invert_truncated_mu,
    normal_quantile,
)

# decompose stays importable here for tools that wrap it by this name
from .support import (  # noqa: F401
    SelectionEvent,
    _decompose,
    conditional_support,
    decompose,
)
from .testing import ThresholdSpec, as_index, select

_WORKERS_ENV = "CONDINFER_WORKERS"


@dataclass(eq=False)
class EffectEstimates:
    """Estimated effects with their covariance matrix, the raw input.

    ``theta_hat`` is a length-m vector and ``cov`` its m x m covariance.
    Both may carry the same leading batch axes, one problem per index, so
    a block of Monte Carlo replications is validated and studentized in one
    call; :func:`infer_significant` and :func:`unconditional_ci` take a
    single problem.
    """

    theta_hat: np.ndarray
    cov: np.ndarray
    labels: list[str] | None = None

    def __post_init__(self) -> None:
        self.theta_hat = np.asarray(self.theta_hat, dtype=float)
        self.cov = np.asarray(self.cov, dtype=float)
        if self.theta_hat.ndim < 1:
            raise ValueError("theta_hat must be a vector")
        m = self.theta_hat.shape[-1]
        if m == 0:
            raise ValueError("estimates need at least one effect")
        if self.cov.shape != self.theta_hat.shape + (m,):
            raise ValueError(
                f"cov must be {m} x {m}, got shape {self.cov.shape}"
            )
        if not np.all(np.isfinite(self.theta_hat)) or not np.all(
            np.isfinite(self.cov)
        ):
            raise ValueError("estimates and covariance must be finite")
        scale = np.maximum(1.0, np.abs(self.cov).max(axis=(-2, -1)))
        asymmetry = np.abs(self.cov - np.swapaxes(self.cov, -2, -1)).max(axis=(-2, -1))
        if np.any(asymmetry > 1e-10 * scale):
            raise ValueError("cov must be symmetric")
        diag = np.diagonal(self.cov, axis1=-2, axis2=-1)
        if np.any(diag <= 0.0):
            raise ValueError("cov must have a strictly positive diagonal")
        sd = np.sqrt(diag)
        corr = self.cov / (sd[..., :, None] * sd[..., None, :])
        if np.abs(corr).max() > 1.0 + 1e-8:
            raise ValueError("cov implies correlations outside [-1, 1]")
        if self.labels is not None and len(self.labels) != m:
            raise ValueError("labels must match the number of effects")

    @property
    def m(self) -> int:
        return self.theta_hat.shape[-1]


def studentize(
    estimates: EffectEstimates,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """t-statistics, correlation matrix, and standard deviations (stacked
    like the estimates)."""
    sd = np.sqrt(np.diagonal(estimates.cov, axis1=-2, axis2=-1))
    x = estimates.theta_hat / sd
    omega = estimates.cov / (sd[..., :, None] * sd[..., None, :])
    omega = 0.5 * (omega + np.swapaxes(omega, -2, -1))
    diagonal = np.arange(estimates.m)
    omega[..., diagonal, diagonal] = 1.0
    omega = np.clip(omega, -1.0, 1.0)
    return x, omega, sd


def unconditional_ci(
    estimates: EffectEstimates, s: int, alpha: float
) -> tuple[float, float]:
    """Conventional equal-tailed interval theta_hat_s +/- sd_s z_{1-alpha/2}."""
    if estimates.theta_hat.ndim != 1:
        raise ValueError("unconditional_ci takes a single problem, not a batch")
    if not 0 <= s < estimates.m:
        raise ValueError(f"effect index {s} out of range for m={estimates.m}")
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


def _solve(x, omega, sd, problems, spec, alpha, workers=1):
    """Support, roots at p = 1 - alpha/2, 1/2 and alpha/2 in effect units,
    and error (or None) of each (row, effect, event) problem, for ``x``,
    ``omega`` and ``sd`` studentized and stacked by row.  Every support comes
    from one stacked :func:`conditional_support` call (one per contiguous
    chunk of the problems on ``workers`` threads), then every root from one
    stacked :func:`invert_truncated_mu` call.  A failed problem has NaN
    roots (and support None if its support failed); the others are
    unaffected.
    """
    if not problems:
        return [], np.empty((0, 3)), []
    rows = np.array([row for row, _, _ in problems], dtype=np.intp)
    effects = np.array([s for _, s, _ in problems], dtype=np.intp)
    events = [event for _, _, event in problems]

    def supports_of(part):
        return conditional_support(_decompose(x, omega, rows[part], effects[part]), spec, events[part])

    chunks = min(workers, len(problems))
    cuts = [len(problems) * i // chunks for i in range(chunks + 1)]
    parts = [slice(lo, hi) for lo, hi in zip(cuts, cuts[1:])]
    if len(parts) > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=len(parts)) as pool:
            found = list(pool.map(supports_of, parts))
    else:
        found = list(map(supports_of, parts))
    found = [f for part in found for f in part]
    errors = [f if isinstance(f, Exception) else None for f in found]
    solved = np.array([k for k, error in enumerate(errors) if error is None], dtype=np.intp)
    rows, effects = rows[solved], effects[solved]
    mu, inverted = invert_truncated_mu(
        x[rows, effects].tolist(), [found[k] for k in solved], (1.0 - alpha / 2.0, 0.5, alpha / 2.0)
    )
    roots = np.full((len(problems), 3), math.nan)
    roots[solved] = sd[rows, effects][:, None] * mu
    for k, error in zip(solved.tolist(), inverted):
        errors[k] = error
    return [None if isinstance(f, Exception) else f for f in found], roots, errors


def infer_significant(
    estimates: EffectEstimates,
    spec: ThresholdSpec,
    event_kind: str = "equal",
    alpha: float = 0.1,
    joint: bool = False,
    *,
    workers: int | None = None,
) -> list[ConditionalInference]:
    """Selection-corrected inference for every significant effect.

    Runs the selection once; for each selected effect s, conditions on the
    observed outcome (``equal``: the exact significant set; ``superset``:
    its containment) and inverts the truncated-Gaussian distribution of the
    selected statistic at p = 1 - a/2, 0.5 and a/2, where a = alpha / |S| in
    ``joint`` mode and alpha otherwise.  ``workers`` defaults to
    ``$CONDINFER_WORKERS`` or 1; fewer than 1 raises ``ValueError``.  An
    effect whose support or inversion fails is flagged alone.  Results come
    back in effect-index order; the naive fields always use the unadjusted
    alpha.  Returns an empty list when nothing is significant.
    """
    if event_kind not in ("equal", "superset"):
        raise ValueError(f"unknown event kind {event_kind!r}")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha!r}")
    if estimates.theta_hat.ndim != 1:
        raise ValueError("infer_significant takes a single problem, not a batch")
    if workers is None:
        workers = int(os.environ.get(_WORKERS_ENV, "1"))
    workers = as_index(workers, "workers")
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    x, omega, sd = studentize(estimates)
    selected = sorted(select(x, spec).significant_set)
    if not selected:
        return []
    alpha_eff = alpha / len(selected) if joint else alpha
    event = (
        SelectionEvent.equal(selected)
        if event_kind == "equal"
        else SelectionEvent.superset(selected)
    )
    labels = estimates.labels or [None] * estimates.m

    supports, roots, errors = _solve(
        x[None], omega[None], sd[None], [(0, s, event) for s in selected],
        spec, alpha_eff, workers,
    )
    results = []
    for s, support, (mu_lo, mu_ub, mu_hi), error in zip(selected, supports, roots, errors):
        flags, reason = (), None
        if error is not None:
            flags = ("boundary" if isinstance(error, BoundaryStatisticError) else "degenerate",)
            reason = f"{type(error).__name__}: {error}"
        naive_lo, naive_hi = unconditional_ci(estimates, s, alpha)
        results.append(ConditionalInference(
            s=s,
            estimate_ub=float(mu_ub),
            ci_lo=float(mu_lo),
            ci_hi=float(mu_hi),
            naive_estimate=float(estimates.theta_hat[s]),
            naive_ci_lo=naive_lo,
            naive_ci_hi=naive_hi,
            support=support,
            alpha=alpha_eff,
            event=event,
            label=labels[s],
            flags=flags,
            error=reason,
        ))
    return results
