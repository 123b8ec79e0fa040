"""Independent checker for the benchmark's answers.

Nothing here imports ``condinfer``: selection, thresholds and the truncated
Gaussian CDF are re-derived from ``scipy.stats.norm`` and
``scipy.special.log_ndtr``, and inputs are read back from the same CSV
files the program was given.  Each check returns a list of problems; an
empty list means the answer passed.
"""

from __future__ import annotations

import csv
import math

import numpy as np
from scipy.special import log_ndtr
from scipy.stats import norm

#: Tolerance on F(x_obs | mu) at the three returned means.
CDF_TOL = 1e-6

#: Relative step used to probe just outside a finite support endpoint.
OUTSIDE_STEP = 1e-7


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------


def read_estimates(path: str) -> tuple[list[str], np.ndarray]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if [c.strip().lower() for c in rows[0]] != ["id", "estimate"]:
        raise ValueError(f"{path}: unexpected header {rows[0]!r}")
    body = [r for r in rows[1:] if r]
    return [r[0] for r in body], np.array([float(r[1]) for r in body])


def read_matrix(path: str) -> np.ndarray:
    with open(path, newline="") as fh:
        return np.array([[float(v) for v in row] for row in csv.reader(fh) if row])


def studentized(theta: np.ndarray, cov: np.ndarray):
    """t-statistics, correlation matrix and standard deviations."""
    sd = np.sqrt(np.diag(cov))
    omega = cov / np.outer(sd, sd)
    omega = 0.5 * (omega + omega.T)
    np.fill_diagonal(omega, 1.0)
    return theta / sd, np.clip(omega, -1.0, 1.0), sd


# ---------------------------------------------------------------------------
# selection
# ---------------------------------------------------------------------------


class Rule:
    """A multiple-testing rule: family, level, sidedness, optional draws."""

    def __init__(self, family: str, level: float, sided: str, m: int, draws=None):
        if family not in ("holm", "bh", "bootstrap"):
            raise ValueError(f"checker does not implement {family!r}")
        self.family, self.level, self.sided, self.m = family, level, sided, m
        self.step_up = family == "bh"
        self.draws = None
        if draws is not None:
            self.draws = np.abs(draws) if sided == "two" else np.asarray(draws)
        tails = np.arange(1, m + 1)
        if family == "holm":
            tail = level / (m + 1 - tails)
        else:
            tail = (m - tails + 1) * level / m
        if sided == "two":
            tail = tail / 2.0
        self.steps = norm.isf(tail)

    def scores(self, x: np.ndarray) -> np.ndarray:
        return np.abs(x) if self.sided == "two" else x

    def threshold(self, step: int, remaining: np.ndarray) -> float:
        """Critical value at 0-based ``step`` against the remaining set."""
        if self.draws is None:
            return float(self.steps[step])
        row_max = np.sort(self.draws[:, remaining].max(axis=1))
        b = row_max.size
        rank = min(max(math.ceil((1.0 - self.level) * b), 1), b)
        return float(row_max[rank - 1])

    def comparisons(self, x: np.ndarray) -> tuple[frozenset, float]:
        """Selected set, and the smallest margin of any comparison made."""
        score = self.scores(x)
        idx = np.arange(self.m)
        margin = math.inf
        if not self.step_up:
            order = np.lexsort((idx, -score))
            for j in range(self.m):
                t = self.threshold(j, order[j:])
                gap = score[order[j]] - t
                margin = min(margin, abs(gap))
                if gap < 0.0:
                    return frozenset(int(h) for h in order[:j]), margin
            return frozenset(range(self.m)), margin
        order = np.lexsort((idx, score))
        for j in range(self.m):
            gap = score[order[j]] - self.threshold(j, order[j:])
            margin = min(margin, abs(gap))
            if gap >= 0.0:
                return frozenset(int(h) for h in order[j:]), margin
        return frozenset(), margin

    def select(self, x: np.ndarray) -> frozenset:
        return self.comparisons(x)[0]


# ---------------------------------------------------------------------------
# truncated Gaussian
# ---------------------------------------------------------------------------


def _log_mass(a: float, b: float) -> float:
    """log P(a <= Z <= b) for a standard normal Z, a < b."""
    if a == -math.inf and b == math.inf:
        return 0.0
    if a + b > 0.0:  # upper side: use the mirrored lower tails
        a, b = -b, -a
    hi = float(log_ndtr(b))
    lo = float(log_ndtr(a)) if a > -math.inf else -math.inf
    if lo == -math.inf:
        return hi
    return hi + math.log1p(-math.exp(lo - hi))


def _logsumexp(values: list[float]) -> float:
    top = max(values)
    if top == -math.inf:
        return top
    return top + math.log(sum(math.exp(v - top) for v in values))


def truncated_cdf(x: float, mu: float, support) -> float:
    """P(X <= x | X in support) for X ~ N(mu, 1), evaluated in log space."""
    den, num = [], []
    for lo, hi in support:
        if hi <= lo:
            continue
        den.append(_log_mass(lo - mu, hi - mu))
        if x > lo:
            top = min(hi, x)
            if top > lo:
                num.append(_log_mass(lo - mu, top - mu))
    if not num:
        return 0.0
    return math.exp(_logsumexp(num) - _logsumexp(den))


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------


def _probe_points(support) -> list[tuple[float, bool]]:
    """(x, expected membership) pairs: interval and gap midpoints, and
    points just outside each finite endpoint."""
    probes = []
    for k, (lo, hi) in enumerate(support):
        if math.isfinite(lo) and math.isfinite(hi):
            probes.append((0.5 * (lo + hi), True))
        elif math.isfinite(lo):
            probes.append((lo + 1.0, True))
        elif math.isfinite(hi):
            probes.append((hi - 1.0, True))
        else:
            probes.append((0.0, True))
        if k + 1 < len(support):
            probes.append((0.5 * (hi + support[k + 1][0]), False))
    for k, (lo, hi) in enumerate(support):
        prev_hi = support[k - 1][1] if k > 0 else -math.inf
        next_lo = support[k + 1][0] if k + 1 < len(support) else math.inf
        if math.isfinite(lo):
            x = lo - OUTSIDE_STEP * max(1.0, abs(lo))
            if x > prev_hi:
                probes.append((x, False))
        if math.isfinite(hi):
            x = hi + OUTSIDE_STEP * max(1.0, abs(hi))
            if x < next_lo:
                probes.append((x, False))
    return probes


def step_down_equal_support(rule: Rule, col, z, selected) -> list | None:
    """Exact support of a step-down equal event under a cardinality rule.

    With K = |S| and non-increasing thresholds t_1 >= ... >= t_m, the
    procedure returns exactly S iff S's scores, sorted, pass t_1..t_K and
    every other score stays below t_{K+1}.  The second condition is an
    interval of x; the first can change only where an S score meets one of
    t_1..t_K, so testing one point per cell between those abscissas gives
    the whole union.  Returns None for set-dependent or step-up rules.
    """
    if rule.step_up or rule.draws is not None:
        return None
    inside = np.asarray(sorted(selected))
    k, two = inside.size, rule.sided == "two"
    outside = np.setdiff1d(np.arange(rule.m), inside)
    lo, hi = -math.inf, math.inf
    if outside.size:
        t = rule.steps[k]
        a, b = col[outside], z[outside]
        flat = a == 0.0
        if np.any((np.abs(b[flat]) if two else b[flat]) >= t):
            return []
        a, b = a[~flat], b[~flat]
        up = (t - b) / a
        down = (-t - b) / a if two else np.where(a > 0.0, -math.inf, math.inf)
        hi = float(np.min(np.where(a > 0.0, up, down)))
        lo = float(np.max(np.where(a > 0.0, down, up)))
        if lo >= hi:
            return []
    a, b = col[inside], z[inside]
    steps = rule.steps[:k]
    signs = (1.0, -1.0) if two else (1.0,)
    cuts = [(sg * t - bb) / aa for aa, bb in zip(a, b) if aa != 0.0 for t in steps for sg in signs]
    cuts = np.unique([c for c in cuts if lo < c < hi])
    edges = np.concatenate(([lo], cuts, [hi]))
    probes = 0.5 * (edges[:-1] + edges[1:])
    probes[0] = edges[1] - 1.0 if lo == -math.inf else probes[0]
    probes[-1] = edges[-2] + 1.0 if hi == math.inf else probes[-1]
    if lo == -math.inf and hi == math.inf and edges.size == 2:
        probes[0] = 0.0
    values = a[:, None] * probes[None, :] + b[:, None]
    scores = np.sort(np.abs(values) if two else values, axis=0)[::-1]
    member = (scores >= steps[:, None]).all(axis=0)
    union: list[tuple[float, float]] = []
    for left, right, ok in zip(edges[:-1], edges[1:], member):
        if not ok:
            continue
        if union and union[-1][1] == left:
            union[-1] = (union[-1][0], float(right))
        else:
            union.append((float(left), float(right)))
    return union


def _same_union(mine, theirs) -> bool:
    if len(mine) != len(theirs):
        return False
    for (a0, a1), (b0, b1) in zip(mine, theirs):
        for u, v in ((a0, b0), (a1, b1)):
            if u != v and not abs(u - v) <= 1e-8 * max(1.0, abs(u)):
                return False
    return True


def check_infer(doc: dict, case: dict) -> list[str]:
    """Check one ``condinfer infer --format json`` document.

    ``case`` holds the inputs as the checker read them: ``x``, ``omega``,
    ``sd``, ``labels``, the ``rule``, ``event``, ``alpha`` and ``joint``.
    """
    problems: list[str] = []
    x, omega, sd, rule = case["x"], case["omega"], case["sd"], case["rule"]
    selected = rule.select(x)
    results = doc.get("results", [])
    got = [r["index"] for r in results]
    if got != sorted(selected):
        return [f"selected set {got} != independent selection {sorted(selected)}"]
    alpha = case["alpha"] / len(selected) if case["joint"] else case["alpha"]
    for r in results:
        s = r["index"]
        tag = f"effect {s}"
        if r["id"] != case["labels"][s]:
            problems.append(f"{tag}: id {r['id']!r} != {case['labels'][s]!r}")
        if r["error"] is not None or "degenerate" in r["flags"]:
            continue  # counted as a failed operation, not as a wrong answer
        if sorted(r["event"]["indices"]) != sorted(selected) or r["event"]["kind"] != case["event"]:
            problems.append(f"{tag}: event {r['event']} does not match")
        if abs(r["alpha"] - alpha) > 1e-15:
            problems.append(f"{tag}: alpha {r['alpha']} != {alpha}")
        lo, est, hi = r["ci_lo"], r["estimate_ub"], r["ci_hi"]
        if not lo < est < hi:
            problems.append(f"{tag}: not ci_lo < estimate < ci_hi: {lo}, {est}, {hi}")
        support = [tuple(p) for p in r["support"] or []]
        x_s = float(x[s])
        if not any(a <= x_s <= b for a, b in support):
            problems.append(f"{tag}: observed statistic {x_s} outside support")
            continue
        col = omega[:, s]
        z = x - col * x_s
        z[s] = 0.0
        if case["event"] == "equal":
            exact = step_down_equal_support(rule, col, z, selected)
            if exact is not None and not _same_union(exact, support):
                problems.append(f"{tag}: support {support} != independent support {exact}")
        for point, inside in _probe_points(support):
            got_set = rule.select(col * point + z)
            member = (
                got_set == selected
                if case["event"] == "equal"
                else selected <= got_set
            )
            if member != inside:
                problems.append(
                    f"{tag}: membership at x={point!r} is {member}, support says {inside}"
                )
        for value, target in ((lo, 1.0 - alpha / 2.0), (est, 0.5), (hi, alpha / 2.0)):
            f = truncated_cdf(x_s, value / sd[s], support)
            if abs(f - target) > CDF_TOL:
                problems.append(f"{tag}: F(x_obs | {value!r}) = {f!r}, want {target!r}")
    return problems


def check_simulation(summaries: list, alpha: float) -> list[str]:
    """Check the pooled ``simulate_design`` blocks of one run.

    Pooled conditional coverage must lie within 4 Monte Carlo standard
    errors of 1 - alpha, and the median over blocks of the conditional
    median bias must be smaller in magnitude than that of the naive
    estimate.  A block with a failed replication is a failed operation,
    counted by the caller.
    """
    problems = []
    usable = sum(s.reps_selected - s.failures for s in summaries)
    covered = sum(
        round(s.coverage_cond * (s.reps_selected - s.failures))
        for s in summaries
        if s.coverage_cond is not None
    )
    if usable == 0:
        return problems + ["no selected replications"]
    coverage = covered / usable
    se = math.sqrt(alpha * (1.0 - alpha) / usable)
    if abs(coverage - (1.0 - alpha)) > 4.0 * se:
        problems.append(
            f"conditional coverage {coverage:.4f} over {usable} reps is more than "
            f"4 SE ({se:.4f}) from {1.0 - alpha}"
        )
    cond = [s.median_bias_cond for s in summaries if s.median_bias_cond is not None]
    naive = [s.median_bias_naive for s in summaries if s.median_bias_naive is not None]
    if not abs(float(np.median(cond))) < abs(float(np.median(naive))):
        problems.append(
            f"|median conditional bias| {np.median(cond):.4f} is not below "
            f"|median naive bias| {np.median(naive):.4f}"
        )
    return problems
