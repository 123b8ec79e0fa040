import importlib.util
from pathlib import Path

import numpy as np
import pytest

from condinfer.testing import ThresholdSpec

BENCH_DIR = Path(__file__).resolve().parents[1] / "bench"


def load_bench_module(name):
    """Import ``bench/<name>.py`` of this checkout (the bench is no package)."""
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH_DIR / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def random_correlation(m, rng):
    a = rng.standard_normal((m, m + 2))
    c = a @ a.T
    d = np.sqrt(np.diag(c))
    return c / np.outer(d, d)


def random_spec(
    m,
    rng,
    families=("holm", "bonferroni", "sidak_holm", "bh", "by", "fixed"),
    sided=None,
    procedure=None,
):
    """A random spec; ``sided`` and, for ``fixed``, ``procedure`` are drawn
    unless given."""
    family = families[int(rng.integers(len(families)))]
    sided = sided or ["one", "two"][int(rng.integers(2))]
    level = float(rng.uniform(0.05, 0.2))
    if family == "fixed":
        procedure = procedure or ["step_down", "step_up"][int(rng.integers(2))]
        base = np.sort(rng.uniform(0.8, 3.0, size=m))
        table = tuple(base[::-1]) if procedure == "step_down" else tuple(base)
        return ThresholdSpec("fixed", level, m, sided, table=table, procedure=procedure)
    if family == "fdp":
        return ThresholdSpec("fdp", level, m, sided, gamma=float(rng.uniform(0.0, 0.5)))
    return ThresholdSpec(family, level, m, sided)


def random_selected_instance(rng, m_lo=2, m_hi=8, families=None):
    """Draw (x, omega, spec) until the procedure selects something."""
    import condinfer as ci

    kwargs = {} if families is None else {"families": families}
    while True:
        m = int(rng.integers(m_lo, m_hi))
        spec = random_spec(m, rng, **kwargs)
        omega = random_correlation(m, rng)
        mu = rng.normal(0.0, 2.0, size=m)
        chol = np.linalg.cholesky(omega + 1e-12 * np.eye(m))
        x = mu + chol @ rng.standard_normal(m)
        outcome = ci.select(x, spec)
        if outcome.significant_set:
            return x, omega, spec, outcome


def _mp_cdf(mp, x, intervals):
    """The CDF at x of N(mu, 1) truncated to the union of ``intervals``, and
    its complement, as a function of mu, at mpmath's working precision."""
    x = mp.mpf(x)
    ends = [(mp.mpf(lo), mp.mpf(hi)) for lo, hi in intervals]

    def mass(a, b):
        # the smaller-tail side keeps its digits far out
        if a + b < 0:
            return mp.ncdf(b) - mp.ncdf(a)
        return mp.ncdf(-a) - mp.ncdf(-b)

    def cdf(mu):
        below = sum(mass(lo - mu, min(hi, x) - mu) for lo, hi in ends if lo < x)
        above = sum(mass(max(lo, x) - mu, hi - mu) for lo, hi in ends if hi > x)
        return below / (below + above), above / (below + above)

    return cdf


def mp_truncated_cdf(x, intervals, mu):
    """The truncated CDF at x and its complement, from a 60-digit mpmath
    evaluation, as floats."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(60):
        below, above = _mp_cdf(mp, x, intervals)(mp.mpf(mu))
        return float(below), float(above)


def mp_truncated_root(x, intervals, p):
    """Mean at which the truncated CDF of x equals p, by bisection on a
    60-digit mpmath evaluation; the bracket doubles away from x."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(60):
        cdf = _mp_cdf(mp, x, intervals)
        x, p = mp.mpf(x), mp.mpf(p)
        step = 1 if cdf(x)[0] > p else -1
        near, far = x, x + step
        while (cdf(far)[0] > p) == (step > 0):
            near, far, step = far, far + 2 * step, 2 * step
        lo, hi = min(near, far), max(near, far)
        while hi - lo > mp.mpf(10) ** -30 * (1 + abs(lo)):
            mid = (lo + hi) / 2
            lo, hi = (mid, hi) if cdf(mid)[0] > p else (lo, mid)
        return float((lo + hi) / 2)
