"""Threshold families and sequential multiple-testing procedures.

A threshold function maps a nonempty subset A of the m hypotheses to a
critical value.  Step-down procedures walk the statistics from largest to
smallest against shrinking thresholds; step-up procedures walk from smallest
to largest against growing ones.  Both are driven by the same
:class:`ThresholdSpec`.

One walk runs the procedure on every column of a statistic matrix, for all
nine families.  :func:`select` is the entry point for both shapes: a vector
gives its :class:`SelectionOutcome`, an m x k matrix the k columns'
significance mask from the same walk.  ``step_down_select`` and
``step_up_select`` are ``select`` with a check of the procedure.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, NoReturn, Sequence

import numpy as np

from .stats_core import normal_quantile

STEP_DOWN = "step_down"
STEP_UP = "step_up"

_STEP_DOWN_FAMILIES = frozenset(
    {"bonferroni", "sidak", "holm", "sidak_holm", "fdp", "bootstrap", "fixed"}
)
_STEP_UP_FAMILIES = frozenset({"bh", "by", "fixed"})
FAMILIES = _STEP_DOWN_FAMILIES | _STEP_UP_FAMILIES


class ZeroVarianceError(ArithmeticError):
    """A bootstrap replicate produced a vanishing standard error."""


def as_index(value, name: str) -> int:
    """``value`` as an int through :func:`operator.index`; anything else,
    a bool included, raises ``ValueError``."""
    try:
        if not isinstance(value, bool):
            return operator.index(value)
    except TypeError:
        pass
    raise ValueError(f"{name} must be an integer, got {value!r}")


def _harmonic(m: int) -> float:
    return sum(1.0 / i for i in range(1, m + 1))


@dataclass(frozen=True, eq=False)
class ThresholdSpec:
    """Parameterization of a threshold function x̄(A).

    ``level`` is the nominal error rate (FWER for the step-down FWER
    families, FDR q for bh/by, FDP exceedance level for fdp).  ``table``
    supplies the ``fixed`` family as per-step critical values: the value
    compared against the statistic examined at step j is ``table[j-1]``
    (step-down tables must be non-increasing, step-up tables non-decreasing).
    ``draws`` supplies the ``bootstrap`` family as a B x m matrix of
    bootstrapped t-statistics; x̄(A) is then the empirical (1 - level)
    quantile of the per-draw maxima over A.
    """

    family: str
    level: float
    m: int
    sided: str = "two"
    gamma: float | None = None
    draws: np.ndarray | None = None
    table: tuple[float, ...] | None = None
    procedure: str = ""

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        if not 0.0 < self.level < 1.0:
            raise ValueError(f"level must lie in (0, 1), got {self.level!r}")
        if self.sided not in ("one", "two"):
            raise ValueError(f"sided must be 'one' or 'two', got {self.sided!r}")
        object.__setattr__(self, "m", as_index(self.m, "m"))
        if self.m < 1:
            raise ValueError(f"m must be >= 1, got {self.m!r}")

        if self.family == "fdp":
            if self.gamma is None or not 0.0 <= self.gamma < 1.0:
                raise ValueError("fdp family requires gamma in [0, 1)")
        elif self.gamma is not None:
            raise ValueError("gamma is only meaningful for the fdp family")

        if self.family == "bootstrap":
            draws = np.asarray(self.draws, dtype=float)
            if draws.ndim != 2 or draws.shape[1] != self.m or draws.shape[0] < 2:
                raise ValueError(
                    "bootstrap draws must be a B x m matrix with B >= 2, "
                    f"got shape {getattr(draws, 'shape', None)!r}"
                )
            if not np.isfinite(draws).all():
                raise ValueError("bootstrap draws must be finite")
            object.__setattr__(self, "draws", draws)
        elif self.draws is not None:
            raise ValueError("draws are only meaningful for the bootstrap family")

        if self.family == "fixed":
            if self.table is None or len(self.table) != self.m:
                raise ValueError("fixed family requires a length-m table")
            table = tuple(float(v) for v in self.table)
            if any(not math.isfinite(v) or v <= 0.0 for v in table):
                raise ValueError("fixed thresholds must be positive and finite")
            object.__setattr__(self, "table", table)
        elif self.table is not None:
            raise ValueError("table is only meaningful for the fixed family")

        procedure = self.procedure
        if not procedure:
            procedure = STEP_UP if self.family in ("bh", "by") else STEP_DOWN
            object.__setattr__(self, "procedure", procedure)
        if procedure not in (STEP_DOWN, STEP_UP):
            raise ValueError(f"unknown procedure {procedure!r}")
        allowed = (
            _STEP_DOWN_FAMILIES if procedure == STEP_DOWN else _STEP_UP_FAMILIES
        )
        if self.family not in allowed:
            raise ValueError(
                f"family {self.family!r} cannot drive a {procedure} procedure"
            )
        if self.family == "fixed":
            pairs = zip(self.table, self.table[1:])
            if procedure == STEP_DOWN and any(b > a for a, b in pairs):
                raise ValueError("a step-down fixed table must be non-increasing")
            if procedure == STEP_UP and any(b < a for a, b in pairs):
                raise ValueError("a step-up fixed table must be non-decreasing")

    @cached_property
    def steps(self) -> np.ndarray | None:
        """Read-only critical values by step j = 1..m; None for ``bootstrap``.

        Computed once per spec.  A step whose tail level leaves no positive
        threshold holds NaN; :func:`threshold_value` and
        :func:`thresholds_by_step` raise for it.
        """
        if self.family == "bootstrap":
            return None
        if self.family == "fixed":
            values = np.array(self.table, dtype=float)
        else:
            values = np.array(
                [_quantile_threshold(self, j) for j in range(1, self.m + 1)]
            )
        values.flags.writeable = False
        return values


def _tail_level(spec: ThresholdSpec, step: int) -> float:
    """Nominal tail level alpha_j at step j (1-based), before sidedness."""
    m, level = spec.m, spec.level
    if spec.family == "bonferroni":
        return level / m
    if spec.family == "sidak":
        return 1.0 - (1.0 - level) ** (1.0 / m)
    if spec.family == "holm":
        return level / (m + 1 - step)
    if spec.family == "sidak_holm":
        return 1.0 - (1.0 - level) ** (1.0 / (m + 1 - step))
    if spec.family == "fdp":
        fl = math.floor(spec.gamma * step)
        return (fl + 1) * level / (m + fl + 1 - step)
    if spec.family == "bh":
        return (m - step + 1) * level / m
    if spec.family == "by":
        return (m - step + 1) * level / (m * _harmonic(m))
    raise AssertionError(spec.family)


def _quantile_threshold(spec: ThresholdSpec, step: int) -> float:
    """Critical value at step j, or NaN if its tail level is not in (0, 1/2)."""
    tail = _tail_level(spec, step)
    if spec.sided == "two":
        tail /= 2.0
    if not 0.0 < tail < 0.5:
        return math.nan
    return normal_quantile(1.0 - tail)


def _missing_step(spec: ThresholdSpec, step: int) -> NoReturn:
    raise ValueError(
        f"step {step} of the {spec.family!r} family leaves no positive threshold"
    )


def _bootstrap_threshold(spec: ThresholdSpec, columns: np.ndarray) -> float:
    values = spec.draws[:, columns]
    if spec.sided == "two":
        values = np.abs(values)
    row_max = values.max(axis=1)
    b = row_max.shape[0]
    # inf{t : (1/B) sum 1(max <= t) >= 1 - level} is the order statistic
    # at index ceil((1 - level) B).
    rank = min(max(math.ceil((1.0 - spec.level) * b), 1), b)
    return float(np.partition(row_max, rank - 1)[rank - 1])


def threshold_value(spec: ThresholdSpec, subset: Iterable[int]) -> float:
    """Critical value x̄(A) for a subset A of 0-based hypothesis indices.

    For the cardinality families the value depends on A only through its
    size |A|, read as step index j = m - |A| + 1.  The bootstrap family uses
    the actual columns of A.
    """
    idx = np.unique(np.asarray(list(subset), dtype=int))
    if idx.size == 0:
        raise ValueError("threshold is undefined for the empty subset")
    if idx.min() < 0 or idx.max() >= spec.m:
        raise ValueError(f"subset indices out of range for m={spec.m}")
    step = spec.m - idx.size + 1
    if spec.family != "bootstrap":
        value = float(spec.steps[step - 1])
        if math.isnan(value):
            _missing_step(spec, step)
        return value
    value = _bootstrap_threshold(spec, idx)
    if not math.isfinite(value) or value <= 0.0:
        raise ValueError(f"threshold for |A|={idx.size} is not positive finite")
    return value


def thresholds_by_step(spec: ThresholdSpec) -> np.ndarray | None:
    """Critical values indexed by step j = 1..m, or None if set-dependent.

    Step-down sequences are non-increasing, step-up sequences non-decreasing.
    Only the bootstrap family genuinely depends on the subset beyond its
    size, so it is the only family returning None.  The array is the spec's
    read-only :attr:`ThresholdSpec.steps`; a step without a positive
    threshold raises ``ValueError``.
    """
    steps = spec.steps
    if steps is not None and np.isnan(steps).any():
        _missing_step(spec, int(np.isnan(steps).argmax()) + 1)
    return steps


@dataclass(frozen=True)
class SelectionOutcome:
    """Result of a selection procedure.

    ``significant`` is in detection order: weakly decreasing statistics for
    step-down; for step-up all detections happen at the first exceedance and
    are listed from the largest statistic down.  ``per_step_threshold``
    holds, for each detected effect, the critical value it was compared
    against.
    """

    significant: tuple[int, ...]
    insignificant: tuple[int, ...]
    per_step_threshold: tuple[float, ...]
    procedure_kind: str

    @property
    def significant_set(self) -> frozenset[int]:
        return frozenset(self.significant)


def _walk(x: np.ndarray, spec: ThresholdSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Run the procedure on every column of an m x k statistic matrix.

    Column c of ``order`` lists column c's hypotheses as the procedure does,
    the significant ones in its first ``count[c]`` rows: step-down from the
    largest score down (ties by ascending index) until one is below its
    step's threshold; step-up from the largest down to the first exceedance
    of its walk up from the smallest.  ``met`` holds the critical values the
    ``bootstrap`` walk met (NaN past a column's last); the other families
    meet ``spec.steps`` and get None.  A NaN statistic raises ``ValueError``,
    as does a step without a threshold: under step-down where a column
    reaches it, under step-up up front.
    """
    score = np.abs(x) if spec.sided == "two" else x
    m, k = score.shape
    up = spec.procedure == STEP_UP
    order = np.argsort(score if up else -score, axis=0, kind="stable")
    ranked = score[order, np.arange(k)]
    # argsort puts NaN last, so the last row shows whether there is any
    if np.isnan(ranked[-1]).any():
        raise ValueError("statistics must not be NaN")
    steps = spec.steps
    if up:
        # step-up tail levels fall with the step, so steps without a
        # threshold come first and every walk reaches them
        if math.isnan(steps[0]):
            _missing_step(spec, 1)
        exceeds = ranked >= steps[:, None]
        count = np.where(exceeds.any(axis=0), m - exceeds.argmax(axis=0), 0)
        return order[::-1], count, None
    if steps is None:
        met = np.full((m, k), np.nan)
        count = np.full(k, m)
        for c in range(k):
            for j in range(m):
                met[j, c] = threshold_value(spec, order[j:, c])
                if ranked[j, c] < met[j, c]:
                    count[c] = j
                    break
        return order, count, met
    # step-down tail levels grow with the step, so steps without a threshold
    # (NaN) come last; they fail no score, so a column passes the first of
    # them exactly when it reaches it
    fails = ranked < steps[:, None]
    count = np.where(fails.any(axis=0), fails.argmax(axis=0), m)
    if math.isnan(steps[-1]) and k and count.max() > np.isnan(steps).argmax():
        _missing_step(spec, int(np.isnan(steps).argmax()) + 1)
    return order, count, None


def select(x, spec: ThresholdSpec) -> SelectionOutcome | np.ndarray:
    """Run the procedure the spec is configured for.

    Step-down tests the j-th largest statistic (absolute value under
    two-sided testing) against the threshold of the not-yet-rejected set,
    the last one like any other, matching the set-level characterization of
    the procedure.  Step-up selects the first statistic, walking up from the
    smallest, that exceeds its threshold and every larger one.

    A length-m vector gives its :class:`SelectionOutcome`.  An m x k matrix,
    one statistic vector per column, gives a boolean matrix of the same
    shape whose column c marks the significant set of column c, from one
    walk over every column.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim not in (1, 2) or x.shape[0] != spec.m:
        raise ValueError(f"expected {spec.m} statistics, got shape {x.shape}")
    order, count, met = _walk(x if x.ndim == 2 else x[:, None], spec)
    if x.ndim == 2:
        member = np.empty(order.shape, dtype=bool)
        member[order, np.arange(count.size)] = np.arange(spec.m)[:, None] < count
        return member
    listed, n = order[:, 0].tolist(), int(count[0])
    if spec.procedure == STEP_UP:
        thresholds = [float(spec.steps[-n])] * n if n else []
    else:
        thresholds = (spec.steps if met is None else met[:, 0])[:n].tolist()
    return SelectionOutcome(
        tuple(listed[:n]), tuple(sorted(listed[n:])), tuple(thresholds), spec.procedure
    )


def step_down_select(x, spec: ThresholdSpec) -> SelectionOutcome | np.ndarray:
    """:func:`select` for a spec that drives a step-down procedure."""
    if spec.procedure != STEP_DOWN:
        raise ValueError(f"spec drives a {spec.procedure} procedure")
    return select(x, spec)


def step_up_select(x, spec: ThresholdSpec) -> SelectionOutcome | np.ndarray:
    """:func:`select` for a spec that drives a step-up procedure."""
    if spec.procedure != STEP_UP:
        raise ValueError(f"spec drives a {spec.procedure} procedure")
    return select(x, spec)


_MASK32 = 0xFFFFFFFF


def _hashmix(multiplier: int, step: int):
    """SeedSequence's hash of uint32 words: xor with a multiplier, advance
    it by ``step``, multiply by it and fold the high half into the low."""

    def hashmix(value):
        nonlocal multiplier
        value = value ^ np.uint32(multiplier)
        multiplier = multiplier * step & _MASK32
        value = value * np.uint32(multiplier)
        return value ^ value >> np.uint32(16)

    return hashmix


def stream_keys(seed: int, indices) -> np.ndarray:
    """Philox keys of the streams keyed by (seed, b) for every b in ``indices``.

    Row b equals ``SeedSequence(entropy=seed, spawn_key=(b,)).generate_state(
    2, np.uint64)``: a port of SeedSequence's entropy pool to uint32 arrays
    over the indices, in which everything before the spawn word depends on
    the seed alone and is computed once.  Indices must lie in [0, 2**32),
    where the spawn key is a single word.
    """
    seed = as_index(seed, "seed")
    indices = np.asarray(indices)
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed!r}")
    if indices.size and not (0 <= indices.min() and indices.max() <= _MASK32):
        raise ValueError("stream indices must lie in [0, 2**32)")
    # the seed's 32-bit words, zero-padded to the pool size of 4
    words = [np.uint32(seed >> k & _MASK32) for k in range(0, seed.bit_length(), 32)]
    words += [np.uint32(0)] * (4 - len(words))
    hashmix = _hashmix(0x43B0D7E5, 0x931E8875)

    def mix(x, y):
        value = x * np.uint32(0xCA01F9DD) - y * np.uint32(0x4973F715)
        return value ^ value >> np.uint32(16)

    with np.errstate(over="ignore"):
        pool = [hashmix(word) for word in words[:4]]
        for src in range(4):
            for dst in range(4):
                if src != dst:
                    pool[dst] = mix(pool[dst], hashmix(pool[src]))
        for word in words[4:] + [indices.astype(np.uint32)]:
            for dst in range(4):
                pool[dst] = mix(pool[dst], hashmix(word))
        output = _hashmix(0x8B51F9DD, 0x58F38DED)
        state = [output(word).astype(np.uint64) for word in pool]
    high = np.uint64(32)
    return np.stack((state[0] | state[1] << high, state[2] | state[3] << high), axis=-1)


def keyed_streams(seed: int, n: int) -> Iterator[np.random.Generator]:
    """The generators of the Philox streams keyed by (seed, 0), ...,
    (seed, n - 1), in order.  One generator is re-keyed in place for each
    stream, so draw from it before taking the next."""
    bit_generator = np.random.Philox(0)
    rng = np.random.Generator(bit_generator)
    state = bit_generator.state
    for key in stream_keys(seed, np.arange(n)):
        state["state"]["key"] = key
        bit_generator.state = state
        yield rng


def wild_bootstrap_draws(
    residuals: np.ndarray,
    cluster_ids: Sequence,
    n_draws: int,
    seed: int,
) -> np.ndarray:
    """Rademacher wild-cluster bootstrap t-statistics.

    Each replicate multiplies all residual rows of a cluster by one
    Rademacher weight (+1 or -1 with probability 1/2), estimates every
    column by its weighted mean, and studentizes with the cluster-robust
    standard error of that replicate.  The variance sums squared
    within-cluster score totals (not demeaned: the bootstrap is calibrated
    under the zero null).  Replicate b depends only on (seed, b), so draws
    can be generated in parallel and concatenated in index order.
    """
    residuals = np.asarray(residuals, dtype=float)
    if residuals.ndim != 2:
        raise ValueError("residuals must be an n x m matrix")
    n, m = residuals.shape
    cluster_ids = np.asarray(cluster_ids)
    if cluster_ids.shape != (n,):
        raise ValueError("cluster_ids must have one label per residual row")
    n_draws = as_index(n_draws, "n_draws")
    if n_draws < 2:
        raise ValueError("at least 2 bootstrap draws are required")
    _, inverse = np.unique(cluster_ids, return_inverse=True)
    n_clusters = int(inverse.max()) + 1
    cluster_sums = np.zeros((n_clusters, m))
    np.add.at(cluster_sums, inverse, residuals)
    # the weights square to one, so every replicate has the same standard
    # error, and a replicate's estimates are its weights times the cluster sums
    se = np.sqrt((cluster_sums**2).sum(axis=0) / n**2)
    if np.any(se <= 0.0) or not np.all(np.isfinite(se)):
        raise ZeroVarianceError("the replicates have a degenerate standard error")
    out = np.empty((n_draws, m))
    for b, rng in enumerate(keyed_streams(seed, n_draws)):
        out[b] = (rng.integers(0, 2, size=n_clusters) * 2 - 1) @ cluster_sums
    out /= n
    out /= se
    return out


def save_bootstrap_draws(path, draws: np.ndarray) -> None:
    """Write draws as headerless CSV, one bootstrap replicate per row."""
    draws = np.asarray(draws, dtype=float)
    if draws.ndim != 2:
        raise ValueError("draws must be a B x m matrix")
    np.savetxt(path, draws, delimiter=",")


def load_bootstrap_draws(path) -> np.ndarray:
    """Read a headerless CSV of bootstrap t-statistics (B rows, m columns)."""
    draws = np.loadtxt(path, delimiter=",", ndmin=2)
    if draws.shape[0] < 2:
        raise ValueError("bootstrap draws need at least 2 rows")
    return draws
