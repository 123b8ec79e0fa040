"""Exact conditional support of a selected t-statistic.

Holding the nuisance direction fixed, every coordinate of the t-statistic
vector is a line s_h(x) = a_h x + b_h in the selected statistic x.  The set
of x that reproduce the observed selection outcome is a finite union of
closed intervals.

Every family but ``bootstrap`` has thresholds that depend only on how many
hypotheses remain, and then the outcome depends on x only through the
counts N_c(x) = #{h : s_h(x) >= c} at the step thresholds c:

- a step-down walk with t_1 >= ... >= t_m passes step j exactly when
  N_{t_j}(x) >= j, and selects {h : s_h(x) >= t_{J+1}} after passing J steps;
- a step-up walk with u_r = t_{m-r+1} selects the R* = max{r : N_{u_r} >= r}
  largest statistics, {h : s_h(x) >= u_{R*}}.

So only crossings of a line with a threshold level change the outcome;
crossings between two lines never do.  Under two-sided testing |s| >= c > 0
holds for exactly one of s and -s, so the count runs over the 2m lines
±(a_h, b_h).  The count engine cuts the line at each level's crossings,
counts the lines at or above the level in every cell with one cumulative
sum, and returns the admitted cells as already-merged intervals (Lee, Sun,
Sun & Taylor 2016 truncate along the same line through the data).

Each level is cut only inside a window of its own.  Under a step-down
``superset`` event step j can fail only where some required score is below
t_j, so level j's window is the hull of that set: its edges are crossings
of required lines with the level (cuts anyway) or edges of the event's
window, and a level whose hull is empty is not cut at all.  Finding every
line's crossing with every level still costs O(m²) per support, but only
the lines that cross some level inside its window are sorted and counted,
and on the paper's inputs those are few.

The ``bootstrap`` thresholds x̄(A) depend on the set A of remaining
hypotheses, so its support follows the step-down walk itself.  A window
comes first, from the count engine's helpers: under ``equal(S)`` every
other score stays below x̄(comp); under a one-sided ``superset(R)`` every
required score clears x̄({h}).  The walked lines' order is fixed between
the points where two of them (or, two-sided, one and the other's mirror or
zero) cross, so in each such cell one walk in that order cuts the cell to
the x where every step's score clears its threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .stats_core import DegenerateSupportError, IntervalUnion
from .testing import (
    STEP_DOWN,
    SelectionOutcome,
    ThresholdSpec,
    _batch_membership,
    select,
    threshold_value,
    thresholds_by_step,
)

_INF = math.inf

#: Relative tolerance below which nearby bootstrap breakpoints are collapsed.
BREAKPOINT_TOL = 1e-12

#: Relative gap below which adjacent support pieces are coalesced.
MERGE_TOL = 1e-10

#: Most (level, line) crossings the count engine holds at once.
_BLOCK = 1 << 18

_NOTHING = (np.empty(0), np.empty(0))
_EVERYWHERE = (-_INF, _INF)


class InconsistentEventError(ValueError):
    """The observed statistic is not a member of the computed support."""


@dataclass(eq=False)
class Decomposition:
    """Split of the t-statistic vector along the selected coordinate.

    ``omega_col * x_s + z`` reconstructs the full vector; ``z`` is the part
    independent of ``x_s`` under joint Gaussianity, with ``z[s] == 0``.
    """

    s: int
    x_s: float
    z: np.ndarray
    omega_col: np.ndarray


def decompose(x: Sequence[float], omega: np.ndarray, s: int) -> Decomposition:
    """Decompose statistics ``x`` against correlation matrix ``omega`` at s."""
    x = np.asarray(x, dtype=float)
    omega = np.asarray(omega, dtype=float)
    m = x.shape[0]
    if x.ndim != 1 or omega.shape != (m, m):
        raise ValueError(
            f"shape mismatch: x has {x.shape}, omega has {omega.shape}"
        )
    if not 0 <= s < m:
        raise ValueError(f"selected index {s} out of range for m={m}")
    scale = max(1.0, float(np.abs(omega).max()))
    if np.abs(omega - omega.T).max() > 1e-8 * scale:
        raise ValueError("omega must be symmetric")
    if np.abs(np.diag(omega) - 1.0).max() > 1e-12:
        raise ValueError("omega must have a unit diagonal")
    return _decompose(x, omega, s)


def _decompose(x: np.ndarray, omega: np.ndarray, s: int) -> Decomposition:
    """:func:`decompose` without its checks, for float ``x`` and ``omega``
    of matching shapes where ``omega`` is symmetric with a unit diagonal by
    construction (as :func:`~condinfer.inference.studentize` returns it)."""
    col = omega[:, s].copy()
    z = x - col * x[s]
    z[s] = 0.0
    return Decomposition(s=s, x_s=float(x[s]), z=z, omega_col=col)


@dataclass(frozen=True)
class SelectionEvent:
    """Conditioning event: the exact significant set, or containment of one.

    ``equal(S)`` conditions on the procedure returning exactly S;
    ``superset(R)`` conditions on every member of R being significant while
    staying agnostic about the rest.
    """

    kind: str
    indices: frozenset[int]

    def __post_init__(self) -> None:
        if self.kind not in ("equal", "superset"):
            raise ValueError(f"unknown event kind {self.kind!r}")
        object.__setattr__(self, "indices", frozenset(int(i) for i in self.indices))
        if self.kind == "superset" and not self.indices:
            raise ValueError("a superset event needs a nonempty target set")

    @classmethod
    def equal(cls, significant: Iterable[int]) -> "SelectionEvent":
        return cls("equal", frozenset(significant))

    @classmethod
    def superset(cls, required: Iterable[int]) -> "SelectionEvent":
        return cls("superset", frozenset(required))


def _event_holds(outcome: SelectionOutcome, event: SelectionEvent) -> bool:
    got = outcome.significant_set
    if event.kind == "equal":
        return got == event.indices
    return event.indices <= got


def membership_oracle(
    x_s: float, d: Decomposition, spec: ThresholdSpec, event: SelectionEvent
) -> bool:
    """Does setting the selected statistic to ``x_s`` reproduce the event?

    Runs the full selection procedure on the reconstructed vector; this is
    the ground truth the support computation is checked against.
    """
    vec = d.omega_col * x_s + d.z
    return _event_holds(select(vec, spec), event)


def membership_profile(
    xs: Sequence[float], d: Decomposition, spec: ThresholdSpec, event: SelectionEvent
) -> np.ndarray:
    """Vectorized :func:`membership_oracle` over a grid of x_s values."""
    xs = np.asarray(xs, dtype=float)
    if thresholds_by_step(spec) is None:
        return np.asarray([membership_oracle(x, d, spec, event) for x in xs])
    matrix = d.omega_col[:, None] * xs[None, :] + d.z[:, None]
    member = _batch_membership(matrix, spec)
    mask = np.zeros(spec.m, dtype=bool)
    mask[list(event.indices)] = True
    if event.kind == "equal":
        return (member == mask[:, None]).all(axis=0)
    return member[mask].all(axis=0)


def merge_intervals(
    raw: Iterable[tuple[float, float]], tol: float = MERGE_TOL
) -> IntervalUnion:
    """Coalesce raw (lo, hi) pieces into a sorted disjoint union.

    Pieces whose gap is below ``tol`` (relative to the endpoint magnitudes)
    are merged; the discarded gaps have measure zero at the scale the
    truncated CDF can resolve.
    """
    pieces = []
    for lo, hi in raw:
        lo, hi = float(lo), float(hi)
        if math.isnan(lo) or math.isnan(hi):
            raise ValueError("interval endpoints must not be NaN")
        if lo > hi:
            raise ValueError(f"interval has lo > hi: ({lo}, {hi})")
        pieces.append((lo, hi))
    pieces.sort()
    merged: list[tuple[float, float]] = []
    for lo, hi in pieces:
        if merged:
            prev_lo, prev_hi = merged[-1]
            scale = max(
                1.0,
                abs(lo) if math.isfinite(lo) else 1.0,
                abs(prev_hi) if math.isfinite(prev_hi) else 1.0,
            )
            if lo <= prev_hi + tol * scale:
                merged[-1] = (prev_lo, max(prev_hi, hi))
                continue
        merged.append((lo, hi))
    return IntervalUnion(tuple(merged))


# ---------------------------------------------------------------------------
# count engine (cardinality families)
# ---------------------------------------------------------------------------


def _lines(a, b, two, rows=slice(None)):
    """Slopes and intercepts of the lines a count runs over: the scores of
    ``rows`` and, under two-sided testing, their negatives after them."""
    a, b = a[rows], b[rows]
    if two:
        return np.concatenate((a, -a)), np.concatenate((b, -b))
    return a, b


def _window(a, b, c, strict):
    """Interval of x where every line a x + b is at most c, or None.

    A flat line is compared as is: below c if ``strict``, else at most c.
    """
    flat = a == 0.0
    if np.any(b[flat] >= c if strict else b[flat] > c):
        return None
    cross = (c - b[~flat]) / a[~flat]
    lo = float(cross[a[~flat] < 0.0].max(initial=-_INF))
    hi = float(cross[a[~flat] > 0.0].min(initial=_INF))
    return (lo, hi) if lo <= hi else None


def _quiet_window(a, b, rows, c, two):
    """Interval where no score in ``rows`` reaches c (closed at sloped lines)."""
    if not rows.size:
        return _EVERYWHERE
    return _window(*_lines(a, b, two, rows), c, True)


def _level_cells(a, b, levels, group, w_lo, w_hi):
    """Cells of each level's own window, cut where a line meets the level.

    Row i cuts [w_lo[i], w_hi[i]] at the crossings of ``levels[i]`` strictly
    inside it; a crossing at or left of w_lo[i] only adds its step to the
    row's first count.  Every crossing is computed and compared with the
    window (O(levels x lines)), but only the lines with an inner crossing at
    some level are sorted, and columns past the widest row's count of inner
    crossings are dropped after the sort, so a narrower row ends in cells
    of zero length at w_hi[i], which the caller drops.  Returns the cell
    edges (``edges[i, c]`` to ``edges[i, c + 1]`` is cell c) and the
    counts: ``counts[0][i, c]`` is the number of lines at or above the
    level in cell c, and ``counts[1]`` the number among the lines in
    ``group`` (a boolean mask), if one is given.
    """
    w_lo, w_hi = w_lo[:, None], w_hi[:, None]
    # a flat line (its slope made +0.0) crosses at -inf above the level,
    # +inf below it and NaN on it, so the ones that clear the level count
    # as crossed at or left of w_lo
    with np.errstate(divide="ignore", invalid="ignore"):
        cross = (levels[:, None] - b) / (a + 0.0)
    past = ~(cross > w_lo)
    inner = ~past & (cross < w_hi)
    # a rising or flat line is at or above the level right of its crossing,
    # a falling one left of it; just right of w_lo, exactly the lines that
    # are either falling or crossed at or left of w_lo are at or above it
    fall = a < 0.0
    above = past ^ fall
    steps = np.where(fall, -1, 1)
    starts, weights = [np.count_nonzero(above, axis=1)], [steps]
    if group is not None:
        starts.append(np.count_nonzero(above & group, axis=1))
        weights.append(steps * group)
    # only the lines that cross some level inside its window are sorted;
    # every other crossing of theirs moves onto w_hi, after the inner ones
    lines = np.flatnonzero(inner.any(axis=0))
    cross, inner = cross.take(lines, axis=1), inner.take(lines, axis=1)
    np.copyto(cross, w_hi, where=~inner)
    order = cross.argsort(axis=1)[:, : np.count_nonzero(inner, axis=1).max()]
    # gathered through the flat index of (row, column), faster than a 2-D one
    sorted_cross = cross.take(order + lines.size * np.arange(levels.size)[:, None])
    edges = np.concatenate((w_lo, sorted_cross, w_hi), axis=1)
    counts = [
        np.concatenate((start[:, None], ws.take(lines).take(order)), axis=1).cumsum(axis=1)
        for start, ws in zip(starts, weights)
    ]
    return edges, counts


def _flagged(a, b, levels, flag, bounds, group=None):
    """Pieces (lo, hi) covering the cells where ``flag(rows, counts)`` holds.

    Level i is cut only inside its own window [w_lo[i], w_hi[i]], where
    ``bounds`` is (w_lo, w_hi).  ``rows`` is the slice of ``levels`` in the
    current block, so a flag can index per-level requirements with it.  A
    run of flagged cells within a level comes back as one piece.
    """
    w_lo, w_hi = bounds
    los, his = [np.empty(0)], [np.empty(0)]
    per = max(1, _BLOCK // (a.size + 1))
    for start in range(0, levels.size, per):
        rows = slice(start, start + per)
        edges, counts = _level_cells(a, b, levels[rows], group, w_lo[rows], w_hi[rows])
        keep = np.zeros((edges.shape[0], edges.shape[1] + 1), dtype=bool)
        keep[:, 1:-1] = (edges[:, :-1] < edges[:, 1:]) & flag(rows, counts)
        # row by row, keep changes at a run's first lo and then its last hi
        ends = edges[keep[:, 1:] != keep[:, :-1]]
        los.append(ends[0::2])
        his.append(ends[1::2])
    return np.concatenate(los), np.concatenate(his)


def _per_level(window, n):
    """One window as the bounds of each of n levels."""
    return np.full(n, window[0]), np.full(n, window[1])


def _gaps(window, *pieces):
    """Complement inside the window of the union of closed (lo, hi) pieces."""
    lo = np.concatenate([p[0] for p in pieces])
    order = lo.argsort(kind="stable")
    # a gap opens wherever a piece starts past the reach of those before it
    reach = np.maximum.accumulate(np.concatenate([p[1] for p in pieces])[order])
    lo = np.concatenate((lo[order], [window[1]]))
    hi = np.concatenate(([window[0]], reach))
    keep = hi < lo
    return hi[keep], lo[keep]


def _below_hull(a, b, levels, two, window):
    """Per level, the hull inside the window of {x : some score < level}.

    The scores are those of the lines (a, b), both signs under two-sided
    testing.  Each edge of a nonempty hull is a line's crossing with the
    level or an edge of the window, so cutting a level only inside its hull
    leaves every cell there as it was.  An empty hull comes back with
    lo >= hi.
    """
    flat = a == 0.0
    under = None
    if flat.any():
        # a flat score below the level is below it everywhere
        under = levels > (np.abs(b[flat]) if two else b[flat]).min()
        a, b = a[~flat], b[~flat]
    cross = (levels[:, None] - b) / a
    lo = np.minimum.reduce(cross, axis=1, initial=_INF)
    hi = np.maximum.reduce(cross, axis=1, initial=-_INF)
    # under two-sided testing |s| < t between the crossings of s and -s;
    # one-sided, a rising score is below the level left of its crossing
    # and a falling one right of it
    if not two and (a > 0.0).any():
        lo[:] = -_INF
    if not two and (a < 0.0).any():
        hi[:] = _INF
    if under is not None:
        lo[under], hi[under] = -_INF, _INF
    return np.maximum(lo, window[0]), np.minimum(hi, window[1])


def _member(inside, m, two):
    """Mask of the lines of :func:`_lines` whose score is one in ``inside``."""
    mask = np.zeros(m, dtype=bool)
    mask[inside] = True
    return np.concatenate((mask, mask)) if two else mask


def _count_step_down(a, b, t, event, two):
    m = t.size
    inside = sorted(event.indices)
    k = len(inside)
    if event.kind == "equal":
        # every other score stays below t_{k+1}, which leaves one window;
        # inside it only the S lines can change N_{t_j} for j <= k
        comp = np.setdiff1d(np.arange(m), inside)
        window = _quiet_window(a, b, comp, t[k] if k < m else _INF, two)
        if window is None:
            return _NOTHING
        la, lb = _lines(a, b, two, inside)
        need = np.arange(1, k + 1)
        bad = _flagged(
            la, lb, t[:k], lambda rows, n: n[0] < need[rows, None], _per_level(window, k)
        )
        return _gaps(window, bad)
    # step j either passes or every required score already clears t_j, so
    # level j is cut only where some required score is below t_j
    window = _EVERYWHERE if two else _window(-a[inside], -b[inside], -t[-1], False)
    if window is None:
        return _NOTHING
    la, lb = _lines(a, b, two)
    mine = _member(inside, m, two)
    w_lo, w_hi = _below_hull(la[mine], lb[mine], t, two, window)
    live = w_lo < w_hi
    need = np.flatnonzero(live) + 1

    def bad_step(rows, n):
        return (n[0] < need[rows, None]) & (n[1] < k)

    bad = _flagged(la, lb, t[live], bad_step, (w_lo[live], w_hi[live]), mine)
    return _gaps(window, bad)


def _count_step_up(a, b, t, event, two):
    m = t.size
    u = t[::-1]  # u[r - 1] is the critical value met with r selections
    inside = sorted(event.indices)
    k = len(inside)
    if event.kind == "equal":
        # R* = k: the S lines clear u_k, the others stay below it, and no
        # r > k finds r scores at or above u_r, i.e. r - k of the others
        comp = np.setdiff1d(np.arange(m), inside)
        window = _quiet_window(a, b, comp, u[k - 1], two)
        if window is None:
            return _NOTHING
        sa, sb = _lines(a, b, two, inside)
        ca, cb = _lines(a, b, two, comp)
        need = np.arange(1, m - k + 1)
        bad_s = _flagged(sa, sb, u[k - 1 : k], lambda rows, n: n[0] < k, _per_level(window, 1))
        bad_c = _flagged(
            ca, cb, u[k:], lambda rows, n: n[0] >= need[rows, None], _per_level(window, m - k)
        )
        return _gaps(window, bad_s, bad_c)
    # R is selected as soon as some r has N_{u_r} >= r with R at or above u_r
    window = _EVERYWHERE if two else _window(-a[inside], -b[inside], -u[-1], False)
    if window is None:
        return _NOTHING
    la, lb = _lines(a, b, two)
    need = np.arange(1, m + 1)

    def good(rows, n):
        return (n[0] >= need[rows, None]) & (n[1] >= k)

    admitted = _flagged(la, lb, u, good, _per_level(window, m), _member(inside, m, two))
    # their union, as the complement of their gaps
    return _gaps(_EVERYWHERE, _gaps(_EVERYWHERE, admitted))


# ---------------------------------------------------------------------------
# bootstrap path (set-dependent thresholds; membership_oracle is the reference)
# ---------------------------------------------------------------------------


def _dedup_sorted(points: np.ndarray, tol: float = BREAKPOINT_TOL) -> np.ndarray:
    if points.size == 0:
        return points
    keep = [points[0]]
    for p in points[1:]:
        if p - keep[-1] > tol * max(1.0, abs(p), abs(keep[-1])):
            keep.append(p)
    return np.asarray(keep)


def _breakpoints_brute(a, b, rows, two, w_lo, w_hi):
    """Every crossing of two of the rows' lines (:func:`_lines`) strictly
    inside the window, sorted and deduplicated.  Under two-sided testing
    these include a line meeting another's mirror and its own (a sign
    change), where the ordering of the magnitudes changes."""
    la, lb = _lines(a, b, two, np.asarray(rows, dtype=int))
    i, j = np.triu_indices(la.size, k=1)
    da = la[i] - la[j]
    nz = da != 0.0
    points = (lb[j] - lb[i])[nz] / da[nz]
    return _dedup_sorted(np.unique(points[(points > w_lo) & (points < w_hi)]))


def _partition(
    points: np.ndarray, w_lo: float, w_hi: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Cells of the window split at the breakpoints, with interior probes.

    Unbounded cells probe one unit inside their finite endpoint; both-ways
    unbounded falls back to 0.
    """
    edges = np.concatenate(([w_lo], points, [w_hi]))
    los, his = edges[:-1], edges[1:]
    reps = np.empty_like(los)
    finite = np.isfinite(los) & np.isfinite(his)
    reps[finite] = 0.5 * (los[finite] + his[finite])
    left_open = ~np.isfinite(los) & np.isfinite(his)
    reps[left_open] = his[left_open] - 1.0
    right_open = np.isfinite(los) & ~np.isfinite(his)
    reps[right_open] = los[right_open] + 1.0
    reps[~np.isfinite(los) & ~np.isfinite(his)] = 0.0
    return los, his, reps


def _cellwise(a, b, spec, event):
    """Pieces of the bootstrap support: in each cell, one step-down walk.

    ``equal(S)`` walks the S lines, the j-th against x̄ of the S lines from
    it on plus comp; ``superset(R)`` walks all lines until it has passed the
    last required one, the j-th against x̄ of the lines from it on.
    """
    two = spec.sided == "two"
    inside = sorted(event.indices)
    if event.kind == "equal":
        rows, rest = inside, [h for h in range(spec.m) if h not in event.indices]
        c = threshold_value(spec, rest) if rest else _INF
        window = _quiet_window(a, b, np.asarray(rest, dtype=int), c, two)
    else:
        rows, rest = list(range(spec.m)), []
        # a required score is tested at some x̄(A) >= x̄({h}), which bounds
        # x on one side only when the score is not a magnitude
        c = np.array([threshold_value(spec, [h]) for h in inside])
        window = _EVERYWHERE if two else _window(-a[inside], c - b[inside], 0.0, False)
    if window is None:
        return []
    los, his, probes = _partition(_breakpoints_brute(a, b, rows, two, *window), *window)
    v = a * probes[:, None] + b
    # a two-sided score of 0 gets sign 0, a flat line below every threshold
    sign = np.sign(v) if two else np.ones_like(v)
    # each cell's walk order: scores descending, ties by index as in select
    ranked = np.asarray(rows)[np.argsort(-(sign * v)[:, rows], axis=1, kind="stable")]
    a, b = a.tolist(), b.tolist()
    pieces = []
    for lo, hi, order, s in zip(los.tolist(), his.tolist(), ranked.tolist(), sign.tolist()):
        left = len(inside)
        for j, h in enumerate(order):
            t = threshold_value(spec, order[j:] + rest)
            # keep the x where s_h (a_h x + b_h) >= t
            sa, sb = s[h] * a[h], s[h] * b[h]
            if sa > 0.0:
                lo = max(lo, (t - sb) / sa)
            elif sa < 0.0:
                hi = min(hi, (t - sb) / sa)
            elif sb < t:
                break
            if lo > hi:
                break
            left -= h in event.indices
            if not left:
                pieces.append((lo, hi))
                break
    return pieces


# ---------------------------------------------------------------------------
# public entry point
# ---------------------------------------------------------------------------


def conditional_support(
    d: Decomposition, spec: ThresholdSpec, event: SelectionEvent
) -> IntervalUnion:
    """Closure of the x_s values compatible with the selection event.

    Cardinality families go through the count engine: the line is cut only
    where a score meets a step threshold, and each cell is kept or dropped
    by counting the scores at or above the threshold (step-down ``equal``
    counts only the S lines inside the window the other lines leave).  The
    ``bootstrap`` family walks the step-down procedure once per cell between
    the ordering breakpoints of the walked lines, inside a window from the
    same helpers (see the module docstring).

    Raises :class:`DegenerateSupportError` when the event admits no value at
    all, and :class:`InconsistentEventError` when the observed statistic is
    not a member of the computed support (the event does not describe the
    data it was derived from).
    """
    a = np.asarray(d.omega_col, dtype=float)
    b = np.asarray(d.z, dtype=float)
    m = spec.m
    if a.shape != (m,) or b.shape != (m,):
        raise ValueError("decomposition size does not match spec.m")
    if event.kind == "equal" and not event.indices:
        raise ValueError("conditioning on an empty significant set is not supported")
    if any(not 0 <= h < m for h in event.indices):
        raise ValueError("event indices out of range")
    two = spec.sided == "two"
    steps = thresholds_by_step(spec)
    if steps is None:
        pieces = _cellwise(a, b, spec, event)
    else:
        engine = _count_step_down if spec.procedure == STEP_DOWN else _count_step_up
        lo, hi = engine(a, b, steps, event, two)
        pieces = list(zip(lo.tolist(), hi.tolist()))

    union = merge_intervals(pieces)
    if union.is_empty:
        raise DegenerateSupportError("the selection event admits no value of x_s")
    if not union.contains(d.x_s, tol=1e-9 * max(1.0, abs(d.x_s))):
        raise InconsistentEventError(
            f"observed statistic {d.x_s!r} is outside the support of the "
            f"{event.kind} event"
        )
    return union
