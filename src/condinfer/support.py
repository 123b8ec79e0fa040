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

The engine cuts a whole stack of problems that share one spec in one pass:
every (problem, level) pair is a row tagged with its problem, rows of small
problems share a block with a copy of their lines each, and the gaps are
taken per problem with a running maximum that restarts at each problem.  So
a solve pays the engine's fixed numpy cost once, not once per problem;
:func:`merge_intervals` still runs once per problem.  A single problem is
the stack of one.

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

#: Most crossings in a block that holds the levels of several problems.
_SHARED = 1 << 13

_EVERYWHERE = (-_INF, _INF)


class InconsistentEventError(ValueError):
    """The observed statistic is not a member of the computed support."""


@dataclass(eq=False)
class Decomposition:
    """Split of the t-statistic vector along the selected coordinate.

    ``omega_col * x_s + z`` reconstructs the full vector; ``z`` is the part
    independent of ``x_s`` under joint Gaussianity, with ``z[s] == 0``.  A
    stacked decomposition holds several problems: ``s`` and ``x_s`` are
    vectors and ``z`` and ``omega_col`` have one row per problem.
    """

    s: int | np.ndarray
    x_s: float | np.ndarray
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
    d = _decompose(x[None], omega[None], np.zeros(1, dtype=int), np.array([s]))
    return Decomposition(s=s, x_s=float(d.x_s[0]), z=d.z[0], omega_col=d.omega_col[0])


def _decompose(
    x: np.ndarray, omega: np.ndarray, rows: np.ndarray, s: np.ndarray
) -> Decomposition:
    """:func:`decompose` without its checks, stacked: problem i selects
    effect ``s[i]`` of row ``rows[i]`` of ``x`` (R x m) and ``omega``
    (R x m x m), float and of matching shapes, where ``omega`` is symmetric
    with a unit diagonal by construction (as
    :func:`~condinfer.inference.studentize` returns it)."""
    col = omega[rows, :, s]
    x_s = x[rows, s]
    z = x[rows] - col * x_s[:, None]
    z[np.arange(rows.size), s] = 0.0
    return Decomposition(s=s, x_s=x_s, z=z, omega_col=col)


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
#
# The engine cuts a stack of problems that share one spec: ``a`` and ``b``
# hold one row of lines per problem, every (problem, level) pair to cut is a
# row of its own tagged with its problem (its owner), and pieces come back
# as (owner, lo, hi) arrays grouped by owner.


def _lines(a, b, two, pick=None, dead=-_INF):
    """Slopes and intercepts of the lines a count runs over, along the last
    axis: the scores where the mask ``pick`` is set (all if None) and, under
    two-sided testing, their negatives after them.  A row that picks fewer
    scores than the most is padded with flat lines at ``dead``: -inf where a
    line must stay below a level (no count or window sees it), +inf where it
    must clear one."""
    if pick is not None:
        count = pick.sum(axis=-1)
        index = np.argsort(~pick, axis=-1, kind="stable")[..., : count.max(initial=0)]
        pad = np.arange(index.shape[-1]) >= count[..., None]
        a, b = np.take_along_axis(a, index, -1), np.take_along_axis(b, index, -1)
    if two:
        a, b = np.concatenate((a, -a), axis=-1), np.concatenate((b, -b), axis=-1)
    if pick is not None and pad.any():
        pad = np.concatenate((pad, pad), axis=-1) if two else pad
        a, b = np.where(pad, 0.0, a), np.where(pad, dead, b)
    return a, b


def _member(inside, two):
    """Mask of the lines of :func:`_lines` whose score is one in ``inside``."""
    return np.concatenate((inside, inside), axis=-1) if two else inside


def _everywhere(n):
    """The whole line as the window of each of n problems."""
    return np.full(n, -_INF), np.full(n, _INF)


def _window(a, b, c, strict):
    """Interval (lo, hi) of x where every line a x + b of a row (the last
    axis) is at most the row's c; lo > hi where there is none.

    A flat line is compared as is: below c if ``strict``, else at most c.
    """
    c = np.asarray(c, dtype=float)[..., None]
    with np.errstate(divide="ignore", invalid="ignore"):
        cross = (c - b) / a
    lo = np.where(a < 0.0, cross, -_INF).max(axis=-1, initial=-_INF)
    hi = np.where(a > 0.0, cross, _INF).min(axis=-1, initial=_INF)
    broken = ((a == 0.0) & ((b >= c) if strict else (b > c))).any(axis=-1)
    return np.where(broken, _INF, lo), np.where(broken, -_INF, hi)


def _quiet_window(a, b, pick, c, two):
    """Interval where no picked score reaches c (closed at sloped lines)."""
    return _window(*_lines(a, b, two, pick), c, True)


def _level_cells(a, b, levels, group, w_lo, w_hi):
    """Cells of each level's own window, cut where a line meets the level.

    Row i cuts [w_lo[i], w_hi[i]] at the crossings of ``levels[i]`` with the
    lines of row i of ``a`` and ``b`` (or of their one row, shared by every
    level) strictly inside it; a crossing at or left of w_lo[i] only adds
    its step to the row's first count.  Every crossing is computed and
    compared with the window (O(levels x lines)), but only the lines with an
    inner crossing in some row are sorted, and columns past the widest row's
    count of inner crossings are dropped after the sort, so a narrower row
    ends in cells of zero length at w_hi[i], which the caller drops.  Returns
    the cell edges (``edges[i, c]`` to ``edges[i, c + 1]`` is cell c) and the
    counts: ``counts[0][i, c]`` is the number of lines at or above the level
    in cell c, and ``counts[1]`` the number among the lines in ``group`` (a
    boolean mask shaped like ``a``), if one is given.
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
        np.concatenate(
            (start[:, None], np.take_along_axis(ws.take(lines, axis=1), order, axis=1)), axis=1
        ).cumsum(axis=1)
        for start, ws in zip(starts, weights)
    ]
    return edges, counts


def _flagged(a, b, levels, owner, flag, bounds, group=None):
    """Pieces (owner, lo, hi) covering the cells where ``flag(rows, counts)``
    holds.

    Row i cuts level ``levels[i]`` of problem ``owner[i]`` (non-decreasing),
    whose lines are row owner[i] of ``a``, ``b`` and ``group``, only inside
    its own window [w_lo[i], w_hi[i]], where ``bounds`` is (w_lo, w_hi).
    ``rows`` is the slice of rows in the current block, so a flag can index
    per-row requirements with it.  A run of flagged cells within a row comes
    back as one piece.  Problems share a block, with a copy of their lines
    per row, while it holds at most about ``_SHARED`` crossings; a larger
    problem is cut in blocks of its own, of up to about ``_BLOCK`` crossings,
    which share its one row of lines.
    """
    w_lo, w_hi = bounds
    owners, los, his = [np.empty(0, dtype=np.intp)], [np.empty(0)], [np.empty(0)]
    per = max(1, _BLOCK // (a.shape[1] + 1))
    few = max(1, _SHARED // (a.shape[1] + 1))
    # the row after each problem's last
    tails = np.append(np.flatnonzero(owner[1:] != owner[:-1]) + 1, levels.size)
    start = 0
    while start < levels.size:
        k = np.searchsorted(tails, start + few, "right")
        # whole problems up to `few` rows, else the next `per` rows of one
        stop = tails[k - 1] if k and tails[k - 1] > start else min(start + per, tails[k])
        rows = slice(start, stop)
        own = owner[rows]
        pick = own[:1] if own[0] == own[-1] else own
        edges, counts = _level_cells(
            a[pick], b[pick], levels[rows], None if group is None else group[pick],
            w_lo[rows], w_hi[rows],
        )
        keep = np.zeros((edges.shape[0], edges.shape[1] + 1), dtype=bool)
        keep[:, 1:-1] = (edges[:, :-1] < edges[:, 1:]) & flag(rows, counts)
        # row by row, keep changes at a run's first lo and then its last hi
        row, col = np.nonzero(keep[:, 1:] != keep[:, :-1])
        ends = edges[row, col]
        owners.append(own[row[0::2]])
        los.append(ends[0::2])
        his.append(ends[1::2])
        start = stop
    return np.concatenate(owners), np.concatenate(los), np.concatenate(his)


def _gaps(window, *pieces):
    """Per problem, the complement inside its window of the union of its
    closed pieces.  ``window`` is (w_lo, w_hi) with one entry per problem,
    and each of ``pieces`` is (owner, lo, hi); so are the gaps returned."""
    w_lo, w_hi = window
    owner, lo, hi = (np.concatenate(part) for part in zip(*pieces))
    order = np.lexsort((lo, owner))
    owner, lo, hi = owner[order], lo[order], hi[order]
    # a gap opens wherever a piece starts past the reach of its problem's
    # pieces before it: a running max of ranks, offset so that no problem
    # reaches into the next
    by_hi = hi.argsort(kind="stable")
    rank = np.empty_like(by_hi)
    rank[by_hi] = np.arange(hi.size)
    offset = owner * hi.size
    reach = hi[by_hi][np.maximum.accumulate(rank + offset) - offset]
    # problem p's gaps run from (w_lo[p], reach...) to (lo..., w_hi[p])
    count = np.bincount(owner, minlength=w_lo.size)
    slot = np.arange(owner.size) + owner
    tail = np.cumsum(count) + np.arange(w_lo.size)
    starts, ends = np.empty(tail.size + owner.size), np.empty(tail.size + owner.size)
    starts[slot], starts[tail] = lo, w_hi
    ends[slot + 1], ends[tail - count] = reach, w_lo
    keep = ends < starts
    return np.repeat(np.arange(w_lo.size), count + 1)[keep], ends[keep], starts[keep]


def _below_hull(a, b, levels, two, window):
    """Per problem (row of ``a`` and ``b``) and level, the hull inside the
    problem's window of {x : some score < level}.

    The scores are those of the lines (a, b), both signs under two-sided
    testing.  Each edge of a nonempty hull is a line's crossing with the
    level or an edge of the window, so cutting a level only inside its hull
    leaves every cell there as it was.  An empty hull comes back with
    lo >= hi.
    """
    flat = a == 0.0
    # a flat score below the level is below it everywhere
    under = levels > np.where(flat, np.abs(b) if two else b, _INF).min(axis=-1, initial=_INF)[..., None]
    lo = np.full(under.shape, _INF)
    hi = np.full(under.shape, -_INF)
    with np.errstate(divide="ignore", invalid="ignore"):
        for i in range(a.shape[-1]):
            cross = (levels - b[..., i, None]) / a[..., i, None]
            sloped = ~flat[..., i, None]
            np.minimum(lo, cross, out=lo, where=sloped)
            np.maximum(hi, cross, out=hi, where=sloped)
    # under two-sided testing |s| < t between the crossings of s and -s;
    # one-sided, a rising score is below the level left of its crossing
    # and a falling one right of it
    if not two:
        lo = np.where((a > 0.0).any(axis=-1)[..., None], -_INF, lo)
        hi = np.where((a < 0.0).any(axis=-1)[..., None], _INF, hi)
    lo, hi = np.where(under, -_INF, lo), np.where(under, _INF, hi)
    return (
        np.maximum(lo, np.asarray(window[0])[..., None]),
        np.minimum(hi, np.asarray(window[1])[..., None]),
    )


def _level_rows(count, m):
    """Owner and level index of each row when problem p cuts the first
    count[p] of the m levels."""
    return np.nonzero(np.arange(m) < count[:, None])


def _count_step_down(a, b, t, inside, kind, two):
    m = t.size
    k = inside.sum(axis=1)
    if kind == "equal":
        # every other score stays below t_{k+1}, which leaves one window;
        # inside it only the S lines can change N_{t_j} for j <= k
        window = _quiet_window(a, b, ~inside, np.append(t, _INF)[k], two)
        owner, j = _level_rows(k, m)
        need = j + 1
        bad = _flagged(
            *_lines(a, b, two, inside), t[j], owner,
            lambda rows, n: n[0] < need[rows, None], (window[0][owner], window[1][owner]),
        )
        return _gaps(window, bad)
    # step j either passes or every required score already clears t_j, so
    # level j is cut only where some required score is below t_j
    ra, rb = _lines(a, b, two, inside, _INF)
    window = _everywhere(k.size) if two else _window(-ra, -rb, -t[-1], False)
    w_lo, w_hi = _below_hull(ra, rb, t, two, window)
    owner, j = np.nonzero(w_lo < w_hi)
    need, k = j + 1, k[owner]

    def bad_step(rows, n):
        return (n[0] < need[rows, None]) & (n[1] < k[rows, None])

    la, lb = _lines(a, b, two)
    bad = _flagged(la, lb, t[j], owner, bad_step, (w_lo[owner, j], w_hi[owner, j]), _member(inside, two))
    return _gaps(window, bad)


def _count_step_up(a, b, t, inside, kind, two):
    m = t.size
    u = t[::-1]  # u[r - 1] is the critical value met with r selections
    k = inside.sum(axis=1)
    if kind == "equal":
        # R* = k: the S lines clear u_k, the others stay below it, and no
        # r > k finds r scores at or above u_r, i.e. r - k of the others
        window = _quiet_window(a, b, ~inside, u[k - 1], two)
        bad_s = _flagged(
            *_lines(a, b, two, inside), u[k - 1], np.arange(k.size),
            lambda rows, n: n[0] < k[rows, None], window,
        )
        owner, j = _level_rows(m - k, m)
        need = j + 1
        bad_c = _flagged(
            *_lines(a, b, two, ~inside), u[k[owner] + j], owner,
            lambda rows, n: n[0] >= need[rows, None], (window[0][owner], window[1][owner]),
        )
        return _gaps(window, bad_s, bad_c)
    # R is selected as soon as some r has N_{u_r} >= r with R at or above u_r
    if two:
        window = _everywhere(k.size)
    else:
        window = _window(*(-v for v in _lines(a, b, False, inside, _INF)), -u[-1], False)
    owner, j = _level_rows(np.full(k.size, m), m)
    need, k = j + 1, k[owner]

    def good(rows, n):
        return (n[0] >= need[rows, None]) & (n[1] >= k[rows, None])

    la, lb = _lines(a, b, two)
    admitted = _flagged(
        la, lb, u[j], owner, good, (window[0][owner], window[1][owner]), _member(inside, two)
    )
    # their union, as the complement of their gaps
    everywhere = _everywhere(inside.shape[0])
    return _gaps(everywhere, _gaps(everywhere, admitted))


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
    la, lb = _lines(a[rows], b[rows], two)
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
        window = _window(*_lines(a[rest], b[rest], two), c, True)
    else:
        rows, rest = list(range(spec.m)), []
        # a required score is tested at some x̄(A) >= x̄({h}), which bounds
        # x on one side only when the score is not a magnitude
        c = np.array([threshold_value(spec, [h]) for h in inside])
        window = _EVERYWHERE if two else _window(-a[inside], c - b[inside], 0.0, False)
    if window[0] > window[1]:
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
    d: Decomposition,
    spec: ThresholdSpec,
    event: SelectionEvent | Sequence[SelectionEvent],
) -> IntervalUnion | list[IntervalUnion | Exception]:
    """Closure of the x_s values compatible with the selection event.

    Cardinality families go through the count engine: the line is cut only
    where a score meets a step threshold, and each cell is kept or dropped
    by counting the scores at or above the threshold (step-down ``equal``
    counts only the S lines inside the window the other lines leave).  The
    ``bootstrap`` family walks the step-down procedure once per cell between
    the ordering breakpoints of the walked lines, inside a window from the
    same helpers (see the module docstring).

    One decomposition and one event give one union.  It raises
    :class:`DegenerateSupportError` when the event admits no value at all,
    and :class:`InconsistentEventError` when the observed statistic is not a
    member of the computed support (the event does not describe the data it
    was derived from).  A stacked decomposition with a sequence of events,
    one per problem, gives a list with each problem's union or, in its
    place, that problem's error (not raised); the count engine cuts every
    problem in one pass, and the single form is the stack of one.
    """
    single = isinstance(event, SelectionEvent)
    events = [event] if single else list(event)
    a = np.asarray(d.omega_col, dtype=float)
    b = np.asarray(d.z, dtype=float)
    x_s = np.asarray(d.x_s, dtype=float)
    if single:
        a, b, x_s = a[None], b[None], x_s[None]
    m = spec.m
    if a.shape != (len(events), m) or b.shape != a.shape or x_s.shape != a.shape[:1]:
        raise ValueError("decomposition size does not match spec.m")
    if any(e.kind == "equal" and not e.indices for e in events):
        raise ValueError("conditioning on an empty significant set is not supported")
    indices = [h for e in events for h in e.indices]
    if indices and not (0 <= min(indices) and max(indices) < m):
        raise ValueError("event indices out of range")
    two = spec.sided == "two"
    steps = thresholds_by_step(spec)
    if steps is None:
        pieces = [_cellwise(a[p], b[p], spec, e) for p, e in enumerate(events)]
    else:
        engine = _count_step_down if spec.procedure == STEP_DOWN else _count_step_up
        inside = np.zeros(a.shape, dtype=bool)
        inside[np.repeat(np.arange(len(events)), [len(e.indices) for e in events]), indices] = True
        equal = np.array([e.kind == "equal" for e in events])
        pieces = [[] for _ in events]
        for kind in ("equal", "superset"):
            group = np.flatnonzero(equal == (kind == "equal"))
            if not group.size:
                continue
            owner, lo, hi = engine(a[group], b[group], steps, inside[group], kind, two)
            cuts = np.searchsorted(owner, np.arange(group.size + 1)).tolist()
            lo, hi = lo.tolist(), hi.tolist()
            for row, p in enumerate(group.tolist()):
                pieces[p] = list(zip(lo[cuts[row] : cuts[row + 1]], hi[cuts[row] : cuts[row + 1]]))

    results = []
    for raw, x, e in zip(pieces, x_s.tolist(), events):
        result = merge_intervals(raw)
        if result.is_empty:
            result = DegenerateSupportError("the selection event admits no value of x_s")
        elif not result.contains(x, tol=1e-9 * max(1.0, abs(x))):
            result = InconsistentEventError(
                f"observed statistic {x!r} is outside the support of the "
                f"{e.kind} event"
            )
        results.append(result)
    if not single:
        return results
    if isinstance(results[0], Exception):
        raise results[0]
    return results[0]
