"""Per-layer spans for the traced run, recorded from the benchmark's side.

The public functions of each ``condinfer`` module are wrapped at the names
their callers look them up by (``cli.load_estimates`` inside ``cli``,
``inference.conditional_support`` inside ``inference``, ...).  A wrapper
records the call's duration and the time spent in wrapped calls nested
inside it, so each layer's self time is its span minus its wrapped
children.  ``threshold_value`` is only counted: it is called once per cell
and rank on the per-cell path, and timing it would cost more than it does.
"""

from __future__ import annotations

import statistics
import time
from collections import defaultdict

# (module attribute of the package or "", function name, span name)
TIMED = (
    ("cli", "main", "cli.main"),
    ("cli", "load_estimates", "cli.load_estimates"),
    ("cli", "infer_significant", "inference.infer_significant"),
    ("inference", "studentize", "inference.studentize"),
    ("sim", "studentize", "inference.studentize"),
    ("inference", "select", "testing.select"),
    ("sim", "step_down_select", "testing.select"),
    ("", "wild_bootstrap_draws", "testing.wild_bootstrap_draws"),
    ("inference", "decompose", "support.decompose"),
    ("inference", "conditional_support", "support.conditional_support"),
    ("support", "merge_intervals", "support.merge_intervals"),
    ("inference", "invert_truncated_mu", "stats_core.invert_truncated_mu"),
    ("", "simulate_design", "sim.simulate_design"),
)
COUNTED = (("testing", "threshold_value"), ("support", "threshold_value"))


class Span:
    __slots__ = ("total", "child", "durations")

    def __init__(self):
        self.total = 0.0
        self.child = 0.0
        self.durations = []


class Tracer:
    def __init__(self, ci):
        self.ci = ci
        self.spans = defaultdict(Span)
        self.counts = defaultdict(int)
        self._stack = []
        self._saved = []

    def _module(self, name):
        return getattr(self.ci, name) if name else self.ci

    def _timed(self, name, fn):
        span, stack = self.spans[name], self._stack
        counts = self.counts

        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                span.total += elapsed
                span.child += frame[0]
                span.durations.append(elapsed)
            if name == "support.merge_intervals":
                counts["support.raw_pieces"] += len(args[0])
                counts["support.intervals"] += len(result)
            return result

        return wrapper

    def _counted(self, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts["testing.threshold_value_calls"] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self):
        for module, attr, name in TIMED:
            self._swap(self._module(module), attr, lambda fn, n=name: self._timed(n, fn))
        for module, attr in COUNTED:
            self._swap(self._module(module), attr, self._counted)

    def _swap(self, module, attr, make):
        original = getattr(module, attr)
        self._saved.append((module, attr, original))
        setattr(module, attr, make(original))

    def uninstall(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def metrics(self) -> dict:
        """Per-layer figures, summed over everything traced so far."""
        s = self.spans

        def total(name):
            return s[name].total

        def own(name):
            return s[name].total - s[name].child

        def p50(name):
            d = s[name].durations
            return statistics.median(d) if d else 0.0

        out = {
            "cli.load_estimates_s": (total("cli.load_estimates"), "s"),
            "cli.other_s": (own("cli.main"), "s"),
            "inference.studentize_s": (total("inference.studentize"), "s"),
            "inference.self_s": (own("inference.infer_significant"), "s"),
            "testing.select_s": (total("testing.select"), "s"),
            "testing.threshold_value_calls": (self.counts["testing.threshold_value_calls"], "count"),
            "testing.wild_bootstrap_draws_s": (total("testing.wild_bootstrap_draws"), "s"),
            "support.decompose_s": (total("support.decompose"), "s"),
            "support.conditional_support_s": (total("support.conditional_support"), "s"),
            "support.conditional_support_calls": (len(s["support.conditional_support"].durations), "count"),
            "support.conditional_support_p50_s": (p50("support.conditional_support"), "s"),
            "support.merge_intervals_s": (total("support.merge_intervals"), "s"),
            "support.raw_pieces": (self.counts["support.raw_pieces"], "count"),
            "support.intervals": (self.counts["support.intervals"], "count"),
            "support.self_s": (own("support.conditional_support"), "s"),
            "stats_core.invert_truncated_mu_s": (total("stats_core.invert_truncated_mu"), "s"),
            "stats_core.invert_truncated_mu_calls": (len(s["stats_core.invert_truncated_mu"].durations), "count"),
            "stats_core.invert_truncated_mu_p50_s": (p50("stats_core.invert_truncated_mu"), "s"),
            "sim.self_s": (own("sim.simulate_design"), "s"),
        }
        return {k: {"value": v, "unit": u} for k, (v, u) in out.items()}
