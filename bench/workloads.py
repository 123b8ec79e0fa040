"""The benchmark's four workloads: inputs made from a seed, and the calls.

Every workload reaches the program only through its public entry points:
``condinfer.cli.main`` for ``infer`` on CSV files, ``condinfer.simulate_design``
for Monte Carlo blocks, and ``condinfer.wild_bootstrap_draws`` to make
bootstrap draws during set-up.  Names are looked up at call time so the
traced run can wrap them.

An ``infer`` workload draws one design per run (a covariance matrix, and
for the bootstrap family the draws) and many estimate vectors on it, so a
run averages over many instances: the cost of one instance depends on its
geometry, and a run of a few instances would measure the draw as much as
the program.  Signals are placed one per stratum of the factor loadings
for the same reason.

Estimate vectors are redrawn (from the same seeded stream) until the
independent selection picks the intended number of effects and every
comparison the procedure makes clears its critical value by at least
``MARGIN``.  Closer to a critical value the observed statistic can sit so
near a support endpoint that an interval endpoint lies past the
inversion's bracket cap; that fault is recorded in CHANGES.md and kept out
of the timed workloads.
"""

from __future__ import annotations

import functools
import json
import os

import numpy as np

import checker

#: Smallest distance, in t-units, between a statistic and the critical
#: value it is compared against in an accepted input.
MARGIN = 0.05

LEVEL = 0.1
ALPHA = 0.1

#: Effects of the application in the source paper.
M_APP = 371

SIM_BLOCK_REPS = 500


def _write_matrix(path: str, matrix: np.ndarray) -> str:
    np.savetxt(path, matrix, delimiter=",", fmt="%.17g")
    return path


def _write_estimates(path: str, theta: np.ndarray) -> str:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("id,estimate\n")
        fh.writelines(f"e{i:03d},{float(v)!r}\n" for i, v in enumerate(theta))
    return path


@functools.lru_cache(maxsize=2)
def _read_matrix(path: str) -> np.ndarray:
    """The checker's reading of a covariance file shared by many cases."""
    return checker.read_matrix(path)


def _accepts(x: np.ndarray, wanted: list[tuple[checker.Rule, int]]) -> bool:
    for rule, count in wanted:
        chosen, margin = rule.comparisons(x)
        if len(chosen) != count or margin < MARGIN:
            return False
    return True


def _stratified_positions(rng, loadings: np.ndarray, k: int) -> np.ndarray:
    """One random effect from each of k strata of the loading order, so the
    signals' loadings (which set the per-effect cost) vary little between
    instances."""
    strata = np.array_split(np.argsort(loadings), k)
    return np.array([rng.choice(stratum) for stratum in strata])


class Design:
    """A covariance matrix of m effects and a way to draw estimates on it.

    ``loadings`` are the factor loadings used to stratify signal positions;
    ``draw(rng, means)`` returns estimates with ``means[i]`` standard
    errors of signal on one effect from the i-th loading stratum.
    """

    def __init__(self, loadings: np.ndarray, cov: np.ndarray):
        self.loadings, self.cov = loadings, cov
        self.sd = np.sqrt(np.diag(cov))
        self.chol = np.linalg.cholesky(cov)

    @classmethod
    def factor(cls, rng, m: int) -> "Design":
        """One-factor correlation, loadings in [0.2, 0.7], effect standard
        errors in [0.5, 2]."""
        loadings = rng.uniform(0.2, 0.7, size=m)
        omega = np.outer(loadings, loadings) + np.diag(1.0 - loadings**2)
        scale = rng.uniform(0.5, 2.0, size=m)
        return cls(loadings, omega * np.outer(scale, scale))

    def draw(self, rng, means: list[float]) -> np.ndarray:
        mu = np.zeros(self.sd.size)
        mu[_stratified_positions(rng, self.loadings, len(means))] = means
        return self.sd * mu + self.chol @ rng.standard_normal(self.sd.size)

    def accepted(self, rng, means, wanted) -> np.ndarray:
        while True:
            theta = self.draw(rng, means)
            if _accepts(checker.studentized(theta, self.cov)[0], wanted):
                return theta


class InferCase:
    """One ``condinfer infer`` command on one estimates file."""

    def __init__(self, name, workdir, est_path, cov_path, rule, flags, event, joint):
        self.name, self.rule, self.event, self.joint = name, rule, event, joint
        self.est_path, self.cov_path = est_path, cov_path
        self.out_path = os.path.join(workdir, f"{name}.out.json")
        self.argv = [
            "infer", "--estimates", est_path, "--cov", cov_path,
            "--level", str(LEVEL), "--alpha", str(ALPHA), "--event", event,
            "--format", "json", "--output", self.out_path, *flags,
        ] + (["--joint"] if joint else [])
        self.first_text = None

    def run(self, ci) -> int:
        return ci.cli.main(self.argv)

    def outcome(self, rc: int):
        """(failed, items, problems) for the call just made."""
        if rc != 0:
            return True, 0, []
        with open(self.out_path, encoding="utf-8") as fh:
            text = fh.read()
        doc = json.loads(text)
        results = doc["results"]
        failed = any(r["error"] is not None or "degenerate" in r["flags"] for r in results)
        items = sum(r["error"] is None for r in results)
        if self.first_text is None:
            self.first_text = text
            problems = checker.check_infer(doc, self.case())
        elif text != self.first_text:
            problems = ["repeated call gave a different answer"]
        else:
            problems = []
        return failed, items, [f"{self.name}: {p}" for p in problems]

    def case(self) -> dict:
        """The inputs as the checker reads them back from disk."""
        labels, theta = checker.read_estimates(self.est_path)
        x, omega, sd = checker.studentized(theta, _read_matrix(self.cov_path))
        return dict(
            x=x, omega=omega, sd=sd, labels=labels, rule=self.rule,
            event=self.event, alpha=ALPHA, joint=self.joint,
        )


class SimulateBlock:
    """One ``simulate_design`` call: a block of replications of the m = 5
    normal design, n = 300, two-sided Holm at 0.1, superset event."""

    def __init__(self, ci, seed: int, block: int, reps: int = SIM_BLOCK_REPS):
        self.name = f"block{block}"
        self.config = ci.DesignConfig(
            design="normal", n=300, reps=reps, seed=seed * 1_000_003 + block,
            sided="two", fwer=LEVEL, alpha=ALPHA, event="superset",
        )
        self.summary = None

    def run(self, ci):
        self.summary = ci.simulate_design(self.config)
        return self.summary

    def outcome(self, summary):
        return summary.failures > 0, summary.reps, []


class Workload:
    """Inputs built from a seed, and the operations of one round."""

    #: Rounds made untraced and then traced by ``--trace 1``.
    trace_rounds = 1
    warm_calls = 1

    def __init__(self, ci, workdir: str, seed: int):
        self.ci, self.workdir, self.seed = ci, workdir, seed
        self.cases = []

    def rng(self, stream: int):
        return np.random.default_rng([self.seed, stream])

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def round(self, index: int) -> list:
        return self.cases

    def finish(self, ops) -> list[str]:
        """Checks that need every operation of the run."""
        return []

    def warm_up(self):
        """The first call of each kind, outside the timings, so lazy set-up
        and first-touch memory are paid before timing starts."""
        for case in self.cases[: self.warm_calls]:
            case.run(self.ci)


class SimulateM5(Workload):
    trace_rounds = 8

    def build(self):
        pass

    def warm_up(self):
        SimulateBlock(self.ci, self.seed, 10**6, reps=50).run(self.ci)

    def round(self, index):
        return [SimulateBlock(self.ci, self.seed, index)]

    def finish(self, ops):
        return checker.check_simulation([op.summary for op in ops], ALPHA)


HOLM_TWO = ["--procedure", "holm", "--sided", "two"]
HOLM_ONE = ["--procedure", "holm", "--sided", "one"]


class InferM371(Workload):
    """Factor-model design at the paper's m = 371.  Each estimate vector
    has 2 effects at +5.5 and 6 at -5.5 standard errors, so two-sided Holm
    selects 8 and one-sided Holm 2.  Both m = 371 workloads build the same
    inputs from a seed."""

    means = [-5.5, 5.5, -5.5, -5.5, -5.5, -5.5, 5.5, -5.5]

    def build(self):
        two = checker.Rule("holm", LEVEL, "two", M_APP)
        one = checker.Rule("holm", LEVEL, "one", M_APP)
        rng = self.rng(0)
        design = Design.factor(rng, M_APP)
        cov = _write_matrix(self.path("m371.cov.csv"), design.cov)
        for k in range(self.instances):
            theta = design.accepted(rng, self.means, [(two, 8), (one, 2)])
            est = _write_estimates(self.path(f"m371_{k}.est.csv"), theta)
            self.cases.append(self.command(f"m371_{k}", est, cov, two, one))


class InferEqualM371(InferM371):
    instances = 14

    def command(self, name, est, cov, two_sided, one_sided):
        return InferCase(name, self.workdir, est, cov, two_sided, HOLM_TWO, "equal", False)


class InferSupersetM371(InferM371):
    instances = 12

    def command(self, name, est, cov, two_sided, one_sided):
        return InferCase(name, self.workdir, est, cov, one_sided, HOLM_ONE, "superset", True)


class InferCellwise(Workload):
    """Per-cell reference path: set-dependent bootstrap thresholds on
    wild-cluster draws, and the step-up BH family."""

    instances = 16
    boot_m, boot_clusters, boot_per_cluster, boot_draws = 50, 80, 5, 1000
    boot_means = [6.5] * 3
    bh_m, bh_means = 100, [6.0] * 3
    warm_calls = 2

    def build(self):
        rng = self.rng(0)
        boot_design, draws = self._clustered_design(rng)
        boot_rule = checker.Rule("bootstrap", LEVEL, "one", self.boot_m, draws)
        boot_cov = _write_matrix(self.path("boot.cov.csv"), boot_design.cov)
        boot_flags = [
            "--procedure", "bootstrap", "--sided", "one",
            "--bootstrap-draws", _write_matrix(self.path("boot.draws.csv"), draws),
        ]
        bh_design = Design.factor(rng, self.bh_m)
        bh_rule = checker.Rule("bh", LEVEL, "one", self.bh_m)
        bh_cov = _write_matrix(self.path("bh.cov.csv"), bh_design.cov)
        for k in range(self.instances):
            theta = boot_design.accepted(rng, self.boot_means, [(boot_rule, len(self.boot_means))])
            est = _write_estimates(self.path(f"boot_{k}.est.csv"), theta)
            self.cases.append(InferCase(
                f"boot_{k}", self.workdir, est, boot_cov, boot_rule, boot_flags, "equal", False
            ))
            theta = bh_design.accepted(rng, self.bh_means, [(bh_rule, len(self.bh_means))])
            est = _write_estimates(self.path(f"bh_{k}.est.csv"), theta)
            self.cases.append(InferCase(
                f"bh_{k}", self.workdir, est, bh_cov, bh_rule,
                ["--procedure", "bh", "--sided", "one"], "equal", False,
            ))

    def _clustered_design(self, rng):
        """Residuals of clustered one-factor data, their cluster-robust
        covariance of the column means, and wild-cluster bootstrap draws."""
        m, g, per = self.boot_m, self.boot_clusters, self.boot_per_cluster
        n = g * per
        ids = np.repeat(np.arange(g), per)
        loadings = rng.uniform(0.2, 0.7, size=m)
        noise = (
            rng.standard_normal(n)[:, None] * loadings[None, :]
            + 0.5 * rng.standard_normal((g, m))[ids]
            + rng.standard_normal((n, m))
        )
        resid = noise - noise.mean(axis=0)
        sums = np.zeros((g, m))
        np.add.at(sums, ids, resid)
        draws = self.ci.wild_bootstrap_draws(
            resid, ids, self.boot_draws, seed=int(rng.integers(2**31))
        )
        return Design(loadings, sums.T @ sums / n**2), draws


WORKLOADS = {
    "simulate_m5": SimulateM5,
    "infer_equal_m371": InferEqualM371,
    "infer_superset_m371": InferSupersetM371,
    "infer_cellwise": InferCellwise,
}
