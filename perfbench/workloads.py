"""The four benchmark workloads: their input pools, operations and checks.

Every workload owns a fixed pool of inputs derived from the acceptance-module
seeds, and the reference file holds the seed commit's output for each pool
item.  The run's ``--seed`` only chooses the order in which the pool is
visited, so any seed can be checked against recorded outputs while the
measured work stays the same set of inputs from run to run.

An operation ("op") is one ``run_scenario`` call for the Monte Carlo
workloads and one analyst session through the click ``main`` for
``analysis_cli``.  ``run_op`` returns the op's raw result; ``summarize``
turns it into the comparable structure that the reference stores.  Only
``run_op`` is timed.
"""

from __future__ import annotations

import csv
import io
import json
import math
from pathlib import Path

import numpy as np
from click.testing import CliRunner

from clustersens import ScenarioConfig
from clustersens.cli import main as cli_main
from clustersens.simulation import run_scenario
from tracing import direct

# tolerances of the tier-1 oracles: REML quantities and AGQ quantities
REML_TOL = 1e-6
AGQ_TOL = 1e-4
# contour payloads print 6 significant digits: one unit in the last digit
PRINTED_6_TOL = 1e-5

_BINARY_NU = 0.25 * (math.pi**2 / 3.0) / (1.0 - 0.25)  # ICC 0.25 on the logistic scale


class MonteCarloWorkload:
    """``run_scenario`` on an acceptance-criterion design, ``workers=1``.

    Pool item k is the base config with seed ``base_seed + k`` and
    ``replications`` replicates per op (the op's units of work).
    """

    def __init__(self, name, config, replications, pool_size, tol):
        self.name = name
        self.config = config
        self.units_per_op = replications
        self.pool_size = pool_size
        self.tol = tol

    def build(self, workdir: Path):
        base = self.config
        self.items = [
            ScenarioConfig(replications=self.units_per_op, **{**base, "seed": base["seed"] + k})
            for k in range(self.pool_size)
        ]

    def run_op(self, k, call=direct):
        return call("simulation.run_scenario", run_scenario, self.items[k], workers=1)

    def dropped(self, result) -> int:
        return result.non_converged

    def summarize(self, k, result):
        return {
            "replications": result.replications,
            "non_converged": result.non_converged,
            "flagged": result.flagged,
            "rows": [
                {
                    "x": row.x,
                    "truth": row.truth,
                    "bias": row.bias,
                    "se": row.se,
                    "cp": row.cp,
                    "replications_used": row.replications_used,
                }
                for row in result.rows
            ],
        }


# ---------------------------------------------------------------------------
# analysis_cli: generated input files and one analyst session
# ---------------------------------------------------------------------------

_CLI_CLUSTERS = 10_000  # clusters of 3: a 30k-row continuous CSV
_CLI_STUDIES = 30
_CONTOUR_RESOLUTION = 200
_CONTOUR_THRESHOLDS = (0.75, 1.5, 2.5, 3.5)
_META_ARGS = ("--q", "0.2", "--r", "0.4", "--bias-mean", "0.1")
_SENSITIVITY_ARGS = ("--theta", "0.5", "--m1x", "0.3", "--m0x", "0.0")


def write_continuous_csv(path: Path, seed: int) -> None:
    """Criterion-3 mechanism (threshold confounding, nu=4, phi=1) at J=10,000."""
    rng = np.random.default_rng(seed)
    n = 3 * _CLI_CLUSTERS
    u = rng.normal(0.0, 0.5, n)
    x = (rng.random(n) < np.where(u < 1.0, 0.5, 0.4)).astype(float)
    a = (rng.random(n) < np.where(u + x < 2.0, 0.4, 0.5)).astype(float)
    zeta = np.repeat(rng.normal(0.0, 2.0, _CLI_CLUSTERS), 3)
    y = 1.0 - a + 3.0 * x + a * x + 0.5 * u + zeta + rng.normal(0.0, 1.0, n)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["cluster_id", "outcome", "treatment", "covariate_x"])
        for i in range(n):
            writer.writerow([i // 3 + 1, repr(float(y[i])), int(a[i]), repr(float(x[i]))])


def write_studies_csv(path: Path, seed: int) -> None:
    """Heterogeneous studies whose DL between-study variance is positive by construction.

    Estimates are mu + tau * z with z standardized to sample variance 1, so
    sum((e - mean(e))^2) = tau^2 (k - 1).  Every weight 1/se^2 is at least
    1/0.3^2 > 11, hence Cochran's Q >= 11 tau^2 (k - 1) > k - 1 for tau = 1,
    and the DerSimonian-Laird variance is strictly above the bias variance
    the session passes (the default 0), so ``p_of_q`` cannot refuse it.
    """
    rng = np.random.default_rng(seed)
    se = rng.uniform(0.1, 0.3, _CLI_STUDIES)
    z = rng.normal(size=_CLI_STUDIES)
    z = (z - z.mean()) / z.std(ddof=1)
    estimates = 0.5 + 1.0 * z
    w = 1.0 / se**2
    q_stat = float(np.sum(w * (estimates - np.sum(w * estimates) / w.sum()) ** 2))
    if not q_stat > _CLI_STUDIES - 1:
        raise RuntimeError("studies input would give a zero between-study variance")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["study_id", "estimate", "std_error"])
        for i in range(_CLI_STUDIES):
            writer.writerow([f"s{i + 1:02d}", repr(float(estimates[i])), repr(float(se[i]))])


def contour_oracle(threshold: float):
    """Rows the contour command must print, from the definition b = delta_m * theta."""
    deltas = np.linspace(0.0, 1.0, _CONTOUR_RESOLUTION)
    thetas = np.linspace(0.0, 5.0, _CONTOUR_RESOLUTION)
    return [(float(d), float(t), float(d * t), bool(d * t >= threshold)) for d in deltas for t in thetas]


class CliWorkload:
    """One analyst session: fit, sensitivity at x=0 and x=1, meta, contour.

    Pool item k has its own 30k-row data file, studies file and contour
    threshold.  Commands run in-process through ``CliRunner`` and the fit
    document travels to ``sensitivity --fit`` through a file, as in a shell.
    """

    name = "analysis_cli"
    tol = REML_TOL
    units_per_op = 1

    def __init__(self, data_seed, studies_seed, pool_size):
        self.data_seed = data_seed
        self.studies_seed = studies_seed
        self.pool_size = pool_size

    def build(self, workdir: Path):
        self.workdir = workdir
        self.runner = CliRunner()
        self.items = []
        for k in range(self.pool_size):
            data = workdir / f"data_{k}.csv"
            studies = workdir / f"studies_{k}.csv"
            write_continuous_csv(data, self.data_seed + k)
            write_studies_csv(studies, self.studies_seed + k)
            self.items.append((data, studies, _CONTOUR_THRESHOLDS[k % len(_CONTOUR_THRESHOLDS)]))
        self._contour_checked = {}

    def _invoke(self, call, command, args):
        result = call(f"cli.{command}", self.runner.invoke, cli_main, [command, *args])
        return result.exit_code, result.stdout

    def run_op(self, k, call=direct):
        data, studies, threshold = self.items[k]
        fit_doc = self.workdir / "fit.json"
        out = {}
        out["fit"] = self._invoke(
            call, "fit", [str(data), "--scale", "continuous", "--precision", "12"]
        )
        fit_doc.write_text(out["fit"][1], encoding="utf-8")
        for x in ("0", "1"):
            out[f"sensitivity_x{x}"] = self._invoke(
                call,
                "sensitivity",
                ["--fit", str(fit_doc), "--x", x, *_SENSITIVITY_ARGS, "--precision", "12"],
            )
        out["meta"] = self._invoke(
            call, "meta", ["--studies", str(studies), *_META_ARGS, "--precision", "12"]
        )
        out["contour"] = self._invoke(
            call,
            "contour",
            ["--resolution", str(_CONTOUR_RESOLUTION), "--threshold", repr(threshold)],
        )
        return out

    def dropped(self, result) -> int:
        return 0

    def summarize(self, k, result):
        summary = {}
        for command, (code, stdout) in result.items():
            if code != 0 or command == "contour":
                payload = None
            else:
                payload = json.loads(stdout)
                # a work counter, reported by the trace; not part of the result
                payload.pop("n_iterations", None)
            summary[command] = {"exit_code": code, "payload": payload}
        code, stdout = result["contour"]
        if code == 0:
            summary["contour"]["payload"] = self._contour_summary(k, stdout)
        return summary

    def _contour_summary(self, k, stdout):
        # an identical payload for the same item was already compared row by row
        if (k, stdout) not in self._contour_checked:
            self._contour_checked[(k, stdout)] = self._compare_contour(k, stdout)
        return self._contour_checked[(k, stdout)]

    def _compare_contour(self, k, stdout):
        oracle = contour_oracle(self.items[k][2])
        reader = csv.reader(io.StringIO(stdout))
        header = next(reader)
        rows = list(reader)
        mismatched = 0 if len(rows) == len(oracle) else abs(len(rows) - len(oracle))
        bias_sum = 0.0
        explains = 0
        for row, expected in zip(rows, oracle):
            values = [float(v) for v in row[:3]]
            flag = row[3] == "true"
            bias_sum += values[2]
            explains += flag
            close = all(
                math.isclose(v, e, rel_tol=PRINTED_6_TOL, abs_tol=1e-12)
                for v, e in zip(values, expected[:3])
            )
            mismatched += not (close and flag == expected[3])
        return {
            "header": header,
            "rows": len(rows),
            "bias_factor_sum": bias_sum,
            "explains_count": explains,
            "rows_differing_from_definition": mismatched,
        }


def make_workloads():
    continuous = dict(
        kind="single_continuous", clusters=100, cluster_size=3, seed=20260808,
        true_betas=(1.0, -1.0, 3.0, 1.0), theta=0.5, sigma_u2=0.25, nu=4.0, phi=1.0,
    )
    binary = dict(
        kind="single_binary", clusters=200, cluster_size=4, seed=34,
        true_betas=(-4.5, 1.0, 3.0, -0.5), theta=-0.5, sigma_u2=1.0, nu=_BINARY_NU,
        phi=1.0, quadrature_points=15,
    )
    meta = dict(
        kind="meta", clusters=100, cluster_size=3, studies=30, seed=2718,
        true_betas=(1.0, 3.0, 3.0, 4.0), theta=5.0, theta_var=0.01, sigma_u2=0.25,
        nu=4.0, phi=1.0,
    )
    workloads = [
        MonteCarloWorkload("continuous_mc", continuous, replications=20, pool_size=32, tol=REML_TOL),
        MonteCarloWorkload("binary_mc", binary, replications=1, pool_size=16, tol=AGQ_TOL),
        MonteCarloWorkload("meta_mc", meta, replications=1, pool_size=24, tol=REML_TOL),
        CliWorkload(data_seed=20260808, studies_seed=2718, pool_size=4),
    ]
    return {w.name: w for w in workloads}
