#!/usr/bin/env python3
"""Monte Carlo tables 2-4 of the simulation study, as CSV on stdout.

Table 2 is the continuous-outcome single study, table 3 the binary-outcome
single study (adjusted log relative risk), table 4 the meta-analysis (the
estimated probability that a study's true effect exceeds q). Each table is
its base scenario file in configs/ plus a grid of overrides; every grid row
is scored at x = 0 and x = 1, one CSV row each. --replications and --seed
override the base file when given.
"""

import argparse
import csv
import sys
from dataclasses import replace
from pathlib import Path
from typing import Callable, NamedTuple

from clustersens.simulation import load_scenario, metrics_rows, nu_from_icc, run_scenario

CONFIGS = Path(__file__).resolve().parent / "configs"


class Table(NamedTuple):
    base: str  # scenario file in CONFIGS
    grid: tuple  # grid column names, in the order of each row
    override: Callable  # (base config, **grid row) -> ScenarioConfig fields
    metrics: tuple  # columns picked by name from metrics_rows
    rows: list


TABLES = {
    2: Table(
        "continuous_base.json",
        ("clusters", "cluster_size", "beta1", "beta3", "theta", "sigma_u2"),
        lambda base, beta1, beta3, **row: dict(
            row, true_betas=(base.true_betas[0], beta1, base.true_betas[2], beta3)
        ),
        ("x", "bias", "se", "cp", "replications_used"),
        [
            (50, 3, -1.0, 1.0, 0.5, 0.25),
            (100, 3, -1.0, 1.0, 0.5, 0.25),
            (100, 8, -1.0, 1.0, 0.5, 0.25),
            (100, 3, -1.0, 1.0, -0.5, 0.25),
            (100, 3, 1.0, 1.0, 0.5, 0.25),
            (100, 3, 1.0, -1.0, 0.5, 0.25),
            (100, 3, -1.0, 1.0, 0.5, 1.0),
        ],
    ),
    3: Table(
        "binary_base.json",
        ("theta", "icc", "sigma_u2"),
        lambda base, icc, **row: dict(row, nu=nu_from_icc(icc)),
        ("x", "bias", "se", "cp", "replications_used", "non_converged"),
        [
            (-0.5, 0.15, 0.25), (-0.5, 0.15, 1.0), (-0.5, 0.15, 2.25),
            (-0.5, 0.25, 0.25), (-0.5, 0.25, 1.0), (-0.5, 0.25, 2.25),
            (-0.5, 0.35, 0.25), (-0.5, 0.35, 1.0), (-0.5, 0.35, 2.25),
            (0.5, 0.25, 0.25), (0.5, 0.25, 1.0), (0.5, 0.25, 2.25),
        ],
    ),
    4: Table(
        "meta_base.json",
        ("studies", "clusters", "cluster_size"),
        lambda base, **row: row,
        ("x", "truth", "bias", "se", "cp", "replications_used"),
        [
            (15, 100, 3), (15, 100, 5), (15, 200, 3), (15, 200, 5),
            (30, 100, 3), (30, 100, 5), (30, 200, 3), (30, 200, 5),
            (100, 100, 3), (100, 100, 5), (100, 200, 3), (100, 200, 5),
        ],
    ),
}


def scenarios(number, replications=None, seed=None):
    """(grid row, ScenarioConfig) for each row of a table."""
    table = TABLES[number]
    base = load_scenario(CONFIGS / table.base)
    if replications is not None:
        base = replace(base, replications=replications)
    if seed is not None:
        base = replace(base, seed=seed)
    return [
        (row, replace(base, **table.override(base, **dict(zip(table.grid, row)))))
        for row in table.rows
    ]


def cell(value):
    """Floats to four decimals; empty when too few replicates were usable for the metric."""
    if value is None:
        return ""
    return f"{value:.4f}" if isinstance(value, float) else value


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("table", type=int, choices=sorted(TABLES))
    parser.add_argument("--replications", type=int)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--workers", type=int, default=1)
    args = parser.parse_args(argv)

    table = TABLES[args.table]
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow([*table.grid, *table.metrics])
    for row, config in scenarios(args.table, args.replications, args.seed):
        metrics = run_scenario(config, workers=args.workers)
        header, metric_rows = metrics_rows(metrics)
        columns = [header.index(name) for name in table.metrics]
        for values in metric_rows:
            writer.writerow([*row, *(cell(values[i]) for i in columns)])
        labels = " ".join(f"{name}={value}" for name, value in zip(table.grid, row))
        print(f"done: {labels} ({metrics.runtime_seconds:.1f}s)", file=sys.stderr)


if __name__ == "__main__":
    main()
