#!/usr/bin/env python3
"""Monte Carlo grid for the binary-outcome single-study scenarios.

Varies the confounder effect, the target intraclass correlation, and the
confounder variance over the 200-cluster, 4-unit design, scoring the
adjusted log-relative-risk estimator at x = 0 and x = 1.
"""

import argparse
import csv
import sys

from clustersens.simulation import ScenarioConfig, nu_from_icc, run_scenario

ROWS = [
    # theta, icc, sigma_u2
    (-0.5, 0.15, 0.25),
    (-0.5, 0.15, 1.0),
    (-0.5, 0.15, 2.25),
    (-0.5, 0.25, 0.25),
    (-0.5, 0.25, 1.0),
    (-0.5, 0.25, 2.25),
    (-0.5, 0.35, 0.25),
    (-0.5, 0.35, 1.0),
    (-0.5, 0.35, 2.25),
    (0.5, 0.25, 0.25),
    (0.5, 0.25, 1.0),
    (0.5, 0.25, 2.25),
]


def cell(value):
    """Four decimals; empty when too few replicates were usable for the metric."""
    return "" if value is None else f"{value:.4f}"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--replications", type=int, default=500)
    parser.add_argument("--seed", type=int, default=34)
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--quadrature", type=int, default=15)
    args = parser.parse_args(argv)

    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(
        ["theta", "icc", "sigma_u2", "x", "bias", "se", "cp", "replications_used", "non_converged"]
    )
    for theta, icc, sigma_u2 in ROWS:
        config = ScenarioConfig(
            kind="single_binary",
            clusters=200,
            cluster_size=4,
            replications=args.replications,
            seed=args.seed,
            true_betas=(-4.5, 1.0, 3.0, -0.5),
            theta=theta,
            sigma_u2=sigma_u2,
            nu=nu_from_icc(icc),
            phi=1.0,
            quadrature_points=args.quadrature,
        )
        metrics = run_scenario(config, workers=args.workers)
        for row in metrics.rows:
            writer.writerow(
                [theta, icc, sigma_u2, row.x, cell(row.bias), cell(row.se),
                 cell(row.cp), row.replications_used, metrics.non_converged]
            )
        print(
            f"done: theta={theta} icc={icc} sigma_u2={sigma_u2} "
            f"({metrics.runtime_seconds:.1f}s)",
            file=sys.stderr,
        )


if __name__ == "__main__":
    main()
