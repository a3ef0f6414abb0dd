#!/usr/bin/env python3
"""Monte Carlo grid for the continuous-outcome single-study scenarios.

Each row varies cluster count, cluster size, effect coefficients, the
confounder effect, or the confounder variance, and scores the adjusted
estimator at x = 0 and x = 1. Emits one CSV row per (scenario, x).
"""

import argparse
import csv
import sys

from clustersens.simulation import ScenarioConfig, run_scenario

ROWS = [
    # clusters, cluster_size, beta1, beta3, theta, sigma_u2
    (50, 3, -1.0, 1.0, 0.5, 0.25),
    (100, 3, -1.0, 1.0, 0.5, 0.25),
    (100, 8, -1.0, 1.0, 0.5, 0.25),
    (100, 3, -1.0, 1.0, -0.5, 0.25),
    (100, 3, 1.0, 1.0, 0.5, 0.25),
    (100, 3, 1.0, -1.0, 0.5, 0.25),
    (100, 3, -1.0, 1.0, 0.5, 1.0),
]


def cell(value):
    """Four decimals; empty when too few replicates were usable for the metric."""
    return "" if value is None else f"{value:.4f}"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--replications", type=int, default=1000)
    parser.add_argument("--seed", type=int, default=20260808)
    parser.add_argument("--workers", type=int, default=1)
    args = parser.parse_args(argv)

    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(
        ["clusters", "cluster_size", "beta1", "beta3", "theta", "sigma_u2",
         "x", "bias", "se", "cp", "replications_used"]
    )
    for clusters, size, b1, b3, theta, sigma_u2 in ROWS:
        config = ScenarioConfig(
            kind="single_continuous",
            clusters=clusters,
            cluster_size=size,
            replications=args.replications,
            seed=args.seed,
            true_betas=(1.0, b1, 3.0, b3),
            theta=theta,
            sigma_u2=sigma_u2,
            nu=4.0,
            phi=1.0,
        )
        metrics = run_scenario(config, workers=args.workers)
        for row in metrics.rows:
            writer.writerow(
                [clusters, size, b1, b3, theta, sigma_u2, row.x,
                 cell(row.bias), cell(row.se), cell(row.cp), row.replications_used]
            )
        print(
            f"done: J={clusters} I={size} beta1={b1} beta3={b3} theta={theta} "
            f"sigma_u2={sigma_u2} ({metrics.runtime_seconds:.1f}s)",
            file=sys.stderr,
        )


if __name__ == "__main__":
    main()
