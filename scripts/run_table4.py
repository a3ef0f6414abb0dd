#!/usr/bin/env python3
"""Monte Carlo grid for the meta-analysis scenarios.

Varies the study count, mean cluster count, and cluster size; each
replicate fits the confounded model per study, pools with
DerSimonian-Laird, and estimates the probability that a study-level true
effect exceeds the meaningful size q.
"""

import argparse
import csv
import sys

from clustersens.simulation import ScenarioConfig, run_scenario

ROWS = [
    # studies, mean clusters, cluster size
    (15, 100, 3),
    (15, 100, 5),
    (15, 200, 3),
    (15, 200, 5),
    (30, 100, 3),
    (30, 100, 5),
    (30, 200, 3),
    (30, 200, 5),
    (100, 100, 3),
    (100, 100, 5),
    (100, 200, 3),
    (100, 200, 5),
]


def cell(value):
    """Four decimals; empty when too few replicates were usable for the metric."""
    return "" if value is None else f"{value:.4f}"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--replications", type=int, default=500)
    parser.add_argument("--seed", type=int, default=2718)
    parser.add_argument("--workers", type=int, default=1)
    args = parser.parse_args(argv)

    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(
        ["studies", "clusters", "cluster_size", "x", "truth", "bias", "se", "cp",
         "replications_used"]
    )
    for studies, clusters, size in ROWS:
        config = ScenarioConfig(
            kind="meta",
            clusters=clusters,
            cluster_size=size,
            studies=studies,
            replications=args.replications,
            seed=args.seed,
            true_betas=(1.0, 3.0, 3.0, 4.0),
            theta=5.0,
            theta_var=0.01,
            sigma_u2=0.25,
            nu=4.0,
            phi=1.0,
        )
        metrics = run_scenario(config, workers=args.workers)
        for row in metrics.rows:
            writer.writerow(
                [studies, clusters, size, row.x, cell(row.truth), cell(row.bias),
                 cell(row.se), cell(row.cp), row.replications_used]
            )
        print(
            f"done: K={studies} J={clusters} I={size} ({metrics.runtime_seconds:.1f}s)",
            file=sys.stderr,
        )


if __name__ == "__main__":
    main()
