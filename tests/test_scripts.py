"""The Table 2-4 runner, run in-process at a few replications, and the worked examples."""

import csv
import hashlib
import importlib.util
import io
import runpy
from pathlib import Path

import pytest

from clustersens.simulation import ScenarioConfig, nu_from_icc

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_runner():
    spec = importlib.util.spec_from_file_location("run_tables", SCRIPTS / "run_tables.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_table(capsys, table, replications):
    """The runner module, the table's header and rows, and the sha256 of its stdout."""
    module = load_runner()
    module.main([str(table), "--replications", str(replications)])
    out = capsys.readouterr().out
    rows = list(csv.reader(io.StringIO(out)))
    return module, rows[0], rows[1:], hashlib.sha256(out.encode("utf-8")).hexdigest()


# sha256 of each table's stdout at 2 replications, recorded while every
# block of replicates was fitted as one stack; table 4's 100-study rows now
# fit each replicate in a stack of its own
TABLE_DIGESTS = {
    2: "68d51ecbc84209ebeea622c555f42c9d8803e4b20e13ab7b5d3586989b87d1c5",
    3: "eb0c8b42dfaf07032c47c4386132e24ec767a3c5052273c25ed88778a65517e2",
    4: "0a238bb100fa433605542a4940279383fe5a7775a85aeb2ae028120284779ca8",
}

GRID_COLUMNS = {
    2: ["clusters", "cluster_size", "beta1", "beta3", "theta", "sigma_u2"],
    3: ["theta", "icc", "sigma_u2"],
    4: ["studies", "clusters", "cluster_size"],
}

# The scenario of each table's first grid row at the published defaults:
# a base scenario file that drifts from the table settings fails here.
FIRST_ROW_CONFIGS = {
    2: ScenarioConfig(
        kind="single_continuous", clusters=50, cluster_size=3, replications=1000,
        seed=20260808, true_betas=(1.0, -1.0, 3.0, 1.0), theta=0.5, sigma_u2=0.25,
        nu=4.0, phi=1.0,
    ),
    3: ScenarioConfig(
        kind="single_binary", clusters=200, cluster_size=4, replications=500, seed=34,
        true_betas=(-4.5, 1.0, 3.0, -0.5), theta=-0.5, sigma_u2=0.25,
        nu=nu_from_icc(0.15), phi=1.0, quadrature_points=15,
    ),
    4: ScenarioConfig(
        kind="meta", clusters=100, cluster_size=3, studies=15, replications=500,
        seed=2718, true_betas=(1.0, 3.0, 3.0, 4.0), theta=5.0, theta_var=0.01,
        sigma_u2=0.25, nu=4.0, phi=1.0,
    ),
}


@pytest.mark.parametrize("table", sorted(GRID_COLUMNS), ids=lambda t: f"table{t}")
def test_table_script_emits_two_rows_per_grid_row(capsys, table):
    grid_columns = GRID_COLUMNS[table]
    module, header, rows, digest = run_table(capsys, table, 2)
    assert digest == TABLE_DIGESTS[table]
    grid_rows = module.TABLES[table].rows
    assert header[: len(grid_columns)] == grid_columns
    assert header[len(grid_columns)] == "x"
    assert len(rows) == 2 * len(grid_rows)
    for i, grid_row in enumerate(grid_rows):
        for x, row in zip(("0", "1"), rows[2 * i : 2 * i + 2]):
            assert len(row) == len(header)
            assert row[: len(grid_columns)] == [str(v) for v in grid_row]
            assert row[len(grid_columns)] == x
            assert row[header.index("replications_used")] in ("0", "1", "2")


def test_table_script_prints_empty_cell_for_missing_metric(capsys):
    # one replicate cannot estimate an SE: the cell is empty, not a crash
    _, header, rows, _ = run_table(capsys, 2, 1)
    se = header.index("se")
    assert all(row[se] == "" for row in rows)
    assert all(row[header.index("bias")] != "" for row in rows)


@pytest.mark.parametrize("table", sorted(FIRST_ROW_CONFIGS), ids=lambda t: f"table{t}")
def test_first_grid_row_builds_the_published_scenario(table):
    (_, config), *_ = load_runner().scenarios(table)
    assert config == FIRST_ROW_CONFIGS[table]


def test_replications_and_seed_override_the_base_file():
    configs = [config for _, config in load_runner().scenarios(4, replications=3, seed=7)]
    assert {(c.replications, c.seed) for c in configs} == {(3, 7)}


def test_worked_examples_print_the_published_figures(capsys):
    runpy.run_path(str(SCRIPTS / "worked_examples.py"), run_name="__main__")
    assert capsys.readouterr().out.splitlines() == [
        "single study: estimate 5.49 (0.75 to 10.23)",
        "  minimal bias factor: 0.75 (positive direction)",
        "  confounder with effect 3 and prevalence difference 0.25 -> bias 0.75",
        "  adjusted effect: 4.74 (0 to 9.48)",
        "  explains away: True",
        "",
        "meta-analysis: pooled log-RR log(1.33), between-study variance 0.08",
        "  minimal common constant bias factor: 0.1745",
        "  p(q) at that bias: 0.4 (threshold r = 0.4)",
        "  explains away at the boundary: True",
    ]
