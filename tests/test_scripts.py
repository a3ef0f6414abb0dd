"""The Table 2-4 runner, run in-process at a few replications."""

import csv
import importlib.util
import io
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
    module = load_runner()
    module.main([str(table), "--replications", str(replications)])
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    return module, rows[0], rows[1:]


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
    module, header, rows = run_table(capsys, table, 2)
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
    _, header, rows = run_table(capsys, 2, 1)
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
