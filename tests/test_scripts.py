"""The Table 2-4 grid scripts, run in-process at a few replications."""

import csv
import importlib.util
import io
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_script(capsys, name, replications):
    module = load_script(name)
    module.main(["--replications", str(replications)])
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    return module, rows[0], rows[1:]


GRID_COLUMNS = {
    "run_table2": ["clusters", "cluster_size", "beta1", "beta3", "theta", "sigma_u2"],
    "run_table3": ["theta", "icc", "sigma_u2"],
    "run_table4": ["studies", "clusters", "cluster_size"],
}


@pytest.mark.parametrize("name", sorted(GRID_COLUMNS))
def test_table_script_emits_two_rows_per_grid_row(capsys, name):
    grid_columns = GRID_COLUMNS[name]
    module, header, rows = run_script(capsys, name, 2)
    assert header[: len(grid_columns)] == grid_columns
    assert header[len(grid_columns)] == "x"
    assert len(rows) == 2 * len(module.ROWS)
    for i, grid_row in enumerate(module.ROWS):
        for x, row in zip(("0", "1"), rows[2 * i : 2 * i + 2]):
            assert len(row) == len(header)
            assert row[: len(grid_columns)] == [str(v) for v in grid_row]
            assert row[len(grid_columns)] == x
            assert row[header.index("replications_used")] in ("0", "1", "2")


def test_table_script_prints_empty_cell_for_missing_metric(capsys):
    # one replicate cannot estimate an SE: the cell is empty, not a crash
    _, header, rows = run_script(capsys, "run_table2", 1)
    se = header.index("se")
    assert all(row[se] == "" for row in rows)
    assert all(row[header.index("bias")] != "" for row in rows)
