import csv
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import click
import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, given, settings, strategies as st

import clustersens
from clustersens import cli, fit_lmm, write_csv
from clustersens.cli import _emit_table, main
from clustersens.errors import ValidationError
from clustersens.simulation import ScenarioConfig, generate


@pytest.fixture
def runner():
    return CliRunner()


def invoke(runner, args):
    # mix_stderr=False went away in click 8.2; stdout/stderr are separate here
    return runner.invoke(main, args, catch_exceptions=False)


BASE_SCENARIO = {
    "kind": "single_continuous",
    "clusters": 30,
    "cluster_size": 3,
    "replications": 5,
    "seed": 99,
    "true_betas": [1.0, -1.0, 3.0, 1.0],
    "theta": 0.5,
    "sigma_u2": 0.25,
    "nu": 4.0,
    "phi": 1.0,
}


def scenario_file(tmp_path, **overrides):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({**BASE_SCENARIO, **overrides}))
    return str(path)


# ---------------------------------------------------------------------------
# fit
# ---------------------------------------------------------------------------


def test_fit_happy_path(tmp_path, runner):
    config = ScenarioConfig(
        kind="single_continuous", clusters=40, cluster_size=3, replications=1, seed=5,
    )
    path = tmp_path / "data.csv"
    write_csv(generate(config, 0), path)
    result = invoke(runner, ["fit", str(path), "--scale", "continuous"])
    assert result.exit_code == 0
    doc = json.loads(result.stdout)
    assert len(doc["coefficients"]) == 4
    assert doc["converged"] is True


def test_fit_matches_library_bit_for_bit(tmp_path, runner):
    config = ScenarioConfig(
        kind="single_continuous", clusters=100, cluster_size=3, replications=1, seed=314,
    )
    ds = generate(config, 0)
    path = tmp_path / "data.csv"
    write_csv(ds, path)
    result = invoke(runner, ["fit", str(path), "--scale", "continuous", "--precision", "17"])
    assert result.exit_code == 0
    doc = json.loads(result.stdout)
    fit = fit_lmm(ds)
    assert doc["coefficients"] == [float(v) for v in fit.coefficients]
    assert doc["coef_covariance"] == [float(v) for v in fit.coef_covariance.ravel()]
    assert doc["log_likelihood"] == fit.log_likelihood


def test_fit_missing_file_exits_3(runner):
    result = invoke(runner, ["fit", "/nonexistent/nope.csv", "--scale", "continuous"])
    assert result.exit_code == 3


def test_fit_invalid_data_exits_1(tmp_path, runner):
    path = tmp_path / "bad.csv"
    path.write_text("cluster_id,outcome,treatment,covariate_x\nc1,1.0,7,0\n")
    result = invoke(runner, ["fit", str(path), "--scale", "continuous"])
    assert result.exit_code == 1


def test_fit_binary_happy_path(tmp_path, runner):
    config = ScenarioConfig(
        kind="single_binary", clusters=40, cluster_size=4, replications=1, seed=6,
        true_betas=(-1.5, 0.8, 1.0, -0.4), theta=0.2, sigma_u2=0.25, nu=0.5,
    )
    path = tmp_path / "binary.csv"
    write_csv(generate(config, 0), path)
    result = invoke(runner, ["fit", str(path), "--scale", "binary", "--quadrature", "9"])
    assert result.exit_code == 0
    doc = json.loads(result.stdout)
    assert doc["scale"] == "binary"
    assert doc["quadrature_points"] == 9
    assert doc["residual_variance"] is None


def test_fit_csv_table_matches_library(tmp_path, runner):
    config = ScenarioConfig(
        kind="single_continuous", clusters=40, cluster_size=3, replications=1, seed=5,
    )
    ds = generate(config, 0)
    path = tmp_path / "data.csv"
    write_csv(ds, path)
    result = invoke(
        runner, ["fit", str(path), "--scale", "continuous", "--format", "csv", "--precision", "17"]
    )
    assert result.exit_code == 0
    header, *rows = csv.reader(io.StringIO(result.stdout))
    assert header == ["coefficient", "estimate", "std_error"]
    assert [row[0] for row in rows] == ["intercept", "treatment", "covariate", "interaction"]
    fit = fit_lmm(ds)
    assert [float(row[1]) for row in rows] == [float(v) for v in fit.coefficients]
    np.testing.assert_allclose(
        [float(row[2]) for row in rows], np.sqrt(np.diag(fit.coef_covariance)), rtol=1e-15
    )


def test_fit_quadrature_above_100_exits_1(tmp_path, runner):
    config = ScenarioConfig(
        kind="single_binary", clusters=10, cluster_size=4, replications=1, seed=6,
        true_betas=(-1.5, 0.8, 1.0, -0.4), theta=0.2, sigma_u2=0.25, nu=0.5,
    )
    path = tmp_path / "binary.csv"
    write_csv(generate(config, 0), path)
    result = invoke(runner, ["fit", str(path), "--scale", "binary", "--quadrature", "101"])
    assert_single_error_line(result)
    assert "quadrature_points must be <= 100, got 101" in result.stderr


@pytest.mark.parametrize("quadrature", ["0", "-5"])
def test_fit_quadrature_below_1_exits_1_on_the_continuous_scale_too(tmp_path, runner, quadrature):
    # the continuous fit uses no nodes, but an impossible count is refused on either scale
    path = tmp_path / "data.csv"
    write_csv(generate(ScenarioConfig(kind="single_continuous", clusters=40, cluster_size=3,
                                      replications=1, seed=5), 0), path)
    result = invoke(runner, ["fit", str(path), "--scale", "continuous", "--quadrature", quadrature])
    error = assert_single_error_line(result)
    assert error == f"error: quadrature_points must be >= 1, got {quadrature}"


def test_fit_all_zero_binary_exits_2(tmp_path, runner):
    rows = ["cluster_id,outcome,treatment,covariate_x"]
    for j in range(6):
        rows.append(f"c{j},0,{j % 2},{(j // 2) % 2}")
    path = tmp_path / "zeros.csv"
    path.write_text("\n".join(rows) + "\n")
    result = invoke(runner, ["fit", str(path), "--scale", "binary"])
    assert result.exit_code == 2
    assert "separation" in result.stderr.lower() or "degenerate" in result.stderr.lower()


@pytest.mark.parametrize("scale", ["continuous", "binary"])
def test_fit_one_cluster_exits_1(tmp_path, runner, scale):
    rows = ["cluster_id,outcome,treatment,covariate_x"]
    rows += [f"c1,{y},{i % 2},{i // 3}" for i, y in enumerate([1, 0, 0, 1, 1, 0])]
    path = tmp_path / "one.csv"
    path.write_text("\n".join(rows) + "\n")
    result = invoke(runner, ["fit", str(path), "--scale", scale])
    assert_single_error_line(result)
    assert "needs at least 2 clusters, got 1" in result.stderr


def binary_csv(path, y, a, x, cluster_size):
    rows = ["cluster_id,outcome,treatment,covariate_x"]
    rows += [f"c{j // cluster_size},{y[j]},{a[j]},{x[j]}" for j in range(len(y))]
    path.write_text("\n".join(rows) + "\n")
    return str(path)


def concordant_csv(tmp_path):
    # 20 clusters of 4 whose outcomes are all j % 2: every cluster is concordant
    rng = np.random.default_rng(0)
    a, x = rng.integers(0, 2, 80), rng.integers(0, 2, 80)
    return binary_csv(tmp_path / "concordant.csv", np.arange(80) // 4 % 2, a, x, 4)


def assert_overflow_exits_1_in_a_process(*args):
    # LAPACK writes its complaints to file descriptor 1 and numpy its
    # warnings to stderr, past click's capture, so the command runs in a
    # process whose streams are read whole
    src = str(Path(clustersens.__file__).resolve().parents[1])
    result = subprocess.run(
        [sys.executable, "-m", "clustersens.cli", *args],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
    )
    assert result.returncode == 1
    assert result.stdout == ""
    assert result.stderr.splitlines() == [
        "error: cross-products of the data overflow the float range: "
        "a covariate_x or outcome value is too large in magnitude"
    ]


@pytest.mark.parametrize("scale", ["continuous", "binary"])
def test_fit_covariate_overflowing_the_cross_products_exits_1(tmp_path, scale):
    # a covariate_x of 1e308 overflows X'X
    rng = np.random.default_rng(5)
    x = rng.normal(size=60)
    x[5] = 1e308
    y = rng.integers(0, 2, 60) if scale == "binary" else rng.normal(size=60)
    path = binary_csv(tmp_path / "huge_x.csv", y, np.arange(60) % 2, x, 3)
    assert_overflow_exits_1_in_a_process("fit", path, "--scale", scale)


def test_fit_outcome_sum_overflowing_exits_1(tmp_path):
    # every third outcome is 1e308: the outcome sum that centres y overflows
    # before any cross-product is formed
    rng = np.random.default_rng(5)
    y = rng.normal(size=40)
    y[::3] = 1e308
    path = binary_csv(tmp_path / "huge_y.csv", y.tolist(), np.arange(40) % 2,
                      rng.normal(size=40).tolist(), 4)
    assert_overflow_exits_1_in_a_process("fit", path, "--scale", "continuous")


def test_simulate_outcome_sum_overflowing_exits_1(tmp_path):
    path = scenario_file(tmp_path, true_betas=[1e308, 1.0, 1.0, 1.0])
    assert_overflow_exits_1_in_a_process("simulate", path)


def test_simulate_outcome_past_the_float_range_names_its_replicate_study_and_row(tmp_path, capfd):
    # b0 + b1 a overflows on the first treated row; numpy's overflow warning
    # would reach the process's stderr past click, so the streams are read
    # at the file descriptors
    path = scenario_file(
        tmp_path, clusters=50, cluster_size=3, replications=3, seed=1, true_betas=[1e308] * 4
    )
    with pytest.raises(SystemExit) as exit_info:
        main(["simulate", path])
    out, err = capfd.readouterr()
    assert exit_info.value.code == 1
    assert out == ""
    assert err.splitlines() == ["error: replicate 0, study 1: non-finite outcome at row 1"]


def test_fit_binary_concordant_clusters_exit_2(tmp_path, runner):
    result = invoke(runner, ["fit", concordant_csv(tmp_path), "--scale", "binary"])
    error = assert_single_error_line(result, exit_code=2)
    assert error == (
        "error: random-intercept variance diverged past 8103 (ICC 0.9996)"
    )


def test_fit_binary_one_event_separation_exits_2(tmp_path, runner):
    # 19 clusters of 2 with a single event: the event-free cells separate
    rng = np.random.default_rng(1)
    a, x = rng.integers(0, 2, 38), rng.integers(0, 2, 38)
    y = np.zeros(38, dtype=int)
    y[rng.integers(0, 38)] = 1
    result = invoke(runner, ["fit", binary_csv(tmp_path / "one.csv", y, a, x, 2), "--scale", "binary"])
    error = assert_single_error_line(result, exit_code=2)
    assert error == (
        "error: logistic fit has no finite maximum (separation)"
    )


def two_study_csv(path):
    # two studies of 40 clusters labelled 1-40 each, drawn with nu = 4
    rng = np.random.default_rng(5)
    rows = ["cluster_id,outcome,treatment,covariate_x,study_id"]
    for study in ("s1", "s2"):
        for cluster in range(1, 41):
            z = rng.normal(0, 2)
            for _ in range(3):
                a, x = int(rng.integers(0, 2)), int(rng.integers(0, 2))
                y = 1 - a + 3 * x + a * x + z + rng.normal()
                rows.append(f"{cluster},{y!r},{a},{x},{study}")
    path.write_text("\n".join(rows) + "\n")
    return str(path)


def test_fit_two_studies_in_one_file_exits_1(tmp_path, runner):
    # fitting the file would merge the 80 clusters into 40
    path = two_study_csv(tmp_path / "two.csv")
    result = invoke(runner, ["fit", path, "--scale", "continuous"])
    error = assert_single_error_line(result)
    assert error == (
        f"error: {path}: study_id holds 2 studies, first 's1' and 's2', but a dataset is one "
        "study: split the file by study, or drop the study_id column to fit the rows as one study"
    )


def test_fit_one_study_id_column_is_dropped(tmp_path, runner):
    config = ScenarioConfig(
        kind="single_continuous", clusters=40, cluster_size=3, replications=1, seed=9,
    )
    plain = tmp_path / "plain.csv"
    write_csv(generate(config, 0), plain)
    lines = plain.read_text().splitlines()
    labelled = tmp_path / "labelled.csv"
    labelled.write_text("\n".join([lines[0] + ",study_id"] + [f"{l},s1" for l in lines[1:]]) + "\n")
    args = ["--scale", "continuous", "--precision", "17"]
    expected = invoke(runner, ["fit", str(plain), *args])
    result = invoke(runner, ["fit", str(labelled), *args])
    assert result.exit_code == expected.exit_code == 0
    assert result.stdout == expected.stdout


@pytest.mark.parametrize(
    "body, message",
    [
        ("c1,1.0,1,0\nc1,x,0,1\n", "cannot parse outcome='x' as a number at row 2"),
        ("c1,1.0,2,0\nc1,2.0,0,1\n", "treatment must be 0 or 1, got 2.0 at row 1"),
        ("c1,1.0,1,0\nc1,,0,1\n", "missing value for 'outcome' at row 2"),
    ],
    ids=["unparseable", "row-check", "missing-value"],
)
def test_fit_reader_errors_name_the_file(tmp_path, runner, body, message):
    path = tmp_path / "data.csv"
    path.write_text("cluster_id,outcome,treatment,covariate_x\n" + body)
    result = invoke(runner, ["fit", str(path), "--scale", "continuous"])
    error = assert_single_error_line(result)
    assert error == f"error: {path}: {message}"


# a data file and a studies file of two rows each, for the commands that read CSV
READER_FILES = {
    "fit": ("cluster_id,outcome,treatment,covariate_x\n", "{label},1.0,1,0\nc2,2.0,0,1\n"),
    "meta": ("study_id,estimate,std_error\n", "{label},1.0,0.1\ns2,2.0,0.2\n"),
}


def reader_args(command, path):
    if command == "fit":
        return ["fit", str(path), "--scale", "continuous"]
    return ["meta", "--studies", str(path)]


@pytest.mark.parametrize("command", sorted(READER_FILES))
def test_non_utf8_file_exits_1_with_one_error_line(tmp_path, runner, command):
    header, body = READER_FILES[command]
    path = tmp_path / "latin1.csv"
    path.write_bytes((header + body.format(label="caf\u00e9")).encode("latin-1"))
    error = assert_single_error_line(invoke(runner, reader_args(command, path)))
    assert error == f"error: {path}: not UTF-8 text (byte 0xe9: invalid continuation byte)"


@pytest.mark.parametrize("command", sorted(READER_FILES))
def test_over_long_csv_field_exits_1_with_one_error_line(tmp_path, runner, command):
    header, body = READER_FILES[command]
    path = tmp_path / "long.csv"
    path.write_text(header + body.format(label="c" * (csv.field_size_limit() + 1)))
    error = assert_single_error_line(invoke(runner, reader_args(command, path)))
    assert error == (
        f"error: {path}: unreadable CSV at line 2: field larger than field limit "
        f"({csv.field_size_limit()})"
    )


@pytest.mark.parametrize("command", sorted(READER_FILES))
def test_a_column_named_twice_in_the_header_exits_1(tmp_path, runner, command):
    # the reader took the first of the two silently; an ignored column may still repeat
    header, body = READER_FILES[command]
    names = header.rstrip("\n").split(",")
    path = tmp_path / "repeated.csv"
    path.write_text(",".join([*names, "note", "note", names[1]]) + "\n"
                    + body.format(label="c1").replace("\n", ",a,b,9\n"))
    error = assert_single_error_line(invoke(runner, reader_args(command, path)))
    assert error == (
        f"error: {path}: column {names[1]!r} appears twice in the header "
        f"(columns 2 and {len(names) + 3})"
    )


def test_fit_reads_a_file_with_a_byte_order_mark(tmp_path, runner):
    plain = tmp_path / "plain.csv"
    write_csv(generate(ScenarioConfig(kind="single_continuous", clusters=40, cluster_size=3,
                                      replications=1, seed=5), 0), plain)
    marked = tmp_path / "marked.csv"
    marked.write_text(plain.read_text(encoding="utf-8"), encoding="utf-8-sig")
    expected = invoke(runner, ["fit", str(plain), "--scale", "continuous"])
    result = invoke(runner, ["fit", str(marked), "--scale", "continuous"])
    assert result.exit_code == expected.exit_code == 0
    assert result.stdout == expected.stdout


def test_meta_reads_a_studies_file_with_a_byte_order_mark(tmp_path, runner):
    header, body = READER_FILES["meta"]
    path = tmp_path / "studies.csv"
    path.write_text(header + body.format(label="s1"), encoding="utf-8-sig")
    result = invoke(runner, ["meta", "--studies", str(path)])
    assert result.exit_code == 0
    assert json.loads(result.stdout)["pooled"]["k"] == 2


# ---------------------------------------------------------------------------
# sensitivity
# ---------------------------------------------------------------------------


def test_sensitivity_published_triple_minimal_bias(runner):
    result = invoke(
        runner, ["sensitivity", "--estimate", "5.49", "--lb", "0.75", "--ub", "10.23"]
    )
    assert result.exit_code == 0
    doc = json.loads(result.stdout)
    assert doc["minimal_bias_factor"]["value"] == 0.75
    assert doc["minimal_bias_factor"]["direction"] == "positive"


def test_sensitivity_published_triple_with_spec(runner):
    result = invoke(
        runner,
        [
            "sensitivity", "--estimate", "5.49", "--lb", "0.75", "--ub", "10.23",
            "--theta", "3", "--m1x", "0.25", "--m0x", "0",
        ],
    )
    assert result.exit_code == 0
    doc = json.loads(result.stdout)
    assert doc["bias_factor"]["value"] == 0.75
    assert doc["explains_away"] is True
    assert doc["adjusted"]["estimate"] == 4.74
    assert doc["adjusted"]["lb"] == 0.0


def test_sensitivity_null_inclusive(runner):
    result = invoke(runner, ["sensitivity", "--estimate", "1", "--lb", "-0.5", "--ub", "2.5"])
    assert result.exit_code == 0
    doc = json.loads(result.stdout)
    assert doc["minimal_bias_factor"]["value"] == 0.0
    assert doc["minimal_bias_factor"]["direction"] == "none"
    assert "no confounding" in result.stderr


def test_sensitivity_asymmetric_triple_exits_1(runner):
    result = invoke(runner, ["sensitivity", "--estimate", "5.0", "--lb", "0.75", "--ub", "10.23"])
    assert result.exit_code == 1
    assert "symmetric" in result.stderr


def test_sensitivity_from_fit_document(tmp_path, runner):
    config = ScenarioConfig(
        kind="single_continuous", clusters=60, cluster_size=3, replications=1, seed=8,
    )
    ds = generate(config, 0)
    data_path = tmp_path / "data.csv"
    write_csv(ds, data_path)
    fit_result = invoke(
        runner, ["fit", str(data_path), "--scale", "continuous", "--precision", "17"]
    )
    fit_path = tmp_path / "fit.json"
    fit_path.write_text(fit_result.stdout)
    result = invoke(
        runner, ["sensitivity", "--fit", str(fit_path), "--x", "1.0", "--precision", "12"]
    )
    assert result.exit_code == 0
    doc = json.loads(result.stdout)
    fit = fit_lmm(ds)
    expected = fit.coefficients[1] + fit.coefficients[3]
    assert doc["effect"]["estimate"] == pytest.approx(expected, abs=1e-9)


def test_sensitivity_binary_fit_pipeline(tmp_path, runner):
    config = ScenarioConfig(
        kind="single_binary", clusters=60, cluster_size=4, replications=1, seed=21,
        true_betas=(-1.0, 0.9, 0.8, -0.3), theta=0.2, sigma_u2=0.25, nu=0.4,
    )
    data_path = tmp_path / "binary.csv"
    write_csv(generate(config, 0), data_path)
    fit_result = invoke(
        runner, ["fit", str(data_path), "--scale", "binary", "--precision", "17"]
    )
    assert fit_result.exit_code == 0
    fit_path = tmp_path / "fit.json"
    fit_path.write_text(fit_result.stdout)
    result = invoke(
        runner,
        ["sensitivity", "--fit", str(fit_path), "--x", "1",
         "--theta", "0.4", "--p1x", "0.6", "--p0x", "0.2"],
    )
    assert result.exit_code == 0
    doc = json.loads(result.stdout)
    assert doc["effect"]["scale"] == "log-RR"
    assert doc["bias_factor"]["scale"] == "log-RR"
    assert isinstance(doc["explains_away"], bool)


def test_sensitivity_high_icc_fit_warns_on_stderr(tmp_path, runner):
    # nu = 2 is a logistic ICC of 0.378; nu does not enter the effect, so the
    # payload equals that of the same fit at nu = 0.1, which does not warn
    doc = {**VALID_FIT_DOC, "scale": "binary", "residual_variance": None}
    outputs = []
    for nu in (0.1, 2.0):
        path = tmp_path / f"fit-{nu}.json"
        path.write_text(json.dumps({**doc, "random_intercept_variance": nu}))
        outputs.append(invoke(runner, ["sensitivity", "--fit", str(path)]))
    quiet, warned = outputs
    assert quiet.exit_code == warned.exit_code == 0
    assert warned.stdout == quiet.stdout
    assert "warning" not in quiet.stderr
    assert [line for line in warned.stderr.splitlines() if "warning" in line] == [
        "warning: fitted ICC 0.378 exceeds 0.35; log-RR bias factors are only reliable "
        "for small intraclass correlation"
    ]


def test_sensitivity_large_log_rr_theta_warns_on_stderr(runner):
    args = ["sensitivity", "--estimate", "0.5", "--lb", "0.1", "--ub", "0.9",
            "--scale", "log-RR", "--p1x", "0.5", "--p0x", "0.2"]
    quiet = invoke(runner, [*args, "--theta", "0.5"])
    warned = invoke(runner, [*args, "--theta", "2"])
    assert quiet.exit_code == warned.exit_code == 0
    assert "warning" not in quiet.stderr
    assert warned.stderr.splitlines() == [
        "warning: |theta| = 2 exceeds 1.0; the log-RR closed form assumes a small confounder effect"
    ]
    # the payload alone reaches stdout: log((0.5 e^2 + 0.5) / (0.2 e^2 + 0.8))
    ratio = (0.5 * math.exp(2) + 0.5) / (0.2 * math.exp(2) + 0.8)
    assert json.loads(warned.stdout)["bias_factor"]["value"] == pytest.approx(math.log(ratio), rel=1e-5)


def assert_single_error_line(result, exit_code=1):
    assert result.exit_code == exit_code
    assert result.stdout == ""
    errors = [line for line in result.stderr.splitlines() if line.startswith("error:")]
    assert len(errors) == 1
    assert "Traceback" not in result.stderr
    return errors[0]


VALID_FIT_DOC = {
    "scale": "continuous",
    "coefficients": [1.0, 0.5, 2.0, -0.3],
    "coef_covariance": np.eye(4).ravel().tolist(),
    "random_intercept_variance": 0.4,
    "residual_variance": 1.0,
    "log_likelihood": -120.0,
    "converged": True,
}


def test_sensitivity_hand_written_fit_document(tmp_path, runner):
    path = tmp_path / "fit.json"
    path.write_text(json.dumps(VALID_FIT_DOC))
    result = invoke(runner, ["sensitivity", "--fit", str(path)])
    assert result.exit_code == 0
    assert json.loads(result.stdout)["effect"]["estimate"] == pytest.approx(0.5)


def fit_doc(**overrides):
    return json.dumps({**VALID_FIT_DOC, **overrides})


@pytest.mark.parametrize(
    "text, named",
    [
        ("{not json", "fit document"),
        ("[1, 2, 3]", "fit document"),
        (json.dumps({"scale": "continuous"}), "fit document"),
        (json.dumps({k: v for k, v in VALID_FIT_DOC.items() if k != "coef_covariance"}),
         "coef_covariance"),
        (fit_doc(scale="ordinal"), "fit document"),
        (fit_doc(coefficients=[1.0, 0.5, 2.0]), "coefficients"),
        (fit_doc(coefficients="abcd"), "'coefficients'"),
        (fit_doc(coef_covariance=[1.0] * 15), "coef_covariance"),
        (fit_doc(coefficients=[1.0, math.nan, 2.0, -0.3]), "fit document"),
        (fit_doc(coef_covariance=[math.inf] * 16), "fit document"),
        (fit_doc(random_intercept_variance=math.nan), "fit document"),
        (fit_doc(random_intercept_variance=-1), "random_intercept_variance"),
        (fit_doc(residual_variance=-0.5), "residual_variance"),
        # values of the wrong JSON type, each refused naming its key
        (fit_doc(converged="false"), "'converged'"),
        (fit_doc(converged=1), "'converged'"),
        (fit_doc(boundary="no"), "'boundary'"),
        (fit_doc(coefficients=["1.0", 0.5, 2.0, -0.3]), "'coefficients'"),
        (fit_doc(coefficients=[True, 0.5, 2.0, -0.3]), "'coefficients'"),
        (fit_doc(coef_covariance=np.eye(4).tolist()), "'coef_covariance'"),
        (fit_doc(random_intercept_variance="0.4"), "'random_intercept_variance'"),
        (fit_doc(residual_variance=True), "'residual_variance'"),
        (fit_doc(log_likelihood="-120"), "'log_likelihood'"),
        (fit_doc(n_obs=3.7), "'n_obs'"),
        (fit_doc(n_obs=-1), "'n_obs'"),
        (fit_doc(n_clusters="30"), "'n_clusters'"),
        (fit_doc(n_iterations=True), "'n_iterations'"),
        (fit_doc(quadrature_points="many"), "'quadrature_points'"),
        (fit_doc(quadrature_points=0), "'quadrature_points'"),
    ],
    ids=[
        "malformed-json", "not-an-object", "scale-only", "missing-covariance", "unknown-scale",
        "three-coefficients", "string-coefficients", "fifteen-covariance-entries",
        "nan-coefficient", "inf-covariance", "nan-variance", "negative-intercept-variance",
        "negative-residual-variance", "converged-string", "converged-number", "boundary-string",
        "coefficient-string", "coefficient-bool", "nested-covariance", "variance-string",
        "residual-bool", "log-likelihood-string", "n-obs-fraction", "n-obs-negative",
        "n-clusters-string", "n-iterations-bool", "quadrature-string", "quadrature-zero",
    ],
)
def test_sensitivity_malformed_fit_document_exits_1(tmp_path, runner, text, named):
    path = tmp_path / "fit.json"
    path.write_text(text)
    result = invoke(runner, ["sensitivity", "--fit", str(path)])
    error = assert_single_error_line(result)
    assert error.startswith(f"error: {path}: fit document ") and named in error


@pytest.mark.parametrize("key", ["n_obs", "n_clusters", "n_iterations"])
def test_sensitivity_fit_count_past_the_float_range_exits_1(tmp_path, runner, key):
    # the JSON number 1e400 parses to inf, which int() refuses with an OverflowError
    path = tmp_path / "fit.json"
    path.write_text(json.dumps({**VALID_FIT_DOC, key: "1e400"}).replace('"1e400"', "1e400"))
    result = invoke(runner, ["sensitivity", "--fit", str(path), "--x", "1", "--theta", "0.5",
                             "--m1x", "0.3", "--m0x", "0"])
    assert "malformed number" in assert_single_error_line(result)


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--theta", "3", "--m1x", "1", "--p1x", "0.2"],
         "give exactly one of --m1x, --p1x, --mu1x (with its partner)"),
        (["--m1x", "1", "--m0x", "0"], "--theta is required when sensitivity parameters are given"),
        (["--theta", "3", "--m1x", "1"], "--m1x requires --m0x"),
        (["--theta", "0.4", "--p1x", "0.5"], "--p1x requires --p0x"),
        (["--theta", "0.4", "--mu1x", "1"], "--mu1x requires --mu0x"),
    ],
    ids=["two-kinds", "no-theta", "m1x-alone", "p1x-alone", "mu1x-alone"],
)
def test_sensitivity_incomplete_confounder_flags_exit_1(runner, flags, message):
    result = invoke(
        runner, ["sensitivity", "--estimate", "5.49", "--lb", "0.75", "--ub", "10.23", *flags]
    )
    assert_single_error_line(result)
    assert result.stderr.endswith(f"error: {message}\n")


@pytest.mark.parametrize(
    "args, message",
    [
        (["--fit", "fit.json", "--estimate", "1", "--lb", "0", "--ub", "2"],
         "give either --fit or the (--estimate, --lb, --ub) triple"),
        (["--estimate", "1"], "need --estimate, --lb and --ub (or --fit)"),
        (["--estimate", "1", "--lb", "2", "--ub", "0"], "need lb < ub"),
    ],
    ids=["fit-and-triple", "partial-triple", "reversed-interval"],
)
def test_sensitivity_usage_errors_exit_1(runner, args, message):
    assert assert_single_error_line(invoke(runner, ["sensitivity", *args])) == f"error: {message}"


def test_sensitivity_normal_confounder_spec(runner):
    result = invoke(
        runner,
        ["sensitivity", "--estimate", "0.3", "--lb", "0.1", "--ub", "0.5", "--scale", "log-RR",
         "--theta", "0.4", "--mu1x", "0.6", "--mu0x", "0.2", "--precision", "17"],
    )
    assert result.exit_code == 0
    doc = json.loads(result.stdout)
    # a normal confounder shifts the log-RR by theta * (mu1x - mu0x)
    assert doc["bias_factor"]["scale"] == "log-RR"
    assert doc["bias_factor"]["value"] == pytest.approx(0.4 * 0.4, rel=1e-12)
    assert doc["adjusted"]["estimate"] == pytest.approx(0.3 - 0.16, rel=1e-12)
    assert doc["explains_away"] is True  # the bias 0.16 reaches the lower bound 0.1


# ---------------------------------------------------------------------------
# meta
# ---------------------------------------------------------------------------


def test_meta_published_summary_example(runner):
    result = invoke(
        runner,
        [
            "meta", "--mu", str(math.log(1.33)), "--v", "0.08",
            "--q", str(math.log(1.2)), "--r", "0.4",
        ],
    )
    assert result.exit_code == 0
    doc = json.loads(result.stdout)
    assert abs(doc["minimal_common_bias"]["value"] - 0.17) < 0.005


def test_meta_degenerate_variance(runner):
    result = invoke(runner, ["meta", "--mu", "0.3", "--v", "0", "--q", "0.3", "--r", "0.4"])
    assert result.exit_code == 0
    doc = json.loads(result.stdout)
    assert doc["minimal_common_bias"]["value"] == 0.0


def test_meta_bad_r_exits_1(runner):
    result = invoke(runner, ["meta", "--mu", "0.3", "--v", "0.08", "--q", "0.1", "--r", "0.6"])
    assert result.exit_code == 1


def test_meta_pools_studies_csv(tmp_path, runner):
    path = tmp_path / "studies.csv"
    se = math.sqrt(0.1)
    path.write_text(f"study_id,estimate,std_error\ns1,1.0,{se!r}\ns2,2.0,{se!r}\n")
    result = invoke(runner, ["meta", "--studies", str(path), "--precision", "12"])
    assert result.exit_code == 0
    doc = json.loads(result.stdout)
    assert doc["pooled"]["mu_hat"] == pytest.approx(1.5)
    assert doc["pooled"]["v_hat"] == pytest.approx(0.4)


@pytest.mark.parametrize(
    "row", ["s2,nan,0.1", "s2,inf,0.1", "s2,2.0,inf", "s2,2.0,-0.3", "s2,2.0,0"]
)
def test_meta_studies_non_finite_or_non_positive_row_exits_1(tmp_path, runner, row):
    path = tmp_path / "studies.csv"
    path.write_text(f"study_id,estimate,std_error\ns1,1.0,0.3\n{row}\ns3,0.5,0.3\n")
    result = invoke(runner, ["meta", "--studies", str(path), "--q", "0.1", "--r", "0.3"])
    assert_single_error_line(result)
    assert "row 2" in result.stderr


@pytest.mark.parametrize(
    "body, message",
    [(",1.0,0.1\ns2,2.0,0.1\n", "missing value for 'study_id' at row 1"),
     ("s1,1.0,0.1\ns2,1.0\n", "missing value for 'std_error' at row 2")],
    ids=["empty-study-id", "short-row"],
)
def test_meta_studies_missing_value_exits_1(tmp_path, runner, body, message):
    path = tmp_path / "studies.csv"
    path.write_text("study_id,estimate,std_error\n" + body)
    result = invoke(runner, ["meta", "--studies", str(path), "--q", "0.1", "--r", "0.3"])
    error = assert_single_error_line(result)
    assert error == f"error: {path}: {message}"


def test_meta_non_finite_result_never_reaches_stdout(runner):
    result = invoke(runner, ["meta", "--mu", "nan", "--v", "0.08", "--q", "0.1", "--r", "0.3"])
    assert_single_error_line(result)
    assert "non-finite" in result.stderr


@pytest.mark.parametrize(
    "extra", [["--r", "0.2"], ["--bias-mean", "0.1"]], ids=["minimal-bias", "p-of-q"]
)
def test_meta_negative_variance_exits_1_naming_it(runner, extra):
    result = invoke(runner, ["meta", "--mu", "0", "--v", "-1", "--q", "0.1", *extra])
    assert_single_error_line(result)
    assert "v_hat must be >= 0, got -1.0" in result.stderr


def test_meta_studies_with_threshold_pipeline(tmp_path, runner):
    rng = np.random.default_rng(55)
    lines = ["study_id,estimate,std_error"]
    for i in range(12):
        lines.append(f"s{i},{0.4 + 0.3 * rng.standard_normal()!r},0.1")
    path = tmp_path / "studies.csv"
    path.write_text("\n".join(lines) + "\n")
    result = invoke(
        runner, ["meta", "--studies", str(path), "--q", "0.1", "--r", "0.3", "--precision", "10"]
    )
    assert result.exit_code == 0
    doc = json.loads(result.stdout)
    assert doc["pooled"]["k"] == 12
    assert "minimal_common_bias" in doc


def test_meta_p_of_q_flags(runner):
    result = invoke(
        runner,
        ["meta", "--mu", "0.3", "--v", "0.04", "--q", "0.1", "--bias-mean", "0.1",
         "--bias-variance", "0.01", "--precision", "12"],
    )
    assert result.exit_code == 0
    doc = json.loads(result.stdout)
    assert doc["p_of_q"] == pytest.approx(0.7181485691746135, abs=1e-10)


@pytest.mark.parametrize(
    "args, message",
    [
        (["--studies", "studies.csv", "--mu", "0.3"], "give either --studies or the (--mu, --v) pair"),
        (["--mu", "0.3", "--q", "0.1", "--r", "0.3"], "need --studies or both --mu and --v"),
        (["--mu", "0.3", "--v", "0.04", "--bias-mean", "0.1"], "--bias-mean needs --q"),
        (["--mu", "0.3", "--v", "0.04"], "nothing to compute: give studies, a pooled fit, or q/r"),
        (["--mu", "1", "--v", "1", "--q", "0.5", "--bias-mean", "0.1", "--bias-variance", "-1"],
         "bias variance must be >= 0, got -1.0"),
    ],
    ids=["studies-and-pair", "half-pair", "bias-mean-without-q", "nothing-to-compute",
         "negative-bias-variance"],
)
def test_meta_usage_errors_exit_1(runner, args, message):
    result = invoke(runner, ["meta", *args])
    error = assert_single_error_line(result)
    assert error == f"error: {message}"


# ---------------------------------------------------------------------------
# contour
# ---------------------------------------------------------------------------


def test_contour_csv_node(runner):
    result = invoke(
        runner,
        ["contour", "--delta-range", "0", "1", "--theta-range", "0", "4",
         "--resolution", "5", "--threshold", "0.75"],
    )
    assert result.exit_code == 0
    lines = result.stdout.strip().splitlines()
    assert lines[0] == "delta_m,theta,bias_factor,explains"
    assert len(lines) == 26
    target = [ln for ln in lines if ln.startswith("0.25,3,")]
    assert target == ["0.25,3,0.75,true"]


def test_contour_json_objects_match_csv_rows(runner):
    args = ["contour", "--delta-range", "0", "1", "--theta-range", "0", "4",
            "--resolution", "5", "--threshold", "0.75"]
    table = invoke(runner, args).stdout.strip().splitlines()
    result = invoke(runner, args + ["--format", "json"])
    assert result.exit_code == 0
    doc = json.loads(result.stdout)
    assert {"delta_m": 0.25, "theta": 3.0, "bias_factor": 0.75, "explains": True} in doc
    assert [
        f"{o['delta_m']:g},{o['theta']:g},{o['bias_factor']:g},{str(o['explains']).lower()}"
        for o in doc
    ] == table[1:]


def test_contour_bad_resolution_exits_1(runner):
    result = invoke(
        runner,
        ["contour", "--resolution", "1", "--threshold", "0.5"],
    )
    assert result.exit_code == 1


def test_contour_unordered_range_exits_1(runner):
    result = invoke(runner, ["contour", "--delta-range", "1", "0", "--threshold", "1"])
    assert assert_single_error_line(result) == "error: ranges must be ordered (lo, hi)"


def test_contour_unallocatable_grid_exits_1(runner):
    # 10**14 cells ask for petabytes, so the allocation fails at once
    result = invoke(runner, ["contour", "--resolution", "10000000", "--threshold", "1"])
    assert assert_single_error_line(result) == (
        "error: resolution 10000000 asks for 100,000,000,000,000 grid cells, "
        "more than memory holds; give a smaller resolution"
    )


def test_contour_deterministic(runner):
    args = ["contour", "--resolution", "20", "--threshold", "0.3"]
    first = invoke(runner, args)
    second = invoke(runner, args)
    assert first.stdout == second.stdout


# ---------------------------------------------------------------------------
# CSV emission
# ---------------------------------------------------------------------------


def reference_csv(header, rows, precision):
    """The per-cell writer the column-at-a-time emitter must match byte for byte."""

    def cell(value):
        if value is None:
            return ""
        if isinstance(value, bool):
            return "true" if value else "false"
        if isinstance(value, float):
            if not math.isfinite(value):
                raise ValidationError(f"result holds a non-finite number, not valid CSV: {value}")
            return f"{value:.{precision}g}"
        return value

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([cell(v) for v in row])
    return buf.getvalue()


def rows_of(columns):
    """The rows of a table held as columns, as the Python values a row writer takes."""
    return list(zip(*[c.tolist() if isinstance(c, np.ndarray) else c for c in columns]))


def emitted_csv(capsys, header, columns, precision):
    """The emitter's stdout, or its error message."""
    try:
        _emit_table(header, columns, precision, "csv")
    except ValidationError as exc:
        return f"error: {exc}"
    return capsys.readouterr().out


def reference_or_error(header, rows, precision):
    try:
        return reference_csv(header, rows, precision)
    except ValidationError as exc:
        return f"error: {exc}"


FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(max_value=1e-307, min_value=-1e-307),  # subnormals and zeros
    st.sampled_from([0.0, -0.0, 0.1, 1.0 / 3.0, 1e308, 5e-324]),  # repeats
)
NON_FINITE = st.sampled_from([math.inf, -math.inf, math.nan])
TEXTS = st.sampled_from(["", "plain", "a,b", "a, b", 'say "hi"', "two\nlines", " lead"])
ANY_CELL = st.one_of(
    FLOATS, st.booleans(), st.integers(), st.none(), TEXTS,
    FLOATS.map(np.float64), NON_FINITE.map(np.float64),
)
# (cells, dtype): a list column when dtype is None, else an ndarray of that dtype
COLUMNS = st.sampled_from([
    (FLOATS, None),
    (st.one_of(FLOATS, NON_FINITE), None),
    (st.booleans(), None),
    (ANY_CELL, None),
    (FLOATS, np.float64),
    (st.one_of(FLOATS, NON_FINITE), np.float64),
    (st.booleans(), np.bool_),
])


@st.composite
def tables(draw):
    kinds = draw(st.lists(COLUMNS, min_size=1, max_size=4))
    n_rows = draw(st.integers(0, 30))
    columns = []
    for cells, dtype in kinds:
        column = draw(st.lists(cells, min_size=n_rows, max_size=n_rows))
        columns.append(column if dtype is None else np.array(column, dtype=dtype))
    header = draw(st.lists(TEXTS, min_size=len(kinds), max_size=len(kinds)))
    return header, columns


@pytest.mark.parametrize("precision", [0, 6, 12, 17])
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(table=tables())
def test_emit_csv_matches_per_cell_writer(capsys, precision, table):
    header, columns = table
    capsys.readouterr()
    assert emitted_csv(capsys, header, columns, precision) == reference_or_error(
        header, rows_of(columns), precision
    )


def test_emit_csv_refuses_the_first_non_finite_cell_in_row_major_order(capsys):
    # column 0 holds a nan on row 2, but row 1 is met first, and on row 1
    # the np.float64 -inf in column 1 comes before the inf in column 2
    columns = [
        [0.5, 2.0, math.nan],
        [None, np.float64("-inf"), None],
        [1.0, math.inf, 3.0],
    ]
    expected = reference_or_error(["a", "b", "c"], rows_of(columns), 6)
    assert expected == "error: result holds a non-finite number, not valid CSV: -inf"
    assert emitted_csv(capsys, ["a", "b", "c"], columns, 6) == expected
    floats_only = [[1.0, 3.0, math.nan], [2.0, math.inf, 4.0]]
    assert emitted_csv(capsys, ["a", "b"], floats_only, 6) == (
        "error: result holds a non-finite number, not valid CSV: inf"
    )
    # the first bad cell met is the nan of the ndarray in column 1 on row 1,
    # ahead of the list's inf beside it and the array's -inf on row 2
    arrays = [
        np.array([0.5, 1.0, -math.inf]),
        np.array([1.0, math.nan, 2.0]),
        [None, math.inf, None],
    ]
    expected = reference_or_error(["a", "b", "c"], rows_of(arrays), 6)
    assert expected == "error: result holds a non-finite number, not valid CSV: nan"
    assert emitted_csv(capsys, ["a", "b", "c"], arrays, 6) == expected


# ---------------------------------------------------------------------------
# JSON table emission
# ---------------------------------------------------------------------------

JSON_NAMES = st.sampled_from(["", "x", "delta_m", "100%", "%s", 'say "hi"', "caf\u00e9"])
# the table contract: scalar cells under distinct names
JSON_COLUMNS = st.sampled_from([
    (FLOATS, None),
    (st.one_of(FLOATS, NON_FINITE), None),
    (st.booleans(), None),
    (st.one_of(st.integers(), st.none()), None),
    (ANY_CELL, None),
    (FLOATS, np.float64),
    (st.one_of(FLOATS, NON_FINITE), np.float64),
    (st.booleans(), np.bool_),
])


@st.composite
def json_tables(draw):
    kinds = draw(st.lists(JSON_COLUMNS, min_size=1, max_size=4))
    n_rows = draw(st.integers(0, 30))
    columns = []
    for cells, dtype in kinds:
        column = draw(st.lists(cells, min_size=n_rows, max_size=n_rows))
        columns.append(column if dtype is None else np.array(column, dtype=dtype))
    names = st.lists(JSON_NAMES, min_size=len(kinds), max_size=len(kinds), unique=True)
    return draw(names), columns


def indented_json_or_error(header, columns):
    """The indented encoder on the table's row objects, or its refusal.

    At precision 17 the emitter's rounding is float() of each float cell:
    every finite double stays as it is and an np.float64 becomes a float,
    so the reference rows are built that way.
    """
    rows = [
        {name: float(v) if isinstance(v, float) else v for name, v in zip(header, row)}
        for row in rows_of(columns)
    ]
    try:
        return json.dumps(rows, indent=2, allow_nan=False) + "\n"
    except ValueError as exc:
        return f"error: result holds a non-finite number, not valid JSON: {exc}"


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(table=json_tables())
def test_emit_json_table_matches_the_indented_encoder(capsys, table):
    header, columns = table
    capsys.readouterr()
    try:
        _emit_table(header, columns, 17, "json")
        got = capsys.readouterr().out
    except ValidationError as exc:
        got = f"error: {exc}"
    assert got == indented_json_or_error(header, columns)


def test_emit_json_table_lays_out_a_scalar_table_itself(capsys, monkeypatch):
    # the indented encoder is the slow path: a table of finite scalars under
    # distinct names never reaches it
    monkeypatch.setattr(cli, "_emit_json", None)
    header = ["delta_m", "theta", "n", "explains"]
    columns = [np.array([0.5, -0.0, 1e300]), [1.0, 2.5, 5e-324], [1, None, -7],
               np.array([True, False, True])]
    _emit_table(header, columns, 17, "json")
    assert capsys.readouterr().out == indented_json_or_error(header, columns)


def test_emit_json_table_refuses_a_value_rounded_past_the_float_range(capsys):
    # at precision 0, 1.5e308 rounds to 2e308, which is inf: it is met on
    # row 1, ahead of the inf of row 2, in the array and in the list alike
    for column in (np.array([0.5, -1.5e308, math.inf]), [0.5, -1.5e308, math.inf]):
        with pytest.raises(ValidationError) as caught:
            _emit_table(["b"], [column], 0, "json")
        assert str(caught.value) == (
            "result holds a non-finite number, not valid JSON: "
            "Out of range float values are not JSON compliant: -inf"
        )
    assert capsys.readouterr().out == ""


# ---------------------------------------------------------------------------
# pinned output digests
# ---------------------------------------------------------------------------

SIGNED_ZERO_GRID = ["contour", "--delta-range", "-1", "-0", "--theta-range", "-0.5", "0.75",
                    "--threshold", "-0.25"]
# sha256 of "<exit code>\n<stdout>" per invocation, recorded before the contour
# table reached the emitter as columns; a changed byte of stdout or a changed
# exit code changes the digest. {data} is a 40x3 continuous CSV and
# {scenario} a two-replicate continuous scenario, both written by the test.
PINNED_OUTPUTS = {
    "contour-200": (["contour", "--resolution", "200", "--threshold", "0.9"],
        "4c8285434009ecb50df8dd575060e04ae7a33133f651864c417fcf1333cdc4fb"),
    "contour-37": (["contour", "--delta-range", "-0.3", "1.7", "--theta-range", "0.1", "5.3",
                    "--resolution", "37", "--threshold", "0.9"],
        "ce6ff161c51b638e3cc0ddd08233098de8f28c57407149b2825170dcf5e19345"),
    "contour-precision-1": ([*SIGNED_ZERO_GRID, "--resolution", "11", "--precision", "1"],
        "969acf462a7343c2a3fb06f73f77d57a0dba4b26349f8e68c3b896d1b18e5d8a"),
    "contour-precision-6": ([*SIGNED_ZERO_GRID, "--resolution", "11", "--precision", "6"],
        "49d58770bc1d08aae0d0e53999081a256de4e92862e107f599172bcd58e62bda"),
    "contour-precision-17": ([*SIGNED_ZERO_GRID, "--resolution", "11", "--precision", "17"],
        "71ec6d0c42d6eb4c8256d0fa5a93408e1dbaaabe21c91be624bbee0b5f21735c"),
    "contour-json": ([*SIGNED_ZERO_GRID, "--resolution", "5", "--format", "json",
                      "--precision", "17"],
        "2c6e891b8cdfa51253654f66de851555a5e1abd2adb13a92de3a8e0f243a3ad6"),
    # 40,000 rows: 40 chunks of the emitter's 1,024 rows, the last one short
    "contour-json-200": (["contour", "--resolution", "200", "--threshold", "0.9",
                          "--format", "json"],
        "db4ba590b63895cf3ef47ff80536b400e7b985042d5e98b79f5717c7271d89a1"),
    "contour-overflow": (["contour", "--threshold", "1", "--resolution", "5",
                          "--delta-range", "-1e308", "1e308", "--theta-range", "0", "4"],
        "4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865"),
    "fit-csv": (["fit", "{data}", "--scale", "continuous", "--format", "csv"],
        "0c8740c8df533e61f970a483850a3b5e32494dc7b03340af69b4d5ec64032ef4"),
    "fit-json": (["fit", "{data}", "--scale", "continuous"],
        "225dbcf2ec08d93e97147f0837ce8edb8b172e111cfc6245d601c35e51c667ba"),
    "sensitivity-csv": (["sensitivity", "--estimate", "5.49", "--lb", "0.75", "--ub", "10.23",
                         "--theta", "3", "--m1x", "0.25", "--m0x", "0", "--format", "csv"],
        "8c70c58d149047f48c4d949d80d80fc18bdf2a0c05581f38d9d06c44717b964b"),
    "meta-csv": (["meta", "--mu", "0.2852", "--v", "0.08", "--q", "0.1823", "--r", "0.4",
                  "--bias-mean", "0.1", "--bias-variance", "0.01", "--format", "csv"],
        "b6b5782ad7afa87a5d23a1734b8af661ac7f63c75bc5951f334f8ebf09c9d53b"),
    "simulate": (["simulate", "{scenario}"],
        "9d31061a113de375a6ea0acaebd029f9c860c25e8382ac9019132991596f44f0"),
}


@pytest.mark.parametrize("case", sorted(PINNED_OUTPUTS))
def test_output_matches_pinned_digest(tmp_path, runner, case):
    args, digest = PINNED_OUTPUTS[case]
    data = tmp_path / "data.csv"
    write_csv(generate(ScenarioConfig(kind="single_continuous", clusters=40, cluster_size=3,
                                      replications=1, seed=5), 0), data)
    paths = {"data": str(data), "scenario": scenario_file(tmp_path, replications=2)}
    result = invoke(runner, [arg.format(**paths) for arg in args])
    text = f"{result.exit_code}\n{result.stdout}"
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest


def many_chunk_csv(path):
    # 1,500 rows: five whole chunks of the reader's 256 rows and part of a sixth
    write_csv(generate(ScenarioConfig(kind="single_continuous", clusters=500, cluster_size=3,
                                      replications=1, seed=5), 0), path)
    return str(path)


def test_fit_on_a_many_chunk_file_matches_pinned_digest(tmp_path, runner):
    # recorded with the reader that held the whole file as rows
    data = many_chunk_csv(tmp_path / "data.csv")
    result = invoke(runner, ["fit", data, "--scale", "continuous"])
    text = f"{result.exit_code}\n{result.stdout}"
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == (
        "b30c855e9901fd6f6b968cc1986b1fda344888d4de7bad2e92179c45747b2cbb"
    )


def test_stdout_is_byte_identical_across_hash_seeds(tmp_path):
    # a rerun is a new process with a new str hash seed; no output may depend on it
    data = many_chunk_csv(tmp_path / "data.csv")
    src = str(Path(clustersens.__file__).resolve().parents[1])
    commands = [["fit", data, "--scale", "continuous"],
                ["contour", "--resolution", "50", "--threshold", "0.9"]]
    outputs = {}
    for seed in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": seed}
        runs = [subprocess.run([sys.executable, "-m", "clustersens.cli", *args],
                               capture_output=True, env=env) for args in commands]
        assert [run.returncode for run in runs] == [0, 0]
        outputs[seed] = [run.stdout for run in runs]
    assert outputs["1"] == outputs["2"]


def test_contour_signed_zeros_keep_their_sign(runner):
    result = invoke(
        runner,
        ["contour", "--delta-range", "-1", "0", "--theta-range", "0", "1",
         "--resolution", "2", "--threshold", "0"],
    )
    assert result.exit_code == 0
    assert result.stdout == (
        "delta_m,theta,bias_factor,explains\n"
        "-1,0,-0,true\n"
        "-1,1,-1,false\n"
        "0,0,0,true\n"
        "0,1,0,true\n"
    )


# ---------------------------------------------------------------------------
# non-finite float options
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "args, named",
    [
        (["contour", "--threshold", "nan", "--resolution", "2"], "--threshold"),
        (["contour", "--delta-range", "0", "inf", "--threshold", "0.5"], "--delta-range"),
        (["meta", "--mu", "nan", "--v", "1", "--q", "0.1", "--r", "0.2"], "--mu"),
        (["meta", "--mu", "0.3", "--v", "0.08", "--q", "0.1", "--bias-mean", "-inf"],
         "--bias-mean"),
        (["sensitivity", "--estimate", "0.5", "--lb", "0.1", "--ub", "0.9", "--theta", "nan",
          "--m1x", "0.5", "--m0x", "0.1"], "--theta"),
        (["sensitivity", "--estimate", "0", "--lb", "-1e308", "--ub", "1e308"],
         "implied standard error"),
        *(
            (["sensitivity", "--estimate", "1", "--lb", "0.5", "--ub", "1.5", "--level", level],
             "level must lie in (0, 1)")
            for level in ("0", "1", "1.5", "-0.5")
        ),
        # (1 + level) / 2 rounds to 1/2, so the critical value is 0
        *(
            (["sensitivity", "--estimate", "1", "--lb", "0.5", "--ub", "1.5", "--level", level],
             f"level {level} is too small")
            for level in ("1e-17", "1e-300", "5e-324")
        ),
    ],
    ids=["contour-threshold", "contour-range", "meta-mu", "meta-bias-mean", "sensitivity-theta",
         "sensitivity-overflowing-interval", "sensitivity-level-0", "sensitivity-level-1",
         "sensitivity-level-1.5", "sensitivity-level-negative", "sensitivity-level-1e-17",
         "sensitivity-level-1e-300", "sensitivity-level-5e-324"],
)
def test_non_finite_float_option_exits_1_naming_it(runner, args, named):
    result = invoke(runner, args)
    assert_single_error_line(result)
    assert named in result.stderr


FLOAT_OPTIONS = [
    (name, param.opts[0], param.nargs)
    for name, cmd in sorted(main.commands.items())
    for param in cmd.params
    if isinstance(param.type, click.types.FloatParamType)
]
REQUIRED_ARGS = {"contour": ["--threshold", "1"]}


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize(
    "command, option, nargs", FLOAT_OPTIONS, ids=[f"{c}{o}" for c, o, _ in FLOAT_OPTIONS]
)
def test_every_float_option_rejects_non_finite(runner, command, option, nargs, value):
    result = invoke(runner, [command, *REQUIRED_ARGS.get(command, []), option, *[value] * nargs])
    assert_single_error_line(result)
    assert f"error: {option} is non-finite ({float(value)}); give a finite number" in result.stderr


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "args",
    [
        ["contour", "--threshold", "1", "--resolution", "2",
         "--delta-range", "0", "1e308", "--theta-range", "0", "1e308"],
        ["contour", "--threshold", "1", "--resolution", "5",
         "--delta-range", "-1e308", "1e308", "--theta-range", "0", "4"],
        ["meta", "--mu", "1e308", "--v", "1e308", "--q", "-1e308", "--r", "0.2", "--format", "csv"],
    ],
    ids=["contour", "contour-range", "meta"],
)
def test_csv_refuses_a_non_finite_result(runner, args):
    # numpy's overflow warnings are errors here: the refusal is the only
    # line on stderr
    result = invoke(runner, args)
    assert_single_error_line(result)
    assert len(result.stderr.splitlines()) == 1
    assert "result holds a non-finite number" in result.stderr


def test_json_refuses_a_non_finite_result(runner):
    result = invoke(runner, ["meta", "--mu", "1e308", "--v", "1e300", "--q", "-1e308", "--r", "0.4"])
    error = assert_single_error_line(result)
    assert error == (
        "error: result holds a non-finite number, not valid JSON: "
        "Out of range float values are not JSON compliant: inf"
    )


@pytest.mark.parametrize(
    "args, named",
    [
        (["fit", "data.csv"], "--scale"),
        (["fit", "data.csv", "--scale", "trinary"], "trinary"),
        (["contour", "--threshold", "abc"], "abc"),
        (["meta", "--bogus", "1"], "--bogus"),
        (["contour", "--threshold", "1", "--format", "xml"], "xml"),
        (["bogus"], "bogus"),
        (["--bogus"], "--bogus"),
        ([], "--help"),
        (["simulate", "scenario.json", "--workers", "0"], "--workers"),
        (["simulate", "scenario.json", "--workers", "-3"], "--workers"),
    ],
    ids=["missing-option", "bad-choice", "bad-float", "unknown-option", "bad-format",
         "unknown-command", "unknown-group-option", "no-command", "zero-workers",
         "negative-workers"],
)
def test_usage_error_exits_1_with_one_error_line(runner, args, named):
    result = invoke(runner, args)
    assert_single_error_line(result)
    assert len(result.stderr.splitlines()) == 1
    assert named in result.stderr


@pytest.mark.parametrize(
    "args",
    [
        # missing input files: the precision check comes first, so these
        # exit 1, not with the I/O error's 3
        ["fit", "missing.csv", "--scale", "continuous"],
        ["simulate", "missing.json"],
        ["sensitivity", "--estimate", "1", "--lb", "0.5", "--ub", "1.5"],
        ["meta", "--mu", "0.5", "--v", "0.1", "--q", "0.2", "--r", "0.4", "--format", "csv"],
        ["contour", "--threshold", "1", "--resolution", "3", "--format", "json"],
    ],
    ids=["fit", "simulate", "sensitivity", "meta", "contour"],
)
def test_negative_precision_exits_1_before_any_work(runner, args):
    result = invoke(runner, args + ["--precision", "-1"])
    assert_single_error_line(result)
    assert "--precision must be >= 0, got -1" in result.stderr


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def test_simulate_runs_and_repeats_identically(tmp_path, runner):
    path = scenario_file(tmp_path)
    first = invoke(runner, ["simulate", path])
    second = invoke(runner, ["simulate", path])
    assert first.exit_code == 0
    assert first.stdout == second.stdout
    lines = first.stdout.strip().splitlines()
    assert lines[0].startswith("x,truth,bias,se,cp,")
    assert len(lines) == 3


def test_simulate_seed_override_changes_output(tmp_path, runner):
    path = scenario_file(tmp_path)
    base = invoke(runner, ["simulate", path])
    reseeded = invoke(runner, ["simulate", path, "--seed", "100"])
    assert reseeded.exit_code == 0
    assert base.stdout != reseeded.stdout


@pytest.mark.parametrize("seed", ["-1", str(2**64)])
def test_simulate_seed_override_outside_64_bits_exits_1(tmp_path, runner, seed):
    result = invoke(runner, ["simulate", scenario_file(tmp_path), "--seed", seed])
    error = assert_single_error_line(result)
    assert error == f"error: seed must lie in [0, 2**64 - 1], got {seed}"


def test_simulate_single_replication_warns_and_blanks_se(tmp_path, runner):
    path = scenario_file(tmp_path, replications=1)
    result = invoke(runner, ["simulate", path])
    assert result.exit_code == 0
    row = result.stdout.strip().splitlines()[1].split(",")
    assert row[3] == ""
    assert "single replication" in result.stderr


def test_simulate_malformed_config_exits_1(tmp_path, runner):
    path = tmp_path / "broken.json"
    path.write_text("{oops")
    result = invoke(runner, ["simulate", str(path)])
    assert result.exit_code == 1


@pytest.mark.parametrize(
    "overrides, named",
    [
        ({"clusters": "many"}, "'clusters'"),
        ({"true_betas": "abc"}, "'true_betas'"),
        ({"mechanism": {"bogus": 1.0}}, "'mechanism'"),
        ({"effect_dist": {"bogus": 1.0}}, "'effect_dist'"),
        ({"effect_dist": 3}, "'effect_dist'"),
        ({"mechanism": {"a_prob_below": 1.7}}, "a_prob_below"),
        ({"mechanism": {"x_prob_below": 1.0, "x_prob_above": 1.0}}, "A=1, X=0"),
        ({"sigma_u2": math.nan}, "sigma_u2"),
        ({"clusters": 30.9}, "'clusters'"),
        ({"replications": 2.5}, "'replications'"),
        ({"seed": True}, "'seed'"),
        ({"quadrature_points": 15.7}, "'quadrature_points'"),
        ({"kind": "meta", "clusters": 2, "studies": 5, "replications": 3, "seed": 1},
         "clusters >= 52"),
    ],
    ids=["clusters-string", "true-betas-string", "mechanism-unknown-key",
         "effect-dist-unknown-key", "effect-dist-not-an-object", "probability-above-1",
         "empty-x0-cell", "nan-variance", "clusters-fraction", "replications-fraction",
         "seed-bool", "quadrature-fraction", "meta-clusters-below-52"],
)
def test_simulate_bad_scenario_value_exits_1_naming_it(tmp_path, runner, overrides, named):
    result = invoke(runner, ["simulate", scenario_file(tmp_path, **overrides)])
    assert_single_error_line(result)
    assert named in result.stderr


WITHOUT_NU = {k: v for k, v in BASE_SCENARIO.items() if k != "nu"}
BINARY_SCENARIO = {
    "kind": "single_binary", "clusters": 200, "cluster_size": 4, "replications": 2, "seed": 34,
    "true_betas": [-4.5, 1.0, 3.0, -0.5], "theta": -0.5, "sigma_u2": 1.0, "icc": 0.25,
}


@pytest.mark.parametrize(
    "doc, message",
    [
        ([BASE_SCENARIO], "scenario file must hold a JSON object"),
        ({k: v for k, v in BASE_SCENARIO.items() if k != "clusters"}, "incomplete scenario: "),
        ({**BASE_SCENARIO, "icc": 0.2}, "give either icc or nu, not both"),
        ({**WITHOUT_NU, "icc": 1.0}, "icc must lie in [0, 1), got 1.0"),
        ({**BASE_SCENARIO, "replications": 0}, "replications must be >= 1"),
        ({**BASE_SCENARIO, "true_betas": [1.0, -1.0, 3.0]}, "true_betas must have 4 entries"),
        ({**BASE_SCENARIO, "clusters": 1}, "need at least 2 clusters of at least 1 unit"),
        # checked before any replicate is drawn, whether or not the kind fits the GLMM
        ({**BINARY_SCENARIO, "quadrature_points": 0}, "quadrature_points must lie in [1, 100], got 0"),
        ({**BINARY_SCENARIO, "quadrature_points": 101},
         "quadrature_points must lie in [1, 100], got 101"),
        ({**BASE_SCENARIO, "quadrature_points": 0}, "quadrature_points must lie in [1, 100], got 0"),
        # a Philox key word holds 64 bits: these seeds would alias 2**64 - 1 and 0
        ({**BASE_SCENARIO, "seed": -1}, "seed must lie in [0, 2**64 - 1], got -1"),
        ({**BASE_SCENARIO, "seed": 2**64}, f"seed must lie in [0, 2**64 - 1], got {2**64}"),
    ],
    ids=["not-an-object", "no-clusters", "icc-and-nu", "icc-one", "no-replications",
         "three-betas", "one-cluster", "binary-no-nodes", "binary-101-nodes",
         "continuous-no-nodes", "seed-negative", "seed-past-64-bits"],
)
def test_simulate_invalid_scenario_exits_1_naming_the_file(tmp_path, runner, doc, message):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    error = assert_single_error_line(invoke(runner, ["simulate", str(path)]))
    assert error.startswith(f"error: {path}: {message}")
    assert message.endswith(": ") or error == f"error: {path}: {message}"


META_SCENARIO = dict(kind="meta", clusters=60, studies=4, replications=3)


@pytest.mark.parametrize(
    "overrides, key",
    [
        ({"true_betas": "1234"}, "true_betas"),
        ({"true_betas": [1.0, "-1", 3.0, 1.0]}, "true_betas"),
        ({"theta": True}, "theta"),
        ({"theta": "0.5"}, "theta"),
        ({"icc": "0.2"}, "icc"),
        ({"clusters": "60"}, "clusters"),
        ({"seed": "99"}, "seed"),
        ({"kind": 3}, "kind"),
        ({**META_SCENARIO, "q": "0.1"}, "q"),
        ({**META_SCENARIO, "effect_dist": {"mu1": "3"}}, "effect_dist"),
        ({"mechanism": {"x_threshold": False}}, "mechanism"),
        # a JSON integer past the float range, refused where it is converted
        ({"theta": 10**400}, "theta"),
    ],
    ids=["true-betas-string", "true-beta-string", "theta-bool", "theta-string", "icc-string",
         "clusters-string", "seed-string", "kind-number", "q-string", "effect-dist-string",
         "mechanism-bool", "theta-past-float-range"],
)
def test_simulate_wrongly_typed_scenario_value_exits_1(tmp_path, runner, overrides, key):
    path = scenario_file(tmp_path, **overrides)
    error = assert_single_error_line(invoke(runner, ["simulate", path]))
    assert error.startswith(f"error: {path}: bad value for scenario key {key!r}: ")


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "overrides, message",
    [
        ({"theta": math.nan}, "theta must be finite, got nan"),
        ({"nu": "1e309"}, "nu must be finite, got inf"),
        ({"phi": "1e309"}, "phi must be finite, got inf"),
        ({"sigma_u2": "1e309"}, "sigma_u2 must be finite, got inf"),
        ({**META_SCENARIO, "theta_var": "1e309"}, "theta_var must be finite, got inf"),
        ({**META_SCENARIO, "effect_dist": {"mu1": "1e309"}},
         "effect_dist mu1 must be finite, got inf"),
        ({**META_SCENARIO, "effect_dist": {"v11": "1e309"}},
         "effect_dist v11 must be finite, got inf"),
        # v13 squared overflows the float range
        ({**META_SCENARIO, "effect_dist": {"v13": 1e200}},
         "effect distribution covariance must be positive definite"),
        ({**META_SCENARIO, "q": math.nan}, "q must be finite, got nan"),
        ({"mechanism": {"x_threshold": math.nan}},
         "mechanism x_threshold must be finite, got nan"),
        ({**META_SCENARIO, "true_betas": [1.0, math.nan, 1.0, 1.0]},
         "true_betas[1] must be finite, got nan"),
    ],
    ids=["theta-nan", "nu-inf", "phi-inf", "sigma-u2-inf", "theta-var-inf", "mu1-inf",
         "v11-inf", "v13-square-overflows", "q-nan", "x-threshold-nan", "true-beta-nan"],
)
def test_simulate_non_finite_scenario_number_exits_1_naming_it(tmp_path, runner, overrides,
                                                                message):
    # refused when the scenario is read, before any replicate runs; "1e309"
    # is written as the JSON number 1e309, which parses to inf
    path = Path(scenario_file(tmp_path, **overrides))
    path.write_text(path.read_text().replace('"1e309"', "1e309"))
    result = invoke(runner, ["simulate", str(path)])
    assert assert_single_error_line(result) == f"error: {path}: {message}"
    assert len(result.stderr.splitlines()) == 1


def test_non_utf8_scenario_and_fit_document_exit_1_naming_the_file(tmp_path, runner):
    path = tmp_path / "bad.json"
    path.write_bytes(b'{"kind": "\xff"}')
    for args in (["simulate", str(path)], ["sensitivity", "--fit", str(path)]):
        error = assert_single_error_line(invoke(runner, args))
        assert error == f"error: {path}: not UTF-8 text (byte 0xff: invalid start byte)"


EXTREME_META = dict(kind="meta", clusters=100, cluster_size=3, studies=5, replications=2, seed=1)


@pytest.mark.parametrize(
    "overrides, message",
    [
        # positive definite, though numpy's check on the drawn covariance
        # read these variances as not positive semi-definite
        ({"effect_dist": {"v11": 1e10, "v33": 1e10}}, None),
        # the REML slopes overflow before pooling refuses the estimates
        ({"effect_dist": {"v11": 1e300, "v33": 1.0, "v13": 0.0}},
         "Cochran's Q or the between-study variance overflows the float range: the study "
         "estimates or their weights are too large in magnitude to pool"),
        # the normal density at z past 1e154 is 0, not an overflow
        ({"q": 1e308}, None),
        # the squared sum of the weights underflows to 0
        ({"effect_dist": {"v11": 1e250, "v33": 1e40, "v13": 0.0}},
         "the variance of the between-study variance leaves the float range: the study "
         "weights are too small in magnitude for its moments"),
    ],
    ids=["covariance-check", "reml-slope-overflow", "density-of-huge-q", "dl-weights-underflow"],
)
def test_simulate_extreme_meta_scenario_gives_clean_stderr(tmp_path, runner, overrides, message):
    result = invoke(runner, ["simulate", scenario_file(tmp_path, **EXTREME_META, **overrides)])
    if message is not None:
        assert assert_single_error_line(result) == f"error: {message}"
        assert len(result.stderr.splitlines()) == 1
        return
    assert result.exit_code == 0
    [summary] = result.stderr.splitlines()
    assert summary.startswith("scenario meta: 2 replications, 0 non-converged, ")


@pytest.mark.parametrize(
    "overrides, rows",
    [
        # every allocation is of at least 1e15 rows, which malloc refuses at once
        ({"clusters": 10**15}, f"{3 * 10**15:,}"),
        ({**META_SCENARIO, "clusters": 100, "cluster_size": 10**14}, r"[\d,]+"),
    ],
    ids=["single-study", "meta"],
)
def test_simulate_replicate_past_memory_exits_1(tmp_path, runner, overrides, rows):
    result = invoke(runner, ["simulate", scenario_file(tmp_path, **overrides)])
    assert re.fullmatch(
        f"error: replicate 0 has {rows} rows, more than memory holds; "
        "give fewer clusters or a smaller cluster_size",
        assert_single_error_line(result),
    )
    assert len(result.stderr.splitlines()) == 1


def test_simulate_json_format(tmp_path, runner):
    path = scenario_file(tmp_path, replications=3)
    result = invoke(runner, ["simulate", path, "--format", "json"])
    assert result.exit_code == 0
    doc = json.loads(result.stdout)
    assert doc["replications"] == 3
    assert {row["x"] for row in doc["rows"]} == {0, 1}


def test_stdout_is_parseable_payload_only(tmp_path, runner):
    # diagnostics must go to stderr for every command
    path = scenario_file(tmp_path)
    result = invoke(runner, ["simulate", path])
    assert "scenario" in result.stderr
    for line in result.stdout.strip().splitlines():
        assert "scenario" not in line


def test_csv_format_for_sensitivity_and_meta(runner):
    sens = invoke(
        runner,
        ["sensitivity", "--estimate", "5.49", "--lb", "0.75", "--ub", "10.23",
         "--theta", "3", "--m1x", "0.25", "--m0x", "0", "--format", "csv"],
    )
    assert sens.exit_code == 0
    lines = sens.stdout.strip().splitlines()
    assert lines[0] == "quantity,value"
    table = dict(line.split(",", 1) for line in lines[1:])
    assert table["minimal_bias_factor"] == "0.75"
    assert table["explains_away"] == "true"

    meta = invoke(
        runner,
        ["meta", "--mu", "0.2852", "--v", "0.08", "--q", "0.1823", "--r", "0.4",
         "--format", "csv"],
    )
    assert meta.exit_code == 0
    rows = dict(line.split(",", 1) for line in meta.stdout.strip().splitlines()[1:])
    assert abs(float(rows["minimal_common_bias.value"]) - 0.17) < 0.005
