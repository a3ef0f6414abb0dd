import csv
import io
import json
import math

import click
import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, given, settings, strategies as st

from clustersens import fit_lmm, write_csv
from clustersens.cli import _emit_csv, main
from clustersens.errors import ValidationError
from clustersens.simulation import ScenarioConfig, generate


@pytest.fixture
def runner():
    return CliRunner()


def invoke(runner, args):
    # mix_stderr=False went away in click 8.2; stdout/stderr are separate here
    return runner.invoke(main, args, catch_exceptions=False)


def scenario_file(tmp_path, **overrides):
    doc = {
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
    doc.update(overrides)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
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


def test_fit_binary_variance_overflow_exits_2(tmp_path, runner):
    # 21 clusters of 2 with two events: a BFGS line search tries log nu > 709
    rng = np.random.default_rng(63)
    a = rng.integers(0, 2, 42)
    x = rng.integers(0, 2, 42)
    y = np.zeros(42, dtype=int)
    y[rng.choice(np.flatnonzero((a == 0) & (x == 0)))] = 1
    y[rng.choice(np.flatnonzero((a == 1) & (x == 1)))] = 1
    rows = ["cluster_id,outcome,treatment,covariate_x"]
    rows += [f"c{j // 2},{y[j]},{a[j]},{x[j]}" for j in range(42)]
    path = tmp_path / "overflow.csv"
    path.write_text("\n".join(rows) + "\n")
    result = invoke(runner, ["fit", str(path), "--scale", "binary"])
    assert result.exit_code == 2
    assert result.stdout == ""
    assert [line for line in result.stderr.splitlines() if line.startswith("error:")] == [
        "error: marginal likelihood optimization diverged: "
        "the random-intercept variance overflowed"
    ]


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


def assert_single_error_line(result):
    assert result.exit_code == 1
    assert result.stdout == ""
    errors = [line for line in result.stderr.splitlines() if line.startswith("error:")]
    assert len(errors) == 1
    assert "Traceback" not in result.stderr


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


@pytest.mark.parametrize(
    "text",
    [
        "{not json",
        "[1, 2, 3]",
        json.dumps({"scale": "continuous"}),
        json.dumps({k: v for k, v in VALID_FIT_DOC.items() if k != "coef_covariance"}),
        json.dumps({**VALID_FIT_DOC, "scale": "ordinal"}),
        json.dumps({**VALID_FIT_DOC, "coefficients": [1.0, 0.5, 2.0]}),
        json.dumps({**VALID_FIT_DOC, "coefficients": "abcd"}),
        json.dumps({**VALID_FIT_DOC, "coef_covariance": [1.0] * 15}),
        json.dumps({**VALID_FIT_DOC, "coefficients": [1.0, math.nan, 2.0, -0.3]}),
        json.dumps({**VALID_FIT_DOC, "coef_covariance": [math.inf] * 16}),
        json.dumps({**VALID_FIT_DOC, "random_intercept_variance": math.nan}),
        json.dumps({**VALID_FIT_DOC, "random_intercept_variance": -1}),
        json.dumps({**VALID_FIT_DOC, "residual_variance": -0.5}),
    ],
    ids=[
        "malformed-json", "not-an-object", "scale-only", "missing-covariance", "unknown-scale",
        "three-coefficients", "string-coefficients", "fifteen-covariance-entries",
        "nan-coefficient", "inf-covariance", "nan-variance", "negative-intercept-variance",
        "negative-residual-variance",
    ],
)
def test_sensitivity_malformed_fit_document_exits_1(tmp_path, runner, text):
    path = tmp_path / "fit.json"
    path.write_text(text)
    result = invoke(runner, ["sensitivity", "--fit", str(path)])
    assert_single_error_line(result)


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


def emitted_csv(capsys, header, rows, precision):
    """The emitter's stdout, or its error message."""
    try:
        _emit_csv(header, rows, precision)
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
TEXTS = st.sampled_from(["", "plain", "a,b", 'say "hi"', "two\nlines", " lead"])
ANY_CELL = st.one_of(
    FLOATS, st.booleans(), st.integers(), st.none(), TEXTS,
    FLOATS.map(np.float64), NON_FINITE.map(np.float64),
)
COLUMNS = st.sampled_from([
    FLOATS,
    st.one_of(FLOATS, NON_FINITE),
    st.booleans(),
    ANY_CELL,
])


@st.composite
def tables(draw):
    kinds = draw(st.lists(COLUMNS, min_size=1, max_size=4))
    rows = draw(st.lists(st.tuples(*kinds), max_size=30))
    header = draw(st.lists(TEXTS, min_size=len(kinds), max_size=len(kinds)))
    return header, rows


@pytest.mark.parametrize("precision", [0, 6, 12, 17])
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(table=tables())
def test_emit_csv_matches_per_cell_writer(capsys, precision, table):
    header, rows = table
    capsys.readouterr()
    assert emitted_csv(capsys, header, rows, precision) == reference_or_error(header, rows, precision)


def test_emit_csv_refuses_the_first_non_finite_cell_in_row_major_order(capsys):
    # column 0 holds a nan on row 2, but row 1 is met first, and on row 1
    # the np.float64 -inf in column 1 comes before the inf in column 2
    rows = [
        [0.5, None, 1.0],
        [2.0, np.float64("-inf"), math.inf],
        [math.nan, None, 3.0],
    ]
    expected = reference_or_error(["a", "b", "c"], rows, 6)
    assert expected == "error: result holds a non-finite number, not valid CSV: -inf"
    assert emitted_csv(capsys, ["a", "b", "c"], rows, 6) == expected
    floats_only = [[1.0, 2.0], [3.0, math.inf], [math.nan, 4.0]]
    assert emitted_csv(capsys, ["a", "b"], floats_only, 6) == (
        "error: result holds a non-finite number, not valid CSV: inf"
    )


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
    ],
    ids=["contour-threshold", "contour-range", "meta-mu", "meta-bias-mean", "sensitivity-theta",
         "sensitivity-overflowing-interval", "sensitivity-level-0", "sensitivity-level-1",
         "sensitivity-level-1.5", "sensitivity-level-negative"],
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
    ],
    ids=["missing-option", "bad-choice", "bad-float", "unknown-option", "bad-format",
         "unknown-command", "unknown-group-option", "no-command"],
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
