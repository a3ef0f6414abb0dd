import json
import math

import numpy as np
import pytest
from click.testing import CliRunner

from clustersens import fit_lmm, write_csv
from clustersens.cli import main
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


def test_fit_all_zero_binary_exits_2(tmp_path, runner):
    rows = ["cluster_id,outcome,treatment,covariate_x"]
    for j in range(6):
        rows.append(f"c{j},0,{j % 2},{(j // 2) % 2}")
    path = tmp_path / "zeros.csv"
    path.write_text("\n".join(rows) + "\n")
    result = invoke(runner, ["fit", str(path), "--scale", "binary"])
    assert result.exit_code == 2
    assert "separation" in result.stderr.lower() or "degenerate" in result.stderr.lower()


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
    ],
    ids=[
        "malformed-json", "not-an-object", "scale-only", "missing-covariance", "unknown-scale",
        "three-coefficients", "string-coefficients", "fifteen-covariance-entries",
        "nan-coefficient", "inf-covariance", "nan-variance",
    ],
)
def test_sensitivity_malformed_fit_document_exits_1(tmp_path, runner, text):
    path = tmp_path / "fit.json"
    path.write_text(text)
    result = invoke(runner, ["sensitivity", "--fit", str(path)])
    assert_single_error_line(result)


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
    ],
    ids=["contour-threshold", "contour-range", "meta-mu", "meta-bias-mean", "sensitivity-theta",
         "sensitivity-overflowing-interval"],
)
def test_non_finite_float_option_exits_1_naming_it(runner, args, named):
    result = invoke(runner, args)
    assert_single_error_line(result)
    assert named in result.stderr


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
    ],
    ids=["clusters-string", "true-betas-string", "mechanism-unknown-key",
         "effect-dist-unknown-key", "effect-dist-not-an-object", "probability-above-1",
         "empty-x0-cell", "nan-variance", "clusters-fraction", "replications-fraction",
         "seed-bool", "quadrature-fraction"],
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
