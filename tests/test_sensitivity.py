import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from clustersens import (
    BiasFactor,
    ConfoundedEffect,
    SensitivitySpec,
    ValidationError,
    adjust,
    bias_factor,
    confounded_effect,
    contour_grid,
    effect_from_interval,
    explains_away,
    fit_glmm_logit,
    fit_lmm,
    fit_lmm_batch,
    minimal_bias_factor,
)
from clustersens.errors import DomainError
from clustersens.sensitivity import (
    BINARY_BINARY_U,
    BINARY_NORMAL_U,
    CONTINUOUS_OUTCOME,
    SCALE_LOG_RR,
    SCALE_MEAN_DIFFERENCE,
    _contrasts,
    _wald_effect,
    _wald_interval,
)
from clustersens.simulation import ScenarioConfig, generate

COHORT_EFFECT = effect_from_interval(5.49, 0.75, 10.23)

finite = st.floats(min_value=-50, max_value=50, allow_nan=False)
probs = st.floats(min_value=0.0, max_value=1.0)
thetas = st.floats(min_value=-5.0, max_value=5.0, allow_nan=False)


# ---------------------------------------------------------------------------
# confounded_effect
# ---------------------------------------------------------------------------


def test_effect_at_x_zero_is_treatment_coefficient():
    config = ScenarioConfig(
        kind="single_continuous", clusters=60, cluster_size=4, replications=1, seed=3,
    )
    fit = fit_lmm(generate(config, 0))
    eff = confounded_effect(fit, 0.0)
    assert eff.estimate == fit.coefficients[1]
    assert eff.std_error == math.sqrt(fit.coef_covariance[1, 1])
    assert eff.scale == SCALE_MEAN_DIFFERENCE


def test_effect_linear_combination_matches_matrix_oracle():
    config = ScenarioConfig(
        kind="single_continuous", clusters=100, cluster_size=3, replications=1, seed=1,
        true_betas=(1.0, -1.0, 3.0, 1.0), theta=0.5, sigma_u2=0.25, nu=4.0, phi=1.0,
    )
    fit = fit_lmm(generate(config, 1))
    for x in (0.0, 1.0, 2.5):
        eff = confounded_effect(fit, x)
        contrast = np.array([0.0, 1.0, 0.0, x])
        assert abs(eff.estimate - contrast @ fit.coefficients) < 1e-12
        assert abs(eff.std_error - math.sqrt(contrast @ fit.coef_covariance @ contrast)) < 1e-12


def test_published_interval_shape():
    # level-0.95 interval of (0.75, 10.23) around 5.49
    eff = _wald_effect(5.49, COHORT_EFFECT.std_error, None, 0.95, SCALE_MEAN_DIFFERENCE)
    assert abs(eff.lb - 0.75) < 1e-12
    assert abs(eff.ub - 10.23) < 1e-12


def test_effect_from_interval_keeps_the_published_bounds():
    assert COHORT_EFFECT.std_error == (10.23 - 0.75) / (2 * 1.959963984540054)
    assert (COHORT_EFFECT.lb, COHORT_EFFECT.ub, COHORT_EFFECT.x) == (0.75, 10.23, None)
    # rebuilt from the implied SE, this lb would be 5.6e-17 and the direction "positive"
    eff = effect_from_interval(0.5, 0.0, 1.0)
    assert (eff.lb, eff.ub) == (0.0, 1.0)
    assert minimal_bias_factor(eff).direction == "none"


@pytest.mark.parametrize("level", [1e-17, 1e-300, 5e-324])
def test_effect_from_interval_refuses_a_level_whose_critical_value_is_0(level):
    with pytest.raises(ValidationError, match="critical value rounds to 0"):
        effect_from_interval(1.0, 0.5, 1.5, level=level)


def test_binary_fit_with_large_icc_warns():
    import clustersens.mixed_models as mm

    fit = mm.MixedModelFit(
        scale="binary",
        coefficients=np.array([-1.0, 0.5, 0.3, -0.2]),
        coef_covariance=np.eye(4) * 0.04,
        random_intercept_variance=2.5,  # icc ~ 0.43
        residual_variance=None,
        log_likelihood=-100.0,
        converged=True,
    )
    eff = confounded_effect(fit, 1.0)
    assert eff.scale == SCALE_LOG_RR
    assert any("ICC" in w for w in eff.warnings)
    calm = mm.MixedModelFit(
        scale="binary",
        coefficients=np.array([-1.0, 0.5, 0.3, -0.2]),
        coef_covariance=np.eye(4) * 0.04,
        random_intercept_variance=0.5,
        residual_variance=None,
        log_likelihood=-100.0,
        converged=True,
    )
    assert confounded_effect(calm, 1.0).warnings == ()


def test_columnar_contrasts_equal_confounded_effect_bit_for_bit():
    continuous = fit_lmm_batch(generate(ScenarioConfig(
        kind="meta", clusters=60, cluster_size=3, studies=12, replications=1, seed=31,
        true_betas=(1.0, 3.0, 3.0, 4.0), theta=5.0, theta_var=0.01,
    ), 0))
    binary = fit_glmm_logit(generate(ScenarioConfig(
        kind="single_binary", clusters=60, cluster_size=4, replications=1, seed=34, nu=1.0,
    ), 0))
    for fits in (continuous, [binary]):
        beta = np.array([fit.coefficients for fit in fits])
        cov = np.array([fit.coef_covariance for fit in fits])
        for x in (0, 1):
            estimate, std_error = _contrasts(beta, cov, x)
            lb, ub = _wald_interval(estimate, std_error, 0.95)
            for k, fit in enumerate(fits):
                eff = confounded_effect(fit, x)
                got = (estimate[k], std_error[k], lb[k], ub[k])
                want = (eff.estimate, eff.std_error, eff.lb, eff.ub)
                assert np.array(got).tobytes() == np.array(want).tobytes()


def test_columnar_contrasts_refuse_a_variance_at_or_below_zero():
    beta = np.zeros((2, 4))
    cov = np.stack([np.eye(4), np.diag([1.0, 1.0, 1.0, -1.0])])
    _contrasts(beta, cov, 0)
    with pytest.raises(ValidationError, match="degenerate coefficient covariance"):
        _contrasts(beta, cov, 1)


def test_non_converged_fit_refused():
    config = ScenarioConfig(
        kind="single_continuous", clusters=30, cluster_size=3, replications=1, seed=9,
    )
    fit = fit_lmm(generate(config, 0))
    broken = fit.__class__(**{**fit.__dict__, "converged": False})
    with pytest.raises(ValidationError):
        confounded_effect(broken, 0.0)


# ---------------------------------------------------------------------------
# bias_factor
# ---------------------------------------------------------------------------


def test_continuous_bias_factor_is_product():
    spec = SensitivitySpec(CONTINUOUS_OUTCOME, theta=3.0, treated_mean=0.25, control_mean=0.0)
    b = bias_factor(spec)
    assert b.value == 0.75
    assert b.scale == SCALE_MEAN_DIFFERENCE


def test_zero_theta_and_equal_prevalences_vanish():
    assert bias_factor(SensitivitySpec(CONTINUOUS_OUTCOME, 0.0, 0.9, 0.1)).value == 0.0
    assert bias_factor(SensitivitySpec(BINARY_NORMAL_U, 0.0, 0.9, 0.1)).value == 0.0
    assert bias_factor(SensitivitySpec(BINARY_BINARY_U, 0.5, 0.4, 0.4)).value == 0.0


def test_binary_u_bias_factor_frozen_value():
    # extended-precision oracle: log((0.5 e^0.5 + 0.5) / (0.2 e^0.5 + 0.8))
    b = bias_factor(SensitivitySpec(BINARY_BINARY_U, 0.5, 0.5, 0.2))
    assert abs(b.value - 0.15893852028089034) < 1e-15
    assert b.scale == SCALE_LOG_RR


def test_multi_confounder_sums():
    specs = [
        SensitivitySpec(CONTINUOUS_OUTCOME, 2.0, 0.3, 0.1),
        SensitivitySpec(CONTINUOUS_OUTCOME, -1.0, 0.2, 0.5),
    ]
    assert abs(bias_factor(specs).value - (2.0 * 0.2 + (-1.0) * (-0.3))) < 1e-15


def test_mixed_scale_list_rejected():
    with pytest.raises(ValidationError):
        bias_factor(
            [
                SensitivitySpec(CONTINUOUS_OUTCOME, 1.0, 0.2, 0.1),
                SensitivitySpec(BINARY_BINARY_U, 1.0, 0.2, 0.1),
            ]
        )


def test_large_theta_log_rr_warns():
    b = bias_factor(SensitivitySpec(BINARY_BINARY_U, 1.5, 0.5, 0.2))
    assert b.warnings
    assert bias_factor(SensitivitySpec(CONTINUOUS_OUTCOME, 3.0, 0.25, 0.0)).warnings == ()


@given(thetas, probs, probs)
def test_binary_u_bias_bounded_by_theta(theta, p1, p0):
    b = bias_factor(SensitivitySpec(BINARY_BINARY_U, theta, p1, p0))
    assert abs(b.value) <= abs(theta) + 1e-12


@given(st.floats(min_value=-800, max_value=800), probs, probs)
def test_binary_u_bias_stable_for_extreme_theta(theta, p1, p0):
    # the log-mixture form must neither overflow nor leave the bound
    b = bias_factor(SensitivitySpec(BINARY_BINARY_U, theta, p1, p0))
    assert math.isfinite(b.value)
    assert abs(b.value) <= abs(theta) + 1e-9


def test_binary_u_bias_degenerate_prevalences():
    assert bias_factor(SensitivitySpec(BINARY_BINARY_U, 2.0, 1.0, 0.0)).value == 2.0
    assert bias_factor(SensitivitySpec(BINARY_BINARY_U, 2.0, 0.0, 1.0)).value == -2.0
    assert bias_factor(SensitivitySpec(BINARY_BINARY_U, 2.0, 1.0, 1.0)).value == 0.0


@given(thetas, finite, finite)
def test_continuous_antisymmetry(theta, m1, m0):
    forward = bias_factor(SensitivitySpec(CONTINUOUS_OUTCOME, theta, m1, m0)).value
    backward = bias_factor(SensitivitySpec(CONTINUOUS_OUTCOME, theta, m0, m1)).value
    assert forward == -backward


def test_binary_u_monotone_in_theta():
    grid = np.linspace(0.01, 3.0, 60)
    values = [bias_factor(SensitivitySpec(BINARY_BINARY_U, t, 0.6, 0.2)).value for t in grid]
    assert all(b > a for a, b in zip(values, values[1:]))


@settings(max_examples=60)
@given(st.lists(st.tuples(thetas, finite, finite), min_size=1, max_size=5))
def test_multi_u_additivity(parts):
    specs = [SensitivitySpec(CONTINUOUS_OUTCOME, t, m1, m0) for t, m1, m0 in parts]
    total = bias_factor(specs).value
    summed = sum(bias_factor(s).value for s in specs)
    assert abs(total - summed) <= 1e-14 * max(1.0, abs(summed))


# ---------------------------------------------------------------------------
# adjust
# ---------------------------------------------------------------------------


def test_published_example_adjustment():
    b = bias_factor(SensitivitySpec(CONTINUOUS_OUTCOME, 3.0, 0.25, 0.0))
    adjusted = adjust(COHORT_EFFECT, b)
    assert abs(adjusted.estimate - 4.74) < 1e-12
    assert abs(adjusted.lb - 0.0) < 1e-12
    assert abs(adjusted.ub - 9.48) < 1e-12


def test_zero_bias_is_identity():
    adjusted = adjust(COHORT_EFFECT, BiasFactor(0.0))
    assert adjusted.estimate == COHORT_EFFECT.estimate
    assert adjusted.lb == COHORT_EFFECT.lb
    assert adjusted.ub == COHORT_EFFECT.ub


def test_negative_direction_mirror():
    eff = ConfoundedEffect(estimate=-2.0, std_error=0.51, lb=-3.0, ub=-1.0)
    adjusted = adjust(eff, BiasFactor(-1.0))
    assert (adjusted.estimate, adjusted.lb, adjusted.ub) == (-1.0, -2.0, 0.0)


def test_scale_mismatch_refused():
    with pytest.raises(ValidationError):
        adjust(COHORT_EFFECT, BiasFactor(0.1, scale=SCALE_LOG_RR))


@given(
    st.floats(min_value=-10, max_value=10),
    st.floats(min_value=0.01, max_value=5),
    st.floats(min_value=-10, max_value=10),
)
def test_shift_exactness(estimate, se, shift):
    eff = _wald_effect(estimate, se, None, 0.95, SCALE_MEAN_DIFFERENCE)
    adjusted = adjust(eff, BiasFactor(shift))
    assert abs((adjusted.ub - adjusted.lb) - (eff.ub - eff.lb)) < 1e-14 * max(1.0, eff.ub - eff.lb)
    assert adjusted.estimate == eff.estimate - shift
    assert adjusted.lb == eff.lb - shift
    assert adjusted.ub == eff.ub - shift


# ---------------------------------------------------------------------------
# minimal_bias_factor / explains_away
# ---------------------------------------------------------------------------


def test_minimal_bias_cases():
    assert minimal_bias_factor(COHORT_EFFECT).value == 0.75
    assert minimal_bias_factor(COHORT_EFFECT).direction == "positive"

    negative = ConfoundedEffect(estimate=-2.0, std_error=0.51, lb=-3.0, ub=-1.0)
    mb = minimal_bias_factor(negative)
    assert mb.value == 1.0 and mb.direction == "negative"

    null_inclusive = ConfoundedEffect(estimate=1.0, std_error=0.766, lb=-0.5, ub=2.5)
    mb = minimal_bias_factor(null_inclusive)
    assert mb.value == 0.0 and mb.direction == "none"


def test_boundary_bias_explains_away():
    spec = SensitivitySpec(CONTINUOUS_OUTCOME, 3.0, 0.25, 0.0)
    assert explains_away(COHORT_EFFECT, spec)  # 0.75 >= 0.75, boundary counts


def test_theta_zero_explains_nothing_unless_null_inside():
    zero = SensitivitySpec(CONTINUOUS_OUTCOME, 0.0, 0.25, 0.0)
    assert not explains_away(COHORT_EFFECT, zero)
    null_inclusive = ConfoundedEffect(estimate=1.0, std_error=0.766, lb=-0.5, ub=2.5)
    assert explains_away(null_inclusive, zero)


def test_small_bias_does_not_explain():
    eff = _wald_effect(0.5, (0.9 - 0.1) / (2 * 1.959963984540054), None, 0.95, SCALE_MEAN_DIFFERENCE)
    assert abs(eff.lb - 0.1) < 1e-12
    spec = SensitivitySpec(CONTINUOUS_OUTCOME, 1.0, 0.05, 0.0)
    assert not explains_away(eff, spec)


def test_threshold_sharpness_on_dense_grid():
    lb = COHORT_EFFECT.lb
    for b in np.linspace(lb - 0.01, lb + 0.01, 201):
        spec = SensitivitySpec(CONTINUOUS_OUTCOME, 1.0, b, 0.0)
        assert explains_away(COHORT_EFFECT, spec) == (b >= lb)


def test_explains_away_scale_mismatch_refused():
    spec = SensitivitySpec(BINARY_BINARY_U, 0.5, 0.5, 0.2)  # log-RR scale
    with pytest.raises(ValidationError):
        explains_away(COHORT_EFFECT, spec)  # mean-difference effect


def test_negative_direction_explains_away():
    eff = ConfoundedEffect(estimate=-2.0, std_error=0.51, lb=-3.0, ub=-1.0)
    enough = SensitivitySpec(CONTINUOUS_OUTCOME, -2.0, 0.5, 0.0)  # bias -1.0
    weak = SensitivitySpec(CONTINUOUS_OUTCOME, -1.0, 0.5, 0.0)  # bias -0.5
    assert explains_away(eff, enough)
    assert not explains_away(eff, weak)


# ---------------------------------------------------------------------------
# contour_grid
# ---------------------------------------------------------------------------


def test_contour_node_matches_worked_decomposition():
    deltas, thetas, bias, explains = contour_grid((0.0, 1.0), (0.0, 4.0), 5, threshold=0.75)
    [node] = np.flatnonzero((deltas == 0.25) & (thetas == 3.0))
    assert bias[node] == 0.75
    assert explains[node] and explains.dtype == np.bool_


def test_contour_zero_mean_difference_never_explains():
    deltas, _, bias, explains = contour_grid((0.0, 1.0), (0.0, 5.0), 11, threshold=0.1)
    zero = deltas == 0.0
    assert zero.sum() == 11
    assert (bias[zero] == 0.0).all() and not explains[zero].any()


def test_contour_exhaustive_flagging():
    columns = contour_grid((0.0, 1.0), (0.0, 5.0), 100, threshold=0.75)
    assert [len(c) for c in columns] == [100 * 100] * 4
    delta_m, theta, _, explains = columns
    deltas = np.linspace(0.0, 1.0, 100)
    thetas = np.linspace(0.0, 5.0, 100)
    expected = [
        (d * t) >= 0.75
        for d in deltas
        for t in thetas
    ]
    assert explains.tolist() == expected
    # row-major: delta_m varies slowest
    assert (delta_m[0], theta[0]) == (0.0, 0.0)
    assert delta_m[1] == 0.0 and theta[1] == thetas[1]
    assert delta_m[100] == deltas[1]


def test_contour_matches_nested_loop_reference():
    # the per-node loop the grid is vectorised from; float64 products are the
    # same IEEE operation either way, so rows must agree exactly
    deltas = np.linspace(-0.3, 1.7, 37)
    thetas = np.linspace(0.1, 5.3, 37)
    expected = [
        (float(d), float(t), float(d * t), bool(d * t >= 0.9)) for d in deltas for t in thetas
    ]
    columns = contour_grid((-0.3, 1.7), (0.1, 5.3), 37, threshold=0.9)
    assert list(zip(*(c.tolist() for c in columns))) == expected
    assert [c.dtype for c in columns] == [np.float64, np.float64, np.float64, np.bool_]


@pytest.mark.parametrize("resolution", [10**7, 10**10])
def test_contour_unallocatable_grid_is_refused(resolution):
    # 10**14 cells ask for petabytes, so the allocation fails at once; 10**20
    # overflow numpy's size type, which it reports as a ValueError
    cells = f"resolution {resolution} asks for {resolution**2:,} grid cells"
    with pytest.raises(DomainError, match=cells):
        contour_grid((0.0, 1.0), (0.0, 5.0), resolution, threshold=1.0)


def test_contour_bad_resolution():
    with pytest.raises(DomainError):
        contour_grid((0.0, 1.0), (0.0, 5.0), 1, threshold=0.5)
