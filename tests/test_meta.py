import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from clustersens import (
    BiasDistribution,
    MetaFit,
    PqSpec,
    StudyEffect,
    ValidationError,
    VarianceDominationError,
    explains_away_meta,
    load_studies_csv,
    minimal_common_bias,
    p_of_q,
    pool,
)
from clustersens.errors import DomainError
from clustersens.meta import dl_variance_of_v_hat

POOLED_LOG_RR_FIT = MetaFit(mu_hat=math.log(1.33), v_hat=0.08, se_mu=0.05, q_statistic=40.0, k=19)


def make_studies(estimates, variances):
    return [
        StudyEffect(study_id=str(i + 1), estimate=e, within_variance=v)
        for i, (e, v) in enumerate(zip(estimates, variances))
    ]


# ---------------------------------------------------------------------------
# pool
# ---------------------------------------------------------------------------


def test_identical_studies_collapse():
    fit = pool(make_studies([1.7] * 6, [0.2] * 6))
    assert abs(fit.mu_hat - 1.7) < 1e-14
    assert fit.v_hat == 0.0
    assert fit.q_statistic < 1e-20
    assert fit.k == 6


def test_two_study_hand_computed_dersimonian_laird():
    # w = 10 each; Q = 10*0.25 + 10*0.25 = 5; C = 20 - 200/20 = 10
    # V = (5 - 1)/10 = 0.4; mu = 1.5; se = sqrt(1 / (2/(0.1+0.4)))
    fit = pool(make_studies([1.0, 2.0], [0.1, 0.1]))
    assert abs(fit.q_statistic - 5.0) < 1e-12
    assert abs(fit.v_hat - 0.4) < 1e-12
    assert abs(fit.mu_hat - 1.5) < 1e-12
    assert abs(fit.se_mu - math.sqrt(0.25)) < 1e-12


def test_pool_requires_two_studies():
    with pytest.raises(ValidationError):
        pool(make_studies([1.0], [0.1]))


def test_synthetic_studies_recover_between_variance():
    # 19 estimates spread around log 1.33 calibrated to a DL variance near 0.08
    rng = np.random.default_rng(1212)
    k = 19
    variances = rng.uniform(0.02, 0.06, size=k)
    target_v = 0.08
    z = rng.standard_normal(k)
    z = (z - z.mean()) / z.std(ddof=0)
    estimates = math.log(1.33) + z * np.sqrt(target_v + variances)
    fit = pool(make_studies(estimates, variances))
    assert abs(fit.v_hat - 0.08) < 0.04
    assert abs(fit.mu_hat - math.log(1.33)) < 0.1


@settings(max_examples=100)
@given(
    st.lists(
        st.tuples(
            st.floats(min_value=-3, max_value=3),
            st.floats(min_value=0.05, max_value=2.0),
        ),
        min_size=2,
        max_size=12,
    )
)
def test_dl_truncation(pairs):
    studies = make_studies([p[0] for p in pairs], [p[1] for p in pairs])
    fit = pool(studies)
    assert fit.v_hat >= 0.0
    if fit.q_statistic <= len(studies) - 1:
        assert fit.v_hat == 0.0


# ---------------------------------------------------------------------------
# p_of_q
# ---------------------------------------------------------------------------


def test_p_of_q_median_case():
    fit = MetaFit(mu_hat=0.4, v_hat=0.09, se_mu=0.1, q_statistic=10.0, k=5)
    assert abs(p_of_q(fit, BiasDistribution(0.0, 0.0), q=0.4) - 0.5) < 1e-14


def test_p_of_q_frozen_oracle():
    fit = MetaFit(mu_hat=0.3, v_hat=0.04, se_mu=0.05, q_statistic=10.0, k=5)
    p = p_of_q(fit, BiasDistribution(0.1, 0.01), q=0.1)
    # extended-precision oracle: 1 - Phi(-0.1 / sqrt(0.03))
    assert abs(p - 0.7181485691746135) < 1e-13


def test_p_of_q_inversion_at_published_summary():
    spec = PqSpec(q=math.log(1.2), r=0.4)
    bstar = minimal_common_bias(POOLED_LOG_RR_FIT, spec).value
    p = p_of_q(POOLED_LOG_RR_FIT, BiasDistribution(bstar, 0.0), q=math.log(1.2))
    assert abs(p - 0.4) < 1e-10
    # the two-decimal rounding of the published bias factor lands near 0.406
    p_rounded = p_of_q(POOLED_LOG_RR_FIT, BiasDistribution(0.17, 0.0), q=math.log(1.2))
    assert abs(p_rounded - 0.4061790664927024) < 1e-12


def test_variance_domination_error_names_both():
    fit = MetaFit(mu_hat=0.3, v_hat=0.02, se_mu=0.05, q_statistic=10.0, k=5)
    with pytest.raises(VarianceDominationError, match="0.02"):
        p_of_q(fit, BiasDistribution(0.1, 0.05), q=0.1)
    with pytest.raises(VarianceDominationError):
        p_of_q(fit, BiasDistribution(0.1, 0.02), q=0.1)  # equality is an error too


meta_fits = st.builds(
    MetaFit,
    mu_hat=st.floats(min_value=-2, max_value=2),
    v_hat=st.floats(min_value=0.01, max_value=4.0),
    se_mu=st.just(0.1),
    q_statistic=st.just(10.0),
    k=st.just(7),
)


@settings(max_examples=150)
@given(
    meta_fits,
    st.floats(min_value=-2, max_value=2),
    st.floats(min_value=0.0, max_value=2.0),
    st.floats(min_value=-2, max_value=2),
)
def test_constant_bias_is_upper_bound(fit, q, mu_b, frac):
    # for q + mu_b >= mu_hat, variance in the bias can only lower p(q)
    assume(q + mu_b >= fit.mu_hat)
    v_b = 0.5 * fit.v_hat * abs(math.sin(frac))  # some V_B in [0, v_hat/2]
    p_constant = p_of_q(fit, BiasDistribution(mu_b, 0.0), q)
    p_variable = p_of_q(fit, BiasDistribution(mu_b, v_b), q)
    assert p_variable <= p_constant + 1e-12


@settings(max_examples=150)
@given(meta_fits, st.floats(min_value=-2, max_value=2), st.floats(min_value=0, max_value=1))
def test_direction_symmetry(fit, q, mu_b):
    bias = BiasDistribution(mu_b, 0.3 * fit.v_hat)
    p_pos = p_of_q(fit, bias, q, "positive")
    mirrored = MetaFit(-fit.mu_hat, fit.v_hat, fit.se_mu, fit.q_statistic, fit.k)
    p_neg = p_of_q(mirrored, bias, -q, "negative")
    assert abs(p_pos - p_neg) < 1e-12


def test_p_of_q_monotone_in_bias_mean_and_pooled_mean():
    fit = MetaFit(mu_hat=0.5, v_hat=0.2, se_mu=0.1, q_statistic=10.0, k=5)
    ps = [p_of_q(fit, BiasDistribution(m, 0.0), q=0.2) for m in np.linspace(-1, 1, 21)]
    assert all(b < a for a, b in zip(ps, ps[1:]))
    ps_mu = [
        p_of_q(MetaFit(m, 0.2, 0.1, 10.0, 5), BiasDistribution(0.1, 0.0), q=0.2)
        for m in np.linspace(-1, 1, 21)
    ]
    assert all(b > a for a, b in zip(ps_mu, ps_mu[1:]))


# ---------------------------------------------------------------------------
# minimal_common_bias / explains_away_meta
# ---------------------------------------------------------------------------


def test_pooled_log_rr_minimal_common_bias():
    result = minimal_common_bias(POOLED_LOG_RR_FIT, PqSpec(q=math.log(1.2), r=0.4))
    assert abs(result.value - 0.17451476728822444) < 1e-12
    assert abs(result.value - 0.17) < 0.005
    assert not result.already_not_meaningful


def test_degenerate_variance_and_q_at_mean():
    fit = MetaFit(mu_hat=0.3, v_hat=0.0, se_mu=0.05, q_statistic=0.0, k=4)
    for r in (0.05, 0.25, 0.45):
        assert minimal_common_bias(fit, PqSpec(q=0.3, r=r)).value == 0.0


def test_minimal_common_bias_frozen_oracle():
    fit = MetaFit(mu_hat=0.3, v_hat=0.04, se_mu=0.05, q_statistic=10.0, k=5)
    result = minimal_common_bias(fit, PqSpec(q=0.0, r=0.25))
    # extended-precision oracle: Phi^-1(0.75) * 0.2 + 0.3
    assert abs(result.value - 0.43489795003921635) < 1e-13


def test_negative_direction_formula():
    fit = MetaFit(mu_hat=-0.6, v_hat=0.09, se_mu=0.05, q_statistic=10.0, k=5)
    result = minimal_common_bias(fit, PqSpec(q=-0.2, r=0.3), "negative")
    from clustersens import normal  # noqa: PLC0415

    expected = -0.2 - normal.ppf(0.3) * 0.3 + 0.6
    assert abs(result.value - expected) < 1e-14


def test_not_meaningful_flag_preserves_value():
    fit = MetaFit(mu_hat=0.0, v_hat=0.01, se_mu=0.05, q_statistic=10.0, k=5)
    result = minimal_common_bias(fit, PqSpec(q=1.0, r=0.4))
    assert result.value < 0.0
    assert result.already_not_meaningful


def test_r_domain_enforced():
    with pytest.raises(DomainError):
        PqSpec(q=0.1, r=0.5)
    with pytest.raises(DomainError):
        PqSpec(q=0.1, r=0.0)
    with pytest.raises(DomainError):
        PqSpec(q=0.1, r=0.7)


def test_explains_away_meta_boundary_counts():
    spec = PqSpec(q=math.log(1.2), r=0.4)
    bstar = minimal_common_bias(POOLED_LOG_RR_FIT, spec).value
    assert explains_away_meta(POOLED_LOG_RR_FIT, BiasDistribution(bstar, 0.0), spec)
    assert explains_away_meta(POOLED_LOG_RR_FIT, BiasDistribution(bstar, 0.5), spec)
    assert not explains_away_meta(POOLED_LOG_RR_FIT, BiasDistribution(0.0, 0.0), spec)
    assert not explains_away_meta(POOLED_LOG_RR_FIT, BiasDistribution(0.1, 0.0), spec)


@settings(max_examples=200)
@given(
    st.floats(min_value=-2, max_value=2),
    st.floats(min_value=1e-4, max_value=4.0),
    st.floats(min_value=-2, max_value=2),
    st.floats(min_value=0.01, max_value=0.49),
)
def test_inversion_identity(mu_hat, v_hat, q, r):
    fit = MetaFit(mu_hat=mu_hat, v_hat=v_hat, se_mu=0.1, q_statistic=10.0, k=7)
    spec = PqSpec(q=q, r=r)
    bstar = minimal_common_bias(fit, spec).value
    assert abs(p_of_q(fit, BiasDistribution(bstar, 0.0), q) - r) < 1e-10


# ---------------------------------------------------------------------------
# dl_variance_of_v_hat / CSV input
# ---------------------------------------------------------------------------


def test_dl_variance_positive_and_grows_with_heterogeneity():
    studies = make_studies([0.1, 0.5, 0.9, 1.4], [0.1, 0.2, 0.15, 0.12])
    v_small = dl_variance_of_v_hat(studies, 0.0)
    v_large = dl_variance_of_v_hat(studies, 1.0)
    assert 0 < v_small < v_large


def test_load_studies_csv(tmp_path):
    path = tmp_path / "studies.csv"
    path.write_text("study_id,estimate,std_error\ns1,1.0,0.31622776601683794\ns2,2.0,0.31622776601683794\n")
    studies = load_studies_csv(path)
    fit = pool(studies)
    assert abs(fit.v_hat - 0.4) < 1e-12
    assert abs(fit.mu_hat - 1.5) < 1e-12


def test_load_studies_csv_schema_error(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("study_id,estimate\ns1,1.0\n")
    with pytest.raises(Exception, match="std_error"):
        load_studies_csv(path)


@pytest.mark.parametrize(
    "estimate, variance",
    [(math.nan, 0.1), (math.inf, 0.1), (0.3, math.nan), (0.3, math.inf), (0.3, 0.0), (0.3, -0.1)],
)
def test_study_effect_rejects_non_finite_or_non_positive(estimate, variance):
    with pytest.raises(ValidationError):
        StudyEffect(study_id="s", estimate=estimate, within_variance=variance)


@pytest.mark.parametrize("v_hat", [-1.0, math.nan])
def test_meta_fit_rejects_negative_or_nan_variance(v_hat):
    with pytest.raises(ValidationError, match="v_hat"):
        MetaFit(mu_hat=0.0, v_hat=v_hat, se_mu=0.1, q_statistic=1.0, k=3)


@pytest.mark.parametrize(
    "cell, column", [("nan,0.1", "estimate"), ("-inf,0.1", "estimate"),
                     ("0.2,inf", "std_error"), ("0.2,nan", "std_error"),
                     ("0.2,-0.1", "std_error"), ("0.2,0", "std_error")],
)
def test_load_studies_csv_rejects_bad_row_with_its_number(tmp_path, cell, column):
    path = tmp_path / "studies.csv"
    path.write_text(f"study_id,estimate,std_error\ns1,1.0,0.1\ns2,{cell}\n")
    with pytest.raises(ValidationError, match=f"{column} at row 2"):
        load_studies_csv(path)
