import math

import numpy as np
import pytest
from scipy import integrate, optimize, special

from clustersens import (
    ClusteredDataset,
    SeparationError,
    ValidationError,
    fit_from_json,
    fit_glmm_logit,
    fit_to_json,
    icc_logistic,
)
from clustersens.errors import DomainError
from clustersens import mixed_models
from clustersens.mixed_models import (
    LOGISTIC_LATENT_VARIANCE,
    _AgqLoglik,
    _expit_softplus,
    _prepare,
    _score_information,
)
from clustersens.simulation import ScenarioConfig, generate, nu_from_icc


def binary_dataset(rng, n_clusters=25, cluster_size=6, nu=0.8):
    rows = []
    for j in range(n_clusters):
        zeta = rng.normal(0, math.sqrt(nu))
        for i in range(cluster_size):
            a = int(rng.integers(0, 2))
            x = int(rng.integers(0, 2))
            eta = -0.5 + 0.9 * a + 0.6 * x - 0.4 * a * x + zeta
            y = float(rng.random() < special.expit(eta))
            rows.append((f"c{j}", y, a, float(x)))
    return ClusteredDataset.from_columns("binary", *zip(*rows))


def brute_force_loglik(ds, beta, nu):
    """Independent marginal log-likelihood: adaptive quadrature per cluster."""
    y, design, codes, sizes, starts = _prepare(ds)
    eta_fixed = design @ beta
    total = 0.0
    for j in range(sizes.size):
        sel = slice(starts[j], starts[j] + sizes[j])

        def integrand(z, sel=sel):
            eta = eta_fixed[sel] + z
            cond = np.exp(np.sum(y[sel] * eta - np.logaddexp(0.0, eta)))
            return cond * math.exp(-z * z / (2 * nu)) / math.sqrt(2 * math.pi * nu)

        val, _ = integrate.quad(integrand, -10 * math.sqrt(nu), 10 * math.sqrt(nu),
                                epsabs=1e-13, epsrel=1e-12, limit=200)
        total += math.log(val)
    return total


def test_marginal_likelihood_matches_quadrature_oracle():
    rng = np.random.default_rng(314)
    ds = binary_dataset(rng, n_clusters=8, cluster_size=5)
    y, design, codes, sizes, starts = _prepare(ds)
    loglik = _AgqLoglik(y, design, codes, sizes, starts, quadrature_points=25)
    beta = np.array([-0.4, 0.8, 0.5, -0.2])
    for nu in (0.05, 0.4, 1.5):
        params = np.append(beta, math.log(nu))
        assert abs(loglik(params) - brute_force_loglik(ds, beta, nu)) < 1e-8


def central_difference_gradient(func, params, rel_step=1e-5):
    grad = np.empty_like(params)
    for i in range(params.size):
        h = rel_step * max(1.0, abs(params[i]))
        up, down = params.copy(), params.copy()
        up[i] += h
        down[i] -= h
        grad[i] = (func(up) - func(down)) / (2.0 * h)
    return grad


def central_difference_hessian(func, params, rel_step=1e-3):
    k = params.size
    h = rel_step * np.maximum(1.0, np.abs(params))
    hess = np.empty((k, k))
    for i in range(k):
        for j in range(k):
            total = 0.0
            for si, sj, sign in ((1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1)):
                shifted = params.copy()
                shifted[i] += si * h[i]
                shifted[j] += sj * h[j]
                total += sign * func(shifted)
            hess[i, j] = total / (4.0 * h[i] * h[j])
    return hess


def test_expit_softplus_matches_scipy_and_numpy():
    eta = np.concatenate([np.linspace(-800.0, 800.0, 4001), [-0.0, 0.0, 1e-300, -1e-300]])
    prob, softplus = _expit_softplus(eta.reshape(-1, 5))
    # below eta ~ -708 scipy flushes expit to zero where this keeps subnormals
    np.testing.assert_allclose(prob.ravel(), special.expit(eta), rtol=4e-16, atol=1e-300)
    np.testing.assert_allclose(softplus.ravel(), np.logaddexp(0.0, eta), rtol=4e-16, atol=0.0)


@pytest.mark.parametrize("quadrature_points", [1, 15, 25])
@pytest.mark.parametrize("nu", [0.05, 0.4, 1.5])
def test_analytic_score_matches_central_differences(quadrature_points, nu):
    rng = np.random.default_rng(2024 + quadrature_points)
    ds = binary_dataset(rng, n_clusters=20, cluster_size=6)
    loglik = _AgqLoglik(*_prepare(ds), quadrature_points=quadrature_points)
    for _ in range(3):
        params = np.append(rng.normal(0.0, 0.6, 4), math.log(nu))
        value, score = loglik.value_and_score(params)
        assert value == pytest.approx(loglik(params), abs=1e-10)
        numeric = central_difference_gradient(loglik, params)
        assert np.max(np.abs(score - numeric)) <= 1e-6 * np.max(np.abs(numeric))


def test_score_information_matches_value_hessian():
    rng = np.random.default_rng(77)
    ds = binary_dataset(rng, n_clusters=30, cluster_size=6)
    fit = fit_glmm_logit(ds)
    loglik = _AgqLoglik(*_prepare(ds), quadrature_points=15)
    optimum = np.append(fit.coefficients, math.log(fit.random_intercept_variance))
    interior = optimum + rng.normal(0.0, 0.2, 5)
    for params in (optimum, interior):
        info = _score_information(lambda p: loglik.value_and_score(p)[1], params)
        hess = central_difference_hessian(loglik, params)
        assert np.max(np.abs(info + hess)) <= 1e-4 * np.max(np.abs(hess))


def test_criterion_4_design_fit_evaluation_budget(monkeypatch):
    calls = []

    class CountingLoglik(_AgqLoglik):
        def value_and_score(self, params):
            calls.append(1)
            return super().value_and_score(params)

    monkeypatch.setattr(mixed_models, "_AgqLoglik", CountingLoglik)
    config = ScenarioConfig(
        kind="single_binary", clusters=200, cluster_size=4, replications=1, seed=34,
        true_betas=(-4.5, 1.0, 3.0, -0.5), theta=-0.5, sigma_u2=1.0,
        nu=nu_from_icc(0.25), phi=1.0,
    )
    fit = fit_glmm_logit(generate(config, 0))
    assert not fit.boundary
    assert 0 < len(calls) <= 40


def test_laplace_is_single_node():
    rng = np.random.default_rng(218)
    ds = binary_dataset(rng, n_clusters=10)
    fit1 = fit_glmm_logit(ds, quadrature_points=1)
    fit15 = fit_glmm_logit(ds, quadrature_points=15)
    assert fit1.converged and fit15.converged
    assert fit1.quadrature_points == 1
    # Laplace and AGQ agree loosely; they are different approximations
    np.testing.assert_allclose(fit1.coefficients, fit15.coefficients, atol=0.05)


def test_all_zero_outcomes_is_degenerate():
    ds = ClusteredDataset.from_columns(
        "binary", list("aabbcc"), [0.0] * 6, [1, 0, 1, 0, 1, 0], [1.0, 0.0, 0.0, 1.0, 1.0, 0.0]
    )
    with pytest.raises(SeparationError):
        fit_glmm_logit(ds)


def test_agq_15_vs_64_consistency_on_scenario_replicate():
    config = ScenarioConfig(
        kind="single_binary", clusters=200, cluster_size=4, replications=1, seed=42,
        true_betas=(-4.5, 1.0, 3.0, -0.5), theta=-0.5, sigma_u2=1.0,
        nu=nu_from_icc(0.25), phi=1.0,
    )
    ds = generate(config, 0)
    fit15 = fit_glmm_logit(ds, 15)
    fit64 = fit_glmm_logit(ds, 64)
    assert np.max(np.abs(fit15.coefficients - fit64.coefficients)) < 1e-4


def no_cluster_effect_dataset():
    rng = np.random.default_rng(5150)
    rows = []
    for j in range(40):
        for i in range(8):
            a = int(rng.integers(0, 2))
            x = int(rng.integers(0, 2))
            eta = -0.3 + 0.7 * a + 0.4 * x - 0.2 * a * x
            y = float(rng.random() < special.expit(eta))
            rows.append((f"c{j}", y, a, float(x)))
    return ClusteredDataset.from_columns("binary", *zip(*rows))


def test_tiny_variance_approaches_plain_logistic():
    # no true cluster effect: the intercept variance should collapse
    ds = no_cluster_effect_dataset()
    fit = fit_glmm_logit(ds)
    assert fit.random_intercept_variance < 0.05
    # the variance collapses onto the floor: information over beta alone
    assert fit.boundary
    assert fit.random_intercept_variance == 0.0
    assert np.all(np.linalg.eigvalsh(fit.coef_covariance) > 0)

    # reference: plain logistic fit by direct minimization
    y, design, codes, sizes, starts = _prepare(ds)

    def nll(beta):
        eta = design @ beta
        return -float(np.sum(y * eta - np.logaddexp(0.0, eta)))

    res = optimize.minimize(nll, np.zeros(4), method="BFGS")
    np.testing.assert_allclose(fit.coefficients, res.x, atol=0.02)


def test_boundary_information_matches_the_score_difference():
    # at nu = 0 the closed-form logistic information over beta against the
    # central difference of the AGQ score in beta at the variance floor
    ds = no_cluster_effect_dataset()
    fit = fit_glmm_logit(ds)
    assert fit.boundary
    loglik = _AgqLoglik(*_prepare(ds), quadrature_points=15)

    def score(beta):
        return loglik.value_and_score(np.append(beta, math.log(1e-10)))[1][:4]

    expected = np.linalg.inv(_score_information(score, fit.coefficients))
    np.testing.assert_allclose(fit.coef_covariance, expected, rtol=1e-8)


def test_relabeling_clusters_preserves_likelihood():
    rng = np.random.default_rng(808)
    ds = binary_dataset(rng, n_clusters=12)
    relabeled = ClusteredDataset.from_columns(
        "binary",
        ["zz" + ds.cluster_ids[c] for c in ds.cluster_codes[::-1]],
        ds.outcome[::-1],
        ds.treatment[::-1],
        ds.covariate_x[::-1],
    )
    fit = fit_glmm_logit(ds)
    fit2 = fit_glmm_logit(relabeled)
    assert abs(fit.log_likelihood - fit2.log_likelihood) < 1e-10


def test_requires_binary_scale_and_positive_nodes():
    rng = np.random.default_rng(1)
    ds = binary_dataset(rng, n_clusters=6)
    with pytest.raises(DomainError):
        fit_glmm_logit(ds, quadrature_points=0)
    cont = ClusteredDataset.from_columns(
        "continuous", list("aabb"), [0.7, 0.3, 0.9, 0.1], [1, 0, 1, 0], [1.0, 0.0, 0.0, 1.0]
    )
    with pytest.raises(ValidationError):
        fit_glmm_logit(cont)


def test_covariance_is_positive_definite_and_serializes():
    rng = np.random.default_rng(999)
    ds = binary_dataset(rng, n_clusters=30)
    fit = fit_glmm_logit(ds)
    eigvals = np.linalg.eigvalsh(fit.coef_covariance)
    assert np.all(eigvals > 0)
    restored = fit_from_json(fit_to_json(fit))
    assert restored.scale == "binary"
    assert restored.residual_variance is None
    assert restored.quadrature_points == 15
    np.testing.assert_array_equal(restored.coefficients, fit.coefficients)


def test_icc_logistic_values():
    assert icc_logistic(0.0) == 0.0
    assert abs(icc_logistic(LOGISTIC_LATENT_VARIANCE) - 0.5) < 1e-15
    assert abs(icc_logistic(1.0966) - 0.25) < 1e-3
    # inverse mapping round-trips
    assert abs(icc_logistic(nu_from_icc(0.25)) - 0.25) < 1e-12
    with pytest.raises(DomainError):
        icc_logistic(-0.1)
