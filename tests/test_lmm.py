import json
import math

import numpy as np
import pytest

from clustersens import (
    ClusteredDataset,
    ValidationError,
    SingularDesignError,
    fit_from_json,
    fit_lmm,
    fit_to_json,
)
from clustersens.simulation import ScenarioConfig, generate


def dataset_from_arrays(y, a, x, codes, scale="continuous"):
    return ClusteredDataset.from_columns(scale, [str(c) for c in codes], y, a, x)


def columns(ds):
    return ds.outcome, ds.treatment, ds.covariate_x, ds.cluster_codes


def random_dataset(rng, n_clusters=6, size_low=2, size_high=6, nu=1.0, phi=1.0):
    codes, a, x, y = [], [], [], []
    for j in range(n_clusters):
        m = int(rng.integers(size_low, size_high + 1))
        zeta = rng.normal(0, math.sqrt(nu))
        for _ in range(m):
            ai = int(rng.integers(0, 2))
            xi = int(rng.integers(0, 2))
            yi = 0.5 - ai + 2 * xi + 0.7 * ai * xi + zeta + rng.normal(0, math.sqrt(phi))
            codes.append(j)
            a.append(ai)
            x.append(xi)
            y.append(yi)
    return dataset_from_arrays(y, a, x, codes)


def dense_reml(ds, ratio):
    """Independent dense-matrix REML at a fixed variance ratio.

    Profiles the residual variance analytically; everything else is
    explicit linear algebra on the full n x n covariance.
    """
    y, a, x, codes = columns(ds)
    n = y.size
    design = np.column_stack([np.ones(n), a, x, a * x])
    z = (codes[:, None] == np.unique(codes)[None, :]).astype(float)
    w = np.eye(n) + ratio * z @ z.T
    w_inv = np.linalg.inv(w)
    xtwx = design.T @ w_inv @ design
    beta = np.linalg.solve(xtwx, design.T @ w_inv @ y)
    resid = y - design @ beta
    rss = float(resid @ w_inv @ resid)
    dof = n - 4
    phi = rss / dof
    sign, logdet_w = np.linalg.slogdet(w)
    sign2, logdet_xtwx = np.linalg.slogdet(xtwx)
    loglik = -0.5 * (dof * (math.log(phi) + 1 + math.log(2 * math.pi)) + logdet_w + logdet_xtwx)
    return loglik, beta, phi


def dense_gls(ds, ratio):
    y, a, x, codes = columns(ds)
    n = y.size
    design = np.column_stack([np.ones(n), a, x, a * x])
    z = (codes[:, None] == np.unique(codes)[None, :]).astype(float)
    w_inv = np.linalg.inv(np.eye(n) + ratio * z @ z.T)
    return np.linalg.solve(design.T @ w_inv @ design, design.T @ w_inv @ y)


def test_interpolation_recovers_linear_map_exactly():
    # two balanced clusters, outcomes exactly linear, zero noise
    betas = (2.0, -1.5, 0.5, 3.0)
    rows = []
    for j, cluster in enumerate(("p", "q")):
        for ai in (0, 1):
            for xi in (0, 1):
                y = betas[0] + betas[1] * ai + betas[2] * xi + betas[3] * ai * xi
                rows.append((cluster, y, ai, float(xi)))
    ds = ClusteredDataset.from_columns("continuous", *zip(*rows))
    fit = fit_lmm(ds)
    np.testing.assert_allclose(fit.coefficients, betas, atol=1e-10)


@pytest.mark.parametrize("seed", range(20))
def test_reml_beats_grid_oracle(seed):
    rng = np.random.default_rng(1000 + seed)
    ds = random_dataset(rng)
    fit = fit_lmm(ds)
    grid = np.logspace(-8, 4, 200)
    grid_loglik = np.array([dense_reml(ds, r)[0] for r in grid])
    assert fit.log_likelihood >= grid_loglik.max() - 1e-6
    # and the package's criterion agrees with the dense formula at the optimum
    if not fit.boundary:
        ratio = fit.random_intercept_variance / fit.residual_variance
        dense_ll = dense_reml(ds, ratio)[0]
        assert abs(dense_ll - fit.log_likelihood) < 1e-8


@pytest.mark.parametrize("seed", range(20))
def test_coefficients_match_dense_gls(seed):
    rng = np.random.default_rng(2000 + seed)
    ds = random_dataset(rng)
    fit = fit_lmm(ds)
    ratio = 0.0 if fit.boundary else fit.random_intercept_variance / fit.residual_variance
    np.testing.assert_allclose(fit.coefficients, dense_gls(ds, ratio), atol=1e-10)


def test_covariance_matches_dense_gls_covariance():
    rng = np.random.default_rng(3000)
    ds = random_dataset(rng, n_clusters=10)
    fit = fit_lmm(ds)
    y, a, x, codes = columns(ds)
    n = y.size
    design = np.column_stack([np.ones(n), a, x, a * x])
    z = (codes[:, None] == np.unique(codes)[None, :]).astype(float)
    ratio = fit.random_intercept_variance / fit.residual_variance
    w_inv = np.linalg.inv(np.eye(n) + ratio * z @ z.T)
    expected = fit.residual_variance * np.linalg.inv(design.T @ w_inv @ design)
    np.testing.assert_allclose(fit.coef_covariance, expected, atol=1e-10)


@pytest.mark.slow
def test_zero_variance_truth_hits_boundary():
    config = ScenarioConfig(
        kind="single_continuous", clusters=40, cluster_size=8, replications=50, seed=404,
        true_betas=(1.0, -1.0, 3.0, 1.0), theta=0.0, sigma_u2=0.25, nu=0.0, phi=1.0,
    )
    estimates = []
    for r in range(50):
        fit = fit_lmm(generate(config, r))
        estimates.append(fit.random_intercept_variance)
    assert np.median(estimates) <= 1e-2


def test_confounded_scenario_fit_is_sane():
    config = ScenarioConfig(
        kind="single_continuous", clusters=100, cluster_size=3, replications=1, seed=5,
        true_betas=(1.0, -1.0, 3.0, 1.0), theta=0.5, sigma_u2=0.25, nu=4.0, phi=1.0,
    )
    fit = fit_lmm(generate(config, 0))
    assert fit.converged
    assert 1.0 < fit.random_intercept_variance < 10.0
    assert 0.5 < fit.residual_variance < 2.0
    # spectral sanity of the covariance
    eigvals = np.linalg.eigvalsh(fit.coef_covariance)
    assert np.all(eigvals > 0)


def test_relabeling_clusters_preserves_likelihood():
    rng = np.random.default_rng(77)
    ds = random_dataset(rng, n_clusters=8)
    fit = fit_lmm(ds)
    relabeled = ClusteredDataset.from_columns(
        "continuous",
        ["z" + ds.cluster_ids[c] for c in ds.cluster_codes[::-1]],
        ds.outcome[::-1],
        ds.treatment[::-1],
        ds.covariate_x[::-1],
    )
    fit2 = fit_lmm(relabeled)
    assert abs(fit.log_likelihood - fit2.log_likelihood) < 1e-10
    np.testing.assert_allclose(fit.coefficients, fit2.coefficients, atol=1e-9)


def test_rank_deficient_design_raises():
    ds = ClusteredDataset.from_columns(
        "continuous", list("aabbcc"), [1.0, 2.0, 3.0, 1.0, 2.0, 0.0], [1, 0, 1, 0, 1, 0],
        [1.0, 0.0, 1.0, 0.0, 1.0, 0.0],
    )
    # x == a everywhere, so the interaction column duplicates x
    with pytest.raises(SingularDesignError):
        fit_lmm(ds)


def test_requires_continuous_scale():
    ds = ClusteredDataset.from_columns(
        "binary", list("aabbcc"), [1.0, 0.0, 1.0, 0.0, 0.0, 1.0], [1, 0, 1, 0, 1, 0],
        [1.0, 0.0, 0.0, 1.0, 1.0, 0.0],
    )
    with pytest.raises(ValidationError):
        fit_lmm(ds)


def test_fit_json_round_trip():
    rng = np.random.default_rng(99)
    fit = fit_lmm(random_dataset(rng))
    doc = fit_to_json(fit)
    parsed = json.loads(doc)
    assert parsed["scale"] == "continuous"
    assert len(parsed["coef_covariance"]) == 16
    restored = fit_from_json(doc)
    np.testing.assert_array_equal(restored.coefficients, fit.coefficients)
    np.testing.assert_array_equal(restored.coef_covariance, fit.coef_covariance)
    assert restored.residual_variance == fit.residual_variance
    assert restored.log_likelihood == fit.log_likelihood
