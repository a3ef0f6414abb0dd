import hashlib
import math
from functools import partial

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
    load_csv,
)
from clustersens.errors import ConvergenceError, DomainError
from clustersens import mixed_models
from clustersens.mixed_models import (
    LOGISTIC_LATENT_VARIANCE,
    _AgqLoglik,
    _cluster_patterns,
    _expit_softplus,
    _gauss_hermite,
    _logistic_fit,
    _prepare,
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


def score_information(score, params, rel_step=1e-4):
    """Observed information as the symmetrised central difference of a score."""
    steps = rel_step * np.maximum(1.0, np.abs(params))
    info = np.empty((params.size, params.size))
    for i, h in enumerate(steps):
        up = params.copy()
        down = params.copy()
        up[i] += h
        down[i] -= h
        info[i] = (score(down) - score(up)) / (2.0 * h)
    return 0.5 * (info + info.T)


class PerClusterAgq:
    """Oracle: the AGQ log-likelihood and score summed cluster by cluster.

    Every cluster gets its own mode, nodes and terms, with no grouping into
    weighted patterns, and the node terms come from scipy's expit and
    numpy's logaddexp rather than ``_expit_softplus``. ``derivatives`` takes
    its information from a central difference of that score, so a fit that
    runs on this class shares no Hessian code with ``_AgqLoglik``.
    """

    def __init__(self, y, design, codes, sizes, starts, quadrature_points):
        self.y, self.design, self.codes, self.starts = y, design, codes, starts
        nodes, weights = np.polynomial.hermite.hermgauss(quadrature_points)
        self.nodes = nodes
        self.log_weights = np.log(weights) + nodes**2
        self.modes = np.zeros(sizes.size)

    def __call__(self, params):
        return self.value_and_score(params)[0]

    def derivatives(self, params):
        value, score = self.value_and_score(params)
        info = score_information(lambda p: self.value_and_score(p)[1], params)
        return value, score, info

    def value_and_score(self, params):
        beta = params[:4]
        nu_raw = math.exp(params[4])
        nu = max(nu_raw, 1e-10)
        dlognu = 1.0 if nu_raw >= 1e-10 else 0.0
        y, design, codes, starts = self.y, self.design, self.codes, self.starts
        eta_fixed = design @ beta
        zeta = self.modes.copy()
        for _ in range(60):
            p = special.expit(eta_fixed + zeta[codes])
            grad = np.add.reduceat(y - p, starts) - zeta / nu
            hess = np.add.reduceat(p * (1.0 - p), starts) + 1.0 / nu
            step = np.clip(grad / hess, -4.0, 4.0)
            zeta += step
            if np.max(np.abs(step)) < 1e-11:
                break
        self.modes = zeta
        p = special.expit(eta_fixed + zeta[codes])
        w = p * (1.0 - p)
        hess = np.add.reduceat(w, starts) + 1.0 / nu
        scale = np.sqrt(2.0 / hess)
        offsets = scale[:, None] * self.nodes[None, :]
        z_nodes = zeta[:, None] + offsets
        eta_nodes = eta_fixed[:, None] + z_nodes[codes, :]
        p_nodes = special.expit(eta_nodes)
        rel = (
            np.add.reduceat(y[:, None] * eta_nodes - np.logaddexp(0.0, eta_nodes), starts, axis=0)
            - z_nodes**2 / (2.0 * nu)
            + self.log_weights[None, :]
        )
        shift = rel.max(axis=1)
        expo = np.exp(rel - shift[:, None])
        total = expo.sum(axis=1)
        loglik = float(
            np.sum(np.log(total) + shift + np.log(scale))
            - 0.5 * scale.size * math.log(2.0 * math.pi * nu)
        )
        post = expo / total[:, None]
        resid = y[:, None] - p_nodes
        slope = np.add.reduceat(resid, starts, axis=0) - z_nodes / nu
        slope_mean = np.sum(post * slope, axis=1)
        spread = 1.0 + np.sum(post * slope * offsets, axis=1)
        third = w * (1.0 - 2.0 * p)
        third_sums = np.add.reduceat(third, starts)
        dmode_beta = -np.add.reduceat(design * w[:, None], starts, axis=0) / hess[:, None]
        dhess_beta = (
            np.add.reduceat(design * third[:, None], starts, axis=0)
            + third_sums[:, None] * dmode_beta
        )
        score_beta = (
            design.T @ np.sum(post[codes, :] * resid, axis=1)
            + dmode_beta.T @ slope_mean
            - 0.5 * (dhess_beta / hess[:, None]).T @ spread
        )
        dmode_nu = zeta / (nu * hess)
        dhess_nu = third_sums * dmode_nu - 1.0 / nu
        score_nu = dlognu * float(
            np.sum(
                np.sum(post * z_nodes**2, axis=1) / (2.0 * nu)
                + slope_mean * dmode_nu
                - 0.5 * spread * dhess_nu / hess
                - 0.5
            )
        )
        return loglik, np.append(score_beta, score_nu)


def value_of(loglik):
    return lambda params: loglik.derivatives(params)[0]


def score_of(loglik):
    return lambda params: loglik.derivatives(params)[1]


def weighted_loglik(ds, quadrature_points=15):
    """The fitter's evaluator: one block per distinct cluster pattern, with counts."""
    y, design, sizes, counts = _cluster_patterns(ds)
    return _AgqLoglik(y, design, sizes, counts, quadrature_points), counts


def per_cluster_loglik(ds, quadrature_points):
    """The fitter's evaluator on every cluster of ``_prepare``'s layout, each with count 1."""
    y, design, _, sizes, _ = _prepare(ds)
    return _AgqLoglik(y, design, sizes, np.ones(sizes.size), quadrature_points)


def continuous_x_dataset():
    rng = np.random.default_rng(4242)
    ids, ys, a_s, xs = [], [], [], []
    for j in range(30):
        zeta = rng.normal(0.0, 0.9)
        for _ in range(5):
            a, x = int(rng.integers(0, 2)), float(rng.normal())
            ids.append(f"c{j}")
            a_s.append(a)
            xs.append(x)
            ys.append(float(rng.random() < special.expit(-0.3 + 0.8 * a + 0.5 * x + zeta)))
    return ClusteredDataset.from_columns("binary", ids, ys, a_s, xs)


def mixed_size_dataset():
    # sizes 1 to 5, with singletons and larger clusters repeated exactly
    rng = np.random.default_rng(9090)
    ids, ys, a_s, xs = [], [], [], []
    for j, size in enumerate(rng.integers(1, 6, 70)):
        for _ in range(size):
            a, x = int(rng.integers(0, 2)), int(rng.integers(0, 2))
            ids.append(f"c{j}")
            a_s.append(a)
            xs.append(float(x))
            ys.append(float(rng.random() < special.expit(-0.2 + 0.7 * a + 0.4 * x + 0.5 * (j % 3))))
    return ClusteredDataset.from_columns("binary", ids, ys, a_s, xs)


def test_marginal_likelihood_matches_quadrature_oracle():
    rng = np.random.default_rng(314)
    ds = binary_dataset(rng, n_clusters=8, cluster_size=5)
    loglik = per_cluster_loglik(ds, quadrature_points=25)
    beta = np.array([-0.4, 0.8, 0.5, -0.2])
    for nu in (0.05, 0.4, 1.5):
        params = np.append(beta, math.log(nu))
        assert abs(loglik.derivatives(params)[0] - brute_force_loglik(ds, beta, nu)) < 1e-8


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
    loglik = per_cluster_loglik(ds, quadrature_points)
    for _ in range(3):
        params = np.append(rng.normal(0.0, 0.6, 4), math.log(nu))
        score = loglik.derivatives(params)[1]
        numeric = central_difference_gradient(value_of(loglik), params)
        assert np.max(np.abs(score - numeric)) <= 1e-6 * np.max(np.abs(numeric))


def test_score_information_matches_value_hessian():
    rng = np.random.default_rng(77)
    ds = binary_dataset(rng, n_clusters=30, cluster_size=6)
    fit = fit_glmm_logit(ds)
    loglik = per_cluster_loglik(ds, 15)
    optimum = np.append(fit.coefficients, math.log(fit.random_intercept_variance))
    interior = optimum + rng.normal(0.0, 0.2, 5)
    for params in (optimum, interior):
        info = score_information(score_of(loglik), params)
        hess = central_difference_hessian(value_of(loglik), params)
        assert np.max(np.abs(info + hess)) <= 1e-4 * np.max(np.abs(hess))


def criterion_4_design(seed=34):
    config = ScenarioConfig(
        kind="single_binary", clusters=200, cluster_size=4, replications=1, seed=seed,
        true_betas=(-4.5, 1.0, 3.0, -0.5), theta=-0.5, sigma_u2=1.0,
        nu=nu_from_icc(0.25), phi=1.0,
    )
    return generate(config, 0)


def assert_information_matches_score_difference(loglik, params):
    closed = loglik.derivatives(params)[2]
    numeric = score_information(score_of(loglik), params)
    assert np.array_equal(closed, closed.T)
    assert np.max(np.abs(closed - numeric)) <= 1e-6 * np.max(np.abs(numeric))


@pytest.mark.parametrize("quadrature_points", [1, 15, 25])
@pytest.mark.parametrize("nu", [0.05, 0.4, 1.5])
def test_closed_form_information_matches_the_score_difference(quadrature_points, nu):
    rng = np.random.default_rng(2024 + quadrature_points)
    ds = binary_dataset(rng, n_clusters=20, cluster_size=6)
    loglik = per_cluster_loglik(ds, quadrature_points)
    for _ in range(3):
        assert_information_matches_score_difference(
            loglik, np.append(rng.normal(0.0, 0.6, 4), math.log(nu))
        )


@pytest.mark.parametrize("seed", range(34, 42))
def test_closed_form_information_matches_the_score_difference_at_the_optimum(seed):
    ds = criterion_4_design(seed)
    fit = fit_glmm_logit(ds)
    assert not fit.boundary
    loglik = weighted_loglik(ds)[0]
    assert_information_matches_score_difference(
        loglik, np.append(fit.coefficients, math.log(fit.random_intercept_variance))
    )


class CountingLoglik(_AgqLoglik):
    """The fitter's evaluator, counting its derivative passes in ``passes``."""

    passes = 0

    def derivatives(self, params):
        CountingLoglik.passes += 1
        return super().derivatives(params)


@pytest.mark.parametrize("points", [1, 15, 64, 100, 128])
def test_gauss_hermite_rule_is_built_once_and_read_only(points):
    nodes, weights = _gauss_hermite(points)
    expected_nodes, expected_weights = np.polynomial.hermite.hermgauss(points)
    assert np.array_equal(nodes, expected_nodes) and np.array_equal(weights, expected_weights)
    assert _gauss_hermite(points)[0] is nodes
    for array in (nodes, weights):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0.0


def test_criterion_4_design_fits_match_pinned_digest():
    # sha256 of each fit's coefficients, covariance, nu, log-likelihood and
    # Newton steps as float64 bytes, recorded while every fit still built its
    # own 15-node rule with hermgauss
    digest = hashlib.sha256()
    for seed in range(34, 114):
        fit = fit_glmm_logit(criterion_4_design(seed))
        digest.update(np.concatenate([
            fit.coefficients, fit.coef_covariance.ravel(),
            [fit.random_intercept_variance, fit.log_likelihood, fit.n_iterations],
        ]).tobytes())
    assert digest.hexdigest() == "ae3b9fa34054fc0a431b309abc45497532feb7d8837354b3c663b5b0ccf39741"


def test_agq_derivatives_match_pinned_digest():
    # sha256 of the log-likelihood, score and information as float64 bytes,
    # each from a fresh evaluator (cold modes) at the start point, below the
    # variance floor and at the log nu wall: points and branches the fit
    # digest never reports
    digest = hashlib.sha256()
    designs = [criterion_4_design(seed) for seed in range(34, 38)] + [mixed_size_dataset()]
    for ds in designs:
        patterns = _cluster_patterns(ds)
        beta = _logistic_fit(*patterns)[0]
        for log_nu in (math.log(0.5), math.log(mixed_models._VAR_FLOOR) - 1.0, 9.0):
            loglik, score, info = _AgqLoglik(*patterns, 15).derivatives(np.append(beta, log_nu))
            digest.update(np.concatenate([[loglik], score, info.ravel()]).tobytes())
    assert digest.hexdigest() == "2a53e1b3dd3ceafbfba72dfa6b845a3674cd87ae6896e57756247b0303de61cd"


def test_criterion_4_design_fit_evaluation_budget(monkeypatch):
    # a Newton step costs one pass per trial point; over these seeds the fits
    # took 5.7 passes on average and at most 10
    monkeypatch.setattr(mixed_models, "_AgqLoglik", CountingLoglik)
    per_fit = []
    for seed in range(34, 114):
        CountingLoglik.passes = 0
        fit = fit_glmm_logit(criterion_4_design(seed))
        assert not fit.boundary
        assert fit.n_iterations < CountingLoglik.passes
        per_fit.append(CountingLoglik.passes)
    assert max(per_fit) <= 10
    assert np.mean(per_fit) <= 6.0


def test_nan_score_raises_convergence_error(monkeypatch):
    class NanLoglik(_AgqLoglik):
        def derivatives(self, params):
            return math.nan, np.full_like(params, math.nan), np.full((params.size,) * 2, math.nan)

    monkeypatch.setattr(mixed_models, "_AgqLoglik", NanLoglik)
    with pytest.raises(ConvergenceError, match="found no ascent step"):
        fit_glmm_logit(binary_dataset(np.random.default_rng(3), n_clusters=8))


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
    ds = criterion_4_design(42)
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
    loglik = per_cluster_loglik(ds, 15)

    def score(beta):
        return loglik.derivatives(np.append(beta, math.log(1e-10)))[1][:4]

    expected = np.linalg.inv(score_information(score, fit.coefficients))
    np.testing.assert_allclose(fit.coef_covariance, expected, rtol=1e-8)


@pytest.mark.parametrize("make", [no_cluster_effect_dataset, criterion_4_design, mixed_size_dataset])
def test_boundary_score_matches_the_agq_slope_in_nu(make):
    # the closed-form score in nu at nu = 0, at the plain logistic fit,
    # against the slope of the per-cluster AGQ log-likelihood near 0:
    # central differences at nu0 and 2 nu0 extrapolated to 0 (error ~ nu0^2)
    ds = make()
    beta, loglik0, score, _ = _logistic_fit(*_cluster_patterns(ds))
    oracle = PerClusterAgq(*_prepare(ds), quadrature_points=15)

    def slope(nu, h=3e-6):
        up, down = (oracle(np.append(beta, math.log(nu + s * h))) for s in (1, -1))
        return (up - down) / (2.0 * h)

    assert abs(score - (2.0 * slope(3e-5) - slope(6e-5))) <= 2e-6 * max(1.0, abs(score))
    # and the value there is the plain logistic log-likelihood
    full_y, full_design = _prepare(ds)[:2]
    eta = full_design @ beta
    assert loglik0 == pytest.approx(float(np.sum(full_y * eta - np.logaddexp(0.0, eta))), rel=1e-13)


def test_reported_log_likelihood_is_the_value_at_the_fit():
    # interior: the AGQ log-likelihood at the fitted parameters (the Newton
    # iteration's own last value); boundary: the plain logistic log-likelihood
    for ds in (binary_dataset(np.random.default_rng(77), n_clusters=30), no_cluster_effect_dataset()):
        fit = fit_glmm_logit(ds)
        y, design = _prepare(ds)[:2]
        if fit.boundary:
            eta = design @ fit.coefficients
            expected = float(np.sum(y * eta - np.logaddexp(0.0, eta)))
        else:
            params = np.append(fit.coefficients, math.log(fit.random_intercept_variance))
            expected = PerClusterAgq(*_prepare(ds), quadrature_points=15)(params)
        assert abs(fit.log_likelihood - expected) <= 1e-12 * abs(expected)


PATTERN_DATASETS = {
    "criterion_4": criterion_4_design,
    "continuous_x": continuous_x_dataset,
    "mixed_sizes": mixed_size_dataset,
}


@pytest.mark.parametrize("name", sorted(PATTERN_DATASETS))
def test_pattern_weighted_evaluator_matches_per_cluster_oracle(name):
    ds = PATTERN_DATASETS[name]()
    loglik, counts = weighted_loglik(ds)
    oracle = PerClusterAgq(*_prepare(ds), quadrature_points=15)
    assert counts.sum() == ds.cluster_count
    if name == "continuous_x":
        assert np.all(counts == 1)
    else:
        assert counts.size < ds.cluster_count
    for params in ([-0.5, 0.8, 0.4, -0.3, math.log(0.7)], [-2.0, 0.3, 1.2, 0.5, math.log(2.5)]):
        value, score, _ = loglik.derivatives(np.array(params))
        expected_value, expected_score = oracle.value_and_score(np.array(params))
        assert abs(value - expected_value) <= 1e-12 * abs(expected_value)
        assert np.max(np.abs(score - expected_score)) <= 1e-10 * np.max(np.abs(expected_score))


def reference_patterns(ds):
    """Independent grouping: a dict keyed on (size, sorted (a, x, y) row tuples).

    Clusters are visited in code order and each cluster's rows are sorted
    stably, so among rows or clusters that compare equal (0.0 and -0.0) the
    first seen is the one kept; the patterns come out ordered by size, then
    by rows.
    """
    clusters = {}
    rows = zip(ds.treatment.tolist(), ds.covariate_x.tolist(), ds.outcome.tolist())
    for code, row in zip(ds.cluster_codes.tolist(), rows):
        clusters.setdefault(code, []).append(row)
    counts = {}
    for code in sorted(clusters):
        key = (len(clusters[code]), tuple(sorted(clusters[code])))
        counts[key] = counts.get(key, 0) + 1
    keys = sorted(counts)
    a, x, y = (np.array(column) for column in zip(*(row for _, rows in keys for row in rows)))
    return (
        y,
        np.column_stack([np.ones_like(y), a, x, a * x]),
        np.array([size for size, _ in keys]),
        np.array([counts[key] for key in keys], dtype=float),
    )


def random_pattern_csv(path, rng):
    """A binary design with sizes 1-4, x cells from a small set with -0.0 or
    continuous, written with its rows shuffled so clusters interleave."""
    x_cells = ["0.0", "-0.0", "1.0", "-1.5"] if rng.random() < 0.7 else None
    lines = []
    for j, size in enumerate(rng.integers(1, 5, int(rng.integers(2, 60)))):
        for _ in range(size):
            x = rng.choice(x_cells) if x_cells else repr(float(rng.normal()))
            lines.append(f"c{j},{rng.integers(0, 2)},{rng.integers(0, 2)},{x}")
    lines = [lines[k] for k in rng.permutation(len(lines))]
    path.write_text("cluster_id,outcome,treatment,covariate_x\n" + "\n".join(lines) + "\n")
    return path


def assert_same_patterns(ds):
    got, expected = _cluster_patterns(ds), reference_patterns(ds)
    for name, g, e in zip(("y", "design", "sizes", "counts"), got, expected):
        assert g.shape == e.shape and g.dtype == e.dtype, name
        assert g.tobytes() == e.tobytes(), name


@pytest.mark.parametrize("seed", range(34, 42))
def test_cluster_patterns_match_a_dict_grouping_on_criterion_4_designs(seed):
    assert_same_patterns(criterion_4_design(seed))


def test_cluster_patterns_match_a_dict_grouping_on_random_designs(tmp_path):
    rng = np.random.default_rng(2525)
    signed_zeros = 0
    for k in range(60):
        ds = load_csv(random_pattern_csv(tmp_path / f"d{k}.csv", rng), "binary")
        signed_zeros += bool(np.any(np.signbit(ds.covariate_x) & (ds.covariate_x == 0.0)))
        assert_same_patterns(ds)
    assert signed_zeros >= 20


def test_duplicated_clusters_report_real_counts_and_the_same_optimum():
    # three copies of every cluster triple the log-likelihood, so the
    # optimum stays put and the standard errors shrink by sqrt(3)
    base = binary_dataset(np.random.default_rng(61), n_clusters=20, cluster_size=4)
    copies = 3
    dup = ClusteredDataset.from_columns(
        "binary",
        [f"{k}-{base.cluster_ids[c]}" for k in range(copies) for c in base.cluster_codes],
        np.tile(base.outcome, copies),
        np.tile(base.treatment, copies),
        np.tile(base.covariate_x, copies),
    )
    fit, base_fit = fit_glmm_logit(dup), fit_glmm_logit(base)
    assert (fit.n_clusters, fit.n_obs) == (60, 240)
    assert weighted_loglik(dup)[1].size == weighted_loglik(base)[1].size
    assert fit.boundary == base_fit.boundary
    np.testing.assert_allclose(fit.coefficients, base_fit.coefficients, rtol=0, atol=1e-6)
    np.testing.assert_allclose(
        np.sqrt(3.0 * np.diag(fit.coef_covariance)), np.sqrt(np.diag(base_fit.coef_covariance)),
        rtol=1e-4,
    )
    assert fit.log_likelihood == pytest.approx(copies * base_fit.log_likelihood, rel=1e-10)


def test_fit_matches_a_fit_on_the_per_cluster_oracle(monkeypatch):
    class ExpandedOracle(PerClusterAgq):
        """The oracle over the fitter's patterns, each repeated by its count."""

        def __init__(self, y, design, sizes, counts, quadrature_points):
            starts = np.cumsum(sizes) - sizes
            pattern = np.repeat(np.arange(sizes.size), counts.astype(int))
            rows = np.concatenate([np.arange(starts[j], starts[j] + sizes[j]) for j in pattern])
            sizes = sizes[pattern]
            super().__init__(
                y[rows], design[rows], np.repeat(np.arange(sizes.size), sizes), sizes,
                np.concatenate([[0], np.cumsum(sizes)[:-1]]), quadrature_points,
            )

    for ds in (criterion_4_design(), mixed_size_dataset(), continuous_x_dataset()):
        fit = fit_glmm_logit(ds)
        with monkeypatch.context() as patched:
            patched.setattr(mixed_models, "_AgqLoglik", ExpandedOracle)
            expected = fit_glmm_logit(ds)
        assert fit.boundary == expected.boundary
        np.testing.assert_allclose(fit.coefficients, expected.coefficients, rtol=0, atol=1e-6)
        np.testing.assert_allclose(
            np.sqrt(np.diag(fit.coef_covariance)), np.sqrt(np.diag(expected.coef_covariance)),
            rtol=1e-4,
        )


def test_singleton_clusters_on_the_cell_design_take_the_boundary():
    # one unit per cluster and four saturated (a, x) cells: the score in nu
    # at 0 is exactly 0 and nu is not identified, so the fit is the plain
    # logistic one, whose coefficients are the cell logits
    rng = np.random.default_rng(12)
    a = np.tile([0.0, 0.0, 1.0, 1.0], 12)
    x = np.tile([0.0, 1.0, 0.0, 1.0], 12)
    y = (rng.random(48) < 0.2 + 0.15 * a + 0.2 * x).astype(float)
    ds = ClusteredDataset.from_columns("binary", [f"c{j}" for j in range(48)], y, a, x)
    assert _logistic_fit(*_cluster_patterns(ds))[2] == 0.0
    fit = fit_glmm_logit(ds)
    assert fit.boundary
    assert fit.random_intercept_variance == 0.0
    cell = {(i, k): special.logit(y[(a == i) & (x == k)].mean()) for i in (0, 1) for k in (0, 1)}
    expected = [
        cell[0, 0], cell[1, 0] - cell[0, 0], cell[0, 1] - cell[0, 0],
        cell[1, 1] - cell[1, 0] - cell[0, 1] + cell[0, 0],
    ]
    np.testing.assert_allclose(fit.coefficients, expected, rtol=0, atol=1e-8)


def one_event_design(seed):
    # 19 clusters of 2 with a single event: every event-free (a, x) cell
    # separates the data
    rng = np.random.default_rng(seed)
    a, x = rng.integers(0, 2, 38), rng.integers(0, 2, 38)
    y = np.zeros(38)
    y[rng.integers(0, 38)] = 1
    ids = [f"c{j}" for j in np.repeat(np.arange(19), 2)]
    return ClusteredDataset.from_columns("binary", ids, y, a, x.astype(float))


def zero_cells_design():
    # 21 clusters of 2 with one event at (a, x) = (0, 0) and one at (1, 1):
    # cells (0, 1) and (1, 0) hold only zeros
    rng = np.random.default_rng(63)
    a = rng.integers(0, 2, 42)
    x = rng.integers(0, 2, 42)
    y = np.zeros(42)
    y[rng.choice(np.flatnonzero((a == 0) & (x == 0)))] = 1
    y[rng.choice(np.flatnonzero((a == 1) & (x == 1)))] = 1
    ids = [f"c{j}" for j in np.repeat(np.arange(1, 22), 2)]
    return ClusteredDataset.from_columns("binary", ids, y, a, x.astype(float))


def threshold_design():
    # continuous x with an event exactly where x > 0.2: no (a, x) cell is
    # all-equal, but beta_0 = -0.2 t, beta_2 = t separates as t grows
    rng = np.random.default_rng(77)
    x = rng.normal(size=120)
    ids = [f"c{j}" for j in np.repeat(np.arange(30), 4)]
    return ClusteredDataset.from_columns(
        "binary", ids, (x > 0.2).astype(float), rng.integers(0, 2, 120), x
    )


def concordant_design(seed):
    # 20 clusters of 4 whose outcomes are all j % 2: the cells are mixed, but
    # every cluster is concordant and the likelihood rises with nu without end
    rng = np.random.default_rng(seed)
    a, x = rng.integers(0, 2, 80), rng.integers(0, 2, 80)
    codes = np.repeat(np.arange(20), 4)
    return ClusteredDataset.from_columns(
        "binary", [f"c{j}" for j in codes], (codes % 2).astype(float), a, x.astype(float)
    )


@pytest.mark.parametrize(
    "make",
    [*(partial(one_event_design, seed) for seed in range(1, 5)), zero_cells_design, threshold_design],
    ids=["one-event-1", "one-event-2", "one-event-3", "one-event-4", "zero-cells", "threshold"],
)
def test_separated_data_raise_separation_before_bfgs(make, monkeypatch):
    class NoIteration(_AgqLoglik):
        def derivatives(self, params):
            raise AssertionError("separated data reached the Newton iteration")

    ds = make()
    monkeypatch.setattr(mixed_models, "_AgqLoglik", NoIteration)
    with pytest.raises(SeparationError, match="no finite maximum"):
        fit_glmm_logit(ds)


def test_one_event_in_a_40_row_cell_still_fits():
    # 40 clusters each hold one row of every (a, x) cell; cell (0, 0) has a
    # single event, which is rare, not separated
    j = np.repeat(np.arange(40), 4)
    a, x = np.tile([0, 1, 0, 1], 40), np.tile([0.0, 0.0, 1.0, 1.0], 40)
    y = np.select([(a == 0) & (x == 0), a == 1, x == 1], [j == 0, j % 2 == 0, j % 3 == 0], j % 4 > 0)
    ds = ClusteredDataset.from_columns("binary", [f"c{k}" for k in j], y.astype(float), a, x)
    assert _logistic_fit(*_cluster_patterns(ds))[0][0] == pytest.approx(special.logit(1 / 40))
    fit = fit_glmm_logit(ds)
    assert np.all(np.isfinite(fit.coefficients)) and np.max(np.abs(fit.coefficients)) < 30.0
    assert np.all(np.linalg.eigvalsh(fit.coef_covariance) > 0.0)


@pytest.mark.parametrize("seed", range(6))
def test_concordant_clusters_diverge_past_the_variance_wall(seed, monkeypatch):
    # Newton steps of about 2 in log nu reach the wall at log nu = 9 from
    # log 0.5 in 5 or 6 passes
    monkeypatch.setattr(mixed_models, "_AgqLoglik", CountingLoglik)
    CountingLoglik.passes = 0
    with pytest.raises(ConvergenceError, match="random-intercept variance diverged") as caught:
        fit_glmm_logit(concordant_design(seed))
    assert not isinstance(caught.value, SeparationError)
    assert CountingLoglik.passes <= 6


def test_separated_cells_at_the_boundary_raise_separation():
    # cell (a=1, x=0) holds only zeros and cell (1, 1) a single one: the
    # plain logistic fit runs off along beta_1, so no fit is reported
    clusters = [
        [(0, 0, 0), (0, 0, 1)], [(0, 0, 1), (0, 1, 0)], [(1, 1, 1), (1, 0, 0)],
        [(0, 1, 1), (0, 1, 0)], [(1, 0, 0), (0, 0, 0)], [(1, 0, 0), (0, 1, 0)],
        [(0, 0, 0), (0, 1, 0)], [(1, 0, 0), (0, 0, 0)],
    ]
    ids, a, x, y = zip(*[(f"c{j}", *unit) for j, rows in enumerate(clusters) for unit in rows])
    ds = ClusteredDataset.from_columns("binary", ids, np.array(y, float), a, np.array(x, float))
    with pytest.raises(SeparationError):
        fit_glmm_logit(ds)


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


@pytest.mark.parametrize("make", [criterion_4_design, mixed_size_dataset, continuous_x_dataset])
def test_interleaved_rows_fit_exactly_as_grouped_rows(make):
    # the interleaved copy deals the clusters' rows out in turn (row i in
    # cluster i mod J at equal sizes); the fit must not depend on row order
    ds = make()
    order = np.argsort(ds.cluster_codes, kind="stable")
    sizes = np.bincount(ds.cluster_codes)
    rank = np.arange(order.size) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    interleaved = order[np.lexsort((ds.cluster_codes[order], rank))]
    assert np.all(ds.cluster_codes[interleaved][: sizes.size] == np.arange(sizes.size))
    grouped, mixed = (
        fit_glmm_logit(ClusteredDataset.from_columns(
            "binary", [ds.cluster_ids[c] for c in ds.cluster_codes[rows]], ds.outcome[rows],
            ds.treatment[rows], ds.covariate_x[rows],
        ))
        for rows in (order, interleaved)
    )
    for field in ("coefficients", "coef_covariance", "random_intercept_variance",
                  "log_likelihood", "boundary", "n_iterations"):
        assert np.array_equal(getattr(grouped, field), getattr(mixed, field)), field


def test_one_cluster_is_rejected():
    ds = ClusteredDataset.from_columns(
        "binary", ["c"] * 6, [1.0, 0.0, 0.0, 1.0, 1.0, 0.0], [0, 1, 0, 1, 0, 1],
        [0.0, 0.0, 0.0, 1.0, 1.0, 1.0],
    )
    with pytest.raises(ValidationError, match="needs at least 2 clusters, got 1"):
        fit_glmm_logit(ds)


def test_requires_binary_scale_and_positive_nodes():
    rng = np.random.default_rng(1)
    ds = binary_dataset(rng, n_clusters=6)
    # 0 nodes is no rule; the cap of 100 stays clear of the 371 nodes from
    # which numpy's Gauss-Hermite weights are no longer finite and positive
    for nodes in (0, 101):
        with pytest.raises(DomainError):
            fit_glmm_logit(ds, quadrature_points=nodes)
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
