import json
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import clustersens
from clustersens import (
    ClusteredDataset,
    ConvergenceError,
    ValidationError,
    SingularDesignError,
    fit_from_json,
    fit_lmm,
    fit_lmm_batch,
    fit_to_json,
)
from clustersens import simulation
from clustersens.dataset import _Stack
from clustersens.mixed_models import _fit_reml_stack, _reml_slope_curvature, _reml_statistics
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


def exact_fit_dataset():
    """Two balanced clusters whose outcomes are exactly linear: the residual sum is 0."""
    betas = (2.0, -1.5, 0.5, 3.0)
    rows = []
    for cluster in ("p", "q"):
        for ai in (0, 1):
            for xi in (0, 1):
                y = betas[0] + betas[1] * ai + betas[2] * xi + betas[3] * ai * xi
                rows.append((cluster, y, ai, float(xi)))
    return ClusteredDataset.from_columns("continuous", *zip(*rows))


def test_interpolation_recovers_linear_map_exactly():
    # two balanced clusters, outcomes exactly linear, zero noise
    fit = fit_lmm(exact_fit_dataset())
    np.testing.assert_allclose(fit.coefficients, (2.0, -1.5, 0.5, 3.0), atol=1e-10)


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


# ---------------------------------------------------------------------------
# Batched Newton REML
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("log_ratio", [-4.0, -1.0, 0.0, 1.5, 4.0])
def test_reml_derivatives_match_central_differences(seed, log_ratio):
    # unbalanced clusters of 1 to 7 units; the value comes from the dense oracle
    ds = random_dataset(np.random.default_rng(4000 + seed), n_clusters=8, size_low=1, size_high=7)
    slope, curvature = _reml_slope_curvature(_reml_statistics(_Stack.of([ds])), np.array([log_ratio]))

    def value(u):
        return dense_reml(ds, math.exp(u))[0]

    h1, h2 = 1e-4, 1e-3
    slope_fd = (value(log_ratio + h1) - value(log_ratio - h1)) / (2.0 * h1)
    curvature_fd = (value(log_ratio + h2) - 2.0 * value(log_ratio) + value(log_ratio - h2)) / h2**2
    assert abs(slope[0] - slope_fd) <= 1e-7 * max(1.0, abs(slope_fd))
    assert abs(curvature[0] - curvature_fd) <= 1e-5 * max(1.0, abs(curvature_fd))


CRITERION_3 = ScenarioConfig(
    kind="single_continuous", clusters=100, cluster_size=3, replications=1000,
    seed=20260808, true_betas=(1.0, -1.0, 3.0, 1.0), theta=0.5, sigma_u2=0.25,
    nu=4.0, phi=1.0,
)
CRITERION_5 = ScenarioConfig(
    kind="meta", clusters=100, cluster_size=3, studies=30, replications=500,
    seed=2718, true_betas=(1.0, 3.0, 3.0, 4.0), theta=5.0, theta_var=0.01,
    sigma_u2=0.25, nu=4.0, phi=1.0,
)
SMALL_META = ScenarioConfig(
    kind="meta", clusters=60, cluster_size=3, studies=3, replications=1, seed=6,
    true_betas=(1.0, 3.0, 3.0, 4.0), theta=5.0, theta_var=0.01,
)


def batch_studies():
    rng = np.random.default_rng(5000)
    studies = [
        random_dataset(rng, n_clusters=int(rng.integers(5, 12)), size_low=1, size_high=6)
        for _ in range(6)
    ]
    return studies + generate(SMALL_META, 0)


def assert_same_fit(got, expected):
    np.testing.assert_allclose(got.coefficients, expected.coefficients, rtol=0, atol=1e-10)
    assert abs(got.log_likelihood - expected.log_likelihood) <= 1e-9
    assert got.boundary == expected.boundary


def fit_one(ds):
    return fit_lmm_batch([ds])[0]


FITTERS = pytest.mark.parametrize("fitter", [fit_lmm, fit_one], ids=["brent", "batch"])


def test_batch_equals_separate_fits_in_any_order():
    studies = batch_studies()
    separate = [fit_one(ds) for ds in studies]
    for got, expected in zip(fit_lmm_batch(studies), separate):
        assert_same_fit(got, expected)
    order = np.random.default_rng(7).permutation(len(studies))
    permuted = fit_lmm_batch([studies[i] for i in order])
    for got, i in zip(permuted, order):
        assert_same_fit(got, separate[i])


def fit_fields(fit):
    return (
        fit.coefficients, fit.coef_covariance, fit.random_intercept_variance,
        fit.residual_variance, fit.log_likelihood,
    )


def test_a_study_fits_bit_for_bit_the_same_in_any_stack():
    # the stacks the simulation fits: criterion-3 replicates and the
    # studies of a criterion-5 replicate, all in clusters of 3
    studies = [generate(CRITERION_3, i) for i in range(40)] + generate(CRITERION_5, 0)
    for got, ds in zip(fit_lmm_batch(studies), studies):
        expected = fit_one(ds)
        for a, b in zip(fit_fields(got), fit_fields(expected)):
            assert np.asarray(a).tobytes() == np.asarray(b).tobytes()
        assert (got.boundary, got.n_iterations) == (expected.boundary, expected.n_iterations)


def interleaved_csv_dataset(tmp_path):
    # six clusters whose rows interleave, so the codes are not contiguous
    rng = np.random.default_rng(77)
    labels = [f"c{k % 6}" for k in rng.permutation(36)]
    lines = ["cluster_id,outcome,treatment,covariate_x"] + [
        f"{label},{rng.normal() + int(label[1]):.17g},{k % 2},{(k // 2) % 2}"
        for k, label in enumerate(labels)
    ]
    path = tmp_path / "interleaved.csv"
    path.write_text("\n".join(lines) + "\n")
    ds = clustersens.load_csv(path, "continuous")
    assert np.any(np.diff(ds.cluster_codes) < 0)
    return ds


def test_the_stack_fit_equals_fit_lmm_batch_on_the_cut_datasets_bit_for_bit(tmp_path):
    criterion_3 = simulation._build(
        CRITERION_3, [simulation._draw(CRITERION_3, i) for i in range(12)], 0
    )
    criterion_5 = simulation._build(CRITERION_5, [simulation._draw(CRITERION_5, 3)], 3)
    csv = interleaved_csv_dataset(tmp_path)
    mixed = _Stack.of([part.dataset() for part in criterion_3.cut(1)[:3]] + [csv])
    for stack, datasets in [
        (criterion_3, [part.dataset() for part in criterion_3.cut(1)]),
        (criterion_5, [part.dataset() for part in criterion_5.cut(1)]),
        (mixed, [part.dataset() for part in criterion_3.cut(1)[:3]] + [csv]),
    ]:
        fits = _fit_reml_stack(stack)
        expected = fit_lmm_batch(datasets)
        assert len(expected) == fits.coefficients.shape[0] == stack.rows.size
        for k, fit in enumerate(expected):
            pairs = [
                (fits.coefficients[k], fit.coefficients),
                (fits.coef_covariance[k], fit.coef_covariance),
                (fits.random_intercept_variance[k], fit.random_intercept_variance),
                (fits.residual_variance[k], fit.residual_variance),
                (fits.log_likelihood[k], fit.log_likelihood),
            ]
            for got, want in pairs:
                assert np.asarray(got, dtype=float).tobytes() == np.asarray(want).tobytes()
            assert (bool(fits.boundary[k]), int(fits.n_iterations[k])) == (
                fit.boundary, fit.n_iterations
            )
            assert (fit.n_obs, fit.n_clusters) == (stack.rows[k], stack.clusters[k])


def test_a_study_fits_the_same_beside_other_cluster_sizes():
    # each study has only some of the stack's cluster sizes, so the other
    # per-size slots of its statistics are zero
    studies = batch_studies() + [
        generate(replace(CRITERION_3, clusters=50, cluster_size=8), 0),
        generate(replace(CRITERION_3, cluster_size=1), 0),
        generate(CRITERION_3, 0),
    ]
    assert len(_reml_statistics(_Stack.of(studies)).sizes) > 3
    for got, ds in zip(fit_lmm_batch(studies), studies):
        expected = fit_one(ds)
        for a, b in zip(fit_fields(got), fit_fields(expected)):
            scale = np.max(np.abs(b))
            np.testing.assert_allclose(a, b, rtol=1e-10, atol=1e-10 * scale)
        assert got.boundary == expected.boundary


def test_batch_agrees_with_the_brent_fit():
    # Brent stops within the rounding of the profile's value, Newton on its
    # slope: the fits agree closely, and Newton's log-likelihood is no lower
    for got, ds in zip(fit_lmm_batch(batch_studies()), batch_studies()):
        brent = fit_lmm(ds)
        np.testing.assert_allclose(got.coefficients, brent.coefficients, rtol=0, atol=1e-6)
        assert got.log_likelihood >= brent.log_likelihood - 1e-9
        np.testing.assert_allclose(
            np.sqrt(np.diag(got.coef_covariance)), np.sqrt(np.diag(brent.coef_covariance)),
            rtol=1e-6,
        )
        assert got.boundary == brent.boundary


def test_batch_meets_the_dense_oracles():
    # the datasets of the grid-oracle and dense-GLS tests above, in one batch
    studies = [random_dataset(np.random.default_rng(seed)) for seed in range(1000, 1020)]
    studies += [random_dataset(np.random.default_rng(seed)) for seed in range(2000, 2020)]
    studies.append(random_dataset(np.random.default_rng(3000), n_clusters=10))
    grid = np.logspace(-8, 4, 200)
    for fit, ds in zip(fit_lmm_batch(studies), studies):
        ratio = 0.0 if fit.boundary else fit.random_intercept_variance / fit.residual_variance
        assert fit.log_likelihood >= max(dense_reml(ds, r)[0] for r in grid) - 1e-6
        assert abs(dense_reml(ds, ratio)[0] - fit.log_likelihood) < 1e-8
        np.testing.assert_allclose(fit.coefficients, dense_gls(ds, ratio), atol=1e-10)
        y, a, x, codes = columns(ds)
        design = np.column_stack([np.ones(y.size), a, x, a * x])
        z = (codes[:, None] == np.unique(codes)[None, :]).astype(float)
        w_inv = np.linalg.inv(np.eye(y.size) + ratio * z @ z.T)
        expected = fit.residual_variance * np.linalg.inv(design.T @ w_inv @ design)
        np.testing.assert_allclose(fit.coef_covariance, expected, atol=1e-10)


def rank_deficient_dataset():
    # x == a everywhere, so the interaction column duplicates x
    return ClusteredDataset.from_columns(
        "continuous", list("aabbcc"), [1.0, 2.0, 3.0, 1.0, 2.0, 0.0], [1, 0, 1, 0, 1, 0],
        [1.0, 0.0, 1.0, 0.0, 1.0, 0.0],
    )


def test_one_rank_deficient_study_fails_the_batch_and_drops_the_replicate(monkeypatch):
    studies = batch_studies()[:3]
    with pytest.raises(SingularDesignError):
        fit_lmm_batch([studies[0], rank_deficient_dataset(), studies[1]])
    per_x = simulation._run_constants(SMALL_META)
    (kept,) = simulation._replicate_block(SMALL_META, per_x, 0)
    assert kept is not None
    monkeypatch.setattr(
        simulation, "_build", lambda *_: _Stack.of([studies[0], rank_deficient_dataset(), studies[2]])
    )
    (dropped,) = simulation._replicate_block(SMALL_META, per_x, 0)
    assert dropped is None


def score_alone(config, per_x, ds):
    fit = fit_lmm_batch([ds])[0]
    (score,) = simulation._score(config, per_x, fit.coefficients[None], fit.coef_covariance[None])
    return score


def test_a_failed_study_drops_only_its_own_replicate_from_the_block(monkeypatch):
    # replicate 2 is rank deficient and replicate 5's fit does not converge:
    # the block's stacked fit fails, and every other replicate scores as it
    # does fitted alone and inside the clean stack
    config = replace(CRITERION_3, replications=9)
    per_x = simulation._run_constants(config)
    clean = simulation._replicate_block(config, per_x, 0)
    alone = [score_alone(config, per_x, generate(config, i)) for i in range(config.replications)]
    build, failing = simulation._build, {}

    def build_with_failures(config, replicates, first):
        # replicate 2's study is swapped for a rank-deficient one, and the
        # rows of replicate 5 are marked for fit_or_fail
        parts = build(config, replicates, first).cut(1)
        datasets = [
            rank_deficient_dataset() if first + i == 2 else part.dataset()
            for i, part in enumerate(parts)
        ]
        stack = _Stack.of(datasets)
        if first <= 5 < first + len(parts):
            failing[5] = stack.cut(1)[5 - first].outcome
        return stack

    def fit_or_fail(stack):
        if 5 in failing and np.shares_memory(stack.outcome, failing[5]):
            raise ConvergenceError("REML Newton search did not converge")
        return _fit_reml_stack(stack)

    monkeypatch.setattr(simulation, "_build", build_with_failures)
    monkeypatch.setattr(simulation, "_fit_reml_stack", fit_or_fail)
    block = simulation._replicate_block(config, per_x, 0)
    assert 5 in failing
    assert [i for i, result in enumerate(block) if result is None] == [2, 5]
    assert None not in clean
    for i, result in enumerate(block):
        if i not in (2, 5):
            assert result == alone[i] == clean[i]


@pytest.mark.parametrize("config, cap", [
    (replace(CRITERION_3, replications=32), 1000),
    (replace(SMALL_META, replications=32, clusters=80, studies=8), 4000),
    (replace(CRITERION_3, replications=5), 200),
], ids=["continuous", "meta", "replicate-over-the-cap"])
def test_a_block_fits_stacks_of_at_most_the_row_cap(monkeypatch, config, cap):
    # the same block fitted under the cap and as one stack scores the same;
    # a stack passes the cap only when it is a single replicate, and is
    # closed only when the next replicate would pass it
    per_x = simulation._run_constants(config)
    monkeypatch.setattr(simulation, "_STACK_ROWS", 10**9)
    whole = simulation._replicate_block(config, per_x, 0)
    stacks = []

    def recording(stack):
        stacks.append(stack.rows.tolist())
        return _fit_reml_stack(stack)

    monkeypatch.setattr(simulation, "_fit_reml_stack", recording)
    monkeypatch.setattr(simulation, "_STACK_ROWS", cap)
    capped = simulation._replicate_block(config, per_x, 0)
    assert None not in whole and capped == whole
    per_replicate = config.studies if config.kind == "meta" else 1
    assert sum(len(rows) for rows in stacks) == per_replicate * config.replications
    assert len(stacks) > 1
    for rows, following in zip(stacks, stacks[1:] + [None]):
        assert sum(rows) <= cap or len(rows) == per_replicate
        if following is not None:
            assert sum(rows) + sum(following[:per_replicate]) > cap


def test_empty_batch_is_rejected():
    with pytest.raises(ValidationError):
        fit_lmm_batch([])


def four_rows():
    # a full-rank design with no degree of freedom left for phi
    return ClusteredDataset.from_columns(
        "continuous", list("aabb"), [1.0, 2.0, 0.5, 3.0], [0, 1, 0, 1], [0.0, 0.0, 1.0, 1.0]
    )


def one_cluster():
    # nu is not identified from a single cluster
    return ClusteredDataset.from_columns(
        "continuous", ["a"] * 6, [1.0, 2.0, 0.5, 3.0, 1.5, 2.5], [0, 1, 0, 1, 0, 1],
        [0.0, 0.0, 1.0, 1.0, 0.0, 1.0],
    )


def binary_rows():
    return ClusteredDataset.from_columns(
        "binary", list("aabbcc"), [1.0, 0.0, 1.0, 0.0, 0.0, 1.0], [1, 0, 1, 0, 1, 0],
        [1.0, 0.0, 0.0, 1.0, 1.0, 0.0],
    )


@FITTERS
@pytest.mark.parametrize(
    "make, error",
    [
        (binary_rows, ValidationError),
        (rank_deficient_dataset, SingularDesignError),
        (four_rows, ValidationError),
        (one_cluster, ValidationError),
    ],
    ids=["binary-scale", "rank-deficient", "four-rows", "one-cluster"],
)
def test_fitters_reject_bad_input_alike(fitter, make, error):
    with pytest.raises(error):
        fitter(make())


def shifted(ds, shift):
    return ClusteredDataset.from_columns(
        "continuous", [ds.cluster_ids[c] for c in ds.cluster_codes], ds.outcome + shift,
        ds.treatment, ds.covariate_x,
    )


@FITTERS
def test_shifted_outcomes_keep_the_reml_criterion(fitter):
    # uncentred, y'W^{-1}y - b'beta cancels about ten digits at a shift of
    # 1e5; the grid-oracle designs, checked at the fit's own ratio
    for seed in range(1000, 1010):
        ds = shifted(random_dataset(np.random.default_rng(seed)), 1e5)
        fit = fitter(ds)
        ratio = 0.0 if fit.boundary else fit.random_intercept_variance / fit.residual_variance
        assert abs(dense_reml(ds, ratio)[0] - fit.log_likelihood) <= 1e-8


def test_batch_fit_is_equivariant_under_an_outcome_shift():
    for seed in range(1000, 1010):
        ds = random_dataset(np.random.default_rng(seed))
        fit, moved = fit_one(ds), fit_one(shifted(ds, 1e5))
        assert abs(moved.coefficients[0] - 1e5 - fit.coefficients[0]) <= 1e-9
        np.testing.assert_allclose(moved.coefficients[1:], fit.coefficients[1:], rtol=1e-9)
        np.testing.assert_allclose(moved.coef_covariance, fit.coef_covariance, rtol=1e-9)
        for name in ("random_intercept_variance", "residual_variance", "log_likelihood"):
            assert getattr(moved, name) == pytest.approx(getattr(fit, name), rel=1e-9)
        assert moved.boundary == fit.boundary


def identical_clusters(alpha=0.0):
    """Five clusters holding the same six rows, plus alpha times a cluster effect.

    At alpha 0 the OLS residuals sum to 0 in every cluster, so the profile
    falls from ratio 0 onward.
    """
    rng = np.random.default_rng(8)
    a = np.tile([0.0, 1.0, 0.0, 1.0, 1.0, 0.0], 5)
    x = np.tile([0.0, 0.0, 1.0, 1.0, 0.5, 2.0], 5)
    y = np.tile(rng.normal(size=6), 5) + alpha * np.repeat(rng.normal(size=5), 6)
    return y, a, x, np.repeat(np.arange(5), 6)


def ratio_score_at_zero(y, a, x, codes):
    """d loglik / d ratio at ratio 0: (dof B / rss - N + tr((X'X)^-1 S'S)) / 2.

    B sums the squared per-cluster sums of the OLS residuals and S stacks
    the per-cluster sums of the design rows.
    """
    design = np.column_stack([np.ones(y.size), a, x, a * x])
    resid = y - design @ np.linalg.lstsq(design, y, rcond=None)[0]
    member = (codes[:, None] == np.unique(codes)[None, :]).astype(float)
    between = float(np.sum((member.T @ resid) ** 2))
    sums = member.T @ design
    trace = np.trace(np.linalg.solve(design.T @ design, sums.T @ sums))
    return 0.5 * ((y.size - 4) * between / float(resid @ resid) - y.size + trace)


def near_flat_floor_columns():
    # the cluster effect that brings the score at ratio 0 up to -1e-5: the
    # profile falls from the floor, but over the first start-grid points by
    # less than its rounding, which can rank the second point first
    lo, hi = 0.0, 10.0
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if ratio_score_at_zero(*identical_clusters(mid)) < -1e-5 else (lo, mid)
    return identical_clusters(lo)


@pytest.mark.parametrize(
    "columns_at_floor", [identical_clusters, near_flat_floor_columns], ids=["falling", "near-flat"]
)
def test_floor_log_ratio_is_reported_as_plain_ols(columns_at_floor):
    y, a, x, codes = columns_at_floor()
    assert ratio_score_at_zero(y, a, x, codes) < 0.0
    ds = dataset_from_arrays(y, a, x, codes)
    fit = fit_one(ds)
    assert fit.boundary
    assert fit.random_intercept_variance == 0.0
    design = np.column_stack([np.ones(30), a, x, a * x])
    ols, rss, *_ = np.linalg.lstsq(design, y, rcond=None)
    np.testing.assert_allclose(fit.coefficients, ols, atol=1e-10)
    assert fit.residual_variance == pytest.approx(rss[0] / 26, rel=1e-10)
    assert fit.log_likelihood == pytest.approx(dense_reml(ds, 0.0)[0], abs=1e-9)
    np.testing.assert_allclose(
        fit.coef_covariance, fit.residual_variance * np.linalg.inv(design.T @ design), atol=1e-12
    )


def test_ratio_beyond_the_upper_bound_stops_at_it():
    # within-cluster noise 1e-6 against intercepts of variance 1: the
    # profile still rises at ratio 1e8, so the search ends on that bound
    ds = random_dataset(np.random.default_rng(9), n_clusters=12, size_low=3, size_high=6, phi=1e-12)
    fit = fit_one(ds)
    assert not fit.boundary
    ratio = fit.random_intercept_variance / fit.residual_variance
    assert ratio == pytest.approx(1e8, rel=1e-9)


def cluster_randomized(seed, clusters=6, size=30_000):
    """Balanced clusters whose treatment and covariate are cluster-level."""
    rng = np.random.default_rng(seed)
    a = np.repeat(np.arange(clusters) % 2, size).astype(float)
    x = np.repeat(rng.normal(size=clusters), size)
    y = 1.0 + a + x + a * x + np.repeat(rng.normal(size=clusters), size)
    y += rng.normal(size=clusters * size)
    codes = np.repeat(np.arange(clusters), size)
    return ClusteredDataset.from_columns("continuous", codes, y, a, x)


def test_cluster_level_covariates_in_large_clusters():
    # At ratio 1e8 X'W^{-1}X is here a difference of terms 1e9 times its
    # size, whose rounding can make it indefinite; the start grid must
    # pass over such points. The fit has a closed form: with balanced
    # clusters and cluster-level covariates beta is OLS on the cluster
    # means, phi the within-cluster mean square MSW, and nu is
    # (MSB - MSW) / n with MSB = n * (means' residual sum) / (J - 4). The
    # weighted cross-products at the optimum are differences of terms
    # 1 + ratio * n, about 1e4, times their size, so the Gram matrix's
    # rounding costs about four digits of beta and nu.
    studies = [cluster_randomized(seed) for seed in (0, 1)]
    for fit, ds in zip(fit_lmm_batch(studies), studies):
        codes = ds.cluster_codes
        n, clusters = ds.outcome.size // ds.cluster_count, ds.cluster_count
        means = np.bincount(codes, weights=ds.outcome) / n
        a, x = ds.treatment[::n], ds.covariate_x[::n]
        design = np.column_stack([np.ones(clusters), a, x, a * x])
        beta, between, *_ = np.linalg.lstsq(design, means, rcond=None)
        msw = float(np.sum((ds.outcome - means[codes]) ** 2)) / (ds.outcome.size - clusters)
        msb = n * between[0] / (clusters - 4)
        assert msb > msw
        np.testing.assert_allclose(fit.coefficients, beta, rtol=1e-6)
        assert fit.residual_variance == pytest.approx(msw, rel=1e-10)
        assert fit.random_intercept_variance == pytest.approx((msb - msw) / n, rel=1e-6)


def test_exact_fit_derivatives_stay_finite():
    ds = exact_fit_dataset()
    stats = _reml_statistics(_Stack.of([ds]))
    for u in (-20.0, -5.0, 0.0, 5.0, 15.0):
        slope, curvature = _reml_slope_curvature(stats, np.array([u]))
        assert np.isfinite(slope[0]) and np.isfinite(curvature[0])
    assert math.isfinite(fit_one(ds).log_likelihood)


# Runs in a fresh interpreter: this test module's process already holds
# scipy.optimize (tests/test_glmm.py imports it), so only a new process shows
# what the package itself loads.
IMPORT_FOOTPRINT = """
import sys

from scipy import special

# scipy.special loads scipy.linalg itself in scipy releases before its lazy
# import of linalg (scipy 1.17 has it); the package can defer only what
# scipy.special leaves unloaded, and that is always scipy.optimize
DEFERRED = [name for name in ("scipy.optimize", "scipy.linalg") if name not in sys.modules]
assert "scipy.optimize" in DEFERRED

import clustersens, clustersens.cli
from clustersens import (
    BiasDistribution, ScenarioConfig, StudyEffect, UnmeasuredSpec, contour_grid,
    fit_glmm_logit, fit_lmm, fit_to_json, generate, marginal_logit_exact, p_of_q, pool,
    run_scenario,
)

for kind, fields in (
    ("single_continuous", dict(clusters=20, cluster_size=3)),
    ("single_binary", dict(clusters=40, cluster_size=4)),
    ("meta", dict(clusters=60, cluster_size=2, studies=3)),
):
    run_scenario(ScenarioConfig(kind=kind, replications=2, seed=3, **fields))
fit_glmm_logit(generate(ScenarioConfig(kind="single_binary", clusters=40, cluster_size=4,
                                       replications=1, seed=4), 0))
contour_grid((0.0, 1.0), (0.0, 5.0), 7, 0.9)
studies = [StudyEffect(str(k), 0.3 * k, 0.04) for k in range(6)]
p_of_q(pool(studies), BiasDistribution(0.1, 0.01), 0.2)
marginal_logit_exact([0.1, 0.5, 0.2, 0.0], UnmeasuredSpec("normal", 0.4, {(1, 0.0): 0.3}, 1.0),
                     0.5, 1, 0.0)
assert not any(name in sys.modules for name in DEFERRED), [n for n in DEFERRED if n in sys.modules]
fit = fit_lmm(generate(ScenarioConfig(kind="single_continuous", clusters=30, cluster_size=3,
                                      replications=1, seed=5), 0))
assert all(name in sys.modules for name in ("scipy.optimize", "scipy.linalg"))
print(fit_to_json(fit))
"""


def test_only_fit_lmm_loads_scipy_optimize():
    src = str(Path(clustersens.__file__).resolve().parents[1])
    result = subprocess.run([sys.executable, "-c", IMPORT_FOOTPRINT], capture_output=True,
                            text=True, env={**os.environ, "PYTHONPATH": src})
    assert result.returncode == 0, result.stderr
    ds = generate(ScenarioConfig(kind="single_continuous", clusters=30, cluster_size=3,
                                 replications=1, seed=5), 0)
    assert result.stdout == fit_to_json(fit_lmm(ds)) + "\n"
