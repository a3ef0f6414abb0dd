import hashlib
import json
import math

import numpy as np
import pytest

from clustersens import ValidationError
from clustersens.errors import DomainError
from clustersens import simulation
from clustersens.mixed_models import fit_lmm_batch
from clustersens.simulation import (
    MechanismParams,
    MetaEffectDistribution,
    ScenarioConfig,
    bias_factor_true,
    generate,
    load_scenario,
    metrics_rows,
    nu_from_icc,
    run_scenario,
    true_conditional_means,
    true_p_of_q,
)

BASE = dict(
    kind="single_continuous", clusters=100, cluster_size=3, replications=4, seed=123,
    true_betas=(1.0, -1.0, 3.0, 1.0), theta=0.5, sigma_u2=0.25, nu=4.0, phi=1.0,
)


def columns_key(ds):
    return (
        ds.cluster_ids,
        ds.cluster_codes.tolist(),
        ds.outcome.tolist(),
        ds.treatment.tolist(),
        ds.covariate_x.tolist(),
    )


def generate_recording_u(monkeypatch, config, replicate_index):
    """``generate``'s output and the confounder U drawn for each of its studies.

    U never reaches a dataset, so it is read off the generator's raw draws.
    """
    draws = []
    draw = simulation._draw

    def recording(*args):
        studies = draw(*args)
        draws.extend(study.u for study in studies)
        return studies

    monkeypatch.setattr(simulation, "_draw", recording)
    return generate(config, replicate_index), draws


# ---------------------------------------------------------------------------
# true_conditional_means
# ---------------------------------------------------------------------------


def test_independent_treatment_gives_equal_means():
    mech = MechanismParams(a_prob_below=0.45, a_prob_above=0.45)
    config = ScenarioConfig(**{**BASE, "mechanism": mech})
    for x in (0, 1):
        m1 = true_conditional_means(config, 1, x)
        m0 = true_conditional_means(config, 0, x)
        assert abs(m1 - m0) < 1e-14


@pytest.mark.slow
@pytest.mark.parametrize("sigma_u2", [0.25, 1.0, 2.25])
def test_conditional_means_match_monte_carlo(sigma_u2):
    config = ScenarioConfig(**{**BASE, "sigma_u2": sigma_u2})
    rng = np.random.default_rng(864200 + int(sigma_u2 * 100))
    n = 10_000_000
    u = rng.normal(0.0, math.sqrt(sigma_u2), n)
    x = rng.random(n) < np.where(u < 1.0, 0.5, 0.4)
    a = rng.random(n) < np.where(u + x < 2.0, 0.4, 0.5)
    for av in (0, 1):
        for xv in (0, 1):
            sel = (a == av) & (x == xv)
            mc = u[sel].mean()
            mc_se = u[sel].std(ddof=1) / math.sqrt(sel.sum())
            analytic = true_conditional_means(config, av, xv)
            assert abs(analytic - mc) < 3.0 * mc_se


def test_conditioning_values_validated():
    config = ScenarioConfig(**BASE)
    with pytest.raises(DomainError):
        true_conditional_means(config, 2, 0)


@pytest.mark.parametrize("name", ["x_prob_below", "x_prob_above", "a_prob_below", "a_prob_above"])
@pytest.mark.parametrize("value", [-0.1, 1.7, math.nan])
def test_mechanism_probabilities_validated(name, value):
    with pytest.raises(ValidationError, match=name):
        MechanismParams(**{name: value})


# ---------------------------------------------------------------------------
# generate
# ---------------------------------------------------------------------------


def test_continuous_generation_shape_and_variance():
    config = ScenarioConfig(**{**BASE, "replications": 1})
    ds = generate(config, 0)
    assert ds.outcome.size == 300
    assert ds.cluster_count == 100
    y, codes = ds.outcome, ds.cluster_codes
    cluster_means = np.array([y[codes == j].mean() for j in range(100)])
    # cluster means vary with variance nu + noise; very loose band around nu=4
    assert 2.0 < cluster_means.var(ddof=1) < 8.0


def test_theta_zero_outcome_unrelated_to_truth_u(monkeypatch):
    config = ScenarioConfig(**{**BASE, "theta": 0.0, "clusters": 400, "cluster_size": 3})
    ds, (u,) = generate_recording_u(monkeypatch, config, 0)
    y, a, x, codes = ds.outcome, ds.treatment, ds.covariate_x, ds.cluster_codes
    design = np.column_stack([np.ones_like(y), a, x, a * x])
    # residualize out fixed effects and cluster means, then correlate with u
    beta, *_ = np.linalg.lstsq(design, y, rcond=None)
    resid = y - design @ beta
    resid -= np.array([resid[codes == j].mean() for j in codes])
    corr = np.corrcoef(resid, u)[0, 1]
    assert abs(corr) < 0.06


def test_binary_generation_is_bernoulli():
    config = ScenarioConfig(
        kind="single_binary", clusters=50, cluster_size=4, replications=1, seed=7,
        true_betas=(-4.5, 1.0, 3.0, -0.5), theta=-0.5, sigma_u2=1.0, nu=nu_from_icc(0.25),
    )
    ds = generate(config, 0)
    assert ds.scale == "binary"
    outcomes = set(ds.outcome.tolist())
    assert outcomes <= {0.0, 1.0}


def test_meta_generation_sizes_and_studies():
    config = ScenarioConfig(
        kind="meta", clusters=100, cluster_size=3, studies=15, replications=1, seed=77,
        true_betas=(1.0, 3.0, 3.0, 4.0), theta=5.0, theta_var=0.01,
    )
    datasets = generate(config, 0)
    assert len(datasets) == 15
    for ds in datasets:
        assert 50 <= ds.cluster_count <= 150
        assert ds.outcome.size == ds.cluster_count * 3


def test_generation_deterministic():
    config = ScenarioConfig(**BASE)
    assert columns_key(generate(config, 2)) == columns_key(generate(config, 2))


def _columns_digest(out, draws):
    h = hashlib.sha256()
    meta = isinstance(out, list)
    for k, (ds, u) in enumerate(zip(out if meta else [out], draws, strict=True)):
        for column in (ds.outcome, ds.treatment, ds.covariate_x, ds.cluster_codes, u):
            h.update(np.ascontiguousarray(column).tobytes())
        h.update("\x1f".join(ds.cluster_ids).encode())
        # each row's study label: a meta study's 1-based position, else ""
        h.update("\x1f".join((str(k + 1) if meta else "",) * ds.outcome.size).encode())
    return h.hexdigest()


# sha256 of replicate 7's generated columns (float64 outcome, treatment and
# covariate, int64 cluster codes, the float64 confounder U each study drew,
# then the cluster and study labels), recorded before the data path became
# array-native; a changed Philox draw order or a changed column changes the digest
PINNED_DIGESTS = [
    (
        dict(kind="single_continuous", clusters=100, cluster_size=3, seed=20260808),
        "6349bc220891a2c810ebbde4818f8676dab49ec17200b4d8ecd937db2c8c781c",
    ),
    (
        dict(kind="single_binary", clusters=200, cluster_size=4, seed=34, nu=1.0966227112321509),
        "5ecfc6a6471fec002d017255e1ab432d690c1ac50a868d490ff215c87d278679",
    ),
    (
        dict(kind="meta", clusters=100, cluster_size=3, seed=2718, studies=30, theta_var=0.05),
        "db84c5b1830b92340481def4020c0da063b128b916144f867f19ea9815a4e88e",
    ),
]


@pytest.mark.parametrize(
    "fields, digest", PINNED_DIGESTS, ids=[fields["kind"] for fields, _ in PINNED_DIGESTS]
)
def test_generated_columns_match_pinned_digest(fields, digest, monkeypatch):
    config = ScenarioConfig(replications=1, **fields)
    assert _columns_digest(*generate_recording_u(monkeypatch, config, 7)) == digest


STACKED = {
    "single_continuous": (dict(BASE, clusters=30, replications=10), 200),
    "single_binary": (dict(BASE, kind="single_binary", clusters=20, cluster_size=4,
                           replications=4, nu=1.0), 200),
    "meta": (dict(BASE, kind="meta", clusters=60, cluster_size=2, studies=4, replications=6,
                  theta_var=0.05), 1000),
}


@pytest.mark.parametrize("zeroed", [None, "nu", "sigma_u2", "phi"])
@pytest.mark.parametrize("kind", list(STACKED))
def test_a_stack_builds_each_replicate_as_generate_does(monkeypatch, kind, zeroed):
    # under the lowered cap, every kind's stacks hold two or three replicates;
    # each stack's columns are its replicates' generated columns end to end
    fields, cap = STACKED[kind]
    config = ScenarioConfig(**(fields if zeroed is None else {**fields, zeroed: 0.0}))
    per = config.studies if kind == "meta" else 1
    stacks = []

    def recording(config, per_x, stack):
        stacks.append(stack)
        return [None] * (stack.rows.size // per)

    monkeypatch.setattr(simulation, "_score_stack", recording)
    monkeypatch.setattr(simulation, "_STACK_ROWS", cap)
    simulation._replicate_block(config, None, 0)
    assert len(stacks) > 1 and max(stack.rows.size for stack in stacks) > per
    assert sum(stack.rows.size for stack in stacks) == per * config.replications
    index = 0
    for stack in stacks:
        expected = []
        for _ in range(stack.rows.size // per):
            group = generate(config, index)
            expected += group if kind == "meta" else [group]
            index += 1
        assert stack.scale == expected[0].scale
        assert stack.rows.tolist() == [ds.outcome.size for ds in expected]
        assert stack.clusters.tolist() == [ds.cluster_count for ds in expected]
        offsets = np.cumsum([0] + [ds.cluster_count for ds in expected[:-1]])
        oracles = {
            name: np.concatenate([getattr(ds, name) for ds in expected])
            for name in ("outcome", "treatment", "covariate_x")
        }
        oracles["cluster_codes"] = np.concatenate(
            [ds.cluster_codes + offset for ds, offset in zip(expected, offsets)]
        )
        for name, oracle in oracles.items():
            column = getattr(stack, name)
            assert column.dtype == oracle.dtype and column.tobytes() == oracle.tobytes()
            assert not column.flags.writeable
        for part, want in zip(stack.cut(1), expected, strict=True):
            got = part.dataset()
            assert (got.scale, got.cluster_ids) == (want.scale, want.cluster_ids)
            for name in ("outcome", "treatment", "covariate_x", "cluster_codes"):
                column, oracle = getattr(got, name), getattr(want, name)
                assert column.dtype == oracle.dtype and column.tobytes() == oracle.tobytes()
                assert not column.flags.writeable and not oracle.flags.writeable


def test_stream_independence():
    # replicate 5 is identical whether or not other replicates were generated
    config = ScenarioConfig(**BASE)
    fresh = generate(config, 5)
    for r in range(5):
        generate(config, r)
    again = generate(config, 5)
    assert columns_key(fresh) == columns_key(again)


def test_seed_changes_data():
    config = ScenarioConfig(**BASE)
    other = ScenarioConfig(**{**BASE, "seed": 124})
    assert columns_key(generate(config, 0)) != columns_key(generate(other, 0))


# ---------------------------------------------------------------------------
# run_scenario
# ---------------------------------------------------------------------------


def test_single_study_metrics_smoke():
    config = ScenarioConfig(**{**BASE, "replications": 30})
    metrics = run_scenario(config)
    assert metrics.kind == "single_continuous"
    assert metrics.non_converged == 0
    assert not metrics.flagged
    for row, x in zip(metrics.rows, (0, 1)):
        assert row.x == x
        assert row.truth == -1.0 + x
        assert row.replications_used == 30
        assert abs(row.bias) < 0.15
        assert 0.05 < row.se < 0.6
        assert 0.8 <= row.cp <= 1.0


SMALL_CONFIGS = {
    "single_continuous": dict(BASE, replications=6),
    # two whole blocks and a partial one, so workers=2 runs a real pool
    "single_continuous-blocks": dict(BASE, replications=2 * simulation._BLOCK_SIZE + 5),
    "single_binary": dict(
        kind="single_binary", clusters=50, cluster_size=4, replications=4, seed=34,
        true_betas=(-1.0, 1.0, 1.0, -0.5), theta=-0.5, sigma_u2=1.0, nu=nu_from_icc(0.25),
        quadrature_points=5,
    ),
    "meta": dict(
        kind="meta", clusters=60, cluster_size=3, studies=4, replications=4, seed=2718,
        true_betas=(1.0, 3.0, 3.0, 4.0), theta=5.0, theta_var=0.01,
    ),
}


@pytest.mark.parametrize("case", sorted(SMALL_CONFIGS))
def test_metrics_deterministic_and_worker_invariant(case, monkeypatch):
    config = ScenarioConfig(**SMALL_CONFIGS[case])
    pools = []

    class CountingPool(simulation.ProcessPoolExecutor):
        def __init__(self, max_workers):
            pools.append(max_workers)
            super().__init__(max_workers=max_workers)

    monkeypatch.setattr(simulation, "ProcessPoolExecutor", CountingPool)
    monkeypatch.setattr(simulation.os, "cpu_count", lambda: 2)
    serial = run_scenario(config, workers=1)
    again = run_scenario(config, workers=1)
    parallel = run_scenario(config, workers=2)
    assert serial.kind == SMALL_CONFIGS[case]["kind"]
    assert serial.rows == again.rows == parallel.rows
    assert serial.non_converged == parallel.non_converged
    assert serial.rows[0].replications_used > 0
    # a pool starts only where there is more than one block to share
    assert pools == ([2] if config.replications > simulation._BLOCK_SIZE else [])


def test_worker_pool_is_capped_by_replications_and_cpus(monkeypatch):
    # the pool forks all its workers at the first submit, so the cap is read
    # off a stand-in that records its size and runs the blocks in process;
    # the cap is the number of blocks of replicates
    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, iterable, chunksize=1):
            return map(fn, iterable)

    def config(blocks):
        return ScenarioConfig(**{**BASE, "replications": blocks * simulation._BLOCK_SIZE})

    monkeypatch.setattr(simulation, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(simulation.os, "cpu_count", lambda: 3)
    two = ScenarioConfig(**{**BASE, "replications": simulation._BLOCK_SIZE + 1})
    assert run_scenario(two, workers=5000).rows == run_scenario(two).rows
    run_scenario(config(4), workers=8)
    assert sizes == [2, 3]
    # one block runs in process, whatever the worker count
    run_scenario(config(1), workers=8)
    assert sizes == [2, 3]
    # an unknown CPU count counts as one CPU: no pool at all
    monkeypatch.setattr(simulation.os, "cpu_count", lambda: None)
    run_scenario(config(4), workers=8)
    assert sizes == [2, 3]


def test_run_constants_computed_once_per_run(monkeypatch):
    calls = []
    original = simulation.true_conditional_means

    def counting(config, a, x):
        calls.append((a, x))
        return original(config, a, x)

    monkeypatch.setattr(simulation, "true_conditional_means", counting)
    counts = []
    for replications in (1, 5):
        calls.clear()
        run_scenario(ScenarioConfig(**{**BASE, "replications": replications}))
        counts.append(len(calls))
    assert counts[0] == counts[1] == 4


@pytest.mark.slow
def test_unconfounded_coverage_is_nominal():
    config = ScenarioConfig(**{**BASE, "theta": 0.0, "replications": 1000, "seed": 515})
    metrics = run_scenario(config)
    for row in metrics.rows:
        assert abs(row.bias) < 0.03
        assert 0.935 <= row.cp <= 0.965


@pytest.mark.slow
def test_smaller_single_study_scenario():
    # 50-cluster variant: adjusted estimator stays unbiased with nominal coverage
    config = ScenarioConfig(**{**BASE, "clusters": 50, "replications": 1000, "seed": 262})
    metrics = run_scenario(config)
    row = {r.x: r for r in metrics.rows}[1]
    assert abs(row.bias) <= 0.05
    assert 0.93 <= row.cp <= 0.97


@pytest.mark.slow
def test_large_meta_scenario_tightens():
    # many studies with bigger clusters: still unbiased, conservative coverage
    config = ScenarioConfig(
        kind="meta", clusters=200, cluster_size=5, studies=100, replications=100,
        seed=9090, true_betas=(1.0, 3.0, 3.0, 4.0), theta=5.0, theta_var=0.01,
        sigma_u2=0.25, nu=4.0, phi=1.0,
    )
    metrics = run_scenario(config)
    for row in metrics.rows:
        assert abs(row.bias) <= 0.07
        assert row.cp >= 0.93
        assert row.se < 0.08  # much tighter than the 30-study design


def test_degenerate_replicates_flagged_but_reported():
    # rare events in tiny samples: many replicates have no cases at all,
    # which must be dropped, counted, and flagged, not crash the run
    config = ScenarioConfig(
        kind="single_binary", clusters=8, cluster_size=3, replications=20, seed=4242,
        true_betas=(-5.0, 0.8, 1.0, -0.4), theta=0.2, sigma_u2=0.25, nu=0.3,
        quadrature_points=5,
    )
    metrics = run_scenario(config)
    assert metrics.non_converged > 1
    assert metrics.flagged
    used = metrics.rows[0].replications_used
    assert used == 20 - metrics.non_converged


def test_meta_run_smoke():
    config = ScenarioConfig(
        kind="meta", clusters=100, cluster_size=3, studies=8, replications=10, seed=2024,
        true_betas=(1.0, 3.0, 3.0, 4.0), theta=5.0, theta_var=0.01,
    )
    metrics = run_scenario(config)
    truth = true_p_of_q(config, 0)
    assert 0.0 < truth < 1.0
    for row in metrics.rows:
        assert row.truth == pytest.approx(truth)
        assert abs(row.bias) < 0.2
        assert row.replications_used == 10


def test_meta_replicate_dropped_for_variance_domination():
    # a confounder effect of variance 1e6 gives a bias variance that no
    # pooled between-study variance exceeds, so p(q) is undefined and every
    # replicate is dropped and counted, though every study fit converges
    config = ScenarioConfig(
        kind="meta", clusters=52, cluster_size=2, studies=3, replications=3, seed=5,
        true_betas=(1.0, 3.0, 3.0, 4.0), theta=5.0, theta_var=1e6,
    )
    for index in range(config.replications):
        assert all(fit.converged for fit in fit_lmm_batch(generate(config, index)))
    metrics = run_scenario(config)
    assert metrics.non_converged == 3
    assert metrics.flagged
    assert [row.replications_used for row in metrics.rows] == [0, 0]


def test_degenerate_meta_truth_is_point_mass():
    config = ScenarioConfig(
        kind="meta", clusters=100, cluster_size=3, studies=5, replications=1, seed=1,
        true_betas=(1.0, 3.0, 3.0, 4.0), theta=5.0, theta_var=0.0, q=2.0,
        effect_dist=MetaEffectDistribution(mu1=3.0, mu3=4.0, v11=1e-9, v33=1e-9, v13=0.0),
    )
    assert true_p_of_q(config, 0) == 1.0  # mu1 = 3 > q = 2
    high_q = ScenarioConfig(**{**config.__dict__, "q": 9.0})
    assert true_p_of_q(high_q, 0) == 0.0


def test_delta_interval_matches_finite_difference_propagation():
    from clustersens.meta import (
        BiasDistribution, MetaFit, StudyEffect, dl_variance_of_v_hat, p_of_q,
    )
    from clustersens.simulation import _delta_interval
    from clustersens import normal

    studies = [StudyEffect(str(i), 0.3 + 0.2 * i, 0.05 + 0.01 * i) for i in range(8)]
    fit = MetaFit(mu_hat=0.6, v_hat=0.35, se_mu=0.12, q_statistic=22.0, k=8)
    bias = BiasDistribution(mu_b=0.15, v_b=0.02)
    q = 0.4
    p_hat, lo, hi = _delta_interval(fit, bias, q, studies)
    assert p_hat == p_of_q(fit, bias, q, "positive")

    def p_at(mu, v):
        return 1.0 - normal.cdf((q + bias.mu_b - mu) / math.sqrt(v - bias.v_b))

    h = 1e-6
    d_mu = (p_at(fit.mu_hat + h, fit.v_hat) - p_at(fit.mu_hat - h, fit.v_hat)) / (2 * h)
    d_v = (p_at(fit.mu_hat, fit.v_hat + h) - p_at(fit.mu_hat, fit.v_hat - h)) / (2 * h)
    var_p = d_mu**2 * fit.se_mu**2 + d_v**2 * dl_variance_of_v_hat(studies, fit.v_hat)
    expected_half = normal.ppf(0.975) * math.sqrt(var_p)
    assert (hi - lo) / 2 == pytest.approx(expected_half, rel=1e-6)
    center = (hi + lo) / 2
    assert center == pytest.approx(p_at(fit.mu_hat, fit.v_hat), abs=1e-12)


def test_bias_factor_true_uses_theta():
    config = ScenarioConfig(**{**BASE, "sigma_u2": 1.0})
    b = bias_factor_true(config, 1)
    m1 = true_conditional_means(config, 1, 1)
    m0 = true_conditional_means(config, 0, 1)
    assert b == pytest.approx(0.5 * (m1 - m0))


# ---------------------------------------------------------------------------
# scenario files and metric rows
# ---------------------------------------------------------------------------


def test_load_scenario_round_trip(tmp_path):
    doc = {
        "kind": "single_binary",
        "clusters": 200,
        "cluster_size": 4,
        "replications": 500,
        "seed": 34,
        "true_betas": [-4.5, 1.0, 3.0, -0.5],
        "theta": -0.5,
        "sigma_u2": 1.0,
        "icc": 0.25,
    }
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    config = load_scenario(path)
    assert config.kind == "single_binary"
    assert config.nu == pytest.approx(nu_from_icc(0.25))
    assert config.true_betas == (-4.5, 1.0, 3.0, -0.5)


@pytest.mark.parametrize("key", ["bogus", "r"])
def test_load_scenario_rejects_unknown_keys(tmp_path, key):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({**BASE, key: 1}))
    with pytest.raises(ValidationError, match=repr(key)):
        load_scenario(path)


def test_load_scenario_null_q_is_the_default(tmp_path):
    path = tmp_path / "meta.json"
    doc = {"kind": "meta", "clusters": 100, "cluster_size": 3, "studies": 5, "replications": 2,
           "seed": 1, "q": None}
    path.write_text(json.dumps(doc))
    assert load_scenario(path).q is None


def test_load_scenario_rejects_malformed_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ValidationError):
        load_scenario(path)


def test_metrics_rows_mark_missing_se():
    config = ScenarioConfig(**{**BASE, "replications": 1})
    metrics = run_scenario(config)
    header, rows = metrics_rows(metrics)
    assert header[3] == "se"
    assert rows[0][3] is None
    assert len(rows) == 2


def test_invalid_configs_rejected():
    with pytest.raises(ValidationError):
        ScenarioConfig(**{**BASE, "kind": "bogus"})
    with pytest.raises(ValidationError):
        ScenarioConfig(**{**BASE, "sigma_u2": -1.0})
    with pytest.raises(ValidationError):
        ScenarioConfig(kind="meta", clusters=100, cluster_size=3, studies=1, replications=2, seed=0)


def test_meta_clusters_leave_every_study_two():
    # each study draws its cluster count uniformly on clusters +/- 50
    meta = dict(kind="meta", cluster_size=3, studies=5, replications=1, seed=0)
    with pytest.raises(ValidationError, match="clusters >= 52"):
        ScenarioConfig(clusters=51, **meta)
    ScenarioConfig(clusters=52, **meta)
    with pytest.raises(ValidationError):
        MetaEffectDistribution(v11=1.0, v33=1.0, v13=1.5)
