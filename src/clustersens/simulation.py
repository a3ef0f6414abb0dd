"""Monte Carlo studies of adjusted treatment-effect estimators.

Data are generated under a mechanism where an unmeasured confounder U
drives both the measured covariate and treatment assignment through
threshold rules, making all three dependent. Single-study scenarios fit
the confounded mixed model, remove the analytically known bias factor,
and score bias / spread / interval coverage of the adjusted estimator.
Meta scenarios pool per-study confounded effects and score the estimated
probability of a meaningful effect. ``run_scenario`` runs every kind
through one replicate worker.

Replicates are keyed counter-based streams (see ``rng``), so results are
identical across worker counts and replicate orderings.
"""

from __future__ import annotations

import json
import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from functools import partial
from typing import Optional

import numpy as np
from scipy import special

from . import normal
from .dataset import ClusteredDataset
from .errors import ConvergenceError, DomainError, SingularDesignError, ValidationError
from .meta import BiasDistribution, MetaFit, StudyEffect, dl_variance_of_v_hat, p_of_q, pool
from .mixed_models import LOGISTIC_LATENT_VARIANCE, fit_glmm_logit, fit_lmm_batch
from .rng import replicate_stream
from .sensitivity import confounded_effect

SINGLE_CONTINUOUS = "single_continuous"
SINGLE_BINARY = "single_binary"
META = "meta"
_KINDS = (SINGLE_CONTINUOUS, SINGLE_BINARY, META)

_NONCONVERGENCE_FLAG_FRACTION = 0.05
_META_CLUSTER_SPREAD = 50  # meta studies draw their cluster counts on clusters +/- 50


def nu_from_icc(icc: float) -> float:
    """Random-intercept variance giving a target logistic intraclass correlation."""
    if not 0.0 <= icc < 1.0:
        raise DomainError(f"icc must lie in [0, 1), got {icc}")
    return icc * LOGISTIC_LATENT_VARIANCE / (1.0 - icc)


@dataclass(frozen=True)
class MechanismParams:
    """Threshold rules tying covariate and treatment to the confounder.

    P(X=1|U) switches from x_prob_below to x_prob_above at U = x_threshold;
    P(A=1|U,X) switches from a_prob_below to a_prob_above at U + X = a_threshold.
    """

    x_prob_below: float = 0.5
    x_prob_above: float = 0.4
    x_threshold: float = 1.0
    a_prob_below: float = 0.4
    a_prob_above: float = 0.5
    a_threshold: float = 2.0

    def __post_init__(self):
        for name in ("x_prob_below", "x_prob_above", "a_prob_below", "a_prob_above"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValidationError(f"mechanism {name} must lie in [0, 1], got {getattr(self, name)}")


@dataclass(frozen=True)
class MetaEffectDistribution:
    """Bivariate normal law of per-study (treatment, interaction) coefficients."""

    mu1: float = 3.0
    mu3: float = 4.0
    v11: float = 2.0
    v33: float = 6.0
    v13: float = 0.05

    def __post_init__(self):
        if self.v11 < 0 or self.v33 < 0 or self.v11 * self.v33 - self.v13**2 <= 0:
            raise ValidationError("effect distribution covariance must be positive definite")

    def conditional_mean(self, x: float) -> float:
        return self.mu1 + x * self.mu3

    def conditional_variance(self, x: float) -> float:
        return self.v11 + x * x * self.v33 + 2.0 * x * self.v13


@dataclass(frozen=True)
class ScenarioConfig:
    """Declarative description of one simulation scenario.

    ``clusters`` is the cluster count J for single-study kinds and the
    mean cluster count for the meta kind (per-study counts are uniform on
    clusters +/- 50, so it must be at least 52). ``theta`` is the
    confounder effect; for the meta kind it is the mean of a per-study
    normal effect with variance ``theta_var``. ``phi`` is the unit-level
    noise variance: continuous kinds add N(0, phi) noise to the outcome,
    and the binary kind adds it to the latent linear predictor before the
    logistic draw, which attenuates the conditional logit coefficients the
    GLMM estimates.
    """

    kind: str
    clusters: int
    cluster_size: int
    replications: int
    seed: int
    true_betas: tuple[float, float, float, float] = (1.0, -1.0, 3.0, 1.0)
    theta: float = 0.5
    theta_var: float = 0.0
    sigma_u2: float = 0.25
    nu: float = 4.0
    phi: float = 1.0
    studies: int = 0
    effect_dist: MetaEffectDistribution = field(default_factory=MetaEffectDistribution)
    q: Optional[float] = None
    quadrature_points: int = 15
    mechanism: MechanismParams = field(default_factory=MechanismParams)

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValidationError(f"unknown scenario kind {self.kind!r}")
        for name in ("sigma_u2", "nu", "phi", "theta_var"):
            if not getattr(self, name) >= 0:  # also rejects nan
                raise ValidationError(f"{name} must be >= 0, got {getattr(self, name)}")
        if self.clusters < 2 or self.cluster_size < 1:
            raise ValidationError("need at least 2 clusters of at least 1 unit")
        if self.replications < 1:
            raise ValidationError("replications must be >= 1")
        if self.kind == META and self.studies < 2:
            raise ValidationError("meta scenarios need at least 2 studies")
        if self.kind == META and self.clusters < _META_CLUSTER_SPREAD + 2:
            raise ValidationError(
                f"meta scenarios need clusters >= {_META_CLUSTER_SPREAD + 2}: each study draws "
                f"its cluster count on clusters +/- {_META_CLUSTER_SPREAD}, got {self.clusters}"
            )
        if len(self.true_betas) != 4:
            raise ValidationError("true_betas must have 4 entries")


# ---------------------------------------------------------------------------
# The confounder mechanism: exact conditional means and data generation
# ---------------------------------------------------------------------------


def _piecewise_weight(mech: MechanismParams, a: int, x: int):
    """Breakpoints and per-segment weights of P(X=x|u) * P(A=a|u,x)."""
    points = sorted({mech.x_threshold, mech.a_threshold - x})
    edges = [-math.inf, *points, math.inf]
    weights = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        if math.isfinite(lo) and math.isfinite(hi):
            probe = (lo + hi) / 2.0
        elif math.isfinite(hi):
            probe = hi - 1.0
        else:
            probe = lo + 1.0
        px1 = mech.x_prob_below if probe < mech.x_threshold else mech.x_prob_above
        pa1 = mech.a_prob_below if probe + x < mech.a_threshold else mech.a_prob_above
        wx = px1 if x == 1 else 1.0 - px1
        wa = pa1 if a == 1 else 1.0 - pa1
        weights.append(wx * wa)
    return edges, weights


def true_conditional_means(config: ScenarioConfig, a: int, x: int) -> float:
    """E(U | A=a, X=x) under the generating mechanism, by exact integration.

    The conditional probabilities are piecewise constant in U, so the
    integral reduces to truncated-normal masses and first moments per
    segment; the absolute error is at machine level, far below 1e-8.
    """
    if a not in (0, 1) or x not in (0, 1):
        raise DomainError(f"conditioning values must be 0/1, got a={a}, x={x}")
    sigma = math.sqrt(config.sigma_u2)
    if sigma == 0.0:
        return 0.0
    edges, weights = _piecewise_weight(config.mechanism, a, x)
    numerator = 0.0
    denominator = 0.0
    for lo, hi, w in zip(edges[:-1], edges[1:], weights):
        mass = normal.cdf(hi / sigma if math.isfinite(hi) else math.inf) - normal.cdf(
            lo / sigma if math.isfinite(lo) else -math.inf
        )
        pdf_lo = normal.pdf(lo / sigma) / sigma if math.isfinite(lo) else 0.0
        pdf_hi = normal.pdf(hi / sigma) / sigma if math.isfinite(hi) else 0.0
        first_moment = config.sigma_u2 * (pdf_lo - pdf_hi)
        numerator += w * first_moment
        denominator += w * mass
    if denominator <= 0.0:
        raise DomainError(f"the mechanism gives the cell A={a}, X={x} zero probability")
    return numerator / denominator


def bias_factor_true(config: ScenarioConfig, x: int) -> float:
    """theta * (E(U|A=1,X=x) - E(U|A=0,X=x)) under the generating mechanism."""
    return config.theta * (
        true_conditional_means(config, 1, x) - true_conditional_means(config, 0, x)
    )


def _draw_mechanism(rng, n, mech: MechanismParams, sigma_u2: float):
    """U, X, A draws; order is fixed so streams are stable across versions."""
    u = rng.normal(0.0, math.sqrt(sigma_u2), n) if sigma_u2 > 0 else np.zeros(n)
    px = np.where(u < mech.x_threshold, mech.x_prob_below, mech.x_prob_above)
    x = (rng.random(n) < px).astype(float)
    pa = np.where(u + x < mech.a_threshold, mech.a_prob_below, mech.a_prob_above)
    a = (rng.random(n) < pa).astype(float)
    return u, x, a


def _generate_single(config: ScenarioConfig, rng, study_id=None, clusters=None, betas=None, theta=None):
    j = config.clusters if clusters is None else clusters
    b0, b1, b2, b3 = config.true_betas if betas is None else betas
    th = config.theta if theta is None else theta
    n = j * config.cluster_size
    zeta = rng.normal(0.0, math.sqrt(config.nu), j) if config.nu > 0 else np.zeros(j)
    u, x, a = _draw_mechanism(rng, n, config.mechanism, config.sigma_u2)
    eps = rng.normal(0.0, math.sqrt(config.phi), n) if config.phi > 0 else np.zeros(n)
    linear = b0 + b1 * a + b2 * x + b3 * a * x + th * u + np.repeat(zeta, config.cluster_size) + eps
    if config.kind == SINGLE_BINARY:
        y = (rng.random(n) < special.expit(linear)).astype(float)
        scale = "binary"
    else:
        y = linear
        scale = "continuous"
    # Python ints: from_columns codes the labels by hashing, which is faster
    # on ints than on numpy scalars
    return ClusteredDataset.from_columns(
        scale,
        np.repeat(np.arange(1, j + 1), config.cluster_size).tolist(),
        y,
        a,
        x,
        study_id=None if study_id is None else (study_id,) * n,
        truth_u=u,
    )


def generate(config: ScenarioConfig, replicate_index: int):
    """Deterministic data for one replicate: a dataset, or a list for meta."""
    rng = replicate_stream(config.seed, replicate_index)
    if config.kind in (SINGLE_CONTINUOUS, SINGLE_BINARY):
        return _generate_single(config, rng)
    # meta: study sizes, per-study effects, then each study's data in order
    k = config.studies
    sizes = rng.integers(
        config.clusters - _META_CLUSTER_SPREAD, config.clusters + _META_CLUSTER_SPREAD + 1, size=k
    )
    dist = config.effect_dist
    cov = np.array([[dist.v11, dist.v13], [dist.v13, dist.v33]])
    study_betas = rng.multivariate_normal([dist.mu1, dist.mu3], cov, size=k)
    thetas = rng.normal(config.theta, math.sqrt(config.theta_var), k)
    b0, _, b2, _ = config.true_betas
    datasets = []
    for s in range(k):
        betas = (b0, study_betas[s, 0], b2, study_betas[s, 1])
        datasets.append(
            _generate_single(
                config,
                rng,
                study_id=str(s + 1),
                clusters=int(sizes[s]),
                betas=betas,
                theta=float(thetas[s]),
            )
        )
    return datasets


# ---------------------------------------------------------------------------
# Replicate workers and metric aggregation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MetricRow:
    x: int
    bias: Optional[float]  # None when no replicate was usable
    se: Optional[float]  # None when fewer than 2 usable replicates
    cp: Optional[float]
    replications_used: int
    truth: float


@dataclass(frozen=True)
class SimMetrics:
    """Bias / spread / coverage per conditioning value.

    se is the empirical standard deviation of the estimator across
    replicates (not a mean reported standard error). flagged marks a
    non-convergence rate above 5%.
    """

    kind: str
    rows: tuple[MetricRow, ...]
    replications: int
    non_converged: int
    flagged: bool
    seed: int
    runtime_seconds: float


def _run_constants(config: ScenarioConfig):
    """Per-x quantities that depend on the config only, computed once per run.

    Single-study kinds get the true bias shift; the meta kind gets the bias
    law (theta * dm, theta_var * dm^2) and the meaningful size q, where
    dm = E(U|A=1,X=x) - E(U|A=0,X=x).
    """
    out = []
    for x in (0, 1):
        if config.kind != META:
            out.append(bias_factor_true(config, x))
            continue
        delta_m = true_conditional_means(config, 1, x) - true_conditional_means(config, 0, x)
        bias = BiasDistribution(mu_b=config.theta * delta_m, v_b=config.theta_var * delta_m**2)
        out.append((bias, _meta_q(config, x)))
    return tuple(out)


def _replicate(config: ScenarioConfig, per_x, index: int):
    """(value, lb, ub) triples at x = 0, 1 for one replicate, or None.

    Single-study kinds give the adjusted effect; the meta kind gives the
    estimated exceedance probability with its delta-method interval.
    Non-convergence, separation, degenerate designs and variance
    domination drop the replicate; dropped replicates are counted, never
    resampled.
    """
    data = generate(config, index)
    datasets = data if config.kind == META else [data]
    try:
        if config.kind == SINGLE_BINARY:
            fits = [fit_glmm_logit(data, config.quadrature_points)]
        else:
            fits = fit_lmm_batch(datasets)
    except (ConvergenceError, SingularDesignError):
        return None
    out = []
    for x, constants in zip((0, 1), per_x):
        effects = [confounded_effect(fit, x) for fit in fits]
        if config.kind != META:
            (eff,) = effects
            out.append((eff.estimate - constants, eff.lb - constants, eff.ub - constants))
            continue
        bias, q = constants
        studies = [
            StudyEffect(ds.study_id[0], eff.estimate, eff.std_error**2)
            for ds, eff in zip(datasets, effects)
        ]
        meta_fit = pool(studies)
        if meta_fit.v_hat <= bias.v_b:
            return None
        out.append(_delta_interval(meta_fit, bias, q, studies))
    return out


def _meta_q(config: ScenarioConfig, x: int) -> float:
    """Meaningful effect size: configured q, else mean - sd/2 of the true law."""
    if config.q is not None:
        return config.q
    dist = config.effect_dist
    return dist.conditional_mean(x) - 0.5 * math.sqrt(dist.conditional_variance(x))


def true_p_of_q(config: ScenarioConfig, x: int) -> float:
    """Closed-form P(study effect > q) under the generating effect law."""
    dist = config.effect_dist
    spread = math.sqrt(dist.conditional_variance(x))
    q = _meta_q(config, x)
    if spread == 0.0:
        return 1.0 if dist.conditional_mean(x) > q else 0.0
    return 1.0 - normal.cdf((q - dist.conditional_mean(x)) / spread)


def _delta_interval(meta_fit: MetaFit, bias: BiasDistribution, q: float, studies):
    """The estimated exceedance probability and its delta-method 95% interval.

    p_hat is ``p_of_q(meta_fit, bias, q, "positive")``. The interval treats
    (mu_hat, v_hat) as independent normals: mu_hat with the pooled standard
    error, v_hat with the large-sample moment variance. It is truncated to
    [0, 1].
    """
    spread2 = meta_fit.v_hat - bias.v_b
    spread = math.sqrt(spread2)
    z = (q + bias.mu_b - meta_fit.mu_hat) / spread
    dense = normal.pdf(z)
    d_mu = dense / spread
    d_v = dense * z / (2.0 * spread2)
    var_v = dl_variance_of_v_hat(studies, meta_fit.v_hat)
    var_p = d_mu**2 * meta_fit.se_mu**2 + d_v**2 * var_v
    half = normal.ppf(0.975) * math.sqrt(max(var_p, 0.0))
    p_hat = 1.0 - normal.cdf(z)
    return p_hat, max(0.0, p_hat - half), min(1.0, p_hat + half)


def _aggregate(config: ScenarioConfig, results, truths, started) -> SimMetrics:
    usable = [r for r in results if r is not None]
    non_converged = len(results) - len(usable)
    rows = []
    for xi, x in enumerate((0, 1)):
        truth = truths[xi]
        estimates = np.array([r[xi][0] for r in usable])
        covered = np.array([r[xi][1] <= truth <= r[xi][2] for r in usable])
        used = estimates.size
        bias = float(np.mean(estimates) - truth) if used else None
        se = float(np.std(estimates, ddof=1)) if used >= 2 else None
        cp = float(np.mean(covered)) if used else None
        rows.append(MetricRow(x=x, bias=bias, se=se, cp=cp, replications_used=used, truth=truth))
    return SimMetrics(
        kind=config.kind,
        rows=tuple(rows),
        replications=config.replications,
        non_converged=non_converged,
        flagged=non_converged > _NONCONVERGENCE_FLAG_FRACTION * config.replications,
        seed=config.seed,
        runtime_seconds=time.perf_counter() - started,
    )


def run_scenario(config: ScenarioConfig, workers: int = 1) -> SimMetrics:
    """Monte Carlo bias / SE / coverage at x = 0, 1 for any scenario kind.

    Single-study kinds score the adjusted effect against the true
    coefficients; the meta kind scores the exceedance probability
    estimator against its closed form.
    """
    started = time.perf_counter()
    worker = partial(_replicate, config, _run_constants(config))
    indices = range(config.replications)
    if workers <= 1:
        results = [worker(i) for i in indices]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool_:
            chunk = max(1, config.replications // (8 * workers))
            results = list(pool_.map(worker, indices, chunksize=chunk))
    if config.kind == META:
        truths = (true_p_of_q(config, 0), true_p_of_q(config, 1))
    else:
        _, b1, _, b3 = config.true_betas
        truths = (b1, b1 + b3)
    return _aggregate(config, results, truths, started)


# ---------------------------------------------------------------------------
# Declarative scenario files
# ---------------------------------------------------------------------------


def _object_of_floats(cls):
    return lambda value: cls(**{k: float(v) for k, v in value.items()})


def _integer(value):
    """int(value), refusing bools and fractions that int() would truncate."""
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ValueError(f"expected an integer, got {value!r}")
    return int(value)


_CONVERTERS = {
    "kind": str,
    "clusters": _integer,
    "cluster_size": _integer,
    "replications": _integer,
    "seed": _integer,
    "true_betas": lambda value: tuple(float(v) for v in value),
    "theta": float,
    "theta_var": float,
    "sigma_u2": float,
    "nu": float,
    "icc": lambda value: nu_from_icc(float(value)),
    "phi": float,
    "studies": _integer,
    "effect_dist": _object_of_floats(MetaEffectDistribution),
    "q": lambda value: None if value is None else float(value),
    "quadrature_points": _integer,
    "mechanism": _object_of_floats(MechanismParams),
}


def load_scenario(path) -> ScenarioConfig:
    """Read a scenario config from a JSON file.

    Accepts the ScenarioConfig field names plus "icc" as an alternative to
    "nu" (mapped through the logistic latent variance) and nested
    "effect_dist" / "mechanism" objects. Unknown keys, values of the wrong
    type, and bools or fractions given for integer keys are rejected with a
    ValidationError naming the key.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"{path}: malformed JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ValidationError(f"{path}: scenario file must hold a JSON object")
    kwargs = {}
    for key, value in raw.items():
        if key not in _CONVERTERS:
            raise ValidationError(f"{path}: unknown scenario key {key!r}")
        try:
            kwargs["nu" if key == "icc" else key] = _CONVERTERS[key](value)
        except (TypeError, ValueError, AttributeError) as exc:
            raise ValidationError(f"{path}: bad value for scenario key {key!r}: {exc}") from exc
    if "icc" in raw and "nu" in raw:
        raise ValidationError(f"{path}: give either icc or nu, not both")
    try:
        return ScenarioConfig(**kwargs)
    except TypeError as exc:
        raise ValidationError(f"{path}: incomplete scenario: {exc}") from exc


def metrics_rows(metrics: SimMetrics):
    """Flat rows for CSV emission; runtime is intentionally not included
    so repeated runs of the same scenario are byte-identical."""
    header = ["x", "truth", "bias", "se", "cp", "replications_used", "non_converged", "flagged", "seed"]
    rows = [
        [row.x, row.truth, row.bias, row.se, row.cp, row.replications_used,
         metrics.non_converged, metrics.flagged, metrics.seed]
        for row in metrics.rows
    ]
    return header, rows
