"""Monte Carlo studies of adjusted treatment-effect estimators.

Data are generated under a mechanism where an unmeasured confounder U
drives both the measured covariate and treatment assignment through
threshold rules, making all three dependent. Single-study scenarios fit
the confounded mixed model, remove the analytically known bias factor,
and score bias / spread / interval coverage of the adjusted estimator.
Meta scenarios pool per-study confounded effects and score the estimated
probability of a meaningful effect. ``run_scenario`` runs every kind
through one worker, which takes a fixed block of consecutive replicates
and fits their continuous datasets in REML stacks of a bounded row count.

Replicates are keyed counter-based streams (see ``rng``), and a study's
fit does not depend on the stack it is fitted in, so results are
identical across worker counts, block and stack boundaries and replicate
orderings.
"""

from __future__ import annotations

import json
import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from functools import partial
from itertools import accumulate
from typing import Optional

import numpy as np
from scipy import special

from . import normal
from .dataset import ClusteredDataset, _path_prefixed
from .errors import (
    ConvergenceError, DomainError, SingularDesignError, ValidationError, VarianceDominationError
)
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
# replicates per unit of work, and rows per REML stack within one: a block
# fits its stack before a replicate that would take it past _STACK_ROWS, so
# its memory is bounded by rows. A replicate is never split, and one over
# the cap is a stack of its own. Both fixed, so that no result depends on
# the worker count.
_BLOCK_SIZE = 32
_STACK_ROWS = 32768


def _require_finite(prefix: str, named_values) -> None:
    """Reject the first (name, value) pair whose value is nan or infinite; None passes."""
    for name, value in named_values:
        if value is not None and not math.isfinite(value):
            raise ValidationError(f"{prefix}{name} must be finite, got {value}")


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
        _require_finite("mechanism ", vars(self).items())
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
        _require_finite("effect_dist ", vars(self).items())
        # v13 * v13, not v13**2: a float power past the range raises OverflowError
        if self.v11 < 0 or self.v33 < 0 or self.v11 * self.v33 - self.v13 * self.v13 <= 0:
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
        names = ("theta", "theta_var", "sigma_u2", "nu", "phi", "q")
        _require_finite("", ((name, getattr(self, name)) for name in names))
        _require_finite("", ((f"true_betas[{k}]", b) for k, b in enumerate(self.true_betas)))


# ---------------------------------------------------------------------------
# The confounder mechanism: exact conditional means and data generation
# ---------------------------------------------------------------------------


def true_conditional_means(config: ScenarioConfig, a: int, x: int) -> float:
    """E(U | A=a, X=x) under the generating mechanism, in closed form.

    w(U) = P(X=x|U) P(A=a|U,X=x) is w0 below lo = min(t_x, t_a), w1 up to
    hi = max(t_x, t_a) and w2 above, with t_a = a_threshold - x. For
    U ~ N(0, s^2), E[U 1[U >= t]] = s phi(t/s), so
    E[U w(U)] = s ((w1 - w0) phi(lo/s) + (w2 - w1) phi(hi/s)), and E[w(U)]
    weights the masses Phi(lo/s), Phi(hi/s) - Phi(lo/s) and Phi(-hi/s). The
    middle mass is taken from the tail it lies in, so a cell in a far tail
    of either side keeps its relative accuracy.
    """
    if a not in (0, 1) or x not in (0, 1):
        raise DomainError(f"conditioning values must be 0/1, got a={a}, x={x}")
    sigma = math.sqrt(config.sigma_u2)
    if sigma == 0.0:
        return 0.0
    mech = config.mechanism
    x_low, x_high = (p if x == 1 else 1.0 - p for p in (mech.x_prob_below, mech.x_prob_above))
    a_low, a_high = (p if a == 1 else 1.0 - p for p in (mech.a_prob_below, mech.a_prob_above))
    t_x, t_a = mech.x_threshold, mech.a_threshold - x
    w1 = x_high * a_low if t_x <= t_a else x_low * a_high
    w0, w2 = x_low * a_low, x_high * a_high
    z_lo, z_hi = min(t_x, t_a) / sigma, max(t_x, t_a) / sigma
    middle = (
        normal.cdf(z_hi) - normal.cdf(z_lo) if z_lo < 0.0 else normal.cdf(-z_lo) - normal.cdf(-z_hi)
    )
    numerator = sigma * ((w1 - w0) * normal.pdf(z_lo) + (w2 - w1) * normal.pdf(z_hi))
    denominator = w0 * normal.cdf(z_lo) + w1 * middle + w2 * normal.cdf(-z_hi)
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


def _generate_single(config: ScenarioConfig, rng, j, betas, theta):
    b0, b1, b2, b3 = betas
    n = j * config.cluster_size
    zeta = rng.normal(0.0, math.sqrt(config.nu), j) if config.nu > 0 else np.zeros(j)
    u, x, a = _draw_mechanism(rng, n, config.mechanism, config.sigma_u2)
    eps = rng.normal(0.0, math.sqrt(config.phi), n) if config.phi > 0 else np.zeros(n)
    linear = b0 + b1 * a + b2 * x + b3 * a * x + theta * u + np.repeat(zeta, config.cluster_size) + eps
    if config.kind == SINGLE_BINARY:
        y = (rng.random(n) < special.expit(linear)).astype(float)
        scale = "binary"
    else:
        y = linear
        scale = "continuous"
    codes = np.repeat(np.arange(j, dtype=np.int64), config.cluster_size)
    labels = tuple(map(str, range(1, j + 1)))
    return ClusteredDataset._from_codes(scale, codes, labels, y, a, x)


def generate(config: ScenarioConfig, replicate_index: int):
    """Deterministic data for one replicate: a dataset, or a list for meta."""
    rng = replicate_stream(config.seed, replicate_index)
    if config.kind in (SINGLE_CONTINUOUS, SINGLE_BINARY):
        return _generate_single(config, rng, config.clusters, config.true_betas, config.theta)
    # meta: study sizes, per-study effects, then each study's data in order
    k = config.studies
    sizes = rng.integers(
        config.clusters - _META_CLUSTER_SPREAD, config.clusters + _META_CLUSTER_SPREAD + 1, size=k
    )
    dist = config.effect_dist
    cov = np.array([[dist.v11, dist.v13], [dist.v13, dist.v33]])
    # MetaEffectDistribution has checked that cov is positive definite
    study_betas = rng.multivariate_normal([dist.mu1, dist.mu3], cov, size=k, check_valid="ignore")
    thetas = rng.normal(config.theta, math.sqrt(config.theta_var), k)
    b0, _, b2, _ = config.true_betas
    datasets = []
    for s in range(k):
        betas = (b0, study_betas[s, 0], b2, study_betas[s, 1])
        datasets.append(_generate_single(config, rng, int(sizes[s]), betas, float(thetas[s])))
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


def _replicate_block(config: ScenarioConfig, per_x, start: int):
    """Scored replicates ``start`` onward, up to _BLOCK_SIZE of them, in index order.

    Each entry is one replicate's ``_score``. The block's continuous
    datasets (one per single-study replicate, k per meta replicate) are
    fitted in stacks of consecutive replicates, one ``fit_lmm_batch`` call
    each; a stack is fitted, scored and released before a replicate that
    would take it past _STACK_ROWS rows starts the next one. A study's fit
    does not depend on the stack it is fitted in. Binary replicates are
    fitted one at a time.
    """
    scored, stack, rows = [], [], 0
    for index in range(start, min(start + _BLOCK_SIZE, config.replications)):
        group = generate(config, index)
        if config.kind != META:
            group = [group]
        group_rows = sum(ds.outcome.size for ds in group)
        if stack and (config.kind == SINGLE_BINARY or rows + group_rows > _STACK_ROWS):
            scored += _score_stack(config, per_x, stack)
            stack, rows = [], 0
        stack.append(group)
        rows += group_rows
    return scored + _score_stack(config, per_x, stack)


def _score_stack(config: ScenarioConfig, per_x, groups):
    """``_score`` of each replicate's group of datasets, fitted as one stack.

    One failed study fails the stack, so the stack then fits each replicate
    alone, as it always does for binary replicates.
    """
    fits = None
    if config.kind != SINGLE_BINARY:
        fits = _fits(config, [ds for group in groups for ds in group])
    if fits is None:
        return [_score(config, per_x, _fits(config, group)) for group in groups]
    ends = accumulate(len(group) for group in groups)
    return [_score(config, per_x, fits[end - len(group):end]) for group, end in zip(groups, ends)]


def _fits(config: ScenarioConfig, datasets):
    """The datasets' fits, or None where one fails to converge or has a singular design."""
    try:
        if config.kind == SINGLE_BINARY:
            return [fit_glmm_logit(ds, config.quadrature_points) for ds in datasets]
        return fit_lmm_batch(datasets)
    except (ConvergenceError, SingularDesignError):
        return None


def _score(config: ScenarioConfig, per_x, fits):
    """(value, lb, ub) triples at x = 0, 1 for one replicate's fits, or None.

    Single-study kinds give the adjusted effect; the meta kind gives the
    estimated exceedance probability with its delta-method interval.
    Non-convergence, separation and degenerate designs (``fits`` is None)
    and variance domination drop the replicate; dropped replicates are
    counted, never resampled.
    """
    if fits is None:
        return None
    out = []
    try:
        for x, constants in zip((0, 1), per_x):
            effects = [confounded_effect(fit, x) for fit in fits]
            if config.kind != META:
                (eff,) = effects
                out.append((eff.estimate - constants, eff.lb - constants, eff.ub - constants))
                continue
            bias, q = constants
            studies = [
                StudyEffect(str(k + 1), eff.estimate, eff.std_error**2)
                for k, eff in enumerate(effects)
            ]
            out.append(_delta_interval(pool(studies), bias, q, studies))
    except VarianceDominationError:
        return None
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

    p_hat is ``p_of_q(meta_fit, bias, q)``, which raises
    ``VarianceDominationError`` unless v_hat exceeds the bias variance. The
    interval treats (mu_hat, v_hat) as independent normals: mu_hat with the
    pooled standard error, v_hat with the large-sample moment variance. It
    is truncated to [0, 1].
    """
    p_hat = p_of_q(meta_fit, bias, q)
    spread2 = meta_fit.v_hat - bias.v_b
    spread = math.sqrt(spread2)
    z = (q + bias.mu_b - meta_fit.mu_hat) / spread
    dense = normal.pdf(z)
    d_mu = dense / spread
    d_v = dense * z / (2.0 * spread2)
    var_v = dl_variance_of_v_hat(studies, meta_fit.v_hat)
    var_p = d_mu**2 * meta_fit.se_mu**2 + d_v**2 * var_v
    half = normal.two_sided_quantile(0.95) * math.sqrt(max(var_p, 0.0))
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
    estimator against its closed form. The unit of work is a block of
    _BLOCK_SIZE consecutive replicates (see ``_replicate_block``). Blocks
    run in up to ``workers`` processes, no more than the blocks or the
    CPUs; the block size and the stack's row cap are fixed, so the metrics
    do not depend on the count.
    """
    started = time.perf_counter()
    worker = partial(_replicate_block, config, _run_constants(config))
    starts = range(0, config.replications, _BLOCK_SIZE)
    # the pool starts all its workers at the first submit, so idle ones cost a fork each
    workers = min(workers, len(starts), os.cpu_count() or 1)
    if workers <= 1:
        blocks = [worker(start) for start in starts]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool_:
            blocks = list(pool_.map(worker, starts))
    results = [result for block in blocks for result in block]
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
    with _path_prefixed(path):
        with open(path, "r", encoding="utf-8") as fh:
            try:
                raw = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ValidationError(f"malformed JSON: {exc}") from exc
        if not isinstance(raw, dict):
            raise ValidationError("scenario file must hold a JSON object")
        kwargs = {}
        for key, value in raw.items():
            if key not in _CONVERTERS:
                raise ValidationError(f"unknown scenario key {key!r}")
            try:
                kwargs["nu" if key == "icc" else key] = _CONVERTERS[key](value)
            except (TypeError, ValueError, AttributeError) as exc:
                raise ValidationError(f"bad value for scenario key {key!r}: {exc}") from exc
        if "icc" in raw and "nu" in raw:
            raise ValidationError("give either icc or nu, not both")
        try:
            return ScenarioConfig(**kwargs)
        except TypeError as exc:
            raise ValidationError(f"incomplete scenario: {exc}") from exc


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
