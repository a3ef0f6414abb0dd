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

Generation has two steps: ``_draw`` takes a replicate's raw draws from its
own stream, in the order its docstring states, and ``_build`` derives the
columns of a whole stack of drawn replicates at once (a ``dataset._Stack``),
which the REML fitter reads as it is; the contrasts of its fits are taken
as columns. ``generate`` is the one-replicate case of the same two steps,
cut into per-study datasets, as binary stacks are for their fits.
Replicates are keyed counter-based streams (see ``rng``), a study's
columns are elementwise in its own draws, and its fit does not depend on
the stack it is fitted in, so results are identical across worker counts,
block and stack boundaries and replicate orderings.
"""

from __future__ import annotations

import json
import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from functools import partial
from typing import NamedTuple, Optional

import numpy as np
from scipy import special

from . import normal
from .dataset import _json_integer, _json_number, _json_numbers, _path_prefixed, _Stack
from .errors import (
    ConvergenceError, DomainError, SingularDesignError, ValidationError, VarianceDominationError
)
from .meta import BiasDistribution, MetaFit, StudyEffect, dl_variance_of_v_hat, p_of_q, pool
from .mixed_models import (
    LOGISTIC_LATENT_VARIANCE,
    _MAX_QUADRATURE_POINTS,
    _fit_reml_stack,
    fit_glmm_logit,
)
from .rng import _MAX_KEY, ReplicateStreams
from .sensitivity import _contrasts, _wald_interval

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
        if not 0 <= self.seed <= _MAX_KEY:  # a Philox key word holds 64 bits
            raise ValidationError(f"seed must lie in [0, 2**64 - 1], got {self.seed}")
        if self.kind == META and self.studies < 2:
            raise ValidationError("meta scenarios need at least 2 studies")
        if self.kind == META and self.clusters < _META_CLUSTER_SPREAD + 2:
            raise ValidationError(
                f"meta scenarios need clusters >= {_META_CLUSTER_SPREAD + 2}: each study draws "
                f"its cluster count on clusters +/- {_META_CLUSTER_SPREAD}, got {self.clusters}"
            )
        if len(self.true_betas) != 4:
            raise ValidationError("true_betas must have 4 entries")
        if not 1 <= self.quadrature_points <= _MAX_QUADRATURE_POINTS:
            raise ValidationError(
                f"quadrature_points must lie in [1, {_MAX_QUADRATURE_POINTS}], "
                f"got {self.quadrature_points}"
            )
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


class _StudyDraws(NamedTuple):
    """One study's cluster count, coefficients and raw stream draws.

    ``xa`` holds the X uniforms in row 0 and the A uniforms in row 1;
    ``response`` holds the binary response uniforms, None for continuous
    outcomes.
    """

    clusters: int
    b1: float
    b3: float
    theta: float
    zeta: np.ndarray
    u: np.ndarray
    xa: np.ndarray
    eps: np.ndarray
    response: Optional[np.ndarray]


def _draw(
    config: ScenarioConfig, streams: ReplicateStreams, replicate_index: int
) -> list[_StudyDraws]:
    """Every raw draw of one replicate from its own stream, one entry per study.

    ``streams`` holds the config seed's streams. The replicate's stream is
    read only here, before the caller's next draw re-keys it.

    The order is fixed, so streams are stable across versions. A meta
    replicate first draws its k study sizes (uniform on clusters +/- 50),
    then the k (b1, b3) pairs, then the k thetas. Each study (the one study
    of a single-study replicate) then draws, in turn: zeta (one per cluster),
    U (one per row), the X uniforms and then the A uniforms (one
    ``random(2n)`` call), the noise eps and, for binary outcomes only, the
    response uniforms. No draw depends on a computed value, so ``_build``
    derives every column afterwards. A replicate too large to allocate is
    refused with a ValidationError naming its row count.
    """
    rng = streams(replicate_index)
    if config.kind != META:
        _, b1, _, b3 = config.true_betas
        studies = [(config.clusters, b1, b3, config.theta)]
    else:
        k = config.studies
        sizes = rng.integers(
            config.clusters - _META_CLUSTER_SPREAD, config.clusters + _META_CLUSTER_SPREAD + 1,
            size=k,
        )
        dist = config.effect_dist
        cov = np.array([[dist.v11, dist.v13], [dist.v13, dist.v33]])
        # MetaEffectDistribution has checked that cov is positive definite
        betas = rng.multivariate_normal([dist.mu1, dist.mu3], cov, size=k, check_valid="ignore")
        thetas = rng.normal(config.theta, math.sqrt(config.theta_var), k)
        studies = list(zip(sizes.tolist(), betas[:, 0].tolist(), betas[:, 1].tolist(),
                           thetas.tolist()))
    m = config.cluster_size
    sd_zeta, sd_u, sd_eps = (math.sqrt(v) for v in (config.nu, config.sigma_u2, config.phi))
    draws = []
    try:
        for j, b1, b3, theta in studies:
            n = j * m
            zeta = rng.normal(0.0, sd_zeta, j) if config.nu > 0 else np.zeros(j)
            u = rng.normal(0.0, sd_u, n) if config.sigma_u2 > 0 else np.zeros(n)
            xa = rng.random(2 * n).reshape(2, n)
            eps = rng.normal(0.0, sd_eps, n) if config.phi > 0 else np.zeros(n)
            response = rng.random(n) if config.kind == SINGLE_BINARY else None
            draws.append(_StudyDraws(j, b1, b3, theta, zeta, u, xa, eps, response))
    except (MemoryError, ValueError) as exc:
        rows = sum(j for j, *_ in studies) * m
        raise ValidationError(
            f"replicate {replicate_index} has {rows:,} rows, more than memory holds; "
            "give fewer clusters or a smaller cluster_size"
        ) from exc
    return draws


def _build(config: ScenarioConfig, replicates, first: int) -> _Stack:
    """The stack of drawn replicates ``first`` onward, every column built for all its rows at once.

    ``replicates`` is a list of ``_draw`` results; it is emptied once they
    are read, so the raw draws are freed before the stack is fitted. The
    mechanism, the outcome and the binary response run elementwise over the
    concatenated studies, with per-row coefficients, so each study's
    columns are bit for bit those it gets built alone. An outcome past the
    float range is left to the row checks, which run once over the stack
    and name a bad row's replicate, its study and its row within the study.
    """
    per = len(replicates[0])
    studies = [study for drawn in replicates for study in drawn]
    replicates.clear()
    mech, m = config.mechanism, config.cluster_size
    clusters = np.array([study.clusters for study in studies])
    rows = clusters * m
    u = np.concatenate([study.u for study in studies])
    uniforms = np.concatenate([study.xa for study in studies], axis=1)
    p = np.where(u < mech.x_threshold, mech.x_prob_below, mech.x_prob_above)
    x = (uniforms[0] < p).astype(float)
    p = np.where(u + x < mech.a_threshold, mech.a_prob_below, mech.a_prob_above)
    a = (uniforms[1] < p).astype(float)
    del uniforms, p

    def per_row(name):
        return np.repeat([getattr(study, name) for study in studies], rows)

    # b0 + b1 a + b2 x + b3 a x + theta u + zeta + eps, added left to right
    # in place, so that the stack holds few columns of its size at once
    b0, _, b2, _ = config.true_betas
    with np.errstate(over="ignore", invalid="ignore"):
        y = per_row("b1")
        y *= a
        y += b0
        y += b2 * x
        term = per_row("b3")
        term *= a
        term *= x
        y += term
        term = per_row("theta")
        term *= u
        y += term
        del term, u
        y += np.repeat(np.concatenate([study.zeta for study in studies]), m)
        y += np.concatenate([study.eps for study in studies])
    scale = "continuous"
    if config.kind == SINGLE_BINARY:
        response = np.concatenate([study.response for study in studies])
        y = (response < special.expit(y)).astype(float)
        scale = "binary"
    # every study's clusters hold m rows, so row i of the stack is in its cluster i // m
    codes = np.arange(y.size, dtype=np.int64) // m
    stack = _Stack(scale, y, a, x, codes, rows, clusters)
    stack.check_rows(lambda k: f"replicate {first + k // per}, study {k % per + 1}")
    return stack


def generate(config: ScenarioConfig, replicate_index: int):
    """Deterministic data for one replicate: a dataset, or a list for meta."""
    drawn = _draw(config, ReplicateStreams(config.seed), replicate_index)
    stack = _build(config, [drawn], replicate_index)
    datasets = [part.dataset() for part in stack.cut(1)]
    return datasets if config.kind == META else datasets[0]


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
    """``(truth, constants)`` at x = 0, 1, which depend on the config only.

    Single-study kinds get the true effect (b1, then b1 + b3) and the true
    bias shift; the meta kind gets ``true_p_of_q``, the bias law (theta * dm,
    theta_var * dm^2) and the meaningful size q, where
    dm = E(U|A=1,X=x) - E(U|A=0,X=x).
    """
    if config.kind != META:
        _, b1, _, b3 = config.true_betas
        return tuple(zip((b1, b1 + b3), (bias_factor_true(config, x) for x in (0, 1))))
    out = []
    for x in (0, 1):
        delta_m = true_conditional_means(config, 1, x) - true_conditional_means(config, 0, x)
        bias = BiasDistribution(mu_b=config.theta * delta_m, v_b=config.theta_var * delta_m**2)
        out.append((true_p_of_q(config, x), (bias, _meta_q(config, x))))
    return tuple(out)


def _replicate_block(config: ScenarioConfig, per_x, start: int):
    """Scored replicates ``start`` onward, up to _BLOCK_SIZE of them, in index order.

    Each entry is one replicate's ``_score``. The block's replicates are
    drawn one by one and gathered in stacks of consecutive replicates; a
    stack is built in one ``_build`` call, then fitted, scored and released
    before a replicate that would take it past _STACK_ROWS rows starts the
    next one. A study's fit does not depend on the stack it is fitted in.
    The block re-keys one generator for each of its replicates.
    """
    streams = ReplicateStreams(config.seed)
    scored, stack, rows, first = [], [], 0, start
    for index in range(start, min(start + _BLOCK_SIZE, config.replications)):
        drawn = _draw(config, streams, index)
        drawn_rows = sum(study.u.size for study in drawn)
        if stack and rows + drawn_rows > _STACK_ROWS:
            scored += _score_stack(config, per_x, _build(config, stack, first))
            stack, rows, first = [], 0, index
        stack.append(drawn)
        rows += drawn_rows
    del drawn  # so that _build frees the last stack's raw draws before its fit
    return scored + _score_stack(config, per_x, _build(config, stack, first))


def _score_stack(config: ScenarioConfig, per_x, stack: _Stack):
    """``_score`` of each replicate of a stack, in order.

    A continuous stack is fitted as one (``_fit_reml_stack``). One failed
    study fails it, so the stack is then cut into its replicates and each
    is fitted alone, as binary replicates always are.
    """
    fits = None if config.kind == SINGLE_BINARY else _fits(config, stack)
    if fits is not None:
        return _score(config, per_x, *fits)
    scored = []
    for part in stack.cut(config.studies if config.kind == META else 1):
        fits = _fits(config, part)
        scored += [None] if fits is None else _score(config, per_x, *fits)
    return scored


def _fits(config: ScenarioConfig, stack: _Stack):
    """Coefficients (K, 4) and covariances (K, 4, 4) of a stack's studies, or None.

    None where one fit fails to converge or has a singular design. Binary
    studies are cut into datasets and fitted one at a time.
    """
    try:
        if config.kind == SINGLE_BINARY:
            fits = [fit_glmm_logit(part.dataset(), config.quadrature_points) for part in stack.cut(1)]
            return (np.array([fit.coefficients for fit in fits]),
                    np.array([fit.coef_covariance for fit in fits]))
        fits = _fit_reml_stack(stack)
        return fits.coefficients, fits.coef_covariance
    except (ConvergenceError, SingularDesignError):
        return None


def _score(config: ScenarioConfig, per_x, beta, cov):
    """(value, lb, ub) triples at x = 0, 1 for each replicate of fitted studies, or None.

    ``beta`` and ``cov`` hold the coefficients (K, 4) and covariances
    (K, 4, 4) of whole replicates' studies in order. Every study's contrast
    and Wald interval are taken at once, by the rules ``confounded_effect``
    uses. Single-study kinds give the adjusted effect; the meta kind pools
    each replicate's studies and gives the estimated exceedance probability
    with its delta-method interval. Variance domination drops the
    replicate, as non-convergence, separation and degenerate designs do
    before it is scored (``_score_stack``); dropped replicates are counted,
    never resampled.
    """
    per = config.studies if config.kind == META else 1
    effects = []  # per x: its constants, then each study's estimate, std_error, lb and ub
    for x, (_, constants) in zip((0, 1), per_x):
        estimate, std_error = _contrasts(beta, cov, x)
        lb, ub = _wald_interval(estimate, std_error, 0.95)
        effects.append((constants, estimate.tolist(), std_error.tolist(), lb.tolist(), ub.tolist()))
    scored = []
    for start in range(0, len(beta), per):
        out = []
        try:
            for constants, estimate, std_error, lb, ub in effects:
                if config.kind != META:
                    value, low, high = estimate[start], lb[start], ub[start]
                    out.append((value - constants, low - constants, high - constants))
                    continue
                bias, q = constants
                cut = slice(start, start + per)
                studies = [
                    StudyEffect(str(k + 1), value, se**2)
                    for k, (value, se) in enumerate(zip(estimate[cut], std_error[cut]))
                ]
                out.append(_delta_interval(pool(studies), bias, q, studies))
        except VarianceDominationError:
            out = None
        scored.append(out)
    return scored


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


def _aggregate(config: ScenarioConfig, results, per_x, started) -> SimMetrics:
    usable = [r for r in results if r is not None]
    non_converged = len(results) - len(usable)
    rows = []
    for x, (truth, _) in enumerate(per_x):  # x = 0, 1
        estimates = np.array([r[x][0] for r in usable])
        covered = np.array([r[x][1] <= truth <= r[x][2] for r in usable])
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
    per_x = _run_constants(config)
    worker = partial(_replicate_block, config, per_x)
    starts = range(0, config.replications, _BLOCK_SIZE)
    # the pool starts all its workers at the first submit, so idle ones cost a fork each
    workers = min(workers, len(starts), os.cpu_count() or 1)
    if workers <= 1:
        blocks = [worker(start) for start in starts]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool_:
            blocks = list(pool_.map(worker, starts))
    results = [result for block in blocks for result in block]
    return _aggregate(config, results, per_x, started)


# ---------------------------------------------------------------------------
# Declarative scenario files
# ---------------------------------------------------------------------------


def _string(value) -> str:
    if not isinstance(value, str):
        raise ValueError(f"expected a string, got {value!r}")
    return value


def _object_of_numbers(cls):
    return lambda value: cls(**{k: _json_number(v) for k, v in value.items()})


_CONVERTERS = {
    "kind": _string,
    "clusters": _json_integer,
    "cluster_size": _json_integer,
    "replications": _json_integer,
    "seed": _json_integer,
    "true_betas": lambda value: tuple(_json_numbers(value)),
    "theta": _json_number,
    "theta_var": _json_number,
    "sigma_u2": _json_number,
    "nu": _json_number,
    "icc": lambda value: nu_from_icc(_json_number(value)),
    "phi": _json_number,
    "studies": _json_integer,
    "effect_dist": _object_of_numbers(MetaEffectDistribution),
    "q": lambda value: None if value is None else _json_number(value),
    "quadrature_points": _json_integer,
    "mechanism": _object_of_numbers(MechanismParams),
}


def load_scenario(path) -> ScenarioConfig:
    """Read a scenario config from a JSON file.

    Accepts the ScenarioConfig field names plus "icc" as an alternative to
    "nu" (mapped through the logistic latent variance) and nested
    "effect_dist" / "mechanism" objects of numbers. Unknown keys and values
    of the wrong JSON type (a string or bool for a number, a fraction for an
    integer key, a non-array ``true_betas``) are rejected with a
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
            except (TypeError, ValueError, AttributeError, OverflowError) as exc:
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
