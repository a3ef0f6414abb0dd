"""Single-study sensitivity analysis for unmeasured confounding.

A confounded conditional effect (the treatment contrast from the model
that omits the confounder) is shifted by a bias factor to recover the
causal contrast. The minimal bias factor is the smallest shift that moves
the confidence interval to the null; specs describe hypothetical
confounders and map to bias factors in closed form.

``marginal_logit_exact`` integrates the population-averaged logit
numerically (cluster intercept and unmeasured confounder marginalized
out) and is the reference against which the closed-form approximations in
``marginal_logit_approx`` are validated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence, Union

import numpy as np
from scipy import special

from . import normal
from .errors import DomainError, ValidationError
from .mixed_models import MixedModelFit, _gauss_hermite, icc_logistic

SCALE_MEAN_DIFFERENCE = "mean-difference"
SCALE_LOG_RR = "log-RR"

CONTINUOUS_OUTCOME = "continuous_outcome"
BINARY_BINARY_U = "binary_binary_u"
BINARY_NORMAL_U = "binary_normal_u"
_KINDS = (CONTINUOUS_OUTCOME, BINARY_BINARY_U, BINARY_NORMAL_U)

# outside this range the log-RR closed forms were only spot-checked; keep
# the result but attach a warning
_ICC_WARN_THRESHOLD = 0.35
_THETA_WARN_THRESHOLD = 1.0


@dataclass(frozen=True)
class ConfoundedEffect:
    """Estimated treatment contrast at covariate value x, with Wald interval."""

    estimate: float
    std_error: float
    lb: float
    ub: float
    x: Optional[float] = None  # None for literature-supplied summaries
    level: float = 0.95
    scale: str = SCALE_MEAN_DIFFERENCE
    warnings: tuple[str, ...] = field(default_factory=tuple)

    def __post_init__(self):
        if self.std_error <= 0:
            raise ValidationError(f"std_error must be > 0, got {self.std_error}")
        if not 0.0 < self.level < 1.0:
            raise ValidationError(f"level must lie in (0, 1), got {self.level}")
        if not self.lb <= self.estimate <= self.ub:
            raise ValidationError("interval must bracket the estimate")


def _wald_effect(estimate, std_error, x, level, scale, warnings=()):
    z = normal.two_sided_quantile(level)
    return ConfoundedEffect(
        estimate=estimate,
        std_error=std_error,
        lb=estimate - z * std_error,
        ub=estimate + z * std_error,
        x=x,
        level=level,
        scale=scale,
        warnings=tuple(warnings),
    )


def effect_from_interval(estimate: float, lb: float, ub: float, level: float = 0.95,
                         x: Optional[float] = None, scale: str = SCALE_MEAN_DIFFERENCE):
    """A published estimate with its symmetric Wald interval at ``level``, as an effect.

    The standard error is implied by the interval's width; lb and ub are
    kept as given. An interval not symmetric about the estimate to within
    1e-6 of that standard error is refused.
    """
    if not lb < ub:
        raise ValidationError("need lb < ub")
    if not 0.0 < level < 1.0:
        raise ValidationError(f"level must lie in (0, 1), got {level}")
    z = normal.two_sided_quantile(level)
    implied_se = (ub - lb) / (2.0 * z)
    if not math.isfinite(implied_se):
        raise ValidationError(
            f"interval ({lb:g}, {ub:g}) is too wide: its implied standard error overflows"
        )
    if abs((ub - estimate) - (estimate - lb)) > 1e-6 * implied_se:
        raise ValidationError(
            "interval is not symmetric about the estimate beyond 1e-6 of the implied "
            f"standard error ({implied_se:g}); check the (estimate, lb, ub) triple"
        )
    return ConfoundedEffect(
        estimate=estimate, std_error=implied_se, lb=lb, ub=ub, x=x, level=level, scale=scale
    )


def confounded_effect(fit: MixedModelFit, x: float, level: float = 0.95) -> ConfoundedEffect:
    """Treatment contrast beta1 + x*beta3 with its delta-method Wald interval."""
    if not fit.converged:
        raise ValidationError("refusing to summarize a non-converged fit")
    if not 0.0 < level < 1.0:
        raise ValidationError(f"level must lie in (0, 1), got {level}")
    beta = np.asarray(fit.coefficients, dtype=float)
    cov = np.asarray(fit.coef_covariance, dtype=float)
    estimate = float(beta[1] + x * beta[3])
    variance = float(cov[1, 1] + x * x * cov[3, 3] + 2.0 * x * cov[1, 3])
    if variance <= 0:
        raise ValidationError("degenerate coefficient covariance for this contrast")
    warnings = []
    scale = SCALE_MEAN_DIFFERENCE
    if fit.scale == "binary":
        scale = SCALE_LOG_RR
        icc = icc_logistic(fit.random_intercept_variance)
        if icc > _ICC_WARN_THRESHOLD:
            warnings.append(
                f"fitted ICC {icc:.3f} exceeds {_ICC_WARN_THRESHOLD}; log-RR bias factors "
                "are only reliable for small intraclass correlation"
            )
    return _wald_effect(estimate, math.sqrt(variance), x, level, scale, warnings)


@dataclass(frozen=True)
class SensitivitySpec:
    """Sensitivity parameters for one unmeasured confounder.

    theta is the confounder's effect on the outcome scale; treated_mean and
    control_mean are its conditional means (or prevalences, for a binary
    confounder with binary outcome) in the treated and control groups at
    the conditioning covariate value.
    """

    kind: str
    theta: float
    treated_mean: float
    control_mean: float

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValidationError(f"unknown sensitivity kind {self.kind!r}")
        if self.kind == BINARY_BINARY_U:
            for name, value in (("treated_mean", self.treated_mean), ("control_mean", self.control_mean)):
                if not 0.0 <= value <= 1.0:
                    raise ValidationError(f"{name} = {value} outside [0, 1] for a binary confounder")

    @property
    def scale(self) -> str:
        return SCALE_MEAN_DIFFERENCE if self.kind == CONTINUOUS_OUTCOME else SCALE_LOG_RR


@dataclass(frozen=True)
class BiasFactor:
    """Signed bias factor on the effect's scale."""

    value: float
    scale: Optional[str] = None  # None when the value was supplied directly
    components: tuple[SensitivitySpec, ...] = field(default_factory=tuple)
    warnings: tuple[str, ...] = field(default_factory=tuple)


def _log_prevalence_mix(p: float, theta: float) -> float:
    """log(p * e^theta + 1 - p), stable for any theta."""
    if p == 0.0:
        return 0.0
    if p == 1.0:
        return theta
    return float(np.logaddexp(math.log(p) + theta, math.log1p(-p)))


def _single_bias_value(spec: SensitivitySpec) -> float:
    if spec.kind == BINARY_BINARY_U:
        return _log_prevalence_mix(spec.treated_mean, spec.theta) - _log_prevalence_mix(
            spec.control_mean, spec.theta
        )
    return spec.theta * (spec.treated_mean - spec.control_mean)


def bias_factor(spec: Union[SensitivitySpec, Sequence[SensitivitySpec]]) -> BiasFactor:
    """Bias factor for one confounder, or the sum over independent confounders."""
    specs = (spec,) if isinstance(spec, SensitivitySpec) else tuple(spec)
    if not specs:
        raise ValidationError("empty sensitivity spec list")
    scales = {s.scale for s in specs}
    if len(scales) > 1:
        raise ValidationError("all confounders in a list must target the same effect scale")
    warnings = []
    for s in specs:
        if s.kind != CONTINUOUS_OUTCOME and abs(s.theta) > _THETA_WARN_THRESHOLD:
            warnings.append(
                f"|theta| = {abs(s.theta):g} exceeds {_THETA_WARN_THRESHOLD}; the log-RR "
                "closed form assumes a small confounder effect"
            )
    return BiasFactor(
        value=sum(_single_bias_value(s) for s in specs),
        scale=scales.pop(),
        components=specs,
        warnings=tuple(warnings),
    )


# ---------------------------------------------------------------------------
# Exact marginal logit and its closed-form approximations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class UnmeasuredSpec:
    """Distribution of the unmeasured confounder within (treatment, covariate) cells.

    kind "binary": cell_means[(a, x)] = P(U=1 | A=a, X=x).
    kind "normal": cell_means[(a, x)] = E(U | A=a, X=x) with common
    conditional variance sigma_u (a variance, not a standard deviation).
    theta is the effect of U on the outcome's linear predictor.
    """

    kind: str
    theta: float
    cell_means: Mapping[tuple[int, float], float]
    sigma_u: Optional[float] = None

    def __post_init__(self):
        if self.kind not in ("binary", "normal"):
            raise ValidationError(f"unknown confounder kind {self.kind!r}")
        if self.kind == "binary":
            for key, value in self.cell_means.items():
                if not 0.0 <= value <= 1.0:
                    raise ValidationError(f"P(U=1|{key}) = {value} outside [0, 1]")
        else:
            if self.sigma_u is None or self.sigma_u <= 0.0:
                raise ValidationError(f"normal confounder needs sigma_u > 0, got {self.sigma_u}")

    def cell(self, a: int, x: float) -> float:
        key = (int(a), float(x))
        if key not in self.cell_means:
            raise DomainError(f"no confounder cell value for (a, x) = {key}")
        return float(self.cell_means[key])


_EXACT_POINTS = 128


def _gauss_hermite_expit(mean, variance):
    """E[expit(mean + Z)] with Z ~ N(0, variance), to ~1e-14 relative."""
    if variance == 0.0:
        return float(special.expit(mean))
    nodes, weights = _gauss_hermite(_EXACT_POINTS)
    shifted = mean + math.sqrt(2.0 * variance) * nodes
    return float(np.dot(weights, special.expit(shifted))) / math.sqrt(math.pi)


def marginal_logit_exact(beta, u_spec: UnmeasuredSpec, nu: float, a: int, x: float) -> float:
    """logit P(Y=1 | A=a, X=x) under the full model, by numeric integration.

    The cluster intercept (variance nu) and the unmeasured confounder are
    marginalized out: exact two-point sum for a binary U, Gauss-Hermite
    for a normal U. Quadrature error is far below 1e-8 on the probability
    scale for the variance ranges this package targets.
    """
    if nu < 0:
        raise DomainError(f"random-intercept variance must be >= 0, got {nu}")
    beta = np.asarray(beta, dtype=float)
    delta = float(beta[0] + beta[1] * a + beta[2] * x + beta[3] * a * x)
    theta = u_spec.theta
    if u_spec.kind == "binary":
        if theta == 0.0 and nu == 0.0:
            return delta
        p_cell = u_spec.cell(a, x)
        prob = p_cell * _gauss_hermite_expit(delta + theta, nu) + (1.0 - p_cell) * _gauss_hermite_expit(delta, nu)
    else:
        mu_cell = u_spec.cell(a, x)
        variance = theta**2 * u_spec.sigma_u + nu
        if variance == 0.0:
            return delta + theta * mu_cell
        prob = _gauss_hermite_expit(delta + theta * mu_cell, variance)
    return math.log(prob) - math.log1p(-prob)


def marginal_logit_approx(beta, u_spec: UnmeasuredSpec, nu: float, a: int, x: float) -> float:
    """Closed-form small-(theta, nu, sigma_u) approximation to the marginal logit."""
    if nu < 0:
        raise DomainError(f"random-intercept variance must be >= 0, got {nu}")
    beta = np.asarray(beta, dtype=float)
    delta = float(beta[0] + beta[1] * a + beta[2] * x + beta[3] * a * x)
    theta = u_spec.theta
    if u_spec.kind == "binary":
        # log(p e^(theta + nu/2) + (1 - p) e^(nu/2)): bias_factor's closed form
        return delta + nu / 2.0 + _log_prevalence_mix(u_spec.cell(a, x), theta)
    mu_cell = u_spec.cell(a, x)
    return delta + theta * mu_cell + (theta**2 * u_spec.sigma_u + nu) / 2.0


@dataclass(frozen=True)
class AdjustedEffect:
    """Confounded effect with a bias factor removed; interval width is preserved."""

    estimate: float
    lb: float
    ub: float
    level: float
    scale: str
    provenance: tuple[ConfoundedEffect, BiasFactor]


def _check_scales(effect_scale: str, bias_scale: Optional[str]) -> None:
    if bias_scale is not None and bias_scale != effect_scale:
        raise ValidationError(
            f"scale mismatch: effect is on the {effect_scale} scale, "
            f"bias factor on the {bias_scale} scale"
        )


def adjust(effect: ConfoundedEffect, b: BiasFactor) -> AdjustedEffect:
    """Shift estimate and both interval bounds by -b.value."""
    _check_scales(effect.scale, b.scale)
    return AdjustedEffect(
        estimate=effect.estimate - b.value,
        lb=effect.lb - b.value,
        ub=effect.ub - b.value,
        level=effect.level,
        scale=effect.scale,
        provenance=(effect, b),
    )


@dataclass(frozen=True)
class MinimalBiasFactor:
    """Smallest bias magnitude that moves the interval to the null.

    direction "positive": the interval sits above zero and a bias of
    +value explains the effect away; "negative": below zero, bias -value;
    "none": the interval already includes zero.
    """

    value: float
    direction: str


def minimal_bias_factor(effect: ConfoundedEffect) -> MinimalBiasFactor:
    if effect.lb > 0.0:
        return MinimalBiasFactor(value=effect.lb, direction="positive")
    if effect.ub < 0.0:
        return MinimalBiasFactor(value=-effect.ub, direction="negative")
    return MinimalBiasFactor(value=0.0, direction="none")


def explains_away(effect: ConfoundedEffect, spec: Union[SensitivitySpec, Sequence[SensitivitySpec]]) -> bool:
    """Whether the spec's bias factor suffices to move the interval to the null.

    Equality with the minimal bias factor counts as explaining away.
    """
    b = bias_factor(spec)
    _check_scales(effect.scale, b.scale)
    minimal = minimal_bias_factor(effect)
    if minimal.direction == "positive":
        return b.value >= minimal.value
    if minimal.direction == "negative":
        return -b.value >= minimal.value
    return True


def contour_grid(delta_m_range, theta_range, resolution: int, threshold: float):
    """Bias factors over a grid of (mean difference, confounder effect).

    Returns four flat columns of resolution**2 cells in row-major order,
    delta_m varying slowest: delta_m, theta and bias_factor as float64
    arrays and explains (bias_factor >= threshold) as a bool array.
    Deterministic for identical inputs. A grid too large to allocate is
    refused with a DomainError naming the resolution and the cell count.
    """
    if resolution < 2:
        raise DomainError(f"resolution must be >= 2, got {resolution}")
    d_lo, d_hi = map(float, delta_m_range)
    t_lo, t_hi = map(float, theta_range)
    if not (d_lo <= d_hi and t_lo <= t_hi):
        raise DomainError("ranges must be ordered (lo, hi)")
    # the three float columns are allocated first, so a grid past memory is
    # refused before anything of its size is written
    try:
        deltas, thetas, bias = np.empty((3, resolution, resolution))
    except (MemoryError, ValueError) as exc:
        raise DomainError(
            f"resolution {resolution} asks for {resolution * resolution:,} grid cells, "
            "more than memory holds; give a smaller resolution"
        ) from exc
    # a range or product that overflows gives inf or nan here, which the
    # emitters refuse; numpy's warning would only add lines to stderr
    with np.errstate(over="ignore", invalid="ignore"):
        deltas[...] = np.linspace(d_lo, d_hi, resolution)[:, np.newaxis]
        thetas[...] = np.linspace(t_lo, t_hi, resolution)
        np.multiply(deltas, thetas, out=bias)
        explains = bias >= threshold
    return deltas.ravel(), thetas.ravel(), bias.ravel(), explains.ravel()
