"""Single-study sensitivity analysis for unmeasured confounding.

A confounded conditional effect (the treatment contrast from the model
that omits the confounder) is shifted by a bias factor to recover the
causal contrast. The minimal bias factor is the smallest shift that moves
the confidence interval to the null; specs describe hypothetical
confounders and map to bias factors in closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

import numpy as np

from . import normal
from .errors import DomainError, ValidationError
from .mixed_models import MixedModelFit, icc_logistic

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
    z = normal.ppf(0.5 * (1.0 + level))
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

    Returns row-major rows (delta_m, theta, bias_factor, explains) with
    delta_m varying slowest; explains is bias >= threshold. Deterministic
    for identical inputs.
    """
    if resolution < 2:
        raise DomainError(f"resolution must be >= 2, got {resolution}")
    d_lo, d_hi = map(float, delta_m_range)
    t_lo, t_hi = map(float, theta_range)
    if not (d_lo <= d_hi and t_lo <= t_hi):
        raise DomainError("ranges must be ordered (lo, hi)")
    # a range or product that overflows gives inf or nan here, which the
    # emitters refuse; numpy's warning would only add lines to stderr
    with np.errstate(over="ignore", invalid="ignore"):
        deltas, thetas = np.meshgrid(
            np.linspace(d_lo, d_hi, resolution), np.linspace(t_lo, t_hi, resolution),
            indexing="ij",
        )
        bias = deltas * thetas
    return list(
        zip(deltas.ravel().tolist(), thetas.ravel().tolist(), bias.ravel().tolist(),
            (bias >= threshold).ravel().tolist())
    )
