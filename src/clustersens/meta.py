"""Random-effects meta-analysis pooling and multi-study sensitivity quantities.

Pooling uses the DerSimonian-Laird moment estimator for the between-study
variance (truncated at zero). The sensitivity side asks how strongly a
bias shared across studies must act to pull the probability of a
meaningful effect below a chosen threshold.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Sequence

from . import normal
from .errors import DomainError, SchemaError, ValidationError, VarianceDominationError

POSITIVE = "positive"
NEGATIVE = "negative"
_DIRECTIONS = (POSITIVE, NEGATIVE)


@dataclass(frozen=True)
class StudyEffect:
    study_id: str
    estimate: float
    within_variance: float

    def __post_init__(self):
        if not math.isfinite(self.estimate):
            raise ValidationError(
                f"study {self.study_id!r}: estimate must be finite, got {self.estimate}"
            )
        if not (math.isfinite(self.within_variance) and self.within_variance > 0.0):
            raise ValidationError(
                f"study {self.study_id!r}: within-study variance must be finite and > 0, "
                f"got {self.within_variance}"
            )


@dataclass(frozen=True)
class MetaFit:
    """Pooled mean, between-study variance (>= 0), and heterogeneity statistic."""

    mu_hat: float
    v_hat: float
    se_mu: float
    q_statistic: float
    k: int

    def __post_init__(self):
        if not self.v_hat >= 0.0:  # also rejects nan
            raise ValidationError(f"between-study variance v_hat must be >= 0, got {self.v_hat}")


@dataclass(frozen=True)
class BiasDistribution:
    """Normal law of the per-study bias factor."""

    mu_b: float
    v_b: float

    def __post_init__(self):
        if self.v_b < 0.0:
            raise ValidationError(f"bias variance must be >= 0, got {self.v_b}")


@dataclass(frozen=True)
class PqSpec:
    """Meaningful effect size q and probability threshold r, 0 < r < 0.5."""

    q: float
    r: float

    def __post_init__(self):
        if not 0.0 < self.r < 0.5:
            raise DomainError(
                f"r must lie strictly inside (0, 0.5) for the constant-bias bound, got {self.r}"
            )


def pool(studies: Sequence[StudyEffect]) -> MetaFit:
    """DerSimonian-Laird random-effects pooling of study estimates."""
    if len(studies) < 2:
        raise ValidationError(f"pooling needs at least 2 studies, got {len(studies)}")
    k = len(studies)
    w = [1.0 / s.within_variance for s in studies]
    s1 = sum(w)
    fixed_mean = sum(wi * s.estimate for wi, s in zip(w, studies)) / s1
    q_stat = sum(wi * (s.estimate - fixed_mean) ** 2 for wi, s in zip(w, studies))
    s2 = sum(wi * wi for wi in w)
    c = s1 - s2 / s1
    v_hat = max(0.0, (q_stat - (k - 1)) / c) if c > 0 else 0.0
    w_re = [1.0 / (s.within_variance + v_hat) for s in studies]
    total = sum(w_re)
    mu_hat = sum(wi * s.estimate for wi, s in zip(w_re, studies)) / total
    return MetaFit(
        mu_hat=mu_hat,
        v_hat=v_hat,
        se_mu=math.sqrt(1.0 / total),
        q_statistic=q_stat,
        k=k,
    )


def dl_variance_of_v_hat(studies: Sequence[StudyEffect], v_hat: float) -> float:
    """Large-sample variance of the DerSimonian-Laird between-study variance.

    Moments of Cochran's Q with fixed inverse-variance weights give
    Var(Q) = 2(k-1) + 4 c tau^2 + 2 d tau^4 and Var(tau^2) = Var(Q)/c^2.
    """
    k = len(studies)
    w = [1.0 / s.within_variance for s in studies]
    s1 = sum(w)
    s2 = sum(wi**2 for wi in w)
    s3 = sum(wi**3 for wi in w)
    c = s1 - s2 / s1
    d = s2 - 2.0 * s3 / s1 + s2**2 / s1**2
    var_q = 2.0 * (k - 1) + 4.0 * c * v_hat + 2.0 * d * v_hat**2
    return var_q / c**2


def _check_direction(direction: str) -> None:
    if direction not in _DIRECTIONS:
        raise ValidationError(f"direction must be one of {_DIRECTIONS}, got {direction!r}")


def p_of_q(fit: MetaFit, bias: BiasDistribution, q: float, direction: str = POSITIVE) -> float:
    """Probability that a study-level true effect lies beyond q after debiasing.

    For an apparently negative effect the bias argument is the reversed
    bias (the shift that moves estimates upward), and "beyond q" means
    below q.
    """
    _check_direction(direction)
    if fit.v_hat <= bias.v_b:
        raise VarianceDominationError(
            f"between-study variance {fit.v_hat} must strictly exceed "
            f"the bias variance {bias.v_b}"
        )
    spread = math.sqrt(fit.v_hat - bias.v_b)
    if direction == POSITIVE:
        return 1.0 - normal.cdf((q + bias.mu_b - fit.mu_hat) / spread)
    return normal.cdf((q - bias.mu_b - fit.mu_hat) / spread)


@dataclass(frozen=True)
class CommonBiasResult:
    """Minimal constant bias factor across studies.

    A non-positive value means the probability criterion already fails
    with no confounding at all; it is returned unclamped so that
    p_of_q(value) = r remains exactly invertible.
    """

    value: float
    direction: str

    @property
    def already_not_meaningful(self) -> bool:
        return self.value <= 0.0


def minimal_common_bias(fit: MetaFit, spec: PqSpec, direction: str = POSITIVE) -> CommonBiasResult:
    """Smallest study-constant bias reducing P(effect beyond q) to r."""
    _check_direction(direction)
    root_v = math.sqrt(fit.v_hat)
    if direction == POSITIVE:
        value = normal.ppf(1.0 - spec.r) * root_v - spec.q + fit.mu_hat
    else:
        value = spec.q - normal.ppf(spec.r) * root_v - fit.mu_hat
    return CommonBiasResult(value=value, direction=direction)


def explains_away_meta(
    fit: MetaFit, bias: BiasDistribution, spec: PqSpec, direction: str = POSITIVE
) -> bool:
    """Whether a bias distribution's mean reaches the minimal common bias.

    Equality counts: any bias with mean at or above the minimal constant
    bias explains the pooled effect away.
    """
    return bias.mu_b >= minimal_common_bias(fit, spec, direction).value


def load_studies_csv(path) -> list[StudyEffect]:
    """Study-level CSV with columns study_id, estimate, std_error."""
    required = ("study_id", "estimate", "std_error")
    studies = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise SchemaError(f"{path}: empty file, header row required")
        for col in required:
            if col not in reader.fieldnames:
                raise SchemaError(f"{path}: missing required column {col!r}")
        for row_num, row in enumerate(reader, start=1):
            try:
                estimate = float(row["estimate"])
                std_error = float(row["std_error"])
            except (TypeError, ValueError) as exc:
                raise ValidationError(f"{path}: unparseable number at row {row_num}") from exc
            if not math.isfinite(estimate):
                raise ValidationError(
                    f"{path}: estimate at row {row_num} must be finite, got {estimate}"
                )
            if not (math.isfinite(std_error) and std_error > 0.0):
                raise ValidationError(
                    f"{path}: std_error at row {row_num} must be finite and > 0, got {std_error}"
                )
            studies.append(
                StudyEffect(
                    study_id=row["study_id"],
                    estimate=estimate,
                    within_variance=std_error**2,
                )
            )
    return studies
