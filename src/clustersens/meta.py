"""Random-effects meta-analysis pooling and multi-study sensitivity quantities.

Pooling uses the DerSimonian-Laird moment estimator for the between-study
variance (truncated at zero). The sensitivity side asks how strongly a
bias shared across studies must act to pull the probability of a
meaningful effect below a chosen threshold.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from typing import Sequence

from . import normal
from .dataset import _parse_column, _path_prefixed, _read_columns
from .errors import DomainError, ValidationError, VarianceDominationError

POSITIVE = "positive"
NEGATIVE = "negative"
_DIRECTIONS = (POSITIVE, NEGATIVE)


def _left_sum(values):
    """The values added one by one, left to right.

    The built-in ``sum`` of floats is compensated from Python 3.12 on
    (``sum([1e16, 1.0, -1e16])`` is 0.0 on 3.11 and 1.0 on 3.12), so the
    package's float sums go through this one, which gives the same bits on
    every Python.
    """
    return functools.reduce(operator.add, values, 0)


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
    """DerSimonian-Laird random-effects pooling of study estimates.

    Raises ValidationError for fewer than 2 studies, or where Cochran's Q or
    the between-study variance overflows the float range.
    """
    if len(studies) < 2:
        raise ValidationError(f"pooling needs at least 2 studies, got {len(studies)}")
    k = len(studies)
    w = [1.0 / s.within_variance for s in studies]
    s1 = _left_sum(w)
    fixed_mean = _left_sum(wi * s.estimate for wi, s in zip(w, studies)) / s1
    try:
        q_stat = _left_sum(wi * (s.estimate - fixed_mean) ** 2 for wi, s in zip(w, studies))
    except OverflowError:  # float ** raises where a deviation past ~1e154 is squared
        q_stat = math.inf
    s2 = _left_sum(wi * wi for wi in w)
    c = s1 - s2 / s1
    v_hat = max(0.0, (q_stat - (k - 1)) / c) if c > 0 else 0.0
    if not (math.isfinite(q_stat) and math.isfinite(v_hat)):
        raise ValidationError(
            "Cochran's Q or the between-study variance overflows the float range: "
            "the study estimates or their weights are too large in magnitude to pool"
        )
    w_re = [1.0 / (s.within_variance + v_hat) for s in studies]
    total = _left_sum(w_re)
    mu_hat = _left_sum(wi * s.estimate for wi, s in zip(w_re, studies)) / total
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
    Raises ValidationError where a square of the weights underflows to 0.
    """
    k = len(studies)
    w = [1.0 / s.within_variance for s in studies]
    s1 = _left_sum(w)
    s2 = _left_sum(wi**2 for wi in w)
    s3 = _left_sum(wi**3 for wi in w)
    c = s1 - s2 / s1
    try:
        d = s2 - 2.0 * s3 / s1 + s2**2 / s1**2
        var_q = 2.0 * (k - 1) + 4.0 * c * v_hat + 2.0 * d * v_hat**2
        return var_q / c**2
    except ZeroDivisionError as exc:  # a square of tiny weights underflows to 0
        raise ValidationError(
            "the variance of the between-study variance leaves the float range: "
            "the study weights are too small in magnitude for its moments"
        ) from exc


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
    """Study-level CSV with columns study_id, estimate, std_error, read as by ``load_csv``.

    Each row is one study: a study_id that repeats (as from a duplicated row,
    which would double that study's weight in the pool) is refused, after the
    header and missing-value checks and before number parsing.
    """
    with _path_prefixed(path):
        texts = _read_columns(path, ("study_id", "estimate", "std_error"))
        first_row = {}
        for row_num, study in enumerate(texts["study_id"], start=1):
            if study in first_row:
                raise ValidationError(
                    f"study_id {study!r} repeats at rows {first_row[study]} and {row_num}: "
                    "each row must be a distinct study"
                )
            first_row[study] = row_num
        estimates = _parse_column(texts["estimate"], "estimate").tolist()
        std_errors = _parse_column(texts["std_error"], "std_error").tolist()
        for row_num, (estimate, std_error) in enumerate(zip(estimates, std_errors), start=1):
            if not math.isfinite(estimate):
                raise ValidationError(f"estimate at row {row_num} must be finite, got {estimate}")
            if not (math.isfinite(std_error * std_error) and std_error > 0.0):
                raise ValidationError(
                    f"std_error at row {row_num} must be > 0 with a square, the "
                    f"within-study variance, inside the float range, got {std_error}"
                )
        return [
            StudyEffect(study_id=study, estimate=estimate, within_variance=std_error**2)
            for study, estimate, std_error in zip(texts["study_id"], estimates, std_errors)
        ]
