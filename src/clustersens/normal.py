"""Standard normal CDF, density, and quantile function.

``cdf`` goes through the complementary error function and ``ppf`` is
scipy's ``ndtri``; both are accurate to well below 1e-12 in absolute
terms over the usable double range and accept scalars or numpy arrays.
``two_sided_quantile`` is the Wald interval's critical value, computed
once per confidence level.
"""

from __future__ import annotations

import functools

import numpy as np
from scipy import special

from .errors import DomainError

_SQRT2 = float(np.sqrt(2.0))
_INV_SQRT_2PI = 1.0 / float(np.sqrt(2.0 * np.pi))


def cdf(x):
    """P(Z <= x) for standard normal Z."""
    arr = np.asarray(x, dtype=float)
    out = 0.5 * special.erfc(-arr / _SQRT2)
    return float(out) if arr.ndim == 0 else out


def pdf(x):
    """Standard normal density."""
    arr = np.asarray(x, dtype=float)
    with np.errstate(over="ignore"):  # a square past the float range has density 0
        out = _INV_SQRT_2PI * np.exp(-0.5 * arr * arr)
    return float(out) if arr.ndim == 0 else out


def ppf(p):
    """Quantile function: the x with cdf(x) = p.

    Returns -inf/+inf at p = 0/1 and raises DomainError outside [0, 1].
    """
    arr = np.asarray(p, dtype=float)
    if not ((arr >= 0.0) & (arr <= 1.0)).all():  # also false for NaN
        raise DomainError(f"probability outside [0, 1]: {p!r}")
    out = special.ndtri(arr)
    return float(out) if arr.ndim == 0 else out


@functools.lru_cache(maxsize=16)
def two_sided_quantile(level: float) -> float:
    """The z with P(|Z| <= z) = level, that is ``ppf((1 + level) / 2)``, cached per level."""
    return ppf(0.5 * (1.0 + level))
