"""Standard normal CDF, density, and quantile function.

``cdf`` goes through the complementary error function and ``ppf`` is
scipy's ``ndtri``; both are accurate to well below 1e-12 in absolute
terms over the usable double range and accept scalars or numpy arrays.
"""

from __future__ import annotations

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
