import mpmath
import numpy as np
import pytest
from hypothesis import given, strategies as st

from clustersens import normal
from clustersens.errors import DomainError

mpmath.mp.dps = 50


def series_cdf(x):
    """High-precision oracle: Phi(x) = 1/2 + phi(0) * sum_n (-1)^n x^(2n+1) / (n! 2^n (2n+1))."""
    xm = mpmath.mpf(x)
    total = mpmath.mpf(0)
    term_scale = 1 / mpmath.sqrt(2 * mpmath.pi)
    for n in range(0, 400):
        term = (-1) ** n * xm ** (2 * n + 1) / (
            mpmath.factorial(n) * mpmath.mpf(2) ** n * (2 * n + 1)
        )
        total += term
        if abs(term) < mpmath.mpf(10) ** -45 and n > 5:
            break
    return mpmath.mpf(1) / 2 + term_scale * total


# 20 fixed abscissae spanning the central range and both tails
ABSCISSAE = [
    -8.0, -6.5, -5.0, -4.0, -3.0, -2.5, -2.0, -1.5, -1.0, -0.5,
    -0.1, 0.0, 0.25, 0.75, 1.25, 2.0, 3.5, 4.5, 6.0, 8.0,
]


@pytest.mark.parametrize("x", ABSCISSAE)
def test_cdf_matches_series_oracle(x):
    assert abs(normal.cdf(x) - float(series_cdf(x))) < 1e-12


@pytest.mark.parametrize("x", ABSCISSAE)
def test_ppf_inverts_series_oracle(x):
    p = float(series_cdf(x))
    if 0.0 < p < 1.0:
        # ppf error measured on the probability scale through the oracle
        assert abs(float(series_cdf(normal.ppf(p))) - p) < 1e-12


def test_ppf_known_points():
    assert normal.ppf(0.5) == 0.0
    assert abs(normal.ppf(0.975) - 1.959963984540054) < 1e-12
    assert abs(normal.ppf(0.6) - 0.2533471031357997) < 1e-12
    assert normal.ppf(0.0) == -np.inf
    assert normal.ppf(1.0) == np.inf


def test_ppf_rejects_out_of_range():
    with pytest.raises(DomainError):
        normal.ppf(-0.1)
    with pytest.raises(DomainError):
        normal.ppf(1.5)
    with pytest.raises(DomainError):
        normal.ppf(float("nan"))
    with pytest.raises(DomainError):
        normal.ppf(np.array([0.2, np.nan, 0.7]))


@given(st.floats(min_value=-5.0, max_value=5.0, allow_nan=False))
def test_round_trip_cdf_ppf(x):
    # beyond |x| ~ 5.5 the double representation of p itself limits the
    # round trip, so the tail accuracy is checked through the series oracle
    p = normal.cdf(x)
    assert abs(normal.ppf(p) - x) < 1e-9 * max(1.0, abs(x))


@given(st.floats(min_value=1e-12, max_value=1 - 1e-12))
def test_round_trip_ppf_cdf(p):
    assert abs(normal.cdf(normal.ppf(p)) - p) < 1e-13


def test_vectorized_matches_scalar():
    xs = np.array(ABSCISSAE)
    np.testing.assert_allclose(normal.cdf(xs), [normal.cdf(v) for v in xs], rtol=0, atol=0)
    ps = np.linspace(0.01, 0.99, 17)
    np.testing.assert_allclose(normal.ppf(ps), [normal.ppf(v) for v in ps], rtol=0, atol=0)


def test_pdf_matches_derivative_scale():
    # centered difference of the cdf approximates the density
    for x in (-2.0, -0.3, 0.0, 1.1, 2.7):
        h = 1e-6
        numeric = (normal.cdf(x + h) - normal.cdf(x - h)) / (2 * h)
        assert abs(numeric - normal.pdf(x)) < 1e-9
