"""Random-intercept model fitting for clustered data.

Continuous outcomes: REML with the variance ratio nu/phi profiled out,
which reduces estimation to a one-dimensional search on the log ratio.
``fit_lmm_batch`` concatenates its datasets into one stack
(``dataset._Stack``, the form the simulator builds and fits through
``_fit_reml_stack``), reduces each study to its Gram matrix and
per-cluster-size sums and searches the studies together by a
safeguarded Newton iteration on the closed-form first and second
derivatives of the profile, started from a coarse grid. ``fit_lmm`` fits
one dataset and differs only in that search, a bounded Brent search on
the profile's value; both assemble their fits as arrays in ``_reml_fits``
and as ``MixedModelFit`` objects in ``_fit_objects``. Brent
stops where the rounding of the log-likelihood hides its slope (on 30,000
rows up to about 2e-6 from the maximum in log ratio), so the two agree to
about 1e-6 relative in nu, not bit for bit. Brent is the package's only
use of ``scipy.optimize``, which ``fit_lmm`` imports where it runs, so the
simulation, pooling, contour and binary-fit paths never load
``scipy.optimize``, nor ``scipy.linalg`` with a scipy (1.17 on) whose
``scipy.special`` does not load it. Binary outcomes: each dataset
is reduced once, straight from its columns, to its distinct cluster
patterns and their counts, and both fits work on that reduction. The plain
logistic fit gives the model at nu = 0: its log-likelihood, its
closed-form score in nu, which decides nu = 0, and its information. The
interior fit is maximum marginal likelihood with adaptive Gauss-Hermite
quadrature over the cluster intercept (Liu & Pierce 1994; Pinheiro &
Bates 1995): a Newton iteration over (beta, log nu) on the closed-form
score and observed information of the quadrature sum (Louis 1982, with
the adaptive nodes moving), both from one pass per trial point. Each
Gauss-Hermite rule is built once per process (``_gauss_hermite``).
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np
from numpy.polynomial.hermite import hermgauss
from scipy import special

from .dataset import ClusteredDataset, _json_integer, _json_number, _json_numbers, _Stack
from .errors import ConvergenceError, DomainError, SeparationError, SingularDesignError, ValidationError

LOGISTIC_LATENT_VARIANCE = math.pi**2 / 3.0
_DESIGN_COLUMNS = 4  # intercept, treatment, covariate, interaction
_VAR_FLOOR = 1e-10
_SEPARATION_BOUND = 30.0  # on the logit scale; see _logistic_fit
_MAX_QUADRATURE_POINTS = 100  # criterion 6 shows 15 and 64 nodes agree to 1e-4


# ---------------------------------------------------------------------------
# Fit container and serialization
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MixedModelFit:
    """Confounded-model fit: coefficients for [1, A, X, A*X] plus variance components."""

    scale: str
    coefficients: np.ndarray  # (4,)
    coef_covariance: np.ndarray  # (4, 4)
    random_intercept_variance: float
    residual_variance: Optional[float]  # continuous scale only
    log_likelihood: float
    converged: bool
    boundary: bool = False  # random-intercept variance pinned at zero
    n_obs: int = 0
    n_clusters: int = 0
    quadrature_points: Optional[int] = None
    # fit_lmm: Brent's profile evaluations (nfev); fit_lmm_batch: Newton or
    # bisection steps after the start grid; fit_glmm_logit: Newton steps
    n_iterations: int = 0


def fit_to_json(fit: MixedModelFit) -> str:
    doc = {
        "scale": fit.scale,
        "coefficients": [float(v) for v in fit.coefficients],
        "coef_covariance": [float(v) for v in np.asarray(fit.coef_covariance).ravel()],
        "random_intercept_variance": float(fit.random_intercept_variance),
        "residual_variance": None if fit.residual_variance is None else float(fit.residual_variance),
        "log_likelihood": float(fit.log_likelihood),
        "converged": bool(fit.converged),
        "boundary": bool(fit.boundary),
        "n_obs": int(fit.n_obs),
        "n_clusters": int(fit.n_clusters),
        "quadrature_points": fit.quadrature_points,
        "n_iterations": int(fit.n_iterations),
    }
    return json.dumps(doc, indent=2)


_FIT_REQUIRED_KEYS = (
    "scale", "coefficients", "coef_covariance", "random_intercept_variance",
    "log_likelihood", "converged",
)


def fit_from_json(text: str) -> MixedModelFit:
    """Rebuild a fit from ``fit_to_json`` output.

    Raises ValidationError for malformed JSON, a missing key, an unknown
    scale, a value of the wrong JSON type (``converged`` and ``boundary``
    take booleans, the counts integers >= 0, ``quadrature_points`` null or
    an integer >= 1, every other value numbers), a wrong-sized coefficient
    vector or covariance, non-finite numbers and a negative variance.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"fit document is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ValidationError("fit document must be a JSON object")
    missing = [key for key in _FIT_REQUIRED_KEYS if key not in doc]
    if missing:
        raise ValidationError(f"fit document lacks required key(s): {', '.join(missing)}")
    if doc["scale"] not in ("continuous", "binary"):
        raise ValidationError(f"fit document has unknown scale {doc['scale']!r}")

    def read(key, reader, default=None, nullable=False):
        value = doc.get(key, default)
        if value is None and nullable:
            return None
        try:
            return reader(value)
        except (ValueError, OverflowError) as exc:
            raise ValidationError(
                f"fit document holds a malformed number for {key!r}: {exc}"
            ) from exc

    coefficients = np.array(read("coefficients", _json_numbers), dtype=float)
    cov = np.array(read("coef_covariance", _json_numbers), dtype=float)
    nu = read("random_intercept_variance", _json_number)
    residual = read("residual_variance", _json_number, nullable=True)
    loglik = read("log_likelihood", _json_number)
    count = functools.partial(_json_integer, minimum=0)
    n_obs, n_clusters, n_iterations = (
        read(key, count, 0) for key in ("n_obs", "n_clusters", "n_iterations")
    )
    quadrature_points = read(
        "quadrature_points", functools.partial(_json_integer, minimum=1), nullable=True
    )
    converged, boundary = doc["converged"], doc.get("boundary", False)
    for key, value in (("converged", converged), ("boundary", boundary)):
        if not isinstance(value, bool):
            raise ValidationError(f"fit document needs true or false for {key!r}, got {value!r}")
    if coefficients.shape != (_DESIGN_COLUMNS,):
        raise ValidationError(
            f"fit document needs {_DESIGN_COLUMNS} coefficients, got shape {coefficients.shape}"
        )
    if cov.size != _DESIGN_COLUMNS**2:
        raise ValidationError(
            f"fit document needs {_DESIGN_COLUMNS**2} coef_covariance entries, got {cov.size}"
        )
    numbers = [coefficients, cov, nu, loglik] + ([] if residual is None else [residual])
    if not all(np.all(np.isfinite(v)) for v in numbers):
        raise ValidationError("fit document holds a non-finite number")
    for key, value in (("random_intercept_variance", nu), ("residual_variance", residual)):
        if value is not None and value < 0.0:
            raise ValidationError(f"fit document has a negative {key}: {value}")
    return MixedModelFit(
        scale=doc["scale"],
        coefficients=coefficients,
        coef_covariance=cov.reshape(_DESIGN_COLUMNS, _DESIGN_COLUMNS),
        random_intercept_variance=nu,
        residual_variance=residual,
        log_likelihood=loglik,
        converged=converged,
        boundary=boundary,
        n_obs=n_obs,
        n_clusters=n_clusters,
        quadrature_points=quadrature_points,
        n_iterations=n_iterations,
    )


# ---------------------------------------------------------------------------
# Shared design preparation
# ---------------------------------------------------------------------------


def _prepare(ds: ClusteredDataset):
    """Design matrix and contiguous cluster blocks (rows stably sorted by cluster).

    The sort is needed because CSV input need not list a cluster's rows
    together.
    """
    order = np.argsort(ds.cluster_codes, kind="stable")
    y, a, x = ds.outcome[order], ds.treatment[order], ds.covariate_x[order]
    codes = ds.cluster_codes[order]
    design = np.column_stack([np.ones_like(y), a, x, a * x])
    sizes = np.bincount(codes)
    starts = np.concatenate([[0], np.cumsum(sizes)[:-1]])
    return y, design, codes, sizes, starts


def _design_grams(blocks):
    """Stacked Gram matrices B'B of row blocks whose first four columns are the design.

    Raises ValidationError where a cross-product overflows (before the rank
    check meets an infinity), SingularDesignError unless every design block
    has full rank.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        grams = np.stack([block.T @ block for block in blocks])
    if not np.all(np.isfinite(grams)):
        raise ValidationError(
            "cross-products of the data overflow the float range: "
            "a covariate_x or outcome value is too large in magnitude"
        )
    if np.any(np.linalg.matrix_rank(grams[:, :_DESIGN_COLUMNS, :_DESIGN_COLUMNS]) < _DESIGN_COLUMNS):
        raise SingularDesignError(
            "design matrix [1, treatment, covariate, interaction] is rank deficient"
        )
    return grams


# ---------------------------------------------------------------------------
# Linear mixed model (continuous outcome, REML)
# ---------------------------------------------------------------------------

_LOG_RATIO_BOUNDS = (math.log(_VAR_FLOOR), math.log(1e8))
_START_GRID = np.linspace(*_LOG_RATIO_BOUNDS, 32)
_NEWTON_XTOL = 1e-5
# at or below: ratio exactly 0. A search closing on the floor stops within
# _NEWTON_XTOL of it, so the boundary test allows twice that.
_BOUNDARY_LOG_RATIO = _LOG_RATIO_BOUNDS[0] + 2.0 * _NEWTON_XTOL
_NEWTON_MAX_STEPS = 100
_RSS_FLOOR = 1e-300
_AUGMENTED = _DESIGN_COLUMNS + 1  # [X, y]


@dataclass(frozen=True)
class _RemlStatistics:
    """Sufficient statistics of a stack of K continuous datasets.

    y is centred per study on ``y_mean``, which moves only beta_0 and keeps
    rss from cancelling when y sits far from 0. ``gram`` holds
    [X, y]'[X, y] per study. Clusters are grouped by study and by size, one
    slot per distinct size n in ``sizes``: ``terms[k, s]`` holds the sum of
    the 5x5 outer products of the [X, y] sums of study k's clusters of
    size ``sizes[s]`` (25 columns), then count * n and the cluster count
    (zero where study k has no cluster of that size).
    """

    gram: np.ndarray  # (K, 5, 5)
    dof: np.ndarray  # (K,) observations minus coefficients
    sizes: np.ndarray  # (S,)
    terms: np.ndarray  # (K, S, 27)
    y_mean: np.ndarray  # (K,)


def _reml_statistics(stack: _Stack) -> _RemlStatistics:
    """Validate a stack of continuous studies and reduce each to sufficient statistics."""
    if stack.scale != "continuous":
        raise ValidationError(f"REML fits require continuous-scale datasets, got {stack.scale!r}")
    rows, clusters = stack.rows, stack.clusters
    few = clusters < 2
    if few.any():
        # one cluster's intercept is confounded with beta_0: nu is not identified
        raise ValidationError(f"REML fit needs at least 2 clusters, got {clusters[few.argmax()]}")
    a, x = stack.treatment, stack.covariate_x
    ends = np.cumsum(rows)
    starts = ends - rows
    # an outcome sum past the float range is left to _design_grams to report
    with np.errstate(over="ignore", invalid="ignore"):
        y_mean = np.add.reduceat(stack.outcome, starts) / rows
        y = stack.outcome - np.repeat(y_mean, rows)
    data = np.column_stack([np.ones_like(y), a, x, a * x, y])
    gram = _design_grams([data[s:e] for s, e in zip(starts.tolist(), ends.tolist())])
    if np.any(rows <= _DESIGN_COLUMNS):
        raise ValidationError("not enough observations to estimate four coefficients")

    codes = stack.cluster_codes
    total = int(clusters.sum())
    sums = np.column_stack(
        [np.bincount(codes, weights=column, minlength=total) for column in data.T]
    )  # each cluster's sums of [X, y]; column 0 is its size
    sizes, level = np.unique(sums[:, 0], return_inverse=True)
    cell = np.repeat(np.arange(rows.size) * sizes.size, clusters) + level
    order = np.argsort(cell, kind="stable")
    firsts = np.flatnonzero(np.diff(cell[order], prepend=-1))
    filled = cell[order][firsts]
    counts = np.diff(firsts, append=total)
    ordered, bounds = sums[order], [*firsts.tolist(), total]
    cells = (ordered[s:e] for s, e in zip(bounds, bounds[1:]))
    outer = np.stack([part.T @ part for part in cells])
    terms = np.zeros((rows.size * sizes.size, _AUGMENTED**2 + 2))
    terms[filled] = np.column_stack(
        [outer.reshape(filled.size, -1), counts * sizes[filled % sizes.size], counts]
    )
    return _RemlStatistics(
        gram=gram,
        dof=(rows - _DESIGN_COLUMNS).astype(float),
        sizes=sizes,
        terms=terms.reshape(rows.size, sizes.size, -1),
        y_mean=y_mean,
    )


def _ratio(log_ratio):
    """nu/phi for a log ratio; at or below the boundary the ratio is exactly 0."""
    return np.where(log_ratio > _BOUNDARY_LOG_RATIO, np.exp(log_ratio), 0.0)


def _reml_values(stats: _RemlStatistics, log_ratio):
    """Profiled REML log-likelihood at log variance ratios of shape (..., K).

    With W_j = I + ratio * 11', W_j^{-1} = I - c_j 11' for
    c_j = ratio / (1 + ratio * n_j), so A = [X, y]' W^{-1} [X, y] is the
    Gram matrix minus the c-weighted per-size sums, and log det W is the
    count-weighted sum of log(1 + ratio n). Returns (loglik, beta,
    phi, xtwx), each with the leading shape of ``log_ratio``. The
    log-likelihood is -inf where X'W^{-1}X is not positive definite: at a
    large ratio with cluster-level covariates it is a difference of nearly
    equal terms whose rounding can flip its sign.
    """
    r = _ratio(log_ratio)[..., None, None]
    rn = r * stats.sizes
    sums = np.concatenate([r / (1.0 + rn), np.log1p(rn)], axis=-2) @ stats.terms
    shape = log_ratio.shape + (_AUGMENTED, _AUGMENTED)
    aug = stats.gram - sums[..., 0, : _AUGMENTED**2].reshape(shape)
    q = _DESIGN_COLUMNS
    xtwx = aug[..., :q, :q]
    sign, logdet_xtwx = np.linalg.slogdet(xtwx)
    definite = sign > 0
    # the identity stands in for an indefinite matrix so the stack still solves
    solvable = np.where(definite[..., None, None], xtwx, np.eye(q))
    beta = np.linalg.solve(solvable, aug[..., :q, q:])[..., 0]
    rss = np.maximum(aug[..., q, q] - np.sum(aug[..., q, :q] * beta, axis=-1), _RSS_FLOOR)
    phi = rss / stats.dof
    loglik = -0.5 * (
        stats.dof * (np.log(phi) + 1.0 + math.log(2.0 * math.pi)) + sums[..., 1, -1] + logdet_xtwx
    )
    beta[..., 0] += stats.y_mean
    return np.where(definite, loglik, -np.inf), beta, phi, xtwx


def _reml_slope_curvature(stats: _RemlStatistics, log_ratio):
    """First and second derivatives of the profiled REML log-likelihood in u = log ratio.

    With c' = c (1 - c n) and c'' = c' (1 - 2 c n), the u-derivatives of
    A = [X, y]' W^{-1} [X, y] are -A1 and -A2, the c'- and c''-weighted
    per-size sums. For M = X'W^{-1}X and e = [-beta, 1], the residual sum
    rss = e'Ae has d rss/du = -e'A1e and d^2 rss/du^2 = -e'A2e - 2 g'M^{-1}g
    with g = (A1 e)[:4]; log det M has -tr(M^{-1}M1) and
    -tr(M^{-1}M2) - tr((M^{-1}M1)^2); log det W has sum(count n c) and
    sum(count n c'). Where rss sits at its floor its log is constant in u.
    ``log_ratio`` has shape (K,); u at the floor keeps its ratio e^u here,
    so the slope there says whether the profile rises off the bound.
    """
    k = log_ratio.size
    r = np.exp(log_ratio)[:, None, None]
    rn = r * stats.sizes
    shrink = 1.0 / (1.0 + rn)
    c = r * shrink
    c1 = c * shrink
    sums = np.concatenate([c, c1, c1 * shrink * (1.0 - rn)], axis=1) @ stats.terms  # (K, 3, 27)
    mats = sums[..., : _AUGMENTED**2].reshape(k, 3, _AUGMENTED, _AUGMENTED)  # A, A1, A2
    mats[:, 0] = stats.gram - mats[:, 0]
    q = _DESIGN_COLUMNS
    # M^{-1} times [M, b], A1[:4] and A2[:4]
    sol = np.linalg.inv(mats[:, :1, :q, :q]) @ mats[:, :, :q, :]
    e = np.concatenate([-sol[:, 0, :, q], np.ones((k, 1))], axis=1)
    mats_e = (mats @ e[:, None, :, None])[..., 0]  # A e, A1 e, A2 e
    rss, e_a1_e, e_a2_e = (mats_e @ e[:, :, None])[..., 0].T
    g_minv_g = np.einsum("ki,ki->k", mats_e[:, 1, :q], (sol[:, 1] @ e[:, :, None])[..., 0])
    live = rss > _RSS_FLOOR
    rss = np.maximum(rss, _RSS_FLOOR)
    # a slope past the float range is left to the caller, as in _reml_statistics
    with np.errstate(over="ignore", invalid="ignore"):
        log_rss1 = np.where(live, -e_a1_e / rss, 0.0)
        log_rss2 = np.where(live, (-e_a2_e - 2.0 * g_minv_g) / rss, 0.0) - log_rss1**2
    m1 = sol[:, 1, :, :q]
    traces = np.trace(sol[:, 1:, :, :q], axis1=-2, axis2=-1)
    slope = -0.5 * (stats.dof * log_rss1 + sums[:, 0, -2] - traces[:, 0])
    curvature = -0.5 * (
        stats.dof * log_rss2 + sums[:, 1, -2] - traces[:, 1] - np.einsum("kij,kji->k", m1, m1)
    )
    return slope, curvature


def _maximize_log_ratio(stats: _RemlStatistics):
    """Safeguarded Newton search for every study's REML log ratio at once.

    Evaluates the profile on a coarse grid over the log-ratio bounds,
    brackets the maximum between the best grid point's neighbours and
    starts at the vertex of the parabola through those three points. Each
    step narrows the bracket on the sign of the slope and takes the Newton
    step, or bisects where that step leaves the bracket or fails to halve
    the previous one. A study stops once its step is below 1e-5 (the
    iterate is then within about 1e-10 of the maximum), or its bracket has
    closed at a bound. Near the floor the profile is linear in the ratio,
    every Newton step is about -1 and the search bisects toward the floor,
    ending within 1e-5 of it. Returns the log ratios and the steps each
    study took.
    """
    k = stats.dof.size
    grid = _START_GRID
    values = _reml_values(stats, np.repeat(grid[:, None], k, axis=1))[0]
    best = np.argmax(values, axis=0)
    below, above = np.maximum(best - 1, 0), np.minimum(best + 1, grid.size - 1)
    lo, hi = grid[below], grid[above]
    # vertex of the parabola through the best grid point and its neighbours,
    # kept in the bracket (at a bound the missing neighbour is the point
    # itself; a -inf neighbour, where X'W^{-1}X is indefinite, leaves the
    # start at the grid point)
    f_lo, f_mid, f_hi = (values[i, np.arange(k)] for i in (below, best, above))
    bend = f_lo - 2.0 * f_mid + f_hi
    parabola = np.isfinite(bend) & (bend < 0.0)
    shift = np.divide(f_lo - f_hi, 2.0 * bend, out=np.zeros(k), where=parabola)
    u = np.clip(grid[best] + shift * (grid[1] - grid[0]), lo, hi)
    previous = hi - lo
    steps = np.zeros(k, dtype=int)
    active = np.ones(k, dtype=bool)
    for _ in range(_NEWTON_MAX_STEPS):
        slope, curvature = _reml_slope_curvature(stats, u)
        steps += active
        rising = slope > 0.0
        lo = np.where(rising, u, lo)
        hi = np.where(rising, hi, u)
        newton = -np.divide(slope, curvature, out=np.full(k, np.inf), where=curvature < 0.0)
        inside = (lo <= u + newton) & (u + newton <= hi)
        accept = inside & (np.abs(newton) <= 0.5 * np.abs(previous))
        step = np.where(accept, newton, 0.5 * (lo + hi) - u)
        previous = np.where(active, step, previous)
        u = np.where(active, u + step, u)
        active &= (np.abs(step) > _NEWTON_XTOL) & (hi - lo > _NEWTON_XTOL)
        if not active.any():
            return u, steps
    worst = int(np.argmax(active))
    raise ConvergenceError(
        f"REML Newton search did not converge within {_NEWTON_MAX_STEPS} steps",
        best={"log_ratio": float(u[worst])},
    )


def fit_lmm_batch(datasets) -> list[MixedModelFit]:
    """REML fits of the random-intercept model [1, A, X, A*X] @ beta, one per dataset.

    Every dataset is reduced once to its Gram matrix and per-cluster-size
    sums, so a search step costs the same whatever its cluster count. The
    variance ratio nu/phi is profiled out and each study's log ratio is
    maximized by a safeguarded Newton iteration on the closed-form first
    and second derivatives, run for all studies at once. The datasets are
    concatenated into one stack and fitted by ``_fit_reml_stack``, the
    simulator's path.

    Raises ValidationError for an empty batch, a non-continuous dataset,
    one with fewer than 2 clusters or one with at most four observations,
    SingularDesignError if any design is rank deficient or its X'W^{-1}X
    is not positive definite at the optimum, and ConvergenceError if any
    search fails: one bad dataset fails the whole batch.
    """
    if not datasets:
        raise ValidationError("fit_lmm_batch needs at least one dataset")
    stack = _Stack.of(datasets)
    return _fit_objects(stack, _fit_reml_stack(stack))


class _RemlFits(NamedTuple):
    """A stack's K REML fits as arrays; see ``MixedModelFit`` for the fields."""

    coefficients: np.ndarray  # (K, 4)
    coef_covariance: np.ndarray  # (K, 4, 4)
    random_intercept_variance: np.ndarray  # (K,)
    residual_variance: np.ndarray  # (K,)
    log_likelihood: np.ndarray  # (K,)
    boundary: np.ndarray  # (K,) bool
    n_iterations: np.ndarray  # (K,) int


def _fit_reml_stack(stack: _Stack) -> _RemlFits:
    """``fit_lmm_batch`` on a stack, the fits as arrays."""
    stats = _reml_statistics(stack)
    log_ratio, steps = _maximize_log_ratio(stats)
    return _reml_fits(stats, log_ratio, steps)


def _reml_fits(stats: _RemlStatistics, log_ratio, steps) -> _RemlFits:
    """GLS fits, with their GLS covariance, at each study's searched log ratio (K,).

    A log ratio within 2e-5 of its lower bound is reported as
    random_intercept_variance 0 with the boundary flag set: a plain OLS fit.
    """
    loglik, beta, phi, xtwx = _reml_values(stats, log_ratio)
    if not np.all(np.isfinite(loglik)):
        raise SingularDesignError("weighted design cross-product is singular")
    ratio = _ratio(log_ratio)
    cov = phi[:, None, None] * np.linalg.inv(xtwx)
    cov = 0.5 * (cov + np.swapaxes(cov, 1, 2))
    return _RemlFits(beta, cov, ratio * phi, phi, loglik, ratio == 0.0, steps)


def _fit_objects(stack: _Stack, fits: _RemlFits) -> list[MixedModelFit]:
    """One ``MixedModelFit`` per study of a stack, from its REML fits."""
    columns = {
        name: column if column.ndim > 1 else column.tolist()
        for name, column in fits._asdict().items()
    }
    columns.update(n_obs=stack.rows.tolist(), n_clusters=stack.clusters.tolist())
    return [
        MixedModelFit(scale="continuous", converged=True, **dict(zip(columns, values)))
        for values in zip(*columns.values())
    ]


def _reml_profile(ratio, sizes, xtx, xty, yty, cluster_x_sums, cluster_y_sums, n):
    """Brent's objective: ``_reml_values``'s -loglik from one study's uncentred cluster sums."""
    c = ratio / (1.0 + ratio * sizes)
    xtwx = xtx - (cluster_x_sums.T * c) @ cluster_x_sums
    xtwy = xty - cluster_x_sums.T @ (c * cluster_y_sums)
    ytwy = yty - float(np.dot(c, cluster_y_sums**2))
    sign, logdet_xtwx = np.linalg.slogdet(xtwx)
    if sign <= 0:
        raise SingularDesignError("weighted design cross-product is singular")
    beta = np.linalg.solve(xtwx, xtwy)
    rss = max(ytwy - float(np.dot(xtwy, beta)), 1e-300)
    dof = n - _DESIGN_COLUMNS
    phi = rss / dof
    logdet_w = float(np.sum(np.log1p(ratio * sizes)))
    return 0.5 * (dof * (math.log(phi) + 1.0 + math.log(2.0 * math.pi)) + logdet_w + float(logdet_xtwx))


def fit_lmm(ds: ClusteredDataset) -> MixedModelFit:
    """REML fit of a random-intercept model with mean [1, A, X, A*X] @ beta.

    Differs from ``fit_lmm_batch([ds])[0]`` only in the search for the log
    ratio nu/phi: a bounded Brent search on the profile's value, which the
    benchmark's recorded figures come from (it stops within the value's
    rounding, about 1e-6 relative in nu from the batch's optimum). It is
    the only caller of ``scipy.optimize`` in the package and imports it on
    its first call, so a process that never calls it never loads it.
    """
    # Imported here, not at module level: scipy.optimize brings scipy.linalg
    # with it, and at import they cost every process 24 MB of peak memory
    # and 0.24 s of start-up (80.6 against 56.6 MB and 0.62 against 0.38 s
    # for a fresh import of the package, scipy 1.17.1), while only this
    # search uses them. An older scipy.special loads scipy.linalg itself;
    # there only scipy.optimize's 17 MB is saved. Retiring the search
    # (ROADMAP item 2) deletes both.
    from scipy import optimize

    stack = _Stack.of([ds])
    stats = _reml_statistics(stack)
    y, design, _, sizes, starts = _prepare(ds)
    xtx = design.T @ design
    xty = design.T @ y
    yty = float(np.dot(y, y))
    cluster_x_sums = np.add.reduceat(design, starts, axis=0)  # (J, 4)
    cluster_y_sums = np.add.reduceat(y, starts)  # (J,)
    result = optimize.minimize_scalar(
        lambda u: _reml_profile(
            math.exp(u), sizes, xtx, xty, yty, cluster_x_sums, cluster_y_sums, y.size
        ),
        bounds=_LOG_RATIO_BOUNDS,
        method="bounded",
        options={"xatol": 1e-9, "maxiter": 200},
    )
    if not result.success:
        raise ConvergenceError(
            f"REML search did not converge within 200 iterations: {result.message}",
            best={"log_ratio": float(result.x)},
        )
    fits = _reml_fits(stats, np.array([result.x]), np.array([result.nfev]))
    return _fit_objects(stack, fits)[0]


# ---------------------------------------------------------------------------
# Logistic mixed model (binary outcome, adaptive Gauss-Hermite)
# ---------------------------------------------------------------------------


def _cluster_patterns(ds: ClusteredDataset):
    """One representative per distinct cluster, and how many clusters it stands for.

    Two clusters of one size whose unit rows (a, x, y) agree as multisets
    have the same conditional mode, node scale and likelihood term, so the
    marginal likelihood is a count-weighted sum over the distinct patterns
    (the frequency-weighted response patterns of Bock & Aitkin 1981). One
    lexsort keyed first on the cluster code groups the rows by cluster and
    sorts each cluster's rows. The clusters of each size, their sorted rows
    laid side by side as one key row each, are ordered by a second, stable
    lexsort over those key columns; a pattern starts wherever a key row
    differs from the one before, and the gaps between starts are the counts.
    Of clusters whose keys compare equal (0.0 and -0.0 do), the first in
    cluster order stands for them all. Returns y, the design, the sizes and
    the counts of the patterns, ordered by size and then by rows. Continuous
    covariates rarely repeat, and those clusters keep a count of 1.
    """
    y, a, x, codes = ds.outcome, ds.treatment, ds.covariate_x, ds.cluster_codes
    units = np.column_stack([a, x, y])[np.lexsort((y, x, a, codes))]
    sizes = np.bincount(codes)
    starts = np.cumsum(sizes) - sizes
    blocks, counts = [], []
    distinct_sizes = np.unique(sizes)
    for size in distinct_sizes:
        first_rows = starts[sizes == size]
        keys = units[first_rows[:, None] + np.arange(size)].reshape(first_rows.size, -1)
        keys = keys[np.lexsort(keys.T[::-1])]
        first = np.flatnonzero(np.append(True, np.any(keys[1:] != keys[:-1], axis=1)))
        blocks.append(keys[first].reshape(-1, 3))
        counts.append(np.diff(first, append=first_rows.size))
    a, x, y = np.concatenate(blocks).T
    pattern_sizes = np.repeat(distinct_sizes, [count.size for count in counts])
    return (
        y,
        np.column_stack([np.ones_like(y), a, x, a * x]),
        pattern_sizes,
        np.concatenate(counts).astype(float),
    )


def _expit_softplus(eta):
    """expit(eta) and log(1 + exp(eta)) from one exponential of -|eta|.

    Stable for any eta, and about a third of the cost of scipy's expit
    plus numpy's logaddexp on the (observations, nodes) arrays.
    """
    small = np.exp(-np.abs(eta))
    prob = np.where(eta >= 0.0, 1.0, small) / (1.0 + small)
    return prob, np.maximum(eta, 0.0) + np.log1p(small)


def _logistic_fit(y, design, sizes, counts):
    """Plain logistic fit, the model at nu = 0, with each pattern weighted by its count.

    Fits beta by IRLS, raising SeparationError unless a step below 1e-8
    ends it within 25 iterations with every |beta| < 30, then returns, from
    one p at that beta: beta, the log-likelihood, its score in nu at nu = 0
    and the information over beta, X' diag(c p (1 - p)) X with c each row's
    cluster count. With l_j(zeta) the cluster's conditional log-likelihood,
    expanding E[exp(l_j(zeta))] for zeta ~ N(0, nu) to first order in nu
    gives d log L_j / d nu = (l_j'(0)^2 + l_j''(0)) / 2 at nu = 0, where
    l_j' = sum_i (y - p) and l_j'' = -sum_i p (1 - p): the variance-component
    score test of Lin (1997). A score within the rounding of its two sums is
    returned as 0: with singleton clusters and a design that saturates the
    (a, x) cells it is exactly 0, and nu is not identified.
    """
    starts = np.cumsum(sizes) - sizes
    row_counts = np.repeat(counts, sizes)
    # Separation is decided here alone. Along a direction d with d'x >= 0 on
    # every event row and <= 0 on every other, strictly on some (an (a, x)
    # cell of equal outcomes gives one), no row's likelihood given its
    # cluster intercept falls, nor its integral: at no nu, 0 included, is
    # there a maximum (Albert & Anderson 1984). Otherwise beta has a finite
    # maximum at every nu and the iteration in (beta, log nu) needs no wall in
    # beta; at nu = 0 IRLS is Newton on a strictly concave function:
    # estimable designs take <= 8 steps.
    beta = np.zeros(_DESIGN_COLUMNS)
    converged = False
    for _ in range(25):
        eta = design @ beta
        p = special.expit(eta)
        w = np.maximum(p * (1.0 - p), 1e-10)
        z = eta + (y - p) / w
        wx = design * (row_counts * w)[:, None]
        try:
            step_beta = np.linalg.solve(design.T @ wx, wx.T @ z)
        except np.linalg.LinAlgError:
            break
        converged = np.abs(step_beta - beta).max() < 1e-8
        beta = step_beta
        if converged or np.abs(beta).max() > 2 * _SEPARATION_BOUND:
            break
    if not converged or np.abs(beta).max() >= _SEPARATION_BOUND:
        raise SeparationError(
            "logistic fit has no finite maximum (separation)", best={"coefficients": beta.tolist()}
        )
    # p from scipy's expit, as in the IRLS steps; the softplus is the AGQ
    # evaluator's, whose value the boundary gain compares against this one
    eta = design @ beta
    p = special.expit(eta)
    loglik = float(counts @ np.add.reduceat(y * eta - _expit_softplus(eta)[1], starts))
    squares = float(counts @ np.add.reduceat(y - p, starts) ** 2)
    spread = float(counts @ np.add.reduceat(p * (1.0 - p), starts))
    score = 0.5 * (squares - spread)
    if abs(score) <= 8.0 * np.finfo(float).eps * (squares + spread):
        score = 0.0
    info = design.T @ (design * (row_counts * p * (1.0 - p))[:, None])
    return beta, loglik, score, info


@functools.lru_cache(maxsize=None)
def _gauss_hermite(points: int):
    """Gauss-Hermite nodes and weights for the weight exp(-t^2), built once per node count.

    ``hermgauss`` solves an eigenproblem of the n x n companion matrix on
    every call, so each process builds a rule on its first use and shares
    it after; the arrays are read-only for that reason.
    """
    nodes, weights = hermgauss(points)
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


class _AgqLoglik:
    """Marginal log-likelihood, score and observed information with per-cluster adaptive nodes.

    ``derivatives`` returns all three from one pass over the clusters: the
    quadrature sum as computed and its exact first and second derivatives
    in (beta, log nu), with the adaptive nodes moving with the parameters.
    Per cluster j, with conditional mode m, curvature h = sum p(1-p) + 1/nu,
    node scale s = sqrt(2/h) and nodes z_k = m + s t_k,

        L_j = log sum_k exp(g(z_k) + lw_k) + log s - log(2 pi nu)/2,

    so dL_j = E_w[dg(z_k)] + d log s, where w are the posterior node weights
    and dz_k = dm + (z_k - m) d log s. The implicit-function theorem on the
    mode equation gives dm/dbeta = -sum p(1-p) x / h and
    dm/dlog nu = m / (nu h); d log s = -dh / (2h) brings in the logistic
    third derivative p(1-p)(1-2p).

    Rows come in consecutive blocks of ``sizes``, block j standing for
    ``counts[j]`` identical clusters (see ``_cluster_patterns``): the
    log-likelihood, the score and the information are count-weighted sums of
    the per-cluster terms, and their per-row parts weight each row by its
    count.

    Keeps the conditional modes between calls so the inner Newton solve
    warm-starts during the outer iteration.
    """

    def __init__(self, y, design, sizes, counts, quadrature_points):
        self.y = y
        self.design = design
        self.codes = np.repeat(np.arange(sizes.size), sizes)
        self.starts = np.cumsum(sizes) - sizes
        self.counts = counts
        self.row_counts = np.repeat(counts, sizes)
        nodes, weights = _gauss_hermite(quadrature_points)
        self.nodes = nodes
        self.log_weights = np.log(weights) + nodes**2  # exp-scaled weights
        self.modes = np.zeros(sizes.size)

    def derivatives(self, params):
        """Log-likelihood, score and observed information at params = (beta, log nu).

        The information is minus the exact Hessian of the quadrature sum.
        With G_k = g(z_k) as a function of theta = (beta, log nu) through
        both its arguments, d2L_j = E_w[d2G_k] + Cov_w(dG_k) + d2 log s
        (the form of Louis 1982, plus the adaptive nodes' motion), where
        dG_k = dg + g_z dz_k and

            d2G_k = d2g + dg_z dz_k' + dz_k dg_z' + g_zz dz_k dz_k' + g_z d2z_k,
            d2z_k = d2m + (z_k - m) (d2 log s + d log s d log s').

        Differentiating the mode equation g_z(m) = 0 twice gives
        h d2m = -(g3 dm dm' + a3 dm' + dm a3' + q3), and differentiating
        h = -g_zz(m) gives d2h = g4 dm dm' + a4 dm' + dm a4' + g3 d2m + q4,
        with g3 = sum p(1-p)(1-2p), g4 = sum p(1-p)(1-6p(1-p)), a3, a4 minus
        the partials of g_zz and g_zzz, and q3, q4 minus the second partials
        of g_z and g_zz; d2 log s = -d2h / (2h) + 2 d log s d log s'. Only
        count-weighted sums of d2m and d2 log s enter, so they are contracted
        over the clusters before any 5 x 5 product is formed. The
        information is exactly symmetric. Below the variance floor nu is
        held fixed, and the log nu entries of the score and information are 0.
        """
        beta = params[:_DESIGN_COLUMNS]
        nu_raw = math.exp(params[_DESIGN_COLUMNS])
        nu = max(nu_raw, _VAR_FLOOR)
        dlognu = 1.0 if nu_raw >= _VAR_FLOOR else 0.0
        y, design, codes, starts, counts = self.y, self.design, self.codes, self.starts, self.counts
        eta_fixed = design @ beta

        # conditional mode of the intercept per cluster (concave Newton)
        zeta = self.modes.copy()
        for _ in range(60):
            p = special.expit(eta_fixed + zeta[codes])
            grad = np.add.reduceat(y - p, starts) - zeta / nu
            hess = np.add.reduceat(p * (1.0 - p), starts) + 1.0 / nu
            step = np.minimum(np.maximum(grad / hess, -4.0), 4.0)
            zeta += step
            if np.abs(step).max() < 1e-11:
                break
        self.modes = zeta

        p = special.expit(eta_fixed + zeta[codes])
        w = p * (1.0 - p)
        hess = np.add.reduceat(w, starts) + 1.0 / nu
        scale = np.sqrt(2.0 / hess)  # (J,)
        offsets = scale[:, None] * self.nodes[None, :]  # z_k - m, (J, K)
        z_nodes = zeta[:, None] + offsets
        z_squares = z_nodes**2
        prior = z_squares / (2.0 * nu)  # minus the log prior density at the nodes, to a constant
        eta_nodes = eta_fixed[:, None] + z_nodes[codes, :]  # (n, K)
        p_nodes, softplus = _expit_softplus(eta_nodes)
        loglik_terms = y[:, None] * eta_nodes - softplus
        rel = np.add.reduceat(loglik_terms, starts, axis=0) - prior + self.log_weights[None, :]
        shift = rel.max(axis=1)
        expo = np.exp(rel - shift[:, None])
        total = expo.sum(axis=1)
        loglik = float(
            counts @ (np.log(total) + shift + np.log(scale))
            - 0.5 * counts.sum() * math.log(2.0 * math.pi * nu)
        )

        # score: dm, dh per cluster, then E_w[dg] + d log s
        post = expo / total[:, None]  # posterior node weights, (J, K)
        post_rows = post[codes, :]  # (n, K)
        resid = y[:, None] - p_nodes  # (n, K)
        resid_sums = np.add.reduceat(resid, starts, axis=0)
        slope = resid_sums - z_nodes / nu  # dg/dz at the nodes
        post_slope = post * slope
        slope_mean = np.sum(post_slope, axis=1)
        # d log s enters through the node offsets (z_k - m) and through log s itself
        spread = 1.0 + np.sum(post_slope * offsets, axis=1)
        node_squares = np.sum(post * z_squares, axis=1)
        third = w * (1.0 - 2.0 * p)
        third_sums = np.add.reduceat(third, starts)
        dmode_beta = -np.add.reduceat(design * w[:, None], starts, axis=0) / hess[:, None]
        third_x = np.add.reduceat(design * third[:, None], starts, axis=0)
        dhess_beta = third_x + third_sums[:, None] * dmode_beta
        dmode_nu = zeta / (nu * hess)  # dm / d log nu
        dhess_nu = third_sums * dmode_nu - 1.0 / nu
        score_beta = (
            design.T @ (self.row_counts * np.sum(post_rows * resid, axis=1))
            + dmode_beta.T @ (counts * slope_mean)
            - 0.5 * (dhess_beta / hess[:, None]).T @ (counts * spread)
        )
        score_nu = dlognu * float(
            counts
            @ (
                node_squares / (2.0 * nu)
                + slope_mean * dmode_nu
                - 0.5 * spread * dhess_nu / hess
                - 0.5
            )
        )

        # information: node terms, flattened to (J K, 5): dz_k and dG_k
        # centred on its posterior mean
        size = _DESIGN_COLUMNS + 1
        dmode = np.column_stack([dmode_beta, dmode_nu])
        dlog_scale = -np.column_stack([dhess_beta, dhess_nu]) / (2.0 * hess[:, None])
        dz = dmode[:, None, :] + offsets[:, :, None] * dlog_scale[:, None, :]
        dgk = np.empty_like(dz)
        dgk[..., 0] = resid_sums  # the intercept column of design is 1
        dgk[..., 1:-1] = np.add.reduceat(
            design[:, 1:, None] * resid[:, None, :], starts, axis=0
        ).transpose(0, 2, 1)
        dgk[..., -1] = prior
        dgk += slope[..., None] * dz
        dgk -= post[:, None, :] @ dgk
        weights = (counts[:, None] * post).reshape(-1, 1)
        dz, dgk = dz.reshape(-1, size), dgk.reshape(-1, size)
        w_nodes = p_nodes * (1.0 - p_nodes)
        gzz = -np.add.reduceat(w_nodes, starts, axis=0) - 1.0 / nu
        hessian = (weights * dgk).T @ dgk + (weights * gzz.reshape(-1, 1) * dz).T @ dz

        # E_w[dg_z dz_k'] with dg_z = (-sum p(1-p) x, z_k / nu): the beta rows
        # per unit row, through sum_k w_k p(1-p) dz_k = r0 dm + r1 d log s
        node_w = post_rows * w_nodes  # (n, K)
        r0 = self.row_counts * np.sum(node_w, axis=1)
        r1 = self.row_counts * np.sum(node_w * offsets[codes, :], axis=1)
        mixed = np.empty((size, size))
        mixed[:-1] = -design.T @ (r0[:, None] * dmode[codes] + r1[:, None] * dlog_scale[codes])
        mixed[-1] = (weights[:, 0] * z_nodes.ravel()) @ dz / nu
        hessian += mixed + mixed.T

        # sum_j c_j (E_w[g_z] d2m + E_w[g_z (z_k - m)] d log s d log s'
        #            + (1 + E_w[g_z (z_k - m)]) d2 log s), contracted over j
        gamma = counts * spread / (2.0 * hess)  # weight of -d2h
        delta = (counts * slope_mean - gamma * third_sums) / hess  # weight of -h d2m
        fourth = w * (1.0 - 6.0 * w)
        fourth_x = np.add.reduceat(design * fourth[:, None], starts, axis=0)
        cross = np.column_stack(
            [delta[:, None] * third_x + gamma[:, None] * fourth_x, -delta / nu]
        )
        cross = cross.T @ dmode
        scaled = dmode * (delta * third_sums + gamma * np.add.reduceat(fourth, starts))[:, None]
        hessian -= scaled.T @ dmode + cross + cross.T
        hessian += (dlog_scale * (counts * (3.0 * spread - 1.0))[:, None]).T @ dlog_scale

        # E_w[d2g] with the q3, q4 terms: sum over rows of x x', and the nu entry
        row_weights = r0 + delta[codes] * third + gamma[codes] * fourth
        hessian[:-1, :-1] -= design.T @ (design * row_weights[:, None])
        hessian[-1, -1] -= (
            counts @ node_squares / (2.0 * nu) + (delta @ zeta + gamma.sum()) / nu
        )
        hessian[-1, :] *= dlognu
        hessian[:, -1] *= dlognu
        return loglik, np.append(score_beta, score_nu), -0.5 * (hessian + hessian.T)


# The Newton iteration stops once max |g| falls to what the log-likelihood
# can still resolve. Near the optimum a step from gradient g gains about
# |g|^2 / lambda in l, lambda the curvature along g, and l is known only to
# its rounding, about eps |l|: one ULP of |l| ~ 330 (a criterion-4 design of
# 800 rows) is 5.7e-14. Below |g| = 4 sqrt(eps |l|), 1.1e-6 there, a step at
# curvature 1 gains less than 16 eps |l|, so the step halving would compare
# values that differ by rounding. |l| is taken at the plain logistic fit, so
# the stop grows with the data as the rounding does.
_GTOL_PER_ROOT_ULP = 4.0
# nu = 0 is reported when the interior fit gains at most this much
# log-likelihood over it. When the score test finds nu = 0 a maximum, an
# interior fit can beat it only by rounding (a few eps |l|, 1e-13 at
# |l| ~ 330) or by stopping short, which costs at most gtol^2 / lambda
# (about 1e-12), both far below 1e-6. A gain of 1e-6 is also a
# likelihood-ratio statistic of 2e-6, against 2.71 for the 5% point of the
# 50:50 chi-square mixture that tests a variance at its boundary, so
# ignoring it changes no inference.
_BOUNDARY_GAIN = 1e-6
_LOG_NU_WALL = 9.0  # nu ~ 8100, an ICC of 0.9996: a fit held there diverged
_HALVINGS = 40  # down to 1e-12 of the proposed step


def _maximize_agq(loglik_fn: _AgqLoglik, params, gtol, nu_score):
    """Newton iteration in (beta, log nu) on the exact observed information.

    Takes the full Newton step where the information is positive definite,
    otherwise a step along the score scaled by the information's |diagonal|,
    shortens it to end at the wall where it would pass log nu = 9, and
    halves it until the log-likelihood does not fall. Stops once
    max |score| <= gtol. Near nu = 0 the log-likelihood is about linear in
    nu, so a Newton step in log nu stays above -1 and would only walk toward
    the floor; a step below -1/2 means Newton in nu itself would pass 0.
    With a score test at nu = 0 (``nu_score``) <= 0 and a log-likelihood at
    the floor (same beta) no lower than at the iterate, nu = 0 is settled.

    Returns (params, log-likelihood, information, steps), params None once
    nu = 0 is settled. Raises ConvergenceError where an iterate held at the
    wall still rises in nu, the halving finds no step that does not lower
    the log-likelihood (as with a NaN score), or the steps run out.
    """
    loglik, score, info = loglik_fn.derivatives(params)
    steps = 0
    while not np.max(np.abs(score)) <= gtol:  # a NaN score does not stop it
        if steps == _NEWTON_MAX_STEPS:
            raise ConvergenceError(
                f"marginal likelihood optimization did not converge within {steps} steps",
                best={"coefficients": params[:-1].tolist(), "nu": math.exp(params[-1])},
            )
        if params[-1] >= _LOG_NU_WALL and score[-1] > 0.0:
            raise ConvergenceError(
                f"random-intercept variance diverged past {math.exp(_LOG_NU_WALL):.0f} (ICC 0.9996)"
            )
        try:
            np.linalg.cholesky(info)
            step = np.linalg.solve(info, score)
        except np.linalg.LinAlgError:
            diagonal = np.abs(np.diag(info))
            step = np.divide(score, diagonal, out=np.zeros_like(score), where=diagonal > 0.0)
        if step[-1] < -0.5 and nu_score <= 0.0:
            floor = np.append(params[:-1], math.log(_VAR_FLOOR))
            if loglik_fn.derivatives(floor)[0] >= loglik:
                return None, None, None, steps + 1
        if step[-1] > _LOG_NU_WALL - params[-1]:
            step *= (_LOG_NU_WALL - params[-1]) / step[-1]
        for _ in range(_HALVINGS):
            trial = loglik_fn.derivatives(params + step)
            if trial[0] >= loglik:
                break
            step *= 0.5
        else:
            raise ConvergenceError(
                "marginal likelihood optimization found no ascent step",
                best={"coefficients": params[:-1].tolist(), "nu": math.exp(params[-1])},
            )
        params = params + step
        loglik, score, info = trial
        steps += 1
    return params, loglik, info, steps


def _check_quadrature_points(quadrature_points: int) -> None:
    """Refuse a Gauss-Hermite node count outside [1, ``_MAX_QUADRATURE_POINTS``]."""
    if quadrature_points < 1:
        raise DomainError(f"quadrature_points must be >= 1, got {quadrature_points}")
    if quadrature_points > _MAX_QUADRATURE_POINTS:
        # numpy's Gauss-Hermite weights underflow to zero or overflow from
        # 371 nodes, and hermgauss builds a dense n x n companion matrix
        raise DomainError(
            f"quadrature_points must be <= {_MAX_QUADRATURE_POINTS}, got {quadrature_points}"
        )


def fit_glmm_logit(ds: ClusteredDataset, quadrature_points: int = 15) -> MixedModelFit:
    """Maximum marginal likelihood logistic fit with a cluster random intercept.

    The intercept is integrated out per cluster with Gauss-Hermite nodes
    re-centered at the conditional mode and rescaled by the conditional
    curvature (quadrature_points=1 is the Laplace approximation; at most
    100), once per distinct cluster pattern (size and sorted unit rows)
    weighted by its count. ``_maximize_agq`` maximizes that sum over
    (beta, log nu) from the plain logistic beta and nu = 0.5, by Newton
    steps on its exact score and observed information.

    nu = 0 is decided by the closed-form score in nu at nu = 0 at the plain
    logistic fit (Lin 1997; within rounding of 0 it counts as 0): when it is
    <= 0 and either the iteration settles nu = 0 or the interior fit gains
    at most 1e-6 log-likelihood over the logistic one, the fit is the
    logistic fit with ``boundary`` set and its covariance is the inverse
    logistic information X' diag(p (1 - p)) X. Otherwise the covariance is
    the (beta, beta) block of the inverse observed information at the last
    iterate; the tests check it against a central difference of the score.
    ``n_obs`` and ``n_clusters`` count the data, not the patterns.

    Raises ValidationError for a non-binary dataset or one with fewer than
    2 clusters, SeparationError before the iteration for all-equal outcomes
    or where the logistic fit has no finite maximum (``_logistic_fit``), and
    ConvergenceError if the iteration fails or is held at log nu = 9 with
    the likelihood still rising (as when every cluster's outcomes are
    constant), or the information is not positive definite.
    """
    if ds.scale != "binary":
        raise ValidationError(f"fit_glmm_logit requires a binary-scale dataset, got {ds.scale!r}")
    _check_quadrature_points(quadrature_points)
    if ds.cluster_count < 2:
        raise ValidationError(f"fit_glmm_logit needs at least 2 clusters, got {ds.cluster_count}")
    y, design, sizes, counts = _cluster_patterns(ds)
    _design_grams([design])
    if np.all(y == 0.0) or np.all(y == 1.0):
        raise SeparationError("degenerate outcome: all observations identical")
    logistic_beta, logistic_loglik, nu_score, logistic_info = _logistic_fit(y, design, sizes, counts)
    gtol = _GTOL_PER_ROOT_ULP * math.sqrt(np.finfo(float).eps * max(abs(logistic_loglik), 1.0))
    params, loglik, info, steps = _maximize_agq(
        _AgqLoglik(y, design, sizes, counts, quadrature_points),
        np.append(logistic_beta, math.log(0.5)),
        gtol,
        nu_score,
    )
    boundary = params is None or (loglik - logistic_loglik <= _BOUNDARY_GAIN and nu_score <= 0.0)
    if boundary:
        # at nu = 0 the marginal likelihood is the plain logistic one
        beta, nu, loglik, info = logistic_beta, 0.0, logistic_loglik, logistic_info
    else:
        beta, nu = params[:_DESIGN_COLUMNS], math.exp(params[_DESIGN_COLUMNS])
    try:
        cov = np.linalg.inv(info)[:_DESIGN_COLUMNS, :_DESIGN_COLUMNS]
        cov = 0.5 * (cov + cov.T)
    except np.linalg.LinAlgError:
        cov = None
    if cov is None or np.any(np.linalg.eigvalsh(cov) <= 0.0):
        # an interior maximum has positive-definite observed information;
        # anything else means the iteration stalled on a degenerate surface
        raise ConvergenceError(
            "observed information is not positive definite at the reported optimum",
            best={"coefficients": beta.tolist(), "nu": nu},
        )

    return MixedModelFit(
        scale="binary",
        coefficients=beta,
        coef_covariance=cov,
        random_intercept_variance=nu,
        residual_variance=None,
        log_likelihood=loglik,
        converged=True,
        boundary=boundary,
        n_obs=ds.outcome.size,
        n_clusters=ds.cluster_count,
        quadrature_points=quadrature_points,
        n_iterations=steps,
    )


def icc_logistic(nu: float) -> float:
    """Intraclass correlation for a logistic random-intercept model.

    Uses the latent-scale residual variance pi^2/3, so
    icc = nu / (nu + pi^2/3).
    """
    if nu < 0:
        raise DomainError(f"random-intercept variance must be >= 0, got {nu}")
    return nu / (nu + LOGISTIC_LATENT_VARIANCE)
