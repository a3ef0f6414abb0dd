"""Command-line surface: fit, sensitivity, meta, contour, simulate.

Machine-readable payloads (JSON or CSV) go to stdout; all diagnostics go
to stderr. Exit codes: 0 success, 1 validation/domain error,
2 convergence failure, 3 I/O error. Repeating a command with identical
inputs yields byte-identical stdout.
"""

from __future__ import annotations

import csv as csv_module
import functools
import io
import json
import math
import sys
from dataclasses import replace

import click

from . import normal
from .dataset import load_csv
from .errors import ClusterSensError, ConvergenceError, ValidationError
from .meta import (
    BiasDistribution,
    MetaFit,
    PqSpec,
    load_studies_csv,
    minimal_common_bias,
    p_of_q,
    pool,
)
from .mixed_models import fit_from_json, fit_glmm_logit, fit_lmm, fit_to_json
from .sensitivity import (
    SCALE_LOG_RR,
    SCALE_MEAN_DIFFERENCE,
    BINARY_BINARY_U,
    BINARY_NORMAL_U,
    CONTINUOUS_OUTCOME,
    ConfoundedEffect,
    SensitivitySpec,
    adjust,
    bias_factor,
    confounded_effect,
    contour_grid,
    explains_away,
    minimal_bias_factor,
)
from .simulation import load_scenario, metrics_rows, run_scenario

EXIT_VALIDATION = 1
EXIT_CONVERGENCE = 2
EXIT_IO = 3


def _round_sig(value, precision):
    if isinstance(value, bool) or not isinstance(value, float):
        return value
    return float(f"{value:.{precision}g}")


def _format_payload(obj, precision):
    """Recursively round floats to the output precision."""
    if isinstance(obj, dict):
        return {k: _format_payload(v, precision) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_format_payload(v, precision) for v in obj]
    return _round_sig(obj, precision)


def _emit_json(payload, precision):
    try:
        text = json.dumps(_format_payload(payload, precision), indent=2, allow_nan=False)
    except ValueError as exc:
        raise ValidationError(f"result holds a non-finite number, not valid JSON: {exc}") from exc
    click.echo(text)


def _csv_cell(value, precision):
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.{precision}g}"
    return value


def _emit_csv(header, rows, precision):
    buf = io.StringIO()
    writer = csv_module.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_csv_cell(v, precision) for v in row])
    click.echo(buf.getvalue(), nl=False)


def _require_finite(**options):
    """Reject nan/inf float options by name: click's float type accepts them."""
    for name, value in options.items():
        for v in value if isinstance(value, tuple) else (value,):
            if v is not None and not math.isfinite(v):
                option = "--" + name.replace("_", "-")
                raise ValidationError(f"{option} is non-finite ({v}); give a finite number")


def handle_errors(func):
    """Translate package exceptions into documented exit codes.

    Every command takes --precision, so a negative one, which no format
    spec can hold, is rejected here before the command does any work.
    """

    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        try:
            if kwargs["precision"] < 0:
                raise ValidationError(f"--precision must be >= 0, got {kwargs['precision']}")
            return func(*args, **kwargs)
        except ConvergenceError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(EXIT_CONVERGENCE)
        except ClusterSensError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(EXIT_VALIDATION)
        except OSError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(EXIT_IO)

    return wrapper


format_option = click.option(
    "--format", "fmt", type=click.Choice(["json", "csv"]), default=None, help="Payload format."
)
precision_option = click.option(
    "--precision", type=int, default=6, show_default=True, help="Significant digits in output."
)


@click.group()
def main():
    """Sensitivity analysis for clustered observational data."""


@main.command("fit")
@click.argument("data", type=click.Path())
@click.option("--scale", type=click.Choice(["continuous", "binary"]), required=True)
@click.option("--quadrature", type=int, default=15, show_default=True,
              help="Gauss-Hermite nodes for the binary-scale fit.")
@format_option
@precision_option
@handle_errors
def cmd_fit(data, scale, quadrature, fmt, precision):
    """Fit the confounded random-intercept model to a CSV file."""
    ds = load_csv(data, scale)
    fit = fit_lmm(ds) if scale == "continuous" else fit_glmm_logit(ds, quadrature)
    click.echo(f"fit converged on {fit.n_obs} observations in {fit.n_clusters} clusters", err=True)
    if fmt == "csv":
        header = ["coefficient", "estimate", "std_error"]
        names = ["intercept", "treatment", "covariate", "interaction"]
        rows = [
            [names[i], float(fit.coefficients[i]), float(fit.coef_covariance[i, i]) ** 0.5]
            for i in range(4)
        ]
        _emit_csv(header, rows, precision)
    else:
        _emit_json(json.loads(fit_to_json(fit)), precision)


def _effect_from_triple(estimate, lb, ub, x, level, scale):
    if not lb < ub:
        raise ValidationError("need lb < ub")
    if not 0.0 < level < 1.0:
        raise ValidationError(f"level must lie in (0, 1), got {level}")
    z = normal.ppf(0.5 * (1.0 + level))
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


def _spec_from_flags(theta, m1x, m0x, p1x, p0x, mu1x, mu0x):
    given = [v is not None for v in (m1x, p1x, mu1x)]
    if sum(given) == 0:
        return None
    if sum(given) > 1:
        raise ValidationError("give exactly one of --m1x, --p1x, --mu1x (with its partner)")
    if theta is None:
        raise ValidationError("--theta is required when sensitivity parameters are given")
    if m1x is not None:
        if m0x is None:
            raise ValidationError("--m1x requires --m0x")
        return SensitivitySpec(CONTINUOUS_OUTCOME, theta, m1x, m0x)
    if p1x is not None:
        if p0x is None:
            raise ValidationError("--p1x requires --p0x")
        return SensitivitySpec(BINARY_BINARY_U, theta, p1x, p0x)
    if mu0x is None:
        raise ValidationError("--mu1x requires --mu0x")
    return SensitivitySpec(BINARY_NORMAL_U, theta, mu1x, mu0x)


@main.command("sensitivity")
@click.option("--fit", "fit_path", type=click.Path(), default=None,
              help="Fit document from the fit command.")
@click.option("--estimate", type=float, default=None)
@click.option("--lb", type=float, default=None)
@click.option("--ub", type=float, default=None)
@click.option("--x", type=float, default=None,
              help="Conditioning covariate value (defaults to 0 with --fit).")
@click.option("--level", type=float, default=0.95, show_default=True)
@click.option("--scale", type=click.Choice([SCALE_MEAN_DIFFERENCE, SCALE_LOG_RR]),
              default=SCALE_MEAN_DIFFERENCE, show_default=True,
              help="Effect scale for a raw (estimate, lb, ub) triple.")
@click.option("--theta", type=float, default=None, help="Confounder effect on the outcome.")
@click.option("--m1x", type=float, default=None, help="Confounder mean among treated (continuous outcome).")
@click.option("--m0x", type=float, default=None, help="Confounder mean among controls (continuous outcome).")
@click.option("--p1x", type=float, default=None, help="Binary-confounder prevalence among treated (log-RR).")
@click.option("--p0x", type=float, default=None, help="Binary-confounder prevalence among controls (log-RR).")
@click.option("--mu1x", type=float, default=None, help="Normal-confounder mean among treated (log-RR).")
@click.option("--mu0x", type=float, default=None, help="Normal-confounder mean among controls (log-RR).")
@format_option
@precision_option
@handle_errors
def cmd_sensitivity(fit_path, estimate, lb, ub, x, level, scale, theta,
                    m1x, m0x, p1x, p0x, mu1x, mu0x, fmt, precision):
    """Minimal bias factor, and the verdict for a hypothesized confounder."""
    _require_finite(estimate=estimate, lb=lb, ub=ub, x=x, level=level, theta=theta,
                    m1x=m1x, m0x=m0x, p1x=p1x, p0x=p0x, mu1x=mu1x, mu0x=mu0x)
    triple = [v is not None for v in (estimate, lb, ub)]
    if fit_path is not None:
        if any(triple):
            raise ValidationError("give either --fit or the (--estimate, --lb, --ub) triple")
        with open(fit_path, "r", encoding="utf-8") as fh:
            fit = fit_from_json(fh.read())
        effect = confounded_effect(fit, 0.0 if x is None else x, level)
    else:
        if not all(triple):
            raise ValidationError("need --estimate, --lb and --ub (or --fit)")
        effect = _effect_from_triple(estimate, lb, ub, x, level, scale)
    for note in effect.warnings:
        click.echo(f"warning: {note}", err=True)

    minimal = minimal_bias_factor(effect)
    payload = {
        "effect": {
            "x": effect.x,
            "estimate": effect.estimate,
            "std_error": effect.std_error,
            "lb": effect.lb,
            "ub": effect.ub,
            "level": effect.level,
            "scale": effect.scale,
        },
        "minimal_bias_factor": {"value": minimal.value, "direction": minimal.direction},
    }
    if minimal.direction == "none":
        click.echo("no confounding needed: the interval already includes the null", err=True)

    spec = _spec_from_flags(theta, m1x, m0x, p1x, p0x, mu1x, mu0x)
    if spec is not None:
        b = bias_factor(spec)
        for note in b.warnings:
            click.echo(f"warning: {note}", err=True)
        adjusted = adjust(effect, b)
        payload["bias_factor"] = {"value": b.value, "scale": b.scale}
        payload["adjusted"] = {"estimate": adjusted.estimate, "lb": adjusted.lb, "ub": adjusted.ub}
        payload["explains_away"] = explains_away(effect, spec)

    if fmt == "csv":
        header = ["quantity", "value"]
        rows = [
            ["estimate", effect.estimate],
            ["lb", effect.lb],
            ["ub", effect.ub],
            ["minimal_bias_factor", minimal.value],
            ["direction", minimal.direction],
        ]
        if spec is not None:
            rows += [
                ["bias_factor", payload["bias_factor"]["value"]],
                ["adjusted_estimate", payload["adjusted"]["estimate"]],
                ["adjusted_lb", payload["adjusted"]["lb"]],
                ["adjusted_ub", payload["adjusted"]["ub"]],
                ["explains_away", payload["explains_away"]],
            ]
        _emit_csv(header, rows, precision)
    else:
        _emit_json(payload, precision)


@main.command("meta")
@click.option("--studies", "studies_path", type=click.Path(), default=None,
              help="Study-level CSV: study_id, estimate, std_error.")
@click.option("--mu", type=float, default=None, help="Pooled mean (instead of --studies).")
@click.option("--v", type=float, default=None, help="Between-study variance (instead of --studies).")
@click.option("--q", type=float, default=None, help="Meaningful effect size.")
@click.option("--r", type=float, default=None, help="Probability threshold in (0, 0.5).")
@click.option("--direction", type=click.Choice(["positive", "negative"]), default="positive",
              show_default=True)
@click.option("--bias-mean", type=float, default=None, help="Mean of the per-study bias factor.")
@click.option("--bias-variance", type=float, default=0.0, show_default=True)
@format_option
@precision_option
@handle_errors
def cmd_meta(studies_path, mu, v, q, r, direction, bias_mean, bias_variance, fmt, precision):
    """Pooled effect, minimal common bias factor, and p(q)."""
    _require_finite(mu=mu, v=v, q=q, r=r, bias_mean=bias_mean, bias_variance=bias_variance)
    payload = {}
    if studies_path is not None:
        if mu is not None or v is not None:
            raise ValidationError("give either --studies or the (--mu, --v) pair")
        studies = load_studies_csv(studies_path)
        fit = pool(studies)
        payload["pooled"] = {
            "mu_hat": fit.mu_hat,
            "v_hat": fit.v_hat,
            "se_mu": fit.se_mu,
            "q_statistic": fit.q_statistic,
            "k": fit.k,
        }
        click.echo(f"pooled {fit.k} studies", err=True)
    else:
        if mu is None or v is None:
            raise ValidationError("need --studies or both --mu and --v")
        fit = MetaFit(mu_hat=mu, v_hat=v, se_mu=0.0, q_statistic=0.0, k=0)

    if q is not None and r is not None:
        result = minimal_common_bias(fit, PqSpec(q=q, r=r), direction)
        payload["minimal_common_bias"] = {
            "value": result.value,
            "direction": result.direction,
            "already_not_meaningful": result.already_not_meaningful,
        }
        if result.already_not_meaningful:
            click.echo(
                "warning: criterion already fails without confounding "
                "(minimal common bias is not positive)",
                err=True,
            )
    if bias_mean is not None:
        if q is None:
            raise ValidationError("--bias-mean needs --q")
        bias = BiasDistribution(mu_b=bias_mean, v_b=bias_variance)
        payload["p_of_q"] = p_of_q(fit, bias, q, direction)

    if not payload:
        raise ValidationError("nothing to compute: give studies, a pooled fit, or q/r")

    if fmt == "csv":
        rows = []
        for section, values in payload.items():
            if isinstance(values, dict):
                rows += [[f"{section}.{k}", val] for k, val in values.items()]
            else:
                rows.append([section, values])
        _emit_csv(["quantity", "value"], rows, precision)
    else:
        _emit_json(payload, precision)


@main.command("contour")
@click.option("--delta-range", type=float, nargs=2, default=(0.0, 1.0), show_default=True,
              help="Range of confounder mean differences.")
@click.option("--theta-range", type=float, nargs=2, default=(0.0, 5.0), show_default=True,
              help="Range of confounder effects.")
@click.option("--resolution", type=int, default=100, show_default=True)
@click.option("--threshold", type=float, required=True,
              help="Bias factor that explains the effect away.")
@format_option
@precision_option
@handle_errors
def cmd_contour(delta_range, theta_range, resolution, threshold, fmt, precision):
    """Grid of bias factors over (mean difference, effect) combinations."""
    _require_finite(delta_range=delta_range, theta_range=theta_range, threshold=threshold)
    rows = contour_grid(delta_range, theta_range, resolution, threshold)
    if fmt == "json":
        _emit_json(
            [
                {"delta_m": d, "theta": t, "bias_factor": b, "explains": e}
                for d, t, b, e in rows
            ],
            precision,
        )
    else:
        _emit_csv(["delta_m", "theta", "bias_factor", "explains"], [list(r) for r in rows], precision)


@main.command("simulate")
@click.argument("config_path", type=click.Path())
@click.option("--workers", type=int, default=1, show_default=True)
@click.option("--seed", type=int, default=None, help="Override the config seed.")
@format_option
@precision_option
@handle_errors
def cmd_simulate(config_path, workers, seed, fmt, precision):
    """Run a simulation scenario and emit its metrics table."""
    config = load_scenario(config_path)
    if seed is not None:
        config = replace(config, seed=seed)
    metrics = run_scenario(config, workers=workers)
    click.echo(
        f"scenario {config.kind}: {metrics.replications} replications, "
        f"{metrics.non_converged} non-converged, {metrics.runtime_seconds:.1f}s",
        err=True,
    )
    if metrics.flagged:
        click.echo("warning: non-convergence rate above 5%; metrics flagged", err=True)
    if metrics.replications < 2:
        click.echo("warning: a single replication cannot estimate an SE", err=True)
    header, rows = metrics_rows(metrics)
    if fmt == "json":
        _emit_json(
            {
                "kind": metrics.kind,
                "seed": metrics.seed,
                "replications": metrics.replications,
                "non_converged": metrics.non_converged,
                "flagged": metrics.flagged,
                "rows": [dict(zip(header, row)) for row in rows],
            },
            precision,
        )
    else:
        _emit_csv(header, rows, precision)


if __name__ == "__main__":
    main()
