"""Command-line surface: fit, sensitivity, meta, contour, simulate.

Machine-readable payloads (JSON or CSV) go to stdout; all diagnostics go
to stderr. Exit codes: 0 success, 1 validation/domain error (a usage
error such as a missing option, an unknown command or no command included),
2 convergence failure, 3 I/O error; every failure prints one ``error:``
line. Repeating a command with identical inputs yields byte-identical
stdout.
"""

from __future__ import annotations

import csv as csv_module
import functools
import io
import json
import math
import sys
from dataclasses import asdict, replace

import click
import numpy as np

from .dataset import _path_prefixed, load_csv
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
    SensitivitySpec,
    adjust,
    bias_factor,
    confounded_effect,
    contour_grid,
    effect_from_interval,
    explains_away,
    minimal_bias_factor,
)
from .simulation import load_scenario, metrics_rows, run_scenario

EXIT_VALIDATION = 1
EXIT_CONVERGENCE = 2
EXIT_IO = 3
_CHUNK_ROWS = 1024


def _format_payload(obj, precision):
    """Recursively round floats to the output precision."""
    if isinstance(obj, dict):
        return {k: _format_payload(v, precision) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_format_payload(v, precision) for v in obj]
    if isinstance(obj, float):
        return float(f"{obj:.{precision}g}")
    return obj


def _emit_json(payload):
    try:
        text = json.dumps(payload, indent=2, allow_nan=False)
    except ValueError as exc:
        raise ValidationError(f"result holds a non-finite number, not valid JSON: {exc}") from exc
    click.echo(text)


def _csv_cell(value, precision):
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValidationError(f"result holds a non-finite number, not valid CSV: {value}")
        return f"{value:.{precision}g}"
    return value


def _json_cell(value, precision):
    return json.dumps(_format_payload(value, precision), allow_nan=False)


_BOOL_TEXTS = np.array(["false", "true"], dtype=object)


def _column_codes(column, precision, fmt):
    """A column as ``(texts, codes)``, cell i being ``texts[codes[i]]`` in
    the format ``fmt``, or the row index of its first non-finite float.

    A float64 ndarray formats each distinct value once, keyed on its bit
    pattern so that -0.0 stays apart from 0.0; JSON encodes the distinct
    values in one call of the C encoder. A bool ndarray maps to
    ``false``/``true``. A list goes cell by cell.
    """
    if not isinstance(column, np.ndarray):
        cell = _csv_cell if fmt == "csv" else _json_cell
        texts = []
        for value in column:
            try:
                texts.append(cell(value, precision))
            except (ValidationError, ValueError):  # ValueError: json's non-finite refusal
                return len(texts)
        return np.fromiter(texts, dtype=object, count=len(texts)), np.arange(len(texts))
    if column.dtype == bool:
        return _BOOL_TEXTS, column.view(np.uint8)
    keys, codes = np.unique(column.view(np.int64), return_inverse=True)
    values = keys.view(np.float64)
    if fmt == "json":  # rounding may carry a finite value past the float range
        values = np.array(_format_payload(values.tolist(), precision))
    finite = np.isfinite(values)
    if not finite.all():
        return int(np.argmin(finite[codes]))
    values = values.tolist()
    if fmt == "csv":
        spec = f".{precision}g"
        texts = [format(v, spec) for v in values]
    else:
        texts = json.dumps(values)[1:-1].split(", ")
    # the narrowest code type keeps the formatted table small
    return np.array(texts, dtype=object), codes.astype(np.min_scalar_type(len(values)))


def _emit_table(header, columns, precision, fmt):
    """Write the table to stdout as CSV, or as JSON objects, one per row.

    There is one column per header name, all of one length. A column is a
    float64 or bool ndarray, or a list of scalar cells; JSON needs the
    names to be distinct. The table is coded a column at a time (see
    ``_column_codes``) and written a bounded chunk of rows at a time, so
    no row is built before its chunk is written. The bytes equal those of
    writing each row through ``csv.writer``, or of ``_emit_json`` on the
    rounded list of row objects. A non-finite float is refused, before
    anything is written, with the value that a row-major scan meets first:
    the first row holding one, then its leftmost such cell.
    """
    coded = [_column_codes(column, precision, fmt) for column in columns]
    bad = [(c, j) for j, c in enumerate(coded) if isinstance(c, int)]
    if bad:
        row, j = min(bad)
        value = columns[j][row]
        # each raises its format's non-finite error
        if fmt == "csv":
            _csv_cell(value, precision)
        _emit_json(_format_payload(value, precision))
    n_rows = len(columns[0]) if columns else 0
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv_module.writer(buf, lineterminator="\n")
        writer.writerow(header)
        click.echo(buf.getvalue(), nl=False)
        # float and bool texts never need quoting, so their rows are joined directly
        plain = all(isinstance(column, np.ndarray) for column in columns)
    else:
        keys = [json.dumps(name).replace("%", "%%") for name in header]
        layout = ("  {\n" + ",\n".join(f"    {key}: %s" for key in keys) + "\n  }").__mod__
    # rows go out a bounded chunk at a time, which keeps memory flat
    for start in range(0, n_rows, _CHUNK_ROWS):
        chunk = slice(start, start + _CHUNK_ROWS)
        cells = zip(*[texts[codes[chunk]].tolist() for texts, codes in coded])
        if fmt == "json":
            click.echo(("[\n" if start == 0 else ",\n") + ",\n".join(map(layout, cells)), nl=False)
        elif plain:
            click.echo("\n".join(map(",".join, cells)) + "\n", nl=False)
        else:
            buf.seek(0)
            buf.truncate()
            writer.writerows(cells)
            click.echo(buf.getvalue(), nl=False)
    if fmt == "json":
        click.echo("\n]" if n_rows else "[]")


def _fail(message, code):
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _usage_fail(exc):
    _fail(" ".join(exc.format_message().split()), EXIT_VALIDATION)


class _Main(click.Group):
    """A usage error, in the group's own arguments or in a command's, an
    unknown command or no command at all exits 1 with one ``error:`` line,
    like any other invalid input."""

    def make_context(self, info_name, args, parent=None, **extra):
        if not args:
            _fail(f"no command given; run '{info_name} --help' for the commands", EXIT_VALIDATION)
        try:
            return super().make_context(info_name, args, parent, **extra)
        except click.UsageError as exc:
            _usage_fail(exc)

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except click.UsageError as exc:
            _usage_fail(exc)


@click.group(cls=_Main)
def main():
    """Sensitivity analysis for clustered observational data."""


def _check_finite(params, values):
    """Reject nan/inf float options in declaration order: click's float type accepts them."""
    for param in params:
        if isinstance(param.type, click.types.FloatParamType):
            value = values[param.name]
            for v in value if isinstance(value, tuple) else (value,):
                if v is not None and not math.isfinite(v):
                    raise ValidationError(
                        f"{param.opts[0]} is non-finite ({v}); give a finite number"
                    )


def command(name, default_format):
    """Register a command whose body returns ``(payload, (header, columns))``.

    The table is held as columns under distinct header names, each a list
    of scalar cells or a float64 or bool ndarray (see ``_emit_table``). The
    body takes only its own options. The wrapper adds --format and
    --precision, rejects a negative precision and any non-finite float
    option before the body runs, emits the payload as JSON, or the table
    (as CSV, or as JSON row objects when the payload is None), and maps
    package errors onto the documented exit codes.
    """

    def register(func):
        @functools.wraps(func)
        def run(fmt, precision, **options):
            try:
                if precision < 0:
                    raise ValidationError(f"--precision must be >= 0, got {precision}")
                _check_finite(click.get_current_context().command.params, options)
                payload, (header, columns) = func(**options)
                if fmt == "csv" or payload is None:
                    _emit_table(header, columns, precision, fmt)
                else:
                    _emit_json(_format_payload(payload, precision))
            except ConvergenceError as exc:
                _fail(exc, EXIT_CONVERGENCE)
            except ClusterSensError as exc:
                _fail(exc, EXIT_VALIDATION)
            except OSError as exc:
                _fail(exc, EXIT_IO)

        cmd = main.command(name)(run)
        cmd.params += [
            click.Option(["--format", "fmt"], type=click.Choice(["json", "csv"]),
                         default=default_format, help="Payload format."),
            click.Option(["--precision"], type=int, default=6, show_default=True,
                         help="Significant digits in output."),
        ]
        return cmd

    return register


@command("fit", "json")
@click.argument("data", type=click.Path())
@click.option("--scale", type=click.Choice(["continuous", "binary"]), required=True)
@click.option("--quadrature", type=int, default=15, show_default=True,
              help="Gauss-Hermite nodes for the binary-scale fit.")
def cmd_fit(data, scale, quadrature):
    """Fit the confounded random-intercept model to a CSV file."""
    ds = load_csv(data, scale)
    fit = fit_lmm(ds) if scale == "continuous" else fit_glmm_logit(ds, quadrature)
    click.echo(f"fit converged on {fit.n_obs} observations in {fit.n_clusters} clusters", err=True)
    columns = [
        ["intercept", "treatment", "covariate", "interaction"],
        fit.coefficients.tolist(),
        [v ** 0.5 for v in np.diag(fit.coef_covariance).tolist()],
    ]
    return json.loads(fit_to_json(fit)), (["coefficient", "estimate", "std_error"], columns)


# (treated flag, its partner, confounder kind) for each way to state a confounder
_SPEC_FLAGS = (
    ("--m1x", "--m0x", CONTINUOUS_OUTCOME),
    ("--p1x", "--p0x", BINARY_BINARY_U),
    ("--mu1x", "--mu0x", BINARY_NORMAL_U),
)


def _spec_from_flags(theta, pairs):
    """The confounder spec from --theta and the (treated, control) pairs in _SPEC_FLAGS order."""
    given = [(flags, pair) for flags, pair in zip(_SPEC_FLAGS, pairs) if pair[0] is not None]
    if not given:
        return None
    if len(given) > 1:
        raise ValidationError("give exactly one of --m1x, --p1x, --mu1x (with its partner)")
    if theta is None:
        raise ValidationError("--theta is required when sensitivity parameters are given")
    [((flag, partner, kind), (treated_mean, control_mean))] = given
    if control_mean is None:
        raise ValidationError(f"{flag} requires {partner}")
    return SensitivitySpec(kind, theta, treated_mean, control_mean)


@command("sensitivity", "json")
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
def cmd_sensitivity(fit_path, estimate, lb, ub, x, level, scale, theta,
                    m1x, m0x, p1x, p0x, mu1x, mu0x):
    """Minimal bias factor, and the verdict for a hypothesized confounder."""
    triple = [v is not None for v in (estimate, lb, ub)]
    if fit_path is not None:
        if any(triple):
            raise ValidationError("give either --fit or the (--estimate, --lb, --ub) triple")
        with _path_prefixed(fit_path), open(fit_path, "r", encoding="utf-8") as fh:
            fit = fit_from_json(fh.read())
        effect = confounded_effect(fit, 0.0 if x is None else x, level)
    else:
        if not all(triple):
            raise ValidationError("need --estimate, --lb and --ub (or --fit)")
        effect = effect_from_interval(estimate, lb, ub, level, x, scale)
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
    table = {
        "estimate": effect.estimate,
        "lb": effect.lb,
        "ub": effect.ub,
        "minimal_bias_factor": minimal.value,
        "direction": minimal.direction,
    }
    if minimal.direction == "none":
        click.echo("no confounding needed: the interval already includes the null", err=True)

    spec = _spec_from_flags(theta, [(m1x, m0x), (p1x, p0x), (mu1x, mu0x)])
    if spec is not None:
        b = bias_factor(spec)
        for note in b.warnings:
            click.echo(f"warning: {note}", err=True)
        adjusted = adjust(effect, b)
        payload["bias_factor"] = {"value": b.value, "scale": b.scale}
        payload["adjusted"] = {"estimate": adjusted.estimate, "lb": adjusted.lb, "ub": adjusted.ub}
        payload["explains_away"] = explains_away(effect, spec)
        table.update(
            bias_factor=b.value,
            adjusted_estimate=adjusted.estimate,
            adjusted_lb=adjusted.lb,
            adjusted_ub=adjusted.ub,
            explains_away=payload["explains_away"],
        )
    return payload, (["quantity", "value"], [list(table), list(table.values())])


@command("meta", "json")
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
def cmd_meta(studies_path, mu, v, q, r, direction, bias_mean, bias_variance):
    """Pooled effect, minimal common bias factor, and p(q)."""
    payload = {}
    if studies_path is not None:
        if mu is not None or v is not None:
            raise ValidationError("give either --studies or the (--mu, --v) pair")
        fit = pool(load_studies_csv(studies_path))
        payload["pooled"] = asdict(fit)
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

    table = {}
    for section, values in payload.items():
        if isinstance(values, dict):
            table.update((f"{section}.{k}", val) for k, val in values.items())
        else:
            table[section] = values
    return payload, (["quantity", "value"], [list(table), list(table.values())])


@command("contour", "csv")
@click.option("--delta-range", type=float, nargs=2, default=(0.0, 1.0), show_default=True,
              help="Range of confounder mean differences.")
@click.option("--theta-range", type=float, nargs=2, default=(0.0, 5.0), show_default=True,
              help="Range of confounder effects.")
@click.option("--resolution", type=int, default=100, show_default=True)
@click.option("--threshold", type=float, required=True,
              help="Bias factor that explains the effect away.")
def cmd_contour(delta_range, theta_range, resolution, threshold):
    """Grid of bias factors over (mean difference, effect) combinations."""
    columns = contour_grid(delta_range, theta_range, resolution, threshold)
    return None, (["delta_m", "theta", "bias_factor", "explains"], columns)


@command("simulate", "csv")
@click.argument("config_path", type=click.Path())
@click.option("--workers", type=click.IntRange(min=1), default=1, show_default=True,
              help="Processes for the replicates, at most one per block of 32 and per CPU.")
@click.option("--seed", type=int, default=None, help="Override the config seed.")
def cmd_simulate(config_path, workers, seed):
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
    payload = {
        "kind": metrics.kind,
        "seed": metrics.seed,
        "replications": metrics.replications,
        "non_converged": metrics.non_converged,
        "flagged": metrics.flagged,
        "rows": [dict(zip(header, row)) for row in rows],
    }
    return payload, (header, [list(column) for column in zip(*rows)])


if __name__ == "__main__":
    main()
