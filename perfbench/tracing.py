"""Span tracing from outside the package, and the per-layer metrics it yields.

``Tracer.install`` replaces each public name with a recording wrapper where
its caller looks it up: the name as the calling module imported it (for
example ``clustersens.simulation.fit_lmm``), the ``normal`` module's own
attributes (callers write ``normal.ppf``) and the ``ClusteredDataset``
methods.  Nothing inside the package changes, and ``uninstall`` restores
every original.  Names a future version no longer has are skipped, and
their metrics read 0.

Spans are kept in memory.  A span's self time is its duration minus its
children's durations; the benchmark's own calls into the package are the
root spans, so the layers' self times plus the time outside any root span
add up to the traced wall time.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict

import numpy as np

LAYERS = ("rng", "simulation", "dataset", "mixed_models", "sensitivity", "normal", "meta", "cli")

# (module, attribute, span name)
_FUNCTION_TARGETS = (
    ("clustersens.simulation", "replicate_stream", "rng.replicate_stream"),
    ("clustersens.simulation", "generate", "simulation.generate"),
    ("clustersens.simulation", "true_conditional_means", "simulation.true_conditional_means"),
    ("clustersens.simulation", "fit_lmm", "mixed_models.fit_lmm"),
    ("clustersens.simulation", "fit_glmm_logit", "mixed_models.fit_glmm_logit"),
    ("clustersens.simulation", "confounded_effect", "sensitivity.confounded_effect"),
    ("clustersens.simulation", "pool", "meta.pool"),
    ("clustersens.simulation", "p_of_q", "meta.p_of_q"),
    ("clustersens.simulation", "dl_variance_of_v_hat", "meta.dl_variance_of_v_hat"),
    ("clustersens.normal", "ppf", "normal.ppf"),
    ("clustersens.normal", "cdf", "normal.cdf"),
    ("clustersens.normal", "pdf", "normal.pdf"),
    ("clustersens.cli", "load_csv", "dataset.load_csv"),
    ("clustersens.cli", "fit_lmm", "mixed_models.fit_lmm"),
    ("clustersens.cli", "fit_glmm_logit", "mixed_models.fit_glmm_logit"),
    ("clustersens.cli", "fit_to_json", "mixed_models.fit_to_json"),
    ("clustersens.cli", "fit_from_json", "mixed_models.fit_from_json"),
    ("clustersens.cli", "confounded_effect", "sensitivity.confounded_effect"),
    ("clustersens.cli", "minimal_bias_factor", "sensitivity.minimal_bias_factor"),
    ("clustersens.cli", "bias_factor", "sensitivity.bias_factor"),
    ("clustersens.cli", "adjust", "sensitivity.adjust"),
    ("clustersens.cli", "explains_away", "sensitivity.explains_away"),
    ("clustersens.cli", "contour_grid", "sensitivity.contour_grid"),
    ("clustersens.cli", "load_studies_csv", "meta.load_studies_csv"),
    ("clustersens.cli", "pool", "meta.pool"),
    ("clustersens.cli", "p_of_q", "meta.p_of_q"),
    ("clustersens.cli", "minimal_common_bias", "meta.minimal_common_bias"),
)
# (class, attribute, span name, is staticmethod)
_METHOD_TARGETS = (
    ("ClusteredDataset", "from_records", "dataset.from_records", True),
    ("ClusteredDataset", "to_arrays", "dataset.to_arrays", False),
)
_FIT_SPANS = ("mixed_models.fit_lmm", "mixed_models.fit_glmm_logit")
_FIT_ERRORS = ("ConvergenceError", "SeparationError", "SingularDesignError")


def direct(_name, fn, *args, **kwargs):
    """An untraced call, with the signature of ``Tracer.call``."""
    return fn(*args, **kwargs)


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "replicate", "children", "error", "info")

    def __init__(self, name, start, parent, op, replicate):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.op = op
        self.replicate = replicate
        self.children = 0.0
        self.error = None
        self.info = None

    @property
    def duration(self):
        return self.end - self.start

    @property
    def self_time(self):
        return self.end - self.start - self.children


def _info(name, args, result):
    if name == "dataset.from_records" and args:
        return len(args[0])
    if name in _FIT_SPANS:
        return getattr(result, "n_iterations", None)
    return None


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._restore = []
        self.op = -1
        self.replicate = None

    def call(self, name, fn, *args, **kwargs):
        """Run ``fn`` inside a span; the benchmark's own calls use this."""
        spans = self.spans
        index = len(spans)
        parent = self._stack[-1] if self._stack else -1
        if name == "simulation.generate":
            self.replicate = args[1] if len(args) > 1 else kwargs.get("replicate_index")
        span = Span(name, 0.0, parent, self.op, self.replicate)
        spans.append(span)
        self._stack.append(index)
        span.start = time.perf_counter()
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        except BaseException as exc:
            span.error = type(exc).__name__
            raise
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
            if parent >= 0:
                spans[parent].children += span.end - span.start
            span.info = _info(name, args, result)

    def _wrap(self, name, fn):
        def wrapper(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        import clustersens.dataset

        for module_name, attr, name in _FUNCTION_TARGETS:
            module = importlib.import_module(module_name)
            if hasattr(module, attr):
                original = getattr(module, attr)
                self._restore.append((module, attr, original))
                setattr(module, attr, self._wrap(name, original))
        for class_name, attr, name, static in _METHOD_TARGETS:
            cls = getattr(clustersens.dataset, class_name)
            original = cls.__dict__.get(attr)
            if original is None:
                continue
            self._restore.append((cls, attr, original))
            fn = original.__func__ if static else original
            wrapped = self._wrap(name, fn)
            setattr(cls, attr, staticmethod(wrapped) if static else wrapped)

    def uninstall(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)


def _median(values):
    return float(np.median(values)) if values else 0.0


def _p90(values):
    return float(np.percentile(values, 90)) if values else 0.0


def _replicate_durations(spans):
    """Replicate i runs from its ``generate`` call to the next one's (or its last span)."""
    out = []
    by_op = defaultdict(list)
    for span in spans:
        by_op[span.op].append(span)
    for op_spans in by_op.values():
        starts = sorted(s.start for s in op_spans if s.name == "simulation.generate")
        if not starts:
            continue
        last_end = max(s.end for s in op_spans if s.start >= starts[-1] and s.parent >= 0)
        bounds = starts + [last_end]
        out += [b - a for a, b in zip(bounds[:-1], bounds[1:])]
    return out


def layer_metrics(spans, ops: int, wall: float, untraced_wall: float):
    """Per-layer metrics over a traced phase of ``ops`` operations lasting ``wall`` seconds."""
    by_name = defaultdict(list)
    for span in spans:
        by_name[span.name].append(span)
    per_op = max(ops, 1)

    def calls(name):
        return len(by_name[name]) / per_op

    def dur_ms(name, stat=_median):
        return 1e3 * stat([s.duration for s in by_name[name]])

    def dur_us(name):
        return 1e6 * _median([s.duration for s in by_name[name]])

    def self_s(name):
        return sum(s.self_time for s in by_name[name]) / per_op

    def iterations(name):
        its = [s.info for s in by_name[name] if s.error is None and s.info is not None]
        return float(np.mean(its)) if its else 0.0

    fits = [s for name in _FIT_SPANS for s in by_name[name]]
    failed_fits = sum(s.error in _FIT_ERRORS for s in fits)
    replicates = _replicate_durations(spans)
    sessions = defaultdict(float)
    for span in spans:
        if span.name.startswith("cli."):
            sessions[span.op] += span.self_time

    roots = sum(s.duration for s in spans if s.parent < 0)
    layer_self = dict.fromkeys(LAYERS, 0.0)
    for span in spans:
        layer = span.name.split(".", 1)[0]
        layer_self[layer] = layer_self.get(layer, 0.0) + span.self_time
    total_self = sum(layer_self.values())
    if abs(total_self - roots) > 1e-6 * max(1.0, roots):
        raise AssertionError(f"span self times sum to {total_self} s but root spans to {roots} s")

    metrics = {
        "rng.replicate_stream.calls": (calls("rng.replicate_stream"), "calls/op"),
        "rng.replicate_stream_us": (dur_us("rng.replicate_stream"), "us"),
        "simulation.generate.calls": (calls("simulation.generate"), "calls/op"),
        "simulation.generate_ms_p50": (dur_ms("simulation.generate"), "ms"),
        "simulation.generate.self_s": (self_s("simulation.generate"), "s/op"),
        "simulation.true_conditional_means.calls": (calls("simulation.true_conditional_means"), "calls/op"),
        "simulation.true_conditional_means_us": (dur_us("simulation.true_conditional_means"), "us"),
        "simulation.run.self_s": (self_s("simulation.run_scenario"), "s/op"),
        "simulation.replicate_ms_p50": (1e3 * _median(replicates), "ms"),
        "simulation.replicate_ms_p90": (1e3 * _p90(replicates), "ms"),
        "dataset.from_records.calls": (calls("dataset.from_records"), "calls/op"),
        "dataset.from_records_ms_p50": (dur_ms("dataset.from_records"), "ms"),
        "dataset.rows_validated": (
            sum(s.info or 0 for s in by_name["dataset.from_records"]) / per_op, "rows/op"),
        "dataset.to_arrays.calls": (calls("dataset.to_arrays"), "calls/op"),
        "dataset.to_arrays_ms_p50": (dur_ms("dataset.to_arrays"), "ms"),
        "dataset.load_csv_ms": (dur_ms("dataset.load_csv"), "ms"),
        "mixed_models.fit_lmm.calls": (calls("mixed_models.fit_lmm"), "calls/op"),
        "mixed_models.fit_lmm_ms_p50": (dur_ms("mixed_models.fit_lmm"), "ms"),
        "mixed_models.fit_lmm.self_s": (self_s("mixed_models.fit_lmm"), "s/op"),
        "mixed_models.fit_lmm.iterations_mean": (iterations("mixed_models.fit_lmm"), "count"),
        "mixed_models.fit_glmm_logit.calls": (calls("mixed_models.fit_glmm_logit"), "calls/op"),
        "mixed_models.fit_glmm_logit_ms_p50": (dur_ms("mixed_models.fit_glmm_logit"), "ms"),
        "mixed_models.fit_glmm_logit_ms_p90": (dur_ms("mixed_models.fit_glmm_logit", _p90), "ms"),
        "mixed_models.fit_glmm_logit.iterations_mean": (
            iterations("mixed_models.fit_glmm_logit"), "count"),
        "mixed_models.fit_failed_frac": (failed_fits / len(fits) if fits else 0.0, "frac"),
        "sensitivity.confounded_effect.calls": (calls("sensitivity.confounded_effect"), "calls/op"),
        "sensitivity.confounded_effect_us": (
            1e6 * _median([s.self_time for s in by_name["sensitivity.confounded_effect"]]), "us"),
        "sensitivity.contour_grid_ms": (dur_ms("sensitivity.contour_grid"), "ms"),
        "normal.ppf.calls": (calls("normal.ppf"), "calls/op"),
        "normal.ppf_us": (dur_us("normal.ppf"), "us"),
        "normal.cdf.calls": (calls("normal.cdf"), "calls/op"),
        "normal.cdf_us": (dur_us("normal.cdf"), "us"),
        "meta.pool.calls": (calls("meta.pool"), "calls/op"),
        "meta.pool_us": (dur_us("meta.pool"), "us"),
        "meta.p_of_q_us": (dur_us("meta.p_of_q"), "us"),
        "meta.dl_variance_of_v_hat_us": (dur_us("meta.dl_variance_of_v_hat"), "us"),
        "meta.load_studies_csv_ms": (dur_ms("meta.load_studies_csv"), "ms"),
        "cli.fit_ms": (dur_ms("cli.fit"), "ms"),
        "cli.sensitivity_ms": (dur_ms("cli.sensitivity"), "ms"),
        "cli.meta_ms": (dur_ms("cli.meta"), "ms"),
        "cli.contour_ms": (dur_ms("cli.contour"), "ms"),
        "cli.self_ms": (1e3 * _median(list(sessions.values())), "ms"),
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_frac"] = (layer_self[layer] / wall, "frac")
    metrics["trace.untraced_frac"] = ((wall - roots) / wall, "frac")
    metrics["trace.wall_s"] = (wall, "s")
    metrics["trace.overhead_frac"] = (wall / untraced_wall - 1.0, "frac")
    return metrics
