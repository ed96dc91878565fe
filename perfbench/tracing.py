"""Per-layer tracing of cvshare from outside the package.

The tracer replaces each layer's public functions, at the names their
callers use (``cvshare.protocol.sample_joint``,
``cvshare.bounds.build_dealer_state``, ...), with wrappers that record a
span: layer, start, end, parent span and job id. Spans stay in memory
until the benchmark writes them out. A call into the layer that is
already innermost gets no span, so a layer's calls are entries from
another layer or from the benchmark. ``GaussianState`` construction is
too frequent for a span and is only counted.

Wrappers record nothing while ``job`` is None, so the benchmark's own
output checks, which call the same functions, stay out of the trace.
``uninstall`` restores the original functions for untraced passes.

The program is single-threaded and has no queues, so no layer waits and
the trace has no wait time to report.
"""

from __future__ import annotations

import inspect
import os
from collections import defaultdict
from time import perf_counter

import numpy as np

import cvshare.bounds
import cvshare.certificates
import cvshare.cli
import cvshare.estimators
import cvshare.gaussian_core
import cvshare.protocol
import cvshare.security
from cvshare.estimators import Coalition

LAYERS = ("gaussian_core", "sampler", "estimators", "bounds", "certificates", "security",
          "protocol", "cli")


def _bound(fn, args, kwargs) -> dict:
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _count_cli(c, fn, args, kwargs, rc):
    argv = _bound(fn, args, kwargs)["argv"]
    out_dir = argv[argv.index("--out-dir") + 1]
    if os.path.isdir(out_dir):
        for entry in os.scandir(out_dir):
            c["cli.files_written"] += 1
            c["cli.bytes_written"] += entry.stat().st_size
    if rc != 0:
        c["cli.errors"] += 1


def _count_run_protocol(c, fn, args, kwargs, result):
    rep = result.mse_report
    # a dual-homodyne round yields both quadratures, so it counts once
    est = rep.n_x if rep.coalition is Coalition.A_ALONE else rep.n_x + rep.n_p
    c["protocol.rounds"] += _bound(fn, args, kwargs)["n_rounds"]
    c["protocol.est_rounds"] += est
    c["protocol.records"] += len(result.records)


def _count_witness_run(c, fn, args, kwargs, result):
    c["protocol.rounds"] += _bound(fn, args, kwargs)["n_rounds"]


def _count_batch(c, fn, args, kwargs, result):
    a = _bound(fn, args, kwargs)
    per_quadrature = a["n_probes_per_quadrature"] * a["n_batches"]
    rounds = per_quadrature if a["coalition"] is Coalition.A_ALONE else 2 * per_quadrature
    c["protocol.rounds"] += rounds
    c["protocol.est_rounds"] += rounds


def _count_sample(c, fn, args, kwargs, out):
    c["sampler.normals"] += out.size
    c["sampler.bytes_out"] += out.nbytes


def _count_estimate(c, fn, args, kwargs, out):
    c["estimators.values"] += out.size


def _count_witness_estimate(c, fn, args, kwargs, out):
    c["estimators.values"] += out[0].size + out[1].size


def _count_certificate(c, fn, args, kwargs, out):
    c["certificates.points"] += 1


def _sites():
    """(module, attribute, layer, counter) for every wrapped call site."""
    cli, proto, est = cvshare.cli, cvshare.protocol, cvshare.estimators
    sites = [
        (cli, "main", "cli", _count_cli),
        (proto, "run_protocol", "protocol", _count_run_protocol),
        (proto, "witness_verification_run", "protocol", _count_witness_run),
        (proto, "batch_mse_distribution", "protocol", _count_batch),
        (proto, "sift", "protocol", None),
        (proto, "entanglement_check", "protocol", None),
        (proto, "sample_joint", "sampler", _count_sample),
        (est, "estimate", "estimators", _count_estimate),
        (est, "witness_estimate", "estimators", _count_witness_estimate),
        (cli, "parse_coalition", "estimators", None),
        (cvshare.bounds, "predicted_mse", "bounds", None),
        (cvshare.certificates, "hcrb_thermal", "bounds", None),
        (cvshare.certificates, "verify_certificates", "certificates", _count_certificate),
        (proto, "partial_trace", "gaussian_core", None),
        (cli, "state_from_text", "gaussian_core", None),
        (cli, "state_to_text", "gaussian_core", None),
        (cli, "physicality_min_eigenvalue", "gaussian_core", None),
    ]
    for name in ("make_mse_report", "empirical_mse", "mse_standard_error", "bias_check",
                 "fit_gain", "gains_for_model", "optimal_gain", "pair_aux_coefficients",
                 "triple_aux_coefficients"):
        sites.append((est, name, "estimators", None))
    for module in (proto, cvshare.bounds, est, cli):
        sites.append((module, "build_dealer_state", "gaussian_core", None))
    for name in ("crossing_threshold", "security_probabilities", "mutual_information",
                 "prob_mi_above", "required_mse"):
        sites.append((cvshare.security, name, "security", None))
    return sites


class Tracer:
    """Spans and counters of the traced passes; ``job`` is the active job id or None."""

    def __init__(self):
        self.job: int | None = None
        self.spans: list[tuple] = []
        self.counters: defaultdict = defaultdict(float)
        self._next_id = 0
        self._stack: list[tuple[int, int]] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, fn, layer: int, count):
        stack = self._stack

        def wrapper(*args, **kwargs):
            if self.job is None or (stack and stack[-1][0] == layer):
                return fn(*args, **kwargs)
            sid = self._next_id
            self._next_id = sid + 1
            parent = stack[-1][1] if stack else -1
            stack.append((layer, sid))
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                self.spans.append((sid, layer, t0, t1, parent, self.job))
            if count is not None:
                count(self.counters, fn, args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        for module, attr, layer, count in _sites():
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, LAYERS.index(layer), count))
        state_cls = cvshare.gaussian_core.GaussianState
        post_init = state_cls.__post_init__
        self._saved.append((state_cls, "__post_init__", post_init))

        def counted_post_init(state):
            if self.job is not None:
                self.counters["gaussian_core.states_built"] += 1
            post_init(state)

        state_cls.__post_init__ = counted_post_init

    def uninstall(self) -> None:
        while self._saved:
            obj, attr, original = self._saved.pop()
            setattr(obj, attr, original)

    def take(self) -> tuple[np.ndarray, dict]:
        """Return and clear the spans (as an array) and the counters recorded so far."""
        spans = np.array(self.spans, dtype=float).reshape(-1, 6)
        counters = dict(self.counters)
        self.spans, self.counters = [], defaultdict(float)
        self._next_id = 0
        return spans, counters


def self_times(spans: np.ndarray) -> tuple[np.ndarray, np.ndarray, dict, float]:
    """Per-layer call counts and self times, per-job time covered by root spans, and
    the smallest self time of any span.

    A span's self time is its duration minus the durations of its child
    spans; spans are properly nested, so children never overlap.
    """
    spans = spans[np.argsort(spans[:, 0])]  # span ids are 0 .. n-1
    layer = spans[:, 1].astype(int)
    dur = spans[:, 3] - spans[:, 2]
    parent = spans[:, 4].astype(int)
    nested = parent >= 0
    own = dur - np.bincount(parent[nested], weights=dur[nested], minlength=dur.size)
    calls = np.bincount(layer, minlength=len(LAYERS))
    self_s = np.bincount(layer, weights=own, minlength=len(LAYERS))
    root_by_job = defaultdict(float)
    for job, d in zip(spans[~nested, 5].astype(int), dur[~nested]):
        root_by_job[int(job)] += d
    return calls, self_s, root_by_job, float(own.min()) if own.size else 0.0
