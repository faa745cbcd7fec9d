"""Spans around calls into the ifsfourier modules, recorded from outside.

The tracer wraps public names only: every function listed in a layer
module's `__all__` (generator functions excepted, since their work runs
after the call returns) plus a few public methods.  Wrappers replace the
original object in every `ifsfourier.*` module namespace that holds it,
so `from .measure import mu_hat_batch` call sites are traced as well;
`uninstall` puts the originals back.  A name that a later version of
the package no longer has is reported as absent, never an error.

A span is (span id, parent span id, job id, name, layer, start, end,
failed, counts).  Names are `<layer>.<public name>`; see README.md for
the schema and the metrics derived from it.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from collections import defaultdict

import numpy as np

LAYERS = ("system", "ratlinalg", "hadamard", "measure", "cycles", "spectrum",
          "transfer", "pathspace", "invariant", "registry")

# Per-element formatters: a span per call would cost more than the call.
NOT_SPANNED = {"system.fvec", "system.frac_str"}


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _rows(a) -> int:
    a = np.asarray(a)
    return 1 if a.ndim == 0 else int(a.shape[0])


def _count_chain(args, kwargs, result):
    return {"steps": int(result.n) + int(result.burn_in) * int(result.n_chains)}


# Work counters: span name -> fn(args, kwargs, result) -> {count: value}.
COUNTERS = {
    "system.tau_all": lambda a, k, r: {"points": _rows(np.atleast_2d(_arg(a, k, 1, "points")))},
    "measure.weight": lambda a, k, r: {"points": _rows(_arg(a, k, 1, "x"))},
    "measure.mu_hat_batch": lambda a, k, r: {"rows": int(r.shape[0])},
    "measure.mu_hat_detail": lambda a, k, r: {"exact_zeros": int(r.exact_zero)},
    "measure.chaos_game": lambda a, k, r: {"samples": int(r.shape[0])},
    "cycles.enumerate_cycles": lambda a, k, r: {"cycles": len(r)},
    "cycles.classify_w": lambda a, k, r: {"w_cycles": int(bool(r.is_w_cycle))},
    "spectrum.generate_lambda": lambda a, k, r: {"elements": len(r.elements)},
    "spectrum.verify_orthogonality": lambda a, k, r: {
        "pairs": r.n_elements * (r.n_elements - 1) // 2},
    "spectrum.completeness_sum": lambda a, k, r: {"rows": len(_arg(a, k, 1, "lambda_subset"))},
    "spectrum.k_points_of_depth": lambda a, k, r: {
        "words": _arg(a, k, 0, "sys").N ** (_arg(a, k, 2, "depth") * _arg(a, k, 1, "cycle").period),
        "distinct": len(r)},
    "spectrum.lattice_basin_labels": lambda a, k, r: {
        "points": int(len(r[1])), "labelled": int(np.sum(r[1] >= 0))},
    "transfer.ruelle_apply": lambda a, k, r: {"grid_points": int(r.values.size)},
    "pathspace.sample_paths": lambda a, k, r: {"path_steps": int(r.words.size)},
    "pathspace.estimate_h": lambda a, k, r: {
        "paths": int(r.count), "classified": int(round((1.0 - r.unclassified) * r.count))},
    "invariant.run_chain": _count_chain,
    "invariant.riesz_chain": _count_chain,
}

# Public methods: (layer, class path, attribute, span name).
METHODS = (
    ("system", "AffineSystem", "create", "system.create"),
    ("system", "IfsView", "tau_all", "system.tau_all"),
    ("measure", "Weight", "__call__", "measure.weight"),
)


class Tracer:
    """Collects spans for one traced round; install/uninstall bracket it."""

    def __init__(self):
        self.spans = []
        self._stack = []  # open spans: [id, name, layer, start, child_time]
        self._next = 0
        self._job = None
        self._patches = []
        self.hooked = set()

    # -- installation ---------------------------------------------------------------

    def install(self):
        for layer in LAYERS:
            try:
                mod = importlib.import_module("ifsfourier." + layer)
            except ImportError:
                continue
            for name in getattr(mod, "__all__", ()):
                fn = getattr(mod, name, None)
                span = "%s.%s" % (layer, name)
                if (span in NOT_SPANNED or not inspect.isfunction(fn)
                        or inspect.isgeneratorfunction(fn)):
                    continue
                self._replace_everywhere(fn, self._wrap(fn, span, layer))
            for m_layer, cls_name, attr, span in METHODS:
                cls = getattr(mod, cls_name, None) if m_layer == layer else None
                if cls is None or attr not in cls.__dict__:
                    continue
                raw = cls.__dict__[attr]
                if isinstance(raw, staticmethod):
                    new = staticmethod(self._wrap(raw.__func__, span, layer))
                else:
                    new = self._wrap(raw, span, layer)
                self._patches.append((cls, attr, raw))
                setattr(cls, attr, new)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _replace_everywhere(self, original, wrapper):
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "ifsfourier" or mod_name.startswith("ifsfourier.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def _wrap(self, fn, span, layer):
        counter = COUNTERS.get(span)
        tracer = self
        self.hooked.add(span)

        def wrapper(*args, **kwargs):
            tracer._open(span, layer)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._close(True, None)
                raise
            counts = None
            if counter is not None:
                try:
                    counts = counter(args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError, ValueError):
                    pass  # a changed signature or result loses the count, not the job
            tracer._close(False, counts)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", span)
        wrapper.__doc__ = fn.__doc__
        return wrapper

    # -- spans ----------------------------------------------------------------------

    def job(self, job_id):
        """Open the root span of a job; call the result to close it."""
        self._job = job_id
        self._open("job", "job")

        def close(failed):
            self._close(failed, None)
            self._job = None
        return close

    def _open(self, name, layer):
        self._stack.append([self._next, name, layer, time.perf_counter(), 0.0])
        self._next += 1

    def _close(self, failed, counts):
        end = time.perf_counter()
        opened, name, layer, start, child_time = self._stack.pop()
        duration = end - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[4] += duration
        self.spans.append({
            "id": opened, "parent": None if parent is None else parent[0],
            "parent_layer": None if parent is None else parent[2],
            "job": self._job, "name": name, "layer": layer,
            "start": start, "end": end, "self": duration - child_time,
            "outer_name": not any(e[1] == name for e in self._stack),
            "outer_layer": not any(e[2] == layer for e in self._stack),
            "failed": failed, "counts": counts,
        })


def summarize(spans) -> dict:
    """Per span name: calls, busy_s (outermost spans of that name), self_s,
    errors and summed counts; per layer: busy_s, top_s (spans directly
    under a job root), calls and errors; and cli.self_s."""
    names = defaultdict(lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "errors": 0,
                                 "counts": defaultdict(int)})
    layers = defaultdict(lambda: {"calls": 0, "busy_s": 0.0, "top_s": 0.0, "errors": 0})
    cli_self = 0.0
    job_s = 0.0
    for s in spans:
        duration = s["end"] - s["start"]
        if s["layer"] == "job":
            cli_self += s["self"]
            job_s += duration
            continue
        entry = names[s["name"]]
        entry["calls"] += 1
        entry["self_s"] += s["self"]
        entry["errors"] += s["failed"]
        if s["outer_name"]:
            entry["busy_s"] += duration
        for key, value in (s["counts"] or {}).items():
            entry["counts"][key] += value
        lay = layers[s["layer"]]
        lay["calls"] += 1
        lay["errors"] += s["failed"]
        if s["outer_layer"]:
            lay["busy_s"] += duration
        if s["parent_layer"] == "job":
            lay["top_s"] += duration
    return {"names": names, "layers": layers, "cli_self_s": cli_self, "job_s": job_s}


def layer_metrics(summary, job_errors: int) -> dict:
    """The per-layer metrics named in BENCHMARK.json, from one summary."""
    names, layers = summary["names"], summary["layers"]

    def busy(name):
        return names[name]["busy_s"] if name in names else 0.0

    def count(name, key):
        return names[name]["counts"].get(key, 0) if name in names else 0

    def calls(name):
        return names[name]["calls"] if name in names else 0

    def ratio(num, den):
        return num / den if den else 0.0

    m = {
        "cli.self_s": summary["cli_self_s"],
        "cli.errors": job_errors,
        "trace.job_s": summary["job_s"],
        "system.create.busy_s": busy("system.create"),
        "system.tau_all.calls": calls("system.tau_all"),
        "system.tau_all.points": count("system.tau_all", "points"),
        "system.tau_all.busy_s": busy("system.tau_all"),
        "ratlinalg.calls": layers["ratlinalg"]["calls"] if "ratlinalg" in layers else 0,
        "ratlinalg.busy_s": layers["ratlinalg"]["busy_s"] if "ratlinalg" in layers else 0.0,
        "hadamard.check_duality.busy_s": busy("hadamard.check_duality"),
        "measure.weight.points": count("measure.weight", "points"),
        "measure.weight.busy_s": busy("measure.weight"),
        "measure.mu_hat_batch.rows": count("measure.mu_hat_batch", "rows"),
        "measure.mu_hat_batch.busy_s": busy("measure.mu_hat_batch"),
        "measure.mu_hat_detail.calls": calls("measure.mu_hat_detail"),
        "measure.mu_hat_detail.busy_s": busy("measure.mu_hat_detail"),
        "measure.mu_hat_detail.exact_zero_ratio": ratio(
            count("measure.mu_hat_detail", "exact_zeros"), calls("measure.mu_hat_detail")),
        "measure.chaos_game.samples": count("measure.chaos_game", "samples"),
        "measure.chaos_game.busy_s": busy("measure.chaos_game"),
        "cycles.enumerate_cycles.cycles": count("cycles.enumerate_cycles", "cycles"),
        "cycles.enumerate_cycles.busy_s": busy("cycles.enumerate_cycles"),
        "cycles.w_cycle_ratio": ratio(count("cycles.classify_w", "w_cycles"),
                                      calls("cycles.classify_w")),
        "spectrum.generate_lambda.elements": count("spectrum.generate_lambda", "elements"),
        "spectrum.generate_lambda.busy_s": busy("spectrum.generate_lambda"),
        "spectrum.verify_orthogonality.pairs": count("spectrum.verify_orthogonality", "pairs"),
        "spectrum.verify_orthogonality.busy_s": busy("spectrum.verify_orthogonality"),
        "spectrum.completeness_sum.rows": count("spectrum.completeness_sum", "rows"),
        "spectrum.completeness_sum.busy_s": busy("spectrum.completeness_sum"),
        "spectrum.k_points_of_depth.words": count("spectrum.k_points_of_depth", "words"),
        "spectrum.k_points_of_depth.busy_s": busy("spectrum.k_points_of_depth"),
        "spectrum.k_points_of_depth.distinct_ratio": ratio(
            count("spectrum.k_points_of_depth", "distinct"),
            count("spectrum.k_points_of_depth", "words")),
        "spectrum.lattice_basin_labels.points": count("spectrum.lattice_basin_labels", "points"),
        "spectrum.lattice_basin_labels.busy_s": busy("spectrum.lattice_basin_labels"),
        "spectrum.lattice_basin_labels.labelled_ratio": ratio(
            count("spectrum.lattice_basin_labels", "labelled"),
            count("spectrum.lattice_basin_labels", "points")),
        "transfer.ruelle_apply.calls": calls("transfer.ruelle_apply"),
        "transfer.ruelle_apply.grid_points": count("transfer.ruelle_apply", "grid_points"),
        "transfer.ruelle_apply.busy_s": busy("transfer.ruelle_apply"),
        "transfer.check_qmf.busy_s": busy("transfer.check_qmf"),
        "pathspace.sample_paths.path_steps": count("pathspace.sample_paths", "path_steps"),
        "pathspace.sample_paths.busy_s": busy("pathspace.sample_paths"),
        "pathspace.sample_paths.self_s": (names["pathspace.sample_paths"]["self_s"]
                                          if "pathspace.sample_paths" in names else 0.0),
        "pathspace.estimate_h.classified_ratio": ratio(
            count("pathspace.estimate_h", "classified"), count("pathspace.estimate_h", "paths")),
        "pathspace.h_closed_form.busy_s": busy("pathspace.h_closed_form"),
        "invariant.run_chain.steps": count("invariant.run_chain", "steps"),
        "invariant.run_chain.busy_s": busy("invariant.run_chain"),
        "invariant.riesz_chain.steps": count("invariant.riesz_chain", "steps"),
        "invariant.riesz_chain.busy_s": busy("invariant.riesz_chain"),
        "invariant.fourier_coefficient.busy_s": busy("invariant.fourier_coefficient"),
    }
    for layer in LAYERS:
        if layer == "registry":
            continue
        entry = layers.get(layer, {"top_s": 0.0, "errors": 0})
        m[layer + ".top_s"] = entry["top_s"]
        m[layer + ".errors"] = entry["errors"]
    return m


# Span names the per-layer metrics above are read from; any that the
# installed package does not offer is reported as absent.
REQUIRED_SPANS = (
    "system.create", "system.tau_all", "hadamard.check_duality", "measure.weight",
    "measure.mu_hat_batch", "measure.mu_hat_detail", "measure.chaos_game",
    "cycles.enumerate_cycles", "cycles.classify_w", "spectrum.generate_lambda",
    "spectrum.verify_orthogonality", "spectrum.completeness_sum",
    "spectrum.k_points_of_depth", "spectrum.lattice_basin_labels", "transfer.ruelle_apply",
    "transfer.check_qmf", "pathspace.sample_paths", "pathspace.estimate_h",
    "pathspace.h_closed_form", "invariant.run_chain", "invariant.riesz_chain",
    "invariant.fourier_coefficient", "registry.get_system",
)
