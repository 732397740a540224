"""Per-layer spans recorded from outside the program.

The benchmark does not edit the package: it replaces each layer's public
entry points with a timing wrapper, in every `bihankel` namespace that holds
a reference to them.  A module that did `from .caratheodory import
unit_disk_samples` keeps its own name for the function, so patching only the
defining module would silently miss those calls.

Spans live in memory as `(parent, key, start, end, peak_bytes)` tuples and
are reduced after the traced pass: a span's self time is its duration minus
the time its direct children cover (calls are strictly nested, one thread).
Counters are taken from arguments and results at the layer boundary, only for
the outermost span of a layer, so a sampler that calls another sampler is
not counted twice.
"""

from __future__ import annotations

import gzip
import inspect
import sys
import time
import tracemalloc
from collections import defaultdict
from pathlib import Path

import numpy as np

# (layer, module, entry points); "Class.method" patches the class attribute.
# Only these names get spans; `h22_batch` is the one span inside `optimizer`
# below the public searches.  Names a later refactor removes are skipped and
# listed in the run record, so a renamed entry point shows as missing rather
# than crashing the benchmark.
ENTRY_POINTS = (
    ("series", "series",
     ("invert_composition", "compose", "starlike_functional", "convex_functional")),
    ("caratheodory", "caratheodory",
     ("unit_disk_samples", "unit_circle_samples", "sample_disk_params",
      "sample_herglotz_measures", "coeffs_from_disk_params", "coeffs_from_herglotz",
      "p_coefficients_from_herglotz", "rotate_to_real", "x_from_c2", "validate_p")),
    ("functionals", "functionals",
     ("verify_coefficient_system", "reconstruct", "hankel_2_2", "fekete_szego",
      "hankel_matrix_det", "series_from_bicoefficients")),
    ("bounds", "bounds",
     ("h22_bound", "starlike_h22_bound", "convex_h22_bound", "quartic_profile",
      "surrogate_terms", "critical_point", "fekete_szego_bound",
      "QuarticProfile.value", "QuarticProfile.terms", "QuarticProfile.derivative",
      "QuarticProfile.second_derivative", "QuarticProfile.surface")),
    ("optimizer.grid", "optimizer",
     ("maximize_1d", "maximize_unit_square", "maximize_surrogate")),
    ("optimizer.h22_batch", "optimizer", ("h22_batch",)),
    ("optimizer.empirical", "optimizer", ("empirical_max_h22",)),
    ("verification", "verification", ("run_checks",)),
    ("cli", "cli", ("main",)),
)

LAYERS = tuple(dict.fromkeys(layer for layer, _, _ in ENTRY_POINTS))

# bytes the coefficient kernel reads and writes per sample: c (float64) and
# x, y, z, w (complex128) in, |a2 a4 - a3^2| (float64) out
H22_BYTES_PER_SAMPLE = 8 + 4 * 16 + 8

MB = float(1 << 20)


def _argument(fn, args, kwargs, name):
    return inspect.signature(fn).bind(*args, **kwargs).arguments[name]


def _count(layer, fn, args, kwargs, result, counts):
    """Work counters read at the outermost span of a layer."""
    name = fn.__name__
    if layer == "caratheodory":
        if isinstance(result, np.ndarray):
            counts["caratheodory.samples"] += result.size
        elif isinstance(result, list) and name.startswith("sample_"):
            counts["caratheodory.samples"] += len(result)
            counts["caratheodory.objects"] += len(result)
        elif not isinstance(result, (bool, list)):
            counts["caratheodory.objects"] += 1
    elif layer == "optimizer.grid":
        counts["optimizer.grid.evaluations"] += result.evaluations
    elif layer == "optimizer.h22_batch":
        counts["optimizer.h22_batch.samples"] += np.size(_argument(fn, args, kwargs, "c"))
    elif layer == "optimizer.empirical":
        counts["optimizer.empirical.requested"] += _argument(fn, args, kwargs, "samples")
        counts["optimizer.empirical.evaluations"] += result.evaluations
    elif layer == "verification":
        counts["verification.checks"] += len(result)


class Tracer:
    """Installs span wrappers into the package and reduces the spans they record.

    With `memory=True`, each span also records the peak of traced allocations
    (tracemalloc) above the level at its start; the peak is reset at every
    span boundary and folded back into the enclosing span, so nesting does
    not hide a child's peak from its parent.
    """

    def __init__(self, package_modules: dict, memory: bool = False):
        self.modules = package_modules
        self.memory = memory
        self.keys: list[tuple[str, str]] = []
        self.missing: list[str] = []
        self.spans: list = []
        self.counts: defaultdict = defaultdict(int)
        self._stack: list = []
        self._patches: list = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        for layer, module_name, names in ENTRY_POINTS:
            module = self.modules[module_name]
            for qualname in names:
                owner, attr = module, qualname
                if "." in qualname:
                    cls_name, attr = qualname.split(".", 1)
                    owner = getattr(module, cls_name, None)
                original = getattr(owner, attr, None) if owner is not None else None
                if not callable(original):
                    self.missing.append(f"{module_name}.{qualname}")
                    continue
                key = len(self.keys)
                self.keys.append((layer, qualname))
                wrapper = self._wrap(layer, key, original)
                if owner is module:
                    self._replace_everywhere(original, wrapper)
                else:
                    self._patches.append((owner, attr, original))
                    setattr(owner, attr, wrapper)

    def _replace_everywhere(self, original, wrapper) -> None:
        for module in self.modules.values():
            for name, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, name, original))
                    setattr(module, name, wrapper)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    def __enter__(self):
        if self.memory:
            tracemalloc.start()
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        if self.memory:
            tracemalloc.stop()
        return False

    def _wrap(self, layer, key, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter
        memory = self.memory

        def traced(*args, **kwargs):
            parent_sid, parent_layer = stack[-1][:2] if stack else (-1, None)
            sid = len(spans)
            spans.append(None)
            if memory:
                current, peak = tracemalloc.get_traced_memory()
                if stack:
                    stack[-1][2] = max(stack[-1][2], peak)
                tracemalloc.reset_peak()
            else:
                current = 0
            frame = [sid, layer, current]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                peak_above = 0
                if memory:
                    frame[2] = max(frame[2], tracemalloc.get_traced_memory()[1])
                    peak_above = frame[2] - current
                    if stack:
                        stack[-1][2] = max(stack[-1][2], frame[2])
                spans[sid] = (parent_sid, key, start, end, peak_above)
            if parent_layer != layer:
                _count(layer, fn, args, kwargs, result, counts)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- reduction ----------------------------------------------------------

    def per_function(self) -> list[dict]:
        """calls, inclusive and self seconds and peak allocation per entry point."""
        covered = [0.0] * len(self.spans)
        for parent, _, start, end, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        rows = [dict(layer=layer, function=name, calls=0, total_s=0.0, self_s=0.0,
                     outer_s=0.0, peak_alloc_mb=0.0)
                for layer, name in self.keys]
        for sid, (parent, key, start, end, peak) in enumerate(self.spans):
            row = rows[key]
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - covered[sid]
            if parent < 0 or self.keys[self.spans[parent][1]][0] != row["layer"]:
                row["outer_s"] += end - start
            row["peak_alloc_mb"] = max(row["peak_alloc_mb"], peak / MB)
        return rows

    def layer_metrics(self) -> dict:
        """The per-layer metrics of one traced pass (no `trace.overhead_s`)."""
        rows = self.per_function()
        out = {}
        for layer in LAYERS:
            mine = [r for r in rows if r["layer"] == layer]
            out[layer] = dict(
                calls=sum(r["calls"] for r in mine),
                self_s=sum(r["self_s"] for r in mine),
                outer_s=sum(r["outer_s"] for r in mine),
                peak_alloc_mb=max((r["peak_alloc_mb"] for r in mine), default=0.0),
            )
        c = self.counts
        grid, batch = out["optimizer.grid"], out["optimizer.h22_batch"]
        empirical = out["optimizer.empirical"]
        samples = c["optimizer.h22_batch.samples"]
        requested = c["optimizer.empirical.requested"]
        return {
            "series.calls": out["series"]["calls"],
            "series.self_s": out["series"]["self_s"],
            "caratheodory.calls": out["caratheodory"]["calls"],
            "caratheodory.self_s": out["caratheodory"]["self_s"],
            "caratheodory.samples": c["caratheodory.samples"],
            "caratheodory.objects": c["caratheodory.objects"],
            "caratheodory.peak_alloc_mb": out["caratheodory"]["peak_alloc_mb"],
            "functionals.calls": out["functionals"]["calls"],
            "functionals.self_s": out["functionals"]["self_s"],
            "bounds.calls": out["bounds"]["calls"],
            "bounds.self_s": out["bounds"]["self_s"],
            "optimizer.grid.calls": grid["calls"],
            "optimizer.grid.self_s": grid["self_s"],
            "optimizer.grid.evaluations": c["optimizer.grid.evaluations"],
            "optimizer.grid.evals_per_s": _rate(c["optimizer.grid.evaluations"], grid["outer_s"]),
            "optimizer.h22_batch.self_s": batch["self_s"],
            "optimizer.h22_batch.samples": samples,
            "optimizer.h22_batch.samples_per_s": _rate(samples, batch["self_s"]),
            "optimizer.h22_batch.bytes_computed": samples * H22_BYTES_PER_SAMPLE,
            "optimizer.h22_batch.peak_alloc_mb": batch["peak_alloc_mb"],
            "optimizer.empirical.self_s": empirical["self_s"],
            "optimizer.empirical.kept_ratio": _rate(c["optimizer.empirical.evaluations"], requested),
            "optimizer.empirical.peak_alloc_mb": empirical["peak_alloc_mb"],
            "verification.self_s": out["verification"]["self_s"],
            "verification.checks": c["verification.checks"],
            "cli.self_s": out["cli"]["self_s"],
        }

    def write_spans(self, path: Path) -> None:
        """All spans of the pass as gzipped CSV: id, parent, layer, function, start, end, peak."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("id,parent,layer,function,start_s,end_s,peak_alloc_bytes\n")
            for sid, (parent, key, start, end, peak) in enumerate(self.spans):
                layer, name = self.keys[key]
                fh.write(f"{sid},{parent},{layer},{name},{start!r},{end!r},{peak}\n")


def _rate(numerator, denominator) -> float:
    return numerator / denominator if denominator > 0 else 0.0


def package_modules() -> dict:
    """The loaded `bihankel` modules by short name ('' for the package itself)."""
    return {
        name.partition(".")[2]: module
        for name, module in sys.modules.items()
        if name == "bihankel" or name.startswith("bihankel.")
    }
