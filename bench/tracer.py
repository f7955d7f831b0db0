"""Outside-in tracer for the dyadlab layers.

The tracer wraps every public module-level function of the traced
modules and records one span per call: name, start, end and the span
that caused it.  Modules such as `cli` and `normest` bind functions with
`from dyadlab.x import y`, so each wrapper is rebound in every loaded
`dyadlab` namespace that holds the original function object, not only in
its home module; a call through `cli.apq_characteristic` is then traced
like one through `weights.apq_characteristic`.  `uninstall` puts every
original back.

A span's self time is its duration minus the time covered by its child
spans.  A few spans also carry layer counts read from the return value
or the exception (cubes built, family entries, ascent iterations,
refused probes, bytes written).  Spans stay in memory until `dump`.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import time
from collections import defaultdict

PACKAGE = "dyadlab"
LAYERS = ("lattice", "dyadic", "weights", "oscillation", "sparse", "operators",
          "normest", "cli")

# Per-layer metrics the traced run reports: (name, unit).  A `self_share`
# is the span's self time over the traced pass's wall time; a layer that a
# workload does not use reads 0.
LAYER_METRICS = [
    ("normest.opnorm_estimate.svd.self_share", "ratio"),
    ("normest.opnorm_estimate.svd.calls", "count"),
    ("normest.opnorm_estimate.ascent.self_share", "ratio"),
    ("normest.opnorm_estimate.ascent.calls", "count"),
    ("normest.opnorm_estimate.ascent.iterations", "count"),
    ("normest.awf_lower_probe.self_share", "ratio"),
    ("normest.awf_lower_probe.calls", "count"),
    ("normest.awf_lower_probe.refused", "count"),
    ("normest.awf_lower_probe.accept_ratio", "ratio"),
    ("normest.star_matrix.self_share", "ratio"),
    ("normest.bmo_vs_norm_sweep.self_share", "ratio"),
    ("normest.compactness_profile.self_share", "ratio"),
    ("operators.assemble.self_share", "ratio"),
    ("operators.assemble.calls", "count"),
    ("operators.decompose.self_share", "ratio"),
    ("operators.decompose.calls", "count"),
    ("operators.commutator_matrix.self_share", "ratio"),
    ("operators.commutator_matrix.calls", "count"),
    ("operators.commutator_apply.self_share", "ratio"),
    ("operators.commutator_apply.calls", "count"),
    ("operators.dense_bytes", "bytes"),
    ("dyadic.enumerate_cubes.self_share", "ratio"),
    ("dyadic.enumerate_cubes.calls", "count"),
    ("dyadic.enumerate_cubes.cubes", "count"),
    ("dyadic.generation_averages.self_share", "ratio"),
    ("dyadic.generation_averages.calls", "count"),
    ("weights.apq_characteristic.self_share", "ratio"),
    ("weights.apq_characteristic.calls", "count"),
    ("weights.apq_characteristic.cubes", "count"),
    ("weights.bloom_sandwich_report.self_share", "ratio"),
    ("weights.membership_surrogate.self_share", "ratio"),
    ("weights.bloom_weight.self_share", "ratio"),
    ("weights.make_weight.self_share", "ratio"),
    ("oscillation.bmo_norm.self_share", "ratio"),
    ("oscillation.bmo_norm.calls", "count"),
    ("oscillation.bmo_norm.cubes", "count"),
    ("oscillation.oscillation.self_share", "ratio"),
    ("oscillation.oscillation.calls", "count"),
    ("oscillation.region_cells.self_share", "ratio"),
    ("oscillation.region_cells.calls", "count"),
    ("oscillation.jn_verify.self_share", "ratio"),
    ("sparse.cz_augment.self_share", "ratio"),
    ("sparse.cz_augment.calls", "count"),
    ("sparse.cz_augment.entries", "count"),
    ("sparse.is_sparse.self_share", "ratio"),
    ("sparse.augmentation_ratio.self_share", "ratio"),
    ("sparse.split_family.self_share", "ratio"),
    ("lattice.sample_symbol.self_share", "ratio"),
    ("lattice.sample_symbol.calls", "count"),
    ("cli.run.self_share", "ratio"),
    ("cli.emit_report.self_share", "ratio"),
    ("cli.emit_report.bytes", "bytes"),
]


def _dense_bytes(result, exc):
    mats = result if isinstance(result, tuple) else (result,)
    return None, {"dense_bytes": sum(int(m.matrix.nbytes) for m in mats if m is not None)}


def _opnorm(result, exc):
    if result is None:
        return None, {}
    if result.method == "svd-exact":
        return "svd", {}
    return "ascent", {"iterations": result.iterations}


def _probe(result, exc):
    refused = exc is not None and type(exc).__name__ == "ProbeRefused"
    return None, {"refused": int(refused)}


def _length(attr, counter):
    def observe(result, exc):
        if result is None:
            return None, {}
        return None, {counter: len(getattr(result, attr) if attr else result)}
    return observe


def _written(result, exc):
    return None, {"bytes": sum(os.path.getsize(p) for p in result or ())}


# "<layer>.<function>" -> observe(result, exc) -> (span-name suffix, counts).
# Counts named "dense_bytes" are layer-wide; all others belong to the span.
OBSERVERS = {
    "normest.opnorm_estimate": _opnorm,
    "normest.awf_lower_probe": _probe,
    "operators.assemble": _dense_bytes,
    "operators.commutator_matrix": _dense_bytes,
    "operators.decompose": _dense_bytes,
    "dyadic.enumerate_cubes": _length(None, "cubes"),
    "weights.apq_characteristic": _length("cubes", "cubes"),
    "oscillation.bmo_norm": _length("cubes", "cubes"),
    "sparse.cz_augment": _length("entries", "entries"),
    "cli.emit_report": _written,
}


def public_functions(module) -> dict:
    """Module-level functions defined in `module` whose names are public."""
    return {
        name: obj for name, obj in vars(module).items()
        if inspect.isfunction(obj) and obj.__module__ == module.__name__
        and not name.startswith("_")
    }


class Tracer:
    """Wraps the public functions of the dyadlab layers while installed."""

    def __init__(self):
        self.spans = []  # (span id, parent id or -1, name, start, end)
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self._stack = []  # [span id, child time] of the open spans
        self._next_id = 0
        self._rebound = []  # (namespace, attribute, original)

    # -- installation ----------------------------------------------------------

    def install(self) -> "Tracer":
        if self._rebound:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"{PACKAGE}.{layer}")
            for name, fn in public_functions(module).items():
                wrappers[id(fn)] = (fn, self._wrap(f"{layer}.{name}", fn))
        for namespace in self._namespaces():
            for attr, value in list(vars(namespace).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._rebound.append((namespace, attr, value))
                    setattr(namespace, attr, hit[1])
        return self

    def uninstall(self) -> None:
        for namespace, attr, original in reversed(self._rebound):
            setattr(namespace, attr, original)
        self._rebound = []

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc_info) -> None:
        self.uninstall()

    @staticmethod
    def _namespaces() -> list:
        return [mod for name, mod in sorted(sys.modules.items())
                if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]

    # -- spans -----------------------------------------------------------------

    def _wrap(self, span_name: str, fn):
        observe = OBSERVERS.get(span_name)
        layer = span_name.split(".", 1)[0]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = self._stack[-1][0] if self._stack else -1
            frame = [span_id, 0.0]
            self._stack.append(frame)
            result, error = None, None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as exc:
                error = exc
                raise
            finally:
                end = time.perf_counter()
                self._stack.pop()
                elapsed = end - start
                if self._stack:
                    self._stack[-1][1] += elapsed
                name = span_name
                counts = {}
                if observe is not None:
                    suffix, counts = observe(result, error)
                    if suffix:
                        name = f"{span_name}.{suffix}"
                self.spans.append((span_id, parent, name, start, end))
                self.self_s[name] += elapsed - frame[1]
                self.calls[name] += 1
                for key, value in counts.items():
                    if key == "dense_bytes":
                        self.counts[f"{layer}.{key}"] += value
                    else:
                        self.counts[f"{name}.{key}"] += value

        return traced

    # -- results ---------------------------------------------------------------

    def snapshot(self) -> dict:
        """Flat metric values since the last reset: self_s, calls and counts."""
        out = {}
        for name, value in self.self_s.items():
            out[f"{name}.self_s"] = value
        for name, value in self.calls.items():
            out[f"{name}.calls"] = value
        out.update(self.counts)
        probes = out.get("normest.awf_lower_probe.calls", 0)
        refused = out.get("normest.awf_lower_probe.refused", 0)
        out["normest.awf_lower_probe.accept_ratio"] = (
            (probes - refused) / probes if probes else 0.0
        )
        return out

    def reset(self) -> None:
        """Start a new aggregation window; recorded spans are kept."""
        self.self_s.clear()
        self.calls.clear()
        self.counts.clear()

    def dump(self) -> dict:
        """Every recorded span, as parallel lists, with times relative to the first."""
        t0 = self.spans[0][3] if self.spans else 0.0
        names = sorted({s[2] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        return {
            "names": names,
            "id": [s[0] for s in self.spans],
            "parent": [s[1] for s in self.spans],
            "name": [index[s[2]] for s in self.spans],
            "start_s": [round(s[3] - t0, 7) for s in self.spans],
            "end_s": [round(s[4] - t0, 7) for s in self.spans],
        }


def layer_metrics(snapshot: dict, wall: float) -> dict:
    """Every LAYER_METRICS value from one traced pass's snapshot and wall time."""
    out = {}
    for name, _unit in LAYER_METRICS:
        if name.endswith(".self_share"):
            out[name] = snapshot.get(name.removesuffix("share") + "s", 0.0) / wall
        else:
            out[name] = snapshot.get(name, 0)
    return out
