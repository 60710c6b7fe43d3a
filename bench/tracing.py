"""Spans around calls into specfam's layers, recorded from outside the package.

``Tracer.installed()`` replaces each traced public function with a wrapper on
every ``specfam`` module that holds it by name (``from .spectral import ...``
binds the function into the importing module), and puts the originals back on
exit.  Spans stay in memory as (name, start, end, parent, pass id, error,
count) until the run writes them out; ``layer_metrics`` derives the per-layer
numbers from them.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import itertools
import statistics
import sys
import time
import weakref

import numpy as np

#: span name -> (defining module, public function); the name prefix is the layer
TRACED = {
    "report.run_analysis": ("specfam.report", "run_analysis"),
    "report.validate": ("specfam.report", "validate_config"),
    "report.jsonable": ("specfam.report", "jsonable"),
    "report.canonical_json": ("specfam.report", "canonical_json"),
    "families.sample": ("specfam.families", "sample"),
    "families.load": ("specfam.families", "load_matrix_path"),
    "spectral.decompose": ("specfam.spectral", "decompose"),
    "spectral.hermitian_norm": ("specfam.spectral", "hermitian_norm"),
    "spectral.operator_norm": ("specfam.spectral", "operator_norm"),
    "spectral.projector": ("specfam.spectral", "projector"),
    "adapted.find": ("specfam.adapted", "find_adapted_pair"),
    "adapted.certify": ("specfam.adapted", "certify_adapted_pair"),
    "adapted.sweep": ("specfam.adapted", "definitional_sweep"),
    "adapted.discrete": ("specfam.adapted", "discrete_spectrum_certify"),
    "topology.graph": ("specfam.topology", "graph_continuity_certify"),
    "topology.riesz": ("specfam.topology", "riesz_continuity_certify"),
    "topology.strict": ("specfam.topology", "strict_adaptedness_certify"),
    "topology.distances": ("specfam.topology", "continuity_modulus"),
    "flow.tracking": ("specfam.flow", "flow_by_tracking"),
    "flow.partition": ("specfam.flow", "flow_by_partition"),
    "polarized.correspondence": ("specfam.polarized", "transform_correspondence_check"),
    "polarized.weak": ("specfam.polarized", "weak_discrete_spectrum_certify"),
    "polarized.check": ("specfam.polarized", "compact_polarization_check"),
}

# span fields
NAME, START, END, PARENT, PASS, ERROR, COUNT = range(7)

#: per-layer metric name -> unit, in the order they are printed
LAYER_UNITS = {
    "report.validate_s": "s",
    "report.serialize_s": "s",
    "report.self_s": "s",
    "report.bytes_written": "bytes",
    "families.sample_s": "s",
    "families.load_s": "s",
    "spectral.decompose_calls": "count",
    "spectral.decompose_s": "s",
    "spectral.decompose_work": "ops",
    "spectral.norm_calls": "count",
    "spectral.norm_s": "s",
    "spectral.norm_work": "ops",
    "spectral.projector_calls": "count",
    "spectral.projector_s": "s",
    "adapted.find_calls": "count",
    "adapted.find_s": "s",
    "adapted.certify_calls": "count",
    "adapted.certify_s": "s",
    "adapted.certify_self_s": "s",
    "adapted.edge_evals": "count",
    "adapted.edge_distinct": "count",
    "adapted.edge_reuse_ratio": "ratio",
    "adapted.sweep_s": "s",
    "adapted.discrete_s": "s",
    "adapted.refusals": "count",
    "topology.graph_s": "s",
    "topology.riesz_s": "s",
    "topology.strict_s": "s",
    "topology.distances_s": "s",
    "topology.refusals": "count",
    "flow.tracking_s": "s",
    "flow.partition_s": "s",
    "flow.partition_segments": "count",
    "polarized.correspondence_s": "s",
    "polarized.weak_s": "s",
    "polarized.check_calls": "count",
    "trace.overhead_frac": "ratio",
}


def _specfam_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "specfam" or name.startswith("specfam."))]


class Tracer:
    """Spans of the traced passes of one benchmark run."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.pass_id = -1
        self._stack: list[int] = []
        # (pass id, layer) -> refusals; distinct (sample, edge, window masks) per pass
        self._refusals: dict[tuple[int, str], int] = {}
        self._edge_keys: dict[int, set] = {}
        self._sample_serials = weakref.WeakKeyDictionary()
        self._serials = itertools.count()
        # layer -> the refusal it saw last, so one raised through nested spans
        # counts once; cleared between passes so no traceback outlives its pass
        self._last_refusal: dict[str, BaseException] = {}

    def start_pass(self, pass_id: int) -> None:
        self.pass_id = pass_id
        self._last_refusal.clear()

    def refusals(self, pass_id: int, layer: str) -> int:
        return self._refusals.get((pass_id, layer), 0)

    def edge_distinct(self, pass_id: int) -> int:
        return len(self._edge_keys.get(pass_id, ()))

    def _serial(self, smp) -> int:
        """A number naming the sample for the whole run (ids can be reused)."""
        serial = self._sample_serials.get(smp)
        if serial is None:
            serial = self._sample_serials[smp] = next(self._serials)
        return serial

    def _wrap(self, name: str, fn):
        from specfam.errors import CertificationError, ModulusExceeded

        spans, stack = self.spans, self._stack
        layer = name.split(".")[0]
        count_of = _COUNTERS.get(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            # a direct recursive call (jsonable) belongs to the outer span
            if stack and spans[stack[-1]][NAME] == name:
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else -1
            pass_id = tracer.pass_id
            count = 0
            if name == "spectral.decompose":
                # work is counted only for decompositions not served from the cache
                count = 0 if "_decomposition" in vars(args[0]) else args[0].dim ** 3
            index = len(spans)
            # an open span holds only its name; a finished one becomes a tuple of
            # plain values, which the garbage collector stops scanning
            spans.append((name,))
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                end = time.perf_counter()
                if name == "adapted.certify" and isinstance(exc, ModulusExceeded):
                    # raised after every edge of the range was normed
                    count = count_of(tracer, fn, args, kwargs)
                spans[index] = (name, start, end, parent, pass_id,
                                type(exc).__name__, count)
                if (isinstance(exc, CertificationError)
                        and tracer._last_refusal.get(layer) is not exc):
                    tracer._last_refusal[layer] = exc
                    key = (pass_id, layer)
                    tracer._refusals[key] = tracer._refusals.get(key, 0) + 1
                raise
            finally:
                stack.pop()
            end = time.perf_counter()
            if count_of is not None:
                count = count_of(tracer, fn, args, kwargs, result)
            spans[index] = (name, start, end, parent, pass_id, "", count)
            return result

        wrapper.__bench_span__ = name
        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Install every wrapper for the duration of the block."""
        import specfam  # noqa: F401  (loads every module that binds the names)

        replaced = []
        try:
            for name, (module_name, attr) in TRACED.items():
                original = getattr(sys.modules[module_name], attr)
                wrapper = self._wrap(name, original)
                for module in _specfam_modules():
                    if vars(module).get(attr) is original:
                        setattr(module, attr, wrapper)
                        replaced.append((module, attr, original))
            yield self
        finally:
            for module, attr, original in reversed(replaced):
                setattr(module, attr, original)
            self._last_refusal.clear()

    def write(self, path) -> None:
        """Spans as CSV, one row per span; parent is a row index or -1."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index,name,start,end,parent,pass,error,count\n")
            for i, s in enumerate(self.spans):
                fh.write(f"{i},{s[NAME]},{s[START]!r},{s[END]!r},{s[PARENT]},"
                         f"{s[PASS]},{s[ERROR]},{s[COUNT]}\n")


def _norm_work(tracer, fn, args, kwargs, result):
    m = args[0] if args else kwargs["m"]
    return int(np.shape(m)[0]) ** 3


def _certify_edges(tracer, fn, args, kwargs, result=None):
    """Edges normed by one certification; records their distinct window masks.

    Read from the arguments, so a certification refused by its cap after
    norming every edge counts too.
    """
    bound = inspect.signature(fn).bind(*args, **kwargs).arguments
    smp, rng, level = bound["smp"], bound["grid_range"], bound["level"]
    masks = np.abs(smp.eigenvalue_matrix[rng.lo_index:rng.hi_index + 1]) <= level
    rows = [m.tobytes() for m in masks]
    serial = tracer._serial(smp)
    keys = tracer._edge_keys.setdefault(tracer.pass_id, set())
    for k in range(len(rows) - 1):
        keys.add((serial, rng.lo_index + k, rows[k], rows[k + 1]))
    return len(rows) - 1


def _partition_segments(tracer, fn, args, kwargs, result):
    return len(result.partition.levels)


_COUNTERS = {
    "spectral.hermitian_norm": _norm_work,
    "spectral.operator_norm": _norm_work,
    "adapted.certify": _certify_edges,
    "flow.partition": _partition_segments,
}


def pass_layers(tracer: Tracer, pass_id: int) -> dict[str, float]:
    """Per-layer totals of one traced pass (all but bytes and overhead)."""
    spans = tracer.spans
    indices = [i for i, s in enumerate(spans) if s[PASS] == pass_id]
    by_name: dict[str, list[int]] = {name: [] for name in TRACED}
    child_time: dict[int, float] = {}
    for i in indices:
        s = spans[i]
        by_name[s[NAME]].append(i)
        if s[PARENT] >= 0:
            child_time[s[PARENT]] = child_time.get(s[PARENT], 0.0) + s[END] - s[START]

    def total(*names):
        return sum(spans[i][END] - spans[i][START] for n in names for i in by_name[n])

    def self_time(name):
        return total(name) - sum(child_time.get(i, 0.0) for i in by_name[name])

    def calls(*names):
        return sum(len(by_name[n]) for n in names)

    def counted(*names):
        return sum(spans[i][COUNT] for n in names for i in by_name[n])

    evals = counted("adapted.certify")
    distinct = tracer.edge_distinct(pass_id)
    return {
        "report.validate_s": total("report.validate"),
        "report.serialize_s": total("report.jsonable", "report.canonical_json"),
        "report.self_s": self_time("report.run_analysis"),
        "families.sample_s": total("families.sample"),
        "families.load_s": total("families.load"),
        "spectral.decompose_calls": calls("spectral.decompose"),
        "spectral.decompose_s": total("spectral.decompose"),
        "spectral.decompose_work": counted("spectral.decompose"),
        "spectral.norm_calls": calls("spectral.hermitian_norm", "spectral.operator_norm"),
        "spectral.norm_s": total("spectral.hermitian_norm", "spectral.operator_norm"),
        "spectral.norm_work": counted("spectral.hermitian_norm", "spectral.operator_norm"),
        "spectral.projector_calls": calls("spectral.projector"),
        "spectral.projector_s": total("spectral.projector"),
        "adapted.find_calls": calls("adapted.find"),
        "adapted.find_s": total("adapted.find"),
        "adapted.certify_calls": calls("adapted.certify"),
        "adapted.certify_s": total("adapted.certify"),
        "adapted.certify_self_s": self_time("adapted.certify"),
        "adapted.edge_evals": evals,
        "adapted.edge_distinct": distinct,
        "adapted.edge_reuse_ratio": distinct / evals if evals else 0.0,
        "adapted.sweep_s": total("adapted.sweep"),
        "adapted.discrete_s": total("adapted.discrete"),
        "adapted.refusals": tracer.refusals(pass_id, "adapted"),
        "topology.graph_s": total("topology.graph"),
        "topology.riesz_s": total("topology.riesz"),
        "topology.strict_s": total("topology.strict"),
        "topology.distances_s": total("topology.distances"),
        "topology.refusals": tracer.refusals(pass_id, "topology"),
        "flow.tracking_s": total("flow.tracking"),
        "flow.partition_s": total("flow.partition"),
        "flow.partition_segments": counted("flow.partition"),
        "polarized.correspondence_s": total("polarized.correspondence"),
        "polarized.weak_s": total("polarized.weak"),
        "polarized.check_calls": calls("polarized.check"),
    }


def layer_metrics(tracer: Tracer, traced_passes: list[int], bytes_written: list[int],
                  traced_wall: list[float], untraced_wall: list[float]) -> dict:
    """Median over traced passes of every per-layer metric, with units."""
    per_pass = [pass_layers(tracer, p) for p in traced_passes]
    values = {name: [p[name] for p in per_pass] for name in per_pass[0]}
    values["report.bytes_written"] = bytes_written
    values["trace.overhead_frac"] = [statistics.median(traced_wall)
                                     / statistics.median(untraced_wall) - 1.0]
    # counts repeat exactly from pass to pass; keep them whole numbers
    return {name: {"value": (statistics.median_low if unit in ("count", "ops", "bytes")
                             else statistics.median)(values[name]), "unit": unit}
            for name, unit in LAYER_UNITS.items()}
