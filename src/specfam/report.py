"""Config validation, analysis orchestration and report persistence.

Reports are JSON with a fixed canonical rendering: keys sorted, floats
printed with 17 significant digits, complex entries as [re, im] pairs.  Two
runs with the same config and seed therefore produce byte-identical files.
"""

from __future__ import annotations

import dataclasses
import json
import math
import numbers
from concurrent.futures import ThreadPoolExecutor
from importlib import resources
from json.encoder import encode_basestring
from pathlib import Path

import numpy as np

from . import __version__
from .adapted import GridRange, certify_adapted_pair, discrete_spectrum_certify
from .errors import CertificationError, ConfigError, FamilyModelError
from .families import FamilySpec, ParameterGrid, random_seed, sample, truncation_check
from .flow import flow_by_partition, flow_by_tracking
from .polarized import (
    PolarizationCheck,
    transform_correspondence_check,
    weak_discrete_spectrum_certify,
)
from .spectral import RealWindow, decompose
from .topology import continuity_modulus, graph_continuity_certify, riesz_continuity_certify

def format_float(value: float) -> str:
    """Fixed 17-significant-digit rendering used everywhere in reports."""
    if math.isnan(value):
        return '"nan"'
    if math.isinf(value):
        return '"inf"' if value > 0 else '"-inf"'
    return format(float(value), ".17g")


def jsonable(obj):
    """Reduce certificates, arrays and scalars to plain JSON-ready values."""
    if obj is None or isinstance(obj, (bool, str)):
        return obj
    if isinstance(obj, numbers.Integral):
        return int(obj)
    if isinstance(obj, numbers.Real):
        return float(obj)
    if isinstance(obj, complex):
        return [float(obj.real), float(obj.imag)]
    if isinstance(obj, np.ndarray):
        if np.iscomplexobj(obj):
            return jsonable(np.stack([obj.real, obj.imag], axis=-1))
        return [jsonable(v) for v in obj.tolist()]
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: jsonable(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, set, frozenset)):
        return [jsonable(v) for v in obj]
    raise TypeError(f"cannot serialize {type(obj)!r}")


def canonical_json(value) -> str:
    """Deterministic JSON text: sorted keys, fixed float formatting."""
    parts: list[str] = []

    def emit(v):
        # concrete classes before the slow ABC checks: np.float64 is a float,
        # other NumPy scalars reach Integral or Real
        if v is None:
            parts.append("null")
        elif isinstance(v, bool):
            parts.append("true" if v else "false")
        elif isinstance(v, float):
            parts.append(format_float(v))
        elif isinstance(v, int):
            parts.append(str(int(v)))
        elif isinstance(v, str):
            parts.append(encode_basestring(v))
        elif isinstance(v, dict):
            parts.append("{")
            for i, key in enumerate(sorted(v)):
                if i:
                    parts.append(",")
                parts.append(encode_basestring(str(key)))
                parts.append(":")
                emit(v[key])
            parts.append("}")
        elif isinstance(v, (list, tuple)):
            parts.append("[")
            for i, item in enumerate(v):
                if i:
                    parts.append(",")
                emit(item)
            parts.append("]")
        elif isinstance(v, numbers.Integral):
            parts.append(str(int(v)))
        elif isinstance(v, numbers.Real):
            parts.append(format_float(float(v)))
        else:
            raise TypeError(f"cannot render {type(v)!r}")

    emit(value)
    return "".join(parts)


def _schema() -> dict:
    text = resources.files("specfam").joinpath("schemas/config.schema.json").read_text()
    return json.loads(text)


#: JSON Schema type names with their 2020-12 meaning: a bool is no number,
#: and an integral float such as 11.0 is an integer
_SCHEMA_TYPES = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "number": lambda v: isinstance(v, numbers.Number) and not isinstance(v, bool),
    "integer": lambda v: not isinstance(v, bool) and (
        isinstance(v, int) or isinstance(v, float) and v.is_integer()),
}


def _schema_errors(schema: dict, value, path: tuple = ()):
    """Yield ``(path, message)`` for every way ``value`` breaks ``schema``.

    Implements exactly the keywords ``config.schema.json`` uses, in schema
    order as a JSON Schema validator visits them; any other keyword raises
    ``NotImplementedError``, so a schema edit cannot go unchecked.
    """
    for keyword, arg in schema.items():
        if keyword in ("$schema", "title"):
            continue
        if keyword == "type":
            if not _SCHEMA_TYPES[arg](value):
                yield path, f"{value!r} is not of type {arg!r}"
        elif keyword == "enum":
            if not any(value == v and isinstance(value, bool) == isinstance(v, bool)
                       for v in arg):
                yield path, f"{value!r} is not one of {arg!r}"
        elif keyword == "minimum":
            if _SCHEMA_TYPES["number"](value) and value < arg:
                yield path, f"{value!r} is less than the minimum of {arg!r}"
        elif keyword == "minItems":
            if isinstance(value, list) and len(value) < arg:
                yield path, f"{value!r} has fewer than {arg} items"
        elif keyword == "items":
            if isinstance(value, list):
                for i, item in enumerate(value):
                    yield from _schema_errors(arg, item, path + (i,))
        elif keyword == "required":
            if isinstance(value, dict):
                for name in arg:
                    if name not in value:
                        yield path, f"{name!r} is a required property"
        elif keyword == "properties":
            if isinstance(value, dict):
                for name, sub in arg.items():
                    if name in value:
                        yield from _schema_errors(sub, value[name], path + (name,))
        elif keyword == "additionalProperties" and arg is False:
            if isinstance(value, dict):
                extra = [name for name in value if name not in schema.get("properties", {})]
                if extra:
                    yield path, f"has unexpected properties {extra}"
        elif keyword == "oneOf":
            matches = sum(not any(_schema_errors(sub, value, path)) for sub in arg)
            if matches != 1:
                yield path, f"matches {matches} of the {len(arg)} allowed forms, not one"
        else:
            raise NotImplementedError(f"config schema keyword {keyword!r} is not implemented")


def _render_path(path: tuple) -> str:
    """``("analyses", 0, "kind")`` -> ``analyses[0].kind``; the root is ``config``."""
    text = "".join(f"[{p}]" if isinstance(p, int) else f".{p}" for p in path)
    return text.removeprefix(".") or "config"


def _require(condition: bool, path: str, message: str) -> None:
    if not condition:
        raise ConfigError(path, message)


def _grid_length(config: dict) -> int | None:
    grid = config.get("grid")
    if grid is None:
        return None
    if isinstance(grid, list):
        return len(grid)
    return int(grid["points"])


def _real(value) -> bool:
    """A JSON number; ``true`` and ``false`` are not numbers."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _integer(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _non_negative(value) -> bool:
    return _real(value) and value >= 0


def validate_config(config: dict) -> None:
    """Structural check against the shipped schema, then range checks.

    Raises ``ConfigError`` whose message starts with the offending field path,
    e.g. ``analyses[0].params.delta out of (0, 0.5)``.
    """
    errors = sorted(_schema_errors(_schema(), config), key=lambda e: e[0])
    if errors:
        path, message = errors[0]
        raise ConfigError(_render_path(path), message)

    family = config["family"]
    if family["kind"] != "matrix_path_file":
        _require("grid" in config, "grid", "is required for generated families")
    if family["kind"] == "matrix_path_file":
        _require("path" in family.get("params", {}), "family.params.path",
                 "is required for matrix_path_file")
    if family["kind"] == "dirac_circle":
        _require(family["dim"] >= 3 and family["dim"] % 2 == 1, "family.dim",
                 "must be odd and at least 3 for dirac_circle")
    if family["kind"] == "random_crossings":
        params = family.get("params", {})
        try:
            random_seed(params.get("seed", config.get("seed", 0)))
        except FamilyModelError:
            raise ConfigError("family.params.seed" if "seed" in params else "seed",
                              "must be an integer in [0, 2**64)") from None
    grid = config.get("grid")
    if isinstance(grid, dict):
        _require(grid["end"] > grid["start"], "grid.end", "must exceed grid.start")
    elif isinstance(grid, list):
        _require(all(b > a for a, b in zip(grid, grid[1:])), "grid",
                 "must be strictly increasing")
    n_points = _grid_length(config)

    for i, analysis in enumerate(config["analyses"]):
        kind = analysis["kind"]
        params = analysis.get("params", {})
        base = f"analyses[{i}].params"

        def need(name):
            _require(name in params, f"{base}.{name}", "is required")
            return params[name]

        def check(name, ok, message):
            if name in params:
                _require(ok(params[name]), f"{base}.{name}", message)

        if kind == "certify-adapted":
            level = need("level")
            _require(_real(level) and level > 0,
                     f"{base}.level", "must be a positive number")
            check("cap", lambda v: v is None or _non_negative(v),
                  "must be a non-negative number or null")
        elif kind == "discrete-spectrum":
            levels = need("b_levels")
            _require(isinstance(levels, list) and levels, f"{base}.b_levels",
                     "must be a non-empty array")
            _require(all(_real(b) and b > 0 for b in levels),
                     f"{base}.b_levels", "must be positive")
            check("definitional", lambda v: isinstance(v, bool), "must be a boolean")
        elif kind == "graph-continuity":
            delta = need("delta")
            _require(_real(delta) and delta > 0,
                     f"{base}.delta", "must be positive")
            need("x_index")
        elif kind == "riesz-continuity":
            delta = need("delta")
            _require(_real(delta) and 0 < delta < 0.5,
                     f"{base}.delta", "out of (0, 0.5)")
            need("x_index")
            check("cap", _non_negative, "must be a non-negative number")
        elif kind == "polarized":
            levels = need("b_levels")
            _require(isinstance(levels, list) and levels, f"{base}.b_levels",
                     "must be a non-empty array")
            mode = params.get("mode", "weak")
            _require(mode in ("weak", "correspondence"), f"{base}.mode",
                     "must be 'weak' or 'correspondence'")
            if mode == "weak":
                _require(all(_real(b) and 0 < b < 1 for b in levels),
                         f"{base}.b_levels", "out of (0, 1)")
            else:
                _require(all(_real(b) and b > 0 for b in levels),
                         f"{base}.b_levels", "must be positive")
            for name in ("eta", "norm_slack"):
                check(name, _real, "must be a number")
            check("interior_budget", lambda v: v is None or _integer(v),
                  "must be an integer or null")
        elif kind == "truncation":
            dims = need("dims")
            _require(isinstance(dims, list) and len(dims) >= 2
                     and all(_integer(d) for d in dims)
                     and sorted(dims) == dims,
                     f"{base}.dims", "must be an increasing integer array")
            window = need("window")
            _require(isinstance(window, list) and len(window) == 2
                     and all(_real(w) for w in window) and window[0] <= window[1],
                     f"{base}.window", "must be [lo, hi] with lo <= hi")
            check("tau", lambda v: v is None or _real(v),
                  "must be a number or null")
        for key in ("x_index", "lo_index", "hi_index"):
            check(key, _integer, "must be an integer")
            # a matrix file's grid length is known only once the file is read
            if key in params and n_points is not None:
                _require(0 <= params[key] < n_points,
                         f"{base}.{key}", f"must be an index into the {n_points}-point grid")


def _build_grid(config: dict) -> ParameterGrid | None:
    grid = config.get("grid")
    if grid is None:
        return None
    if isinstance(grid, list):
        return ParameterGrid(np.asarray(grid, dtype=float))
    # int(): the schema counts an integral float such as 11.0 as an integer
    return ParameterGrid.linspace(grid["start"], grid["end"], int(grid["points"]))


def _build_spec(config: dict) -> FamilySpec:
    family = config["family"]
    params = dict(family.get("params", {}))
    if family["kind"] == "random_crossings":
        params.setdefault("seed", config.get("seed", 0))
    return FamilySpec(family["kind"], int(family["dim"]), params)


def _error_payload(exc: Exception) -> dict:
    payload = {"type": type(exc).__name__, "message": str(exc)}
    for key, value in vars(exc).items():
        if isinstance(value, (bool, int, float, str)) or value is None:
            payload[key] = value
    return payload


def _run_one(kind: str, params: dict, smp, spec, grid):
    """Returns (passed, payload, csv_tables)."""
    csv_tables: dict[str, tuple[list[str], list[list]]] = {}
    if kind == "certify-adapted":
        rng = GridRange(params.get("lo_index", 0),
                        params.get("hi_index", len(smp) - 1))
        cert = certify_adapted_pair(smp, rng, params["level"],
                                    cap=params.get("cap"))
        return True, {"certificate": jsonable(cert)}, csv_tables
    if kind == "discrete-spectrum":
        report = discrete_spectrum_certify(smp, params["b_levels"],
                                           include_definitional=params.get(
                                               "definitional", True))
        payload = {
            "passed": report.passed,
            "routes_agree": report.routes_agree,
            "ceiling": report.ceiling,
            "failing_points": list(report.failing_points),
            "failures": jsonable(report.failures),
            "certificates": {
                format(b, ".17g"): [None if c is None else jsonable(c) for c in certs]
                for b, certs in report.certificates.items()
            },
        }
        return report.passed and report.routes_agree, payload, csv_tables
    if kind == "graph-continuity":
        cert = graph_continuity_certify(smp, params["x_index"], params["delta"])
        # reports stay matrix-free; the embedded matrices are a library feature
        payload = jsonable(dataclasses.replace(cert, compressed_resolvents=None))
        del payload["compressed_resolvents"]
        return True, {"certificate": payload}, csv_tables
    if kind == "riesz-continuity":
        cert = riesz_continuity_certify(smp, params["x_index"], params["delta"],
                                        params.get("cap", 0.5))
        payload = jsonable(dataclasses.replace(cert, projections=None,
                                               transform_blocks=None))
        del payload["projections"], payload["transform_blocks"]
        return True, {"certificate": payload}, csv_tables
    if kind == "flow":
        tracked = flow_by_tracking(smp)
        partitioned = flow_by_partition(smp)
        agree = tracked.flow == partitioned.flow
        payload = {
            "flow": tracked.flow,
            "methods_agree": agree,
            "tracking": {"flow": tracked.flow,
                         "crossings": jsonable(tracked.crossings)},
            "partition": {
                "flow": partitioned.flow,
                "breakpoints": list(partitioned.partition.breakpoints),
                "levels": list(partitioned.partition.levels),
            },
        }
        rows = []
        part = partitioned.partition
        for (lo, hi), level in zip(zip(part.breakpoints, part.breakpoints[1:]),
                                   part.levels):
            rows.append([smp.grid[lo], smp.grid[hi], level])
        csv_tables["flow_witness"] = (["x_start", "x_end", "level"], rows)
        return agree, payload, csv_tables
    if kind == "polarized":
        mode = params.get("mode", "weak")
        if mode == "correspondence":
            report = transform_correspondence_check(smp, params["b_levels"])
            return report.equivalent, jsonable(report), csv_tables
        check = PolarizationCheck(
            eta=params.get("eta", 0.1),
            interior_budget=params.get("interior_budget"),
            norm_slack=params.get("norm_slack", 1e-9),
        )
        report = weak_discrete_spectrum_certify(smp, params["b_levels"], check=check)
        payload = {
            "passed": report.passed,
            "routes_agree": report.routes_agree,
            "level_ceiling": report.ceiling,
            "failing_points": list(report.failing_points),
        }
        return report.passed and report.routes_agree, payload, csv_tables
    if kind == "distances":
        payload = {}
        for metric in ("graph", "riesz"):
            moduli = continuity_modulus(smp, metric)
            payload[metric] = {"max": moduli.max_modulus}
            csv_tables[f"moduli_{metric}"] = (
                ["x_left", "x_right", "value"],
                [list(edge) for edge in moduli.per_edge],
            )
        return True, payload, csv_tables
    if kind == "truncation":
        window = RealWindow(params["window"][0], params["window"][1])
        report = truncation_check(spec, grid, params["dims"], window,
                                  tau=params.get("tau"), smp=smp)
        return report.stable, jsonable(report), csv_tables
    raise ConfigError("analyses", f"unknown analysis kind {kind!r}")


def _write_csv(path: Path, header: list[str], rows) -> None:
    """Every cell of every table is a float, written with 17 significant digits.

    Rows stream into the file one line at a time, so no whole table is held
    as text; NaN and infinities are the bare tokens ``%.17g`` gives.
    """
    line = ",".join(["%.17g"] * len(header)) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(line % tuple(row))


@dataclasses.dataclass(frozen=True)
class ReportBundle:
    all_passed: bool
    report_path: Path
    report: dict


def run_analysis(config: dict, output_dir=None, threads: int = 1,
                 quiet: bool = True) -> ReportBundle:
    """Validate, run every requested analysis, persist the report bundle.

    Writes ``report.json`` (canonical form), ``eigenvalues.csv`` and any
    per-analysis CSV tables into the output directory.  Numerical failures do
    not abort the run: the failing certificate is embedded in the report and
    reflected in ``all_passed``.
    """
    validate_config(config)
    out = Path(output_dir if output_dir is not None
               else config.get("output_dir", "."))
    out.mkdir(parents=True, exist_ok=True)

    spec = _build_spec(config)
    grid = _build_grid(config)
    try:
        smp = sample(spec, grid)
    except (FamilyModelError, ValueError) as exc:
        # the family itself is refused: every analysis reports that refusal
        smp, refusal = None, exc
    if smp is not None and threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(decompose, smp.operators))

    entries = []
    csv_files: dict[str, tuple[list[str], list[list]]] = {}
    for i, analysis in enumerate(config["analyses"]):
        kind = analysis["kind"]
        params = analysis.get("params", {})
        entry = {"kind": kind, "params": jsonable(params), "passed": False}
        if smp is None:
            entry["error"] = _error_payload(refusal)
        else:
            try:
                entry["passed"], entry["result"], tables = _run_one(
                    kind, params, smp, spec, grid)
                for name, table in tables.items():
                    csv_files[f"{name}_{i}"] = table
            except (CertificationError, FamilyModelError, ValueError) as exc:
                entry["error"] = _error_payload(exc)
        entries.append(entry)
        if not quiet:
            status = "pass" if entry["passed"] else "FAIL"
            print(f"[{status}] {kind}")
    all_passed = all(entry["passed"] for entry in entries)

    if smp is not None:
        dim, grid_points = smp.dim, smp.grid.points
    else:
        dim, grid_points = spec.dim, (grid.points if grid is not None else [])
    report = {
        "version": __version__,
        "seed": config.get("seed", 0),
        "config": jsonable(config),
        "family": {"kind": spec.kind, "dim": dim},
        "grid_points": [float(x) for x in grid_points],
        "analyses": entries,
        "all_passed": all_passed,
    }
    report_path = out / "report.json"
    report_path.write_text(canonical_json(report) + "\n", encoding="utf-8")

    if smp is not None:
        header = ["x"] + [f"lambda_{j + 1}" for j in range(smp.dim)]
        _write_csv(out / "eigenvalues.csv", header,
                   np.column_stack([smp.grid.points, smp.eigenvalue_matrix]))
    for name, (head, rows_) in csv_files.items():
        _write_csv(out / f"{name}.csv", head, rows_)

    return ReportBundle(all_passed, report_path, report)
