"""Workload inputs and correctness gates for the specfam benchmark.

A workload is a list of cases.  Each case is one config for
``specfam.run_analysis`` plus the outcomes its ``report.json`` must show.
Inputs depend only on the workload seed: it picks the ``random_crossings``
seeds and is copied into every config's ``seed`` field, so it is recorded in
each report.  The program sees nothing but these configs and, for
``continuity_file``, the matrix file written here.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

DIRAC_FLUX = {"kind": "dirac_circle", "dim": 41, "params": {"alpha": [0.0, 1.0]}}
BASE_POINTS = (60, 80, 100, 120, 140)


@dataclass(frozen=True)
class Case:
    """One ``run_analysis`` call and what its report must show.

    ``expect`` holds case-level outcomes (``flow``: the flow value of every
    flow analysis, ``discrete_passed``: every discrete-spectrum run passes,
    ``all_passed``).  The per-kind gates in ``check_report`` always apply.
    """

    name: str
    config: dict
    expect: dict = field(default_factory=dict)


def _crossing_seeds(seed: int, count: int) -> list[int]:
    rng = random.Random(seed)
    return [rng.randrange(2**31) for _ in range(count)]


def discrete_scan(seed: int, workdir: Path) -> list[Case]:
    """The grid-squared edge re-evaluation inside ``discrete-spectrum``.

    (a) is the measured bottleneck, (b) the polarized copy of the engine,
    (c) small dimensions, where Python overhead dominates.
    """
    levels = [0.4, 1.4, 2.4]
    cases = [
        Case("a_dirac_discrete", {
            "family": DIRAC_FLUX,
            "grid": {"start": -0.49, "end": 0.49, "points": 101},
            "seed": seed,
            "analyses": [{"kind": "discrete-spectrum",
                          "params": {"b_levels": levels, "definitional": True}}],
        }, {"discrete_passed": True}),
        Case("b_dirac_correspondence", {
            "family": DIRAC_FLUX,
            "grid": {"start": -0.49, "end": 0.49, "points": 41},
            "seed": seed,
            "analyses": [{"kind": "polarized",
                          "params": {"b_levels": levels, "mode": "correspondence"}}],
        }),
    ]
    for i, family_seed in enumerate(_crossing_seeds(seed, 4)):
        cases.append(Case(f"c{i}_random_discrete", {
            "family": {"kind": "random_crossings", "dim": 10,
                       "params": {"seed": family_seed}},
            "grid": {"start": 0.0, "end": 0.77, "points": 100},
            "seed": seed,
            "analyses": [
                {"kind": "discrete-spectrum", "params": {"b_levels": [0.1, 0.2, 0.3]}},
                {"kind": "flow", "params": {}},
            ],
        }))
    return cases


def flow_large(seed: int, workdir: Path) -> list[Case]:
    """Both flow routes at dimension 201, plus small flows shaped like criterion 6.

    Almost no edge is normed twice here, so an edge cache should gain nothing
    and its memory cost shows in ``peak_rss_mb``.
    """
    cases = [Case("dirac201_flow", {
        "family": {"kind": "dirac_circle", "dim": 201, "params": {"alpha": [0.0, 1.0]}},
        "grid": {"start": -0.49, "end": 0.49, "points": 401},
        "seed": seed,
        "analyses": [{"kind": "flow", "params": {}}],
    }, {"flow": 1})]
    for family_seed in _crossing_seeds(seed, 10):
        cases.append(Case(f"random{family_seed}_flow", {
            "family": {"kind": "random_crossings", "dim": 6 + family_seed % 7,
                       "params": {"seed": family_seed}},
            "grid": {"start": 0.0, "end": 0.77, "points": 120 + (family_seed * 11) % 81},
            "seed": seed,
            "analyses": [{"kind": "flow", "params": {}}],
        }))
    return cases


def write_offset_flux_file(path: Path) -> None:
    """The offset-flux family of criteria 3-4 in the ``matrix_path_file`` format.

    ``dirac_circle`` at dimension 41 with alpha(x) = 3 + x is diagonal with
    entries m + alpha(x), m = -20..20; 201 grid points on [-0.5, 0.5].  The
    file is written one matrix at a time, so that generating it leaves the
    benchmark process no larger.
    """
    grid = np.linspace(-0.5, 0.5, 201)
    modes = np.arange(-20, 21, dtype=float)
    dim = modes.size
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f'{{"dim":{dim},"grid":{json.dumps([float(x) for x in grid])},"matrices":[')
        for k, x in enumerate(grid):
            diagonal = modes + (3.0 + 1.0 * x)
            rows = ("[" + ",".join(f"[{float(diagonal[i])!r},0.0]" if i == j else "[0.0,0.0]"
                                   for j in range(dim)) + "]" for i in range(dim))
            fh.write(("," if k else "") + "[" + ",".join(rows) + "]")
        fh.write("]}")


def continuity_file(seed: int, workdir: Path) -> list[Case]:
    """Graph and Riesz continuity on a file-loaded family, plus distances.

    Loading from a file bypasses any fast path for built-in generators.
    """
    # a relative path keeps report.json bytes independent of the checkout location
    matrix_file = workdir / "offset_flux_matrices.json"
    write_offset_flux_file(matrix_file)
    analyses = [{"kind": "graph-continuity", "params": {"delta": delta, "x_index": x}}
                for delta in (0.2, 0.1, 0.05) for x in BASE_POINTS]
    analyses += [{"kind": "riesz-continuity",
                  "params": {"delta": delta, "x_index": x, "cap": 0.5}}
                 for delta in (0.2, 0.1) for x in BASE_POINTS]
    analyses.append({"kind": "distances", "params": {}})
    return [Case("offset_flux_file", {
        "family": {"kind": "matrix_path_file", "dim": 41,
                   "params": {"path": matrix_file.as_posix()}},
        "seed": seed,
        "analyses": analyses,
    }, {"all_passed": True})]


WORKLOADS = {
    "discrete_scan": discrete_scan,
    "flow_large": flow_large,
    "continuity_file": continuity_file,
}


def check_report(report: dict, case: Case) -> list[str]:
    """Every gate the report breaks, as readable problems (empty when correct)."""
    problems = []
    expect = case.expect
    if expect.get("all_passed") and report.get("all_passed") is not True:
        problems.append("all_passed is not true")
    for i, entry in enumerate(report["analyses"]):
        kind = entry["kind"]
        result = entry.get("result", {})
        where = f"analyses[{i}] ({kind})"
        if "error" in entry:
            problems.append(f"{where} raised {entry['error'].get('type')}")
        if kind == "flow":
            if result.get("methods_agree") is not True:
                problems.append(f"{where}: flow routes disagree")
            if "flow" in expect and result.get("flow") != expect["flow"]:
                problems.append(f"{where}: flow {result.get('flow')} != {expect['flow']}")
        elif kind == "discrete-spectrum":
            if result.get("routes_agree") is not True:
                problems.append(f"{where}: routes disagree")
            if expect.get("discrete_passed") and result.get("passed") is not True:
                problems.append(f"{where}: not passed")
        elif kind == "polarized" and entry["params"].get("mode") == "correspondence":
            if result.get("equivalent") is not True:
                problems.append(f"{where}: correspondence not equivalent")
    return problems
