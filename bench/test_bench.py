"""Tests of the benchmark itself, on test-only workloads small enough for Tier-1."""

import json
import sys
from pathlib import Path

import pytest

import run
import tracing
from workloads import WORKLOADS, Case

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"

FLOW_CONFIG = {
    "family": {"kind": "linear_crossing", "dim": 5, "params": {}},
    "grid": {"start": 0.0, "end": 1.0, "points": 101},
    "seed": 0,
    "analyses": [
        {"kind": "flow", "params": {}},
        {"kind": "certify-adapted", "params": {"level": 0.25, "lo_index": 45, "hi_index": 55}},
    ],
}


def installed_wrappers() -> list[str]:
    """``module.attribute`` of every tracing wrapper installed on a specfam module."""
    return [f"{name}.{attr}" for name, module in sorted(sys.modules.items())
            if name == "specfam" or name.startswith("specfam.")
            for attr, value in vars(module).items()
            if getattr(value, "__bench_span__", None) is not None]


def _measure(tmp_path, cases, trace):
    return run.measure(cases, tmp_path, seconds=0.0, trace=trace)


def test_names_match_benchmark_json(tmp_path):
    spec = json.loads(BENCHMARK_JSON.read_text(encoding="utf-8"))
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS)

    cases = [Case("flow", FLOW_CONFIG, {"flow": 1})]
    untraced = _measure(tmp_path / "untraced", cases, trace=0)["metrics"]
    traced = _measure(tmp_path / "traced", cases, trace=1)["metrics"]
    for emitted, declared in ((untraced, spec["end_to_end"]), (traced, spec["per_layer"])):
        assert {name: m["unit"] for name, m in emitted.items()} == {
            m["name"]: m["unit"] for m in declared}


def test_wrong_expectation_raises_error_rate(tmp_path):
    right = _measure(tmp_path / "right", [Case("flow", FLOW_CONFIG, {"flow": 1})], trace=0)
    assert right["tally"].error_rate == 0.0

    wrong = _measure(tmp_path / "wrong", [Case("flow", FLOW_CONFIG, {"flow": 2})], trace=0)
    tally = wrong["tally"]
    assert tally.attempted >= run.MIN_PASSES
    assert tally.error_rate == 1.0
    assert "flow 1 != 2" in tally.problems[0]


def test_traced_run_restores_every_function(tmp_path):
    import specfam.adapted
    import specfam.spectral

    original = specfam.spectral.hermitian_norm
    tracer = tracing.Tracer()
    with tracer.installed():
        installed = installed_wrappers()
        assert "specfam.adapted.hermitian_norm" in installed
        assert "specfam.report.run_analysis" in installed
        assert "specfam.run_analysis" in installed
    assert installed_wrappers() == []

    result = _measure(tmp_path, [Case("flow", FLOW_CONFIG, {"flow": 1})], trace=1)
    assert installed_wrappers() == []
    assert specfam.spectral.hermitian_norm is original
    assert specfam.adapted.hermitian_norm is original
    # the traced pass compared its report bytes with the untraced one
    assert result["tally"].failed == 0
    assert (tmp_path / "spans.csv").is_file()


@pytest.mark.parametrize("cap, refusals", [(None, 0), (0.0, 1)])
def test_layer_counts_on_a_known_range(tmp_path, cap, refusals):
    certify = dict(FLOW_CONFIG["analyses"][1])
    if cap is not None:
        certify["params"] = dict(certify["params"], cap=cap)
    config = dict(FLOW_CONFIG, analyses=[certify])
    metrics = _measure(tmp_path, [Case("certify", config)], trace=1)["metrics"]
    value = {name: m["value"] for name, m in metrics.items()}
    # 11 grid points: 10 edges, each normed for the projection and the
    # compression; a cap refuses the range only after norming all of them
    assert value["adapted.certify_calls"] == 1
    assert value["adapted.refusals"] == refusals
    assert value["adapted.edge_evals"] == 10
    assert value["adapted.edge_distinct"] == 10
    assert value["spectral.norm_calls"] == 20
    assert value["spectral.norm_work"] == 20 * 5 ** 3
    assert value["spectral.decompose_calls"] == 101
    assert value["spectral.decompose_work"] == 101 * 5 ** 3
    assert value["adapted.certify_self_s"] <= value["adapted.certify_s"]
    assert value["report.bytes_written"] > 0


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_inputs_depend_only_on_seed(tmp_path, name):
    first = [c.config for c in WORKLOADS[name](3, tmp_path / "a")]
    again = [c.config for c in WORKLOADS[name](3, tmp_path / "a")]
    other = [c.config for c in WORKLOADS[name](4, tmp_path / "a")]
    assert first == again
    assert first != other

