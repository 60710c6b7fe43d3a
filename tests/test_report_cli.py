import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from specfam import (
    FamilySpec,
    ParameterGrid,
    canonical_json,
    jsonable,
    run_analysis,
    sample,
    validate_config,
)
from specfam.cli import main
from specfam.report import _write_csv
from specfam.errors import ConfigError


def write_matrix_path(path, grid, matrices):
    """Write the explicit-matrix JSON format read by ``matrix_path_file``."""
    mats = [np.stack([m.real, m.imag], axis=-1).tolist() for m in matrices]
    path.write_text(json.dumps({"dim": len(matrices[0]), "grid": list(grid),
                                "matrices": mats}))
    return path


def base_config(**overrides):
    config = {
        "family": {"kind": "linear_crossing", "dim": 5, "params": {}},
        "grid": {"start": 0.0, "end": 1.0, "points": 21},
        "seed": 0,
        "analyses": [{"kind": "flow", "params": {}}],
    }
    config.update(overrides)
    return config


class TestCanonicalJson:
    def test_sorted_keys_and_float_format(self):
        text = canonical_json({"b": 0.1, "a": 2})
        assert text == '{"a":2,"b":0.10000000000000001}'

    def test_complex_values_as_pairs(self):
        assert jsonable(1 + 2j) == [1.0, 2.0]
        arr = jsonable(np.array([[1j]]))
        assert arr == [[[0.0, 1.0]]]

    def test_non_finite_values_become_strings(self):
        assert canonical_json(jsonable(float("inf"))) == '"inf"'

    def test_booleans_and_null(self):
        assert canonical_json({"x": True, "y": None}) == '{"x":true,"y":null}'


class TestValidateConfig:
    def test_valid_config_accepted(self):
        validate_config(base_config())

    def test_riesz_delta_range_message(self):
        config = base_config(analyses=[
            {"kind": "riesz-continuity", "params": {"delta": 0.7, "x_index": 5}}
        ])
        with pytest.raises(ConfigError) as err:
            validate_config(config)
        assert str(err.value) == "analyses[0].params.delta out of (0, 0.5)"

    def test_unknown_analysis_kind(self):
        config = base_config(analyses=[{"kind": "zeta", "params": {}}])
        with pytest.raises(ConfigError) as err:
            validate_config(config)
        assert "analyses[0]" in str(err.value)

    def test_missing_grid_for_generated_family(self):
        config = base_config()
        del config["grid"]
        with pytest.raises(ConfigError) as err:
            validate_config(config)
        assert str(err.value).startswith("grid")

    def test_x_index_bounds(self):
        config = base_config(analyses=[
            {"kind": "graph-continuity", "params": {"delta": 0.4, "x_index": 400}}
        ])
        with pytest.raises(ConfigError) as err:
            validate_config(config)
        assert "x_index" in str(err.value)

    def test_polarized_levels_range(self):
        config = base_config(analyses=[
            {"kind": "polarized", "params": {"b_levels": [1.2]}}
        ])
        with pytest.raises(ConfigError) as err:
            validate_config(config)
        assert str(err.value) == "analyses[0].params.b_levels out of (0, 1)"

    def test_missing_x_index_rejected(self):
        config = base_config(analyses=[
            {"kind": "graph-continuity", "params": {"delta": 0.4}}
        ])
        with pytest.raises(ConfigError) as err:
            validate_config(config)
        assert str(err.value) == "analyses[0].params.x_index is required"

    def test_documented_schema_is_the_packaged_one(self):
        from importlib import resources
        packaged = resources.files("specfam").joinpath(
            "schemas/config.schema.json").read_text()
        root = Path(__file__).resolve().parents[1]
        documented = "src/specfam/schemas/config.schema.json"
        for doc in ("README.md", "docs/formats.md"):
            assert f"`{documented}`" in (root / doc).read_text()
        assert (root / documented).read_text() == packaged
        assert not (root / "schemas").exists()


class TestCertificateSerialization:
    def test_every_certificate_type_reduces_to_json(self, tmp_path):
        import specfam as sf

        grid = sf.ParameterGrid.linspace(0.4, 0.6, 11)
        smp = sf.sample(sf.FamilySpec("linear_crossing", 5), grid)
        values = [
            sf.certify_adapted_pair(smp, sf.GridRange(0, 10), 0.25),
            sf.find_adapted_pair(smp, 5, 0.5),
            sf.covering_construction(smp, 5, 1.0),
            sf.graph_continuity_certify(smp, 5, 0.5),
            sf.strict_adaptedness_certify(smp, 5, 1.0, cap=0.5),
            sf.riesz_continuity_certify(
                constant_riesz_sample(), 2, 0.2, cap=0.5),
            sf.flow_by_tracking(smp),
            sf.flow_by_partition(smp),
            sf.discrete_spectrum_certify(smp, [0.5]),
            sf.continuity_modulus(smp, "riesz"),
        ]
        for value in values:
            text = canonical_json(jsonable(value))
            assert json.loads(text) is not None


def constant_riesz_sample():
    from conftest import constant_sample
    return constant_sample([-9.0, -1.0, 1.0, 9.0])


class TestCsvCells:
    def test_cells_format_by_type(self, tmp_path):
        path = tmp_path / "cells.csv"
        _write_csv(path, ["a", "b", "c", "d", "e", "f"],
                   [[0.1, np.float64(1.0 / 3.0), 7, True, "x", np.int64(-2)]])
        assert path.read_text() == (
            "a,b,c,d,e,f\n0.10000000000000001,0.33333333333333331,7,True,x,-2\n")


class TestRunAnalysis:
    def test_flow_bundle(self, tmp_path):
        bundle = run_analysis(base_config(), output_dir=tmp_path)
        assert bundle.all_passed
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["all_passed"] is True
        assert report["analyses"][0]["result"]["flow"] == 1
        csv = (tmp_path / "eigenvalues.csv").read_text().splitlines()
        assert csv[0] == "x,lambda_1,lambda_2,lambda_3,lambda_4,lambda_5"
        assert len(csv) == 22
        assert (tmp_path / "flow_witness_0.csv").exists()

    def test_distances_csvs(self, tmp_path):
        config = base_config(analyses=[{"kind": "distances", "params": {}}])
        run_analysis(config, output_dir=tmp_path)
        for metric in ("graph", "riesz"):
            lines = (tmp_path / f"moduli_{metric}_0.csv").read_text().splitlines()
            assert lines[0] == "x_left,x_right,value"
            assert len(lines) == 21

    def test_numerical_failure_embedded(self, tmp_path):
        config = base_config(
            grid={"start": 0.0, "end": 1.0, "points": 11},
            analyses=[{"kind": "certify-adapted", "params": {"level": 0.25}}],
        )
        bundle = run_analysis(config, output_dir=tmp_path)
        assert not bundle.all_passed
        entry = bundle.report["analyses"][0]
        assert entry["error"]["type"] == "RankJump"
        assert entry["error"]["left_index"] == 2

    def test_truncation_analysis(self, tmp_path):
        config = base_config(
            family={"kind": "dirac_circle", "dim": 11, "params": {"alpha": 0.25}},
            grid={"start": 0.0, "end": 0.3, "points": 4},
            analyses=[{"kind": "truncation",
                       "params": {"dims": [11, 21], "window": [-1.4, 1.4]}}],
        )
        bundle = run_analysis(config, output_dir=tmp_path)
        assert bundle.all_passed

    def test_reports_reproducible(self, tmp_path):
        config = base_config(analyses=[
            {"kind": "flow", "params": {}},
            {"kind": "discrete-spectrum", "params": {"b_levels": [0.5, 1.5]}},
        ])
        run_analysis(config, output_dir=tmp_path / "a")
        run_analysis(config, output_dir=tmp_path / "b")
        assert ((tmp_path / "a" / "report.json").read_bytes()
                == (tmp_path / "b" / "report.json").read_bytes())

    def test_weak_polarized_analysis_with_sweep(self, tmp_path):
        smp = sample(FamilySpec("dirac_circle", 11, {}),
                     ParameterGrid(np.linspace(0.2, 0.3, 21))).bounded_transformed()
        path = write_matrix_path(tmp_path / "family.json", smp.grid.points.tolist(),
                                 [op.entries for op in smp.operators])
        config = {
            "family": {"kind": "matrix_path_file", "dim": 11,
                       "params": {"path": str(path)}},
            "seed": 0,
            "analyses": [{"kind": "polarized",
                          "params": {"b_levels": [0.3, 0.6], "eta": 0.3,
                                     "interior_budget": 6}}],
        }
        bundle = run_analysis(config, output_dir=tmp_path / "out")
        entry = bundle.report["analyses"][0]
        assert entry["passed"]
        assert entry["result"]["routes_agree"]
        assert entry["result"]["level_ceiling"] == 0.7

    def test_pole_while_sampling_still_writes_report(self, tmp_path):
        config = base_config(
            family={"kind": "tangent_blowup", "dim": 5, "params": {}},
            grid={"start": 0.3, "end": 0.7, "points": 5},
            analyses=[{"kind": "flow", "params": {}},
                      {"kind": "distances", "params": {}}],
        )
        bundle = run_analysis(config, output_dir=tmp_path)
        assert not bundle.all_passed
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["all_passed"] is False
        assert report["family"] == {"kind": "tangent_blowup", "dim": 5}
        assert report["grid_points"] == np.linspace(0.3, 0.7, 5).tolist()
        for entry in report["analyses"]:
            assert entry["passed"] is False
            assert entry["error"]["type"] == "FamilyModelError"
            assert "result" not in entry
        assert not (tmp_path / "eigenvalues.csv").exists()

    def test_non_finite_matrix_file_still_writes_report(self, tmp_path):
        matrices = [np.diag([v, 2.0, -2.0]).astype(complex)
                    for v in (0.5, np.nan, -0.5)]
        path = write_matrix_path(tmp_path / "family.json", [0.0, 0.5, 1.0], matrices)
        config = {
            "family": {"kind": "matrix_path_file", "dim": 3,
                       "params": {"path": str(path)}},
            "seed": 0,
            "analyses": [{"kind": "flow", "params": {}}],
        }
        bundle = run_analysis(config, output_dir=tmp_path / "out")
        assert not bundle.all_passed
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["grid_points"] == []
        error = report["analyses"][0]["error"]
        assert error["type"] == "NonFiniteEntry"
        assert error["grid_index"] == 1
        assert not (tmp_path / "out" / "eigenvalues.csv").exists()


class TestCli:
    def test_analyze_exit_codes(self, tmp_path):
        runner = CliRunner()
        good = tmp_path / "good.json"
        good.write_text(json.dumps(base_config()))
        result = runner.invoke(main, ["analyze", str(good), "--output-dir",
                                      str(tmp_path / "out"), "--quiet"])
        assert result.exit_code == 0

        failing = tmp_path / "failing.json"
        failing.write_text(json.dumps(base_config(analyses=[
            {"kind": "certify-adapted", "params": {"level": 0.25}}
        ])))
        result = runner.invoke(main, ["analyze", str(failing), "--output-dir",
                                      str(tmp_path / "out2"), "--quiet"])
        assert result.exit_code == 1

        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(base_config(analyses=[
            {"kind": "riesz-continuity", "params": {"delta": 0.7, "x_index": 5}}
        ])))
        result = runner.invoke(main, ["analyze", str(bad), "--output-dir",
                                      str(tmp_path / "out3")])
        assert result.exit_code == 2
        assert "analyses[0].params.delta out of (0, 0.5)" in result.output

    def test_analyze_refused_family_exits_1_with_report(self, tmp_path):
        pole = tmp_path / "pole.json"
        pole.write_text(json.dumps(base_config(
            family={"kind": "tangent_blowup", "dim": 5, "params": {}},
            grid={"start": 0.3, "end": 0.7, "points": 5},
        )))
        result = CliRunner().invoke(main, ["analyze", str(pole), "--output-dir",
                                           str(tmp_path / "out"), "--quiet"])
        assert result.exit_code == 1
        assert (tmp_path / "out" / "report.json").exists()

    def test_analyze_missing_matrix_file_exits_1_with_report(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "family": {"kind": "matrix_path_file", "dim": 3,
                       "params": {"path": str(tmp_path / "absent.json")}},
            "seed": 0,
            "analyses": [{"kind": "flow", "params": {}},
                         {"kind": "distances", "params": {}}],
        }))
        result = CliRunner().invoke(main, ["analyze", str(cfg), "--output-dir",
                                           str(tmp_path / "out"), "--quiet"])
        assert result.exit_code == 1
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        for entry in report["analyses"]:
            assert entry["error"]["type"] == "FamilyModelError"

    @pytest.mark.parametrize("x_index", [500, -1])
    def test_x_index_outside_a_matrix_file_grid_is_reported(self, tmp_path, x_index):
        # the grid comes from the file, so validation cannot bound x_index
        rng = np.random.default_rng(0)
        matrices = [np.diag([-1.0 - x, 0.1 + x, 1.0 + x]) for x in rng.uniform(0, 0.1, 9)]
        path = write_matrix_path(tmp_path / "family.json", np.linspace(0, 1, 9).tolist(),
                                 matrices)
        config = {
            "family": {"kind": "matrix_path_file", "dim": 3,
                       "params": {"path": str(path)}},
            "seed": 0,
            "analyses": [{"kind": "riesz-continuity",
                          "params": {"delta": 0.2, "x_index": x_index}}],
        }
        bundle = run_analysis(config, output_dir=tmp_path / "out")
        assert not bundle.all_passed
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        error = report["analyses"][0]["error"]
        assert error == {"type": "ValueError", "message": "base index outside the grid"}

        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        result = CliRunner().invoke(main, ["analyze", str(cfg), "--output-dir",
                                           str(tmp_path / "cli"), "--quiet"])
        assert result.exit_code == 1
        assert (tmp_path / "cli" / "report.json").read_bytes() == (
            tmp_path / "out" / "report.json").read_bytes()

    def test_module_entry_point_runs_the_cli(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(base_config(analyses=[
            {"kind": "riesz-continuity", "params": {"delta": 0.7, "x_index": 5}}
        ])))
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p)
        proc = subprocess.run([sys.executable, "-m", "specfam.cli", "validate", str(bad)],
                              env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 2
        assert "analyses[0].params.delta out of (0, 0.5)" in proc.stderr

    def test_analyze_threads_reproducible(self, tmp_path):
        runner = CliRunner()
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(base_config()))
        r1 = runner.invoke(main, ["analyze", str(cfg), "--output-dir",
                                  str(tmp_path / "t1"), "--threads", "4", "--quiet"])
        r2 = runner.invoke(main, ["analyze", str(cfg), "--output-dir",
                                  str(tmp_path / "t2"), "--threads", "1", "--quiet"])
        assert r1.exit_code == 0 and r2.exit_code == 0
        assert ((tmp_path / "t1" / "report.json").read_bytes()
                == (tmp_path / "t2" / "report.json").read_bytes())

    def test_validate_and_demo_round_trip(self, tmp_path):
        runner = CliRunner()
        target = tmp_path / "demo.json"
        result = runner.invoke(main, ["demo", "linear_crossing", "-o", str(target)])
        assert result.exit_code == 0
        result = runner.invoke(main, ["validate", str(target)])
        assert result.exit_code == 0
        assert "OK" in result.output

    def test_validate_rejects_malformed_json(self, tmp_path):
        runner = CliRunner()
        broken = tmp_path / "broken.json"
        broken.write_text("{not json")
        result = runner.invoke(main, ["validate", str(broken)])
        assert result.exit_code == 2
