import dataclasses
import json
import numbers
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

from specfam import (
    FamilySpec,
    GraphContinuityCertificate,
    ParameterGrid,
    RieszContinuityCertificate,
    canonical_json,
    jsonable,
    run_analysis,
    sample,
    validate_config,
)
from specfam.adapted import (
    AdaptedPairCertificate,
    CertificateFailure,
    DiscreteSpectrumReport,
    GridRange,
)
from specfam import report
from specfam.cli import main
from specfam.report import _render_path, _schema, _schema_errors, _write_csv, format_float
from specfam.errors import ConfigError

from conftest import count_eigvalsh


def write_matrix_path(path, grid, matrices):
    """Write the explicit-matrix JSON format read by ``matrix_path_file``."""
    mats = [np.stack([m.real, m.imag], axis=-1).tolist() for m in matrices]
    path.write_text(json.dumps({"dim": len(matrices[0]), "grid": list(grid),
                                "matrices": mats}))
    return path


def src_env():
    """The environment for a fresh interpreter that imports this checkout's specfam."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def base_config(**overrides):
    config = {
        "family": {"kind": "linear_crossing", "dim": 5, "params": {}},
        "grid": {"start": 0.0, "end": 1.0, "points": 21},
        "seed": 0,
        "analyses": [{"kind": "flow", "params": {}}],
    }
    config.update(overrides)
    return config


# values of every JSON type, with bools and integral floats next to the ints
JUNK = st.one_of(st.none(), st.booleans(), st.integers(-2, 3),
                 st.integers(-2, 3).map(float), st.sampled_from([0.5, -1.5]),
                 st.sampled_from(["", "x", "flow"]), st.builds(list), st.builds(dict))


def containers(value):
    """Every dict and list in ``value``, itself included."""
    if isinstance(value, (dict, list)):
        yield value
        for child in (value.values() if isinstance(value, dict) else value):
            yield from containers(child)


@st.composite
def configs(draw):
    """Configs around the shipped schema: a valid one, both grid forms and
    integers given as integral floats, then up to three mutations, each
    setting a value to any JSON value, dropping a key or item, or adding one."""
    props = _schema()["properties"]
    number = st.one_of(st.integers(-2, 2), st.sampled_from([-0.4, 0.4, 2.0]))
    config = draw(st.fixed_dictionaries({
        "family": st.fixed_dictionaries(
            {"kind": st.sampled_from(props["family"]["properties"]["kind"]["enum"]),
             "dim": st.sampled_from([1, 5, 5.0])},
            optional={"params": st.builds(dict)}),
        "analyses": st.lists(st.fixed_dictionaries(
            {"kind": st.sampled_from(props["analyses"]["items"]["properties"]["kind"]["enum"])},
            optional={"params": st.builds(dict)}), min_size=1, max_size=2),
    }, optional={
        "grid": st.one_of(
            st.fixed_dictionaries({"start": number, "end": number,
                                   "points": st.sampled_from([2, 11, 11.0])}),
            st.lists(number, min_size=2, max_size=3)),
        "seed": st.sampled_from([0, 3, 3.0]),
        "output_dir": st.just("out"),
    }))
    for _ in range(draw(st.integers(0, 3))):
        node = draw(st.sampled_from(list(containers(config))))
        keys = list(node) if isinstance(node, dict) else list(range(len(node)))
        action = draw(st.sampled_from(["set", "drop", "add"]))
        if action == "add" or not keys:
            if isinstance(node, dict):
                node["extra"] = draw(JUNK)
            else:
                node.append(draw(JUNK))
        elif action == "set":
            node[draw(st.sampled_from(keys))] = draw(JUNK)
        else:
            del node[draw(st.sampled_from(keys))]
    return config


def isinstance_chain_json(value) -> str:
    """``canonical_json`` with the ABC checks first and ``json.dumps`` strings,
    the oracle of its reordered chain."""
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, numbers.Integral):
        return str(int(value))
    if isinstance(value, numbers.Real):
        return format_float(float(value))
    if isinstance(value, str):
        return json.dumps(value, ensure_ascii=False)
    if isinstance(value, dict):
        return "{" + ",".join(json.dumps(str(k), ensure_ascii=False) + ":"
                              + isinstance_chain_json(value[k]) for k in sorted(value)) + "}"
    return "[" + ",".join(isinstance_chain_json(v) for v in value) + "]"


class StrKind(str):
    pass


# everything jsonable returns, plus the NumPy scalars and the str subclasses
# that canonical_json also accepts
JSON_LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(-2**70, 2**70),
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats(allow_nan=True, allow_infinity=True).map(np.float64),
    st.integers(-2**63, 2**63 - 1).map(np.int64),
    st.floats(width=32, allow_nan=True, allow_infinity=True).map(np.float32),
    st.text(), st.text().map(StrKind))
JSON_TREES = st.recursive(JSON_LEAVES, lambda children: st.one_of(
    st.lists(children), st.lists(children).map(tuple),
    st.dictionaries(st.text(), children),
    st.dictionaries(st.integers(-5, 5), children)), max_leaves=20)


def isinstance_chain_jsonable(obj):
    """``jsonable`` as one chain of isinstance checks with no dispatch on
    exact types, the oracle of its fast paths."""
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
            return isinstance_chain_jsonable(np.stack([obj.real, obj.imag], axis=-1))
        return [isinstance_chain_jsonable(v) for v in obj.tolist()]
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: isinstance_chain_jsonable(getattr(obj, f.name))
                for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {str(k): isinstance_chain_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, set, frozenset)):
        return [isinstance_chain_jsonable(v) for v in obj]
    raise TypeError(f"cannot serialize {type(obj)!r}")


ANY_FLOAT = st.floats(allow_nan=True, allow_infinity=True)
#: certificates as the analyses return them, with the NumPy and complex
#: values a result may hold besides the plain JSON trees
CERTIFICATES = st.builds(
    AdaptedPairCertificate,
    range=st.builds(GridRange, st.integers(0, 5), st.integers(5, 9)),
    level=ANY_FLOAT, rank=st.integers(0, 9), margin=ANY_FLOAT.map(np.float64),
    projection_modulus=ANY_FLOAT, restriction_modulus=ANY_FLOAT)
JSONABLE_LEAVES = st.one_of(
    JSON_LEAVES, CERTIFICATES,
    st.builds(CertificateFailure, st.integers(0, 9), ANY_FLOAT, st.text(), st.text()),
    st.booleans().map(np.bool_), st.complex_numbers(allow_nan=True, allow_infinity=True),
    st.complex_numbers(allow_nan=True, allow_infinity=True).map(np.complex128),
    st.integers(0, 255).map(np.uint8),
    st.lists(st.complex_numbers(allow_nan=True, allow_infinity=True), max_size=6).map(
        lambda v: np.array(v, dtype=complex).reshape(-1, 2) if len(v) % 2 == 0
        else np.array(v, dtype=complex)),
    st.lists(ANY_FLOAT, max_size=4).map(np.array),
    st.frozensets(st.integers(-3, 3)))
JSONABLE_TREES = st.recursive(JSONABLE_LEAVES, lambda children: st.one_of(
    st.lists(children), st.lists(children).map(tuple),
    st.dictionaries(st.text(), children),
    st.dictionaries(st.integers(-5, 5), children),
    st.builds(DiscreteSpectrumReport, passed=st.booleans(),
              b_levels=st.tuples(ANY_FLOAT), ceiling=ANY_FLOAT,
              certificates=st.dictionaries(ANY_FLOAT, st.tuples(children)),
              failures=st.tuples(), failing_points=st.tuples(st.integers(0, 9)),
              definitional=st.none())), max_leaves=20)


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

    @settings(max_examples=300, deadline=None)
    @given(value=JSON_TREES)
    def test_same_text_as_the_isinstance_chain(self, value):
        assert canonical_json(value) == isinstance_chain_json(value)

    @settings(max_examples=150, deadline=None)
    @given(value=JSONABLE_TREES)
    def test_jsonable_equals_the_isinstance_chain(self, value):
        try:
            expected = isinstance_chain_jsonable(value)
        except TypeError as exc:
            with pytest.raises(TypeError) as err:
                jsonable(value)
            assert str(err.value) == str(exc)
            return
        # repr tells 1 from 1.0 and shows NaN, which equality does not
        assert repr(jsonable(value)) == repr(expected)
        assert canonical_json(jsonable(value)) == canonical_json(expected)



INF = float("inf")
NAN = float("nan")


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

    @pytest.mark.parametrize("grid, path", [
        ({"start": -INF, "end": 1.0, "points": 11}, "grid.start"),
        ({"start": 0.0, "end": INF, "points": 11}, "grid.end"),
        ({"start": 0.0, "end": NAN, "points": 11}, "grid.end"),
        ([0.0, 0.5, INF], "grid"),
    ])
    def test_non_finite_grid_refused_with_its_path(self, tmp_path, grid, path):
        config = base_config(grid=grid)
        with pytest.raises(ConfigError) as err:
            validate_config(config)
        assert err.value.path == path
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        result = CliRunner().invoke(main, ["validate", str(cfg)])
        assert result.exit_code == 2
        assert path in result.output

    @pytest.mark.parametrize("family, analysis, field", [
        ("generated", {"kind": "certify-adapted", "params": {"level": 1.0, "cap": "big"}}, "cap"),
        ("generated", {"kind": "certify-adapted", "params": {"level": 1.0, "cap": -0.1}}, "cap"),
        ("generated", {"kind": "certify-adapted", "params": {"level": 1.0, "lo_index": 2.5}},
         "lo_index"),
        ("generated", {"kind": "riesz-continuity",
                       "params": {"delta": 0.2, "x_index": 5, "cap": "big"}}, "cap"),
        ("generated", {"kind": "riesz-continuity",
                       "params": {"delta": 0.2, "x_index": 5, "cap": None}}, "cap"),
        ("file", {"kind": "riesz-continuity", "params": {"delta": 0.2, "x_index": "a"}},
         "x_index"),
        ("file", {"kind": "graph-continuity", "params": {"delta": 0.2, "x_index": 2.5}},
         "x_index"),
        ("file", {"kind": "certify-adapted", "params": {"level": 1.0, "hi_index": "3"}},
         "hi_index"),
        ("generated", {"kind": "polarized", "params": {"b_levels": [0.5], "eta": "x"}}, "eta"),
        ("generated", {"kind": "polarized", "params": {"b_levels": [0.5], "norm_slack": "x"}},
         "norm_slack"),
        ("generated", {"kind": "polarized", "params": {"b_levels": [0.5], "interior_budget": 1.5}},
         "interior_budget"),
        ("generated", {"kind": "truncation",
                       "params": {"dims": [5, 7], "window": [-1, 1], "tau": "x"}}, "tau"),
        ("generated", {"kind": "discrete-spectrum",
                       "params": {"b_levels": [0.5], "definitional": "no"}}, "definitional"),
        # JSON booleans are neither numbers nor indices
        ("generated", {"kind": "certify-adapted", "params": {"level": True}}, "level"),
        ("generated", {"kind": "certify-adapted", "params": {"level": 1.0, "cap": True}}, "cap"),
        ("generated", {"kind": "certify-adapted", "params": {"level": 1.0, "lo_index": True}},
         "lo_index"),
        ("generated", {"kind": "certify-adapted", "params": {"level": 1.0, "hi_index": True}},
         "hi_index"),
        ("generated", {"kind": "discrete-spectrum", "params": {"b_levels": [0.5, True]}},
         "b_levels"),
        ("generated", {"kind": "graph-continuity", "params": {"delta": True, "x_index": 5}},
         "delta"),
        ("file", {"kind": "riesz-continuity", "params": {"delta": 0.2, "x_index": True}},
         "x_index"),
        ("generated", {"kind": "riesz-continuity",
                       "params": {"delta": 0.2, "x_index": 5, "cap": True}}, "cap"),
        ("generated", {"kind": "polarized",
                       "params": {"b_levels": [True], "mode": "correspondence"}}, "b_levels"),
        ("generated", {"kind": "polarized", "params": {"b_levels": [0.5], "eta": True}}, "eta"),
        ("generated", {"kind": "polarized", "params": {"b_levels": [0.5], "norm_slack": True}},
         "norm_slack"),
        ("generated", {"kind": "polarized",
                       "params": {"b_levels": [0.5], "interior_budget": True}},
         "interior_budget"),
        ("generated", {"kind": "truncation", "params": {"dims": [True, 7], "window": [-1, 1]}},
         "dims"),
        ("generated", {"kind": "truncation",
                       "params": {"dims": [5, 7], "window": [-1, 1], "tau": True}}, "tau"),
        ("generated", {"kind": "truncation", "params": {"dims": [5, 7], "window": [True, 2]}},
         "window"),
        ("generated", {"kind": "truncation", "params": {"dims": [5, 7], "window": ["a", "b"]}},
         "window"),
        # accepted: a null cap means no cap, and a matrix file bounds no index
        ("generated", {"kind": "certify-adapted", "params": {"level": 1.0, "cap": None}}, None),
        ("generated", {"kind": "riesz-continuity",
                       "params": {"delta": 0.2, "x_index": 5, "cap": 0}}, None),
        ("file", {"kind": "riesz-continuity", "params": {"delta": 0.2, "x_index": 500}}, None),
        ("generated", {"kind": "polarized",
                       "params": {"b_levels": [0.5], "interior_budget": None}}, None),
        ("generated", {"kind": "truncation",
                       "params": {"dims": [5, 7], "window": [-1, 1], "tau": None}}, None),
        # json reads Infinity, -Infinity and NaN, and they are no numbers here
        # either: an infinite level passed, an infinite delta was blamed on
        # an internal bound, and infinite b_levels reached numpy
        ("generated", {"kind": "certify-adapted", "params": {"level": INF}}, "level"),
        ("generated", {"kind": "certify-adapted", "params": {"level": -INF}}, "level"),
        ("generated", {"kind": "certify-adapted", "params": {"level": 1.0, "cap": INF}}, "cap"),
        ("generated", {"kind": "graph-continuity", "params": {"delta": INF, "x_index": 5}},
         "delta"),
        ("generated", {"kind": "discrete-spectrum", "params": {"b_levels": [0.5, INF]}},
         "b_levels"),
        ("generated", {"kind": "polarized",
                       "params": {"b_levels": [INF], "mode": "correspondence"}}, "b_levels"),
        ("generated", {"kind": "riesz-continuity",
                       "params": {"delta": 0.2, "x_index": 5, "cap": INF}}, "cap"),
        ("generated", {"kind": "polarized", "params": {"b_levels": [0.5], "eta": NAN}}, "eta"),
        ("generated", {"kind": "polarized", "params": {"b_levels": [0.5], "norm_slack": INF}},
         "norm_slack"),
        ("generated", {"kind": "truncation", "params": {"dims": [5, 7], "window": [-INF, INF]}},
         "window"),
        ("generated", {"kind": "truncation",
                       "params": {"dims": [5, 7], "window": [-1, 1], "tau": NAN}}, "tau"),
        # numbers the library refuses at run time: validate passed them, and
        # analyze then exited 1 with the raw error
        ("generated", {"kind": "certify-adapted",
                       "params": {"level": 0.25, "lo_index": 15, "hi_index": 5}}, "hi_index"),
        ("file", {"kind": "certify-adapted",
                  "params": {"level": 0.25, "lo_index": 55, "hi_index": 45}}, "hi_index"),
        # a negative index needs no grid length to refuse, on a matrix file either
        ("file", {"kind": "certify-adapted",
                  "params": {"level": 0.25, "lo_index": -1, "hi_index": 1}}, "lo_index"),
        ("file", {"kind": "certify-adapted", "params": {"level": 0.25, "hi_index": -1}},
         "hi_index"),
        ("file", {"kind": "graph-continuity", "params": {"delta": 0.2, "x_index": -1}},
         "x_index"),
        ("file", {"kind": "riesz-continuity", "params": {"delta": 0.2, "x_index": -1}},
         "x_index"),
        ("generated", {"kind": "truncation", "params": {"dims": [0, 7], "window": [-1, 1]}},
         "dims"),
        ("generated", {"kind": "polarized", "params": {"b_levels": [0.5], "eta": 1.0}}, "eta"),
        ("generated", {"kind": "polarized", "params": {"b_levels": [0.5], "norm_slack": -1e-9}},
         "norm_slack"),
        ("generated", {"kind": "polarized", "params": {"b_levels": [0.5], "interior_budget": -1}},
         "interior_budget"),
        # a repeated level listed each of its failures twice
        ("generated", {"kind": "discrete-spectrum", "params": {"b_levels": [0.5, 1.5, 0.5]}},
         "b_levels"),
        ("generated", {"kind": "discrete-spectrum", "params": {"b_levels": [1, 1.0]}},
         "b_levels"),
        ("generated", {"kind": "polarized", "params": {"b_levels": [0.5, 0.5]}}, "b_levels"),
        ("generated", {"kind": "polarized",
                       "params": {"b_levels": [1.5, 1.5], "mode": "correspondence"}}, "b_levels"),
        # the bounded transform of 1e9 rounds to 1, and 6e7 and 6.1e7 share one
        ("generated", {"kind": "polarized",
                       "params": {"b_levels": [1e9], "mode": "correspondence"}}, "b_levels"),
        ("generated", {"kind": "polarized",
                       "params": {"b_levels": [0.5, 6e7, 6.1e7], "mode": "correspondence"}},
         "b_levels"),
    ])
    def test_param_types_refused_with_their_path(self, tmp_path, family, analysis, field):
        config = base_config(analyses=[analysis])
        if family == "file":
            config["family"] = {"kind": "matrix_path_file", "dim": 3,
                                "params": {"path": str(tmp_path / "family.json")}}
            del config["grid"]
        if field is None:
            validate_config(config)
            return
        path = f"analyses[0].params.{field}"
        with pytest.raises(ConfigError) as err:
            validate_config(config)
        assert err.value.path == path
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        for command in (["validate", str(cfg)],
                        ["analyze", str(cfg), "--output-dir", str(tmp_path / "out")]):
            result = CliRunner().invoke(main, command)
            assert result.exit_code == 2
            assert path in result.output
        assert not (tmp_path / "out" / "report.json").exists()

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


class TestSchemaEvaluator:
    """``validate_config``'s structural pass against a JSON Schema validator."""

    def test_unimplemented_keyword_refused(self):
        for schema in ({"type": "object", "maxProperties": 1},
                       {"properties": {"a": {"pattern": "x"}}},
                       {"additionalProperties": {"type": "string"}}):
            with pytest.raises(NotImplementedError):
                list(_schema_errors(schema, {"a": "x"}))

    def test_validation_does_not_import_jsonschema(self):
        code = ("import sys, specfam\n"
                "from specfam.cli import DEMO_CONFIGS\n"
                "for config in DEMO_CONFIGS.values():\n"
                "    specfam.validate_config(config)\n"
                "assert 'jsonschema' not in sys.modules, 'jsonschema was imported'\n")
        proc = subprocess.run([sys.executable, "-c", code], env=src_env(),
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr

    def test_schema_is_read_once_per_process(self, monkeypatch):
        validate_config(base_config())
        reads = []
        files = report.resources.files
        monkeypatch.setattr(report.resources, "files",
                            lambda package: reads.append(package) or files(package))
        validate_config(base_config())
        assert reads == []
        assert _schema() is _schema()

    @settings(max_examples=400, deadline=None)
    @given(config=configs())
    def test_agrees_with_jsonschema(self, config):
        jsonschema = pytest.importorskip("jsonschema")
        oracle = jsonschema.Draft202012Validator(_schema())
        expected = sorted(list(e.absolute_path) for e in oracle.iter_errors(config))
        got = sorted(list(path) for path, _ in _schema_errors(_schema(), config))
        assert got == expected
        if expected:
            with pytest.raises(ConfigError) as err:
                validate_config(config)
            assert err.value.path == _render_path(expected[0])


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
    @settings(max_examples=200, deadline=None)
    @given(rows=st.integers(1, 4).flatmap(lambda width: st.lists(st.lists(
        st.one_of(st.floats(allow_nan=True, allow_infinity=True),
                  st.floats(allow_nan=True, allow_infinity=True).map(np.float64),
                  st.integers(-2**80, 2**80),
                  st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308])),
        min_size=width, max_size=width), max_size=4)))
    def test_cells_match_format_17g(self, rows):
        width = len(rows[0]) if rows else 2
        header = [f"c{k}" for k in range(width)]
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "cells.csv"
            _write_csv(path, header, rows)
            data = path.read_bytes()
        expected = "".join(",".join(line) + "\n" for line in
                           [header] + [[format(cell, ".17g") for cell in row] for row in rows])
        assert data == expected.encode("utf-8")

    def test_float_cells_at_17_significant_digits(self, tmp_path):
        path = tmp_path / "cells.csv"
        rows = [[0.1, np.float64(1.0 / 3.0), -0.0],
                [1e300, float("nan"), float("-inf")]]
        _write_csv(path, ["a", "b", "c"], rows)
        assert path.read_text() == ("a,b,c\n"
                                    "0.10000000000000001,0.33333333333333331,-0\n"
                                    "1.0000000000000001e+300,nan,-inf\n")


# the payload keys of each continuity certificate in report.json
GRAPH_CERTIFICATE_KEYS = {"x_index", "delta", "level", "range", "window_rank", "tail_bound",
                          "compressed_modulus", "final_bound"}
RIESZ_CERTIFICATE_KEYS = {"x_index", "delta", "transform", "strict_level", "strict_modulus",
                          "level", "range", "window_rank", "split_residual",
                          "upper_split_residual", "upper_defect", "lower_defect",
                          "center_modulus", "lower_projection_modulus",
                          "upper_projection_modulus", "final_bound"}


class TestContinuityPayload:
    """A continuity certificate reaches report.json as exactly its fields, so a
    field added to it shows here before it reaches a report."""

    @pytest.mark.parametrize("family, grid, diagonal", [
        ({"kind": "dirac_circle", "dim": 11, "params": {"alpha": [3.0, 1.0]}},
         {"start": -0.5, "end": 0.5, "points": 21}, True),
        ({"kind": "harmonic_perturbed", "dim": 16, "params": {"coupling": [0.0, 0.6]}},
         {"start": 0.0, "end": 1.0, "points": 41}, False),
    ], ids=["diagonal", "dense"])
    def test_payload_keys_are_the_certificate_fields(self, tmp_path, family, grid, diagonal):
        smp = sample(FamilySpec(family["kind"], family["dim"], family["params"]),
                     ParameterGrid.linspace(grid["start"], grid["end"], grid["points"]))
        assert all((dec.order is not None) == diagonal for dec in smp.decompositions)
        config = base_config(family=family, grid=grid, analyses=[
            {"kind": "graph-continuity", "params": {"delta": 0.45, "x_index": 10}},
            {"kind": "riesz-continuity", "params": {"delta": 0.2, "x_index": 10}},
        ])
        run_analysis(config, output_dir=tmp_path)
        graph, riesz = json.loads((tmp_path / "report.json").read_text())["analyses"]
        for entry, cls, keys in ((graph, GraphContinuityCertificate, GRAPH_CERTIFICATE_KEYS),
                                 (riesz, RieszContinuityCertificate, RIESZ_CERTIFICATE_KEYS)):
            assert entry["passed"]
            reported = entry["result"]["certificate"].keys()
            assert reported == {f.name for f in dataclasses.fields(cls)} == keys


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

    def test_modulus_refusal_names_its_edge(self, tmp_path):
        config = base_config(
            family={"kind": "harmonic_perturbed", "dim": 10,
                    "params": {"coupling": [0.0, 1.0]}},
            grid={"start": 0.0, "end": 1.0, "points": 9},
            analyses=[{"kind": "certify-adapted", "params": {"level": 1.0, "cap": 0.03}}],
        )
        error = run_analysis(config, output_dir=tmp_path).report["analyses"][0]["error"]
        assert error["type"] == "ModulusExceeded"
        assert (error["which"], error["left_index"]) == ("projection", 7)
        assert error["message"].endswith(" on edge (7, 8)")

    def test_truncation_analysis(self, tmp_path):
        config = base_config(
            family={"kind": "dirac_circle", "dim": 11, "params": {"alpha": 0.25}},
            grid={"start": 0.0, "end": 0.3, "points": 4},
            analyses=[{"kind": "truncation",
                       "params": {"dims": [11, 21], "window": [-1.4, 1.4]}}],
        )
        bundle = run_analysis(config, output_dir=tmp_path)
        assert bundle.all_passed

    @pytest.mark.parametrize("kind", ["linear_crossing", "random_crossings"])
    def test_integral_floats_read_as_integers(self, tmp_path, kind):
        # JSON Schema counts 11.0 as an integer; the run must read it as 11
        as_int = base_config(family={"kind": kind, "dim": 5},
                             grid={"start": -0.4, "end": 0.4, "points": 11})
        as_float = base_config(family={"kind": kind, "dim": 5.0},
                               grid={"start": -0.4, "end": 0.4, "points": 11.0})
        for name, config in (("int", as_int), ("float", as_float)):
            run_analysis(config, output_dir=tmp_path / name)
        for table in ("report.json", "eigenvalues.csv"):
            assert ((tmp_path / "int" / table).read_bytes()
                    == (tmp_path / "float" / table).read_bytes())

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

    @pytest.mark.parametrize("spec, dense", [
        (FamilySpec("dirac_circle", 9, {"alpha": (3.0, 1.0)}), False),
        (FamilySpec("harmonic_perturbed", 9, {"coupling": (0.0, 1.0)}), True),
    ], ids=["offset_flux", "harmonic_perturbed"])
    def test_commuting_file_family_runs_no_eigensolver(self, tmp_path, monkeypatch,
                                                      spec, dense):
        # the offset-flux operators commute, so every difference the chains
        # and distances norm is diagonal; the dense family's are not
        smp = sample(spec, ParameterGrid.linspace(-0.5, 0.5, 21))
        path = write_matrix_path(tmp_path / "family.json", smp.grid.points.tolist(),
                                 [op.entries for op in smp.operators])
        config = {
            "family": {"kind": "matrix_path_file", "dim": 9, "params": {"path": str(path)}},
            "seed": 0,
            "analyses": [
                {"kind": "graph-continuity", "params": {"delta": 0.4, "x_index": 10}},
                {"kind": "riesz-continuity", "params": {"delta": 0.4, "x_index": 10, "cap": 0.5}},
                {"kind": "distances", "params": {}},
            ],
        }
        calls = count_eigvalsh(monkeypatch)
        bundle = run_analysis(config, output_dir=tmp_path / "out")
        assert [entry["passed"] for entry in bundle.report["analyses"]] == [True] * 3
        assert bool(calls) == dense

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

    @pytest.mark.parametrize("x_index", [500])
    def test_x_index_outside_a_matrix_file_grid_is_reported(self, tmp_path, x_index):
        # the grid comes from the file, so validation cannot bound x_index from above
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

    @pytest.mark.parametrize("params, top, path", [
        ({"seed": -1}, 0, "family.params.seed"),
        ({"seed": 2.5}, 0, "family.params.seed"),
        ({"seed": True}, 0, "family.params.seed"),
        ({"seed": "3"}, 0, "family.params.seed"),
        ({}, 2**64, "seed"),
    ])
    def test_random_crossings_seed_refused(self, tmp_path, params, top, path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(base_config(
            family={"kind": "random_crossings", "dim": 5, "params": params}, seed=top)))
        for command in (["validate", str(cfg)],
                        ["analyze", str(cfg), "--output-dir", str(tmp_path / "out")]):
            result = CliRunner().invoke(main, command)
            assert result.exit_code == 2
            assert f"{path} must be an integer in [0, 2**64)" in result.output
        assert not (tmp_path / "out").exists()

    def test_random_crossings_integral_float_seed_runs(self, tmp_path):
        reports = []
        for seed in (2, 2.0):
            out = tmp_path / str(seed)
            run_analysis(base_config(family={"kind": "random_crossings", "dim": 5,
                                             "params": {"seed": seed}}), output_dir=out)
            reports.append((out / "eigenvalues.csv").read_bytes())
        assert reports[0] == reports[1]

    def test_module_entry_point_runs_the_cli(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(base_config(analyses=[
            {"kind": "riesz-continuity", "params": {"delta": 0.7, "x_index": 5}}
        ])))
        proc = subprocess.run([sys.executable, "-m", "specfam.cli", "validate", str(bad)],
                              env=src_env(), capture_output=True, text=True, timeout=60)
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

    @pytest.mark.parametrize("data, reason", [
        pytest.param(b"\xff" + json.dumps(base_config()).encode(), "can't decode byte 0xff",
                     id="not utf-8"),
        pytest.param(b"[" * 100_000, "maximum recursion depth exceeded", id="nested too deeply"),
        pytest.param(b"{not json", "Expecting property name", id="syntax"),
    ])
    def test_unreadable_config_exits_2(self, tmp_path, data, reason):
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(data)
        for command in (["validate", str(cfg)],
                        ["analyze", str(cfg), "--output-dir", str(tmp_path / "out")]):
            result = CliRunner().invoke(main, command)
            assert result.exit_code == 2, result.output
            assert result.output.startswith("config is not valid JSON: ")
            assert reason in result.output
        assert not (tmp_path / "out").exists()

    def test_validate_rejects_malformed_json(self, tmp_path):
        runner = CliRunner()
        broken = tmp_path / "broken.json"
        broken.write_text("{not json")
        result = runner.invoke(main, ["validate", str(broken)])
        assert result.exit_code == 2
