import dataclasses
import io
import json
import math
import os
import random
import re
import struct
import threading
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from specfam import (
    FamilySample,
    FamilySpec,
    HermitianOperator,
    ParameterGrid,
    RealWindow,
    essential_sign_check,
    flow_by_partition,
    flow_by_tracking,
    resolvent_at_i,
    run_analysis,
    sample,
    truncation_check,
)
from specfam import families, spectral
from specfam.spectral import projector
from specfam.errors import EdgeOnSpectrum, FamilyModelError, NonFiniteEntry, NotHermitianError

from conftest import constant_sample


class TestParameterGrid:
    def test_needs_two_points(self):
        with pytest.raises(ValueError):
            ParameterGrid(np.array([0.25]))

    def test_strictly_increasing(self):
        with pytest.raises(ValueError):
            ParameterGrid(np.array([0.0, 0.0, 1.0]))


class TestGenerators:
    def test_dirac_circle_values(self):
        smp = sample(FamilySpec("dirac_circle", 3, {"alpha": (0.0, 1.0)}),
                     ParameterGrid(np.array([0.25, 0.75])))
        assert np.allclose(np.diag(smp.operators[0].entries).real,
                           [-0.75, 0.25, 1.25])

    def test_dirac_circle_dimension_rule(self):
        with pytest.raises(FamilyModelError):
            FamilySpec("dirac_circle", 4)

    def test_linear_crossing_zero_at_half(self):
        smp = sample(FamilySpec("linear_crossing", 3),
                     ParameterGrid(np.array([0.5, 0.6])))
        assert smp.operators[0].entries[0, 0] == 0.0
        assert np.allclose(np.diag(smp.operators[0].entries).real[1:], [2.0, -2.0])

    def test_tangent_blowup_value(self):
        smp = sample(FamilySpec("tangent_blowup", 5),
                     ParameterGrid(np.array([0.25, 0.3])))
        assert smp.operators[0].entries[0, 0].real == pytest.approx(math.tan(math.pi / 4))
        assert np.allclose(np.diag(smp.operators[0].entries).real[1:], [2, -2, 3, -3])

    def test_tangent_blowup_rejects_pole(self):
        with pytest.raises(FamilyModelError, match="0.5"):
            sample(FamilySpec("tangent_blowup", 5),
                   ParameterGrid(np.array([0.4, 0.5])))

    def test_random_crossings_deterministic(self):
        grid = ParameterGrid.linspace(0.0, 1.0, 5)
        a = sample(FamilySpec("random_crossings", 6, {"seed": 7}), grid)
        b = sample(FamilySpec("random_crossings", 6, {"seed": 7}), grid)
        c = sample(FamilySpec("random_crossings", 6, {"seed": 8}), grid)
        for x, y in zip(a.operators, b.operators):
            assert np.array_equal(x.entries, y.entries)
        assert not np.allclose(a.operators[0].entries, c.operators[0].entries)

    def test_harmonic_has_both_signs(self):
        smp = sample(FamilySpec("harmonic_perturbed", 8),
                     ParameterGrid.linspace(0.0, 1.0, 3))
        ev = smp.eigenvalue_matrix[0]
        assert ev.min() < 0 < ev.max()

    def test_non_finite_fiber_names_grid_index(self):
        spec = FamilySpec("dirac_circle", 5,
                          {"alpha": lambda x: np.nan if x > 0.6 else x})
        with pytest.raises(NonFiniteEntry) as err:
            sample(spec, ParameterGrid.linspace(0.0, 1.0, 5))
        assert err.value.grid_index == 3
        assert "grid index 3" in str(err.value)

    def test_unknown_kind(self):
        with pytest.raises(FamilyModelError):
            FamilySpec("moebius", 3)


class TestFamilySample:
    def test_shift_moves_eigenvalues_exactly(self):
        smp = sample(FamilySpec("dirac_circle", 5, {"alpha": 0.25}),
                     ParameterGrid.linspace(0.0, 1.0, 4))
        shifted = smp.shifted(0.7)
        assert np.array_equal(shifted.eigenvalue_matrix,
                              smp.eigenvalue_matrix - 0.7)

    def test_reversed_grid_still_ascending(self):
        smp = sample(FamilySpec("linear_crossing", 3),
                     ParameterGrid.linspace(0.0, 1.0, 5))
        rev = smp.reversed()
        assert np.all(np.diff(rev.grid.points) > 0)
        assert np.array_equal(rev.operators[0].entries, smp.operators[-1].entries)

    def test_dimension_mismatch_rejected(self):
        from specfam import diagonal_operator
        with pytest.raises(ValueError):
            FamilySample(ParameterGrid.linspace(0, 1, 2),
                         (diagonal_operator([1.0]), diagonal_operator([1.0, 2.0])))


class TestMatrixPathFile:
    def test_round_trip(self, tmp_path):
        dim = 3
        grid = [0.0, 0.5, 1.0]
        mats = []
        for x in grid:
            m = np.diag([x - 0.5, 2.0, -2.0]).astype(complex)
            mats.append(np.stack([m.real, m.imag], axis=-1).tolist())
        path = tmp_path / "family.json"
        path.write_text(json.dumps({"dim": dim, "grid": grid, "matrices": mats}))
        smp = sample(FamilySpec("matrix_path_file", dim, {"path": str(path)}))
        assert len(smp) == 3
        assert smp.operators[1].entries[0, 0] == 0.0

    def test_grid_mismatch_rejected(self, tmp_path):
        path = tmp_path / "family.json"
        m = np.stack([np.eye(2), np.zeros((2, 2))], axis=-1).tolist()
        path.write_text(json.dumps({"dim": 2, "grid": [0.0, 1.0], "matrices": [m, m]}))
        spec = FamilySpec("matrix_path_file", 2, {"path": str(path)})
        with pytest.raises(FamilyModelError):
            sample(spec, ParameterGrid(np.array([0.0, 2.0])))

    def test_non_finite_entry_names_grid_index(self, tmp_path):
        mats = []
        for value in (0.5, np.inf, -0.5):
            m = np.diag([value, 2.0, -2.0]).astype(complex)
            mats.append(np.stack([m.real, m.imag], axis=-1).tolist())
        path = tmp_path / "family.json"
        path.write_text(json.dumps({"dim": 3, "grid": [0.0, 0.5, 1.0], "matrices": mats}))
        with pytest.raises(NonFiniteEntry) as err:
            sample(FamilySpec("matrix_path_file", 3, {"path": str(path)}))
        assert err.value.grid_index == 1
        assert err.value.entry == (0, 0)
        assert "grid index 1" in str(err.value)

    def test_non_hermitian_matrix_names_grid_index(self, tmp_path):
        mats = []
        for coupling in (0.0, 0.0, 0.5, 1.0):
            m = np.diag([0.5, 2.0, -2.0]).astype(complex)
            m[0, 1] = coupling
            mats.append(np.stack([m.real, m.imag], axis=-1).tolist())
        path = tmp_path / "family.json"
        path.write_text(json.dumps({"dim": 3, "grid": [0.0, 0.3, 0.6, 1.0], "matrices": mats}))
        with pytest.raises(NotHermitianError) as err:
            sample(FamilySpec("matrix_path_file", 3, {"path": str(path)}))
        assert (err.value.grid_index, err.value.entry) == (2, (0, 1))
        assert str(err.value).startswith("matrix at grid index 2 is not Hermitian: ")
        error = _analysis_error(path, 3)
        assert (error["type"], error["grid_index"]) == ("NotHermitianError", 2)

    @pytest.mark.parametrize("bad", ["not hermitian", "not finite"])
    def test_refusal_in_a_later_read_names_its_grid_index(self, tmp_path, bad):
        # dense matrices, the refused one many 64-byte reads into the file, so the
        # reader has made the operators of earlier blocks when it meets it
        rnd = random.Random(13)
        count, dim, refused = 12, 5, 9
        matrices = [_hermitian_pairs(rnd, dim, dense=True) for _ in range(count)]
        if bad == "not hermitian":
            matrices[refused][0][1][0] += 1.0
        else:
            matrices[refused][1][2] = [12345.5, 0.0]
        text = json.dumps({"dim": dim, "grid": list(range(count)), "matrices": matrices})
        # a valid number token that reads as an infinity
        text = text.replace("12345.5", "1e400")
        path = tmp_path / "family.json"
        path.write_text(text)
        assert text.index(json.dumps(matrices[refused])[:40]) > 20 * 64
        if bad == "not hermitian":
            pairs = np.array(matrices[refused])
            with pytest.raises(NotHermitianError) as alone:
                HermitianOperator(pairs[..., 0] + 1j * pairs[..., 1])
            expected = ("NotHermitianError", str(alone.value.at_grid_index(refused)))
        else:
            expected = ("NonFiniteEntry", str(NonFiniteEntry((1, 2), complex(math.inf, 0.0),
                                                             grid_index=refused)))
        spec = FamilySpec("matrix_path_file", dim, {"path": str(path)})
        for chunk in (64, families._CHUNK):
            with mock.patch.object(families, "_CHUNK", chunk):
                with pytest.raises((NotHermitianError, NonFiniteEntry)) as err:
                    sample(spec)
            assert (type(err.value).__name__, str(err.value)) == expected, chunk
            assert err.value.grid_index == refused
        error = _analysis_error(path, dim)
        assert (error["type"], error["grid_index"]) == (expected[0], refused)

    def test_dimension_then_grid_mismatch_are_named_before_a_refused_matrix(self, tmp_path):
        rnd = random.Random(3)
        matrices = [_hermitian_pairs(rnd, 3, dense=True) for _ in range(4)]
        matrices[1][2][0][0] += 1.0
        path = tmp_path / "family.json"
        path.write_text(json.dumps({"dim": 3, "grid": [0, 1, 2, 3], "matrices": matrices}))
        other_grid = ParameterGrid(np.array([0.0, 1.0, 2.0, 4.0]))
        with pytest.raises(FamilyModelError, match=r"^file stores dimension 3, spec says 4$"):
            sample(FamilySpec("matrix_path_file", 4, {"path": str(path)}), other_grid)
        with pytest.raises(FamilyModelError, match="^provided grid does not match"):
            sample(FamilySpec("matrix_path_file", 3, {"path": str(path)}), other_grid)
        with pytest.raises(NotHermitianError, match="^matrix at grid index 1 "):
            sample(FamilySpec("matrix_path_file", 3, {"path": str(path)}))

    def test_a_malformed_matrix_is_named_before_a_refused_one(self, tmp_path):
        rnd = random.Random(4)
        matrices = [_hermitian_pairs(rnd, 3, dense=True) for _ in range(4)]
        matrices[1][2][0][0] += 1.0
        matrices[2][1].pop()
        path = tmp_path / "family.json"
        path.write_text(json.dumps({"dim": 3, "grid": [0, 1, 2, 3], "matrices": matrices}))
        with pytest.raises(FamilyModelError) as err:
            sample(FamilySpec("matrix_path_file", 3, {"path": str(path)}))
        assert str(err.value).startswith(
            f"malformed matrix path file {path}: matrix at grid index 2: ")

    def test_malformed_rejected(self, tmp_path):
        path = tmp_path / "family.json"
        path.write_text(json.dumps({"dim": 2, "grid": [0.0, 1.0]}))
        with pytest.raises(FamilyModelError):
            sample(FamilySpec("matrix_path_file", 2, {"path": str(path)}))

    def test_missing_file_is_a_model_error(self, tmp_path):
        missing = tmp_path / "absent.json"
        with pytest.raises(FamilyModelError) as err:
            sample(FamilySpec("matrix_path_file", 3, {"path": str(missing)}))
        assert str(missing) in str(err.value)


def _hermitian_pairs(rnd, dim, dense):
    """A Hermitian matrix as nested [re, im] pairs of three-decimal numbers,
    diagonal unless ``dense``."""
    m = [[[0.0, 0.0] for _ in range(dim)] for _ in range(dim)]
    for i in range(dim):
        m[i][i] = [round(rnd.uniform(-1, 1), 3), 0.0]
        for j in range(i + 1, dim if dense else 0):
            re, im = round(rnd.uniform(-1, 1), 3), round(rnd.uniform(-1, 1), 3)
            m[i][j], m[j][i] = [re, im], [re, -im]
    return m


def _read_allowance() -> int:
    """What reading a matrix file may hold beyond what it keeps.

    One chunk's text at most four times over (bytes, a translation, str, the
    bracketed str), and its numbers, at most one per three bytes ("[0,0],"),
    each as a Python float (24 bytes), a list slot (8, plus growth) and a
    numpy copy (8).
    """
    return 4 * families._CHUNK + families._CHUNK // 3 * 44


def _analysis_error(path, dim=1):
    """The error a flow analysis of the dim-``dim`` matrix file at ``path`` reports."""
    bundle = run_analysis({
        "family": {"kind": "matrix_path_file", "dim": dim, "params": {"path": str(path)}},
        "seed": 0,
        "analyses": [{"kind": "flow", "params": {}}],
    }, output_dir=path.parent / "out")
    assert bundle.report_path.exists()
    return bundle.report["analyses"][0]["error"]


class TestMatrixPathRefusals:
    """Every malformed file is a typed refusal naming the file, never a traceback."""

    @pytest.mark.parametrize("text, grid_index", [
        pytest.param('{"dim": 1, "grid": [0, 1], "matrices": 5}', None, id="number"),
        pytest.param('{"dim": 1, "grid": [0, 1], "matrices": [[[[1, 0]]], [[[{}, 0]]]]}', 1,
                     id="object entry"),
        pytest.param('{"dim": 1, "grid": [0, 1], "matrices": [[[[1, 0]]], [[[1, 0], [2]]]]}',
                     1, id="ragged"),
        pytest.param('{"dim": 1, "grid": [0, 1], "matrices": [[[[1, 0]]], [[[1, 0, 2]]]]}', 1,
                     id="triple"),
        pytest.param('{"dim": 1, "grid": [0, 1], "matrices": [[[[1, 0]]], [[[true, 0]]]]}', 1,
                     id="true entry"),
        pytest.param('{"dim": 2, "grid": [0, 1], "matrices": [[[[false, 0], [0, 0]], '
                     '[[0, 0], [1, 0]]], [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]]}', 0,
                     id="false entry"),
        pytest.param('{"dim": 1, "grid": [0, 1], "matrices": [[[[1, 0]]]]}', None,
                     id="count"),
        pytest.param('{"dim": 1, "grid": [0, 1], "matrices": [[[[1, 0]]], [[[1, 0]]]}', None,
                     id="syntax"),
        pytest.param('{"dim": 1, "grid": [0, 1], "matrices": [], "x": \u00e9}', None,
                     id="non-ascii syntax"),
        pytest.param("[" * 100_000, None, id="deep nesting"),
    ])
    def test_model_error_names_the_file(self, tmp_path, text, grid_index):
        path = tmp_path / "family.json"
        path.write_text(text)
        with pytest.raises(FamilyModelError) as err:
            families.load_matrix_path(str(path))
        message = str(err.value)
        assert message.startswith(f"malformed matrix path file {path}: ")
        if grid_index is not None:
            assert f"grid index {grid_index}" in message
        assert _analysis_error(path)["type"] == "FamilyModelError"

    @pytest.mark.parametrize("token", ["true", "false"])
    def test_both_readers_refuse_a_boolean_alike(self, tmp_path, token):
        path = tmp_path / "family.json"
        path.write_text(f'{{"dim": 1, "grid": [0, 1], '
                        f'"matrices": [[[[1, 0]]], [[[2, {token}]]]]}}')
        data = path.read_bytes()
        assert families._fast_matrix_path(str(path), io.BytesIO(data)) is None
        outcomes = [_outcome(lambda: families.load_matrix_path(str(path))),
                    _outcome(lambda: families._json_matrix_path(str(path), data))]
        assert outcomes[0] == outcomes[1] == (
            "FamilyModelError", f"malformed matrix path file {path}: matrix at grid index 1 "
                                "holds a boolean, not a number")

    def test_strings_that_spell_numbers_are_still_read(self, tmp_path):
        path = tmp_path / "family.json"
        path.write_text('{"dim": 1, "grid": [0, 1], "matrices": [[[["0.5", 0]]], [[[2, "-0"]]]]}')
        grid, matrices = families.load_matrix_path(str(path))
        assert [m.tolist() for m in matrices] == [[[0.5 + 0j]], [[2 + 0j]]]
        path.write_text('{"dim": 1, "grid": [0, 1], "matrices": [[[[1, 0]]], [[["-inf", 0]]]]}')
        with pytest.raises(NonFiniteEntry) as err:
            families.load_matrix_path(str(path))
        assert err.value.grid_index == 1

    def test_bytes_that_are_not_utf8(self, tmp_path):
        path = tmp_path / "family.json"
        path.write_bytes(b'{"dim": 1, "grid": [0, 1], "matrices": \xff}')
        with pytest.raises(FamilyModelError, match="malformed matrix path file"):
            families.load_matrix_path(str(path))

    def test_integer_beyond_the_float_range_is_non_finite(self, tmp_path):
        big = "1" + "0" * 400
        path = tmp_path / "family.json"
        path.write_text(f'{{"dim": 1, "grid": [0, 1], "matrices": [[[[1, 0]]], [[[{big}, 0]]]]}}')
        with pytest.raises(NonFiniteEntry) as err:
            families.load_matrix_path(str(path))
        assert err.value.grid_index == 1 and err.value.entry == (0, 0)
        assert _analysis_error(path)["type"] == "NonFiniteEntry"

    @pytest.mark.parametrize("dim", ["2.7", "true", "false", '"1"', "0", "-1.0", "1e400",
                                     "null", "[1]"])
    def test_dim_must_be_a_positive_integer(self, tmp_path, dim):
        path = tmp_path / "family.json"
        path.write_text(f'{{"dim": {dim}, "grid": [0, 1], '
                        f'"matrices": [[[[1, 0]]], [[[2, 0]]]]}}')
        with pytest.raises(FamilyModelError, match="dim must be a positive integer") as err:
            families.load_matrix_path(str(path))
        assert str(path) in str(err.value)

    def test_integral_float_dim_counts(self, tmp_path):
        path = tmp_path / "family.json"
        path.write_text('{"dim": 1.0, "grid": [0, 1.5e0], "matrices": [[[[1, 0]]], [[[2, 0]]]]}')
        grid, matrices = families.load_matrix_path(str(path))
        assert grid.points.tolist() == [0.0, 1.5]
        assert [m.tolist() for m in matrices] == [[[1 + 0j]], [[2 + 0j]]]

    @pytest.mark.parametrize("grid, reason", [
        ('[0, "0.5"]', "grid entry 1 is not a number"),
        ("[false, 1]", "grid entry 0 is not a number"),
        ('"01"', "grid must be an array of numbers"),
        ("5", "grid must be an array of numbers"),
        ("[1, 0]", "strictly increasing"),
        ("[0, NaN]", "grid points must be finite"),
        ("[Infinity, Infinity]", "grid points must be finite"),
    ])
    def test_grid_entries_must_be_numbers(self, tmp_path, grid, reason):
        path = tmp_path / "family.json"
        path.write_text(f'{{"dim": 1, "grid": {grid}, "matrices": [[[[1, 0]]], [[[2, 0]]]]}}')
        with pytest.raises(FamilyModelError, match=reason) as err:
            families.load_matrix_path(str(path))
        assert str(path) in str(err.value)

    def test_negative_integer_zero_reads_as_negative_zero(self, tmp_path):
        path = tmp_path / "family.json"
        path.write_text('{"dim": 1, "grid": [0, 1], "matrices": [[[[-0, 0]]], [[[-0, -0]]]]}')
        data = path.read_bytes()
        for grid, matrices in (families._fast_matrix_path(str(path), io.BytesIO(data)),
                               families._json_matrix_path(str(path), data)):
            # re + 1j * im keeps a -0.0 real part only when im is -0.0 too
            assert math.copysign(1.0, matrices[1][0, 0].real) == -1.0


#: float bit patterns the reader must keep: signed zeros, subnormals, extremes
_EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.5e-310,
                1e308, -1.7976931348623157e308, 1e-5, 123456789012345680.0]


def _number_token(value: float, form: int) -> str:
    """One JSON number token for ``value`` in one of several printed forms."""
    if form == 0:
        return repr(value)
    if form == 1 and value.is_integer() and abs(value) < 1e30:
        return "-0" if value == 0 and math.copysign(1.0, value) < 0 else str(int(value))
    token = ("%.17g", "%.17e", "%.17E", "%.3e", "%.20f")[form % 5] % value
    # "%.3e" rounds the largest doubles up to an infinity
    return token if math.isfinite(float(token)) else repr(value)


_VALUES = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                    st.sampled_from(_EDGE_FLOATS),
                    st.integers(-10**20, 10**20).map(float))


def _dump(value, layout, rnd, depth=0) -> str:
    """Nested lists of raw token strings as JSON text, in one of five layouts."""
    if isinstance(value, str):
        return value
    items = [_dump(v, layout, rnd, depth + 1) for v in value]
    if layout == "compact":
        return "[" + ",".join(items) + "]"
    if layout == "dumps":
        return "[" + ", ".join(items) + "]"
    if layout == "indent":
        pad = "\n" + "  " * (depth + 1)
        return "[" + pad + ("," + pad).join(items) + "\n" + "  " * depth + "]"
    if layout == "tabs":
        return "[\t" + ",\t".join(items) + "\t]"

    def ws():
        return "".join(rnd.choice(" \t\n\r") for _ in range(rnd.randrange(3)))
    return "[" + ws() + ",".join(item + ws() for item in items) + "]"


def _bad_token(rnd) -> str:
    return rnd.choice(['"inf"', '"-inf"', '"nan"', "NaN", "Infinity", "-Infinity", '"0.5"',
                       "{}", "true", "null", "1e400", "1" + "0" * 400, "[]", "", "1 2"])


def _corrupt_matrices(matrices, kind, rnd) -> None:
    """Break the nested token lists in place: a bad token, a ragged row, a wrong count.

    A ``misplaced`` number is not made here but in the dumped text (``_misplace_number``).
    """
    if kind == "misplaced":
        return
    y = rnd.randrange(len(matrices))
    row = rnd.choice(matrices[y])
    if kind == "token":
        rnd.choice(row)[rnd.randrange(2)] = _bad_token(rnd)
    elif kind == "ragged":
        rnd.choice([row, matrices[y], rnd.choice(row)]).pop()
    elif kind == "empty slot":
        rnd.choice(row)[1] = ""
    else:
        rnd.choice([lambda: rnd.choice(row).append("1"), lambda: row.append(["1", "0"]),
                    lambda: matrices[y].append(list(row)),
                    lambda: matrices.append(list(matrices[y]))])()


def _misplace_number(text: str, rnd) -> str:
    """Move one number token across the bracket next to it: ``[1,`` -> ``1[,``, ``,2]`` -> ``,]2``.

    The brackets, the commas and the number of tokens stay as they were.
    """
    number = r"-?\d[\d.eE+-]*"
    spot = rnd.choice(list(re.finditer(rf"\[(\s*)({number})|({number})(\s*)\]", text)))
    if spot.group(2):
        moved = spot.group(2) + spot.group(1) + "["
    else:
        moved = "]" + spot.group(4) + spot.group(3)
    return text[:spot.start()] + moved + text[spot.end():]


_TEXT_CORRUPTIONS = ["drop", "insert", "non-ascii", "duplicate", "nested"]
_MATRIX_CORRUPTIONS = ["token", "ragged", "empty slot", "extra", "misplaced"]


def _corrupt_text(text: str, kind: str, rnd) -> str:
    k = rnd.randrange(len(text) + 1)
    if kind == "drop":
        return text[:k] + text[k + 1:]
    if kind == "insert":
        return text[:k] + rnd.choice("[],0123456789-+.eE \"") + text[k:]
    if kind == "non-ascii":
        return text[:k] + rnd.choice(["\u00e9", "\u00a0", "\ufeff"]) + text[k:]
    if kind == "duplicate":
        return text[:-1] + ', "matrices": [[[[1, 0]]], [[[2, 0]]]]}'
    return text[:-1] + ', "meta": {"matrices": 1}}'


@st.composite
def matrix_files(draw, corruption=None):
    """A matrix path file as text, in a random layout and key order.

    Valid unless ``corruption`` names one of the ways above to break it.
    """
    count, dim = draw(st.integers(2, 4)), draw(st.integers(1, 3))
    values = draw(st.lists(_VALUES, min_size=count * dim * dim * 2,
                           max_size=count * dim * dim * 2))
    forms = draw(st.lists(st.integers(0, 5), min_size=len(values), max_size=len(values)))
    tokens = iter([_number_token(v, f) for v, f in zip(values, forms)])
    matrices = [[[[next(tokens), next(tokens)] for _ in range(dim)] for _ in range(dim)]
                for _ in range(count)]
    layout = draw(st.sampled_from(["compact", "dumps", "indent", "spaces", "tabs"]))
    rnd = draw(st.randoms(use_true_random=False))
    if corruption in _MATRIX_CORRUPTIONS:
        _corrupt_matrices(matrices, corruption, rnd)
    fields = {"dim": str(dim), "grid": json.dumps([0.5 * k for k in range(count)]),
              "matrices": _dump(matrices, layout, rnd)}
    if corruption == "misplaced":
        fields["matrices"] = _misplace_number(fields["matrices"], rnd)
    keys = draw(st.permutations(list(fields)))
    sep = {"compact": ",", "dumps": ", ", "indent": ",\n", "spaces": " ,\r\n",
           "tabs": ",\t"}[layout]
    text = "{" + sep.join(f'"{k}": {fields[k]}' for k in keys) + "}"
    return _corrupt_text(text, corruption, rnd) if corruption in _TEXT_CORRUPTIONS else text


def _outcome(read):
    """What a reader returns or raises, comparable bit for bit."""
    try:
        grid, matrices = read()
    except Exception as exc:  # compared as type and message
        return type(exc).__name__, str(exc)
    return grid.points.tobytes(), [m.shape for m in matrices], [m.tobytes() for m in matrices]


class TestMatrixPathReader:
    """The array reader against ``json``, which reads every file it refuses."""

    @given(matrix_files(), st.one_of(st.just(families._CHUNK), st.integers(1, 64)))
    @settings(max_examples=300, deadline=None)
    def test_valid_files_take_the_fast_path_and_read_the_same_bits(self, text, chunk):
        # small chunks cut inside pairs, in the text read and in the stack made complex;
        # patch.object, as a function-scoped monkeypatch is not undone between examples
        data = text.encode()
        with mock.patch.object(families, "_CHUNK", chunk):
            fast = families._fast_matrix_path("family.json", io.BytesIO(data))
        assert fast is not None, text
        assert (_outcome(lambda: fast)
                == _outcome(lambda: families._json_matrix_path("family.json", data)))

    @given(st.sampled_from(_TEXT_CORRUPTIONS + _MATRIX_CORRUPTIONS).flatmap(matrix_files))
    @settings(max_examples=300, deadline=None)
    def test_corrupted_files_fail_as_json_does(self, tmp_path_factory, text):
        path = tmp_path_factory.getbasetemp() / "corrupted.json"
        path.write_bytes(text.encode())
        got = _outcome(lambda: families.load_matrix_path(str(path)))
        assert got == _outcome(lambda: families._json_matrix_path(str(path),
                                                                   path.read_bytes()))

    @pytest.mark.parametrize("text", [
        '{"dim": 1, "grid": [0, 1], "matrices": [[[[1,]]], [[[2, 0]]]]}',
        '{"dim": 1, "grid": [0, 1], "matrices": [[[[1, 2 3]]], [[[2, 0]]]]}',
        '{"dim": 1, "grid": [0, 1], "matrices": [[[[01, 2]]], [[[2, 0]]]]}',
        '{"dim": 1, "grid": [0, 1], "matrices": [[[[-01, 2]]], [[[2, 0]]]]}',
        '{"dim": 1, "grid": [0, 1], "matrices": [[[[1.2.3, 2]]], [[[2, 0]]]]}',
        '{"dim": 1, "grid": [0, 1], "matrices": [[[[1e2e3, 2]]], [[[2, 0]]]]}',
        '{"dim": 1, "grid": [0, 1], "matrices": [[[[1e2.5, 2]]], [[[2, 0]]]]}',
        '{"dim": 1, "grid": [0, 1], "matrices": [[[[.5, 2]]], [[[2, 0]]]]}',
        '{"dim": 1, "grid": [0, 1], "matrices": [[[[+5, 2]]], [[[2, 0]]]]}',
        '{"dim": 1, "grid": [0, 1], "matrices": [[[[5., 2]]], [[[2, 0]]]]}',
        '{"dim": 1, "grid": [0, 1], "matrices": [[[[5e, 2]]], [[[2, 0]]]]}',
        '{"dim": 1, "grid": [0, 1], "matrices": [[[[-, 2]]], [[[2, 0]]]]}',
        '{"dim": 1, "grid": [0, 1], "matrices": [[[[1, 2]]], [[[2, 0]]]]]}',
        '{"dim": 1, "grid": [0, 1], "matrices": [[[[1, 2]]], [[[2, 0]]], [[[3, 0]]]]}',
        '{"dim": 1, "grid": [0, 1], "matrices": [[[[1, 2]]], [[[2, 0]]]], "matrices": []}',
        '{"dim": 1, "grid": [0, 1], "matrices": [[[[1, 2]]], [[[1e400, 0]]]]}',
        '{"dim": 1, "grid": [0, 1], "a\\"matrices": [], "matrices": [[[[1, 2]]], [[[2, 0]]]]}',
        # the brackets, commas and count are right, but a number sits outside its pair
        '{"dim": 1, "grid": [0, 1], "matrices": [[[[1, 2]]], [[7 [, 0]]]]}',
        '{"dim": 1, "grid": [0, 1], "matrices": [[[[1, ]2]], [[[2, 0]]]]}',
    ])
    def test_what_the_fast_path_refuses(self, text):
        # each would be misread (or read at all) by a parse that skipped a check,
        # whole or in reads shorter than the key
        for chunk in (families._CHUNK, 3):
            with mock.patch.object(families, "_CHUNK", chunk):
                assert families._fast_matrix_path("family.json",
                                                  io.BytesIO(text.encode())) is None, chunk

    def test_peak_memory_is_the_matrices_and_one_chunk(self, tmp_path):
        # a dense file of many chunks; numpy reports its buffers to tracemalloc
        rnd = random.Random(5)
        count, dim = 60, 24
        path = tmp_path / "dense.json"
        path.write_text(json.dumps({"dim": dim, "grid": list(range(count)), "matrices": [
            [[[rnd.uniform(-1, 1), rnd.uniform(-1, 1)] for _ in range(dim)] for _ in range(dim)]
            for _ in range(count)]}))
        stack_bytes = count * dim * dim * 16
        # the text is 2.7 times the stack here, so holding it would break the bound
        assert path.stat().st_size > max(10 * families._CHUNK, 2 * stack_bytes)
        tracemalloc.start()
        try:
            grid, matrices = families.load_matrix_path(str(path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(matrices) == count
        assert peak <= stack_bytes + _read_allowance()

    @given(st.integers(1, 64), st.integers(1, 4), st.randoms(use_true_random=False))
    @settings(max_examples=60, deadline=None)
    def test_sample_builds_each_operator_as_the_matrix_alone_gives_it(
            self, tmp_path_factory, chunk, dim, rnd):
        # blocks cut anywhere, of mixed forms, with mirrored entries that differ
        # within the Hermitian tolerance, so that averaging changes their bits
        count = 6
        matrices = [_hermitian_pairs(rnd, dim, dense=rnd.random() < 0.5) for _ in range(count)]
        for m in matrices:
            if dim > 1 and m[0][1] != [0.0, 0.0]:
                m[1][0][0] *= 1 + 1e-13
        path = tmp_path_factory.getbasetemp() / "blocks.json"
        path.write_text(json.dumps({"dim": dim, "grid": list(range(count)),
                                    "matrices": matrices}))
        with mock.patch.object(families, "_CHUNK", chunk):
            smp = sample(FamilySpec("matrix_path_file", dim, {"path": str(path)}))
        for op, m in zip(smp.operators, matrices):
            pairs = np.array(m)
            alone = spectral._exact_if_diagonal(HermitianOperator(pairs[..., 0]
                                                                  + 1j * pairs[..., 1]))
            assert type(op) is type(alone)
            assert op.entries.tobytes() == alone.entries.tobytes()

    @pytest.mark.parametrize("form", ["diagonal", "dense", "mixed"])
    def test_sample_peaks_at_its_operators_and_one_read(self, tmp_path, form):
        # each file's stack of matrices is larger than the allowance, so a
        # sample that held the stack beside its operators would break the bound
        rnd = random.Random(17)
        count, dim = 120, 40
        dense = [form == "dense" or form == "mixed" and k % 8 == 0 for k in range(count)]
        path = tmp_path / "family.json"
        path.write_text(json.dumps({"dim": dim, "grid": list(range(count)), "matrices": [
            _hermitian_pairs(rnd, dim, d) for d in dense]}))
        matrix_bytes = dim * dim * 16
        assert count * matrix_bytes > 2 * _read_allowance()
        tracemalloc.start()
        try:
            smp = sample(FamilySpec("matrix_path_file", dim, {"path": str(path)}))
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        diagonal = [isinstance(op, spectral._DiagonalOperator) for op in smp.operators]
        assert diagonal == [not d for d in dense]
        # a diagonal family keeps its diagonals only, a dense one its matrices once
        kept = count * matrix_bytes if form == "dense" else retained
        assert peak <= kept + _read_allowance()
        # each dense operator keeps its own matrix, not the block it was read in;
        # an operator's other arrays and objects take under 2 KiB here
        assert retained <= sum(dense) * matrix_bytes + count * 2048

    def test_dense_file_of_many_reads_with_its_header_after_the_matrices(self, tmp_path):
        # reads shorter than the key: every token, the key and the brackets are cut
        rnd = random.Random(7)
        count, dim = 5, 4
        matrices = [[[[rnd.uniform(-1, 1), rnd.uniform(-1, 1)] for _ in range(dim)]
                     for _ in range(dim)] for _ in range(count)]
        text = json.dumps({"matrices": matrices, "dim": dim, "grid": list(range(count))})
        path = tmp_path / "dense.json"
        path.write_text(text)
        chunk = len('"matrices"') - 3
        assert len(text) > 100 * chunk
        with mock.patch.object(families, "_CHUNK", chunk):
            with open(path, "rb") as fh:
                fast = families._fast_matrix_path(str(path), fh)
            loaded = families.load_matrix_path(str(path))
        assert fast is not None
        expected = _outcome(lambda: families._json_matrix_path(str(path), text.encode()))
        assert _outcome(lambda: fast) == _outcome(lambda: loaded) == expected
        assert [m.tolist() for m in loaded[1]] == [
            [[complex(*pair) for pair in row] for row in m] for m in matrices]

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs a named pipe")
    def test_a_pipe_is_read_too(self, tmp_path):
        text = '{"dim": 1, "grid": [0, 1], "matrices": [[[[1.5, 0]]], [[[2, -0.5]]]]}'
        path = tmp_path / "family.fifo"
        os.mkfifo(path)
        writer = threading.Thread(target=path.write_text, args=(text,), daemon=True)
        writer.start()
        try:
            grid, matrices = families.load_matrix_path(str(path))
        finally:
            writer.join(timeout=10)
        assert [m.tolist() for m in matrices] == [[[1.5 + 0j]], [[2 - 0.5j]]]

    def test_chunks_are_cut_at_a_comma(self, monkeypatch):
        # chunks of 8 bytes would split tokens here unless cut at a comma;
        # the second layout puts whitespace on both sides of every cut
        monkeypatch.setattr(families, "_CHUNK", 8)
        compact = '{"dim": 1, "grid": [0, 1], "matrices": [[[[1.25e-05, -0]]], [[[10.5, 0e0]]]]}'
        for good in (compact, compact.replace(", ", " ,\n\t")):
            fast = families._fast_matrix_path("f", io.BytesIO(good.encode()))
            assert fast is not None, good
            assert (_outcome(lambda: fast)
                    == _outcome(lambda: families._json_matrix_path("f", good.encode())))
            for bad in ("1.25e-0.5", "1.2.5e-05", "1 5", "-01"):
                text = good.replace("1.25e-05", bad)
                assert families._fast_matrix_path("f", io.BytesIO(text.encode())) is None, bad
            # an empty last slot leaves the last chunk without a number
            assert families._fast_matrix_path(
                "f", io.BytesIO(good.replace("0e0", "").encode())) is None


class TestTruncationCheck:
    def test_matrix_file_is_read_once(self, tmp_path, monkeypatch):
        mats = []
        for x in (0.0, 0.5, 1.0):
            m = np.diag([x - 0.5, 2.0, -2.0]).astype(complex)
            mats.append(np.stack([m.real, m.imag], axis=-1).tolist())
        path = tmp_path / "family.json"
        path.write_text(json.dumps({"dim": 3, "grid": [0.0, 0.5, 1.0], "matrices": mats}))
        calls = []
        load = families.load_matrix_path
        monkeypatch.setattr(families, "load_matrix_path",
                            lambda p, build: calls.append(p) or load(p))
        spec = FamilySpec("matrix_path_file", 3, {"path": str(path)})
        report = truncation_check(spec, None, [1, 2, 3], RealWindow(-1.0, 1.0))
        assert len(calls) == 1
        assert [(s.dim_small, s.dim_big) for s in report.steps] == [(1, 2), (2, 3)]

    def test_run_analysis_reads_the_file_once(self, tmp_path, monkeypatch):
        grid = [0.0, 0.5, 1.0]
        coupling = 0.1 * (np.eye(3, k=1) + np.eye(3, k=-1))
        mats = [np.stack([m.real, m.imag], axis=-1).tolist()
                for m in (np.diag([x - 0.5, 2.0, -2.0]) + coupling for x in grid)]
        path = tmp_path / "family.json"
        path.write_text(json.dumps({"dim": 3, "grid": grid, "matrices": mats}))
        calls = []
        load = families.load_matrix_path
        monkeypatch.setattr(families, "load_matrix_path",
                            lambda p, build: calls.append(p) or load(p))
        bundle = run_analysis({
            "family": {"kind": "matrix_path_file", "dim": 3, "params": {"path": str(path)}},
            "seed": 0,
            "analyses": [{"kind": "truncation",
                          "params": {"dims": [1, 2, 3], "window": [-1.0, 1.0]}}],
        }, output_dir=tmp_path / "out")
        assert len(calls) == 1
        steps = bundle.report["analyses"][0]["result"]["steps"]
        assert [(s["dim_small"], s["dim_big"]) for s in steps] == [(1, 2), (2, 3)]

    def test_dirac_window_spectrum_identical(self):
        grid = ParameterGrid.linspace(0.0, 0.3, 4)
        spec = FamilySpec("dirac_circle", 11, {"alpha": 0.25})
        report = truncation_check(spec, grid, [11, 21], RealWindow(-1.4, 1.4))
        assert report.stable
        assert report.steps[0].max_hausdorff == 0.0
        assert report.steps[0].max_projection_distance <= 1e-12

    def test_harmonic_unperturbed_stable(self):
        grid = ParameterGrid.linspace(0.0, 1.0, 3)
        spec = FamilySpec("harmonic_perturbed", 16, {"coupling": 0.0})
        report = truncation_check(spec, grid, [16, 32], RealWindow(-2.0, 2.0))
        assert report.stable

    def test_random_path_not_stable(self):
        grid = ParameterGrid.linspace(0.0, 1.0, 4)
        spec = FamilySpec("random_crossings", 8, {"seed": 3})
        report = truncation_check(spec, grid, [8, 16], RealWindow(-0.9, 0.9))
        assert not report.stable

    def test_window_edge_propagates(self):
        grid = ParameterGrid.linspace(0.0, 0.3, 3)
        spec = FamilySpec("dirac_circle", 11, {"alpha": 0.25})
        # 1.25 is an eigenvalue at every grid point for a constant flux
        with pytest.raises(EdgeOnSpectrum):
            truncation_check(spec, ParameterGrid(np.array([0.0, 0.1])),
                             [11, 21], RealWindow(-1.25, 1.25))

    def test_dims_must_increase(self):
        grid = ParameterGrid.linspace(0.0, 1.0, 3)
        with pytest.raises(ValueError):
            truncation_check(FamilySpec("linear_crossing", 3), grid, [5, 3],
                             RealWindow(-1, 1))


class TestEssentialSignCheck:
    def test_dirac_counts(self):
        smp = sample(FamilySpec("dirac_circle", 11, {"alpha": 0.25}),
                     ParameterGrid.linspace(0.0, 0.2, 3))
        report = essential_sign_check(smp, k=3)
        assert report.passed
        assert report.min_negative == 5
        assert report.min_positive == 6

    def test_positive_only_fails(self):
        report = essential_sign_check(constant_sample([1.0, 2.0, 3.0]), k=1)
        assert not report.passed
        assert report.min_negative == 0

    def test_zero_matrix_fails(self):
        report = essential_sign_check(constant_sample([0.0, 0.0]), k=1)
        assert not report.passed
        assert report.min_negative == 0 and report.min_positive == 0


def _eigh_twin(smp):
    """The same sample with undecomposed operators, so every fibre goes through eigh."""
    return FamilySample(smp.grid, tuple(HermitianOperator(op.entries)
                                        for op in smp.operators))


def _tie_free_bounds(values):
    """Eigen-indices where an interval may start or stop without splitting a tie."""
    return [k for k in range(values.size + 1)
            if k in (0, values.size) or values[k - 1] != values[k]]


def _assert_projectors_match(smp, twin, step=1):
    """Plain, eigenvalue-weighted and resolvent-weighted projectors agree bit
    for bit on every interval between tie-free bounds (every ``step``-th bound,
    plus the last)."""
    for dec, ref in zip(smp.decompositions, twin.decompositions):
        bounds = _tie_free_bounds(dec.eigenvalues)
        bounds = sorted(set(bounds[::step]) | {bounds[-1]})
        index = np.arange(smp.dim)
        for start in bounds:
            for stop in (b for b in bounds if b >= start):
                mask = (index >= start) & (index < stop)
                for weights in (None, dec.eigenvalues, 1.0 / (dec.eigenvalues + 1j)):
                    assert (projector(dec, mask, weights).tobytes()
                            == projector(ref, mask, weights).tobytes())


EXACT_SAMPLES = {
    "dirac41": (FamilySpec("dirac_circle", 41, {"alpha": [0.0, 1.0]}),
                ParameterGrid.linspace(-0.49, 0.49, 9)),
    "dirac201": (FamilySpec("dirac_circle", 201, {"alpha": [0.0, 1.0]}),
                 ParameterGrid.linspace(-0.49, 0.49, 3)),
    "tangent": (FamilySpec("tangent_blowup", 5), ParameterGrid.linspace(0.05, 0.95, 10)),
    "tangent_ties": (FamilySpec("tangent_blowup", 5, {"padding": [2, 2, -2, -2]}),
                     ParameterGrid.linspace(0.05, 0.95, 10)),
}


class TestExactDecompositions:
    """``dirac_circle`` and ``tangent_blowup`` carry exact decompositions that
    reproduce the eigh route bit for bit, without eigh and without a dense basis."""

    @pytest.mark.parametrize("name", sorted(EXACT_SAMPLES))
    def test_installed_eigenvalues_are_eighs(self, name):
        smp = sample(*EXACT_SAMPLES[name])
        for op in smp.operators:
            dec = vars(op)["_decomposition"]
            assert dec.basis is None and dec.order is not None
            assert dec.eigenvalues.tobytes() == np.linalg.eigh(op.entries)[0].tobytes()

    @pytest.mark.parametrize("name", sorted(EXACT_SAMPLES))
    def test_projectors_are_eighs(self, name):
        smp = sample(*EXACT_SAMPLES[name])
        # dim 201 takes every 40th bound: all intervals would take minutes
        _assert_projectors_match(smp, _eigh_twin(smp), step=40 if smp.dim > 100 else 1)

    def test_ties_are_ordered_differently_by_eigh(self):
        # why the tied sample compares only intervals that keep tie clusters whole
        smp = sample(*EXACT_SAMPLES["tangent_ties"])
        twin = _eigh_twin(smp)
        assert any(not np.array_equal(dec.eigenvectors, ref.eigenvectors)
                   for dec, ref in zip(smp.decompositions, twin.decompositions))

    def test_eigenvectors_are_built_on_demand(self):
        smp = sample(*EXACT_SAMPLES["dirac41"])
        dec = smp.decompositions[0]
        v = dec.eigenvectors
        assert v.dtype == np.linalg.eigh(smp.operators[0].entries)[1].dtype
        assert np.array_equal(v, np.eye(smp.dim)[:, dec.order])
        assert not v.flags.writeable
        assert dec.eigenvectors is not v

    @pytest.mark.parametrize("name", ["dirac41", "tangent"])
    def test_derived_samples_keep_the_permutation(self, name):
        smp = sample(*EXACT_SAMPLES[name])
        twin = _eigh_twin(smp)
        for derived, oracle in ((smp.shifted(0.3), twin.shifted(0.3)),
                                (smp.bounded_transformed(), twin.bounded_transformed())):
            for dec in derived.decompositions:
                assert dec.basis is None and dec.order is not None
            assert (derived.eigenvalue_matrix.tobytes()
                    == oracle.eigenvalue_matrix.tobytes())
            for op, ref in zip(derived.operators, oracle.operators):
                assert op.entries.tobytes() == ref.entries.tobytes()
            _assert_projectors_match(derived, oracle)

    def test_resolvent_equals_eighs(self):
        smp = sample(*EXACT_SAMPLES["tangent"])
        for op, ref in zip(smp.operators, _eigh_twin(smp).operators):
            assert np.array_equal(resolvent_at_i(op), resolvent_at_i(ref))

    def test_flow_at_dim_201_never_calls_eigh(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("eigh called")

        monkeypatch.setattr(np.linalg, "eigh", refuse)
        smp = sample(FamilySpec("dirac_circle", 201, {"alpha": [0.0, 1.0]}),
                     ParameterGrid.linspace(-0.49, 0.49, 101))
        assert flow_by_tracking(smp).flow == 1
        assert flow_by_partition(smp).flow == 1
        for op in smp.operators:
            # the operator holds its diagonal and the exact decomposition, and
            # nothing it holds is a matrix: no dense entries, no dense basis
            assert set(vars(op)) == {"_diagonal", "_decomposition"}
            dec = vars(op)["_decomposition"]
            assert dec.basis is None
            held = [vars(op)["_diagonal"],
                    *(getattr(dec, f.name) for f in dataclasses.fields(dec))]
            assert all(np.ndim(a) <= 1 for a in held)
            assert vars(op)["_diagonal"].shape == (smp.dim,)

    def test_non_finite_alpha_still_names_its_grid_index(self, tmp_path):
        spec = FamilySpec("dirac_circle", 5, {"alpha": [math.nan, 1.0]})
        with pytest.raises(NonFiniteEntry) as err:
            sample(spec, ParameterGrid.linspace(0.0, 1.0, 3))
        assert err.value.grid_index == 0
        bundle = run_analysis({
            "family": {"kind": "dirac_circle", "dim": 5, "params": {"alpha": [math.nan, 1.0]}},
            "grid": {"start": 0.0, "end": 1.0, "points": 3},
            "seed": 0,
            "analyses": [{"kind": "flow", "params": {}}],
        }, output_dir=tmp_path)
        error = bundle.report["analyses"][0]["error"]
        assert error["type"] == "NonFiniteEntry"
        assert error["grid_index"] == 0

    def test_pole_is_still_refused(self):
        spec = FamilySpec("tangent_blowup", 5, {"padding": [2, 2, -2, -2]})
        with pytest.raises(FamilyModelError, match="pole"):
            sample(spec, ParameterGrid(np.array([0.1, 1.5])))


def _per_point_reference(spec, points):
    """The dense generator's operators built one point at a time, each with its
    own ``eigh``: (operator, eigenvalues, eigenvectors) per point."""
    dim = spec.dim
    if spec.kind == "random_crossings":
        path = families._RandomPath(dim, spec.params["seed"])

        def matrix(x):
            branch = path.signs * path.amplitudes * np.sin(2.0 * np.pi * (x + path.phases))
            return (path.basis * branch) @ path.basis.conj().T
    else:
        coupling = families._path_coefficients(spec.params.get("coupling"), 0.0)
        ladder = np.arange(dim, dtype=float) + 0.5 - dim / 2.0
        mixing = families._hilbert_matrix(dim)

        def matrix(x):
            return np.diag(ladder) + coupling(x) * mixing

    out = []
    for x in points:
        op = HermitianOperator(matrix(x))
        out.append((op, *np.linalg.eigh(op.entries)))
    return out


def _assert_matches_reference(smp, spec):
    reference = _per_point_reference(spec, smp.grid.points)
    for op, (ref, w, v) in zip(smp.operators, reference, strict=True):
        dec = vars(op)["_decomposition"]
        assert op.entries.tobytes() == ref.entries.tobytes()
        assert dec.eigenvalues.tobytes() == w.tobytes()
        assert dec.eigenvectors.tobytes() == v.tobytes()
        assert not (op.entries.flags.writeable or dec.eigenvalues.flags.writeable
                    or dec.eigenvectors.flags.writeable)
    return reference


_SEEDS = st.one_of(st.sampled_from([0, 2**64 - 1]), st.integers(0, 2**64 - 1))


@st.composite
def dense_specs(draw, dims=st.integers(1, 16)):
    dim = draw(dims)
    if draw(st.booleans()):
        return FamilySpec("random_crossings", dim, {"seed": draw(_SEEDS)})
    coupling = draw(st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)))
    return FamilySpec("harmonic_perturbed", dim, {"coupling": coupling})


@st.composite
def grids(draw):
    start = draw(st.floats(-2.0, 2.0))
    return ParameterGrid.linspace(start, start + draw(st.floats(0.01, 3.0)),
                                  draw(st.integers(2, 250)))


class TestWholeGridGenerators:
    """``random_crossings`` and ``harmonic_perturbed`` build and decompose the
    whole grid at once, with the bits of one point at a time and one ``eigh``
    each."""

    @settings(max_examples=60, deadline=None)
    @given(spec=dense_specs(), grid=grids(), lam=st.floats(-1.0, 1.0))
    def test_sample_and_shift_match_one_point_at_a_time(self, spec, grid, lam):
        smp = sample(spec, grid)
        reference = _assert_matches_reference(smp, spec)
        shifted = smp.shifted(lam)
        for op, (ref, w, v) in zip(shifted.operators, reference, strict=True):
            assert op.entries.tobytes() == ref.shifted(lam).entries.tobytes()
            dec = vars(op)["_decomposition"]
            assert dec.eigenvalues.tobytes() == (w - lam).tobytes()
            assert dec.eigenvectors.tobytes() == v.tobytes()

    @settings(max_examples=25, deadline=None)
    @given(spec=dense_specs(), grid=grids(),
           dims=st.lists(st.integers(1, 16), min_size=2, max_size=3, unique=True))
    def test_truncation_resamples_match_one_point_at_a_time(self, spec, grid, dims):
        made = []

        def recording(s, g):
            made.append((s, sample(s, g)))
            return made[-1][1]

        dims = sorted(dims)
        with mock.patch.object(families, "sample", recording):
            try:
                truncation_check(spec, grid, dims, RealWindow(-0.45, 0.45))
            except EdgeOnSpectrum:
                pass
        assert [s.dim for s, _ in made] == dims
        for s, smp in made:
            _assert_matches_reference(smp, s)

    def test_no_eigh_after_sampling(self, monkeypatch):
        smp = sample(FamilySpec("random_crossings", 6, {"seed": 7}),
                     ParameterGrid.linspace(0.0, 0.77, 40))
        monkeypatch.setattr(np.linalg, "eigh", lambda *a, **k: pytest.fail("eigh called"))
        assert smp.eigenvalue_matrix.shape == (40, 6)
        assert flow_by_tracking(smp).flow == flow_by_partition(smp).flow

    @pytest.mark.parametrize("coupling, error, entry", [
        (lambda x: np.nan if x > 0.6 else x, NonFiniteEntry, (0, 0)),
        (lambda x: 1j if x > 0.6 else x, NotHermitianError, (0, 0)),
    ], ids=["non-finite", "not Hermitian"])
    def test_refused_fiber_names_grid_index(self, coupling, error, entry):
        spec = FamilySpec("harmonic_perturbed", 3, {"coupling": coupling})
        with pytest.raises(error) as err:
            sample(spec, ParameterGrid.linspace(0.0, 1.0, 5))
        assert (err.value.grid_index, err.value.entry) == (3, entry)
        assert "grid index 3" in str(err.value)
