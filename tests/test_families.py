import json
import math

import numpy as np
import pytest

from specfam import (
    FamilySample,
    FamilySpec,
    ParameterGrid,
    RealWindow,
    essential_sign_check,
    sample,
    truncation_check,
)
from specfam.errors import EdgeOnSpectrum, FamilyModelError, NonFiniteEntry

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


class TestTruncationCheck:
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
