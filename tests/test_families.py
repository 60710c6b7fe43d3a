import dataclasses
import json
import math

import numpy as np
import pytest

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
from specfam.spectral import projector
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
