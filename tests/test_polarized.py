import numpy as np
import pytest

from specfam import (
    FamilySample,
    FamilySpec,
    ParameterGrid,
    PolarizationCheck,
    bounded_transform,
    bounded_transform_scalar,
    compact_polarization_check,
    diagonal_operator,
    discrete_spectrum_certify,
    polarized_continuity_certify,
    sample,
    transform_correspondence_check,
    truncation_ceiling,
    weak_discrete_spectrum_certify,
)
from specfam import polarized
from specfam.errors import FamilyModelError, PolarizationCheckFailed

from conftest import constant_sample


def dirac_sample(dim=11, lo=0.2, hi=0.3, points=11):
    return sample(FamilySpec("dirac_circle", dim, {"alpha": (0.0, 1.0)}),
                  ParameterGrid.linspace(lo, hi, points))


class TestPolarizationCheck:
    def test_exact_poles_pass(self):
        report = compact_polarization_check(diagonal_operator([1, -1, 1, -1]),
                                            PolarizationCheck(0.1, 0))
        assert report.passed
        assert report.interior_count == 0

    def test_transformed_flux_fiber_passes(self):
        fiber = bounded_transform(diagonal_operator(np.arange(-5, 6) + 0.25))
        report = compact_polarization_check(fiber, PolarizationCheck(0.3, 3))
        assert report.passed
        assert report.interior_count <= 3

    def test_interior_only_fails_both_ways(self):
        report = compact_polarization_check(diagonal_operator([0.5, -0.5]),
                                            PolarizationCheck(0.3, 1))
        assert not report.passed
        assert report.interior_count == 2
        assert report.near_plus_count == 0 and report.near_minus_count == 0

    def test_band_width_validated(self):
        with pytest.raises(ValueError):
            PolarizationCheck(eta=1.5)
        with pytest.raises(ValueError):
            PolarizationCheck(eta=0.1, interior_budget=-1)

    @pytest.mark.parametrize("budget", [float("nan"), 2.5, 2.0, True, np.bool_(False),
                                        "3", np.int64(-1)])
    def test_budget_must_be_a_non_negative_integer(self, budget):
        with pytest.raises(ValueError, match="interior budget must be non-negative"):
            PolarizationCheck(eta=0.1, interior_budget=budget)

    @pytest.mark.parametrize("budget", [0, 3, np.int64(3), np.uint8(3)])
    def test_integer_budgets_accepted(self, budget):
        check = PolarizationCheck(eta=0.1, interior_budget=budget)
        assert check.budget_for(4) == budget
        report = compact_polarization_check(
            diagonal_operator([-0.99, -0.5, 0.99, 0.995]), check)
        assert report.passed == (budget >= 1)

    def test_default_budget_scales_with_dim(self):
        check = PolarizationCheck()
        assert check.budget_for(12) == 3


class TestWeakDiscreteSpectrum:
    def test_constant_contraction_passes(self):
        smp = constant_sample([1.0, -1.0, 0.2, -0.2])
        report = weak_discrete_spectrum_certify(
            smp, [0.5, 0.9], check=PolarizationCheck(0.05, 2))
        assert report.passed
        assert report.routes_agree
        assert report.ceiling == pytest.approx(0.95)
        for b in report.b_levels:
            for cert in report.certificates[b]:
                assert b < cert.level < 0.95

    def test_levels_must_be_inside_unit_interval(self):
        smp = constant_sample([1.0, -1.0, 0.2, -0.2])
        with pytest.raises(ValueError):
            weak_discrete_spectrum_certify(smp, [1.5],
                                           check=PolarizationCheck(0.05, 2))

    def test_repeated_level_refused(self):
        smp = constant_sample([1.0, -1.0, 0.2, -0.2])
        with pytest.raises(ValueError, match="must not repeat a level"):
            weak_discrete_spectrum_certify(smp, [0.5, 0.9, 0.5],
                                           check=PolarizationCheck(0.05, 2))

    def test_unpolarized_fiber_rejected(self):
        smp = constant_sample([0.3, -0.3])
        with pytest.raises(PolarizationCheckFailed):
            weak_discrete_spectrum_certify(smp, [0.5])

    def test_accumulating_interior_spectrum_reports_no_gap(self):
        # twenty eigenvalues packed into [0.69, 0.71] leave no admissible
        # level above b = 0.8 below the essential band edge 1 - eta = 0.71
        cluster = np.linspace(0.69, 0.71, 20)
        values = np.concatenate([cluster, [-0.97, 0.97, -1.0, 1.0]])
        smp = constant_sample(values)
        report = weak_discrete_spectrum_certify(
            smp, [0.8], check=PolarizationCheck(0.29, 20),
            include_definitional=False)
        assert not report.passed
        assert all(f.error == "NoGap" for f in report.failures)
        assert report.failing_points == tuple(range(len(smp)))


class TestTransformCorrespondence:
    def test_flux_family_levels_transport(self):
        report = transform_correspondence_check(dirac_sample(), [1.4])
        assert report.equivalent
        assert report.rank_identity_ok
        assert report.discrete_passed and report.weak_passed
        assert report.transformed_levels[0] == pytest.approx(
            bounded_transform_scalar(1.4))

    def test_constant_family_trivially_equivalent(self):
        smp = constant_sample([-2.0, -1.0, 1.0, 2.0])
        report = transform_correspondence_check(smp, [0.5, 1.5])
        assert report.equivalent
        assert report.discrete_passed and report.weak_passed

    def test_ceiling_violation_fails_coherently(self):
        smp = constant_sample([-2.0, -1.0, 1.0, 2.0])
        report = transform_correspondence_check(smp, [2.5])
        assert report.equivalent
        assert not report.discrete_passed
        assert not report.weak_passed

    def test_requires_both_signs(self):
        with pytest.raises(FamilyModelError):
            transform_correspondence_check(constant_sample([1.0, 2.0, 3.0]), [0.5])

    @pytest.mark.parametrize("b_levels, named", [
        # the transform of 1e9 rounds to 1, and 6e7 and 6.1e7 share one
        ([1e9], "[1000000000.0]"),
        ([0.5, 6.1e7, 6e7], "[60000000.0, 61000000.0]"),
    ])
    def test_levels_the_weak_scan_cannot_take_are_refused_first(self, monkeypatch, b_levels,
                                                                 named):
        monkeypatch.setattr(polarized, "discrete_spectrum_certify", None)
        with pytest.raises(ValueError) as err:
            transform_correspondence_check(dirac_sample(), b_levels)
        assert str(err.value) == (f"b_levels {named} do not map to distinct transformed "
                                  "levels inside (0, 1)")

    def test_rank_mismatch_is_reported(self, monkeypatch):
        # one transformed eigenvalue inside the window at grid point 5 is moved
        # just outside it, so the image window there loses one rank
        smp = dirac_sample()
        cert = discrete_spectrum_certify(smp, [1.4], include_definitional=False).certificates[1.4][5]
        glevel = float(bounded_transform_scalar(cert.level))
        ops = [bounded_transform(op) for op in smp.operators]
        values = np.linalg.eigvalsh(ops[5].entries)
        inside = np.flatnonzero(np.abs(values) <= glevel)
        moved = inside[np.argmax(np.abs(values[inside]))]
        values[moved] = np.sign(values[moved]) * (glevel + 1e-3)
        ops[5] = diagonal_operator(values)
        monkeypatch.setattr(FamilySample, "bounded_transformed",
                            lambda self: FamilySample(self.grid, tuple(ops)))
        report = transform_correspondence_check(smp, [1.4])
        assert not report.rank_identity_ok
        assert not report.equivalent

    def test_window_rank_identity_exact(self, rng):
        from specfam import spectral_projection, RealWindow
        from conftest import random_hermitian
        for _ in range(25):
            op = random_hermitian(rng, 9)
            ceiling = 0.9 * float(np.max(np.abs(np.linalg.eigvalsh(op.entries))))
            image = bounded_transform(op)
            for _ in range(5):
                level = float(rng.uniform(0.05, ceiling))
                direct = spectral_projection(op, RealWindow.symmetric(level),
                                             tau_edge=0.0).rank
                mapped = spectral_projection(
                    image,
                    RealWindow.symmetric(float(bounded_transform_scalar(level))),
                    tau_edge=0.0,
                ).rank
                assert direct == mapped


class TestPolarizedContinuity:
    def test_transformed_flux_family_certifies(self):
        smp = dirac_sample(points=21)
        image = smp.bounded_transformed()
        ceiling = float(bounded_transform_scalar(truncation_ceiling(smp)))
        cert = polarized_continuity_certify(image, 10, 0.2, cap=0.5,
                                            level_ceiling=ceiling)
        assert cert.transform == "identity"
        assert cert.level > 1 - 0.2
        assert cert.upper_defect < 0.2 and cert.lower_defect < 0.2
        assert cert.final_bound < 7 * 0.2

    def test_default_ceiling_stays_inside_unit_interval(self):
        smp = dirac_sample(points=21).bounded_transformed()
        cert = polarized_continuity_certify(smp, 10, 0.3, cap=0.5)
        assert cert.level < 1.0
