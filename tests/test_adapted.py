import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import specfam.adapted
from specfam import (
    FamilySample,
    FamilySpec,
    GridRange,
    HermitianOperator,
    ParameterGrid,
    PolarizationCheck,
    RealWindow,
    adapted_from_covering,
    certify_adapted_pair,
    covering_construction,
    discrete_spectrum_certify,
    find_adapted_pair,
    fixed_level_certifier,
    flow_by_partition,
    flow_by_tracking,
    sample,
    spectral_projection,
    strict_adaptedness_certify,
    truncation_ceiling,
    weak_discrete_spectrum_certify,
)
from specfam.adapted import (
    MAX_SHIFTS,
    AdaptedPairCertificate,
    CertificateFailure,
    _RunEdges,
    _certify_pairs,
    _interval_modulus,
    _level_blocks,
    _scan_levels,
    level_candidates,
    level_margins,
    level_ranks,
)
from specfam.errors import (
    CertificationError,
    CoveringFailed,
    EdgeOnSpectrum,
    EndpointOnSpectrum,
    ModulusExceeded,
    NoGap,
    RankJump,
)
from specfam.spectral import (
    TAU_EDGE_DEFAULT,
    _dense_range,
    _difference_norms,
    _install_decomposition,
    _spectral_functions,
    diagonal_operator,
    hermitian_norm,
    projector,
)

from conftest import (
    IN_BAND_SCALES,
    OUT_OF_BAND_SCALES,
    constant_sample,
    random_hermitian,
    with_nan_eigenvalue,
)


def linear_sample(start, end, points, dim=3):
    return sample(FamilySpec("linear_crossing", dim),
                  ParameterGrid.linspace(start, end, points))


class TestCertifyAdaptedPair:
    def test_constant_family_rank_zero(self):
        smp = constant_sample([-1.0, 1.0])
        cert = certify_adapted_pair(smp, GridRange(0, len(smp) - 1), 0.5)
        assert cert.rank == 0
        assert cert.projection_modulus == 0.0
        assert cert.restriction_modulus == 0.0
        assert cert.margin == pytest.approx(0.5)

    def test_linear_crossing_window(self):
        smp = linear_sample(0.4, 0.6, 11)
        cert = certify_adapted_pair(smp, GridRange(0, 10), 0.25)
        assert cert.rank == 1
        assert cert.margin >= 0.15 - 1e-12
        assert cert.margin == pytest.approx(0.15)

    def test_linear_crossing_rank_jump(self):
        smp = linear_sample(0.0, 1.0, 11)
        with pytest.raises(RankJump) as err:
            certify_adapted_pair(smp, GridRange(0, 10), 0.25)
        assert (err.value.left_index, err.value.right_index) == (2, 3)
        assert (err.value.left_rank, err.value.right_rank) == (0, 1)

    def test_edge_on_spectrum_named_point(self):
        smp = constant_sample([-1.0, 1.0])
        with pytest.raises(EdgeOnSpectrum) as err:
            certify_adapted_pair(smp, GridRange(0, 4), 1.0)
        assert err.value.grid_index == 0

    def test_nan_eigenvalue_fails_the_edge_gate(self):
        smp = with_nan_eigenvalue([-2.0, 2.0, 0.5], 2)
        with pytest.raises(EdgeOnSpectrum) as err:
            certify_adapted_pair(smp, GridRange(2, 2), 1.0)
        assert err.value.grid_index == 2

    def test_cap_enforced(self):
        smp = sample(FamilySpec("harmonic_perturbed", 10, {"coupling": (0.0, 1.0)}),
                     ParameterGrid.linspace(0.0, 1.0, 9))
        cert = certify_adapted_pair(smp, GridRange(0, 8), 1.0)
        assert cert.projection_modulus > 0.0
        with pytest.raises(ModulusExceeded):
            certify_adapted_pair(smp, GridRange(0, 8), 1.0,
                                 cap=cert.projection_modulus / 10.0)

    @pytest.mark.parametrize("spec, grid, level, which", [
        (FamilySpec("harmonic_perturbed", 10, {"coupling": (0.0, 1.0)}),
         ParameterGrid.linspace(0.0, 1.0, 9), 1.0, "projection"),
        (FamilySpec("dirac_circle", 11, {"alpha": (0.1, 0.4)}),
         ParameterGrid.linspace(-0.4, 0.4, 9), 1.5, "restriction"),
    ], ids=["harmonic_perturbed", "dirac_circle"])
    def test_cap_refusal_names_the_first_maximal_edge(self, spec, grid, level, which):
        smp = sample(spec, grid)
        edges = [certify_adapted_pair(sample(spec, grid), GridRange(y, y + 1), level)
                 for y in range(len(grid) - 1)]
        per_edge = {"projection": [c.projection_modulus for c in edges],
                    "restriction": [c.restriction_modulus for c in edges]}
        top = max(per_edge[which])
        cap = top / 2 if which == "projection" else max(per_edge["projection"])
        assert cap < top
        with pytest.raises(ModulusExceeded) as err:
            certify_adapted_pair(smp, GridRange(0, len(grid) - 1), level, cap=cap)
        left = per_edge[which].index(top)  # the brute-force first argmax
        assert (err.value.which, err.value.modulus, err.value.left_index) == (which, top, left)
        assert str(err.value).endswith(f" on edge ({left}, {left + 1})")

    @pytest.mark.parametrize("cap", [-1e-3, float("nan")])
    def test_cap_must_be_non_negative(self, cap):
        with pytest.raises(ValueError, match="non-negative"):
            certify_adapted_pair(constant_sample([-1.0, 1.0]), GridRange(0, 4), 0.5, cap=cap)

    def test_monotone_in_range(self):
        smp = sample(FamilySpec("harmonic_perturbed", 10, {"coupling": (0.0, 1.0)}),
                     ParameterGrid.linspace(0.0, 1.0, 9))
        full = certify_adapted_pair(smp, GridRange(0, 8), 1.0)
        for lo, hi in [(0, 4), (2, 6), (3, 8), (4, 4)]:
            sub = certify_adapted_pair(smp, GridRange(lo, hi), 1.0)
            assert sub.projection_modulus <= full.projection_modulus + 1e-15
            assert sub.restriction_modulus <= full.restriction_modulus + 1e-15
            assert sub.margin >= full.margin - 1e-15


class TestFindAdaptedPair:
    def test_dirac_level_in_first_admissible_gap(self):
        smp = sample(FamilySpec("dirac_circle", 11, {"alpha": 0.25}),
                     ParameterGrid.linspace(0.0, 1.0, 7))
        cert = find_adapted_pair(smp, 3, 1.0)
        assert 1.0 < cert.level < 1.25
        spectrum = np.arange(-5, 6) + 0.25
        assert cert.rank == int(np.sum(np.abs(spectrum) < cert.level))
        assert cert.range.contains(3)

    def test_constant_family_gap(self):
        smp = constant_sample([-2.0, 2.0])
        cert = find_adapted_pair(smp, 2, 1.0)
        assert 1.0 < cert.level < 2.0
        assert cert.rank == 0
        assert len(cert.range) == len(smp)

    def test_no_gap_above_ceiling(self):
        smp = constant_sample([-2.0, 2.0])
        assert truncation_ceiling(smp) == pytest.approx(1.8)
        with pytest.raises(NoGap) as err:
            find_adapted_pair(smp, 2, 3.0)
        assert err.value.ceiling == pytest.approx(1.8)
        assert "dimension" in str(err.value)

    def test_growth_stops_at_rank_jump(self):
        smp = linear_sample(0.0, 1.0, 21)
        cert = find_adapted_pair(smp, 10, 0.1)
        # level lands between the moving branch and the fixed +-2 padding,
        # wide enough to keep the branch inside over the whole grid
        assert cert.rank == 1
        assert cert.level > 0.5

    def test_requires_positive_b(self):
        with pytest.raises(ValueError):
            find_adapted_pair(constant_sample([-1.0, 1.0]), 0, 0.0)


def drifting_sample(seed, dim, points, drift):
    """A random Hermitian matrix moving linearly along the grid."""
    rng = np.random.default_rng(seed)
    base = random_hermitian(rng, dim).entries
    slope = random_hermitian(rng, dim).entries
    return FamilySample(ParameterGrid.linspace(0.0, 1.0, points),
                        tuple(HermitianOperator(base + drift * x * slope)
                              for x in np.linspace(0.0, 1.0, points)))


class TestCandidateLevels:
    """The invariant that lets ``find_adapted_pair`` keep its first choice:
    every candidate level clears the spectrum at the base point."""

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), dim=st.integers(2, 6),
           points=st.integers(4, 8), drift=st.floats(0.0, 0.5),
           x=st.integers(0, 7), fraction=st.floats(0.001, 1.2))
    def test_candidates_clear_the_base_point(self, seed, dim, points, drift, x, fraction):
        smp = drifting_sample(seed, dim, points, drift)
        x %= points
        ceiling = truncation_ceiling(smp)
        b = fraction * ceiling
        levels, widths = level_candidates(np.abs(smp.eigenvalue_matrix[x]), b, ceiling)
        assert levels.shape == widths.shape
        assert np.all(np.diff(levels) > 0.0) and np.all(widths > 0.0)
        assert np.all((levels > b) & (levels <= ceiling))
        for level in levels:
            assert level_margins(smp.eigenvalue_matrix, level)[x] >= TAU_EDGE_DEFAULT
        if not levels.size:
            with pytest.raises(NoGap):
                find_adapted_pair(smp, x, b)
            return
        _, best = min(zip((-widths).tolist(), levels.tolist()))
        pair = find_adapted_pair(smp, x, b)
        assert pair.level == best
        assert pair.range.contains(x)

    def test_empty_row_gives_empty_arrays(self):
        levels, widths = level_candidates(np.array([]), 0.0, 1.0)
        assert levels.shape == widths.shape == (0,)


class TestShiftCovariance:
    def test_window_rank_transport_exact(self, rng):
        from conftest import random_hermitian
        ops = tuple(random_hermitian(rng, 8) for _ in range(4))
        from specfam import FamilySample
        smp = FamilySample(ParameterGrid.linspace(0, 1, 4), ops)
        for lam in (-1.3, 0.4, 2.0):
            shifted = smp.shifted(lam)
            for eps in (0.3, 0.9, 1.7):
                for y in range(4):
                    direct = spectral_projection(shifted.operators[y],
                                                 RealWindow.symmetric(eps),
                                                 tau_edge=0.0).rank
                    window = spectral_projection(smp.operators[y],
                                                 RealWindow(lam - eps, lam + eps),
                                                 tau_edge=0.0).rank
                    assert direct == window


class TestCovering:
    def test_constant_family_single_shift(self):
        smp = constant_sample([-2.0, 2.0])
        cov = covering_construction(smp, 2, 1.0)
        assert cov.lambdas == (0.0,)
        assert cov.epsilons[0] > 1.0
        assert cov.cover_lo < -1.0 < 1.0 < cov.cover_hi
        pair = adapted_from_covering(smp, cov)
        assert pair.rank == 0

    def test_dirac_with_small_windows_needs_several_shifts(self):
        smp = sample(FamilySpec("dirac_circle", 7, {"alpha": 0.25}),
                     ParameterGrid.linspace(0.0, 1.0, 5))
        certifier = fixed_level_certifier(smp, 2, 0.3)
        cov = covering_construction(smp, 2, 1.4, shifted_certifier=certifier)
        assert len(cov.lambdas) >= 2
        # open intervals must chain with overlap and enclose the target
        intervals = sorted(
            (lam - eps, lam + eps) for lam, eps in zip(cov.lambdas, cov.epsilons)
        )
        assert intervals[0][0] < -1.4 and intervals[-1][1] > 1.4
        reach = intervals[0][1]
        for lo, hi in intervals[1:]:
            assert lo < reach
            reach = max(reach, hi)
        pair = adapted_from_covering(smp, cov)
        assert pair.level == pytest.approx(1.4)
        assert pair.range.contains(2)

    def test_linear_crossing_single_shift(self):
        smp = linear_sample(0.45, 0.55, 5)
        cov = covering_construction(smp, 2, 1.0)
        assert cov.lambdas == (0.0,)
        assert 1.0 < cov.epsilons[0] < 2.0

    def test_rejects_level_on_spectrum(self):
        smp = constant_sample([-2.0, 2.0])
        with pytest.raises(EdgeOnSpectrum):
            covering_construction(smp, 2, 2.0)

    @pytest.mark.parametrize("wide, target", [(1e-3, "1.4"), (1.0, "-1.4")])
    def test_shift_cap_on_each_side(self, wide, target):
        # windows of 1e-3 at lambda < 0, and of ``wide`` at lambda >= 0: the
        # side that stays narrow runs into the shift cap and is named
        smp = constant_sample([-2.0, 2.0])
        calls = []

        def certifier(lam):
            calls.append(lam)
            level = wide if lam >= 0.0 else 1e-3
            return AdaptedPairCertificate(GridRange(0, len(smp) - 1), level, 0, 1.0, 0.0, 0.0)

        with pytest.raises(CoveringFailed, match=f"needed to reach {target}$"):
            covering_construction(smp, 2, 1.4, shifted_certifier=certifier)
        assert len(calls) == MAX_SHIFTS

    @pytest.mark.parametrize("x_index", [9, -1])
    def test_rejects_base_index_outside_the_grid(self, x_index):
        smp = sample(FamilySpec("dirac_circle", 7, {"alpha": 0.25}),
                     ParameterGrid.linspace(0.0, 1.0, 9))

        def certifier(lam):
            pytest.fail("a certificate was requested for an index outside the grid")

        with pytest.raises(ValueError, match="base index outside the grid"):
            covering_construction(smp, x_index, 1.0, shifted_certifier=certifier)


class TestDiscreteSpectrumCertify:
    def test_dirac_passes_with_route_agreement(self):
        smp = sample(FamilySpec("dirac_circle", 11, {"alpha": 0.25}),
                     ParameterGrid.linspace(0.0, 0.4, 9))
        report = discrete_spectrum_certify(smp, [0.4, 1.4, 2.4])
        assert report.passed
        assert report.definitional.passed
        assert report.routes_agree
        for b in report.b_levels:
            for cert in report.certificates[b]:
                assert cert is not None and cert.level > b

    def test_constant_family_passes(self):
        report = discrete_spectrum_certify(constant_sample([-2.0, -1.0, 1.0, 2.0]),
                                           [0.5, 1.5])
        assert report.passed and report.routes_agree

    def test_repeated_level_refused(self):
        # certificates are keyed by b, so a repeated level listed its failures twice
        smp = sample(FamilySpec("dirac_circle", 11), ParameterGrid.linspace(0.0, 1.0, 11))
        report = discrete_spectrum_certify(smp, [4.49999999])
        assert [(f.x_index, f.level) for f in report.failures] == [(5, 4.49999999)]
        for levels in ([4.49999999, 4.49999999], [1, 2.0, 1.0]):
            with pytest.raises(ValueError, match="must not repeat a level"):
                discrete_spectrum_certify(smp, levels)

    def test_tangent_blowup_passes_across_pole(self):
        pts = np.concatenate([np.linspace(0.3, 0.48, 8), np.linspace(0.52, 0.7, 8)])
        smp = sample(FamilySpec("tangent_blowup", 5), ParameterGrid(pts))
        report = discrete_spectrum_certify(smp, [0.5, 1.5])
        assert report.passed and report.routes_agree

    def test_ceiling_violation_fails_both_routes_everywhere(self):
        smp = constant_sample([-2.0, 2.0])
        report = discrete_spectrum_certify(smp, [3.0])
        assert not report.passed
        assert not report.definitional.passed
        assert report.routes_agree
        assert report.failing_points == tuple(range(len(smp)))
        assert all(f.error == "NoGap" for f in report.failures)

    def test_route_agreement_on_random_paths(self):
        for seed in range(10):
            smp = sample(FamilySpec("random_crossings", 6, {"seed": seed}),
                         ParameterGrid.linspace(0.0, 1.0, 40))
            ceiling = truncation_ceiling(smp)
            levels = [0.2 * ceiling, 0.5 * ceiling, 0.8 * ceiling]
            report = discrete_spectrum_certify(smp, levels)
            assert report.routes_agree, f"routes disagree for seed {seed}"
            assert report.passed

    def test_each_route_keeps_its_own_shift_grid(self):
        # the two routes share one engine; each sweep is the oracle its own
        # route is compared against, so neither grid may drift to the other
        report = discrete_spectrum_certify(constant_sample([-2.0, -1.0, 1.0, 2.0]),
                                           [0.4, 1.4])
        assert np.array_equal(report.definitional.lambdas,
                              np.linspace(-1.4, 1.4, 33))
        weak = weak_discrete_spectrum_certify(
            constant_sample([1.0, -1.0, 0.2, -0.2]), [0.5],
            check=PolarizationCheck(eta=0.05, interior_budget=2))
        assert np.array_equal(weak.definitional.lambdas,
                              np.linspace(-0.95, 0.95, 35)[1:-1])


#: one small family per built-in generator
GENERATOR_CASES = [
    (FamilySpec("dirac_circle", 11, {"alpha": (0.0, 0.5)}),
     ParameterGrid.linspace(-0.4, 0.4, 17)),
    (FamilySpec("harmonic_perturbed", 8, {"coupling": (0.0, 1.0)}),
     ParameterGrid.linspace(0.0, 1.0, 17)),
    (FamilySpec("tangent_blowup", 5),
     ParameterGrid(np.concatenate([np.linspace(0.05, 0.45, 8), np.linspace(0.55, 0.95, 9)]))),
    (FamilySpec("linear_crossing", 5), ParameterGrid.linspace(0.0, 1.0, 17)),
    (FamilySpec("random_crossings", 6, {"seed": 3}), ParameterGrid.linspace(0.0, 1.0, 17)),
]


def scan_levels(smp):
    ceiling = truncation_ceiling(smp)
    return [0.2 * ceiling, 0.5 * ceiling]


def interval_mask(dim, start, stop):
    mask = np.zeros(dim, dtype=bool)
    mask[start:stop] = True
    return mask


def window_intervals(smp, lo, hi, level):
    """Per point of lo..hi, the eigen-index interval [start, stop) of the
    window |lambda| <= level, checked against the window mask itself."""
    out = []
    for ev in smp.eigenvalue_matrix[lo:hi + 1]:
        mask = np.abs(ev) <= level
        start = int(np.sum(ev < -level))
        stop = start + int(np.sum(mask))
        assert np.array_equal(mask, interval_mask(smp.dim, start, stop))
        out.append((start, stop))
    return out


def edge_keys(smp, cert):
    """The interval-keyed edges that a certificate's range and level touch."""
    lo, hi = cert.range.lo_index, cert.range.hi_index
    bounds = window_intervals(smp, lo, hi, cert.level)
    return {(lo + k, *bounds[k], *bounds[k + 1]) for k in range(len(bounds) - 1)}


def record_edge_norms(monkeypatch):
    """Route ``_RunEdges.norms`` through a recorder; returns its log of
    (sample, weighted, {edge key: norm}) per call."""
    log = []
    norms = _RunEdges.norms

    def recording(edges, smp, weighted):
        values = norms(edges, smp, weighted)
        by_key = dict(zip((edges.keys[i] for i in edges.ids), values))
        assert list(map(by_key.__getitem__, (edges.keys[i] for i in edges.ids))) == values
        log.append((smp, weighted, by_key))
        return values

    monkeypatch.setattr(_RunEdges, "norms", recording)
    return log


def assert_norms_match_dense_oracle(log):
    """Every norm ``_RunEdges.norms`` returned equals, bit for bit, the dense
    norm rebuilt from its key."""
    for smp, weighted, by_key in log:
        for (y, a_start, a_stop, b_start, b_stop), value in by_key.items():
            dec_a, dec_b = smp.decompositions[y], smp.decompositions[y + 1]
            oracle = hermitian_norm(
                projector(dec_b, interval_mask(smp.dim, b_start, b_stop),
                          weights=dec_b.eigenvalues if weighted else None)
                - projector(dec_a, interval_mask(smp.dim, a_start, a_stop),
                            weights=dec_a.eigenvalues if weighted else None))
            assert value == oracle


def jumping_sample(seed, dim, points):
    """Window [-1, 1] of constant rank 1, while one eigenvalue jumps from -2
    to +2 between two samples: the window's index interval moves by one."""
    rng = np.random.default_rng(seed)
    jump = int(rng.integers(1, points))
    inner = rng.uniform(-0.5, 0.5, points)
    outer = rng.uniform(1.5, 3.0, dim - 2) * rng.choice([-1.0, 1.0], dim - 2)
    turn = [random_hermitian(rng, dim).entries for _ in range(2)]
    ops = []
    for k in range(points):
        basis, _ = np.linalg.qr(turn[0] + 0.1 * k * turn[1])
        values = np.concatenate([[inner[k], 2.0 if k >= jump else -2.0], outer])
        ops.append(HermitianOperator((basis * values) @ basis.conj().T))
    return FamilySample(ParameterGrid.linspace(0.0, 1.0, points), tuple(ops))


def count_norms(monkeypatch, *modules):
    """Route the modules' ``hermitian_norm`` through a counter; returns the call log."""
    calls = []

    def counting_norm(m):
        calls.append(m.shape)
        return hermitian_norm(m)

    for module in modules:
        monkeypatch.setattr(module, "hermitian_norm", counting_norm)
    return calls


def has_moving_start(keys):
    return any(a_start != b_start for _, a_start, _, b_start, _ in keys)


class TestEdgeNorms:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), dim=st.integers(2, 6),
           points=st.integers(4, 8), drift=st.floats(0.0, 0.5),
           fraction=st.floats(0.05, 0.95))
    def test_edge_norms_equal_dense_oracle(self, seed, dim, points, drift, fraction):
        smp = drifting_sample(seed, dim, points, drift)
        level = fraction * truncation_ceiling(smp)
        with pytest.MonkeyPatch.context() as mp:
            log = record_edge_norms(mp)
            for grid_range in (GridRange(1, points - 2), GridRange(0, points - 1)):
                try:
                    certify_adapted_pair(smp, grid_range, level)
                except (EdgeOnSpectrum, RankJump):
                    pass
            for x in range(points):
                try:
                    find_adapted_pair(smp, x, 1e-3)
                except (NoGap, EdgeOnSpectrum, RankJump):
                    pass
                try:
                    strict_adaptedness_certify(smp, x, level, cap=1.0)
                except EdgeOnSpectrum:
                    pass
        assert_norms_match_dense_oracle(log)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), dim=st.integers(3, 6),
           points=st.integers(3, 8))
    def test_moving_intervals_equal_dense_oracle(self, seed, dim, points):
        smp = jumping_sample(seed, dim, points)
        with pytest.MonkeyPatch.context() as mp:
            log = record_edge_norms(mp)
            cert = certify_adapted_pair(smp, GridRange(0, points - 1), 1.0)
            strict = strict_adaptedness_certify(smp, 0, 1.0, cap=np.inf)
        assert cert.rank == 1
        assert strict.range == GridRange(0, points - 1)
        assert [weighted for _, weighted, _ in log] == [False, True, False]
        window, restricted, upper = (by_key for _, _, by_key in log)
        assert set(window) == set(restricted) == edge_keys(smp, cert)
        assert has_moving_start(window)
        assert {key[2] for key in upper} == {key[4] for key in upper} == {dim}
        assert has_moving_start(upper)
        assert (cert.projection_modulus, cert.restriction_modulus, strict.modulus) == tuple(
            max(by_key.values()) for _, _, by_key in log)
        assert_norms_match_dense_oracle(log)

    def test_bounded_transform_norms_projections_to_the_source_bits(self, monkeypatch):
        # the transform is odd and increasing and keeps every eigenvector, so
        # its windows select the same intervals and build the same projectors
        smp = sample(FamilySpec("harmonic_perturbed", 8, {"coupling": (0.0, 1.0)}),
                     ParameterGrid.linspace(0.0, 1.0, 9))
        level = 1.0
        log = record_edge_norms(monkeypatch)
        certify_adapted_pair(smp, GridRange(0, 8), level)
        certify_adapted_pair(smp.bounded_transformed(), GridRange(0, 8),
                             level / np.sqrt(1 + level**2))
        (_, _, projections), (_, _, restrictions), (_, _, image_projections), \
            (_, _, image_restrictions) = log
        assert projections
        assert ({key: value.hex() for key, value in image_projections.items()}
                == {key: value.hex() for key, value in projections.items()})
        assert image_restrictions.keys() == restrictions.keys()
        for key, rest in image_restrictions.items():
            assert rest != restrictions[key]

    def test_discrete_scan_norms_each_distinct_edge_once(self, monkeypatch):
        calls = count_norms(monkeypatch, specfam.adapted)
        log = record_edge_norms(monkeypatch)
        # dirac_circle's fibres are in permutation form, so its edges take the
        # diagonal path and no eigensolver; the dense family takes one
        # ``hermitian_norm`` per distinct edge and modulus
        for smp, b_levels, norms_per_edge in (
                (sample(FamilySpec("dirac_circle", 41), ParameterGrid.linspace(-0.49, 0.49, 21)),
                 [0.4, 1.4, 2.4], 0),
                (drifting_sample(5, 6, 9, 0.3), None, 2)):
            calls.clear()
            log.clear()
            report = discrete_spectrum_certify(smp, b_levels or scan_levels(smp),
                                               include_definitional=False)
            certs = [c for per_x in report.certificates.values() for c in per_x if c]
            distinct = set().union(*(edge_keys(smp, c) for c in certs))
            assert [(weighted, set(by_key)) for _, weighted, by_key in log] == [
                (False, distinct), (True, distinct)]
            assert len(calls) == norms_per_edge * len(distinct)
            # the scan revisits edges, so norming each distinct edge once saved norms
            assert len(distinct) < sum(len(c.range) - 1 for c in certs)
            assert_norms_match_dense_oracle(log)


def per_point_scan(smp, b_levels, ceiling):
    """The scan's oracle: ``find_adapted_pair`` at every (b, grid point) in
    turn, as the discrete-spectrum engine ran before its whole-grid form.
    Returns the certificates, the failures and the failing points."""
    certificates, failures = {}, []
    for b in b_levels:
        per_x = []
        for x in range(len(smp)):
            try:
                per_x.append(find_adapted_pair(smp, x, b, ceiling=ceiling))
            except (NoGap, EdgeOnSpectrum, RankJump) as exc:
                failures.append(CertificateFailure(x, b, type(exc).__name__, str(exc)))
                per_x.append(None)
        certificates[b] = tuple(per_x)
    return certificates, tuple(failures), tuple(sorted({f.x_index for f in failures}))


def greedy_range(smp, x, level):
    """The range grown one point at a time from x while margins stay clear
    and the window rank stays that of x."""
    margins = level_margins(smp.eigenvalue_matrix, level)
    ranks = level_ranks(smp.eigenvalue_matrix, level)

    def clear(y):
        return 0 <= y < len(smp) and margins[y] >= TAU_EDGE_DEFAULT and ranks[y] == ranks[x]

    lo, hi = x, x
    while clear(lo - 1):
        lo -= 1
    while clear(hi + 1):
        hi += 1
    return GridRange(lo, hi)


def assert_scan_matches_oracle(smp, b_levels, ceiling):
    """The whole-grid scan and the per-point oracle give equal certificates,
    moduli included, failures and failing points."""
    report = _scan_levels(smp, tuple(b_levels), ceiling, None)
    certificates, failures, failing_points = per_point_scan(smp, b_levels, ceiling)
    assert report.certificates == certificates
    assert report.failures == failures
    assert report.failing_points == failing_points
    for b in report.b_levels:
        for x, cert in enumerate(report.certificates[b]):
            if cert is not None:
                assert cert.range == greedy_range(smp, x, cert.level)
    return report


def repeating_diagonal_sample(seed, dim, points):
    """Diagonal fibres drawn from three rows of half-integers, so levels and
    ranges tie across grid points and across b levels."""
    rng = np.random.default_rng(seed)
    rows = 0.5 * rng.integers(-8, 9, size=(3, dim))
    return FamilySample(ParameterGrid.linspace(0.0, 1.0, points),
                        tuple(diagonal_operator(rows[k]) for k in rng.integers(0, 3, points)))


class TestWholeGridScan:
    """The discrete-spectrum scan finds, for all grid points at once, the pair
    ``find_adapted_pair`` finds at each, and certifies each pair once."""

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), dim=st.integers(2, 6), points=st.integers(2, 9),
           kind=st.sampled_from(["drifting", "jumping", "repeating"]),
           drift=st.floats(0.0, 2.0), top=st.booleans(),
           fractions=st.lists(st.floats(0.001, 1.2), min_size=1, max_size=3))
    def test_scan_equals_per_point_oracle(self, seed, dim, points, kind, drift, top,
                                          fractions):
        if kind == "drifting":
            smp = drifting_sample(seed, dim, points, drift)
        elif kind == "jumping":
            smp = jumping_sample(seed, dim, points)
        else:
            smp = repeating_diagonal_sample(seed, dim, points)
        # above the truncation ceiling, rows whose spectrum ends below b have no gap
        ceiling = float(np.max(np.abs(smp.eigenvalue_matrix))) if top else truncation_ceiling(smp)
        b_levels = [f * ceiling for f in fractions if f * ceiling > 0.0]
        if b_levels:
            assert_scan_matches_oracle(smp, b_levels, ceiling)

    @pytest.mark.parametrize("b_levels, failing", [
        # the spectrum reaches the ceiling 4.5 at grid point 5 alone
        ([1.4, 4.49999999], (5,)),
        ([4.6], tuple(range(11))),
    ])
    def test_some_rows_without_a_gap(self, b_levels, failing):
        smp = sample(FamilySpec("dirac_circle", 11, {"alpha": (0.0, 1.0)}),
                     ParameterGrid.linspace(0.0, 1.0, 11))
        report = assert_scan_matches_oracle(smp, b_levels, truncation_ceiling(smp))
        assert report.failing_points == failing
        assert {f.error for f in report.failures} == {"NoGap"}

    def test_base_point_off_its_own_margin(self):
        # a NaN eigenvalue leaves a level chosen at point 2 but no margin
        # there: the point is refused as EdgeOnSpectrum at itself
        smp = with_nan_eigenvalue([-2.0, -1.0, 1.0, 2.0], nan_index=2)
        report = assert_scan_matches_oracle(smp, [0.5], 1.8)
        assert [(f.x_index, f.error) for f in report.failures] == [(2, "EdgeOnSpectrum")]
        ranges = [c.range for c in report.certificates[0.5] if c is not None]
        assert ranges == [GridRange(0, 1)] * 2 + [GridRange(3, 4)] * 2

    def test_dirac_scan_certifies_each_distinct_pair_once(self, monkeypatch):
        finds, batches, certified = [], [], []
        find, certify = specfam.adapted.find_adapted_pair, specfam.adapted._certify_pairs

        def counting_find(*args, **kwargs):
            finds.append(args)
            return find(*args, **kwargs)

        def counting_certify(smp, keys, cap=None):
            batches.append(len(keys))
            certified.extend((GridRange(lo, hi), level) for lo, hi, level in keys)
            return certify(smp, keys, cap)

        monkeypatch.setattr(specfam.adapted, "find_adapted_pair", counting_find)
        monkeypatch.setattr(specfam.adapted, "_certify_pairs", counting_certify)
        smp = sample(FamilySpec("dirac_circle", 41), ParameterGrid.linspace(-0.49, 0.49, 21))
        report = discrete_spectrum_certify(smp, [0.4, 1.4, 2.4], include_definitional=False)
        certs = [c for per_x in report.certificates.values() for c in per_x]
        assert report.passed and not finds
        # every pair of every b level reaches the certifier in one call
        assert batches == [len(certified)]
        assert len(set(certified)) == len(certified) < len(certs)
        assert {(c.range, c.level) for c in certs} == set(certified)
        # one object per (range, level), shared by every point and b that found it
        assert len({id(c) for c in certs}) == len(certified)

    def test_scan_leaves_numpy_ma_unloaded(self):
        # numpy.ma costs ~1 MB of peak memory, and ``np.unique`` imports it
        code = ("import sys, numpy\n"
                "before = 'numpy.ma' in sys.modules\n"
                "from specfam import FamilySpec, ParameterGrid, discrete_spectrum_certify, sample\n"
                "smp = sample(FamilySpec('dirac_circle', 41), ParameterGrid.linspace(-0.49, 0.49, 21))\n"
                "discrete_spectrum_certify(smp, [0.4, 1.4, 2.4])\n"
                "print(before, 'numpy.ma' in sys.modules)\n")
        env = {**os.environ, "PYTHONPATH": str(Path(specfam.__file__).resolve().parents[1])}
        before, after = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                                       capture_output=True, text=True).stdout.split()
        if before == "True":
            pytest.skip("importing numpy alone loads numpy.ma here")
        assert after == "False"


def reference_interval_modulus(smp, lo, starts, stops, weighted, norm, memo):
    """One range's edges, the reference for ``_RunEdges``: each edge missing
    from ``memo`` builds its two images with one ``_spectral_functions`` call,
    in the form its own two points give it, norms their difference with
    ``norm`` and stores it in ``memo``."""
    first, last = starts.tolist(), stops.tolist()
    keys = list(zip(range(lo, lo + len(first) - 1), first, last, first[1:], last[1:]))
    index = np.arange(smp.dim)
    for k, key in enumerate(keys):
        if key not in memo:
            decs = smp.decompositions[lo + k:lo + k + 2]
            ends = slice(k, k + 2)
            masks = (index >= starts[ends, None]) & (index < stops[ends, None])
            weights = np.stack([dec.eigenvalues for dec in decs]) if weighted else None
            images = _spectral_functions(decs, masks, weights, _dense_range(decs))
            memo[key] = float(_difference_norms(images[1:] - images[:1], norm)[0])
    values = [memo[key] for key in keys]
    if not values:
        return 0.0, None
    modulus = max(values)
    return modulus, lo + values.index(modulus)


def reference_certify(smp, lo, hi, level, cap, norm, memos):
    """One pair certified by a loop over its points, the reference for
    ``_certify_pairs``; refusals are returned, not raised.  ``memos`` maps
    ``weighted`` to the edge norms of the pairs certified before."""
    ev = smp.eigenvalue_matrix[lo:hi + 1]
    margins = level_margins(ev, level)
    ranks = level_ranks(ev, level)
    prev_rank = None
    for y, margin, rank in zip(range(lo, hi + 1), margins.tolist(), ranks.tolist()):
        if not margin >= TAU_EDGE_DEFAULT:
            return EdgeOnSpectrum(level, margin, grid_index=y)
        if prev_rank is not None and rank != prev_rank:
            return RankJump(y - 1, y, prev_rank, rank)
        prev_rank = rank
    starts = (ev < -level).sum(axis=1)
    stops = starts + ranks
    proj, proj_at = reference_interval_modulus(smp, lo, starts, stops, False, norm, memos[False])
    rest, rest_at = reference_interval_modulus(smp, lo, starts, stops, True, norm, memos[True])
    if cap is not None and proj > cap:
        return ModulusExceeded("projection", proj, cap, proj_at)
    if cap is not None and rest > cap:
        return ModulusExceeded("restriction", rest, cap, rest_at)
    return AdaptedPairCertificate(GridRange(lo, hi), float(level), int(ranks[0]),
                                  float(np.min(margins)), proj, rest)


def assert_same_outcome(ours, theirs):
    assert type(ours) is type(theirs)
    if isinstance(theirs, CertificationError):
        assert str(ours) == str(theirs)
        # repr, so that a NaN margin equals itself
        assert repr(vars(ours)) == repr(vars(theirs))
    else:
        assert ours == theirs


class TestBatchCertification:
    """``_certify_pairs`` gives every key the outcome a per-pair loop gives
    it, in the same order, and norms the same edges to the same bits."""

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), dim=st.integers(1, 5), points=st.integers(2, 8),
           forms=st.sampled_from(["P", "D", "R", "PDR"]), nan_row=st.booleans(),
           cap=st.none() | st.floats(0.0, 1.5), entries=st.integers(1, 4096))
    def test_batch_equals_per_pair_reference(self, data, dim, points, forms, nan_row, cap,
                                             entries):
        # half-integer spectra, some rotated into a dense basis (R), so that
        # levels land on eigenvalues and ranks change between points
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        basis, _ = np.linalg.qr(random_hermitian(rng, dim).entries)
        ops = []
        for _ in range(points):
            values = 0.5 * rng.integers(-8, 9, size=dim)
            form = data.draw(st.sampled_from(forms))
            if form == "P":
                ops.append(diagonal_operator(values))
            elif form == "D":
                ops.append(HermitianOperator(np.diag(values)))
            else:
                ops.append(HermitianOperator((basis * values) @ basis.conj().T))
        if nan_row:
            at = data.draw(st.integers(0, points - 1))
            ops[at] = HermitianOperator(np.diag(0.5 * rng.integers(-8, 9, size=dim)))
            _install_decomposition(ops[at], np.concatenate(([np.nan], np.arange(dim - 1.0))),
                                   np.eye(dim, dtype=complex))
        level = st.sampled_from([0.25, 0.5, 1.0, 1.75, 2.5, 3.0, 4.25]) | st.floats(0.01, 5.0)
        keys = []
        for _ in range(data.draw(st.integers(0, 8))):
            lo = data.draw(st.integers(0, points - 1))
            keys.append((lo, data.draw(st.integers(lo, points - 1)), data.draw(level)))
        keys += data.draw(st.lists(st.sampled_from(keys), max_size=3)) if keys else []
        keys = data.draw(st.permutations(keys))

        smp = FamilySample(ParameterGrid.linspace(0.0, 1.0, points), tuple(ops))
        with pytest.MonkeyPatch.context() as mp:
            our_norms = count_norms(mp, specfam.adapted)
            log = record_edge_norms(mp)
            # small sizes take the points in several blocks
            mp.setattr(specfam.adapted, "_TABLE_ENTRIES", entries)
            outcomes = _certify_pairs(smp, keys, cap)
        their_norms = []

        def norm(m):
            their_norms.append(m.shape)
            return hermitian_norm(m)

        memos = {False: {}, True: {}}
        expected = [reference_certify(smp, lo, hi, lvl, cap, norm, memos)
                    for lo, hi, lvl in keys]
        assert len(outcomes) == len(expected)
        for got, want in zip(outcomes, expected):
            assert_same_outcome(got, want)
        # each distinct edge is normed once, in its own form
        assert our_norms == their_norms
        ours = {weighted: {key: value.hex() for key, value in by_key.items()}
                for _, weighted, by_key in log if by_key}
        theirs = {weighted: {key: value.hex() for key, value in memo.items()}
                  for weighted, memo in memos.items() if memo}
        assert ours == theirs

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), dim=st.integers(1, 6), rows=st.integers(1, 9),
           entries=st.integers(2, 60))
    def test_level_table_equals_the_one_level_functions(self, data, dim, rows, entries):
        # few distinct magnitudes, so levels tie with eigenvalues and rows
        # tie with each other; a NaN row has margin NaN throughout
        value = st.sampled_from([0.0, 0.5, 1.0, 1.5, 3.0]) | st.floats(-4.0, 4.0)
        ev = np.sort(np.array([data.draw(st.lists(value, min_size=dim, max_size=dim))
                               for _ in range(rows)]), axis=1)
        if data.draw(st.booleans()):
            ev[data.draw(st.integers(0, rows - 1)), -1] = np.nan
        levels = np.array(sorted(set(data.draw(st.lists(
            st.sampled_from([0.5, 1.0, 1.5, 3.0]) | st.floats(1e-3, 5.0), min_size=1)))))
        # a small block size, so the table comes in several blocks
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(specfam.adapted, "_TABLE_ENTRIES", entries)
            blocks = list(_level_blocks(ev, levels))
        covered = [k for block, _, _ in blocks for k in range(block.start, block.stop)]
        assert covered == list(range(len(levels)))
        for block, margins, ranks in blocks:
            for row, level in enumerate(levels[block]):
                assert margins[row].tobytes() == level_margins(ev, level).tobytes()
                assert np.array_equal(ranks[row], level_ranks(ev, level))

    @pytest.mark.parametrize("cap, kinds", [
        (None, ["AdaptedPairCertificate", "EdgeOnSpectrum", "RankJump", "AdaptedPairCertificate"]),
        (0.1, ["ModulusExceeded", "EdgeOnSpectrum", "RankJump", "AdaptedPairCertificate"]),
    ])
    def test_the_wrapper_raises_what_the_batch_returns(self, cap, kinds):
        smp = jumping_sample(3, 4, 6)
        keys = [(0, 5, 1.0), (0, 5, 2.0), (0, 5, 0.25), (2, 2, 0.5)]
        outcomes = _certify_pairs(smp, keys, cap)
        assert [type(outcome).__name__ for outcome in outcomes] == kinds
        for (lo, hi, level), outcome in zip(keys, outcomes):
            if isinstance(outcome, CertificationError):
                with pytest.raises(type(outcome)) as err:
                    certify_adapted_pair(smp, GridRange(lo, hi), level, cap)
                assert vars(err.value) == vars(outcome)
            else:
                assert certify_adapted_pair(smp, GridRange(lo, hi), level, cap) == outcome


class TestDiagonalEdgeNorms:
    """An edge whose two points are both in permutation form is normed as a
    vector difference; an edge with a dense end builds dense projectors and
    is normed with ``hermitian_norm``."""

    @settings(max_examples=80, deadline=None)
    @given(data=st.data(), dim=st.integers(1, 7), points=st.integers(2, 6),
           scale=st.sampled_from(IN_BAND_SCALES + OUT_OF_BAND_SCALES),
           weighted=st.booleans())
    def test_edge_norms_equal_the_dense_oracle(self, data, dim, points, scale, weighted):
        # few distinct entries, so ties within and across fibres are common
        entry = st.integers(-6, 6).map(lambda k: 0.375 * k * scale)
        ops = []
        for _ in range(points):
            values = data.draw(st.lists(entry, min_size=dim, max_size=dim))
            dense = data.draw(st.booleans())
            ops.append(HermitianOperator(np.diag(values)) if dense else diagonal_operator(values))
        smp = FamilySample(ParameterGrid.linspace(0.0, 1.0, points), tuple(ops))
        starts = np.array([data.draw(st.integers(0, dim)) for _ in range(points)])
        stops = np.array([data.draw(st.integers(int(a), dim)) for a in starts])

        with pytest.MonkeyPatch.context() as mp:
            calls = count_norms(mp, specfam.adapted)
            log = record_edge_norms(mp)
            modulus, left = _interval_modulus(smp, 0, starts, stops, weighted=weighted)
        ((_, _, by_key),) = log
        values = [by_key[(y, starts[y], stops[y], starts[y + 1], stops[y + 1])]
                  for y in range(points - 1)]
        assert (modulus, left) == (max(values), values.index(max(values)))

        decs = smp.decompositions
        diagonal = [decs[y].order is not None and decs[y + 1].order is not None
                    for y in range(points - 1)]
        assert len(calls) == diagonal.count(False)
        for y, value in enumerate(values):
            ends = [projector(decs[z], interval_mask(dim, starts[z], stops[z]),
                              weights=decs[z].eigenvalues if weighted else None)
                    for z in (y, y + 1)]
            difference = ends[1] - ends[0]
            if not diagonal[y] or scale in IN_BAND_SCALES:
                assert value == hermitian_norm(difference)
            if diagonal[y]:
                # the dense difference is diagonal, and its entries are exact
                assert not np.any(difference - np.diag(np.diag(difference)))
                assert value == np.max(np.abs(np.diag(difference).real))

    @pytest.mark.parametrize("forms", ["PPD", "DPP", "PDP", "DDP", "PDDPP", "PPP"])
    def test_mixed_edges_take_the_dense_path(self, monkeypatch, forms):
        # P: permutation form (``diagonal_operator``), D: dense basis from eigh;
        # the lowest eigenvalue moves between standard basis vectors
        values = [np.roll([1.0, 2.5, 4.0, -3.0], y) for y in range(len(forms))]
        ops = tuple(diagonal_operator(v) if form == "P" else HermitianOperator(np.diag(v))
                    for form, v in zip(forms, values))
        smp = FamilySample(ParameterGrid.linspace(0.0, 1.0, len(forms)), ops)
        calls = count_norms(monkeypatch, specfam.adapted)
        log = record_edge_norms(monkeypatch)
        cert = certify_adapted_pair(smp, GridRange(0, len(forms) - 1), 3.5)
        assert cert.rank == 3 and cert.projection_modulus == 1.0
        # an edge with a dense end is dense; the others are vector differences
        dense_edges = sum("D" in pair for pair in zip(forms, forms[1:]))
        assert len(calls) == 2 * dense_edges
        assert_norms_match_dense_oracle(log)

    @settings(max_examples=80, deadline=None)
    @given(data=st.data(), dim=st.integers(1, 6), points=st.integers(3, 7),
           scale=st.sampled_from(IN_BAND_SCALES + OUT_OF_BAND_SCALES),
           weighted=st.booleans())
    def test_an_edge_shared_by_two_ranges_gets_the_same_bits(self, data, dim, points, scale,
                                                              weighted):
        # a permutation-form sub-range and one dense point outside it: the
        # sub-range's edges are vectors in either range
        length = data.draw(st.integers(2, points - 1))
        sub_lo = data.draw(st.integers(0, points - length))
        sub = range(sub_lo, sub_lo + length)
        dense_at = data.draw(st.sampled_from([y for y in range(points) if y not in sub]))
        # full mantissas: out of band, eigvalsh rounds a weighted diagonal
        # difference often enough to tell the two forms apart
        entry = st.integers(-4000, 4000).map(lambda k: k / 1000 * scale)
        ops = []
        for y in range(points):
            values = data.draw(st.lists(entry, min_size=dim, max_size=dim))
            dense = y == dense_at or (y not in sub and data.draw(st.booleans()))
            ops.append(HermitianOperator(np.diag(values)) if dense else diagonal_operator(values))
        starts = np.array([data.draw(st.integers(0, dim)) for _ in range(points)])
        stops = np.array([data.draw(st.integers(int(a), dim)) for a in starts])
        smp = FamilySample(ParameterGrid.linspace(0.0, 1.0, points), tuple(ops))
        part = slice(sub.start, sub.stop)

        decs = smp.decompositions
        dense_edges = sum(decs[y].order is None or decs[y + 1].order is None
                          for y in range(points - 1))
        with pytest.MonkeyPatch.context() as mp:
            calls = count_norms(mp, specfam.adapted)
            log = record_edge_norms(mp)
            _interval_modulus(smp, 0, starts, stops, weighted=weighted)
            assert len(calls) == dense_edges
            _interval_modulus(smp, sub.start, starts[part], stops[part], weighted=weighted)
            assert len(calls) == dense_edges
        (_, _, whole), (_, _, shared) = log
        assert len(whole) == points - 1 and len(shared) == length - 1
        assert {key: value.hex() for key, value in shared.items()} == {
            key: whole[key].hex() for key in shared}


class TestEdgeClearance:
    """Every gate refuses within ``TAU_EDGE_DEFAULT`` of the spectrum, and only
    there: one eigenvalue sits ``delta`` from the window level or from zero."""

    LEVEL = 0.5

    def test_clearance_is_one_fixed_value(self):
        # not yet scaled with the operator norm
        assert TAU_EDGE_DEFAULT == 1e-8

    @pytest.mark.parametrize("factor", [0.5, 2.0])
    def test_window_level(self, factor):
        smp = constant_sample([-3.0, self.LEVEL + factor * TAU_EDGE_DEFAULT, 3.0])
        if factor < 1.0:
            with pytest.raises(EdgeOnSpectrum) as info:
                certify_adapted_pair(smp, GridRange(0, len(smp) - 1), self.LEVEL)
            assert info.value.grid_index == 0
            with pytest.raises(EdgeOnSpectrum) as info:
                strict_adaptedness_certify(smp, 2, self.LEVEL, cap=0.5)
            assert info.value.grid_index == 2
        else:
            cert = certify_adapted_pair(smp, GridRange(0, len(smp) - 1), self.LEVEL)
            assert cert.margin >= TAU_EDGE_DEFAULT and cert.rank == 0
            strict = strict_adaptedness_certify(smp, 2, self.LEVEL, cap=0.5)
            assert strict.passed and strict.range == GridRange(0, len(smp) - 1)

    @pytest.mark.parametrize("factor", [0.5, 2.0])
    @pytest.mark.parametrize("route", [flow_by_tracking, flow_by_partition])
    def test_flow_endpoint(self, route, factor):
        smp = constant_sample([-1.0, factor * TAU_EDGE_DEFAULT, 1.0])
        if factor < 1.0:
            with pytest.raises(EndpointOnSpectrum) as info:
                route(smp)
            assert info.value.grid_index == 0
        else:
            assert route(smp).flow == 0
