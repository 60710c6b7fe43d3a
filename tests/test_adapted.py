import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import specfam.adapted
import specfam.topology
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
    sample,
    spectral_projection,
    strict_adaptedness_certify,
    truncation_ceiling,
    weak_discrete_spectrum_certify,
)
from specfam.errors import EdgeOnSpectrum, ModulusExceeded, NoGap, RankJump
from specfam.spectral import hermitian_norm, projector

from conftest import constant_sample, random_hermitian, with_nan_eigenvalue


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


def memo_keys(smp, cert):
    """The interval-keyed edges that a certificate's range and level touch."""
    lo, hi = cert.range.lo_index, cert.range.hi_index
    bounds = window_intervals(smp, lo, hi, cert.level)
    return {(lo + k, *bounds[k], *bounds[k + 1]) for k in range(len(bounds) - 1)}


def stored(smp):
    return len(smp.projection_moduli) + len(smp.restriction_moduli)


def assert_stores_match_dense_oracle(smp):
    """Every stored norm equals, bit for bit, the dense norm rebuilt from its key."""
    for weighted, memo in ((False, smp.projection_moduli), (True, smp.restriction_moduli)):
        for (y, a_start, a_stop, b_start, b_stop), value in memo.items():
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


def has_moving_start(memo):
    return any(a_start != b_start for _, a_start, _, b_start, _ in memo)


class TestEdgeModuliMemo:
    @pytest.mark.parametrize("spec, grid", GENERATOR_CASES,
                             ids=[spec.kind for spec, _ in GENERATOR_CASES])
    def test_warm_memo_matches_fresh_sample(self, spec, grid):
        warm = sample(spec, grid)
        discrete_spectrum_certify(warm, scan_levels(warm), include_definitional=False)
        filled = stored(warm)
        assert filled > 0
        report = discrete_spectrum_certify(warm, scan_levels(warm),
                                           include_definitional=False)
        assert stored(warm) == filled  # every edge came from the memo
        certs = [c for per_x in report.certificates.values() for c in per_x if c]
        assert certs
        for cert in certs:
            assert certify_adapted_pair(sample(spec, grid), cert.range, cert.level) == cert

        moving = max(certs, key=lambda c: max(c.projection_modulus, c.restriction_modulus))
        modulus = max(moving.projection_modulus, moving.restriction_modulus)
        assert modulus > 0.0
        refusals = []
        for smp in (warm, sample(spec, grid)):
            with pytest.raises(ModulusExceeded) as err:
                certify_adapted_pair(smp, moving.range, moving.level, cap=modulus / 2)
            refusals.append((err.value.which, err.value.modulus, err.value.cap))
        assert refusals[0] == refusals[1]

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), dim=st.integers(2, 6),
           points=st.integers(4, 8), drift=st.floats(0.0, 0.5),
           fraction=st.floats(0.05, 0.95))
    def test_memo_entries_equal_dense_oracle(self, seed, dim, points, drift, fraction):
        rng = np.random.default_rng(seed)
        base = random_hermitian(rng, dim).entries
        slope = random_hermitian(rng, dim).entries
        smp = FamilySample(ParameterGrid.linspace(0.0, 1.0, points),
                           tuple(HermitianOperator(base + drift * x * slope)
                                 for x in np.linspace(0.0, 1.0, points)))
        # an inner range first, so the full range meets memo hits between misses
        level = fraction * truncation_ceiling(smp)
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
        assert_stores_match_dense_oracle(smp)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), dim=st.integers(3, 6),
           points=st.integers(3, 8))
    def test_moving_intervals_equal_dense_oracle(self, seed, dim, points):
        smp = jumping_sample(seed, dim, points)
        cert = certify_adapted_pair(smp, GridRange(0, points - 1), 1.0)
        assert cert.rank == 1
        assert set(smp.projection_moduli) == memo_keys(smp, cert)
        assert has_moving_start(smp.projection_moduli)
        assert has_moving_start(smp.restriction_moduli)
        assert_stores_match_dense_oracle(smp)

        window = set(smp.projection_moduli)
        strict = strict_adaptedness_certify(smp, 0, 1.0, cap=np.inf)
        assert strict.range == GridRange(0, points - 1)
        upper = set(smp.projection_moduli) - window
        assert {key[2] for key in upper} == {key[4] for key in upper} == {dim}
        assert has_moving_start(upper)
        assert_stores_match_dense_oracle(smp)

    def test_repeated_strict_check_norms_nothing(self, monkeypatch):
        calls = count_norms(monkeypatch, specfam.adapted, specfam.topology)
        smp = jumping_sample(7, 5, 9)
        first = strict_adaptedness_certify(smp, 4, 1.0, cap=np.inf)
        assert len(calls) == len(first.range) - 1 == 8
        calls.clear()
        assert strict_adaptedness_certify(smp, 4, 1.0, cap=np.inf) == first
        assert calls == []

        # the dense loop over upper projectors that the memo replaces
        uppers = [projector(dec, dec.eigenvalues >= 1.0)
                  for dec in (smp.decompositions[y] for y in first.range.indices())]
        dense = max(hermitian_norm(b - a) for a, b in zip(uppers, uppers[1:]))
        assert first.modulus == dense > 0.5

    def test_bounded_transform_shares_projection_moduli_only(self, monkeypatch):
        smp = sample(FamilySpec("harmonic_perturbed", 8, {"coupling": (0.0, 1.0)}),
                     ParameterGrid.linspace(0.0, 1.0, 9))
        level = 1.0
        certify_adapted_pair(smp, GridRange(0, 8), level)
        projections = dict(smp.projection_moduli)
        restrictions = dict(smp.restriction_moduli)
        assert projections and projections.keys() == restrictions.keys()

        shifted = smp.shifted(0.3)
        assert shifted.projection_moduli == {} and shifted.restriction_moduli == {}
        find_adapted_pair(shifted, 4, 0.5)
        assert shifted.projection_moduli and shifted.restriction_moduli
        assert shifted.projection_moduli is not smp.projection_moduli

        bounded = smp.bounded_transformed()
        assert bounded.projection_moduli is smp.projection_moduli
        assert bounded.restriction_moduli == {}
        # the transform is odd and increasing and keeps every eigenvector, so
        # its windows select the same intervals: only restrictions are normed
        calls = count_norms(monkeypatch, specfam.adapted)
        glevel = level / np.sqrt(1 + level**2)
        certify_adapted_pair(bounded, GridRange(0, 8), glevel)
        assert len(calls) == len(restrictions)
        assert bounded.restriction_moduli.keys() == restrictions.keys()
        for key, rest in bounded.restriction_moduli.items():
            assert rest != restrictions[key]
        assert smp.projection_moduli == projections
        assert smp.restriction_moduli == restrictions

        # a sample of the same transformed operators with stores of its own
        # norms the shared projection entries again, to the same bits
        fresh = FamilySample(bounded.grid, bounded.operators)
        certify_adapted_pair(fresh, GridRange(0, 8), glevel)
        assert fresh.projection_moduli == projections
        assert fresh.restriction_moduli == bounded.restriction_moduli

    def test_discrete_scan_norms_each_distinct_edge_once(self, monkeypatch):
        calls = count_norms(monkeypatch, specfam.adapted)
        smp = sample(FamilySpec("dirac_circle", 41), ParameterGrid.linspace(-0.49, 0.49, 21))
        report = discrete_spectrum_certify(smp, [0.4, 1.4, 2.4], include_definitional=False)
        certs = [c for per_x in report.certificates.values() for c in per_x if c]
        distinct = set().union(*(memo_keys(smp, c) for c in certs))
        assert set(smp.projection_moduli) == distinct
        assert set(smp.restriction_moduli) == distinct
        assert len(calls) == 2 * len(distinct)
        # the scan revisits edges, so the memo saved norms
        assert len(distinct) < sum(len(c.range) - 1 for c in certs)
