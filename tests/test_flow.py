import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from specfam import (
    FamilySample,
    FamilySpec,
    GridRange,
    HermitianOperator,
    ParameterGrid,
    certify_adapted_pair,
    flow_by_partition,
    flow_by_tracking,
    sample,
)
from specfam.adapted import level_ranks
from specfam.errors import AmbiguousMatching, EndpointOnSpectrum, NonFiniteEntry

from conftest import constant_sample, with_nan_eigenvalue


def random_sample(seed, dim=8, points=121, width=0.77):
    # a non-period window so the endpoint inertia differs and flows vary
    return sample(FamilySpec("random_crossings", dim, {"seed": seed}),
                  ParameterGrid.linspace(0.0, width, points))


def assert_witness_certifies(smp, part):
    """Every (segment, level) of a partition witness is an adapted pair."""
    for (lo, hi), level in zip(zip(part.breakpoints, part.breakpoints[1:]),
                               part.levels):
        cert = certify_adapted_pair(smp, GridRange(lo, hi), level)
        assert cert.rank == level_ranks(smp, level)[lo]


class TestTracking:
    def test_constant_family(self):
        result = flow_by_tracking(constant_sample([-1.0, 1.0]))
        assert result.flow == 0
        assert result.crossings == ()

    def test_linear_crossing(self):
        smp = sample(FamilySpec("linear_crossing", 3),
                     ParameterGrid.linspace(0.0, 1.0, 11))
        result = flow_by_tracking(smp)
        assert result.flow == 1
        assert len(result.crossings) == 1
        assert result.crossings[0].direction == 1

    def test_dirac_flux_sweep(self):
        grid = ParameterGrid.linspace(-0.49, 0.49, 99)
        smp = sample(FamilySpec("dirac_circle", 11), grid)
        assert flow_by_tracking(smp).flow == 1

    def test_endpoint_on_spectrum(self):
        smp = sample(FamilySpec("linear_crossing", 3),
                     ParameterGrid.linspace(0.5, 1.0, 6))
        with pytest.raises(EndpointOnSpectrum):
            flow_by_tracking(smp)

    def test_interior_zero_counted_via_neighbors(self):
        # x = 0.5 is a grid point, so one branch sits exactly on zero there
        smp = sample(FamilySpec("linear_crossing", 3),
                     ParameterGrid.linspace(0.0, 1.0, 21))
        result = flow_by_tracking(smp)
        assert result.flow == 1
        crossing = result.crossings[0]
        assert crossing.right_index - crossing.left_index == 2

    def test_coarse_grid_detected(self):
        grid = ParameterGrid(np.array([-0.4, 0.4]))
        smp = sample(FamilySpec("dirac_circle", 7), grid)
        with pytest.raises(AmbiguousMatching):
            flow_by_tracking(smp)

    def test_nan_fiber_refused(self):
        fibers = [np.diag([v, 2.0, -2.0]) for v in (0.5, np.nan, -0.5)]
        with pytest.raises(NonFiniteEntry):
            flow_by_tracking(FamilySample(ParameterGrid.linspace(0.0, 1.0, 3),
                                          tuple(HermitianOperator(m) for m in fibers)))

    def test_nan_eigenvalue_fails_the_gates(self):
        with pytest.raises(AmbiguousMatching):
            flow_by_tracking(with_nan_eigenvalue([-1.0, 1.0], 2))
        with pytest.raises(EndpointOnSpectrum):
            flow_by_tracking(with_nan_eigenvalue([-1.0, 1.0], 0))


class TestPartition:
    def test_constant_family_single_segment(self):
        result = flow_by_partition(constant_sample([-1.0, 1.0]))
        assert result.flow == 0
        assert result.partition.breakpoints[0] == 0
        assert result.partition.breakpoints[-1] == 4

    def test_linear_crossing(self):
        smp = sample(FamilySpec("linear_crossing", 3),
                     ParameterGrid.linspace(0.0, 1.0, 11))
        result = flow_by_partition(smp)
        assert result.flow == 1
        # the final segment rides a window reaching toward the +-2 padding
        assert result.partition.levels[-1] > 0.5

    def test_segments_cover_grid_and_certify(self):
        smp = random_sample(5)
        result = flow_by_partition(smp)
        part = result.partition
        assert part.breakpoints[0] == 0
        assert part.breakpoints[-1] == len(smp) - 1
        assert all(b < c for b, c in zip(part.breakpoints, part.breakpoints[1:]))
        assert_witness_certifies(smp, part)


class TestCrossMethod:
    def test_agreement_on_seeded_random_paths(self):
        for seed in range(20):
            smp = random_sample(seed)
            assert flow_by_tracking(smp).flow == flow_by_partition(smp).flow

    def test_reversal_negates(self):
        for seed in (3, 11):
            smp = random_sample(seed)
            fwd_t = flow_by_tracking(smp).flow
            rev = smp.reversed()
            assert flow_by_tracking(rev).flow == -fwd_t
            assert flow_by_partition(rev).flow == -fwd_t

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), dim=st.integers(3, 8))
    def test_routes_agree_reverse_and_witness_certifies(self, seed, dim):
        smp = random_sample(seed, dim=dim)
        tracked, partitioned = flow_by_tracking(smp), flow_by_partition(smp)
        assert tracked.flow == partitioned.flow
        rev = smp.reversed()
        assert flow_by_tracking(rev).flow == -tracked.flow
        assert flow_by_partition(rev).flow == -tracked.flow
        assert_witness_certifies(smp, partitioned.partition)

    def test_concatenation_adds(self):
        smp = random_sample(7, points=121)
        mid = 60
        first = smp.restricted(0, mid)
        second = smp.restricted(mid, 120)
        for algo in (flow_by_tracking, flow_by_partition):
            total = algo(smp).flow
            assert algo(first).flow + algo(second).flow == total

    def test_positive_perturbation_below_margin_keeps_flow(self, rng):
        smp = random_sample(13)
        base_t = flow_by_tracking(smp).flow
        margins = flow_by_tracking(smp).endpoint_margins
        shift = 0.5 * min(margins)
        raw = rng.standard_normal((smp.dim, smp.dim))
        raw = raw @ raw.T + 1e-3 * np.eye(smp.dim)
        bump = shift * raw / np.linalg.norm(raw, 2)
        perturbed = FamilySample(
            smp.grid,
            tuple(HermitianOperator(op.entries + bump) for op in smp.operators),
        )
        assert flow_by_tracking(perturbed).flow == base_t
        assert flow_by_partition(perturbed).flow == base_t
