import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

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
from specfam.adapted import level_candidates, level_margins, level_ranks, truncation_ceiling
from specfam.errors import (
    AmbiguousMatching,
    CertificationError,
    EndpointOnSpectrum,
    NonFiniteEntry,
    PartitionFailed,
)
from specfam.flow import Crossing, FlowPartition, FlowResult, _endpoint_margins
from specfam.spectral import TAU_EDGE_DEFAULT, _install_decomposition

from conftest import constant_sample, with_nan_eigenvalue

TAU = TAU_EDGE_DEFAULT


def random_sample(seed, dim=8, points=121, width=0.77):
    # a non-period window so the endpoint inertia differs and flows vary
    return sample(FamilySpec("random_crossings", dim, {"seed": seed}),
                  ParameterGrid.linspace(0.0, width, points))


def assert_witness_certifies(smp, part):
    """Every (segment, level) of a partition witness is an adapted pair."""
    for (lo, hi), level in zip(zip(part.breakpoints, part.breakpoints[1:]),
                               part.levels):
        cert = certify_adapted_pair(smp, GridRange(lo, hi), level)
        assert cert.rank == level_ranks(smp.eigenvalue_matrix, level)[lo]


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

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**64 - 1), dim=st.integers(3, 10),
           points=st.integers(60, 200), data=st.data())
    def test_concatenation_adds_on_drawn_families(self, seed, dim, points, data):
        smp = random_sample(seed, dim=dim, points=points)
        split = data.draw(st.integers(1, points - 2), label="split")
        pieces = (smp.restricted(0, split), smp.restricted(split, points - 1))
        for algo in (flow_by_tracking, flow_by_partition):
            try:
                total = algo(smp).flow
                parts = [algo(piece).flow for piece in pieces]
            except CertificationError:
                # a refused whole or piece has no flow to add: the split
                # point's spectrum touches 0, or a matching is ambiguous
                continue
            assert sum(parts) == total

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


# The loops below are the edge-by-edge routes that the
# whole-array code in specfam.flow replaced; they are kept as its oracles.

def _loop_movement_bound(row):
    negatives = row[row < -TAU]
    positives = row[row > TAU]
    if negatives.size == 0 or positives.size == 0:
        return math.inf
    return 0.5 * float(positives.min() - negatives.max())


def loop_tracking(smp):
    margins = _endpoint_margins(smp)
    ev = smp.eigenvalue_matrix
    n, dim = ev.shape
    for i in range(n - 1):
        movement = float(np.max(np.abs(ev[i + 1] - ev[i])))
        bound = _loop_movement_bound(ev[i])
        if not movement < bound:
            raise AmbiguousMatching(i, movement, bound)
    signs = np.zeros_like(ev, dtype=int)
    signs[ev > TAU] = 1
    signs[ev < -TAU] = -1
    crossings = []
    flow = 0
    for j in range(dim):
        prev_sign = signs[0, j]
        prev_index = 0
        for i in range(1, n):
            s = signs[i, j]
            if s == 0:
                continue
            if s != prev_sign:
                direction = 1 if s > prev_sign else -1
                crossings.append(Crossing(j, prev_index, i, direction))
                flow += direction
            prev_sign = s
            prev_index = i
    return FlowResult(flow=flow, method="tracking", endpoint_margins=margins,
                      crossings=tuple(crossings))


def loop_partition(smp):
    margins_ends = _endpoint_margins(smp)
    ev = smp.eigenvalue_matrix
    n = len(smp)
    ceiling = truncation_ceiling(smp)
    moves = np.max(np.abs(np.diff(ev, axis=0)), axis=1)

    def edge_ok(i, margins, ranks):
        return (margins[i] >= TAU and margins[i + 1] >= TAU
                and ranks[i] == ranks[i + 1]
                and moves[i] < margins[i] + margins[i + 1])

    def count(row, level):
        return int(np.sum((row > 0.0) & (row <= level)))

    breakpoints = [0]
    levels = []
    start = 0
    flow = 0
    while start < n - 1:
        cands = level_candidates(np.abs(ev[start]), 4.0 * TAU, ceiling)[0]
        for level in cands.tolist():
            margins = level_margins(smp.eigenvalue_matrix, level)
            ranks = level_ranks(smp.eigenvalue_matrix, level)
            if edge_ok(start, margins, ranks):
                break
        else:
            raise PartitionFailed(start)
        end = start + 1
        while end + 1 < n and edge_ok(end, margins, ranks):
            end += 1
        breakpoints.append(end)
        levels.append(level)
        flow += count(ev[end], level) - count(ev[start], level)
        start = end
    return FlowResult(flow=flow, method="partition", endpoint_margins=margins_ends,
                      partition=FlowPartition(tuple(breakpoints), tuple(levels)))


def eigenvalue_sample(ev):
    """A sample whose eigenvalue matrix is ``ev``, as a solver would leave it."""
    ev = np.asarray(ev, dtype=float)
    smp = constant_sample(np.zeros(ev.shape[1]), n_points=ev.shape[0])
    for op, row in zip(smp.operators, ev):
        _install_decomposition(op, row, np.eye(ev.shape[1], dtype=complex))
    return smp


def outcome(route, smp):
    """The route's result, or its error as (type, message, attributes)."""
    try:
        return route(smp)
    except (AmbiguousMatching, EndpointOnSpectrum, PartitionFailed) as exc:
        # repr, so that a NaN attribute compares equal to itself
        return type(exc), str(exc), repr(vars(exc))


@st.composite
def eigenvalue_matrices(draw):
    """Ascending rows of a random walk, some entries pinned to +-TAU, 0 or NaN."""
    n = draw(st.integers(2, 12))
    dim = draw(st.integers(1, 5))
    start = draw(arrays(float, dim, elements=st.floats(1e-3, 2.0) | st.floats(-2.0, -1e-3)))
    steps = draw(arrays(float, (n - 1, dim), elements=st.floats(-1.0, 1.0)))
    scale = draw(st.sampled_from([1e-3, 0.05, 0.5]))
    ev = np.vstack([start, start + scale * np.cumsum(steps, axis=0)])
    for _ in range(draw(st.integers(0, 4))):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, dim - 1))
        ev[i, j] = draw(st.sampled_from([TAU, -TAU, 2.0 * TAU, 0.0, np.nan]))
    return np.sort(ev, axis=1)


class TestWholeArrayRoutesMatchLoops:
    @settings(max_examples=300, deadline=None)
    @given(ev=eigenvalue_matrices())
    # row 0 holds a sign-0 entry at exactly TAU, which then crosses down
    @example(ev=np.array([[-1.0, TAU], [-1.0, 0.3], [-1.0, -0.2], [-0.5, 0.4]]))
    # a NaN row in the interior, and one at the end
    @example(ev=np.array([[-1.0, 1.0], [np.nan, np.nan], [-1.0, 1.0]]))
    @example(ev=np.array([[-1.0, 1.0], [-1.0, 1.0], [np.nan, 1.0]]))
    # entries at exactly -TAU inside, where neither sign counts
    @example(ev=np.array([[-1.0, 0.5], [-1.0, -TAU], [-1.0, -0.5], [-1.0, 0.5]]))
    def test_same_results_and_errors(self, ev):
        for route, oracle in ((flow_by_tracking, loop_tracking),
                              (flow_by_partition, loop_partition)):
            got = outcome(route, eigenvalue_sample(ev))
            assert got == outcome(oracle, eigenvalue_sample(ev))
            if isinstance(got, FlowResult):
                assert type(got.flow) is int  # a NumPy integer would not render

    def test_row_zero_sign_zero_opens_the_walk(self):
        ev = np.array([[-1.0, TAU], [-1.0, 0.3], [-1.0, -0.2], [-0.5, 0.4]])
        result = flow_by_tracking(eigenvalue_sample(ev))
        assert result.crossings == (Crossing(1, 0, 1, 1), Crossing(1, 1, 2, -1),
                                    Crossing(1, 2, 3, 1))
        assert result == loop_tracking(eigenvalue_sample(ev))

    def test_first_ambiguous_edge_is_reported(self):
        ev = np.array([[-1.0, 1.0], [-1.0, 0.9], [-1.0, 3.0], [-3.0, 1.0]])
        with pytest.raises(AmbiguousMatching) as err:
            flow_by_tracking(eigenvalue_sample(ev))
        assert (err.value.left_index, err.value.movement, err.value.bound) == (1, 2.1, 0.95)

    def test_agree_on_seeded_random_paths(self):
        for seed in range(6):
            smp = random_sample(seed)
            assert flow_by_tracking(smp) == loop_tracking(smp)
            assert flow_by_partition(smp) == loop_partition(smp)
