"""Spectral flow along the grid by two independent algorithms.

``flow_by_tracking`` follows sorted eigenvalue branches between adjacent grid
points and counts signed crossings of zero.  ``flow_by_partition`` telescopes
window-rank differences over a partition into adapted segments, its witness.
The two routes share no counting logic, so their exact agreement is a strong
cross-check; both require zero at least ``TAU_EDGE_DEFAULT`` off the
spectrum at the grid endpoints.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .adapted import level_candidates, level_margins, level_ranks, truncation_ceiling
from .errors import (
    AmbiguousMatching,
    EndpointOnSpectrum,
    PartitionFailed,
)
from .families import FamilySample
from .spectral import TAU_EDGE_DEFAULT


@dataclass(frozen=True)
class Crossing:
    """One signed zero crossing of a tracked branch."""

    branch: int
    left_index: int
    right_index: int
    direction: int


@dataclass(frozen=True)
class FlowPartition:
    """Adapted segments covering the grid: breakpoints plus one level each."""

    breakpoints: tuple[int, ...]
    levels: tuple[float, ...]


@dataclass(frozen=True)
class FlowResult:
    flow: int
    method: str
    endpoint_margins: tuple[float, float]
    crossings: tuple[Crossing, ...] | None = None
    partition: FlowPartition | None = None


def _endpoint_margins(smp: FamilySample) -> tuple[float, float]:
    ev = smp.eigenvalue_matrix
    first = float(np.min(np.abs(ev[0])))
    last = float(np.min(np.abs(ev[-1])))
    if not first >= TAU_EDGE_DEFAULT:
        raise EndpointOnSpectrum(0, first)
    if not last >= TAU_EDGE_DEFAULT:
        raise EndpointOnSpectrum(len(smp) - 1, last)
    return first, last


def flow_by_tracking(smp: FamilySample) -> FlowResult:
    """Count signed zero crossings of greedily matched eigenvalue branches.

    Sorted eigenvalue lists at adjacent points are matched index to index;
    the matching is trusted only while every branch moves less than half the
    zero-straddling gap at the left point (``AmbiguousMatching`` otherwise:
    refine the grid).  A branch sitting on zero at an interior point is
    counted through the sign pattern of its definite neighbors.
    """
    margins = _endpoint_margins(smp)
    ev = smp.eigenvalue_matrix
    moves = np.max(np.abs(np.diff(ev, axis=0)), axis=1)
    left = ev[:-1]
    # half the gap straddling zero at each left point; inf when one side is empty
    bound = 0.5 * (np.min(left, axis=1, where=left > TAU_EDGE_DEFAULT, initial=np.inf)
                   - np.max(left, axis=1, where=left < -TAU_EDGE_DEFAULT, initial=-np.inf))
    ambiguous = np.flatnonzero(~(moves < bound))
    if ambiguous.size:
        i = int(ambiguous[0])
        raise AmbiguousMatching(i, float(moves[i]), float(bound[i]))

    signs = (ev > TAU_EDGE_DEFAULT).astype(int) - (ev < -TAU_EDGE_DEFAULT)
    # each branch walks its definite points, and row 0 always opens the walk
    visited = signs != 0
    visited[0] = True
    branch, index = np.nonzero(visited.T)  # branch-major, then grid order
    walk = signs.T[branch, index]
    step = np.flatnonzero((branch[1:] == branch[:-1]) & (walk[1:] != walk[:-1]))
    direction = np.sign(walk[step + 1] - walk[step])
    crossings = tuple(map(Crossing, branch[step].tolist(), index[step].tolist(),
                          index[step + 1].tolist(), direction.tolist()))
    return FlowResult(flow=int(direction.sum()), method="tracking",
                      endpoint_margins=margins, crossings=crossings)


def _count_strictly_positive_upto(row: np.ndarray, level: float) -> int:
    return int(np.count_nonzero((row > 0.0) & (row <= level)))


def flow_by_partition(smp: FamilySample) -> FlowResult:
    """Telescope window-rank differences over a greedy adapted partition.

    Each segment uses the smallest admissible window level at its starting
    point (the tightest window survives longest) and extends while the
    window rank stays constant and the level keeps clear of the spectrum.
    The flow contribution of a segment is the change in the number of
    eigenvalues in (0, level] between its endpoints; counting is half-open
    at zero, which the endpoint margins make unambiguous.

    The edge test is each segment's adaptedness proof: on every edge both
    margins clear ``TAU_EDGE_DEFAULT``, the window ranks agree, and the
    branches move less than the margin sum, the least a branch needs to cross
    +-level between samples.  For a segment's continuity moduli, call
    ``certify_adapted_pair(smp, GridRange(lo, hi), level)`` on the witness.
    """
    margins_ends = _endpoint_margins(smp)
    ev = smp.eigenvalue_matrix
    n = len(smp)
    ceiling = truncation_ceiling(smp)
    moves = np.max(np.abs(np.diff(ev, axis=0)), axis=1)

    breakpoints = [0]
    levels: list[float] = []
    start = 0
    flow = 0
    while start < n - 1:
        cands = level_candidates(np.abs(ev[start]), 4.0 * TAU_EDGE_DEFAULT, ceiling)[0]
        for level in cands.tolist():  # ascending: the lowest level that works
            margins = level_margins(ev[start:], level)
            ranks = level_ranks(ev[start:], level)
            # ok[k] tests the edge (start + k, start + k + 1)
            ok = ((margins[:-1] >= TAU_EDGE_DEFAULT) & (margins[1:] >= TAU_EDGE_DEFAULT)
                  & (ranks[:-1] == ranks[1:])
                  & (moves[start:] < margins[:-1] + margins[1:]))
            if ok[0]:
                break
        else:
            raise PartitionFailed(start)
        failing = np.flatnonzero(~ok)
        end = start + (int(failing[0]) if failing.size else ok.size)
        breakpoints.append(end)
        levels.append(level)
        flow += (_count_strictly_positive_upto(ev[end], level)
                 - _count_strictly_positive_upto(ev[start], level))
        start = end

    partition = FlowPartition(tuple(breakpoints), tuple(levels))
    return FlowResult(flow=flow, method="partition", endpoint_margins=margins_ends,
                      partition=partition)
