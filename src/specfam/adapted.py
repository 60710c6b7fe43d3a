"""Adapted pairs: certification, search, shift coverings, and the two-route
discrete-spectrum check.

A pair (grid range, level) is *adapted* to a family when, at every grid point
of the range, the window [-level, level] has both endpoints at least
``TAU_EDGE_DEFAULT`` clear of the spectrum and captures a spectral block of
constant rank; the block and the restriction of the operator to it must then
vary continuously along the range.  Continuity is not decidable from finitely
many samples, so the certificate reports the adjacent-point moduli instead of
asserting a threshold; callers that need a threshold pass a cap.

Levels are only admitted up to a *truncation ceiling*, a fixed fraction of
the smallest spectral radius along the grid.  Windows wider than that would
see the artificial boundary of the truncation rather than the modeled
operator, so certificates above the ceiling would certify the truncation,
not the family.

Eigenvalues are sorted, so a window, like the upper part [epsilon, oo) of
strict adaptedness, is an interval of eigen-indices.  One edge routine,
``_RunEdges``, norms edge differences of interval projections for many runs
of points at once, each distinct (edge, left interval, right interval) once,
so overlapping ranges, as in the discrete-spectrum scan, share their edges.
It builds them as the topology chains build images, with
``spectral._spectral_functions``, and norms them with
``spectral._difference_norms``.  Each edge takes its own form, diagonal when
both of its points hold their eigenbasis as a permutation and dense
otherwise, so its norm depends on the edge alone.  No norm is kept between
calls: each certification norms its own edges.

``_certify_pairs`` certifies a batch of (range, level) pairs in one pass:
per-point margins and ranks give each pair's first refusal, and the edges of
all other pairs form one ``_RunEdges`` table.  ``certify_adapted_pair`` is its
one-pair case, and ``_interval_modulus`` (strict adaptedness) the one-run
case of the edge routine.

The unbounded and the weak (polarized) discrete-spectrum certificates share
one engine, ``_scan_levels``, and differ only in the level ceiling and the
shift grid of the definitional sweep.  The engine works on the whole grid at
once: per lower bound b it chooses every point's level with the row-wise rule
``_adapted_range`` applies to its one row and grows the ranges from one
table of margins and ranks for all distinct levels (``_level_blocks``).  The
distinct (range, level) pairs of all b levels then go to ``_certify_pairs``
in one call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import compress

import numpy as np

from .errors import (
    CertificationError,
    CoveringFailed,
    EdgeOnSpectrum,
    ModulusExceeded,
    NoGap,
    RankJump,
)
from .families import FamilySample
from .spectral import (
    TAU_EDGE_DEFAULT,
    _difference_norms,
    _spectral_functions,
    hermitian_norm,
)

#: fraction of the smallest spectral radius that bounds admissible levels
CEILING_FRACTION = 0.9
#: shifts of the definitional sweep, and window levels tried per shift
SWEEP_COUNT = 33
EPSILON_COUNT = 32
#: shifted windows a covering may collect before it gives up
MAX_SHIFTS = 200


@dataclass(frozen=True)
class GridRange:
    """An inclusive range of grid indices, the grid surrogate of an open set."""

    lo_index: int
    hi_index: int

    def __post_init__(self):
        if self.lo_index < 0 or self.lo_index > self.hi_index:
            raise ValueError(f"bad grid range ({self.lo_index}, {self.hi_index})")

    def __len__(self) -> int:
        return self.hi_index - self.lo_index + 1

    def indices(self) -> range:
        return range(self.lo_index, self.hi_index + 1)

    def contains(self, index: int) -> bool:
        return self.lo_index <= index <= self.hi_index

    def intersect(self, other: "GridRange") -> "GridRange":
        lo = max(self.lo_index, other.lo_index)
        hi = min(self.hi_index, other.hi_index)
        if lo > hi:
            raise ValueError("grid ranges do not intersect")
        return GridRange(lo, hi)


@dataclass(frozen=True)
class AdaptedPairCertificate:
    """A verified (range, level) pair with its continuity moduli.

    ``margin`` is the smallest clearance of +-level from any spectrum on the
    range; ``projection_modulus`` and ``restriction_modulus`` are the largest
    adjacent-point norms of the window projection and of the operator
    compressed to the window (measured on the ambient space, which is
    basis-free).
    """

    range: GridRange
    level: float
    rank: int
    margin: float
    projection_modulus: float
    restriction_modulus: float


@dataclass(frozen=True)
class CoveringCertificate:
    """A finite set of shifted windows whose intervals cover [-level, level].

    ``cover_lo``/``cover_hi`` are the extreme interval endpoints (they must
    strictly enclose the target), and ``intersection`` is the common grid
    range of all the shifted certificates.
    """

    level: float
    base_index: int
    lambdas: tuple[float, ...]
    epsilons: tuple[float, ...]
    ranges: tuple[GridRange, ...]
    cover_lo: float
    cover_hi: float
    intersection: GridRange


def truncation_ceiling(smp: FamilySample) -> float:
    """Largest admissible window level for this sample."""
    ev = smp.eigenvalue_matrix
    return CEILING_FRACTION * float(np.min(np.max(np.abs(ev), axis=1)))


def level_margins(eigenvalues: np.ndarray, level: float) -> np.ndarray:
    """Per row of eigenvalues (one per grid point), the distance of +-level
    to the spectrum."""
    return np.abs(np.abs(eigenvalues) - level).min(axis=1)


def level_ranks(eigenvalues: np.ndarray, level: float) -> np.ndarray:
    """Per row of eigenvalues (one per grid point), the number in [-level, level]."""
    return (np.abs(eigenvalues) <= level).sum(axis=1)


def _gaps(abs_sorted: np.ndarray, lo: float,
          hi: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per gap of each row of ascending absolute eigenvalues: the candidate
    level, the gap width, and whether the candidate is admissible.

    Gap k of a row runs from its (k-1)-th value (0 for k = 0) to its k-th.
    The candidate is the midpoint of the gap's intersection with (lo, hi],
    admissible when that intersection is non-empty and the midpoint keeps
    more than ``TAU_EDGE_DEFAULT`` clearance from both gap edges.
    """
    g_hi = abs_sorted
    zeros = np.zeros(g_hi.shape[:-1] + (1,))
    g_lo = np.concatenate((zeros, g_hi), axis=-1)[..., :-1]
    eff_lo = np.maximum(g_lo, lo)
    eff_hi = np.minimum(g_hi, hi)
    levels = 0.5 * (eff_lo + eff_hi)
    keep = ((g_hi > g_lo) & (eff_lo < eff_hi)
            & (np.minimum(levels - g_lo, g_hi - levels) > TAU_EDGE_DEFAULT))
    return levels, g_hi - g_lo, keep


def level_candidates(abs_eigenvalues: np.ndarray, lo: float,
                     hi: float) -> tuple[np.ndarray, np.ndarray]:
    """Candidate levels inside gaps of the symmetrized spectrum, ascending.

    A gap (g_lo, g_hi) of the absolute eigenvalue list contributes the
    midpoint of its intersection with (lo, hi], provided that midpoint keeps
    more than ``TAU_EDGE_DEFAULT`` clearance from both gap edges.  Gaps beyond
    the largest absolute eigenvalue are not offered: such windows contain the
    whole truncated spectrum and certify nothing about the modeled family.
    Returns the levels and the widths g_hi - g_lo of their gaps; disjoint
    gaps in ascending order give strictly ascending levels.
    """
    levels, widths, keep = _gaps(np.sort(np.asarray(abs_eigenvalues, dtype=float)), lo, hi)
    return levels[keep], widths[keep]


def _widest_levels(abs_sorted: np.ndarray, lo: float,
                   hi: float) -> tuple[np.ndarray, np.ndarray]:
    """Per row of ascending absolute eigenvalues, the candidate level of the
    first widest admissible gap (ties go to the lower level), and whether the
    row has an admissible gap at all."""
    levels, widths, keep = _gaps(abs_sorted, lo, hi)
    best = np.argmax(np.where(keep, widths, -np.inf), axis=-1)[..., None]
    return (np.take_along_axis(levels, best, axis=-1)[..., 0],
            np.take_along_axis(keep, best, axis=-1)[..., 0])


#: entries of each (levels, rows) array of a level table block, of each
#: (points, dim) array a batch of certifications compares at once, and of
#: each (edges, dim) block of edges whose images are built at once
_TABLE_ENTRIES = 1 << 12


def _level_blocks(ev: np.ndarray, levels: np.ndarray):
    """Per block of the ascending distinct ``levels``, its slice and the
    margins and ranks of every row of ``ev`` at its levels: (levels, rows)
    arrays of exactly the values ``level_margins`` and ``level_ranks`` give.

    A value v is at most level l exactly when ``searchsorted(levels, v)`` is
    at most l, so a row's ranks at every level are one cumulated histogram.
    Rounded subtraction is monotone and sign-symmetric, so the smallest
    |(|lambda| - level)| of a row sits at one of the two absolute eigenvalues
    around the level; a row holding NaN has margin NaN, as ``np.min`` gives
    it.  Each block's arrays keep within ``_TABLE_ENTRIES`` entries.
    """
    absolute = np.sort(np.abs(ev), axis=1)
    rows, dim = absolute.shape
    nan_rows = np.isnan(absolute[:, -1])
    row = np.arange(rows)
    step = max(1, _TABLE_ENTRIES // rows)
    for j in range(0, len(levels), step):
        level = levels[j:j + step]
        bins = len(level) + 1
        where = np.searchsorted(level, absolute) + bins * row[:, None]
        counts = np.bincount(where.ravel(), minlength=rows * bins).reshape(rows, bins)
        ranks = np.cumsum(counts[:, :-1], axis=1).T
        below = level[:, None] - absolute[row, np.maximum(ranks - 1, 0)]
        above = absolute[row, np.minimum(ranks, dim - 1)] - level[:, None]
        margins = np.minimum(np.where(ranks > 0, below, np.inf),
                             np.where(ranks < dim, above, np.inf))
        margins[:, nan_rows] = np.nan
        yield slice(j, j + len(level)), margins, ranks


def _grown_ranges(margins: np.ndarray, ranks: np.ndarray,
                  xs: np.ndarray | int) -> tuple[np.ndarray, np.ndarray]:
    """Per base point, the ends (lo, hi) of the run around it of clear
    margins and constant rank: the maximal range a window keeps adapted.

    ``margins`` and ranks hold one row per level, or are one row; ``xs`` and
    the ends index their flattened points, and no run crosses a row's end.
    A base point whose own margin is not clear is a run of its own, so
    certifying its range refuses it as ``EdgeOnSpectrum`` at the point.
    """
    clear = margins >= TAU_EDGE_DEFAULT
    closes = np.ones(margins.shape, dtype=bool)
    closes[..., :-1] = ~(clear[..., :-1] & clear[..., 1:] & (ranks[..., :-1] == ranks[..., 1:]))
    ends = np.concatenate(([-1], np.flatnonzero(closes)))
    k = np.searchsorted(ends, xs)
    return ends[k - 1] + 1, ends[k]


class _RunEdges:
    """The adjacent edges of runs of consecutive grid points, keyed by (left
    grid index, left start, left stop, right start, right stop).

    ``grid_index``, ``starts`` and ``stops`` give every point of every run in
    turn, with the eigen-index interval [start, stop) its image is taken
    over; ``counts`` gives the number of points of each run.  ``keys`` holds
    the distinct edges in order of first appearance and ``ids`` the index
    into ``keys`` of every run edge in turn.
    """

    def __init__(self, grid_index, starts, stops, counts):
        self.grid_index, self.starts, self.stops = grid_index, starts, stops
        self.firsts = np.cumsum(counts) - counts
        self.counts = counts.tolist()
        is_left = np.ones(len(grid_index), dtype=bool)
        is_left[self.firsts + counts - 1] = False
        self.left = np.flatnonzero(is_left)
        y, start, stop = grid_index.tolist(), starts.tolist(), stops.tolist()
        edges = compress(zip(y, start, stop, start[1:], stop[1:]), is_left.tolist())
        distinct: dict[tuple[int, int, int, int, int], int] = {}
        self.ids = [distinct.setdefault(edge, len(distinct)) for edge in edges]
        self.keys = list(distinct)

    def norms(self, smp: FamilySample, weighted: bool) -> list[float]:
        """The norm of every run edge in turn, each distinct edge built and
        normed once.

        Each edge is built in its own form: diagonal when both of its points
        hold their eigenbasis as a permutation, dense otherwise, so its value
        depends on the edge alone.  Per form, in blocks of edges whose
        differences hold at most ``_TABLE_ENTRIES`` entries, every distinct
        point image (grid index and interval) is built once by one
        ``_spectral_functions`` call, and the differences are normed with
        ``_difference_norms``.
        """
        # the left end of each distinct edge where it first appears, which is
        # where the running largest id grows
        ids = np.array(self.ids, dtype=int)
        new = np.ones(len(ids), dtype=bool)
        new[1:] = ids[1:] > np.maximum.accumulate(ids)[:-1]
        left = self.left[new]
        decs = smp.decompositions
        is_dense = np.array([decs[y].order is None or decs[y + 1].order is None
                             for y in self.grid_index[left].tolist()])
        values = np.empty(len(left))
        index, radix = np.arange(smp.dim), smp.dim + 1
        for dense in (False, True):
            taken = np.flatnonzero(is_dense == dense)
            step = max(1, _TABLE_ENTRIES // (smp.dim ** 2 if dense else smp.dim))
            for j in range(0, len(taken), step):
                block = left[taken[j:j + step]]
                ends = np.concatenate((block, block + 1))
                code = ((self.grid_index[ends] * radix + self.starts[ends]) * radix
                        + self.stops[ends])
                _, first, row = np.unique(code, return_index=True, return_inverse=True)
                points = ends[first]
                grid = self.grid_index[points]
                masks = ((index >= self.starts[points, None])
                         & (index < self.stops[points, None]))
                weights = smp.eigenvalue_matrix[grid] if weighted else None
                images = _spectral_functions([decs[y] for y in grid.tolist()], masks,
                                             weights, dense)
                n = len(block)
                values[taken[j:j + step]] = _difference_norms(images[row[n:]] - images[row[:n]],
                                                              hermitian_norm)
        return values[ids].tolist()

    def maxima(self, norms: list[float]) -> tuple[list[float], list[int | None]]:
        """Per run, the largest of its edges' ``norms`` and the left grid
        index of the first edge attaining it; 0.0 and ``None`` for a run of
        one point."""
        top: list[float] = []
        at: list[int | None] = []
        k = 0
        for lo, count in zip(self.grid_index[self.firsts].tolist(), self.counts):
            edges = norms[k:k + count - 1]
            k += len(edges)
            modulus = max(edges, default=0.0)
            top.append(modulus)
            at.append(lo + edges.index(modulus) if edges else None)
        return top, at


def _interval_modulus(smp: FamilySample, lo: int, starts, stops,
                      weighted: bool = False) -> tuple[float, int | None]:
    """Largest adjacent-edge norm from grid point ``lo`` on, and the left grid
    index of the first edge attaining it (``None`` when there is no edge).

    At point ``lo + k`` the operator is the projection onto the eigen-indices
    ``[starts[k], stops[k])``, or with ``weighted`` the operator compressed to
    them.  This is the one-run case of the edge routine of
    ``_certify_pairs`` (``_RunEdges``), which norms each distinct edge once.
    """
    starts, stops = np.asarray(starts), np.asarray(stops)
    edges = _RunEdges(lo + np.arange(len(starts)), starts, stops, np.array([len(starts)]))
    (modulus,), (at,) = edges.maxima(edges.norms(smp, weighted))
    return modulus, at


def _certify_pairs(smp: FamilySample, keys, cap: float | None = None) -> list:
    """``certify_adapted_pair`` on every (lo, hi, level) of ``keys`` at once:
    per key, the certificate it issues or the refusal it raises.

    The margins, ranks and window starts of every point of every range are
    taken in blocks of points.  A key is refused at the first point of its
    range whose margin is not clear (``EdgeOnSpectrum``) or whose rank
    differs from its left neighbour's (``RankJump``); at one point the margin
    is checked first.  The edges of all other keys form one edge table,
    whose distinct edges are normed once each, and each key reads its moduli
    off that table.  With a cap, a key whose projection or else
    restriction modulus lands above it is refused as ``ModulusExceeded`` at
    the first edge attaining it.
    """
    outcomes: list = [None] * len(keys)
    if not outcomes:
        return outcomes
    los, his, levels = (np.array(column) for column in zip(*keys))
    counts = his - los + 1
    offsets = np.cumsum(counts) - counts
    # every point of every range in turn: its grid index and the key's level
    grid = np.arange(int(counts.sum())) - np.repeat(offsets - los, counts)
    level = np.repeat(levels, counts)[:, None]
    margins = np.empty(len(grid))
    ranks, starts = np.empty(len(grid), dtype=int), np.empty(len(grid), dtype=int)
    step = max(1, _TABLE_ENTRIES // smp.dim)
    for j in range(0, len(grid), step):
        block = slice(j, j + step)
        ev, lv = smp.eigenvalue_matrix[grid[block]], level[block]
        margins[block] = level_margins(ev, lv)
        ranks[block] = level_ranks(ev, lv)
        starts[block] = (ev < -lv).sum(axis=1)

    unclear = ~(margins >= TAU_EDGE_DEFAULT)
    jumps = np.zeros(len(grid), dtype=bool)
    jumps[1:] = ranks[1:] != ranks[:-1]
    jumps[offsets] = False
    bad = np.flatnonzero(unclear | jumps)
    for k, p in zip((np.searchsorted(offsets, bad, side="right") - 1).tolist(), bad.tolist()):
        if outcomes[k] is None:
            y = int(grid[p])
            if unclear[p]:
                outcomes[k] = EdgeOnSpectrum(keys[k][2], float(margins[p]), grid_index=y)
            else:
                outcomes[k] = RankJump(y - 1, y, int(ranks[p - 1]), int(ranks[p]))
    ok = [k for k, outcome in enumerate(outcomes) if outcome is None]
    if not ok:
        return outcomes

    least = np.minimum.reduceat(margins, offsets)[ok].tolist()
    stops = starts + ranks
    if len(ok) < len(keys):
        keep = np.repeat([outcome is None for outcome in outcomes], counts)
        grid, starts, stops, counts = grid[keep], starts[keep], stops[keep], counts[ok]
    edges = _RunEdges(grid, starts, stops, counts)
    (proj, proj_at), (rest, rest_at) = (edges.maxima(edges.norms(smp, weighted))
                                        for weighted in (False, True))
    rank = ranks[offsets[ok]].tolist()
    for j, k in enumerate(ok):
        if cap is not None and proj[j] > cap:
            outcomes[k] = ModulusExceeded("projection", proj[j], cap, proj_at[j])
        elif cap is not None and rest[j] > cap:
            outcomes[k] = ModulusExceeded("restriction", rest[j], cap, rest_at[j])
        else:
            outcomes[k] = AdaptedPairCertificate(
                range=GridRange(keys[k][0], keys[k][1]),
                level=float(keys[k][2]),
                rank=rank[j],
                margin=least[j],
                projection_modulus=proj[j],
                restriction_modulus=rest[j],
            )
    return outcomes


def certify_adapted_pair(smp: FamilySample, grid_range: GridRange, level: float,
                         cap: float | None = None) -> AdaptedPairCertificate:
    """Verify that (grid_range, level) is adapted to the sample.

    Scans the range in ascending order and raises on the first failing
    condition: ``EdgeOnSpectrum`` when +-level comes within
    ``TAU_EDGE_DEFAULT`` of a spectrum, ``RankJump`` when the window rank
    changes between two adjacent points, and ``ModulusExceeded`` when a cap is
    given and either continuity modulus lands above it; the refusal names the
    first edge attaining that modulus.  The level must be positive and
    finite, a cap non-negative.

    The window at each point is the eigen-index interval
    [#(lambda < -level), #(lambda <= level)).  This is the one-key case of
    ``_certify_pairs``.
    """
    if not 0 < level < math.inf:
        raise ValueError("window level must be positive and finite")
    if grid_range.hi_index >= len(smp):
        raise ValueError("grid range exceeds the sample")
    if cap is not None and not cap >= 0:
        raise ValueError("the modulus cap must be non-negative")
    (outcome,) = _certify_pairs(smp, [(grid_range.lo_index, grid_range.hi_index, level)], cap)
    if isinstance(outcome, CertificationError):
        raise outcome
    return outcome


def _adapted_range(smp: FamilySample, x_index: int, b: float,
                   ceiling: float | None = None) -> tuple[GridRange, float, int]:
    """The range, level and rank of an adapted pair with level above b and
    x_index inside the range, found without norming an edge.

    The level is taken at the widest gap of the symmetrized spectrum at the
    base point that intersects (b, ceiling], ties resolved toward the smaller
    level.  The range is the maximal run around the base point on which
    margins stay clear and the window rank stays constant, so certification
    never refuses it.

    No other candidate is ever needed: every candidate sits more than
    ``TAU_EDGE_DEFAULT`` inside both edges of its gap, and every |lambda| at
    the base point lies on or beyond one of those edges.  Rounded subtraction
    is monotone and sign-symmetric, so the base point's own margin clears
    (unless its spectrum holds a NaN: ``EdgeOnSpectrum``), and the grown
    range contains it.

    Raises ``NoGap`` when no admissible level exists below the truncation
    ceiling, which signals that the truncation is too small for this ``b``.
    """
    if not b > 0:
        raise ValueError("the lower level bound b must be positive")
    if not 0 <= x_index < len(smp):
        raise ValueError("base index outside the grid")
    if ceiling is None:
        ceiling = truncation_ceiling(smp)
    ev = smp.eigenvalue_matrix
    level, found = _widest_levels(np.sort(np.abs(ev[x_index])), b, ceiling)
    if not found:
        raise NoGap(b, ceiling, x_index)
    level = float(level)
    margins, ranks = level_margins(ev, level), level_ranks(ev, level)
    if not margins[x_index] >= TAU_EDGE_DEFAULT:
        raise EdgeOnSpectrum(level, float(margins[x_index]), grid_index=x_index)
    lo, hi = _grown_ranges(margins, ranks, x_index)
    return GridRange(int(lo), int(hi)), level, int(ranks[x_index])


def find_adapted_pair(smp: FamilySample, x_index: int, b: float,
                      ceiling: float | None = None) -> AdaptedPairCertificate:
    """Find an adapted pair (range, c) with c > b and x_index inside the range:
    the one ``_adapted_range`` finds (``NoGap`` if there is none), certified."""
    grid_range, level, _ = _adapted_range(smp, x_index, b, ceiling)
    return certify_adapted_pair(smp, grid_range, level)


def fixed_level_certifier(smp: FamilySample, x_index: int, b: float):
    """A shift certifier that always requests the same lower bound ``b``."""
    base_ceiling = truncation_ceiling(smp)

    def certify(lam: float) -> AdaptedPairCertificate:
        cap = base_ceiling - abs(lam)
        if cap <= TAU_EDGE_DEFAULT:
            raise NoGap(b, cap, x_index)
        return find_adapted_pair(smp.shifted(lam), x_index, min(b, 0.5 * cap), ceiling=cap)

    return certify


def covering_construction(smp: FamilySample, x_index: int, c: float,
                          shifted_certifier=None) -> CoveringCertificate:
    """Cover [-c, c] by windows of shifted copies of the family.

    For each shift value the certifier must produce a pair adapted to the
    shifted family near the base point; the window of that pair, re-centered
    at the shift, is an open interval of the real line.  Starting from shift
    zero and sweeping outward, the construction collects finitely many shifts
    whose intervals cover [-c, c], verifies the coverage by interval
    arithmetic, and intersects the participating grid ranges.

    The default certifier asks each shift for the largest level still inside
    the trusted zone (so few shifts suffice); pass ``shifted_certifier`` to
    control the request, e.g. ``fixed_level_certifier`` for many small
    windows.  ``NoGap`` from the certifier propagates.
    """
    if not c > 0:
        raise ValueError("the target level c must be positive")
    if not 0 <= x_index < len(smp):
        raise ValueError("base index outside the grid")
    margin = float(level_margins(smp.eigenvalue_matrix, c)[x_index])
    if not margin >= TAU_EDGE_DEFAULT:
        raise EdgeOnSpectrum(c, margin, grid_index=x_index)

    base_ceiling = truncation_ceiling(smp)
    floor = 10.0 * TAU_EDGE_DEFAULT

    if shifted_certifier is None:
        def certifier(lam: float, needed: float) -> AdaptedPairCertificate:
            cap = base_ceiling - abs(lam)
            if cap <= floor:
                raise NoGap(needed, cap, x_index)
            request = min(needed, 0.999 * cap)
            while request > floor:
                try:
                    return find_adapted_pair(smp.shifted(lam), x_index, request, ceiling=cap)
                except NoGap:
                    request /= 2.0
            raise NoGap(needed, cap, x_index)
    else:
        def certifier(lam: float, needed: float) -> AdaptedPairCertificate:
            return shifted_certifier(lam)

    # each side's sweep tracks its reach ``edge``: the shift -edge mirrors
    # +edge exactly, since rounding is sign-symmetric
    entries = [(0.0, certifier(0.0, c))]
    for side in (1, -1):
        edge = entries[0][1].level
        while edge <= c:
            if len(entries) >= MAX_SHIFTS:
                raise CoveringFailed(f"more than {MAX_SHIFTS} shifts needed to reach {side * c}")
            cert = certifier(side * edge, c - edge + floor)
            entries.append((side * edge, cert))
            edge = edge + cert.level

    entries.sort(key=lambda e: e[0])
    intervals = [(lam - cert.level, lam + cert.level) for lam, cert in entries]
    if intervals[0][0] >= -c or intervals[-1][1] <= c:
        raise CoveringFailed("collected intervals do not enclose the target")
    reach = intervals[0][1]
    for lo, hi_ in intervals[1:]:
        if lo >= reach:
            raise CoveringFailed(f"coverage gap before {lo:.6g}")
        reach = max(reach, hi_)
    cover_lo = min(lo for lo, _ in intervals)
    cover_hi = max(hi_ for _, hi_ in intervals)

    intersection = entries[0][1].range
    for _, cert in entries[1:]:
        intersection = intersection.intersect(cert.range)

    return CoveringCertificate(
        level=float(c),
        base_index=x_index,
        lambdas=tuple(lam for lam, _ in entries),
        epsilons=tuple(cert.level for _, cert in entries),
        ranges=tuple(cert.range for _, cert in entries),
        cover_lo=cover_lo,
        cover_hi=cover_hi,
        intersection=intersection,
    )


def shrink_toward(grid_range: GridRange, x_index: int) -> GridRange | None:
    """Drop one point from the longer side; left goes first on ties."""
    left = x_index - grid_range.lo_index
    right = grid_range.hi_index - x_index
    if left == 0 and right == 0:
        return None
    if left >= right:
        return GridRange(grid_range.lo_index + 1, grid_range.hi_index)
    return GridRange(grid_range.lo_index, grid_range.hi_index - 1)


def adapted_from_covering(smp: FamilySample,
                          covering: CoveringCertificate) -> AdaptedPairCertificate:
    """Build the large-level adapted pair promised by a covering.

    The common range of the shifted certificates may reach grid points where
    +-level grazes the spectrum; those are trimmed away toward the base point
    before certifying.
    """
    rng = covering.intersection
    while True:
        try:
            return certify_adapted_pair(smp, rng, covering.level)
        except (EdgeOnSpectrum, RankJump):
            shrunk = shrink_toward(rng, covering.base_index)
            if shrunk is None:
                raise
            rng = shrunk


@dataclass(frozen=True)
class CertificateFailure:
    x_index: int
    level: float
    error: str
    detail: str


@dataclass(frozen=True)
class DefinitionalSweep:
    """Shift-sweep record: per shift, which grid points admit no window at all."""

    lambdas: tuple[float, ...]
    failures: tuple[tuple[float, int], ...]
    failing_points: tuple[int, ...]
    passed: bool


@dataclass(frozen=True)
class DiscreteSpectrumReport:
    passed: bool
    b_levels: tuple[float, ...]
    ceiling: float
    certificates: dict
    failures: tuple[CertificateFailure, ...]
    failing_points: tuple[int, ...]
    definitional: DefinitionalSweep | None

    @property
    def routes_agree(self) -> bool:
        """Pass/fail and failing grid points match between the two routes."""
        if self.definitional is None:
            return True
        return (self.passed == self.definitional.passed
                and self.failing_points == self.definitional.failing_points)


def definitional_sweep(smp: FamilySample, shifts, ceiling: float) -> DefinitionalSweep:
    """Brute-force route through the definition: shift, then look for any window.

    For every shift and every grid point, sweep window levels linearly up to
    the trusted zone and ask only whether some window keeps both endpoints
    clear of the shifted spectrum.  No gap structure is consulted, which
    keeps this an independent oracle for the direct search route.  Shifted
    windows must stay inside the trusted zone of the unshifted family:
    |shift| + level <= ceiling.
    """
    ev = smp.eigenvalue_matrix
    n = len(smp)
    failures = []
    failing_points = set()
    for lam in shifts:
        cap = ceiling - abs(lam)
        ok = np.zeros(n, dtype=bool)
        if cap > TAU_EDGE_DEFAULT:
            for k in range(1, EPSILON_COUNT + 1):
                eps = cap * k / EPSILON_COUNT
                lo_clear = np.min(np.abs(ev - (lam - eps)), axis=1)
                hi_clear = np.min(np.abs(ev - (lam + eps)), axis=1)
                ok |= np.minimum(lo_clear, hi_clear) > TAU_EDGE_DEFAULT
                if ok.all():
                    break
        for x in np.nonzero(~ok)[0]:
            failures.append((float(lam), int(x)))
            failing_points.add(int(x))
    return DefinitionalSweep(
        lambdas=tuple(float(v) for v in shifts),
        failures=tuple(failures),
        failing_points=tuple(sorted(failing_points)),
        passed=not failures,
    )


def _scan_levels(smp: FamilySample, b_levels: tuple[float, ...], ceiling: float,
                 shifts) -> DiscreteSpectrumReport:
    """Both discrete-spectrum routes below ``ceiling``; ``shifts=None`` skips
    the definitional one.

    The direct route gives every grid point the pair ``find_adapted_pair``
    would find, computed for the whole grid at once.  Per b, each row's level
    is chosen in one pass, one level table holds the margins and ranks of
    all its distinct levels, and each point's range is read off the runs
    they form.  The distinct (range, level) pairs of all b levels then go to
    ``_certify_pairs`` in one call, and every point that finds a pair gets
    the same certificate object or the same refusal.
    """
    ev = smp.eigenvalue_matrix
    abs_sorted = np.sort(np.abs(ev), axis=1)
    pairs: dict[tuple[int, int, float], int] = {}
    found_by_b = []
    for b in b_levels:
        levels, found = _widest_levels(abs_sorted, b, ceiling)
        xs = np.flatnonzero(found)
        distinct = np.array(sorted(set(levels[xs].tolist())))
        row = np.searchsorted(distinct, levels[xs])
        lo, hi = np.empty(len(xs), dtype=int), np.empty(len(xs), dtype=int)
        for block, margins, ranks in _level_blocks(ev, distinct):
            at = np.flatnonzero((row >= block.start) & (row < block.stop))
            first = (row[at] - block.start) * len(ev)
            run_lo, run_hi = _grown_ranges(margins, ranks, first + xs[at])
            lo[at], hi[at] = run_lo - first, run_hi - first
        keys = zip(lo.tolist(), hi.tolist(), levels[xs].tolist())
        ids = [pairs.setdefault(key, len(pairs)) for key in keys]
        found_by_b.append((found.tolist(), ids))
    outcomes = _certify_pairs(smp, list(pairs))
    certificates: dict[float, tuple] = {}
    failures: list[CertificateFailure] = []
    for b, (found, ids) in zip(b_levels, found_by_b):
        per_x = []
        ids = iter(ids)
        for x, has_gap in enumerate(found):
            outcome = outcomes[next(ids)] if has_gap else NoGap(b, ceiling, x)
            if isinstance(outcome, CertificationError):
                failures.append(CertificateFailure(x, b, type(outcome).__name__, str(outcome)))
                outcome = None
            per_x.append(outcome)
        certificates[b] = tuple(per_x)
    sweep = None if shifts is None else definitional_sweep(smp, shifts, ceiling)
    return DiscreteSpectrumReport(
        passed=not failures,
        b_levels=b_levels,
        ceiling=float(ceiling),
        certificates=certificates,
        failures=tuple(failures),
        failing_points=tuple(sorted({f.x_index for f in failures})),
        definitional=sweep,
    )


def discrete_spectrum_certify(smp: FamilySample, b_levels,
                              include_definitional: bool = True) -> DiscreteSpectrumReport:
    """Certify that arbitrarily wide windows exist at every grid point.

    The direct route finds, for every requested lower bound, the pair that
    ``find_adapted_pair`` would find at every grid point, with the whole grid
    scanned at once (see ``_scan_levels``).  The companion definitional route
    sweeps shifts of the family over [-max b, max b] and certifies each
    shifted family by brute force, for oracle comparison; ``routes_agree`` on
    the report checks that both routes pass or fail at the same grid points.
    """
    b_levels = tuple(float(b) for b in b_levels)
    if not b_levels or any(not 0 < b < math.inf for b in b_levels):
        raise ValueError("b_levels must be positive and finite")
    if len(set(b_levels)) != len(b_levels):
        raise ValueError("b_levels must not repeat a level")
    shifts = None
    if include_definitional:
        shifts = np.linspace(-max(b_levels), max(b_levels), SWEEP_COUNT)
    return _scan_levels(smp, b_levels, truncation_ceiling(smp), shifts)
