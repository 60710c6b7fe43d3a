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
strict adaptedness, is an interval of eigen-indices.  ``_interval_modulus``
norms edge differences of interval projections and memoizes them on the
sample by (edge, left interval, right interval), so overlapping ranges, as
in the discrete-spectrum scan, norm every distinct edge once.  Both fibres
of an edge come from ``spectral._spectral_function`` in one form: when both
hold their eigenbasis as a permutation (the diagonal generators, diagonal
matrix files, and their shifts and bounded transforms) they are length-d
vectors and the norm is the largest entry of their difference, with no
projector and no eigensolver; otherwise both are dense projectors, normed
with ``hermitian_norm``, which runs ``eigvalsh`` only when their difference
has a nonzero off-diagonal entry.

The unbounded and the weak (polarized) discrete-spectrum certificates share
one engine, ``_scan_levels``, and differ only in the level ceiling and the
shift grid of the definitional sweep.  The engine works on the whole grid at
once: per lower bound b it chooses every point's level with the row-wise rule
``find_adapted_pair`` applies to its one row, grows the ranges from one
margin and rank pass per distinct level, and certifies each distinct (range,
level) once per scan.
"""

from __future__ import annotations

from dataclasses import dataclass

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
from .spectral import TAU_EDGE_DEFAULT, _difference_norm, _spectral_function, hermitian_norm

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
    return np.min(np.abs(np.abs(eigenvalues) - level), axis=1)


def level_ranks(eigenvalues: np.ndarray, level: float) -> np.ndarray:
    """Per row of eigenvalues (one per grid point), the number in [-level, level]."""
    return np.sum(np.abs(eigenvalues) <= level, axis=1)


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


def _grown_ranges(margins: np.ndarray, ranks: np.ndarray,
                  xs: np.ndarray | int) -> tuple[np.ndarray, np.ndarray]:
    """Per base point, the ends (lo, hi) of the run around it of clear
    margins and constant rank: the maximal range a window keeps adapted.

    A base point whose own margin is not clear is a run of its own, so
    certifying its range refuses it as ``EdgeOnSpectrum`` at the point.
    """
    clear = margins >= TAU_EDGE_DEFAULT
    linked = clear[:-1] & clear[1:] & (ranks[:-1] == ranks[1:])
    ends = np.concatenate(([-1], np.flatnonzero(~linked), [margins.size - 1]))
    k = np.searchsorted(ends, xs)
    return ends[k - 1] + 1, ends[k]


def _interval_modulus(smp: FamilySample, lo: int, starts, stops,
                      weighted: bool = False) -> tuple[float, int | None]:
    """Largest adjacent-edge norm from grid point ``lo`` on, and the left grid
    index of the first edge attaining it (``None`` when there is no edge).

    At point ``lo + k`` the operator is the projection onto the eigen-indices
    ``[starts[k], stops[k])``, or with ``weighted`` the operator compressed to
    them.  A norm missing from the sample's store is computed and stored.

    When both ends of an edge hold their eigenbasis as a permutation, both
    operators are diagonal in the standard basis: each end is a length-d
    vector (ones, or the eigenvalues, at the selected standard indices) and
    the norm is the largest absolute entry of their difference, built without
    the two d x d projectors.  Any other edge builds both projectors and
    norms their difference with ``hermitian_norm``, which is itself exact on
    a diagonal difference and calls ``eigvalsh`` only on a dense one.  Both
    routes give the eigensolver's bits while the entries lie within about
    [1e-146, 1e146]; outside that band LAPACK rescales a diagonal matrix and
    rounds its eigenvalues, and the exact value is kept.
    """
    memo = smp.restriction_moduli if weighted else smp.projection_moduli
    first, last = starts.tolist(), stops.tolist()
    keys = list(zip(range(lo, lo + len(first) - 1), first, last, first[1:], last[1:]))
    values = list(map(memo.get, keys))
    decs = smp.decompositions[lo:lo + len(first)]
    if None in values:
        index = np.arange(smp.dim)
        masks = (index >= starts[:, None]) & (index < stops[:, None])

    def fibre(k, dense):
        dec = decs[k]
        return _spectral_function(dec, masks[k], dec.eigenvalues if weighted else None, dense)

    held_at, held = None, None  # (point, form) and fibre of the last miss's right end
    for k, value in enumerate(values):
        if value is None:
            dense = decs[k].order is None or decs[k + 1].order is None
            left = held if held_at == (k, dense) else fibre(k, dense)
            held_at, held = (k + 1, dense), fibre(k + 1, dense)
            values[k] = memo[keys[k]] = _difference_norm(held, left, hermitian_norm)
    if not values:
        return 0.0, None
    modulus = max(values)
    return modulus, lo + values.index(modulus)


def certify_adapted_pair(smp: FamilySample, grid_range: GridRange, level: float,
                         cap: float | None = None) -> AdaptedPairCertificate:
    """Verify that (grid_range, level) is adapted to the sample.

    Scans the range in ascending order and raises on the first failing
    condition: ``EdgeOnSpectrum`` when +-level comes within
    ``TAU_EDGE_DEFAULT`` of a spectrum, ``RankJump`` when the window rank
    changes between two adjacent points, and ``ModulusExceeded`` when a cap is
    given and either continuity modulus lands above it; the refusal names the
    first edge attaining that modulus.  A cap must be non-negative.

    The window at each point is the eigen-index interval
    [#(lambda < -level), #(lambda <= level)).
    """
    if not level > 0:
        raise ValueError("window level must be positive")
    if grid_range.hi_index >= len(smp):
        raise ValueError("grid range exceeds the sample")
    if cap is not None and not cap >= 0:
        raise ValueError("the modulus cap must be non-negative")
    lo, hi = grid_range.lo_index, grid_range.hi_index
    ev = smp.eigenvalue_matrix[lo:hi + 1]
    margins = level_margins(ev, level)
    ranks = level_ranks(ev, level)
    prev_rank = None
    for y, margin, rank in zip(grid_range.indices(), margins.tolist(), ranks.tolist()):
        if not margin >= TAU_EDGE_DEFAULT:
            raise EdgeOnSpectrum(level, margin, grid_index=y)
        if prev_rank is not None and rank != prev_rank:
            raise RankJump(y - 1, y, prev_rank, rank)
        prev_rank = rank

    starts = (ev < -level).sum(axis=1)
    stops = starts + ranks
    proj_modulus, proj_at = _interval_modulus(smp, lo, starts, stops)
    rest_modulus, rest_at = _interval_modulus(smp, lo, starts, stops, weighted=True)
    if cap is not None:
        if proj_modulus > cap:
            raise ModulusExceeded("projection", proj_modulus, cap, proj_at)
        if rest_modulus > cap:
            raise ModulusExceeded("restriction", rest_modulus, cap, rest_at)
    return AdaptedPairCertificate(
        range=grid_range,
        level=float(level),
        rank=int(ranks[0]),
        margin=float(np.min(margins)),
        projection_modulus=proj_modulus,
        restriction_modulus=rest_modulus,
    )


def find_adapted_pair(smp: FamilySample, x_index: int, b: float,
                      ceiling: float | None = None) -> AdaptedPairCertificate:
    """Find an adapted pair (range, c) with c > b and x_index inside the range.

    The level is taken at the widest gap of the symmetrized spectrum at the
    base point that intersects (b, ceiling], ties resolved toward the smaller
    level.  The range is the maximal run around the base point on which
    margins stay clear and the window rank stays constant.

    No other candidate is ever needed: every candidate sits more than
    ``TAU_EDGE_DEFAULT`` inside both edges of its gap, and every |lambda| at
    the base point lies on or beyond one of those edges.  Rounded subtraction
    is monotone and sign-symmetric, so the base point's own margin always
    clears, and the grown range contains it.

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
    lo, hi = _grown_ranges(level_margins(ev, level), level_ranks(ev, level), x_index)
    return certify_adapted_pair(smp, GridRange(int(lo), int(hi)), level)


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
    would find, computed for the whole grid at once: per b, each row's level
    is chosen in one pass, margins and ranks are taken once per distinct
    level, and each point's range is read off the runs they form.  Each
    distinct (range, level) is certified once per scan, shared across the b
    levels, and every point that finds it gets the same certificate object or
    the same refusal.
    """
    ev = smp.eigenvalue_matrix
    abs_sorted = np.sort(np.abs(ev), axis=1)
    outcomes: dict[tuple[int, int, float], AdaptedPairCertificate | CertificationError] = {}
    certificates: dict[float, tuple] = {}
    failures: list[CertificateFailure] = []
    for b in b_levels:
        levels, found = _widest_levels(abs_sorted, b, ceiling)
        lo = np.zeros(len(smp), dtype=int)
        hi = np.zeros(len(smp), dtype=int)
        for level in set(levels[found].tolist()):
            xs = np.flatnonzero(found & (levels == level))
            lo[xs], hi[xs] = _grown_ranges(level_margins(ev, level), level_ranks(ev, level), xs)
        per_x = []
        keys = zip(lo.tolist(), hi.tolist(), levels.tolist())
        for x, (has_gap, key) in enumerate(zip(found.tolist(), keys)):
            if not has_gap:
                outcome = NoGap(b, ceiling, x)
            elif key in outcomes:
                outcome = outcomes[key]
            else:
                try:
                    outcome = certify_adapted_pair(smp, GridRange(key[0], key[1]), key[2])
                except (EdgeOnSpectrum, RankJump) as exc:
                    outcome = exc
                outcomes[key] = outcome
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
    if not b_levels or any(not b > 0 for b in b_levels):
        raise ValueError("b_levels must be positive")
    shifts = None
    if include_definitional:
        shifts = np.linspace(-max(b_levels), max(b_levels), SWEEP_COUNT)
    return _scan_levels(smp, b_levels, truncation_ceiling(smp), shifts)
