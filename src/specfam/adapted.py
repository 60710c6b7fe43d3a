"""Adapted pairs: certification, search, shift coverings, and the two-route
discrete-spectrum check.

A pair (grid range, level) is *adapted* to a family when, at every grid point
of the range, the window [-level, level] has both endpoints clear of the
spectrum and captures a spectral block of constant rank; the block and the
restriction of the operator to it must then vary continuously along the
range.  Continuity is not decidable from finitely many samples, so the
certificate reports the adjacent-point moduli instead of asserting a
threshold; callers that need a threshold pass a cap.

Levels are only admitted up to a *truncation ceiling*, a fixed fraction of
the smallest spectral radius along the grid.  Windows wider than that would
see the artificial boundary of the truncation rather than the modeled
operator, so certificates above the ceiling would certify the truncation,
not the family.

Eigenvalues are sorted, so a window, like the upper part [epsilon, oo) of
strict adaptedness, is an interval of eigen-indices.  ``_interval_modulus``
norms edge differences of interval projections and memoizes them on the
sample by (edge, left interval, right interval), so overlapping ranges, as
in the discrete-spectrum scan, norm every distinct edge once.

The unbounded and the weak (polarized) discrete-spectrum certificates share
one engine, ``_scan_levels``, and differ only in the level ceiling and the
shift grid of the definitional sweep.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    CoveringFailed,
    EdgeOnSpectrum,
    ModulusExceeded,
    NoGap,
    RankJump,
)
from .families import FamilySample
from .spectral import TAU_EDGE_DEFAULT, hermitian_norm, projector

#: fraction of the smallest spectral radius that bounds admissible levels
CEILING_FRACTION = 0.9
#: shifts of the definitional sweep, and window levels tried per shift
SWEEP_COUNT = 33
EPSILON_COUNT = 32


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


def truncation_ceiling(smp: FamilySample, fraction: float = CEILING_FRACTION) -> float:
    """Largest admissible window level for this sample."""
    ev = smp.eigenvalue_matrix
    return fraction * float(np.min(np.max(np.abs(ev), axis=1)))


def level_margins(smp: FamilySample, level: float) -> np.ndarray:
    """Per grid point, the distance of +-level to the spectrum."""
    ev = smp.eigenvalue_matrix
    return np.min(np.abs(np.abs(ev) - level), axis=1)


def level_ranks(smp: FamilySample, level: float) -> np.ndarray:
    """Per grid point, the number of eigenvalues in [-level, level]."""
    ev = smp.eigenvalue_matrix
    return np.sum(np.abs(ev) <= level, axis=1)


@dataclass(frozen=True)
class LevelCandidate:
    level: float
    gap_lo: float
    gap_hi: float

    @property
    def width(self) -> float:
        return self.gap_hi - self.gap_lo


def level_candidates(abs_eigenvalues: np.ndarray, lo: float, hi: float,
                     tau_edge: float = TAU_EDGE_DEFAULT) -> list[LevelCandidate]:
    """Candidate levels inside gaps of the symmetrized spectrum.

    A gap (g_lo, g_hi) of the absolute eigenvalue list contributes the
    midpoint of its intersection with (lo, hi], provided that midpoint keeps
    more than ``tau_edge`` clearance from both gap edges.  Gaps beyond the
    largest absolute eigenvalue are not offered: such windows contain the
    whole truncated spectrum and certify nothing about the modeled family.
    """
    values = np.sort(np.asarray(abs_eigenvalues, dtype=float))
    gaps = []
    prev = 0.0
    for a in values:
        if a > prev:
            gaps.append((prev, float(a)))
        prev = max(prev, float(a))
    out = []
    for g_lo, g_hi in gaps:
        eff_lo = max(g_lo, lo)
        eff_hi = min(g_hi, hi)
        if eff_lo >= eff_hi:
            continue
        level = 0.5 * (eff_lo + eff_hi)
        if min(level - g_lo, g_hi - level) <= tau_edge:
            continue
        out.append(LevelCandidate(level, g_lo, g_hi))
    return out


def _interval_modulus(smp: FamilySample, lo: int, starts, stops,
                      weighted: bool = False) -> float:
    """Largest adjacent-edge norm from grid point ``lo`` on.

    At point ``lo + k`` the operator is the projection onto the eigen-indices
    ``[starts[k], stops[k])``, or with ``weighted`` the operator compressed to
    them.  A norm missing from the sample's store is computed and stored.
    """
    memo = smp.restriction_moduli if weighted else smp.projection_moduli
    starts, stops = starts.tolist(), stops.tolist()
    keys = list(zip(range(lo, lo + len(starts) - 1), starts, stops, starts[1:], stops[1:]))
    values = list(map(memo.get, keys))
    index = np.arange(smp.dim)

    def fibre(k):
        dec = smp.decompositions[lo + k]
        return projector(dec, (index >= starts[k]) & (index < stops[k]),
                         weights=dec.eigenvalues if weighted else None)

    held_at, held = -1, None  # the right fibre of the last miss
    for k, value in enumerate(values):
        if value is None:
            left = held if held_at == k else fibre(k)
            held_at, held = k + 1, fibre(k + 1)
            values[k] = memo[keys[k]] = hermitian_norm(held - left)
    return max(values, default=0.0)


def certify_adapted_pair(smp: FamilySample, grid_range: GridRange, level: float,
                         cap: float | None = None,
                         tau_edge: float = TAU_EDGE_DEFAULT) -> AdaptedPairCertificate:
    """Verify that (grid_range, level) is adapted to the sample.

    Scans the range in ascending order and raises on the first failing
    condition: ``EdgeOnSpectrum`` when +-level comes within ``tau_edge`` of a
    spectrum, ``RankJump`` when the window rank changes between two adjacent
    points, and ``ModulusExceeded`` when a cap is given and either continuity
    modulus lands above it.

    The window at each point is the eigen-index interval
    [#(lambda < -level), #(lambda <= level)).
    """
    if level <= 0:
        raise ValueError("window level must be positive")
    if grid_range.hi_index >= len(smp):
        raise ValueError("grid range exceeds the sample")
    margins = level_margins(smp, level)
    ranks = level_ranks(smp, level)
    prev_rank = None
    for y in grid_range.indices():
        if not margins[y] >= tau_edge:
            raise EdgeOnSpectrum(level, float(margins[y]), grid_index=y)
        if prev_rank is not None and ranks[y] != prev_rank:
            raise RankJump(y - 1, y, int(prev_rank), int(ranks[y]))
        prev_rank = ranks[y]

    lo, hi = grid_range.lo_index, grid_range.hi_index
    starts = (smp.eigenvalue_matrix[lo:hi + 1] < -level).sum(axis=1)
    stops = starts + ranks[lo:hi + 1]
    proj_modulus = _interval_modulus(smp, lo, starts, stops)
    rest_modulus = _interval_modulus(smp, lo, starts, stops, weighted=True)
    if cap is not None:
        if proj_modulus > cap:
            raise ModulusExceeded("projection", proj_modulus, cap)
        if rest_modulus > cap:
            raise ModulusExceeded("restriction", rest_modulus, cap)
    return AdaptedPairCertificate(
        range=grid_range,
        level=float(level),
        rank=int(ranks[grid_range.lo_index]),
        margin=float(np.min(margins[grid_range.lo_index:grid_range.hi_index + 1])),
        projection_modulus=proj_modulus,
        restriction_modulus=rest_modulus,
    )


def _grow_range(margins: np.ndarray, ranks: np.ndarray, x_index: int,
                tau_edge: float) -> GridRange:
    """Maximal contiguous range around x with clear margins and constant rank."""
    n = margins.size
    r0 = ranks[x_index]
    lo = x_index
    while lo - 1 >= 0 and margins[lo - 1] >= tau_edge and ranks[lo - 1] == r0:
        lo -= 1
    hi = x_index
    while hi + 1 < n and margins[hi + 1] >= tau_edge and ranks[hi + 1] == r0:
        hi += 1
    return GridRange(lo, hi)


def find_adapted_pair(smp: FamilySample, x_index: int, b: float,
                      ceiling: float | None = None,
                      tau_edge: float = TAU_EDGE_DEFAULT) -> AdaptedPairCertificate:
    """Find an adapted pair (range, c) with c > b and x_index inside the range.

    The level is taken at the widest gap of the symmetrized spectrum at the
    base point that intersects (b, ceiling], ties resolved toward the smaller
    level.  The range is then grown greedily from the base point in both
    directions while margins stay clear and the window rank stays constant.

    Raises ``NoGap`` when no admissible level exists below the truncation
    ceiling, which signals that the truncation is too small for this ``b``.
    """
    if b <= 0:
        raise ValueError("the lower level bound b must be positive")
    if not 0 <= x_index < len(smp):
        raise ValueError("base index outside the grid")
    if ceiling is None:
        ceiling = truncation_ceiling(smp)
    if ceiling <= b:
        raise NoGap(b, ceiling, x_index)
    cands = level_candidates(np.abs(smp.eigenvalue_matrix[x_index]), b, ceiling, tau_edge)
    cands.sort(key=lambda c: (-c.width, c.level))
    for cand in cands:
        margins = level_margins(smp, cand.level)
        ranks = level_ranks(smp, cand.level)
        if not margins[x_index] >= tau_edge:
            continue
        grown = _grow_range(margins, ranks, x_index, tau_edge)
        return certify_adapted_pair(smp, grown, cand.level, tau_edge=tau_edge)
    raise NoGap(b, ceiling, x_index)


def fixed_level_certifier(smp: FamilySample, x_index: int, b: float,
                          tau_edge: float = TAU_EDGE_DEFAULT):
    """A shift certifier that always requests the same lower bound ``b``."""
    base_ceiling = truncation_ceiling(smp)

    def certify(lam: float) -> AdaptedPairCertificate:
        cap = base_ceiling - abs(lam)
        if cap <= tau_edge:
            raise NoGap(b, cap, x_index)
        return find_adapted_pair(smp.shifted(lam), x_index, min(b, 0.5 * cap),
                                 ceiling=cap, tau_edge=tau_edge)

    return certify


def covering_construction(smp: FamilySample, x_index: int, c: float,
                          shifted_certifier=None,
                          tau_edge: float = TAU_EDGE_DEFAULT,
                          max_shifts: int = 200) -> CoveringCertificate:
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
    if c <= 0:
        raise ValueError("the target level c must be positive")
    if not 0 <= x_index < len(smp):
        raise ValueError("base index outside the grid")
    ev_x = smp.eigenvalue_matrix[x_index]
    margin = float(np.min(np.abs(np.abs(ev_x) - c)))
    if not margin >= tau_edge:
        raise EdgeOnSpectrum(c, margin, grid_index=x_index)

    base_ceiling = truncation_ceiling(smp)
    floor = 10.0 * tau_edge

    if shifted_certifier is None:
        def certifier(lam: float, needed: float) -> AdaptedPairCertificate:
            cap = base_ceiling - abs(lam)
            if cap <= floor:
                raise NoGap(needed, cap, x_index)
            request = min(needed, 0.999 * cap)
            while request > floor:
                try:
                    return find_adapted_pair(smp.shifted(lam), x_index, request,
                                             ceiling=cap, tau_edge=tau_edge)
                except NoGap:
                    request /= 2.0
            raise NoGap(needed, cap, x_index)
    else:
        def certifier(lam: float, needed: float) -> AdaptedPairCertificate:
            return shifted_certifier(lam)

    entries: list[tuple[float, AdaptedPairCertificate]] = []

    cert0 = certifier(0.0, c)
    entries.append((0.0, cert0))
    covered_hi = cert0.level
    covered_lo = -cert0.level
    while covered_hi <= c:
        if len(entries) >= max_shifts:
            raise CoveringFailed(f"more than {max_shifts} shifts needed to reach {c}")
        lam = covered_hi
        cert = certifier(lam, c - lam + floor)
        entries.append((lam, cert))
        covered_hi = lam + cert.level
    while covered_lo >= -c:
        if len(entries) >= max_shifts:
            raise CoveringFailed(f"more than {max_shifts} shifts needed to reach {-c}")
        lam = covered_lo
        cert = certifier(lam, lam + c + floor)
        entries.append((lam, cert))
        covered_lo = lam - cert.level

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


def adapted_from_covering(smp: FamilySample, covering: CoveringCertificate,
                          tau_edge: float = TAU_EDGE_DEFAULT) -> AdaptedPairCertificate:
    """Build the large-level adapted pair promised by a covering.

    The common range of the shifted certificates may reach grid points where
    +-level grazes the spectrum; those are trimmed away toward the base point
    before certifying.
    """
    rng = covering.intersection
    while True:
        try:
            return certify_adapted_pair(smp, rng, covering.level, tau_edge=tau_edge)
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


def definitional_sweep(smp: FamilySample, shifts, ceiling: float,
                       tau_edge: float = TAU_EDGE_DEFAULT) -> DefinitionalSweep:
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
        if cap > tau_edge:
            for k in range(1, EPSILON_COUNT + 1):
                eps = cap * k / EPSILON_COUNT
                lo_clear = np.min(np.abs(ev - (lam - eps)), axis=1)
                hi_clear = np.min(np.abs(ev - (lam + eps)), axis=1)
                ok |= np.minimum(lo_clear, hi_clear) > tau_edge
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
                 shifts, tau_edge: float) -> DiscreteSpectrumReport:
    """Both discrete-spectrum routes below ``ceiling``; ``shifts=None`` skips
    the definitional one."""
    certificates: dict[float, tuple] = {}
    failures: list[CertificateFailure] = []
    for b in b_levels:
        per_x = []
        for x in range(len(smp)):
            try:
                per_x.append(find_adapted_pair(smp, x, b, ceiling=ceiling,
                                               tau_edge=tau_edge))
            except (NoGap, EdgeOnSpectrum, RankJump) as exc:
                failures.append(CertificateFailure(x, b, type(exc).__name__, str(exc)))
                per_x.append(None)
        certificates[b] = tuple(per_x)
    sweep = None
    if shifts is not None:
        sweep = definitional_sweep(smp, shifts, ceiling, tau_edge=tau_edge)
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
                              include_definitional: bool = True,
                              tau_edge: float = TAU_EDGE_DEFAULT) -> DiscreteSpectrumReport:
    """Certify that arbitrarily wide windows exist at every grid point.

    The direct route runs ``find_adapted_pair`` at every grid point for every
    requested lower bound.  The companion definitional route sweeps shifts of
    the family over [-max b, max b] and certifies each shifted family by
    brute force, for oracle comparison; ``routes_agree`` on the report checks
    that both routes pass or fail at the same grid points.
    """
    b_levels = tuple(float(b) for b in b_levels)
    if not b_levels or any(b <= 0 for b in b_levels):
        raise ValueError("b_levels must be positive")
    shifts = None
    if include_definitional:
        shifts = np.linspace(-max(b_levels), max(b_levels), SWEEP_COUNT)
    return _scan_levels(smp, b_levels, truncation_ceiling(smp), shifts, tau_edge)
