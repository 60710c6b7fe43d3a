"""Graph (uniform resolvent) and Riesz distances, continuity moduli along a
grid, and the two quantitative continuity certificates built from adapted
pairs.

``graph_continuity_certify`` compresses the resolvent to the spectral window
of an adapted pair and verifies the resulting three-term bound on resolvent
differences.  ``riesz_continuity_certify`` splits the operator into lower /
window / upper spectral blocks, applies the bounded transform blockwise, and
verifies the seven-term bound on transform differences.  Both refuse to
return a certificate whose inequalities do not hold.

A chain, like a distance, works on whole ranges: each image it reads is one
array over the range, whose row k belongs to the range's k-th grid point,
built by ``spectral._spectral_functions`` and normed row by row by
``spectral._difference_norms``, in the form ``spectral._dense_range``
picks for the range.  When every point of the range holds its eigenbasis as
a permutation (the diagonal generators and diagonal matrix files), an image
is one (r, d) array of diagonals, built by one scatter, and its norms are
elementwise reductions with no eigensolver and no SVD; otherwise the image
is the (r, d, d) stack of each point's dense matrix, normed one slice per
LAPACK call.  Either way the values, and so every certificate field and
distance, are the same bits while the entries lie within about
[1e-146, 1e146], where ``eigvalsh`` returns a diagonal's entries exactly.
A dense range's resolvents at +i or bounded transforms are built from
decompositions alone, one stacked product per chunk of points, with the bits
of the public ``resolvent_at_i(op)`` or ``bounded_transform(op).entries``.

Both chains first contract the range around the base point: ``_contract``
walks outward from it on each side and stops at the first point where an
image leaves Frobenius distance delta of its base value, so it norms only
the points it keeps and one more per side.  Everything else is built on the
contracted ``range`` the certificate reports.  Every field is measured there,
except the Riesz chain's scalar outer-block defects, gated first on the
uncontracted range.  Certificates hold only their scalar bound chain, range
and level; no matrix leaves a chain.

A chain takes its adapted pair's range, level and rank from
``adapted._adapted_range`` and norms none of the pair's edges.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .adapted import (
    GridRange,
    level_candidates,
    level_margins,
    level_ranks,
    shrink_toward,
    truncation_ceiling,
    _adapted_range,
    _grown_ranges,
    _interval_modulus,
)
from .errors import (
    BoundViolated,
    EdgeOnSpectrum,
    NoGap,
    StrictAdaptednessFailed,
)
from .families import FamilySample
from .spectral import (
    TAU_EDGE_DEFAULT,
    TAU_RECONSTRUCT,
    HermitianOperator,
    _dense_range,
    _difference_norms,
    _hermitian_stack,
    _spectral_functions,
    bounded_transform_scalar,
    decompose,
    hermitian_norm,
    operator_norm,
)


def _norm(metric: str):
    return operator_norm if metric == "graph" else hermitian_norm


def _images(decs, metric: str, dense: bool) -> np.ndarray:
    """Row k: the resolvent at +i (``graph``) or the bounded transform
    (``riesz``) of the operator whose decomposition is ``decs[k]``.

    Dense, a row is what ``resolvent_at_i`` or ``bounded_transform(op).entries``
    returns; a Riesz row is symmetrized by ``_hermitian_stack``, the rule of
    ``HermitianOperator``, which a raw V f(Lambda) V* is not.  Otherwise it is
    the diagonal of the same matrix.
    """
    ev = np.stack([dec.eigenvalues for dec in decs])
    weights = 1.0 / (ev + 1j) if metric == "graph" else bounded_transform_scalar(ev)
    images = _spectral_functions(decs, np.ones(ev.shape, dtype=bool), weights, dense)
    return _hermitian_stack(images) if dense and metric == "riesz" else images


def _metric_distance(a: HermitianOperator, b: HermitianOperator, metric: str) -> float:
    if a.dim != b.dim:
        raise ValueError("operators must share a dimension")
    decs = (decompose(a), decompose(b))
    images = _images(decs, metric, _dense_range(decs))
    return float(_difference_norms(images[:1] - images[1:], _norm(metric))[0])


def graph_distance(a: HermitianOperator, b: HermitianOperator) -> float:
    """Operator-norm distance between the resolvents at +i."""
    return _metric_distance(a, b, "graph")


def riesz_distance(a: HermitianOperator, b: HermitianOperator) -> float:
    """Operator-norm distance between the bounded transforms."""
    return _metric_distance(a, b, "riesz")


@dataclass(frozen=True)
class ContinuityModuli:
    """Distance along each adjacent grid edge, plus the maximum."""

    metric: str
    per_edge: tuple[tuple[float, float, float], ...]
    max_modulus: float


def continuity_modulus(smp: FamilySample, metric: str = "graph") -> ContinuityModuli:
    """Adjacent-edge distances, the grid surrogate of a continuity statement."""
    if metric not in ("graph", "riesz"):
        raise ValueError(f"unknown metric {metric!r}")
    images = _images(smp.decompositions, metric, _dense_range(smp.decompositions))
    norms = _difference_norms(images[1:] - images[:-1], _norm(metric))
    values = [(smp.grid[y], smp.grid[y + 1], value) for y, value in enumerate(norms.tolist())]
    return ContinuityModuli(metric, tuple(values),
                            max(v for _, _, v in values) if values else 0.0)


@dataclass(frozen=True)
class GraphContinuityCertificate:
    """Verified bound chain for resolvent continuity around a base point.

    ``tail_bound`` caps the error of compressing the resolvent to the window,
    ``compressed_modulus`` the variation of the compressed resolvents over
    the range, and ``final_bound`` the resulting full resolvent variation:
    tail_bound < delta, compressed_modulus < delta, final_bound < 3 delta.
    """

    x_index: int
    delta: float
    level: float
    range: GridRange
    window_rank: int
    tail_bound: float
    compressed_modulus: float
    final_bound: float


def _contract(rng: GridRange, x_index: int, delta: float, *images) -> GridRange:
    """Shrink ``rng`` toward the base point until every image stays within
    Frobenius distance ``delta`` of its base-point value.

    Row k of each image belongs to grid point ``rng.lo_index + k``.
    Frobenius norms dominate spectral ones, so the contraction is safe and
    callers evaluate exact norms on the survivors only.  The base point has
    distance 0, so the range must only exclude the nearest far point on each
    side of it: the walk outward from the base point stops there, and the
    one-point shrinks stop once it is excluded.
    """
    base = x_index - rng.lo_index

    def far(k):
        return any(np.linalg.norm(image[k] - image[base]) >= delta for image in images)

    lo = next((y + 1 for y in range(x_index - 1, rng.lo_index - 1, -1)
               if far(y - rng.lo_index)), rng.lo_index)
    hi = next((y - 1 for y in range(x_index + 1, rng.hi_index + 1)
               if far(y - rng.lo_index)), rng.hi_index)
    while rng.lo_index < lo or rng.hi_index > hi:
        rng = shrink_toward(rng, x_index)
    return rng


def _rows(outer: GridRange, inner: GridRange) -> slice:
    """The rows of an image over ``outer`` that belong to ``inner``."""
    return slice(inner.lo_index - outer.lo_index, inner.hi_index - outer.lo_index + 1)


def _spread(image: np.ndarray, base: int, norm) -> float:
    """The largest norm of a row's difference from row ``base``."""
    return float(_difference_norms(image - image[base], norm).max())


def graph_continuity_certify(smp: FamilySample, x_index: int,
                             delta: float) -> GraphContinuityCertificate:
    """Certify resolvent continuity at ``x_index`` with tolerance ``delta``.

    Requires an adapted pair with level above 1/delta (``NoGap`` if the
    truncation ceiling forbids one: raise the dimension).  The range is then
    contracted around the base point until the compressed resolvents vary by
    less than delta, using a cheap Frobenius bound to drive the contraction
    and exact spectral norms on the surviving range.
    """
    if not 0 < delta < math.inf:
        raise ValueError("delta must be positive and finite")
    pair_rng, level, rank = _adapted_range(smp, x_index, 1.0 / delta)

    decs = smp.decompositions[pair_rng.lo_index:pair_rng.hi_index + 1]
    ev = smp.eigenvalue_matrix[pair_rng.lo_index:pair_rng.hi_index + 1]
    dense = _dense_range(decs)
    compressed = _spectral_functions(decs, np.abs(ev) <= level, 1.0 / (ev + 1j), dense)
    rng = _contract(pair_rng, x_index, delta, compressed)

    rows = _rows(pair_rng, rng)
    base = x_index - rng.lo_index
    compressed_modulus = _spread(compressed[rows], base, operator_norm)
    ev = ev[rows]
    tail_bound = float(np.max(1.0 / np.sqrt(1.0 + ev ** 2), where=np.abs(ev) > level,
                              initial=0.0))
    resolvents = _images(decs[rows], "graph", dense)
    final_bound = _spread(resolvents, base, operator_norm)

    if tail_bound >= delta:
        raise BoundViolated("tail_bound", tail_bound, delta)
    if compressed_modulus >= delta:
        raise BoundViolated("compressed_modulus", compressed_modulus, delta)
    if final_bound >= 3.0 * delta:
        raise BoundViolated("final_bound", final_bound, 3.0 * delta)

    return GraphContinuityCertificate(
        x_index=x_index,
        delta=float(delta),
        level=level,
        range=rng,
        window_rank=rank,
        tail_bound=tail_bound,
        compressed_modulus=compressed_modulus,
        final_bound=final_bound,
    )


@dataclass(frozen=True)
class StrictAdaptednessResult:
    """Continuity report for the upper spectral projections at one level."""

    passed: bool
    epsilon: float
    cap: float
    modulus: float
    range: GridRange
    window_rank: int


def strict_adaptedness_certify(smp: FamilySample, x_index: int, epsilon: float,
                               cap: float) -> StrictAdaptednessResult:
    """Check norm continuity of the projections onto [epsilon, infinity).

    The range is the maximal adapted range at level ``epsilon`` around the
    base point; the reported modulus is the largest adjacent-edge projection
    distance over it, and the check passes when that stays below ``cap``.
    The upper projection at each point is the one onto the eigen-indices
    [#(lambda < epsilon), dim), normed by ``adapted._interval_modulus``.  A
    cap must be non-negative.
    """
    if not epsilon > 0:
        raise ValueError("epsilon must be positive")
    if not cap >= 0:
        raise ValueError("the modulus cap must be non-negative")
    if not 0 <= x_index < len(smp):
        raise ValueError("base index outside the grid")
    margins = level_margins(smp.eigenvalue_matrix, epsilon)
    ranks = level_ranks(smp.eigenvalue_matrix, epsilon)
    if not margins[x_index] >= TAU_EDGE_DEFAULT:
        raise EdgeOnSpectrum(epsilon, float(margins[x_index]), grid_index=x_index)
    lo, hi = _grown_ranges(margins, ranks, x_index)
    rng = GridRange(int(lo), int(hi))
    starts = (smp.eigenvalue_matrix[rng.lo_index:rng.hi_index + 1] < epsilon).sum(axis=1)
    modulus, _ = _interval_modulus(smp, rng.lo_index, starts, np.full_like(starts, smp.dim))
    return StrictAdaptednessResult(
        passed=modulus < cap,
        epsilon=float(epsilon),
        cap=float(cap),
        modulus=modulus,
        range=rng,
        window_rank=int(ranks[x_index]),
    )


@dataclass(frozen=True)
class RieszContinuityCertificate:
    """Verified bound chain for transform continuity around a base point.

    The operator is split at +-level into lower / window / upper blocks.
    ``split_residual`` measures the blockwise reassembly of the transform and
    ``upper_split_residual`` the split of the upper projection as "everything
    >= strict level" minus the band below ``level`` (both refused above
    ``TAU_RECONSTRUCT``), ``upper_defect`` / ``lower_defect`` the distance of
    the transformed outer blocks from +-(their projections), the three moduli
    the variation of the window transform and outer projections relative to
    the base point, and ``final_bound`` the resulting transform variation
    (< 7 delta).

    The two defects are maxima over the strict-adapted range intersected with
    the pair's range; every other field is on ``range``.
    """

    x_index: int
    delta: float
    transform: str
    strict_level: float
    strict_modulus: float
    level: float
    range: GridRange
    window_rank: int
    split_residual: float
    upper_split_residual: float
    upper_defect: float
    lower_defect: float
    center_modulus: float
    lower_projection_modulus: float
    upper_projection_modulus: float
    final_bound: float


def _riesz_chain_certify(smp: FamilySample, x_index: int, delta: float, cap: float,
                         value_map, threshold: float, transform_name: str,
                         level_ceiling: float | None = None) -> RieszContinuityCertificate:
    """Shared engine: strict adaptedness, outer-block bounds, 7-delta chain.

    ``value_map`` is the scalar function applied blockwise (the bounded
    transform, or the identity for families that are already contractions);
    ``threshold`` is the level above which the transformed upper block sits
    within delta of its projection.
    """
    if not 0.0 < delta < 0.5:
        raise ValueError("delta must lie in (0, 1/2)")
    if not cap >= 0:
        raise ValueError("the modulus cap must be non-negative")
    if not 0 <= x_index < len(smp):
        raise ValueError("base index outside the grid")
    ceiling = truncation_ceiling(smp)
    if level_ceiling is not None:
        ceiling = min(ceiling, level_ceiling)

    ev_x = smp.eigenvalue_matrix[x_index]
    pair = None
    saw_strict_pass = False
    for eps in level_candidates(ev_x[ev_x > 0.0], 0.0, ceiling)[0].tolist():
        try:
            strict_result = strict_adaptedness_certify(smp, x_index, eps, cap)
        except EdgeOnSpectrum:
            continue
        if not strict_result.passed:
            continue
        saw_strict_pass = True
        b_req = max(eps * (1.0 + 1e-12), threshold)
        try:
            pair = _adapted_range(smp, x_index, b_req, ceiling=ceiling)
        except NoGap:
            continue
        break
    if pair is None:
        if not saw_strict_pass:
            raise StrictAdaptednessFailed(
                x_index, "no level keeps the upper projections norm continuous"
            )
        raise NoGap(threshold, ceiling, x_index)

    pair_rng, level, rank = pair
    strict_eps = strict_result.epsilon
    outer = strict_result.range.intersect(pair_rng)

    # phase 1, on strict ∩ pair: the scalar defects, then only what the
    # contraction reads
    ev = smp.eigenvalue_matrix[outer.lo_index:outer.hi_index + 1]
    fv = value_map(ev)
    upper_defect = float(np.max(np.abs(fv - 1.0), where=ev >= level, initial=0.0))
    lower_defect = float(np.max(np.abs(fv + 1.0), where=ev <= -level, initial=0.0))
    if upper_defect >= delta:
        raise BoundViolated("upper_defect", upper_defect, delta)
    if lower_defect >= delta:
        raise BoundViolated("lower_defect", lower_defect, delta)

    decs = smp.decompositions[outer.lo_index:outer.hi_index + 1]
    dense = _dense_range(decs)
    inner = np.abs(ev) < level
    upper_q = _spectral_functions(decs, ev >= level, dense=dense)
    # the lower projection is exact by construction
    eye = np.eye(smp.dim) if dense else np.ones(smp.dim)
    lower_q = eye - _spectral_functions(decs, inner, dense=dense) - upper_q
    block_center = _spectral_functions(decs, inner, fv, dense)
    rng = _contract(outer, x_index, delta, block_center, lower_q, upper_q)

    # phase 2, on the contracted range the certificate reports
    rows = _rows(outer, rng)
    base = x_index - rng.lo_index
    decs, ev, fv = decs[rows], ev[rows], fv[rows]
    upper_q, lower_q, block_center = upper_q[rows], lower_q[rows], block_center[rows]
    block_lower = _spectral_functions(decs, ev <= -level, fv, dense)
    block_upper = _spectral_functions(decs, ev >= level, fv, dense)
    full_image = _spectral_functions(decs, np.ones(ev.shape, dtype=bool), fv, dense)
    split_residual = float(_difference_norms(
        full_image - (block_lower + block_center + block_upper), hermitian_norm).max())
    # the upper projection equals "everything >= strict level" minus the
    # [strict level, level) part of the window block; level > strict level
    # because the pair is searched above it
    p_eps = _spectral_functions(decs, ev >= strict_eps, dense=dense)
    p_band = _spectral_functions(decs, (ev >= strict_eps) & (ev < level), dense=dense)
    upper_split_residual = float(_difference_norms(upper_q - (p_eps - p_band),
                                                   hermitian_norm).max())
    center_modulus = _spread(block_center, base, hermitian_norm)
    lower_projection_modulus = _spread(lower_q, base, hermitian_norm)
    upper_projection_modulus = _spread(upper_q, base, hermitian_norm)
    final_bound = _spread(full_image, base, hermitian_norm)

    for name, value in (("split_residual", split_residual),
                        ("upper_split_residual", upper_split_residual)):
        if value > TAU_RECONSTRUCT:
            raise BoundViolated(name, value, TAU_RECONSTRUCT)
    for name, value in (("center_modulus", center_modulus),
                        ("lower_projection_modulus", lower_projection_modulus),
                        ("upper_projection_modulus", upper_projection_modulus)):
        if value >= delta:
            raise BoundViolated(name, value, delta)
    if final_bound >= 7.0 * delta:
        raise BoundViolated("final_bound", final_bound, 7.0 * delta)

    return RieszContinuityCertificate(
        x_index=x_index,
        delta=float(delta),
        transform=transform_name,
        strict_level=strict_result.epsilon,
        strict_modulus=strict_result.modulus,
        level=level,
        range=rng,
        window_rank=rank,
        split_residual=split_residual,
        upper_split_residual=upper_split_residual,
        upper_defect=upper_defect,
        lower_defect=lower_defect,
        center_modulus=center_modulus,
        lower_projection_modulus=lower_projection_modulus,
        upper_projection_modulus=upper_projection_modulus,
        final_bound=final_bound,
    )


def transform_clearing_level(delta: float) -> float:
    """Smallest level whose bounded transform exceeds 1 - delta."""
    if not 0.0 < delta < 0.5:
        raise ValueError("delta must lie in (0, 1/2)")
    return (1.0 - delta) / math.sqrt(delta * (2.0 - delta))


def riesz_continuity_certify(smp: FamilySample, x_index: int, delta: float,
                             cap: float) -> RieszContinuityCertificate:
    """Certify transform continuity at ``x_index`` with tolerance ``delta``.

    Scans window levels for one whose upper projections are norm continuous
    (modulus below ``cap``), then picks a larger level whose bounded
    transform clears 1 - delta, splits the operator there, and verifies the
    full bound chain.  Raises ``StrictAdaptednessFailed`` when no level makes
    the upper projections continuous, ``NoGap`` when the ceiling forbids the
    larger level, and ``BoundViolated`` when an inequality fails.  A cap must
    be non-negative.
    """
    return _riesz_chain_certify(
        smp, x_index, delta, cap,
        value_map=bounded_transform_scalar,
        threshold=transform_clearing_level(delta),
        transform_name="bounded",
    )
