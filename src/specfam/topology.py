"""Graph (uniform resolvent) and Riesz distances, continuity moduli along a
grid, and the two quantitative continuity certificates built from adapted
pairs.

``graph_continuity_certify`` compresses the resolvent to the spectral window
of an adapted pair and verifies the resulting three-term bound on resolvent
differences.  ``riesz_continuity_certify`` splits the operator into lower /
window / upper spectral blocks, applies the bounded transform blockwise, and
verifies the seven-term bound on transform differences.  Both refuse to
return a certificate whose inequalities do not hold.

Both chains first contract the range around the base point, building only
what the contraction reads, then build everything else on the contracted
``range`` they report.  Every field is measured there, except the Riesz
chain's scalar outer-block defects, gated first on the uncontracted range.

Every matrix a chain or a distance reads is built by
``spectral._spectral_function`` and normed by ``spectral._difference_norm``.
When every point of the chain holds its eigenbasis as a permutation (the
diagonal generators and diagonal matrix files), each image is the length-d
diagonal of its operator; otherwise all of them are dense.  Either way the
values, and so every certificate field and distance, are the same bits.  A
dense resolvent at +i or bounded transform is the public
``resolvent_at_i(op)`` or ``bounded_transform(op).entries``, and certificates
embed dense d x d matrices in both forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .adapted import (
    GridRange,
    find_adapted_pair,
    level_candidates,
    level_margins,
    level_ranks,
    shrink_toward,
    truncation_ceiling,
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
    _dense_form,
    _difference_norm,
    _spectral_function,
    bounded_transform,
    bounded_transform_scalar,
    decompose,
    hermitian_norm,
    operator_norm,
    resolvent_at_i,
)

#: matrices are embedded in certificates only up to this dimension
EMBED_DIM_LIMIT = 64


def _dense_chain(decompositions) -> bool:
    """Whether a chain over these decompositions builds dense images: unless
    every one is in permutation form, all of them are."""
    return any(dec.order is None for dec in decompositions)


def _image(op: HermitianOperator, metric: str, dense: bool) -> np.ndarray:
    """The resolvent at +i (``graph``) or the bounded transform (``riesz``) of ``op``.

    Dense, it is what ``resolvent_at_i`` or ``bounded_transform(op).entries``
    returns; the latter is symmetrized by ``HermitianOperator``, which a raw
    V f(Lambda) V* is not.  Otherwise it is the diagonal of the same matrix.
    """
    if dense:
        return resolvent_at_i(op) if metric == "graph" else bounded_transform(op).entries
    dec = decompose(op)
    ev = dec.eigenvalues
    weights = 1.0 / (ev + 1j) if metric == "graph" else bounded_transform_scalar(ev)
    return _spectral_function(dec, np.ones(ev.shape, dtype=bool), weights)


def _metric_distance(a: HermitianOperator, b: HermitianOperator, metric: str) -> float:
    if a.dim != b.dim:
        raise ValueError("operators must share a dimension")
    dense = _dense_chain((decompose(a), decompose(b)))
    return _difference_norm(_image(a, metric, dense), _image(b, metric, dense),
                            operator_norm if metric == "graph" else hermitian_norm)


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
    dense = _dense_chain(smp.decompositions)
    images = [_image(op, metric, dense) for op in smp.operators]
    norm = operator_norm if metric == "graph" else hermitian_norm
    values = [(smp.grid[y], smp.grid[y + 1], _difference_norm(images[y + 1], images[y], norm))
              for y in range(len(smp) - 1)]
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
    compressed_resolvents: tuple[np.ndarray, ...] | None


def _contract(rng: GridRange, x_index: int, delta: float, *images) -> GridRange:
    """Shrink ``rng`` toward the base point until every image stays within
    Frobenius distance ``delta`` of its base-point value.

    Frobenius norms dominate spectral ones, so the contraction is safe and
    callers evaluate exact norms on the survivors only.  A single point has
    distance 0, so the loop ends.
    """
    frob = {y: max(float(np.linalg.norm(image[y] - image[x_index])) for image in images)
            for y in rng.indices()}
    while max(frob[y] for y in rng.indices()) >= delta:
        rng = shrink_toward(rng, x_index)
    return rng


def _compressed_resolvent(dec, level: float, dense: bool) -> np.ndarray:
    mask = np.abs(dec.eigenvalues) <= level
    return _spectral_function(dec, mask, 1.0 / (dec.eigenvalues + 1j), dense)


def graph_continuity_certify(smp: FamilySample, x_index: int,
                             delta: float) -> GraphContinuityCertificate:
    """Certify resolvent continuity at ``x_index`` with tolerance ``delta``.

    Requires an adapted pair with level above 1/delta (``NoGap`` if the
    truncation ceiling forbids one: raise the dimension).  The range is then
    contracted around the base point until the compressed resolvents vary by
    less than delta, using a cheap Frobenius bound to drive the contraction
    and exact spectral norms on the surviving range.
    """
    if not delta > 0:
        raise ValueError("delta must be positive")
    pair = find_adapted_pair(smp, x_index, 1.0 / delta)
    level = pair.level
    rng = pair.range

    dense = _dense_chain(smp.decompositions[rng.lo_index:rng.hi_index + 1])
    compressed = {y: _compressed_resolvent(smp.decompositions[y], level, dense)
                  for y in rng.indices()}
    base = compressed[x_index]
    rng = _contract(rng, x_index, delta, compressed)

    compressed_modulus = max(
        _difference_norm(compressed[y], base, operator_norm) for y in rng.indices()
    )
    tail_bound = 0.0
    for y in rng.indices():
        ev = smp.decompositions[y].eigenvalues
        outside = ev[np.abs(ev) > level]
        if outside.size:
            tail_bound = max(tail_bound, float(np.max(1.0 / np.sqrt(1.0 + outside ** 2))))
    resolvents = {y: _image(smp.operators[y], "graph", dense) for y in rng.indices()}
    final_bound = max(
        _difference_norm(resolvents[y], resolvents[x_index], operator_norm)
        for y in rng.indices()
    )

    if tail_bound >= delta:
        raise BoundViolated("tail_bound", tail_bound, delta)
    if compressed_modulus >= delta:
        raise BoundViolated("compressed_modulus", compressed_modulus, delta)
    if final_bound >= 3.0 * delta:
        raise BoundViolated("final_bound", final_bound, 3.0 * delta)

    embed = None
    if smp.dim <= EMBED_DIM_LIMIT:
        embed = tuple(_dense_form(compressed[y]) for y in rng.indices())
    return GraphContinuityCertificate(
        x_index=x_index,
        delta=float(delta),
        level=level,
        range=rng,
        window_rank=pair.rank,
        tail_bound=tail_bound,
        compressed_modulus=compressed_modulus,
        final_bound=final_bound,
        compressed_resolvents=embed,
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
    [#(lambda < epsilon), dim), normed by ``adapted._interval_modulus``.
    """
    if not epsilon > 0:
        raise ValueError("epsilon must be positive")
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
    the pair's range; every other field, matrices included, is on ``range``.
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
    projections: tuple | None
    transform_blocks: tuple | None


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
    if not 0 <= x_index < len(smp):
        raise ValueError("base index outside the grid")
    ceiling = truncation_ceiling(smp)
    if level_ceiling is not None:
        ceiling = min(ceiling, level_ceiling)

    ev_x = smp.eigenvalue_matrix[x_index]
    strict_result = None
    pair = None
    saw_strict_pass = False
    for eps in level_candidates(ev_x[ev_x > 0.0], 0.0, ceiling)[0].tolist():
        try:
            candidate = strict_adaptedness_certify(smp, x_index, eps, cap)
        except EdgeOnSpectrum:
            continue
        if not candidate.passed:
            continue
        saw_strict_pass = True
        b_req = max(eps * (1.0 + 1e-12), threshold)
        try:
            found = find_adapted_pair(smp, x_index, b_req, ceiling=ceiling)
        except NoGap:
            continue
        strict_result = candidate
        pair = found
        break
    if pair is None:
        if not saw_strict_pass:
            raise StrictAdaptednessFailed(
                x_index, "no level keeps the upper projections norm continuous"
            )
        raise NoGap(threshold, ceiling, x_index)

    level = pair.level
    strict_eps = strict_result.epsilon
    rng = strict_result.range.intersect(pair.range)

    # phase 1, on strict ∩ pair: the scalar defects, then only what the
    # contraction reads
    ev_rng = smp.eigenvalue_matrix[rng.lo_index:rng.hi_index + 1]
    fv_rng = value_map(ev_rng)
    upper_defect = float(np.max(np.abs(fv_rng - 1.0), where=ev_rng >= level, initial=0.0))
    lower_defect = float(np.max(np.abs(fv_rng + 1.0), where=ev_rng <= -level, initial=0.0))
    if upper_defect >= delta:
        raise BoundViolated("upper_defect", upper_defect, delta)
    if lower_defect >= delta:
        raise BoundViolated("lower_defect", lower_defect, delta)

    window_q = {}
    upper_q = {}
    lower_q = {}
    block_center = {}
    dense = _dense_chain(smp.decompositions[rng.lo_index:rng.hi_index + 1])
    eye = np.eye(smp.dim) if dense else np.ones(smp.dim)
    for y, ev, fv in zip(rng.indices(), ev_rng, fv_rng):
        dec = smp.decompositions[y]
        inner = np.abs(ev) < level
        window_q[y] = _spectral_function(dec, inner, dense=dense)
        upper_q[y] = _spectral_function(dec, ev >= level, dense=dense)
        lower_q[y] = eye - window_q[y] - upper_q[y]  # exact by construction
        block_center[y] = _spectral_function(dec, inner, fv, dense)
    rng = _contract(rng, x_index, delta, block_center, lower_q, upper_q)

    # phase 2, on the contracted range the certificate reports
    split_residual = upper_split_residual = 0.0
    center_modulus = lower_projection_modulus = upper_projection_modulus = 0.0
    full_image = {}
    projections = []
    blocks = []
    embed = smp.dim <= EMBED_DIM_LIMIT
    for y in rng.indices():
        dec = smp.decompositions[y]
        ev = dec.eigenvalues
        fv = value_map(ev)
        block_lower = _spectral_function(dec, ev <= -level, fv, dense)
        block_upper = _spectral_function(dec, ev >= level, fv, dense)
        full_image[y] = _spectral_function(dec, np.ones(ev.shape, dtype=bool), fv, dense)
        if embed:
            projections.append(tuple(map(_dense_form, (window_q[y], upper_q[y], lower_q[y]))))
            blocks.append(tuple(map(_dense_form, (block_lower, block_center[y], block_upper))))
        split_residual = max(split_residual, _difference_norm(
            full_image[y], block_lower + block_center[y] + block_upper, hermitian_norm))
        # the upper projection equals "everything >= strict level" minus the
        # [strict level, level) part of the window block; level > strict level
        # because the pair is searched above it
        p_eps = _spectral_function(dec, ev >= strict_eps, dense=dense)
        p_band = _spectral_function(dec, (ev >= strict_eps) & (ev < level), dense=dense)
        upper_split_residual = max(upper_split_residual,
                                   _difference_norm(upper_q[y], p_eps - p_band, hermitian_norm))
        center_modulus = max(center_modulus, _difference_norm(
            block_center[y], block_center[x_index], hermitian_norm))
        lower_projection_modulus = max(lower_projection_modulus, _difference_norm(
            lower_q[y], lower_q[x_index], hermitian_norm))
        upper_projection_modulus = max(upper_projection_modulus, _difference_norm(
            upper_q[y], upper_q[x_index], hermitian_norm))
    final_bound = max(_difference_norm(full_image[y], full_image[x_index], hermitian_norm)
                      for y in rng.indices())

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
        window_rank=pair.rank,
        split_residual=split_residual,
        upper_split_residual=upper_split_residual,
        upper_defect=upper_defect,
        lower_defect=lower_defect,
        center_modulus=center_modulus,
        lower_projection_modulus=lower_projection_modulus,
        upper_projection_modulus=upper_projection_modulus,
        final_bound=final_bound,
        projections=tuple(projections) if embed else None,
        transform_blocks=tuple(blocks) if embed else None,
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
    larger level, and ``BoundViolated`` when an inequality fails.
    """
    return _riesz_chain_certify(
        smp, x_index, delta, cap,
        value_map=bounded_transform_scalar,
        threshold=transform_clearing_level(delta),
        transform_name="bounded",
    )
