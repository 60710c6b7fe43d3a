"""Compactly polarized families: self-adjoint contractions whose spectrum
clusters at +-1 except for a small interior budget.

At finite dimension "essential spectrum {-1, +1}" has no literal meaning; the
surrogate is a band width ``eta`` and an interior budget ``m``: all but at
most ``m`` eigenvalues must sit within ``eta`` of +-1, the norm must not
exceed 1 + slack, and both bands must be populated.  Weak discrete-spectrum
certification then searches window levels inside (0, 1) only, mirroring the
unbounded search through the bounded transform, under which the two sides
correspond level-for-level and rank-for-rank.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .adapted import (
    SWEEP_COUNT,
    DiscreteSpectrumReport,
    _scan_levels,
    discrete_spectrum_certify,
    level_ranks,
    truncation_ceiling,
)
from .errors import FamilyModelError, PolarizationCheckFailed
from .families import FamilySample, essential_sign_check
from .spectral import HermitianOperator, bounded_transform_scalar, decompose
from .topology import RieszContinuityCertificate, _riesz_chain_certify

DEFAULT_BAND_WIDTH = 0.1
DEFAULT_NORM_SLACK = 1e-9


@dataclass(frozen=True)
class PolarizationCheck:
    """Band width, interior budget and norm slack for the polarization test."""

    eta: float = DEFAULT_BAND_WIDTH
    interior_budget: int | None = None
    norm_slack: float = DEFAULT_NORM_SLACK

    def __post_init__(self):
        if not 0.0 < self.eta < 1.0:
            raise ValueError("band width eta must lie in (0, 1)")
        budget = self.interior_budget
        if budget is not None and (isinstance(budget, bool)
                                   or not isinstance(budget, numbers.Integral) or budget < 0):
            raise ValueError("interior budget must be non-negative")
        if not self.norm_slack >= 0.0:
            raise ValueError("norm slack must be non-negative")

    def budget_for(self, dim: int) -> int:
        return dim // 4 if self.interior_budget is None else self.interior_budget


@dataclass(frozen=True)
class PolarizationReport:
    passed: bool
    norm: float
    interior_count: int
    near_minus_count: int
    near_plus_count: int
    budget: int
    check: PolarizationCheck


def compact_polarization_check(op: HermitianOperator,
                               check: PolarizationCheck | None = None) -> PolarizationReport:
    """Is this operator a plausible finite stand-in for a polarized one?

    Passes when the norm is at most 1 + slack, at most ``m`` eigenvalues lie
    strictly inside (-1 + eta, 1 - eta), and each of the two bands around
    +-1 contains at least one eigenvalue.
    """
    if check is None:
        check = PolarizationCheck()
    ev = decompose(op).eigenvalues
    budget = check.budget_for(op.dim)
    norm = float(np.max(np.abs(ev)))
    interior = int(np.sum(np.abs(ev) < 1.0 - check.eta))
    near_minus = int(np.sum(np.abs(ev + 1.0) <= check.eta))
    near_plus = int(np.sum(np.abs(ev - 1.0) <= check.eta))
    passed = (norm <= 1.0 + check.norm_slack
              and interior <= budget
              and near_minus >= 1
              and near_plus >= 1)
    return PolarizationReport(passed, norm, interior, near_minus, near_plus,
                              budget, check)


def weak_discrete_spectrum_certify(smp: FamilySample, b_levels,
                                   check: PolarizationCheck | None = None,
                                   level_ceiling: float | None = None,
                                   include_definitional: bool = True) -> DiscreteSpectrumReport:
    """Adapted pairs at every grid point with levels confined to (b, 1).

    Every fiber must pass the polarization test first.  The level search is
    capped at ``level_ceiling`` (by default 1 - eta, the inner edge of the
    essential band: wider windows would swallow the band, the finite shadow
    of infinite rank).  A companion shift sweep over the open essential-free
    zone plays the definitional oracle, exactly as in the unbounded setting.
    """
    if check is None:
        check = PolarizationCheck()
    b_levels = tuple(float(b) for b in b_levels)
    if not b_levels or any(not 0.0 < b < 1.0 for b in b_levels):
        raise ValueError("b_levels must lie strictly inside (0, 1)")
    if len(set(b_levels)) != len(b_levels):
        raise ValueError("b_levels must not repeat a level")
    for y, op in enumerate(smp.operators):
        report = compact_polarization_check(op, check)
        if not report.passed:
            raise PolarizationCheckFailed(
                y,
                f"norm {report.norm:.6g}, {report.interior_count} interior "
                f"(budget {report.budget}), bands ({report.near_minus_count}, "
                f"{report.near_plus_count})",
            )
    if level_ceiling is None:
        level_ceiling = 1.0 - check.eta
    shifts = None
    if include_definitional:
        shifts = np.linspace(-level_ceiling, level_ceiling, SWEEP_COUNT + 2)[1:-1]
    return _scan_levels(smp, b_levels, level_ceiling, shifts)


@dataclass(frozen=True)
class CorrespondenceReport:
    """Level-for-level comparison of a family with its bounded transform."""

    equivalent: bool
    rank_identity_ok: bool
    mismatches: tuple[tuple[float, int], ...]
    discrete_passed: bool
    weak_passed: bool
    band_width: float
    interior_budget: int
    transformed_levels: tuple[float, ...]


def _untransformable_levels(b_levels) -> list[float]:
    """The positive finite ``b_levels`` whose bounded transforms round to 1
    (from b ~ 9.5e7 on) or coincide (6e7 and 6.1e7): the weak scan refuses them."""
    levels = sorted({float(b) for b in b_levels if 0 < b < math.inf})
    images = [float(bounded_transform_scalar(b)) for b in levels]
    return [b for b, g in zip(levels, images) if g >= 1.0 or images.count(g) > 1]


def transform_correspondence_check(smp: FamilySample, b_levels) -> CorrespondenceReport:
    """Check that wide-window certificates transport through the bounded transform.

    Runs the unbounded certification at the given levels and the weak
    certification of the transformed family at the transformed levels, with
    the polarization surrogate derived from the sample itself: the band width
    is set by the smallest one-sided spectral reach along the grid and the
    level ceiling by the transformed truncation ceiling, so admissible
    windows correspond bijectively.  Also verifies, certificate by
    certificate, that window ranks agree exactly across the transform.  The
    definitional sweeps are not run.  Levels ``_untransformable_levels``
    names are refused first.
    """
    untransformable = _untransformable_levels(b_levels)
    if untransformable:
        raise ValueError(f"b_levels {untransformable} do not map to distinct "
                         "transformed levels inside (0, 1)")
    sign = essential_sign_check(smp)
    if not sign.passed:
        raise FamilyModelError(
            "sample must carry both spectrum signs at every grid point "
            f"(threshold {sign.threshold}); failing points {sign.failing_points}"
        )
    ceiling = truncation_ceiling(smp)
    ev = smp.eigenvalue_matrix
    side_reach = min(float(np.min(-ev.min(axis=1))), float(np.min(ev.max(axis=1))))
    band_edge = float(bounded_transform_scalar(min(side_reach, ceiling)))
    check = PolarizationCheck(
        eta=1.0 - band_edge,
        interior_budget=int(np.max(np.sum(np.abs(ev) < min(side_reach, ceiling), axis=1))),
        norm_slack=1e-12,
    )
    transformed = smp.bounded_transformed()
    transformed_levels = tuple(float(bounded_transform_scalar(b)) for b in b_levels)

    discrete = discrete_spectrum_certify(smp, b_levels, include_definitional=False)
    weak = weak_discrete_spectrum_certify(
        transformed, transformed_levels, check=check,
        level_ceiling=float(bounded_transform_scalar(ceiling)),
        include_definitional=False,
    )

    mismatches = []
    for b, gb in zip(discrete.b_levels, weak.b_levels):
        for x in range(len(smp)):
            have = discrete.certificates[b][x] is not None
            have_weak = weak.certificates[gb][x] is not None
            if have != have_weak:
                mismatches.append((float(b), x))

    transformed_ev = transformed.eigenvalue_matrix
    rank_ok = True
    # grid points and b levels share certificates; check each distinct one once
    distinct = {(c.range, c.level, c.rank) for per_x in discrete.certificates.values()
                for c in per_x if c is not None}
    for rng, level, rank in distinct:
        glevel = float(bounded_transform_scalar(level))
        if np.any(level_ranks(transformed_ev[rng.lo_index:rng.hi_index + 1], glevel) != rank):
            rank_ok = False

    return CorrespondenceReport(
        equivalent=(discrete.passed == weak.passed and not mismatches and rank_ok),
        rank_identity_ok=rank_ok,
        mismatches=tuple(mismatches),
        discrete_passed=discrete.passed,
        weak_passed=weak.passed,
        band_width=check.eta,
        interior_budget=check.budget_for(smp.dim),
        transformed_levels=transformed_levels,
    )


def polarized_continuity_certify(smp: FamilySample, x_index: int, delta: float,
                                 cap: float,
                                 level_ceiling: float | None = None) -> RieszContinuityCertificate:
    """Norm-continuity certificate for a polarized family, windows inside (-1, 1).

    The family is already a contraction, so the blockwise transform is the
    identity and the outer-block bounds need a level above 1 - delta.  The
    rest of the chain is the one behind ``riesz_continuity_certify`` with the
    level domain reparametrized to (0, 1).
    """
    return _riesz_chain_certify(
        smp, x_index, delta, cap,
        value_map=lambda values: np.asarray(values, dtype=float),
        threshold=1.0 - delta,
        transform_name="identity",
        level_ceiling=level_ceiling,
    )
