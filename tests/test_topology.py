import dataclasses
import math

import numpy as np
import pytest

from specfam import (
    FamilySpec,
    GridRange,
    HermitianOperator,
    ParameterGrid,
    PolarizationCheck,
    bounded_transform_scalar,
    certify_adapted_pair,
    continuity_modulus,
    covering_construction,
    diagonal_operator,
    discrete_spectrum_certify,
    find_adapted_pair,
    graph_continuity_certify,
    graph_distance,
    operator_norm,
    polarized_continuity_certify,
    riesz_continuity_certify,
    riesz_distance,
    resolvent_at_i,
    sample,
    strict_adaptedness_certify,
    transform_clearing_level,
)
from specfam import topology
from specfam.errors import BoundViolated, NoGap, StrictAdaptednessFailed
from specfam.spectral import TAU_EDGE_DEFAULT, TAU_RECONSTRUCT, hermitian_norm, projector

from conftest import constant_sample, random_hermitian


def scalar_graph(a, b):
    return abs(1 / (a + 1j) - 1 / (b + 1j))


def scalar_riesz(a, b):
    return abs(a / math.sqrt(1 + a * a) - b / math.sqrt(1 + b * b))


def tangent_sample(points_per_side=100, inner=0.48):
    pts = np.concatenate([np.linspace(0.1, inner, points_per_side),
                          np.linspace(1.0 - inner, 0.9, points_per_side)])
    return sample(FamilySpec("tangent_blowup", 5), ParameterGrid(pts))


class TestDistances:
    def test_zero_on_equal_operators(self, rng):
        op = random_hermitian(rng, 6)
        twin = HermitianOperator(op.entries.copy())
        assert graph_distance(op, twin) <= 1e-12
        assert riesz_distance(op, twin) <= 1e-12

    def test_graph_scalar_case(self):
        value = graph_distance(diagonal_operator([0.0]), diagonal_operator([1.0]))
        assert value == pytest.approx(abs(-1j - (0.5 - 0.5j)))
        assert value == pytest.approx(1 / math.sqrt(2))

    def test_far_apart_resolvents_are_close(self):
        value = graph_distance(diagonal_operator([1e6]), diagonal_operator([-1e6]))
        assert value == pytest.approx(scalar_graph(1e6, -1e6), rel=1e-9)
        assert value < 3e-6

    def test_riesz_separates_the_same_pair(self):
        value = riesz_distance(diagonal_operator([1e6]), diagonal_operator([-1e6]))
        assert value == pytest.approx(2.0, abs=1e-9)

    def test_riesz_unit_pair(self):
        value = riesz_distance(diagonal_operator([1.0]), diagonal_operator([-1.0]))
        assert value == pytest.approx(math.sqrt(2.0))

    def test_commuting_pairs_match_scalar_formulas(self, rng):
        # operators sharing an eigenbasis reduce both metrics to scalar maxima
        for _ in range(10):
            dim = 7
            basis = np.linalg.qr(rng.standard_normal((dim, dim))
                                 + 1j * rng.standard_normal((dim, dim)))[0]
            ev_a = np.sort(rng.uniform(-4, 4, dim))
            ev_b = np.sort(rng.uniform(-4, 4, dim))
            a = HermitianOperator((basis * ev_a) @ basis.conj().T)
            b = HermitianOperator((basis * ev_b) @ basis.conj().T)
            expect_graph = max(scalar_graph(x, y) for x, y in zip(ev_a, ev_b))
            expect_riesz = max(scalar_riesz(x, y) for x, y in zip(ev_a, ev_b))
            assert abs(graph_distance(a, b) - expect_graph) <= TAU_RECONSTRUCT
            assert abs(riesz_distance(a, b) - expect_riesz) <= TAU_RECONSTRUCT

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            graph_distance(diagonal_operator([1.0]), diagonal_operator([1.0, 2.0]))


class TestContinuityModulus:
    def test_constant_family_zero(self):
        moduli = continuity_modulus(constant_sample([-1.0, 1.0]), "graph")
        assert moduli.max_modulus == 0.0
        assert all(v == 0.0 for _, _, v in moduli.per_edge)

    def test_tangent_pole_edge_graph_vs_riesz(self):
        smp = tangent_sample()
        a, b = math.tan(0.48 * math.pi), math.tan(0.52 * math.pi)
        graph = continuity_modulus(smp, "graph")
        riesz = continuity_modulus(smp, "riesz")
        pole_edge = 99  # between the two sides of the excluded window
        assert graph.per_edge[pole_edge][2] == pytest.approx(scalar_graph(a, b), abs=1e-9)
        assert riesz.per_edge[pole_edge][2] == pytest.approx(scalar_riesz(a, b), abs=1e-9)
        assert riesz.per_edge[pole_edge][2] > 1.9
        assert graph.per_edge[pole_edge][2] < 0.2

    def test_unknown_metric(self):
        with pytest.raises(ValueError):
            continuity_modulus(constant_sample([1.0, -1.0]), "hausdorff")


class TestGraphContinuityCertify:
    def test_constant_family_tail_formula(self):
        smp = constant_sample([-30.0, -1.0, 1.0, 30.0])
        cert = graph_continuity_certify(smp, 2, 0.05)
        assert cert.compressed_modulus == 0.0
        assert cert.final_bound == 0.0
        assert cert.tail_bound == pytest.approx(1 / math.sqrt(1 + 900.0))
        assert cert.tail_bound < 0.05

    def test_dirac_centered_flux(self):
        grid = ParameterGrid.linspace(-0.49, 0.49, 99)
        smp = sample(FamilySpec("dirac_circle", 41), grid)
        cert = graph_continuity_certify(smp, 49, 0.2)
        assert cert.level > 5.0
        assert cert.tail_bound < 0.2
        assert cert.compressed_modulus < 0.2
        assert cert.final_bound < 0.6
        assert cert.range.contains(49)

    def test_small_padding_hits_ceiling(self):
        smp = sample(FamilySpec("linear_crossing", 3),
                     ParameterGrid.linspace(0.4, 0.6, 5))
        with pytest.raises(NoGap):
            graph_continuity_certify(smp, 2, 0.5)
        wider = sample(FamilySpec("linear_crossing", 5),
                       ParameterGrid.linspace(0.4, 0.6, 5))
        cert = graph_continuity_certify(wider, 2, 0.5)
        assert cert.level > 2.0

    def test_delta_must_be_positive(self):
        with pytest.raises(ValueError):
            graph_continuity_certify(constant_sample([1.0, -1.0]), 0, 0.0)

    def test_perturbed_ladder_with_rotating_eigenvectors(self):
        smp = sample(FamilySpec("harmonic_perturbed", 16, {"coupling": (0.0, 0.6)}),
                     ParameterGrid.linspace(0.0, 1.0, 41))
        cert = graph_continuity_certify(smp, 20, 0.45)
        assert cert.level > 1 / 0.45
        assert cert.tail_bound < 0.45
        assert cert.compressed_modulus < 0.45
        assert cert.final_bound < 3 * 0.45
        # resolvent continuity must also show up in the raw edge moduli
        moduli = continuity_modulus(smp, "graph")
        assert moduli.max_modulus < 0.45

    def test_embeds_matrices_at_small_dim(self):
        cert = graph_continuity_certify(constant_sample([-30.0, 1.0, -1.0, 30.0]), 2, 0.1)
        assert cert.compressed_resolvents is not None
        assert cert.compressed_resolvents[0].shape == (4, 4)


class TestStrictAdaptedness:
    @pytest.mark.parametrize("x_index", [5, -1])
    def test_base_index_outside_the_grid_refused(self, x_index):
        smp = constant_sample([-1.0, 1.0])
        for certify in (strict_adaptedness_certify, riesz_continuity_certify,
                        polarized_continuity_certify):
            with pytest.raises(ValueError, match="base index outside the grid"):
                certify(smp, x_index, 0.2, cap=0.5)

    def test_constant_family_passes(self):
        result = strict_adaptedness_certify(constant_sample([-1.0, 1.0]), 2, 0.5, cap=0.1)
        assert result.passed
        assert result.modulus == 0.0

    def test_diagonal_flux_projections_constant(self):
        grid = ParameterGrid.linspace(0.0, 0.4, 41)
        smp = sample(FamilySpec("dirac_circle", 11), grid)
        result = strict_adaptedness_certify(smp, 20, 0.45, cap=0.5)
        assert result.passed
        assert result.modulus <= 1e-12

    def test_tangent_pole_fails_with_unit_jump(self):
        smp = tangent_sample()
        result = strict_adaptedness_certify(smp, 60, 0.5, cap=0.5)
        assert not result.passed
        assert result.modulus >= 1.0
        assert result.range.contains(99) and result.range.contains(100)


class TestRieszContinuityCertify:
    def test_clearing_level_formula(self):
        for delta in (0.05, 0.1, 0.2, 0.49):
            c = transform_clearing_level(delta)
            assert bounded_transform_scalar(c) == pytest.approx(1 - delta)

    def test_delta_range_enforced(self):
        smp = constant_sample([-3.0, -1.0, 1.0, 3.0])
        with pytest.raises(ValueError):
            riesz_continuity_certify(smp, 2, 0.7, cap=0.5)

    def test_constant_family_all_bounds(self):
        smp = constant_sample([-9.0, -1.0, 1.0, 9.0])
        cert = riesz_continuity_certify(smp, 2, 0.2, cap=0.5)
        assert cert.split_residual <= TAU_RECONSTRUCT
        assert cert.upper_defect < 0.2
        assert cert.lower_defect < 0.2
        assert cert.center_modulus == 0.0
        assert cert.final_bound < 1.4
        assert cert.level > transform_clearing_level(0.2)

    def test_projection_partition_identities(self):
        grid = ParameterGrid.linspace(-0.5, 0.5, 51)
        smp = sample(FamilySpec("dirac_circle", 41, {"alpha": (3.0, 1.0)}), grid)
        cert = riesz_continuity_certify(smp, 25, 0.2, cap=0.5)
        eye = np.eye(smp.dim)
        for q, qp, qm in cert.projections:
            assert np.max(np.abs(q + qp + qm - eye)) <= 1e-14
        assert cert.upper_split_residual <= 1e-12
        assert cert.final_bound < 7 * 0.2

    def test_tangent_pole_refused(self):
        # near the pole every strict range spans the pole edge, where the
        # upper projections jump by a full rank
        smp = tangent_sample()
        with pytest.raises(StrictAdaptednessFailed):
            riesz_continuity_certify(smp, 99, 0.1, cap=0.5)

    def test_away_from_pole_still_certifies(self):
        # continuity is local: far from the pole a strict range detaches
        # from the pole edge and the chain goes through
        smp = tangent_sample()
        cert = riesz_continuity_certify(smp, 60, 0.1, cap=0.5)
        assert not cert.range.contains(99) or not cert.range.contains(100)
        assert cert.final_bound < 0.7

    def test_bounds_hold_for_perturbed_ladder(self):
        smp = sample(FamilySpec("harmonic_perturbed", 24, {"coupling": (0.0, 0.3)}),
                     ParameterGrid.linspace(0.0, 1.0, 81))
        cert = riesz_continuity_certify(smp, 40, 0.2, cap=0.5)
        assert cert.center_modulus < 0.2
        assert cert.lower_projection_modulus < 0.2
        assert cert.upper_projection_modulus < 0.2
        assert cert.final_bound < 1.4

    def test_upper_split_residual_gated(self, monkeypatch):
        # a strict level above the window level breaks Q+ = P_eps - P_band:
        # P_eps then misses the upper eigenvalue 9 that Q+ holds
        strict = topology.strict_adaptedness_certify

        def raised_strict_level(*args):
            return dataclasses.replace(strict(*args), epsilon=10.0)

        smp = constant_sample([-9.0, -1.0, 1.0, 9.0])
        assert riesz_continuity_certify(smp, 2, 0.2, cap=0.5).level < 9.0
        monkeypatch.setattr(topology, "strict_adaptedness_certify", raised_strict_level)
        with pytest.raises(BoundViolated) as err:
            riesz_continuity_certify(smp, 2, 0.2, cap=0.5)
        assert err.value.which == "upper_split_residual"
        assert err.value.value > TAU_RECONSTRUCT


class TestStrictLevelBelowWindowLevel:
    """The upper projection splits as "everything >= strict level" minus the
    band [strict level, level) only when level > strict level; the search
    guarantees it, so no certificate may break it."""

    FAMILIES = {
        "offset_flux": (FamilySpec("dirac_circle", 41, {"alpha": (3.0, 1.0)}),
                        ParameterGrid.linspace(-0.5, 0.5, 201)),
        "perturbed_ladder": (FamilySpec("harmonic_perturbed", 24, {"coupling": (0.0, 0.3)}),
                             ParameterGrid.linspace(0.0, 1.0, 81)),
    }

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_every_certificate(self, family):
        smp = sample(*self.FAMILIES[family])
        image = smp.bounded_transformed()
        n = len(smp)
        for delta in (0.3, 0.2):
            for x in (n // 4, n // 2, 3 * n // 4):
                for cert in (riesz_continuity_certify(smp, x, delta, cap=0.5),
                             polarized_continuity_certify(image, x, delta, cap=0.5)):
                    assert cert.level > cert.strict_level
                    assert cert.upper_split_residual <= 1e-12


def maximal_range(smp, level, x_index):
    """The largest grid range around ``x_index`` on which +-level stays
    clear of the spectrum and the window rank stays that of the base point."""
    ev = np.abs(smp.eigenvalue_matrix)
    ranks = np.sum(ev <= level, axis=1)
    ok = ((np.min(np.abs(ev - level), axis=1) >= TAU_EDGE_DEFAULT)
          & (ranks == ranks[x_index]))
    lo = hi = x_index
    while lo > 0 and ok[lo - 1]:
        lo -= 1
    while hi + 1 < len(smp) and ok[hi + 1]:
        hi += 1
    return GridRange(lo, hi)


class TestCertificateFieldsOnReportedRange:
    """Every field of a continuity certificate recomputes, bit for bit, from
    dense projectors and norms on the range the certificate reports; the two
    Riesz defects are maxima over the strict-adapted range intersected with
    the pair's range, the range before the contraction."""

    FAMILIES = {
        **TestStrictLevelBelowWindowLevel.FAMILIES,
        # at x=0, delta=0.1 the largest split residual over strict ∩ pair
        # lies outside the contracted range (0, 28)
        "coupled_ladder": (FamilySpec("harmonic_perturbed", 16, {"coupling": (0.0, 0.6)}),
                           ParameterGrid.linspace(0.0, 1.0, 41)),
    }
    CASES = [("perturbed_ladder", 20, 0.2), ("perturbed_ladder", 60, 0.3),
             ("offset_flux", 50, 0.2), ("offset_flux", 150, 0.3),
             ("offset_flux", 100, 0.45)]

    @pytest.mark.parametrize("family, x, delta", CASES + [("coupled_ladder", 0, 0.1)])
    def test_riesz_chain(self, family, x, delta):
        self.check_riesz_chain("bounded", family, x, delta)

    @pytest.mark.parametrize("family, x, delta", CASES)
    def test_polarized_chain(self, family, x, delta):
        self.check_riesz_chain("identity", family, x, delta)

    def check_riesz_chain(self, transform, family, x, delta):
        smp = sample(*self.FAMILIES[family])
        if transform == "bounded":
            value_map = bounded_transform_scalar
            cert = riesz_continuity_certify(smp, x, delta, cap=0.5)
        else:
            smp = smp.bounded_transformed()
            value_map = np.asarray
            cert = polarized_continuity_certify(smp, x, delta, cap=0.5)
        level, strict = cert.level, cert.strict_level
        eye = np.eye(smp.dim)

        def pieces(y):
            dec = smp.decompositions[y]
            ev = dec.eigenvalues
            fv = value_map(ev)
            q = projector(dec, np.abs(ev) < level)
            qp = projector(dec, ev >= level)
            return {
                "center": projector(dec, np.abs(ev) < level, weights=fv),
                "lower": projector(dec, ev <= -level, weights=fv),
                "upper": projector(dec, ev >= level, weights=fv),
                "full": projector(dec, np.ones(smp.dim, dtype=bool), weights=fv),
                "q_upper": qp,
                "q_lower": eye - q - qp,
                "p_eps": projector(dec, ev >= strict),
                "p_band": projector(dec, (ev >= strict) & (ev < level)),
            }

        base = pieces(x)
        reported = [pieces(y) for y in cert.range.indices()]
        expected = {
            "split_residual": max(hermitian_norm(p["full"] - (p["lower"] + p["center"] + p["upper"]))
                                  for p in reported),
            "upper_split_residual": max(hermitian_norm(p["q_upper"] - (p["p_eps"] - p["p_band"]))
                                        for p in reported),
            "center_modulus": max(hermitian_norm(p["center"] - base["center"]) for p in reported),
            "lower_projection_modulus": max(hermitian_norm(p["q_lower"] - base["q_lower"])
                                            for p in reported),
            "upper_projection_modulus": max(hermitian_norm(p["q_upper"] - base["q_upper"])
                                            for p in reported),
            "final_bound": max(hermitian_norm(p["full"] - base["full"]) for p in reported),
        }
        for name, value in expected.items():
            assert getattr(cert, name) == value, name

        before = maximal_range(smp, strict, x).intersect(maximal_range(smp, level, x))
        assert before.contains(cert.range.lo_index) and before.contains(cert.range.hi_index)
        ev = np.concatenate([smp.decompositions[y].eigenvalues for y in before.indices()])
        fv = value_map(ev)
        assert cert.upper_defect == max(np.abs(fv[ev >= level] - 1.0).tolist(), default=0.0)
        assert cert.lower_defect == max(np.abs(fv[ev <= -level] + 1.0).tolist(), default=0.0)

    @pytest.mark.parametrize("family, x, delta", CASES)
    def test_graph_chain(self, family, x, delta):
        smp = sample(*self.FAMILIES[family])
        cert = graph_continuity_certify(smp, x, delta)
        level = cert.level

        def compressed(y):
            dec = smp.decompositions[y]
            ev = dec.eigenvalues
            return projector(dec, np.abs(ev) <= level, weights=1.0 / (ev + 1j))

        reported = cert.range.indices()
        assert cert.compressed_modulus == max(operator_norm(compressed(y) - compressed(x))
                                              for y in reported)
        ev = np.concatenate([smp.decompositions[y].eigenvalues for y in reported])
        outside = ev[np.abs(ev) > level]
        assert cert.tail_bound == max((1.0 / np.sqrt(1.0 + outside ** 2)).tolist(), default=0.0)
        base = resolvent_at_i(smp.operators[x])
        assert cert.final_bound == max(operator_norm(resolvent_at_i(smp.operators[y]) - base)
                                       for y in reported)


class TestDirectionalSoundness:
    def test_shifted_family_certifies_where_unshifted_does(self):
        grid = ParameterGrid.linspace(-0.3, 0.3, 31)
        smp = sample(FamilySpec("dirac_circle", 41), grid)
        report = discrete_spectrum_certify(smp, [2.0], include_definitional=False)
        assert report.passed
        delta = 0.45
        base = graph_continuity_certify(smp, 15, delta)
        shifted = graph_continuity_certify(smp.shifted(0.3), 15, delta)
        assert base.final_bound < 3 * delta
        assert shifted.final_bound < 3 * delta
        assert math.isfinite(
            graph_distance(smp.shifted(0.3).operators[0],
                           smp.shifted(0.3).operators[15])
        )


NAN = float("nan")


@pytest.mark.parametrize("call, message", [
    (lambda smp: graph_continuity_certify(smp, 5, NAN), "delta must be positive"),
    (lambda smp: find_adapted_pair(smp, 5, NAN), "lower level bound b must be positive"),
    (lambda smp: strict_adaptedness_certify(smp, 5, NAN, 0.5), "epsilon must be positive"),
    (lambda smp: certify_adapted_pair(smp, GridRange(0, 3), NAN), "window level must be positive"),
    (lambda smp: covering_construction(smp, 5, NAN), "target level c must be positive"),
    (lambda smp: discrete_spectrum_certify(smp, [NAN]), "b_levels must be positive"),
    (lambda smp: PolarizationCheck(norm_slack=NAN), "norm slack must be non-negative"),
], ids=["graph-delta", "find-b", "strict-epsilon", "certify-level", "covering-c",
        "discrete-b_levels", "polarization-norm_slack"])
def test_nan_argument_is_refused_as_a_value_error(call, message):
    # a NaN passes a check written as ``x <= 0``, and would then be blamed on
    # the truncation, the spectrum or the family
    smp = sample(FamilySpec("linear_crossing", 5), ParameterGrid.linspace(0.0, 1.0, 11))
    with pytest.raises(ValueError, match=message):
        call(smp)
