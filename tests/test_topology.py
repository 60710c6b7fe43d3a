import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from specfam import (
    FamilySample,
    FamilySpec,
    GridRange,
    HermitianOperator,
    ParameterGrid,
    PolarizationCheck,
    bounded_transform,
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
from specfam import adapted, spectral, topology
from specfam.adapted import shrink_toward
from specfam.errors import BoundViolated, CertificationError, NoGap, StrictAdaptednessFailed
from specfam.spectral import (
    _EIGH_EXACT_BAND,
    TAU_EDGE_DEFAULT,
    TAU_RECONSTRUCT,
    hermitian_norm,
    projector,
)

from conftest import constant_sample, random_hermitian, riesz_partition_defect


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


def one_operator_image(dec, metric):
    """The dense resolvent at +i or bounded transform of one operator, formed
    without ``projector``: V f(Lambda) V*, made Hermitian by
    ``HermitianOperator`` for the bounded transform, which keeps an operator
    in permutation form as its diagonal."""
    v = dec.eigenvectors
    if metric == "graph":
        return (v * (1.0 / (dec.eigenvalues + 1j))) @ v.conj().T
    values = bounded_transform_scalar(dec.eigenvalues)
    if dec.order is not None:
        diagonal = np.empty_like(values)
        diagonal[dec.order] = values
        return np.diag(diagonal.astype(complex))
    return HermitianOperator((v * values) @ v.conj().T).entries


# ties and signed zeros come from the sampled values
_DIAGONAL_ENTRY = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0]), st.floats(-50.0, 50.0))


@st.composite
def dense_samples(draw):
    """The operators of a ``random_crossings`` or ``harmonic_perturbed``
    sample, dims 1-10 on 2-8 points; in mixed form some of them are replaced
    by diagonal ones in permutation form."""
    dim, points = draw(st.integers(1, 10)), draw(st.integers(2, 8))
    kind = draw(st.sampled_from(["random_crossings", "harmonic_perturbed"]))
    if kind == "harmonic_perturbed":
        params = {"coupling": [draw(st.floats(-2.0, 2.0)), draw(st.floats(-2.0, 2.0))]}
    else:
        params = {"seed": draw(st.integers(0, 2**64 - 1))}
    smp = sample(FamilySpec(kind, dim, params),
                 ParameterGrid.linspace(0.0, draw(st.floats(0.05, 1.0)), points))
    ops = list(smp.operators)
    if draw(st.booleans()):
        for y in draw(st.sets(st.integers(0, points - 1), min_size=1, max_size=points - 1)):
            ops[y] = diagonal_operator(draw(st.lists(_DIAGONAL_ENTRY, min_size=dim,
                                                     max_size=dim)))
    return ops


class TestDenseImages:
    """Every dense resolvent and bounded-transform image is built by
    ``projector`` and keeps the bits of forming each one on its own."""

    @given(ops=dense_samples())
    @settings(max_examples=60, deadline=None)
    def test_rows_equal_the_one_operator_formula(self, ops):
        decs = tuple(spectral.decompose(op) for op in ops)
        for metric in ("graph", "riesz"):
            images = topology._images(decs, metric, True)
            for op, dec, row in zip(ops, decs, images):
                expected = one_operator_image(dec, metric).tobytes()
                assert row.tobytes() == expected
                public = resolvent_at_i(op) if metric == "graph" else bounded_transform(op).entries
                assert public.tobytes() == expected


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


def _contract_one_point_at_a_time(rng, x_index, delta, *images):
    """The reference contraction: shrink while any point of the range is far."""
    frob = {y: max(float(np.linalg.norm(image[y] - image[x_index])) for image in images)
            for y in rng.indices()}
    while max(frob[y] for y in rng.indices()) >= delta:
        rng = shrink_toward(rng, x_index)
    return rng


@st.composite
def contraction_cases(draw):
    """A range, a base point in it, a delta and one to three image chains of
    small vectors, with distances from the base on both sides of delta."""
    lo = draw(st.integers(0, 3))
    hi = draw(st.integers(lo, lo + 30))
    x_index = draw(st.integers(lo, hi))
    size = draw(st.integers(1, 3))
    value = st.floats(-2.0, 2.0, allow_subnormal=False)
    images = [{y: np.array(draw(st.lists(value, min_size=size, max_size=size)))
               for y in range(lo, hi + 1)} for _ in range(draw(st.integers(1, 3)))]
    return GridRange(lo, hi), x_index, draw(st.floats(0.01, 3.0)), images


@given(contraction_cases())
@settings(max_examples=300, deadline=None)
def test_contract_matches_the_one_point_loop(case):
    rng, x_index, delta, images = case
    # _contract reads each image as one array whose row k is grid point lo + k
    stacked = [np.stack([image[y] for y in rng.indices()]) for image in images]
    assert (topology._contract(rng, x_index, delta, *stacked)
            == _contract_one_point_at_a_time(rng, x_index, delta, *images))


class TestStrictAdaptedness:
    @pytest.mark.parametrize("x_index", [5, -1])
    def test_base_index_outside_the_grid_refused(self, x_index):
        smp = constant_sample([-1.0, 1.0])
        for certify in (strict_adaptedness_certify, riesz_continuity_certify,
                        polarized_continuity_certify):
            with pytest.raises(ValueError, match="base index outside the grid"):
                certify(smp, x_index, 0.2, cap=0.5)

    def test_negative_cap_refused(self):
        # no positive eigenvalue leaves the Riesz level search empty, and an
        # empty search must not blame the family for the argument
        smp = constant_sample([-3.0, -1.0])
        for certify in (strict_adaptedness_certify, riesz_continuity_certify,
                        polarized_continuity_certify):
            with pytest.raises(ValueError, match="the modulus cap must be non-negative"):
                certify(smp, 2, 0.2, cap=-1.0)

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
        assert riesz_partition_defect(smp, cert) <= 1e-14
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


class TestChainEdgeNorms:
    """A chain reads only the range, level and rank of its adapted pair, so
    it norms none of the pair's edges: the graph chain norms no edge at all,
    the Riesz chain only the upper projections of its strict checks."""

    @pytest.fixture
    def calls(self, monkeypatch):
        norms, stricts = [], []
        run_norms, strict = adapted._RunEdges.norms, topology.strict_adaptedness_certify

        def counting_norms(edges, smp, weighted):
            norms.append((len(edges.counts), weighted))
            return run_norms(edges, smp, weighted)

        def counting_strict(*args, **kwargs):
            stricts.append(strict(*args, **kwargs))
            return stricts[-1]

        monkeypatch.setattr(adapted._RunEdges, "norms", counting_norms)
        monkeypatch.setattr(topology, "strict_adaptedness_certify", counting_strict)
        return norms, stricts

    def test_graph_chain_norms_no_edge(self, calls):
        smp = sample(FamilySpec("harmonic_perturbed", 16, {"coupling": (0.0, 0.6)}),
                     ParameterGrid.linspace(0.0, 1.0, 41))
        cert = graph_continuity_certify(smp, 20, 0.45)
        norms, _ = calls
        assert norms == []
        pair = find_adapted_pair(smp, 20, 1 / 0.45)
        assert (cert.level, cert.window_rank) == (pair.level, pair.rank)
        assert cert.range.intersect(pair.range) == cert.range

    def test_riesz_chain_norms_only_its_strict_checks(self, calls):
        smp = sample(FamilySpec("harmonic_perturbed", 24, {"coupling": (0.0, 0.3)}),
                     ParameterGrid.linspace(0.0, 1.0, 81))
        cert = riesz_continuity_certify(smp, 40, 0.2, cap=0.5)
        norms, stricts = calls
        # each strict check that reaches its modulus norms one run, unweighted
        assert stricts and norms == [(1, False)] * len(stricts)
        assert cert.strict_modulus == stricts[-1].modulus
        pair = find_adapted_pair(smp, 40, transform_clearing_level(0.2))
        assert (cert.level, cert.window_rank) == (pair.level, pair.rank)


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
    (lambda smp: strict_adaptedness_certify(smp, 5, 0.5, NAN), "modulus cap must be non-negative"),
    (lambda smp: riesz_continuity_certify(smp, 5, 0.2, NAN), "modulus cap must be non-negative"),
    (lambda smp: polarized_continuity_certify(smp, 5, 0.2, NAN),
     "modulus cap must be non-negative"),
], ids=["graph-delta", "find-b", "strict-epsilon", "certify-level", "covering-c",
        "discrete-b_levels", "polarization-norm_slack", "strict-cap", "riesz-cap",
        "polarized-cap"])
def test_nan_argument_is_refused_as_a_value_error(call, message):
    # a NaN passes a check written as ``x <= 0``, and would then be blamed on
    # the truncation, the spectrum or the family
    smp = sample(FamilySpec("linear_crossing", 5), ParameterGrid.linspace(0.0, 1.0, 11))
    with pytest.raises(ValueError, match=message):
        call(smp)


INF = float("inf")


@pytest.mark.parametrize("call, message", [
    (lambda smp: graph_continuity_certify(smp, 5, INF), "delta must be positive and finite"),
    (lambda smp: certify_adapted_pair(smp, GridRange(0, 3), INF),
     "window level must be positive and finite"),
    (lambda smp: certify_adapted_pair(smp, GridRange(0, 3), -INF),
     "window level must be positive and finite"),
    (lambda smp: discrete_spectrum_certify(smp, [0.5, INF]),
     "b_levels must be positive and finite"),
], ids=["graph-delta", "certify-level", "certify-negative-level", "discrete-b_levels"])
def test_infinite_argument_is_refused_as_a_value_error(call, message):
    # an infinite level gave a passing certificate, an infinite delta was
    # blamed on the lower level bound b = 1/delta, and infinite b_levels
    # reached numpy's linspace
    smp = sample(FamilySpec("linear_crossing", 5), ParameterGrid.linspace(0.0, 1.0, 11))
    with pytest.raises(ValueError, match=message):
        call(smp)


def _write_matrix_file(path, grid, matrices) -> str:
    """Complex matrices as a matrix path file, written with plain ``json``."""
    path.write_text(json.dumps({
        "dim": len(matrices[0]), "grid": list(grid),
        "matrices": [[[[float(np.real(v)), float(np.imag(v))] for v in row] for row in m]
                     for m in matrices]}))
    return str(path)


def _load(path, dim):
    return sample(FamilySpec("matrix_path_file", dim, {"path": path}))


def _dense_twin(smp):
    """The same family with every operator dense and undecomposed, so it goes through eigh."""
    return FamilySample(smp.grid, tuple(HermitianOperator(op.entries) for op in smp.operators))


def _bits(value):
    """A certificate field or distance, comparable bit for bit."""
    return value.hex() if isinstance(value, float) else value


def _outcome(call):
    """Every field of the certificate ``call`` returns, or the refusal it raises."""
    try:
        cert = call()
    except (CertificationError, ValueError) as exc:
        return type(exc).__name__, str(exc)
    return {f.name: _bits(getattr(cert, f.name)) for f in dataclasses.fields(cert)}


def _every_result(smp):
    """Every graph and Riesz certificate and every distance the family gives."""
    results = {}
    for metric in ("graph", "riesz"):
        moduli = continuity_modulus(smp, metric)
        results[metric] = ([_bits(v) for edge in moduli.per_edge for v in edge],
                           _bits(moduli.max_modulus))
    first, last = smp.operators[0], smp.operators[-1]
    results["distances"] = (_bits(graph_distance(first, last)), _bits(riesz_distance(first, last)))
    for x in range(len(smp)):
        for delta in (0.45, 0.2):
            results["graph", x, delta] = _outcome(lambda: graph_continuity_certify(smp, x, delta))
        for delta in (0.2, 0.1):
            results["riesz", x, delta] = _outcome(
                lambda: riesz_continuity_certify(smp, x, delta, cap=0.5))
    return results


# repeated values, signed zeros and both signs come from the sampled values
_FILE_ENTRY = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, -2.5, 6.0]),
                        st.floats(-60.0, 60.0))


@st.composite
def diagonal_files(draw):
    """The diagonals of a matrix file: dims 1-12, 2-6 grid points, entries
    moving linearly or not at all, and now and then one entry at +-1e150."""
    dim, points = draw(st.integers(1, 12)), draw(st.integers(2, 6))
    base = draw(st.lists(_FILE_ENTRY, min_size=dim, max_size=dim))
    slope = draw(st.lists(st.sampled_from([0.0, 0.0, 0.5, -1.0, 4.0]), min_size=dim,
                          max_size=dim))
    grid = [k / (points - 1) for k in range(points)]
    rows = [[b if s == 0.0 else b + s * x for b, s in zip(base, slope)] for x in grid]
    for row in rows:
        if draw(st.integers(0, 5)) == 0:
            row[draw(st.integers(0, dim - 1))] = draw(st.sampled_from([1e150, -1e150]))
    return grid, rows


class TestDiagonalMatrixFiles:
    """A matrix file of diagonal matrices takes the diagonal form when eigh
    would return its sorted diagonal bit for bit, and gives the same
    certificates and distances as its dense eigh twin."""

    @given(diagonal_files())
    @settings(max_examples=60, deadline=None)
    def test_every_field_equals_the_dense_twin(self, tmp_path_factory, case):
        grid, rows = case
        path = _write_matrix_file(tmp_path_factory.getbasetemp() / "diagonal.json", grid,
                                  [np.diag(row) for row in rows])
        smp = _load(path, len(rows[0]))
        twin = _dense_twin(smp)
        lo, hi = _EIGH_EXACT_BAND
        for row, dec in zip(rows, smp.decompositions):
            top = max(abs(v) for v in row)
            assert (dec.order is not None) == (top == 0.0 or lo <= top <= hi)
            assert (dec.basis is None) == (dec.order is not None)
        assert smp.eigenvalue_matrix.tobytes() == twin.eigenvalue_matrix.tobytes()
        assert _every_result(smp) == _every_result(twin)

    def test_ties_are_ordered_otherwise_by_eigh_and_change_nothing(self, tmp_path):
        grid = [0.0, 0.25, 0.5, 0.75, 1.0]
        rows = [[4.0, -3.0, 4.0, 0.5 * x - 0.2, -3.0, 4.0, -6.0, 6.0] for x in grid]
        smp = _load(_write_matrix_file(tmp_path / "ties.json", grid,
                                       [np.diag(row) for row in rows]), 8)
        twin = _dense_twin(smp)
        assert all(dec.order is not None for dec in smp.decompositions)
        # no mask or eigen-index interval splits a tie, so the order inside one is unseen
        assert any(not np.array_equal(dec.eigenvectors, ref.eigenvectors)
                   for dec, ref in zip(smp.decompositions, twin.decompositions))
        results = _every_result(smp)
        assert results == _every_result(twin)
        assert isinstance(results["graph", 2, 0.45], dict)
        assert isinstance(results["riesz", 2, 0.2], dict)

    def test_entries_beyond_the_band_stay_on_eigh(self, tmp_path):
        d = np.array([1e150, 2.5, -1.3e150, 0.1])
        # LAPACK scales such a matrix, and its eigenvalues are no longer the entries
        assert not np.array_equal(np.linalg.eigh(np.diag(d))[0], np.sort(d))
        smp = _load(_write_matrix_file(tmp_path / "big.json", [0.0, 1.0],
                                       [np.diag(d), np.diag(d)]), 4)
        for dec in smp.decompositions:
            assert dec.order is None and dec.basis is not None
        assert (smp.eigenvalue_matrix.tobytes()
                == _dense_twin(smp).eigenvalue_matrix.tobytes())

    def test_one_tiny_off_diagonal_entry_keeps_the_matrix_dense(self, tmp_path):
        m = np.diag([1.0, -2.0, 3.0]).astype(complex)
        m[0, 2] = m[2, 0] = 1e-300
        smp = _load(_write_matrix_file(tmp_path / "tiny.json", [0.0, 1.0],
                                       [np.diag([1.0, -2.0, 3.0]), m]), 3)
        assert smp.decompositions[0].order is not None
        assert smp.decompositions[1].order is None
        # a chain over both points is dense throughout
        assert _every_result(smp) == _every_result(_dense_twin(smp))

    def test_public_functions_stay_dense(self, tmp_path):
        smp = _load(_write_matrix_file(tmp_path / "flat.json", [0.0, 1.0],
                                       [np.diag([1.0, -2.0, 3.0])] * 2), 3)
        op = smp.operators[0]
        dec = smp.decompositions[0]
        assert vars(op).keys() == {"_diagonal", "_decomposition"}
        assert resolvent_at_i(op).shape == (3, 3)
        assert projector(dec, np.ones(3, dtype=bool)).shape == (3, 3)
        assert vars(bounded_transform(op)).keys() == {"_diagonal", "_decomposition"}
        assert bounded_transform(op).entries.shape == (3, 3)

    def test_graph_chain_in_diagonal_form_takes_no_svd(self, monkeypatch):
        smp = sample(FamilySpec("dirac_circle", 41), ParameterGrid.linspace(-0.3, 0.3, 31))
        assert all(dec.order is not None for dec in smp.decompositions)
        calls = []
        for module in (spectral, topology):
            def counted(m, original=module.operator_norm):
                calls.append(m.shape)
                return original(m)
            monkeypatch.setattr(module, "operator_norm", counted)
        graph_continuity_certify(smp, 15, 0.45)
        continuity_modulus(smp, "graph")
        graph_distance(smp.operators[0], smp.operators[30])
        assert calls == []
        # the dense twin norms every graph difference with the SVD
        graph_continuity_certify(_dense_twin(smp), 15, 0.45)
        assert calls and set(calls) == {(41, 41)}
