"""Acceptance suite: one test per criterion, each printing a pass/fail line
and enforcing its runtime budget.

Criterion 5 as first stated bounded the graph modulus across the pole edge
by 0.05.  That contradicts its own scalar oracle: at the stated exclusion
half-width h = 0.02 the resolvents differ by exactly sin(2*pi*h), about
0.1253, for any correct graph metric.  The criterion therefore keeps the
stated geometry and checks the bound that follows from the family itself:
x -> (tan(pi x) + i)^-1 has speed exactly pi, so the graph modulus across an
edge is at most pi times the edge width.  The companion test below runs the
same control at h = 0.005, where the literal 0.05 bound also holds, and
checks it as well.
"""

import contextlib
import json
import math
import time

import numpy as np
import pytest

from specfam import (
    FamilySpec,
    HermitianOperator,
    ParameterGrid,
    RealWindow,
    bounded_transform,
    bounded_transform_scalar,
    continuity_modulus,
    decompose,
    discrete_spectrum_certify,
    flow_by_partition,
    flow_by_tracking,
    graph_continuity_certify,
    operator_norm,
    resolvent_at_i,
    riesz_continuity_certify,
    run_analysis,
    sample,
    spectral_projection,
    strict_adaptedness_certify,
    transform_correspondence_check,
    truncation_ceiling,
)
from specfam.errors import StrictAdaptednessFailed

from conftest import constant_sample, random_hermitian, riesz_partition_defect


@contextlib.contextmanager
def criterion(number, label, budget_seconds):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        elapsed = time.perf_counter() - start
        print(f"criterion {number} ({label}): FAIL after {elapsed:.1f}s")
        raise
    elapsed = time.perf_counter() - start
    status = "PASS" if elapsed < budget_seconds else "FAIL (over budget)"
    print(f"criterion {number} ({label}): {status} in {elapsed:.1f}s "
          f"(budget {budget_seconds}s)")
    assert elapsed < budget_seconds


def test_criterion_1_functional_calculus():
    with criterion(1, "functional calculus", 10):
        rng = np.random.default_rng(1)
        for _ in range(100):
            dim = int(rng.integers(1, 17))
            op = random_hermitian(rng, dim)
            dec = decompose(op)
            v, w = dec.eigenvectors, dec.eigenvalues
            rebuilt = (v * w) @ v.conj().T
            assert (np.max(np.abs(rebuilt - op.entries))
                    <= 1e-9 * dim * (1.0 + np.max(np.abs(w))))
            resolvent_norm = operator_norm(resolvent_at_i(op))
            assert abs(resolvent_norm - np.max(1.0 / np.sqrt(1.0 + w ** 2))) <= 1e-9
            image = bounded_transform(op)
            assert operator_norm(image.entries) < 1.0
            negated = bounded_transform(HermitianOperator(-op.entries))
            assert np.max(np.abs(negated.entries + image.entries)) <= 1e-12


def _builtin_suite():
    yield sample(FamilySpec("dirac_circle", 11, {"alpha": (0.0, 1.0)}),
                 ParameterGrid.linspace(0.1, 0.35, 40))
    yield sample(FamilySpec("harmonic_perturbed", 10, {"coupling": (0.2, 0.4)}),
                 ParameterGrid.linspace(0.0, 1.0, 50))
    pts = np.concatenate([np.linspace(0.3, 0.48, 20), np.linspace(0.52, 0.7, 20)])
    yield sample(FamilySpec("tangent_blowup", 5), ParameterGrid(pts))
    yield sample(FamilySpec("linear_crossing", 5),
                 ParameterGrid.linspace(0.0, 1.0, 50))
    yield sample(FamilySpec("random_crossings", 8, {"seed": 2024}),
                 ParameterGrid.linspace(0.0, 0.77, 80))


def test_criterion_2_route_equivalence():
    with criterion(2, "discrete-spectrum route equivalence", 60):
        samples = list(_builtin_suite())
        for seed in range(50):
            dim = 5 + seed % 6
            pts = 60 + (seed * 7) % 41
            samples.append(
                sample(FamilySpec("random_crossings", dim, {"seed": seed}),
                       ParameterGrid.linspace(0.0, 0.77, pts))
            )
        for smp in samples:
            ceiling = truncation_ceiling(smp)
            levels = [0.2 * ceiling, 0.5 * ceiling, 0.8 * ceiling]
            report = discrete_spectrum_certify(smp, levels)
            assert report.passed == report.definitional.passed
            assert report.failing_points == report.definitional.failing_points
            assert report.passed


def _offset_flux_sample():
    # the flux path is offset so that window levels above 20 stay below the
    # truncation ceiling 0.9 * min max|eigenvalue| = 0.9 * 22.5
    grid = ParameterGrid.linspace(-0.5, 0.5, 201)
    return sample(FamilySpec("dirac_circle", 41, {"alpha": (3.0, 1.0)}), grid)


BASE_POINTS = (60, 80, 100, 120, 140)


def test_criterion_3_graph_continuity_certificates():
    with criterion(3, "graph continuity certificates", 30):
        smp = _offset_flux_sample()
        for delta in (0.2, 0.1, 0.05):
            for x in BASE_POINTS:
                cert = graph_continuity_certify(smp, x, delta)
                assert cert.level > 1.0 / delta
                assert cert.tail_bound < delta
                assert cert.compressed_modulus < delta
                assert cert.final_bound < 3.0 * delta
                assert cert.range.contains(x)


def test_criterion_4_riesz_continuity_certificates():
    with criterion(4, "riesz continuity certificates", 30):
        smp = _offset_flux_sample()
        for delta in (0.2, 0.1):
            for x in BASE_POINTS:
                cert = riesz_continuity_certify(smp, x, delta, cap=0.5)
                assert cert.split_residual <= 1e-9
                assert cert.upper_defect < delta
                assert cert.lower_defect < delta
                assert cert.center_modulus < delta
                assert cert.lower_projection_modulus < delta
                assert cert.upper_projection_modulus < delta
                assert cert.final_bound < 7.0 * delta
                assert riesz_partition_defect(smp, cert) <= 1e-14


def _excluded_pole_grid(half_width, points_per_side=100):
    return ParameterGrid(np.concatenate([
        np.linspace(0.1, 0.5 - half_width, points_per_side),
        np.linspace(0.5 + half_width, 0.9, points_per_side),
    ]))


def _pole_control(half_width, graph_bound=None):
    smp = sample(FamilySpec("tangent_blowup", 5), _excluded_pole_grid(half_width))
    pole_edge = 99
    edge_width = smp.grid[pole_edge + 1] - smp.grid[pole_edge]
    # |d/dx (tan(pi x) + i)^-1| = pi sec^2(pi x) / (1 + tan^2(pi x)) = pi
    lipschitz_bound = math.pi * edge_width
    a = math.tan(math.pi * (0.5 - half_width))
    b = math.tan(math.pi * (0.5 + half_width))
    graph = continuity_modulus(smp, "graph").per_edge[pole_edge][2]
    riesz = continuity_modulus(smp, "riesz").per_edge[pole_edge][2]
    scalar_graph = abs(1 / (a + 1j) - 1 / (b + 1j))
    scalar_riesz = abs(bounded_transform_scalar(a) - bounded_transform_scalar(b))
    assert graph == pytest.approx(scalar_graph, abs=1e-9)
    assert riesz == pytest.approx(scalar_riesz, abs=1e-9)
    assert riesz >= 1.9
    strict = strict_adaptedness_certify(smp, 99, 0.5, cap=0.5)
    assert not strict.passed
    assert strict.modulus >= 1.0
    with pytest.raises(StrictAdaptednessFailed):
        riesz_continuity_certify(smp, 99, 0.1, cap=0.5)
    assert graph <= lipschitz_bound, (
        f"graph modulus across the pole edge is {graph:.6f}, which exceeds "
        f"the resolvent Lipschitz bound pi * {edge_width:.6f} = "
        f"{lipschitz_bound:.6f}"
    )
    if graph_bound is not None:
        assert graph <= graph_bound, (
            f"graph modulus across the pole edge is {graph:.6f}, which "
            f"exceeds the bound {graph_bound}"
        )


def test_criterion_5_negative_control_as_stated():
    with criterion(5, "graph vs riesz negative control", 10):
        _pole_control(half_width=0.02)


def test_negative_control_with_consistent_exclusion():
    # same control with the exclusion width at which the 0.05 graph bound and
    # the scalar oracle agree: tan(pi * 0.495) is approximately 63.7, so the
    # resolvents differ by about 2/63.7 < 0.05 while the transforms still
    # differ by nearly 2
    _pole_control(half_width=0.005, graph_bound=0.05)


def test_criterion_6_spectral_flow():
    with criterion(6, "spectral flow", 120):
        big = sample(FamilySpec("dirac_circle", 201),
                     ParameterGrid.linspace(-0.49, 0.49, 401))
        tracked = flow_by_tracking(big)
        partitioned = flow_by_partition(big)
        assert tracked.flow == 1
        assert partitioned.flow == 1

        for seed in range(100):
            dim = 6 + seed % 7          # dims 6..12
            pts = 120 + (seed * 11) % 81  # 120..200 points
            smp = sample(FamilySpec("random_crossings", dim, {"seed": seed}),
                         ParameterGrid.linspace(0.0, 0.77, pts))
            flow_t = flow_by_tracking(smp).flow
            assert flow_t == flow_by_partition(smp).flow

        for seed in (4, 17, 29, 42, 55, 61, 70, 83, 96, 99):
            smp = sample(FamilySpec("random_crossings", 9, {"seed": seed}),
                         ParameterGrid.linspace(0.0, 0.77, 161))
            forward = flow_by_tracking(smp).flow
            rev = smp.reversed()
            assert flow_by_tracking(rev).flow == -forward
            assert flow_by_partition(rev).flow == -forward
            first, second = smp.restricted(0, 80), smp.restricted(80, 160)
            assert (flow_by_tracking(first).flow + flow_by_tracking(second).flow
                    == forward)
            assert (flow_by_partition(first).flow + flow_by_partition(second).flow
                    == forward)


def test_criterion_7_transform_correspondence():
    with criterion(7, "bounded-transform correspondence", 30):
        rng = np.random.default_rng(7)
        for _ in range(50):
            op = random_hermitian(rng, int(rng.integers(2, 13)))
            ceiling = 0.9 * float(np.max(np.abs(decompose(op).eigenvalues)))
            image = bounded_transform(op)
            for _ in range(5):
                level = float(rng.uniform(0.05, ceiling))
                direct = spectral_projection(op, RealWindow.symmetric(level),
                                             tau_edge=0.0).rank
                mapped = spectral_projection(
                    image,
                    RealWindow.symmetric(float(bounded_transform_scalar(level))),
                    tau_edge=0.0,
                ).rank
                assert direct == mapped

        flux = sample(FamilySpec("dirac_circle", 11, {"alpha": (0.0, 1.0)}),
                      ParameterGrid.linspace(0.2, 0.3, 11))
        report = transform_correspondence_check(flux, [1.4])
        assert report.equivalent and report.discrete_passed and report.weak_passed
        assert report.rank_identity_ok

        blocked = constant_sample([-2.0, -1.0, 1.0, 2.0])
        report = transform_correspondence_check(blocked, [2.5])
        assert report.equivalent
        assert not report.discrete_passed and not report.weak_passed


def test_criterion_8_reproducible_reports(tmp_path):
    with criterion(8, "byte-identical reports", 30):
        config = {
            "family": {"kind": "dirac_circle", "dim": 41,
                       "params": {"alpha": [0.0, 1.0]}},
            "grid": {"start": -0.49, "end": 0.49, "points": 401},
            "seed": 7,
            "analyses": [
                {"kind": "flow", "params": {}},
                {"kind": "distances", "params": {}},
            ],
        }
        path_a = tmp_path / "runA"
        path_b = tmp_path / "runB"
        bundle_a = run_analysis(config, output_dir=path_a)
        bundle_b = run_analysis(config, output_dir=path_b)
        assert bundle_a.all_passed and bundle_b.all_passed
        assert json.loads((path_a / "report.json").read_text())["analyses"][0][
            "result"]["flow"] == 1
        assert ((path_a / "report.json").read_bytes()
                == (path_b / "report.json").read_bytes())
        assert ((path_a / "eigenvalues.csv").read_bytes()
                == (path_b / "eigenvalues.csv").read_bytes())
