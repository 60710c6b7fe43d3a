import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from specfam import (
    HermitianOperator,
    RealWindow,
    bounded_transform,
    bounded_transform_scalar,
    decompose,
    diagonal_operator,
    identity_operator,
    operator_norm,
    resolvent_at_i,
    spectral_projection,
    zero_operator,
)
from specfam.errors import EdgeOnSpectrum, NonFiniteEntry, NotHermitianError
from specfam import spectral
from specfam.spectral import (
    _SVD_EXACT_BAND,
    TAU_RECONSTRUCT,
    _complex_diagonal_norms,
    _install_decomposition,
    hermitian_norm,
    projector,
)

from conftest import IN_BAND_SCALES, OUT_OF_BAND_SCALES, count_eigvalsh, random_hermitian

#: idempotency / hermiticity tolerance for spectral projections
TAU_PROJECTION = 1e-9


class TestDecompose:
    def test_identity(self):
        dec = decompose(identity_operator(2))
        assert np.allclose(dec.eigenvalues, [1.0, 1.0])

    def test_diagonal_sorted_ascending(self):
        dec = decompose(diagonal_operator([3.0, -1.0]))
        assert dec.eigenvalues.tolist() == [-1.0, 3.0]

    def test_offdiagonal_two_by_two(self):
        # characteristic polynomial of [[0,1],[1,0]] is t^2 - 1
        dec = decompose(HermitianOperator([[0.0, 1.0], [1.0, 0.0]]))
        assert np.allclose(dec.eigenvalues, [-1.0, 1.0], atol=1e-14)

    def test_reconstruction_and_unitarity(self, rng):
        for _ in range(25):
            dim = int(rng.integers(1, 17))
            op = random_hermitian(rng, dim)
            dec = decompose(op)
            assert np.all(np.diff(dec.eigenvalues) >= 0)
            v = dec.eigenvectors
            assert np.max(np.abs(v.conj().T @ v - np.eye(dim))) <= 1e-9
            rebuilt = (v * dec.eigenvalues) @ v.conj().T
            scale = dim * (1.0 + np.max(np.abs(dec.eigenvalues)))
            assert np.max(np.abs(rebuilt - op.entries)) <= TAU_RECONSTRUCT * scale

    def test_deterministic_for_fixed_input(self, rng):
        op = random_hermitian(rng, 8)
        other = HermitianOperator(op.entries.copy())
        a, b = decompose(op), decompose(other)
        assert np.array_equal(a.eigenvalues, b.eigenvalues)
        assert np.array_equal(a.eigenvectors, b.eigenvectors)

    def test_rejects_non_hermitian_naming_magnitude(self):
        with pytest.raises(NotHermitianError) as err:
            HermitianOperator([[0.0, 1.0], [0.0, 0.0]])
        assert "1" in str(err.value)
        assert err.value.deviation == pytest.approx(1.0)

    def test_rejects_nan_entry(self):
        with pytest.raises(NonFiniteEntry) as err:
            HermitianOperator(np.diag([np.nan, 2.0, -2.0]))
        assert err.value.entry == (0, 0)
        assert err.value.grid_index is None
        assert isinstance(err.value, ValueError)

    def test_rejects_inf_entry(self):
        m = np.zeros((3, 3), dtype=complex)
        m[1, 2] = m[2, 1] = complex(1.0, np.inf)
        with pytest.raises(NonFiniteEntry) as err:
            HermitianOperator(m)
        assert err.value.entry == (1, 2)

    def test_symmetrizes_small_noise(self):
        m = np.array([[1.0, 0.5 + 1e-12], [0.5, 2.0]])
        op = HermitianOperator(m)
        assert np.array_equal(op.entries, op.entries.conj().T)

    def test_symmetrizing_keeps_entries_near_the_largest_float(self):
        op = HermitianOperator([[1e308, 0.0], [0.0, 1.0]])
        assert op.entries[0, 0] == 1e308
        assert np.isfinite(op.entries).all()
        pair = HermitianOperator([[1.0, -1.7e308j], [1.7e308j, 1.0]])
        assert pair.entries[0, 1] == -1.7e308j

    def test_symmetrizing_keeps_subnormal_entries(self):
        tiny = 5e-324
        op = HermitianOperator(np.diag([tiny, 1.0]))
        assert op.entries[0, 0] == tiny

    def test_diagonal_near_the_largest_float_has_finite_eigenvalues(self):
        dec = decompose(diagonal_operator([1e308, 1.0, -2.0]))
        assert dec.eigenvalues.tolist() == [-2.0, 1.0, 1e308]

    def test_overflowing_modulus_is_still_checked(self):
        # |z| overflows to inf; that must not switch the Hermiticity gate off
        z = 1.5e308 + 1.5e308j
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NotHermitianError) as info:
                HermitianOperator([[z, 0.0], [0.0, 0.0]])
        assert info.value.entry == (0, 0)
        assert info.value.deviation > info.value.tolerance > 0.0

    def test_hermitian_entry_with_overflowing_modulus_is_accepted(self):
        z = 1.5e308 + 1.5e308j
        pair = HermitianOperator([[0.0, z], [np.conj(z), 0.0]])
        assert pair.entries.tolist() == [[0.0, z], [np.conj(z), 0.0]]

    def test_entries_up_to_half_max_are_the_plain_average(self):
        rng = np.random.default_rng(11)
        half_max = float(np.finfo(float).max) / 2.0
        for scale in (1e-300, 1.0, 1e150, half_max):
            m = random_hermitian(rng, 6).entries
            m = m * (0.5 * scale / np.max(np.abs(m)))
            m[2, 2] = scale  # the largest entry modulus, exactly
            m[0, 1] *= 1.0 + 1e-12  # within tolerance, not exactly Hermitian
            op = HermitianOperator(m)
            assert op.entries.tobytes() == ((m + m.conj().T) / 2.0).tobytes()


def _one_matrix_rule(m):
    """The symmetrized entries of one matrix, or the error refusing it, by the
    single-matrix rule written out one step at a time: the reference that
    ``spectral._hermitian_stack`` and ``HermitianOperator`` must match."""
    m = np.array(m, dtype=complex)
    finite = np.isfinite(m)
    if not finite.all():
        i, j = (int(k) for k in np.argwhere(~finite)[0])
        return NonFiniteEntry((i, j), complex(m[i, j]))
    scale = float(np.max(np.abs(m)))
    factor, c, c_scale = 1.0, m, scale
    if scale > spectral._HALF_MAX:
        factor = 4.0
        c = m / factor
        c_scale = float(np.max(np.abs(c)))
    deviation = np.abs(c - c.conj().T)
    worst = float(deviation.max())
    if worst > spectral.TAU_HERMITIAN_REL * c_scale:
        i, j = np.unravel_index(int(deviation.argmax()), deviation.shape)
        return NotHermitianError(factor * worst, factor * spectral.TAU_HERMITIAN_REL * c_scale,
                                 (int(i), int(j)))
    if scale <= spectral._HALF_MAX:
        return (m + m.conj().T) / 2.0
    return 0.5 * m + 0.5 * m.conj().T


def _error_fields(exc):
    """What a refusal says: its type, message and every field but the value's
    NaN, which never equals itself."""
    fields = {k: (repr(v) if k == "value" else v) for k, v in vars(exc).items()}
    return type(exc).__name__, str(exc), fields


@st.composite
def mixed_stacks(draw):
    """A stack of matrices of one dimension, each ordinary, above half the
    largest float, subnormal, holding signed zeros, non-finite or not Hermitian."""
    dim = draw(st.integers(1, 5))
    kinds = draw(st.lists(st.sampled_from(["ordinary", "huge", "subnormal", "zeros",
                                           "non-finite", "not Hermitian"]),
                          min_size=1, max_size=6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    stack = []
    for kind in kinds:
        raw = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        m = (raw + raw.conj().T) / 2.0
        # a relative error within the tolerance, so the average is not the input
        m[0, -1] *= 1.0 + 1e-12
        i, j = (int(k) for k in rng.integers(0, dim, 2))
        if kind == "huge":
            m = m / np.max(np.abs(m)) * (float(np.finfo(float).max) * rng.uniform(0.5, 0.7))
        elif kind == "subnormal":
            m *= 1e-310
        elif kind == "zeros":
            m[rng.random((dim, dim)) < 0.5] = complex(-0.0, -0.0)
        elif kind == "non-finite":
            m[i, j] = draw(st.sampled_from([np.nan, np.inf, -np.inf, complex(0.0, np.inf)]))
        elif kind == "not Hermitian":
            m[i, j] += 1.0 if i != j else 1j
        stack.append(m)
    return np.array(stack)


class TestHermitianStack:
    """``_hermitian_stack`` keeps, matrix by matrix, the bits and the first
    refusal of the single-matrix rule, and so of ``HermitianOperator``."""

    @settings(max_examples=300, deadline=None)
    @given(stack=mixed_stacks())
    def test_matches_one_matrix_at_a_time(self, stack):
        expected = []
        for k, m in enumerate(stack):
            outcome = _one_matrix_rule(m)
            if isinstance(outcome, Exception):
                with pytest.raises(type(outcome)) as alone:
                    HermitianOperator(m)
                assert _error_fields(alone.value) == _error_fields(outcome)
                expected = outcome.at_grid_index(k)
                break
            assert HermitianOperator(m).entries.tobytes() == outcome.tobytes()
            expected.append(outcome)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if isinstance(expected, Exception):
                with pytest.raises(type(expected)) as err:
                    spectral._hermitian_stack(stack)
                assert _error_fields(err.value) == _error_fields(expected)
                return
            sym = spectral._hermitian_stack(stack)
        assert sym.tobytes() == np.array(expected).tobytes()
        assert not sym.flags.writeable

    def test_first_refusal_wins_whatever_its_kind(self):
        ok = np.eye(2, dtype=complex)
        skew = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
        nan = np.diag([np.nan, 1.0]).astype(complex)
        with pytest.raises(NotHermitianError) as err:
            spectral._hermitian_stack(np.array([ok, skew, nan]))
        assert err.value.grid_index == 1
        assert "matrix at grid index 1 is not Hermitian" in str(err.value)
        with pytest.raises(NonFiniteEntry) as err:
            spectral._hermitian_stack(np.array([ok, nan, skew]))
        assert (err.value.grid_index, err.value.entry) == (1, (0, 0))


def _dense_twin(d):
    """``diag(d)`` stored densely, carrying the same exact decomposition as
    ``diagonal_operator(d)``, so only the stored form differs."""
    op = HermitianOperator(np.diag(d))
    diagonal = op.entries.diagonal().real
    order = np.argsort(diagonal, kind="stable")
    _install_decomposition(op, diagonal[order], order=order)
    return op


def _bytes(a):
    return np.asarray(a).tobytes()


# ties and signed zeros come from the sampled values; the rest spans subnormals to 1e300
_DIAGONAL_ENTRY = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0]),
                            st.floats(-1e300, 1e300))


class TestDiagonalForm:
    """``diagonal_operator`` stores only its diagonal; everything read from it
    is byte-equal to the dense operator with the same decomposition."""

    @settings(max_examples=150, deadline=None)
    @given(d=st.lists(_DIAGONAL_ENTRY, min_size=1, max_size=6),
           lam=st.floats(-1e300, 1e300))
    def test_matches_the_dense_operator(self, d, lam):
        d = np.array(d)
        op, twin = diagonal_operator(d), _dense_twin(d)
        assert _bytes(op.entries) == _bytes(twin.entries)
        assert not op.entries.flags.writeable
        assert op.dim == twin.dim == d.size
        dec, ref = decompose(op), decompose(twin)
        assert _bytes(dec.eigenvalues) == _bytes(ref.eigenvalues)
        shifted, ref_shifted = op.shifted(lam), twin.shifted(lam)
        assert vars(shifted).keys() == {"_diagonal", "_decomposition"}
        assert _bytes(shifted.entries) == _bytes(ref_shifted.entries)
        assert (_bytes(decompose(shifted).eigenvalues)
                == _bytes(decompose(ref_shifted).eigenvalues))
        assert _bytes(bounded_transform(op).entries) == _bytes(bounded_transform(twin).entries)
        assert _bytes(resolvent_at_i(op)) == _bytes(resolvent_at_i(twin))
        # the permutation is shared, so every eigen-index interval agrees
        index = np.arange(d.size)
        for start in range(d.size + 1):
            for stop in range(start, d.size + 1):
                mask = (index >= start) & (index < stop)
                for weights in (None, dec.eigenvalues):
                    assert (_bytes(projector(dec, mask, weights))
                            == _bytes(projector(ref, mask, weights)))
        # entries are built on each read and never kept
        assert op.entries is not op.entries
        assert vars(op).keys() == {"_diagonal", "_decomposition"}

    @settings(max_examples=100, deadline=None)
    @given(d=st.lists(st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0]),
                                st.floats(-1e100, 1e100).filter(
                                    lambda x: x == 0.0 or abs(x) >= 1e-100)),
                      min_size=1, max_size=6))
    def test_matches_eigh_on_the_dense_entries(self, d):
        # eigh scales matrices whose largest entry lies outside about
        # [1e-146, 1e146], which rounds the eigenvalues; inside, it is exact
        op = diagonal_operator(d)
        dec = decompose(op)
        ref = decompose(HermitianOperator(np.diag(d)))
        assert _bytes(dec.eigenvalues) == _bytes(ref.eigenvalues)
        # eigh orders tied columns its own way: compare intervals that keep ties whole
        w = dec.eigenvalues
        bounds = [k for k in range(w.size + 1) if k in (0, w.size) or w[k - 1] != w[k]]
        index = np.arange(w.size)
        for start in bounds:
            for stop in (b for b in bounds if b >= start):
                mask = (index >= start) & (index < stop)
                assert _bytes(projector(dec, mask)) == _bytes(projector(ref, mask))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_entry_names_its_position(self, bad):
        with pytest.raises(NonFiniteEntry) as err:
            diagonal_operator([1.0, 2.0, bad, 3.0])
        assert err.value.entry == (2, 2)
        assert err.value.grid_index is None

    def test_shape_is_checked(self):
        with pytest.raises(ValueError, match="at least 1"):
            diagonal_operator([])
        with pytest.raises(ValueError, match="vector"):
            diagonal_operator(np.eye(2))

    def test_stores_a_copy(self):
        values = np.array([2.0, 1.0])
        op = diagonal_operator(values)
        values[0] = 7.0
        assert op.entries[0, 0] == 2.0


class TestSpectralProjection:
    def test_diagonal_window(self):
        res = spectral_projection(diagonal_operator([-2.0, 0.0, 2.0]),
                                  RealWindow(-1.0, 1.0))
        assert res.rank == 1
        assert res.margin == pytest.approx(1.0)
        assert np.allclose(res.projection.entries, np.diag([0.0, 1.0, 0.0]))

    def test_full_window(self):
        res = spectral_projection(diagonal_operator([-2.0, 0.0, 2.0]),
                                  RealWindow(-3.0, 3.0))
        assert res.rank == 3
        assert np.allclose(res.projection.entries, np.eye(3))

    def test_offdiagonal_rank_one(self):
        # eigenvector for eigenvalue 1 of [[0,1],[1,0]] is (1,1)/sqrt(2)
        res = spectral_projection(HermitianOperator([[0.0, 1.0], [1.0, 0.0]]),
                                  RealWindow(0.5, 2.0))
        assert res.rank == 1
        assert np.allclose(res.projection.entries, np.full((2, 2), 0.5), atol=1e-14)
        assert res.margin == pytest.approx(0.5)

    def test_edge_on_spectrum_carries_margin(self):
        with pytest.raises(EdgeOnSpectrum) as err:
            spectral_projection(diagonal_operator([1.0]), RealWindow(1.0 - 1e-12, 2.0))
        assert err.value.margin <= 1e-12

    def test_half_infinite_window(self):
        res = spectral_projection(diagonal_operator([-1.0, 2.0]),
                                  RealWindow(0.5, math.inf))
        assert res.rank == 1
        assert res.margin == pytest.approx(1.5)

    def test_idempotent_hermitian_trace(self, rng):
        for _ in range(10):
            op = random_hermitian(rng, 9)
            level = float(np.abs(decompose(op).eigenvalues).mean())
            try:
                res = spectral_projection(op, RealWindow.symmetric(level))
            except EdgeOnSpectrum:
                continue
            p = res.projection.entries
            assert hermitian_norm(p @ p - p) <= TAU_PROJECTION
            assert np.max(np.abs(p - p.conj().T)) <= TAU_PROJECTION
            assert abs(np.trace(p).real - res.rank) <= TAU_PROJECTION * op.dim


class TestBoundedTransform:
    def test_zero(self):
        out = bounded_transform(zero_operator(3))
        assert np.allclose(out.entries, 0.0)

    def test_unit_eigenvalues(self):
        out = bounded_transform(diagonal_operator([1.0, -1.0]))
        assert np.allclose(np.diag(out.entries).real,
                           [1 / math.sqrt(2), -1 / math.sqrt(2)])

    def test_scalar_oracle(self):
        values = [3.0, -4.0, 0.0]
        out = bounded_transform(diagonal_operator(values))
        expected = [t / math.sqrt(1 + t * t) for t in values]
        assert np.allclose(np.diag(out.entries).real, expected, atol=1e-15)

    def test_contraction_and_odd(self, rng):
        for _ in range(25):
            op = random_hermitian(rng, int(rng.integers(1, 17)))
            image = bounded_transform(op)
            assert operator_norm(image.entries) < 1.0
            negated = bounded_transform(HermitianOperator(-op.entries))
            assert np.max(np.abs(negated.entries + image.entries)) <= 1e-12

    def test_eigenvalue_monotone(self, rng):
        op = random_hermitian(rng, 12)
        source = decompose(op).eigenvalues
        image = decompose(bounded_transform(op)).eigenvalues
        assert np.allclose(image, bounded_transform_scalar(source), atol=1e-12)


class TestResolvent:
    def test_zero_operator(self):
        res = resolvent_at_i(zero_operator(2))
        assert np.allclose(res, -1j * np.eye(2))
        assert operator_norm(res) == pytest.approx(1.0)

    def test_scalar_reciprocal(self):
        res = resolvent_at_i(diagonal_operator([1.0]))
        assert res[0, 0] == pytest.approx(0.5 - 0.5j)
        assert operator_norm(res) == pytest.approx(1 / math.sqrt(2))

    def test_large_eigenvalue_norm(self):
        res = resolvent_at_i(diagonal_operator([10.0]))
        assert operator_norm(res) == pytest.approx(1 / math.sqrt(101))

    def test_inverse_property_and_norm_formula(self, rng):
        for _ in range(20):
            dim = int(rng.integers(1, 17))
            op = random_hermitian(rng, dim)
            res = resolvent_at_i(op)
            product = res @ (op.entries + 1j * np.eye(dim))
            assert np.max(np.abs(product - np.eye(dim))) <= TAU_RECONSTRUCT * dim
            ev = decompose(op).eigenvalues
            expected = float(np.max(1.0 / np.sqrt(1.0 + ev ** 2)))
            assert abs(operator_norm(res) - expected) <= TAU_RECONSTRUCT


class TestHermitianNorm:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), dim=st.integers(1, 41),
           scale=st.sampled_from(IN_BAND_SCALES + OUT_OF_BAND_SCALES))
    def test_diagonal_input_is_normed_by_its_real_part(self, data, dim, scale):
        entry = st.builds(lambda sign, v: sign * v * scale,
                          st.sampled_from([-1.0, 0.0, 1.0]), st.floats(0.125, 8.0))
        real = data.draw(st.lists(entry, min_size=dim, max_size=dim))
        # the imaginary part is dropped, as eigvalsh drops it
        imag = data.draw(st.lists(entry, min_size=dim, max_size=dim))
        m = np.diag(np.array(real) + 1j * np.array(imag))
        with pytest.MonkeyPatch.context() as mp:
            calls = count_eigvalsh(mp)
            value = hermitian_norm(m)
        assert not calls
        assert value == max(abs(v) for v in real)
        if scale in IN_BAND_SCALES:
            assert value == float(np.max(np.abs(np.linalg.eigvalsh(m))))

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), dim=st.integers(2, 41),
           size=st.sampled_from([1.0, 1e-150, 5e-324]), phase=st.sampled_from([1.0, 1j, -1.0]))
    def test_one_off_diagonal_pair_takes_the_eigensolver(self, data, dim, size, phase):
        i, j = data.draw(st.lists(st.integers(0, dim - 1), min_size=2, max_size=2,
                                  unique=True))
        m = np.diag(np.linspace(-1.0, 2.0, dim)).astype(complex)
        m[i, j], m[j, i] = size * phase, np.conj(size * phase)
        expected = float(np.max(np.abs(np.linalg.eigvalsh(m))))
        with pytest.MonkeyPatch.context() as mp:
            calls = count_eigvalsh(mp)
            assert hermitian_norm(m) == expected
        assert len(calls) == 1

    def test_empty_matrix(self):
        assert hermitian_norm(np.zeros((0, 0), dtype=complex)) == 0.0


class TestOperatorNorm:
    def test_zero(self):
        assert operator_norm(np.zeros((4, 4))) == 0.0

    def test_hermitian_case(self):
        assert operator_norm(np.diag([-5.0, 2.0])) == pytest.approx(5.0)

    def test_nilpotent(self):
        # singular values of [[0,2],[0,0]] are {2, 0}
        assert operator_norm(np.array([[0.0, 2.0], [0.0, 0.0]])) == pytest.approx(2.0)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            operator_norm(np.zeros((2, 3)))


def count_operator_norms(monkeypatch):
    """Record every ``spectral.operator_norm`` call, passing it through."""
    calls = []
    original = spectral.operator_norm

    def counted(m):
        calls.append(m)
        return original(m)

    monkeypatch.setattr(spectral, "operator_norm", counted)
    return calls


#: row scales on both sides of each edge of the SVD's band and well inside it
_SVD_SCALES = [2.0 ** -461, 2.0 ** -458, 2.0 ** -455, 1e-12, 1.0, 1e12,
               2.0 ** 454, 2.0 ** 457, 2.0 ** 460]


@st.composite
def complex_diagonals(draw):
    """One to three complex diagonals of one dim in 1-41, each at its own
    scale, with zeros, -0.0 and purely real or purely imaginary rows."""
    dim = draw(st.integers(1, 41))
    part = st.builds(lambda sign, v: sign * v, st.sampled_from([-1.0, -0.0, 0.0, 1.0]),
                     st.floats(0.125, 8.0))
    rows = []
    for _ in range(draw(st.integers(1, 3))):
        scale = draw(st.sampled_from(_SVD_SCALES))
        re = np.array(draw(st.lists(part, min_size=dim, max_size=dim))) * scale
        im = np.array(draw(st.lists(part, min_size=dim, max_size=dim))) * scale
        kind = draw(st.sampled_from(["complex", "real", "imaginary"]))
        if kind == "real":
            im = np.copysign(0.0, im)
        elif kind == "imaginary":
            re = np.copysign(0.0, re)
        row = np.empty(dim, dtype=complex)
        row.real, row.imag = re, im
        rows.append(row)
    return np.stack(rows)


class TestComplexDiagonalNorms:
    @settings(max_examples=400, deadline=None)
    @given(z=complex_diagonals())
    def test_equals_the_svd_bit_for_bit(self, z):
        expected = [float(np.linalg.norm(np.diag(row), 2)).hex() for row in z]
        assert [v.hex() for v in _complex_diagonal_norms(z).tolist()] == expected

    @pytest.mark.parametrize("dim", [1, 3, 41])
    def test_in_band_takes_no_svd(self, dim, rng):
        z = rng.standard_normal((5, dim)) + 1j * rng.standard_normal((5, dim))
        # every row's largest max(|Re|, |Im|) is 1, and one row is 0
        top = np.maximum(abs(z.real), abs(z.imag)).max(axis=1, keepdims=True)
        z.real /= top
        z.imag /= top
        z[0] = 0.0
        with pytest.MonkeyPatch.context() as mp:
            calls = count_operator_norms(mp)
            for edge in _SVD_EXACT_BAND:
                _complex_diagonal_norms(z * edge)
        assert not calls

    def test_dim_2_and_rows_beyond_the_band_take_the_svd(self, rng):
        z = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
        z[1] *= 2.0 ** -470
        z[2] *= 2.0 ** 470
        with pytest.MonkeyPatch.context() as mp:
            calls = count_operator_norms(mp)
            _complex_diagonal_norms(z)
            _complex_diagonal_norms(z[:, :2])
        assert [m.shape for m in calls] == [(4, 4), (4, 4), (2, 2), (2, 2), (2, 2)]


class TestRealWindow:
    def test_endpoint_order_enforced(self):
        with pytest.raises(ValueError):
            RealWindow(2.0, 1.0)

    def test_membership_closedness(self):
        closed = RealWindow(0.0, 1.0)
        open_ = RealWindow(0.0, 1.0, lo_closed=False, hi_closed=False)
        assert closed.contains(0.0) and closed.contains(1.0)
        assert not open_.contains(0.0) and not open_.contains(1.0)
        assert open_.contains(0.5)
