"""Spectral calculus for finite Hermitian matrices.

Dense eigendecomposition, spectral window projections, the bounded transform
t -> t(1+t^2)^(-1/2), and the resolvent at +i.  Everything downstream
(adapted pairs, continuity certificates, spectral flow) is built from the
handful of operations here, and all of them are plain functions of their
inputs: values are immutable after construction and safe to share between
threads.

An operator is stored in one of two forms.  ``HermitianOperator(entries)``
keeps the dense, validated entries.  ``diagonal_operator`` keeps only the real
diagonal: ``entries`` builds the dense matrix on each read and does not keep
it.  It also carries the exact decomposition: the stably sorted diagonal and
the sorting permutation, so no eigensolver runs and no dense eigenbasis is
stored either.  The ``dirac_circle`` and ``tangent_blowup`` generators use
this form, and so does a matrix file's operator whose off-diagonal entries
are all zero, when ``eigh`` would return its sorted diagonal bit for bit
(``_exact_if_diagonal``).  ``linear_crossing`` is diagonal too but stays on
``eigh`` for now, because the benchmark's own tests pin its decomposition
work.  ``random_crossings`` has a fixed basis, but an exact decomposition
there would change eigenvalue bits and so report bytes.

Every function of an operator, sum_j w_j v_j v_j* over some of its
eigenpairs, is built by ``_spectral_function``.  For a decomposition in
permutation form it returns the length-d diagonal of that operator (w_j at
standard index ``order[j]``); otherwise, or when asked, the dense d x d
matrix ``projector`` builds.  Both hold the same values, since a projector
built from the permuted identity columns has exact entries.
``_difference_norm`` norms the difference of two such images, and refuses a
vector and a matrix together: one chain of images takes one form.  The
public ``projector``, ``resolvent_at_i`` and ``bounded_transform(...).entries``
always return dense d x d matrices; ``bounded_transform`` of an operator in
permutation form is itself in diagonal form.

``hermitian_norm`` looks at its input before it calls the eigensolver: a
matrix with no nonzero off-diagonal entry is normed as max |Re a_ii|.  The
value equals the eigensolver's bits while the entries lie within about
[1e-146, 1e146] and is exact beyond that band.  ``operator_norm`` keeps the
SVD on every input.

Tolerances follow the usual backward-error scale of dense Hermitian
eigensolvers at moderate dimensions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EdgeOnSpectrum, NonFiniteEntry, NotHermitianError

#: relative hermiticity tolerance, scaled by the largest entry magnitude
TAU_HERMITIAN_REL = 1e-10
#: idempotency / hermiticity tolerance for spectral projections
TAU_PROJECTION = 1e-9
#: reconstruction and oracle-agreement tolerance
TAU_RECONSTRUCT = 1e-9
#: clearance a window endpoint must keep from the spectrum: every certificate,
#: search, sweep and flow route reads it; only ``spectral_projection`` takes
#: its own per call
TAU_EDGE_DEFAULT = 1e-8

# entries up to this magnitude can be summed pairwise without overflow
_HALF_MAX = float(np.finfo(float).max) / 2.0
# beyond this magnitude the bounded transform's t * t can overflow
_TRANSFORM_SATURATION = 1e154
# LAPACK's eigh scales a matrix whose largest entry magnitude lies outside
# [2**-485, 2**485], which rounds the eigenvalues; inside (or for the zero
# matrix) a diagonal matrix's eigenvalues are its entries, bit for bit.  The
# band is kept one binade inside those limits
_EIGH_EXACT_BAND = (2.0 ** -484, 2.0 ** 484)


@dataclass(frozen=True, eq=False)
class HermitianOperator:
    """A finite self-adjoint matrix, stored densely or as its real diagonal.

    ``HermitianOperator(entries)`` stores dense entries that are finite and
    exactly Hermitian: after refusing NaN and infinite entries
    (``NonFiniteEntry``) and validating that the input deviates from its
    adjoint by at most ``TAU_HERMITIAN_REL`` times the largest entry, the
    constructor replaces it with the average of the matrix and its conjugate
    transpose.  ``diagonal_operator`` stores only the finite real diagonal;
    reading ``entries`` then builds the same read-only dense matrix on each
    call without keeping it.
    """

    entries: np.ndarray

    def __post_init__(self):
        m = np.array(self.entries, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {m.shape}")
        if m.shape[0] < 1:
            raise ValueError("operator dimension must be at least 1")
        finite = np.isfinite(m)
        if not finite.all():
            i, j = (int(k) for k in np.argwhere(~finite)[0])
            raise NonFiniteEntry((i, j), complex(m[i, j]))
        scale = float(np.max(np.abs(m)))
        factor, c, c_scale = 1.0, m, scale
        if scale > _HALF_MAX:
            # a modulus or a difference may overflow to inf here and switch the
            # check off, so check a quarter of the matrix, scaled exactly
            factor = 4.0
            c = m / factor
            c_scale = float(np.max(np.abs(c)))
        deviation = np.abs(c - c.conj().T)
        worst = float(deviation.max())
        if worst > TAU_HERMITIAN_REL * c_scale:
            i, j = np.unravel_index(int(deviation.argmax()), deviation.shape)
            raise NotHermitianError(factor * worst, factor * TAU_HERMITIAN_REL * c_scale,
                                    (int(i), int(j)))
        if scale <= _HALF_MAX:
            # exact on Hermitian input, subnormal entries included
            sym = (m + m.conj().T) / 2.0
        else:
            # the sum would overflow; halving first rounds only subnormals
            sym = 0.5 * m + 0.5 * m.conj().T
        sym.setflags(write=False)
        object.__setattr__(self, "entries", sym)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def shifted(self, lam: float) -> "HermitianOperator":
        """The operator minus ``lam`` times the identity (same eigenvectors)."""
        out = HermitianOperator(self.entries - lam * np.eye(self.dim))
        cached = self.__dict__.get("_decomposition")
        if cached is not None:
            _install_decomposition(out, cached.eigenvalues - lam, cached.basis, cached.order)
        return out

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"HermitianOperator(dim={self.dim})"


class _DiagonalOperator(HermitianOperator):
    """The diagonal form built by ``diagonal_operator``: only the diagonal is stored.

    It always carries its exact decomposition, installed by the caller.
    """

    def __init__(self, values):
        # + 0.0 turns -0.0 into 0.0, as the dense form's averaging does
        d = np.asarray(values, dtype=float) + 0.0
        if d.ndim != 1:
            raise ValueError(f"expected a vector of diagonal entries, got shape {d.shape}")
        if d.size < 1:
            raise ValueError("operator dimension must be at least 1")
        finite = np.isfinite(d)
        if not finite.all():
            i = int(np.argmin(finite))
            raise NonFiniteEntry((i, i), complex(d[i]))
        d.setflags(write=False)
        object.__setattr__(self, "_diagonal", d)

    @property
    def entries(self) -> np.ndarray:
        m = np.diag(self._diagonal.astype(complex))
        m.setflags(write=False)
        return m

    @property
    def dim(self) -> int:
        return self._diagonal.size

    def shifted(self, lam: float) -> "HermitianOperator":
        out = _DiagonalOperator(self._diagonal - lam)
        dec = self._decomposition
        _install_decomposition(out, dec.eigenvalues - lam, order=dec.order)
        return out


@dataclass(frozen=True)
class SpectralDecomposition:
    """Ascending eigenvalues and a matching orthonormal eigenbasis.

    The basis is held either densely (``basis``) or, for an operator that is
    diagonal in the standard basis, as the permutation ``order``: eigenvalue k
    belongs to standard basis vector ``order[k]``.
    """

    eigenvalues: np.ndarray
    basis: np.ndarray | None = None
    order: np.ndarray | None = None

    @property
    def eigenvectors(self) -> np.ndarray:
        """The eigenbasis as read-only columns; in permutation form, built on each call."""
        if self.basis is not None:
            return self.basis
        v = np.eye(self.eigenvalues.size, dtype=complex)[:, self.order]
        v.setflags(write=False)
        return v


@dataclass(frozen=True)
class RealWindow:
    """An interval of the real line with explicit endpoint closedness.

    Endpoint closedness only matters when an eigenvalue sits exactly on an
    endpoint, which the projection routines refuse anyway; it is kept
    explicit so window arithmetic stays unambiguous.
    """

    lo: float
    hi: float
    lo_closed: bool = True
    hi_closed: bool = True

    def __post_init__(self):
        if not self.lo <= self.hi:
            raise ValueError(f"window endpoints out of order: ({self.lo}, {self.hi})")

    @classmethod
    def symmetric(cls, level: float) -> "RealWindow":
        """The closed window [-level, level]."""
        return cls(-float(level), float(level))

    def finite_endpoints(self) -> list[float]:
        return [e for e in (self.lo, self.hi) if math.isfinite(e)]

    def mask(self, values: np.ndarray) -> np.ndarray:
        """Boolean membership of ``values`` in the window."""
        lo_ok = values >= self.lo if self.lo_closed else values > self.lo
        hi_ok = values <= self.hi if self.hi_closed else values < self.hi
        return lo_ok & hi_ok

    def contains(self, value: float) -> bool:
        return bool(self.mask(np.asarray([value]))[0])


@dataclass(frozen=True)
class WindowProjection:
    """Spectral projection onto a window plus its rank and endpoint margin."""

    projection: HermitianOperator
    rank: int
    margin: float


def identity_operator(dim: int) -> HermitianOperator:
    return HermitianOperator(np.eye(dim))


def zero_operator(dim: int) -> HermitianOperator:
    return HermitianOperator(np.zeros((dim, dim)))


def diagonal_operator(values) -> HermitianOperator:
    """The diagonal operator, stored as its diagonal and carrying its exact
    decomposition: no eigensolver runs and no dense matrix is kept.

    Refuses NaN and infinite values with ``NonFiniteEntry`` naming ``(i, i)``.
    """
    op = _DiagonalOperator(values)
    order = np.argsort(op._diagonal, kind="stable")
    order.setflags(write=False)
    _install_decomposition(op, op._diagonal[order], order=order)
    return op


def _install_decomposition(op: HermitianOperator, eigenvalues: np.ndarray,
                           basis: np.ndarray | None = None,
                           order: np.ndarray | None = None) -> None:
    """Attach a known decomposition (used when it is exact by construction)."""
    w = np.asarray(eigenvalues, dtype=float)
    w.setflags(write=False)
    object.__setattr__(op, "_decomposition", SpectralDecomposition(w, basis, order))


def decompose(op: HermitianOperator) -> SpectralDecomposition:
    """Eigendecomposition with ascending eigenvalues, cached on the operator.

    An operator that carries its exact decomposition (``diagonal_operator``)
    gets it back without an eigensolver.  The LAPACK driver behind
    ``numpy.linalg.eigh`` is deterministic for a fixed input, which fixes the
    tie-breaking inside degenerate clusters; nothing downstream depends on
    that choice, only on the spanned subspaces.
    """
    cached = op.__dict__.get("_decomposition")
    if cached is None:
        w, v = np.linalg.eigh(op.entries)
        w.setflags(write=False)
        v.setflags(write=False)
        cached = SpectralDecomposition(w, v)
        object.__setattr__(op, "_decomposition", cached)
    return cached


def window_margin(eigenvalues: np.ndarray, window: RealWindow) -> float:
    """Smallest distance from any eigenvalue to a finite window endpoint."""
    endpoints = window.finite_endpoints()
    if not endpoints:
        return math.inf
    return float(min(np.min(np.abs(eigenvalues - e)) for e in endpoints))


def projector(dec: SpectralDecomposition, mask: np.ndarray,
              weights: np.ndarray | None = None) -> np.ndarray:
    """Sum of rank-one projectors over the masked eigenpairs.

    With ``weights`` given, returns sum_j w_j v_j v_j* instead, i.e. a
    function of the operator supported on the selected eigenspaces.
    """
    vecs = dec.eigenvectors[:, mask]
    if weights is None:
        return vecs @ vecs.conj().T
    return (vecs * np.asarray(weights)[mask]) @ vecs.conj().T


def _spectral_function(dec: SpectralDecomposition, mask: np.ndarray,
                       weights: np.ndarray | None = None,
                       dense: bool = False) -> np.ndarray:
    """Sum of w_j v_j v_j* over the masked eigenpairs (w_j = 1 without weights).

    ``weights`` is a float or complex array over all eigen-indices.  In
    permutation form, unless ``dense``, the operator is diagonal in the
    standard basis and comes back as its length-d diagonal, of the weights'
    dtype: w_j at index ``order[j]`` for each masked j, 0 elsewhere.
    Otherwise it is ``projector``'s dense d x d matrix, whose diagonal holds
    the same values when the basis is the permuted identity.
    """
    if dense or dec.order is None:
        return projector(dec, mask, weights)
    if weights is None:
        out = np.zeros(dec.eigenvalues.size)
        out[dec.order[mask]] = 1.0
    else:
        values = weights[mask]
        out = np.zeros(dec.eigenvalues.size, dtype=values.dtype)
        out[dec.order[mask]] = values
    return out


def _dense_form(image: np.ndarray) -> np.ndarray:
    """A ``_spectral_function`` image as the dense complex d x d matrix it stands for."""
    return np.diag(image.astype(complex)) if image.ndim == 1 else image


def _difference_norm(a: np.ndarray, b: np.ndarray, norm) -> float:
    """Spectral norm of ``a - b``, two images of one chain of ``_spectral_function``.

    ``norm`` is ``hermitian_norm`` or ``operator_norm``, and a dense difference
    goes to it.  A real diagonal difference is normed as its largest absolute
    entry, the value ``hermitian_norm`` takes on its dense form.  A complex one
    is made dense and goes to ``norm``: on a complex diagonal the SVD's value
    differs from max |z| in the last bit on some inputs (see
    ``operator_norm``).  A vector and a matrix are refused, since their
    difference would broadcast to a wrong d x d matrix.
    """
    if a.shape != b.shape:
        raise ValueError(f"images of one chain must share one form, got shapes "
                         f"{a.shape} and {b.shape}")
    diff = a - b
    if diff.ndim == 2:
        return norm(diff)
    if diff.dtype.kind == "c":
        return norm(np.diag(diff))
    return float(np.abs(diff).max())


def spectral_projection(op: HermitianOperator, window: RealWindow,
                        tau_edge: float = TAU_EDGE_DEFAULT) -> WindowProjection:
    """Orthogonal projection onto the eigenspaces with eigenvalues in ``window``.

    Refuses (``EdgeOnSpectrum``) when a finite endpoint comes within
    ``tau_edge`` of the spectrum: window endpoints on the spectrum make the
    projection discontinuous in the operator and every certificate built on
    it meaningless.
    """
    dec = decompose(op)
    margin = window_margin(dec.eigenvalues, window)
    if not margin >= tau_edge:
        offending = min(
            window.finite_endpoints(),
            key=lambda e: float(np.min(np.abs(dec.eigenvalues - e))),
        )
        raise EdgeOnSpectrum(offending, margin)
    mask = window.mask(dec.eigenvalues)
    proj = HermitianOperator(projector(dec, mask))
    return WindowProjection(proj, int(np.count_nonzero(mask)), margin)


def bounded_transform_scalar(values):
    """The contraction t 1-> t(1+t^2)^(-1/2), elementwise."""
    v = np.asarray(values, dtype=float)
    saturated = np.abs(v) > _TRANSFORM_SATURATION
    if saturated.any():
        # t * t would overflow there, and the value has long rounded to sign(t)
        kept = np.where(saturated, 0.0, v)
        return np.where(saturated, np.sign(v), kept / np.sqrt(1.0 + kept * kept))
    return v / np.sqrt(1.0 + v * v)


def bounded_transform(op: HermitianOperator) -> HermitianOperator:
    """Apply the bounded transform; eigenvectors are unchanged, norm < 1.

    The result carries the transformed decomposition, so window ranks of the
    image agree exactly with window ranks of the source.  An operator in
    permutation form maps to one in diagonal form, with the same permutation.
    """
    dec = decompose(op)
    vals = bounded_transform_scalar(dec.eigenvalues)
    if dec.order is not None:
        diagonal = np.empty_like(vals)
        diagonal[dec.order] = vals
        out = _DiagonalOperator(diagonal)
    else:
        v = dec.eigenvectors
        out = HermitianOperator((v * vals) @ v.conj().T)
    # the transform is increasing, so the transformed list is still ascending
    _install_decomposition(out, vals, dec.basis, dec.order)
    return out


def resolvent_at_i(op: HermitianOperator) -> np.ndarray:
    """(A + i)^(-1), always defined for self-adjoint A.

    Its spectral norm is max over eigenvalues of (1 + t^2)^(-1/2).
    """
    dec = decompose(op)
    vals = 1.0 / (dec.eigenvalues + 1j)
    v = dec.eigenvectors
    return (v * vals) @ v.conj().T


def operator_norm(m: np.ndarray) -> float:
    """Largest singular value; equals max |eigenvalue| for Hermitian input.

    It takes no diagonal shortcut, unlike ``hermitian_norm``: on a complex
    diagonal the SVD's value differs from max |z| by one ulp on about 4% of
    inputs (74 of 2,000 random diagonals of dims 1-41 at scales 1e-3 to 1e3),
    so a shortcut would move the bits of the graph certificate's
    ``compressed_modulus`` and ``final_bound`` and of the graph distances.
    """
    m = np.asarray(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    return float(np.linalg.norm(m, 2))


def hermitian_norm(m: np.ndarray) -> float:
    """Spectral norm of a Hermitian matrix via eigenvalues (cheaper than SVD).

    A matrix whose off-diagonal entries are all zero is normed as
    max |Re a_ii|, with no eigensolver.  It must be the real part: ``eigvalsh``
    reads only the real part of the diagonal, and |a_ii| differs from it where
    a_ii has an imaginary part.  The value is exact at every magnitude, and it
    equals ``max |eigvalsh|`` bit for bit while the entries lie within about
    [1e-146, 1e146]; beyond that band LAPACK rescales the matrix and rounds
    its eigenvalues.  Any nonzero off-diagonal entry, however small, takes
    ``eigvalsh``.  An empty matrix has norm 0.
    """
    if m.size == 0:
        return 0.0
    if _off_diagonal_zero(m):
        return float(np.max(np.abs(np.diagonal(m).real)))
    return float(np.max(np.abs(np.linalg.eigvalsh(m))))


def _off_diagonal_zero(m: np.ndarray) -> bool:
    """Whether every off-diagonal entry of the non-empty square ``m`` is zero."""
    d = m.shape[0]
    # a dense input almost always has a_10 != 0, which settles it in well
    # under a microsecond; otherwise row i of the view holds the d entries
    # after a_ii in memory, so it covers every off-diagonal entry exactly once
    return bool((d == 1 or m[1, 0] == 0)
                and not m.reshape(-1)[:-1].reshape(d - 1, d + 1)[:, 1:].any())


def _exact_if_diagonal(op: HermitianOperator) -> HermitianOperator:
    """``op`` in diagonal form, with its exact decomposition, when that keeps
    ``eigh``'s bits; otherwise ``op`` itself.

    That holds when every off-diagonal entry is zero and the largest diagonal
    magnitude is 0 or lies in ``_EIGH_EXACT_BAND``: ``eigh`` then returns the
    sorted diagonal bit for bit.  Within a tie it may order the eigenvectors
    otherwise than the stable sort, which nothing downstream can see, because
    every mask and eigen-index interval is cut at a value and so never splits
    a tie.
    """
    m = op.entries
    if not _off_diagonal_zero(m):
        return op
    diagonal = np.diagonal(m).real
    top = float(np.max(np.abs(diagonal)))
    if top != 0.0 and not _EIGH_EXACT_BAND[0] <= top <= _EIGH_EXACT_BAND[1]:
        return op
    return diagonal_operator(diagonal)
