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
(``_exact_if_diagonal``).  The dense generators, ``harmonic_perturbed`` and
``random_crossings``, build their whole grid at once: ``_hermitian_stack``
validates the (n, d, d) stack by the rule ``HermitianOperator`` applies to a
stack of one, and ``_decomposed_stack`` gives every operator its eigenpairs
from one stacked ``eigh``, the bits ``decompose`` would give it alone.
``linear_crossing`` is diagonal but stays dense and is decomposed lazily, one
``eigh`` per point, because the benchmark's own tests pin its decomposition
work.

Every function of an operator, sum_j w_j v_j v_j* over some of its
eigenpairs, is built for a run of points at once by ``_spectral_functions``,
in the form ``_dense_range`` chooses for the whole run.  When every point
holds its eigenbasis as a permutation, row k is the length-d diagonal of
point k's image (w_j at standard index ``order[j]``), and the run is one
(r, d) scatter; when any point is dense, every row is ``projector``'s dense
d x d matrix.  Both forms hold the same values, since a projector built from
the permuted identity columns has exact entries.  ``_difference_norms``
norms each row or slice of a difference of such images.  The public
``projector``, ``resolvent_at_i`` and ``bounded_transform(...).entries``
always return dense d x d matrices; ``bounded_transform`` of an operator in
permutation form is itself in diagonal form.

``hermitian_norm`` looks at its input before it calls the eigensolver: a
matrix with no nonzero off-diagonal entry is normed as max |Re a_ii|, the
value its diagonal form takes, so a difference of permutation-form images has
one norm whichever form its run was built in.  The value equals the
eigensolver's bits while the entries lie within about [1e-146, 1e146] and is
exact beyond that band.  ``operator_norm`` keeps the SVD on every input; a
complex diagonal in diagonal form is normed with the SVD's own arithmetic
instead (``_complex_diagonal_norms``), which gives the same bits inside a
band and at every dimension but 2.

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
# LAPACK's SVD (zgesdd) scales a matrix whose largest entry modulus lies
# outside [2**-459, 2**459], which rounds the singular values.  The band
# bounds max(|Re z|, |Im z|), which is within a factor sqrt(2) of the modulus,
# and is kept at least one binade inside those limits
_SVD_EXACT_BAND = (2.0 ** -458, 2.0 ** 457)


@dataclass(frozen=True, eq=False)
class HermitianOperator:
    """A finite self-adjoint matrix, stored densely or as its real diagonal.

    ``HermitianOperator(entries)`` stores dense entries that are finite and
    exactly Hermitian: after refusing NaN and infinite entries
    (``NonFiniteEntry``) and validating that the input deviates from its
    adjoint by at most ``TAU_HERMITIAN_REL`` times the largest entry, the
    constructor replaces it with the average of the matrix and its conjugate
    transpose (``_hermitian_stack`` on a stack of one).  ``diagonal_operator``
    stores only the finite real diagonal; reading ``entries`` then builds the
    same read-only dense matrix on each call without keeping it.
    """

    entries: np.ndarray

    def __post_init__(self):
        m = np.array(self.entries, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {m.shape}")
        if m.shape[0] < 1:
            raise ValueError("operator dimension must be at least 1")
        try:
            sym = _hermitian_stack(m[None])[0]
        except (NonFiniteEntry, NotHermitianError) as exc:
            # a lone matrix has no grid point to name
            raise exc.at_grid_index(None) from None
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


def _hermitian_stack(m: np.ndarray) -> np.ndarray:
    """The complex (n, d, d) stack ``m`` validated and made exactly Hermitian,
    read-only; the rule ``HermitianOperator`` applies to a stack of one.

    Matrix k is refused if an entry is NaN or infinite (``NonFiniteEntry``) or
    if it deviates from its adjoint by more than ``TAU_HERMITIAN_REL`` times its
    largest entry modulus (``NotHermitianError``); otherwise it becomes the
    average of itself and its conjugate transpose.  The first refused matrix
    raises the error it would raise alone, with ``grid_index`` k.
    """
    finite = np.isfinite(m)
    stop = len(m) if finite.all() else int(finite.all(axis=(1, 2)).argmin())
    head = m[:stop]
    adjoint = head.conj().transpose(0, 2, 1)
    scale = np.abs(head).max(axis=(1, 2))
    big = scale > _HALF_MAX
    any_big = big.any()
    c, c_adjoint, c_scale = head, adjoint, scale
    if any_big:
        # a modulus or a difference may overflow to inf there and switch the
        # check off, so check a quarter of those matrices, scaled exactly
        c = head / np.where(big, 4.0, 1.0)[:, None, None]
        c_adjoint = c.conj().transpose(0, 2, 1)
        c_scale = np.abs(c).max(axis=(1, 2))
    deviation = np.abs(c - c_adjoint)
    worst = deviation.max(axis=(1, 2))
    failed = worst > TAU_HERMITIAN_REL * c_scale
    if failed.any():
        k = int(failed.argmax())
        i, j = np.unravel_index(int(deviation[k].argmax()), deviation.shape[1:])
        f = 4.0 if big[k] else 1.0
        raise NotHermitianError(f * float(worst[k]), f * TAU_HERMITIAN_REL * float(c_scale[k]),
                                (int(i), int(j)), grid_index=k)
    if stop < len(m):
        i, j = (int(t) for t in np.argwhere(~finite[stop])[0])
        raise NonFiniteEntry((i, j), complex(m[stop, i, j]), grid_index=stop)
    if any_big:
        # their sum would overflow; halving first rounds only subnormals
        sym = 0.5 * head + 0.5 * adjoint
        small = ~big
        sym[small] = (head[small] + adjoint[small]) / 2.0
    else:
        # exact on Hermitian input, subnormal entries included
        sym = (head + adjoint) / 2.0
    sym.setflags(write=False)
    return sym


def _decomposed_stack(matrices: np.ndarray) -> tuple[HermitianOperator, ...]:
    """One operator per matrix of the (n, d, d) stack, validated by
    ``_hermitian_stack`` and carrying its eigenpairs from one stacked ``eigh``.

    ``eigh`` decomposes each matrix of a stack as it decomposes that matrix
    alone, so every operator holds the bits ``decompose`` would give it.
    """
    sym = _hermitian_stack(np.asarray(matrices, dtype=complex))
    w, v = np.linalg.eigh(sym)
    w.setflags(write=False)
    v.setflags(write=False)
    ops = []
    for entries, values, basis in zip(sym, w, v):
        op = object.__new__(HermitianOperator)
        object.__setattr__(op, "entries", entries)
        object.__setattr__(op, "_decomposition", SpectralDecomposition(values, basis))
        ops.append(op)
    return tuple(ops)


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

    An operator that carries its decomposition (``diagonal_operator``'s exact
    one, or the one ``_decomposed_stack`` installs) gets it back without an
    eigensolver.  The LAPACK driver behind
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


def _dense_range(decompositions) -> bool:
    """Whether images over these decompositions are built dense: unless every
    one is in permutation form, all of them are."""
    return any(dec.order is None for dec in decompositions)


def _spectral_functions(decs, masks: np.ndarray, weights: np.ndarray | None = None,
                        dense: bool = False) -> np.ndarray:
    """Row k: sum_j w_j v_j v_j* over the eigenpairs of ``decs[k]`` that
    ``masks[k]`` selects, with w = ``weights[k]`` (1 without weights).

    ``masks`` is a boolean (r, d) array over eigen-indices and ``weights`` a
    float or complex (r, d) array or None; ``dense`` is ``_dense_range`` of
    the run the images belong to.  Unless ``dense``, every decomposition is
    in permutation form, and the result is one (r, d) scatter of the masked
    weights into the standard indices, of the weights' dtype.  With ``dense``
    it is the (r, d, d) stack of ``projector``'s matrices.
    """
    if dense:
        return np.stack([projector(dec, mask, None if weights is None else weights[k])
                         for k, (dec, mask) in enumerate(zip(decs, masks))])
    values = masks.astype(float) if weights is None else np.where(masks, weights, 0)
    out = np.zeros(values.shape, dtype=values.dtype)
    np.put_along_axis(out, np.stack([dec.order for dec in decs]), values, axis=1)
    return out


def _difference_norms(diffs: np.ndarray, norm) -> np.ndarray:
    """Spectral norm of each row (diagonal form) or slice (dense form) of
    ``diffs``, a stacked difference of images of one chain.

    A dense slice goes to ``norm``, ``hermitian_norm`` or ``operator_norm``,
    one LAPACK call each.  A real diagonal row is normed as its largest
    absolute entry, the value ``hermitian_norm`` takes on its dense form; a
    complex one by ``_complex_diagonal_norms``, with the bits ``operator_norm``
    gives on its dense form.  Only the graph chain's resolvents are complex,
    and it norms them with ``operator_norm``.
    """
    if diffs.ndim == 3:
        return np.array([norm(m) for m in diffs], dtype=float)
    if diffs.dtype.kind == "c":
        return _complex_diagonal_norms(diffs)
    return np.abs(diffs).max(axis=1)


def _complex_diagonal_norms(z: np.ndarray) -> np.ndarray:
    """Per row of the (r, d) complex ``z``, ``operator_norm(np.diag(row))``
    bit for bit, with no SVD where that can be done.

    The SVD (zgesdd) bidiagonalizes with Householder steps (zlarfg), which
    turn each diagonal entry into dlapy3(Re z, Im z, 0) = w sqrt((|Re z|/w)^2
    + (|Im z|/w)^2) with w = max(|Re z|, |Im z|), and leave every
    off-diagonal entry 0; dlasq1 then returns those values unchanged, and the
    norm is their maximum.  An entry with w = 0 counts as 0.  That holds at
    every dimension but 2, where dlasq1 hands the two values to dlas2, which
    can round them, and while the largest w lies in ``_SVD_EXACT_BAND`` (or
    is 0): outside it zgesdd scales the matrix first.  Those rows take
    ``operator_norm``.
    """
    re, im = np.abs(z.real), np.abs(z.imag)
    w = np.maximum(re, im)
    nonzero = w > 0
    # w is 0 only where both parts are, and those entries count as 0
    q = np.divide(re, w, out=np.zeros_like(w), where=nonzero) ** 2
    q += np.divide(im, w, out=np.zeros_like(w), where=nonzero) ** 2
    out = (w * np.sqrt(q)).max(axis=1)
    top = w.max(axis=1)
    lo, hi = _SVD_EXACT_BAND
    svd = (top != 0) & ((top < lo) | (top > hi))
    if z.shape[1] == 2:
        svd[:] = True
    for k in np.flatnonzero(svd):
        out[k] = operator_norm(np.diag(z[k]))
    return out


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
    diagonal the SVD's value is not max |z| (``hypot``) but max dlapy3(Re z,
    Im z, 0), which differs from it by one ulp on about 4% of inputs (74 of
    2,000 random diagonals of dims 1-41 at scales 1e-3 to 1e3).  Images in
    diagonal form reach those bits without an SVD through
    ``_complex_diagonal_norms``, which gives the mechanism, its band and why
    dimension 2 still takes the SVD.
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
