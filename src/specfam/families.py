"""Parameter-indexed operator families on one-dimensional grids.

Built-in generators cover the standard test models: a truncated first-order
operator with a flux parameter (``dirac_circle``), a perturbed oscillator
ladder (``harmonic_perturbed``), a single eigenvalue escaping through infinity
(``tangent_blowup``), one linear crossing against fixed padding
(``linear_crossing``), seeded smooth random paths (``random_crossings``), and
explicit matrices loaded from a JSON file (``matrix_path_file``).

Every generator is deterministic given the spec, the grid and the seed.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import FamilyModelError, NonFiniteEntry
from .spectral import (
    HermitianOperator,
    RealWindow,
    SpectralDecomposition,
    TAU_EDGE_DEFAULT,
    bounded_transform,
    decompose,
    diagonal_operator,
    hermitian_norm,
    spectral_projection,
)

FAMILY_KINDS = (
    "dirac_circle",
    "harmonic_perturbed",
    "tangent_blowup",
    "linear_crossing",
    "random_crossings",
    "matrix_path_file",
)

#: truncation-stability tolerance for closed-form models
TAU_TRUNC_ANALYTIC = 1e-8
#: truncation-stability tolerance for file-loaded models
TAU_TRUNC_FILE = 1e-3

_POLE_TOLERANCE = 1e-9


@dataclass(frozen=True)
class ParameterGrid:
    """Strictly increasing parameter values; at least two points."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 1 or pts.size < 2:
            raise ValueError("a parameter grid needs at least 2 points")
        if not np.all(np.diff(pts) > 0):
            raise ValueError("grid points must be strictly increasing")
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    @classmethod
    def linspace(cls, start: float, end: float, count: int) -> "ParameterGrid":
        return cls(np.linspace(start, end, count))

    def __len__(self) -> int:
        return self.points.size

    def __getitem__(self, i: int) -> float:
        return float(self.points[i])


@dataclass(frozen=True)
class FamilySpec:
    """Which generator to run, at which truncation dimension, with what knobs."""

    kind: str
    dim: int
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in FAMILY_KINDS:
            raise FamilyModelError(
                f"unknown family kind {self.kind!r}; choose from {FAMILY_KINDS}"
            )
        if self.kind != "matrix_path_file" and self.dim < 1:
            raise FamilyModelError("truncation dimension must be positive")
        if self.kind == "dirac_circle":
            if self.dim < 3 or self.dim % 2 == 0:
                raise FamilyModelError(
                    "dirac_circle needs an odd dimension 2N+1 with N >= 1"
                )

    def with_dim(self, dim: int) -> "FamilySpec":
        return FamilySpec(self.kind, dim, self.params)


@dataclass(frozen=True, eq=False)
class FamilySample:
    """A family restricted to a grid: one Hermitian operator per grid point."""

    grid: ParameterGrid
    operators: tuple[HermitianOperator, ...]

    def __post_init__(self):
        ops = tuple(self.operators)
        if len(ops) != len(self.grid):
            raise ValueError("one operator per grid point required")
        dims = {op.dim for op in ops}
        if len(dims) != 1:
            raise ValueError(f"all operators must share one dimension, got {sorted(dims)}")
        object.__setattr__(self, "operators", ops)

    @property
    def dim(self) -> int:
        return self.operators[0].dim

    def __len__(self) -> int:
        return len(self.grid)

    @cached_property
    def decompositions(self) -> tuple[SpectralDecomposition, ...]:
        return tuple(decompose(op) for op in self.operators)

    @cached_property
    def eigenvalue_matrix(self) -> np.ndarray:
        """Row y holds the ascending eigenvalues of the operator at grid point y."""
        mat = np.vstack([d.eigenvalues for d in self.decompositions])
        mat.setflags(write=False)
        return mat

    @cached_property
    def projection_moduli(self) -> dict[tuple[int, int, int, int, int], float]:
        """Memo of adjacent-edge projection norms, filled by ``adapted._interval_modulus``.

        Maps (left grid index, left start, left stop, right start, right stop)
        to the norm of the difference of the projections onto eigen-indices
        [start, stop) at the two ends of the edge.
        """
        return {}

    @cached_property
    def restriction_moduli(self) -> dict[tuple[int, int, int, int, int], float]:
        """The same memo for the operator compressed to each interval; never shared."""
        return {}

    def shifted(self, lam: float) -> "FamilySample":
        """The family minus ``lam``; decompositions shift with it exactly.

        No moduli are shared: an operator not yet decomposed gets its own eigh.
        """
        return FamilySample(self.grid, tuple(op.shifted(lam) for op in self.operators))

    def bounded_transformed(self) -> "FamilySample":
        """Fiberwise bounded transform; window ranks correspond exactly.

        The transform keeps every eigenvector, so the projection moduli are shared.
        """
        out = FamilySample(self.grid, tuple(bounded_transform(op) for op in self.operators))
        vars(out)["projection_moduli"] = self.projection_moduli
        return out

    def reversed(self) -> "FamilySample":
        pts = -self.grid.points[::-1]
        return FamilySample(ParameterGrid(pts), self.operators[::-1])

    def restricted(self, lo_index: int, hi_index: int) -> "FamilySample":
        """Sub-sample on grid indices lo..hi inclusive (operators shared)."""
        return FamilySample(
            ParameterGrid(self.grid.points[lo_index:hi_index + 1]),
            self.operators[lo_index:hi_index + 1],
        )


def _path_coefficients(value, default):
    """Normalize a path parameter: constant, (offset, slope), or callable."""
    if value is None:
        value = default
    if callable(value):
        return value
    if np.isscalar(value):
        const = float(value)
        return lambda x: const
    a0, a1 = (float(v) for v in value)
    return lambda x: a0 + a1 * x


def _padding_values(count: int) -> list[float]:
    """Fixed padding spectrum 2, -2, 3, -3, ... used by the crossing models."""
    vals = []
    k = 2
    while len(vals) < count:
        vals.append(float(k))
        if len(vals) < count:
            vals.append(float(-k))
        k += 1
    return vals


def _hilbert_matrix(dim: int) -> np.ndarray:
    idx = np.arange(dim)
    return 1.0 / (1.0 + idx[:, None] + idx[None, :])


def _distance_to_pole(x: float) -> float:
    # poles of tan(pi x) sit at half-integers
    frac = (x - 0.5) % 1.0
    return min(frac, 1.0 - frac)


class _RandomPath:
    """Smooth seeded path: sinusoidal eigenvalue branches in a fixed random basis.

    Every branch crosses zero twice per unit of the parameter, and the
    crossings are staggered into per-branch slots (with random jitter) so
    that no two branches sit near zero at the same parameter value.  That
    keeps the zero-straddling spectral gap bounded below along the path,
    which is what branch-tracking needs from a sufficiently fine grid.
    """

    def __init__(self, dim: int, seed: int):
        rng = np.random.default_rng(np.uint64(seed))
        slots = rng.permutation(dim).astype(float)
        jitter = rng.uniform(-0.2, 0.2, dim)
        self.phases = (slots + 0.5 + jitter) * 0.5 / dim
        self.amplitudes = rng.uniform(0.5, 0.8, dim)
        self.signs = rng.choice([-1.0, 1.0], dim)
        raw = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        q, _ = np.linalg.qr(raw)
        self.basis = q

    def operator(self, x: float) -> HermitianOperator:
        branch = self.signs * self.amplitudes * np.sin(
            2.0 * np.pi * (x + self.phases)
        )
        m = (self.basis * branch) @ self.basis.conj().T
        return HermitianOperator(m)


def load_matrix_path(path: str) -> tuple[ParameterGrid, list[np.ndarray]]:
    """Read the explicit-matrix JSON format: dim, grid, matrices of [re, im] pairs."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise FamilyModelError(f"cannot read matrix path file {path}: {exc}") from exc
    try:
        dim = int(doc["dim"])
        grid_points = [float(v) for v in doc["grid"]]
        raw = doc["matrices"]
    except (KeyError, TypeError, ValueError) as exc:
        raise FamilyModelError(f"malformed matrix path file {path}: {exc}") from exc
    if len(raw) != len(grid_points):
        raise FamilyModelError("matrix count does not match grid length")
    matrices = []
    for y, m in enumerate(raw):
        arr = np.asarray(m, dtype=float)
        if arr.shape != (dim, dim, 2):
            raise FamilyModelError(
                f"each matrix must be {dim}x{dim} of [re, im] pairs, got shape {arr.shape}"
            )
        finite = np.isfinite(arr)
        if not finite.all():
            i, j, _ = (int(k) for k in np.argwhere(~finite)[0])
            raise NonFiniteEntry((i, j), complex(arr[i, j, 0], arr[i, j, 1]), grid_index=y)
        matrices.append(arr[..., 0] + 1j * arr[..., 1])
    return ParameterGrid(np.asarray(grid_points)), matrices


def _make_generator(spec: FamilySpec):
    kind, dim, params = spec.kind, spec.dim, spec.params
    if kind == "dirac_circle":
        n_modes = (dim - 1) // 2
        alpha = _path_coefficients(params.get("alpha"), (0.0, 1.0))
        modes = np.arange(-n_modes, n_modes + 1, dtype=float)

        def gen(x):
            return diagonal_operator(modes + alpha(x))

        return gen
    if kind == "harmonic_perturbed":
        coupling = _path_coefficients(params.get("coupling"), 0.0)
        ladder = np.arange(dim, dtype=float) + 0.5 - dim / 2.0
        mixing = _hilbert_matrix(dim)

        def gen(x):
            return HermitianOperator(np.diag(ladder) + coupling(x) * mixing)

        return gen
    if kind == "tangent_blowup":
        pad = params.get("padding")
        pad = list(pad) if pad is not None else _padding_values(dim - 1)
        if len(pad) != dim - 1:
            raise FamilyModelError(f"padding must supply {dim - 1} values")

        def gen(x):
            if _distance_to_pole(x) < _POLE_TOLERANCE:
                raise FamilyModelError(
                    f"grid point {x!r} sits on a pole of tan(pi x)"
                )
            return diagonal_operator([math.tan(math.pi * x)] + pad)

        return gen
    if kind == "linear_crossing":
        pad = _padding_values(dim - 1)

        # diagonal, but left on eigh: the benchmark's tests pin its decomposition work
        def gen(x):
            return HermitianOperator(np.diag([x - 0.5] + pad))

        return gen
    if kind == "random_crossings":
        path = _RandomPath(dim, int(params.get("seed", 0)))
        return path.operator
    raise FamilyModelError(f"no generator for kind {kind!r}")


def sample(spec: FamilySpec, grid: ParameterGrid | None = None) -> FamilySample:
    """Evaluate the family on the grid; deterministic given spec, grid and seed."""
    if spec.kind == "matrix_path_file":
        path = spec.params.get("path")
        if not path:
            raise FamilyModelError("matrix_path_file needs params['path']")
        file_grid, matrices = load_matrix_path(path)
        if matrices and matrices[0].shape[0] != spec.dim:
            raise FamilyModelError(
                f"file stores dimension {matrices[0].shape[0]}, spec says {spec.dim}"
            )
        if grid is not None and (
            len(grid) != len(file_grid)
            or not np.allclose(grid.points, file_grid.points, atol=1e-12, rtol=0.0)
        ):
            raise FamilyModelError("provided grid does not match the grid stored in the file")
        return FamilySample(file_grid, tuple(HermitianOperator(m) for m in matrices))
    if grid is None:
        raise FamilyModelError("a parameter grid is required for generated families")
    gen = _make_generator(spec)
    ops = []
    for y, x in enumerate(grid.points):
        try:
            ops.append(gen(x))
        except NonFiniteEntry as exc:
            raise exc.at_grid_index(y) from None
    return FamilySample(grid, tuple(ops))


def _truncation_offset(kind: str, dim_small: int, dim_big: int) -> int:
    # centered models embed in the middle of the larger basis; everything else
    # nests in the leading block
    if kind in ("dirac_circle", "harmonic_perturbed"):
        return (dim_big - dim_small) // 2
    return 0


def _file_truncated_sample(spec: FamilySpec, dim: int) -> FamilySample:
    full = sample(spec, None)
    if dim > full.dim:
        raise FamilyModelError(
            f"cannot truncate the stored dimension {full.dim} up to {dim}"
        )
    ops = tuple(HermitianOperator(op.entries[:dim, :dim]) for op in full.operators)
    return FamilySample(full.grid, ops)


def _sample_at_dim(spec: FamilySpec, grid: ParameterGrid, dim: int) -> FamilySample:
    if spec.kind == "matrix_path_file":
        return _file_truncated_sample(spec, dim)
    return sample(spec.with_dim(dim), grid)


def _hausdorff(a: np.ndarray, b: np.ndarray) -> float:
    if a.size == 0 and b.size == 0:
        return 0.0
    if a.size == 0 or b.size == 0:
        return math.inf
    d_ab = np.max(np.min(np.abs(a[:, None] - b[None, :]), axis=1))
    d_ba = np.max(np.min(np.abs(b[:, None] - a[None, :]), axis=1))
    return float(max(d_ab, d_ba))


@dataclass(frozen=True)
class TruncationStep:
    dim_small: int
    dim_big: int
    max_hausdorff: float
    max_projection_distance: float
    stable: bool


@dataclass(frozen=True)
class TruncationReport:
    window: RealWindow
    tolerance: float
    steps: tuple[TruncationStep, ...]
    stable: bool


def truncation_check(spec: FamilySpec, grid: ParameterGrid | None, dims,
                     window: RealWindow, tau: float | None = None,
                     tau_edge: float = TAU_EDGE_DEFAULT) -> TruncationReport:
    """Compare window spectra and projections across increasing truncations.

    For each consecutive pair of dimensions the report records the worst
    Hausdorff distance between the in-window eigenvalue sets and the worst
    distance between the window projections, the larger one compressed onto
    the smaller space.  ``stable`` means both stay below the tolerance.
    """
    dims = [int(d) for d in dims]
    if sorted(dims) != dims or len(dims) < 2:
        raise ValueError("dims must be an increasing list with at least two entries")
    if tau is None:
        tau = TAU_TRUNC_FILE if spec.kind == "matrix_path_file" else TAU_TRUNC_ANALYTIC

    samples = {d: _sample_at_dim(spec, grid, d) for d in dims}
    steps = []
    for d1, d2 in zip(dims, dims[1:]):
        off = _truncation_offset(spec.kind, d1, d2)
        worst_h = 0.0
        worst_p = 0.0
        s1, s2 = samples[d1], samples[d2]
        for op1, op2 in zip(s1.operators, s2.operators):
            w1 = decompose(op1).eigenvalues
            w2 = decompose(op2).eigenvalues
            worst_h = max(worst_h, _hausdorff(w1[window.mask(w1)], w2[window.mask(w2)]))
            p1 = spectral_projection(op1, window, tau_edge).projection.entries
            p2 = spectral_projection(op2, window, tau_edge).projection.entries
            compressed = p2[off:off + d1, off:off + d1]
            worst_p = max(worst_p, hermitian_norm(p1 - compressed))
        steps.append(TruncationStep(d1, d2, worst_h, worst_p,
                                    worst_h <= tau and worst_p <= tau))
    return TruncationReport(window, tau, tuple(steps), all(s.stable for s in steps))


@dataclass(frozen=True)
class EssentialSignReport:
    passed: bool
    threshold: int
    min_negative: int
    min_positive: int
    failing_points: tuple[int, ...]


def essential_sign_check(smp: FamilySample, k: int = 1) -> EssentialSignReport:
    """Finite surrogate of "neither essentially positive nor essentially negative".

    Passes when every grid operator has at least ``k`` strictly negative and
    ``k`` strictly positive eigenvalues.  The threshold is a recorded choice,
    not a claim of fidelity: at finite dimension every operator is both
    essentially positive and essentially negative in the literal sense.
    """
    if k < 1:
        raise ValueError("sign-count threshold k must be at least 1")
    ev = smp.eigenvalue_matrix
    negatives = np.sum(ev < 0.0, axis=1)
    positives = np.sum(ev > 0.0, axis=1)
    bad = np.nonzero((negatives < k) | (positives < k))[0]
    return EssentialSignReport(
        passed=bad.size == 0,
        threshold=k,
        min_negative=int(negatives.min()),
        min_positive=int(positives.min()),
        failing_points=tuple(int(i) for i in bad),
    )
