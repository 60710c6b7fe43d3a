import math

import numpy as np
import pytest

from specfam import (
    FamilySample,
    HermitianOperator,
    ParameterGrid,
    RealWindow,
    spectral_projection,
)
from specfam.spectral import _install_decomposition

#: scales of the diagonal entries: inside the band where ``eigvalsh`` returns
#: a diagonal matrix's entries exactly, and beyond it, where LAPACK rescales
IN_BAND_SCALES = [1e-140, 1e-20, 1.0, 1e20, 1e140]
OUT_OF_BAND_SCALES = [1e-300, 1e-200, 1e-150, 1e150, 1e200, 1e300]


def random_hermitian(rng, dim):
    raw = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return HermitianOperator((raw + raw.conj().T) / 2.0)


def constant_sample(values, n_points=5):
    """A constant diagonal family on n_points grid points."""
    ops = tuple(HermitianOperator(np.diag(np.asarray(values, dtype=float)))
                for _ in range(n_points))
    return FamilySample(ParameterGrid.linspace(0.0, 1.0, n_points), ops)


def with_nan_eigenvalue(values, nan_index, n_points=5):
    """``constant_sample(values)`` whose fiber at ``nan_index`` carries a NaN
    eigenvalue in its decomposition, as a failed eigensolver would leave it."""
    smp = constant_sample(values, n_points)
    eigenvalues = np.sort(np.asarray(values, dtype=float))
    eigenvalues[0] = np.nan
    _install_decomposition(smp.operators[nan_index], eigenvalues,
                           np.eye(len(values), dtype=complex))
    return smp


def riesz_partition_defect(smp, cert) -> float:
    """Largest entry of q + q+ + q- - I over a Riesz certificate's range.

    The window, upper and lower projections at ``cert.level`` are built
    apart, each by ``spectral_projection``, so their sum is not the identity
    by construction.
    """
    level = cert.level
    windows = (RealWindow(-level, level, lo_closed=False, hi_closed=False),
               RealWindow(level, math.inf, lo_closed=False),
               RealWindow(-math.inf, -level, hi_closed=False))
    eye = np.eye(smp.dim)
    return max(
        float(np.max(np.abs(sum(spectral_projection(smp.operators[y], w).projection.entries
                                for w in windows) - eye)))
        for y in cert.range.indices()
    )


def count_eigvalsh(monkeypatch):
    """Record every ``np.linalg.eigvalsh`` call, passing it through."""
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counted(m, *args, **kwargs):
        calls.append(m)
        return eigvalsh(m, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    return calls


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)
