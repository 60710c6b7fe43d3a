import numpy as np
import pytest

from specfam import FamilySample, HermitianOperator, ParameterGrid
from specfam.spectral import _install_decomposition


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


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)
