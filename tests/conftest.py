import numpy as np
import pytest


@pytest.fixture
def rng():
    return np.random.default_rng(20240601)


def complex_gaussian(rng, rows, cols):
    return (rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))) / np.sqrt(2.0)


def haar_unitary(rng, n):
    q, r = np.linalg.qr(complex_gaussian(rng, n, n))
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def basis_matrix(rows, cols, k, l):
    e = np.zeros((rows, cols), dtype=complex)
    e[k, l] = 1.0
    return e


@pytest.fixture
def svd_calls(monkeypatch):
    """Shapes of the matrices passed to ``numpy.linalg.svd`` during the test."""
    calls = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append(np.shape(a[0])) or svd(*a, **k))
    return calls
