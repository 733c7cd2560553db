"""The NumPy enumeration kernels against SVD oracles and their contracts."""

import numpy as np
import pytest

from schattenlab import _kernels_py
from schattenlab.signs import all_sign_patterns, sign_pattern_by_index

from conftest import complex_gaussian


def test_backend_selection_reports():
    import schattenlab
    from schattenlab import _backend

    assert schattenlab.kernel_backend == "python"
    assert _backend.kernels is _kernels_py


@pytest.mark.parametrize("shape", [(4, 3), (10, 10)])
@pytest.mark.parametrize("p", [2.0, 3.0, 4.0, 7.5])
def test_ppower_batch_matches_svd(rng, p, shape):
    mats = np.stack([complex_gaussian(rng, *shape) for _ in range(50)])
    expected = np.array([np.sum(np.linalg.svd(m, compute_uv=False) ** p) for m in mats])
    np.testing.assert_allclose(_kernels_py.schatten_ppower_batch(mats, p), expected, rtol=1e-11)


def test_sign_convention_shared(rng, monkeypatch):
    # one enumeration order: the helper, the pattern functions and both
    # enumeration kernels see the same sign pattern at every index
    rows, cols = 2, 3
    bits = rows * cols
    helper = _kernels_py.sign_rows(0, 1 << bits, bits)
    np.testing.assert_array_equal(helper[0], np.ones(bits))
    np.testing.assert_array_equal(helper[1], [-1.0] + [1.0] * (bits - 1))
    np.testing.assert_array_equal(_kernels_py.sign_rows(5, 9, bits), helper[5:9])
    patterns = helper.reshape(-1, rows, cols)
    np.testing.assert_array_equal(all_sign_patterns(rows, cols), patterns)
    for index in range(1 << bits):
        np.testing.assert_array_equal(sign_pattern_by_index(rows, cols, index), patterns[index])

    seen = []
    chunk = _kernels_py._ppower_chunk

    def spy(mats, p):
        seen.append(mats.copy())
        return chunk(mats, p)

    monkeypatch.setattr(_kernels_py, "_ppower_chunk", spy)
    a = complex_gaussian(rng, rows, cols)
    _kernels_py.sign_enum_ppower_sum(a, 3.0)
    np.testing.assert_array_equal(np.concatenate(seen), patterns * a)

    seen.clear()
    ts = np.stack([complex_gaussian(rng, 2, 2) for _ in range(bits)])
    _kernels_py.sign_vector_enum_ppower_sum(ts, 3.0)
    expected = np.einsum("ek,kij->eij", helper, ts)
    np.testing.assert_allclose(np.concatenate(seen), expected, rtol=1e-13, atol=1e-13)


def test_sign_enum_refuses_huge(rng):
    with pytest.raises(ValueError):
        _kernels_py.sign_enum_ppower_sum(complex_gaussian(rng, 6, 6), 3.0)


def test_balanced_scan_canonical_half(rng):
    # every reported maximizer contains index 0 by construction
    a = complex_gaussian(rng, 8, 8)
    np.fill_diagonal(a, 0.0)
    sigma, _, _, count = _kernels_py.balanced_subset_scan(a, 3.0)
    assert sigma[0] == 0
    assert count == 35  # C(7, 3)


def test_balanced_scan_rejects_odd(rng):
    with pytest.raises(ValueError):
        _kernels_py.balanced_subset_scan(complex_gaussian(rng, 3, 3), 3.0)


def test_gram_side_selection(rng):
    # wide and tall stacks take different gram sides; both must be right
    for shape in ((2, 6), (6, 2)):
        mats = np.stack([complex_gaussian(rng, *shape) for _ in range(9)])
        expected = np.array([np.sum(np.linalg.svd(m, compute_uv=False) ** 4.0) for m in mats])
        np.testing.assert_allclose(_kernels_py.schatten_ppower_batch(mats, 4.0), expected, rtol=1e-11)
