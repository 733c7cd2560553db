"""The NumPy enumeration kernels against SVD oracles and their contracts."""

import itertools
import math

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


@pytest.mark.parametrize("shape", [(4, 3), (10, 10), (3, 7)])
@pytest.mark.parametrize("p", [2.0, 3.0, 4.0, 7.5])
def test_ppower_batch_matches_svd(rng, p, shape):
    mats = np.stack([complex_gaussian(rng, *shape) for _ in range(50)])
    expected = np.array([np.sum(np.linalg.svd(m, compute_uv=False) ** p) for m in mats])
    np.testing.assert_allclose(_kernels_py.schatten_ppower_batch(mats, p), expected, rtol=1e-11)


def test_sign_convention_shared(rng, monkeypatch):
    # one enumeration order: the helper, the pattern functions and both
    # enumeration kernels see the same sign pattern at every index; the
    # kernels see the orbit representatives, a subsequence of that order
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
    # first row and first column +1, the free entries in sign_rows order
    free = (rows - 1) * (cols - 1)
    reps = np.ones((1 << free, rows, cols))
    reps[:, 1:, 1:] = _kernels_py.sign_rows(0, 1 << free, free).reshape(-1, rows - 1, cols - 1)
    in_order = patterns[np.all(patterns[:, 0, :] == 1.0, axis=1) & np.all(patterns[:, :, 0] == 1.0, axis=1)]
    np.testing.assert_array_equal(reps, in_order)
    np.testing.assert_array_equal(np.concatenate(seen), reps * a)

    seen.clear()
    ts = np.stack([complex_gaussian(rng, 2, 2) for _ in range(bits)])
    _kernels_py.sign_vector_enum_ppower_sum(ts, 3.0)
    expected = np.einsum("ek,kij->eij", helper[helper[:, 0] == 1.0], ts)
    np.testing.assert_allclose(np.concatenate(seen), expected, rtol=1e-13, atol=1e-13)


def test_one_pattern_per_orbit(rng, monkeypatch):
    # 4 x 4: 2^9 orbit representatives of 2^16 patterns; k = 12: 2^11 of 2^12 vectors
    counts = []
    chunk = _kernels_py._ppower_chunk
    monkeypatch.setattr(_kernels_py, "_ppower_chunk", lambda mats, p: counts.append(len(mats)) or chunk(mats, p))
    _kernels_py.sign_enum_ppower_sum(complex_gaussian(rng, 4, 4), 3.0)
    assert sum(counts) == 512
    counts.clear()
    _kernels_py.sign_vector_enum_ppower_sum(np.stack([complex_gaussian(rng, 2, 2) for _ in range(12)]), 3.0)
    assert sum(counts) == 2048


@pytest.mark.parametrize("shape", [(1, 1), (1, 5), (5, 1), (2, 3), (4, 4), (4, 5)])
def test_sign_enum_even_p_closed_forms(rng, shape):
    # sum over all 2^(rc) patterns: 2^(rc) ||A||_F^2 at p = 2 and
    # 2^(rc) (Z_4(A)^4 + Z_4(A*)^4 - sum |a_ij|^4) at p = 4
    a = complex_gaussian(rng, *shape)
    mod2 = np.abs(a) ** 2
    count = 2.0 ** a.size
    assert _kernels_py.sign_enum_ppower_sum(a, 2.0) == pytest.approx(count * np.sum(mod2), rel=1e-13)
    four = np.sum(np.sum(mod2, axis=1) ** 2) + np.sum(np.sum(mod2, axis=0) ** 2) - np.sum(mod2**2)
    assert _kernels_py.sign_enum_ppower_sum(a, 4.0) == pytest.approx(count * four, rel=1e-13)


@pytest.mark.parametrize("k", [1, 2, 12])
def test_sign_vector_even_p_closed_forms(rng, k):
    # p = 2: 2^k sum ||T_i||_F^2; p = 4: the pairing expansion
    # sum_ij [tr(Ti*Ti Tj*Tj) + tr(Ti*Tj Ti*Tj) + tr(Ti*Tj Tj*Ti)] - 2 sum_i ||T_i||_4^4
    ts = np.stack([complex_gaussian(rng, 3, 4) for _ in range(k)])
    count = 2.0**k
    frob = np.sum(np.abs(ts) ** 2)
    assert _kernels_py.sign_vector_enum_ppower_sum(ts, 2.0) == pytest.approx(count * frob, rel=1e-13)
    g = np.einsum("iab,jac->ijbc", ts.conj(), ts)  # G[i, j] = T_i* T_j
    pairs = (
        np.einsum("iibc,jjcb->", g, g) + np.einsum("ijbc,ijcb->", g, g) + np.einsum("ijbc,jicb->", g, g)
    )
    fourth = sum(np.sum(np.linalg.svd(t, compute_uv=False) ** 4) for t in ts)
    expected = count * (pairs.real - 2.0 * fourth)
    assert _kernels_py.sign_vector_enum_ppower_sum(ts, 4.0) == pytest.approx(expected, rel=1e-13)


@pytest.mark.parametrize("shape", [(1, 1), (1, 4), (3, 1), (2, 3), (3, 3)])
@pytest.mark.parametrize("p", [1.0, 1.5, 3.0, 6.0])
def test_sign_enum_matches_full_enumeration(rng, shape, p):
    # the orbit sum equals the sum over all 2^(rc) patterns
    a = complex_gaussian(rng, *shape)
    full = math.fsum(_kernels_py.schatten_ppower_batch(all_sign_patterns(*shape) * a, p))
    assert _kernels_py.sign_enum_ppower_sum(a, p) == pytest.approx(full, rel=1e-13)


@pytest.mark.parametrize("k", [1, 2, 5])
@pytest.mark.parametrize("p", [1.5, 3.0])
def test_sign_vector_matches_full_enumeration(rng, k, p):
    ts = np.stack([complex_gaussian(rng, 3, 3) for _ in range(k)])
    eps = _kernels_py.sign_rows(0, 1 << k, k)
    full = math.fsum(_kernels_py.schatten_ppower_batch(np.einsum("ek,kij->eij", eps, ts), p))
    assert _kernels_py.sign_vector_enum_ppower_sum(ts, p) == pytest.approx(full, rel=1e-13)


@pytest.mark.parametrize("p", [1.5, 3.0, 6.0])
def test_sign_enum_orbit_invariance(rng, p):
    # a row/column flip D1 A D2 permutes the patterns, so the sum stays
    a = complex_gaussian(rng, 3, 4)
    base = _kernels_py.sign_enum_ppower_sum(a, p)
    for _ in range(4):
        d1 = rng.choice((-1.0, 1.0), size=(3, 1))
        d2 = rng.choice((-1.0, 1.0), size=(1, 4))
        assert _kernels_py.sign_enum_ppower_sum(d1 * a * d2, p) == pytest.approx(base, rel=1e-13)


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


@pytest.mark.parametrize("p", [2.0, 4.0])
def test_even_p_needs_no_eigensolver(rng, p, monkeypatch):
    # p = 2 and p = 4 are exact entry and Gram traces
    mats = np.stack([complex_gaussian(rng, 3, 5) for _ in range(4)])
    expected = _kernels_py.schatten_ppower_batch(mats, p)

    def refuse(*args, **kwargs):
        raise AssertionError("eigvalsh called at even p")

    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    np.testing.assert_array_equal(_kernels_py.schatten_ppower_batch(mats, p), expected)
    _kernels_py.balanced_subset_scan(complex_gaussian(rng, 6, 6), p)


def _masked_scan_oracle(a, p):
    """Balanced scan by SVD of every masked 2m x 2m cross part."""
    dim = a.shape[0]
    m = dim // 2
    powers, sigmas = [], []
    for rest in itertools.combinations(range(1, dim), m - 1):
        side = np.zeros(dim, dtype=bool)
        side[[0, *rest]] = True
        cross = np.where(side[:, None] ^ side[None, :], a, 0.0)
        powers.append(float(np.sum(np.linalg.svd(cross, compute_uv=False) ** p)))
        sigmas.append((0, *rest))
    best = int(np.argmax(powers))
    return np.array(sigmas[best]), powers[best], math.fsum(powers) / len(powers), len(powers)


@pytest.mark.parametrize("kind", ["zero-diagonal", "full", "real"])
@pytest.mark.parametrize("p", [2.0, 3.0, 4.0, 6.0])
@pytest.mark.parametrize("dim", [2, 4, 6, 8, 10, 12])
def test_balanced_scan_matches_masked_svd(rng, dim, p, kind):
    # two m x m blocks per cross part give the masked 2m x 2m cross part's
    # p-power, for every square matrix
    a = complex_gaussian(rng, dim, dim)
    if kind == "zero-diagonal":
        np.fill_diagonal(a, 0.0)
    elif kind == "real":
        a = a.real
    sigma, best, mean, count = _kernels_py.balanced_subset_scan(a, p)
    o_sigma, o_best, o_mean, o_count = _masked_scan_oracle(a, p)
    np.testing.assert_array_equal(sigma, o_sigma)
    assert best == pytest.approx(o_best, rel=1e-12)
    assert mean == pytest.approx(o_mean, rel=1e-12)
    assert count == o_count
