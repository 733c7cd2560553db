"""NumPy enumeration kernels: the package's only kernel implementation.

Library modules reach them through ``_backend.kernels``.  This module
owns the sign-enumeration convention (:func:`sign_rows`) and the batched
Schatten p-power (:func:`schatten_ppower_batch`).

The p-powers come from the eigenvalues of the smaller Gram matrix,
which resolves singular values only down to about ``sqrt(eps) * s_max``;
for p < 2 that floor is amplified by the fractional power.  The
SVD-based functions in ``linalg`` are the accurate path when
single-matrix norms need full precision.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

#: Hard safety cap on enumeration size (2**MAX_ENUM_BITS evaluations).
MAX_ENUM_BITS = 26

_CHUNK = 8192


def _ppower_chunk(mats: np.ndarray, p: float) -> np.ndarray:
    """Schatten p-norm to the p-th power for a stack of matrices."""
    m, n = mats.shape[-2:]
    if m <= n:
        g = mats @ mats.conj().swapaxes(-1, -2)
    else:
        g = mats.conj().swapaxes(-1, -2) @ mats
    w = np.linalg.eigvalsh(g)
    np.clip(w, 0.0, None, out=w)
    return np.sum(w ** (p / 2.0), axis=-1)


def schatten_ppower_batch(mats, p: float) -> np.ndarray:
    """``||M_i||_p^p`` for every matrix ``M_i`` in a ``(N, m, n)`` stack."""
    mats = np.ascontiguousarray(mats, dtype=np.complex128)
    out = np.empty(mats.shape[0])
    for lo in range(0, mats.shape[0], _CHUNK):
        out[lo : lo + _CHUNK] = _ppower_chunk(mats[lo : lo + _CHUNK], p)
    return out


def sign_rows(lo: int, hi: int, bits: int) -> np.ndarray:
    """Sign rows of the patterns with indices ``lo .. hi-1``, shape ``(hi-lo, bits)``.

    This is the canonical enumeration of sign patterns, little-endian in
    the pattern index: a set bit ``j`` makes entry ``j`` -1 and a clear
    bit makes it +1, so index 0 is the all-plus pattern.  A sign
    matrix of shape ``(rows, cols)`` is the row reshaped, so bit
    ``r*cols + c`` controls entry ``(r, c)``.
    """
    idx = np.arange(lo, hi, dtype=np.int64)
    shifts = np.arange(bits, dtype=np.int64)
    return 1.0 - 2.0 * ((idx[:, None] >> shifts) & 1)


def _check_bits(bits: int) -> None:
    if bits > MAX_ENUM_BITS:
        raise ValueError(f"exhaustive enumeration over 2^{bits} items refused (cap 2^{MAX_ENUM_BITS})")


def sign_enum_ppower_sum(a, p: float) -> float:
    """Sum of ``||R o A||_p^p`` over all sign matrices R of A's shape.

    Patterns are taken in :func:`sign_rows` order.
    """
    a = np.ascontiguousarray(a, dtype=np.complex128)
    rows, cols = a.shape
    bits = rows * cols
    _check_bits(bits)
    total = 1 << bits
    parts = []
    for lo in range(0, total, _CHUNK):
        signs = sign_rows(lo, min(lo + _CHUNK, total), bits)
        mats = signs.reshape(-1, rows, cols) * a
        parts.append(float(np.sum(_ppower_chunk(mats, p))))
    return math.fsum(parts)


def sign_vector_enum_ppower_sum(ts, p: float) -> float:
    """Sum of ``||sum_i e_i T_i||_p^p`` over all sign vectors e in {+-1}^k.

    Sign vectors are taken in :func:`sign_rows` order.
    """
    ts = np.ascontiguousarray(ts, dtype=np.complex128)
    k = ts.shape[0]
    _check_bits(k)
    total = 1 << k
    flat = ts.reshape(k, -1)
    parts = []
    for lo in range(0, total, _CHUNK):
        eps = sign_rows(lo, min(lo + _CHUNK, total), k)
        mats = (eps @ flat).reshape(-1, ts.shape[1], ts.shape[2])
        parts.append(float(np.sum(_ppower_chunk(mats, p))))
    return math.fsum(parts)


def balanced_subset_scan(a, p: float):
    """Scan all balanced bipartitions of ``{0..2m-1}`` (half containing 0).

    For every size-``m`` subset ``s`` containing index 0 (lexicographic
    order), evaluates ``||A_s||_p^p`` where ``A_s`` keeps exactly the
    entries crossing the bipartition.  Complement symmetry makes this half
    enumeration equivalent to the full one for both max and mean.

    Returns ``(best_sigma, best_ppower, mean_ppower, count)``.
    """
    a = np.ascontiguousarray(a, dtype=np.complex128)
    dim = a.shape[0]
    if a.shape[0] != a.shape[1] or dim % 2 != 0 or dim < 2:
        raise ValueError(f"need a square matrix of even dimension, got {a.shape}")
    m = dim // 2
    count = math.comb(dim - 1, m - 1)
    best_pp = -1.0
    best_sigma = None
    parts = []
    combos = itertools.combinations(range(1, dim), m - 1)
    while True:
        block = list(itertools.islice(combos, _CHUNK))
        if not block:
            break
        side = np.zeros((len(block), dim), dtype=bool)
        side[:, 0] = True
        rows = np.repeat(np.arange(len(block)), m - 1)
        side[rows, np.asarray(block, dtype=np.int64).ravel()] = True
        cross = side[:, :, None] ^ side[:, None, :]
        pp = _ppower_chunk(np.where(cross, a, 0.0), p)
        parts.append(float(np.sum(pp)))
        j = int(np.argmax(pp))
        if pp[j] > best_pp:
            best_pp = float(pp[j])
            best_sigma = np.array((0,) + block[j], dtype=np.int64)
    return best_sigma, best_pp, math.fsum(parts) / count, count
