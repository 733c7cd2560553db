"""NumPy enumeration kernels: the package's only kernel implementation.

Library modules reach them through ``_backend.kernels``.  This module
owns the sign-enumeration convention (:func:`sign_rows`) and the batched
Schatten p-power (:func:`schatten_ppower_batch`).

At p = 2 the p-power is the sum of squared entry moduli, and at p = 4
it is the squared Frobenius norm of the smaller Gram matrix ``G``
(``tr G^2 = sum s_i^4``); both are sums of nonnegative terms and need
no eigensolver.  Other p-powers come from the eigenvalues of ``G``,
which resolves singular values only down to about ``sqrt(eps) * s_max``;
for p < 2 that floor is amplified by the fractional power.  The
SVD-based functions in ``linalg`` are the accurate path when
single-matrix norms need full precision.

A cross part ``A_sigma`` keeps the entries between the halves ``P`` and
``Q`` of a balanced bipartition; permuted to ``(P, Q)`` order it is
block anti-diagonal, so ``||A_sigma||_p^p = ||A[P,Q]||_p^p +
||A[Q,P]||_p^p`` for every square A.  :func:`cross_blocks` gathers those
two m x m blocks, and the subset scans evaluate them instead of the
2m x 2m cross part.

Flipping a whole row or column of a sign matrix R is a unitary change of
``R o A``: ``D1 (R o A) D2 = (D1 R D2) o A`` for diagonal sign matrices
``D1`` and ``D2``.  The ``2**(rows*cols)`` patterns therefore fall into
orbits of ``2**(rows+cols-1)`` patterns (``D1 = D2 = -I`` fixes R) that
share one p-power, and each orbit has exactly one pattern whose first
row and first column are +1.  :func:`sign_enum_ppower_sum` evaluates
those representatives and scales the sum by the orbit size, an exact
power of 2.  Likewise ``e`` and ``-e`` give the same
``||sum_i e_i T_i||_p``, so :func:`sign_vector_enum_ppower_sum` evaluates
the sign vectors with ``e_0 = +1`` and doubles their sum.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

#: Hard safety cap on enumeration size (2**MAX_ENUM_BITS evaluations).
MAX_ENUM_BITS = 26

_CHUNK = 8192


def _sum_squares(mats: np.ndarray) -> np.ndarray:
    """Sum of squared entry moduli of each complex matrix in a stack.

    Reads the stack as float64 pairs, so its last axis must be contiguous;
    every caller passes a freshly built stack.
    """
    flat = mats.view(np.float64)
    return np.einsum("...ij,...ij->...", flat, flat)


def _ppower_chunk(mats: np.ndarray, p: float) -> np.ndarray:
    """Schatten p-norm to the p-th power for a stack of matrices."""
    if p == 2.0:
        return _sum_squares(mats)
    m, n = mats.shape[-2:]
    if m <= n:
        g = mats @ mats.conj().swapaxes(-1, -2)
    else:
        g = mats.conj().swapaxes(-1, -2) @ mats
    if p == 4.0:
        return _sum_squares(g)
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

    Evaluates one representative per row/column-flip orbit: the
    ``2**((rows-1)*(cols-1))`` patterns whose first row and first column
    are +1, with the remaining entries in :func:`sign_rows` order over
    those free bits.  Each orbit has ``2**(rows+cols-1)`` patterns.
    """
    a = np.ascontiguousarray(a, dtype=np.complex128)
    rows, cols = a.shape
    _check_bits(rows * cols)
    free = (rows - 1) * (cols - 1)
    total = 1 << free
    parts = []
    for lo in range(0, total, _CHUNK):
        hi = min(lo + _CHUNK, total)
        signs = np.ones((hi - lo, rows, cols))
        signs[:, 1:, 1:] = sign_rows(lo, hi, free).reshape(hi - lo, rows - 1, cols - 1)
        parts.append(float(np.sum(_ppower_chunk(signs * a, p))))
    return math.ldexp(math.fsum(parts), rows + cols - 1)


def sign_vector_enum_ppower_sum(ts, p: float) -> float:
    """Sum of ``||sum_i e_i T_i||_p^p`` over all sign vectors e in {+-1}^k.

    Evaluates the ``2**(k-1)`` vectors with ``e_0 = +1``, the remaining
    entries in :func:`sign_rows` order; ``-e`` gives the same norm.
    """
    ts = np.ascontiguousarray(ts, dtype=np.complex128)
    k = ts.shape[0]
    _check_bits(k)
    free = k - 1
    total = 1 << free
    flat = ts.reshape(k, -1)
    parts = []
    for lo in range(0, total, _CHUNK):
        eps = sign_rows(lo, min(lo + _CHUNK, total), free)
        mats = (flat[0] + eps @ flat[1:]).reshape(-1, ts.shape[1], ts.shape[2])
        parts.append(float(np.sum(_ppower_chunk(mats, p))))
    return 2.0 * math.fsum(parts)


def cross_blocks(a: np.ndarray, side: np.ndarray) -> np.ndarray:
    """The two off-diagonal blocks of each balanced bipartition's cross part.

    ``side`` is an ``(N, 2m)`` boolean array whose rows each mark one half
    ``P`` with m True entries; ``Q`` is the rest.  Returns the
    ``(N, 2, m, m)`` stack of ``A[P, Q]`` and ``A[Q, P]`` (indices in
    increasing order), whose p-powers add up to ``||A_sigma||_p^p``.
    """
    count, dim = side.shape
    m = dim // 2
    half = np.nonzero(side)[1].reshape(count, m)
    rest = np.nonzero(~side)[1].reshape(count, m)
    return np.stack(
        (a[half[:, :, None], rest[:, None, :]], a[rest[:, :, None], half[:, None, :]]), axis=1
    )


def balanced_subset_scan(a, p: float):
    """Scan all balanced bipartitions of ``{0..2m-1}`` (half containing 0).

    For every size-``m`` subset ``s`` containing index 0 (lexicographic
    order), evaluates ``||A_s||_p^p`` where ``A_s`` keeps exactly the
    entries crossing the bipartition, as the sum over its two
    :func:`cross_blocks`.  Complement symmetry makes this half
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
        pp = np.sum(_ppower_chunk(cross_blocks(a, side), p), axis=-1)
        parts.append(float(np.sum(pp)))
        j = int(np.argmax(pp))
        if pp[j] > best_pp:
            best_pp = float(pp[j])
            best_sigma = np.array((0,) + block[j], dtype=np.int64)
    return best_sigma, best_pp, math.fsum(parts) / count, count
