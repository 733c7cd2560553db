"""Block-diagonal lift of a matrix over all its sign patterns, and the
projection onto that lifted subspace.

``sign_block_lift`` places every signed copy ``R_i o A`` of an n x n
matrix on the diagonal of an ``n * 2**(n*n)`` matrix (canonical pattern
order).  ``block_sign_average`` maps a compatible block list back to
n x n by the sign-weighted block mean, and is an exact left inverse of
the lift; composing the two gives an idempotent, self-adjoint projection
of the big matrix space onto the lifted subspace.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._backend import kernels
from .linalg import (
    RandomSpec,
    as_matrix,
    matrix_from_json,
    matrix_to_json,
    schatten_norm,
    substream,
)
from .norms import z_norm
from .signs import all_sign_patterns

#: Largest block size for the lift (2**16 blocks at n = 4).
LIFT_MAX_N = 4

#: Largest block size accepted by the dense-side inequality check
#: (dimension n * 2**(n*n) = 1536 at n = 3).
SLACK_MAX_N = 3


@dataclass
class BlockDiag:
    """Ordered list of equal-size square blocks, stored as ``(count, n, n)``.

    Represents the block-diagonal matrix whose off-block entries are
    identically zero.
    """

    blocks: np.ndarray

    def __post_init__(self):
        b = np.asarray(self.blocks, dtype=np.complex128)
        if b.ndim != 3 or b.shape[1] != b.shape[2] or b.shape[0] < 1:
            raise ValueError(f"blocks must be a (count, n, n) stack, got shape {b.shape}")
        if not np.all(np.isfinite(b)):
            raise ValueError("block entries must be finite")
        self.blocks = b

    @property
    def count(self) -> int:
        return self.blocks.shape[0]

    @property
    def block_size(self) -> int:
        return self.blocks.shape[1]

    @property
    def dimension(self) -> int:
        return self.count * self.block_size


def sign_block_lift(a) -> BlockDiag:
    """All signed copies ``R_i o A`` of a square matrix, as diagonal blocks."""
    a = as_matrix(a)
    n = a.shape[0]
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"lift needs a square matrix, got {a.shape}")
    if n > LIFT_MAX_N:
        raise ValueError(f"lift would create 2^{n * n} blocks; maximum block size is {LIFT_MAX_N}")
    return BlockDiag(all_sign_patterns(n, n) * a)


def assemble(d: BlockDiag) -> np.ndarray:
    """Dense matrix with ``d``'s blocks on the diagonal."""
    n, count = d.block_size, d.count
    out = np.zeros((count * n, count * n), dtype=np.complex128)
    for i in range(count):
        out[i * n : (i + 1) * n, i * n : (i + 1) * n] = d.blocks[i]
    return out


def extract_central_blocks(b, n: int) -> BlockDiag:
    """The ``dim/n`` consecutive n x n diagonal blocks of a square matrix."""
    b = as_matrix(b)
    dim = b.shape[0]
    if b.shape[0] != b.shape[1]:
        raise ValueError(f"need a square matrix, got {b.shape}")
    if n < 1 or dim % n != 0:
        raise ValueError(f"dimension {dim} is not divisible by block size {n}")
    count = dim // n
    idx = np.arange(count)
    return BlockDiag(b.reshape(count, n, count, n)[idx, :, idx, :])


def blockdiag_schatten_norm(d: BlockDiag, p) -> float:
    """Schatten norm of the assembled matrix, computed blockwise.

    Equals ``(sum_i ||block_i||_p^p)^(1/p)`` for finite p and the max of
    the block operator norms at ``p = inf``.
    """
    if math.isinf(p):
        w = np.linalg.eigvalsh(d.blocks @ d.blocks.conj().transpose(0, 2, 1))
        return float(np.sqrt(max(np.max(w), 0.0)))
    p = float(p)
    if p < 1.0:
        raise ValueError(f"need p >= 1, got {p}")
    return float(np.sum(kernels.schatten_ppower_batch(d.blocks, p)) ** (1.0 / p))


def _require_lift_shape(d: BlockDiag) -> int:
    n = d.block_size
    if d.count != 1 << (n * n):
        raise ValueError(f"expected 2^{n * n} blocks of size {n}, got {d.count}")
    return n


def block_sign_average(d: BlockDiag) -> np.ndarray:
    """Sign-weighted block mean ``2^(-n^2) sum_i R_i o B_i``.

    Exact left inverse of :func:`sign_block_lift`: the pairwise-tree
    summation below returns the lifted matrix bit-for-bit.
    """
    n = _require_lift_shape(d)
    terms = all_sign_patterns(n, n) * d.blocks
    # tree reduction over a power-of-two count: exact for equal summands
    while terms.shape[0] > 1:
        terms = terms[0::2] + terms[1::2]
    return terms[0] / d.count


def project_onto_lift(d: BlockDiag) -> BlockDiag:
    """Lift of the sign-weighted block mean; idempotent and self-adjoint."""
    return sign_block_lift(block_sign_average(d))


def row_norm_projection_slack(b, n: int, p) -> float:
    """Slack of the dense Schatten norm over the projected row norm.

    Returns ``||B||_p - 2^(n^2/p) * Z_p(avg)`` where ``avg`` is the
    sign-weighted mean of B's central blocks; nonnegative for every B
    when p > 2 (this is the norm-one row-space projection bound).
    """
    b = as_matrix(b)
    p = float(p)
    if not p > 2.0 or math.isinf(p):
        raise ValueError(f"projection slack needs finite p > 2, got {p}")
    if n > SLACK_MAX_N:
        raise ValueError(f"block size {n} above cap {SLACK_MAX_N} (dense SVD would be huge)")
    d = extract_central_blocks(b, n)
    _require_lift_shape(d)
    avg = block_sign_average(d)
    return schatten_norm(b, p) - 2.0 ** (n * n / p) * z_norm(avg, p)


@dataclass
class ProjectionNormEstimate:
    """Certified lower bound on the projection's Schatten p -> p norm."""

    n: int
    p: float
    lower_bound: float
    argmax_seed: int
    trials: int


def _ratio_blockdiag(d: BlockDiag, p: float) -> float:
    denom = blockdiag_schatten_norm(d, p)
    if denom == 0.0:
        return 0.0
    return blockdiag_schatten_norm(project_onto_lift(d), p) / denom


def estimate_projection_norm(
    n: int,
    p,
    trials: int = 16,
    spec: RandomSpec | None = None,
    ascent_steps: int = 60,
) -> ProjectionNormEstimate:
    """Sampled lower bound on the norm of the lift projection on C_p.

    Maximizes ``||Q(B)||_p / ||B||_p`` over seeded dense samples, random
    block-diagonal samples, their projections (exact fixed points, ratio
    1), and a local perturbation ascent around the best block-diagonal
    candidate.  Every reported value is an achieved ratio, hence a valid
    lower bound.
    """
    if n < 1 or n > SLACK_MAX_N:
        raise ValueError(f"block size must be in [1, {SLACK_MAX_N}]")
    p = float(p)
    if p < 1.0 or math.isinf(p):
        raise ValueError(f"need finite p >= 1, got {p}")
    if spec is None:
        spec = RandomSpec(0)
    count = 1 << (n * n)
    dim = n * count

    best = -1.0
    best_seed = -1
    best_blocks: np.ndarray | None = None
    for t in range(trials):
        sub = substream(spec, t)
        rng = sub.rng()
        if t % 2 == 0:
            dense = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
            d = extract_central_blocks(dense, n)
            denom = schatten_norm(dense, p)
            ratio = blockdiag_schatten_norm(project_onto_lift(d), p) / denom
            witness = project_onto_lift(d)
        else:
            blocks = rng.standard_normal((count, n, n)) + 1j * rng.standard_normal((count, n, n))
            d = BlockDiag(blocks)
            ratio = _ratio_blockdiag(d, p)
            witness = project_onto_lift(d)
        if ratio > best:
            best, best_seed, best_blocks = float(ratio), sub.seed, d.blocks
        # the projected sample is a fixed point: ratio exactly 1
        if np.any(witness.blocks):
            fixed = _ratio_blockdiag(witness, p)
            if fixed > best:
                best, best_seed, best_blocks = float(fixed), sub.seed, witness.blocks

    # local random-perturbation ascent in block-diagonal space
    if best_blocks is not None and ascent_steps > 0:
        rng = substream(spec, trials).rng()
        cur = best_blocks / np.linalg.norm(best_blocks)
        cur_ratio = _ratio_blockdiag(BlockDiag(cur), p)
        delta = 0.3
        for _ in range(ascent_steps):
            noise = rng.standard_normal(cur.shape) + 1j * rng.standard_normal(cur.shape)
            cand = cur + delta * noise / np.linalg.norm(noise)
            cand_ratio = _ratio_blockdiag(BlockDiag(cand), p)
            if cand_ratio > cur_ratio:
                cur, cur_ratio = cand / np.linalg.norm(cand), cand_ratio
                delta = min(delta * 1.3, 1.0)
            else:
                delta = max(delta * 0.7, 1e-4)
        if cur_ratio > best:
            best = float(cur_ratio)

    return ProjectionNormEstimate(n, p, best, best_seed, trials)


# ---------------------------------------------------------------------------
# JSON wire format: {"n": n, "blocks": [matrix, ...]}

def blockdiag_to_json(d: BlockDiag) -> dict:
    return {"n": d.block_size, "blocks": [matrix_to_json(b) for b in d.blocks]}


def blockdiag_from_json(obj: dict) -> BlockDiag:
    try:
        n = int(obj["n"])
        blocks = [matrix_from_json(b) for b in obj["blocks"]]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed block-diagonal object: {exc}") from exc
    if any(b.shape != (n, n) for b in blocks):
        raise ValueError(f"all blocks must be {n}x{n}")
    return BlockDiag(np.stack(blocks))
