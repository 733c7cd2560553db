"""Constructive paving of zero-diagonal matrices in Schatten p-norm, p >= 2.

One split step: pick a balanced bipartition sigma whose cross part
``A_sigma`` (entries between the two halves) carries at least a
``2^-p`` share of ``||A||_p^p`` — an exhaustive average argument shows
such a sigma always exists — and keep the complementary diagonal part
``u = PAP + QAQ``.  Uniform convexity then forces
``||u||_p <= (1 - 2^-p)^(1/p) ||A||_p``, and iterating the step over the
resulting diagonal blocks drives the paved matrix to zero at a
geometric rate with a certificate at every depth.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from ._backend import kernels
from .linalg import RandomSpec, _validate_p, as_matrix, schatten_norm, substream

#: Exhaustive bipartition scans are capped at 2m = 16 (12870 subsets).
EXHAUSTIVE_M_CAP = 8

#: Exhaustive subset averages are capped at 2m = 12 (924 subsets).
AVERAGE_M_CAP = 6

#: Random strategy draws at most ``64 * m`` samples before falling back.
RANDOM_RETRY_FACTOR = 64

#: Relative slack on every certified comparison; the compared quantities
#: scale like ``|A|^p`` (or ``|A|`` for norms), so an absolute slack would
#: make the checks vacuous on small inputs and spurious on large ones.
_SLACK_REL = 1e-12


def _check_even_square(a: np.ndarray) -> int:
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"need a square matrix, got {a.shape}")
    if a.shape[0] % 2 != 0:
        raise ValueError(f"need an even dimension, got {a.shape[0]}")
    return a.shape[0] // 2


def _check_sigma(sigma, dim: int) -> np.ndarray:
    s = np.unique(np.asarray(sigma, dtype=np.int64))
    if s.size != dim // 2 or (s.size and (s[0] < 0 or s[-1] >= dim)):
        raise ValueError(f"sigma must be {dim // 2} distinct indices in [0, {dim}), got {sigma}")
    return s


def _check_zero_diagonal(a: np.ndarray) -> None:
    if np.any(np.diagonal(a) != 0):
        raise ValueError("matrix must have an exactly zero diagonal")


def cross_part(a, sigma) -> np.ndarray:
    """Entries of ``a`` crossing the bipartition (everything else zeroed).

    Invariant under replacing sigma by its complement.
    """
    a = as_matrix(a)
    dim = 2 * _check_even_square(a)
    s = _check_sigma(sigma, dim)
    side = np.zeros(dim, dtype=bool)
    side[s] = True
    return np.where(side[:, None] ^ side[None, :], a, 0.0)


def paving_split(a, sigma) -> tuple[np.ndarray, np.ndarray]:
    """Split ``a = u + v`` into diagonal part ``u`` and cross part ``v``.

    ``u = PAP + QAQ`` for the complementary diagonal projections of the
    bipartition; conjugating by the sign involution ``P - Q`` shows
    ``||u - v||_p = ||u + v||_p = ||a||_p``.
    """
    a = as_matrix(a)
    v = cross_part(a, sigma)
    return a - v, v


def balanced_overlap_ratios(m: int) -> tuple[Fraction, Fraction]:
    """Exact subset-counting ratios behind the balanced average.

    Returns ``C(2m-2, m-1)/C(2m, m)`` and ``C(2m-3, m-2)/C(2m, m)``,
    which simplify to ``m/(4m-2)`` and ``m/(8m-4)``.
    """
    if m < 2:
        raise ValueError("need m >= 2")
    total = math.comb(2 * m, m)
    return (
        Fraction(math.comb(2 * m - 2, m - 1), total),
        Fraction(math.comb(2 * m - 3, m - 2), total),
    )


@dataclass
class BalancedAverageReport:
    """Exhaustive balanced-bipartition average of ``||A_sigma||_p^p``.

    Both lower bounds hold for every zero-diagonal matrix: the crude
    ``2^-p`` share and the sharper ``(m/(4m-2))^(p/2)`` share of
    ``||A||_p^p``.
    """

    p: float
    m: int
    subsets: int
    average: float
    total_ppower: float
    lower_bound_2p: float
    lower_bound_sharp: float


def balanced_subset_average(a, p) -> BalancedAverageReport:
    """Average of ``||A_sigma||_p^p`` over all balanced subsets sigma."""
    a = as_matrix(a)
    p = _validate_p(p, 2.0, finite=True)
    m = _check_even_square(a)
    _check_zero_diagonal(a)
    if m > AVERAGE_M_CAP:
        raise ValueError(f"m={m} above the exhaustive-average cap {AVERAGE_M_CAP}")
    _, _, mean, _ = kernels.balanced_subset_scan(a, p)
    total = schatten_norm(a, p) ** p
    lb2 = 2.0**-p * total
    sharp = (m / (4.0 * m - 2.0)) ** (p / 2.0) * total
    if mean < max(lb2, sharp) * (1.0 - _SLACK_REL):
        raise ArithmeticError(
            f"balanced average {mean!r} fell below its guaranteed bounds "
            f"({lb2!r}, {sharp!r}); this is a bug"
        )
    return BalancedAverageReport(p, m, math.comb(2 * m, m), mean, total, lb2, sharp)


@dataclass
class SplitSearchResult:
    """A balanced sigma, its cross-part p-power and the input's Schatten p-norm."""

    sigma: np.ndarray
    v_power: float
    strategy: str
    samples: int
    norm: float

    def to_json(self) -> dict:
        # indices are reported 1-based on the wire
        return {
            "sigma": [int(i) + 1 for i in self.sigma],
            "v_power": self.v_power,
            "strategy": self.strategy,
            "samples": self.samples,
        }


def _cross_ppowers(a: np.ndarray, side: np.ndarray, p: float) -> np.ndarray:
    """``||A_sigma||_p^p`` for each row of an ``(N, 2m)`` boolean side stack."""
    blocks = kernels.cross_blocks(a, side)
    m = blocks.shape[-1]
    return kernels.schatten_ppower_batch(blocks.reshape(-1, m, m), p).reshape(-1, 2).sum(axis=1)


def find_balanced_split(a, p, strategy: str = "exhaustive", spec: RandomSpec | None = None) -> SplitSearchResult:
    """A balanced sigma with ``||A_sigma||_p^p >= 2^-p ||A||_p^p (1 - 1e-12)``.

    Strategies: ``exhaustive`` returns the maximizer (m <= 8);
    ``random`` samples seeded balanced subsets until one clears the bar;
    ``greedy`` runs swap ascent on ``||A_sigma||_p^p`` from a random
    balanced start.  Random and greedy fall back to the exhaustive scan
    when they fail within their budget (and raise for m > 8 rather than
    return a silently weaker sigma).
    """
    a = as_matrix(a)
    p = _validate_p(p, 2.0, finite=True)
    m = _check_even_square(a)
    _check_zero_diagonal(a)
    dim = 2 * m
    norm = schatten_norm(a, p)
    bar = 2.0**-p * norm**p * (1.0 - _SLACK_REL)

    if strategy == "exhaustive":
        if m > EXHAUSTIVE_M_CAP:
            raise ValueError(f"m={m} above the exhaustive cap {EXHAUSTIVE_M_CAP}")
        sigma, best, _, count = kernels.balanced_subset_scan(a, p)
        if best < bar:
            raise ArithmeticError(
                f"exhaustive maximizer {best!r} below the guaranteed bar {bar!r}; this is a bug"
            )
        return SplitSearchResult(sigma, float(best), "exhaustive", count, norm)
    if strategy not in ("random", "greedy"):
        raise ValueError(f"unknown strategy {strategy!r}")
    if spec is None:
        spec = RandomSpec(0)
    rng = spec.rng()
    budget = RANDOM_RETRY_FACTOR * m

    if strategy == "random":
        for sample in range(1, budget + 1):
            side = np.zeros(dim, dtype=bool)
            side[rng.permutation(dim)[:m]] = True
            power = float(_cross_ppowers(a, side[None], p)[0])
            if power >= bar:
                return SplitSearchResult(np.flatnonzero(side), power, "random", sample, norm)
        return _fallback(a, p, m, norm, bar, "random", budget)

    # greedy: steepest single-swap ascent from a random balanced start
    samples = 0
    side = np.zeros(dim, dtype=bool)
    side[rng.permutation(dim)[:m]] = True
    power = float(_cross_ppowers(a, side[None], p)[0])
    improved = True
    while improved and samples < budget:
        improved = False
        ins, outs = np.flatnonzero(side), np.flatnonzero(~side)
        cands = []
        for i in ins:
            for j in outs:
                trial = side.copy()
                trial[i], trial[j] = False, True
                cands.append(trial)
        powers = _cross_ppowers(a, np.stack(cands), p)
        samples += len(cands)
        j = int(np.argmax(powers))
        if powers[j] > power:
            side, power, improved = cands[j], float(powers[j]), True
    if power >= bar:
        return SplitSearchResult(np.flatnonzero(side), power, "greedy", samples, norm)
    return _fallback(a, p, m, norm, bar, "greedy", samples)


def _fallback(a, p, m, norm, bar, tried: str, samples: int) -> SplitSearchResult:
    if m > EXHAUSTIVE_M_CAP:
        raise RuntimeError(
            f"{tried} strategy failed to clear the bar within {samples} samples "
            f"and m={m} is too large for the exhaustive fallback"
        )
    sigma, best, _, count = kernels.balanced_subset_scan(a, p)
    if best < bar:
        raise ArithmeticError(f"exhaustive fallback {best!r} below the bar {bar!r}; this is a bug")
    return SplitSearchResult(sigma, float(best), f"{tried}+exhaustive-fallback", samples + count, norm)


@dataclass
class PavingPartition:
    """Disjoint index sets covering ``{0..n-1}`` after ``depth`` halvings."""

    parts: list[np.ndarray]
    depth: int

    def to_json(self) -> dict:
        return {"parts": [[int(i) + 1 for i in part] for part in self.parts], "depth": self.depth}


@dataclass
class PavingCertificate:
    """Achieved paved norm against the guaranteed geometric bound.

    ``guaranteed_bound = (1 - 2^-p)^(depth/p) * original_norm`` and the
    achieved ``paved_norm`` never exceeds it (up to a relative 1e-12).
    ``level_splits`` records, per level, the split of every part as
    ``(part indices, chosen half)`` in global 0-based coordinates, enough
    to replay the construction.
    """

    p: float
    original_norm: float
    paved_norm: float
    guaranteed_bound: float
    level_splits: list[list[tuple[np.ndarray, np.ndarray]]] = field(repr=False)

    def to_json(self) -> dict:
        return {
            "p": self.p,
            "original_norm": self.original_norm,
            "paved_norm": self.paved_norm,
            "guaranteed_bound": self.guaranteed_bound,
            "level_splits": [
                [
                    {"part": [int(i) + 1 for i in part], "sigma": [int(i) + 1 for i in half]}
                    for part, half in level
                ]
                for level in self.level_splits
            ],
        }


@dataclass
class PavingResult:
    partition: PavingPartition
    paved: np.ndarray
    certificate: PavingCertificate


def paving_norm(a, partition: PavingPartition | list, p) -> float:
    """``||sum_i P_i A P_i||_p`` for the diagonal compression onto a partition."""
    a = as_matrix(a)
    parts = partition.parts if isinstance(partition, PavingPartition) else [
        np.asarray(part, dtype=np.int64) for part in partition
    ]
    dim = a.shape[0]
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"need a square matrix, got {a.shape}")
    flat = np.concatenate(parts) if parts else np.empty(0, dtype=np.int64)
    if len(flat) != dim or len(np.unique(flat)) != dim or (len(flat) and (flat.min() < 0 or flat.max() >= dim)):
        raise ValueError("parts must be disjoint and cover every index")
    p = _validate_p(p, finite=True)
    total = 0.0
    for part in parts:
        if len(part):
            total += schatten_norm(a[np.ix_(part, part)], p) ** p
    return float(total ** (1.0 / p))


def _split_block(a, part: np.ndarray, p: float, strategy: str, spec: RandomSpec | None):
    """Split one diagonal block; odd sizes get a norm-neutral zero pad."""
    block = a[np.ix_(part, part)]
    size = len(part)
    if size % 2:
        padded = np.zeros((size + 1, size + 1), dtype=np.complex128)
        padded[:size, :size] = block
        block = padded
    result = find_balanced_split(block, p, strategy=strategy, spec=spec)
    local = result.sigma[result.sigma < size]          # drop the dummy pad index
    first = part[local]
    second = np.setdiff1d(part, first)
    return first, second


def _check_pave_input(a, p) -> tuple[np.ndarray, float]:
    a = as_matrix(a)
    p = _validate_p(p, 2.0, finite=True)
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"need a square matrix, got {a.shape}")
    _check_zero_diagonal(a)
    return a, p


def pave_levels(
    a,
    p,
    depth: int,
    strategy: str = "exhaustive",
    spec: RandomSpec | None = None,
) -> Iterator[PavingResult]:
    """Certified results of one recursive halving at depths ``0 .. depth``.

    The result at depth d equals ``pave(a, p, depth=d, ...)``: level d
    splits every part of level d - 1 with the same search and random
    substream, so a decay curve costs one descent.  Each certificate is
    checked as it is yielded.  Inputs are validated on the call, before
    the first result is requested.
    """
    a, p = _check_pave_input(a, p)
    if depth < 0:
        raise ValueError(f"depth must be nonnegative, got {depth}")
    return _descend(a, p, depth, strategy, spec)


def _descend(a, p: float, depth: int, strategy: str, spec: RandomSpec | None) -> Iterator[PavingResult]:
    original = schatten_norm(a, p)
    parts = [np.arange(a.shape[0], dtype=np.int64)]
    level_splits: list[list[tuple[np.ndarray, np.ndarray]]] = []
    yield _certified(a, p, parts, original, level_splits)
    for level in range(depth):
        next_parts: list[np.ndarray] = []
        records: list[tuple[np.ndarray, np.ndarray]] = []
        for idx, part in enumerate(parts):
            if len(part) <= 1:
                next_parts.append(part)
                continue
            sub = substream(spec, level * len(parts) + idx) if spec is not None else None
            first, second = _split_block(a, part, p, strategy, sub)
            records.append((part, first))
            next_parts.extend([first, second])
        parts = next_parts
        level_splits.append(records)
        yield _certified(a, p, parts, original, level_splits)


def _certified(a, p: float, parts: list[np.ndarray], original: float, level_splits: list) -> PavingResult:
    """The paving at ``len(level_splits)`` levels, with its checked certificate."""
    depth = len(level_splits)
    paved = np.zeros_like(a)
    for part in parts:
        if len(part):
            paved[np.ix_(part, part)] = a[np.ix_(part, part)]
    paved_norm = paving_norm(a, parts, p)
    bound = (1.0 - 2.0**-p) ** (depth / p) * original
    if paved_norm > bound * (1.0 + _SLACK_REL):
        raise ArithmeticError(
            f"paved norm {paved_norm!r} exceeds the certified bound {bound!r}; this is a bug"
        )
    partition = PavingPartition(parts, depth)
    certificate = PavingCertificate(p, original, paved_norm, bound, list(level_splits))
    return PavingResult(partition, paved, certificate)


def pave(
    a,
    p,
    depth: int | None = None,
    epsilon: float | None = None,
    strategy: str = "exhaustive",
    spec: RandomSpec | None = None,
) -> PavingResult:
    """Recursive balanced halving of a zero-diagonal matrix, with certificate.

    Exactly one of ``depth`` and ``epsilon`` must be given.  ``epsilon``
    picks the depth ``ceil(log eps / log (1 - 2^-p)^(1/p))``, capped at
    the depth where every part is a singleton (the paved matrix is then
    exactly zero).  The returned partition has at most ``2^depth`` parts;
    it is the last result of :func:`pave_levels`.
    """
    a, p = _check_pave_input(a, p)
    if (depth is None) == (epsilon is None):
        raise ValueError("give exactly one of depth or epsilon")
    dim = a.shape[0]
    singleton_depth = max(1, math.ceil(math.log2(dim))) if dim > 1 else 0
    if epsilon is not None:
        if not 0.0 < epsilon < 1.0:
            raise ValueError(f"epsilon must lie in (0, 1), got {epsilon}")
        shrink = math.log(1.0 - 2.0**-p) / p
        depth = min(math.ceil(math.log(epsilon) / shrink), singleton_depth)
    for result in pave_levels(a, p, depth, strategy, spec):
        pass
    return result


def partition_from_json(obj: dict) -> list[np.ndarray]:
    try:
        parts = [np.asarray(part, dtype=np.int64) - 1 for part in obj["parts"]]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed partition object: {exc}") from exc
    return parts
