"""Sign patterns and Rademacher averages of Schatten norms.

Sign matrices are enumerated in the canonical order of
``_kernels_py.sign_rows`` (little-endian, index 0 all-plus).  Exhaustive
averages are over every pattern; the kernel evaluates one pattern per
row/column-flip orbit, which shares one p-power.  Monte-Carlo averages
draw seeded patterns and report the standard error of the p-power mean.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._backend import kernels
from .linalg import RandomSpec, _validate_p, as_matrix, schatten_norms
from .norms import Decomposition, z_norm, z_tilde_lower, z_tilde_upper

#: Exhaustive enumeration cap: at most 2**20 sign patterns.
EXHAUSTIVE_BITS_CAP = 20

MODES = ("exhaustive", "monte-carlo")


def sign_pattern_by_index(rows: int, cols: int, index: int) -> np.ndarray:
    """The ``index``-th sign matrix in the canonical enumeration."""
    if rows < 1 or cols < 1:
        raise ValueError("rows and cols must be positive")
    bits = rows * cols
    if not 0 <= index < (1 << bits):
        raise ValueError(f"pattern index {index} out of range [0, 2^{bits})")
    return kernels.sign_rows(index, index + 1, bits).reshape(rows, cols)


def all_sign_patterns(rows: int, cols: int) -> np.ndarray:
    """Stack of all ``2**(rows*cols)`` sign matrices, in canonical order."""
    bits = rows * cols
    if bits > EXHAUSTIVE_BITS_CAP:
        raise ValueError(f"refusing to materialize 2^{bits} patterns (cap 2^{EXHAUSTIVE_BITS_CAP})")
    return kernels.sign_rows(0, 1 << bits, bits).reshape(-1, rows, cols)


@dataclass
class AverageReport:
    """Aggregate of ``||R o A||_p^p`` over sign patterns R.

    ``root`` is ``mean_ppower ** (1/p)``.  ``std_error`` is the standard
    error of the p-power mean, 0 in exhaustive mode where ``samples``
    equals ``2**(rows*cols)``.
    """

    p: float
    mode: str
    samples: int
    mean_ppower: float
    root: float
    std_error: float


def rademacher_average(
    a,
    p,
    mode: str = "exhaustive",
    trials: int = 10_000,
    spec: RandomSpec | None = None,
) -> AverageReport:
    """Average of ``||R o A||_p^p`` over independent sign flips of the entries."""
    a = as_matrix(a)
    p = _validate_p(p, finite=True)
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    rows, cols = a.shape
    if mode == "exhaustive":
        bits = rows * cols
        if bits > EXHAUSTIVE_BITS_CAP:
            raise ValueError(
                f"{rows}x{cols} has {bits} sign bits, above the exhaustive cap "
                f"{EXHAUSTIVE_BITS_CAP}; use monte-carlo"
            )
        samples = 1 << bits
        mean = kernels.sign_enum_ppower_sum(a, p) / samples
        return AverageReport(p, mode, samples, float(mean), float(mean ** (1.0 / p)), 0.0)
    if trials < 2:
        raise ValueError("monte-carlo needs at least 2 trials")
    if spec is None:
        raise ValueError("monte-carlo mode needs a RandomSpec for the sign stream")
    rng = spec.rng()
    signs = 1.0 - 2.0 * rng.integers(0, 2, size=(trials, rows, cols))
    powers = kernels.schatten_ppower_batch(signs * a, p)
    mean = float(np.mean(powers))
    stderr = float(np.std(powers, ddof=1) / math.sqrt(trials))
    return AverageReport(p, mode, trials, mean, mean ** (1.0 / p), stderr)


def norm_domination_slacks(a, ps) -> list[tuple[float, float]]:
    """Slacks of the Schatten norm over the row-norm functionals, p > 2.

    Returns one ``(||A||_p - Z_p(A), 2^(1/p) ||A||_p - ztilde_p(A))`` pair
    per exponent in ``ps``, in order; both are nonnegative for every
    matrix.  All exponents are checked first, and one SVD serves them all.
    """
    a = as_matrix(a)
    ps = [float(p) for p in ps]
    for p in ps:
        if not 2.0 < p < math.inf:
            raise ValueError(f"domination slacks need finite p > 2, got {p}")
    return [
        (sn - z_norm(a, p), (2.0 ** (1.0 / p)) * sn - z_tilde_upper(a, p))
        for p, sn in zip(ps, schatten_norms(a, ps))
    ]


@dataclass
class RatioReport:
    """Rademacher-average root against the two-sided row norm."""

    root: float
    z_tilde: float
    ratio: float
    average: AverageReport
    solver: Decomposition | None = None


def rademacher_z_tilde_ratio(
    a,
    p,
    mode: str = "exhaustive",
    trials: int = 10_000,
    spec: RandomSpec | None = None,
) -> RatioReport:
    """Ratio of the sign-average root to the two-sided row norm.

    For p > 2 the denominator is the closed two-sided form and the easy
    one-sided bound ``root >= 2^(-1/p) * ztilde`` is checked up to a
    relative 1e-12, so the verdict does not change under ``A -> cA`` (a
    violated check raises, since it cannot fail on correct arithmetic).
    For 1 <= p < 2 the denominator is the decomposition-solver objective
    and the report carries the solver state; nothing is asserted there.
    Two-sided behavior is data to look at, not a guarantee.
    """
    a = as_matrix(a)
    p = float(p)
    if not (2.0 < p < math.inf or 1.0 <= p < 2.0):
        raise ValueError(f"two-sided norm is defined for finite p > 2 or 1 <= p < 2, got {p}")
    report = rademacher_average(a, p, mode=mode, trials=trials, spec=spec)
    solver = None
    if p > 2.0:
        zt = z_tilde_upper(a, p)
        if report.mode == "exhaustive" and report.root < 2.0 ** (-1.0 / p) * zt * (1.0 - 1e-12):
            raise ArithmeticError(
                f"one-sided sign-average bound violated: root={report.root!r} "
                f"vs 2^(-1/p)*ztilde={2.0 ** (-1.0 / p) * zt!r}"
            )
    else:
        solver = z_tilde_lower(a, p)
        zt = solver.objective
    ratio = report.root / zt if zt > 0.0 else math.inf
    return RatioReport(report.root, float(zt), float(ratio), report, solver)
