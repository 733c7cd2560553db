"""Rank lower bounds for families of matrices with large sign averages.

The chain: the sign average of ``||sum +-T_i||_p^p`` dominates (p > 2)
or is dominated by (p < 2) the trace power ``tr(sum T_i* T_i)^(p/2)``
(easy half of the noncommutative Khintchine inequality), and a Hoelder
argument turns the trace power into a lower bound on the rank of
``sum T_i* T_i``.  In particular a well-spread family of k unit-norm
matrices needs dimension proportional to k.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._backend import kernels
from .linalg import (
    _validate_p,
    as_matrix,
    matrix_from_json,
    matrix_to_json,
    numeric_rank,
    psd_trace_power,
    schatten_norm,
)

#: Exhaustive sign-vector cap: at most 2**20 evaluations.
EXHAUSTIVE_K_CAP = 20

_PRE_TOL = 1e-9


def _as_stack(ts) -> np.ndarray:
    stack = np.asarray(ts, dtype=np.complex128)
    if stack.ndim != 3 or stack.shape[0] < 1:
        raise ValueError(f"expected a nonempty list of equal-size matrices, got shape {stack.shape}")
    if stack.shape[1] != stack.shape[2]:
        raise ValueError(f"matrices must be square, got {stack.shape[1]}x{stack.shape[2]}")
    if not np.all(np.isfinite(stack)):
        raise ValueError("matrix entries must be finite")
    return stack


@dataclass
class EmbeddingInstance:
    """A family ``T_1..T_k`` of n x n matrices with the exponent p.

    ``constant`` is the optional supplied normalization constant; when
    None it is computed from the instance's own sign average.
    """

    ts: np.ndarray
    p: float
    constant: float | None = None

    def __post_init__(self):
        self.ts = _as_stack(self.ts)
        self.p = float(self.p)


@dataclass
class RankBoundReport:
    """Rank bound for ``sum A_i``.

    ``sign_average`` and ``khintchine_slack`` are filled in by
    :func:`tight_embedding_audit` (None from :func:`psd_rank_bound`).
    """

    k: int
    n: int
    d: int
    constant: float
    bound: float
    eigenvalues: np.ndarray = field(repr=False)
    holds: bool = True
    sign_average: float | None = None
    khintchine_slack: float | None = None


def sign_average_sum(ts, p, mode: str = "exhaustive", trials: int = 10_000, spec=None) -> float:
    """``Ave over sign vectors of ||sum_i e_i T_i||_p^p``."""
    stack = _as_stack(ts)
    p = _validate_p(p, finite=True)
    k = stack.shape[0]
    if mode == "exhaustive":
        if k > EXHAUSTIVE_K_CAP:
            raise ValueError(f"k={k} above the exhaustive cap {EXHAUSTIVE_K_CAP}; use monte-carlo")
        return float(kernels.sign_vector_enum_ppower_sum(stack, p) / (1 << k))
    if mode != "monte-carlo":
        raise ValueError(f"unknown mode {mode!r}")
    if spec is None:
        raise ValueError("monte-carlo mode needs a RandomSpec for the sign stream")
    eps = 1.0 - 2.0 * spec.rng().integers(0, 2, size=(trials, k))
    mats = np.tensordot(eps, stack, axes=(1, 0))
    return float(np.mean(kernels.schatten_ppower_batch(mats, p)))


def khintchine_easy_slack(ts, p) -> float:
    """Slack of the sign average against ``tr(sum T_i* T_i)^(p/2)``.

    Positive direction depends on p: average minus trace power for p > 2,
    trace power minus average for p < 2; both are nonnegative.  At p = 2
    the two sides coincide and the slack is 0 by convention.
    """
    stack = _as_stack(ts)
    p = float(p)
    if p == 2.0:
        return 0.0
    return _khintchine_slack(stack, p, sign_average_sum(stack, p))


def _khintchine_slack(stack: np.ndarray, p: float, ave: float) -> float:
    """:func:`khintchine_easy_slack` from an already computed sign average (p != 2)."""
    gram = np.einsum("kij,kil->jl", stack.conj(), stack)
    trace_power = psd_trace_power((gram + gram.conj().T) / 2.0, p / 2.0)
    return ave - trace_power if p > 2.0 else trace_power - ave


def psd_rank_bound(mats, p, constant: float | None = None) -> RankBoundReport:
    """Rank lower bound for a sum of PSD matrices with spread trace powers.

    For p > 2 each ``tr A_i^(p/2)`` must be >= 1 and the bound is
    ``K^(-2/(p-2)) * k`` with ``K = tr(sum A_i)^(p/2) / k`` (or the
    supplied constant, which must dominate the computed one).  For p < 2
    the precondition is ``tr A_i^(p/2) <= 1``, the constant divides the
    other way and the bound is ``c^(2/(2-p)) * k``.  ``holds`` is true for
    every valid input; a false report indicates an arithmetic bug, not a
    counterexample.
    """
    stack = _as_stack(mats)
    p = _validate_p(p, finite=True)
    if p == 2.0:
        raise ValueError("p = 2 has a singular exponent in the rank bound; it is excluded")
    k = stack.shape[0]
    traces = [psd_trace_power(m, p / 2.0) for m in stack]
    if p > 2.0:
        bad = [i for i, t in enumerate(traces) if t < 1.0 - _PRE_TOL]
        if bad:
            raise ValueError(f"matrices {bad} have tr A^(p/2) < 1 (need >= 1 for p > 2)")
    else:
        bad = [i for i, t in enumerate(traces) if t > 1.0 + _PRE_TOL]
        if bad:
            raise ValueError(f"matrices {bad} have tr A^(p/2) > 1 (need <= 1 for p < 2)")
    total = stack.sum(axis=0)
    total = (total + total.conj().T) / 2.0
    trace_power = psd_trace_power(total, p / 2.0)
    computed = trace_power / k
    if constant is None:
        constant = computed
    elif p > 2.0 and constant < computed * (1.0 - 1e-12):
        raise ValueError(f"supplied constant {constant} below the attained {computed}")
    elif p < 2.0 and constant > computed * (1.0 + 1e-12):
        raise ValueError(f"supplied constant {constant} above the attained {computed}")
    exponent = -2.0 / (p - 2.0) if p > 2.0 else 2.0 / (2.0 - p)
    bound = float(constant**exponent * k)
    d = numeric_rank(total)
    eig = np.linalg.eigvalsh(total)[::-1][:d].copy() if d else np.empty(0)
    return RankBoundReport(
        k=k,
        n=stack.shape[1],
        d=d,
        constant=float(constant),
        bound=bound,
        eigenvalues=eig,
        holds=bool(d >= bound - _PRE_TOL),
    )


def tight_embedding_audit(instance: EmbeddingInstance) -> RankBoundReport:
    """End-to-end rank audit of a normalized matrix family.

    Checks the norm preconditions (Schatten >= 1 each for p > 2, operator
    <= 1 each for p < 2), computes the exhaustive sign average, verifies
    the easy Khintchine direction, and reports the rank bound with
    ``A_i = T_i* T_i`` together with the sign average and the slack.  The
    dimension n must satisfy the bound whenever the preconditions hold.
    Callers must pre-normalize general isomorphisms so the unit-norm
    preconditions apply.
    """
    stack = instance.ts
    p = _validate_p(instance.p, finite=True)
    if p == 2.0:
        raise ValueError("p = 2 has a singular exponent in the rank bound; it is excluded")
    k, n = stack.shape[0], stack.shape[1]
    if p > 2.0:
        bad = [i for i in range(k) if schatten_norm(stack[i], p) < 1.0 - _PRE_TOL]
        if bad:
            raise ValueError(f"matrices {bad} have Schatten p-norm < 1 (need >= 1 for p > 2)")
    else:
        bad = [i for i in range(k) if schatten_norm(stack[i], math.inf) > 1.0 + _PRE_TOL]
        if bad:
            raise ValueError(f"matrices {bad} have operator norm > 1 (need <= 1 for p < 2)")
    ave = sign_average_sum(stack, p)
    if p > 2.0:
        constant = instance.constant if instance.constant is not None else ave / k
        if ave > constant * k * (1.0 + 1e-12):
            raise ValueError(f"sign average {ave} exceeds constant*k = {constant * k}")
    else:
        inv = instance.constant if instance.constant is not None else ave / k
        if ave < inv * k * (1.0 - 1e-12):
            raise ValueError(f"sign average {ave} below constant*k = {inv * k}")
        constant = inv
    slack = _khintchine_slack(stack, p, ave)
    # both sides scale like |T|^p, so the check is relative
    if slack < -1e-12 * ave:
        raise ArithmeticError(f"easy Khintchine direction violated (slack {slack:.3e})")
    report = psd_rank_bound(stack.conj().transpose(0, 2, 1) @ stack, p, constant=constant)
    if n < report.bound - _PRE_TOL:
        raise ArithmeticError(
            f"dimension bound violated: n={n} < bound={report.bound!r} (this is a bug)"
        )
    report.sign_average = ave
    report.khintchine_slack = slack
    return report


# ---------------------------------------------------------------------------
# JSON wire format: {"p": ..., "Ts": [matrix, ...]}

def instance_to_json(instance: EmbeddingInstance) -> dict:
    obj = {"p": instance.p, "Ts": [matrix_to_json(t) for t in instance.ts]}
    if instance.constant is not None:
        obj["constant"] = instance.constant
    return obj


def instance_from_json(obj: dict) -> EmbeddingInstance:
    try:
        p = float(obj["p"])
        ts = [matrix_from_json(t) for t in obj["Ts"]]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed embedding instance: {exc}") from exc
    constant = float(obj["constant"]) if "constant" in obj and obj["constant"] is not None else None
    return EmbeddingInstance(np.stack(ts), p, constant)


def report_to_json(report: RankBoundReport) -> dict:
    return {
        "k": report.k,
        "n": report.n,
        "d": report.d,
        "constant": report.constant,
        "bound": report.bound,
        "eigenvalues": [float(x) for x in report.eigenvalues],
        "holds": report.holds,
    }
