"""Dense complex matrix primitives: Schatten norms, PSD trace powers,
numeric rank, trace pairing, and seeded random ensembles.

All functions are pure; matrices are plain ``numpy.ndarray`` values in
complex double precision and are never mutated.  Entries are indexed
0-based in code (the accompanying docs speak 1-based).  Deterministic
randomness goes through :class:`RandomSpec`; concurrent callers should
derive independent streams with :func:`substream`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

#: Absolute tolerance on the minimum eigenvalue when checking positive
#: semidefiniteness.
PSD_TOL = 1e-10

#: Default relative singular-value cutoff for :func:`numeric_rank`.
RANK_RTOL = 1e-9

ENSEMBLES = (
    "complex-gaussian",
    "real-gaussian",
    "zero-diagonal-complex-gaussian",
    "psd",
    "unit-schatten-normalized",
)


@dataclass(frozen=True)
class RandomSpec:
    """Seeded recipe for a random matrix.

    Same seed and spec always reproduce the same matrix within one build.
    ``norm_p`` only matters for the ``unit-schatten-normalized`` ensemble,
    which rescales a complex gaussian draw to unit Schatten-``norm_p`` norm.
    """

    seed: int
    ensemble: str = "complex-gaussian"
    norm_p: float = 2.0

    def __post_init__(self):
        if self.ensemble not in ENSEMBLES:
            raise ValueError(f"unknown ensemble {self.ensemble!r}; choose from {ENSEMBLES}")

    def rng(self) -> np.random.Generator:
        return np.random.default_rng(np.random.SeedSequence(self.seed))


def substream_seed(seed: int, index: int) -> int:
    """Derived seed for parallel substream ``index`` of a base ``seed``."""
    return int(np.random.SeedSequence((seed, index)).generate_state(1, np.uint64)[0])


def substream(spec: RandomSpec, index: int) -> RandomSpec:
    """Spec for the ``index``-th independent substream of ``spec``."""
    return replace(spec, seed=substream_seed(spec.seed, index))


def as_matrix(a) -> np.ndarray:
    """Coerce to a 2-D complex128 array and validate finiteness."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] < 1 or m.shape[1] < 1:
        raise ValueError(f"expected a 2-D matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix entries must be finite (no NaN/Inf)")
    return m


def _validate_p(p: float, minimum: float = 1.0, *, finite: bool = False) -> float:
    """``float(p)`` if it is an exponent ``>= minimum``, else ``ValueError``.

    NaN never passes; ``finite=True`` also rejects ``inf``.
    """
    p = float(p)
    if math.isnan(p) or p < minimum or (finite and math.isinf(p)):
        raise ValueError(f"need {'finite ' if finite else ''}p >= {minimum:g}, got {p}")
    return p


def schur_product(a, b) -> np.ndarray:
    """Entrywise (Schur) product of two same-shape matrices."""
    a, b = as_matrix(a), as_matrix(b)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch for Schur product: {a.shape} vs {b.shape}")
    return a * b


def singular_values(a) -> np.ndarray:
    """Singular values of ``a``, nonincreasing.

    Length is ``min(rows, cols)``.  Decomposition failures propagate as
    ``numpy.linalg.LinAlgError``.
    """
    a = as_matrix(a)
    return np.linalg.svd(a, compute_uv=False)


def schatten_norm(a, p) -> float:
    """Schatten ``p``-norm ``(sum_i s_i^p)^(1/p)``.

    ``p = math.inf`` gives the operator norm (largest singular value);
    ``p = 2`` is the Frobenius norm, ``p = 1`` the trace norm.
    """
    return schatten_norms(a, (p,))[0]


def schatten_norms(a, ps) -> list[float]:
    """Schatten norms of ``a`` at every exponent in ``ps``, in order.

    Every exponent is validated before any work; the singular values are
    computed at most once and serve all of them (``p = 2`` needs none).
    Each value equals ``schatten_norm(a, p)`` bit for bit.
    """
    a = as_matrix(a)
    ps = [_validate_p(p) for p in ps]
    out = []
    s = None
    for p in ps:
        if p == 2.0:
            # Frobenius shortcut, exact and cheap.
            out.append(float(np.linalg.norm(a)))
            continue
        if s is None:
            s = singular_values(a)
        top = float(s[0])
        if math.isinf(p):
            out.append(float(np.max(s)))
        elif top == 0.0:
            out.append(0.0)
        else:
            # factor out the largest value to avoid overflow at large p
            out.append(top * float(np.sum((s / top) ** p)) ** (1.0 / p))
    return out


def _check_hermitian(a: np.ndarray, tol: float) -> None:
    scale = max(1.0, float(np.max(np.abs(a))))
    if float(np.max(np.abs(a - a.conj().T))) > tol * scale:
        raise ValueError("matrix is not Hermitian within tolerance")


def psd_trace_power(a, s: float, tol: float = PSD_TOL) -> float:
    """``trace(A^s)`` for a positive semidefinite ``A`` via eigenvalues.

    Eigenvalues in ``[-tol, 0)`` are clamped to 0; anything below ``-tol``
    raises, since the input then fails the PSD contract.
    """
    a = as_matrix(a)
    if a.shape[0] != a.shape[1]:
        raise ValueError("trace power needs a square matrix")
    if not s > 0:
        raise ValueError(f"power must be positive, got {s}")
    _check_hermitian(a, tol)
    w = np.linalg.eigvalsh(a)
    if float(w[0]) < -tol:
        raise ValueError(f"matrix is not PSD: min eigenvalue {float(w[0]):.3e} < -{tol}")
    w = np.clip(w, 0.0, None)
    return float(np.sum(w**s))


def numeric_rank(a, rtol: float = RANK_RTOL) -> int:
    """Count of singular values above ``rtol`` times the largest one."""
    if not 0.0 < rtol < 1.0:
        raise ValueError(f"rtol must lie in (0, 1), got {rtol}")
    s = singular_values(a)
    top = float(s[0])
    if top == 0.0:
        return 0
    return int(np.count_nonzero(s > rtol * top))


def trace_pairing(a, b) -> complex:
    """Duality pairing ``trace(B* A)``; conjugate-symmetric in its arguments."""
    a, b = as_matrix(a), as_matrix(b)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch for trace pairing: {a.shape} vs {b.shape}")
    return complex(np.vdot(b, a))


def random_matrix(spec: RandomSpec, rows: int, cols: int) -> np.ndarray:
    """Draw the matrix described by ``spec``; deterministic per spec."""
    if rows < 1 or cols < 1:
        raise ValueError("rows and cols must be positive")
    rng = spec.rng()
    square_only = ("zero-diagonal-complex-gaussian", "psd")
    if spec.ensemble in square_only and rows != cols:
        raise ValueError(f"{spec.ensemble} ensemble requires a square shape")

    def cgauss(r, c):
        return (rng.standard_normal((r, c)) + 1j * rng.standard_normal((r, c))) / np.sqrt(2.0)

    if spec.ensemble == "complex-gaussian":
        return cgauss(rows, cols)
    if spec.ensemble == "real-gaussian":
        return rng.standard_normal((rows, cols)).astype(np.complex128)
    if spec.ensemble == "zero-diagonal-complex-gaussian":
        a = cgauss(rows, cols)
        np.fill_diagonal(a, 0.0)
        return a
    if spec.ensemble == "psd":
        g = cgauss(rows, cols)
        h = g.conj().T @ g
        # exact Hermitian symmetry, so downstream checks never see roundoff skew
        return (h + h.conj().T) / 2.0
    # unit-schatten-normalized
    a = cgauss(rows, cols)
    return a / schatten_norm(a, spec.norm_p)


# ---------------------------------------------------------------------------
# JSON wire format: {"rows": m, "cols": n, "re": [[...]], "im": [[...]]}
# ("im" optional, defaults to zeros)

def matrix_to_json(a) -> dict:
    a = as_matrix(a)
    obj = {"rows": a.shape[0], "cols": a.shape[1], "re": a.real.tolist()}
    if np.any(a.imag):
        obj["im"] = a.imag.tolist()
    return obj


def matrix_from_json(obj: dict) -> np.ndarray:
    try:
        rows, cols = int(obj["rows"]), int(obj["cols"])
        re = np.asarray(obj["re"], dtype=np.float64)
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed matrix object: {exc}") from exc
    if re.shape != (rows, cols):
        raise ValueError(f'"re" has shape {re.shape}, expected ({rows}, {cols})')
    im = np.zeros_like(re)
    if "im" in obj and obj["im"] is not None:
        im = np.asarray(obj["im"], dtype=np.float64)
        if im.shape != (rows, cols):
            raise ValueError(f'"im" has shape {im.shape}, expected ({rows}, {cols})')
    return as_matrix(re + 1j * im)
