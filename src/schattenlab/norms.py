"""Row-norm spaces Z_p and their two-sided variants.

``z_norm`` is the ell_p norm of the vector of row ell_2 norms.  For
p > 2 the two-sided variant combines the row norms of A and A*; for
1 <= q < 2 it is an infimum over additive splits A = B + C, bracketed
here by a primal-dual solver.  ``clarkson_slack`` evaluates the
uniform-convexity inequality used by the paving construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import _validate_p, as_matrix, schatten_norm


def _row_l2(a: np.ndarray) -> np.ndarray:
    return np.sqrt(np.sum(np.abs(a) ** 2, axis=1))


def _lp(r: np.ndarray, p: float) -> float:
    """ell_p norm of a nonnegative vector, taken relative to its largest entry."""
    top = float(np.max(r))
    if top == 0.0:
        return 0.0
    return top * float(np.sum((r / top) ** p)) ** (1.0 / p)


def z_norm(a, p) -> float:
    """ell_p norm of the vector of row ell_2 norms.

    Finite p >= 1 only.
    """
    a = as_matrix(a)
    p = _validate_p(p, finite=True)
    return _lp(_row_l2(a), p)


def z_tilde_upper(a, p) -> float:
    """Two-sided row-norm combination ``(Z_p(A)^p + Z_p(A*)^p)^(1/p)``, p > 2.

    The rows of A* are the conjugated columns of A, and conjugation keeps
    entry moduli, so ``Z_p(A*)`` reads the rows of ``A.T`` with no copy.
    """
    a = as_matrix(a)
    p = float(p)
    if not 2.0 < p < math.inf:
        raise ValueError(f"two-sided upper form needs finite p > 2, got {p}")
    return float((_lp(_row_l2(a), p) ** p + _lp(_row_l2(a.T), p) ** p) ** (1.0 / p))


@dataclass
class Decomposition:
    """Additive split ``A = B + C`` with a certified interval for z~_q(A).

    ``objective`` is ``(Z_q(B)^q + Z_q(C*)^q)^(1/q)`` for the returned
    pair, an upper bound on the true infimum.  ``lower_bound`` is
    ``|<A, W>| / z~_p(W)`` for the returned dual witness ``w`` with
    ``p = q/(q-1)`` (Hoelder over the row norms of B and the column norms
    of C), so ``lower_bound <= z~_q(A) <= objective``.  ``gap`` is
    ``(objective - lower_bound) / objective`` and ``converged`` means
    ``gap <= tol``.
    """

    b: np.ndarray
    c: np.ndarray
    objective: float
    iterations: int
    converged: bool
    lower_bound: float
    gap: float
    w: np.ndarray


def _l2(x: np.ndarray, axis: int) -> np.ndarray:
    """Row (axis 1) or column (axis 0) l2 norms, with no ``|x|^2`` temporary.

    ``z_norm`` keeps ``_row_l2``, so its values stay bit-identical.
    """
    f = np.ascontiguousarray(x).view(np.float64)
    if axis == 1:
        return np.sqrt(np.einsum("ij,ij->i", f, f))
    return np.sqrt(np.einsum("ij,ij->j", f, f).reshape(-1, 2).sum(axis=1))


def _split_objective(b: np.ndarray, c: np.ndarray, q: float) -> float:
    """``(sum_k ||B_k||^q + sum_l ||C(:,l)||^q)^(1/q)``."""
    return float(np.sum(_l2(b, 1) ** q) + np.sum(_l2(c, 0) ** q)) ** (1.0 / q)


def _dual_bound(a: np.ndarray, w: np.ndarray, q: float) -> float:
    """``|<A, W>| / z~_p(W)`` with ``p = q/(q-1)``, a lower bound on z~_q(A)."""
    dual = max(_l2(w, 1).max(), _l2(w, 0).max()) if q == 1.0 else z_tilde_upper(w, q / (q - 1.0))
    return float(abs(np.vdot(w, a)) / dual) if dual > 0.0 else 0.0


def _prox_factor(s: np.ndarray, t: float, q: float) -> np.ndarray:
    """Factor by which the prox of ``t ||x||^q`` scales vectors of length s.

    At q = 1 this is soft thresholding.  For 1 < q < 2 the prox has the
    length r that solves ``r + t q r^(q-1) = s``.  In ``u = ln r`` the
    log of the left side is convex and increasing, with slope in
    [q-1, 1], so Newton's method from the upper bound
    ``min(s, (s/tq)^(1/(q-1)))`` falls monotonically to the root (Newton
    in r from a lower bound takes hundreds of steps near q = 1).  It
    stops once a step is below the rounding of that log.
    """
    if q == 1.0:
        return np.maximum(s - t, 0.0) / np.maximum(s, t)
    out = np.zeros_like(s)
    live = np.flatnonzero(s)
    ls = np.log(s[live])
    ltq = math.log(t * q)
    u = np.minimum(ls, (ls - ltq) / (q - 1.0))
    floor = 4.0 * np.finfo(float).eps / (q - 1.0) * (1.0 + np.abs(ls))
    for _ in range(_NEWTON_STEPS):
        e1, e2 = np.exp(u), np.exp(ltq + (q - 1.0) * u)
        du = (np.log(e1 + e2) - ls) * (e1 + e2) / (e1 + (q - 1.0) * e2)
        u -= du
        if np.all(du <= floor):
            break
    out[live] = np.exp(u - ls)
    return out


#: Cap on Newton steps in ``_prox_factor``; s in [1e-300, 1e3] and
#: q in [1.0001, 1.9999] need at most 7.
_NEWTON_STEPS = 50

#: Chambolle-Pock steps sigma = 2, tau = 1/sigma (||K|| = 1 for K = I): the
#: row prox (of tau f) and the column prox (of g/sigma) both step by 1/2.
_STEP = 0.5


def z_tilde_lower(a, q, *, tol: float = 1e-9, max_iters: int = 100_000) -> Decomposition:
    """Minimize ``(Z_q(B)^q + Z_q((A-B)*)^q)^(1/q)`` over B, 1 <= q < 2.

    Primal-dual iteration of Chambolle and Pock ("A first-order
    primal-dual algorithm for convex problems with applications to
    imaging", J. Math. Imaging Vis. 40, 2011) on ``f(B) + g(A - B)``,
    with ``f`` the row q-powers and ``g`` the column q-powers.  Each step
    applies the prox of ``t ||x||^q`` to the rows of B, and to the
    columns of ``A - B`` through the Moreau identity.  The input is
    rescaled to unit Frobenius norm internally, which makes the result
    exactly 1-homogeneous in A.  The dual iterate W certifies the lower
    bound ``|<A, W>| / z~_p(W)``; the iteration stops once the relative
    duality gap is at most ``tol`` (or after ``max_iters``, returned with
    ``converged=False``, never silently).
    """
    a = as_matrix(a)
    q = float(q)
    if not 1.0 <= q < 2.0:
        raise ValueError(f"decomposition norm needs 1 <= q < 2, got {q}")
    scale = float(np.linalg.norm(a))
    if scale == 0.0:
        z = np.zeros_like(a)
        return Decomposition(z, z.copy(), 0.0, 0, True, 0.0, 0.0, z.copy())
    an = np.ascontiguousarray(a / scale)

    # ws holds W/sigma, so the primal step's B - tau W is B - ws
    b = an / 2.0
    b_bar = b.copy()
    ws = np.zeros_like(an)
    buf = np.empty_like(an)
    iterations = 0
    for iterations in range(1, max_iters + 1):
        # dual, by the Moreau identity: W = sigma (prox_{g/sigma}(D) - D) with
        # D = A - W/sigma - B_bar, a rescaling of each column of D
        np.subtract(an, ws, out=buf)
        buf -= b_bar
        np.multiply(buf, _prox_factor(_l2(buf, 0), _STEP, q) - 1.0, out=ws)
        # primal: row prox at B - tau W, then the extrapolation 2 B_new - B
        np.subtract(b, ws, out=buf)
        buf *= _prox_factor(_l2(buf, 1), _STEP, q)[:, None]
        np.subtract(buf, b, out=b_bar)
        b_bar += buf
        b, buf = buf, b
        upper = _split_objective(b, an - b, q)
        if upper - _dual_bound(an, ws, q) <= tol * upper:
            break

    b_full = b * scale
    c_full = a - b_full
    objective = _split_objective(b_full, c_full, q)
    # rounding can lift the bound an ulp past the attained value it never exceeds
    lower = min(_dual_bound(a, ws, q), objective)
    gap = (objective - lower) / objective
    return Decomposition(b_full, c_full, objective, iterations, gap <= tol, lower, gap, ws)


def clarkson_slack(x, y, p) -> float:
    """Signed slack of the uniform-convexity inequality at exponent p >= 2.

    Returns ``RHS - LHS`` of

        (1/2 (||x+y||_p^p + ||x-y||_p^p))^(1/p)
            <= (||x||_p^(p') + ||y||_p^(p'))^(1/p')   with p' = p/(p-1),

    which is nonnegative for all matrix pairs; callers can assert
    quantitative margins.
    """
    x, y = as_matrix(x), as_matrix(y)
    if x.shape != y.shape:
        raise ValueError(f"shape mismatch: {x.shape} vs {y.shape}")
    p = _validate_p(p, 2.0)
    lhs = (0.5 * (schatten_norm(x + y, p) ** p + schatten_norm(x - y, p) ** p)) ** (1.0 / p)
    pc = p / (p - 1.0)
    rhs = (schatten_norm(x, p) ** pc + schatten_norm(y, p) ** pc) ** ((p - 1.0) / p)
    return float(rhs - lhs)
