"""Row-norm spaces Z_p and their two-sided variants.

``z_norm`` is the ell_p norm of the vector of row ell_2 norms.  For
p > 2 the two-sided variant combines the row norms of A and A*; for
1 <= q < 2 it is an infimum over additive splits A = B + C, computed
here by a first-order convex solver.  ``clarkson_slack`` evaluates the
uniform-convexity inequality used by the paving construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import _validate_p, as_matrix, schatten_norm

#: Smoothing of the row q-powers at zero (see ``z_tilde_lower``).
SMOOTHING_MU = 1e-9


def _row_l2(a: np.ndarray) -> np.ndarray:
    return np.sqrt(np.sum(np.abs(a) ** 2, axis=1))


def z_norm(a, p) -> float:
    """ell_p norm of the vector of row ell_2 norms.

    Finite p >= 1 only.
    """
    a = as_matrix(a)
    p = _validate_p(p, finite=True)
    r = _row_l2(a)
    top = float(np.max(r))
    if top == 0.0:
        return 0.0
    return top * float(np.sum((r / top) ** p)) ** (1.0 / p)


def z_tilde_upper(a, p) -> float:
    """Two-sided row-norm combination ``(Z_p(A)^p + Z_p(A*)^p)^(1/p)``, p > 2."""
    a = as_matrix(a)
    p = float(p)
    if not 2.0 < p < math.inf:
        raise ValueError(f"two-sided upper form needs finite p > 2, got {p}")
    return float((z_norm(a, p) ** p + z_norm(a.conj().T, p) ** p) ** (1.0 / p))


@dataclass
class Decomposition:
    """Additive split ``A = B + C`` with the attained objective.

    ``objective`` is ``(Z_q(B)^q + Z_q(C*)^q)^(1/q)`` for the returned
    pair, an upper bound on the true infimum.  ``converged`` means the
    smoothed gradient norm at exit (on the internally rescaled problem)
    is at most ``grad_tol``.
    """

    b: np.ndarray
    c: np.ndarray
    objective: float
    iterations: int
    converged: bool
    gradient_norm: float


def _split_objective(b: np.ndarray, c: np.ndarray, q: float) -> float:
    """Unsmoothed objective ``sum_k ||B_k||^q + sum_l ||C(:,l)||^q``."""
    return float(np.sum(_row_l2(b) ** q) + np.sum(_row_l2(c.conj().T) ** q))


def _smoothing_terms(b: np.ndarray, a: np.ndarray, q: float, mu: float):
    """``(C, smoothed squared row norms of B, of C's columns, objective)``."""
    c = a - b
    row_sq = np.sum(np.abs(b) ** 2, axis=1) + mu * mu
    col_sq = np.sum(np.abs(c) ** 2, axis=0) + mu * mu
    f = float(np.sum(row_sq ** (q / 2.0)) + np.sum(col_sq ** (q / 2.0)))
    return c, row_sq, col_sq, f


def _smoothed_value(b: np.ndarray, a: np.ndarray, q: float, mu: float) -> float:
    """Smoothed objective alone, all a line-search probe needs."""
    return _smoothing_terms(b, a, q, mu)[3]


def _smoothed(b: np.ndarray, a: np.ndarray, q: float, mu: float):
    """Smoothed objective and its (Wirtinger) gradient in B."""
    c, row_sq, col_sq, f = _smoothing_terms(b, a, q, mu)
    g = q * (row_sq ** (q / 2.0 - 1.0))[:, None] * b - q * (col_sq ** (q / 2.0 - 1.0))[None, :] * c
    return f, g


def _fista_stage(b, an, q: float, mu: float, tol: float, grad_tol: float, budget: int):
    """Monotone accelerated descent at one smoothing level; warm-startable.

    Returns ``(b, iterations_used, gradient_norm)``.  Ends on gradient
    tolerance, a 10-iteration stall of the relative objective decrease, or
    the iteration budget.  Backtracking probes evaluate the objective
    only; the gradient is taken once per iteration, at the next
    extrapolated point (or at the restart point).
    """
    f_b, g = _smoothed(b, an, q, mu)
    y, f_y, g_y = b, f_b, g
    t_momentum = 1.0
    step = 1.0
    stall = 0
    used = 0
    while used < budget:
        used += 1
        gnorm2 = float(np.sum(np.abs(g_y) ** 2))
        if math.sqrt(gnorm2) <= grad_tol:
            return y, used, math.sqrt(gnorm2)
        # backtracking Armijo step from the extrapolated point
        while True:
            cand = y - step * g_y
            f_cand = _smoothed_value(cand, an, q, mu)
            if f_cand <= f_y - 0.5 * step * gnorm2 or step < 1e-20:
                break
            step *= 0.5
        if f_cand > f_b:
            if step < 1e-18 and t_momentum == 1.0:
                break  # no descent direction left at float precision
            # momentum overshoot: restart from the best iterate
            y, f_y = b, f_b
            _, g_y = _smoothed(y, an, q, mu)
            t_momentum = 1.0
            continue
        t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t_momentum * t_momentum))
        y_next = cand + ((t_momentum - 1.0) / t_next) * (cand - b)
        rel_drop = (f_b - f_cand) / max(f_cand, 1e-300)
        b, f_b = cand, f_cand
        y, t_momentum = y_next, t_next
        f_y, g_y = _smoothed(y, an, q, mu)
        step = min(step * 1.25, 1e6)
        stall = stall + 1 if rel_drop <= tol else 0
        if stall >= 10:
            break
    _, g_fin = _smoothed(b, an, q, mu)
    return b, used, math.sqrt(float(np.sum(np.abs(g_fin) ** 2)))


def z_tilde_lower(
    a,
    q,
    *,
    tol: float = 1e-8,
    grad_tol: float = 1e-6,
    max_iters: int = 100_000,
    mu: float = SMOOTHING_MU,
) -> Decomposition:
    """Minimize ``(Z_q(B)^q + Z_q((A-B)*)^q)^(1/q)`` over B, 1 <= q < 2.

    Accelerated first-order descent with backtracking on the mu-smoothed
    objective, started at ``B = A/2``, with smoothing continuation (the
    smoothing level shrinks in stages down to ``mu``, warm-starting each
    stage) to cope with the kinks that appear as q approaches 1.  The
    problem is convex, so a stationary point is global.  The input is
    rescaled to unit Frobenius norm internally, which makes the result
    exactly 1-homogeneous in A.  Stops on stalled relative objective
    decrease below ``tol`` (or ``max_iters``, returned with
    ``converged=False``, never silently).
    """
    a = as_matrix(a)
    q = float(q)
    if not 1.0 <= q < 2.0:
        raise ValueError(f"decomposition norm needs 1 <= q < 2, got {q}")
    scale = float(np.linalg.norm(a))
    if scale == 0.0:
        z = np.zeros_like(a)
        return Decomposition(z, z.copy(), 0.0, 0, True, 0.0)
    an = a / scale

    stages = [lvl for lvl in (1e-2, 1e-4, 1e-6) if lvl > mu] + [mu]
    b = an / 2.0
    iterations = 0
    gnorm = math.inf
    for lvl in stages:
        budget = max_iters - iterations
        if budget <= 0:
            break
        b, used, gnorm = _fista_stage(b, an, q, lvl, tol, grad_tol, budget)
        iterations += used
    converged = gnorm <= grad_tol and iterations < max_iters

    b_full = b * scale
    c_full = a - b_full
    objective = _split_objective(b_full, c_full, q) ** (1.0 / q)
    return Decomposition(b_full, c_full, float(objective), iterations, converged, gnorm)


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
