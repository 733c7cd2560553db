"""Acceptance suite: every criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line
per criterion (the prints flow through with ``-s``).
"""

import itertools
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from schattenlab.embedding import (
    EmbeddingInstance,
    khintchine_easy_slack,
    psd_rank_bound,
    sign_average_sum,
    tight_embedding_audit,
)
from schattenlab.linalg import RandomSpec, random_matrix, schatten_norm, substream, trace_pairing
from schattenlab.norms import z_norm, z_tilde_lower, z_tilde_upper
from schattenlab.paving import (
    balanced_overlap_ratios,
    balanced_subset_average,
    find_balanced_split,
    pave,
    paving_split,
)
from schattenlab.projection import (
    BlockDiag,
    assemble,
    block_sign_average,
    estimate_projection_norm,
    project_onto_lift,
    row_norm_projection_slack,
    sign_block_lift,
)
from schattenlab.signs import rademacher_average, rademacher_z_tilde_ratio

from conftest import basis_matrix, complex_gaussian


def _report(index, text):
    print(f"\nACCEPTANCE {index}: PASS - {text}")


def test_acceptance_1_split_contraction():
    """Best balanced split contracts by (1 - 2^-p)^(1/p), under 60 s."""
    sizes = (2, 4, 6, 8, 10, 12)
    exponents = (2.0, 3.0, 4.0, 6.0, 10.0)
    base = RandomSpec(101, "zero-diagonal-complex-gaussian")
    start = time.time()
    worst = math.inf
    for i in range(200):
        spec = substream(base, i)
        dim = sizes[i % len(sizes)]
        a = random_matrix(spec, dim, dim)
        for p in exponents:
            res = find_balanced_split(a, p, strategy="exhaustive")
            u, _ = paving_split(a, res.sigma)
            slack = (1.0 - 2.0**-p) ** (1.0 / p) * schatten_norm(a, p) + 1e-9 - schatten_norm(u, p)
            worst = min(worst, slack)
            assert slack >= 0.0, f"contraction violated at seed {spec.seed}, 2m={dim}, p={p}"
    elapsed = time.time() - start
    assert elapsed < 60.0, f"contraction sweep took {elapsed:.1f}s"
    _report(1, f"200 instances x 5 exponents contracted (min slack {worst:.3e}, {elapsed:.1f}s)")


def test_acceptance_2_balanced_average_bounds():
    """Exhaustive balanced averages meet both share bounds; exact identities."""
    base = RandomSpec(202, "zero-diagonal-complex-gaussian")
    checked = 0
    for m in (1, 2, 3, 4, 5):
        for trial in range(10):
            a = random_matrix(substream(base, 10 * m + trial), 2 * m, 2 * m)
            for p in (2.0, 3.0, 4.0, 6.0):
                rep = balanced_subset_average(a, p)
                assert rep.average - rep.lower_bound_2p >= -1e-9
                assert rep.average - rep.lower_bound_sharp >= -1e-9
                checked += 1
    for m in range(2, 13):
        first, second = balanced_overlap_ratios(m)
        assert first == Fraction(m, 4 * m - 2)
        assert second == Fraction(m, 8 * m - 4)
    _report(2, f"{checked} exhaustive averages met both bounds; identities exact for m=2..12")


def test_acceptance_3_norm_domination():
    """Schatten norm dominates the row norms on 1000 random matrices."""
    base = RandomSpec(303)
    shape_rng = np.random.default_rng(99)
    worst = math.inf
    for i in range(1000):
        rows = int(shape_rng.integers(1, 13))
        cols = int(shape_rng.integers(1, 13))
        a = random_matrix(substream(base, i), rows, cols)
        for p in (2.5, 3.0, 4.0, 6.0):
            sn = schatten_norm(a, p)
            s1 = sn - z_norm(a, p)
            s2 = 2.0 ** (1.0 / p) * sn - z_tilde_upper(a, p)
            worst = min(worst, s1, s2)
            assert s1 >= -1e-10 and s2 >= -1e-10
    _report(3, f"1000 matrices x 4 exponents dominated (min slack {worst:.3e})")


def test_acceptance_4_sign_average_easy_direction():
    """Exhaustive sign averages stay above 2^(-1/p) of the two-sided norm."""
    base = RandomSpec(404)
    ratios = []
    start = time.time()
    for seed_index in range(50):
        for rows in range(1, 5):
            for cols in range(1, 5):
                a = random_matrix(substream(base, 1000 * seed_index + 16 * rows + cols), rows, cols)
                for p in (3.0, 4.0):
                    rep = rademacher_z_tilde_ratio(a, p)
                    assert rep.root >= 2.0 ** (-1.0 / p) * rep.z_tilde - 1e-9
                    ratios.append(rep.ratio)
    # Monte-Carlo agreement with the exhaustive mean on 3x3 instances
    for seed_index in range(5):
        a = random_matrix(substream(base, 7777 + seed_index), 3, 3)
        for p in (3.0, 4.0):
            exact = rademacher_average(a, p)
            mc = rademacher_average(a, p, mode="monte-carlo", trials=10_000, spec=RandomSpec(5 + seed_index))
            assert abs(mc.mean_ppower - exact.mean_ppower) <= 3.0 * mc.std_error
    elapsed = time.time() - start
    _report(
        4,
        f"1600 exhaustive averages above the one-sided floor; two-sided ratios in "
        f"[{min(ratios):.4f}, {max(ratios):.4f}] (reported, not asserted); MC within 3 sigma "
        f"({elapsed:.1f}s)",
    )


def test_acceptance_5_projection():
    """Lift/average round-trip, projection laws, row-norm slack, norm at p=2."""
    base = RandomSpec(505)
    # round-trip at 1e-14 for n = 1, 2, 3 over 50 seeds
    for n in (1, 2, 3):
        for trial in range(50):
            a = random_matrix(substream(base, 100 * n + trial), n, n)
            err = float(np.max(np.abs(block_sign_average(sign_block_lift(a)) - a)))
            assert err <= 1e-14
    # idempotence and self-adjointness at 1e-10
    for trial in range(20):
        rng1 = substream(base, 900 + trial).rng()
        rng2 = substream(base, 950 + trial).rng()
        d = BlockDiag(rng1.standard_normal((16, 2, 2)) + 1j * rng1.standard_normal((16, 2, 2)))
        e = BlockDiag(rng2.standard_normal((16, 2, 2)) + 1j * rng2.standard_normal((16, 2, 2)))
        once = project_onto_lift(d)
        assert np.max(np.abs(project_onto_lift(once).blocks - once.blocks)) <= 1e-10
        lhs = trace_pairing(assemble(once), assemble(e))
        rhs = trace_pairing(assemble(d), assemble(project_onto_lift(e)))
        assert abs(lhs - rhs) <= 1e-10
    # row-norm slack: 100 dense matrices at n=2, 10 at n=3 under five minutes
    ps = (2.5, 4.0, 6.0)
    start = time.time()
    for trial in range(100):
        b = random_matrix(substream(base, 2000 + trial), 32, 32)
        for p, slack in zip(ps, row_norm_projection_slack(b, 2, ps), strict=True):
            assert slack >= -1e-9, (trial, p)
    for trial in range(10):
        b = random_matrix(substream(base, 3000 + trial), 1536, 1536)
        for p, slack in zip(ps, row_norm_projection_slack(b, 3, ps), strict=True):
            assert slack >= -1e-9, (trial, p)
    elapsed = time.time() - start
    assert elapsed < 300.0, f"slack sweep took {elapsed:.1f}s"
    # Frobenius projection norm is exactly 1
    for n in (1, 2):
        est = estimate_projection_norm(n, 2.0, trials=8, spec=substream(base, 4000 + n))
        assert abs(est.lower_bound - 1.0) <= 1e-8
    _report(5, f"round-trips exact, projection laws hold, 110 x 3 slacks nonnegative ({elapsed:.1f}s)")


def test_acceptance_6_decomposition_solver():
    """Solver matches the closed form, beats sampling, certifies duality."""
    tol = 1e-9
    e11 = basis_matrix(2, 2, 0, 0)
    for q in (1.0, 1.2, 1.5, 1.8):
        dec = z_tilde_lower(e11, q, tol=tol)
        assert abs(dec.objective - 2.0 ** (1.0 / q - 1.0)) <= 1e-6
        assert dec.gap <= tol
    base = RandomSpec(606)
    q = 1.5
    for trial in range(20):
        spec = substream(base, trial)
        a = random_matrix(spec, 3, 3)
        dec = z_tilde_lower(a, q, tol=tol)
        assert dec.gap <= tol
        ts = substream(spec, 1).rng().random((10_000, 3, 3))
        rows = np.sqrt(np.sum(np.abs(ts * a) ** 2, axis=2))
        cols = np.sqrt(np.sum(np.abs((1.0 - ts) * a) ** 2, axis=1))
        oracle = float(np.min((np.sum(rows**q, axis=1) + np.sum(cols**q, axis=1)) ** (1.0 / q)))
        assert dec.objective <= oracle + 1e-6
    p, qq = 4.0, 4.0 / 3.0
    for trial in range(100):
        spec = substream(base, 100 + trial)
        a = random_matrix(spec, 3, 3)
        b = random_matrix(substream(spec, 1), 3, 3)
        lhs = abs(trace_pairing(a, b))
        dec = z_tilde_lower(b, qq, tol=tol)
        assert dec.gap <= tol
        assert lhs <= z_tilde_upper(a, p) * dec.objective * (1.0 + 1e-6)
    _report(6, "closed form within 1e-6, below the sampling oracle, 100 duality pairs certified, every gap <= 1e-9")


def test_acceptance_7_rank_bounds():
    """Rank bounds hold on 500 valid instances per branch; equality case exact."""
    base = RandomSpec(707)

    def normalized_family(spec, k, n, p):
        rng = spec.rng()
        mats = []
        for _ in range(k):
            g = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2)
            h = g.conj().T @ g
            h = (h + h.conj().T) / 2
            w = np.clip(np.linalg.eigvalsh(h), 0, None)
            mats.append(h / float(np.sum(w ** (p / 2.0))) ** (2.0 / p))
        return np.stack(mats)

    for branch, exponents in (("above", (3.0, 4.0, 6.0)), ("below", (1.2, 1.5, 1.8))):
        for i in range(500):
            spec = substream(base, (0 if branch == "above" else 10_000) + i)
            sizes = spec.rng().integers(2, 9, size=2)
            k = int(sizes[0]) + 4  # k up to 12
            n = int(sizes[1])
            p = exponents[i % 3]
            report = psd_rank_bound(normalized_family(spec, k, n, p), p)
            assert report.holds, f"rank bound failed on branch {branch}, seed {spec.seed}"
    # the natural diagonal family meets its bound with equality, exactly
    ts = np.stack([basis_matrix(5, 5, i, i) for i in range(5)])
    report = tight_embedding_audit(EmbeddingInstance(ts, 4.0))
    assert report.bound == 5.0 and report.n == 5 and report.d == 5
    # easy direction of the sign-average comparison, both branches
    for p in (1.5, 3.0, 4.0):
        for trial in range(25):
            rng = substream(base, 20_000 + 100 * int(p * 10) + trial).rng()
            k = int(rng.integers(2, 7))
            ts = (rng.standard_normal((k, 4, 4)) + 1j * rng.standard_normal((k, 4, 4))) / np.sqrt(2)
            assert khintchine_easy_slack(ts, p) >= -1e-9
    # orthogonality oracle at p = 2
    rng = substream(base, 30_000).rng()
    ts = (rng.standard_normal((6, 4, 4)) + 1j * rng.standard_normal((6, 4, 4))) / np.sqrt(2)
    ave = sign_average_sum(ts, 2.0)
    total = sum(schatten_norm(t, 2.0) ** 2 for t in ts)
    assert abs(ave - total) <= 1e-10
    _report(7, "1000 rank-bound instances hold; diagonal equality exact; slacks signed correctly")


def test_acceptance_8_iterated_paving():
    """Certified geometric decay on 16x16 instances; singleton depth is zero."""
    base = RandomSpec(808, "zero-diagonal-complex-gaussian")
    for trial in range(3):
        a = random_matrix(substream(base, trial), 16, 16)
        previous = math.inf
        for depth in (1, 2, 3, 4):
            result = pave(a, 4.0, depth=depth)
            cert = result.certificate
            assert cert.paved_norm <= cert.guaranteed_bound + 1e-9
            assert cert.paved_norm <= previous + 1e-12
            previous = cert.paved_norm
        assert all(len(part) == 1 for part in result.partition.parts)
        assert np.all(result.paved == 0)
        assert result.certificate.paved_norm == 0.0
    _report(8, "3 instances x depths 1..4 decayed within certificates; depth 4 paved to exact zero")
