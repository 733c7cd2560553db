import itertools
import json
import math

import numpy as np
import pytest

from schattenlab.embedding import (
    EmbeddingInstance,
    instance_from_json,
    instance_to_json,
    khintchine_easy_slack,
    psd_rank_bound,
    report_to_json,
    sign_average_sum,
    tight_embedding_audit,
)
from schattenlab.linalg import RandomSpec, schatten_norm

from conftest import basis_matrix, complex_gaussian


def diagonal_family(k, n=None):
    n = n or k
    return np.stack([basis_matrix(n, n, i, i) for i in range(k)])


def brute_force_sign_average(ts, p):
    values = []
    for eps in itertools.product((1.0, -1.0), repeat=len(ts)):
        m = sum(e * t for e, t in zip(eps, ts))
        sv = np.linalg.svd(m, compute_uv=False)
        values.append(float(np.sum(sv**p)))
    return math.fsum(values) / len(values)


def normalized_psd_family(rng, k, n, p):
    """PSD matrices scaled to unit trace power, valid for either claim."""
    mats = []
    for _ in range(k):
        g = complex_gaussian(rng, n, n)
        a = g.conj().T @ g
        a = (a + a.conj().T) / 2
        w = np.linalg.eigvalsh(a)
        a /= float(np.sum(np.clip(w, 0, None) ** (p / 2))) ** (2 / p)
        mats.append(a)
    return np.stack(mats)


class TestSignAverageSum:
    def test_disjoint_diagonal(self):
        for k in (1, 3, 5):
            assert sign_average_sum(diagonal_family(k), 4) == pytest.approx(k, rel=1e-12)

    def test_repeated_unit(self):
        ts = np.stack([basis_matrix(2, 2, 0, 0)] * 2)
        assert sign_average_sum(ts, 4) == pytest.approx(8.0, rel=1e-12)

    def test_singleton(self, rng):
        t = complex_gaussian(rng, 3, 3)
        assert sign_average_sum(t[None], 3) == pytest.approx(schatten_norm(t, 3) ** 3, rel=1e-10)

    def test_against_brute_force(self, rng):
        ts = np.stack([complex_gaussian(rng, 3, 3) for _ in range(4)])
        for p in (2.0, 3.0, 4.5):
            assert sign_average_sum(ts, p) == pytest.approx(brute_force_sign_average(ts, p), rel=1e-10)

    def test_monte_carlo_close(self, rng):
        ts = np.stack([complex_gaussian(rng, 3, 3) for _ in range(5)])
        exact = sign_average_sum(ts, 3)
        mc = sign_average_sum(ts, 3, mode="monte-carlo", trials=20_000, spec=RandomSpec(2))
        assert mc == pytest.approx(exact, rel=0.1)

    def test_exhaustive_cap(self):
        with pytest.raises(ValueError, match="cap"):
            sign_average_sum(np.zeros((21, 1, 1), dtype=complex), 3)


class TestKhintchineEasySlack:
    def test_equality_case(self):
        for p in (1.5, 3.0, 4.0):
            assert khintchine_easy_slack(diagonal_family(4), p) == pytest.approx(0.0, abs=1e-10)

    def test_repeated_unit(self):
        ts = np.stack([basis_matrix(2, 2, 0, 0)] * 2)
        # average 8 minus trace(2 E11)^2 = 4
        assert khintchine_easy_slack(ts, 4) == pytest.approx(4.0, rel=1e-12)

    def test_random_directions(self, rng):
        for p in (1.5, 3.0, 4.0):
            for _ in range(5):
                ts = np.stack([complex_gaussian(rng, 4, 4) for _ in range(3)])
                assert khintchine_easy_slack(ts, p) >= -1e-9

    def test_p_two_convention(self, rng):
        ts = np.stack([complex_gaussian(rng, 2, 2) for _ in range(2)])
        assert khintchine_easy_slack(ts, 2.0) == 0.0


def test_p2_orthogonality_oracle(rng):
    # the sign average of the squared Frobenius norm collapses exactly
    ts = np.stack([complex_gaussian(rng, 4, 4) for _ in range(6)])
    ave = sign_average_sum(ts, 2)
    total = sum(schatten_norm(t, 2) ** 2 for t in ts)
    assert ave == pytest.approx(total, abs=1e-10)


class TestPsdRankBound:
    def test_disjoint_diagonal_equality(self):
        report = psd_rank_bound(diagonal_family(5), 4)
        assert report.constant == pytest.approx(1.0, rel=1e-12)
        assert report.bound == pytest.approx(5.0, rel=1e-12)
        assert report.d == 5
        assert report.holds

    def test_repeated_rank_one(self):
        k, p = 6, 4.0
        report = psd_rank_bound(np.stack([basis_matrix(3, 3, 0, 0)] * k), p)
        # trace power of k*E11 at p/2=2 is k^2, so the constant is k
        assert report.constant == pytest.approx(k, rel=1e-12)
        assert report.bound == pytest.approx(1.0, rel=1e-12)
        assert report.d == 1
        assert report.holds

    @pytest.mark.parametrize("p", [1.5, 3.0])
    def test_holds_on_random_instances(self, rng, p):
        for _ in range(25):
            k = int(rng.integers(2, 8))
            n = int(rng.integers(2, 6))
            report = psd_rank_bound(normalized_psd_family(rng, k, n, p), p)
            assert report.holds
            assert report.d <= report.n

    def test_eigenvalue_hoelder_chain(self, rng):
        p = 4.0
        report = psd_rank_bound(normalized_psd_family(rng, 5, 4, p), p)
        lam = report.eigenvalues
        assert len(lam) == report.d
        lhs = float(np.sum(lam ** (p / 2)))
        rhs = report.d ** ((2 - p) / 2) * float(np.sum(lam)) ** (p / 2)
        assert lhs >= rhs - 1e-9

    def test_trace_superadditivity_link(self, rng):
        p = 3.0
        mats = normalized_psd_family(rng, 4, 3, p)
        total = mats.sum(axis=0)
        lhs = sum(float(np.trace(m).real) for m in mats)
        assert lhs == pytest.approx(float(np.trace(total).real), rel=1e-13)
        powers = [float(np.sum(np.clip(np.linalg.eigvalsh(m), 0, None) ** (p / 2))) for m in mats]
        assert sum(t ** (2 / p) for t in powers) <= lhs + 1e-9

    def test_precondition_small_trace(self, rng):
        mats = normalized_psd_family(rng, 3, 3, 4.0) * 0.5
        with pytest.raises(ValueError, match="tr A"):
            psd_rank_bound(mats, 4.0)

    def test_precondition_large_trace(self, rng):
        mats = normalized_psd_family(rng, 3, 3, 1.5) * 2.0
        with pytest.raises(ValueError, match="tr A"):
            psd_rank_bound(mats, 1.5)

    def test_rejects_p_two(self):
        with pytest.raises(ValueError, match="p = 2"):
            psd_rank_bound(diagonal_family(3), 2.0)

    def test_supplied_constant_must_dominate(self):
        with pytest.raises(ValueError, match="constant"):
            psd_rank_bound(diagonal_family(3), 4.0, constant=0.5)
        report = psd_rank_bound(diagonal_family(3), 4.0, constant=2.0)
        assert report.bound == pytest.approx(2.0 ** -1.0 * 3, rel=1e-12)


class TestTightEmbeddingAudit:
    def test_natural_diagonal_instance(self):
        report = tight_embedding_audit(EmbeddingInstance(diagonal_family(5), 4.0))
        assert report.constant == pytest.approx(1.0, rel=1e-12)
        assert report.bound == pytest.approx(5.0, rel=1e-12)
        assert report.n == 5
        assert report.holds

    def test_padded_diagonal_instance(self):
        report = tight_embedding_audit(EmbeddingInstance(diagonal_family(3, n=6), 3.0))
        assert report.bound == pytest.approx(3.0, rel=1e-12)
        assert report.n == 6
        assert report.holds

    def test_perturbed_instances_hold(self, rng):
        for _ in range(100):
            k = int(rng.integers(2, 11))
            ts = diagonal_family(k).astype(complex)
            ts += 0.1 * np.stack([complex_gaussian(rng, k, k) for _ in range(k)])
            for i in range(k):
                ts[i] /= schatten_norm(ts[i], 4.0)
            report = tight_embedding_audit(EmbeddingInstance(ts, 4.0))
            assert report.holds

    def test_below_two_branch(self, rng):
        p = 1.5
        for _ in range(5):
            ts = np.stack([complex_gaussian(rng, 4, 4) for _ in range(4)])
            for i in range(4):
                ts[i] /= schatten_norm(ts[i], p)  # caps both norms used as preconditions
            report = tight_embedding_audit(EmbeddingInstance(ts, p))
            assert report.holds

    def test_report_carries_sign_average_and_slack(self, rng):
        for p in (1.5, 4.0):
            ts = np.stack([complex_gaussian(rng, 3, 3) for _ in range(4)])
            for i in range(4):
                ts[i] /= schatten_norm(ts[i], p)
            report = tight_embedding_audit(EmbeddingInstance(ts, p))
            assert report.sign_average == sign_average_sum(ts, p)
            assert report.khintchine_slack == khintchine_easy_slack(ts, p)

    def test_norm_precondition_enforced(self, rng):
        ts = np.stack([0.5 * basis_matrix(3, 3, i, i) for i in range(3)])
        with pytest.raises(ValueError, match="Schatten"):
            tight_embedding_audit(EmbeddingInstance(ts, 4.0))
        big = np.stack([2.0 * basis_matrix(3, 3, i, i) for i in range(3)])
        with pytest.raises(ValueError, match="operator"):
            tight_embedding_audit(EmbeddingInstance(big, 1.5))

    def test_rejects_p_two(self):
        with pytest.raises(ValueError):
            tight_embedding_audit(EmbeddingInstance(diagonal_family(2), 2.0))


def test_instance_json_round_trip(rng):
    inst = EmbeddingInstance(np.stack([complex_gaussian(rng, 2, 2) for _ in range(3)]), 4.0, 1.5)
    back = instance_from_json(json.loads(json.dumps(instance_to_json(inst))))
    np.testing.assert_array_equal(back.ts, inst.ts)
    assert back.p == inst.p
    assert back.constant == inst.constant


def test_report_json_shape():
    report = psd_rank_bound(diagonal_family(3), 4.0)
    obj = report_to_json(report)
    assert obj["k"] == 3 and obj["holds"] is True
    assert len(obj["eigenvalues"]) == obj["d"]
