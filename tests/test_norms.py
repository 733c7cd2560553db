import math
import warnings

import numpy as np
import pytest

from schattenlab import norms
from schattenlab.linalg import RandomSpec, random_matrix, schatten_norm, trace_pairing
from schattenlab.norms import _prox_factor, clarkson_slack, z_norm, z_tilde_lower, z_tilde_upper

from conftest import basis_matrix, complex_gaussian


def split_objective(b, c, q):
    """Direct formula: row q-powers of B plus column q-powers of C."""
    rows = np.sqrt(np.sum(np.abs(b) ** 2, axis=1))
    cols = np.sqrt(np.sum(np.abs(c) ** 2, axis=0))
    return float(np.sum(rows**q) + np.sum(cols**q)) ** (1.0 / q)


class TestZNorm:
    def test_single_row(self):
        assert z_norm(np.array([[3.0, 4.0], [0.0, 0.0]]), 3) == pytest.approx(5.0, abs=1e-12)

    def test_identity(self):
        for p in (1.0, 2.0, 3.7):
            assert z_norm(np.eye(2), p) == pytest.approx(2 ** (1 / p), abs=1e-12)

    def test_against_double_sum(self, rng):
        a = complex_gaussian(rng, 5, 5)
        expected = float(np.sum(np.sum(np.abs(a) ** 2, axis=1) ** 2.0)) ** (1 / 4)
        assert z_norm(a, 4) == pytest.approx(expected, rel=1e-12)

    def test_rejects_infinite_p(self):
        with pytest.raises(ValueError):
            z_norm(np.eye(2), math.inf)

    def test_block_power_additivity(self, rng):
        # exact arithmetic identity for direct sums
        a, b = complex_gaussian(rng, 2, 2), complex_gaussian(rng, 3, 3)
        direct = np.zeros((5, 5), dtype=complex)
        direct[:2, :2], direct[2:, 2:] = a, b
        p = 3.0
        assert z_norm(direct, p) ** p == pytest.approx(z_norm(a, p) ** p + z_norm(b, p) ** p, rel=1e-12)


class TestZTildeUpper:
    def test_single_entry(self):
        for p in (2.5, 4.0, 9.0):
            assert z_tilde_upper(basis_matrix(2, 2, 0, 0), p) == pytest.approx(2 ** (1 / p), abs=1e-12)

    def test_row_pair(self):
        # row norms of A are (sqrt 2, 0); of A* are (1, 1)
        a = np.array([[1.0, 1.0], [0.0, 0.0]])
        assert z_tilde_upper(a, 4) == pytest.approx(6 ** (1 / 4), abs=1e-12)

    def test_zero(self):
        assert z_tilde_upper(np.zeros((3, 3)), 3) == 0.0

    def test_adjoint_symmetry(self, rng):
        a = complex_gaussian(rng, 4, 4)
        assert z_tilde_upper(a, 3.5) == pytest.approx(z_tilde_upper(a.conj().T, 3.5), rel=1e-12)

    def test_rejects_small_p(self):
        with pytest.raises(ValueError):
            z_tilde_upper(np.eye(2), 2.0)

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("shape", [(1, 1), (1, 7), (6, 1), (5, 8), (64, 48)])
    def test_one_validation_same_bits(self, rng, monkeypatch, shape, order):
        # A* row norms are read from A.T without a conjugated copy; the
        # values equal the two z_norm calls on A and A* bit for bit
        a = np.asarray(complex_gaussian(rng, *shape), order=order)
        ps = (2.5, 3.0, 4.0, 7.5)
        expected = [float((z_norm(a, p) ** p + z_norm(a.conj().T, p) ** p) ** (1.0 / p)) for p in ps]
        calls = []
        as_matrix = norms.as_matrix
        monkeypatch.setattr(norms, "as_matrix", lambda x: calls.append(1) or as_matrix(x))
        assert [z_tilde_upper(a, p) for p in ps] == expected
        assert len(calls) == len(ps)


class TestZTildeLower:
    def test_single_entry_closed_form(self):
        # oracle: minimize t^q + (1-t)^q over the split t*E + (1-t)*E, optimum t=1/2
        for q in (1.0, 1.2, 1.5, 1.8):
            exact = 2 ** (1 / q - 1)
            dec = z_tilde_lower(basis_matrix(2, 2, 0, 0), q)
            assert dec.objective == pytest.approx(exact, abs=1e-6)
            assert dec.converged
            assert dec.lower_bound <= exact * (1 + 1e-14) and exact <= dec.objective * (1 + 1e-14)

    def test_zero_matrix(self):
        dec = z_tilde_lower(np.zeros((2, 3)), 1.2)
        assert dec.objective == 0.0
        assert np.all(dec.b == 0) and np.all(dec.c == 0)

    def test_split_adds_back(self, rng):
        a = complex_gaussian(rng, 3, 3)
        dec = z_tilde_lower(a, 1.5)
        np.testing.assert_allclose(dec.b + dec.c, a, atol=1e-12)

    def test_objective_is_attained_value(self, rng):
        a = complex_gaussian(rng, 3, 4)
        dec = z_tilde_lower(a, 1.3)
        assert dec.objective == pytest.approx(split_objective(dec.b, dec.c, 1.3), rel=1e-12)

    def test_beats_random_split_oracle(self, rng):
        q = 1.5
        for _ in range(3):
            a = complex_gaussian(rng, 3, 3)
            dec = z_tilde_lower(a, q)
            best = min(
                split_objective(t * a, (1 - t) * a, q)
                for t in (rng.random((10_000, 3, 3)))
            )
            assert dec.objective <= best + 1e-6

    def test_homogeneity(self, rng):
        a = complex_gaussian(rng, 3, 3)
        base = z_tilde_lower(a, 1.4).objective
        for lam in (0.125, 3.0, 17.5):
            assert z_tilde_lower(lam * a, 1.4).objective == pytest.approx(lam * base, rel=1e-8)

    def test_triangle_inequality(self, rng):
        q = 1.5
        for _ in range(3):
            a, b = complex_gaussian(rng, 3, 3), complex_gaussian(rng, 3, 3)
            lhs = z_tilde_lower(a + b, q).objective
            rhs = z_tilde_lower(a, q).objective + z_tilde_lower(b, q).objective
            assert lhs <= rhs + 1e-6

    def test_max_iters_reported(self, rng):
        dec = z_tilde_lower(complex_gaussian(rng, 4, 4), 1.1, max_iters=3)
        assert not dec.converged
        assert dec.iterations == 3

    @pytest.mark.parametrize("q", [1.0, 1.2, 1.5, 1.8])
    def test_converged_means_gap_within_tol(self, rng, q):
        for shape, tol, max_iters in (((3, 3), 1e-9, 100_000), ((4, 6), 1e-6, 100_000), ((12, 12), 1e-9, 5)):
            a = complex_gaussian(rng, *shape)
            dec = z_tilde_lower(a, q, tol=tol, max_iters=max_iters)
            assert dec.lower_bound <= dec.objective
            assert dec.gap == (dec.objective - dec.lower_bound) / dec.objective
            assert dec.converged == (dec.gap <= tol)
            assert dec.converged or dec.iterations == max_iters

    @pytest.mark.parametrize("q", [1.0, 1.01, 1.3, 1.5, 1.9])
    def test_lower_bound_is_the_dual_pairing(self, rng, q):
        # Hoelder: |<A, W>| <= z~_q(A) z~_p(W), p = q/(q-1); p = inf is the largest row or column norm
        a = complex_gaussian(rng, 5, 7)
        dec = z_tilde_lower(a, q)
        if q == 1.0:
            w = dec.w
            dual = max(np.max(np.linalg.norm(w, axis=1)), np.max(np.linalg.norm(w, axis=0)))
            assert dec.lower_bound == pytest.approx(abs(trace_pairing(a, w)) / dual, rel=1e-14)
        else:
            assert dec.lower_bound == abs(trace_pairing(a, dec.w)) / z_tilde_upper(dec.w, q / (q - 1.0))

    @pytest.mark.parametrize(
        "seed, shape, q", [(11, (4, 5), 1.0), (11, (30, 20), 1.0), (3, (64, 32), 1.01)]
    )
    def test_q_near_one_converges(self, seed, shape, q):
        a = random_matrix(RandomSpec(seed), *shape)
        dec = z_tilde_lower(a, q, tol=1e-9)
        assert dec.converged
        assert dec.gap <= 1e-9
        assert dec.lower_bound <= dec.objective

    @pytest.mark.parametrize("q", [1.0, 1.2, 1.5])
    def test_zero_rows_and_columns(self, rng, q):
        a = np.zeros((6, 5), dtype=complex)
        a[[0, 2, 3], 1:4] = complex_gaussian(rng, 3, 3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            dec = z_tilde_lower(a, q)
        assert dec.converged and dec.gap <= 1e-9
        assert np.all(dec.b[[1, 4, 5]] == 0) and np.all(dec.c[:, [0, 4]] == 0)

    @pytest.mark.parametrize("q", [1.0001, 1.01, 1.2, 1.5, 1.9, 1.9999])
    @pytest.mark.parametrize("t", [0.5, 2.0])
    def test_prox_factor_solves_its_equation(self, q, t):
        s = np.concatenate([[0.0], np.logspace(-200, 3, 400)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            r = _prox_factor(s, t, q) * s
        assert r[0] == 0.0 and np.all((r >= 0) & (r <= s)) and np.all(np.diff(r) >= 0)
        ok = r > 1e-280  # below that r^(q-1) loses the digits the residual needs
        resid = r[ok] + t * q * r[ok] ** (q - 1.0) - s[ok]
        assert np.all(np.abs(resid) <= 1e-13 * s[ok])
        np.testing.assert_allclose(_prox_factor(s, t, 1.0) * s, np.maximum(s - t, 0.0), rtol=1e-15)

    def test_layout_does_not_matter(self, rng):
        a = complex_gaussian(rng, 6, 4)
        dec = z_tilde_lower(np.asfortranarray(a), 1.5)
        assert dec.objective == z_tilde_lower(a, 1.5).objective

    def test_rejects_q_out_of_range(self):
        with pytest.raises(ValueError):
            z_tilde_lower(np.eye(2), 0.9)
        with pytest.raises(ValueError):
            z_tilde_lower(np.eye(2), 2.0)


class TestDominationAndDuality:
    def test_schatten_dominates_z(self, rng):
        # one-sided comparisons for p > 2
        for p in (2.5, 4.0, 6.0):
            for _ in range(20):
                a = complex_gaussian(rng, 4, 5)
                sn = schatten_norm(a, p)
                assert sn - z_norm(a, p) >= -1e-10
                assert 2 ** (1 / p) * sn - z_tilde_upper(a, p) >= -1e-10

    def test_pairing_bound(self, rng):
        p = 4.0
        q = p / (p - 1.0)
        for _ in range(10):
            a, b = complex_gaussian(rng, 3, 3), complex_gaussian(rng, 3, 3)
            lhs = abs(trace_pairing(a, b))
            rhs = z_tilde_upper(a, p) * z_tilde_lower(b, q).objective
            assert lhs <= rhs * (1 + 1e-6)


class TestClarksonSlack:
    def test_equal_arguments(self):
        e = basis_matrix(2, 2, 0, 0)
        assert clarkson_slack(e, e, 4) == pytest.approx(0.0, abs=1e-12)

    def test_zero_second_argument(self):
        e = basis_matrix(2, 2, 0, 0)
        assert clarkson_slack(e, np.zeros((2, 2)), 3) == pytest.approx(0.0, abs=1e-12)

    def test_nonnegative_on_random_pairs(self, rng):
        for _ in range(25):
            x, y = complex_gaussian(rng, 4, 4), complex_gaussian(rng, 4, 4)
            assert clarkson_slack(x, y, 4) >= -1e-9

    def test_rejects_small_p(self):
        with pytest.raises(ValueError):
            clarkson_slack(np.eye(2), np.eye(2), 1.5)
