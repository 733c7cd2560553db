import math

import numpy as np
import pytest

from schattenlab.linalg import schatten_norm, trace_pairing
from schattenlab.norms import clarkson_slack, z_norm, z_tilde_lower, z_tilde_upper

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


class TestZTildeLower:
    def test_single_entry_closed_form(self):
        # oracle: minimize t^q + (1-t)^q over the split t*E + (1-t)*E, optimum t=1/2
        for q in (1.0, 1.2, 1.5, 1.8):
            dec = z_tilde_lower(basis_matrix(2, 2, 0, 0), q)
            assert dec.objective == pytest.approx(2 ** (1 / q - 1), abs=1e-6)
            assert dec.converged

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

    def test_converged_implies_small_gradient(self, rng):
        dec = z_tilde_lower(complex_gaussian(rng, 3, 3), 1.5, grad_tol=1e-6)
        if dec.converged:
            assert dec.gradient_norm <= 1e-6

    def test_max_iters_reported(self, rng):
        dec = z_tilde_lower(complex_gaussian(rng, 4, 4), 1.1, max_iters=3)
        assert not dec.converged
        assert dec.iterations == 3

    @pytest.mark.parametrize("q", [1.0, 1.2, 1.5, 1.8])
    def test_one_gradient_per_iteration(self, rng, monkeypatch, q):
        # one per iteration, plus one at each stage's start and exit
        from schattenlab import norms

        calls = []
        smoothed = norms._smoothed
        monkeypatch.setattr(norms, "_smoothed", lambda *args: calls.append(1) or smoothed(*args))
        for shape in ((3, 3), (4, 6), (12, 12)):
            calls.clear()
            dec = z_tilde_lower(complex_gaussian(rng, *shape), q)
            assert 0 < len(calls) <= dec.iterations + 2 * 4

    def test_value_probes_match_full_evaluations(self, rng, monkeypatch):
        # probing with the value alone leaves every iterate unchanged
        from schattenlab import norms

        cases = [(complex_gaussian(rng, 5, 7), q) for q in (1.0, 1.3, 1.7)]
        fast = [z_tilde_lower(a, q) for a, q in cases]
        monkeypatch.setattr(norms, "_smoothed_value", lambda *args: norms._smoothed(*args)[0])
        for dec, (a, q) in zip(fast, cases):
            ref = z_tilde_lower(a, q)
            assert dec.objective == ref.objective and dec.iterations == ref.iterations
            assert dec.gradient_norm == ref.gradient_norm
            np.testing.assert_array_equal(dec.b, ref.b)

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
