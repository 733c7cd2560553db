import itertools
import math

import numpy as np
import pytest

from schattenlab.linalg import RandomSpec
from schattenlab.norms import z_norm
from schattenlab.signs import (
    all_sign_patterns,
    norm_domination_slacks,
    rademacher_average,
    rademacher_z_tilde_ratio,
    sign_pattern_by_index,
)

from conftest import basis_matrix, complex_gaussian


def brute_force_mean_ppower(a, p):
    """Oracle: enumerate sign patterns with itertools, norms via full SVD."""
    rows, cols = a.shape
    values = []
    for signs in itertools.product((1.0, -1.0), repeat=rows * cols):
        m = np.asarray(signs).reshape(rows, cols) * a
        sv = np.linalg.svd(m, compute_uv=False)
        values.append(float(np.sum(sv**p)))
    return math.fsum(values) / len(values)


class TestSignPatternByIndex:
    def test_one_by_one(self):
        np.testing.assert_array_equal(sign_pattern_by_index(1, 1, 0), [[1.0]])
        np.testing.assert_array_equal(sign_pattern_by_index(1, 1, 1), [[-1.0]])

    def test_index_zero_is_all_plus(self):
        np.testing.assert_array_equal(sign_pattern_by_index(2, 2, 0), np.ones((2, 2)))

    def test_last_index_is_all_minus(self):
        np.testing.assert_array_equal(sign_pattern_by_index(2, 2, 15), -np.ones((2, 2)))

    def test_bit_layout(self):
        # bit b = r*cols + c flips exactly entry (r, c)
        rows, cols = 2, 3
        for b in range(rows * cols):
            pattern = sign_pattern_by_index(rows, cols, 1 << b)
            expected = np.ones((rows, cols))
            expected[b // cols, b % cols] = -1.0
            np.testing.assert_array_equal(pattern, expected)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            sign_pattern_by_index(2, 2, 16)
        with pytest.raises(ValueError):
            sign_pattern_by_index(2, 2, -1)

    def test_all_patterns_enumerates_distinct(self):
        stack = all_sign_patterns(2, 2)
        assert stack.shape == (16, 2, 2)
        assert len({tuple(p.ravel()) for p in stack}) == 16
        np.testing.assert_array_equal(stack[5], sign_pattern_by_index(2, 2, 5))


class TestRademacherAverage:
    def test_single_entry(self):
        report = rademacher_average(basis_matrix(2, 2, 0, 0), 4)
        assert report.root == pytest.approx(1.0, abs=1e-12)
        assert report.samples == 16
        assert report.std_error == 0.0

    def test_all_ones_two_by_two(self):
        # 8 singular signings with values (2,0), 8 unitary-like with (r2, r2)
        report = rademacher_average(np.ones((2, 2)), 4)
        assert report.mean_ppower == pytest.approx(12.0, rel=1e-12)
        assert report.root == pytest.approx(12.0 ** 0.25, rel=1e-12)

    def test_single_row(self):
        # row signing acts as a diagonal unitary, every signing has norm sqrt(2)
        report = rademacher_average(np.array([[1.0, 1.0], [0.0, 0.0]]), 3)
        assert report.root == pytest.approx(math.sqrt(2.0), rel=1e-12)

    @pytest.mark.parametrize("p", [1.0, 2.0, 3.0, 4.5])
    def test_against_brute_force(self, rng, p):
        a = complex_gaussian(rng, 2, 3)
        report = rademacher_average(a, p)
        tol = 1e-10 if p >= 2.0 else 1e-6  # gram-path resolution below p=2
        assert report.mean_ppower == pytest.approx(brute_force_mean_ppower(a, p), rel=tol)
        assert report.root == pytest.approx(report.mean_ppower ** (1 / p), rel=1e-12)

    def test_exhaustive_cap(self):
        with pytest.raises(ValueError, match="cap"):
            rademacher_average(np.ones((5, 5)), 3)

    def test_sign_invariance(self, rng):
        a = complex_gaussian(rng, 2, 2)
        r = sign_pattern_by_index(2, 2, 9)
        lhs = rademacher_average(a, 3).mean_ppower
        rhs = rademacher_average(r * a, 3).mean_ppower
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_monte_carlo_within_three_sigma(self, rng):
        for size in (2, 3):
            a = complex_gaussian(rng, size, size)
            exact = rademacher_average(a, 4).mean_ppower
            mc = rademacher_average(a, 4, mode="monte-carlo", trials=10_000, spec=RandomSpec(11))
            assert abs(mc.mean_ppower - exact) <= 3.0 * mc.std_error

    def test_monte_carlo_deterministic(self, rng):
        a = complex_gaussian(rng, 3, 3)
        r1 = rademacher_average(a, 3, mode="monte-carlo", trials=500, spec=RandomSpec(4))
        r2 = rademacher_average(a, 3, mode="monte-carlo", trials=500, spec=RandomSpec(4))
        assert r1.mean_ppower == r2.mean_ppower

    def test_monte_carlo_needs_spec(self, rng):
        with pytest.raises(ValueError, match="RandomSpec"):
            rademacher_average(complex_gaussian(rng, 2, 2), 3, mode="monte-carlo")


def test_diagonal_sign_averaging_identity(rng):
    # averaging D A A* D over all sign diagonals leaves exactly diag(A A*)
    a = complex_gaussian(rng, 3, 3)
    gram = a @ a.conj().T
    n = 3
    terms = []
    for eps in itertools.product((1.0, -1.0), repeat=n):
        d = np.diag(eps)
        terms.append(d @ gram @ d)
    averaged = np.empty_like(gram)
    for k in range(n):
        for l in range(n):
            averaged[k, l] = (
                math.fsum(t[k, l].real for t in terms) + 1j * math.fsum(t[k, l].imag for t in terms)
            ) / len(terms)
    np.testing.assert_array_equal(averaged, np.diag(np.diagonal(gram)))


class TestNormDomination:
    def test_nonnegative_slacks(self, rng):
        for p in (2.5, 3.0, 6.0):
            for _ in range(10):
                z_slack, zt_slack = norm_domination_slacks(complex_gaussian(rng, 4, 4), p)
                assert z_slack >= -1e-10
                assert zt_slack >= -1e-10

    def test_rejects_small_p(self):
        with pytest.raises(ValueError):
            norm_domination_slacks(np.eye(2), 2.0)


class TestRatioReport:
    def test_single_entry(self):
        rep = rademacher_z_tilde_ratio(basis_matrix(2, 2, 0, 0), 4)
        assert rep.root == pytest.approx(1.0, abs=1e-12)
        assert rep.z_tilde == pytest.approx(2.0 ** 0.25, abs=1e-12)
        assert rep.ratio == pytest.approx(2.0 ** -0.25, abs=1e-12)

    def test_all_ones(self):
        rep = rademacher_z_tilde_ratio(np.ones((2, 2)), 4)
        assert rep.z_tilde == pytest.approx(2.0, rel=1e-12)
        assert rep.ratio == pytest.approx(12.0 ** 0.25 / 2.0, rel=1e-12)

    def test_diagonal(self):
        rep = rademacher_z_tilde_ratio(np.eye(2), 4)
        assert rep.root == pytest.approx(2.0 ** 0.25, rel=1e-12)
        assert rep.ratio == pytest.approx(2.0 ** -0.25, rel=1e-12)

    def test_lower_branch_carries_solver(self, rng):
        rep = rademacher_z_tilde_ratio(complex_gaussian(rng, 2, 2), 1.5)
        assert rep.solver is not None
        assert rep.z_tilde == pytest.approx(rep.solver.objective)
        assert rep.ratio > 0

    def test_rejects_p_two(self, rng):
        with pytest.raises(ValueError):
            rademacher_z_tilde_ratio(complex_gaussian(rng, 2, 2), 2.0)

    @pytest.mark.parametrize("scale", [1e-12, 1e-6, 1.0, 1e6, 1e9, 1e12])
    @pytest.mark.parametrize("p", [2.5, 3.0, 4.0, 7.0])
    @pytest.mark.parametrize("shape", [(1, 1), (1, 3), (2, 2)], ids=["1x1", "1x3", "2x2"])
    def test_one_sided_check_is_scale_free(self, rng, shape, p, scale):
        # 1x1 inputs meet the one-sided bound with equality, so a check with
        # an absolute slack raised on them once the scale swamped the slack
        for _ in range(20):
            a = complex_gaussian(rng, *shape)
            unit = rademacher_z_tilde_ratio(a, p).ratio
            assert rademacher_z_tilde_ratio(scale * a, p).ratio == pytest.approx(unit, rel=1e-12)

    def test_easy_direction_on_exhaustive_instances(self, rng):
        for p in (3.0, 4.0):
            for _ in range(5):
                a = complex_gaussian(rng, 3, 3)
                rep = rademacher_z_tilde_ratio(a, p)
                floor = max(z_norm(a, p) ** p, z_norm(a.conj().T, p) ** p)
                assert rep.root**p >= floor - 1e-9
