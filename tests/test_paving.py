import itertools
import json
import math
from fractions import Fraction

import numpy as np
import pytest

from schattenlab import _kernels_py, paving
from schattenlab.linalg import RandomSpec, random_matrix, schatten_norm
from schattenlab.norms import clarkson_slack
from schattenlab.paving import (
    balanced_overlap_ratios,
    balanced_subset_average,
    cross_part,
    find_balanced_split,
    partition_from_json,
    pave,
    pave_levels,
    paving_norm,
    paving_split,
)

from conftest import complex_gaussian


def swap_matrix():
    return np.array([[0.0, 1.0], [1.0, 0.0]])


def ones_off_diagonal(n=4):
    return np.ones((n, n)) - np.eye(n)


def zero_diag(rng, n):
    a = complex_gaussian(rng, n, n)
    np.fill_diagonal(a, 0.0)
    return a


class TestCrossPart:
    def test_two_by_two_everything_crosses(self):
        np.testing.assert_array_equal(cross_part(swap_matrix(), [0]), swap_matrix())

    def test_diagonal_input_gives_zero(self):
        np.testing.assert_array_equal(cross_part(np.diag([1.0, 2.0, 3.0, 4.0]), [0, 2]), np.zeros((4, 4)))

    def test_ones_off_diagonal_spectrum(self):
        sv = np.linalg.svd(cross_part(ones_off_diagonal(), [0, 1]), compute_uv=False)
        np.testing.assert_allclose(sv, [2.0, 2.0, 0.0, 0.0], atol=1e-12)

    def test_complement_invariance(self, rng):
        a = zero_diag(rng, 6)
        np.testing.assert_array_equal(cross_part(a, [0, 2, 4]), cross_part(a, [1, 3, 5]))

    def test_bad_cardinality(self, rng):
        with pytest.raises(ValueError, match="distinct indices"):
            cross_part(zero_diag(rng, 4), [0])

    def test_odd_dimension(self, rng):
        a = complex_gaussian(rng, 3, 3)
        with pytest.raises(ValueError, match="even"):
            cross_part(a, [0])


class TestPavingSplit:
    def test_two_by_two(self):
        u, v = paving_split(swap_matrix(), [0])
        np.testing.assert_array_equal(u, np.zeros((2, 2)))
        np.testing.assert_array_equal(v, swap_matrix())

    def test_ones_off_diagonal(self):
        u, v = paving_split(ones_off_diagonal(), [0, 1])
        expected_u = np.zeros((4, 4))
        expected_u[:2, :2] = swap_matrix()
        expected_u[2:, 2:] = swap_matrix()
        np.testing.assert_array_equal(u, expected_u)
        assert schatten_norm(u, 4) == pytest.approx(4 ** 0.25, rel=1e-12)

    def test_parts_add_back_exactly(self, rng):
        a = zero_diag(rng, 6)
        u, v = paving_split(a, [1, 2, 5])
        assert np.max(np.abs(u + v - a)) == 0.0

    def test_sign_conjugation_identity(self, rng):
        a = zero_diag(rng, 6)
        u, v = paving_split(a, [0, 3, 4])
        for p in (2.0, 3.0, 5.0):
            assert schatten_norm(u - v, p) == pytest.approx(schatten_norm(a, p), abs=1e-10)
            assert schatten_norm(u + v, p) == pytest.approx(schatten_norm(a, p), abs=1e-10)


def test_balanced_overlap_ratios_exact():
    for m in range(2, 13):
        first, second = balanced_overlap_ratios(m)
        assert first == Fraction(m, 4 * m - 2)
        assert second == Fraction(m, 8 * m - 4)


class TestBalancedSubsetAverage:
    def test_two_by_two(self):
        rep = balanced_subset_average(swap_matrix(), 4)
        assert rep.average == pytest.approx(2.0, rel=1e-12)
        assert rep.lower_bound_2p == pytest.approx(2.0 / 16.0, rel=1e-12)
        assert rep.lower_bound_sharp == pytest.approx(0.5, rel=1e-12)

    def test_ones_off_diagonal(self):
        rep = balanced_subset_average(ones_off_diagonal(), 4)
        assert rep.average == pytest.approx(32.0, rel=1e-12)
        assert rep.total_ppower == pytest.approx(84.0, rel=1e-12)
        assert rep.lower_bound_2p == pytest.approx(5.25, rel=1e-12)
        assert rep.subsets == 6

    def test_against_brute_force(self, rng):
        a = zero_diag(rng, 6)
        p = 3.0
        values = []
        for sigma in itertools.combinations(range(6), 3):
            sv = np.linalg.svd(cross_part(a, list(sigma)), compute_uv=False)
            values.append(float(np.sum(sv**p)))
        rep = balanced_subset_average(a, p)
        assert rep.average == pytest.approx(math.fsum(values) / len(values), rel=1e-10)

    def test_bounds_hold_on_random(self, rng):
        for n in (2, 4, 6, 8):
            for p in (2.0, 4.0, 6.0):
                rep = balanced_subset_average(zero_diag(rng, n), p)
                assert rep.average >= rep.lower_bound_2p - 1e-9
                assert rep.average >= rep.lower_bound_sharp - 1e-9

    def test_rejects_nonzero_diagonal(self, rng):
        with pytest.raises(ValueError, match="zero diagonal"):
            balanced_subset_average(complex_gaussian(rng, 4, 4), 4)

    def test_rejects_large_m(self, rng):
        with pytest.raises(ValueError, match="cap"):
            balanced_subset_average(zero_diag(rng, 14), 4)


class TestFindBalancedSplit:
    def test_two_by_two(self):
        res = find_balanced_split(swap_matrix(), 3)
        np.testing.assert_array_equal(res.sigma, [0])
        assert res.v_power == pytest.approx(2.0, rel=1e-12)

    def test_ones_off_diagonal(self):
        res = find_balanced_split(ones_off_diagonal(), 4)
        assert res.v_power == pytest.approx(32.0, rel=1e-12)
        assert res.v_power >= 5.25

    def test_max_dominates_mean(self, rng):
        a = zero_diag(rng, 8)
        res = find_balanced_split(a, 4)
        rep = balanced_subset_average(a, 4)
        assert res.v_power >= rep.average - 1e-12

    def test_random_strategy_meets_bar(self, rng):
        a = zero_diag(rng, 8)
        bar = 2.0**-4 * schatten_norm(a, 4) ** 4 - 1e-9
        res = find_balanced_split(a, 4, strategy="random", spec=RandomSpec(3))
        assert res.v_power >= bar
        assert res.strategy.startswith("random")

    def test_random_strategy_deterministic(self, rng):
        a = zero_diag(rng, 8)
        r1 = find_balanced_split(a, 4, strategy="random", spec=RandomSpec(3))
        r2 = find_balanced_split(a, 4, strategy="random", spec=RandomSpec(3))
        np.testing.assert_array_equal(r1.sigma, r2.sigma)
        assert r1.samples == r2.samples

    def test_greedy_strategy_meets_bar(self, rng):
        a = zero_diag(rng, 10)
        bar = 2.0**-3 * schatten_norm(a, 3) ** 3 - 1e-9
        res = find_balanced_split(a, 3, strategy="greedy", spec=RandomSpec(5))
        assert res.v_power >= bar

    def test_exhaustive_cap(self, rng):
        with pytest.raises(ValueError, match="cap"):
            find_balanced_split(zero_diag(rng, 18), 4)

    def test_rejects_small_p(self, rng):
        with pytest.raises(ValueError):
            find_balanced_split(zero_diag(rng, 4), 1.5)


class TestContraction:
    def test_desk_scale_contraction(self, rng):
        # best-split diagonal part contracts by (1 - 2^-p)^(1/p) at every size
        for n in (2, 4, 6, 8):
            a = zero_diag(rng, n)
            for p in (2.0, 3.0, 4.0, 6.0, 10.0):
                res = find_balanced_split(a, p)
                u, _ = paving_split(a, res.sigma)
                bound = (1.0 - 2.0**-p) ** (1.0 / p) * schatten_norm(a, p)
                assert schatten_norm(u, p) <= bound + 1e-9

    def test_split_power_additivity(self, rng):
        # uniform convexity applied to x = u+v, y = u-v
        a = zero_diag(rng, 6)
        p = 4.0
        res = find_balanced_split(a, p)
        u, v = paving_split(a, res.sigma)
        lhs = (schatten_norm(u, p) ** p + schatten_norm(v, p) ** p) ** (1.0 / p)
        assert lhs <= schatten_norm(a, p) + 1e-9
        assert clarkson_slack(u + v, u - v, p) >= -1e-9


class TestPave:
    def test_singleton_depth_is_exactly_zero(self, rng):
        a = zero_diag(rng, 4)
        result = pave(a, 4, depth=2)
        assert all(len(part) == 1 for part in result.partition.parts)
        assert np.all(result.paved == 0)
        assert result.certificate.paved_norm == 0.0

    def test_ones_off_diagonal_depth_one(self):
        result = pave(ones_off_diagonal(), 4, depth=1)
        cert = result.certificate
        assert cert.paved_norm == pytest.approx(4 ** 0.25, rel=1e-10)
        assert cert.guaranteed_bound == pytest.approx((15 / 16) ** 0.25 * 84 ** 0.25, rel=1e-12)
        assert cert.paved_norm <= cert.guaranteed_bound

    def test_epsilon_depth_formula(self):
        # raw formula value before the singleton cap
        p = 4.0
        formula = math.ceil(math.log(0.5) / math.log((1 - 2.0**-p) ** (1 / p)))
        assert formula == 43
        result = pave(ones_off_diagonal(), p, epsilon=0.5)
        assert result.partition.depth == 2  # capped: 4 indices reach singletons
        assert np.all(result.paved == 0)

    def test_monotone_decay(self, rng):
        a = zero_diag(rng, 8)
        norms = []
        for depth in (1, 2, 3):
            cert = pave(a, 4, depth=depth).certificate
            assert cert.paved_norm <= cert.guaranteed_bound + 1e-9
            assert cert.guaranteed_bound <= cert.original_norm + 1e-12
            norms.append(cert.paved_norm)
        assert norms[0] >= norms[1] >= norms[2]

    def test_odd_sizes_pad_neutrally(self, rng):
        a = zero_diag(rng, 6)
        result = pave(a, 3, depth=2)
        sizes = sorted(len(part) for part in result.partition.parts)
        assert sum(sizes) == 6
        flat = np.sort(np.concatenate(result.partition.parts))
        np.testing.assert_array_equal(flat, np.arange(6))

    def test_zero_padding_preserves_norms(self, rng):
        a = complex_gaussian(rng, 5, 5)
        padded = np.zeros((6, 6), dtype=complex)
        padded[:5, :5] = a
        for p in (1.0, 2.0, 3.0, math.inf):
            assert schatten_norm(padded, p) == schatten_norm(a, p)

    def test_depth_zero(self, rng):
        a = zero_diag(rng, 4)
        result = pave(a, 4, depth=0)
        assert result.certificate.paved_norm == pytest.approx(schatten_norm(a, 4), rel=1e-12)
        assert len(result.partition.parts) == 1

    def test_p_equals_two_bound_holds(self, rng):
        # the contraction factor (3/4)^(1/2) still applies at the endpoint
        a = zero_diag(rng, 8)
        cert = pave(a, 2.0, depth=1).certificate
        assert cert.guaranteed_bound == pytest.approx(math.sqrt(0.75) * cert.original_norm, rel=1e-12)
        assert cert.paved_norm <= cert.guaranteed_bound + 1e-9

    def test_smallest_cases(self):
        one = np.zeros((1, 1), dtype=complex)
        result = pave(one, 4, depth=1)
        assert result.certificate.paved_norm == 0.0
        two = np.array([[0.0, 2.0], [1.0, 0.0]], dtype=complex)
        result = pave(two, 3, depth=1)
        assert result.certificate.paved_norm == 0.0
        assert sorted(len(p) for p in result.partition.parts) == [1, 1]

    def test_random_strategy_paves_with_certificate(self, rng):
        a = zero_diag(rng, 10)
        r1 = pave(a, 4, depth=2, strategy="random", spec=RandomSpec(9))
        r2 = pave(a, 4, depth=2, strategy="random", spec=RandomSpec(9))
        assert r1.certificate.paved_norm == r2.certificate.paved_norm
        assert r1.certificate.paved_norm <= r1.certificate.guaranteed_bound + 1e-9

    def test_greedy_strategy_paves_with_certificate(self, rng):
        a = zero_diag(rng, 8)
        result = pave(a, 3, depth=2, strategy="greedy", spec=RandomSpec(2))
        assert result.certificate.paved_norm <= result.certificate.guaranteed_bound + 1e-9

    def test_certificate_json(self, rng):
        result = pave(zero_diag(rng, 4), 4, depth=1)
        obj = json.loads(json.dumps(result.certificate.to_json()))
        assert obj["p"] == 4
        assert len(obj["level_splits"]) == 1
        assert set(obj["level_splits"][0][0]) == {"part", "sigma"}

    def test_rejects_nonzero_diagonal(self, rng):
        with pytest.raises(ValueError, match="zero diagonal"):
            pave(complex_gaussian(rng, 4, 4), 4, depth=1)

    def test_rejects_bad_targets(self, rng):
        a = zero_diag(rng, 4)
        with pytest.raises(ValueError, match="exactly one"):
            pave(a, 4)
        with pytest.raises(ValueError, match="exactly one"):
            pave(a, 4, depth=1, epsilon=0.1)
        with pytest.raises(ValueError, match="epsilon"):
            pave(a, 4, epsilon=1.5)
        with pytest.raises(ValueError):
            pave(a, 1.5, depth=1)


def assert_same_result(got, want):
    assert got.partition.depth == want.partition.depth
    assert len(got.partition.parts) == len(want.partition.parts)
    for g, w in zip(got.partition.parts, want.partition.parts):
        np.testing.assert_array_equal(g, w)
    np.testing.assert_array_equal(got.paved, want.paved)
    gc, wc = got.certificate, want.certificate
    assert (gc.p, gc.original_norm, gc.paved_norm, gc.guaranteed_bound) == (
        wc.p, wc.original_norm, wc.paved_norm, wc.guaranteed_bound
    )
    assert len(gc.level_splits) == len(wc.level_splits)
    for g_level, w_level in zip(gc.level_splits, wc.level_splits):
        assert len(g_level) == len(w_level)
        for (g_part, g_half), (w_part, w_half) in zip(g_level, w_level):
            np.testing.assert_array_equal(g_part, w_part)
            np.testing.assert_array_equal(g_half, w_half)


class TestPaveLevels:
    @pytest.mark.parametrize(
        "strategy, spec", [("exhaustive", None), ("random", RandomSpec(4)), ("greedy", RandomSpec(6))]
    )
    def test_each_level_equals_pave_at_that_depth(self, rng, strategy, spec):
        a = zero_diag(rng, 11)
        levels = list(pave_levels(a, 3.0, 4, strategy=strategy, spec=spec))
        assert [r.partition.depth for r in levels] == [0, 1, 2, 3, 4]
        for depth, result in enumerate(levels):
            assert_same_result(result, pave(a, 3.0, depth=depth, strategy=strategy, spec=spec))

    def test_validates_before_iteration(self, rng):
        with pytest.raises(ValueError, match="zero diagonal"):
            pave_levels(complex_gaussian(rng, 4, 4), 4, 2)
        with pytest.raises(ValueError, match="nonnegative"):
            pave_levels(zero_diag(rng, 4), 4, -1)


class TestScaleFreeChecks:
    """Certified comparisons keep their verdicts under A -> cA."""

    SCALES = [1e-6, 1e-3, 1.0, 1e3, 1e6]

    @pytest.fixture
    def base(self):
        return zero_diag(np.random.default_rng(8), 8)

    @pytest.mark.parametrize("scale", SCALES)
    def test_verdicts_do_not_depend_on_scale(self, base, scale):
        p = 4.0
        ref_split = find_balanced_split(base, p)
        split = find_balanced_split(scale * base, p)
        np.testing.assert_array_equal(split.sigma, ref_split.sigma)
        assert split.v_power == pytest.approx(scale**p * ref_split.v_power, rel=1e-12)
        ref_avg = balanced_subset_average(base, p)
        assert balanced_subset_average(scale * base, p).average == pytest.approx(
            scale**p * ref_avg.average, rel=1e-12
        )
        ref_pave = pave(base, p, depth=2)
        result = pave(scale * base, p, depth=2)
        for got, want in zip(result.partition.parts, ref_pave.partition.parts):
            np.testing.assert_array_equal(got, want)
        assert result.certificate.paved_norm == pytest.approx(scale * ref_pave.certificate.paved_norm, rel=1e-12)

    @pytest.mark.parametrize("scale", SCALES)
    def test_planted_scan_undershoot_is_caught(self, base, scale, monkeypatch):
        scan = _kernels_py.balanced_subset_scan

        def undershoot(a, p):
            sigma, best, mean, count = scan(a, p)
            return sigma, 1e-3 * best, 1e-3 * mean, count

        monkeypatch.setattr(_kernels_py, "balanced_subset_scan", undershoot)
        with pytest.raises(ArithmeticError):
            find_balanced_split(scale * base, 4.0)
        with pytest.raises(ArithmeticError):
            balanced_subset_average(scale * base, 4.0)

    @pytest.mark.parametrize("scale", SCALES)
    def test_planted_certificate_overshoot_is_caught(self, base, scale, monkeypatch):
        # report a paved norm 1e-6 (relative) above the depth-1 bound
        def overshoot(a, parts, p):
            return (1.0 - 2.0**-p) ** (1.0 / p) * schatten_norm(a, p) * (1.0 + 1e-6)

        monkeypatch.setattr(paving, "paving_norm", overshoot)
        with pytest.raises(ArithmeticError, match="certified bound"):
            pave(scale * base, 4.0, depth=1)


class TestPavingNorm:
    def test_singletons_on_zero_diagonal(self, rng):
        a = zero_diag(rng, 4)
        assert paving_norm(a, [[0], [1], [2], [3]], 4) == 0.0

    def test_single_part(self, rng):
        a = zero_diag(rng, 4)
        assert paving_norm(a, [np.arange(4)], 3) == pytest.approx(schatten_norm(a, 3), rel=1e-12)

    def test_against_dense_assembly(self, rng):
        a = complex_gaussian(rng, 7, 7)
        parts = [np.array([0, 3]), np.array([1, 2, 6]), np.array([4, 5])]
        compressed = np.zeros_like(a)
        for part in parts:
            compressed[np.ix_(part, part)] = a[np.ix_(part, part)]
        assert paving_norm(a, parts, 3.5) == pytest.approx(schatten_norm(compressed, 3.5), rel=1e-10)

    def test_rejects_non_partition(self, rng):
        a = complex_gaussian(rng, 4, 4)
        with pytest.raises(ValueError, match="cover"):
            paving_norm(a, [[0, 1]], 3)
        with pytest.raises(ValueError, match="cover"):
            paving_norm(a, [[0, 1], [1, 2, 3]], 3)


def test_partition_json_is_one_based(rng):
    result = pave(zero_diag(rng, 4), 4, depth=1)
    obj = result.partition.to_json()
    assert min(min(part) for part in obj["parts"]) == 1
    parts = partition_from_json(obj)
    flat = np.sort(np.concatenate(parts))
    np.testing.assert_array_equal(flat, np.arange(4))
