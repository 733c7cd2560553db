import json
import math

import numpy as np
import pytest

from schattenlab.linalg import RandomSpec, random_matrix, schatten_norm, trace_pairing
from schattenlab.norms import z_norm, z_tilde_upper
from schattenlab.projection import (
    BlockDiag,
    assemble,
    block_sign_average,
    blockdiag_from_json,
    blockdiag_schatten_norm,
    blockdiag_to_json,
    estimate_projection_norm,
    extract_central_blocks,
    project_onto_lift,
    row_norm_projection_slack,
    sign_block_lift,
)
from schattenlab.signs import all_sign_patterns

from conftest import complex_gaussian


class TestLift:
    def test_one_by_one(self):
        lifted = sign_block_lift(np.array([[2.5]]))
        np.testing.assert_array_equal(lifted.blocks, [[[2.5]], [[-2.5]]])

    def test_all_ones_gives_all_patterns(self):
        lifted = sign_block_lift(np.ones((2, 2)))
        np.testing.assert_array_equal(lifted.blocks, all_sign_patterns(2, 2))

    def test_block_zero_is_input(self, rng):
        a = complex_gaussian(rng, 2, 2)
        np.testing.assert_array_equal(sign_block_lift(a).blocks[0], a)

    def test_size_cap(self):
        with pytest.raises(ValueError):
            sign_block_lift(np.eye(5))

    def test_rejects_rectangular(self):
        with pytest.raises(ValueError):
            sign_block_lift(np.ones((2, 3)))


class TestExtractAndAssemble:
    def test_round_trip(self, rng):
        blocks = np.stack([complex_gaussian(rng, 2, 2) for _ in range(3)])
        d = BlockDiag(blocks)
        back = extract_central_blocks(assemble(d), 2)
        np.testing.assert_array_equal(back.blocks, blocks)

    def test_identity(self):
        d = extract_central_blocks(np.eye(4), 2)
        np.testing.assert_array_equal(d.blocks, np.stack([np.eye(2)] * 2))

    def test_indexing_formula(self, rng):
        b = complex_gaussian(rng, 6, 6)
        d = extract_central_blocks(b, 3)
        for i in range(2):
            for k in range(3):
                for l in range(3):
                    assert d.blocks[i, k, l] == b[k + 3 * i, l + 3 * i]

    def test_indivisible_dimension(self, rng):
        with pytest.raises(ValueError, match="divisible"):
            extract_central_blocks(complex_gaussian(rng, 6, 6), 4)


class TestBlockdiagNorm:
    def test_lifted_scalar(self):
        for p in (1.0, 2.0, 3.5):
            assert blockdiag_schatten_norm(sign_block_lift(np.array([[1.5]])), p) == pytest.approx(
                2 ** (1 / p) * 1.5, rel=1e-12
            )

    def test_two_unit_blocks(self):
        d = BlockDiag(np.stack([np.eye(1), np.eye(1)]))
        assert blockdiag_schatten_norm(d, 2) == pytest.approx(math.sqrt(2.0), rel=1e-14)

    def test_against_dense_assembly(self, rng):
        d = sign_block_lift(complex_gaussian(rng, 2, 2))
        for p in (1.0, 2.5, 4.0, math.inf):
            dense = schatten_norm(assemble(d), p)
            assert blockdiag_schatten_norm(d, p) == pytest.approx(dense, rel=1e-10)


class TestSignAverage:
    def test_left_inverse_exact(self, rng):
        # bitwise equality via the tree reduction over a power-of-two count
        for n in (1, 2, 3):
            a = complex_gaussian(rng, n, n)
            np.testing.assert_array_equal(block_sign_average(sign_block_lift(a)), a)

    def test_left_inverse_on_all_small_integer_matrices(self):
        # exhaustive over every 2x2 matrix with entries in {-1, 0, 1}
        import itertools

        for entries in itertools.product((-1.0, 0.0, 1.0), repeat=4):
            a = np.asarray(entries, dtype=complex).reshape(2, 2)
            np.testing.assert_array_equal(block_sign_average(sign_block_lift(a)), a)

    def test_hand_evaluated_pair(self):
        d = BlockDiag(np.array([[[3.0]], [[1.0]]], dtype=complex))
        np.testing.assert_array_equal(block_sign_average(d), [[1.0]])

    def test_zero_blocks(self):
        d = BlockDiag(np.zeros((16, 2, 2), dtype=complex))
        np.testing.assert_array_equal(block_sign_average(d), np.zeros((2, 2)))

    def test_wrong_block_count(self):
        with pytest.raises(ValueError, match="expected"):
            block_sign_average(BlockDiag(np.zeros((3, 1, 1), dtype=complex)))


class TestProjection:
    def test_fixes_lifted_matrices(self, rng):
        lifted = sign_block_lift(complex_gaussian(rng, 2, 2))
        np.testing.assert_array_equal(project_onto_lift(lifted).blocks, lifted.blocks)

    def test_idempotent(self, rng):
        d = BlockDiag(
            np.stack([complex_gaussian(rng, 2, 2) for _ in range(16)])
        )
        once = project_onto_lift(d)
        twice = project_onto_lift(once)
        np.testing.assert_array_equal(once.blocks, twice.blocks)

    def test_hand_evaluated(self):
        d = BlockDiag(np.array([[[1.0]], [[1.0]]], dtype=complex))
        np.testing.assert_array_equal(project_onto_lift(d).blocks, np.zeros((2, 1, 1)))

    def test_self_adjoint_in_trace_pairing(self, rng):
        for _ in range(5):
            d = BlockDiag(np.stack([complex_gaussian(rng, 2, 2) for _ in range(16)]))
            e = BlockDiag(np.stack([complex_gaussian(rng, 2, 2) for _ in range(16)]))
            lhs = trace_pairing(assemble(project_onto_lift(d)), assemble(e))
            rhs = trace_pairing(assemble(d), assemble(project_onto_lift(e)))
            assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_contracts_frobenius(self, rng):
        d = BlockDiag(np.stack([complex_gaussian(rng, 2, 2) for _ in range(16)]))
        assert blockdiag_schatten_norm(project_onto_lift(d), 2) <= blockdiag_schatten_norm(d, 2) + 1e-12


class TestRowNormSlack:
    def test_lifted_scalar_is_equality(self, rng):
        b = assemble(sign_block_lift(np.array([[1.0]])))
        for slack in row_norm_projection_slack(b, 1, (2.5, 4.0)):
            assert slack == pytest.approx(0.0, abs=1e-12)

    def test_zero_matrix(self):
        assert row_norm_projection_slack(np.zeros((2, 2)), 1, (4,)) == [0.0]

    def test_nonnegative_on_random(self, rng):
        for _ in range(30):
            b = complex_gaussian(rng, 32, 32)
            for slack in row_norm_projection_slack(b, 2, (2.5, 4.0, 6.0)):
                assert slack >= -1e-9

    def test_norm_equivalence_floor(self, rng):
        # lifted norms dominate the two-sided row norm blockwise
        n = 2
        for p in (2.5, 4.0):
            a = complex_gaussian(rng, n, n)
            lifted_norm = blockdiag_schatten_norm(sign_block_lift(a), p)
            floor = 2 ** (n * n / p) * 2 ** (-1 / p) * z_tilde_upper(a, p)
            assert lifted_norm >= floor - 1e-9

    def test_dimension_mismatch(self, rng):
        with pytest.raises(ValueError):
            row_norm_projection_slack(complex_gaussian(rng, 30, 30), 2, (4,))

    def test_rejects_small_p(self, rng, svd_calls):
        for ps in ((2.0,), (3.0, 2.0), (3.0, math.nan), (3.0, math.inf)):
            with pytest.raises(ValueError):
                row_norm_projection_slack(complex_gaussian(rng, 32, 32), 2, ps)
        assert svd_calls == []


class TestProjectionNormEstimate:
    def test_frobenius_case_is_one(self):
        for n in (1, 2):
            est = estimate_projection_norm(n, 2, trials=6, spec=RandomSpec(3), ascent_steps=10)
            assert abs(est.lower_bound - 1.0) <= 1e-8

    def test_lifted_fixed_point_is_certified(self):
        est = estimate_projection_norm(1, 4, trials=4, spec=RandomSpec(1), ascent_steps=0)
        assert est.lower_bound >= 1.0 - 1e-12

    def test_exceeds_one_for_large_p(self):
        est = estimate_projection_norm(2, 6, trials=10, spec=RandomSpec(5), ascent_steps=40)
        assert est.lower_bound >= 1.0

    def test_deterministic(self):
        a = estimate_projection_norm(1, 3, trials=5, spec=RandomSpec(7), ascent_steps=5)
        b = estimate_projection_norm(1, 3, trials=5, spec=RandomSpec(7), ascent_steps=5)
        assert a.lower_bound == b.lower_bound


def test_blockdiag_json_round_trip(rng):
    d = BlockDiag(np.stack([complex_gaussian(rng, 2, 2) for _ in range(3)]))
    back = blockdiag_from_json(json.loads(json.dumps(blockdiag_to_json(d))))
    np.testing.assert_array_equal(back.blocks, d.blocks)
