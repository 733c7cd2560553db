import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schattenlab.linalg import (
    RandomSpec,
    matrix_from_json,
    matrix_to_json,
    numeric_rank,
    psd_trace_power,
    random_matrix,
    schatten_norm,
    schatten_norms,
    schur_product,
    singular_values,
    substream,
    trace_pairing,
)

from conftest import basis_matrix, complex_gaussian, haar_unitary


class TestSchurProduct:
    def test_ones_is_identity(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_array_equal(schur_product(a, np.ones((2, 2))), a)

    def test_sign_matrix_squares_to_ones(self, rng):
        r = np.where(rng.random((3, 3)) < 0.5, -1.0, 1.0)
        a = complex_gaussian(rng, 3, 3)
        np.testing.assert_array_equal(schur_product(schur_product(r, r), a), a)

    def test_entrywise(self):
        out = schur_product(np.array([[1.0, 2.0]]), np.array([[0.0, -1.0]]))
        np.testing.assert_array_equal(out, np.array([[0.0, -2.0]]))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            schur_product(np.ones((2, 2)), np.ones((2, 3)))


class TestSingularValues:
    def test_diagonal_absolute_values(self):
        np.testing.assert_allclose(singular_values(np.diag([3.0, -4.0])), [4.0, 3.0])

    def test_permutation(self):
        np.testing.assert_allclose(singular_values(np.array([[0.0, 1.0], [1.0, 0.0]])), [1.0, 1.0])

    def test_against_gram_eigenvalues(self, rng):
        # independent oracle: eigenvalues of A*A from the Hermitian eigensolver
        a = complex_gaussian(rng, 5, 5)
        w = np.linalg.eigvalsh(a.conj().T @ a)[::-1]
        np.testing.assert_allclose(singular_values(a) ** 2, w, rtol=1e-10, atol=1e-12)

    def test_rectangular_length(self, rng):
        assert len(singular_values(complex_gaussian(rng, 3, 7))) == 3


class TestSchattenNorm:
    def test_identity(self):
        assert schatten_norm(np.eye(4), 4) == pytest.approx(4 ** (1 / 4), abs=1e-12)

    def test_frobenius(self):
        assert schatten_norm(np.diag([3.0, 4.0]), 2) == pytest.approx(5.0, abs=1e-12)

    def test_against_trace_power_oracle(self, rng):
        a = complex_gaussian(rng, 6, 6)
        w = np.clip(np.linalg.eigvalsh(a.conj().T @ a), 0, None)
        expected = np.sum(w**1.5) ** (1 / 3)
        assert schatten_norm(a, 3) == pytest.approx(expected, rel=1e-9)

    def test_operator_norm(self, rng):
        a = complex_gaussian(rng, 4, 4)
        assert schatten_norm(a, math.inf) == pytest.approx(singular_values(a)[0])

    def test_zero_iff_zero(self):
        assert schatten_norm(np.zeros((3, 2)), 3.5) == 0.0

    def test_rejects_small_p(self):
        with pytest.raises(ValueError):
            schatten_norm(np.eye(2), 0.5)


class TestSchattenNorms:
    PS = (1.0, 1.5, 2.0, 3.0, 4.0, 6.0, math.inf)

    @pytest.mark.parametrize("shape", [(3, 7), (7, 3), (5, 5), (1, 1), (1, 4)])
    def test_bit_identical_to_single_p(self, rng, shape):
        for a in (complex_gaussian(rng, *shape), np.zeros(shape), 1e-200 * complex_gaussian(rng, *shape)):
            assert schatten_norms(a, self.PS) == [schatten_norm(a, p) for p in self.PS]

    def test_order_and_repeats_follow_the_input(self, rng):
        a = complex_gaussian(rng, 4, 6)
        ps = (math.inf, 3.0, 2.0, 3.0, 1.0)
        assert schatten_norms(a, ps) == [schatten_norm(a, p) for p in ps]
        assert schatten_norms(a, ()) == []

    def test_one_svd_for_all_exponents(self, rng, svd_calls):
        a = complex_gaussian(rng, 6, 6)
        schatten_norms(a, self.PS)
        assert svd_calls == [(6, 6)]
        schatten_norms(a, (2.0, 2.0))  # Frobenius needs no spectrum
        assert svd_calls == [(6, 6)]

    @pytest.mark.parametrize("bad", [0.5, math.nan, -math.inf, -1.0])
    def test_rejects_whole_list_before_any_svd(self, rng, svd_calls, bad):
        a = complex_gaussian(rng, 4, 4)
        with pytest.raises(ValueError, match="need p >= 1"):
            schatten_norms(a, (3.0, 4.0, bad))
        assert svd_calls == []


class TestPsdTracePower:
    def test_identity(self):
        assert psd_trace_power(np.eye(5), 2.0) == pytest.approx(5.0)

    def test_square_root(self):
        assert psd_trace_power(np.diag([4.0, 0.0]), 0.5) == pytest.approx(2.0, abs=1e-12)

    def test_against_matrix_product_oracle(self, rng):
        g = complex_gaussian(rng, 5, 5)
        a = g.conj().T @ g
        a = (a + a.conj().T) / 2
        expected = np.trace(a @ a).real
        assert psd_trace_power(a, 2.0) == pytest.approx(expected, rel=1e-9)

    def test_clamps_tiny_negatives(self):
        a = np.diag([1.0, -5e-11])
        assert psd_trace_power(a, 0.5) == pytest.approx(1.0)

    def test_rejects_indefinite(self):
        with pytest.raises(ValueError, match="not PSD"):
            psd_trace_power(np.diag([1.0, -1e-3]), 2.0)

    def test_rejects_non_hermitian(self, rng):
        with pytest.raises(ValueError, match="Hermitian"):
            psd_trace_power(complex_gaussian(rng, 3, 3), 2.0)

    def test_rejects_rectangular(self):
        with pytest.raises(ValueError, match="square"):
            psd_trace_power(np.ones((2, 3)), 1.0)


class TestNumericRank:
    def test_identity(self):
        assert numeric_rank(np.eye(5)) == 5

    def test_all_ones(self):
        assert numeric_rank(np.ones((4, 4))) == 1

    def test_partial_diagonal(self):
        assert numeric_rank(basis_matrix(4, 4, 0, 0) + basis_matrix(4, 4, 1, 1)) == 2

    def test_zero_matrix(self):
        assert numeric_rank(np.zeros((3, 3))) == 0

    def test_adjoint_invariance(self, rng):
        for trial in range(20):
            a = complex_gaussian(rng, 4, 6)
            if trial % 3 == 0:
                a[:, 0] = a[:, 1]
            assert numeric_rank(a) == numeric_rank(a.conj().T)

    def test_rejects_bad_rtol(self):
        with pytest.raises(ValueError):
            numeric_rank(np.eye(2), rtol=1.5)


class TestTracePairing:
    def test_matching_unit(self):
        e = basis_matrix(2, 2, 0, 0)
        assert trace_pairing(e, e) == pytest.approx(1.0)

    def test_disjoint_support(self):
        assert trace_pairing(basis_matrix(2, 2, 0, 1), basis_matrix(2, 2, 1, 0)) == 0.0

    def test_self_pairing_is_frobenius(self, rng):
        a = complex_gaussian(rng, 5, 5)
        assert trace_pairing(a, a).real == pytest.approx(schatten_norm(a, 2) ** 2, abs=1e-10)
        assert abs(trace_pairing(a, a).imag) < 1e-12

    def test_conjugate_symmetry(self, rng):
        a, b = complex_gaussian(rng, 3, 4), complex_gaussian(rng, 3, 4)
        assert trace_pairing(a, b) == pytest.approx(np.conj(trace_pairing(b, a)))


class TestRandomMatrix:
    def test_zero_diagonal_exact(self):
        a = random_matrix(RandomSpec(5, "zero-diagonal-complex-gaussian"), 6, 6)
        assert np.all(np.diagonal(a) == 0)

    def test_determinism(self):
        spec = RandomSpec(123, "complex-gaussian")
        np.testing.assert_array_equal(random_matrix(spec, 4, 5), random_matrix(spec, 4, 5))

    def test_psd_min_eigenvalue(self):
        a = random_matrix(RandomSpec(9, "psd"), 5, 5)
        assert np.linalg.eigvalsh(a)[0] >= -1e-12

    def test_unit_normalization(self):
        spec = RandomSpec(2, "unit-schatten-normalized", norm_p=3.0)
        assert schatten_norm(random_matrix(spec, 4, 4), 3.0) == pytest.approx(1.0, abs=1e-12)

    def test_shape_constraint(self):
        with pytest.raises(ValueError):
            random_matrix(RandomSpec(0, "psd"), 3, 4)

    def test_unknown_ensemble(self):
        with pytest.raises(ValueError):
            RandomSpec(0, "uniform")

    def test_substreams_differ(self):
        spec = RandomSpec(7)
        a = random_matrix(substream(spec, 0), 3, 3)
        b = random_matrix(substream(spec, 1), 3, 3)
        assert np.max(np.abs(a - b)) > 1e-3


class TestMatrixJson:
    def test_round_trip(self, rng):
        a = complex_gaussian(rng, 3, 2)
        back = matrix_from_json(json.loads(json.dumps(matrix_to_json(a))))
        np.testing.assert_array_equal(back, a)

    def test_im_optional(self):
        a = matrix_from_json({"rows": 1, "cols": 2, "re": [[1.0, 2.0]]})
        np.testing.assert_array_equal(a, np.array([[1.0, 2.0]], dtype=complex))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            matrix_from_json({"rows": 2, "cols": 2, "re": [[1.0]]})

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="finite"):
            matrix_from_json({"rows": 1, "cols": 1, "re": [[float("nan")]]})


# --- norm invariants -------------------------------------------------------

@settings(deadline=None, max_examples=25, derandomize=True)
@given(seed=st.integers(0, 10_000), p=st.sampled_from([1.0, 2.0, 2.5, 4.0, 7.0]))
def test_unitary_invariance(seed, p):
    rng = np.random.default_rng(seed)
    a = complex_gaussian(rng, 4, 4)
    u, v = haar_unitary(rng, 4), haar_unitary(rng, 4)
    assert schatten_norm(u @ a @ v, p) == pytest.approx(schatten_norm(a, p), abs=1e-9)


@settings(deadline=None, max_examples=25, derandomize=True)
@given(seed=st.integers(0, 10_000), p=st.sampled_from([1.0, 3.0, 5.5]))
def test_diagonal_sign_invariance(seed, p):
    rng = np.random.default_rng(seed)
    a = complex_gaussian(rng, 5, 5)
    eps = np.diag(np.where(rng.random(5) < 0.5, -1.0, 1.0))
    assert schatten_norm(eps @ a, p) == pytest.approx(schatten_norm(a, p), abs=1e-10)


@settings(deadline=None, max_examples=25, derandomize=True)
@given(seed=st.integers(0, 10_000), p=st.sampled_from([1.0, 2.0, 3.5, 6.0]))
def test_triangle_and_homogeneity(seed, p):
    rng = np.random.default_rng(seed)
    a, b = complex_gaussian(rng, 4, 4), complex_gaussian(rng, 4, 4)
    assert schatten_norm(a, p) + schatten_norm(b, p) - schatten_norm(a + b, p) >= -1e-9
    lam = rng.standard_normal()
    assert schatten_norm(lam * a, p) == pytest.approx(abs(lam) * schatten_norm(a, p), abs=1e-10)


def test_p_monotonicity(rng):
    for _ in range(10):
        a = complex_gaussian(rng, 4, 4)
        values = [schatten_norm(a, p) for p in (1.0, 1.5, 2.0, 3.0, 6.0, math.inf)]
        assert all(x >= y - 1e-10 for x, y in zip(values, values[1:]))


def _nan_p_calls():
    """One call per function that validates an exponent, at ``p``."""
    from schattenlab import embedding, norms, paving, projection, signs

    eye, zero_diag = np.eye(2), np.ones((4, 4)) - np.eye(4)
    blocks = projection.BlockDiag(np.ones((1, 1, 1)))
    return {
        "schatten_norm": lambda p: schatten_norm(eye, p),
        "schatten_norms": lambda p: schatten_norms(eye, (3.0, p)),
        "z_norm": lambda p: norms.z_norm(eye, p),
        "clarkson_slack": lambda p: norms.clarkson_slack(eye, eye, p),
        "rademacher_average": lambda p: signs.rademacher_average(eye, p),
        "blockdiag_schatten_norm": lambda p: projection.blockdiag_schatten_norm(blocks, p),
        "estimate_projection_norm": lambda p: projection.estimate_projection_norm(1, p, trials=2),
        "sign_average_sum": lambda p: embedding.sign_average_sum(eye[None], p),
        "psd_rank_bound": lambda p: embedding.psd_rank_bound(eye[None], p),
        "tight_embedding_audit": lambda p: embedding.tight_embedding_audit(embedding.EmbeddingInstance(eye[None], p)),
        "paving_norm": lambda p: paving.paving_norm(zero_diag, [np.arange(4)], p),
        "find_balanced_split": lambda p: paving.find_balanced_split(zero_diag, p),
        "balanced_subset_average": lambda p: paving.balanced_subset_average(zero_diag, p),
        "pave_levels": lambda p: paving.pave_levels(zero_diag, p, 1),
    }


@pytest.mark.parametrize("name", sorted(_nan_p_calls()))
def test_nan_exponent_raises(name):
    call = _nan_p_calls()[name]
    with pytest.raises(ValueError, match="got nan"):
        call(math.nan)
