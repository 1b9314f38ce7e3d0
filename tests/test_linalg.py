import re

import numpy as np
import pytest

from kerrdeco import linalg
from kerrdeco.states import random_density_matrix, random_pure_state, to_density

SY = np.array([[0.0, -1.0j], [1.0j, 0.0]])


def _rand_complex(rng, n=4):
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


class TestPartialTranspose:
    def test_element_mapping(self):
        m = np.arange(16, dtype=complex).reshape(4, 4)
        pt = linalg.partial_transpose_first(m)
        for i in range(2):
            for j in range(2):
                for k in range(2):
                    for l in range(2):
                        assert pt[2 * j + k, 2 * i + l] == m[2 * i + k, 2 * j + l]

    def test_is_involution(self, rng):
        m = _rand_complex(rng)
        assert np.array_equal(linalg.partial_transpose_first(linalg.partial_transpose_first(m)), m)

    def test_preserves_trace_and_hermiticity(self, rng):
        for _ in range(20):
            rho = random_density_matrix(rng).matrix
            pt = linalg.partial_transpose_first(rho)
            assert np.trace(pt) == pytest.approx(1.0, abs=1e-12)
            assert np.max(np.abs(pt - pt.conj().T)) < 1e-12

    def test_party_choice_does_not_change_spectrum(self, rng):
        # transposing the other qubit gives the full transpose of this PT
        for _ in range(50):
            rho = random_density_matrix(rng).matrix
            pt1 = linalg.partial_transpose_first(rho)
            pt2 = rho.reshape(2, 2, 2, 2).transpose(0, 3, 2, 1).reshape(4, 4)
            e1 = np.sort(np.linalg.eigvalsh(pt1))
            e2 = np.sort(np.linalg.eigvalsh(pt2))
            assert np.allclose(e1, e2, atol=1e-12)

    def test_at_most_one_negative_eigenvalue(self, rng):
        # known structural fact for two-qubit states
        for _ in range(200):
            rho = random_density_matrix(rng).matrix
            ev = np.linalg.eigvalsh(linalg.partial_transpose_first(rho))
            assert int(np.sum(ev < -1e-12)) <= 1

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError):
            linalg.partial_transpose_first(np.eye(3))

    def test_stack_transposes_each_matrix(self, rng):
        stack = np.stack([_rand_complex(rng) for _ in range(5)]).reshape(5, 1, 4, 4)
        got = linalg.partial_transpose_first(stack)
        assert got.shape == (5, 1, 4, 4)
        for k in range(5):
            assert np.array_equal(got[k, 0], linalg.partial_transpose_first(stack[k, 0]))


class TestHermitianEigenvalues:
    def test_hand_example_sorted_ascending(self):
        h = np.array([[2.0, 1.0], [1.0, 2.0]], dtype=complex)
        assert np.allclose(linalg.hermitian_eigenvalues(h), [1.0, 3.0])

    def test_rejects_nonhermitian(self):
        with pytest.raises(ValueError, match="hermitian"):
            linalg.hermitian_eigenvalues(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_stack_checks_every_matrix(self):
        good = np.array([[2.0, 1.0], [1.0, 2.0]])
        assert np.allclose(linalg.hermitian_eigenvalues(np.stack([good, 2 * good])), [[1, 3], [2, 6]])
        with pytest.raises(ValueError, match="hermitian"):
            linalg.hermitian_eigenvalues(np.stack([good, np.array([[0.0, 1.0], [0.0, 0.0]])]))

    def test_tolerance_is_hermitian_tol(self):
        ok = np.array([[1.0, 0.5 * linalg.HERMITIAN_TOL], [0.0, 1.0]])
        assert np.allclose(linalg.hermitian_eigenvalues(ok), [1.0, 1.0])
        with pytest.raises(ValueError, match="1e-12"):
            linalg.hermitian_eigenvalues(np.array([[1.0, 1e-11], [0.0, 1.0]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.nan)])
    def test_rejects_a_non_finite_entry(self, bad):
        m = np.eye(4, dtype=complex) / 4.0
        m[0, 0] = bad
        with pytest.raises(ValueError, match="input has non-finite entries"):
            linalg.hermitian_eigenvalues(m)
        with pytest.raises(ValueError, match="input has non-finite entries"):
            linalg.hermitian_eigenvalues(np.stack([np.eye(4) / 4.0, m]))


class TestSpinFlipSpectrum:
    def _product(self, rho):
        syy = np.kron(SY, SY)
        return rho @ syy @ rho.conj() @ syy

    def test_bell_state_spectrum(self):
        rho = np.zeros((4, 4), dtype=complex)
        rho[1, 1] = rho[2, 2] = rho[1, 2] = rho[2, 1] = 0.5
        lam = linalg.nonneg_spectrum_of_product(self._product(rho))
        assert np.allclose(lam, [0.0, 0.0, 0.0, 1.0], atol=1e-12)

    def test_matches_hermitian_sqrt_route(self, rng):
        # independent algebra: eigenvalues of sqrt(rho) R sqrt(rho) with R the
        # flipped partner coincide with the product spectrum
        syy = np.kron(SY, SY)
        for _ in range(100):
            rho = random_density_matrix(rng).matrix
            lam = linalg.nonneg_spectrum_of_product(self._product(rho))
            w, v = np.linalg.eigh(rho)
            sq = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T
            herm = sq @ syy @ rho.conj() @ syy @ sq
            herm = (herm + herm.conj().T) / 2.0
            ref = np.sort(np.clip(np.linalg.eigvalsh(herm), 0.0, None))
            assert np.allclose(lam, ref, atol=1e-7)

    def test_pure_state_noise_is_snapped_to_zero(self, rng):
        # rank-one products must yield three exact zeros, not 1e-16 residue
        for _ in range(50):
            rho = to_density(random_pure_state(rng)).matrix
            lam = linalg.nonneg_spectrum_of_product(self._product(rho))
            assert lam[0] == 0.0 and lam[1] == 0.0 and lam[2] == 0.0

    def test_rejects_complex_spectrum(self):
        rot = np.array([[0.0, -1.0], [1.0, 0.0]])
        m = np.kron(rot, np.eye(2)).astype(complex)
        with pytest.raises(ValueError, match="not real"):
            linalg.nonneg_spectrum_of_product(m)

    def test_rejects_negative_spectrum(self):
        with pytest.raises(ValueError, match="negative"):
            linalg.nonneg_spectrum_of_product(-np.eye(4, dtype=complex))

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError):
            linalg.nonneg_spectrum_of_product(np.eye(3, dtype=complex))

    def test_stack_snaps_each_matrix_against_its_own_floor(self, rng):
        # 1e-13 is below the floor of a unit spectrum but above that of a tiny one
        big = np.diag([1.0, 1e-13, 0.5, 0.0]).astype(complex)
        tiny = np.diag([3e-13, 1e-13, 0.0, 2e-13]).astype(complex)
        rho = random_density_matrix(rng).matrix
        stack = np.stack([big, tiny, self._product(rho)])
        got = linalg.nonneg_spectrum_of_product(stack)
        assert got.tobytes() == np.array([linalg.nonneg_spectrum_of_product(m) for m in stack]).tobytes()
        assert got[0].tolist() == [0.0, 0.0, 0.5, 1.0]
        assert got[1].tolist() == [0.0, 1e-13, 2e-13, 3e-13]


class TestTraceDistance:
    def test_maximally_mixed_vs_ground(self):
        ground = np.zeros((4, 4), dtype=complex)
        ground[0, 0] = 1.0
        assert linalg.trace_distance(np.eye(4) / 4.0, ground) == pytest.approx(0.75, abs=1e-14)

    def test_zero_on_identical_inputs(self, rng):
        rho = random_density_matrix(rng).matrix
        assert linalg.trace_distance(rho, rho) == 0.0

    def test_symmetric_and_triangle(self, rng):
        a = random_density_matrix(rng).matrix
        b = random_density_matrix(rng).matrix
        c = random_density_matrix(rng).matrix
        dab = linalg.trace_distance(a, b)
        assert dab == pytest.approx(linalg.trace_distance(b, a), abs=1e-14)
        assert dab <= linalg.trace_distance(a, c) + linalg.trace_distance(c, b) + 1e-12

    def test_bounded_by_one_for_states(self, rng):
        for _ in range(50):
            a = random_density_matrix(rng).matrix
            b = random_density_matrix(rng).matrix
            assert 0.0 <= linalg.trace_distance(a, b) <= 1.0 + 1e-12

    def test_rejects_nonhermitian(self):
        bad = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(ValueError):
            linalg.trace_distance(bad, np.eye(2))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_a_non_finite_entry(self, bad):
        m = np.eye(4, dtype=complex) / 4.0
        m[0, 0] = bad
        with pytest.raises(ValueError, match="first argument has non-finite entries"):
            linalg.trace_distance(m, np.eye(4) / 4.0)
        with pytest.raises(ValueError, match="second argument has non-finite entries"):
            linalg.trace_distance(np.eye(4) / 4.0, m)

    def test_a_stack_of_pairs_equals_one_call_per_pair_bit_for_bit(self, rng):
        a = np.array([[random_density_matrix(rng).matrix for _ in range(4)] for _ in range(3)])
        b = np.array([[random_density_matrix(rng).matrix for _ in range(4)] for _ in range(3)])
        got = linalg.trace_distance(a, b)
        assert got.shape == (3, 4) and got.dtype == np.float64
        want = np.array([[linalg.trace_distance(x, y) for x, y in zip(row_a, row_b)] for row_a, row_b in zip(a, b)])
        assert got.tobytes() == want.tobytes()
        assert type(linalg.trace_distance(a[0, 0], b[0, 0])) is float

    def test_a_stack_is_held_to_the_hermiticity_check(self, rng):
        a = np.array([random_density_matrix(rng).matrix for _ in range(3)])
        b = a.copy()
        b[2, 0, 1] += 1e-9
        with pytest.raises(ValueError, match="second argument is not hermitian"):
            linalg.trace_distance(a, b)

    def test_rejects_mismatched_shapes_naming_them(self):
        one, two, three = (np.stack([np.eye(4)] * k) / 4.0 for k in (1, 2, 3))
        for a, b in ((one[0], np.eye(2) / 2.0), (two, one[0]), (two, three)):
            want = f"expected two matrices or stacks of one shape, got {a.shape} and {b.shape}"
            with pytest.raises(ValueError, match=re.escape(want)):
                linalg.trace_distance(a, b)


class TestHaarUnitary:
    def test_unitarity(self, rng):
        for dim in (2, 4):
            u = linalg.haar_unitary(dim, rng)
            assert np.allclose(u @ u.conj().T, np.eye(dim), atol=1e-12)

    def test_deterministic_for_fixed_seed(self):
        u1 = linalg.haar_unitary(4, np.random.default_rng(7))
        u2 = linalg.haar_unitary(4, np.random.default_rng(7))
        assert np.array_equal(u1, u2)
