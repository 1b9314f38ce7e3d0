import math

import numpy as np
import pytest

from kerrdeco import linalg, measures
from kerrdeco.evolution import CavityParams, propagate, trajectory
from kerrdeco.measures import (
    EntanglementReport, concurrence, eof, log_negativity, negativity,
    pure_concurrence, report,
)
from kerrdeco.states import (
    BellLike, BellPhi, PlusPlus, Separable, WernerLike, WernerPhi, WernerPsi, bell_like, bell_phi, bell_psi, initial_density,
    random_density_matrix, random_pure_state, separable, to_density, werner,
)

CORPUS = 1000


def _corpus(rng, n=CORPUS):
    return [random_density_matrix(rng) for _ in range(n)]


class TestKnownValues:
    def test_bell_states_are_maximal(self):
        for psi in (bell_psi(+1), bell_psi(-1), bell_phi(+1), bell_phi(-1), bell_like()):
            rho = to_density(psi)
            assert concurrence(rho) == pytest.approx(1.0, abs=1e-12)
            assert negativity(rho) == pytest.approx(1.0, abs=1e-12)

    def test_product_states_are_zero(self):
        rho = to_density(separable(0.6, 0.8, 0.0, 1.0))
        assert concurrence(rho) == 0.0
        assert negativity(rho) == 0.0

    def test_maximally_mixed_is_zero(self):
        from kerrdeco.states import DensityMatrix2Q
        rho = DensityMatrix2Q(np.eye(4) / 4.0)
        assert concurrence(rho) == 0.0
        assert negativity(rho) == 0.0

    @pytest.mark.parametrize("p", [0.0, 0.2, 1.0 / 3.0, 0.4, 0.6, 0.8, 1.0])
    def test_werner_initial_values(self, p):
        want = max(0.0, (3.0 * p - 1.0) / 2.0)
        for kind in ("psi", "phi", "like"):
            rho = werner(kind, +1, p)
            assert concurrence(rho) == pytest.approx(want, abs=1e-10)
            assert negativity(rho) == pytest.approx(want, abs=1e-10)

    def test_bell_partial_transpose_spectrum(self):
        rho = to_density(bell_psi(+1)).matrix
        ev = np.sort(np.linalg.eigvalsh(linalg.partial_transpose_first(rho)))
        assert np.allclose(ev, [-0.5, 0.5, 0.5, 0.5], atol=1e-12)


class TestEof:
    def test_endpoints(self):
        assert eof(0.0) == 0.0
        assert eof(1.0) == 1.0

    def test_half_concurrence_value(self):
        assert eof(0.5) == pytest.approx(0.354578902665270, abs=1e-12)

    def test_monotone_in_concurrence(self):
        grid = np.linspace(0.0, 1.0, 50)
        vals = [eof(c) for c in grid]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_domain_validation(self):
        with pytest.raises(ValueError):
            eof(1.5)
        with pytest.raises(ValueError):
            eof(-0.2)
        # roundoff just outside the interval is clamped, not rejected
        assert eof(1.0 + 1e-12) == 1.0
        assert eof(-1e-12) == 0.0


class TestLogNegativity:
    def test_known_points(self):
        assert log_negativity(0.0) == 0.0
        assert log_negativity(1.0) == pytest.approx(1.0, abs=1e-14)
        assert log_negativity(0.5) == pytest.approx(0.584962500721156, abs=1e-12)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            log_negativity(-0.1)


class TestPureConcurrence:
    def test_hand_values(self):
        assert pure_concurrence(bell_psi(+1)) == pytest.approx(1.0)
        assert pure_concurrence(bell_like()) == pytest.approx(1.0)
        assert pure_concurrence(separable(0.6, 0.8, 1.0, 0.0)) == pytest.approx(0.0, abs=1e-15)

    def test_matches_definition(self, rng):
        for _ in range(50):
            psi = random_pure_state(rng)
            want = 2.0 * abs(psi.c00 * psi.c11 - psi.c01 * psi.c10)
            assert pure_concurrence(psi) == pytest.approx(want, abs=1e-14)


class TestCorpusProperties:
    def test_negativity_never_exceeds_concurrence(self, rng):
        for rho in _corpus(rng):
            c, n = concurrence(rho), negativity(rho)
            assert n <= c + 1e-9
            assert -1e-12 <= c <= 1.0 + 1e-12
            assert -1e-12 <= n <= 1.0 + 1e-12

    def test_measures_coincide_on_pure_states(self, rng):
        for _ in range(CORPUS):
            psi = random_pure_state(rng)
            rho = to_density(psi)
            want = pure_concurrence(psi)
            assert concurrence(rho) == pytest.approx(want, abs=1e-9)
            assert negativity(rho) == pytest.approx(want, abs=1e-9)

    def test_local_unitary_invariance(self, rng):
        for _ in range(200):
            rho = random_density_matrix(rng)
            u = np.kron(linalg.haar_unitary(2, rng), linalg.haar_unitary(2, rng))
            rotated = u @ rho.matrix @ u.conj().T
            assert concurrence(rotated) == pytest.approx(concurrence(rho), abs=1e-9)
            assert negativity(rotated) == pytest.approx(negativity(rho), abs=1e-9)

    def test_negativity_independent_of_transposed_party(self, rng):
        for _ in range(200):
            rho = random_density_matrix(rng)
            other = rho.matrix.reshape(2, 2, 2, 2).transpose(0, 3, 2, 1).reshape(4, 4)
            ev = np.linalg.eigvalsh(other)
            n_other = 2.0 * max(0.0, -float(ev[ev < 0].sum()))
            assert negativity(rho) == pytest.approx(n_other, abs=1e-12)

    def test_accepts_raw_arrays(self, rng):
        rho = random_density_matrix(rng)
        assert concurrence(rho.matrix) == concurrence(rho)

    def test_rejects_invalid_density_matrix(self):
        with pytest.raises(ValueError):
            concurrence(np.eye(4))
        with pytest.raises(ValueError):
            negativity(np.diag([0.7, 0.5, -0.1, -0.1]))


class TestManyStates:
    # separable states and Werner states after sudden death have exact zeros
    @pytest.mark.parametrize("initial, params", [
        (Separable(0.6, 0.8, 1.0, 0.0), CavityParams()),
        (PlusPlus(), CavityParams(chi12=0.0)),
        (WernerPsi(0.4, +1), CavityParams(chi12=0.0)),
        (WernerPhi(0.6, -1), CavityParams()),
        (WernerLike(0.5), CavityParams()),
        (BellLike(), CavityParams(chi11=7.0, chi22=7.0)),
    ])
    def test_list_gives_the_single_state_values_bit_for_bit(self, initial, params):
        states = trajectory(initial, params, 1.0, 201).states
        for fn in (concurrence, negativity):
            one_by_one = np.array([fn(rho) for rho in states])
            assert 0.0 in one_by_one
            for many in (fn(states), fn(tuple(states))):
                assert many.dtype == np.float64 and many.shape == (201,)
                assert many.tobytes() == one_by_one.tobytes()

    def test_mixed_inputs_and_random_states(self, rng):
        states = _corpus(rng, 50) + [to_density(random_pure_state(rng)).matrix for _ in range(50)]
        for fn in (concurrence, negativity):
            assert fn(states).tobytes() == np.array([fn(rho) for rho in states]).tobytes()

    def test_one_state_gives_a_float(self, rng):
        rho = random_density_matrix(rng)
        assert type(concurrence(rho)) is float and type(negativity(rho.matrix)) is float
        assert concurrence([rho]).shape == negativity([rho]).shape == (1,)
        assert concurrence([]).shape == negativity(()).shape == (0,)

    def test_every_state_of_a_list_is_validated(self, rng):
        good = random_density_matrix(rng)
        with pytest.raises(ValueError, match="trace"):
            concurrence([good, np.eye(4)])
        with pytest.raises(ValueError, match="4x4"):
            negativity([good, np.eye(3) / 3.0])


    def test_an_array_of_states_gives_the_list_values_and_is_validated(self, rng):
        states = np.array([random_density_matrix(rng).matrix for _ in range(20)])
        for fn in (concurrence, negativity):
            assert fn(states).tobytes() == fn(list(states)).tobytes()
        bad = states.copy()
        bad[7, 0, 1] = 0.3
        # a read-only array is not a validated one
        bad.flags.writeable = False
        for fn in (concurrence, negativity):
            with pytest.raises(ValueError, match="^state 7: density matrix is not hermitian"):
                fn(bad)
            with pytest.raises(ValueError, match="^state 0: .*non-finite"):
                fn(np.full((2, 4, 4), math.nan))


class TestWernerPhiEquality:
    def test_concurrence_equals_negativity_on_damped_curve(self):
        # the even-parity Werner family keeps C = N at all times and weights
        prm = CavityParams(gamma1=4.0, gamma2=4.0, chi12=20.0)
        for p in (0.4, 0.7, 1.0):
            rho0 = initial_density(WernerPhi(p, +1))
            for t in np.linspace(0.0, 1.0, 21):
                rho = propagate(rho0, prm, float(t))
                assert concurrence(rho) == pytest.approx(negativity(rho), abs=1e-9)


class TestReport:
    def test_fields_are_consistent(self, rng):
        rho = random_density_matrix(rng)
        r = report(rho)
        assert r.concurrence == pytest.approx(concurrence(rho))
        assert r.negativity == pytest.approx(negativity(rho))
        assert r.eof == pytest.approx(eof(r.concurrence))
        assert r.log_negativity == pytest.approx(log_negativity(r.negativity))

    def test_bell_report_is_all_ones(self):
        r = report(to_density(bell_phi(+1)))
        for v in (r.concurrence, r.negativity, r.eof, r.log_negativity):
            assert v == pytest.approx(1.0, abs=1e-9)

    def test_rejects_inconsistent_ordering(self):
        with pytest.raises(ValueError):
            EntanglementReport(concurrence=0.2, negativity=0.5, eof=0.1, log_negativity=0.5)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            EntanglementReport(concurrence=1.5, negativity=0.5, eof=0.5, log_negativity=0.5)
