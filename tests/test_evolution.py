import math

import numpy as np
import pytest

from kerrdeco import linalg
from kerrdeco.evolution import (
    CavityParams, Trajectory, _destroy, _embed_qubits, _kept_indices, _liouvillian, _rk4_step_matrix,
    closed_form_reason, closed_form_rho, default_step, integrate_master,
    integrate_master_grid, propagate, rj_factor, trajectory,
)
from kerrdeco.states import (
    BellLike, BellPhi, BellPsi, PlusPlus, Separable, WernerLike, WernerPsi,
    initial_density, random_density_matrix,
)

QUIET = CavityParams(gamma1=4.0, gamma2=4.0, chi12=20.0)
LOSSLESS = CavityParams(gamma1=0.0, gamma2=0.0, chi12=20.0)


class TestCavityParams:
    def test_defaults_are_the_reference_point(self):
        p = CavityParams()
        assert (p.gamma1, p.gamma2, p.chi12) == (4.0, 4.0, 20.0)
        assert p.chi11 == p.chi22 == 0.0
        assert p.quiet

    def test_rejects_negative_rates(self):
        with pytest.raises(ValueError, match="gamma1"):
            CavityParams(gamma1=-1.0)
        with pytest.raises(ValueError, match="nbar2"):
            CavityParams(nbar2=-0.5)

    @pytest.mark.parametrize("field", ["gamma1", "gamma2", "chi11", "chi22", "chi12",
                                       "nbar1", "nbar2"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_fields_by_name(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            CavityParams(**{field: value})

    def test_self_kerr_signs_are_free(self):
        CavityParams(chi11=-3.0, chi22=5.0, chi12=-20.0)

    def test_quiet_flag(self):
        assert not CavityParams(nbar1=0.1).quiet


class TestRjFactor:
    def test_survival_factor_of_vacuum_element(self):
        # diagonal vacuum element keeps weight one in each mode
        assert rj_factor(1, 0, 0, 0, 0, 0, QUIET, 0.3) == pytest.approx(1.0)

    def test_population_decay_exponent(self):
        # diagonal |1><1| element in mode 1 decays at gamma1
        val = rj_factor(1, 1, 1, 0, 0, 0, QUIET, 0.25)
        assert val == pytest.approx(math.exp(-4.0 * 0.25))

    def test_pump_term_collects_lost_population(self):
        t = 0.25
        val = rj_factor(1, 0, 0, 0, 0, 1, QUIET, t)
        assert val == pytest.approx(1.0 - math.exp(-4.0 * t))

    def test_series_branch_matches_exact_branch(self):
        # straddle the series switch with a nearly lossless mode
        slow = CavityParams(gamma1=1e-4, gamma2=1e-4, chi12=0.0)
        t_small, t_big = 5e-5, 2e-4  # x*t of 5e-9 vs 2e-8
        for t in (t_small, t_big):
            val = rj_factor(1, 0, 0, 0, 0, 1, slow, t)
            exact = 1.0 - math.exp(-1e-4 * t)
            assert val == pytest.approx(exact, rel=1e-9)

    def test_rejects_bad_mode_index(self):
        with pytest.raises(ValueError, match="mode index"):
            rj_factor(3, 0, 0, 0, 0, 0, QUIET, 0.1)


class TestPropagate:
    def test_vacuum_is_stationary(self):
        vac = np.zeros((4, 4), dtype=complex)
        vac[0, 0] = 1.0
        out = propagate(vac, QUIET, 0.7).matrix
        assert np.allclose(out, vac, atol=1e-14)

    def test_time_zero_is_identity(self, rng):
        rho = random_density_matrix(rng)
        assert np.allclose(propagate(rho, QUIET, 0.0).matrix, rho.matrix, atol=1e-14)

    def test_bell_psi_closed_form(self):
        rho0 = initial_density(BellPsi(+1))
        for t in (0.05, 0.2, 0.8):
            g = math.exp(-4.0 * t)
            out = propagate(rho0, QUIET, t).matrix
            assert out[0, 0] == pytest.approx(1.0 - g, abs=1e-14)
            assert out[1, 1] == pytest.approx(g / 2.0, abs=1e-14)
            assert out[1, 2] == pytest.approx(g / 2.0, abs=1e-14)  # no self-Kerr, no phase
            assert out[3, 3] == pytest.approx(0.0, abs=1e-14)

    def test_bell_phi_coherence_phase(self):
        prm = CavityParams(gamma1=4.0, gamma2=4.0, chi11=3.0, chi22=5.0, chi12=20.0)
        rho0 = initial_density(BellPhi(+1))
        t = 0.13
        out = propagate(rho0, prm, t).matrix
        g = math.exp(-4.0 * t)
        want = (g / 2.0) * np.exp(1j * (3.0 + 5.0 + 2.0 * 20.0) * t)
        assert out[0, 3] == pytest.approx(want, abs=1e-14)

    def test_phase_sign_flag_detunes_coherences(self):
        # the convention probe flips only the oscillator term, so the (0,3)
        # coherence phase moves from 2 chi12 t to 6 chi12 t at equal magnitude
        rho0 = initial_density(BellPhi(+1))
        t = 0.1
        plus = propagate(rho0, QUIET, t, phase_sign=+1).matrix
        minus = propagate(rho0, QUIET, t, phase_sign=-1).matrix
        g = math.exp(-4.0 * t)
        assert plus[0, 3] == pytest.approx((g / 2.0) * np.exp(1j * 2.0 * 20.0 * t), abs=1e-14)
        assert minus[0, 3] == pytest.approx((g / 2.0) * np.exp(1j * 6.0 * 20.0 * t), abs=1e-14)

    def test_semigroup_composition(self, rng):
        rho = random_density_matrix(rng)
        for t1, t2 in ((0.1, 0.3), (0.02, 0.9), (0.4, 0.4)):
            two = propagate(propagate(rho, QUIET, t1), QUIET, t2).matrix
            one = propagate(rho, QUIET, t1 + t2).matrix
            assert np.allclose(two, one, atol=1e-13)

    def test_lossless_evolution_preserves_purity(self, rng):
        rho0 = initial_density(BellLike())
        for t in (0.1, 0.4, 1.0):
            out = propagate(rho0, LOSSLESS, t).matrix
            assert np.trace(out @ out).real == pytest.approx(1.0, abs=1e-13)

    def test_rejects_thermal_parameters(self):
        with pytest.raises(ValueError, match="quiet"):
            propagate(np.eye(4) / 4.0, CavityParams(nbar1=0.5), 0.1)

    def test_rejects_negative_time(self):
        with pytest.raises(ValueError, match="nonnegative"):
            propagate(np.eye(4) / 4.0, QUIET, -0.1)

    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf, -0.1])
    def test_names_the_time_when_it_is_not_finite(self, t):
        want = f"time must be finite and nonnegative, got {t}"
        with pytest.raises(ValueError, match=want):
            propagate(np.eye(4) / 4.0, QUIET, t)
        with pytest.raises(ValueError, match=want):
            closed_form_rho(BellPsi(+1), QUIET, t)

    def test_an_array_of_times_gives_a_read_only_validated_stack(self, rng):
        rho0 = random_density_matrix(rng)
        times = np.array([0.3, 0.0, 0.7])  # any order
        stack = propagate(rho0, QUIET, times)
        assert isinstance(stack, np.ndarray) and stack.shape == (3, 4, 4)
        assert not stack.flags.writeable
        for t, rho in zip(times, stack):
            assert rho.tobytes() == propagate(rho0, QUIET, float(t)).matrix.tobytes()
        assert propagate(rho0, QUIET, np.array([])).shape == (0, 4, 4)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -0.1])
    def test_names_the_first_bad_time_of_an_array(self, bad):
        with pytest.raises(ValueError, match=f"times must be finite and nonnegative, got {bad} at index 2"):
            propagate(np.eye(4) / 4.0, QUIET, np.array([0.0, 0.1, bad, math.nan]))

    def test_rejects_a_two_dimensional_time_array(self):
        with pytest.raises(ValueError, match="1-d array of times"):
            propagate(np.eye(4) / 4.0, QUIET, np.zeros((2, 2)))

    def test_nearly_lossless_limit_is_continuous(self):
        # the series branch has to join the gamma = 0 case smoothly
        rho0 = initial_density(BellLike())
        tiny = CavityParams(gamma1=1e-9, gamma2=1e-9, chi12=20.0)
        a = propagate(rho0, tiny, 0.5).matrix
        b = propagate(rho0, LOSSLESS, 0.5).matrix
        assert np.max(np.abs(a - b)) < 1e-8


class TestMasterEquation:
    def test_matches_propagator_on_bell_like(self):
        rho0 = initial_density(BellLike())
        prm = CavityParams(gamma1=4.0, gamma2=3.0, chi11=7.0, chi22=5.0, chi12=20.0)
        for t in (0.1, 0.5, 1.0):
            num = integrate_master(rho0.matrix, prm, t)
            exact = propagate(rho0, prm, t).matrix
            assert linalg.trace_distance(num, exact) < 1e-8

    def test_grid_and_single_agree(self):
        rho0 = initial_density(BellPsi(+1)).matrix
        grid = integrate_master_grid(rho0, QUIET, [0.1, 0.2, 0.4])
        single = integrate_master(rho0, QUIET, 0.4)
        assert np.allclose(grid[-1], single, atol=1e-14)

    def test_fourth_order_convergence(self):
        # halving the step divides the error by about 2^4
        prm = CavityParams(gamma1=1.0, gamma2=1.0, chi11=2.0, chi22=2.0, chi12=5.0)
        rho0 = initial_density(BellLike())
        exact = propagate(rho0, prm, 0.2).matrix
        errs = [linalg.trace_distance(integrate_master(rho0.matrix, prm, 0.2, step=h), exact)
                for h in (0.002, 0.001)]
        assert 14.0 < errs[0] / errs[1] < 18.0

    def test_trace_is_preserved(self, rng):
        rho0 = random_density_matrix(rng).matrix
        out = integrate_master(rho0, QUIET, 1.0)
        assert np.trace(out).real == pytest.approx(1.0, abs=1e-10)

    def test_default_step_respects_stability_guard(self):
        for prm in (QUIET, CavityParams(gamma1=30.0, chi11=50.0, chi22=50.0, chi12=50.0)):
            for fd in (2, 3, 4, 6):
                h = default_step(prm, fd)
                gmax = max(prm.gamma1, prm.gamma2)
                chi_max = max(abs(prm.chi11), abs(prm.chi22), abs(prm.chi12))
                assert (gmax + 2.0 * chi_max * fd ** 2) * h <= 0.1

    def test_oversized_step_is_rejected(self):
        rho0 = initial_density(BellPsi(+1)).matrix
        with pytest.raises(ValueError, match="step"):
            integrate_master(rho0, QUIET, 0.5, step=0.05)

    def test_times_must_increase(self):
        rho0 = initial_density(BellPsi(+1)).matrix
        with pytest.raises(ValueError, match="increasing"):
            integrate_master_grid(rho0, QUIET, [0.2, 0.1])

    @pytest.mark.parametrize("times", [[0.1, math.nan], [math.nan], [0.1, math.inf]])
    def test_times_must_be_finite(self, times):
        rho0 = initial_density(BellPsi(+1)).matrix
        with pytest.raises(ValueError, match="finite"):
            integrate_master_grid(rho0, QUIET, times)
        with pytest.raises(ValueError, match="finite"):
            Trajectory(np.array(times), [None] * len(times), QUIET, BellPsi(+1), "analytic")

    @pytest.mark.parametrize("step", [math.nan, math.inf, -0.001])
    def test_step_must_be_positive_and_finite(self, step):
        rho0 = initial_density(BellPsi(+1)).matrix
        with pytest.raises(ValueError, match="step must be positive and finite"):
            integrate_master(rho0, QUIET, 0.5, step=step)

    def test_fock_dim_must_be_at_least_two(self):
        with pytest.raises(ValueError, match="fock_dim"):
            integrate_master_grid(np.eye(1), QUIET, [0.1], fock_dim=1)

    def test_thermal_steady_state_is_truncated_geometric(self):
        # detailed balance fixes p(n+1)/p(n) = nbar/(nbar+1) even when truncated
        nbar = 0.4
        fd = 4
        prm = CavityParams(gamma1=6.0, gamma2=6.0, chi12=0.0, nbar1=nbar, nbar2=nbar)
        d = fd * fd
        rho0 = np.zeros((d, d), dtype=complex)
        rho0[0, 0] = 1.0
        out = integrate_master(rho0, prm, 8.0, fock_dim=fd)
        mode1 = np.diag(out).real.reshape(fd, fd).sum(axis=1)
        ratio = nbar / (nbar + 1.0)
        want = ratio ** np.arange(fd)
        want /= want.sum()
        assert np.allclose(mode1, want, atol=1e-6)


def coherence_orders(fock_dim):
    """(m1 - n1, m2 - n2) of every row-major vec(rho) index, as two flat arrays."""
    m1, m2, n1, n2 = np.indices((fock_dim,) * 4).reshape(4, -1)
    return m1 - n1, m2 - n2


def dense_rk4_grid(rho0, params, times, fock_dim):
    """The oracle's RK4 recurrence on the whole of vec(rho), with the default step."""
    lmat = _liouvillian(params, fock_dim, np.arange(fock_dim ** 4))
    step = default_step(params, fock_dim)
    d = fock_dim * fock_dim
    v = np.array(rho0, dtype=complex).reshape(-1)
    out, prev, cache = [], 0.0, {}
    for target in times:
        span = target - prev
        if span > 0:
            n = max(1, math.ceil(span / step))
            h = span / n
            if h not in cache:
                cache[h] = _rk4_step_matrix(lmat, h)
            for _ in range(n):
                v = cache[h] @ v
        out.append(v.reshape(d, d).copy())
        prev = target
    return out


THERMAL = CavityParams(gamma1=4.0, gamma2=3.0, chi11=2.0, chi22=-1.5, chi12=20.0,
                       nbar1=0.3, nbar2=0.2)


def kron_liouvillian(params, fock_dim):
    """The generator on the whole space from dense np.kron products."""
    a = _destroy(fock_dim)
    eye1 = np.eye(fock_dim, dtype=complex)
    a1, a2 = np.kron(a, eye1), np.kron(eye1, a)
    num1, num2 = a1.conj().T @ a1, a2.conj().T @ a2
    h = params.chi11 * num1 @ num1 + params.chi22 * num2 @ num2 + 2.0 * params.chi12 * num1 @ num2
    eye = np.eye(fock_dim * fock_dim, dtype=complex)
    lmat = -1j * (np.kron(h, eye) - np.kron(eye, h.T))
    for aj, gamma, nbar in ((a1, params.gamma1, params.nbar1), (a2, params.gamma2, params.nbar2)):
        adj = aj.conj().T
        num, anti = adj @ aj, aj @ adj
        down = 2.0 * np.kron(aj, adj.T) - np.kron(num, eye) - np.kron(eye, num.T)
        up = 2.0 * np.kron(adj, aj.T) - np.kron(anti, eye) - np.kron(eye, anti.T)
        lmat = lmat + (gamma / 2.0) * ((nbar + 1.0) * down + nbar * up)
    return lmat


class TestCoherenceOrders:
    @pytest.mark.parametrize("fock_dim", [2, 3, 4, 5])
    def test_liouvillian_never_couples_different_orders(self, rng, fock_dim):
        for _ in range(3):
            prm = CavityParams(gamma1=rng.uniform(0.5, 5.0), gamma2=rng.uniform(0.5, 5.0),
                               chi11=rng.uniform(-10.0, 10.0), chi22=rng.uniform(-10.0, 10.0),
                               chi12=rng.uniform(-30.0, 30.0),
                               nbar1=rng.uniform(0.05, 1.0), nbar2=rng.uniform(0.05, 1.0))
            lmat = _liouvillian(prm, fock_dim, np.arange(fock_dim ** 4))
            d1, d2 = coherence_orders(fock_dim)
            same = (d1[:, None] == d1[None, :]) & (d2[:, None] == d2[None, :])
            assert np.all(lmat[~same] == 0)
            assert np.any(lmat[same] != 0)

    @pytest.mark.parametrize("fock_dim", [2, 3, 4, 5])
    def test_generator_built_on_the_kept_entries_is_the_sliced_kron_build(self, rng, fock_dim):
        full = kron_liouvillian(THERMAL, fock_dim)
        box = _kept_indices(_embed_qubits(initial_density(BellLike()).matrix, fock_dim), fock_dim)
        subset = np.sort(rng.choice(fock_dim ** 4, size=fock_dim ** 3, replace=False))
        for keep in (box, subset, np.arange(fock_dim ** 4)):
            got = _liouvillian(THERMAL, fock_dim, keep)
            assert got.tobytes() == full[np.ix_(keep, keep)].tobytes()

    def test_thermal_bell_like_matches_the_dense_recurrence(self):
        fd = 4
        rho0 = _embed_qubits(initial_density(BellLike()).matrix, fd)
        times = list(np.linspace(0.0, 0.3, 7))
        got = integrate_master_grid(rho0, THERMAL, times, fd)
        want = dense_rk4_grid(rho0, THERMAL, times, fd)
        assert max(np.abs(g - w).max() for g, w in zip(got, want)) < 1e-12

    def test_order_two_coherence_is_kept(self):
        fd = 4
        # (|0,0> + i|2,1>) / sqrt(2)
        psi = np.zeros(fd * fd, dtype=complex)
        psi[0], psi[2 * fd + 1] = 1.0 / math.sqrt(2.0), 1.0j / math.sqrt(2.0)
        rho0 = np.outer(psi, psi.conj())
        times = [0.05, 0.1]
        got = integrate_master_grid(rho0, THERMAL, times, fd)
        want = dense_rk4_grid(rho0, THERMAL, times, fd)
        assert max(np.abs(g - w).max() for g, w in zip(got, want)) < 1e-12
        # the coherence |2,1><0,0| has orders (2, 1) and survives damping
        assert abs(got[-1][2 * fd + 1, 0]) > 1e-2
        d1, d2 = coherence_orders(fd)
        outside = ((np.abs(d1) > 2) | (np.abs(d2) > 1)).reshape(fd * fd, fd * fd)
        assert np.all(got[-1][outside] == 0)

    def test_population_only_start_stays_diagonal(self):
        fd = 4
        rho0 = np.diag(np.linspace(1.0, 0.1, fd * fd)).astype(complex)
        rho0 /= np.trace(rho0)
        times = [0.1, 0.2]
        got = integrate_master_grid(rho0, THERMAL, times, fd)
        want = dense_rk4_grid(rho0, THERMAL, times, fd)
        assert max(np.abs(g - w).max() for g, w in zip(got, want)) < 1e-12
        # damping and pumping move population between Fock levels and create no coherence
        d1, d2 = coherence_orders(fd)
        off = ((d1 != 0) | (d2 != 0)).reshape(fd * fd, fd * fd)
        assert np.all(got[-1][off] == 0)
        assert np.trace(got[-1]).real == pytest.approx(1.0, abs=1e-10)

    def test_qubit_space_with_both_coherences_is_bit_identical(self, rng):
        rho0 = random_density_matrix(rng).matrix
        times = [0.05, 0.1, 0.2]
        got = integrate_master_grid(rho0, THERMAL, times, 2)
        want = dense_rk4_grid(rho0, THERMAL, times, 2)
        for g, w in zip(got, want):
            assert np.array_equal(g, w)


class TestClosedForms:
    def test_reason_accepts_supported_cases(self):
        assert closed_form_reason(BellPsi(+1), CavityParams(chi11=9.0)) is None
        assert closed_form_reason(BellLike(), QUIET) is None
        assert closed_form_reason(WernerPsi(0.5), QUIET) is None

    def test_reason_names_each_obstruction(self):
        assert "equal damping" in closed_form_reason(BellPsi(+1), CavityParams(gamma1=1.0, gamma2=2.0))
        assert "self-Kerr" in closed_form_reason(BellLike(), CavityParams(chi11=5.0))
        assert "no closed form" in closed_form_reason(Separable(1.0, 0.0, 1.0, 0.0), QUIET)
        assert "quiet" in closed_form_reason(BellPsi(+1), CavityParams(nbar1=0.2))

    def test_closed_form_rho_raises_on_unsupported(self):
        with pytest.raises(ValueError, match="no closed form"):
            closed_form_rho(Separable(1.0, 0.0, 1.0, 0.0), QUIET, 0.1)

    @pytest.mark.parametrize("initial", [
        BellPsi(+1), BellPsi(-1), BellPhi(+1), BellPhi(-1), BellLike(),
        PlusPlus(), WernerPsi(0.7, +1), WernerLike(0.85),
    ])
    def test_matches_propagator(self, initial):
        rho0 = initial_density(initial)
        for t in (0.0, 0.07, 0.31, 1.0):
            a = closed_form_rho(initial, QUIET, t).matrix
            b = propagate(rho0, QUIET, t).matrix
            assert np.max(np.abs(a - b)) < 1e-12

    def test_stationary_degenerate_case(self):
        # no damping and no coupling leaves the state alone
        frozen = CavityParams(gamma1=0.0, gamma2=0.0, chi12=0.0)
        rho0 = initial_density(BellLike()).matrix
        out = closed_form_rho(BellLike(), frozen, 5.0).matrix
        assert np.allclose(out, rho0, atol=1e-14)

    def test_werner_like_off_diagonal_scaling(self):
        full = closed_form_rho(BellLike(), QUIET, 0.2).matrix
        scaled = closed_form_rho(WernerLike(0.6), QUIET, 0.2).matrix
        off = ~np.eye(4, dtype=bool)
        assert np.allclose(scaled[off], 0.6 * full[off], atol=1e-14)
        assert np.allclose(np.diag(scaled), np.diag(full), atol=1e-14)


class TestTrajectory:
    def test_engines_agree(self):
        for engine in ("analytic", "oracle", "closed_form"):
            traj = trajectory(BellPsi(+1), QUIET, 1.0, 9, engine=engine)
            assert traj.engine == engine
            assert not traj.approximate
        a = trajectory(BellPsi(+1), QUIET, 1.0, 9, engine="analytic")
        o = trajectory(BellPsi(+1), QUIET, 1.0, 9, engine="oracle")
        c = trajectory(BellPsi(+1), QUIET, 1.0, 9, engine="closed_form")
        for x, y, z in zip(a.states, o.states, c.states):
            assert linalg.trace_distance(x, y) < 1e-8
            assert np.max(np.abs(x - z)) < 1e-12

    @pytest.mark.parametrize("engine", ["analytic", "oracle", "closed_form"])
    def test_states_are_one_read_only_stack(self, engine):
        traj = trajectory(BellLike(), QUIET, 1.0, 7, engine=engine)
        assert isinstance(traj.states, np.ndarray) and traj.states.shape == (7, 4, 4)
        assert traj.states.dtype == complex and not traj.states.flags.writeable
        with pytest.raises(ValueError):
            traj.states[0, 0, 0] = 1.0

    def test_closed_form_stack_holds_the_single_time_matrices(self):
        traj = trajectory(WernerLike(0.7), QUIET, 1.0, 9, engine="closed_form")
        for t, rho in zip(traj.times, traj.states):
            assert rho.tobytes() == closed_form_rho(WernerLike(0.7), QUIET, float(t)).matrix.tobytes()

    def test_grid_shape(self):
        traj = trajectory(BellLike(), QUIET, 0.5, 11)
        assert len(traj.times) == len(traj.states) == 11
        assert traj.times[0] == 0.0 and traj.times[-1] == 0.5

    def test_closed_form_engine_rejects_unsupported_family(self):
        with pytest.raises(ValueError, match="no closed form"):
            trajectory(Separable(1.0, 0.0, 1.0, 0.0), QUIET, 1.0, 5, engine="closed_form")

    def test_analytic_engine_rejects_thermal(self):
        with pytest.raises(ValueError, match="quiet"):
            trajectory(BellPsi(+1), CavityParams(nbar1=0.3), 1.0, 5)

    def test_thermal_oracle_needs_headroom(self):
        therm = CavityParams(gamma1=4.0, gamma2=4.0, chi12=20.0, nbar1=0.2, nbar2=0.2)
        with pytest.raises(ValueError, match="fock_dim"):
            trajectory(BellPsi(+1), therm, 0.5, 5, engine="oracle", fock_dim=2)
        traj = trajectory(BellPsi(+1), therm, 0.5, 5, engine="oracle", fock_dim=4)
        assert traj.approximate
        # thermal photons repopulate the excited levels, unlike quiet decay
        final = traj.states[-1]
        assert final[3, 3].real > 1e-3

    def test_rejects_bad_grid_arguments(self):
        with pytest.raises(ValueError, match="n_points"):
            trajectory(BellPsi(+1), QUIET, 1.0, 1)
        with pytest.raises(ValueError, match="t_max"):
            trajectory(BellPsi(+1), QUIET, 0.0, 5)
        with pytest.raises(ValueError, match="engine"):
            trajectory(BellPsi(+1), QUIET, 1.0, 5, engine="exact")

    def test_trajectory_validation(self):
        with pytest.raises(ValueError, match="increasing"):
            Trajectory(np.array([0.0, 0.0]), [None, None], QUIET, BellPsi(+1), "analytic")
        with pytest.raises(ValueError, match="matching"):
            Trajectory(np.array([0.0, 0.1]), [None], QUIET, BellPsi(+1), "analytic")
        with pytest.raises(ValueError, match=r"\(N, 4, 4\)"):
            Trajectory(np.array([0.0, 0.1]), np.zeros((2, 2, 2)), QUIET, BellPsi(+1), "analytic")
        with pytest.raises(ValueError, match=r"\(N, 4, 4\)"):
            Trajectory(np.array([0.0, 0.1]), [None, None], QUIET, BellPsi(+1), "analytic")
