import cmath
import dataclasses
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kerrdeco import linalg
from kerrdeco.analytics import bell_psi_curves, unitary_pure_entanglement, werner_like_lossless_curve
from kerrdeco.evolution import (
    _MAX_RK4_STEPS, _MAX_WARM_NORM, CavityParams, Trajectory, _checked_step, _default_step, _destroy, _embed_qubits,
    _evolve_kept, _generator_bound, _kept_indices, _liouvillian, _operators, closed_form_reason, closed_form_rho,
    integrate_master_grid, propagate, rj_factor, trajectory, validate_run,
)
from kerrdeco.states import (
    BellLike, BellPhi, BellPsi, CustomMixed, DensityMatrix2Q, PlusPlus, Separable, WernerLike, WernerPhi,
    WernerPsi, bell_like, initial_density, random_density_matrix,
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
        assert isinstance(stack, DensityMatrix2Q) and stack.matrix.shape == (3, 4, 4)
        assert not stack.matrix.flags.writeable
        for t, rho in zip(times, stack.matrix):
            assert rho.tobytes() == propagate(rho0, QUIET, float(t)).matrix.tobytes()
        assert propagate(rho0, QUIET, np.array([])).matrix.shape == (0, 4, 4)

    @pytest.mark.parametrize("t", [0.3, np.array([0.3, 0.0, 0.7, 7.5])])
    def test_a_stack_of_initial_states_equals_one_call_per_state_bit_for_bit(self, rng, t):
        params = CavityParams(gamma1=4.0, gamma2=2.5, chi11=-7.0, chi22=5.0, chi12=20.0)
        rho0s = np.array([random_density_matrix(rng).matrix for _ in range(3)])
        stack = propagate(rho0s, params, t)
        assert isinstance(stack, DensityMatrix2Q)
        assert stack.matrix.shape == (3, *np.shape(t), 4, 4)
        for rho0, got in zip(rho0s, stack.matrix):
            assert got.tobytes() == propagate(rho0, params, t).matrix.tobytes()
        assert propagate(rho0s[:0], params, t).matrix.shape == (0, *np.shape(t), 4, 4)

    def test_rejects_an_initial_state_of_the_wrong_shape(self, rng):
        stack = propagate(random_density_matrix(rng), QUIET, np.array([0.1, 0.2]))
        both = np.array([stack.matrix, stack.matrix])
        want = r"rho0 must be one 4x4 density matrix or a \(B, 4, 4\) stack, got shape \(2, 2, 4, 4\)"
        with pytest.raises(ValueError, match=want):
            propagate(both, QUIET, 0.1)
        with pytest.raises(ValueError, match=r"got shape \(2, 3, 3\)"):
            propagate(np.ones((2, 3, 3)) / 3.0, QUIET, 0.1)

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
            num = integrate_master_grid(rho0.matrix, prm, [t])[0]
            exact = propagate(rho0, prm, t).matrix
            assert linalg.trace_distance(num, exact) < 1e-8

    def test_grid_and_single_agree(self):
        rho0 = initial_density(BellPsi(+1)).matrix
        grid = integrate_master_grid(rho0, QUIET, [0.1, 0.2, 0.4])
        single = integrate_master_grid(rho0, QUIET, [0.4])[0]
        assert np.allclose(grid[-1], single, atol=1e-14)

    def test_fourth_order_convergence(self):
        # halving the step of a quiet run divides the error by about 2^4
        prm = CavityParams(gamma1=1.0, gamma2=1.0, chi11=2.0, chi22=2.0, chi12=5.0)
        rho0 = initial_density(BellLike()).matrix
        exact = propagate(rho0, prm, 0.2).matrix
        keep = _kept_indices(rho0, 2)
        errs = []
        for h in (0.002, 0.001):
            out = np.zeros(16, dtype=complex)
            out[keep] = _evolve_kept(rho0.reshape(-1)[keep], prm, 2, keep, np.array([0.2]), h)[0]
            errs.append(linalg.trace_distance(out.reshape(4, 4), exact))
        assert 14.0 < errs[0] / errs[1] < 18.0

    def test_trace_is_preserved(self, rng):
        rho0 = random_density_matrix(rng).matrix
        out = integrate_master_grid(rho0, QUIET, [1.0])[0]
        assert np.trace(out).real == pytest.approx(1.0, abs=1e-10)

    def test_default_step_respects_stability_guard(self):
        for prm in (QUIET, CavityParams(gamma1=30.0, chi11=50.0, chi22=50.0, chi12=50.0)):
            for fd in (2, 3, 4, 6):
                h = _default_step(prm, fd)
                gmax = max(prm.gamma1, prm.gamma2)
                chi_max = max(abs(prm.chi11), abs(prm.chi22), abs(prm.chi12))
                assert (gmax + 2.0 * chi_max * fd ** 2) * h <= 0.1

    def test_rates_whose_step_underflows_are_rejected(self):
        rho0 = initial_density(BellPsi(+1)).matrix
        with pytest.raises(ValueError, match="rates too large for the oracle"):
            integrate_master_grid(rho0, CavityParams(chi12=1e308), [0.1])

    def test_times_must_increase(self):
        rho0 = initial_density(BellPsi(+1)).matrix
        with pytest.raises(ValueError, match="increasing"):
            integrate_master_grid(rho0, QUIET, [0.2, 0.1])

    @pytest.mark.parametrize("times, shape", [(0.5, r"\(\)"), ([[0.1, 0.2]], r"\(1, 2\)")])
    def test_times_must_be_one_dimensional(self, times, shape):
        rho0 = initial_density(BellPsi(+1)).matrix
        with pytest.raises(ValueError, match=rf"^times must be a 1-d sequence, got shape {shape}$"):
            integrate_master_grid(rho0, QUIET, times)

    @pytest.mark.parametrize("times", [[0.1, math.nan], [math.nan], [0.1, math.inf]])
    def test_times_must_be_finite(self, times):
        rho0 = initial_density(BellPsi(+1)).matrix
        with pytest.raises(ValueError, match="finite"):
            integrate_master_grid(rho0, QUIET, times)
        with pytest.raises(ValueError, match="finite"):
            Trajectory(np.array(times), [None] * len(times), QUIET, BellPsi(+1), "analytic")

    @pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.0, -math.inf)])
    def test_rho0_must_be_finite(self, bad):
        rho0 = np.array(initial_density(BellPsi(+1)).matrix)
        rho0[1, 2] = bad
        with pytest.raises(ValueError, match="rho0 has non-finite entries"):
            integrate_master_grid(rho0, QUIET, [0.1, 0.2])
        with pytest.raises(ValueError, match="rho0 has non-finite entries"):
            integrate_master_grid(rho0, QUIET, [0.1])

    def test_fock_dim_must_be_at_least_two(self):
        with pytest.raises(ValueError, match="fock_dim"):
            integrate_master_grid(np.eye(1), QUIET, [0.1], fock_dim=1)

    @pytest.mark.parametrize("fock_dim, message", [
        (1, "fock_dim must be at least 2, got 1"),
        (2.0, "fock_dim must be a whole number, got 2.0"),
        (17, "fock_dim must be at most 16, got 17"),
        (10 ** 200, "fock_dim must be at most 16, got 1" + "0" * 200),
    ])
    def test_fock_dim_rule_is_the_one_validate_run_applies(self, fock_dim, message):
        # checked before rho0 is read, so a huge fock_dim allocates nothing
        with pytest.raises(ValueError, match=f"^{message}$"):
            integrate_master_grid(np.eye(4), QUIET, [0.1], fock_dim=fock_dim)
        with pytest.raises(ValueError, match=f"^{message}$"):
            validate_run(BellLike(), QUIET, 1.0, 3, "oracle", fock_dim)

    def test_thermal_steady_state_is_truncated_geometric(self):
        # detailed balance fixes p(n+1)/p(n) = nbar/(nbar+1) even when truncated
        nbar = 0.4
        fd = 4
        prm = CavityParams(gamma1=6.0, gamma2=6.0, chi12=0.0, nbar1=nbar, nbar2=nbar)
        d = fd * fd
        rho0 = np.zeros((d, d), dtype=complex)
        rho0[0, 0] = 1.0
        out = integrate_master_grid(rho0, prm, [8.0], fock_dim=fd)[0]
        mode1 = np.diag(out).real.reshape(fd, fd).sum(axis=1)
        ratio = nbar / (nbar + 1.0)
        want = ratio ** np.arange(fd)
        want /= want.sum()
        assert np.allclose(mode1, want, atol=1e-6)


def coherence_orders(fock_dim):
    """(m1 - n1, m2 - n2) of every row-major vec(rho) index, as two flat arrays."""
    m1, m2, n1, n2 = np.indices((fock_dim,) * 4).reshape(4, -1)
    return m1 - n1, m2 - n2


def rk4_step_matrix(lmat, h):
    """One classic RK4 step of the constant generator ``lmat``: the degree-4 Taylor polynomial of exp(h L)."""
    eye = np.eye(lmat.shape[0], dtype=complex)
    hl = h * lmat
    m = eye + hl
    term = hl
    for k in (2.0, 3.0, 4.0):
        term = term @ hl / k
        m = m + term
    return m


def dense_rk4_grid(rho0, params, times, fock_dim):
    """The oracle's RK4 recurrence on the whole of vec(rho), with the default step."""
    lmat = _liouvillian(_operators(params, fock_dim), np.arange(fock_dim ** 4))
    step = _default_step(params, fock_dim)
    d = fock_dim * fock_dim
    v = np.array(rho0, dtype=complex).reshape(-1)
    out, prev, cache = [], 0.0, {}
    for target in times:
        span = target - prev
        if span > 0:
            n = max(1, math.ceil(span / step))
            h = span / n
            if h not in cache:
                cache[h] = rk4_step_matrix(lmat, h)
            for _ in range(n):
                v = cache[h] @ v
        out.append(v.reshape(d, d).copy())
        prev = target
    return out


THERMAL = CavityParams(gamma1=4.0, gamma2=3.0, chi11=2.0, chi22=-1.5, chi12=20.0,
                       nbar1=0.3, nbar2=0.2)
# THERMAL's rates with quiet reservoirs: the runs that step RK4
COLD = dataclasses.replace(THERMAL, nbar1=0.0, nbar2=0.0)
# how far a warm run, evolved exactly, may sit from the RK4 recurrence at the
# default step: RK4's own truncation error, measured at 8.0e-12 on the
# order-two coherence below; RK4 itself meets it at 0
RK4_BOUND = 1e-10


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


def dense_exact_grid(rho0, params, times, fock_dim):
    """exp(t L) vec(rho0) at every time, L the whole-space kron build, from its eigendecomposition.

    One (d, d) start gives (N, d, d), a (B, d, d) stack (B, N, d, d).
    """
    lam, vecs = np.linalg.eig(kron_liouvillian(params, fock_dim))
    rho0 = np.asarray(rho0, dtype=complex)
    coef = np.linalg.solve(vecs, rho0.reshape(-1, fock_dim ** 4).T)
    out = np.array([(vecs * np.exp(lam * t)) @ coef for t in times])
    return np.moveaxis(out, -1, 0).reshape(*rho0.shape[:-2], len(times), *rho0.shape[-2:])


class TestCoherenceOrders:
    @pytest.mark.parametrize("fock_dim", [2, 3, 4, 5])
    def test_liouvillian_never_couples_different_orders(self, rng, fock_dim):
        for _ in range(3):
            prm = CavityParams(gamma1=rng.uniform(0.5, 5.0), gamma2=rng.uniform(0.5, 5.0),
                               chi11=rng.uniform(-10.0, 10.0), chi22=rng.uniform(-10.0, 10.0),
                               chi12=rng.uniform(-30.0, 30.0),
                               nbar1=rng.uniform(0.05, 1.0), nbar2=rng.uniform(0.05, 1.0))
            lmat = _liouvillian(_operators(prm, fock_dim), np.arange(fock_dim ** 4))
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
            got = _liouvillian(_operators(THERMAL, fock_dim), keep)
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
        assert np.abs(got - dense_exact_grid(rho0, THERMAL, times, fd)).max() < 1e-12
        assert max(np.abs(g - w).max() for g, w in zip(got, dense_rk4_grid(rho0, THERMAL, times, fd))) < RK4_BOUND
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
        # at fock_dim 2 the box is the whole space, so a quiet run does the dense arithmetic
        rho0 = random_density_matrix(rng).matrix
        times = [0.05, 0.1, 0.2]
        got = integrate_master_grid(rho0, COLD, times, 2)
        want = dense_rk4_grid(rho0, COLD, times, 2)
        for g, w in zip(got, want):
            assert np.array_equal(g, w)

    def test_warm_qubit_space_is_the_dense_recurrence_within_the_rk4_bound(self, rng):
        rho0 = random_density_matrix(rng).matrix
        times = [0.05, 0.1, 0.2]
        got = integrate_master_grid(rho0, THERMAL, times, 2)
        assert np.abs(got - dense_exact_grid(rho0, THERMAL, times, 2)).max() < 1e-12
        assert max(np.abs(g - w).max() for g, w in zip(got, dense_rk4_grid(rho0, THERMAL, times, 2))) < RK4_BOUND


def frozen_oracle_loop(rho0, params, times, fock_dim):
    """The single-state oracle as one matrix-vector step loop, frozen as the bit-for-bit reference."""
    d = fock_dim * fock_dim
    rho = np.array(rho0, dtype=complex, copy=True)
    m1, m2, n1, n2 = np.indices((fock_dim,) * 4)
    o1, o2 = np.abs(m1 - n1), np.abs(m2 - n2)
    occupied = rho.reshape(o1.shape) != 0
    keep = np.flatnonzero((o1 <= o1[occupied].max(initial=0)) & (o2 <= o2[occupied].max(initial=0)))
    lmat = _liouvillian(_operators(params, fock_dim), keep)
    step = _default_step(params, fock_dim)
    out = []
    prev = 0.0
    v = rho.reshape(-1)[keep]
    step_cache = {}
    for target in times:
        span = target - prev
        if span > 0:
            n = max(1, math.ceil(span / step))
            h = span / n
            m = step_cache.get(h)
            if m is None:
                m = rk4_step_matrix(lmat, h)
                step_cache[h] = m
            for _ in range(n):
                v = m @ v
        snap = np.zeros((d, d), dtype=complex)
        snap.flat[keep] = v
        out.append(snap)
        prev = target
    return out


def mixed_box_stack(rng, fock_dim):
    """Separable |0>(0.6|0> + 0.8|1>), BellPsi and a random mixed state, embedded: three different boxes."""
    initials = (Separable(1.0, 0.0, 0.6, 0.8), BellPsi(+1), CustomMixed(random_density_matrix(rng)))
    return np.array([_embed_qubits(initial_density(i).matrix, fock_dim) for i in initials])


class TestStackedOracle:
    """One oracle call evolves a stack of initial states; one state keeps the matrix-vector loop."""

    @pytest.mark.parametrize("params, fock_dim, times", [
        (CavityParams(gamma1=4.0, gamma2=4.0, chi11=7.0, chi22=7.0, chi12=20.0), 2, np.linspace(0.1, 1.0, 10)),
        (COLD, 4, np.linspace(0.0, 0.3, 31)),
    ])
    def test_one_state_is_the_frozen_loop_bit_for_bit(self, rng, params, fock_dim, times):
        # quiet runs step RK4; warm ones are held to the loop by the next test
        for initial in (BellLike(), Separable(1.0, 0.0, 0.6, 0.8), CustomMixed(random_density_matrix(rng))):
            rho0 = _embed_qubits(initial_density(initial).matrix, fock_dim)
            got = integrate_master_grid(rho0, params, times, fock_dim)
            want = frozen_oracle_loop(rho0, params, times.tolist(), fock_dim)
            assert got.shape == (len(times), fock_dim ** 2, fock_dim ** 2)
            assert got.tobytes() == np.array(want).tobytes()

    def test_one_warm_state_is_the_frozen_loop_within_the_rk4_bound(self, rng):
        fd, times = 4, np.linspace(0.0, 0.3, 31)
        for initial in (BellLike(), Separable(1.0, 0.0, 0.6, 0.8), CustomMixed(random_density_matrix(rng))):
            rho0 = _embed_qubits(initial_density(initial).matrix, fd)
            got = integrate_master_grid(rho0, THERMAL, times, fd)
            want = np.array(frozen_oracle_loop(rho0, THERMAL, times.tolist(), fd))
            assert got.shape == (len(times), fd ** 2, fd ** 2)
            assert np.abs(got - want).max() < RK4_BOUND
            # entries outside the box stay exactly zero on both routes
            assert np.array_equal(got == 0, want == 0)

    @pytest.mark.parametrize("params, fock_dim, times", [
        (CavityParams(gamma1=4.0, gamma2=4.0, chi11=7.0, chi22=7.0, chi12=20.0), 2, np.linspace(0.1, 1.0, 10)),
        (THERMAL, 4, np.linspace(0.0, 0.3, 7)),
    ])
    def test_each_member_matches_its_own_call(self, rng, params, fock_dim, times):
        # a stack steps by matrix-matrix products, one state by matrix-vector
        # ones, so their roundoff differs: within 1e-14 over the verify grid at
        # fock_dim 2, and within one unit roundoff per RK4 step over the 5295
        # steps of the thermal run (6e-14 measured)
        tol = 1e-14 if fock_dim == 2 else math.ceil(times[-1] / _default_step(params, fock_dim)) * np.finfo(float).eps
        stack = mixed_box_stack(rng, fock_dim)
        if fock_dim == 2:
            stack = np.concatenate([stack, [initial_density(f).matrix for f in (BellLike(), WernerPhi(0.4))]])
        got = integrate_master_grid(stack, params, times, fock_dim)
        assert got.shape == (len(stack), len(times), fock_dim ** 2, fock_dim ** 2)
        for member, rho0 in zip(got, stack):
            assert np.max(np.abs(member - integrate_master_grid(rho0, params, times, fock_dim))) <= tol

    def test_a_mixed_box_stack_keeps_each_members_box(self, rng):
        fd = 4
        stack = mixed_box_stack(rng, fd)
        got = integrate_master_grid(stack, THERMAL, [0.05, 0.2], fd)
        sizes = []
        for member, rho0 in zip(got, stack):
            outside = np.ones(fd ** 4, dtype=bool)
            outside[_kept_indices(rho0, fd)] = False
            sizes.append(int(outside.sum()))
            assert np.all(member.reshape(2, -1)[:, outside] == 0)
        # the separable member's box is the smallest, so its zeros are not the union's
        assert sizes[0] > sizes[1] == sizes[2] > 0
        assert len(_kept_indices(stack, fd)) == fd ** 4 - sizes[1]

    def test_a_non_finite_member_is_named(self):
        stack = np.array([initial_density(f).matrix for f in (BellPsi(+1), BellLike(), PlusPlus())])
        stack[2, 1, 2] = math.nan
        with pytest.raises(ValueError, match=r"^rho0 has non-finite entries in state 2$"):
            integrate_master_grid(stack, QUIET, [0.1])

    @pytest.mark.parametrize("shape", [(2, 4, 4), (1, 2, 16, 16), (16,), (3, 16, 15)])
    def test_a_wrong_shaped_stack_is_named(self, shape):
        with pytest.raises(ValueError, match=rf"^rho0 has shape \({', '.join(map(str, shape))},?\), expected"
                                             r" \(16, 16\) or \(B, 16, 16\) for fock_dim 4$"):
            integrate_master_grid(np.zeros(shape), THERMAL, [0.1], fock_dim=4)

    def test_trace_drift_names_the_member(self):
        rho0 = initial_density(BellLike()).matrix
        with pytest.raises(RuntimeError, match=r"^trace drifted by \S+ for state 1 during integration$"):
            integrate_master_grid(np.array([rho0, 1e8 * rho0]), QUIET, [0.1, 0.5])
        with pytest.raises(RuntimeError, match=r"^trace drifted by \S+ during integration$"):
            integrate_master_grid(1e8 * rho0, QUIET, [0.1, 0.5])


class TestWarmOracle:
    """Warm reservoirs are evolved by each coherence sector's exact propagator, not by RK4."""

    TIMES = [0.0, 0.05, 0.2, 0.5, 1.0]

    @pytest.mark.parametrize("fock_dim", [3, 4])
    @pytest.mark.parametrize("initial", [BellLike(), BellPhi(-1)], ids=["bell_like", "bell_phi"])
    def test_one_state_is_the_dense_exponential(self, initial, fock_dim):
        rho0 = _embed_qubits(initial_density(initial).matrix, fock_dim)
        got = integrate_master_grid(rho0, THERMAL, self.TIMES, fock_dim)
        assert np.abs(got - dense_exact_grid(rho0, THERMAL, self.TIMES, fock_dim)).max() <= 1e-12
        # t = 0 is the start itself, and a sector that starts empty stays exactly zero:
        # Bell-phi fills only the orders (0, 0), (1, 1) and (-1, -1) of its box
        assert np.array_equal(got[0], rho0)
        d1, d2 = (o.reshape(fock_dim ** 2, fock_dim ** 2) for o in coherence_orders(fock_dim))
        empty = (d1 != d2) if isinstance(initial, BellPhi) else (np.abs(d1) > 1) | (np.abs(d2) > 1)
        assert np.all(got[:, empty] == 0)
        assert np.any(got[-1][~empty] != 0)

    @pytest.mark.parametrize("fock_dim", [3, 4])
    def test_a_stack_is_the_dense_exponential_of_each_member(self, rng, fock_dim):
        stack = np.concatenate([mixed_box_stack(rng, fock_dim),
                                [_embed_qubits(initial_density(BellPhi(+1)).matrix, fock_dim)]])
        got = integrate_master_grid(stack, THERMAL, self.TIMES, fock_dim)
        assert got.shape == (len(stack), len(self.TIMES), fock_dim ** 2, fock_dim ** 2)
        assert np.abs(got - dense_exact_grid(stack, THERMAL, self.TIMES, fock_dim)).max() <= 1e-12

    def test_quiet_limit_is_the_analytic_propagator(self):
        # nbar = 1e-12 takes the exponential path; the qubit block must then be the quiet state
        warm = CavityParams(gamma1=4.0, gamma2=3.0, chi11=7.0, chi22=0.0, chi12=20.0, nbar1=1e-12, nbar2=1e-12)
        assert not warm.quiet
        traj = trajectory(BellLike(), warm, 1.0, 41, engine="oracle", fock_dim=4)
        quiet = dataclasses.replace(warm, nbar1=0.0, nbar2=0.0)
        exact = propagate(initial_density(BellLike()), quiet, traj.times)
        assert np.abs(traj.states.matrix - exact.matrix).max() <= 1e-8

    def test_gibbs_limit_is_the_truncated_product_state(self):
        # detailed balance holds in the truncated space, so every start relaxes to the
        # normalized product of p_n ~ (nbar / (1 + nbar))**n per mode
        fd = 6
        warm = CavityParams(gamma1=4.0, gamma2=3.0, chi11=2.0, chi22=-1.5, chi12=20.0, nbar1=0.4, nbar2=0.25)
        rho0 = np.diag(np.diag(_embed_qubits(initial_density(BellLike()).matrix, fd)))
        got = integrate_master_grid(rho0, warm, [30.0], fock_dim=fd)[0]
        p1, p2 = ((nbar / (1.0 + nbar)) ** np.arange(fd) for nbar in (warm.nbar1, warm.nbar2))
        gibbs = np.diag(np.kron(p1 / p1.sum(), p2 / p2.sum()))
        assert np.abs(got - gibbs).max() <= 1e-10

    def test_quiet_runs_build_the_box_and_warm_runs_each_occupied_sector(self, monkeypatch):
        from kerrdeco import evolution
        sizes, build = [], evolution._liouvillian
        monkeypatch.setattr(evolution, "_liouvillian", lambda *a: sizes.append(len(a[1])) or build(*a))
        fd = 4
        # a Bell-like start occupies all nine signed sectors of its box, Bell-phi three
        for initial, sectors in ((BellLike(), [(a, b) for a in (-1, 0, 1) for b in (-1, 0, 1)]),
                                 (BellPhi(+1), [(0, 0), (1, 1), (-1, -1)])):
            rho0 = _embed_qubits(initial_density(initial).matrix, fd)
            sizes.clear()
            integrate_master_grid(rho0, COLD, [0.1], fock_dim=fd)
            assert sizes == [100]
            sizes.clear()
            integrate_master_grid(rho0, THERMAL, [0.1], fock_dim=fd)
            assert sorted(sizes) == sorted((fd - abs(a)) * (fd - abs(b)) for a, b in sectors)


def spy(monkeypatch, name):
    """Wrap ``evolution.<name>`` so that each call's positional arguments are recorded in the returned list."""
    from kerrdeco import evolution
    calls, real = [], getattr(evolution, name)
    monkeypatch.setattr(evolution, name, lambda *a: calls.append(a) or real(*a))
    return calls


class TestWarmDoubling:
    """On exactly ``np.linspace(0, T, N)`` a warm run reaches every time from one propagator per sector by doubling;
    any other grid is applied one time at a time."""

    @pytest.mark.parametrize("n", [401, 2 ** 8 + 1, 2])
    def test_a_uniform_grid_is_the_dense_exponential(self, monkeypatch, n):
        powers = spy(monkeypatch, "_powers")
        rho0 = _embed_qubits(initial_density(BellLike()).matrix, 4)
        times = np.linspace(0.0, 1.0, n)
        got = integrate_master_grid(rho0, THERMAL, times, 4)
        assert len(powers) == 9
        assert np.abs(got - dense_exact_grid(rho0, THERMAL, times, 4)).max() <= 1e-12
        assert np.array_equal(got[0], rho0)

    def test_a_stack_on_a_uniform_grid_is_the_dense_exponential(self, monkeypatch, rng):
        powers = spy(monkeypatch, "_powers")
        stack = np.concatenate([mixed_box_stack(rng, 4), [_embed_qubits(initial_density(BellPhi(+1)).matrix, 4)]])
        times = np.linspace(0.0, 0.8, 101)
        got = integrate_master_grid(stack, THERMAL, times, 4)
        assert powers and all(u.ndim == 2 and u.shape[1] == len(stack) for _, u, _ in powers)
        assert got.shape == (len(stack), len(times), 16, 16)
        assert np.abs(got - dense_exact_grid(stack, THERMAL, times, 4)).max() <= 1e-12

    @pytest.mark.parametrize("times", [
        np.linspace(0.1, 1.0, 10),  # does not start at 0
        [0.0, 0.1, 0.25, 0.3, 0.7],  # uneven spans
        np.r_[0.0, 0.1, np.nextafter(0.2, 1.0), 0.3],  # one ulp off the linspace grid
        [0.0],
        [0.4],
    ], ids=["late_start", "uneven", "last_bits", "start_only", "one_point"])
    def test_any_other_grid_is_applied_one_time_at_a_time(self, monkeypatch, times):
        powers = spy(monkeypatch, "_powers")
        rho0 = _embed_qubits(initial_density(BellLike()).matrix, 4)
        got = integrate_master_grid(rho0, THERMAL, times, 4)
        assert powers == []
        assert np.abs(got - dense_exact_grid(rho0, THERMAL, times, 4)).max() <= 1e-12

    def test_one_propagator_per_sector_and_the_operators_once(self, monkeypatch):
        expm, destroy = spy(monkeypatch, "_expm"), spy(monkeypatch, "_destroy")
        traj = trajectory(BellLike(), THERMAL, 1.0, 401, engine="oracle", fock_dim=4)
        assert len(traj.times) == 401
        # a Bell-like start occupies nine sectors; each forms one (K, K) propagator, not one per distinct span
        assert len(expm) == 9 and all(a.ndim == 2 for a, in expm)
        assert len(destroy) == 1

    def test_quiet_limit_holds_off_the_uniform_grid(self):
        # TestWarmOracle holds it on the grid trajectory builds
        times = np.linspace(0.0, 1.0, 41)[[0, 1, 5, 17, 40]]
        warm = CavityParams(gamma1=4.0, gamma2=3.0, chi11=7.0, chi22=0.0, chi12=20.0, nbar1=1e-12, nbar2=1e-12)
        got = integrate_master_grid(_embed_qubits(initial_density(BellLike()).matrix, 4), warm, times, 4)
        block = got[:, [0, 1, 4, 5]][:, :, [0, 1, 4, 5]]
        block /= np.trace(block, axis1=-2, axis2=-1)[:, None, None]
        quiet = dataclasses.replace(warm, nbar1=0.0, nbar2=0.0)
        assert np.abs(block - propagate(initial_density(BellLike()), quiet, times).matrix).max() <= 1e-8


class TestGeneratorBound:
    @pytest.mark.parametrize("fock_dim", [2, 3, 4, 5, 6])
    def test_it_is_at_least_the_whole_space_generators_1_norm(self, rng, fock_dim):
        for _ in range(12 if fock_dim < 6 else 4):
            # log-uniform rates, each zero one time in five, Kerr couplings of either sign
            rates = 10.0 ** rng.uniform(-3.0, 3.0, 7) * (rng.random(7) < 0.8) * [1, 1, *rng.choice([-1, 1], 3), 1, 1]
            prm = CavityParams(*rates)
            lmat = _liouvillian(_operators(prm, fock_dim), np.arange(fock_dim ** 4))
            assert np.abs(lmat).sum(axis=0).max() <= _generator_bound(prm, fock_dim)


WARM_STARTS = [BellLike(), BellPhi(-1), WernerLike(0.6), PlusPlus(), Separable(0.6, 0.8, 1, 0)]
RATE_NAMES = [f.name for f in dataclasses.fields(CavityParams)]


class TestWarmRequests:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2 ** 32 - 1))
    def test_a_warm_request_is_rejected_alike_naming_a_rate_or_returns_finite_states(self, seed):
        rng = np.random.default_rng(seed)
        # the largest rate's decimal exponent, up to 8 half the time and up to 300 otherwise, and each
        # rate log-uniform up to twelve decades below it
        top = rng.uniform(-3.0, 8.0 if rng.random() < 0.5 else 300.0)
        rates = 10.0 ** (top - rng.uniform(0.0, 12.0, 7))
        # gamma and chi may vanish and chi takes either sign; nbar never vanishes, so every request is warm
        rates[:5] *= rng.random(5) < 0.8
        rates[2:5] *= rng.choice([-1.0, 1.0], 3)
        t_max, fock_dim = 10.0 ** rng.uniform(-3.0, 2.0), int(rng.integers(2, 7))
        initial = WARM_STARTS[rng.integers(len(WARM_STARTS))]
        params = CavityParams(*rates.tolist())
        try:
            validate_run(initial, params, t_max, 3, "oracle", fock_dim)
        except ValueError as exc:
            with pytest.raises(ValueError) as again:
                trajectory(initial, params, t_max, 3, engine="oracle", fock_dim=fock_dim)
            assert str(again.value) == str(exc)
            named = [name for name in RATE_NAMES if f"{name} = " in str(exc)]
            assert named == RATE_NAMES or (fock_dim < 4 and "fock_dim >= 4" in str(exc))
            return
        start = time.perf_counter()
        traj = trajectory(initial, params, t_max, 3, engine="oracle", fock_dim=fock_dim)
        assert time.perf_counter() - start < 2.0
        assert np.isfinite(traj.states.matrix).all()


def extract_qubits(big, fock_dim):
    """The renormalized qubit blocks of an (N, d, d) oracle result, frozen as the bit-for-bit reference for the
    states an oracle ``trajectory`` returns, however it comes to form them."""
    idx = [m1 * fock_dim + m2 for m1 in (0, 1) for m2 in (0, 1)]
    rows, cols = np.ix_(idx, idx)
    block = np.ascontiguousarray(big[:, rows, cols])
    block = (block + block.conj().swapaxes(-1, -2)) / 2.0
    return block / np.trace(block, axis1=-2, axis2=-1).real[:, np.newaxis, np.newaxis]


class TestOracleTrajectoryBytes:
    @pytest.mark.parametrize("params, fock_dim", [(COLD, 2), (COLD, 4), (THERMAL, 4)], ids=["quiet2", "quiet4", "warm4"])
    @pytest.mark.parametrize("initial", [BellLike(), Separable(1.0, 0.0, 1.0, 0.0)], ids=["bell_like", "ground"])
    def test_trajectory_is_the_renormalized_qubit_block_bit_for_bit(self, params, fock_dim, initial):
        # the ground state keeps only its populations, so the block's coherences lie outside its box
        traj = trajectory(initial, params, 0.5, 21, engine="oracle", fock_dim=fock_dim)
        big = integrate_master_grid(_embed_qubits(initial_density(initial).matrix, fock_dim), params, traj.times,
                                    fock_dim)
        assert traj.states.matrix.tobytes() == extract_qubits(big, fock_dim).tobytes()


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

    @staticmethod
    def _bell_branches(initial, params, t):
        # the BellPsi and BellPhi branches of the closed forms before they became the p = 1 Werner forms
        g = math.exp(-params.gamma1 * t)
        m = np.zeros((4, 4), dtype=complex)
        if isinstance(initial, BellPsi):
            phase = cmath.exp(1j * (params.chi11 - params.chi22) * t)
            m[0, 0] = 1.0 - g
            m[1, 1] = m[2, 2] = g / 2.0
            m[1, 2] = initial.sign * (g / 2.0) * phase
            m[2, 1] = m[1, 2].conjugate()
        else:
            phase = cmath.exp(1j * (params.chi11 + 2.0 * params.chi12 + params.chi22) * t)
            m[0, 0] = (2.0 - 2.0 * g + g * g) / 2.0
            m[1, 1] = m[2, 2] = (1.0 - g) * g / 2.0
            m[3, 3] = g * g / 2.0
            m[0, 3] = initial.sign * (g / 2.0) * phase
            m[3, 0] = m[0, 3].conjugate()
        return m

    @pytest.mark.parametrize("params", [QUIET, CavityParams(chi11=7.0, chi22=5.0)], ids=["fig", "self_kerr"])
    @pytest.mark.parametrize("initial", [BellPsi(+1), BellPsi(-1), BellPhi(+1), BellPhi(-1)])
    def test_bell_forms_are_the_full_weight_werner_forms(self, initial, params):
        grid = np.linspace(0.0, 1.0, 401)
        want = np.array([self._bell_branches(initial, params, t) for t in grid.tolist()])
        assert np.max(np.abs(closed_form_rho(initial, params, grid).matrix - want)) <= 1e-15

    def test_werner_like_off_diagonal_scaling(self):
        full = closed_form_rho(BellLike(), QUIET, 0.2).matrix
        scaled = closed_form_rho(WernerLike(0.6), QUIET, 0.2).matrix
        off = ~np.eye(4, dtype=bool)
        assert np.allclose(scaled[off], 0.6 * full[off], atol=1e-14)
        assert np.allclose(np.diag(scaled), np.diag(full), atol=1e-14)

    def test_an_array_of_times_gives_the_single_time_matrices_as_one_read_only_stack(self):
        times = np.array([0.3, 0.0, 0.07, 1.0])  # any order
        for initial in (BellPsi(-1), BellPhi(+1), BellLike(), PlusPlus(),
                        WernerPsi(0.8, +1), WernerPhi(0.8, -1), WernerLike(0.8)):
            stack = closed_form_rho(initial, QUIET, times)
            assert isinstance(stack, DensityMatrix2Q) and stack.matrix.shape == (4, 4, 4)
            assert not stack.matrix.flags.writeable
            for t, rho in zip(times, stack.matrix):
                assert rho.tobytes() == closed_form_rho(initial, QUIET, float(t)).matrix.tobytes()
        assert closed_form_rho(BellLike(), QUIET, np.array([])).matrix.shape == (0, 4, 4)


class TestTrajectory:
    def test_engines_agree(self):
        for engine in ("analytic", "oracle", "closed_form"):
            traj = trajectory(BellPsi(+1), QUIET, 1.0, 9, engine=engine)
            assert traj.engine == engine
            assert not traj.approximate
        a = trajectory(BellPsi(+1), QUIET, 1.0, 9, engine="analytic")
        o = trajectory(BellPsi(+1), QUIET, 1.0, 9, engine="oracle")
        c = trajectory(BellPsi(+1), QUIET, 1.0, 9, engine="closed_form")
        for x, y, z in zip(a.states.matrix, o.states.matrix, c.states.matrix):
            assert linalg.trace_distance(x, y) < 1e-8
            assert np.max(np.abs(x - z)) < 1e-12

    @pytest.mark.parametrize("engine", ["analytic", "oracle", "closed_form"])
    def test_states_are_one_read_only_stack(self, engine):
        traj = trajectory(BellLike(), QUIET, 1.0, 7, engine=engine)
        assert isinstance(traj.states, DensityMatrix2Q) and traj.states.matrix.shape == (7, 4, 4)
        assert traj.states.matrix.dtype == complex and not traj.states.matrix.flags.writeable
        with pytest.raises(ValueError):
            traj.states.matrix[0, 0, 0] = 1.0

    def test_closed_form_stack_holds_the_single_time_matrices(self):
        traj = trajectory(WernerLike(0.7), QUIET, 1.0, 9, engine="closed_form")
        for t, rho in zip(traj.times, traj.states.matrix):
            assert rho.tobytes() == closed_form_rho(WernerLike(0.7), QUIET, float(t)).matrix.tobytes()

    def test_grid_shape(self):
        traj = trajectory(BellLike(), QUIET, 0.5, 11)
        assert len(traj.times) == len(traj.states.matrix) == 11
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
        final = traj.states.matrix[-1]
        assert final[3, 3].real > 1e-3

    def test_approximate_follows_the_reservoirs(self):
        traj = trajectory(BellPsi(+1), QUIET, 0.5, 5)
        assert traj.approximate is False
        with pytest.raises(AttributeError):
            traj.approximate = True

    def test_an_oracle_run_past_the_step_cap_fails_at_the_boundary(self):
        huge = CavityParams(chi12=1e200)
        message = (r"^rates too large for the oracle at fock_dim 2: reaching t = 1 takes 4e\+202 RK4 steps, "
                   r"above the cap of 1000000, at gamma1 = 4, gamma2 = 4, chi11 = 0, chi22 = 0, chi12 = 1e\+200$")
        with pytest.raises(ValueError, match=message):
            trajectory(BellLike(), huge, 1.0, 3, engine="oracle")
        with pytest.raises(ValueError, match="above the cap of 1000000"):
            integrate_master_grid(initial_density(BellLike()).matrix, huge, [0.5, 1.0])
        # the other engines take no RK4 steps
        validate_run(BellLike(), huge, 1.0, 3, "analytic")

    def test_an_oracle_run_past_the_work_cap_fails_at_the_boundary(self):
        # fock_dim 16 keeps K = 2116 entries of a Bell-like start: 9.2e5 steps pass the step cap,
        # but each is a 2116 x 2116 product, hours of stepping
        message = (r"^oracle run too large at fock_dim 16: 9.22e\+05 RK4 steps to t = 9, 2116 kept entries "
                   r"and 1 state\(s\) make 4.13e\+12, above the cap of 2.9e\+10$")
        with pytest.raises(ValueError, match=message):
            validate_run(BellLike(), CavityParams(), 9.0, 401, "oracle", 16)
        with pytest.raises(ValueError, match="2116 kept entries and 1 state"):
            trajectory(BellLike(), CavityParams(), 1.0, 401, engine="oracle", fock_dim=16)

    def test_the_work_cap_counts_every_state_of_a_stack(self):
        # fock_dim 4 keeps K = 100 entries of a Bell-like start; t = 1 takes 16250 steps, 1.6e8 per state
        big = _embed_qubits(initial_density(BellLike()).matrix, 4)
        assert len(_kept_indices(big, 4)) == 100
        _checked_step(QUIET, 4, 1.0, 100, 150)
        with pytest.raises(ValueError, match="100 kept entries and 200 state"):
            _checked_step(QUIET, 4, 1.0, 100, 200)
        with pytest.raises(ValueError, match="100 kept entries and 200 state"):
            integrate_master_grid(np.stack([big] * 200), QUIET, [0.5, 1.0], fock_dim=4)

    def test_the_work_cap_holds_only_for_runs_that_step_rk4(self):
        # an embedded Bell-like start at fock_dim 6 keeps K = 256 entries; to t = 30 a quiet run makes
        # 5.18e10 RK4 work, while a warm one takes no RK4 steps and passes
        warm = CavityParams(gamma1=4.0, gamma2=3.0, chi11=2.0, chi22=-1.5, chi12=20.0, nbar1=0.4, nbar2=0.25)
        quiet = dataclasses.replace(warm, nbar1=0.0, nbar2=0.0)
        with pytest.raises(ValueError, match=r"256 kept entries and 1 state\(s\) make 5.18e\+10, above the cap"):
            validate_run(BellLike(), quiet, 30.0, 401, "oracle", 6)
        validate_run(BellLike(), warm, 30.0, 401, "oracle", 6)
        rho0 = _embed_qubits(initial_density(BellLike()).matrix, 6)
        got = integrate_master_grid(rho0, warm, np.linspace(0.0, 30.0, 401), fock_dim=6)
        assert np.abs(np.trace(got, axis1=-2, axis2=-1) - 1.0).max() <= 1e-12
        # and it relaxes to the truncated Gibbs state, coherences included
        p1, p2 = ((nbar / (1.0 + nbar)) ** np.arange(6) for nbar in (warm.nbar1, warm.nbar2))
        assert np.abs(got[-1] - np.diag(np.kron(p1 / p1.sum(), p2 / p2.sum()))).max() <= 1e-10

    def test_each_cap_admits_the_largest_shipped_run_and_sits_where_stated(self):
        # the thermal workload at fock_dim 5, 401 points to t_max 1: t times the generator's norm bound is 2160
        thermal = CavityParams(nbar1=0.5, nbar2=0.5)
        assert 1e3 < _generator_bound(thermal, 5) < _MAX_WARM_NORM / 100
        validate_run(BellLike(), thermal, 1.0, 401, "oracle", 5)
        for params, fock_dim, t_cap in ((QUIET, 2, _MAX_RK4_STEPS * _default_step(QUIET, 2)),
                                        (thermal, 5, _MAX_WARM_NORM / _generator_bound(thermal, 5))):
            validate_run(BellLike(), params, t_cap, 3, "oracle", fock_dim)
            with pytest.raises(ValueError, match="above the cap"):
                validate_run(BellLike(), params, t_cap * (1 + 1e-9), 3, "oracle", fock_dim)

    def test_a_warm_run_past_its_cap_fails_at_the_boundary_naming_every_rate(self):
        # before its own cap, nbar1 = 1e8 passed the RK4 step cap and its trace then drifted by 6e-7
        huge = CavityParams(nbar1=1e8)
        message = (r"^rates too large for the oracle at fock_dim 4: reaching t = 1 takes t times the generator's norm "
                   r"bound, 6.4e\+09, above the cap of 1.5e\+06, at gamma1 = 4, gamma2 = 4, chi11 = 0, chi22 = 0, "
                   r"chi12 = 20, nbar1 = 1e\+08, nbar2 = 0$")
        with pytest.raises(ValueError, match=message):
            trajectory(BellLike(), huge, 1.0, 401, engine="oracle", fock_dim=4)
        with pytest.raises(ValueError, match=r"above the cap of 1.5e\+06"):
            integrate_master_grid(_embed_qubits(initial_density(BellLike()).matrix, 4), huge, [0.5, 1.0], fock_dim=4)
        # rates whose bound overflows a float, or makes 0 * inf, are rejected too
        for params in (CavityParams(gamma1=1e300, nbar1=1e300), CavityParams(gamma1=0.0, nbar1=1e308)):
            with pytest.raises(ValueError, match="above the cap"):
                validate_run(BellLike(), params, 1.0, 3, "oracle", 4)

    def test_a_strong_kerr_coupling_runs_warm_within_1e_8_of_the_quiet_limit(self):
        # 1.6e7 RK4 steps would reach t = 1, above the RK4 step cap; a warm run takes none, and t times
        # its generator's norm bound is 1.28e6, under the warm cap (quiet-limit gap 1.9e-12 measured)
        traj = trajectory(BellLike(), CavityParams(chi12=2e4, nbar1=0.1), 1.0, 401, engine="oracle", fock_dim=4)
        assert np.isfinite(traj.states.matrix).all()
        warm = CavityParams(chi12=2e4, nbar1=1e-12, nbar2=1e-12)
        traj = trajectory(BellLike(), warm, 1.0, 401, engine="oracle", fock_dim=4)
        quiet = dataclasses.replace(warm, nbar1=0.0, nbar2=0.0)
        exact = propagate(initial_density(BellLike()), quiet, traj.times)
        assert np.abs(traj.states.matrix - exact.matrix).max() <= 1e-8
        with pytest.raises(ValueError, match=r"1.6e\+07 RK4 steps"):
            validate_run(BellLike(), quiet, 1.0, 401, "oracle", 4)

    def test_warm_runs_never_take_the_rk4_step_and_validate_without_the_kept_box(self, monkeypatch):
        steps, boxes = spy(monkeypatch, "_default_step"), spy(monkeypatch, "_kept_indices")
        validate_run(BellLike(), THERMAL, 1.0, 401, "oracle", 4)
        assert steps == [] and boxes == []
        trajectory(BellLike(), THERMAL, 1.0, 401, engine="oracle", fock_dim=4)
        integrate_master_grid(_embed_qubits(initial_density(BellPhi(+1)).matrix, 4), THERMAL, [0.1, 0.5], 4)
        # the kernel still keeps the box, once per run
        assert steps == [] and len(boxes) == 2
        validate_run(BellLike(), COLD, 1.0, 401, "oracle", 4)
        assert len(steps) == 1 and len(boxes) == 3

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
            Trajectory(np.array([0.0, 0.1]), [np.eye(4) / 4.0], QUIET, BellPsi(+1), "analytic")
        with pytest.raises(ValueError, match=r"\(N, 4, 4\)"):
            Trajectory(np.array([0.0, 0.1]), np.zeros((2, 2, 2)), QUIET, BellPsi(+1), "analytic")
        with pytest.raises(ValueError, match=r"\(N, 4, 4\)"):
            Trajectory(np.array([0.0, 0.1]), [None, None], QUIET, BellPsi(+1), "analytic")
        with pytest.raises(ValueError, match=r"\(N, 4, 4\) stack matching the 4 times"):
            Trajectory(np.arange(4.0), np.eye(4) / 4.0, QUIET, BellPsi(+1), "analytic")

    def test_a_hand_built_stack_is_checked_and_the_times_copied(self):
        times = np.array([0.0, 0.1])
        with pytest.raises(ValueError, match=r"^state 0: density matrix trace is 0j, expected 1"):
            Trajectory(times, np.zeros((2, 4, 4)), QUIET, BellPsi(+1), "analytic")
        stack = np.array([np.eye(4) / 4.0, np.diag([0.7, 0.5, -0.1, -0.1])])
        with pytest.raises(ValueError, match=r"^state 1: density matrix has negative eigenvalue"):
            Trajectory(times, stack, QUIET, BellPsi(+1), "analytic")
        traj = Trajectory(times, [np.eye(4) / 4.0] * 2, QUIET, BellPsi(+1), "analytic")
        assert isinstance(traj.states, DensityMatrix2Q) and traj.states.matrix.shape == (2, 4, 4)
        assert times.flags.writeable and not traj.times.flags.writeable


class TestTimeRule:
    """Every entry point checks a time by one rule and says so in one message."""

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -0.1])
    def test_a_bad_time_gets_one_message_from_every_entry_point(self, bad):
        rho0 = initial_density(BellPsi(+1))
        one = f"^time must be finite and nonnegative, got {bad}$"
        grid = f"^times must be finite and nonnegative, got {bad} at index 2$"
        times = [0.0, 0.1, bad]
        for takes in (
            lambda t: propagate(rho0, QUIET, t),
            lambda t: closed_form_rho(BellPsi(+1), QUIET, t),
            lambda t: bell_psi_curves(4.0, t),
            lambda t: werner_like_lossless_curve(0.5, 20.0, t),
            lambda t: unitary_pure_entanglement(bell_like(), 20.0, t),
        ):
            with pytest.raises(ValueError, match=one):
                takes(bad)
            with pytest.raises(ValueError, match=grid):
                takes(np.array(times))
        with pytest.raises(ValueError, match=grid):
            integrate_master_grid(rho0.matrix, QUIET, times)
        with pytest.raises(ValueError, match=grid):
            Trajectory(np.array(times), [None] * 3, QUIET, BellPsi(+1), "analytic")

    def test_a_bad_time_in_a_multi_dimensional_array_is_named_by_its_multi_index(self):
        with pytest.raises(ValueError, match=r"^times must be finite and nonnegative, got nan at index \(1, 1\)$"):
            bell_psi_curves(4.0, np.array([[0.0, 0.1], [0.2, math.nan]]))
        with pytest.raises(ValueError, match=r"got -1.0 at index \(0, 1, 0\)$"):
            werner_like_lossless_curve(0.5, 20.0, np.array([[[0.0], [-1.0]]]))
