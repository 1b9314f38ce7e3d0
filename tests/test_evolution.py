import cmath
import dataclasses
import math
import time
import tracemalloc
import unittest.mock
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kerrdeco import linalg
from kerrdeco.analytics import bell_psi_curves, unitary_pure_entanglement, werner_like_lossless_curve
from kerrdeco.evolution import (
    _MAX_ANALYTIC_SCALE, _MAX_FOCK_DIM, _MAX_RK4_STEPS, _MAX_WARM_NORM,
    CavityParams, Trajectory, _checked_step, _checked_warm, _default_step, _evolve_kept, _evolve_sectors, _expm,
    _generator_bound, _liouvillian, _sector_blocks,
    closed_form_reason, closed_form_rho, integrate_master_grid, propagate, rj_factor, trajectory, validate_run,
)
from kerrdeco.states import (
    BellLike, BellPhi, BellPsi, CustomMixed, CustomPure, DensityMatrix2Q, PlusPlus, PureState2Q, Separable, WernerLike,
    WernerPhi, WernerPsi, bell_like, initial_densities, initial_density, random_density_matrix, random_pure_state,
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

    def test_numpy_scalar_rates_are_stored_as_floats(self):
        p = CavityParams(gamma1=np.float64(3.5), chi12=np.float32(20.0), nbar1=np.int64(0), nbar2=1)
        assert all(type(getattr(p, f.name)) is float for f in dataclasses.fields(p))
        assert p == CavityParams(gamma1=3.5, nbar2=1.0)

    def test_huge_numpy_scalar_rates_are_rejected_by_name_without_a_warning(self):
        huge = CavityParams(gamma1=np.float64(1e300), nbar1=np.float64(1e300))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"gamma1 = 1e\+300, .*nbar1 = 1e\+300"):
                validate_run(BellLike(), huge, 1.0, 3, "oracle", 4)
            with pytest.raises(ValueError, match=r"chi12 = 1e\+308"):
                validate_run(BellLike(), CavityParams(chi12=np.float64(1e308)), 1.0, 3, "oracle", 4)


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
        errs = []
        for h in (0.002, 0.001):
            out = _evolve_kept(rho0.reshape(-1), prm, np.array([0.2]), h)[0]
            errs.append(linalg.trace_distance(out.reshape(4, 4), exact))
        assert 14.0 < errs[0] / errs[1] < 18.0

    def test_trace_is_preserved(self, rng):
        rho0 = random_density_matrix(rng).matrix
        out = integrate_master_grid(rho0, QUIET, [1.0])[0]
        assert np.trace(out).real == pytest.approx(1.0, abs=1e-10)

    def test_default_step_respects_stability_guard(self):
        # a quiet run stays on the qubit levels, where the stability scale is the fastest damping plus 8 chi_max
        for prm in (QUIET, CavityParams(gamma1=30.0, chi11=50.0, chi22=50.0, chi12=50.0)):
            h = _default_step(prm)
            gmax = max(prm.gamma1, prm.gamma2)
            chi_max = max(abs(prm.chi11), abs(prm.chi22), abs(prm.chi12))
            assert (gmax + 8.0 * chi_max) * h <= 0.1
            assert h == rk4_step(prm, 2)

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(gammas=st.tuples(st.floats(0.0, 100.0), st.floats(0.0, 100.0)), seed=st.integers(0, 2 ** 32 - 1))
    def test_a_zero_kerr_run_stays_within_the_stated_worst(self, gammas, seed):
        # the step is longest at vanishing Kerr couplings; |11> is the worst start there, a random pure one beside it
        params, times = CavityParams(*gammas, 0.0, 0.0, 0.0), np.linspace(0.0, 1.0, 41)
        starts = initial_densities([Separable(0.0, 1.0, 0.0, 1.0),
                                    CustomPure(random_pure_state(np.random.default_rng(seed)))])
        got = integrate_master_grid(starts.matrix, params, times)
        assert linalg.trace_distance(got, propagate(starts, params, times).matrix).max() <= 1.3e-8

    def test_the_worst_zero_kerr_start_is_past_the_verify_oracle_bound(self):
        # 1.28e-8 at gamma 23, the worst of gamma1 = gamma2 in [0, 100] by 0.05; verify allows the oracle 1e-8. A
        # shorter step would mend it, but it would move the pinned oracle bytes
        params, times = CavityParams(23.0, 23.0, 0.0, 0.0, 0.0), np.linspace(0.0, 1.0, 41)
        start = initial_density(Separable(0.0, 1.0, 0.0, 1.0))
        got = integrate_master_grid(start.matrix, params, times)
        assert 1e-8 < linalg.trace_distance(got, propagate(start, params, times).matrix).max() <= 1.3e-8

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
        # detailed balance fixes p(n+1)/p(n) = nbar/(nbar+1) even when truncated: the qubit block holds
        # p(m1) p(m2) for levels 0 and 1
        nbar = 0.4
        fd = 4
        prm = CavityParams(gamma1=6.0, gamma2=6.0, chi12=0.0, nbar1=nbar, nbar2=nbar)
        rho0 = np.zeros((4, 4), dtype=complex)
        rho0[0, 0] = 1.0
        out = integrate_master_grid(rho0, prm, [8.0], fock_dim=fd)[0]
        ratio = nbar / (nbar + 1.0)
        want = ratio ** np.arange(fd)
        want /= want.sum()
        assert np.allclose(np.diag(out).real, np.kron(want[:2], want[:2]), atol=1e-6)


def coherence_orders(fock_dim):
    """(m1 - n1, m2 - n2) of every row-major vec(rho) index, as two flat arrays."""
    m1, m2, n1, n2 = np.indices((fock_dim,) * 4).reshape(4, -1)
    return m1 - n1, m2 - n2


# (m1 - n1, m2 - n2) of every entry of a two-qubit matrix, as two (4, 4) arrays
BLOCK_ORDERS = tuple(np.subtract.outer(m, m) for m in np.divmod(np.arange(4), 2))


def qubit_rows(fock_dim):
    """The row-major indices of the qubit subspace, Fock states 0 and 1 of each mode, on the two-mode space."""
    return [m1 * fock_dim + m2 for m1 in (0, 1) for m2 in (0, 1)]


def embed_qubits(rho, fock_dim):
    """A two-qubit matrix, or each of a stack, at Fock states 0 and 1 of each mode: the start the references take."""
    big = np.zeros((*np.shape(rho)[:-2], fock_dim ** 2, fock_dim ** 2), dtype=complex)
    big[(..., *np.ix_(qubit_rows(fock_dim), qubit_rows(fock_dim)))] = rho
    return big


def qubit_block(big, fock_dim):
    """The qubit block of each (fock_dim**2, fock_dim**2) matrix of ``big``."""
    idx = qubit_rows(fock_dim)
    return np.ascontiguousarray(np.asarray(big)[..., idx, :][..., idx])


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


def rk4_step(params, fock_dim):
    """An RK4 step stable on the whole space truncated at ``fock_dim``: its stability scale is the fastest damping plus
    2 * (strongest Kerr coupling) * fock_dim**2. At fock_dim 2 it is ``_default_step``, bit for bit."""
    chi_sum = abs(params.chi11) + abs(params.chi22) + 2.0 * abs(params.chi12)
    accuracy = 0.02 / (max(params.gamma1, params.gamma2) + 2.0 * chi_sum * fock_dim + 1.0)
    chi_max = max(abs(params.chi11), abs(params.chi22), abs(params.chi12))
    scale = max(params.gamma1, params.gamma2) + 2.0 * chi_max * fock_dim ** 2
    return min(accuracy, 0.1 / (scale + 1.0))


def dense_rk4_grid(rho0, params, times, fock_dim):
    """The RK4 recurrence on the whole of vec(rho), with ``rk4_step``."""
    lmat = _liouvillian(params, fock_dim, np.arange(fock_dim ** 4))
    step = rk4_step(params, fock_dim)
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
# default step: RK4's own truncation error, measured at 3.0e-13 on the
# order-two coherence below; RK4 itself meets it at 0
RK4_BOUND = 1e-10


def kron_liouvillian(params, fock_dim):
    """The generator on the whole space from dense np.kron products."""
    a = np.diag(np.sqrt(np.arange(1.0, fock_dim)), 1).astype(complex)
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
            lmat = _liouvillian(prm, fock_dim, np.arange(fock_dim ** 4))
            d1, d2 = coherence_orders(fock_dim)
            same = (d1[:, None] == d1[None, :]) & (d2[:, None] == d2[None, :])
            assert np.all(lmat[~same] == 0)
            assert np.any(lmat[same] != 0)

    @pytest.mark.parametrize("fock_dim", [2, 3, 4, 5])
    def test_generator_built_on_the_kept_entries_is_the_sliced_kron_build(self, rng, fock_dim):
        full = kron_liouvillian(THERMAL, fock_dim)
        start = initial_density(BellLike()).matrix
        box = fock_box(embed_qubits(start, fock_dim), fock_dim)
        if fock_dim == 2:
            # a Bell-like start fills every order: its box is the 16 entries a quiet run steps
            assert box.tobytes() == np.arange(16).tobytes()
        subset = np.sort(rng.choice(fock_dim ** 4, size=fock_dim ** 3, replace=False))
        for keep in (box, subset, np.arange(fock_dim ** 4)):
            got = _liouvillian(THERMAL, fock_dim, keep)
            assert got.tobytes() == full[np.ix_(keep, keep)].tobytes()

    def test_thermal_bell_like_matches_the_dense_recurrence(self):
        fd = 4
        rho0 = initial_density(BellLike()).matrix
        times = list(np.linspace(0.0, 0.3, 7))
        got = integrate_master_grid(rho0, THERMAL, times, fd)
        want = qubit_block(dense_rk4_grid(embed_qubits(rho0, fd), THERMAL, times, fd), fd)
        assert np.abs(got - want).max() < 1e-12

    def test_order_two_coherence_is_kept(self):
        fd = 4
        # (|0,0> + i|1,1>) / sqrt(2): its coherence |1,1><0,0| has orders (1, 1), two in all
        psi = np.array([1.0, 0.0, 0.0, 1.0j]) / math.sqrt(2.0)
        rho0 = np.outer(psi, psi.conj())
        times = [0.05, 0.1]
        got = integrate_master_grid(rho0, THERMAL, times, fd)
        big = embed_qubits(rho0, fd)
        assert np.abs(got - qubit_block(dense_exact_grid(big, THERMAL, times, fd), fd)).max() < 1e-12
        assert np.abs(got - qubit_block(dense_rk4_grid(big, THERMAL, times, fd), fd)).max() < RK4_BOUND
        # the coherence survives damping, and the block's orders the start leaves empty stay exact zeros
        assert abs(got[-1][3, 0]) > 1e-2
        assert np.all(got[:, BLOCK_ORDERS[0] != BLOCK_ORDERS[1]] == 0)

    def test_population_only_start_stays_diagonal(self):
        fd = 4
        rho0 = np.diag(np.linspace(1.0, 0.1, 4)).astype(complex)
        rho0 /= np.trace(rho0)
        times = [0.1, 0.2]
        got = integrate_master_grid(rho0, THERMAL, times, fd)
        want = qubit_block(dense_rk4_grid(embed_qubits(rho0, fd), THERMAL, times, fd), fd)
        assert np.abs(got - want).max() < 1e-12
        # damping and pumping move population between Fock levels and create no coherence
        assert np.all(got[:, ~np.eye(4, dtype=bool)] == 0)
        # and keep the whole truncated space's trace, which the warm kernel sums beside the block
        assert np.abs(_evolve_sectors(rho0, THERMAL, fd, np.array(times))[1] - 1.0).max() <= 1e-10

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


def fock_box(big, fock_dim):
    """The row-major vec indices of the coherence-order box of ``big``, a matrix on the two-mode space truncated at
    ``fock_dim``: the entries whose order, in each mode, is at most the largest among the nonzero entries."""
    m1, m2, n1, n2 = np.indices((fock_dim,) * 4)
    o1, o2 = np.abs(m1 - n1), np.abs(m2 - n2)
    occupied = np.asarray(big).reshape(o1.shape) != 0
    return np.flatnonzero((o1 <= o1[occupied].max(initial=0)) & (o2 <= o2[occupied].max(initial=0)))


def frozen_oracle_loop(rho0, params, times, fock_dim, keep=None):
    """One state's RK4 oracle on the space truncated at ``fock_dim`` as one matrix-vector step loop, with ``rk4_step``,
    over the vec entries ``keep``: by default all 16 at fock_dim 2, where it is frozen as the bit-for-bit reference of
    a quiet run, and the start's ``fock_box`` above it."""
    d = fock_dim * fock_dim
    rho = np.array(rho0, dtype=complex, copy=True)
    if keep is None:
        keep = np.arange(16) if fock_dim == 2 else fock_box(rho, fock_dim)
    lmat = _liouvillian(params, fock_dim, keep)
    step = rk4_step(params, fock_dim)
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


def mixed_qubit_stack(rng):
    """Separable |0>(0.6|0> + 0.8|1>), BellPsi and a random mixed state: three different boxes."""
    initials = (Separable(1.0, 0.0, 0.6, 0.8), BellPsi(+1), CustomMixed(random_density_matrix(rng)))
    return initial_densities(initials).matrix


class TestStackedOracle:
    """One oracle call evolves a stack of initial states; one state keeps the matrix-vector loop."""

    @pytest.mark.parametrize("params, fock_dim, times", [
        (CavityParams(gamma1=4.0, gamma2=4.0, chi11=7.0, chi22=7.0, chi12=20.0), 2, np.linspace(0.1, 1.0, 10)),
        (COLD, 4, np.linspace(0.0, 0.3, 31)),
    ])
    def test_one_state_is_the_frozen_loop_bit_for_bit(self, rng, params, fock_dim, times):
        # quiet runs step RK4; warm ones are held to the loop by the next test. At every fock_dim a quiet run is the
        # fock_dim-2 run, which the loop freezes
        for initial in (BellLike(), Separable(1.0, 0.0, 0.6, 0.8), CustomMixed(random_density_matrix(rng))):
            rho0 = initial_density(initial).matrix
            got = integrate_master_grid(rho0, params, times, fock_dim)
            want = frozen_oracle_loop(rho0, params, times.tolist(), 2)
            assert got.shape == (len(times), 4, 4) and got.flags.c_contiguous
            assert got.tobytes() == qubit_block(want, 2).tobytes()

    @pytest.mark.parametrize("times", [np.linspace(0.0, 0.3, 31), np.cumsum(np.arange(1, 31) * 1e-3)],
                             ids=["uniform", "uneven"])
    def test_a_quiet_run_is_the_fock_dim_2_run_bit_for_bit_at_every_fock_dim(self, rng, times):
        # a quiet start never leaves the qubit levels: a photon only decays, so no level above 1 is ever reached
        stack = np.concatenate([mixed_qubit_stack(rng), [initial_density(BellLike()).matrix]])
        for rho0 in (*stack, stack):
            want = integrate_master_grid(rho0, COLD, times, 2).tobytes()
            for fock_dim in range(3, _MAX_FOCK_DIM + 1):
                assert integrate_master_grid(rho0, COLD, times, fock_dim).tobytes() == want

    def test_an_uneven_grid_holds_a_few_span_propagators_and_is_the_frozen_loop(self):
        # 3000 distinct spans, each with its own (16, 16) RK4 step matrix of 4 KiB, 12 MiB for all of them; the run's
        # snapshots take 1.5 MiB (1.6 MiB peak measured)
        times = np.cumsum(np.arange(1, 3001) * 1e-7)
        assert len(np.unique(np.diff(times, prepend=0.0))) == 3000
        start = initial_density(BellLike()).matrix
        integrate_master_grid(start, QUIET, times[:3], 4)
        tracemalloc.start()
        try:
            got = integrate_master_grid(start, QUIET, times, 4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2 ** 20
        want = frozen_oracle_loop(start, QUIET, times.tolist(), 2)
        assert got.tobytes() == qubit_block(want, 2).tobytes()

    def test_one_warm_state_is_the_frozen_loop_within_the_rk4_bound(self, rng):
        fd, times = 4, np.linspace(0.0, 0.3, 31)
        for initial in (BellLike(), Separable(1.0, 0.0, 0.6, 0.8), CustomMixed(random_density_matrix(rng))):
            rho0 = initial_density(initial).matrix
            got = integrate_master_grid(rho0, THERMAL, times, fd)
            want = qubit_block(frozen_oracle_loop(embed_qubits(rho0, fd), THERMAL, times.tolist(), fd), fd)
            assert got.shape == (len(times), 4, 4)
            assert np.abs(got - want).max() < RK4_BOUND
            # entries outside the box stay exactly zero on both routes
            assert np.array_equal(got == 0, want == 0)

    @pytest.mark.parametrize("params, fock_dim, times", [
        (CavityParams(gamma1=4.0, gamma2=4.0, chi11=7.0, chi22=7.0, chi12=20.0), 2, np.linspace(0.1, 1.0, 10)),
        (THERMAL, 4, np.linspace(0.0, 0.3, 7)),
    ])
    def test_each_member_matches_its_own_call(self, rng, params, fock_dim, times):
        # a quiet stack steps by matrix-matrix products, one state by matrix-vector ones, so their roundoff differs:
        # within 1e-14 over the verify grid. A warm stack takes each member's sector products apart, equal to its own
        # call's (0 measured over 30 random stacks)
        stack = mixed_qubit_stack(rng)
        if fock_dim == 2:
            stack = np.concatenate([stack, [initial_density(f).matrix for f in (BellLike(), WernerPhi(0.4))]])
        got = integrate_master_grid(stack, params, times, fock_dim)
        assert got.shape == (len(stack), len(times), 4, 4) and got.flags.c_contiguous
        for member, rho0 in zip(got, stack):
            assert np.max(np.abs(member - integrate_master_grid(rho0, params, times, fock_dim))) <= 1e-14

    def test_a_mixed_box_stack_keeps_each_members_box(self, rng):
        # a quiet stack steps all 16 entries of every member, and a warm one the sectors any member occupies; either
        # way each member's entries outside its own orders stay exactly zero
        fd = 4
        ground = initial_density(Separable(1.0, 0.0, 1.0, 0.0)).matrix
        stack = np.concatenate([mixed_qubit_stack(rng), [ground]])
        o1, o2 = np.abs(BLOCK_ORDERS)
        for params in (COLD, THERMAL):
            got = integrate_master_grid(stack, params, [0.05, 0.2], fd)
            sizes = []
            for member, rho0 in zip(got, stack):
                outside = (o1 > o1[rho0 != 0].max()) | (o2 > o2[rho0 != 0].max())
                sizes.append(int(outside.sum()))
                assert np.all(member[:, outside] == 0)
            # the separable member's box lacks mode 1's coherences, the ground state's every coherence
            assert sizes == [8, 0, 0, 12]

    def test_a_non_finite_member_is_named(self):
        stack = np.array([initial_density(f).matrix for f in (BellPsi(+1), BellLike(), PlusPlus())])
        stack[2, 1, 2] = math.nan
        with pytest.raises(ValueError, match=r"^rho0 has non-finite entries in state 2$"):
            integrate_master_grid(stack, QUIET, [0.1])

    @pytest.mark.parametrize("shape", [(1, 2, 16, 16), (16,), (3, 16, 15), (1, 2, 4, 4), (16, 16), (2, 16, 16)])
    def test_a_wrong_shaped_stack_is_named(self, shape):
        # a (4, 4) start, or a stack of them, is a two-qubit start at any fock_dim; a start on the two-mode Fock
        # space is not taken
        with pytest.raises(ValueError, match=rf"^rho0 has shape \({', '.join(map(str, shape))},?\), expected a "
                                             r"two-qubit start, \(4, 4\), or a stack of them, \(B, 4, 4\)$"):
            integrate_master_grid(np.zeros(shape), THERMAL, [0.1], fock_dim=4)

    def test_trace_drift_names_the_member(self):
        rho0 = initial_density(BellLike()).matrix
        with pytest.raises(RuntimeError, match=r"^trace drifted by \S+ for state 1 during integration$"):
            integrate_master_grid(np.array([rho0, 1e8 * rho0]), QUIET, [0.1, 0.5])
        with pytest.raises(RuntimeError, match=r"^trace drifted by \S+ during integration$"):
            integrate_master_grid(1e8 * rho0, QUIET, [0.1, 0.5])


class TestSparseStarts:
    """A quiet run steps all 16 qubit entries, also of a start that leaves some coherence orders empty."""

    TIMES = np.linspace(0.0, 1.0, 41)

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(gammas=st.tuples(st.floats(0.0, 10.0), st.floats(0.0, 10.0)).filter(lambda g: g[0] != g[1]),
           chis=st.tuples(*[st.floats(-20.0, 20.0)] * 3), seed=st.integers(0, 2 ** 32 - 1),
           rank=st.integers(1, 4), orders=st.sampled_from([(0, 0), (0, 1), (1, 0)]),
           fock_dim=st.integers(2, _MAX_FOCK_DIM))
    def test_a_sparse_start_keeps_its_empty_orders_at_zero_and_is_the_box_loop(self, gammas, chis, seed, rank,
                                                                                orders, fock_dim):
        params, rng = CavityParams(*gammas, *chis), np.random.default_rng(seed)
        # a random state of the given rank with mode j's coherences of order above orders[j] zeroed, a dephasing
        # of that mode, so still a state: population-only starts and products with a zero amplitude among them
        g = rng.standard_normal((4, rank)) + 1j * rng.standard_normal((4, rank))
        empty = (np.abs(BLOCK_ORDERS[0]) > orders[0]) | (np.abs(BLOCK_ORDERS[1]) > orders[1])
        rho0 = np.where(empty, 0.0, g @ g.conj().T)
        rho0 /= np.trace(rho0).real
        got = integrate_master_grid(rho0, params, self.TIMES, fock_dim)
        assert np.all(got[:, empty] == 0)
        # the 16-entry oracle and the analytic propagator share no code, and meet verify's oracle bound. RK4's step is
        # longest at vanishing Kerr couplings: 1.3e-9 the worst of 600 such draws, 7.0e-9 on a scan of full starts at
        # gamma 8 and 8.5 (the same with the old coherence box)
        assert linalg.trace_distance(got, propagate(rho0, params, self.TIMES).matrix).max() <= 1e-8
        # stepping the start's box alone, as a matrix-vector loop, differs only in roundoff
        box = frozen_oracle_loop(rho0, params, self.TIMES.tolist(), 2, fock_box(rho0, 2))
        assert np.abs(got - np.array(box)).max() <= 1e-13


class TestWarmOracle:
    """Warm reservoirs are evolved by each coherence sector's exact propagator, not by RK4."""

    TIMES = [0.0, 0.05, 0.2, 0.5, 1.0]

    @pytest.mark.parametrize("fock_dim", [3, 4])
    @pytest.mark.parametrize("initial", [BellLike(), BellPhi(-1)], ids=["bell_like", "bell_phi"])
    def test_one_state_is_the_dense_exponential(self, initial, fock_dim):
        rho0 = initial_density(initial).matrix
        got = integrate_master_grid(rho0, THERMAL, self.TIMES, fock_dim)
        want = qubit_block(dense_exact_grid(embed_qubits(rho0, fock_dim), THERMAL, self.TIMES, fock_dim), fock_dim)
        assert np.abs(got - want).max() <= 1e-12
        # t = 0 is the start itself, and a sector that starts empty stays exactly zero:
        # Bell-phi fills only the orders (0, 0), (1, 1) and (-1, -1) of the block, Bell-like all nine
        assert np.array_equal(got[0], rho0)
        empty = (BLOCK_ORDERS[0] != BLOCK_ORDERS[1]) & isinstance(initial, BellPhi)
        assert np.all(got[:, empty] == 0)
        assert np.any(got[-1][~empty] != 0)

    @pytest.mark.parametrize("fock_dim", [3, 4])
    def test_a_stack_is_the_dense_exponential_of_each_member(self, rng, fock_dim):
        stack = np.concatenate([mixed_qubit_stack(rng), [initial_density(BellPhi(+1)).matrix]])
        got = integrate_master_grid(stack, THERMAL, self.TIMES, fock_dim)
        assert got.shape == (len(stack), len(self.TIMES), 4, 4)
        want = qubit_block(dense_exact_grid(embed_qubits(stack, fock_dim), THERMAL, self.TIMES, fock_dim), fock_dim)
        assert np.abs(got - want).max() <= 1e-12

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
        rho0 = np.diag(np.diag(initial_density(BellLike()).matrix))
        got = integrate_master_grid(rho0, warm, [30.0], fock_dim=fd)[0]
        p1, p2 = ((nbar / (1.0 + nbar)) ** np.arange(fd) for nbar in (warm.nbar1, warm.nbar2))
        # the Gibbs state's qubit block
        gibbs = np.diag(np.kron(p1[:2] / p1.sum(), p2[:2] / p2.sum()))
        assert np.abs(got - gibbs).max() <= 1e-10

    def test_quiet_runs_build_the_16_entry_generator_and_warm_runs_evolve_each_occupied_sector_per_mode(
            self, monkeypatch):
        from kerrdeco import evolution
        sizes, build = [], evolution._liouvillian
        monkeypatch.setattr(evolution, "_liouvillian", lambda *a: sizes.append((a[1], a[2].tolist())) or build(*a))
        blocks = spy(monkeypatch, "_sector_blocks")
        fd = 4
        # a Bell-like start occupies all nine signed sectors of the block, Bell-phi three; a hermitian start evolves
        # those with o1 > 0, or o1 = 0 and o2 >= 0, and conjugates the rest. Each is read from the 4x4 start. A quiet
        # run, of a sparse start too, builds the generator on the 16 qubit entries at fock_dim 2
        for initial, sectors in ((BellLike(), [(0, 0), (0, 1), (1, -1), (1, 0), (1, 1)]),
                                 (BellPhi(+1), [(0, 0), (1, 1)]), (Separable(1.0, 0.0, 1.0, 0.0), [(0, 0)])):
            rho0 = initial_density(initial).matrix
            sizes.clear()
            integrate_master_grid(rho0, COLD, [0.1], fock_dim=fd)
            assert sizes == [(2, list(range(16)))]
            sizes.clear(), blocks.clear()
            integrate_master_grid(rho0, THERMAL, [0.1], fock_dim=fd)
            [(_, _, orders)] = blocks
            assert sizes == [] and list(map(tuple, orders.tolist())) == sectors
        # a start that is not exactly hermitian evolves every occupied sector
        rho0 = np.array(initial_density(BellLike()).matrix)
        rho0[0, 3] *= 1j
        blocks.clear()
        got = integrate_master_grid(rho0, THERMAL, self.TIMES, fock_dim=fd)
        assert len(blocks[0][2]) == 9
        want = qubit_block(dense_exact_grid(embed_qubits(rho0, fd), THERMAL, self.TIMES, fd), fd)
        assert np.abs(got - want).max() <= 1e-12


def unreachable(monkeypatch):
    """Make the oracle's builders and ``propagate`` fail if a call reaches them."""
    from kerrdeco import evolution

    def fail(*args, **kwargs):
        raise AssertionError("reached past the gate")
    for name in ("_liouvillian", "_evolve_kept", "_evolve_sectors", "_sector_blocks", "propagate"):
        monkeypatch.setattr(evolution, name, fail)


def spy(monkeypatch, name):
    """Wrap ``evolution.<name>`` so that each call's positional arguments are recorded in the returned list."""
    from kerrdeco import evolution
    calls, real = [], getattr(evolution, name)
    monkeypatch.setattr(evolution, name, lambda *a: calls.append(a) or real(*a))
    return calls


class TestWarmGrids:
    """On exactly ``np.linspace(0, T, N)`` a warm run forms two one-mode exponentials per sector and mode, stacked, and
    reaches every time by baby step and giant step; any other grid takes one exponential per time."""

    @pytest.mark.parametrize("n", [401, 2 ** 8 + 1, 2])
    def test_a_uniform_grid_is_the_dense_exponential(self, monkeypatch, n):
        powers = spy(monkeypatch, "_mode_powers")
        rho0 = initial_density(BellLike()).matrix
        times = np.linspace(0.0, 1.0, n)
        got = integrate_master_grid(rho0, THERMAL, times, 4)
        # one call for the five evolved sectors of the hermitian start, both modes each
        [(a, _, _, uniform)] = powers
        assert uniform and a.shape == (5, 2, 4, 4)
        assert np.abs(got - qubit_block(dense_exact_grid(embed_qubits(rho0, 4), THERMAL, times, 4), 4)).max() <= 1e-12
        assert np.array_equal(got[0], rho0)

    def test_a_stack_on_a_uniform_grid_is_the_dense_exponential(self, monkeypatch, rng):
        powers = spy(monkeypatch, "_mode_powers")
        stack = np.concatenate([mixed_qubit_stack(rng), [initial_density(BellPhi(+1)).matrix]])
        times = np.linspace(0.0, 0.8, 101)
        got = integrate_master_grid(stack, THERMAL, times, 4)
        assert len(powers) == 1 and powers[0][3]
        assert got.shape == (len(stack), len(times), 4, 4)
        assert np.abs(got - qubit_block(dense_exact_grid(embed_qubits(stack, 4), THERMAL, times, 4), 4)).max() <= 1e-12

    @pytest.mark.parametrize("times", [
        np.linspace(0.1, 1.0, 10),  # does not start at 0
        [0.0, 0.1, 0.25, 0.3, 0.7],  # uneven spans
        np.r_[0.0, 0.1, np.nextafter(0.2, 1.0), 0.3],  # one ulp off the linspace grid
        [0.0],
        [0.4],
    ], ids=["late_start", "uneven", "last_bits", "start_only", "one_point"])
    def test_any_other_grid_is_applied_one_time_at_a_time(self, monkeypatch, times):
        powers, expm = spy(monkeypatch, "_mode_powers"), spy(monkeypatch, "_expm")
        rho0 = initial_density(BellLike()).matrix
        got = integrate_master_grid(rho0, THERMAL, times, 4)
        # one sector at a time, each an exponential of both modes at every time
        assert len(powers) == 5 and not any(uniform for *_, uniform in powers)
        assert [a.shape for a, in expm] == [(2, len(times), 4, 4)] * 5
        assert np.abs(got - qubit_block(dense_exact_grid(embed_qubits(rho0, 4), THERMAL, times, 4), 4)).max() <= 1e-12

    def test_a_uniform_grid_takes_one_stacked_exponential_and_never_the_two_mode_generator(self, monkeypatch):
        expm, generators = spy(monkeypatch, "_expm"), spy(monkeypatch, "_liouvillian")
        traj = trajectory(BellLike(), THERMAL, 1.0, 401, engine="oracle", fock_dim=4)
        assert len(traj.times) == 401
        # the baby step exp(h A) and the giant step exp(21 h A) of each mode of the five evolved sectors
        assert [a.shape for a, in expm] == [(2, 5, 2, 4, 4)]
        assert generators == []

    def test_an_empty_grid_gives_no_snapshots(self):
        for rho0 in (initial_density(BellLike()).matrix, np.stack([np.eye(4, dtype=complex) / 4] * 2)):
            for params in (COLD, THERMAL):
                got = integrate_master_grid(rho0, params, [], 4)
                assert got.shape == (*rho0.shape[:-2], 0, *rho0.shape[-2:])

    def test_a_grid_that_repeats_its_spans_holds_no_span_propagators(self):
        # 300 distinct spans, then the same 300 again: each time takes its own one-mode exponentials, one sector at
        # a time, 2.0 MiB measured (2.3 MiB when each sector held every span's propagator until its last use).
        # A first, small run keeps one-time allocations out of the count.
        spans = np.arange(1, 301) * 2.0 ** -22
        times = np.cumsum(np.r_[spans, spans])
        start = initial_density(BellLike()).matrix
        integrate_master_grid(start, THERMAL, times[:3], 4)
        tracemalloc.start()
        try:
            got = integrate_master_grid(start, THERMAL, times, 4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * 2 ** 20 and got.shape == (600, 4, 4)

    def test_a_warm_trajectory_at_fock_dim_16_holds_a_few_mib(self):
        # 4.5 MiB measured, 31 MiB when each sector's propagator was formed on the two-mode space
        trajectory(BellLike(), THERMAL, 0.1, 3, engine="oracle", fock_dim=16)
        tracemalloc.start()
        try:
            traj = trajectory(BellLike(), THERMAL, 1.0, 401, engine="oracle", fock_dim=16)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2 ** 20
        assert np.isfinite(traj.states.matrix).all()

    def test_quiet_limit_holds_off_the_uniform_grid(self):
        # TestWarmOracle holds it on the grid trajectory builds
        times = np.linspace(0.0, 1.0, 41)[[0, 1, 5, 17, 40]]
        warm = CavityParams(gamma1=4.0, gamma2=3.0, chi11=7.0, chi22=0.0, chi12=20.0, nbar1=1e-12, nbar2=1e-12)
        block = integrate_master_grid(initial_density(BellLike()).matrix, warm, times, 4)
        block /= np.trace(block, axis1=-2, axis2=-1)[:, None, None]
        quiet = dataclasses.replace(warm, nbar1=0.0, nbar2=0.0)
        assert np.abs(block - propagate(initial_density(BellLike()), quiet, times).matrix).max() <= 1e-8


class TestExpm:
    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan, complex(1.0, math.inf), complex(math.nan, 0.0)])
    def test_a_non_finite_matrix_raises_at_once(self, bad):
        for a in (np.array([[bad]], dtype=complex), np.diag([1.0, bad, 2.0]).astype(complex)):
            start = time.perf_counter()
            with pytest.raises(ValueError, match="^the matrix exponential needs a finite 1-norm, got (inf|nan)$"):
                _expm(a)
            assert time.perf_counter() - start < 1.0


class TestGeneratorBound:
    @pytest.mark.parametrize("fock_dim", [2, 3, 4, 5, 6])
    def test_it_is_at_least_the_whole_space_generators_1_norm(self, rng, fock_dim):
        for _ in range(12 if fock_dim < 6 else 4):
            # log-uniform rates, each zero one time in five, Kerr couplings of either sign
            rates = 10.0 ** rng.uniform(-3.0, 3.0, 7) * (rng.random(7) < 0.8) * [1, 1, *rng.choice([-1, 1], 3), 1, 1]
            prm = CavityParams(*rates)
            lmat = _liouvillian(prm, fock_dim, np.arange(fock_dim ** 4))
            assert np.abs(lmat).sum(axis=0).max() <= _generator_bound(prm, fock_dim)


def one_mode_block(fock_dim, order, gamma, nbar, chi_self, shift):
    """One mode's generator on its entries |m><n| with m - n = order, ordered by m, from one-mode operators:
    the phases chi_self (m**2 - n**2) + shift * n and the thermal amplitude-damping dissipator."""
    a = np.diag(np.sqrt(np.arange(1.0, fock_dim)), 1)
    eye = np.eye(fock_dim)
    num, anti = a.T @ a, a @ a.T
    # vec(A rho B) = (A kron B^T) vec(rho) for row-major vectorization, and a is real
    down = 2.0 * np.kron(a, a) - np.kron(num, eye) - np.kron(eye, num)
    up = 2.0 * np.kron(a.T, a.T) - np.kron(anti, eye) - np.kron(eye, anti)
    m, n = np.divmod(np.arange(fock_dim ** 2), fock_dim)
    block = np.diag(-1j * (chi_self * (m * m - n * n) + shift * n)) + gamma / 2.0 * ((nbar + 1.0) * down + nbar * up)
    idx = np.flatnonzero(m - n == order)
    return block[np.ix_(idx, idx)]


class TestSectorGenerator:
    @pytest.mark.parametrize("fock_dim", range(2, 9))
    def test_each_sector_block_is_the_kronecker_sum_of_its_one_mode_blocks(self, rng, fock_dim):
        # in sector (o1, o2) the cross-Kerr phase m1 m2 - n1 n2 is o2 n1 + o1 n2 + o1 o2, linear in each mode's
        # index, and each dissipator acts on one mode: L = A1 kron I + I kron A2 + c I, c = -2i chi12 o1 o2
        m1, m2, n1, n2 = np.unravel_index(np.arange(fock_dim ** 4), (fock_dim,) * 4)
        for _ in range(2):
            # unequal damping, self-Kerr couplings of either sign and both reservoirs warm
            prm = CavityParams(*rng.uniform([0.5, 0.5, -5.0, -5.0, -30.0, 0.05, 0.05],
                                            [5.0, 5.0, 5.0, 5.0, 30.0, 1.0, 1.0]))
            for o1, o2 in np.ndindex(2 * fock_dim - 1, 2 * fock_dim - 1):
                o1, o2 = o1 - fock_dim + 1, o2 - fock_dim + 1
                got = _liouvillian(prm, fock_dim, np.flatnonzero((m1 - n1 == o1) & (m2 - n2 == o2)))
                a1 = one_mode_block(fock_dim, o1, prm.gamma1, prm.nbar1, prm.chi11, 2.0 * prm.chi12 * o2)
                a2 = one_mode_block(fock_dim, o2, prm.gamma2, prm.nbar2, prm.chi22, 2.0 * prm.chi12 * o1)
                want = (np.kron(a1, np.eye(len(a2))) + np.kron(np.eye(len(a1)), a2)
                        - 2j * prm.chi12 * o1 * o2 * np.eye(len(got)))
                # roundoff on the scale of the generator's norm: at most 2.4e-16 of its bound measured, over 12
                # seeds at each fock_dim
                assert np.abs(got - want).max() <= 2e-15 * _generator_bound(prm, fock_dim)
                # the warm kernel's blocks are these, with c in A1, padded by zero rows and columns: within 0.44
                # machine epsilon times the bound measured
                a = _sector_blocks(prm, fock_dim, np.array([[o1, o2]]))[0]
                a1 -= 2j * prm.chi12 * o1 * o2 * np.eye(len(a1))
                for block, one in zip(a, (a1, a2)):
                    assert np.abs(block[:len(one), :len(one)] - one).max() <= 2e-15 * _generator_bound(prm, fock_dim)
                    assert not block[len(one):].any() and not block[:, len(one):].any()

    @pytest.mark.parametrize("fock_dim", range(2, 9))
    def test_each_sector_propagator_is_the_kronecker_product_of_its_one_mode_propagators(self, rng, fock_dim):
        # e^{ch} exp(h A1) kron exp(h A2), c inside A1, against the exponential of the whole-space generator's
        # block, the one the warm kernel no longer builds, for every signed sector
        m1, m2, n1, n2 = np.unravel_index(np.arange(fock_dim ** 4), (fock_dim,) * 4)
        orders = np.array(list(np.ndindex(2 * fock_dim - 1, 2 * fock_dim - 1))) - (fock_dim - 1)
        for _ in range(2):
            # unequal damping, Kerr couplings of either sign and both reservoirs warm
            prm = CavityParams(*rng.uniform([0.5, 0.5, -5.0, -5.0, -30.0, 0.05, 0.05],
                                            [5.0, 5.0, 5.0, 5.0, 30.0, 1.0, 1.0]))
            h = rng.uniform(0.01, 0.2)
            for (o1, o2), (e1, e2) in zip(orders.tolist(), _expm(h * _sector_blocks(prm, fock_dim, orders))):
                l1, l2 = fock_dim - abs(o1), fock_dim - abs(o2)
                want = _expm(h * _liouvillian(prm, fock_dim, np.flatnonzero((m1 - n1 == o1) & (m2 - n2 == o2))))
                # roundoff on the scale of h times the generator's norm bound: at most 0.78 machine epsilon of it
                # measured over 4 seeds at each fock_dim
                bound = 4.0 * np.finfo(float).eps * h * _generator_bound(prm, fock_dim)
                assert np.abs(np.kron(e1[:l1, :l1], e2[:l2, :l2]) - want).max() <= bound


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


ANALYTIC_STARTS = WARM_STARTS + [BellPsi(-1), WernerPsi(0.7, +1), WernerPhi(0.4, -1),
                                  CustomPure(PureState2Q(0.5, 0.5j, -0.5, 0.5)),
                                  CustomMixed(random_density_matrix(np.random.default_rng(3)))]


class TestAnalyticRequests:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2 ** 32 - 1))
    def test_an_analytic_request_is_rejected_alike_naming_every_rate_or_returns_finite_states(self, seed):
        rng = np.random.default_rng(seed)
        # the largest rate's decimal exponent, up to 8 half the time and up to 308 otherwise, and each
        # rate log-uniform up to twelve decades below it; gamma and chi may vanish, chi takes either sign
        top = rng.uniform(-3.0, 8.0 if rng.random() < 0.5 else 308.0)
        rates = 10.0 ** (top - rng.uniform(0.0, 12.0, 5)) * (rng.random(5) < 0.8) * [1, 1, *rng.choice([-1, 1], 3)]
        t_max = 10.0 ** rng.uniform(-3.0, 2.0)
        initial = ANALYTIC_STARTS[rng.integers(len(ANALYTIC_STARTS))]
        unequal = CavityParams(*rates.tolist())
        # the closed forms take equal damping
        equal = dataclasses.replace(unequal, gamma2=unequal.gamma1)
        routes = {"analytic": (unequal, lambda p: propagate(initial_density(initial), p, [0.0, t_max])),
                  "closed_form": (equal, lambda p: closed_form_rho(initial, p, [0.0, t_max]))}
        for engine, (params, route) in routes.items():
            if engine == "closed_form" and closed_form_reason(initial, params) is not None:
                continue
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                try:
                    validate_run(initial, params, t_max, 5, engine)
                except ValueError as exc:
                    assert [name for name in RATE_NAMES if f"{name} = " in str(exc)] == RATE_NAMES
                    for call in (lambda: trajectory(initial, params, t_max, 5, engine=engine), lambda: route(params)):
                        with pytest.raises(ValueError) as again:
                            call()
                        assert str(again.value) == str(exc)
                    continue
                traj = trajectory(initial, params, t_max, 5, engine=engine)
            assert np.isfinite(traj.states.matrix).all()

    @pytest.mark.parametrize("params", [CavityParams(chi12=3e307), CavityParams(gamma1=1e308, gamma2=1e308),
                                        CavityParams(chi11=1e308, chi22=-1e308)])
    def test_rates_past_the_cap_are_named_without_a_warning(self, params):
        # each one overflowed inside the routes: a RuntimeWarning, or a state with non-finite entries
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"^rates too large for the analytic routes: .*, nbar2 = 0$"):
                propagate(np.eye(4) / 4, params, [0.5])
            with pytest.raises(ValueError, match=r"^rates too large for the analytic routes: .*, nbar2 = 0$"):
                closed_form_rho(BellPhi(+1), params, [0.5])

    def test_the_cap_sits_where_stated(self):
        # the rate sum of QUIET is 4 + 4 + 2 * 20 = 48, so past t = 1 the cap falls on t = 1e7 / 48
        t_cap = _MAX_ANALYTIC_SCALE / 48.0
        message = (r"^rates too large for the analytic routes: reaching t = 208333 takes their sum times max\(1, t\), "
                   r"1e\+07, above the cap of 1e\+07, at gamma1 = 4, gamma2 = 4, chi11 = 0, chi22 = 0, chi12 = 20, "
                   r"nbar1 = 0, nbar2 = 0$")
        for engine in ("analytic", "closed_form"):
            validate_run(BellLike(), QUIET, t_cap, 3, engine)
            with pytest.raises(ValueError, match=message):
                validate_run(BellLike(), QUIET, t_cap * (1 + 1e-9), 3, engine)
        # below t = 1 the rates themselves are capped, however short the run
        at_cap = CavityParams(gamma1=0.0, gamma2=0.0, chi12=_MAX_ANALYTIC_SCALE / 2)
        assert np.isfinite(propagate(initial_density(BellLike()), at_cap, [0.0, 1e-9]).matrix).all()
        with pytest.raises(ValueError, match="above the cap"):
            propagate(initial_density(BellLike()), dataclasses.replace(at_cap, chi12=at_cap.chi12 * (1 + 1e-9)),
                      1e-9)


def renormalized(block):
    """The hermitian parts of an (N, 4, 4) stack of qubit blocks, each divided by its trace, frozen as the bit-for-bit
    reference for the states an oracle ``trajectory`` returns."""
    block = (block + block.conj().swapaxes(-1, -2)) / 2.0
    return block / np.trace(block, axis1=-2, axis2=-1).real[:, np.newaxis, np.newaxis]


class TestOracleTrajectoryBytes:
    @pytest.mark.parametrize("params, fock_dim", [(COLD, 2), (COLD, 4), (THERMAL, 4)], ids=["quiet2", "quiet4", "warm4"])
    @pytest.mark.parametrize("initial", [BellLike(), Separable(1.0, 0.0, 1.0, 0.0)], ids=["bell_like", "ground"])
    def test_trajectory_is_the_renormalized_qubit_block_bit_for_bit(self, params, fock_dim, initial):
        traj = trajectory(initial, params, 0.5, 21, engine="oracle", fock_dim=fock_dim)
        rho0 = initial_density(initial).matrix
        block = integrate_master_grid(rho0, params, traj.times, fock_dim)
        assert traj.states.matrix.tobytes() == renormalized(block).tobytes()
        if isinstance(initial, Separable):
            # the ground state keeps only its populations: the block's coherences lie outside its box, exact zeros
            assert np.all(block[:, ~np.eye(4, dtype=bool)] == 0)
        if params.quiet:
            # a quiet block is the frozen RK4 loop's at fock_dim 2, at every fock_dim
            want = frozen_oracle_loop(rho0, params, traj.times.tolist(), 2)
            assert block.tobytes() == qubit_block(want, 2).tobytes()


class TestQubitBlock:
    """A two-qubit start is evolved on its 16 entries by a quiet run, which never leaves the qubit levels, and its
    qubit block alone, one-mode rows 0 and 1, by a warm one."""

    @pytest.mark.parametrize("params, fock_dim", [(COLD, 2), (COLD, 4), (THERMAL, 4), (THERMAL, 5)],
                             ids=["quiet2", "quiet4", "warm4", "warm5"])
    @pytest.mark.parametrize("times", [np.linspace(0.0, 0.5, 41), [0.05, 0.2, 0.25, 0.6]], ids=["uniform", "uneven"])
    def test_a_two_qubit_start_is_the_embedded_starts_block(self, rng, params, fock_dim, times):
        # a warm run is the dense exponential of the start placed at Fock states 0 and 1 on the whole space, within
        # 1e-12. A quiet state is the frozen RK4 loop at fock_dim 2 bit for bit, and a quiet stack within 1e-13 of it
        # (8.3e-15 measured over 30 random stacks), as in test_each_member_matches_its_own_call
        ground = initial_density(Separable(1.0, 0.0, 1.0, 0.0)).matrix
        stack = np.concatenate([mixed_qubit_stack(rng), [ground]])
        for rho0 in (initial_density(BellLike()).matrix, ground, stack):
            got = integrate_master_grid(rho0, params, times, fock_dim)
            assert got.shape == (*rho0.shape[:-2], len(times), 4, 4) and got.flags.c_contiguous
            if not params.quiet:
                want = qubit_block(dense_exact_grid(embed_qubits(rho0, fock_dim), params, times, fock_dim), fock_dim)
                assert np.abs(got - want).max() <= 1e-12
                continue
            for member, start in zip(got.reshape(-1, len(times), 4, 4), rho0.reshape(-1, 4, 4)):
                want = qubit_block(frozen_oracle_loop(start, params, list(times), 2), 2)
                if rho0.ndim == 2:
                    assert member.tobytes() == want.tobytes()
                else:
                    assert np.abs(member - want).max() <= 1e-13
        # the ground state keeps only its populations: the block's coherences lie outside its box, exact zeros
        block = integrate_master_grid(ground, params, times, fock_dim)
        assert np.all(block[:, ~np.eye(4, dtype=bool)] == 0)

    def test_a_trajectory_makes_one_oracle_call_for_the_block(self, monkeypatch):
        from kerrdeco import evolution
        calls, real = [], evolution.integrate_master_grid
        monkeypatch.setattr(evolution, "integrate_master_grid", lambda *a, **k: calls.append((a, k)) or real(*a, **k))
        start = initial_density(BellLike()).matrix
        for params, fock_dim in ((COLD, 2), (THERMAL, 4)):
            calls.clear()
            trajectory(BellLike(), params, 0.5, 21, engine="oracle", fock_dim=fock_dim)
            # the two-qubit start itself, not embedded
            [((rho0, _, times, fd), kwargs)] = calls
            assert rho0.shape == (4, 4) and rho0.tobytes() == start.tobytes() and kwargs == {}
            assert fd == fock_dim and len(times) == 21
        trajectory(BellLike(), COLD, 0.5, 21, engine="analytic")
        assert len(calls) == 1

    def test_a_warm_trajectory_at_fock_dim_10_never_forms_the_full_snapshots(self):
        # the (401, 10**4) snapshots alone take 61 MiB; the block and the evolved entries about 8.
        # A first, small run keeps one-time allocations out of the count.
        trajectory(BellLike(), THERMAL, 0.1, 3, engine="oracle", fock_dim=10)
        tracemalloc.start()
        try:
            trajectory(BellLike(), THERMAL, 1.0, 401, engine="oracle", fock_dim=10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2 ** 20

    def test_a_warm_run_at_fock_dim_16_holds_about_what_its_gate_counts(self):
        # 20000 times of 3 * 16 entries per sector product count 9.6e5: 32.9 MiB measured, 36 bytes per counted
        # entry, near the 31 that the memory cap is sized by at 1e5 times.
        # A first, small run keeps one-time allocations out of the count.
        rho0, warm = initial_density(BellLike()).matrix, CavityParams(nbar1=0.1)
        integrate_master_grid(rho0, warm, np.linspace(0.0, 0.1, 3), 16)
        tracemalloc.start()
        try:
            got = integrate_master_grid(rho0, warm, np.linspace(0.0, 1.0, 20_000), 16)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 40 * 2 ** 20 and got.shape == (20_000, 4, 4)


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
        message = (r"^rates too large for the oracle with quiet reservoirs: reaching t = 1 takes 4e\+202 RK4 steps, "
                   r"above the cap of 1000000, at gamma1 = 4, gamma2 = 4, chi11 = 0, chi22 = 0, chi12 = 1e\+200, "
                   r"nbar1 = 0, nbar2 = 0$")
        with pytest.raises(ValueError, match=message):
            trajectory(BellLike(), huge, 1.0, 3, engine="oracle")
        with pytest.raises(ValueError, match="above the cap of 1000000"):
            integrate_master_grid(initial_density(BellLike()).matrix, huge, [0.5, 1.0])
        # the other engines take no RK4 steps: past the step cap but under their own rate cap, they run
        strong = CavityParams(chi12=2e6)
        with pytest.raises(ValueError, match="RK4 steps"):
            validate_run(BellLike(), strong, 1.0, 3, "oracle")
        for engine in ("analytic", "closed_form"):
            validate_run(BellLike(), strong, 1.0, 3, engine)

    def test_an_oracle_run_past_the_work_cap_fails_at_the_boundary(self, monkeypatch):
        # a Bell-like start keeps all K = 16 entries: 74250 steps to t = 9 make 1.9e7 per state, so a stack of 1600
        # passes the step cap, but not the work cap
        unreachable(monkeypatch)
        message = (r"^oracle run too large for quiet reservoirs: 74250.0 RK4 steps to t = 9 of 16 entries for 1600 "
                   r"state\(s\) make 30412800000.0, above the cap of 29000000000$")
        with pytest.raises(ValueError, match=message):
            _checked_step(CavityParams(), 9.0, 2, 1600)
        stack = np.stack([initial_density(BellLike()).matrix] * 1600)
        with pytest.raises(ValueError, match=message):
            integrate_master_grid(stack, CavityParams(), [0.5, 9.0], 16)
        validate_run(BellLike(), CavityParams(), 9.0, 401, "oracle", 16)

    def test_a_quiet_trajectory_at_fock_dim_16_is_the_fock_dim_2_trajectory(self):
        # a quiet run keeps to the qubit levels, so it takes the fock_dim-2 step on the same 16 entries
        want = trajectory(BellLike(), CavityParams(), 1.0, 401, engine="oracle", fock_dim=2)
        got = trajectory(BellLike(), CavityParams(), 1.0, 401, engine="oracle", fock_dim=16)
        assert got.states.matrix.tobytes() == want.states.matrix.tobytes()

    def test_the_work_cap_counts_every_state_of_a_stack(self, monkeypatch):
        # every start steps all 16 entries, the vacuum too; t = 1 takes 8250 steps, 2.112e6 per state, so 13731 states
        # fit. One more makes 1984000 more than the cap, and the message prints the work in full to show it
        unreachable(monkeypatch)
        _checked_step(QUIET, 1.0, 2, 13_731)
        message = (r"^oracle run too large for quiet reservoirs: 8250.0 RK4 steps to t = 1 of 16 entries for 13732 "
                   r"state\(s\) make 29001984000.0, above the cap of 29000000000$")
        with pytest.raises(ValueError, match=message):
            _checked_step(QUIET, 1.0, 2, 13_732)
        ground = np.zeros((13_732, 4, 4), dtype=complex)
        ground[:, 0, 0] = 1.0
        with pytest.raises(ValueError, match=message):
            integrate_master_grid(ground, QUIET, [0.5, 1.0], 16)

    def test_the_work_cap_holds_only_for_runs_that_step_rk4(self):
        # a stack of 500 Bell-like starts keeps K = 16 entries each; to t = 30 a quiet run makes 3.44e10 RK4 work,
        # while a warm one takes no RK4 steps and passes
        warm = CavityParams(gamma1=4.0, gamma2=3.0, chi11=2.0, chi22=-1.5, chi12=20.0, nbar1=0.4, nbar2=0.25)
        quiet = dataclasses.replace(warm, nbar1=0.0, nbar2=0.0)
        with pytest.raises(ValueError, match=r"of 16 entries for 500 state\(s\) make 34368000000.0, above the cap"):
            _checked_step(quiet, 30.0, 2, 500)
        _checked_warm(warm, 6, 30.0, 2, 500, True)
        validate_run(BellLike(), warm, 30.0, 401, "oracle", 6)
        rho0, grid = initial_density(BellLike()).matrix, np.linspace(0.0, 30.0, 401)
        got, trace = _evolve_sectors(rho0, warm, 6, grid)
        assert np.array_equal(got, integrate_master_grid(rho0, warm, grid, fock_dim=6))
        # the whole truncated space keeps its trace at every time, though the block returned does not
        assert np.abs(trace - 1.0).max() <= 1e-12
        # and it relaxes to the truncated Gibbs state's qubit block, coherences included
        p1, p2 = ((nbar / (1.0 + nbar)) ** np.arange(6) for nbar in (warm.nbar1, warm.nbar2))
        assert np.abs(got[-1] - np.diag(np.kron(p1[:2] / p1.sum(), p2[:2] / p2.sum()))).max() <= 1e-10

    def test_each_cap_admits_the_largest_shipped_run_and_sits_where_stated(self):
        # the thermal workload at fock_dim 5, 401 points to t_max 1: t times the generator's norm bound is 2160
        thermal = CavityParams(nbar1=0.5, nbar2=0.5)
        assert 1e3 < _generator_bound(thermal, 5) < _MAX_WARM_NORM / 100
        validate_run(BellLike(), thermal, 1.0, 401, "oracle", 5)
        for params, fock_dim, t_cap in ((QUIET, 2, _MAX_RK4_STEPS * _default_step(QUIET)),
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
            integrate_master_grid(initial_density(BellLike()).matrix, huge, [0.5, 1.0], fock_dim=4)
        # rates whose bound overflows a float, or makes 0 * inf, are rejected too
        for params in (CavityParams(gamma1=1e300, nbar1=1e300), CavityParams(gamma1=0.0, nbar1=1e308)):
            with pytest.raises(ValueError, match="above the cap"):
                validate_run(BellLike(), params, 1.0, 3, "oracle", 4)

    def test_a_strong_kerr_coupling_runs_warm_within_1e_8_of_the_quiet_limit(self):
        # 8e6 RK4 steps would reach t = 1, above the RK4 step cap; a warm run takes none, and t times
        # its generator's norm bound is 1.28e6, under the warm cap (quiet-limit gap 1.9e-12 measured)
        traj = trajectory(BellLike(), CavityParams(chi12=2e4, nbar1=0.1), 1.0, 401, engine="oracle", fock_dim=4)
        assert np.isfinite(traj.states.matrix).all()
        warm = CavityParams(chi12=2e4, nbar1=1e-12, nbar2=1e-12)
        traj = trajectory(BellLike(), warm, 1.0, 401, engine="oracle", fock_dim=4)
        quiet = dataclasses.replace(warm, nbar1=0.0, nbar2=0.0)
        exact = propagate(initial_density(BellLike()), quiet, traj.times)
        assert np.abs(traj.states.matrix - exact.matrix).max() <= 1e-8
        with pytest.raises(ValueError, match=r"takes 8000249.999999999 RK4 steps"):
            validate_run(BellLike(), quiet, 1.0, 401, "oracle", 4)

    def test_warm_runs_never_take_the_rk4_step_nor_build_its_generator(self, monkeypatch):
        steps, builds = spy(monkeypatch, "_default_step"), spy(monkeypatch, "_liouvillian")
        # the memory cap counts what a warm run's sectors hold, so neither its gate nor its kernel steps RK4
        validate_run(BellLike(), THERMAL, 1.0, 401, "oracle", 4)
        trajectory(BellLike(), THERMAL, 1.0, 401, engine="oracle", fock_dim=4)
        integrate_master_grid(initial_density(BellPhi(+1)).matrix, THERMAL, [0.1, 0.5], 4)
        assert steps == builds == []
        # a quiet run's gate takes the step from the rates alone and builds nothing; the kernel takes it again
        validate_run(BellLike(), COLD, 1.0, 401, "oracle", 4)
        assert len(steps) == 1 and builds == []
        trajectory(BellLike(), COLD, 0.1, 5, engine="oracle", fock_dim=4)
        assert len(steps) == 3 and len(builds) == 1

    @pytest.mark.parametrize("params", [CavityParams(nbar1=0.1), CavityParams(gamma1=0.0, gamma2=0.0, chi12=0.0)],
                             ids=["warm", "zero_rates"])
    def test_a_run_whose_snapshots_pass_the_memory_cap_fails_before_anything_is_built(self, monkeypatch, params):
        # 1e5 times at fock_dim 16. A warm run holds 16 returned entries and a per-sector product of 3 * 16 per time,
        # 4.8e6 in all (0.38 s and 143 MiB measured); a quiet one its 16 stepped and 16 returned entries, 3.2e6. One state passes the gate and reaches the kernel; a stack of 2 fails the gate
        unreachable(monkeypatch)
        validate_run(BellLike(), params, 1.0, 100_000, "oracle", 16)
        with pytest.raises(AssertionError, match="^reached past the gate$"):
            trajectory(BellLike(), params, 1.0, 100_000, "oracle", 16)
        stack, grid = np.stack([initial_density(BellLike()).matrix] * 2), np.linspace(0.0, 1.0, 100_000)
        what = "the warm kernel's largest array" if not params.quiet else "16 stepped and 16 returned entries"
        where = "at fock_dim 16" if not params.quiet else "for quiet reservoirs"
        held = 9_600_000 if not params.quiet else 6_400_000
        with pytest.raises(ValueError, match=rf"^oracle run too large {where}: 100000 times of {what} for 2 "
                                             rf"state\(s\) hold {held}, above the cap of 5000000$"):
            integrate_master_grid(stack, params, grid, 16)

    def test_the_memory_cap_is_inclusive_and_admits_every_two_qubit_box(self, monkeypatch):
        unreachable(monkeypatch)
        # quiet snapshots: 156250 times of 16 stepped and 16 returned entries make 5e6
        _checked_step(QUIET, 1e-6, 156_250, 1)
        with pytest.raises(ValueError, match="hold 5000032, above the cap of 5000000$"):
            _checked_step(QUIET, 1e-6, 156_251, 1)
        # a warm run's per-sector product on a uniform grid, 3 * 16 entries per time: 104166 times make 4999968
        _checked_warm(THERMAL, 16, 0.01, 104_166, 1, True)
        with pytest.raises(ValueError, match=r"^oracle run too large at fock_dim 16: 104167 times of the warm kernel's "
                                             r"largest array for 1 state\(s\) hold 5000016, above the cap of 5000000$"):
            _checked_warm(THERMAL, 16, 0.01, 104_167, 1, True)
        # and off it each time's two (16, 16) one-mode exponentials, 512 entries: 9765 times make 4999680
        uneven = np.cumsum(np.linspace(1.0, 2.0, 9766)) * 1e-6
        _checked_warm(THERMAL, 16, uneven[-2], 9765, 1, False)
        with pytest.raises(ValueError, match="9766 times of the warm kernel's largest array"):
            _checked_warm(THERMAL, 16, uneven[-1], 9766, 1, False)
        # which is the gate an uneven grid meets: it is no np.linspace grid
        with pytest.raises(AssertionError, match="^reached past the gate$"):
            integrate_master_grid(np.eye(4) / 4, THERMAL, uneven[:-1], 16)
        with pytest.raises(ValueError, match="9766 times of the warm kernel's largest array"):
            integrate_master_grid(np.eye(4) / 4, THERMAL, uneven, 16)
        # a stack counts each of its states in the product: at fock_dim 4 its 16 returned entries per time
        _checked_warm(THERMAL, 4, 0.01, 3125, 100, True)
        with pytest.raises(ValueError, match="3126 times of the warm kernel's largest array for 100 state"):
            _checked_warm(THERMAL, 4, 0.01, 3126, 100, True)
        # a quiet run's 16 entries stay under it at the most points a run may ask for
        validate_run(BellLike(), QUIET, 1e-3, 100_000, "oracle", _MAX_FOCK_DIM)

    def test_rejects_bad_grid_arguments(self):
        with pytest.raises(ValueError, match="n_points"):
            trajectory(BellPsi(+1), QUIET, 1.0, 1)
        with pytest.raises(ValueError, match="t_max"):
            trajectory(BellPsi(+1), QUIET, 0.0, 5)
        with pytest.raises(ValueError, match="engine"):
            trajectory(BellPsi(+1), QUIET, 1.0, 5, engine="exact")

    def test_t_max_below_the_least_normal_float_is_named(self):
        # np.linspace(0.0, 5e-324, 401) repeats times, which trajectory's grid check refused naming no field
        tiny = float(np.finfo(float).tiny)
        with pytest.raises(ValueError, match=rf"^t_max must be at least {tiny!r}, the least normal float, got 5e-324$"):
            validate_run(BellPsi(), CavityParams(), 5e-324, 401, "closed_form")
        validate_run(BellPsi(), CavityParams(), tiny, 401, "closed_form")

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(t_max=st.floats(min_value=5e-324, max_value=1e3), n_points=st.integers(min_value=2, max_value=100_000))
    def test_every_admitted_request_gets_a_strictly_increasing_grid(self, t_max, n_points):
        from kerrdeco import evolution
        if t_max < np.finfo(float).tiny:
            with pytest.raises(ValueError, match="^t_max must be at least"):
                validate_run(BellPsi(), QUIET, t_max, n_points)
            return
        validate_run(BellPsi(), QUIET, t_max, n_points)

        def start_at_every_time(rho0, params, t):
            # the grid is what is checked here, not the propagator
            return np.broadcast_to(rho0.matrix, (len(t), 4, 4))
        with unittest.mock.patch.object(evolution, "propagate", start_at_every_time):
            traj = trajectory(BellPsi(), QUIET, t_max, n_points)
        assert len(traj.times) == n_points and traj.times[-1] == t_max
        assert np.all(np.diff(traj.times) > 0)

    @pytest.mark.parametrize("engine", ["analytic", "oracle", "closed_form"])
    def test_the_grid_cap_is_inclusive_for_every_engine(self, engine):
        validate_run(BellPsi(+1), QUIET, 1.0, 100_000, engine)
        with pytest.raises(ValueError, match="^n_points must be at most 100000, got 100001$"):
            trajectory(BellPsi(+1), QUIET, 1.0, 100_001, engine)

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
