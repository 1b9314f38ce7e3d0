import math

import numpy as np
import pytest

from kerrdeco import analytics, measures
from kerrdeco.analytics import (
    CrossCouplingEstimate, CurvePoint, EitParams, OrderingReport,
    bell_like_uncoupled_curves, bell_phi_curves, bell_psi_curves,
    check_ordering_inequalities, concurrence_envelope,
    estimate_cross_coupling, negativity_envelope, numeric_envelope,
    revival_times, unitary_pure_entanglement, werner_concurrence_envelope,
    werner_like_lossless_curve, werner_phi_curves, werner_psi_curves,
)
from kerrdeco.evolution import CavityParams, propagate
from kerrdeco.states import (
    BellLike, WernerLike, bell_like, bell_psi, initial_density,
    random_pure_state, separable, to_density,
)

GAMMA = 4.0
T_HALF = 0.125  # gamma * t = 0.5 at the reference damping


class TestBellCurves:
    def test_initial_values(self):
        assert bell_psi_curves(GAMMA, 0.0) == (1.0, 1.0)
        assert bell_phi_curves(GAMMA, 0.0) == (1.0, 1.0)
        assert bell_like_uncoupled_curves(GAMMA, 0.0) == (1.0, 1.0)

    def test_frozen_values_at_half(self):
        c, n = bell_psi_curves(GAMMA, T_HALF)
        assert c == pytest.approx(0.606530659712633, abs=1e-12)
        assert n == pytest.approx(0.329508918664877, abs=1e-12)
        c, n = bell_phi_curves(GAMMA, T_HALF)
        assert c == n == pytest.approx(0.367879441171442, abs=1e-12)
        c, n = bell_like_uncoupled_curves(GAMMA, T_HALF)
        assert c == pytest.approx(0.487205050442039, abs=1e-12)
        assert n == pytest.approx(0.339289940749330, abs=1e-12)

    def test_vectorized_matches_scalar(self):
        ts = np.linspace(0.0, 1.0, 7)
        cs, ns = bell_psi_curves(GAMMA, ts)
        for k, t in enumerate(ts):
            c, n = bell_psi_curves(GAMMA, float(t))
            assert cs[k] == pytest.approx(c) and ns[k] == pytest.approx(n)

    def test_long_time_limit(self):
        c, n = bell_psi_curves(GAMMA, 50.0)
        assert c == pytest.approx(0.0, abs=1e-12)
        assert n == pytest.approx(0.0, abs=1e-12)

    def test_rejects_negative_arguments(self):
        with pytest.raises(ValueError):
            bell_psi_curves(-1.0, 0.1)
        with pytest.raises(ValueError):
            bell_phi_curves(GAMMA, -0.1)

    @pytest.mark.parametrize("gamma", [math.nan, math.inf, -math.inf])
    def test_rejects_a_non_finite_gamma(self, gamma):
        with pytest.raises(ValueError, match="gamma must be finite and nonnegative"):
            bell_psi_curves(gamma, 0.1)

    @pytest.mark.parametrize("t", [math.nan, [0.1, math.nan], np.array([[0.0], [math.nan]])])
    def test_rejects_nan_times(self, t):
        with pytest.raises(ValueError, match="times must be nonnegative, not NaN"):
            bell_psi_curves(GAMMA, t)
        with pytest.raises(ValueError, match="times must be nonnegative, not NaN"):
            concurrence_envelope(GAMMA, t)

    @pytest.mark.parametrize("t", [math.inf, [0.1, math.inf], -math.inf])
    def test_rejects_infinite_times(self, t):
        # gamma = 0 would give 0 * inf = NaN
        for gamma in (0.0, GAMMA):
            with pytest.raises(ValueError, match="times must be nonnegative, not NaN or infinite"):
                bell_psi_curves(gamma, t)

    def test_matches_measured_states(self):
        prm = CavityParams(gamma1=GAMMA, gamma2=GAMMA, chi12=20.0)
        unc = CavityParams(gamma1=GAMMA, gamma2=GAMMA, chi12=0.0)
        cases = [
            (bell_psi_curves, initial_density(bell_psi_tag()), prm),
            (bell_phi_curves, initial_density(bell_phi_tag()), prm),
            (bell_like_uncoupled_curves, initial_density(BellLike()), unc),
        ]
        for curve_fn, rho0, p in cases:
            for t in np.linspace(0.0, 1.0, 11):
                c, n = curve_fn(GAMMA, float(t))
                rho = propagate(rho0, p, float(t))
                assert measures.concurrence(rho) == pytest.approx(c, abs=1e-9)
                assert measures.negativity(rho) == pytest.approx(n, abs=1e-9)

    def test_curves_ignore_self_kerr(self):
        # self-Kerr terms act as local phases, so measured curves cannot move
        from kerrdeco.states import BellPsi
        rho0 = initial_density(BellPsi(+1))
        base_c, base_n = bell_psi_curves(GAMMA, 0.3)
        for chi_self in (0.0, 5.0, 50.0):
            prm = CavityParams(gamma1=GAMMA, gamma2=GAMMA,
                               chi11=chi_self, chi22=chi_self, chi12=20.0)
            rho = propagate(rho0, prm, 0.3)
            assert measures.concurrence(rho) == pytest.approx(base_c, abs=1e-10)
            assert measures.negativity(rho) == pytest.approx(base_n, abs=1e-10)


def bell_psi_tag():
    from kerrdeco.states import BellPsi
    return BellPsi(+1)


def bell_phi_tag():
    from kerrdeco.states import BellPhi
    return BellPhi(+1)


class TestWernerCurves:
    def test_reduce_to_bell_curves_at_full_weight(self):
        ts = np.linspace(0.0, 1.0, 9)
        cw, nw = werner_psi_curves(GAMMA, 1.0, ts)
        cb, nb = bell_psi_curves(GAMMA, ts)
        assert np.allclose(cw, cb, atol=1e-12) and np.allclose(nw, nb, atol=1e-12)
        cw, nw = werner_phi_curves(GAMMA, 1.0, ts)
        g2 = np.exp(-2.0 * GAMMA * ts)
        assert np.allclose(cw, g2, atol=1e-12) and np.allclose(nw, g2, atol=1e-12)

    def test_initial_values_follow_weight(self):
        for p in (0.0, 0.4, 0.8):
            want = max(0.0, (3.0 * p - 1.0) / 2.0)
            c, n = werner_psi_curves(GAMMA, p, 0.0)
            assert c == pytest.approx(want, abs=1e-12)
            assert n == pytest.approx(want, abs=1e-12)

    def test_frozen_values_at_half(self):
        c, _ = werner_psi_curves(GAMMA, 0.8, T_HALF)
        assert c == pytest.approx(0.311146358441013, abs=1e-12)
        c, n = werner_phi_curves(GAMMA, 0.8, T_HALF)
        assert c == n == pytest.approx(0.209785365111772, abs=1e-12)

    def test_sudden_death_clamp(self):
        # weakly mixed states lose all entanglement in finite time
        c, n = werner_psi_curves(GAMMA, 0.4, 1.0)
        assert c == 0.0 and n == 0.0

    def test_rejects_bad_weight(self):
        with pytest.raises(ValueError):
            werner_psi_curves(GAMMA, 1.2, 0.1)

    def test_match_measured_states(self):
        prm = CavityParams(gamma1=GAMMA, gamma2=GAMMA, chi12=20.0)
        from kerrdeco.states import WernerPhi, WernerPsi
        for p in (0.5, 0.8, 1.0):
            for t in np.linspace(0.0, 1.0, 9):
                rho = propagate(initial_density(WernerPsi(p, +1)), prm, float(t))
                c, n = werner_psi_curves(GAMMA, p, float(t))
                assert measures.concurrence(rho) == pytest.approx(c, abs=1e-9)
                assert measures.negativity(rho) == pytest.approx(n, abs=1e-9)
                rho = propagate(initial_density(WernerPhi(p, +1)), prm, float(t))
                c, n = werner_phi_curves(GAMMA, p, float(t))
                assert measures.concurrence(rho) == pytest.approx(c, abs=1e-9)
                assert measures.negativity(rho) == pytest.approx(n, abs=1e-9)


class TestLosslessFormulas:
    def test_bell_like_is_cosine(self):
        for t in np.linspace(0.0, 0.5, 21):
            want = abs(math.cos(20.0 * t))
            assert unitary_pure_entanglement(bell_like(), 20.0, float(t)) == pytest.approx(want, abs=1e-12)

    def test_product_state_is_sine(self):
        psi = separable(0.6, 0.8, 0.28, 0.96)
        scale = 4.0 * abs(0.6 * 0.8 * 0.28 * 0.96)
        for t in np.linspace(0.0, 0.5, 21):
            want = scale * abs(math.sin(20.0 * t))
            assert unitary_pure_entanglement(psi, 20.0, float(t)) == pytest.approx(want, abs=1e-12)

    def test_single_excitation_bell_is_constant(self):
        for t in (0.0, 0.3, 2.0):
            assert unitary_pure_entanglement(bell_psi(+1), 20.0, t) == pytest.approx(1.0)

    def test_plus_plus_reaches_one_ebit(self):
        rt = 1.0 / math.sqrt(2.0)
        psi = separable(rt, rt, rt, rt)
        t_star = (math.pi / 2.0) / 20.0
        assert unitary_pure_entanglement(psi, 20.0, t_star) == pytest.approx(1.0, abs=1e-12)

    def test_matches_measured_evolution_for_complex_states(self, rng):
        lossless = CavityParams(gamma1=0.0, gamma2=0.0, chi12=20.0)
        for _ in range(20):
            psi = random_pure_state(rng)
            rho0 = to_density(psi)
            for t in np.linspace(0.0, 0.3, 7):
                want = unitary_pure_entanglement(psi, 20.0, float(t))
                got = measures.concurrence(propagate(rho0, lossless, float(t)))
                assert got == pytest.approx(want, abs=1e-10)

    def test_werner_like_lossless_curve(self):
        assert werner_like_lossless_curve(0.8, 1.0, math.pi / 3.0) == pytest.approx(0.3, abs=1e-12)
        assert werner_like_lossless_curve(1.0, 20.0, 0.1) == pytest.approx(abs(math.cos(2.0)), abs=1e-12)
        # below the entanglement threshold the curve is identically zero
        ts = np.linspace(0.0, 1.0, 41)
        assert np.all(werner_like_lossless_curve(0.3, 20.0, ts) == 0.0)

    @pytest.mark.parametrize("t", [math.nan, math.inf, -0.1, [0.1, math.nan]])
    def test_lossless_curves_reject_bad_times(self, t):
        with pytest.raises(ValueError, match="times must be nonnegative, not NaN or infinite"):
            werner_like_lossless_curve(0.5, 20.0, t)
        with pytest.raises(ValueError, match="times must be nonnegative, not NaN or infinite"):
            unitary_pure_entanglement(bell_like(), 20.0, t)

    def test_werner_like_curve_matches_measured(self):
        lossless = CavityParams(gamma1=0.0, gamma2=0.0, chi12=20.0)
        for p in (0.5, 0.8, 1.0):
            rho0 = initial_density(WernerLike(p))
            for t in np.linspace(0.0, 0.4, 11):
                want = werner_like_lossless_curve(p, 20.0, float(t))
                rho = propagate(rho0, lossless, float(t))
                assert measures.concurrence(rho) == pytest.approx(want, abs=1e-10)
                assert measures.negativity(rho) == pytest.approx(want, abs=1e-10)


class TestEnvelopes:
    def test_initial_value_is_one(self):
        assert concurrence_envelope(GAMMA, 0.0) == pytest.approx(1.0, abs=1e-9)
        assert negativity_envelope(GAMMA, 0.0) == pytest.approx(1.0, abs=1e-9)
        assert negativity_envelope(GAMMA, 0.0, simple=True) == pytest.approx(1.0, abs=1e-9)
        assert werner_concurrence_envelope(GAMMA, 1.0, 0.0) == pytest.approx(1.0, abs=1e-9)

    def test_frozen_values_at_half(self):
        assert concurrence_envelope(GAMMA, T_HALF) == pytest.approx(0.520984929384232, abs=1e-12)
        assert negativity_envelope(GAMMA, T_HALF) == pytest.approx(0.451198162894924, abs=1e-12)
        assert negativity_envelope(GAMMA, T_HALF, simple=True) == pytest.approx(0.456333966889542, abs=1e-12)
        assert werner_concurrence_envelope(GAMMA, 0.8, T_HALF) == pytest.approx(0.321532128041095, abs=1e-12)

    def test_monotone_decay(self):
        ts = np.linspace(0.0, 1.5, 100)
        for vals in (concurrence_envelope(GAMMA, ts), negativity_envelope(GAMMA, ts),
                     werner_concurrence_envelope(GAMMA, 0.8, ts)):
            assert np.all(np.diff(vals) <= 1e-12)

    def test_tracks_measured_peaks_at_strong_coupling(self):
        # the derivation assumes chi12 >> gamma; ratio 100 here
        chi12 = 400.0
        prm = CavityParams(gamma1=GAMMA, gamma2=GAMMA, chi12=chi12)
        rho0 = initial_density(BellLike())
        for n in (1, 3, 5):
            tn = n * math.pi / chi12
            rho = propagate(rho0, prm, tn)
            assert measures.concurrence(rho) == pytest.approx(
                concurrence_envelope(GAMMA, tn), abs=2e-3)
            assert measures.negativity(rho) == pytest.approx(
                negativity_envelope(GAMMA, tn), abs=2e-3)

    def test_werner_envelope_reduces_to_bell_like_at_full_weight(self):
        ts = np.linspace(0.0, 1.0, 20)
        full = werner_concurrence_envelope(GAMMA, 1.0, ts)
        plain = concurrence_envelope(GAMMA, ts)
        # the p-dependent derivation is the looser of the two approximations
        assert np.allclose(full, plain, atol=5e-3)

    def test_werner_envelope_clamps_to_zero(self):
        assert werner_concurrence_envelope(GAMMA, 0.2, 1.0) == 0.0


class TestNumericEnvelope:
    def test_extracts_oscillation_peaks(self):
        chi12 = 20.0
        ts = np.linspace(0.0, 0.5, 401)
        vals = np.abs(np.cos(chi12 * ts)) * np.exp(-ts)
        peaks = numeric_envelope(list(zip(ts, vals)))
        interior = [pk for pk in peaks if 0.0 < pk.t < 0.5]
        assert len(interior) >= 2
        # damping drags each max left of n*pi/chi by atan(1/chi)/chi
        shift = math.atan(1.0 / chi12) / chi12
        for pk in interior:
            n = round(pk.t * chi12 / math.pi)
            assert pk.t == pytest.approx(n * math.pi / chi12 - shift, abs=0.5 / 400)
            assert pk.value == pytest.approx(math.exp(-n * math.pi / chi12), abs=2e-3)

    def test_constant_curve_returns_endpoints(self):
        pts = numeric_envelope([(t, 1.0) for t in np.linspace(0, 1, 20)])
        assert [p.t for p in pts] == [0.0, 1.0]

    def test_monotone_decay_returns_first_point(self):
        pts = numeric_envelope([(t, math.exp(-t)) for t in np.linspace(0, 1, 20)])
        assert len(pts) == 1 and pts[0].t == 0.0

    def test_rejects_undersampled_oscillation(self):
        ts = np.linspace(0.0, 1.0, 25)  # about 4 samples per period
        vals = np.abs(np.cos(20.0 * ts))
        with pytest.raises(ValueError, match="under-sampled"):
            numeric_envelope(list(zip(ts, vals)))

    def test_rejects_nonincreasing_times(self):
        with pytest.raises(ValueError):
            numeric_envelope([(0.0, 1.0), (0.0, 2.0)])

    def test_curve_point_fields(self):
        pt = CurvePoint(0.5, 0.25)
        assert pt.t == 0.5 and pt.value == 0.25


class TestRevivalTimes:
    def test_values(self):
        assert np.allclose(revival_times(20.0, 3), [math.pi / 20.0 * n for n in (1, 2, 3)])

    def test_validation(self):
        with pytest.raises(ValueError):
            revival_times(0.0, 3)
        with pytest.raises(ValueError):
            revival_times(20.0, 0)


class TestOrderingReport:
    def test_reference_point_holds_everything(self):
        grid = np.linspace(0.02, 1.0, 50)
        rep = check_ordering_inequalities(GAMMA, 20.0, grid, p=0.8)
        assert np.all(rep.concurrence_chain_ok)
        assert np.all(rep.negativity_chain_ok)
        assert np.any(rep.measure_disagreement)
        assert np.all(rep.revival_concurrence_ok)
        assert np.all(rep.revival_negativity_ok)
        assert rep.all_hold()

    def test_witness_fields(self):
        rep = check_ordering_inequalities(GAMMA, 20.0, np.linspace(0.02, 1.0, 50))
        t, c_psi, c_phi, n_psi, n_phi = rep.disagreement_witness
        assert c_psi > c_phi and n_psi < n_phi
        assert 0.0 < t <= 1.0
        assert rep.revivals is None and rep.revival_concurrence_ok is None

    def test_lossless_case_reaches_equalities(self):
        # without damping every curve pins at one, so the chains hold with
        # equality and no ordering disagreement can be witnessed
        rep = check_ordering_inequalities(0.0, 20.0, np.linspace(0.0, 1.0, 10))
        assert np.all(rep.concurrence_chain_ok)
        assert np.all(rep.negativity_chain_ok)
        assert not np.any(rep.measure_disagreement)
        assert rep.disagreement_witness is None
        assert not rep.all_hold()

    def test_time_zero_equalities(self):
        rep = check_ordering_inequalities(GAMMA, 20.0, np.array([0.0]))
        assert bool(rep.concurrence_chain_ok[0]) and bool(rep.negativity_chain_ok[0])

    def test_rejects_negative_arguments(self):
        with pytest.raises(ValueError):
            check_ordering_inequalities(-1.0, 20.0, np.array([0.1]))
        with pytest.raises(ValueError):
            check_ordering_inequalities(GAMMA, 20.0, np.array([-0.1]))

    def test_all_hold_logic(self):
        base = dict(times=np.array([0.1]),
                    concurrence_chain_ok=np.array([True]),
                    negativity_chain_ok=np.array([True]),
                    measure_disagreement=np.array([True]),
                    disagreement_witness=(0.1, 0.5, 0.4, 0.3, 0.4))
        assert OrderingReport(**base).all_hold()
        assert not OrderingReport(**{**base, "measure_disagreement": np.array([False]),
                                     "disagreement_witness": None}).all_hold()
        assert not OrderingReport(**{**base, "negativity_chain_ok": np.array([False])}).all_hold()


class TestCrossCoupling:
    def test_documented_arithmetic(self):
        est = estimate_cross_coupling(EitParams(1.0, 1.0, 10.0, 5.0, 100))
        assert est.chi12 == pytest.approx(0.3, abs=1e-12)
        assert est.adiabatic_ratio == pytest.approx(1.0)
        assert not est.adiabatic_ok

    def test_linear_in_atom_number(self):
        one = estimate_cross_coupling(EitParams(0.5, 0.7, 10.0, 5.0, 40))
        two = estimate_cross_coupling(EitParams(0.5, 0.7, 10.0, 5.0, 80))
        assert two.chi12 == pytest.approx(2.0 * one.chi12)

    def test_guard_trips_on_both_sides(self):
        below = estimate_cross_coupling(EitParams(1.0, 1.0, 10.0, 5.0, 99))
        above = estimate_cross_coupling(EitParams(1.0, 1.0, 10.0, 5.0, 101))
        assert below.adiabatic_ok and not above.adiabatic_ok

    def test_sign_follows_detuning(self):
        est = estimate_cross_coupling(EitParams(1.0, 1.0, 10.0, -5.0, 100))
        assert est.chi12 == pytest.approx(-0.3)

    def test_parameter_validation(self):
        with pytest.raises(ValueError, match="omega_c"):
            EitParams(1.0, 1.0, 0.0, 5.0, 100)
        with pytest.raises(ValueError, match="delta_omega2"):
            EitParams(1.0, 1.0, 10.0, 0.0, 100)
        with pytest.raises(ValueError, match="n_at"):
            EitParams(1.0, 1.0, 10.0, 5.0, 0)

    def test_estimate_is_frozen(self):
        est = CrossCouplingEstimate(0.3, 1.0, False)
        with pytest.raises(AttributeError):
            est.chi12 = 0.4
