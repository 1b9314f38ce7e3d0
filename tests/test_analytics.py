import dataclasses
import itertools
import math
import re

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
    BellLike, PureState2Q, WernerLike, bell_like, bell_psi, initial_density,
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

    @pytest.mark.parametrize("gamma, ts", [(GAMMA, np.linspace(0.0, 1.0, 401)), (0.5, np.linspace(0.0, 40.0, 97))])
    def test_the_bell_curves_are_the_reduced_forms(self, gamma, ts):
        # the p = 1 Werner curves against the paper's Bell-pair forms
        g = np.exp(-gamma * ts)
        c, n = bell_psi_curves(gamma, ts)
        assert np.max(np.abs(c - g)) <= 1e-15
        assert np.max(np.abs(n - (np.sqrt(2.0 * g * g - 2.0 * g + 1.0) + g - 1.0))) <= 1e-15
        c, n = bell_phi_curves(gamma, ts)
        assert np.max(np.abs(c - g * g)) <= 1e-15 and np.max(np.abs(n - g * g)) <= 1e-15

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
        with pytest.raises(ValueError, match="must be finite and nonnegative, got nan"):
            bell_psi_curves(GAMMA, t)
        with pytest.raises(ValueError, match="must be finite and nonnegative, got nan"):
            concurrence_envelope(GAMMA, t)

    def test_gamma_t_past_the_float_range_is_the_decayed_limit(self):
        # -gamma * t overflows to -inf, whose exponential is g = 0; pyproject makes numpy's overflow warning an error
        assert bell_psi_curves(1e308, 1e10) == (0.0, 0.0)
        c, n = bell_psi_curves(1e308, np.array([0.0, 1e10]))
        assert c.tolist() == n.tolist() == [1.0, 0.0]

    @pytest.mark.parametrize("t", [math.inf, [0.1, math.inf], -math.inf])
    def test_rejects_infinite_times(self, t):
        # gamma = 0 would give 0 * inf = NaN
        for gamma in (0.0, GAMMA):
            with pytest.raises(ValueError, match="must be finite and nonnegative, got -?inf"):
                bell_psi_curves(gamma, t)

    def test_matches_measured_states(self):
        prm = CavityParams(gamma1=GAMMA, gamma2=GAMMA, chi12=20.0)
        unc = CavityParams(gamma1=GAMMA, gamma2=GAMMA, chi12=0.0)
        cases = [
            (bell_psi_curves, initial_density(bell_psi_tag()), prm),
            (bell_phi_curves, initial_density(bell_phi_tag()), prm),
            (bell_like_uncoupled_curves, initial_density(BellLike()), unc),
        ]
        times = np.linspace(0.0, 1.0, 11)
        for curve_fn, rho0, p in cases:
            c, n = curve_fn(GAMMA, times)
            rho = propagate(rho0, p, times)
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
        times = np.linspace(0.0, 1.0, 9)
        for p in (0.5, 0.8, 1.0):
            for initial, curves in ((WernerPsi(p, +1), werner_psi_curves),
                                    (WernerPhi(p, +1), werner_phi_curves)):
                rho = propagate(initial_density(initial), prm, times)
                c, n = curves(GAMMA, p, times)
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
        times = np.linspace(0.0, 0.3, 7)
        for _ in range(20):
            psi = random_pure_state(rng)
            want = unitary_pure_entanglement(psi, 20.0, times)
            got = measures.concurrence(propagate(to_density(psi), lossless, times))
            assert got == pytest.approx(want, abs=1e-10)

    def test_werner_like_lossless_curve(self):
        assert werner_like_lossless_curve(0.8, 1.0, math.pi / 3.0) == pytest.approx(0.3, abs=1e-12)
        assert werner_like_lossless_curve(1.0, 20.0, 0.1) == pytest.approx(abs(math.cos(2.0)), abs=1e-12)
        # below the entanglement threshold the curve is identically zero
        ts = np.linspace(0.0, 1.0, 41)
        assert np.all(werner_like_lossless_curve(0.3, 20.0, ts) == 0.0)

    @pytest.mark.parametrize("t", [math.nan, math.inf, -0.1, [0.1, math.nan]])
    def test_lossless_curves_reject_bad_times(self, t):
        with pytest.raises(ValueError, match="must be finite and nonnegative, got"):
            werner_like_lossless_curve(0.5, 20.0, t)
        with pytest.raises(ValueError, match="must be finite and nonnegative, got"):
            unitary_pure_entanglement(bell_like(), 20.0, t)

    @pytest.mark.parametrize("chi12, t", [(1e308, 1e10), (-1e308, [0.0, 1e10])])
    def test_a_phase_past_the_float_range_is_named(self, chi12, t):
        # the phase chi12 * t is inf, whose cosine is NaN after a numpy warning, which pyproject makes an error
        want = re.escape(f"the Kerr phase of chi12 = {chi12!r} at t = 10000000000.0 passes the float range")
        with pytest.raises(ValueError, match=f"^{want}$"):
            unitary_pure_entanglement(bell_like(), chi12, t)
        with pytest.raises(ValueError, match=f"^{want}$"):
            werner_like_lossless_curve(0.5, chi12, t)

    @pytest.mark.parametrize("chi12", [math.nan, math.inf, -math.inf])
    def test_a_non_finite_coupling_is_named(self, chi12):
        want = f"^chi12 must be finite, got {chi12}$"
        with pytest.raises(ValueError, match=want):
            unitary_pure_entanglement(bell_like(), chi12, 0.1)
        with pytest.raises(ValueError, match=want):
            werner_like_lossless_curve(0.5, chi12, 0.1)
        with pytest.raises(ValueError, match=want):
            check_ordering_inequalities(GAMMA, chi12, np.linspace(0.02, 1.0, 5), p=0.8)
        with pytest.raises(ValueError, match=want):
            check_ordering_inequalities(GAMMA, chi12, np.linspace(0.02, 1.0, 5))

    def test_werner_like_curve_matches_measured(self):
        lossless = CavityParams(gamma1=0.0, gamma2=0.0, chi12=20.0)
        times = np.linspace(0.0, 0.4, 11)
        for p in (0.5, 0.8, 1.0):
            want = werner_like_lossless_curve(p, 20.0, times)
            rho = propagate(initial_density(WernerLike(p)), lossless, times)
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


def loop_envelope(curve):
    """Frozen per-sample form of ``numeric_envelope``'s peak rule, the reference for its array expression."""
    pts = [CurvePoint(float(t), float(v)) for t, v in curve]
    vs = [p.value for p in pts]
    peaks = [pts[0]] if vs[0] >= vs[1] else []
    peaks.extend(pts[i] for i in range(1, len(pts) - 1) if vs[i] > vs[i - 1] and vs[i] >= vs[i + 1])
    if vs[-1] >= vs[-2]:
        peaks.append(pts[-1])
    return peaks


class TestNumericEnvelope:
    def test_array_peaks_equal_the_frozen_loop_on_every_short_curve(self):
        # every curve of 2 to 4 samples over three levels: plateaus, ties and maxima at either end
        for n in (2, 3, 4):
            ts = np.arange(n) * 0.25
            for vals in itertools.product((0.0, 0.5, 1.0), repeat=n):
                assert numeric_envelope(np.column_stack((ts, vals))) == loop_envelope(zip(ts, vals))

    @pytest.mark.parametrize("seed", range(20))
    def test_array_peaks_equal_the_frozen_loop_on_seeded_curves(self, seed):
        # a sine rounded to one decimal on an uneven grid, about 20 samples per period and a random
        # phase: plateaus and ties at every level, and maxima at either end on some seeds
        rng = np.random.default_rng(seed)
        ts = np.cumsum(rng.uniform(0.5, 1.5, int(rng.integers(50, 300)))) - 0.5
        vals = np.round(np.sin(ts * (2.0 * math.pi / 20.0) + rng.uniform(0.0, 2.0 * math.pi)), 1)
        want = loop_envelope(zip(ts, vals))
        assert len(want) >= 3
        assert numeric_envelope(np.column_stack((ts, vals))) == want
        assert numeric_envelope(list(zip(ts, vals))) == want

    @pytest.mark.parametrize("vals, want", [
        ([1.0, 1.0], [0, 1]), ([2.0, 1.0], [0]), ([1.0, 2.0], [1]),
        ([1.0, 2.0, 2.0, 1.0], [1]), ([2.0, 2.0, 1.0], [0]), ([1.0, 2.0, 2.0], [1, 2]),
    ])
    def test_plateaus_ties_and_ends(self, vals, want):
        ts = np.arange(len(vals), dtype=float)
        assert numeric_envelope(np.column_stack((ts, vals))) == [CurvePoint(ts[i], vals[i]) for i in want]
        assert loop_envelope(zip(ts, vals)) == [CurvePoint(ts[i], vals[i]) for i in want]

    def test_negative_times_are_rejected(self):
        with pytest.raises(ValueError, match="must be finite and nonnegative, got -0.5 at index 0"):
            numeric_envelope([(-0.5, 1.0), (0.5, 0.5)])

    @pytest.mark.parametrize("curve", [[], [(0.0, 1.0)], [0.0, 1.0, 2.0], [(0.0, 1.0, 2.0), (1.0, 0.5, 0.0)]])
    def test_rejects_a_curve_that_is_not_two_or_more_pairs(self, curve):
        with pytest.raises(ValueError, match=r"need at least two \(t, value\) samples"):
            numeric_envelope(curve)

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

    @pytest.mark.parametrize("samples", [
        [(0.0, math.nan), (0.5, math.nan), (1.0, math.nan)],
        [(0.0, 1.0), (0.5, math.inf), (1.0, 0.5)],
        [(0.0, 1.0), (math.nan, 0.8), (1.0, 0.5)],
    ])
    def test_rejects_non_finite_samples(self, samples):
        with pytest.raises(ValueError, match="must be finite"):
            numeric_envelope(samples)

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

    @pytest.mark.parametrize("chi12", [math.nan, math.inf])
    def test_rejects_a_non_finite_coupling(self, chi12):
        with pytest.raises(ValueError, match="chi12 must be positive and finite"):
            revival_times(chi12, 3)

    def test_rejects_a_fractional_count(self):
        with pytest.raises(ValueError, match="count must be a whole number, got 2.5"):
            revival_times(20.0, 2.5)
        # True == 1, which would otherwise give one revival
        with pytest.raises(ValueError, match="^count must be a whole number, got True$"):
            revival_times(1.0, True)


class TestOrderingReport:
    def test_reference_point_holds_everything(self):
        grid = np.linspace(0.02, 1.0, 50)
        rep = check_ordering_inequalities(GAMMA, 20.0, grid, p=0.8)
        assert np.array_equal(rep.revivals, revival_times(20.0, 5))
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

    @pytest.mark.parametrize("chi12", [0.0, -20.0])
    def test_a_coupling_of_zero_or_less_skips_the_revivals(self, chi12):
        rep = check_ordering_inequalities(GAMMA, chi12, np.linspace(0.02, 1.0, 50), p=0.8)
        assert rep.revivals is None and rep.revival_concurrence_ok is None
        assert rep.all_hold()

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

    # True == 1, which would otherwise build a one-atom medium
    @pytest.mark.parametrize("n_at", [100.5, 100.0, "100", True])
    def test_a_fractional_atom_count_is_rejected(self, n_at):
        with pytest.raises(ValueError, match=rf"^n_at must be a whole number, got {n_at!r}$"):
            EitParams(1.0, 1.0, 10.0, 5.0, n_at)

    @pytest.mark.parametrize("field", ["g13", "g24", "omega_c", "delta_omega2", "n_at"])
    def test_a_nan_field_is_named(self, field):
        good = dict(g13=1.0, g24=1.0, omega_c=10.0, delta_omega2=5.0, n_at=100)
        with pytest.raises(ValueError, match=field):
            EitParams(**{**good, field: math.nan})

    def test_estimate_is_frozen(self):
        est = CrossCouplingEstimate(0.3, 1.0, False)
        with pytest.raises(AttributeError):
            est.chi12 = 0.4


# an int past the float range made math.isfinite raise OverflowError, naming no field
@pytest.mark.parametrize("cls, field", [(CavityParams, f.name) for f in dataclasses.fields(CavityParams)]
                         + [(EitParams, name) for name in ("g13", "g24", "omega_c", "delta_omega2")])
def test_an_int_past_the_float_range_is_named(cls, field):
    good = {} if cls is CavityParams else dict(g13=1.0, g24=1.0, omega_c=10.0, delta_omega2=5.0, n_at=100)
    with pytest.raises(ValueError, match=rf"^{field} must be finite, got an int past the float range$"):
        cls(**{**good, field: 10 ** 400})


# each of these escaped as OverflowError, int too large to convert to float, where no check named the field
@pytest.mark.parametrize("call, field", [
    (lambda: PureState2Q(10 ** 400, 0, 0, 0), "amplitude c00"),
    (lambda: revival_times(10 ** 400, 3), "chi12"),
    (lambda: bell_psi_curves(10 ** 400, 1.0), "gamma"),
    (lambda: EitParams(1, 1, 10, 5, 10 ** 400), "n_at"),
], ids=["PureState2Q", "revival_times", "bell_psi_curves", "EitParams"])
def test_an_int_past_the_float_range_is_named_by_every_api_call(call, field):
    with pytest.raises(ValueError, match=rf"^{field} must be finite, got an int past the float range$"):
        call()
