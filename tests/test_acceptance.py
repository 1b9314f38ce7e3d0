"""Release gate: ten end-to-end checks covering every advertised behavior.

Each test prints one PASS/FAIL verdict line (visible with -s or on failure)
and asserts it, so `pytest -v tests/test_acceptance.py` reads as a checklist.
"""

import math
import subprocess
import sys

import numpy as np

from kerrdeco import analytics, linalg, measures, verify
from kerrdeco.analytics import (
    bell_like_uncoupled_curves, bell_phi_curves, bell_psi_curves,
    check_ordering_inequalities, concurrence_envelope, estimate_cross_coupling,
    negativity_envelope, unitary_pure_entanglement, werner_concurrence_envelope,
    werner_like_lossless_curve, werner_phi_curves, werner_psi_curves, EitParams,
)
from kerrdeco.evolution import (
    CavityParams, closed_form_rho, integrate_master_grid, propagate,
)
from kerrdeco.states import (
    BellLike, BellPhi, BellPsi, CustomMixed, CustomPure, PlusPlus, Separable,
    WernerLike, WernerPhi, WernerPsi, initial_density, random_density_matrix,
    random_pure_state, separable, to_density,
)

SEED = verify.corpus_seed()


def _verdict(num: int, label: str, ok: bool, detail: str) -> None:
    print(f"acceptance {num:02d} {label}: {'PASS' if ok else 'FAIL'} [{detail}]")
    assert ok, f"{label}: {detail}"


def all_families():
    rng = np.random.default_rng(SEED)
    return [
        BellPsi(+1), BellPhi(+1), BellLike(), PlusPlus(),
        Separable(0.6j, 0.8, 0.28, 0.96),
        WernerPsi(0.8, +1), WernerPhi(0.8, +1), WernerLike(0.8),
        CustomPure(random_pure_state(rng)),
        CustomMixed(random_density_matrix(rng)),
    ]


def test_01_analytic_propagator_matches_integrated_oracle():
    times = np.linspace(0.1, 1.0, 10)
    worst = 0.0
    for initial in all_families():
        rho0 = initial_density(initial)
        for gamma in (1.0, 4.0, 10.0):
            for chi12 in (0.0, 20.0):
                for chi_self in (0.0, 7.0):
                    prm = CavityParams(gamma1=gamma, gamma2=gamma,
                                       chi11=chi_self, chi22=chi_self, chi12=chi12)
                    numeric = integrate_master_grid(rho0, prm, times)
                    for t, num in zip(times, numeric):
                        exact = propagate(rho0, prm, float(t))
                        worst = max(worst, linalg.trace_distance(exact.matrix, num))
    _verdict(1, "analytic propagator vs integrated master equation",
             worst <= 1e-8,
             f"10 families x 12 parameter sets, worst trace distance {worst:.2e}")


def test_02_closed_form_matrices_match_propagator():
    times = np.linspace(0.1, 1.0, 10)
    families = [BellPsi(+1), BellPhi(-1), BellLike(), PlusPlus(),
                WernerPsi(0.8, +1), WernerPhi(0.8, -1), WernerLike(0.8)]
    worst = 0.0
    for gamma in (1.0, 4.0, 10.0):
        for chi12 in (0.0, 20.0):
            prm = CavityParams(gamma1=gamma, gamma2=gamma, chi12=chi12)
            for initial in families:
                rho0 = initial_density(initial)
                for t in times:
                    gap = np.abs(closed_form_rho(initial, prm, float(t)).matrix
                                 - propagate(rho0, prm, float(t)).matrix).max()
                    worst = max(worst, gap)
    _verdict(2, "closed-form matrices vs propagator",
             worst <= 1e-10, f"7 families, worst elementwise gap {worst:.2e}")


def test_03_decay_curves_match_measured_states():
    times = np.linspace(0.0, 1.0, 50)
    worst = 0.0
    for gamma in (1.0, 4.0, 10.0):
        prm = CavityParams(gamma1=gamma, gamma2=gamma, chi12=20.0)
        pairs = [(BellPsi(+1), bell_psi_curves(gamma, times)),
                 (BellPhi(+1), bell_phi_curves(gamma, times))]
        unc = CavityParams(gamma1=gamma, gamma2=gamma, chi12=0.0)
        for p in (0.5, 0.8, 1.0):
            pairs.append((WernerPsi(p, +1), werner_psi_curves(gamma, p, times)))
            pairs.append((WernerPhi(p, +1), werner_phi_curves(gamma, p, times)))
        for initial, (want_c, want_n) in pairs:
            rho0 = initial_density(initial)
            for k, t in enumerate(times):
                rho = propagate(rho0, prm, float(t))
                worst = max(worst, abs(measures.concurrence(rho) - want_c[k]),
                            abs(measures.negativity(rho) - want_n[k]))
        want_c, want_n = bell_like_uncoupled_curves(gamma, times)
        rho0 = initial_density(BellLike())
        for k, t in enumerate(times):
            rho = propagate(rho0, unc, float(t))
            worst = max(worst, abs(measures.concurrence(rho) - want_c[k]),
                        abs(measures.negativity(rho) - want_n[k]))
    lossless = CavityParams(gamma1=0.0, gamma2=0.0, chi12=20.0)
    for p in (0.5, 0.8, 1.0):
        rho0 = initial_density(WernerLike(p))
        for t in np.linspace(0.0, 0.5, 26):
            want = werner_like_lossless_curve(p, 20.0, float(t))
            rho = propagate(rho0, lossless, float(t))
            worst = max(worst, abs(measures.concurrence(rho) - want))
    curves_ok = worst <= 1e-9

    worst_init = 0.0
    for p in (0.4, 0.6, 0.8, 1.0):
        want = (3.0 * p - 1.0) / 2.0
        for initial in (WernerPsi(p, +1), WernerPhi(p, +1), WernerLike(p)):
            got = measures.concurrence(initial_density(initial))
            worst_init = max(worst_init, abs(got - want))
    init_ok = worst_init <= 1e-10

    _verdict(3, "decay curves vs measured propagated states",
             curves_ok and init_ok,
             f"worst curve gap {worst:.2e}, worst initial Werner gap {worst_init:.2e}")


def test_04_measure_ordering_reversal_at_reference_point():
    gamma, chi12, t = 4.0, 20.0, 0.125
    prm = CavityParams(gamma1=gamma, gamma2=gamma, chi12=chi12)
    rho_psi = propagate(initial_density(BellPsi(+1)), prm, t)
    rho_phi = propagate(initial_density(BellPhi(+1)), prm, t)
    c_psi, c_phi = measures.concurrence(rho_psi), measures.concurrence(rho_phi)
    n_psi, n_phi = measures.negativity(rho_psi), measures.negativity(rho_phi)
    gap_psi = abs(c_psi - math.exp(-0.5))
    gap_phi = abs(c_phi - math.exp(-1.0))
    ok = gap_psi <= 1e-9 and gap_phi <= 1e-9 and c_psi > c_phi and n_psi < n_phi
    _verdict(4, "concurrence and negativity rank the Bell pair oppositely", ok,
             f"C {c_psi:.5f} > {c_phi:.5f}, N {n_psi:.5f} < {n_phi:.5f}, "
             f"closed-form gaps {gap_psi:.1e}/{gap_phi:.1e}")


def test_05_ordering_chains_and_revival_comparisons():
    grid = np.linspace(0.02, 1.0, 50)
    chains_ok = True
    revivals_ok = True
    for p in (0.6, 0.8, 1.0):
        rep = check_ordering_inequalities(4.0, 20.0, grid, p=p, revival_count=5)
        chains_ok = chains_ok and bool(np.all(rep.concurrence_chain_ok)) \
            and bool(np.all(rep.negativity_chain_ok))
        revivals_ok = revivals_ok and bool(np.all(rep.revival_concurrence_ok)) \
            and bool(np.all(rep.revival_negativity_ok))
    _verdict(5, "inequality chains and revival comparisons", chains_ok and revivals_ok,
             f"50 times, coupling ratio 5, weights 0.6/0.8/1.0, "
             f"chains {'hold' if chains_ok else 'broken'}, revivals {'hold' if revivals_ok else 'broken'}")


def test_06_envelopes_track_revival_peaks_at_strong_coupling():
    gamma, chi12 = 4.0, 400.0
    prm = CavityParams(gamma1=gamma, gamma2=gamma, chi12=chi12)
    bell_like0 = initial_density(BellLike())
    werner0 = initial_density(WernerLike(0.8))
    worst = 0.0
    margins = []
    for n in range(1, 6):
        tn = n * math.pi / chi12
        rho = propagate(bell_like0, prm, tn)
        c, neg = measures.concurrence(rho), measures.negativity(rho)
        dev_c = abs(c - concurrence_envelope(gamma, tn))
        dev_n = abs(neg - negativity_envelope(gamma, tn))
        dev_simple = abs(neg - negativity_envelope(gamma, tn, simple=True))
        dev_w = abs(measures.concurrence(propagate(werner0, prm, tn))
                    - werner_concurrence_envelope(gamma, 0.8, tn))
        worst = max(worst, dev_c, dev_n, dev_w)
        margins.append(dev_simple - dev_n)
    track_ok = worst <= 2e-3
    simple_worse = min(margins) > 0.0
    _verdict(6, "envelopes at the first five revival times", track_ok and simple_worse,
             f"worst gap {worst:.2e}, short-form deviation exceeds full form by >= {min(margins):.2e}")


def test_07_lossless_dynamics():
    chi12 = 20.0
    lossless = CavityParams(gamma1=0.0, gamma2=0.0, chi12=chi12)
    rng = np.random.default_rng(SEED)
    t_star = (math.pi / 2.0) / chi12
    worst_prod = 0.0
    for _ in range(20):
        a = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        b = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        a /= np.linalg.norm(a)
        b /= np.linalg.norm(b)
        psi = separable(a[0], a[1], b[0], b[1])
        want = 4.0 * abs(a[0] * a[1] * b[0] * b[1])
        got = measures.concurrence(propagate(to_density(psi), lossless, t_star))
        worst_prod = max(worst_prod, abs(got - want),
                         abs(unitary_pure_entanglement(psi, chi12, t_star) - want))

    worst_bl = 0.0
    worst_wl = 0.0
    worst_bell = 0.0
    bl0 = initial_density(BellLike())
    wl0 = initial_density(WernerLike(0.8))
    psi0 = initial_density(BellPsi(+1))
    phi0 = initial_density(BellPhi(+1))
    for t in np.linspace(0.0, 0.5, 26):
        rho = propagate(bl0, lossless, float(t))
        worst_bl = max(worst_bl, abs(measures.concurrence(rho) - abs(math.cos(chi12 * t))))
        rho = propagate(wl0, lossless, float(t))
        worst_wl = max(worst_wl,
                       abs(measures.concurrence(rho) - werner_like_lossless_curve(0.8, chi12, float(t))))
        for rho0 in (psi0, phi0):
            rho = propagate(rho0, lossless, float(t))
            worst_bell = max(worst_bell, abs(measures.concurrence(rho) - 1.0),
                             abs(measures.negativity(rho) - 1.0))
    ok = max(worst_prod, worst_bl, worst_wl, worst_bell) <= 1e-10
    _verdict(7, "lossless product peak, cosine revival, Werner curve, constant Bell", ok,
             f"gaps {worst_prod:.1e}/{worst_bl:.1e}/{worst_wl:.1e}/{worst_bell:.1e}")


def test_08_measure_theory_properties():
    rng = np.random.default_rng(SEED)
    order_ok = True
    worst_order = -1.0
    for _ in range(1000):
        rho = random_density_matrix(rng)
        c, n = measures.concurrence(rho), measures.negativity(rho)
        worst_order = max(worst_order, n - c)
        order_ok = order_ok and n <= c + 1e-9

    worst_pure = 0.0
    for _ in range(1000):
        rho = to_density(random_pure_state(rng))
        worst_pure = max(worst_pure, abs(measures.concurrence(rho) - measures.negativity(rho)))
    pure_ok = worst_pure <= 1e-9

    worst_lu = 0.0
    for _ in range(200):
        rho = random_density_matrix(rng)
        u = np.kron(linalg.haar_unitary(2, rng), linalg.haar_unitary(2, rng))
        rotated = u @ rho.matrix @ u.conj().T
        worst_lu = max(worst_lu,
                       abs(measures.concurrence(rho) - measures.concurrence(rotated)),
                       abs(measures.negativity(rho) - measures.negativity(rotated)))
    lu_ok = worst_lu <= 1e-9

    worst_eq = 0.0
    prm = CavityParams(gamma1=4.0, gamma2=4.0, chi12=20.0)
    for p in (0.4, 0.6, 0.8, 1.0):
        rho0 = initial_density(WernerPhi(p, +1))
        for t in np.linspace(0.0, 1.0, 21):
            rho = propagate(rho0, prm, float(t))
            worst_eq = max(worst_eq, abs(measures.concurrence(rho) - measures.negativity(rho)))
    eq_ok = worst_eq <= 1e-9

    _verdict(8, "measure ordering, pure coincidence, local-unitary invariance, Werner equality",
             order_ok and pure_ok and lu_ok and eq_ok,
             f"N-C max {worst_order:.1e}, pure gap {worst_pure:.1e}, "
             f"LU gap {worst_lu:.1e}, Werner gap {worst_eq:.1e}")


def test_09_figure_output_is_deterministic():
    cmd = [sys.executable, "-m", "kerrdeco.cli", "figure", "fig1"]
    first = subprocess.run(cmd, capture_output=True, check=True)
    second = subprocess.run(cmd, capture_output=True, check=True)
    ok = first.stdout == second.stdout and len(first.stdout) > 0
    _verdict(9, "two figure runs emit byte-identical CSV", ok,
             f"{len(first.stdout)} bytes each")


def test_10_cross_coupling_estimator_and_adiabatic_guard():
    est = estimate_cross_coupling(EitParams(g13=1.0, g24=1.0, omega_c=10.0,
                                            delta_omega2=5.0, n_at=100))
    value_ok = abs(est.chi12 - 0.3) <= 1e-12 and not est.adiabatic_ok
    below = estimate_cross_coupling(EitParams(1.0, 1.0, 10.0, 5.0, 99))
    above = estimate_cross_coupling(EitParams(1.0, 1.0, 10.0, 5.0, 101))
    guard_ok = below.adiabatic_ok and not above.adiabatic_ok
    _verdict(10, "cross-coupling estimate and adiabatic guard", value_ok and guard_ok,
             f"estimate {est.chi12:.6g}, guard ok below / trips above the threshold")
