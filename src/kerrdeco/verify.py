"""Self-verification battery behind the ``kerrdeco verify`` subcommand.

Each check cross-validates one advertised guarantee or internal contract:
propagator against the master-equation oracle, closed-form matrices and
curves against measured states, ordering chains, envelope fidelity, and
the algebraic properties of the measures on a seeded random corpus.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import analytics, linalg, measures
from .evolution import CavityParams, closed_form_rho, integrate_master_grid, propagate
from .states import (
    BellLike, BellPhi, BellPsi, CustomMixed, CustomPure, DensityMatrix2Q, PlusPlus, Separable,
    WernerLike, WernerPhi, WernerPsi, _read, initial_density, initial_label,
    random_density_matrix, random_pure_state, to_density,
)

__all__ = ["CheckResult", "corpus_seed", "run_checks"]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def corpus_seed() -> int:
    """Seed of the random-state corpus, overridable via KERRDECO_SEED."""
    return _read(os.environ.get("KERRDECO_SEED", "42"), "KERRDECO_SEED", int)


def _fixed_families(rng: np.random.Generator) -> list:
    """One representative tag per family; the random ones drawn from rng."""
    d = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    d /= np.linalg.norm(d)
    e = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    e /= np.linalg.norm(e)
    return [
        BellPsi(+1), BellPhi(+1), BellLike(), PlusPlus(),
        Separable(d[0], d[1], e[0], e[1]),
        WernerPsi(0.8, -1), WernerPhi(0.8, +1), WernerLike(0.8),
        CustomPure(random_pure_state(rng)),
        CustomMixed(random_density_matrix(rng)),
    ]


def _oracle_gaps(initials, params: CavityParams, times, propagator) -> list:
    """Max trace distance between propagator and oracle per initial state, from one oracle call for all."""
    rho0s = [initial_density(initial) for initial in initials]
    numeric = integrate_master_grid(np.array([rho0.matrix for rho0 in rho0s]), params, times, fock_dim=2)
    gaps = []
    for rho0, want in zip(rho0s, numeric):
        got = np.asarray(propagator(rho0, params, times))
        gaps.append(float(np.max([linalg.trace_distance(a, b) for a, b in zip(got, want)])))
    return gaps


def run_checks(level: str = "fast", propagator: Optional[Callable] = None) -> list:
    """Run the verification battery and return one result per check.

    ``level`` is "fast" (seconds) or "full" (adds the complete family/
    parameter sweep, the strong-coupling envelope comparisons and larger
    random corpora). ``propagator`` can be substituted to probe the
    battery itself: a callable ``(rho0, params, times)`` that returns the
    states at a 1-d array of times as an (N, 4, 4) array or a
    ``DensityMatrix2Q`` stack, as ``evolution.propagate`` does. It defaults
    to ``propagate``.
    """
    if level not in ("fast", "full"):
        raise ValueError(f"level must be 'fast' or 'full', got {level!r}")
    full = level == "full"
    prop = propagator or propagate
    rng = np.random.default_rng(corpus_seed())
    results: list[CheckResult] = []

    def record(name: str, passed: bool, detail: str):
        results.append(CheckResult(name, bool(passed), detail))

    times = np.linspace(0.1, 1.0, 10)
    params = CavityParams(gamma1=4.0, gamma2=4.0, chi11=7.0, chi22=7.0, chi12=20.0)
    families = _fixed_families(rng)

    # Route 1 vs route 2: analytic propagator against the RK4 integration.
    fast_families = families[:4] + families[5:8]
    checked = families if full else fast_families
    for initial, gap in zip(checked, _oracle_gaps(checked, params, times, prop)):
        record(f"oracle_equivalence/{initial_label(initial)}", gap <= 1e-8,
               f"max trace distance {gap:.2e} (limit 1e-8)")

    if full:
        sweep_worst = 0.0
        for gamma in (1.0, 4.0, 10.0):
            for chi12 in (0.0, 20.0):
                for chi_self in (0.0, 7.0):
                    p = CavityParams(gamma1=gamma, gamma2=gamma, chi11=chi_self,
                                     chi22=chi_self, chi12=chi12)
                    sweep_worst = max(sweep_worst, *_oracle_gaps(families, p, times, prop))
        record("oracle_equivalence/parameter_sweep", sweep_worst <= 1e-8,
               f"worst trace distance {sweep_worst:.2e} over the full grid")

    # Closed-form matrices against the propagator.
    closed_params = CavityParams(gamma1=4.0, gamma2=4.0, chi11=0.0, chi22=0.0, chi12=20.0)
    for initial in (BellPsi(-1), BellPhi(+1), BellLike(), PlusPlus(),
                    WernerPsi(0.8, +1), WernerPhi(0.8, -1), WernerLike(0.8)):
        got = np.asarray(prop(initial_density(initial), closed_params, times))
        want = closed_form_rho(initial, closed_params, times).matrix
        worst = float(np.max(np.abs(want - got)))
        record(f"closed_form/{initial_label(initial)}", worst <= 1e-10,
               f"max elementwise gap {worst:.2e} (limit 1e-10)")

    # Decay curves against measures of propagated states.
    gamma = 4.0
    quiet = CavityParams(gamma1=gamma, gamma2=gamma, chi11=0.0, chi22=0.0, chi12=0.0)

    def curve_gap(initial, curve_fn):
        states = prop(initial_density(initial), quiet, times)
        c_ref, n_ref = curve_fn(times)
        return float(np.max(np.abs([measures.concurrence(states) - c_ref, measures.negativity(states) - n_ref])))

    curve_cases = [
        ("bell_psi", BellPsi(+1), lambda t: analytics.bell_psi_curves(gamma, t)),
        ("bell_phi", BellPhi(+1), lambda t: analytics.bell_phi_curves(gamma, t)),
        ("bell_like_uncoupled", BellLike(), lambda t: analytics.bell_like_uncoupled_curves(gamma, t)),
        ("werner_psi", WernerPsi(0.8, +1), lambda t: analytics.werner_psi_curves(gamma, 0.8, t)),
        ("werner_phi", WernerPhi(0.8, +1), lambda t: analytics.werner_phi_curves(gamma, 0.8, t)),
    ]
    for name, initial, fn in curve_cases:
        gap = curve_gap(initial, fn)
        record(f"decay_curves/{name}", gap <= 1e-9, f"max curve gap {gap:.2e} (limit 1e-9)")

    lossless = CavityParams(gamma1=0.0, gamma2=0.0, chi11=0.0, chi22=0.0, chi12=20.0)
    worst = 0.0
    for p in (0.4, 0.6, 0.8, 1.0):
        rho0 = initial_density(WernerLike(p))
        got = measures.concurrence(prop(rho0, lossless, times))
        worst = max(worst, float(np.max(np.abs(got - analytics.werner_like_lossless_curve(p, 20.0, times)))))
    record("decay_curves/werner_like_lossless", worst <= 1e-9,
           f"max curve gap {worst:.2e} (limit 1e-9)")

    worst = 0.0
    for p in (0.4, 0.6, 0.8, 1.0):
        for kind, ctor in (("psi", WernerPsi(p, +1)), ("phi", WernerPhi(p, +1)), ("like", WernerLike(p))):
            rho0 = initial_density(ctor)
            start = max(0.0, (3.0 * p - 1.0) / 2.0)
            worst = max(worst, abs(measures.concurrence(rho0) - start),
                        abs(measures.negativity(rho0) - start))
    record("werner/initial_value", worst <= 1e-10,
           f"max gap to (3p-1)/2 at t=0: {worst:.2e} (limit 1e-10)")

    # Algebraic properties of the measures on the seeded corpus: the states
    # are drawn one by one, in a fixed order, into one array filled in place
    # (a list of small arrays would hold a thousand heap objects at once),
    # and measured as one stack.
    n_corpus = 1000 if full else 200
    corpus = np.empty((n_corpus, 4, 4), dtype=complex)
    for k in range(n_corpus):
        corpus[k] = random_density_matrix(rng).matrix
    corpus = DensityMatrix2Q(corpus)
    worst = float(np.max(measures.negativity(corpus) - measures.concurrence(corpus)))
    record("measures/negativity_below_concurrence", worst <= 1e-9,
           f"max N - C on {n_corpus} random states: {worst:.2e}")

    corpus, cp = np.empty((n_corpus, 4, 4), dtype=complex), np.empty(n_corpus)
    for k in range(n_corpus):
        psi = random_pure_state(rng)
        corpus[k], cp[k] = to_density(psi).matrix, measures.pure_concurrence(psi)
    corpus = DensityMatrix2Q(corpus)
    worst = float(np.max(np.abs([measures.concurrence(corpus) - cp, measures.negativity(corpus) - cp])))
    record("measures/pure_state_coincidence", worst <= 1e-9,
           f"max |measure - 2|c00 c11 - c01 c10|| on {n_corpus} pure states: {worst:.2e}")

    corpus, rotated = np.empty((2, 200 if full else 50, 4, 4), dtype=complex)
    for k in range(len(corpus)):
        corpus[k] = random_density_matrix(rng).matrix
        u = np.kron(linalg.haar_unitary(2, rng), linalg.haar_unitary(2, rng))
        rotated[k] = u @ corpus[k] @ u.conj().T
    corpus, rotated = DensityMatrix2Q(corpus), DensityMatrix2Q(rotated)
    worst = float(np.max(np.abs([measures.concurrence(rotated) - measures.concurrence(corpus),
                                 measures.negativity(rotated) - measures.negativity(corpus)])))
    record("measures/local_unitary_invariance", worst <= 1e-9,
           f"max shift under local rotations: {worst:.2e}")

    # Ordering chains and the measure-ordering relativity.
    chain_grid = np.linspace(0.02, 1.0, 50)
    rep = analytics.check_ordering_inequalities(4.0, 20.0, chain_grid)
    record("ordering/concurrence_chain", bool(np.all(rep.concurrence_chain_ok)),
           "psi >= envelope >= uncoupled >= phi on 50 times")
    record("ordering/negativity_chain", bool(np.all(rep.negativity_chain_ok)),
           "psi <= uncoupled <= phi <= envelope on 50 times")

    t_half = 0.5 / gamma
    c_psi, n_psi = analytics.bell_psi_curves(gamma, t_half)
    c_phi, n_phi = analytics.bell_phi_curves(gamma, t_half)
    ok = (abs(c_psi - math.exp(-0.5)) < 1e-12 and abs(c_phi - math.exp(-1.0)) < 1e-12
          and c_psi > c_phi and n_psi < n_phi)
    record("ordering/measure_relativity", ok,
           f"at gamma*t = 0.5: C {c_psi:.5f} > {c_phi:.5f} while N {n_psi:.5f} < {n_phi:.5f}")

    # Propagator semigroup property and long-time limit.
    worst = 0.0
    rho0 = initial_density(BellLike())
    for t1, t2 in ((0.05, 0.1), (0.2, 0.3)):
        first_leg, one_leg = np.asarray(prop(rho0, params, np.array([t1, t1 + t2])))
        two_leg = np.asarray(prop(first_leg, params, np.array([t2])))[0]
        worst = max(worst, float(np.max(np.abs(two_leg - one_leg))))
    record("propagator/semigroup", worst <= 1e-10, f"max composition gap {worst:.2e}")

    vac = np.zeros((4, 4), dtype=complex)
    vac[0, 0] = 1.0
    # coherences decay at gamma/2, so gamma*t = 60 puts them below e^-30
    t_late = 60.0 / gamma
    late = np.array([t_late])
    gap = max(
        linalg.trace_distance(np.asarray(prop(initial_density(BellPhi(+1)), quiet, late))[0], vac),
        linalg.trace_distance(np.asarray(prop(random_density_matrix(rng), quiet, late))[0], vac),
    )
    record("propagator/vacuum_limit", gap <= 1e-10, f"distance to vacuum at gamma*t = 60: {gap:.2e}")

    purity = [np.trace(rho @ rho).real for rho in np.asarray(prop(rho0, lossless, times))]
    worst = float(np.max(np.abs(np.array(purity) - 1.0)))
    record("propagator/lossless_purity", worst <= 1e-10,
           f"max purity loss without damping: {worst:.2e}")

    if full:
        # Envelope fidelity at strong coupling, against measured revival peaks.
        strong = CavityParams(gamma1=4.0, gamma2=4.0, chi11=0.0, chi22=0.0, chi12=400.0)
        revs = analytics.revival_times(400.0, 5)
        rho_like = initial_density(BellLike())

        # compare curve and envelope at the nominal revival times
        states = prop(rho_like, strong, revs)
        c_t, n_t = measures.concurrence(states), measures.negativity(states)
        dev_main = np.abs(n_t - analytics.negativity_envelope(4.0, revs))
        dev_simple = np.abs(n_t - analytics.negativity_envelope(4.0, revs, simple=True))
        worst_c = float(np.max(np.abs(c_t - analytics.concurrence_envelope(4.0, revs))))
        worst_n = float(np.max(dev_main))
        worst_simple_margin = float(np.min(dev_simple - dev_main))
        record("envelope/concurrence_peaks", worst_c <= 2e-3,
               f"worst revival-time gap {worst_c:.2e} (limit 2e-3)")
        record("envelope/negativity_peaks", worst_n <= 2e-3,
               f"worst revival-time gap {worst_n:.2e} (limit 2e-3)")
        record("envelope/simple_form_less_accurate", worst_simple_margin > 0,
               f"smallest accuracy margin of the full form: {worst_simple_margin:.2e}")

        worst = 0.0
        for p in (0.6, 0.8, 1.0):
            peaks = measures.concurrence(prop(initial_density(WernerLike(p)), strong, revs))
            worst = max(worst, float(np.max(np.abs(peaks - analytics.werner_concurrence_envelope(4.0, p, revs)))))
        record("envelope/werner_concurrence_peaks", worst <= 2e-3,
               f"worst revival-time gap {worst:.2e} (limit 2e-3)")

        # Revival-time comparisons of the Werner-like curves.
        for p in (0.6, 0.8, 1.0):
            rep = analytics.check_ordering_inequalities(4.0, 20.0, chain_grid, p=p)
            ok = bool(np.all(rep.revival_concurrence_ok)) and bool(np.all(rep.revival_negativity_ok))
            record(f"ordering/revival_comparisons_p{p:g}", ok,
                   "coupled peaks dominate the uncoupled curve at the first five revivals")

    # Cross-coupling estimator arithmetic and its adiabaticity flag.
    est = analytics.estimate_cross_coupling(analytics.EitParams(1.0, 1.0, 10.0, 5.0, 100))
    low = analytics.estimate_cross_coupling(analytics.EitParams(1.0, 1.0, 10.0, 5.0, 99))
    high = analytics.estimate_cross_coupling(analytics.EitParams(1.0, 1.0, 10.0, 5.0, 101))
    ok = (abs(est.chi12 - 0.3) < 1e-12 and low.adiabatic_ok and not high.adiabatic_ok
          and not est.adiabatic_ok)
    record("estimator/cross_coupling", ok,
           f"chi12 {est.chi12:g} rad/us, adiabatic flag trips at ratio 1")

    return results
