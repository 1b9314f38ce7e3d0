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
    WernerLike, WernerPhi, WernerPsi, _initial_matrix, _random_amplitudes, _random_density, _read,
    initial_densities, initial_label, random_density_matrix, random_pure_state,
)

__all__ = ["CheckResult", "corpus_seed", "run_checks"]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def corpus_seed() -> int:
    """Seed of the random-state corpus, overridable via KERRDECO_SEED."""
    seed = _read(os.environ.get("KERRDECO_SEED", "42"), "KERRDECO_SEED", int)
    if seed < 0:
        raise ValueError(f"KERRDECO_SEED must be nonnegative, got {seed}")
    return seed


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


def _oracle_gaps(rho0s: DensityMatrix2Q, params: CavityParams, times, propagator) -> list:
    """Max trace distance between propagator and oracle per state of a stack, from one call of each."""
    numeric = integrate_master_grid(rho0s.matrix, params, times, fock_dim=2)
    got = np.asarray(propagator(rho0s, params, times))
    return linalg.trace_distance(got, numeric).max(axis=1).tolist()


def run_checks(level: str = "fast", propagator: Optional[Callable] = None) -> list:
    """Run the verification battery and return one result per check.

    ``level`` is "fast" (seconds) or "full" (adds the complete family/
    parameter sweep, the strong-coupling envelope comparisons and larger
    random corpora). ``propagator`` can be substituted to probe the
    battery itself: a callable ``(rho0, params, times)`` that receives a
    (B, 4, 4) stack of initial states, all of one check's, and returns their
    states at a 1-d array of N times as a (B, N, 4, 4) array or
    ``DensityMatrix2Q``, as ``evolution.propagate`` does, the default.
    """
    if level not in ("fast", "full"):
        raise ValueError(f"level must be 'fast' or 'full', got {level!r}")
    full = level == "full"
    prop = propagator or propagate
    rng = np.random.default_rng(corpus_seed())
    results: list[CheckResult] = []

    def record(name: str, passed: bool, detail: str):
        results.append(CheckResult(name, bool(passed), detail))

    def within(name: str, value: float, limit: float, what: str):
        """A check that passes when ``value`` is at most ``limit`` (NaN fails), its detail naming both."""
        record(name, value <= limit, f"{what}: {value:.2e} (limit {limit:g})")

    times = np.linspace(0.1, 1.0, 10)
    params = CavityParams(gamma1=4.0, gamma2=4.0, chi11=7.0, chi22=7.0, chi12=20.0)
    families = _fixed_families(rng)

    # Route 1 vs route 2: analytic propagator against the RK4 integration.
    checked = families if full else families[:4] + families[5:8]
    rho0s = initial_densities(checked)
    gaps = _oracle_gaps(rho0s, params, times, prop)
    for initial, gap in zip(checked, gaps):
        within(f"oracle_equivalence/{initial_label(initial)}", gap, 1e-8, "max trace distance")

    if full:
        sweep_worst = 0.0
        for gamma in (1.0, 4.0, 10.0):
            for chi12 in (0.0, 20.0):
                for chi_self in (0.0, 7.0):
                    p = CavityParams(gamma1=gamma, gamma2=gamma, chi11=chi_self,
                                     chi22=chi_self, chi12=chi12)
                    # the base set is one point of the grid, with the same states and times
                    sweep_worst = max(sweep_worst, *(gaps if p == params else _oracle_gaps(rho0s, p, times, prop)))
        within("oracle_equivalence/parameter_sweep", sweep_worst, 1e-8, "worst trace distance over the full grid")

    # Closed-form matrices against the propagator.
    closed_params = CavityParams(gamma1=4.0, gamma2=4.0, chi11=0.0, chi22=0.0, chi12=20.0)
    closed = (BellPsi(-1), BellPhi(+1), BellLike(), PlusPlus(),
              WernerPsi(0.8, +1), WernerPhi(0.8, -1), WernerLike(0.8))
    for initial, got in zip(closed, np.asarray(prop(initial_densities(closed), closed_params, times))):
        want = closed_form_rho(initial, closed_params, times).matrix
        worst = float(np.max(np.abs(want - got)))
        within(f"closed_form/{initial_label(initial)}", worst, 5e-14, "max elementwise gap")

    # Decay curves against measures of propagated states.
    gamma = 4.0
    quiet = CavityParams(gamma1=gamma, gamma2=gamma, chi11=0.0, chi22=0.0, chi12=0.0)

    curve_cases = [
        ("bell_psi", BellPsi(+1), lambda t: analytics.bell_psi_curves(gamma, t)),
        ("bell_phi", BellPhi(+1), lambda t: analytics.bell_phi_curves(gamma, t)),
        ("bell_like_uncoupled", BellLike(), lambda t: analytics.bell_like_uncoupled_curves(gamma, t)),
        ("werner_psi", WernerPsi(0.8, +1), lambda t: analytics.werner_psi_curves(gamma, 0.8, t)),
        ("werner_phi", WernerPhi(0.8, +1), lambda t: analytics.werner_phi_curves(gamma, 0.8, t)),
    ]
    states = prop(initial_densities([initial for _, initial, _ in curve_cases]), quiet, times)
    for (name, _, fn), c, n in zip(curve_cases, measures.concurrence(states), measures.negativity(states)):
        c_ref, n_ref = fn(times)
        gap = float(np.max(np.abs([c - c_ref, n - n_ref])))
        within(f"decay_curves/{name}", gap, 5e-13, "max curve gap")

    lossless = CavityParams(gamma1=0.0, gamma2=0.0, chi11=0.0, chi22=0.0, chi12=20.0)
    weights = (0.4, 0.6, 0.8, 1.0)
    got = measures.concurrence(prop(initial_densities([WernerLike(p) for p in weights]), lossless, times))
    worst = float(np.max(np.abs(got - [analytics.werner_like_lossless_curve(p, 20.0, times) for p in weights])))
    within("decay_curves/werner_like_lossless", worst, 2e-13, "max curve gap")

    werners = initial_densities([tag for p in weights
                                 for tag in (WernerPsi(p, +1), WernerPhi(p, +1), WernerLike(p))])
    start = np.repeat([max(0.0, (3.0 * p - 1.0) / 2.0) for p in weights], 3)
    worst = float(np.max(np.abs([measures.concurrence(werners) - start, measures.negativity(werners) - start])))
    within("werner/initial_value", worst, 1e-13, "max gap to (3p-1)/2 at t=0")

    # Algebraic properties of the measures on seeded corpora, each drawn in a fixed order as one
    # stack, then checked and measured at once.
    n_corpus = 1000 if full else 200
    corpus = DensityMatrix2Q(_random_density(rng, n_corpus))
    worst = float(np.max(measures.negativity(corpus) - measures.concurrence(corpus)))
    within("measures/negativity_below_concurrence", worst, 1e-9, f"max N - C on {n_corpus} random states")

    amps = _random_amplitudes(rng, n_corpus)
    corpus = DensityMatrix2Q(amps[:, :, np.newaxis] * amps.conj()[:, np.newaxis, :])
    cp = measures.pure_concurrence(amps)
    worst = float(np.max(np.abs([measures.concurrence(corpus) - cp, measures.negativity(corpus) - cp])))
    within("measures/pure_state_coincidence", worst, 1e-9,
           f"max |measure - 2|c00 c11 - c01 c10|| on {n_corpus} pure states")

    corpus, rotated = np.empty((2, 200 if full else 50, 4, 4), dtype=complex)
    for k in range(len(corpus)):
        corpus[k] = _random_density(rng)
        u = np.kron(linalg.haar_unitary(2, rng), linalg.haar_unitary(2, rng))
        rotated[k] = u @ corpus[k] @ u.conj().T
    corpus, rotated = DensityMatrix2Q(corpus), DensityMatrix2Q(rotated)
    worst = float(np.max(np.abs([measures.concurrence(rotated) - measures.concurrence(corpus),
                                 measures.negativity(rotated) - measures.negativity(corpus)])))
    within("measures/local_unitary_invariance", worst, 1e-9, "max shift under local rotations")

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
    # for (t1, t2) = (0.05, 0.1) and (0.2, 0.3): t1 + t2 in one leg against t2 after t1
    rho0 = initial_densities([BellLike()])
    legs = np.asarray(prop(rho0, params, np.array([0.05, 0.2, 0.05 + 0.1, 0.2 + 0.3])))[0]
    two_legs = np.asarray(prop(legs[:2], params, np.array([0.1, 0.3])))[[0, 1], [0, 1]]
    worst = float(np.max(np.abs(two_legs - legs[2:])))
    within("propagator/semigroup", worst, 2e-14, "max composition gap")

    vac = np.diag([1.0, 0.0, 0.0, 0.0])
    # coherences decay at gamma/2, so gamma*t = 60 puts them below e^-30
    late = np.array([60.0 / gamma])
    ends = DensityMatrix2Q([_initial_matrix(BellPhi(+1)), _random_density(rng)])
    gap = float(np.max(linalg.trace_distance(np.asarray(prop(ends, quiet, late))[:, 0], [vac, vac])))
    within("propagator/vacuum_limit", gap, 5e-12, "distance to vacuum at gamma*t = 60")

    states = np.asarray(prop(rho0, lossless, times))
    worst = float(np.max(np.abs(np.trace(states @ states, axis1=-2, axis2=-1).real - 1.0)))
    within("propagator/lossless_purity", worst, 5e-14, "max purity loss without damping")

    if full:
        # Envelope fidelity at strong coupling, against measured revival peaks.
        strong = CavityParams(gamma1=4.0, gamma2=4.0, chi11=0.0, chi22=0.0, chi12=400.0)
        revs = analytics.revival_times(400.0, 5)
        envelope_weights = (0.6, 0.8, 1.0)

        # compare curves and envelopes at the nominal revival times, Bell-like state first
        states = prop(initial_densities([BellLike(), *(WernerLike(p) for p in envelope_weights)]), strong, revs)
        c_all, n_t = measures.concurrence(states), measures.negativity(states)[0]
        dev_main = np.abs(n_t - analytics.negativity_envelope(4.0, revs))
        dev_simple = np.abs(n_t - analytics.negativity_envelope(4.0, revs, simple=True))
        worst_c = float(np.max(np.abs(c_all[0] - analytics.concurrence_envelope(4.0, revs))))
        worst_n = float(np.max(dev_main))
        worst_simple_margin = float(np.min(dev_simple - dev_main))
        within("envelope/concurrence_peaks", worst_c, 2e-3, "worst revival-time gap")
        within("envelope/negativity_peaks", worst_n, 2e-3, "worst revival-time gap")
        record("envelope/simple_form_less_accurate", worst_simple_margin > 0,
               f"smallest accuracy margin of the full form: {worst_simple_margin:.2e}")

        worst = float(np.max(np.abs(c_all[1:] - [analytics.werner_concurrence_envelope(4.0, p, revs)
                                                  for p in envelope_weights])))
        within("envelope/werner_concurrence_peaks", worst, 2e-3, "worst revival-time gap")

        # Revival-time comparisons of the Werner-like curves.
        for p in envelope_weights:
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
