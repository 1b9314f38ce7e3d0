"""The paper's claims as properties over the rate space, on propagated states.

Each is a derandomized hypothesis property: random damping rates and Kerr
couplings, each initial family the claim covers, a grid of times.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from kerrdeco.evolution import CavityParams, propagate
from kerrdeco.measures import concurrence, negativity
from kerrdeco.states import BellLike, BellPhi, BellPsi, WernerPhi, WernerPsi, initial_density

TIMES = np.linspace(0.0, 1.0, 41)


def _curves(initial, params, times=TIMES):
    states = propagate(initial_density(initial), params, times)
    return concurrence(states), negativity(states)


class TestKerrIndependence:
    """Bell and Werner states lose entanglement at a rate that no Kerr coupling changes."""

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(gammas=st.tuples(st.floats(0.0, 10.0), st.floats(0.0, 10.0)).filter(lambda g: g[0] != g[1]),
           chis=st.tuples(*[st.floats(-20.0, 20.0)] * 3),
           signs=st.tuples(*[st.sampled_from([+1, -1])] * 4),
           weights=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)))
    def test_bell_and_werner_entanglement_does_not_depend_on_kerr(self, gammas, chis, signs, weights):
        kerr, plain = CavityParams(*gammas, *chis), CavityParams(*gammas, 0.0, 0.0, 0.0)
        for initial in (BellPsi(signs[0]), BellPhi(signs[1]), WernerPsi(weights[0], signs[2]),
                        WernerPhi(weights[1], signs[3])):
            (c_kerr, n_kerr), (c_plain, n_plain) = _curves(initial, kerr), _curves(initial, plain)
            assert np.abs(n_kerr - n_plain).max() <= 1e-13, initial
            # concurrence takes square roots of the spin-flip spectrum and loses half its digits
            # (1.7e-11 the worst here, on Bell phi); ROADMAP item 1 tightens this bound to 1e-13
            assert np.abs(c_kerr - c_plain).max() <= 1e-10, initial

    def test_bell_like_entanglement_does_depend_on_kerr(self):
        # so the property above is not vacuous: the same comparison moves a Bell-like state's
        # concurrence by 0.84 at these rates
        c_kerr, _ = _curves(BellLike(), CavityParams(0.2, 0.3, 0.0, 0.0, 5.0))
        c_plain, _ = _curves(BellLike(), CavityParams(0.2, 0.3, 0.0, 0.0, 0.0))
        assert np.abs(c_kerr - c_plain).max() > 0.5


class TestMeasureRelativity:
    """Concurrence ranks Bell psi above Bell phi, and negativity ranks it below: the measures are relative."""

    # gamma t on [0.01, 10], log-spaced. The closed forms hold the order on (0, 13.8]; past it both negativities
    # vanish and tie at roundoff
    GAMMA_T = np.geomspace(0.01, 10.0, 61)

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(gamma=st.floats(0.1, 10.0), chis=st.tuples(*[st.floats(-20.0, 20.0)] * 3),
           signs=st.tuples(*[st.sampled_from([+1, -1])] * 2))
    def test_bell_psi_has_more_concurrence_and_less_negativity_than_bell_phi(self, gamma, chis, signs):
        params = CavityParams(gamma, gamma, *chis)
        (c_psi, n_psi), (c_phi, n_phi) = (_curves(initial, params, self.GAMMA_T / gamma)
                                          for initial in (BellPsi(signs[0]), BellPhi(signs[1])))
        # with g = exp(-gamma t) the closed forms give C_psi - C_phi = g (1 - g) and N_phi - N_psi = g**2 + (1 - g)
        # - sqrt((1 - g)**2 + g**2), about g**2 / 2 for small g (and (1 - g)**2 / 2 near g = 1). Both are least at
        # gamma t = 10: 4.5e-5 in concurrence and 1.0e-9 in negativity
        assert np.all(c_psi > c_phi) and np.all(n_psi < n_phi)
