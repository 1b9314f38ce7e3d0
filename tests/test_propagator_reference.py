"""The propagator over a time axis against a frozen scalar reference, bit for bit.

``_ref_rj_factor`` and ``_ref_propagate`` are the scalar ``complex``/``cmath``
loop that evaluated one time per call, kept here as the reference. They
share no code with ``kerrdeco.evolution``: parameters come in as plain
floats and the initial state as a plain 4x4 array.
"""

import cmath
import math

import numpy as np
import pytest

from kerrdeco.evolution import CavityParams, propagate, rj_factor, trajectory
from kerrdeco.states import (
    BellLike, BellPhi, BellPsi, CustomMixed, CustomPure, PlusPlus, Separable,
    WernerLike, WernerPhi, WernerPsi, initial_density, random_density_matrix,
    random_pure_state,
)


def _ref_rj_factor(j, m1, n1, m2, n2, p_j, prm, t, phase_sign):
    gamma1, gamma2, chi11, chi22, chi12 = prm
    d1, d2 = m1 - n1, m2 - n2
    if j == 1:
        gamma, chi_self, m, n = gamma1, chi11, m1, n1
        x = complex(gamma, 2.0 * (chi11 * d1 + chi12 * d2))
    else:
        gamma, chi_self, m, n = gamma2, chi22, m2, n2
        x = complex(gamma, 2.0 * (chi12 * d1 + chi22 * d2))
    if p_j:
        xt = x * t
        if abs(xt) < 1e-8:
            pump_base = gamma * t * (1.0 - xt / 2.0)
        else:
            pump_base = gamma / x * (1.0 - cmath.exp(-xt))
        weight = math.sqrt(math.comb(m + p_j, p_j) * math.comb(n + p_j, p_j))
        pump = weight * pump_base ** p_j
    else:
        pump = 1.0
    phase = phase_sign * (chi_self + chi12) * (m - n) * t
    exponent = 1j * phase - (x * (m + n + 1) - gamma) * (t / 2.0)
    return pump * cmath.exp(exponent)


def _ref_propagate(src, prm, t, phase_sign):
    out = np.zeros((4, 4), dtype=complex)
    for m1 in (0, 1):
        for m2 in (0, 1):
            for n1 in (0, 1):
                for n2 in (0, 1):
                    acc = 0.0 + 0.0j
                    for p1 in (0, 1) if (m1 == 0 and n1 == 0) else (0,):
                        r1 = _ref_rj_factor(1, m1, n1, m2, n2, p1, prm, t, phase_sign)
                        for p2 in (0, 1) if (m2 == 0 and n2 == 0) else (0,):
                            r2 = _ref_rj_factor(2, m1, n1, m2, n2, p2, prm, t, phase_sign)
                            acc += r1 * r2 * src[2 * (m1 + p1) + (m2 + p2), 2 * (n1 + p1) + (n2 + p2)]
                    out[2 * m1 + m2, 2 * n1 + n2] = acc
    return (out + out.conj().T) / 2.0


def _families():
    rng = np.random.default_rng(2024)
    return [
        BellPsi(+1), BellPhi(-1), BellLike(), PlusPlus(),
        Separable(0.6j, 0.8, 0.28, 0.96),
        WernerPsi(0.8, -1), WernerPhi(0.3, +1), WernerLike(0.6),
        CustomPure(random_pure_state(rng)),
        CustomMixed(random_density_matrix(rng)),
    ]


# (gamma1, gamma2, chi11, chi22, chi12)
PARAMS = {
    "reference": (4.0, 4.0, 0.0, 0.0, 20.0),
    "no_damping_no_coupling": (0.0, 0.0, 0.0, 0.0, 0.0),
    "unequal_rates_negative_self_kerr": (4.0, 2.5, -7.0, 5.0, 20.0),
    "lossless_coupled": (0.0, 0.0, 3.0, 0.0, -20.0),
}
# 0, 1e-12 and 1e-9 take the series branch; the grid end takes the exact one
TIMES = np.concatenate([[0.0, 1e-12, 1e-9, 2e-8], np.linspace(0.0, 1.0, 21)[1:], [7.5]])


@pytest.mark.parametrize("phase_sign", [+1, -1])
@pytest.mark.parametrize("name", PARAMS)
def test_every_family_matches_the_scalar_reference_bit_for_bit(name, phase_sign):
    prm = PARAMS[name]
    params = CavityParams(*prm)
    for initial in _families():
        rho0 = initial_density(initial)
        src = np.array(rho0.matrix)
        ref = np.array([_ref_propagate(src, prm, float(t), phase_sign) for t in TIMES])
        stack = propagate(rho0, params, TIMES, phase_sign=phase_sign)
        assert stack.shape == (len(TIMES), 4, 4)
        assert stack.tobytes() == ref.tobytes(), initial
        for k in (0, 1, 2, len(TIMES) - 1):
            one = propagate(rho0, params, float(TIMES[k]), phase_sign=phase_sign)
            assert one.matrix.tobytes() == ref[k].tobytes(), (initial, TIMES[k])


def test_trajectory_matches_the_scalar_reference_bit_for_bit():
    prm = PARAMS["unequal_rates_negative_self_kerr"]
    traj = trajectory(WernerLike(0.6), CavityParams(*prm), 1.0, 101)
    src = np.array(initial_density(WernerLike(0.6)).matrix)
    ref = np.array([_ref_propagate(src, prm, float(t), +1) for t in traj.times])
    assert traj.states.tobytes() == ref.tobytes()


@pytest.mark.parametrize("name", PARAMS)
def test_rj_factor_broadcasts_its_indices_against_time(name):
    prm = PARAMS[name]
    params = CavityParams(*prm)
    idx = np.array([(m1, n1, m2, n2, p) for m1, n1, m2, n2 in np.ndindex(2, 2, 2, 2)
                    for p in (0, 1, 2)]).T
    col = TIMES.reshape(-1, 1)
    for j in (1, 2):
        got = rj_factor(j, *idx, params, col)
        assert got.shape == (len(TIMES), idx.shape[1])
        ref = np.array([[_ref_rj_factor(j, *row, prm, float(t), +1) for row in idx.T.tolist()]
                        for t in TIMES])
        assert got.tobytes() == ref.tobytes()
        one = rj_factor(j, 0, 0, 1, 0, 1, params, 0.3)
        assert type(one) is complex
        assert np.array(one).tobytes() == np.array(_ref_rj_factor(j, 0, 0, 1, 0, 1, prm, 0.3, +1)).tobytes()
