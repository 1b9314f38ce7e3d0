"""Every engine against a 40-digit reference: exp(L t) of the fock_dim 2 generator, built from the operators in mpmath.

The reference shares no code with kerrdeco's generator: each column of ``L``
is the master equation applied to one basis matrix, at 40 digits, from the
same float rates. Both oracle kernels are held to it at fock_dim 2, where a
warm run is the truncated model that the reference also solves, on an uneven
grid and on the uniform one that ``trajectory`` builds, and a warm run at its
kernel's cap. With quiet reservoirs a start in the qubit subspace never leaves
it, so fock_dim 2 is exact there, and ``propagate`` and ``closed_form_rho`` are
held to the same reference for every family they take.
"""

import functools

import numpy as np
import pytest

from kerrdeco.evolution import (
    _MAX_WARM_NORM, CavityParams, _generator_bound, closed_form_rho, integrate_master_grid, propagate,
)
from kerrdeco.states import (
    BellLike, BellPhi, BellPsi, CustomMixed, CustomPure, PlusPlus, PureState2Q, Separable, WernerLike, WernerPhi,
    WernerPsi, initial_density, initial_label, random_density_matrix,
)

mpmath = pytest.importorskip("mpmath")
mp = mpmath.mp

TIMES = [1e-3, 0.01, 0.1, 0.5, 1.0]
QUIET = CavityParams(gamma1=4.0, gamma2=3.0, chi11=2.0, chi22=-1.5, chi12=20.0)
WARM = CavityParams(gamma1=4.0, gamma2=3.0, chi11=2.0, chi22=-1.5, chi12=20.0, nbar1=0.3, nbar2=0.2)
# the time at which a WARM run reaches its kernel's cap, one part in 1e12 below it
T_CAP = _MAX_WARM_NORM / _generator_bound(WARM, 2) * (1.0 - 1e-12)

FAMILIES = [
    BellPsi(+1), BellPsi(-1), BellPhi(+1), BellPhi(-1), BellLike(), PlusPlus(), Separable(0.6, 0.8j, 0.28, -0.96),
    WernerPsi(0.7, -1), WernerPhi(0.4), WernerLike(0.6), CustomPure(PureState2Q(0.5, 0.5j, -0.5, 0.5)),
    CustomMixed(random_density_matrix(np.random.default_rng(7))),
]
# the closed forms take equal damping; the Bell cores also take self-Kerr couplings
EQUAL = CavityParams(gamma1=4.0, gamma2=4.0, chi12=20.0)
EQUAL_SELF_KERR = CavityParams(gamma1=4.0, gamma2=4.0, chi11=2.0, chi22=-1.5, chi12=20.0)
CLOSED_FORMS = ([(f, EQUAL) for f in FAMILIES[:6] + FAMILIES[7:10]]
                + [(f, EQUAL_SELF_KERR) for f in FAMILIES[:4] + FAMILIES[7:9]])


@functools.lru_cache(maxsize=None)
def reference_generator(params):
    """The generator on row-major vec(rho) at fock_dim 2, column k the master equation applied to basis matrix k."""
    a = mp.matrix([[0, 1], [0, 0]])
    eye = mp.eye(2)
    a1, a2 = kron(a, eye), kron(eye, a)
    n1, n2 = a1.T * a1, a2.T * a2
    h = params.chi11 * n1 * n1 + params.chi22 * n2 * n2 + 2 * params.chi12 * n1 * n2
    lmat = mp.matrix(16, 16)
    for k in range(16):
        rho = mp.matrix(4, 4)
        rho[k // 4, k % 4] = 1
        drho = -1j * (h * rho - rho * h)
        for aj, gamma, nbar in ((a1, params.gamma1, params.nbar1), (a2, params.gamma2, params.nbar2)):
            adj = aj.T
            down = 2 * aj * rho * adj - adj * aj * rho - rho * adj * aj
            up = 2 * adj * rho * aj - aj * adj * rho - rho * aj * adj
            drho += mp.mpf(gamma) / 2 * ((mp.mpf(nbar) + 1) * down + mp.mpf(nbar) * up)
        for j in range(16):
            lmat[j, k] = drho[j // 4, j % 4]
    return lmat


def kron(x, y):
    out = mp.matrix(x.rows * y.rows, x.cols * y.cols)
    for i in range(x.rows):
        for j in range(x.cols):
            for k in range(y.rows):
                for m in range(y.cols):
                    out[i * y.rows + k, j * y.cols + m] = x[i, j] * y[k, m]
    return out


@functools.lru_cache(maxsize=None)
def reference_propagator(params, t):
    """exp(L t) at 40 digits, formed once for every test that asks for it."""
    return mp.expm(reference_generator(params) * t)


def reference_grid(rho0, params, times):
    """exp(L t) vec(rho0) at every time, at 40 digits, rounded to (N, 4, 4) complex."""
    with mp.workdps(40):
        v = mp.matrix([mp.mpc(z.real, z.imag) for z in rho0.reshape(-1).tolist()])
        out = [reference_propagator(params, float(t)) * v for t in times]
        return np.array([[complex(w[j]) for j in range(16)] for w in out]).reshape(len(times), 4, 4)


@pytest.mark.parametrize("params, times, at, bound", [
    # the RK4 steps of a quiet run: 3.1e-12 measured
    (QUIET, TIMES, slice(None), 1e-11),
    # the exact per-sector propagators of a warm run, one per time on an uneven grid: 1.4e-15 measured
    (WARM, TIMES, slice(None), 1e-14),
    # one propagator per sector and its powers by doubling, on the grid trajectory builds: 5.2e-15 measured
    (WARM, np.linspace(0.0, 1.0, 401), [1, 2, 100, 257, 400], 1e-14),
    # a warm run at its kernel's cap, t times the generator's norm bound 1.5e6: the error grows with that
    # product, 4.9e-12 measured on the uneven grid and 3.1e-12 on the uniform one
    (WARM, [*TIMES, T_CAP], slice(None), 5e-11),
    (WARM, np.linspace(0.0, T_CAP, 401), [1, 400], 5e-11),
], ids=["quiet", "warm", "warm_uniform", "warm_at_cap", "warm_uniform_at_cap"])
def test_oracle_is_the_40_digit_exponential(params, times, at, bound):
    rho0 = initial_density(BellLike()).matrix
    got = integrate_master_grid(rho0, params, times, fock_dim=2)[at]
    assert np.abs(got - reference_grid(rho0, params, np.asarray(times)[at])).max() <= bound


@pytest.mark.parametrize("initial", FAMILIES, ids=initial_label)
def test_propagate_is_the_40_digit_exponential(initial):
    # unequal damping with self-Kerr couplings: 1.6e-16 measured over every family
    rho0 = initial_density(initial).matrix
    got = propagate(rho0, QUIET, TIMES).matrix
    assert np.abs(got - reference_grid(rho0, QUIET, TIMES)).max() <= 1e-15


@pytest.mark.parametrize("initial, params", CLOSED_FORMS, ids=[
    f"{initial_label(f)}-{'self_kerr' if p.chi11 else 'cross_kerr'}" for f, p in CLOSED_FORMS])
def test_closed_form_is_the_40_digit_exponential(initial, params):
    # 3.3e-16 measured over every closed-form family
    got = closed_form_rho(initial, params, TIMES).matrix
    assert np.abs(got - reference_grid(initial_density(initial).matrix, params, TIMES)).max() <= 1e-15
