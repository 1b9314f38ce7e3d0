"""The closed forms over a time axis against a frozen scalar reference, bit for bit.

``_closed_form_matrix`` is the scalar ``complex``/``cmath`` branch that formed one time per call, kept here verbatim
as the reference. ``closed_form_rho`` forms each entry once over all its times, and every matrix it returns must
equal the reference's byte for byte.
"""

import cmath
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kerrdeco.evolution import _MAX_ANALYTIC_SCALE, CavityParams, closed_form_rho
from kerrdeco.states import (
    _CORES, BellLike, BellPhi, BellPsi, InitialState, PlusPlus, WernerLike, WernerPhi, WernerPsi, bell_like, bell_phi,
    bell_psi,
)


def _closed_form_matrix(initial: InitialState, params: CavityParams, t: float) -> np.ndarray:
    """The matrix of ``closed_form_rho`` at one time, unvalidated.

    One branch per pure core of ``states._CORES``; a Bell tag takes its
    Werner form at p = 1.
    """
    core = _CORES[type(initial)]
    p = getattr(initial, "p", 1.0)
    gamma = params.gamma1
    g = math.exp(-gamma * t)
    m = np.zeros((4, 4), dtype=complex)

    if core is bell_psi:
        phase = cmath.exp(1j * (params.chi11 - params.chi22) * t)
        m[0, 0] = ((2.0 - g) ** 2 - g * g * p) / 4.0
        m[3, 3] = g * g * (1.0 - p) / 4.0
        m[1, 1] = m[2, 2] = g * (2.0 - g * (1.0 - p)) / 4.0
        m[1, 2] = initial.sign * (g * p / 2.0) * phase
        m[2, 1] = m[1, 2].conjugate()
    elif core is bell_phi:
        xp = (1.0 + p) * g * g / 2.0
        f = g * cmath.exp(1j * (params.chi11 + 2.0 * params.chi12 + params.chi22) * t)
        m[0, 0] = (2.0 - 2.0 * g + xp) / 2.0
        m[1, 1] = m[2, 2] = (g - xp) / 2.0
        m[3, 3] = xp / 2.0
        m[0, 3] = initial.sign * p * f / 2.0
        m[3, 0] = m[0, 3].conjugate()
    else:
        # the Bell-like core and |+,+>, with vanishing self-Kerr couplings; they
        # differ only in the oscillator factor f and the corner coefficient h
        plus_plus = core is not bell_like
        chi12 = params.chi12
        f = cmath.exp(2j * chi12 * t)
        if plus_plus:
            f = -f
        den = complex(gamma, -2.0 * chi12)
        if den == 0:
            # no damping and no coupling: the state is stationary
            h = (2.0 + f * g) if plus_plus else f * g
        elif plus_plus:
            h = (gamma * (2.0 + f * g) - 2j * chi12) / den
        else:
            h = (gamma * f * g - 2j * chi12) / den
        rg = math.sqrt(g)
        g32 = g * rg
        hb = h.conjugate()
        fb = f.conjugate()
        m = np.array([
            [(2.0 - g) ** 2, h * rg,        h * rg,        -f * g],
            [hb * rg,        g * (2.0 - g), g,             -f * g32],
            [hb * rg,        g,             g * (2.0 - g), -f * g32],
            [-fb * g,        -fb * g32,     -fb * g32,     g * g],
        ], dtype=complex) / 4.0
        if p != 1.0:  # the Werner-like mixture scales the coherences; by 1.0 it would change no bit
            m[~np.eye(4, dtype=bool)] *= p
    return m


# every family with a closed form, by its scenario name, built from a weight p and a sign
TAGS = {
    "bell_psi": lambda p, sign: BellPsi(sign), "bell_phi": lambda p, sign: BellPhi(sign),
    "bell_like": lambda p, sign: BellLike(), "plus_plus": lambda p, sign: PlusPlus(),
    "werner_psi": WernerPsi, "werner_phi": WernerPhi, "werner_like": lambda p, sign: WernerLike(p),
}
# the families whose closed forms hold for any self-Kerr couplings
BELL_PAIRS = ("bell_psi", "bell_phi", "werner_psi", "werner_phi")


@settings(max_examples=600, deadline=None, derandomize=True, database=None)
@given(family=st.sampled_from(sorted(TAGS)), sign=st.sampled_from([+1, -1]),
       p=st.one_of(st.just(1.0), st.floats(0.0, 1.0)),
       gamma=st.one_of(st.just(0.0), st.floats(0.0, 50.0)),
       chi12=st.one_of(st.just(0.0), st.floats(-50.0, 50.0)),
       self_kerr=st.tuples(st.floats(-20.0, 20.0), st.floats(-20.0, 20.0)),
       reach=st.floats(-12.0, 0.0),
       fractions=st.one_of(st.none(), st.lists(st.floats(0.0, 1.0), max_size=40)))
# the stationary branch (no damping, no coupling), a lossless coupling, negative chi12, a scalar and an empty t
@example(family="bell_like", sign=1, p=1.0, gamma=0.0, chi12=0.0, self_kerr=(0.0, 0.0), reach=0.0,
         fractions=[0.0, 0.5, 1.0])
@example(family="plus_plus", sign=1, p=1.0, gamma=0.0, chi12=0.0, self_kerr=(0.0, 0.0), reach=-7.0,
         fractions=[0.0, 0.5, 1.0])
@example(family="werner_like", sign=1, p=0.4, gamma=0.0, chi12=-20.0, self_kerr=(0.0, 0.0), reach=-5.0,
         fractions=[0.0, 0.25, 1.0])
@example(family="plus_plus", sign=1, p=1.0, gamma=4.0, chi12=-20.0, self_kerr=(0.0, 0.0), reach=-6.0, fractions=None)
@example(family="werner_phi", sign=-1, p=0.3, gamma=4.0, chi12=20.0, self_kerr=(7.0, -5.0), reach=-6.0, fractions=[])
# the last time at the rate cap
@example(family="bell_psi", sign=-1, p=1.0, gamma=4.0, chi12=20.0, self_kerr=(7.0, -5.0), reach=0.0,
         fractions=[0.0, 1e-9, 1.0])
def test_closed_form_rho_is_the_scalar_reference_bit_for_bit(family, sign, p, gamma, chi12, self_kerr, reach,
                                                             fractions):
    initial = TAGS[family](p, sign)
    chi11, chi22 = self_kerr if family in BELL_PAIRS else (0.0, 0.0)
    params = CavityParams(gamma, gamma, chi11, chi22, chi12)
    rates = 2.0 * gamma + abs(chi11) + abs(chi22) + 2.0 * abs(chi12)
    # the last time reaches 10**reach of the largest the rate cap allows, just under it at reach 0
    t_end = 10.0 ** reach * _MAX_ANALYTIC_SCALE / max(rates, 1.0) * (1.0 - 1e-15)
    t = t_end if fractions is None else np.array(fractions) * t_end
    want = np.array([_closed_form_matrix(initial, params, s) for s in np.reshape(t, -1).tolist()], dtype=complex)
    got = closed_form_rho(initial, params, t).matrix
    assert got.shape == np.shape(t) + (4, 4)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("family", sorted(TAGS))
def test_the_last_bit_cases_are_the_scalar_reference(family):
    # numpy's exp, square, complex multiply and complex division each differ from the scalar branch somewhere on
    # this grid: in a last bit where g is near 1 (4 of its first 2001 times for the square), or in a zero's sign
    # where g * sqrt(g) underflows (gamma t from 400 to 800)
    initial = TAGS[family](0.7, -1)
    chi11, chi22 = (7.0, -5.0) if family in BELL_PAIRS else (0.0, 0.0)
    params = CavityParams(4.0, 4.0, chi11, chi22, -18.2)
    t = np.concatenate([np.linspace(0.0, 1.0, 2001), np.linspace(100.0, 200.0, 2001)])
    want = np.array([_closed_form_matrix(initial, params, s) for s in t.tolist()])
    assert closed_form_rho(initial, params, t).matrix.tobytes() == want.tobytes()


def test_a_long_werner_like_axis_holds_its_stack_and_its_checked_copy():
    # 51.5 MiB measured: the (N, 4, 4) result and its checked copy, 25.6 MB each; the per-time loop peaked at 65.6
    tracemalloc.start()
    try:
        closed_form_rho(WernerLike(0.7), CavityParams(), np.linspace(0.0, 1.0, 100_000))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 56 * 2 ** 20
