"""Closed-form entanglement curves, decay envelopes and ordering checks.

Every curve here is a function of the damping survival factor
g = exp(-gamma t) and, where relevant, of the Kerr cross-coupling chi12 and
Werner weight p. The envelope formulas describe the peaks of the oscillating
curves in the strong-coupling regime chi12 >> gamma. The formula-free
counterpart ``numeric_envelope`` extracts local maxima from sampled data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from . import measures
from .evolution import CavityParams, _checked_times, _time_grid, propagate
from .states import PureState2Q, WernerLike, _check_finite, _check_weight, _check_whole, initial_density

__all__ = [
    "CurvePoint",
    "EitParams",
    "CrossCouplingEstimate",
    "OrderingReport",
    "unitary_pure_entanglement",
    "bell_psi_curves",
    "bell_phi_curves",
    "bell_like_uncoupled_curves",
    "concurrence_envelope",
    "negativity_envelope",
    "werner_psi_curves",
    "werner_phi_curves",
    "werner_like_lossless_curve",
    "werner_concurrence_envelope",
    "numeric_envelope",
    "check_ordering_inequalities",
    "estimate_cross_coupling",
    "revival_times",
]

_RADICAND_SLACK = -1e-9
# roundoff allowed in the ordering chains, and how many revivals they compare
_ORDERING_SLACK = 1e-9
_REVIVAL_COUNT = 5


class CurvePoint(NamedTuple):
    t: float
    value: float


def _survival(gamma: float, t):
    if not 0 <= gamma < math.inf:
        raise ValueError(f"gamma must be finite and nonnegative, got {gamma}")
    _check_finite(gamma, "gamma")  # an int past the float range passes the comparison
    t = _checked_times(t)
    with np.errstate(over="ignore"):  # -gamma t past the float range is -inf: the decayed limit g = 0
        return t, np.exp(-gamma * t)


def _phase_times(chi12: float, t, scale: float):
    """``t`` by ``_checked_times``; a ValueError naming ``chi12`` and ``t`` unless ``scale * chi12 * t`` is finite."""
    _check_finite(chi12, "chi12")
    t = _checked_times(t)
    if t.size and not math.isfinite(scale * chi12 * float(t.max())):
        raise ValueError(f"the Kerr phase of chi12 = {chi12!r} at t = {float(t.max())!r} passes the float range")
    return t


def _unwrap(t: np.ndarray, *vals):
    """The values as floats for a single time ``t``, else as the arrays they are."""
    out = tuple(float(v) if t.ndim == 0 else v for v in vals)
    return out[0] if len(out) == 1 else out


def _guarded_sqrt(x, what: str):
    x = np.asarray(x, dtype=float)
    low = float(x.min()) if x.size else 0.0
    if low < _RADICAND_SLACK:
        raise ValueError(f"negative radicand in {what}: {low:.3e}")
    return np.sqrt(np.clip(x, 0.0, None))


# ---------------------------------------------------------------------------
# Lossless (purely unitary) evolution.


def unitary_pure_entanglement(psi0: PureState2Q, chi12: float, t) -> float:
    """Concurrence (equal to negativity) of a pure state under lossless Kerr evolution.

    2 |exp(-2i chi12 t) c00 c11 - c01 c10|, the doubly excited amplitude
    rotating at the cross-Kerr frequency. For a product state with
    amplitudes d1..d4 this reduces to 4 |d1 d2 d3 d4 sin(chi12 t)|, and for
    the Bell-like state to |cos(chi12 t)|.
    """
    t = _phase_times(chi12, t, 2.0)
    val = 2.0 * np.abs(np.exp(-2j * chi12 * t) * psi0.c00 * psi0.c11 - psi0.c01 * psi0.c10)
    return _unwrap(t, val)


# ---------------------------------------------------------------------------
# Bell pairs under damping.


def bell_psi_curves(gamma: float, t):
    """(concurrence, negativity) of the damped psi Bell pair, the p = 1 Werner curves: g, sqrt(2g^2-2g+1) + g - 1."""
    return werner_psi_curves(gamma, 1.0, t)


def bell_phi_curves(gamma: float, t):
    """(concurrence, negativity) of the damped phi Bell pair, the p = 1 Werner curves: both equal g^2."""
    return werner_phi_curves(gamma, 1.0, t)


def bell_like_uncoupled_curves(gamma: float, t):
    """(concurrence, negativity) of the damped Bell-like state at zero cross-coupling."""
    t, g = _survival(gamma, t)
    c = g * (1.0 + g) / 2.0
    x = g * (1.0 - g) / 2.0
    n = np.sqrt(x * x - 4.0 * x + 1.0) + g - 1.0
    return _unwrap(t, c, n)


# ---------------------------------------------------------------------------
# Strong-coupling envelopes of the oscillating Bell-like curves.


def concurrence_envelope(gamma: float, t):
    """Envelope through the concurrence revival peaks of the damped Bell-like state."""
    t, g = _survival(gamma, t)
    x = 27.0 - 14.0 * g + 3.0 * g * g
    y = _guarded_sqrt(159.0 - 129.0 * g + 37.0 * g * g - 3.0 * g ** 3, "concurrence envelope (y)")
    z = _guarded_sqrt((x + y) ** 2 - 9.0 * y * y, "concurrence envelope (z)")
    inner = _guarded_sqrt(2.0 * (x - 2.0 * y) * (x + y - z), "concurrence envelope (inner)")
    outer = _guarded_sqrt(x - (2.0 / 3.0) * (z + inner), "concurrence envelope (outer)")
    env = (g / 4.0) * (outer + g - 1.0)
    return _unwrap(t, env)


def negativity_envelope(gamma: float, t, simple: bool = False):
    """Envelope through the negativity revival peaks of the damped Bell-like state.

    The default form takes the real part of a principal complex cube root
    and tracks the peaks closely. ``simple=True`` selects the shorter but
    visibly less accurate variant.
    """
    t, g = _survival(gamma, t)
    if simple:
        num = g ** 3 * (g ** 3 - 3.0 * g * g - g + 11.0)
        den = g * g - 3.0 * g + 4.0
        return _unwrap(t, 0.5 * _guarded_sqrt(num / den, "simple negativity envelope"))
    v = 8.0 * g ** 6 - 18.0 * g ** 5 - 93.0 * g ** 4 + 324.0 * g ** 3 - 273.0 * g * g + 180.0 * g - 64.0
    w = 116.0 * g ** 6 - 316.0 * g ** 5 + 297.0 * g ** 4 + 930.0 * g ** 3 - 515.0 * g * g + 624.0 * g + 16.0
    root = (v + 1j * 3.0 * (1.0 - g) * g * _guarded_sqrt(3.0 * w, "negativity envelope (w)")) ** (1.0 / 3.0)
    env = (2.0 * np.real(root) - (2.0 - g) ** 2 - g) / 6.0
    return _unwrap(t, env)


# ---------------------------------------------------------------------------
# Werner mixtures under damping.


def werner_psi_curves(gamma: float, p: float, t):
    """(concurrence, negativity) of the damped Werner mixture over the psi Bell pair."""
    _check_weight(p)
    t, g = _survival(gamma, t)
    q = 1.0 - p
    c = np.maximum(0.0, g * p - g * np.sqrt((1.0 - g) * q + g * g * q * q / 4.0))
    n = np.maximum(0.0, np.sqrt((1.0 - g) ** 2 + g * g * p * p) - g * g * q / 2.0 - (1.0 - g))
    return _unwrap(t, c, n)


def werner_phi_curves(gamma: float, p: float, t):
    """(concurrence, negativity) of the damped Werner mixture over the phi Bell pair.

    The two measures coincide on this family at all times.
    """
    _check_weight(p)
    t, g = _survival(gamma, t)
    c = np.maximum(0.0, (g / 2.0) * (g * (1.0 + p) - 2.0 * (1.0 - p)))
    return _unwrap(t, c, c.copy())


def werner_like_lossless_curve(p: float, chi12: float, t):
    """Shared concurrence/negativity of the lossless Werner-like state.

    Starts at (3p - 1)/2 and oscillates with the Kerr phase.
    """
    _check_weight(p)
    t = _phase_times(chi12, t, 1.0)
    val = 0.5 * np.maximum(0.0, p * (2.0 * np.abs(np.cos(chi12 * t)) + 1.0) - 1.0)
    return _unwrap(t, val)


def werner_concurrence_envelope(gamma: float, p: float, t):
    """Envelope through the concurrence revival peaks of the damped Werner-like state."""
    _check_weight(p)
    t, g = _survival(gamma, t)
    big_g = 2.0 - g
    xp = 3.0 * big_g ** 2 + 2.0 * big_g * p + 11.0 * p * p
    yp = (3.0 * big_g ** 3 + big_g ** 2 * (10.0 + 9.0 * p)
          + big_g * (3.0 + 14.0 * p) + p * (9.0 + 16.0 * p))
    s = _guarded_sqrt(yp, "Werner envelope (yp)")
    r1 = _guarded_sqrt(xp + 4.0 * p * s, "Werner envelope (first radicand)")
    r2 = _guarded_sqrt(xp - 2.0 * p * s, "Werner envelope (second radicand)")
    val = (r1 - 2.0 * r2) / math.sqrt(3.0) + g + p - 2.0
    env = (g / 4.0) * np.maximum(0.0, val)
    return _unwrap(t, env)


# ---------------------------------------------------------------------------
# Numeric envelope extraction.


def numeric_envelope(curve) -> list:
    """Local maxima of a sampled curve, by three-point comparison.

    ``curve`` holds N >= 2 (t, value) samples, as an (N, 2) array or a list
    of pairs. Endpoints are included when they are maximal against their
    single neighbor. The input must resolve the oscillation: when at least two
    interior maxima exist, their spacing estimates the period, and fewer
    than 8 samples per period raises ValueError.
    """
    samples = np.asarray(curve, dtype=float)
    if samples.ndim != 2 or samples.shape[1] != 2 or len(samples) < 2:
        raise ValueError(f"need at least two (t, value) samples as an (N, 2) array, got shape {samples.shape}")
    ts, vs = _time_grid(samples[:, 0]), samples[:, 1]
    if not np.all(np.isfinite(vs)):
        raise ValueError("sample values must be finite")
    # strictly above the left neighbor (the last sample: not below it), and not below the right one
    peak = np.r_[True, vs[1:-1] > vs[:-2], vs[-1] >= vs[-2]] & np.r_[vs[:-1] >= vs[1:], True]
    interior = ts[1:-1][peak[1:-1]]
    if len(interior) >= 2:
        period = float(np.mean(np.diff(interior)))
        spacing = float(np.median(np.diff(ts)))
        if period / spacing < 8.0:
            raise ValueError(
                f"under-sampled curve: about {period / spacing:.1f} samples per period, need at least 8"
            )
    return [CurvePoint(t, v) for t, v in samples[peak].tolist()]


def revival_times(chi12: float, count: int) -> np.ndarray:
    """The first ``count`` revival times n*pi/chi12 of the coupled oscillation."""
    if not 0 < chi12 < math.inf:
        raise ValueError(f"chi12 must be positive and finite, got {chi12}")
    _check_finite(chi12, "chi12")  # an int past the float range passes the comparison
    _check_whole(count, "count", 1)
    return np.arange(1, count + 1) * math.pi / chi12


# ---------------------------------------------------------------------------
# Ordering inequalities between the decay curves.


@dataclass(frozen=True)
class OrderingReport:
    """Per-time verdicts for the decay-ordering chains.

    ``concurrence_chain_ok``: damped psi concurrence >= Bell-like envelope
    >= uncoupled Bell-like >= damped phi, per grid time.
    ``negativity_chain_ok``: damped psi negativity <= uncoupled Bell-like
    <= damped phi <= envelope, per grid time.
    ``measure_disagreement``: True where the psi pair is strictly more
    entangled by concurrence yet strictly less by negativity, the ordering
    relativity of the two measures.
    ``revival_concurrence_ok``/``revival_negativity_ok``: at each revival
    time the measured coupled Werner-like peak is at least the uncoupled
    curve there (None when no weight p was supplied).
    """

    times: np.ndarray
    concurrence_chain_ok: np.ndarray
    negativity_chain_ok: np.ndarray
    measure_disagreement: np.ndarray
    disagreement_witness: Optional[tuple]
    revivals: Optional[np.ndarray] = None
    revival_concurrence_ok: Optional[np.ndarray] = None
    revival_negativity_ok: Optional[np.ndarray] = None

    def all_hold(self) -> bool:
        ok = bool(np.all(self.concurrence_chain_ok) and np.all(self.negativity_chain_ok))
        ok = ok and bool(np.any(self.measure_disagreement))
        if self.revival_concurrence_ok is not None:
            ok = ok and bool(np.all(self.revival_concurrence_ok))
        if self.revival_negativity_ok is not None:
            ok = ok and bool(np.all(self.revival_negativity_ok))
        return ok


def check_ordering_inequalities(gamma: float, chi12: float, t_grid,
                                p: Optional[float] = None) -> OrderingReport:
    """Evaluate the decay-ordering chains on a time grid.

    The chain verdicts compare the closed-form curves pointwise, allowing
    1e-9 for roundoff (equalities at t = 0 or gamma = 0 count as holding).
    When a Werner weight ``p`` is given and chi12 > 0, the revival-time
    comparisons at the first five revivals are evaluated from actual
    propagated states: the local peak of the coupled Werner-like measure
    near each revival must not fall below the uncoupled curve at that revival.
    A finite chi12 <= 0 skips them; a NaN or infinite chi12 raises ValueError.
    """
    _check_finite(chi12, "chi12")
    slack = _ORDERING_SLACK
    ts = np.atleast_1d(np.asarray(t_grid, dtype=float))
    c_psi, n_psi = bell_psi_curves(gamma, ts)
    c_phi, n_phi = bell_phi_curves(gamma, ts)
    c_unc, n_unc = bell_like_uncoupled_curves(gamma, ts)
    c_env = concurrence_envelope(gamma, ts)
    n_env = negativity_envelope(gamma, ts)

    c_chain = (c_psi >= c_env - slack) & (c_env >= c_unc - slack) & (c_unc >= c_phi - slack)
    n_chain = (n_psi <= n_unc + slack) & (n_unc <= n_phi + slack) & (n_phi <= n_env + slack)
    disagree = (c_psi > c_phi + slack) & (n_psi < n_phi - slack)

    witness = None
    hits = np.nonzero(disagree)[0]
    if hits.size:
        k = int(hits[0])
        witness = (float(ts[k]), float(c_psi[k]), float(c_phi[k]), float(n_psi[k]), float(n_phi[k]))

    revs = rev_c = rev_n = None
    if p is not None and chi12 > 0:
        rho0 = initial_density(WernerLike(p))
        revs = revival_times(chi12, _REVIVAL_COUNT)
        params_on = CavityParams(gamma1=gamma, gamma2=gamma, chi11=0.0, chi22=0.0, chi12=chi12)
        params_off = CavityParams(gamma1=gamma, gamma2=gamma, chi11=0.0, chi22=0.0, chi12=0.0)
        halfwidth = 0.05 * (math.pi / chi12)
        off = propagate(rho0, params_off, revs)
        c_off, n_off = measures.concurrence(off), measures.negativity(off)
        # a 161-sample window per revival, all in one call; each state serves both measures' peaks
        windows = np.linspace(np.maximum(revs - halfwidth, 0.0), revs + halfwidth, 161, axis=1)
        near = propagate(rho0, params_on, windows.reshape(-1))
        rev_c = measures.concurrence(near).reshape(windows.shape).max(axis=1) >= c_off - slack
        rev_n = measures.negativity(near).reshape(windows.shape).max(axis=1) >= n_off - slack

    return OrderingReport(ts, c_chain, n_chain, disagree, witness, revs, rev_c, rev_n)


# ---------------------------------------------------------------------------
# Cross-coupling magnitude from a four-level EIT medium.


@dataclass(frozen=True)
class EitParams:
    """Couplings of the driven four-level medium that mediates the cross-Kerr term.

    ``g13`` and ``g24`` are the probe and signal mode couplings in rad/us,
    ``omega_c`` the control Rabi frequency, ``delta_omega2`` the relevant
    detuning, ``n_at`` the number of atoms.
    """

    g13: float
    g24: float
    omega_c: float
    delta_omega2: float
    n_at: int

    def __post_init__(self):
        for name in ("g13", "g24", "omega_c", "delta_omega2"):
            _check_finite(getattr(self, name), name)
        if not self.omega_c > 0:
            raise ValueError(f"omega_c must be positive, got {self.omega_c}")
        if self.delta_omega2 == 0:
            raise ValueError(f"delta_omega2 must be nonzero, got {self.delta_omega2}")
        _check_whole(self.n_at, "n_at", 1)
        _check_finite(self.n_at, "n_at")


@dataclass(frozen=True)
class CrossCouplingEstimate:
    """Estimated chi12 plus the adiabaticity diagnostic.

    The estimate is trusted when ``adiabatic_ratio`` = |g13|^2 n_at /
    omega_c^2 stays below one; a violation is reported, not fatal.
    """

    chi12: float
    adiabatic_ratio: float
    adiabatic_ok: bool


def estimate_cross_coupling(eit: EitParams) -> CrossCouplingEstimate:
    """Cross-Kerr coupling produced by the driven medium."""
    ratio = abs(eit.g13) ** 2 * eit.n_at / eit.omega_c ** 2
    chi12 = 1.5 * abs(eit.g13) ** 2 * abs(eit.g24) ** 2 * eit.n_at / (
        eit.omega_c ** 2 * eit.delta_omega2)
    return CrossCouplingEstimate(chi12, ratio, ratio < 1.0)
