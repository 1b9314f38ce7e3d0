"""Time evolution of two cavity qubits under damping and Kerr cross-coupling.

Two independent routes to the same physics live here. ``propagate`` applies
the exact amplitude-damping propagator, valid for quiet (zero-temperature)
reservoirs, to one time or to a whole array of times in one call: its terms
are numpy arrays over the time axis, each complex product spelled out as
CPython forms it, so every matrix equals the scalar arithmetic bit for bit.
``integrate_master`` integrates the full master equation with
fixed-step RK4 on a truncated Fock space and serves as the cross-checking
oracle; it also covers thermal reservoirs, which the analytic route cannot.
The generator conserves each mode's coherence order ``m_j - n_j``, so the
oracle evolves only the entries whose orders lie within those the initial
state occupies; every other entry stays exactly zero.

Rates are in rad/us, times in us.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, fields
from typing import Optional, Sequence

import numpy as np

from .states import (
    BellLike, BellPhi, BellPsi, DensityMatrix2Q, InitialState, PlusPlus,
    WernerLike, WernerPhi, WernerPsi, _as_density, _density_stack, initial_density,
    initial_label,
)

__all__ = [
    "CavityParams",
    "Trajectory",
    "rj_factor",
    "propagate",
    "integrate_master",
    "integrate_master_grid",
    "closed_form_rho",
    "closed_form_reason",
    "trajectory",
    "validate_run",
    "default_step",
]

# Below this value of |x*t| the pump factor switches to its series form,
# which is exact to second order and avoids 0/0 at vanishing damping.
_SERIES_SWITCH = 1e-8

_STABILITY_LIMIT = 0.1

# A rho0 filling every coherence order gives the oracle a fock_dim**8 generator: 69 GB at 16.
_MAX_FOCK_DIM = 16


@dataclass(frozen=True)
class CavityParams:
    """Damping rates, Kerr couplings and reservoir occupations for both modes.

    Defaults reproduce the reference operating point used throughout the
    bundled figures: equal damping 4 rad/us, cross-coupling 20 rad/us, no
    self-Kerr terms, quiet reservoirs.
    """

    gamma1: float = 4.0
    gamma2: float = 4.0
    chi11: float = 0.0
    chi22: float = 0.0
    chi12: float = 20.0
    nbar1: float = 0.0
    nbar2: float = 0.0

    def __post_init__(self):
        for f in fields(self):
            v = getattr(self, f.name)
            if not math.isfinite(v):
                raise ValueError(f"{f.name} must be finite, got {v}")
            if v < 0 and not f.name.startswith("chi"):
                raise ValueError(f"{f.name} must be nonnegative, got {v}")

    @property
    def quiet(self) -> bool:
        return self.nbar1 == 0.0 and self.nbar2 == 0.0


@dataclass(frozen=True)
class Trajectory:
    """States on a uniform time grid, as one read-only (N, 4, 4) array.

    ``states[k]`` is the density matrix at ``times[k]``. Every engine builds
    and validates the whole stack once, as ``DensityMatrix2Q`` validates one
    matrix; the constructor checks the times and the stack's shape and keeps
    a read-only copy. ``approximate`` is set when the states were projected
    out of a larger Fock space (thermal oracle runs) and renormalized.
    """

    times: np.ndarray
    states: np.ndarray
    params: CavityParams
    initial: InitialState
    engine: str
    approximate: bool = False

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        if t.ndim != 1 or len(t) != len(self.states):
            raise ValueError("times and states must be matching 1-d sequences")
        _check_times(t)
        states = np.asarray(self.states)
        if states.shape != (len(t), 4, 4):
            raise ValueError(f"states must be an (N, 4, 4) stack, got shape {states.shape}")
        states = np.array(states, dtype=complex)
        t.flags.writeable = False
        states.flags.writeable = False
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "states", states)


def _check_times(t: np.ndarray) -> None:
    # written so that NaN fails every comparison
    if len(t) and not (t[0] >= 0 and np.all(np.diff(t) > 0) and np.isfinite(t[-1])):
        raise ValueError("times must be finite, nonnegative and strictly increasing")


def _check_time(t) -> None:
    t = np.asarray(t, dtype=float)
    # written so that NaN fails it
    ok = (t >= 0) & (t < math.inf)
    if t.ndim == 0 and not ok:
        raise ValueError(f"time must be finite and nonnegative, got {float(t)}")
    if not np.all(ok):
        i = int(np.flatnonzero(~ok)[0])
        raise ValueError(f"times must be finite and nonnegative, got {t[i]} at index {i}")


def _cmul(ar, ai, br, bi):
    """Real and imaginary parts of (ar + i ai)(br + i bi), formed as CPython forms a complex product.

    Each part is two rounded products and one rounded sum, with no fused
    multiply-add, so array results equal the scalar ``complex`` arithmetic
    bit for bit. CPython promotes a real operand to (x, 0.0) first, so a real
    factor is passed with a zero imaginary part.
    """
    return ar * br - ai * bi, ar * bi + ai * br


def _complex(re, im) -> np.ndarray:
    z = np.empty(np.broadcast_shapes(np.shape(re), np.shape(im)), dtype=complex)
    z.real, z.imag = re, im
    return z


def rj_factor(j: int, m1, n1, m2, n2, p_j, params: CavityParams, t, phase_sign: int = +1):
    """Single-mode weight of one source term in the damped-evolution sum.

    For mode ``j`` this is the coefficient multiplying the initial matrix
    element shifted upward by ``p_j`` photons in that mode. The decay
    exponent couples to both modes' index differences through the Kerr
    terms, so all four indices are required.

    The indices ``m1, n1, m2, n2, p_j`` and the time ``t`` broadcast against
    each other as numpy arrays do; with all of them scalars the result is a
    ``complex``, else a complex array of the broadcast shape. Every element
    equals, bit for bit, the value the scalar ``complex``/``cmath``
    arithmetic gives for its own arguments.

    ``phase_sign`` flips the oscillatory factor and exists for the
    verification suite's convention check; the physical value is +1.
    """
    m1, n1, m2, n2, p_j = np.broadcast_arrays(m1, n1, m2, n2, p_j)
    d1, d2 = m1 - n1, m2 - n2
    if j == 1:
        gamma, chi_self, m, n = params.gamma1, params.chi11, m1, n1
        xi = 2.0 * (params.chi11 * d1 + params.chi12 * d2)
    elif j == 2:
        gamma, chi_self, m, n = params.gamma2, params.chi22, m2, n2
        xi = 2.0 * (params.chi12 * d1 + params.chi22 * d2)
    else:
        raise ValueError(f"mode index must be 1 or 2, got {j}")
    t = np.asarray(t, dtype=float)
    # x = complex(gamma, xi); exponent = 1j * phase - (x * (m + n + 1) - gamma) * (t / 2.0)
    ar, ai = _cmul(0.0, 1.0, phase_sign * (chi_self + params.chi12) * (m - n) * t, 0.0)
    br, bi = _cmul(gamma, xi, m + n + 1, 0.0)
    br, bi = _cmul(br - gamma, bi - 0.0, t / 2.0, 0.0)
    factor = np.exp(_complex(ar - br, ai - bi))
    del ar, ai, br, bi
    pump_r, pump_i = _pump(gamma, xi, m, n, p_j, t) if p_j.any() else (1.0, 0.0)
    out = _complex(*_cmul(pump_r, pump_i, factor.real, factor.imag))
    return complex(out) if t.ndim == 0 and m1.ndim == 0 else out


def _pump(gamma: float, xi, m, n, p_j, t):
    """Real and imaginary parts of ``rj_factor``'s pump, weight * pump_base ** p_j, or 1.0 where p_j = 0.

    Intermediates are released as soon as they are used, which keeps the
    peak memory of a long time axis low.
    """
    # per index element: the quotient gamma / x as CPython forms it, and the weight
    q = np.array([gamma / complex(gamma, v) if gamma or v else 0j for v in xi.flat],
                 dtype=complex).reshape(xi.shape)
    weight = np.array([math.sqrt(math.comb(a + p, p) * math.comb(b + p, p))
                       for a, b, p in zip(m.flat, n.flat, p_j.flat)]).reshape(m.shape)
    xtr, xti = _cmul(gamma, xi, t, 0.0)
    series = np.hypot(xtr, xti) < _SERIES_SWITCH
    # above the switch, pump_base = gamma / x * (1.0 - exp(-xt))
    e = np.exp(_complex(-xtr, -xti))
    br, bi = _cmul(q.real, q.imag, 1.0 - e.real, 0.0 - e.imag)
    del e
    # below it, gamma * t * (1.0 - xt / 2.0); CPython divides by (2.0, 0.0)
    # with ratio 0.0 and denominator 2.0
    sr, si = _cmul(gamma * t, 0.0, 1.0 - (xtr + xti * 0.0) / 2.0, 0.0 - (xti - xtr * 0.0) / 2.0)
    del xtr, xti
    br, bi = np.where(series, sr, br), np.where(series, si, bi)
    del sr, si, series
    # pump_base ** p_j by CPython's repeated squaring from (1.0, 0.0)
    rr, ri = 1.0, 0.0
    for k in range(int(p_j.max()).bit_length()):
        if k:
            br, bi = _cmul(br, bi, br, bi)
        rr, ri = (np.where(p_j & (1 << k), u, v) for u, v in zip(_cmul(rr, ri, br, bi), (rr, ri)))
    del br, bi
    rr, ri = _cmul(weight, 0.0, rr, ri)
    pumped = p_j != 0
    return np.where(pumped, rr, 1.0), np.where(pumped, ri, 0.0)


# The terms of the damped sum for out[2 m1 + m2, 2 n1 + n2]: one per photon
# number p1 (p2) restored in mode 1 (2), which exists only when m1 = n1 = 0
# (m2 = n2 = 0), so the source indices stay inside the qubit subspace. Rows
# (m1, n1, m2, n2, p) of the factors of each mode; per term its slot in its
# entry's sum, its output entry, its two factor rows and its source entry,
# ordered by slot and then by entry, so the first 16 terms are slot 0 of
# every entry in order.
def _term_table():
    rows = ({}, {})
    terms = []
    for m1, m2, n1, n2 in np.ndindex(2, 2, 2, 2):
        ps1 = (0, 1) if (m1 == 0 and n1 == 0) else (0,)
        ps2 = (0, 1) if (m2 == 0 and n2 == 0) else (0,)
        for slot, (p1, p2) in enumerate((p1, p2) for p1 in ps1 for p2 in ps2):
            # a mode's factor sees the other mode only through its index
            # difference, so equal factors share one row
            r1 = rows[0].setdefault((m1, n1, m2 - n2, p1), (len(rows[0]), (m1, n1, m2, n2, p1)))
            r2 = rows[1].setdefault((m2, n2, m1 - n1, p2), (len(rows[1]), (m1, n1, m2, n2, p2)))
            src = 4 * (2 * (m1 + p1) + (m2 + p2)) + 2 * (n1 + p1) + (n2 + p2)
            terms.append((slot, 4 * (2 * m1 + m2) + 2 * n1 + n2, r1[0], r2[0], src))
    return (*(np.array([row for _, row in r.values()]).T for r in rows), np.array(sorted(terms)).T)


_ROWS1, _ROWS2, (_SLOT, _ENTRY, _ROW1, _ROW2, _SRC) = _term_table()


def propagate(rho0, params: CavityParams, t, phase_sign: int = +1):
    """Evolve a two-qubit density matrix for time t, or for each of a 1-d array of times.

    Exact for zero reservoir occupation; raises for thermal parameters, for
    which ``integrate_master`` is the supported route. For one time the
    result is a ``DensityMatrix2Q``; for an array of N times it is a
    read-only (N, 4, 4) array, each matrix validated as ``DensityMatrix2Q``
    validates one. Both come from the same sum over the time axis, and each
    matrix equals, bit for bit, the one the scalar complex arithmetic gives
    for its time. ``phase_sign`` is a convention guard used by the
    verification suite and is +1 physically.
    """
    if not params.quiet:
        raise ValueError("analytic propagation requires quiet reservoirs (nbar = 0); use integrate_master")
    t = np.asarray(t, dtype=float)
    if t.ndim > 1:
        raise ValueError(f"t must be a time or a 1-d array of times, got shape {t.shape}")
    _check_time(t)
    src = _as_density(rho0).matrix.reshape(-1)[_SRC]
    col = t.reshape(-1, 1)
    r1 = rj_factor(1, *_ROWS1, params, col, phase_sign)[:, _ROW1]
    r2 = rj_factor(2, *_ROWS2, params, col, phase_sign)[:, _ROW2]
    # r1 * r2 * src[...] per term
    tr, ti = _cmul(*_cmul(r1.real, r1.imag, r2.real, r2.imag), src.real, src.imag)
    del r1, r2
    # each entry's terms summed in slot order, starting from 0.0 + 0.0j
    re, im = 0.0 + tr[:, :16], 0.0 + ti[:, :16]
    for slot in (1, 2, 3):
        k = _SLOT == slot
        re[:, _ENTRY[k]] += tr[:, k]
        im[:, _ENTRY[k]] += ti[:, k]
    out = _complex(re, im).reshape(-1, 4, 4)
    out = (out + out.conj().swapaxes(-1, -2)) / 2.0
    return DensityMatrix2Q(out[0]) if t.ndim == 0 else _density_stack(out)


# ---------------------------------------------------------------------------
# Master-equation oracle on a truncated Fock space.


def _destroy(fock_dim: int) -> np.ndarray:
    return np.diag(np.sqrt(np.arange(1, fock_dim, dtype=float)), 1).astype(complex)


def _liouvillian(params: CavityParams, fock_dim: int, keep: np.ndarray) -> np.ndarray:
    """Generator of the master equation on row-major vec(rho), its block on the entries ``keep``."""
    a = _destroy(fock_dim)
    eye1 = np.eye(fock_dim, dtype=complex)
    a1 = np.kron(a, eye1)
    a2 = np.kron(eye1, a)
    num1 = a1.conj().T @ a1
    num2 = a2.conj().T @ a2
    h = params.chi11 * num1 @ num1 + params.chi22 * num2 @ num2 + 2.0 * params.chi12 * num1 @ num2
    d = fock_dim * fock_dim
    eye = np.eye(d, dtype=complex)
    # vec(A rho B) = (A kron B^T) vec(rho) for row-major vectorization, and
    # np.kron(x, y)[np.ix_(keep, keep)] is x[rr] * y[cc], entry by entry the same product
    rr, cc = np.ix_(keep // d, keep // d), np.ix_(keep % d, keep % d)
    lmat = -1j * (h[rr] * eye[cc] - eye[rr] * h.T[cc])
    for aj, gamma, nbar in ((a1, params.gamma1, params.nbar1), (a2, params.gamma2, params.nbar2)):
        adj = aj.conj().T
        num = adj @ aj
        anti = aj @ adj
        down = 2.0 * (aj[rr] * adj.T[cc]) - num[rr] * eye[cc] - eye[rr] * num.T[cc]
        up = 2.0 * (adj[rr] * aj.T[cc]) - anti[rr] * eye[cc] - eye[rr] * anti.T[cc]
        lmat = lmat + (gamma / 2.0) * ((nbar + 1.0) * down + nbar * up)
    return lmat


def default_step(params: CavityParams, fock_dim: int) -> float:
    """Integration step keeping phase truncation error well under 1e-8 per run.

    Also clamped so the stability guard in ``integrate_master`` can never
    reject the default.
    """
    gmax = max(params.gamma1, params.gamma2)
    chi_sum = abs(params.chi11) + abs(params.chi22) + 2.0 * abs(params.chi12)
    chi_max = max(abs(params.chi11), abs(params.chi22), abs(params.chi12))
    accuracy = 0.02 / (gmax + 2.0 * chi_sum * fock_dim + 1.0)
    stability = _STABILITY_LIMIT / (gmax + 2.0 * chi_max * fock_dim ** 2 + 1.0)
    return min(accuracy, stability)


def _rk4_step_matrix(lmat: np.ndarray, h: float) -> np.ndarray:
    # For a constant linear generator the classic RK4 update collapses
    # exactly to the degree-4 Taylor polynomial of exp(h L).
    eye = np.eye(lmat.shape[0], dtype=complex)
    hl = h * lmat
    m = eye + hl
    term = hl
    for k in (2.0, 3.0, 4.0):
        term = term @ hl / k
        m = m + term
    return m


def _check_step(params: CavityParams, fock_dim: int, step: float) -> None:
    if not 0 < step < math.inf:
        raise ValueError(f"step must be positive and finite, got {step}")
    gmax = max(params.gamma1, params.gamma2)
    chi_max = max(abs(params.chi11), abs(params.chi22), abs(params.chi12))
    scale = gmax + 2.0 * chi_max * fock_dim ** 2
    if scale * step > _STABILITY_LIMIT:
        raise ValueError(
            f"step {step:g} too large for rate scale {scale:g} (product {scale * step:.3g} > {_STABILITY_LIMIT});"
            " reduce the step or leave it unset"
        )


def integrate_master(rho0, params: CavityParams, t: float, fock_dim: int = 2,
                     step: Optional[float] = None) -> np.ndarray:
    """Integrate the full master equation from rho0 for time t.

    Parameters
    ----------
    rho0 : array_like
        Density matrix on the two-mode Fock space, shape (fock_dim**2,)*2.
        For fock_dim = 2 this coincides with the two-qubit computational
        basis.
    params : CavityParams
        Damping, Kerr couplings and reservoir occupations.
    t : float
        Duration in us.
    fock_dim : int
        Per-mode truncation, at least 2. Thermal runs need headroom above
        the qubit subspace.
    step : float, optional
        RK4 step; defaults to ``default_step``. Steps violating the
        stability guard are rejected.

    Returns
    -------
    numpy.ndarray
        The evolved matrix. Trace preservation within 1e-9 is enforced.
    """
    return integrate_master_grid(rho0, params, [t], fock_dim, step)[0]


def _kept_indices(rho: np.ndarray, fock_dim: int) -> np.ndarray:
    """Row-major vec(rho) indices that the master equation can make nonzero.

    The generator conserves each mode's coherence order ``m_j - n_j``, so an
    entry stays exactly zero if, in either mode, ``|m_j - n_j|`` exceeds the
    largest order among the nonzero entries of ``rho``.
    """
    # rho[m1 * fock_dim + m2, n1 * fock_dim + n2] is rho.reshape(o1.shape)[m1, m2, n1, n2]
    m1, m2, n1, n2 = np.indices((fock_dim,) * 4)
    o1, o2 = np.abs(m1 - n1), np.abs(m2 - n2)
    occupied = rho.reshape(o1.shape) != 0
    box = (o1 <= o1[occupied].max(initial=0)) & (o2 <= o2[occupied].max(initial=0))
    return np.flatnonzero(box)


def integrate_master_grid(rho0, params: CavityParams, times: Sequence[float],
                          fock_dim: int = 2, step: Optional[float] = None) -> list:
    """Like ``integrate_master`` but records at every time in an increasing grid.

    Only the entries inside the coherence-order box of ``rho0`` (see
    ``_kept_indices``) are integrated; the generator is built on those
    entries alone, and each snapshot is scattered back into a full matrix
    whose other entries are exactly zero.
    """
    if fock_dim < 2:
        raise ValueError(f"fock_dim must be at least 2, got {fock_dim}")
    d = fock_dim * fock_dim
    rho = np.array(rho0, dtype=complex, copy=True)
    if rho.shape != (d, d):
        raise ValueError(f"rho0 has shape {rho.shape}, expected {(d, d)} for fock_dim {fock_dim}")
    grid = [float(x) for x in times]
    _check_times(np.array(grid))
    if step is None:
        step = default_step(params, fock_dim)
    _check_step(params, fock_dim, step)

    keep = _kept_indices(rho, fock_dim)
    lmat = _liouvillian(params, fock_dim, keep)
    tr0 = complex(np.trace(rho))
    out = []
    prev = 0.0
    v = rho.reshape(-1)[keep]
    step_cache: dict[float, np.ndarray] = {}
    for target in grid:
        span = target - prev
        if span > 0:
            n = max(1, math.ceil(span / step))
            h = span / n
            m = step_cache.get(h)
            if m is None:
                m = _rk4_step_matrix(lmat, h)
                step_cache[h] = m
            for _ in range(n):
                v = m @ v
        snap = np.zeros((d, d), dtype=complex)
        snap.flat[keep] = v
        drift = abs(complex(np.trace(snap)) - tr0)
        if drift > 1e-9:
            raise RuntimeError(f"trace drifted by {drift:.3e} during integration")
        out.append(snap)
        prev = target
    return out


# ---------------------------------------------------------------------------
# Closed-form evolved matrices for the named families.


def _bell_like_matrix(gamma: float, chi12: float, t: float, plus_plus: bool = False) -> np.ndarray:
    """Evolved matrix shared by the Bell-like and the |+,+> initial states.

    Requires vanishing self-Kerr couplings; the two cases differ only in
    the oscillator factor f and the corner coefficient h.
    """
    g = math.exp(-gamma * t)
    if plus_plus:
        f = -cmath.exp(2j * chi12 * t)
    else:
        f = cmath.exp(2j * chi12 * t)
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
    return m


def closed_form_reason(initial: InitialState, params: CavityParams) -> Optional[str]:
    """Why the closed-form engine cannot handle this combination, or None if it can."""
    if not params.quiet:
        return "closed forms assume quiet reservoirs (nbar = 0)"
    if params.gamma1 != params.gamma2:
        return "closed forms assume equal damping rates for both modes"
    if isinstance(initial, (BellPsi, BellPhi, WernerPsi, WernerPhi)):
        return None
    if isinstance(initial, (BellLike, PlusPlus, WernerLike)):
        if params.chi11 != 0.0 or params.chi22 != 0.0:
            return f"the {initial_label(initial)} closed form needs vanishing self-Kerr couplings"
        return None
    return f"no closed form for the {initial_label(initial)} family"


def closed_form_rho(initial: InitialState, params: CavityParams, t: float) -> DensityMatrix2Q:
    """Evolved density matrix from the direct closed-form solutions.

    Supports the Bell pairs and their Werner mixtures for any couplings, and
    the Bell-like, |+,+> and Werner-like families when both self-Kerr
    couplings vanish. Both damping rates must be equal and reservoirs quiet.
    """
    reason = closed_form_reason(initial, params)
    if reason is not None:
        raise ValueError(reason)
    _check_time(t)
    return DensityMatrix2Q(_closed_form_matrix(initial, params, t))


def _closed_form_matrix(initial: InitialState, params: CavityParams, t: float) -> np.ndarray:
    """The unvalidated matrix of ``closed_form_rho``, whose checks the caller has made."""
    gamma = params.gamma1
    g = math.exp(-gamma * t)
    m = np.zeros((4, 4), dtype=complex)

    if isinstance(initial, BellPsi):
        phase = cmath.exp(1j * (params.chi11 - params.chi22) * t)
        m[0, 0] = 1.0 - g
        m[1, 1] = m[2, 2] = g / 2.0
        m[1, 2] = initial.sign * (g / 2.0) * phase
        m[2, 1] = m[1, 2].conjugate()
    elif isinstance(initial, BellPhi):
        phase = cmath.exp(1j * (params.chi11 + 2.0 * params.chi12 + params.chi22) * t)
        m[0, 0] = (2.0 - 2.0 * g + g * g) / 2.0
        m[1, 1] = m[2, 2] = (1.0 - g) * g / 2.0
        m[3, 3] = g * g / 2.0
        m[0, 3] = initial.sign * (g / 2.0) * phase
        m[3, 0] = m[0, 3].conjugate()
    elif isinstance(initial, (BellLike, PlusPlus)):
        m = _bell_like_matrix(gamma, params.chi12, t, plus_plus=isinstance(initial, PlusPlus))
    elif isinstance(initial, WernerPsi):
        p = initial.p
        phase = cmath.exp(1j * (params.chi11 - params.chi22) * t)
        m[0, 0] = ((2.0 - g) ** 2 - g * g * p) / 4.0
        m[3, 3] = g * g * (1.0 - p) / 4.0
        m[1, 1] = m[2, 2] = g * (2.0 - g * (1.0 - p)) / 4.0
        m[1, 2] = initial.sign * (g * p / 2.0) * phase
        m[2, 1] = m[1, 2].conjugate()
    elif isinstance(initial, WernerPhi):
        p = initial.p
        xp = (1.0 + p) * g * g / 2.0
        f = g * cmath.exp(1j * (params.chi11 + 2.0 * params.chi12 + params.chi22) * t)
        m[0, 0] = (2.0 - 2.0 * g + xp) / 2.0
        m[1, 1] = m[2, 2] = (g - xp) / 2.0
        m[3, 3] = xp / 2.0
        m[0, 3] = initial.sign * p * f / 2.0
        m[3, 0] = m[0, 3].conjugate()
    elif isinstance(initial, WernerLike):
        m = _bell_like_matrix(gamma, params.chi12, t)
        off = ~np.eye(4, dtype=bool)
        m[off] *= initial.p
    else:  # unreachable given closed_form_reason, kept for safety
        raise ValueError(f"no closed form for {initial_label(initial)}")
    return m


# ---------------------------------------------------------------------------
# Trajectories.

_ENGINES = ("analytic", "oracle", "closed_form")


def validate_run(initial: InitialState, params: CavityParams, t_max: float,
                 n_points: int, engine: str = "analytic", fock_dim: int = 2,
                 step: Optional[float] = None) -> None:
    """Raise ValueError, naming the field, unless ``trajectory`` accepts this request."""
    if engine not in _ENGINES:
        raise ValueError(f"unknown engine {engine!r}, expected one of {_ENGINES}")
    if not 0 < t_max < math.inf:
        raise ValueError(f"t_max must be positive and finite, got {t_max}")
    if n_points < 2:
        raise ValueError(f"n_points must be at least 2, got {n_points}")
    if fock_dim > _MAX_FOCK_DIM:
        raise ValueError(f"fock_dim must be at most {_MAX_FOCK_DIM}, got {fock_dim}")
    if step is not None:
        _check_step(params, fock_dim, step)
    if engine == "closed_form":
        reason = closed_form_reason(initial, params)
        if reason is not None:
            raise ValueError(reason)
    elif engine == "analytic":
        if not params.quiet:
            raise ValueError("analytic propagation requires quiet reservoirs (nbar = 0);"
                             " thermal runs need the oracle engine")
    elif fock_dim < 2:
        raise ValueError(f"fock_dim must be at least 2, got {fock_dim}")
    elif not params.quiet and fock_dim < 4:
        raise ValueError("thermal reservoirs need fock_dim >= 4 under the oracle engine")


def trajectory(initial: InitialState, params: CavityParams, t_max: float,
               n_points: int, engine: str = "analytic", fock_dim: int = 2,
               step: Optional[float] = None) -> Trajectory:
    """Evolve an initial state on a uniform grid of n_points times in [0, t_max].

    Engines: "analytic" uses the damped propagator, "oracle" the RK4
    master-equation integration, "closed_form" the direct evolved matrices.
    Thermal parameters require the oracle engine with fock_dim >= 4; the
    resulting qubit states are projections and are marked approximate.
    The request is checked by ``validate_run`` before any work is done.
    """
    validate_run(initial, params, t_max, n_points, engine, fock_dim, step)
    times = np.linspace(0.0, t_max, n_points)
    rho0 = initial_density(initial)
    approximate = False

    if engine == "analytic":
        states = propagate(rho0, params, times)
    elif engine == "closed_form":
        states = _density_stack([_closed_form_matrix(initial, params, float(t)) for t in times])
    else:
        big0 = _embed_qubits(rho0.matrix, fock_dim)
        raw = integrate_master_grid(big0, params, list(times), fock_dim, step)
        approximate = not params.quiet
        states = _extract_qubits(raw, fock_dim)
    return Trajectory(times, states, params, initial, engine, approximate)


def _embed_qubits(rho: np.ndarray, fock_dim: int) -> np.ndarray:
    if fock_dim == 2:
        return np.array(rho, copy=True)
    d = fock_dim * fock_dim
    big = np.zeros((d, d), dtype=complex)
    idx = _qubit_indices(fock_dim)
    big[np.ix_(idx, idx)] = rho
    return big


def _extract_qubits(big: Sequence[np.ndarray], fock_dim: int) -> np.ndarray:
    """The validated (N, 4, 4) stack of the qubit blocks of a sequence of Fock-space matrices."""
    idx = np.ix_(_qubit_indices(fock_dim), _qubit_indices(fock_dim))
    block = np.array([b[idx] for b in big])
    block = (block + block.conj().swapaxes(-1, -2)) / 2.0
    # for truncated thermal runs some population leaks above the qubit
    # subspace; the conditional state is what the measures act on
    block = block / np.trace(block, axis1=-2, axis2=-1).real[:, np.newaxis, np.newaxis]
    return _density_stack(block)


def _qubit_indices(fock_dim: int) -> list:
    return [m1 * fock_dim + m2 for m1 in (0, 1) for m2 in (0, 1)]
