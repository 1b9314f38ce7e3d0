"""Time evolution of two cavity qubits under damping and Kerr cross-coupling.

Two independent routes to the same physics live here. ``propagate`` applies
the exact amplitude-damping propagator, valid for quiet (zero-temperature)
reservoirs. ``integrate_master`` integrates the full master equation with
fixed-step RK4 on a truncated Fock space and serves as the cross-checking
oracle; it also covers thermal reservoirs, which the analytic route cannot.

Rates are in rad/us, times in us.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .states import (
    BellLike, BellPhi, BellPsi, DensityMatrix2Q, InitialState, PlusPlus,
    WernerLike, WernerPhi, WernerPsi, initial_density, initial_label,
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
        for name in ("gamma1", "gamma2", "chi11", "chi22", "chi12", "nbar1", "nbar2"):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise ValueError(f"{name} must be finite, got {v}")
            if v < 0 and not name.startswith("chi"):
                raise ValueError(f"{name} must be nonnegative, got {v}")

    @property
    def quiet(self) -> bool:
        return self.nbar1 == 0.0 and self.nbar2 == 0.0


@dataclass(frozen=True)
class Trajectory:
    """States on a uniform time grid, all validated two-qubit density matrices.

    ``approximate`` is set when the states were projected out of a larger
    Fock space (thermal oracle runs) and renormalized.
    """

    times: np.ndarray
    states: list
    params: CavityParams
    initial: InitialState
    engine: str
    approximate: bool = False

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        if t.ndim != 1 or len(t) != len(self.states):
            raise ValueError("times and states must be matching 1-d sequences")
        _check_times(t)
        t.flags.writeable = False
        object.__setattr__(self, "times", t)


def _check_times(t: np.ndarray) -> None:
    # written so that NaN fails every comparison
    if len(t) and not (t[0] >= 0 and np.all(np.diff(t) > 0) and np.isfinite(t[-1])):
        raise ValueError("times must be finite, nonnegative and strictly increasing")


def rj_factor(j: int, m1: int, n1: int, m2: int, n2: int, p_j: int,
              params: CavityParams, t: float, phase_sign: int = +1) -> complex:
    """Single-mode weight of one source term in the damped-evolution sum.

    For mode ``j`` this is the coefficient multiplying the initial matrix
    element shifted upward by ``p_j`` photons in that mode. The decay
    exponent couples to both modes' index differences through the Kerr
    terms, so all four indices are required.

    ``phase_sign`` flips the oscillatory factor and exists for the
    verification suite's convention check; the physical value is +1.
    """
    d1, d2 = m1 - n1, m2 - n2
    if j == 1:
        gamma, chi_self, m, n = params.gamma1, params.chi11, m1, n1
        x = complex(gamma, 2.0 * (params.chi11 * d1 + params.chi12 * d2))
    elif j == 2:
        gamma, chi_self, m, n = params.gamma2, params.chi22, m2, n2
        x = complex(gamma, 2.0 * (params.chi12 * d1 + params.chi22 * d2))
    else:
        raise ValueError(f"mode index must be 1 or 2, got {j}")

    if p_j:
        xt = x * t
        if abs(xt) < _SERIES_SWITCH:
            pump_base = gamma * t * (1.0 - xt / 2.0)
        else:
            pump_base = gamma / x * (1.0 - cmath.exp(-xt))
        weight = math.sqrt(math.comb(m + p_j, p_j) * math.comb(n + p_j, p_j))
        pump = weight * pump_base ** p_j
    else:
        pump = 1.0

    phase = phase_sign * (chi_self + params.chi12) * (m - n) * t
    exponent = 1j * phase - (x * (m + n + 1) - gamma) * (t / 2.0)
    return pump * cmath.exp(exponent)


def propagate(rho0, params: CavityParams, t: float, phase_sign: int = +1) -> DensityMatrix2Q:
    """Evolve a two-qubit density matrix for time t under quiet damping.

    Exact for zero reservoir occupation; raises for thermal parameters, for
    which ``integrate_master`` is the supported route. ``phase_sign`` is a
    convention guard used by the verification suite and is +1 physically.
    """
    if not params.quiet:
        raise ValueError("analytic propagation requires quiet reservoirs (nbar = 0); use integrate_master")
    if t < 0:
        raise ValueError(f"time must be nonnegative, got {t}")
    if not isinstance(rho0, DensityMatrix2Q):
        rho0 = DensityMatrix2Q(np.asarray(rho0))
    src = rho0.matrix
    out = np.zeros((4, 4), dtype=complex)
    for m1 in (0, 1):
        for m2 in (0, 1):
            for n1 in (0, 1):
                for n2 in (0, 1):
                    acc = 0.0 + 0.0j
                    # a source term exists only when the shifted indices stay
                    # inside the qubit subspace on both sides
                    for p1 in (0, 1) if (m1 == 0 and n1 == 0) else (0,):
                        r1 = rj_factor(1, m1, n1, m2, n2, p1, params, t, phase_sign)
                        for p2 in (0, 1) if (m2 == 0 and n2 == 0) else (0,):
                            r2 = rj_factor(2, m1, n1, m2, n2, p2, params, t, phase_sign)
                            acc += r1 * r2 * src[2 * (m1 + p1) + (m2 + p2), 2 * (n1 + p1) + (n2 + p2)]
                    out[2 * m1 + m2, 2 * n1 + n2] = acc
    out = (out + out.conj().T) / 2.0
    return DensityMatrix2Q(out)


# ---------------------------------------------------------------------------
# Master-equation oracle on a truncated Fock space.


def _destroy(fock_dim: int) -> np.ndarray:
    return np.diag(np.sqrt(np.arange(1, fock_dim, dtype=float)), 1).astype(complex)


def _liouvillian(params: CavityParams, fock_dim: int) -> np.ndarray:
    """Generator of the master equation as a matrix acting on row-major vec(rho)."""
    a = _destroy(fock_dim)
    eye1 = np.eye(fock_dim, dtype=complex)
    a1 = np.kron(a, eye1)
    a2 = np.kron(eye1, a)
    num1 = a1.conj().T @ a1
    num2 = a2.conj().T @ a2
    h = params.chi11 * num1 @ num1 + params.chi22 * num2 @ num2 + 2.0 * params.chi12 * num1 @ num2
    d = fock_dim * fock_dim
    eye = np.eye(d, dtype=complex)
    # vec(A rho B) = (A kron B^T) vec(rho) for row-major vectorization
    lmat = -1j * (np.kron(h, eye) - np.kron(eye, h.T))
    for aj, gamma, nbar in ((a1, params.gamma1, params.nbar1), (a2, params.gamma2, params.nbar2)):
        adj = aj.conj().T
        num = adj @ aj
        anti = aj @ adj
        down = 2.0 * np.kron(aj, adj.T) - np.kron(num, eye) - np.kron(eye, num.T)
        up = 2.0 * np.kron(adj, aj.T) - np.kron(anti, eye) - np.kron(eye, anti.T)
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


def integrate_master_grid(rho0, params: CavityParams, times: Sequence[float],
                          fock_dim: int = 2, step: Optional[float] = None) -> list:
    """Like ``integrate_master`` but records at every time in an increasing grid."""
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

    lmat = _liouvillian(params, fock_dim)
    tr0 = complex(np.trace(rho))
    out = []
    prev = 0.0
    v = rho.reshape(-1)
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
        snap = v.reshape(d, d)
        drift = abs(complex(np.trace(snap)) - tr0)
        if drift > 1e-9:
            raise RuntimeError(f"trace drifted by {drift:.3e} during integration")
        out.append(snap.copy())
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
    if t < 0:
        raise ValueError(f"time must be nonnegative, got {t}")
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
    return DensityMatrix2Q(m)


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
        mats = [propagate(rho0, params, float(t)) for t in times]
    elif engine == "closed_form":
        mats = [closed_form_rho(initial, params, float(t)) for t in times]
    else:
        big0 = _embed_qubits(rho0.matrix, fock_dim)
        raw = integrate_master_grid(big0, params, list(times), fock_dim, step)
        approximate = not params.quiet
        mats = [_extract_qubits(r, fock_dim) for r in raw]
    return Trajectory(times, mats, params, initial, engine, approximate)


def _embed_qubits(rho: np.ndarray, fock_dim: int) -> np.ndarray:
    if fock_dim == 2:
        return np.array(rho, copy=True)
    d = fock_dim * fock_dim
    big = np.zeros((d, d), dtype=complex)
    idx = _qubit_indices(fock_dim)
    big[np.ix_(idx, idx)] = rho
    return big


def _extract_qubits(big: np.ndarray, fock_dim: int) -> DensityMatrix2Q:
    idx = _qubit_indices(fock_dim)
    block = big[np.ix_(idx, idx)]
    block = (block + block.conj().T) / 2.0
    # for truncated thermal runs some population leaks above the qubit
    # subspace; the conditional state is what the measures act on
    block = block / np.trace(block).real
    return DensityMatrix2Q(block)


def _qubit_indices(fock_dim: int) -> list:
    return [m1 * fock_dim + m2 for m1 in (0, 1) for m2 in (0, 1)]
