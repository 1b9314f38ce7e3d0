"""Time evolution of two cavity qubits under damping and Kerr cross-coupling.

Two independent routes to the same physics live here. ``propagate`` applies the exact amplitude-damping propagator
of quiet (zero-temperature) reservoirs to one state or a stack of B at one time or N times, each matrix equal bit for
bit to the scalar complex arithmetic. ``integrate_master_grid``, the cross-checking oracle, evolves a two-qubit start
by the full master equation over a time grid: with quiet reservoirs by RK4 on all 16 qubit entries, which it never
leaves, and with thermal ones on a truncated Fock space; its docstring gives its kernels and their caps. It never calls
``rj_factor``, but its warm kernel factors each coherence sector per mode as the propagator does, so a test holds
those factors to the oracle's whole-space generator.
``closed_form_rho`` gives the direct evolved matrices of the named families, and ``trajectory`` runs any of the three
engines on a uniform grid.

Rates are in rad/us, times in us.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Optional, Sequence

import numpy as np

from .linalg import _cmul
from .states import (
    DensityMatrix2Q, InitialState, _CORES, _as_density, _check_finite, _check_whole, bell_like, bell_phi, bell_psi,
    initial_density, initial_label,
)
from .states import BellLike  # noqa: F401  benchmarks/test_benchmark.py reaches the tag as evolution.BellLike

__all__ = [
    "CavityParams",
    "Trajectory",
    "rj_factor",
    "propagate",
    "integrate_master_grid",
    "closed_form_rho",
    "closed_form_reason",
    "trajectory",
    "validate_run",
]

# Below this value of |x*t| the pump factor switches to its series form,
# which is exact to second order and avoids 0/0 at vanishing damping.
_SERIES_SWITCH = 1e-8

_NEEDS_QUIET = "analytic propagation requires quiet reservoirs (nbar = 0); thermal runs need the oracle engine"

# The largest per-mode truncation. The oracle's gates bound what a run holds; this bounds a warm run's time where
# truncation no longer pays: at 16 (one BLAS thread) a warm Bell-like run of 401 times takes 10 ms, and the truncation
# error is about 2e-9. A quiet run never leaves the qubit levels, so it is the same at every fock_dim.
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
            _check_finite(v, f.name)
            if v < 0 and not f.name.startswith("chi"):
                raise ValueError(f"{f.name} must be nonnegative, got {v}")
            # a Python float, so the rate arithmetic of the caps overflows to inf, not to a numpy warning
            object.__setattr__(self, f.name, float(v))

    @property
    def quiet(self) -> bool:
        return self.nbar1 == 0.0 and self.nbar2 == 0.0


@dataclass(frozen=True)
class Trajectory:
    """States on a uniform time grid, as one ``DensityMatrix2Q`` stack.

    ``states.matrix[k]`` is the density matrix at ``times[k]``. A raw (N, 4, 4)
    array (from the oracle engine) is checked here, once; a ``DensityMatrix2Q``
    (from ``propagate`` or ``closed_form_rho``) passes through.
    """

    times: np.ndarray
    states: DensityMatrix2Q
    params: CavityParams
    initial: InitialState
    engine: str

    def __post_init__(self):
        t = _time_grid(self.times)
        states = _as_density(self.states)
        if states.matrix.shape != (len(t), 4, 4):
            raise ValueError(f"states must be an (N, 4, 4) stack matching the {len(t)} times, got {states.matrix.shape}")
        t.flags.writeable = False
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "states", states)

    @property
    def approximate(self) -> bool:
        """True for thermal runs: their states were projected out of a larger Fock space and renormalized."""
        return not self.params.quiet


def _checked_times(t) -> np.ndarray:
    """The one time rule: ``t`` as a float array (a copy) whose every entry is finite and nonnegative."""
    t = np.array(t, dtype=float)
    ok = (t >= 0) & (t < math.inf)  # written so that NaN fails it
    if t.ndim == 0 and not ok:
        raise ValueError(f"time must be finite and nonnegative, got {float(t)}")
    if not np.all(ok):
        i = int(np.flatnonzero(~ok)[0])
        where = i if t.ndim == 1 else tuple(int(k) for k in np.unravel_index(i, t.shape))
        raise ValueError(f"times must be finite and nonnegative, got {t.flat[i]} at index {where}")
    return t


def _rate_list(params: CavityParams) -> str:
    """All seven rates, by name, for the message of a cap that the rates exceed."""
    return ", ".join(f"{f.name} = {getattr(params, f.name):g}" for f in fields(params))


# The analytic routes' cap on their rate sum R (|chi12| counted twice) times max(1, t). R t bounds every phase and
# decay exponent they form. Near R t = 1e9 a general state's phases lose enough digits that it fails the positivity
# check (-1.3e-8 at 1.1e9 for a random pure state, none of 1500 scanned at 5.6e8 or below), and products of two
# exponents overflow past 1e154. The cap sits 100x under the first. Taking max(1, t) bounds each rate too, so however
# short the run, no rate product overflows.
_MAX_ANALYTIC_SCALE = 1e7


def _check_analytic_rates(params: CavityParams, t_end) -> None:
    """The one rate rule of ``propagate`` and ``closed_form_rho`` for times up to ``t_end``: a ValueError
    naming every rate past ``_MAX_ANALYTIC_SCALE``."""
    t_end = float(t_end)
    rates = params.gamma1 + params.gamma2 + abs(params.chi11) + abs(params.chi22) + 2.0 * abs(params.chi12)
    scale = rates * max(1.0, t_end)
    if not scale <= _MAX_ANALYTIC_SCALE:
        raise ValueError(f"rates too large for the analytic routes: reaching t = {t_end:g} takes their sum times "
                         f"max(1, t), {scale:.3g}, above the cap of {_MAX_ANALYTIC_SCALE:.3g}, at {_rate_list(params)}")


def _time_axis(t) -> np.ndarray:
    """One time or a 1-d array of times, as ``propagate`` and ``closed_form_rho`` take them."""
    t = np.asarray(t, dtype=float)
    if t.ndim > 1:
        raise ValueError(f"t must be a time or a 1-d array of times, got shape {t.shape}")
    return _checked_times(t)


def _time_grid(times) -> np.ndarray:
    """A 1-d, strictly increasing grid of times that pass ``_checked_times``."""
    t = np.asarray(times, dtype=float)
    if t.ndim != 1:
        raise ValueError(f"times must be a 1-d sequence, got shape {t.shape}")
    t = _checked_times(t)
    if np.any(np.diff(t) <= 0):
        raise ValueError("times must be strictly increasing")
    return t


def _complex(re, im) -> np.ndarray:
    z = np.empty(np.broadcast_shapes(np.shape(re), np.shape(im)), dtype=complex)
    z.real, z.imag = re, im
    return z


def rj_factor(j: int, m1, n1, m2, n2, p_j, params: CavityParams, t):
    """Single-mode weight of one source term in the damped-evolution sum.

    For mode ``j`` this is the coefficient multiplying the initial matrix
    element shifted upward by ``p_j`` photons in that mode: 0 or 1, a Python or
    numpy integer, for the whole call, as a qubit's mode returns at most one.
    The decay exponent couples to both modes' index differences through the
    Kerr terms, so all four indices are required.

    The indices ``m1, n1, m2, n2`` and the time ``t`` broadcast as numpy arrays
    do; with all of them scalars the result is a ``complex``, else a complex
    array of the broadcast shape. Every element equals, bit for bit, the value
    the scalar ``complex``/``cmath`` arithmetic gives for its own arguments.
    """
    if not isinstance(p_j, (int, np.integer)) or p_j not in (0, 1):
        raise ValueError(f"p_j must be 0 or 1, got {p_j!r}")
    m1, n1, m2, n2 = np.broadcast_arrays(m1, n1, m2, n2)
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
    ar, ai = _cmul(0.0, 1.0, (chi_self + params.chi12) * (m - n) * t, 0.0)
    br, bi = _cmul(gamma, xi, m + n + 1, 0.0)
    br, bi = _cmul(br - gamma, bi - 0.0, t / 2.0, 0.0)
    factor = np.exp(_complex(ar - br, ai - bi))
    del ar, ai, br, bi
    pump_r, pump_i = _pump(gamma, xi, m, n, t) if p_j else (1.0, 0.0)
    out = _complex(*_cmul(pump_r, pump_i, factor.real, factor.imag))
    return complex(out) if t.ndim == 0 and m1.ndim == 0 else out


def _pump(gamma: float, xi, m, n, t):
    """Real and imaginary parts of ``rj_factor``'s pump for one returned photon, weight * pump_base.

    Intermediates are released as soon as they are used, which keeps the peak memory of a long time axis low.
    """
    # per index element: the quotient gamma / x as CPython forms it
    q = np.array([gamma / complex(gamma, v) if gamma or v else 0j for v in xi.flat],
                 dtype=complex).reshape(xi.shape)
    xtr, xti = _cmul(gamma, xi, t, 0.0)
    series = np.hypot(xtr, xti) < _SERIES_SWITCH
    # above the switch, pump_base = gamma / x * (1.0 - exp(-xt))
    e = np.exp(_complex(-xtr, -xti))
    br, bi = _cmul(q.real, q.imag, 1.0 - e.real, 0.0 - e.imag)
    del e
    # below it, gamma * t * (1.0 - xt / 2.0); CPython divides by (2.0, 0.0) with ratio 0.0 and denominator 2.0
    sr, si = _cmul(gamma * t, 0.0, 1.0 - (xtr + xti * 0.0) / 2.0, 0.0 - (xti - xtr * 0.0) / 2.0)
    del xtr, xti
    br, bi = np.where(series, sr, br), np.where(series, si, bi)
    del sr, si, series
    # the weight sqrt((m + 1)(n + 1)) rounds one exact integer once, as sqrt(comb(m + 1, 1) comb(n + 1, 1)) does
    return _cmul(np.sqrt((m + 1) * (n + 1)), 0.0, br, bi)


# The terms of the damped sum for out[2 m1 + m2, 2 n1 + n2]: one per photon number p1 (p2), 0 or 1,
# returned to mode 1 (2), which exists only when m1 = n1 = 0 (m2 = n2 = 0), so the source indices
# stay inside the qubit subspace. Rows (m1, n1, m2, n2) of the factors of each mode, as two tables,
# for p = 0 and p = 1, so that only the second's call of ``rj_factor`` takes ``_pump``. Per term its
# slot in its entry's sum, its output entry, its two factor rows (counted across both tables) and its
# source entry, ordered by slot and then by entry, so the first 16 terms are slot 0 of every entry.
def _term_table():
    rows = (({}, {}), ({}, {}))  # per mode, per p: the factor rows by key
    terms = []
    for m1, m2, n1, n2 in np.ndindex(2, 2, 2, 2):
        for slot, (p1, p2) in enumerate(np.ndindex(2 - max(m1, n1), 2 - max(m2, n2))):
            # a mode's factor sees the other mode only through its index difference: equal factors share one row
            k1, k2 = (p1, m1, n1, m2 - n2), (p2, m2, n2, m1 - n1)
            rows[0][p1].setdefault(k1, (m1, n1, m2, n2))
            rows[1][p2].setdefault(k2, (m1, n1, m2, n2))
            src = 4 * (2 * (m1 + p1) + (m2 + p2)) + 2 * (n1 + p1) + (n2 + p2)
            terms.append((slot, 4 * (2 * m1 + m2) + 2 * n1 + n2, k1, k2, src))
    at = [{key: i for i, key in enumerate([*by_p[0], *by_p[1]])} for by_p in rows]
    tables = [tuple(np.array(list(r.values())).T for r in by_p) for by_p in rows]
    terms = sorted((slot, entry, at[0][k1], at[1][k2], src) for slot, entry, k1, k2, src in terms)
    return (*tables, np.array(terms).T)


_ROWS1, _ROWS2, (_SLOT, _ENTRY, _ROW1, _ROW2, _SRC) = _term_table()


def propagate(rho0, params: CavityParams, t):
    """Evolve one two-qubit density matrix, or each of a stack of B, for time t or each of a 1-d array of times.

    Exact for zero reservoir occupation; raises for thermal parameters, for which ``integrate_master_grid`` is the
    supported route, and for rates past ``_check_analytic_rates``'s cap at the largest time. The result is a
    ``DensityMatrix2Q``, (N, 4, 4) for N times, with a leading B axis for a (B, 4, 4) ``rho0``, whose mode factors are
    formed once; each matrix equals, bit for bit, the one the scalar complex arithmetic gives for its state and time.
    """
    if not params.quiet:
        raise ValueError(_NEEDS_QUIET)
    t = _time_axis(t)
    _check_analytic_rates(params, t.max(initial=0.0))
    rho0 = _as_density(rho0).matrix
    if rho0.ndim > 3:
        raise ValueError(f"rho0 must be one 4x4 density matrix or a (B, 4, 4) stack, got shape {rho0.shape}")
    # (B, 1, terms) for a stack, against the (N, terms) factors
    src = rho0.reshape(*rho0.shape[:-2], 1, 16)[..., _SRC]
    col = t.reshape(-1, 1)
    r1 = np.hstack([rj_factor(1, *rows, p, params, col) for p, rows in enumerate(_ROWS1)])[:, _ROW1]
    r2 = np.hstack([rj_factor(2, *rows, p, params, col) for p, rows in enumerate(_ROWS2)])[:, _ROW2]
    fr, fi = _cmul(r1.real, r1.imag, r2.real, r2.imag)
    del r1, r2
    # r1 * r2 * src[...] per term, (B, N, terms) for a stack
    tr, ti = _cmul(fr, fi, src.real, src.imag)
    # each entry's terms summed in slot order, starting from 0.0 + 0.0j
    re, im = 0.0 + tr[..., :16], 0.0 + ti[..., :16]
    for slot in (1, 2, 3):
        k = _SLOT == slot
        re[..., _ENTRY[k]] += tr[..., k]
        im[..., _ENTRY[k]] += ti[..., k]
    del tr, ti
    out = _complex(re, im).reshape(*rho0.shape[:-2], *t.shape, 4, 4)
    del re, im
    # the hermitian part, (out + out^dagger) / 2, in place: the conjugate is a copy
    out += out.conj().swapaxes(-1, -2)
    out /= 2.0
    return DensityMatrix2Q(out)


# ---------------------------------------------------------------------------
# Master-equation oracle on a truncated Fock space.


def _liouvillian(params: CavityParams, fock_dim: int, keep: np.ndarray) -> np.ndarray:
    """Generator of the master equation on row-major vec(rho), its block on the entries ``keep``."""
    a = np.diag(np.sqrt(np.arange(1, fock_dim, dtype=float)), 1).astype(complex)
    eye1, eye = np.eye(fock_dim, dtype=complex), np.eye(fock_dim * fock_dim, dtype=complex)
    modes = []
    for aj, gamma, nbar in ((np.kron(a, eye1), params.gamma1, params.nbar1),
                            (np.kron(eye1, a), params.gamma2, params.nbar2)):
        adj = aj.conj().T
        modes.append((aj, adj, adj @ aj, aj @ adj, gamma, nbar))
    num1, num2 = modes[0][2], modes[1][2]
    h = params.chi11 * num1 @ num1 + params.chi22 * num2 @ num2 + 2.0 * params.chi12 * num1 @ num2
    d = len(eye)
    # vec(A rho B) = (A kron B^T) vec(rho) for row-major vectorization, and
    # np.kron(x, y)[np.ix_(keep, keep)] is x[rr] * y[cc], entry by entry the same product
    rr, cc = np.ix_(keep // d, keep // d), np.ix_(keep % d, keep % d)
    lmat = -1j * (h[rr] * eye[cc] - eye[rr] * h.T[cc])
    for aj, adj, num, anti, gamma, nbar in modes:
        down = 2.0 * (aj[rr] * adj.T[cc]) - num[rr] * eye[cc] - eye[rr] * num.T[cc]
        up = 2.0 * (adj[rr] * aj.T[cc]) - anti[rr] * eye[cc] - eye[rr] * anti.T[cc]
        lmat = lmat + (gamma / 2.0) * ((nbar + 1.0) * down + nbar * up)
    return lmat


def _check_fock_dim(fock_dim) -> None:
    """The one ``fock_dim`` rule: a whole number from 2 to ``_MAX_FOCK_DIM``."""
    _check_whole(fock_dim, "fock_dim", 2)
    if fock_dim > _MAX_FOCK_DIM:
        raise ValueError(f"fock_dim must be at most {_MAX_FOCK_DIM}, got {fock_dim}")


# RK4, the quiet kernel's step, and its caps: they go once quiet runs take the warm runs' exact propagators.

_STABILITY_LIMIT = 0.1

# The most RK4 steps a quiet run may take to its last time, and the most work, steps * 256 * B, as each step
# multiplies the (16, 16) step matrix into B states of 16 entries. One state reaches at most 2.56e8 under the step
# cap, so the work cap binds only stacks: at the default rates, 13731 states to t = 1. Stronger rates, a longer run or
# a larger stack fail at the boundary instead of stepping for hours.
_MAX_RK4_STEPS = 1_000_000
_MAX_RK4_WORK = 29_000_000_000


def _default_step(params: CavityParams) -> float:
    """The RK4 step of a quiet run, from the rates alone: stable, with a truncation error of about 1e-8 per run.

    The step times the stability scale at the qubit levels, the fastest damping plus 8 * (strongest Kerr coupling),
    stays below ``_STABILITY_LIMIT``. At vanishing Kerr couplings the step is longest; there, over gamma in [0, 100],
    a run of |11> on 41 times in [0, 1] ends up to 1.28e-8 (at gamma1 = gamma2 = 23) from ``propagate``.
    """
    chi_sum = abs(params.chi11) + abs(params.chi22) + 2.0 * abs(params.chi12)
    accuracy = 0.02 / (max(params.gamma1, params.gamma2) + 4.0 * chi_sum + 1.0)
    chi_max = max(abs(params.chi11), abs(params.chi22), abs(params.chi12))
    scale = max(params.gamma1, params.gamma2) + 8.0 * chi_max
    return min(accuracy, _STABILITY_LIMIT / (scale + 1.0))


# The most a warm run may ask of its exact propagators: t_end * _generator_bound. Its trace drifts by up to
# 3.7e-16 times that (the worst of 2563 random runs at fock_dim 2 to 6, and of 97 at 8, 12 and 16), so by 5.6e-10 at
# the cap, under the 1e-9 drift check. A Kerr coupling of 2e4 still reaches t = 1 at fock_dim 4 (1.28e6); the
# thermal workload asks about 2e3.
_MAX_WARM_NORM = 1.5e6


def _generator_bound(params: CavityParams, fock_dim: int) -> float:
    """An upper bound on the 1-norm of the whole-space generator, from the rates alone.

    In any column the Hamiltonian adds at most 2 * fock_dim**2 * (|chi11| + |chi22| + 2 |chi12|) and mode j's
    dissipator at most 2 * fock_dim * gamma_j * (1 + 2 nbar_j). Rates too large for a float give inf or NaN, which no
    cap admits.
    """
    chi_sum = abs(params.chi11) + abs(params.chi22) + 2.0 * abs(params.chi12)
    damping = params.gamma1 * (1.0 + 2.0 * params.nbar1) + params.gamma2 * (1.0 + 2.0 * params.nbar2)
    return 2.0 * fock_dim * (fock_dim * chi_sum + damping)


# The most complex entries an oracle run may hold at once, as its gates count them. Measured with one BLAS thread: a
# quiet run's snapshots peak at 16.1 bytes per entry for a stack (5e4 times of 2 states' 16 stepped and 16 returned
# entries) and 9.5 for one state, whose returned entries are its stepped ones reshaped, and its (16, 16) RK4 generator
# is not counted. A warm run peaks at 31 bytes per counted entry on a uniform grid (143 MiB for a Bell-like start at
# fock_dim 16 with 1e5 points, 4.8e6 counted, in 0.38 s) and at 84 off it (401 MiB for 9765 times at fock_dim 16). So
# a run at the cap peaks near 0.5 GB.
_MAX_ORACLE_ENTRIES = 5_000_000


def _uniform(grid: np.ndarray) -> bool:
    """Whether ``grid`` is exactly ``np.linspace(0.0, grid[-1], N)``, N > 1: the grid whose powers a warm run stacks."""
    return len(grid) > 1 and np.array_equal(grid, np.linspace(0.0, grid[-1], len(grid)))


def _check_held(where: str, points: int, what: str, stack: int, held: int) -> None:
    """A ValueError if an oracle run holds more than ``_MAX_ORACLE_ENTRIES`` complex entries at once."""
    if not held <= _MAX_ORACLE_ENTRIES:
        raise ValueError(f"oracle run too large {where}: {points} times of {what} for {stack} state(s) "
                         f"hold {held}, above the cap of {_MAX_ORACLE_ENTRIES}")


def _checked_warm(params: CavityParams, fock_dim: int, t_end: float, points: int, stack: int, uniform: bool) -> None:
    """The gate of a warm oracle run: a ValueError past the memory cap or ``_MAX_WARM_NORM``.

    A warm run of ``stack`` states on ``points`` times takes no RK4 step. Per time it holds the larger of its 16 returned
    entries and its largest per-sector product, 3 rows of ``fock_dim`` (levels 0 and 1, and the trace), per state, and
    off a ``uniform`` grid each time's two one-mode exponentials, ``2 fock_dim**2`` entries for all states. That is
    held to ``_MAX_ORACLE_ENTRIES``, and reaching ``t_end`` to ``_MAX_WARM_NORM``.
    """
    held = points * max(stack * max(16, 3 * fock_dim), 0 if uniform else 2 * fock_dim ** 2)
    _check_held(f"at fock_dim {fock_dim}", points, "the warm kernel's largest array", stack, held)
    norm = t_end * _generator_bound(params, fock_dim)
    if not norm <= _MAX_WARM_NORM:
        raise ValueError(f"rates too large for the oracle at fock_dim {fock_dim}: reaching t = {t_end:g} takes t "
                         f"times the generator's norm bound, {norm:.3g}, above the cap of {_MAX_WARM_NORM:.3g}, "
                         f"at {_rate_list(params)}")


def _checked_step(params: CavityParams, t_end: float, points: int, stack: int) -> float:
    """The RK4 step of a quiet oracle run: a ValueError past the memory cap or the RK4 caps.

    Per time, each of ``stack`` states holds the snapshots of its 16 stepped and 16 returned entries, held to
    ``_MAX_ORACLE_ENTRIES`` over ``points`` times. Reaching ``t_end`` is held to ``_MAX_RK4_STEPS`` steps, and to
    ``_MAX_RK4_WORK`` for ``stack`` states. The step and work counts print in full, so a refused run never reads as at
    its cap.
    """
    _check_held("for quiet reservoirs", points, "16 stepped and 16 returned entries", stack, points * stack * 32)
    step = _default_step(params)
    steps = t_end / step if step > 0 else math.inf
    if not steps <= _MAX_RK4_STEPS:
        raise ValueError(f"rates too large for the oracle with quiet reservoirs: reaching t = {t_end:g} takes "
                         f"{steps} RK4 steps, above the cap of {_MAX_RK4_STEPS}, at {_rate_list(params)}")
    work = steps * 256 * stack
    if not work <= _MAX_RK4_WORK:
        raise ValueError(f"oracle run too large for quiet reservoirs: {steps} RK4 steps to t = {t_end:g} of 16 "
                         f"entries for {stack} state(s) make {work}, above the cap of {_MAX_RK4_WORK}")
    return step


def integrate_master_grid(rho0, params: CavityParams, times: Sequence[float], fock_dim: int = 2) -> np.ndarray:
    """Evolve the full master equation from a two-qubit rho0, or each of a stack, recording at every time of a grid.

    The start sits at Fock states 0 and 1 of each mode, and each snapshot's qubit block is returned. With quiet
    reservoirs a photon only decays, so no level above 1 is reached and a run is the ``fock_dim``-2 run at every
    ``fock_dim``: it steps RK4, with a step from the rates alone, over all 16 qubit entries (a stack as one (16, B)
    block), whose bytes the pinned oracle CSV hashes record (``_evolve_kept``); the generator conserves each mode's
    coherence order, so an entry whose order the start leaves empty stays exactly zero. Warm ones evolve each
    occupied coherence sector, read from the 4x4 start, by its exact one-mode propagators, forming only the rows
    returned (``_evolve_sectors``); on a grid that is exactly ``np.linspace(0.0, times[-1], N)`` snapshot k is taken
    within 1.4 ulps of ``times[k]`` (1.6 for the last, over 3000 random grids). A stack is evolved together. Before
    anything is built, ``_checked_step`` gates a quiet run and ``_checked_warm`` a warm one: what it holds against
    ``_MAX_ORACLE_ENTRIES``, then the RK4 step and work caps or ``_MAX_WARM_NORM``.

    Parameters
    ----------
    rho0 : array_like
        A two-qubit density matrix, shape (4, 4), or a stack of B, shape (B, 4, 4), with finite entries.
    params : CavityParams
        Damping, Kerr couplings and reservoir occupations.
    times : sequence of float
        Times in us: 1-d, strictly increasing, finite and nonnegative.
    fock_dim : int
        Per-mode truncation of a warm run, a whole number from 2 to 16; thermal runs need headroom above the qubit
        subspace. A quiet run is checked for it and does not use it.

    Returns
    -------
    numpy.ndarray
        Each snapshot's qubit block as it stands (not renormalized) at each of the N times, shape (N, 4, 4) for one
        matrix and (B, N, 4, 4) for a stack; the (N, fock_dim**4) snapshots are never formed. Trace preservation
        within 1e-9 is enforced for every member and time, over every diagonal entry.
    """
    _check_fock_dim(fock_dim)
    rho = np.asarray(rho0, dtype=complex)
    if rho.ndim not in (2, 3) or rho.shape[-2:] != (4, 4):
        raise ValueError(f"rho0 has shape {rho.shape}, expected a two-qubit start, (4, 4), or a stack of them, "
                         f"(B, 4, 4)")
    finite = np.isfinite(rho).all(axis=(-2, -1))
    if not finite.all():
        where = "" if rho.ndim == 2 else f" in state {int(np.argmin(finite))}"
        raise ValueError(f"rho0 has non-finite entries{where}")
    grid = _time_grid(times)
    stack, points, t_end = len(rho.reshape(-1, 16)), len(grid), grid[-1] if len(grid) else 0.0
    if not params.quiet:
        _checked_warm(params, fock_dim, t_end, points, stack, _uniform(grid))
        out, trace = _evolve_sectors(rho, params, fock_dim, grid)
    else:
        # a quiet start never leaves the qubit levels, so at every fock_dim the run is the fock_dim-2 run: one state
        # is a (16,) vector, a stack a C-ordered (16, B) block, the layout the pinned bytes used
        step = _checked_step(params, t_end, points, stack)
        v = np.ascontiguousarray(np.moveaxis(rho.reshape(*rho.shape[:-2], 16), -1, 0))
        out = np.ascontiguousarray(np.moveaxis(_evolve_kept(v, params, grid, step), (0, 1), (-2, -1)))
        out = out.reshape(*out.shape[:-1], 4, 4)
        trace = np.trace(out, axis1=-2, axis2=-1)
    drift = np.abs(trace - np.trace(rho, axis1=-2, axis2=-1)[..., None])
    if not np.all(drift <= 1e-9):
        bad = np.argwhere(~(drift <= 1e-9))[0]
        who = "" if rho.ndim == 2 else f" for state {bad[0]}"
        raise RuntimeError(f"trace drifted by {drift[tuple(bad)]:.3e}{who} during integration")
    return out


def _evolve_kept(v: np.ndarray, params: CavityParams, grid: np.ndarray, step: float) -> np.ndarray:
    """The 16 qubit entries ``v``, (16,) or (16, B), of a quiet run stepped by RK4 to every grid time: (N, 16) or
    (N, 16, B).

    Each distinct grid span has one RK4 step ``span / count``, applied ``count = ceil(span / step)`` times; its step
    matrix is formed at its first use and freed after its last.
    """
    n = len(grid)
    # a grid that begins at t = 0 records the start itself there
    start = int(n > 0 and grid[0] == 0.0)
    spans, which = np.unique(np.diff(grid[start:], prepend=0.0), return_inverse=True)
    counts = [math.ceil(span / step) for span in spans.tolist()]
    # the grid index of each span's last use
    last = dict(zip(which.tolist(), range(start, n)))
    lmat = _liouvillian(params, 2, np.arange(16))
    kept = np.zeros((n, *v.shape), dtype=complex)
    kept[:start] = v
    props = {}
    for i, j in enumerate(which.tolist(), start):
        if j not in props:
            props[j] = _taylor(spans[j] / counts[j] * lmat, 4)
        for _ in range(counts[j]):
            v = props[j].dot(v)
        kept[i] = v
        if i == last[j]:
            del props[j]
    return kept


def _sector_blocks(params: CavityParams, fock_dim: int, orders: np.ndarray) -> np.ndarray:
    """The one-mode generators ``(A1, A2)`` of each signed sector ``(o1, o2)`` of ``orders`` (S, 2): (S, 2, d, d).

    Mode j's entries |m_j><n_j|, m_j - n_j = o_j, are indexed by k = min(m_j, n_j) < d - |o_j|, padded to d with zero
    rows and columns. As m1 m2 - n1 n2 = o2 m1 + o1 n2, the generator is a Kronecker sum, X -> A1 X + X A2^T, and
    exp(t L) X = exp(t A1) X exp(t A2)^T (Van Loan, J. Comput. Appl. Math. 123:85, 2000). A_j holds mode j's self-Kerr
    phase, its damping and 2 chi12 o2 m1 (2 chi12 o2 n1 and the sum's constant -2i chi12 o1 o2) or 2 chi12 o1 n2.
    """
    d, k, own = fock_dim, np.arange(fock_dim), orders[..., None]
    gamma, nbar, chi = np.array([[params.gamma1, params.gamma2], [params.nbar1, params.nbar2],
                                 [params.chi11, params.chi22]])[..., None]
    m, n = k + np.maximum(own, 0), k + np.maximum(-own, 0)
    valid = k < d - np.abs(own)
    # a a^dagger is diag(1, .., d - 1, 0) in the truncation
    anti = np.where(m < d - 1, m + 1, 0) + np.where(n < d - 1, n + 1, 0)
    phase = chi * (m * m - n * n) + 2.0 * params.chi12 * orders[:, ::-1, None] * np.stack([m[:, 0], n[:, 1]], axis=1)
    out = np.zeros((len(orders), 2, d, d), dtype=complex)
    out[..., k, k] = (-1j * phase - gamma / 2.0 * ((nbar + 1.0) * (m + n) + nbar * anti)) * valid
    # the jumps down from |m+1><n+1| into |m><n|, and up from |m><n| into |m+1><n+1|
    jump = np.sqrt((m + 1) * (n + 1))[..., :-1] * valid[..., 1:]
    out[..., k[:-1], k[1:]] = gamma * (nbar + 1.0) * jump
    out[..., k[1:], k[:-1]] = gamma * nbar * jump
    return out


def _evolve_sectors(rho: np.ndarray, params: CavityParams, fock_dim: int, grid: np.ndarray) -> tuple:
    """A warm run of the two-qubit ``rho``, (4, 4) or (B, 4, 4): its qubit block at every time, and its trace.

    Each occupied signed sector (o1, o2) is read from ``rho`` as the corner of a (fock_dim, fock_dim) matrix X,
    X[k1, k2] the entry whose mode j has levels k_j + max(o_j, 0) and k_j + max(-o_j, 0), and evolves as
    ``(L1 exp(t A1)) X (L2 exp(t A2))^T`` (``_sector_blocks``), L_j levels 0 and 1 and a row of ones that sums the
    trace. An exactly hermitian start evolves the sectors with o1 > 0, or o1 = 0 and o2 >= 0, and conjugates them for
    the rest. Returns (N, 4, 4) or (B, N, 4, 4), and the trace, (N,) or (B, N).
    """
    d, n = fock_dim, len(grid)
    r4 = rho.reshape(-1, 2, 2, 2, 2)
    # the occupied sectors, and (0, 0), whose row of ones sums the trace
    m1, m2, n1, n2 = np.nonzero((r4 != 0).any(axis=0))
    orders = np.unique(np.stack([np.r_[0, m1 - n1], np.r_[0, m2 - n2]], axis=-1), axis=0)
    hermitian = np.array_equal(rho, rho.conj().swapaxes(-1, -2))
    if hermitian:
        orders = orders[(orders[:, 0] > 0) | (orders[:, 0] == 0) & (orders[:, 1] >= 0)]
    a = _sector_blocks(params, d, orders)
    rows = np.vstack([np.eye(2, d), np.ones(d)])
    # on a uniform grid every sector at once, as the stacks hold about sqrt(N) matrices per mode
    if _uniform(grid):
        powers = zip(*_mode_powers(a, rows, grid, True))
    else:
        powers = (_mode_powers(block, rows, grid, False) for block in a)
    out = np.zeros((len(r4), n, 2, 2, 2, 2), dtype=complex)
    for (o1, o2), (giant, baby) in zip(orders.tolist(), powers):
        x = np.zeros((len(r4), d, d), dtype=complex)
        x[:, :2 - abs(o1), :2 - abs(o2)] = r4.diagonal(-o1, 1, 3).diagonal(-o2, 1, 2)
        # snapshot q b + i is (L1 G1^q) (E1^i X E2^iT) (L2 G2^q)^T, the first two factors in one product
        q, b = giant.shape[-3], baby.shape[-3]
        w = baby[0] @ x[:, None] @ baby[1].swapaxes(-1, -2)
        y = giant[0].reshape(-1, d) @ w.transpose(0, 2, 1, 3).reshape(len(x), d, b * d)
        y = y.reshape(len(x), q, 3 * b, d) @ giant[1].swapaxes(-1, -2)
        y = y.reshape(len(x), q, 3, b, 3).swapaxes(2, 3).reshape(len(x), q * b, 3, 3)[:, :n]
        if o1 == o2 == 0:
            trace = y[..., -1, -1]
        k1, k2 = (np.arange(2 - abs(o)) for o in (o1, o2))
        out[:, :, (k1 + max(o1, 0))[:, None], k2 + max(o2, 0), (k1 + max(-o1, 0))[:, None], k2 + max(-o2, 0)] = \
            y[:, :, k1[:, None], k2]
    out = out.reshape(*rho.shape[:-2], n, 4, 4)
    if hermitian:
        # the evolved sectors fill the lower triangle and the diagonal
        i, j = np.triu_indices(4, 1)
        out[..., i, j] = out[..., j, i].conj()
    return out, trace.reshape(*rho.shape[:-2], n)


def _mode_powers(a: np.ndarray, rows: np.ndarray, grid: np.ndarray, uniform: bool) -> tuple:
    """``(giant, baby)``, (..., Q, r, d) and (..., b, d, d): ``rows @ exp(t_k a) = giant[q] @ baby[i]``, k = q b + i.

    On a ``uniform`` grid, b = ceil(sqrt(N)) powers of ``exp(h a)``, ``h = grid[-1] / (N - 1)``, and ceil(N / b) of
    ``exp(b h a)``, formed directly: time k is taken at q (b h) + i h. Otherwise ``rows @ exp(t_k a)`` per time, b = 1.
    """
    n, eye = len(grid), np.broadcast_to(np.eye(a.shape[-1]), a.shape)
    if not uniform:
        return rows @ _expm(grid[:, None, None] * a[..., None, :, :]), eye[..., None, :, :]
    h = grid[-1] / (n - 1)
    b = math.isqrt(n - 1) + 1
    e, g = _expm(np.stack([h * a, (b * h) * a]))
    baby, giant = [eye], [np.broadcast_to(rows, (*a.shape[:-2], *rows.shape))]
    while len(baby) < b:
        baby.append(baby[-1] @ e)
    while len(giant) < -(-n // b):
        giant.append(giant[-1] @ g)
    return np.stack(giant, axis=-3), np.stack(baby, axis=-3)


def _taylor(a: np.ndarray, q: int) -> np.ndarray:
    """``I + a + a**2 / 2! + ... + a**q / q!``, q >= 1, for each matrix of a (..., k, k) stack.

    At q = 4 and ``a = h L`` it is one classic RK4 step of the constant linear generator ``L``, whose four stages
    collapse to this polynomial; ``_expm`` takes it at its own degree.
    """
    m, term = np.eye(a.shape[-1], dtype=complex) + a, a
    for k in range(2, q + 1):
        term = term @ a / k
        m = m + term
    return m


def _expm(a: np.ndarray) -> np.ndarray:
    """exp of each matrix of a (..., k, k) stack, by Taylor scaling and squaring (Moler & Van Loan, SIAM Rev. 2003).

    With s chosen per matrix so that ``a / 2**s`` has a 1-norm below ``theta < 1``, the Taylor polynomial stops at
    the degree q where the stack's largest ``theta**(q + 1) / (q + 1)!`` falls below the unit roundoff, and each
    matrix is squared its own s times, so a short span keeps its digits beside a long one. A zero matrix gives the
    identity exactly; a non-finite 1-norm raises ValueError.
    """
    norm = np.abs(a).sum(axis=-2).max(axis=-1, initial=0.0)
    if not np.isfinite(norm).all():
        raise ValueError(f"the matrix exponential needs a finite 1-norm, got {norm[~np.isfinite(norm)].flat[0]}")
    s = np.maximum(0, np.frexp(norm)[1])
    theta = float((norm / 2.0 ** s).max(initial=0.0))
    q, bound = 0, theta
    while bound > 2.0 ** -53:
        q += 1
        bound *= theta / (q + 1)
    m = _taylor(a / 2.0 ** s[..., None, None], max(q, 1))
    for i in range(int(s.max(initial=0))):
        m[s > i] = m[s > i] @ m[s > i]
    return m


# ---------------------------------------------------------------------------
# Closed-form evolved matrices for the named families.


def closed_form_reason(initial: InitialState, params: CavityParams) -> Optional[str]:
    """Why the closed-form engine cannot handle this combination, or None if it can."""
    if not params.quiet:
        return "closed forms assume quiet reservoirs (nbar = 0)"
    if params.gamma1 != params.gamma2:
        return "closed forms assume equal damping rates for both modes"
    core = _CORES.get(type(initial))
    if core is None:
        return f"no closed form for the {initial_label(initial)} family"
    if core not in (bell_psi, bell_phi) and (params.chi11 != 0.0 or params.chi22 != 0.0):
        return f"the {initial_label(initial)} closed form needs vanishing self-Kerr couplings"
    return None


def closed_form_rho(initial: InitialState, params: CavityParams, t) -> DensityMatrix2Q:
    """Evolved density matrix from the direct closed-form solutions, for time t or each of a 1-d array of times.

    Supports the Bell pairs and their Werner mixtures for any couplings, and
    the Bell-like, |+,+> and Werner-like families when both self-Kerr
    couplings vanish. Both damping rates must be equal, reservoirs quiet and
    the rates under ``_check_analytic_rates``'s cap at the largest time.
    The result is a ``DensityMatrix2Q``, an (N, 4, 4) stack for N times.
    """
    reason = closed_form_reason(initial, params)
    if reason is not None:
        raise ValueError(reason)
    t = _time_axis(t)
    _check_analytic_rates(params, t.max(initial=0.0))
    # One branch per pure core of ``states._CORES``; a Bell tag takes its Werner form at p = 1. Each entry is formed
    # once over the times, bit for bit as the scalar complex/cmath arithmetic of one time. Three operations stay per
    # time, as numpy's differ from them in the last bit: math.exp, CPython's float ** 2 (C pow) and complex division.
    core, p, gamma, times = _CORES[type(initial)], getattr(initial, "p", 1.0), params.gamma1, t.reshape(-1)
    g = np.array([math.exp(-gamma * s) for s in times.tolist()])
    sq = np.array([(2.0 - s) ** 2 for s in g.tolist()])
    out = np.zeros((len(g), 4, 4), dtype=complex)
    if core is bell_psi:
        out[:, 0, 0] = (sq - g * g * p) / 4.0
        out[:, 3, 3] = g * g * (1.0 - p) / 4.0
        out[:, 1, 1] = out[:, 2, 2] = g * (2.0 - g * (1.0 - p)) / 4.0
        out[:, 1, 2] = _rmul(np.exp(_rmul(1j * (params.chi11 - params.chi22), times)), initial.sign * (g * p / 2.0))
        out[:, 2, 1] = out[:, 1, 2].conj()
    elif core is bell_phi:
        xp = (1.0 + p) * g * g / 2.0
        f = _rmul(np.exp(_rmul(1j * (params.chi11 + 2.0 * params.chi12 + params.chi22), times)), g)
        out[:, 0, 0] = (2.0 - 2.0 * g + xp) / 2.0
        out[:, 1, 1] = out[:, 2, 2] = (g - xp) / 2.0
        out[:, 3, 3] = xp / 2.0
        out[:, 0, 3] = _rmul(f, initial.sign * p) / 2.0
        out[:, 3, 0] = out[:, 0, 3].conj()
    else:
        # the Bell-like core and |+,+>, with vanishing self-Kerr couplings; they
        # differ only in the oscillator factor f and the corner coefficient h
        plus_plus, chi12 = core is not bell_like, params.chi12
        f = np.exp(_rmul(2j * chi12, times))
        f = -f if plus_plus else f
        den = complex(gamma, -2.0 * chi12)
        fg = _rmul(f, g)
        if den == 0:
            # no damping and no coupling: the state is stationary
            h = (2.0 + fg) if plus_plus else fg
        else:
            h = (_rmul(2.0 + fg, gamma) if plus_plus else _rmul(_rmul(f, gamma), g)) - 2j * chi12
            h = np.array([z / den for z in h.tolist()], dtype=complex)  # CPython's division, per time
        rg = np.sqrt(g)
        out[:, 0, 0], out[:, 3, 3] = sq, g * g
        out[:, 1, 1] = out[:, 2, 2] = g * (2.0 - g)
        out[:, 1, 2] = out[:, 2, 1] = g
        out[:, 0, 1] = out[:, 0, 2] = _rmul(h, rg)
        out[:, 1, 0] = out[:, 2, 0] = _rmul(h.conj(), rg)
        out[:, 0, 3] = _rmul(-f, g)
        out[:, 1, 3] = out[:, 2, 3] = _rmul(-f, g * rg)
        out[:, 3, 0] = _rmul(-f.conj(), g)
        out[:, 3, 1] = out[:, 3, 2] = _rmul(-f.conj(), g * rg)
        del f, fg, h, rg  # released before the check copies the stack
        out /= 4.0
        if p != 1.0:  # the Werner-like mixture scales the coherences; by 1.0 it would change no bit
            out[:, ~np.eye(4, dtype=bool)] *= p
    return DensityMatrix2Q(out[0] if t.ndim == 0 else out)


def _rmul(z, x) -> np.ndarray:
    """The complex ``z`` times the real ``x``, as CPython forms a product of a complex and a float."""
    return _complex(*_cmul(z.real, z.imag, x, 0.0))


# ---------------------------------------------------------------------------
# Trajectories.

_ENGINES = ("analytic", "oracle", "closed_form")

# The most grid times a run may ask for, and the most rows a CSV command writes. An analytic
# run with every output costs about 1.6 KB per point: at the cap it peaked at 208 MB in 2.3 s
# (Python 3.11, one BLAS thread), so 10x more would take about 2 GB. Past it a run failed with numpy's
# allocation error (1e8 points asked 11.2 GiB) instead of a message naming the field.
_MAX_POINTS = 100_000

# trajectory's grid rule as a floor on t_max: from the least normal float up, np.linspace(0.0, t_max, n) is strictly
# increasing for every n admitted; a subnormal t_max repeats times (5e-324 at 401 points, 11 * 5e-324 at 8)
_T_MAX_FLOOR = float(np.finfo(float).tiny)


def validate_run(initial: InitialState, params: CavityParams, t_max: float,
                 n_points: int, engine: str = "analytic", fock_dim: int = 2) -> None:
    """Raise ValueError, naming the field, unless ``trajectory`` accepts this request; ``t_max`` >= ``_T_MAX_FLOOR``."""
    if engine not in _ENGINES:
        raise ValueError(f"unknown engine {engine!r}, expected one of {_ENGINES}")
    _check_finite(t_max, "t_max")
    if not t_max >= _T_MAX_FLOOR:
        raise ValueError(f"t_max must be at least {_T_MAX_FLOOR!r}, the least normal float, got {t_max}")
    _check_whole(n_points, "n_points", 2)
    if n_points > _MAX_POINTS:
        raise ValueError(f"n_points must be at most {_MAX_POINTS}, got {n_points}")
    _check_fock_dim(fock_dim)
    if engine == "closed_form":
        reason = closed_form_reason(initial, params)
        if reason is not None:
            raise ValueError(reason)
    elif engine == "analytic":
        if not params.quiet:
            raise ValueError(_NEEDS_QUIET)
    elif not params.quiet and fock_dim < 4:
        raise ValueError("thermal reservoirs need fock_dim >= 4 under the oracle engine")
    if engine != "oracle":
        _check_analytic_rates(params, t_max)
    elif params.quiet:
        _checked_step(params, t_max, n_points, 1)
    else:
        # on trajectory's grid, np.linspace(0.0, t_max, n_points), which is uniform
        _checked_warm(params, fock_dim, t_max, n_points, 1, True)


def trajectory(initial: InitialState, params: CavityParams, t_max: float,
               n_points: int, engine: str = "analytic", fock_dim: int = 2) -> Trajectory:
    """Evolve an initial state on a uniform grid of n_points times in [0, t_max].

    Engines: "analytic" uses the damped propagator, "oracle" the master-equation oracle (RK4 steps on the qubit levels
    for quiet reservoirs at any ``fock_dim``, each coherence sector's exact one-mode propagators for warm ones, each
    with its own cap), "closed_form" the direct evolved matrices. Thermal parameters require the oracle engine with
    fock_dim >= 4; the resulting qubit states are projections and are marked approximate. The request is checked by
    ``validate_run`` before any work is done.
    """
    validate_run(initial, params, t_max, n_points, engine, fock_dim)
    times = np.linspace(0.0, t_max, n_points)
    rho0 = initial_density(initial)
    if engine == "analytic":
        states = propagate(rho0, params, times)
    elif engine == "closed_form":
        states = closed_form_rho(initial, params, times)
    else:
        states = _renormalized(integrate_master_grid(rho0.matrix, params, times, fock_dim))
    return Trajectory(times, states, params, initial, engine)


def _renormalized(block: np.ndarray) -> np.ndarray:
    """The hermitian parts of an (N, 4, 4) stack of qubit blocks, each divided by its trace."""
    block = (block + block.conj().swapaxes(-1, -2)) / 2.0
    # for truncated thermal runs some population leaks above the qubit
    # subspace; the conditional state is what the measures act on
    return block / np.trace(block, axis1=-2, axis2=-1).real[:, np.newaxis, np.newaxis]
