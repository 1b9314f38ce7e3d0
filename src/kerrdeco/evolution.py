"""Time evolution of two cavity qubits under damping and Kerr cross-coupling.

Two independent routes to the same physics live here. ``propagate`` applies
the exact amplitude-damping propagator, valid for quiet (zero-temperature)
reservoirs, to one state or a stack of B at one time or an array of N times in
one call: its terms are numpy arrays, each complex product spelled out as
CPython forms it, so every matrix equals the scalar arithmetic bit for bit; it
returns one ``DensityMatrix2Q``, (B, N, 4, 4) for B states at N times.
``integrate_master_grid`` evolves the full master equation over a time grid
on a truncated Fock space, the cross-checking oracle; it also covers thermal
reservoirs. The generator conserves each mode's coherence order ``m_j - n_j``,
so the oracle evolves only the entries within the orders the initial state
occupies; every other entry stays exactly zero. One kernel evolves them in
groups. A quiet run is one group, the whole box, stepped by fixed-step RK4 with
one step per distinct grid span, because the pinned oracle CSV hashes hold its
bytes until they are re-recorded. A warm run (``nbar > 0``) has one group per
signed coherence sector and uses its exact propagator, by Taylor scaling and
squaring: on the grid ``trajectory`` builds, one ``exp(h * L)`` per sector,
whose powers reach every grid time by doubling, each snapshot within half an
ulp of its time (the last within one ulp); on any other grid one
``exp(span * L)`` per distinct span, applied once per time. Each kernel has its
own cap, checked by one gate (``_checked_step``) before anything is built. A warm
run is rejected when ``t_end`` times ``_generator_bound``, a bound on the
generator's 1-norm from the rates alone, exceeds ``_MAX_WARM_NORM``. A quiet run
takes the RK4 step that ``_default_step`` derives from the rates and
``fock_dim`` (not an option), and is rejected past ``_MAX_RK4_STEPS`` steps or
``_MAX_RK4_WORK`` steps * K**2 * B for K evolved entries of B states.
It takes one initial matrix or a stack of them, evolved together, and returns
an (N, d, d) array of snapshots, (B, N, d, d) for a stack of B.

Rates are in rad/us, times in us.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, fields
from typing import Optional, Sequence

import numpy as np

from .states import (
    DensityMatrix2Q, InitialState, _CORES, _as_density, _check_whole, _initial_matrix,
    bell_like, bell_phi, bell_psi, initial_density, initial_label,
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


def rj_factor(j: int, m1, n1, m2, n2, p_j, params: CavityParams, t):
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
    ar, ai = _cmul(0.0, 1.0, (chi_self + params.chi12) * (m - n) * t, 0.0)
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


def propagate(rho0, params: CavityParams, t):
    """Evolve one two-qubit density matrix, or each of a stack of B, for time t or each of a 1-d array of times.

    Exact for zero reservoir occupation; raises for thermal parameters, for
    which ``integrate_master_grid`` is the supported route. The result is a
    ``DensityMatrix2Q``, (N, 4, 4) for N times, with a leading B axis for a
    (B, 4, 4) ``rho0``, whose mode factors are formed once; each matrix equals,
    bit for bit, the one the scalar complex arithmetic gives for its state and time.
    """
    if not params.quiet:
        raise ValueError(_NEEDS_QUIET)
    t = _time_axis(t)
    rho0 = _as_density(rho0).matrix
    if rho0.ndim > 3:
        raise ValueError(f"rho0 must be one 4x4 density matrix or a (B, 4, 4) stack, got shape {rho0.shape}")
    # (B, 1, terms) for a stack, against the (N, terms) factors
    src = rho0.reshape(*rho0.shape[:-2], 1, 16)[..., _SRC]
    col = t.reshape(-1, 1)
    r1 = rj_factor(1, *_ROWS1, params, col)[:, _ROW1]
    r2 = rj_factor(2, *_ROWS2, params, col)[:, _ROW2]
    fr, fi = _cmul(r1.real, r1.imag, r2.real, r2.imag)
    del r1, r2
    # r1 * r2 * src[...] per term as _cmul forms it, in preallocated (B, N, terms) buffers: a stack makes no more
    # temporaries of that size than these three
    shape = np.broadcast_shapes(fr.shape, src.shape)
    tr, ti, scratch = np.empty(shape), np.empty(shape), np.empty(shape)
    np.multiply(fr, src.real, out=tr)
    tr -= np.multiply(fi, src.imag, out=scratch)
    np.multiply(fr, src.imag, out=ti)
    ti += np.multiply(fi, src.real, out=scratch)
    del scratch
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


def _destroy(fock_dim: int) -> np.ndarray:
    return np.diag(np.sqrt(np.arange(1, fock_dim, dtype=float)), 1).astype(complex)


def _operators(params: CavityParams, fock_dim: int) -> tuple:
    """The whole-space operators ``_liouvillian`` slices: the Hamiltonian, the identity and, per mode,
    ``(a, a^dagger, a^dagger a, a a^dagger, gamma, nbar)``."""
    a = _destroy(fock_dim)
    eye1 = np.eye(fock_dim, dtype=complex)
    modes = []
    for aj, gamma, nbar in ((np.kron(a, eye1), params.gamma1, params.nbar1),
                            (np.kron(eye1, a), params.gamma2, params.nbar2)):
        adj = aj.conj().T
        modes.append((aj, adj, adj @ aj, aj @ adj, gamma, nbar))
    num1, num2 = modes[0][2], modes[1][2]
    h = params.chi11 * num1 @ num1 + params.chi22 * num2 @ num2 + 2.0 * params.chi12 * num1 @ num2
    return h, np.eye(fock_dim * fock_dim, dtype=complex), modes


def _liouvillian(operators: tuple, keep: np.ndarray) -> np.ndarray:
    """Generator of the master equation on row-major vec(rho), its block on the entries ``keep``.

    ``operators`` are the whole-space operators from ``_operators(params, fock_dim)``,
    formed once for every block a run builds.
    """
    h, eye, modes = operators
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


# RK4, the quiet kernel's step, and its caps: they go once quiet runs take the warm
# runs' exact propagators.

_STABILITY_LIMIT = 0.1

# The most RK4 steps a quiet run may take to its last time, and the most work,
# steps * K**2 * B, as each step multiplies a (K, K) matrix into B states of K kept
# entries: 50x the largest run these caps were set for (the thermal workload at
# fock_dim 5, t_max 1, when it still stepped RK4: about 20k steps at K = 169, 5.8e8).
# Stronger rates, a longer run or a larger fock_dim fail at the boundary instead of
# stepping for hours.
_MAX_RK4_STEPS = 1_000_000
_MAX_RK4_WORK = 29_000_000_000


def _default_step(params: CavityParams, fock_dim: int) -> float:
    """The RK4 step: phase truncation error well under 1e-8 per run, and stable.

    The step times the stability scale, the fastest damping plus
    2 * (strongest Kerr coupling) * fock_dim**2, stays below ``_STABILITY_LIMIT``.
    """
    chi_sum = abs(params.chi11) + abs(params.chi22) + 2.0 * abs(params.chi12)
    accuracy = 0.02 / (max(params.gamma1, params.gamma2) + 2.0 * chi_sum * fock_dim + 1.0)
    chi_max = max(abs(params.chi11), abs(params.chi22), abs(params.chi12))
    scale = max(params.gamma1, params.gamma2) + 2.0 * chi_max * fock_dim ** 2
    return min(accuracy, _STABILITY_LIMIT / (scale + 1.0))


# The most a warm run may ask of its exact propagators: t_end * _generator_bound. Its
# trace drifts by up to 2.9e-16 times that (the worst of 3000 random runs at fock_dim
# 2 to 6, and of 60 at 8, 12 and 16), so by 4.4e-10 at the cap, under half the 1e-9
# drift check. A Kerr coupling of 2e4 still reaches t = 1 at fock_dim 4 (1.28e6); the
# thermal workload asks about 2e3.
_MAX_WARM_NORM = 1.5e6


def _generator_bound(params: CavityParams, fock_dim: int) -> float:
    """An upper bound on the 1-norm of the whole-space generator, from the rates alone.

    In any column the Hamiltonian adds at most 2 * fock_dim**2 * (|chi11| + |chi22| + 2 |chi12|)
    and mode j's dissipator at most 2 * fock_dim * gamma_j * (1 + 2 nbar_j). Rates too large
    for a float give inf or NaN, which no cap admits.
    """
    chi_sum = abs(params.chi11) + abs(params.chi22) + 2.0 * abs(params.chi12)
    damping = params.gamma1 * (1.0 + 2.0 * params.nbar1) + params.gamma2 * (1.0 + 2.0 * params.nbar2)
    return 2.0 * fock_dim * (fock_dim * chi_sum + damping)


def _checked_step(params: CavityParams, fock_dim: int, t_end: float, kept: int, stack: int) -> Optional[float]:
    """The one gate of an oracle run to ``t_end``: a ValueError past the cap of the kernel that runs it.

    A warm run is held to ``t_end * _generator_bound(params, fock_dim) <= _MAX_WARM_NORM``
    and gets no step. A quiet run gets the RK4 step, unless reaching ``t_end`` exceeds
    ``_MAX_RK4_STEPS``, or ``_MAX_RK4_WORK`` for its ``kept`` entries and ``stack`` states.
    """
    if not params.quiet:
        norm = t_end * _generator_bound(params, fock_dim)
        if not norm <= _MAX_WARM_NORM:
            rates = ", ".join(f"{f.name} = {getattr(params, f.name):g}" for f in fields(params))
            raise ValueError(f"rates too large for the oracle at fock_dim {fock_dim}: reaching t = {t_end:g} takes t "
                             f"times the generator's norm bound, {norm:.3g}, above the cap of {_MAX_WARM_NORM:.3g}, "
                             f"at {rates}")
        return None
    step = _default_step(params, fock_dim)
    steps = t_end / step if step > 0 else math.inf
    if not steps <= _MAX_RK4_STEPS:
        rates = ", ".join(f"{name} = {getattr(params, name):g}"
                          for name in ("gamma1", "gamma2", "chi11", "chi22", "chi12"))
        raise ValueError(f"rates too large for the oracle at fock_dim {fock_dim}: reaching t = {t_end:g} takes "
                         f"{steps:.3g} RK4 steps, above the cap of {_MAX_RK4_STEPS}, at {rates}")
    work = steps * kept * kept * stack
    if not work <= _MAX_RK4_WORK:
        raise ValueError(f"oracle run too large at fock_dim {fock_dim}: {steps:.3g} RK4 steps to t = {t_end:g}, {kept} "
                         f"kept entries and {stack} state(s) make {work:.3g}, above the cap of {_MAX_RK4_WORK:.3g}")
    return step


def _kept_indices(rho: np.ndarray, fock_dim: int) -> np.ndarray:
    """Row-major vec(rho) indices that the master equation can make nonzero.

    The generator conserves each mode's coherence order ``m_j - n_j``, so an
    entry stays exactly zero if, in either mode, ``|m_j - n_j|`` exceeds the
    largest order among the nonzero entries of ``rho``; for a stack, of any
    of its matrices.
    """
    # rho[m1 * fock_dim + m2, n1 * fock_dim + n2] is rho.reshape(o1.shape)[m1, m2, n1, n2]
    m1, m2, n1, n2 = np.indices((fock_dim,) * 4)
    o1, o2 = np.abs(m1 - n1), np.abs(m2 - n2)
    occupied = (rho.reshape(-1, *o1.shape) != 0).any(axis=0)
    box = (o1 <= o1[occupied].max(initial=0)) & (o2 <= o2[occupied].max(initial=0))
    return np.flatnonzero(box)


def integrate_master_grid(rho0, params: CavityParams, times: Sequence[float],
                          fock_dim: int = 2) -> np.ndarray:
    """Evolve the full master equation from rho0, or from each matrix of a stack, recording at every time of a grid.

    Only the entries in the coherence-order box of ``rho0`` (``_kept_indices``,
    for a stack the union of its members' boxes) are evolved; every other
    entry of each snapshot is exactly zero, and so is every entry outside a
    member's own box. One kernel (``_evolve_kept``) evolves them: quiet
    reservoirs step RK4 over the whole box, whose bytes the pinned oracle CSV
    hashes record. Warm ones use each coherence sector's exact propagator: on
    a grid that is exactly ``np.linspace(0.0, times[-1], N)``, one
    ``exp(h * L)``, ``h = times[-1] / (N - 1)``, whose powers reach every time
    by doubling in ceil(log2 N) products, snapshot k taken at k * h (within
    half an ulp of ``times[k]``, the last within one ulp); on any other grid
    one ``exp(span * L)`` per distinct span, applied once per time. A stack is
    evolved together: each RK4 step, or each propagator product, is one matrix
    product over all its members. Each kernel has its own cap, checked by
    ``_checked_step`` before anything is built: the RK4 step and work caps for
    quiet runs, ``_MAX_WARM_NORM`` on ``t_end`` times the generator's norm
    bound for warm ones.

    Parameters
    ----------
    rho0 : array_like
        Density matrix on the two-mode Fock space, shape (fock_dim**2,)*2, or a
        stack of B of them, shape (B, fock_dim**2, fock_dim**2), with finite
        entries; at fock_dim = 2 the two-qubit computational basis.
    params : CavityParams
        Damping, Kerr couplings and reservoir occupations.
    times : sequence of float
        Times in us: 1-d, strictly increasing, finite and nonnegative.
    fock_dim : int
        Per-mode truncation, a whole number from 2 to 16; thermal runs need headroom above the qubit subspace.

    Returns
    -------
    numpy.ndarray
        The evolved matrix at each of the N times, shape (N, fock_dim**2, fock_dim**2)
        for one matrix and (B, N, fock_dim**2, fock_dim**2) for a stack. Trace
        preservation within 1e-9 is enforced for every member and time.
    """
    _check_fock_dim(fock_dim)
    d = fock_dim * fock_dim
    rho = np.array(rho0, dtype=complex, copy=True)
    if rho.ndim not in (2, 3) or rho.shape[-2:] != (d, d):
        raise ValueError(f"rho0 has shape {rho.shape}, expected {(d, d)} or (B, {d}, {d}) for fock_dim {fock_dim}")
    finite = np.isfinite(rho).all(axis=(-2, -1))
    if not finite.all():
        where = "" if rho.ndim == 2 else f" in state {int(np.argmin(finite))}"
        raise ValueError(f"rho0 has non-finite entries{where}")
    grid = _time_grid(times)
    keep = _kept_indices(rho, fock_dim)
    step = _checked_step(params, fock_dim, grid[-1] if len(grid) else 0.0, len(keep), rho.size // (d * d))
    # one state is a (K,) vector, a stack a (K, B) block, of its kept entries
    v = np.moveaxis(rho.reshape(*rho.shape[:-2], d * d)[..., keep], -1, 0)
    kept = _evolve_kept(v, params, fock_dim, keep, grid, step)
    # the diagonal entries i * (d + 1) are always kept
    drift = np.abs(kept[:, keep % (d + 1) == 0].sum(axis=1) - np.trace(rho, axis1=-2, axis2=-1))
    if not np.all(drift <= 1e-9):
        bad = np.argwhere(~(drift <= 1e-9))[0]
        who = "" if rho.ndim == 2 else f" for state {bad[1]}"
        raise RuntimeError(f"trace drifted by {drift[tuple(bad)]:.3e}{who} during integration")
    # assembled only after the kernel has returned, so its matrices are freed first (lower peak memory)
    out = np.zeros((*rho.shape[:-2], len(grid), d * d), dtype=complex)
    out[..., keep] = np.moveaxis(kept, (0, 1), (-2, -1))
    return out.reshape(*out.shape[:-1], d, d)


def _evolve_kept(v: np.ndarray, params: CavityParams, fock_dim: int, keep: np.ndarray,
                 grid: np.ndarray, step: Optional[float]) -> np.ndarray:
    """The kept entries ``v``, shape (K,) or (K, B), evolved to every grid time: (N, K) or (N, K, B).

    Each group of entries is evolved by its own block of the generator, built
    from whole-space operators formed once per call. For a quiet run the group
    is the whole box, and each distinct grid span has one RK4 step
    ``span / count``, applied ``count = ceil(span / step)`` times. A warm run
    takes no ``step``: each signed coherence sector ``(m1 - n1, m2 - n2)``, which
    the generator never mixes, is a group. On the grid ``trajectory`` builds, exactly
    ``np.linspace(0.0, grid[-1], N)``, a sector forms one exact propagator
    ``P = exp(h * L)``, ``h = grid[-1] / (N - 1)``, and reaches every time by
    doubling (``_powers``); snapshot k is taken at k * h, which rounds to
    ``grid[k]`` for k < N - 1 (at most half an ulp of that time away) and lies
    within one ulp of ``grid[-1]`` for the last. On any other grid it forms
    ``exp(span * L)`` per distinct span and applies it once per time. A group
    whose entries all start at zero stays exactly zero and is skipped.
    """
    if params.quiet:
        groups = [np.arange(len(keep))]
    else:
        m1, m2, n1, n2 = np.unravel_index(keep, (fock_dim,) * 4)
        orders = np.stack([m1 - n1, m2 - n2], axis=1)
        groups = [np.flatnonzero((orders == order).all(axis=1)) for order in np.unique(orders, axis=0)]
    n = len(grid)
    doubling = not params.quiet and n > 1 and np.array_equal(grid, np.linspace(0.0, grid[-1], n))
    # a grid that begins at t = 0 records the start itself there
    start = int(n > 0 and grid[0] == 0.0)
    spans, which = np.unique(np.diff(grid[start:], prepend=0.0), return_inverse=True)
    spans = spans.tolist()
    counts = [math.ceil(span / step) if params.quiet else 1 for span in spans]
    # each span's products before the one that records, as ranges built once (empty for a warm run)
    more = [range(count - 1) for count in counts]
    operators = _operators(params, fock_dim)
    kept = np.zeros((n, *v.shape), dtype=complex)
    for idx in groups:
        u = v[idx]
        if not u.any():
            continue
        lmat = _liouvillian(operators, keep[idx])
        if doubling:
            kept[:, idx] = _powers(_expm(grid[-1] / (n - 1) * lmat), u, n)
            continue
        if params.quiet:
            # one at a time, as a quiet box can be large: K = 2116 for a Bell-like start at fock_dim 16
            props = [_taylor(span / count * lmat, 4) for span, count in zip(spans, counts)]
        else:
            # a sector is small, so its propagators are one stack
            props = list(_expm(np.multiply.outer(spans, lmat)))
        snaps = np.empty((n, *u.shape), dtype=complex)
        snaps[:start] = u
        for i, j in enumerate(which.tolist(), start):
            for _ in more[j]:
                u = np.dot(props[j], u)
            u = np.dot(props[j], u, out=snaps[i])
        kept[:, idx] = snaps
    return kept


def _powers(prop: np.ndarray, u: np.ndarray, n: int) -> np.ndarray:
    """``prop**k @ u`` for k = 0 .. n - 1, n >= 2: shape (n, K) for u (K,), (n, K, B) for u (K, B).

    By doubling: with snapshots 0 .. m - 1 filled, one product of ``prop**m``
    with all of them fills m .. 2m - 1, and ``prop**m`` is then squared. N
    snapshots take ceil(log2 N) products and one squaring fewer.
    """
    rows = u.reshape(len(u), -1).T
    b = len(rows)
    # time-major rows, (n * B, K): row k * B + j is member j at snapshot k
    snaps = np.empty((n * b, len(u)), dtype=complex)
    snaps[:b] = rows
    m = 1
    while True:
        k = min(m, n - m)
        np.matmul(snaps[:k * b], prop.T, out=snaps[m * b:(m + k) * b])
        m *= 2
        if m >= n:
            return snaps.reshape(n, b, -1).swapaxes(1, 2).reshape(n, *u.shape)
        prop = prop @ prop


def _taylor(a: np.ndarray, q: int) -> np.ndarray:
    """``I + a + a**2 / 2! + ... + a**q / q!``, q >= 1, for each matrix of a (..., k, k) stack.

    At q = 4 and ``a = h L`` it is one classic RK4 step of the constant
    linear generator ``L``, whose four stages collapse to this polynomial.
    """
    m, term = np.eye(a.shape[-1], dtype=complex) + a, a
    for k in range(2, q + 1):
        term = term @ a / k
        m = m + term
    return m


def _expm(a: np.ndarray) -> np.ndarray:
    """exp of each matrix of a (..., k, k) stack, by Taylor scaling and squaring (Moler & Van Loan, SIAM Rev. 45:3, 2003).

    With s chosen so that every ``a / 2**s`` has a 1-norm below ``theta < 1``,
    the Taylor polynomial stops at the degree q where ``theta**(q + 1) / (q + 1)!``
    falls below the unit roundoff, and is squared s times. A zero matrix gives
    the identity exactly.
    """
    norm = float(np.abs(a).sum(axis=-2).max(initial=0.0))
    s = max(0, math.frexp(norm)[1])
    theta = norm / 2.0 ** s
    q, bound = 0, theta
    while bound > 2.0 ** -53:
        q += 1
        bound *= theta / (q + 1)
    m = _taylor(a / 2.0 ** s, max(q, 1))
    for _ in range(s):
        m = m @ m
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
    couplings vanish. Both damping rates must be equal and reservoirs quiet.
    The result is a ``DensityMatrix2Q``, an (N, 4, 4) stack for N times.
    """
    reason = closed_form_reason(initial, params)
    if reason is not None:
        raise ValueError(reason)
    t = _time_axis(t)
    out = np.array([_closed_form_matrix(initial, params, s) for s in t.reshape(-1).tolist()])
    return DensityMatrix2Q(out[0] if t.ndim == 0 else out.reshape(-1, 4, 4))


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


# ---------------------------------------------------------------------------
# Trajectories.

_ENGINES = ("analytic", "oracle", "closed_form")


def validate_run(initial: InitialState, params: CavityParams, t_max: float,
                 n_points: int, engine: str = "analytic", fock_dim: int = 2) -> None:
    """Raise ValueError, naming the field, unless ``trajectory`` accepts this request."""
    if engine not in _ENGINES:
        raise ValueError(f"unknown engine {engine!r}, expected one of {_ENGINES}")
    if not 0 < t_max < math.inf:
        raise ValueError(f"t_max must be positive and finite, got {t_max}")
    _check_whole(n_points, "n_points", 2)
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
    if engine == "oracle":
        # only a quiet run's RK4 work depends on the start, through the entries it keeps
        kept = len(_kept_indices(_embed_qubits(_initial_matrix(initial), fock_dim), fock_dim)) if params.quiet else 0
        _checked_step(params, fock_dim, t_max, kept, 1)


def trajectory(initial: InitialState, params: CavityParams, t_max: float,
               n_points: int, engine: str = "analytic", fock_dim: int = 2) -> Trajectory:
    """Evolve an initial state on a uniform grid of n_points times in [0, t_max].

    Engines: "analytic" uses the damped propagator, "oracle" the
    master-equation oracle (one kernel: RK4 steps for quiet reservoirs, each
    coherence sector's exact propagator for warm ones, each kernel with its own
    cap), "closed_form" the direct evolved matrices. Thermal
    parameters require the oracle engine with fock_dim >= 4; the resulting
    qubit states are projections and are marked approximate.
    The request is checked by ``validate_run`` before any work is done.
    """
    validate_run(initial, params, t_max, n_points, engine, fock_dim)
    times = np.linspace(0.0, t_max, n_points)
    rho0 = initial_density(initial)
    if engine == "analytic":
        states = propagate(rho0, params, times)
    elif engine == "closed_form":
        states = closed_form_rho(initial, params, times)
    else:
        raw = integrate_master_grid(_embed_qubits(rho0.matrix, fock_dim), params, times, fock_dim)
        states = _extract_qubits(raw, fock_dim)
    return Trajectory(times, states, params, initial, engine)


def _embed_qubits(rho: np.ndarray, fock_dim: int) -> np.ndarray:
    big = np.zeros((fock_dim * fock_dim,) * 2, dtype=complex)
    big[_qubit_block(fock_dim)] = rho
    return big


def _extract_qubits(big: np.ndarray, fock_dim: int) -> np.ndarray:
    """The (N, 4, 4) stack of the renormalized qubit blocks of an (N, d, d) stack of Fock-space matrices."""
    rows, cols = _qubit_block(fock_dim)
    # in C order, as np.trace's sum below depends on the memory layout
    block = np.ascontiguousarray(big[:, rows, cols])
    block = (block + block.conj().swapaxes(-1, -2)) / 2.0
    # for truncated thermal runs some population leaks above the qubit
    # subspace; the conditional state is what the measures act on
    return block / np.trace(block, axis1=-2, axis2=-1).real[:, np.newaxis, np.newaxis]


def _qubit_block(fock_dim: int) -> tuple:
    """The ``np.ix_`` index of the qubit subspace, Fock states 0 and 1 of each mode."""
    idx = [m1 * fock_dim + m2 for m1 in (0, 1) for m2 in (0, 1)]
    return np.ix_(idx, idx)
