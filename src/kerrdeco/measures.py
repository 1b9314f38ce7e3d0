"""Entanglement measures for two-qubit density matrices.

Concurrence via the spin-flip spectrum and negativity via the partial transpose
take a ``DensityMatrix2Q``, as checked, and return a float for one state or a
float64 array for a stack such as ``Trajectory.states``. Any other input is
made one by ``states._as_density``. Entanglement of formation and logarithmic
negativity derive from one float or from each value of an array, ``report``
from one state, and it names the shape of a stack it rejects.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .states import PureState2Q, _as_density

__all__ = [
    "EntanglementReport",
    "concurrence",
    "negativity",
    "eof",
    "log_negativity",
    "pure_concurrence",
    "report",
]

_RANGE_SLACK = 1e-9

_SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
_SIGMA_YY = np.kron(_SIGMA_Y, _SIGMA_Y)


@dataclass(frozen=True)
class EntanglementReport:
    """All four measures of one state.

    Negativity never exceeds concurrence for two qubits; the constructor
    enforces that ordering (within roundoff slack) along with the ranges.
    """

    concurrence: float
    negativity: float
    eof: float
    log_negativity: float

    def __post_init__(self):
        for name in ("concurrence", "negativity", "eof", "log_negativity"):
            v = getattr(self, name)
            if not (-1e-12 <= v <= 1.0 + 1e-12):
                raise ValueError(f"{name} = {v!r} outside [0, 1]")
        if self.negativity > self.concurrence + _RANGE_SLACK:
            raise ValueError(
                f"negativity {self.negativity!r} exceeds concurrence {self.concurrence!r}"
            )


def concurrence(rho):
    """Concurrence of a two-qubit density matrix, or of each state of a stack.

    The four spin-flip eigenvalue roots lambda_i are sorted ascending; the
    result is max(2*max_i lambda_i - sum_i lambda_i, 0).
    """
    m = _as_density(rho).matrix
    flipped = _SIGMA_YY @ m.conj() @ _SIGMA_YY  # spin-flipped partner
    lam = np.sqrt(linalg.nonneg_spectrum_of_product(m @ flipped))
    c = 2.0 * lam[..., -1] - lam.sum(axis=-1)
    c = np.where(c < 0.0, 0.0, c)  # not np.maximum, which breaks 0.0/-0.0 ties unlike max()
    return c if c.ndim else float(c)


def negativity(rho):
    """Twice the magnitude of the negative partial-transpose eigenvalue mass, per state."""
    mu = linalg.hermitian_eigenvalues(linalg.partial_transpose_first(_as_density(rho).matrix))
    neg = -np.where(mu < 0.0, mu, 0.0).sum(axis=-1)
    n = 2.0 * np.where(neg > 0.0, neg, 0.0)
    return n if n.ndim else float(n)


def _unit_values(x, measure: str) -> np.ndarray:
    """``x``, one value or an array, as floats within roundoff of [0, 1], clamped to it."""
    x = np.asarray(x, dtype=float)
    ok = (x >= -_RANGE_SLACK) & (x <= 1.0 + _RANGE_SLACK)  # written so that NaN fails it
    if not ok.all():
        raise ValueError(f"{measure} {float(x.flat[np.argmin(ok)])!r} outside [0, 1]")
    return np.where(x < 0.0, 0.0, np.where(x > 1.0, 1.0, x))


def _per_value(fn, x: np.ndarray):
    """``fn`` of each value of ``x``: a float for one value, else an array of its shape.

    ``math.log2`` is kept, value by value, because ``np.log2`` differs from
    it in the last bit on about 0.2-0.3% of inputs.
    """
    out = [fn(v) for v in x.ravel().tolist()]
    return out[0] if x.ndim == 0 else np.array(out).reshape(x.shape)


def _binary_entropy(x: float) -> float:
    if x <= 0.0 or x >= 1.0:
        return 0.0
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


def eof(c):
    """Entanglement of formation as a function of concurrence: one value, or each value of an array."""
    c = _unit_values(c, "concurrence")
    return _per_value(_binary_entropy, (1.0 + np.sqrt(1.0 - c * c)) / 2.0)


def log_negativity(n):
    """Logarithmic negativity as a function of negativity: one value, or each value of an array."""
    return _per_value(math.log2, 1.0 + _unit_values(n, "negativity"))


def pure_concurrence(psi):
    """Concurrence of a pure state, 2 |c00 c11 - c01 c10|: a float for a ``PureState2Q``, or one value per
    row of an (..., 4) stack of amplitudes c00, c01, c10, c11.

    Every value equals, bit for bit, the scalar ``complex`` arithmetic on its four amplitudes.
    """
    c = psi.amplitudes() if isinstance(psi, PureState2Q) else np.asarray(psi, dtype=complex)
    if c.shape[-1:] != (4,):
        raise ValueError(f"amplitudes must be an (..., 4) array, got shape {c.shape}")
    re, im = np.moveaxis(c.real, -1, 0), np.moveaxis(c.imag, -1, 0)
    ar, ai = linalg._cmul(re[0], im[0], re[3], im[3])
    br, bi = linalg._cmul(re[1], im[1], re[2], im[2])
    # abs(complex) is hypot, which np.abs of a complex array is not
    out = 2.0 * np.hypot(ar - br, ai - bi)
    return float(out) if out.ndim == 0 else out


def report(rho) -> EntanglementReport:
    """Compute all four measures of one state."""
    rho = _as_density(rho)
    if rho.matrix.ndim != 2:
        raise ValueError(f"report takes one state, got a stack of shape {rho.matrix.shape}")
    c = concurrence(rho)
    n = negativity(rho)
    return EntanglementReport(c, n, eof(c), log_negativity(n))
