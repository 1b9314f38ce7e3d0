"""Entanglement measures for two-qubit density matrices.

Concurrence via the spin-flip spectrum and negativity via the partial transpose
take a validated density matrix (or anything coercible to one) and return a
float, or a list or tuple of states or an (N, 4, 4) array of them (such as
``Trajectory.states``) and return a float64 array, one value per state. Every
state is validated. Entanglement of formation and logarithmic negativity
derive from one float.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .states import PureState2Q, _as_density, _density_stack

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


def _matrices(rho) -> np.ndarray:
    """The 4x4 matrix of one state, or the (N, 4, 4) stack of a list, tuple or 3-d array of states.

    An array is validated even when read-only: a read-only array is not a validated one.
    """
    if isinstance(rho, (list, tuple)):
        return np.array([_as_density(r).matrix for r in rho]).reshape(-1, 4, 4)
    if isinstance(rho, np.ndarray) and rho.ndim == 3:
        return _density_stack(rho)
    return _as_density(rho).matrix


def concurrence(rho):
    """Concurrence of a two-qubit density matrix, or of each in a list or stack of states.

    The four spin-flip eigenvalue roots lambda_i are sorted ascending; the
    result is max(2*max_i lambda_i - sum_i lambda_i, 0).
    """
    m = _matrices(rho)
    flipped = _SIGMA_YY @ m.conj() @ _SIGMA_YY  # spin-flipped partner
    lam = np.sqrt(linalg.nonneg_spectrum_of_product(m @ flipped))
    c = 2.0 * lam[..., -1] - lam.sum(axis=-1)
    c = np.where(c < 0.0, 0.0, c)  # not np.maximum, which breaks 0.0/-0.0 ties unlike max()
    return c if c.ndim else float(c)


def negativity(rho):
    """Twice the magnitude of the negative partial-transpose eigenvalue mass, per state."""
    mu = linalg.hermitian_eigenvalues(linalg.partial_transpose_first(_matrices(rho)))
    neg = -np.where(mu < 0.0, mu, 0.0).sum(axis=-1)
    n = 2.0 * np.where(neg > 0.0, neg, 0.0)
    return n if n.ndim else float(n)


def _binary_entropy(x: float) -> float:
    if x <= 0.0 or x >= 1.0:
        return 0.0
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


def eof(c: float) -> float:
    """Entanglement of formation as a function of the concurrence."""
    if not (-_RANGE_SLACK <= c <= 1.0 + _RANGE_SLACK):
        raise ValueError(f"concurrence {c!r} outside [0, 1]")
    c = min(max(c, 0.0), 1.0)
    x = (1.0 + math.sqrt(1.0 - c * c)) / 2.0
    return _binary_entropy(x)


def log_negativity(n: float) -> float:
    """Logarithmic negativity as a function of the negativity."""
    if not (-_RANGE_SLACK <= n <= 1.0 + _RANGE_SLACK):
        raise ValueError(f"negativity {n!r} outside [0, 1]")
    n = min(max(n, 0.0), 1.0)
    return math.log2(1.0 + n)


def pure_concurrence(psi: PureState2Q) -> float:
    """Concurrence of a pure state: 2 |c00 c11 - c01 c10|."""
    return 2.0 * abs(psi.c00 * psi.c11 - psi.c01 * psi.c10)


def report(rho) -> EntanglementReport:
    """Compute all four measures of one state."""
    c = concurrence(rho)
    n = negativity(rho)
    return EntanglementReport(c, n, eof(c), log_negativity(n))
