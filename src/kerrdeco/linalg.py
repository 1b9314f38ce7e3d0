"""Dense complex-matrix helpers sized for two-qubit problems.

Plain numpy throughout. Inputs are never mutated; every function returns a
freshly allocated array.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "HERMITIAN_TOL",
    "partial_transpose_first",
    "hermitian_eigenvalues",
    "nonneg_spectrum_of_product",
    "trace_distance",
    "haar_unitary",
]

HERMITIAN_TOL = 1e-12

# The spin-flip product of a physical density matrix has a real, nonnegative
# spectrum. Imaginary parts or negative real parts beyond these thresholds
# indicate a caller error, not roundoff.
_IMAG_NOISE = 1e-9
_NEG_NOISE = 1e-9
# Eigenvalues this far below the spectral radius are roundoff shadows of
# exact zeros (rank-deficient products, e.g. any pure state). Callers take
# square roots, which would amplify 1e-16 noise to 1e-8, so snap them to 0.
_ZERO_FLOOR_ABS = 1e-14
_ZERO_FLOOR_REL = 1e-12


def _square(a) -> np.ndarray:
    m = np.array(a, dtype=complex, copy=True)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    return m


def _check_hermitian(m: np.ndarray, tol: float, what: str) -> None:
    dev = float(np.max(np.abs(m - m.conj().T)))
    if dev > tol:
        raise ValueError(f"{what} is not hermitian (max deviation {dev:.3e} > {tol:g})")


def partial_transpose_first(rho) -> np.ndarray:
    """Transpose the first qubit's indices of a 4x4 two-qubit matrix.

    Element (2i+k, 2j+l) of the input lands at (2j+k, 2i+l).
    """
    rho = _square(rho)
    if rho.shape != (4, 4):
        raise ValueError(f"expected a 4x4 two-qubit matrix, got {rho.shape}")
    return rho.reshape(2, 2, 2, 2).transpose(2, 1, 0, 3).reshape(4, 4).copy()


def hermitian_eigenvalues(h, tol: float = HERMITIAN_TOL) -> np.ndarray:
    """Real eigenvalues of a hermitian matrix, ascending.

    Raises ValueError if the input deviates from hermiticity by more
    than ``tol`` in any entry.
    """
    h = _square(h)
    _check_hermitian(h, tol, "input")
    return np.linalg.eigvalsh(h)


def nonneg_spectrum_of_product(m) -> np.ndarray:
    """Spectrum of a 4x4 product matrix that is real and nonnegative by construction.

    Used on rho times its spin-flipped partner, whose eigenvalues are the
    squares of the concurrence ingredients. Imaginary parts within 1e-9 are
    discarded as noise and real parts are clamped to zero from above;
    anything larger raises ValueError. Eigenvalues within the roundoff
    floor of zero are snapped to exactly 0 so that downstream square roots
    do not turn 1e-16 noise into 1e-8 concurrence error.
    """
    m = _square(m)
    if m.shape != (4, 4):
        raise ValueError(f"expected a 4x4 matrix, got {m.shape}")
    ev = np.linalg.eigvals(m)
    imag_dev = float(np.max(np.abs(ev.imag)))
    if imag_dev > _IMAG_NOISE:
        raise ValueError(f"spectrum is not real (max |Im| {imag_dev:.3e}); input is not a valid spin-flip product")
    re = ev.real
    neg_dev = float(re.min())
    if neg_dev < -_NEG_NOISE:
        raise ValueError(f"spectrum has a negative eigenvalue ({neg_dev:.3e}); input is not a valid spin-flip product")
    floor = _ZERO_FLOOR_ABS + _ZERO_FLOOR_REL * max(float(re.max()), 0.0)
    re = np.where(re < floor, 0.0, re)
    return np.sort(re)


def trace_distance(a, b) -> float:
    """Half the trace norm of (a - b) for hermitian a, b of equal size."""
    a, b = _square(a), _square(b)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    # Accumulated roundoff from long evolutions is tolerated here, hence the
    # looser hermiticity threshold than elsewhere.
    _check_hermitian(a, 1e-10, "first argument")
    _check_hermitian(b, 1e-10, "second argument")
    diff = a - b
    diff = (diff + diff.conj().T) / 2.0
    return float(np.sum(np.abs(np.linalg.eigvalsh(diff)))) / 2.0


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random unitary via QR of a complex Gaussian matrix."""
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    # fix the phase ambiguity of QR so the distribution is Haar
    d = np.diagonal(r)
    return q * (d / np.abs(d))
