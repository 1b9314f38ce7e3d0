"""Dense complex-matrix helpers sized for two-qubit problems.

Plain numpy throughout. Inputs are never mutated; every function returns a
freshly allocated array. Matrices come one at a time or as (..., d, d) stacks.
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


def _cmul(ar, ai, br, bi):
    """Real and imaginary parts of (ar + i ai)(br + i bi), formed as CPython forms a complex product.

    Each part is two rounded products and one rounded sum, with no fused
    multiply-add, so array results equal the scalar ``complex`` arithmetic
    bit for bit, where numpy's complex multiply may not. CPython promotes a
    real operand to (x, 0.0) first, so a real factor is passed with a zero
    imaginary part.
    """
    return ar * br - ai * bi, ar * bi + ai * br


def _square(a) -> np.ndarray:
    """``a`` as a complex array of square matrices, not copied: no caller writes to it."""
    m = np.asarray(a, dtype=complex)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    return m


def _check_hermitian(m: np.ndarray, tol: float, what: str) -> None:
    if not np.isfinite(m).all():
        raise ValueError(f"{what} has non-finite entries")
    dev = float(np.max(np.abs(m - m.conj().swapaxes(-1, -2)), initial=0.0))
    if not dev <= tol:
        raise ValueError(f"{what} is not hermitian (max deviation {dev:.3e} > {tol:g})")


def partial_transpose_first(rho) -> np.ndarray:
    """Transpose the first qubit's indices of a 4x4 two-qubit matrix, or of each in a stack.

    Element (2i+k, 2j+l) of the input lands at (2j+k, 2i+l).
    """
    rho = _square(rho)
    if rho.shape[-2:] != (4, 4):
        raise ValueError(f"expected a 4x4 two-qubit matrix, got {rho.shape}")
    return rho.reshape(*rho.shape[:-2], 2, 2, 2, 2).swapaxes(-4, -2).reshape(rho.shape)


def hermitian_eigenvalues(h) -> np.ndarray:
    """Real eigenvalues of a hermitian matrix, ascending, or of each matrix in a stack.

    Raises ValueError if an entry is not finite or the input deviates from
    hermiticity by more than ``HERMITIAN_TOL`` in any entry.
    """
    h = _square(h)
    _check_hermitian(h, HERMITIAN_TOL, "input")
    return np.linalg.eigvalsh(h)


def nonneg_spectrum_of_product(m) -> np.ndarray:
    """Spectrum of a 4x4 product matrix that is real and nonnegative by construction.

    Used on rho times its spin-flipped partner, whose eigenvalues are the
    squares of the concurrence ingredients. Imaginary parts within 1e-9 are
    discarded as noise and real parts are clamped to zero from above;
    anything larger raises ValueError. Eigenvalues within the roundoff
    floor of zero are snapped to exactly 0 so that downstream square roots
    do not turn 1e-16 noise into 1e-8 concurrence error. A stack of
    matrices gives one ascending spectrum per matrix, each with its own floor.
    """
    m = _square(m)
    if m.shape[-2:] != (4, 4):
        raise ValueError(f"expected a 4x4 matrix, got {m.shape}")
    ev = np.linalg.eigvals(m)
    imag_dev = float(np.max(np.abs(ev.imag), initial=0.0))
    if imag_dev > _IMAG_NOISE:
        raise ValueError(f"spectrum is not real (max |Im| {imag_dev:.3e}); input is not a valid spin-flip product")
    re = ev.real
    neg_dev = float(re.min(initial=0.0))
    if neg_dev < -_NEG_NOISE:
        raise ValueError(f"spectrum has a negative eigenvalue ({neg_dev:.3e}); input is not a valid spin-flip product")
    floor = _ZERO_FLOOR_ABS + _ZERO_FLOOR_REL * np.maximum(re.max(axis=-1, keepdims=True), 0.0)
    re = np.where(re < floor, 0.0, re)
    return np.sort(re, axis=-1)


def trace_distance(a, b):
    """Half the trace norm of (a - b) for hermitian a, b of equal size, or of each pair of two stacks of one shape.

    A float for two matrices, else a float64 array of the stacks' leading shape
    from one ``eigvalsh``, each value bit for bit the one its pair gives alone.
    """
    a, b = _square(a), _square(b)
    if a.shape != b.shape:
        raise ValueError(f"expected two matrices or stacks of one shape, got {a.shape} and {b.shape}")
    # Accumulated roundoff from long evolutions is tolerated here, hence the
    # looser hermiticity threshold than elsewhere.
    _check_hermitian(a, 1e-10, "first argument")
    _check_hermitian(b, 1e-10, "second argument")
    diff = a - b
    diff = (diff + diff.conj().swapaxes(-1, -2)) / 2.0
    dist = np.sum(np.abs(np.linalg.eigvalsh(diff)), axis=-1) / 2.0
    return dist if dist.ndim else float(dist)


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random unitary via QR of a complex Gaussian matrix."""
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    # fix the phase ambiguity of QR so the distribution is Haar
    d = np.diagonal(r)
    return q * (d / np.abs(d))
