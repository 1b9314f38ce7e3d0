"""Two-qubit initial states: Bell, Bell-like, product, and Werner families.

Basis ordering is |00>, |01>, |10>, |11> with the first label belonging to
cavity mode 1. Pure states carry four complex amplitudes; mixed states are
validated 4x4 density matrices.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, fields
from typing import Union

import numpy as np

__all__ = [
    "NORM_TOL",
    "PureState2Q",
    "DensityMatrix2Q",
    "BellPsi",
    "BellPhi",
    "BellLike",
    "PlusPlus",
    "Separable",
    "WernerPsi",
    "WernerPhi",
    "WernerLike",
    "CustomPure",
    "CustomMixed",
    "InitialState",
    "bell_psi",
    "bell_phi",
    "bell_like",
    "separable",
    "werner",
    "to_density",
    "initial_density",
    "initial_label",
    "parse_initial",
    "random_pure_state",
    "random_density_matrix",
]

NORM_TOL = 1e-12
_PSD_TOL = -1e-10

_SQRT_HALF = 1.0 / math.sqrt(2.0)


def _norm_sign(sign) -> int:
    if sign in (1, +1, "+", "plus"):
        return +1
    if sign in (-1, "-", "minus"):
        return -1
    raise ValueError(f"sign must be '+' or '-', got {sign!r}")


@dataclass(frozen=True)
class PureState2Q:
    """Normalized pure state with amplitudes c00, c01, c10, c11."""

    c00: complex
    c01: complex
    c10: complex
    c11: complex

    def __post_init__(self):
        for name in ("c00", "c01", "c10", "c11"):
            c = complex(getattr(self, name))
            if not cmath.isfinite(c):
                raise ValueError(f"amplitude {name} must be finite, got {c}")
            object.__setattr__(self, name, c)
        norm = sum(abs(c) ** 2 for c in self.amplitudes())
        if abs(norm - 1.0) > NORM_TOL:
            raise ValueError(f"amplitudes are not normalized (|c|^2 sums to {norm!r})")

    def amplitudes(self) -> np.ndarray:
        return np.array([self.c00, self.c01, self.c10, self.c11], dtype=complex)


def _check_density(m: np.ndarray, stack: bool) -> None:
    """Raise ValueError unless each 4x4 matrix of the (N, 4, 4) array ``m`` is a density matrix.

    Hermitian and of unit trace within 1e-12, no eigenvalue below ``_PSD_TOL``.
    The message is about the first bad state; with ``stack`` it starts with that
    state's index.
    """
    # each comparison is written so that NaN fails it
    herm_dev = np.abs(m - m.conj().swapaxes(-1, -2)).max(axis=(-2, -1), initial=0.0)
    tr = np.trace(m, axis1=-2, axis2=-1)
    good = (herm_dev <= 1e-12) & (np.abs(tr - 1.0) <= 1e-12)
    # eigvalsh only sees the states before the first hermiticity or trace failure
    first = len(m) if good.all() else int(np.argmin(good))
    low = np.linalg.eigvalsh(m[:first]).min(axis=-1, initial=np.inf)
    psd = low >= _PSD_TOL
    if psd.all():
        if first == len(m):
            return
        i = first
        if not herm_dev[i] <= 1e-12:
            if not np.all(np.isfinite(m[i])):
                msg = "density matrix has non-finite entries"
            else:
                msg = f"density matrix is not hermitian (max deviation {float(herm_dev[i]):.3e})"
        else:
            msg = f"density matrix trace is {complex(tr[i])!r}, expected 1"
    else:
        i = int(np.argmin(psd))
        msg = f"density matrix has negative eigenvalue {float(low[i]):.3e}"
    raise ValueError(f"state {i}: {msg}" if stack else msg)


@dataclass(frozen=True)
class DensityMatrix2Q:
    """Validated 4x4 density matrix: hermitian, unit trace, positive semidefinite."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.array(self.matrix, dtype=complex, copy=True)
        if m.shape != (4, 4):
            raise ValueError(f"expected a 4x4 matrix, got shape {m.shape}")
        _check_density(m[np.newaxis], stack=False)
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)

    def __array__(self, dtype=None, copy=None):
        if copy:
            return np.array(self.matrix, dtype=dtype, copy=True)
        return np.asarray(self.matrix, dtype=dtype)


def _as_density(rho) -> DensityMatrix2Q:
    if isinstance(rho, DensityMatrix2Q):
        return rho
    return DensityMatrix2Q(np.asarray(rho))


def _density_stack(states) -> np.ndarray:
    """A read-only copy of an (N, 4, 4) array, each matrix checked as ``DensityMatrix2Q`` checks one.

    A bad state fails with ``DensityMatrix2Q``'s message, prefixed by its index.
    """
    m = np.array(states, dtype=complex, copy=True)
    if m.ndim != 3 or m.shape[1:] != (4, 4):
        raise ValueError(f"expected an (N, 4, 4) stack of matrices, got shape {m.shape}")
    _check_density(m, stack=True)
    m.flags.writeable = False
    return m


# ---------------------------------------------------------------------------
# Initial-state tags. These name the families the evolution engines accept;
# the sign is stored as +1 or -1, and Werner mixing weights live on the tag.


class _Tag:
    """The one ``__post_init__`` of the tags that carry a sign or a mixing weight p."""

    def __post_init__(self):
        if hasattr(self, "sign"):
            object.__setattr__(self, "sign", _norm_sign(self.sign))
        if hasattr(self, "p"):
            _check_weight(self.p)


@dataclass(frozen=True)
class BellPsi(_Tag):
    sign: int = +1


@dataclass(frozen=True)
class BellPhi(_Tag):
    sign: int = +1


@dataclass(frozen=True)
class BellLike:
    pass


@dataclass(frozen=True)
class PlusPlus:
    pass


@dataclass(frozen=True)
class Separable:
    d1: complex
    d2: complex
    d3: complex
    d4: complex

    def __post_init__(self):
        for pair, names in (((self.d1, self.d2), "d1, d2"), ((self.d3, self.d4), "d3, d4")):
            norm = abs(pair[0]) ** 2 + abs(pair[1]) ** 2
            # written so that NaN fails it
            if not abs(norm - 1.0) <= NORM_TOL:
                raise ValueError(f"factor ({names}) is not normalized: |d|^2 sums to {norm!r}")


@dataclass(frozen=True)
class WernerPsi(_Tag):
    p: float
    sign: int = +1


@dataclass(frozen=True)
class WernerPhi(_Tag):
    p: float
    sign: int = +1


@dataclass(frozen=True)
class WernerLike(_Tag):
    p: float


@dataclass(frozen=True)
class CustomPure:
    state: PureState2Q


@dataclass(frozen=True)
class CustomMixed:
    rho: DensityMatrix2Q


InitialState = Union[
    BellPsi, BellPhi, BellLike, PlusPlus, Separable,
    WernerPsi, WernerPhi, WernerLike, CustomPure, CustomMixed,
]

# the family names of the scenario format, each with its tag
_FAMILIES = {
    "bell_psi": BellPsi, "bell_phi": BellPhi, "bell_like": BellLike,
    "plus_plus": PlusPlus, "separable": Separable, "werner_psi": WernerPsi,
    "werner_phi": WernerPhi, "werner_like": WernerLike,
    "custom_pure": CustomPure, "custom_mixed": CustomMixed,
}
_FAMILY_NAMES = {tag: name for name, tag in _FAMILIES.items()}


def _check_weight(p: float) -> None:
    if not (0.0 <= p <= 1.0):
        raise ValueError(f"mixing weight p must lie in [0, 1], got {p}")


# ---------------------------------------------------------------------------
# Constructors.


def bell_psi(sign=+1) -> PureState2Q:
    """(|01> +/- |10>)/sqrt(2), the single-excitation Bell pair."""
    s = _norm_sign(sign)
    return PureState2Q(0.0, _SQRT_HALF, s * _SQRT_HALF, 0.0)


def bell_phi(sign=+1) -> PureState2Q:
    """(|00> +/- |11>)/sqrt(2), the even-parity Bell pair."""
    s = _norm_sign(sign)
    return PureState2Q(_SQRT_HALF, 0.0, 0.0, s * _SQRT_HALF)


def bell_like(sign=None) -> PureState2Q:
    """(|00> + |01> + |10> - |11>)/2, maximally entangled but not a Bell state.

    The sign argument is accepted for interface symmetry and ignored.
    """
    return PureState2Q(0.5, 0.5, 0.5, -0.5)


def separable(d1, d2, d3, d4) -> PureState2Q:
    """Product state (d1|0> + d2|1>) x (d3|0> + d4|1>).

    Each factor must be normalized on its own.
    """
    d1, d2, d3, d4 = complex(d1), complex(d2), complex(d3), complex(d4)
    Separable(d1, d2, d3, d4)  # the tag checks each factor
    return PureState2Q(d1 * d3, d1 * d4, d2 * d3, d2 * d4)


def to_density(psi: PureState2Q) -> DensityMatrix2Q:
    """Rank-one projector onto a pure state."""
    amps = psi.amplitudes()
    return DensityMatrix2Q(np.outer(amps, amps.conj()))


def werner(kind: str, sign=+1, p: float = 1.0) -> DensityMatrix2Q:
    """Werner mixture p |state><state| + (1-p)/4 * identity.

    kind selects the entangled core: "psi" and "phi" take the Bell pair of
    that parity with the given sign, "like" takes the Bell-like state (sign
    ignored).
    """
    _check_weight(p)
    if kind == "psi":
        core = bell_psi(sign)
    elif kind == "phi":
        core = bell_phi(sign)
    elif kind == "like":
        core = bell_like()
    else:
        raise ValueError(f"unknown Werner kind {kind!r}, expected 'psi', 'phi' or 'like'")
    amps = core.amplitudes()
    m = p * np.outer(amps, amps.conj()) + (1.0 - p) / 4.0 * np.eye(4)
    return DensityMatrix2Q(m)


# ---------------------------------------------------------------------------
# Tag dispatch.


def initial_density(initial: InitialState) -> DensityMatrix2Q:
    """Density matrix at t = 0 for any initial-state tag."""
    if isinstance(initial, BellPsi):
        return to_density(bell_psi(initial.sign))
    if isinstance(initial, BellPhi):
        return to_density(bell_phi(initial.sign))
    if isinstance(initial, BellLike):
        return to_density(bell_like())
    if isinstance(initial, PlusPlus):
        return to_density(separable(_SQRT_HALF, _SQRT_HALF, _SQRT_HALF, _SQRT_HALF))
    if isinstance(initial, Separable):
        return to_density(separable(initial.d1, initial.d2, initial.d3, initial.d4))
    if isinstance(initial, WernerPsi):
        return werner("psi", initial.sign, initial.p)
    if isinstance(initial, WernerPhi):
        return werner("phi", initial.sign, initial.p)
    if isinstance(initial, WernerLike):
        return werner("like", p=initial.p)
    if isinstance(initial, CustomPure):
        return to_density(initial.state)
    if isinstance(initial, CustomMixed):
        return initial.rho
    raise ValueError(f"unknown initial state {initial!r}")


def initial_label(initial: InitialState) -> str:
    """Short stable name for an initial-state tag, used in CSV metadata and errors."""
    name = _FAMILY_NAMES.get(type(initial))
    if name is None:
        raise ValueError(f"unknown initial state {initial!r}")
    suffix = {+1: "_plus", -1: "_minus"}.get(getattr(initial, "sign", None), "")
    return name + suffix


def _read(value, name: str, kind: type = float):
    """Read a JSON value as a float, a whole int or a complex number.

    A value that is not one raises ValueError naming the field ``name``. A
    complex number is written as a number or an [re, im] pair. Non-finite
    floats pass; the field's own check names them.
    """
    try:
        if kind is complex and isinstance(value, (list, tuple)) and len(value) == 2:
            return complex(float(value[0]), float(value[1]))
        if kind is complex and not isinstance(value, (int, float)):
            raise TypeError
        out = kind(value)
        if kind is int and isinstance(value, float) and out != value:
            raise ValueError
        return out
    except (TypeError, ValueError, OverflowError):
        what = {float: "a number", int: "a whole number",
                complex: "a complex number, written as a number or [re, im]"}[kind]
        raise ValueError(f"{name} must be {what}, got {value!r}") from None


def _four(value, usage: str):
    if not isinstance(value, (list, tuple)) or len(value) != 4:
        raise ValueError(usage)
    return value


def parse_initial(obj: dict) -> InitialState:
    """Build an initial-state tag from its JSON scenario form.

    The document carries a "family" key naming one of the ten families, plus
    the family's own fields: "sign" for Bell and Werner psi/phi, "p" for the
    Werner mixtures, "d" (four entries) for separable, "amplitudes" for
    custom_pure and "matrix" for custom_mixed. Complex entries are written as
    [re, im] pairs; bare numbers are taken as real.
    """
    if not isinstance(obj, dict):
        raise ValueError(f"initial state must be a JSON object, got {type(obj).__name__}")
    family = obj.get("family")
    tag = _FAMILIES.get(family) if isinstance(family, str) else None
    if tag is None:
        raise ValueError(f"unknown initial-state family {family!r}")
    if tag is Separable:
        d = _four(obj.get("d"), "separable needs 'd': four amplitudes [d1, d2, d3, d4]")
        return Separable(*(_read(v, f"d[{i}]", complex) for i, v in enumerate(d)))
    if tag is CustomPure:
        amps = _four(obj.get("amplitudes"), "custom_pure needs 'amplitudes': four entries")
        return CustomPure(PureState2Q(*(_read(v, f"amplitudes[{i}]", complex)
                                        for i, v in enumerate(amps))))
    if tag is CustomMixed:
        usage = "custom_mixed needs 'matrix': four rows of four entries"
        m = [[_read(v, f"matrix[{i}][{j}]", complex) for j, v in enumerate(_four(row, usage))]
             for i, row in enumerate(_four(obj.get("matrix"), usage))]
        return CustomMixed(DensityMatrix2Q(np.array(m, dtype=complex)))
    names = {f.name for f in fields(tag)}
    kwargs = {"sign": obj.get("sign", "+")} if "sign" in names else {}
    if "p" in names:
        kwargs["p"] = _read(obj.get("p"), "p")
    return tag(**kwargs)


# ---------------------------------------------------------------------------
# Random states for property checks. Deterministic given the generator.


def random_pure_state(rng: np.random.Generator) -> PureState2Q:
    z = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    z /= np.linalg.norm(z)
    return PureState2Q(*z)


def random_density_matrix(rng: np.random.Generator) -> DensityMatrix2Q:
    """Full-rank random state G G^dagger normalized to unit trace."""
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    m = g @ g.conj().T
    return DensityMatrix2Q(m / np.trace(m).real)
