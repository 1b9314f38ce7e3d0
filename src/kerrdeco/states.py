"""Two-qubit initial states: Bell, Bell-like, product, and Werner families.

Basis ordering is |00>, |01>, |10>, |11> with the first label belonging to
cavity mode 1. Pure states carry four complex amplitudes; mixed states are
validated 4x4 density matrices.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from . import linalg

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


@dataclass(frozen=True)
class DensityMatrix2Q:
    """Validated 4x4 density matrix: hermitian, unit trace, positive semidefinite."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.array(self.matrix, dtype=complex, copy=True)
        if m.shape != (4, 4):
            raise ValueError(f"expected a 4x4 matrix, got shape {m.shape}")
        # each comparison is written so that NaN fails it
        herm_dev = float(np.max(np.abs(m - m.conj().T)))
        if not herm_dev <= 1e-12:
            if not np.all(np.isfinite(m)):
                raise ValueError("density matrix has non-finite entries")
            raise ValueError(f"density matrix is not hermitian (max deviation {herm_dev:.3e})")
        tr = complex(np.trace(m))
        if not abs(tr - 1.0) <= 1e-12:
            raise ValueError(f"density matrix trace is {tr!r}, expected 1")
        low = float(np.linalg.eigvalsh(m).min())
        if not low >= _PSD_TOL:
            raise ValueError(f"density matrix has negative eigenvalue {low:.3e}")
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)

    def __array__(self, dtype=None, copy=None):
        if copy:
            return np.array(self.matrix, dtype=dtype, copy=True)
        return np.asarray(self.matrix, dtype=dtype)


# ---------------------------------------------------------------------------
# Initial-state tags. These name the families the evolution engines accept;
# the sign is stored as +1 or -1, and Werner mixing weights live on the tag.


@dataclass(frozen=True)
class BellPsi:
    sign: int = +1

    def __post_init__(self):
        object.__setattr__(self, "sign", _norm_sign(self.sign))


@dataclass(frozen=True)
class BellPhi:
    sign: int = +1

    def __post_init__(self):
        object.__setattr__(self, "sign", _norm_sign(self.sign))


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


@dataclass(frozen=True)
class WernerPsi:
    p: float
    sign: int = +1

    def __post_init__(self):
        object.__setattr__(self, "sign", _norm_sign(self.sign))
        _check_weight(self.p)


@dataclass(frozen=True)
class WernerPhi:
    p: float
    sign: int = +1

    def __post_init__(self):
        object.__setattr__(self, "sign", _norm_sign(self.sign))
        _check_weight(self.p)


@dataclass(frozen=True)
class WernerLike:
    p: float

    def __post_init__(self):
        _check_weight(self.p)


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
    for pair, names in (((d1, d2), "d1, d2"), ((d3, d4), "d3, d4")):
        norm = abs(pair[0]) ** 2 + abs(pair[1]) ** 2
        if abs(norm - 1.0) > NORM_TOL:
            raise ValueError(f"factor ({names}) is not normalized: |d|^2 sums to {norm!r}")
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
    sign = getattr(initial, "sign", None)
    suffix = {+1: "_plus", -1: "_minus"}.get(sign, "")
    name = {
        BellPsi: "bell_psi", BellPhi: "bell_phi", BellLike: "bell_like",
        PlusPlus: "plus_plus", Separable: "separable", WernerPsi: "werner_psi",
        WernerPhi: "werner_phi", WernerLike: "werner_like",
        CustomPure: "custom_pure", CustomMixed: "custom_mixed",
    }.get(type(initial))
    if name is None:
        raise ValueError(f"unknown initial state {initial!r}")
    return name + suffix


def _parse_complex(value) -> complex:
    if isinstance(value, (int, float)):
        return complex(value)
    if isinstance(value, (list, tuple)) and len(value) == 2:
        return complex(float(value[0]), float(value[1]))
    raise ValueError(f"cannot read {value!r} as a complex number; use a number or [re, im]")


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
    sign = obj.get("sign", "+")
    if family == "bell_psi":
        return BellPsi(sign)
    if family == "bell_phi":
        return BellPhi(sign)
    if family == "bell_like":
        return BellLike()
    if family == "plus_plus":
        return PlusPlus()
    if family == "separable":
        d = obj.get("d")
        if not isinstance(d, (list, tuple)) or len(d) != 4:
            raise ValueError("separable needs 'd': four amplitudes [d1, d2, d3, d4]")
        return Separable(*(_parse_complex(v) for v in d))
    if family == "werner_psi":
        return WernerPsi(p=float(obj["p"]), sign=sign)
    if family == "werner_phi":
        return WernerPhi(p=float(obj["p"]), sign=sign)
    if family == "werner_like":
        return WernerLike(p=float(obj["p"]))
    if family == "custom_pure":
        amps = obj.get("amplitudes")
        if not isinstance(amps, (list, tuple)) or len(amps) != 4:
            raise ValueError("custom_pure needs 'amplitudes': four entries")
        return CustomPure(PureState2Q(*(_parse_complex(v) for v in amps)))
    if family == "custom_mixed":
        rows = obj.get("matrix")
        if not isinstance(rows, (list, tuple)) or len(rows) != 4:
            raise ValueError("custom_mixed needs 'matrix': four rows of four entries")
        m = np.array([[_parse_complex(v) for v in row] for row in rows], dtype=complex)
        return CustomMixed(DensityMatrix2Q(m))
    raise ValueError(f"unknown initial-state family {family!r}")


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
