"""Two-qubit initial states: Bell, Bell-like, product, and Werner families.

Basis ordering is |00>, |01>, |10>, |11> with the first label belonging to
cavity mode 1. Pure states carry four complex amplitudes; ``DensityMatrix2Q``
holds one validated 4x4 density matrix or a (..., 4, 4) stack of them.
"""

from __future__ import annotations

import cmath
import math
import operator
from dataclasses import dataclass, fields
from typing import Optional, Union

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
    "to_density",
    "initial_density",
    "initial_densities",
    "initial_label",
    "parse_initial",
    "random_pure_state",
    "random_density_matrix",
]

NORM_TOL = 1e-12
_PSD_TOL = -1e-10

_SQRT_HALF = 1.0 / math.sqrt(2.0)
_UPPER = np.triu_indices(4)
# states per block of ``_check_density``: the hermiticity gathers, the shifted copy and the
# factor of one block, 80 to 128 KiB each, are all the check holds beside the stack
_CHOLESKY_BLOCK = 512


def _norm_sign(sign) -> int:
    if sign in (1, "+", "plus") and not isinstance(sign, bool):  # True == 1
        return +1
    if sign in (-1, "-", "minus"):
        return -1
    raise ValueError(f"sign must be '+' or '-', got {sign!r}")


def _check_norm(amplitudes, what: str) -> None:
    """The one norm rule: a ValueError starting with ``what`` unless the squared moduli sum to 1 within ``NORM_TOL``.
    Each is ``abs(c) * abs(c)``, inf past the float range, so the sum is a plain float; NaN fails the comparison."""
    norm = 0.0
    for c in amplitudes:
        try:
            m = abs(complex(c))
        except OverflowError:  # a modulus, or an int, past the float range
            m = math.inf
        norm += m * m
    if not abs(norm - 1.0) <= NORM_TOL:
        raise ValueError(f"{what} not normalized: |c|^2 sums to {norm!r}")


@dataclass(frozen=True)
class PureState2Q:
    """Normalized pure state with finite amplitudes c00, c01, c10, c11; the norm rule is ``_check_norm``."""

    c00: complex
    c01: complex
    c10: complex
    c11: complex

    def __post_init__(self):
        for name in ("c00", "c01", "c10", "c11"):
            _check_finite(getattr(self, name), f"amplitude {name}", cmath.isfinite)
            object.__setattr__(self, name, complex(getattr(self, name)))
        _check_norm((self.c00, self.c01, self.c10, self.c11), "amplitudes (c00, c01, c10, c11) are")

    def amplitudes(self) -> np.ndarray:
        return np.array([self.c00, self.c01, self.c10, self.c11], dtype=complex)


def _check_density(m: np.ndarray, stack: tuple) -> None:
    """Raise ValueError unless each 4x4 matrix of the (K, 4, 4) array ``m`` is a density matrix.

    Hermitian and of unit trace within 1e-12, no eigenvalue below ``_PSD_TOL``,
    all three checked ``_CHOLESKY_BLOCK`` states at a time. Positivity is first
    tried by a Cholesky factorization of ``m - _PSD_TOL * I``; if every block
    factors, every state passes. Else ``eigvalsh`` decides for every state,
    from the first block on, and names the first below the bound.
    Both read the lower triangle. A factorization can succeed on a matrix whose
    least eigenvalue lies within roundoff (about 1e-15) below ``_PSD_TOL``, so
    such a matrix may be accepted; every other verdict is ``eigvalsh``'s.
    The message is about the first bad state; for a stack of shape ``stack``
    (empty for one matrix) it starts with that state's index, a tuple if need be.
    """
    shift = -_PSD_TOL * np.eye(4)
    factor, k = True, 0
    while k < len(m):
        block = m[k:k + _CHOLESKY_BLOCK]
        # each comparison is written so that NaN fails it
        # over the 10 pairs (i, j), i <= j: |m_ji - conj(m_ij)| equals |m_ij - conj(m_ji)|
        upper, lower = block[:, _UPPER[0], _UPPER[1]], block[:, _UPPER[1], _UPPER[0]]
        with np.errstate(invalid="ignore"):  # an infinite entry gives NaN here, which fails as non-finite below
            herm_dev = np.abs(upper - lower.conj()).max(axis=-1, initial=0.0)
            tr = np.trace(block, axis1=-2, axis2=-1)
        good = (herm_dev <= 1e-12) & (np.abs(tr - 1.0) <= 1e-12)
        # positivity is only checked on the states before the first hermiticity or trace failure
        i = len(block) if good.all() else int(np.argmin(good))
        psd = np.ones(i, dtype=bool)
        if factor and i:
            try:  # the whole block: a failure anywhere in it hands positivity to eigvalsh
                np.linalg.cholesky(block + shift)
            except np.linalg.LinAlgError:
                factor, k = False, 0  # eigvalsh then decides for every state, from the first block on
                continue
        elif not factor:
            low = np.linalg.eigvalsh(block[:i]).min(axis=-1, initial=np.inf)
            psd = low >= _PSD_TOL
        if not psd.all():
            i = int(np.argmin(psd))
            msg = f"density matrix has negative eigenvalue {float(low[i]):.3e}"
        elif i == len(block):
            k += _CHOLESKY_BLOCK
            continue
        elif not herm_dev[i] <= 1e-12:
            msg = ("density matrix has non-finite entries" if not np.all(np.isfinite(block[i]))
                   else f"density matrix is not hermitian (max deviation {float(herm_dev[i]):.3e})")
        else:
            msg = f"density matrix trace is {complex(tr[i])!r}, expected 1"
        where = k + i if len(stack) <= 1 else tuple(int(j) for j in np.unravel_index(k + i, stack))
        raise ValueError(f"state {where}: {msg}" if stack else msg)


@dataclass(frozen=True)
class DensityMatrix2Q:
    """Validated 4x4 density matrix, or (..., 4, 4) stack of them: hermitian, unit trace, positive semidefinite.

    ``matrix`` is a read-only complex copy, checked once, here; a bad matrix
    of a stack is named by its index, a tuple for a stack of more than one
    axis such as (B, N, 4, 4). Its users take it as checked.
    """

    matrix: np.ndarray

    def __post_init__(self):
        try:
            m = np.array(self.matrix, dtype=complex)
        except (TypeError, ValueError) as exc:  # a ragged sequence, or entries that are not numbers
            raise ValueError(f"expected a 4x4 matrix, an (N, 4, 4) stack or any (..., 4, 4) stack: {exc}") from None
        if m.ndim < 2 or m.shape[-2:] != (4, 4):
            raise ValueError(f"expected a 4x4 matrix, an (N, 4, 4) stack or any (..., 4, 4) stack, got shape {m.shape}")
        _check_density(m.reshape(-1, 4, 4), m.shape[:-2])
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)

    def __array__(self, dtype=None, copy=None):
        return np.array(self.matrix, dtype=dtype, copy=copy)


def _as_density(rho) -> DensityMatrix2Q:
    """``rho`` as a ``DensityMatrix2Q``, checked unless it is one; an empty list is the empty stack."""
    if isinstance(rho, DensityMatrix2Q):
        return rho
    if isinstance(rho, (list, tuple)) and not rho:
        return DensityMatrix2Q(np.empty((0, 4, 4)))
    return DensityMatrix2Q(rho)


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
    """Product state (d1|0> + d2|1>) x (d3|0> + d4|1>); each factor must be normalized on its own (``_check_norm``)."""

    d1: complex
    d2: complex
    d3: complex
    d4: complex

    def __post_init__(self):
        _check_norm((self.d1, self.d2), "factor (d1, d2) is")
        _check_norm((self.d3, self.d4), "factor (d3, d4) is")


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

    def __post_init__(self):
        if self.rho.matrix.ndim != 2:
            raise ValueError(f"custom_mixed needs one 4x4 density matrix, got shape {self.rho.matrix.shape}")


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
# the scenario keys of the families whose tag fields are not their keys
_JSON_KEYS = {Separable: {"d"}, CustomPure: {"amplitudes"}, CustomMixed: {"matrix"}}


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


def bell_like() -> PureState2Q:
    """(|00> + |01> + |10> - |11>)/2, maximally entangled but not a Bell state."""
    return PureState2Q(0.5, 0.5, 0.5, -0.5)


def separable(d1, d2, d3, d4) -> PureState2Q:
    """Product state (d1|0> + d2|1>) x (d3|0> + d4|1>); ``Separable`` checks each factor."""
    d1, d2, d3, d4 = complex(d1), complex(d2), complex(d3), complex(d4)
    Separable(d1, d2, d3, d4)
    return PureState2Q(d1 * d3, d1 * d4, d2 * d3, d2 * d4)


def to_density(psi: PureState2Q) -> DensityMatrix2Q:
    """Rank-one projector onto a pure state."""
    amps = psi.amplitudes()
    return DensityMatrix2Q(np.outer(amps, amps.conj()))


# ---------------------------------------------------------------------------
# Tag dispatch.

# The pure core of each named family. A Werner tag mixes its core with white
# noise, p |core><core| + (1 - p)/4 * identity, and a Bell tag is its Werner tag
# at p = 1. The closed forms of ``evolution`` read the same table.
_CORES = {
    BellPsi: bell_psi, WernerPsi: bell_psi, BellPhi: bell_phi, WernerPhi: bell_phi,
    BellLike: bell_like, WernerLike: bell_like,
    PlusPlus: lambda: separable(_SQRT_HALF, _SQRT_HALF, _SQRT_HALF, _SQRT_HALF),
}


def initial_density(initial: InitialState) -> DensityMatrix2Q:
    """Density matrix at t = 0 for any initial-state tag."""
    if isinstance(initial, CustomMixed):
        return initial.rho  # checked when the tag was made
    return DensityMatrix2Q(_initial_matrix(initial))


def initial_densities(initials) -> DensityMatrix2Q:
    """The (B, 4, 4) stack of the t = 0 densities of B tags, checked once, as one stack.

    A ``CustomMixed`` matrix, checked when its tag was made, is checked again
    with the stack; every other state is checked only here.
    """
    return DensityMatrix2Q(np.array([_initial_matrix(i) for i in initials], dtype=complex).reshape(-1, 4, 4))


def _core(initial: InitialState) -> PureState2Q:
    """The pure state of a tag other than ``CustomMixed``; for a Werner tag, the core it mixes."""
    make = _CORES.get(type(initial))
    if make is not None:
        return make(initial.sign) if hasattr(initial, "sign") else make()
    if isinstance(initial, Separable):
        return separable(initial.d1, initial.d2, initial.d3, initial.d4)
    if isinstance(initial, CustomPure):
        return initial.state
    raise ValueError(f"unknown initial state {initial!r}")


def _initial_matrix(initial: InitialState) -> np.ndarray:
    """The unchecked t = 0 matrix of a tag, for a state or stack that is then checked once.

    Only a Werner tag is mixed: the other tags keep the bare projector, whose
    -0.0 entries adding 0 * identity would turn into +0.0.
    """
    if isinstance(initial, CustomMixed):
        return initial.rho.matrix
    amps = _core(initial).amplitudes()
    rho = np.outer(amps, amps.conj())
    if not hasattr(initial, "p"):
        return rho
    return initial.p * rho + (1.0 - initial.p) / 4.0 * np.eye(4)


def initial_label(initial: InitialState) -> str:
    """Short stable name for an initial-state tag, used in CSV metadata and errors."""
    name = _FAMILY_NAMES.get(type(initial))
    if name is None:
        raise ValueError(f"unknown initial state {initial!r}")
    suffix = {+1: "_plus", -1: "_minus"}.get(getattr(initial, "sign", None), "")
    return name + suffix


def _read(value, name: str, kind: type = float):
    """Read a JSON value as a float, a whole int or a complex number.

    A value that is not one, a JSON ``true``/``false`` included, raises
    ValueError naming the field ``name``. A complex number is written as a
    number or an [re, im] pair. Non-finite floats pass; the field's own
    check names them.
    """
    try:
        pair = kind is complex and isinstance(value, (list, tuple)) and len(value) == 2
        if any(isinstance(v, bool) for v in (value if pair else [value])):
            raise TypeError
        if pair:
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


def _check_finite(value, name: str, isfinite=math.isfinite) -> None:
    """The one rule of a number field: a ValueError naming ``name`` unless ``value`` is finite, also for an int past the
    float range, on which ``isfinite`` raises OverflowError. A complex field passes ``cmath.isfinite``."""
    try:
        finite = isfinite(value)
    except OverflowError:
        raise ValueError(f"{name} must be finite, got an int past the float range") from None
    if not finite:
        raise ValueError(f"{name} must be finite, got {value}")


def _check_whole(value, name: str, least: int) -> None:
    """Raise ValueError naming ``name`` unless ``value`` is a non-bool integer (``operator.index``) >= ``least``."""
    try:
        if isinstance(value, bool):
            raise TypeError
        operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be a whole number, got {value!r}") from None
    if value < least:
        raise ValueError(f"{name} must be at least {least}, got {value}")


def _four(value, usage: str):
    if not isinstance(value, (list, tuple)) or len(value) != 4:
        raise ValueError(usage)
    return value


def parse_initial(obj: dict) -> InitialState:
    """Build an initial-state tag from its JSON scenario form.

    The document carries a "family" key naming one of the ten families, plus
    the family's own fields: "sign" for Bell and Werner psi/phi, "p" for the
    Werner mixtures, "d" (four entries) for separable, "amplitudes" for
    custom_pure and "matrix" for custom_mixed; any other key raises ValueError.
    Complex entries are written as [re, im] pairs; bare numbers are taken as real.
    """
    if not isinstance(obj, dict):
        raise ValueError(f"initial state must be a JSON object, got {type(obj).__name__}")
    family = obj.get("family")
    tag = _FAMILIES.get(family) if isinstance(family, str) else None
    if tag is None:
        raise ValueError(f"unknown initial-state family {family!r}")
    keys = _JSON_KEYS.get(tag, {f.name for f in fields(tag)})
    unknown = set(obj) - keys - {"family"}
    if unknown:
        raise ValueError(f"unknown initial keys for family {family}: {sorted(unknown)}")
    if tag is Separable:
        d = _four(obj.get("d"), "separable needs 'd': four amplitudes [d1, d2, d3, d4]")
        return Separable(*(_read(v, f"d[{i}]", complex) for i, v in enumerate(d)))
    if tag is CustomPure:
        amps = _four(obj.get("amplitudes"), "custom_pure needs 'amplitudes': four entries")
        return CustomPure(PureState2Q(*(_read(v, f"amplitudes[{i}]", complex)
                                        for i, v in enumerate(amps))))
    if tag is CustomMixed:
        usage = "custom_mixed needs 'matrix': four rows of four entries"
        m = np.array([[_read(v, f"matrix[{i}][{j}]", complex) for j, v in enumerate(_four(row, usage))]
                      for i, row in enumerate(_four(obj.get("matrix"), usage))], dtype=complex)
        for (i, j), v in np.ndenumerate(m):
            _check_finite(v, f"matrix[{i}][{j}]", cmath.isfinite)
        return CustomMixed(DensityMatrix2Q(m))
    kwargs = {"sign": obj.get("sign", "+")} if "sign" in keys else {}
    if "p" in keys:
        kwargs["p"] = _read(obj.get("p"), "p")
    return tag(**kwargs)


# ---------------------------------------------------------------------------
# Random states for property checks. Deterministic given the generator. Each draw takes its
# real parts and then its imaginary parts from the stream, so a stack of ``count`` draws is one
# ``standard_normal`` call that equals ``count`` single draws bit for bit.


def random_pure_state(rng: np.random.Generator) -> PureState2Q:
    return PureState2Q(*_random_amplitudes(rng))


def _random_amplitudes(rng: np.random.Generator, count: Optional[int] = None) -> np.ndarray:
    """The draw of ``random_pure_state``: normalized amplitudes c00, c01, c10, c11, shape (4,), or (count, 4)."""
    x = rng.standard_normal((*(() if count is None else (count,)), 2, 4))
    z = x[..., 0, :] + 1j * x[..., 1, :]
    re, im = z.real[..., np.newaxis, :], z.imag[..., np.newaxis, :]
    # per row the two dot products that np.linalg.norm forms for one vector
    norm = np.sqrt(re @ re.swapaxes(-1, -2) + im @ im.swapaxes(-1, -2))[..., 0]
    return z / norm


def random_density_matrix(rng: np.random.Generator) -> DensityMatrix2Q:
    """Full-rank random state G G^dagger normalized to unit trace."""
    return DensityMatrix2Q(_random_density(rng))


def _random_density(rng: np.random.Generator, count: Optional[int] = None) -> np.ndarray:
    """The draw of ``random_density_matrix``, unvalidated: one (4, 4) matrix, or a (count, 4, 4) stack to be
    checked once."""
    x = rng.standard_normal((*(() if count is None else (count,)), 2, 4, 4))
    g = x[..., 0, :, :] + 1j * x[..., 1, :, :]
    m = g @ g.conj().swapaxes(-1, -2)
    return m / np.trace(m, axis1=-2, axis2=-1).real[..., np.newaxis, np.newaxis]
