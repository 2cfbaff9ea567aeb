"""Complex gamma evaluation and the basis-norm sequences built from it.

The squared basis norms are gamma ratios
``||f_n||^2 = Gamma(1 - mu + n) / Gamma(lam + conj(mu) + n)``; they are
anchored at n = 0 and extended by the two-term ratio so bilateral windows
never touch gamma near its poles.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import NumericsError, ParameterRangeError, PoleError, WindowMismatchError
from .numkernel import BILATERAL, TruncationWindow

if TYPE_CHECKING:  # pragma: no cover
    from .repn import RepnParams

# Lanczos kernel, g = 7, nine terms; ~1e-13 relative accuracy on the moderate
# argument range this package needs.
_LANCZOS_G = 7.0
_LANCZOS_C = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)

_IMAG_DISCARD_TOL = 1e-12
_PRINCIPAL_RE_TOL = 1e-12


def complex_gamma(z: complex) -> complex:
    """Gamma(z) via the Lanczos kernel for Re z >= 0.5, reflection elsewhere.

    Non-positive integers are poles and raise ``PoleError``.
    """
    z = complex(z)
    if z.imag == 0.0 and z.real <= 0.0 and float(z.real).is_integer():
        raise PoleError(f"gamma pole at {z}")
    if z.real < 0.5:
        return math.pi / (cmath.sin(math.pi * z) * complex_gamma(1.0 - z))
    zz = z - 1.0
    x = _LANCZOS_C[0]
    for k in range(1, len(_LANCZOS_C)):
        x += _LANCZOS_C[k] / (zz + k)
    t = zz + _LANCZOS_G + 0.5
    return math.sqrt(2.0 * math.pi) * t ** (zz + 0.5) * cmath.exp(-t) * x


@dataclass(frozen=True, eq=False)
class NormSequence:
    """Squared basis norms over a window; strictly positive by construction."""

    window: TruncationWindow
    values: np.ndarray

    def __post_init__(self):
        vals = np.array(self.values, dtype=np.float64)
        if vals.shape != (self.window.size,):
            raise WindowMismatchError("norm sequence length does not match window size")
        if not (np.isfinite(vals).all() and (vals > 0.0).all()):
            raise ParameterRangeError("norm sequence must be strictly positive and finite")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    def value(self, n: int) -> float:
        return float(self.values[self.window.pos(n)])


def _positive_real(value: complex, what: str) -> float:
    value = complex(value)
    if abs(value.imag) > _IMAG_DISCARD_TOL * max(1.0, abs(value)) or value.real <= 0.0:
        raise ParameterRangeError(
            f"{what} = {value} is not a positive real; parameters lie outside the unitary range"
        )
    return value.real


def norm_ratio(params: "RepnParams", n: int) -> float:
    """||f_{n+1}||^2 / ||f_n||^2 = (1 - mu + n) / (lam + conj(mu) + n)."""
    mu = complex(params.mu)
    r = (1.0 - mu + n) / (params.lam + mu.conjugate() + n)
    return _positive_real(r, f"norm ratio at n={n}")


def _principal_coincidence(params: "RepnParams") -> bool:
    # Re mu = (1 - lam)/2 makes the two gamma arguments coincide identically.
    return (
        params.index_set == BILATERAL
        and abs(complex(params.mu).real - (1.0 - params.lam) / 2.0) <= _PRINCIPAL_RE_TOL
    )


def norm_sq_sequence(params: "RepnParams", w: TruncationWindow) -> NormSequence:
    """Squared norms ||f_n||^2 over the window.

    Anchored at ``||f_0||^2 = Gamma(1 - mu)/Gamma(lam + conj(mu))`` and
    propagated by the two-term ratio in both directions.  Each ratio must be a
    positive real up to a 1e-12 relative imaginary residue, otherwise the
    parameters are outside the unitary range and ``ParameterRangeError`` is
    raised.  The principal coincidence Re mu = (1 - lam)/2 yields the constant
    sequence 1 exactly.  An anchor whose gamma overflows double precision
    (the Lanczos power does from lam of about 143) raises ``NumericsError``.
    """
    if params.index_set != w.kind:
        raise WindowMismatchError(
            f"params index set {params.index_set!r} does not match window kind {w.kind!r}"
        )
    if _principal_coincidence(params):
        return NormSequence(w, np.ones(w.size))
    mu = complex(params.mu)
    try:
        anchor = complex_gamma(1.0 - mu) / complex_gamma(params.lam + mu.conjugate())
    except OverflowError as exc:
        raise NumericsError(f"gamma overflows double precision in the norm anchor (lam={params.lam:g})") from exc
    values = np.empty(w.size, dtype=np.float64)
    values[w.pos(0)] = _positive_real(anchor, "norm anchor at n=0")
    for n in range(1, w.hi + 1):
        values[w.pos(n)] = values[w.pos(n - 1)] * norm_ratio(params, n - 1)
    for n in range(-1, w.lo - 1, -1):
        values[w.pos(n)] = values[w.pos(n + 1)] / norm_ratio(params, n)
    return NormSequence(w, values)
