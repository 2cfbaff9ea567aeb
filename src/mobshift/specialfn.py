"""Basis-norm sequences of the cover representations.

The squared basis norms are gamma ratios
``||f_n||^2 = Gamma(1 - mu + n) / Gamma(lam + conj(mu) + n)`` up to one
constant factor.  Every certificate reads only ratios of norms, so the
sequence is the product of the two-term ratios, taken from ||f_0|| = 1 in
both directions: no gamma value is evaluated, and no anchor can overflow.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from .errors import ParameterRangeError, WindowMismatchError, value_type
from .numkernel import BILATERAL, TruncationWindow

if TYPE_CHECKING:  # pragma: no cover
    from .repn import RepnParams

_IMAG_DISCARD_TOL = 1e-12
_PRINCIPAL_RE_TOL = 1e-12


@value_type(eq=False)
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


def _ratios(lam: float, mu: complex, n) -> np.ndarray:
    with np.errstate(all="ignore"):
        r = (1.0 - mu + n) / (lam + mu.conjugate() + n)
        bad = ~(np.abs(r.imag) <= _IMAG_DISCARD_TOL * np.maximum(1.0, np.abs(r))) | ~(r.real > 0.0)
    if bad.any():
        raise ParameterRangeError(
            f"norm ratio at n={np.asarray(n)[bad].flat[0]:g} = {complex(r[bad].flat[0])} is not a positive real; "
            "parameters lie outside the unitary range"
        )
    return r.real


def norm_ratio(params: "RepnParams", n):
    """||f_{n+1}||^2 / ||f_n||^2 = (1 - mu + n) / (lam + conj(mu) + n), elementwise in n.

    Each ratio must be a positive real up to a 1e-12 relative imaginary
    residue; otherwise the parameters are outside the unitary range and
    ``ParameterRangeError`` is raised.
    """
    r = _ratios(params.lam, complex(params.mu), np.asarray(n, dtype=np.float64))
    return r if r.ndim else float(r)


def _principal_coincidence(params: "RepnParams") -> bool:
    # Re mu = (1 - lam)/2 makes the two gamma arguments coincide identically.
    return (
        params.index_set == BILATERAL
        and abs(complex(params.mu).real - (1.0 - params.lam) / 2.0) <= _PRINCIPAL_RE_TOL
    )


def norm_sq_sequence(params: "RepnParams", w: TruncationWindow) -> NormSequence:
    """Squared norms ||f_n||^2 over the window, with ||f_0||^2 = 1.

    Products of ``norm_ratio`` run up from n = 0 and down from it.  The
    principal coincidence Re mu = (1 - lam)/2 yields the constant sequence 1
    exactly.  Bilateral mu = 0 is the reducible direct-sum point: its seam
    basis g_n carries the norms of mu = 1 - lam below the seam and of mu = 0
    from n = 0 up, and the chain is cut between n = -1 and n = 0 with both
    sides at 1, so the sum at lam = 1 has the Gram I exactly.
    """
    if params.index_set != w.kind:
        raise WindowMismatchError(
            f"params index set {params.index_set!r} does not match window kind {w.kind!r}"
        )
    if _principal_coincidence(params):
        return NormSequence(w, np.ones(w.size))
    n = w.indices()
    up = norm_ratio(params, n[(n >= 0) & (n < w.hi)])
    below = n[n < 0]
    if params.index_set == BILATERAL and params.mu == 0:
        down = np.append(_ratios(params.lam, complex(1.0 - params.lam), below[:-1]), 1.0)
    else:
        down = norm_ratio(params, below)
    # ||f_n||^2 = 1 / (ratio_n ratio_{n+1} ... ratio_{-1}) below n = 0
    values = np.concatenate((1.0 / np.cumprod(down[::-1])[::-1], [1.0], np.cumprod(up)))
    return NormSequence(w, values)
