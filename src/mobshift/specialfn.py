"""Basis-norm sequences of the cover representations.

The squared basis norms are gamma ratios
``||f_n||^2 = Gamma(1 - mu + n) / Gamma(lam + conj(mu) + n)`` up to one
constant factor.  Every certificate reads only ratios of norms, so the
sequence, one read-only array, is the product of the two-term ratios, taken from
||f_0|| = 1 both ways: no gamma value is evaluated, and no anchor can overflow.
"""

from __future__ import annotations

import cmath
import math
from typing import TYPE_CHECKING

from .errors import NumericsError, ParameterError, WindowMismatchError
from .numkernel import BILATERAL, TruncationWindow, np

if TYPE_CHECKING:  # pragma: no cover
    from .repn import RepnParams

_IMAG_DISCARD_TOL = 1e-12
_PRINCIPAL_RE_TOL = 1e-12


def _principal_coincidence(params: "RepnParams") -> bool:
    # Re mu = (1 - lam)/2 makes the two gamma arguments coincide identically.
    return (
        params.index_set == BILATERAL
        and abs(complex(params.mu).real - (1.0 - params.lam) / 2.0) <= _PRINCIPAL_RE_TOL
    )


def norm_ratio(params: "RepnParams", n: int) -> float:
    """||f_{n+1}||^2 / ||f_n||^2 = (1 - mu + n) / (lam + conj(mu) + n) at one integer n.

    One division in Python arithmetic.  On the principal coincidence line the
    ratio is 1.  Bilateral mu = 0 is the reducible sum's seam basis: the ratio
    of mu = 1 - lam below n = -1, and 1 at n = -1.  A ratio past the double
    range (1 / lam at n = 0 for a subnormal lam) raises ``NumericsError``.  A
    pole, and a finite ratio that is not a positive real up to a 1e-12 relative
    imaginary residue, put the parameters outside the unitary range, and
    ``ParameterError`` is raised.
    """
    if _principal_coincidence(params):
        return 1.0
    lam, mu = params.lam, params.mu
    if params.index_set == BILATERAL and mu == 0 and n < 0:
        if n == -1:
            return 1.0
        mu = complex(1.0 - lam)
    num, den = n + 1.0 - mu, lam + mu.conjugate() + n  # n + 1 first: exact 0 - mu at n = -1
    if den == 0:  # a pole
        r = complex(math.inf, math.nan)
    elif not cmath.isfinite(r := num / den):
        raise NumericsError(f"norm ratio at n={n:g} = {num} / {den} overflows double precision")
    elif abs(r.imag) <= _IMAG_DISCARD_TOL * max(1.0, abs(r)) and r.real > 0.0:
        return r.real
    raise ParameterError(
        f"norm ratio at n={n:g} = {r} is not a positive real; parameters lie outside the unitary range"
    )


def norm_sq_sequence(params: "RepnParams", w: TruncationWindow) -> np.ndarray:
    """Squared norms ||f_n||^2 over the window, with ||f_0||^2 = 1, as a read-only float64 array.

    Products of ``norm_ratio`` run up from n = 0 and down from it.  The
    principal Gram is exactly I, and at bilateral mu = 0 the chain is cut
    between n = -1 and n = 0 with both sides at 1, so the reducible sum at
    lam = 1 has the Gram I exactly.  A product past the normal double range
    (inf, 0 or a subnormal; each ratio is finite and positive) raises ``NumericsError``.
    """
    if params.index_set != w.kind:
        raise WindowMismatchError(
            f"params index set {params.index_set!r} does not match window kind {w.kind!r}"
        )
    up = [norm_ratio(params, n) for n in range(0, w.hi)]
    down = [norm_ratio(params, n) for n in range(w.lo, 0)]
    # ||f_n||^2 = 1 / (ratio_n ratio_{n+1} ... ratio_{-1}) below n = 0
    with np.errstate(over="ignore", divide="ignore"):
        values = np.concatenate((1.0 / np.cumprod(down[::-1])[::-1], [1.0], np.cumprod(up)))
    lo, hi = values.min(), values.max()
    if not (np.finfo(np.float64).tiny <= lo and hi < math.inf):
        raise NumericsError(f"the squared norms span {lo:.3g} to {hi:.3g}, past the normal double range")
    values.setflags(write=False)
    return values
