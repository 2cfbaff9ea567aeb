"""Weighted shift operators: the canonical homogeneous families and their
weight sequences.

A step-m shift maps f_n to a_n f_{n-m}; in the orthonormal basis
x_n = f_n / ||f_n|| (``repn.Realization.orthonormal``) its coefficients
pick up the norm ratio, which is where the tabulated weight sequences come
from.  A family is named here by its ``repn.Realization`` alone, never by series.
"""

from __future__ import annotations

import math

from .errors import ParameterError
from .numkernel import BILATERAL, UNILATERAL, OperatorMatrix, TruncationWindow
from .repn import Realization, RepnParams
from .specialfn import norm_ratio

#: each canonical shift's step m and coefficient a_n(params, n): it maps f_n to a_n f_{n-m}
_SHIFTS = {
    "T1": (-1, lambda p, n: 1.0),
    # the Gram adjoint of T1: <f_{n-1}, T1star f_n> = <T1 f_{n-1}, f_n> = ||f_n||^2 = ratio_{n-1} ||f_{n-1}||^2
    "T1star": (+1, lambda p, n: norm_ratio(p, n - 1)),
    "T2": (-1, lambda p, n: 1.0),
    "T3": (-1, lambda p, n: (p.lam + p.mu + n) / (n + 1.0 - p.mu)),
}
SHIFT_KINDS = tuple(_SHIFTS)
BRANCH_T2 = "T2"
BRANCH_T3 = "T3"

_POLE_TOL = 1e-12


def canonical_shift(kind: str, p: RepnParams, w: TruncationWindow) -> OperatorMatrix:
    """One of the four canonical homogeneous shifts, in the monomial basis.

    T1 f_n = f_{n+1} and its Gram adjoint T1star f_n = ratio_{n-1} f_{n-1}
    (``specialfn.norm_ratio``, n / (lam + n - 1)) live on unilateral windows;
    T2 f_n = f_{n+1} and T3 f_n = ((lam + mu + n) / (n + 1 - mu)) f_{n+1} on
    bilateral ones.
    """
    if kind not in SHIFT_KINDS:
        raise ParameterError(f"unknown shift kind {kind!r}")
    w.require(p.index_set)
    if kind in ("T1", "T1star"):
        if p.index_set != UNILATERAL or p.lam <= 0.0:
            raise ParameterError(f"{kind} belongs to the unilateral holomorphic family (lam > 0)")
    elif p.index_set != BILATERAL:
        raise ParameterError(f"{kind} belongs to the bilateral families")
    elif kind == "T3" and p.mu.imag == 0.0 and float(p.mu.real).is_integer():
        raise ParameterError("T3 needs non-integer mu (pole at n + 1 - mu = 0)")
    step, coefficient = _SHIFTS[kind]
    # the band's columns: n from which f_{n-step} lies in the window
    columns = range(w.lo + max(step, 0), w.hi + 1 + min(step, 0))
    return OperatorMatrix.from_band(w, step, [coefficient(p, n) for n in columns])


def weight_sequence(rel: Realization, n: int, branch: str = BRANCH_T2) -> complex:
    """One weight of the canonical orthonormal-basis shift of the family ``rel``:
    a_n sqrt(``specialfn.norm_ratio``) at n, the coefficient and the ratio that
    the shift and the Gram map over a window, so a weight refuses what they do.
    No array is formed.  The realization picks the shift: the reducible sum's
    ``reducible_shift`` (sqrt((1 + n)/(lam + n)), and r at n = -1), the sharp
    twist's T1star on n <= 0 (built on f_{-n}), and for a plain family T1 on
    n >= 0 (unilateral) or the T2 or the complex T3 branch (bilateral).
    """
    p = rel.params
    if rel.flavor == "reducible":
        return complex(_reducible_coefficient(rel, n) * math.sqrt(norm_ratio(p, n)))
    if rel.flavor == "sharp":
        if n > 0:
            raise ParameterError("anti-holomorphic weights live on n <= 0")
        # the backward shift annihilates its top basis vector; below it, weight n is the holomorphic -n - 1
        return complex(math.sqrt(norm_ratio(p, -n - 1))) if n else 0j
    if p.index_set == UNILATERAL:
        if n < 0:
            raise ParameterError("holomorphic weights live on n >= 0")
        shift = "T1"
    elif branch in (BRANCH_T2, BRANCH_T3):
        shift = branch
    else:
        raise ParameterError(f"unknown branch {branch!r}")
    return complex(_SHIFTS[shift][1](p, n) * math.sqrt(norm_ratio(p, n)))


def _reducible_coefficient(rel: Realization, n: int) -> complex:
    """a_n of ``reducible_shift``: (1 + n)/(lam + n) below the seam, r at n = -1, 1 above."""
    if n > -1:
        return 1.0
    if n == -1:
        return rel.r
    lam = rel.params.lam
    if abs(lam + n) < _POLE_TOL:
        raise ParameterError(f"coefficient pole at n={n} for lam={lam}")
    return (1.0 + n) / (lam + n)


def reducible_coefficients(rel: Realization, w: TruncationWindow) -> list:
    """``reducible_shift``'s a_n over its columns n = lo..hi-1 of w, as Python numbers: a
    pole anywhere in the window, another flavor than the reducible sum and another window
    than a bilateral one are refused, so whatever reads them refuses what the shift does."""
    if rel.flavor != "reducible":
        raise ParameterError(f"the reducible shift needs the reducible sum, not a {rel.flavor!r} realization")
    w.require(BILATERAL)
    return [_reducible_coefficient(rel, n) for n in range(w.lo, w.hi)]


def reducible_shift(rel: Realization, w: TruncationWindow) -> OperatorMatrix:
    """Step-(-1) shift in the seam basis g_n of the reducible sum ``rel``: g_n to a_n g_{n+1},
    a_n (1 + n)/(lam + n) below the seam, the coupling r at n = -1, and 1 above
    (``reducible_coefficients``).
    """
    return OperatorMatrix.from_band(w, -1, reducible_coefficients(rel, w))
