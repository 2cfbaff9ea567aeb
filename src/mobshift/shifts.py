"""Weighted shift operators: the canonical homogeneous families and their
weight sequences.

A step-m shift maps f_n to a_n f_{n-m}; in the orthonormal basis
x_n = f_n / ||f_n|| (``repn.to_orthonormal``) its coefficients pick up the
norm ratio, which is where the tabulated weight sequences come from.
"""

from __future__ import annotations

import math

from .errors import ParameterError, PoleError, WindowMismatchError
from .numkernel import (
    BILATERAL,
    UNILATERAL,
    OperatorMatrix,
    TruncationWindow,
    np,
)
from .repn import (
    ANTIHOLO,
    COMPLEMENTARY,
    HOLO,
    PRINCIPAL,
    REDUCIBLE,
    Realization,
    RepnParams,
)
from .specialfn import positive_ratio, real_norm_ratio

SHIFT_KINDS = ("T1", "T1star", "T2", "T3")
BRANCH_T2 = "T2"
BRANCH_T3 = "T3"

_POLE_TOL = 1e-12


def canonical_shift(kind: str, p: RepnParams, w: TruncationWindow) -> OperatorMatrix:
    """One of the four canonical homogeneous shifts, in the monomial basis.

    T1 f_n = f_{n+1} and its adjoint T1star f_n = (n / (lam + n - 1)) f_{n-1}
    live on unilateral windows; T2 f_n = f_{n+1} and
    T3 f_n = ((lam + mu + n) / (n + 1 - mu)) f_{n+1} on bilateral ones.
    """
    if kind not in SHIFT_KINDS:
        raise ParameterError(f"unknown shift kind {kind!r}")
    if w.kind != p.index_set:
        raise WindowMismatchError("window kind does not match params index set")
    lam, mu = p.lam, p.mu
    n = w.indices()
    if kind in ("T1", "T1star"):
        if p.index_set != UNILATERAL or lam <= 0.0:
            raise ParameterError(f"{kind} belongs to the unilateral holomorphic family (lam > 0)")
        if kind == "T1":
            return OperatorMatrix.from_band(w, -1, np.ones(w.size - 1))
        n = n[1:]
        return OperatorMatrix.from_band(w, +1, n / (lam + n - 1.0))
    if p.index_set != BILATERAL:
        raise ParameterError(f"{kind} belongs to the bilateral families")
    if kind == "T2":
        return OperatorMatrix.from_band(w, -1, np.ones(w.size - 1))
    if mu.imag == 0.0 and float(mu.real).is_integer():
        raise PoleError("T3 needs non-integer mu (pole at n + 1 - mu = 0)")
    n = n[:-1]
    return OperatorMatrix.from_band(w, -1, (lam + mu + n) / (n + 1.0 - mu))


def weight_sequence(kind: str, rel: Realization, n: int, branch: str = BRANCH_T2) -> complex:
    """One weight of the canonical orthonormal-basis shift of the family ``rel``
    of series ``kind``: sqrt(``specialfn.real_norm_ratio``) for the holomorphic,
    anti-holomorphic and complementary families, the Gram's norm ratio in Python
    floats, which refuses what the Gram does.  No array is formed.

    Index domains: n >= 0 for the holomorphic family, n <= 0 for the
    anti-holomorphic one (built on f_{-n}), all of Z otherwise.  The principal
    family has both a T2 branch (weights 1) and a complex T3 branch; the
    complementary family is tabulated on its T2 branch only.  The reducible
    sum's weights are those of ``reducible_shift`` in the orthonormal seam
    basis: sqrt((1 + n)/(lam + n)), refused as the Gram's ratio is when it is
    not finite and positive, and the coupling r at n = -1.
    """
    p = rel.params
    if kind == HOLO:
        if n < 0:
            raise ParameterError("holomorphic weights live on n >= 0")
        return complex(math.sqrt(real_norm_ratio(p, n)))
    if kind == ANTIHOLO:
        if n > 0:
            raise ParameterError("anti-holomorphic weights live on n <= 0")
        # the backward shift annihilates its top basis vector; below it, weight n is the holomorphic -n - 1
        return complex(math.sqrt(real_norm_ratio(p, -n - 1))) if n else 0j
    if kind == PRINCIPAL:
        if branch == BRANCH_T2:
            return 1.0 + 0j
        if branch == BRANCH_T3:
            mu = p.mu
            return (p.lam + mu + n) / (n + 1.0 - mu)
        raise ParameterError(f"unknown branch {branch!r}")
    if kind == COMPLEMENTARY:
        if branch != BRANCH_T2:
            raise ParameterError("only the T2 branch is tabulated for the complementary family")
        return complex(math.sqrt(real_norm_ratio(p, n)))
    if kind == REDUCIBLE:
        if n == -1:
            return rel.r
        # lam + n is not 0: lam lies in (0, 2), so it is 1 only where n = -1 reads r
        return complex(math.sqrt(positive_ratio(n, (1.0 + n) / (p.lam + n))))
    raise ParameterError(f"unknown series kind {kind!r}")


def reducible_shift(rel: Realization, w: TruncationWindow) -> OperatorMatrix:
    """Step-(-1) shift in the seam basis g_n of the reducible sum ``rel``.

    Coefficients are (1 + n)/(lam + n) below the seam, the coupling r at
    n = -1, and 1 above.
    """
    if rel.flavor != "reducible":
        raise ParameterError(f"the reducible shift needs the reducible sum, not a {rel.flavor!r} realization")
    if w.kind != BILATERAL:
        raise WindowMismatchError("the reducible shift lives on a bilateral window")
    n = w.indices()[:-1]
    below = n < -1
    lam = rel.params.lam
    den = lam + n[below]
    pole = np.abs(den) < _POLE_TOL
    if pole.any():
        raise PoleError(f"coefficient pole at n={n[below][pole][0]} for lam={lam}")
    diagonal = np.ones(n.size, dtype=np.complex128)
    diagonal[below] = (1.0 + n[below]) / den
    diagonal[n == -1] = rel.r
    return OperatorMatrix.from_band(w, -1, diagonal)
