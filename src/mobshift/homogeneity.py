"""Defect certificates for conjugation covariance and its infinitesimal forms.

An operator T is homogeneous for a representation R when
``phi_g(T) = R(g)^{-1} T R(g)`` along the cover; ``homogeneity_defect``
certifies it with phi's denominator multiplied out, so it forms no phi(T),
resolvent or inverse.  Differentiating the conjugation flow
kappa(g)T = R(g) T R(g)^{-1} at the identity yields
``kappa(L)T = T^2 - I``, ``kappa(M)T = -i(T^2 + I)``, ``kappa(e)T = -I`` and
``kappa(f)T = T^2`` for such T.  Every certificate here is a named residual
restricted to the window interior.  ``mobius_of_operator``, phi(T) by one
guarded solve, serves no certificate.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterError
from .mobius import MobiusElement
from .numkernel import (
    BILATERAL,
    OperatorMatrix,
    TruncationWindow,
    _interior_block,
    _interior_positions,
    _parity_blocks,
    _spectrum,
    solve,
)
from .repn import Realization, reducible_generator_matrix
from .shifts import reducible_shift

KAPPA_GENERATORS = ("L", "M", "e", "f")

_STEP_MIN = 1e-6
_STEP_MAX = 1e-2
DEFAULT_FD_STEP = 1e-4

DEFAULT_HOMOGENEITY_TOL = 1e-6
DEFAULT_IDENTITY_TOL = 1e-6
DEFAULT_ROUTE_TOL = 1e-7
DEFAULT_REDUCIBLE_TOL = 1e-9


@dataclass(frozen=True)
class DefectReport:
    """Named residual with its tolerance, verdict, and reproducing context."""

    name: str
    value: float
    tolerance: float
    passed: bool
    context: dict = field(default_factory=dict)

    @classmethod
    def build(cls, name: str, value: float, tolerance: float, context: dict | None = None) -> "DefectReport":
        value = float(value)
        tolerance = float(tolerance)
        if not value >= 0.0:
            raise ParameterError(f"defect value must be non-negative, got {value}")
        if not tolerance > 0.0:
            raise ParameterError(f"tolerance must be positive, got {tolerance}")
        return cls(name, value, tolerance, value <= tolerance, dict(context or {}))

    def to_json(self) -> str:
        payload = {
            "name": self.name,
            "value": self.value,
            "tolerance": self.tolerance,
            "pass": self.passed,
            "context": self.context,
        }
        return json.dumps(payload, sort_keys=True)


def mobius_of_operator(phi: MobiusElement, T: OperatorMatrix) -> OperatorMatrix:
    """phi(T) = alpha (T - beta I)(I - conj(beta) T)^{-1}, by one guarded ``solve``.

    A near-singular I - conj(beta) T means phi is not holomorphic on the
    truncation's numerical spectrum; ``solve`` refuses it.  No certificate
    calls this: ``homogeneity_defect`` multiplies the denominator out.  It
    stays in the package, with ``numkernel.solve``, because the benchmark's
    tracer (``bench/tracer.py``, ``TARGETS``) wraps both by name.
    """
    ident = OperatorMatrix.identity(T.window, T.basis)
    return phi.alpha * solve(ident - phi.beta.conjugate() * T, T - phi.beta * ident)


def homogeneity_defect(
    T: OperatorMatrix,
    R: OperatorMatrix,
    phi: MobiusElement,
    w: TruncationWindow,
    tolerance: float = DEFAULT_HOMOGENEITY_TOL,
    name: str = "homogeneity",
    context: dict | None = None,
) -> DefectReport:
    """Interior residual of phi_g(T) = R^{-1} T R for a matching (phi, R) pair
    and a shift T, whose nonzero entries lie on one diagonal m.

    The value is the interior Frobenius norm of
    ``alpha R (T - beta I) - T R (I - conj(beta) T)``: the residual
    R phi(T) - T R times the bidiagonal I - conj(beta) T, so no resolvent, no
    inverse of R and no conjugation by the truncated R (which would drag
    boundary error inward) is formed.  Each product with T is a row or column
    scaling, so only R's interior block and a halo of |m| indices, clipped to
    the window, are read: O(interior^2) once R exists.  Any other T raises
    ``ParameterError``.
    """
    band = T.single_diagonal
    if band is None:
        raise ParameterError("homogeneity is certified for a shift: T needs a single diagonal")
    T._require_compatible(R)
    p = _interior_positions(R, w)
    m, halo = band[0], abs(band[0])
    lo, hi = max(p[0] - halo, 0), min(p[-1] + 1 + halo, w.size)
    r = R.data[lo:hi, lo:hi]
    # T restricted to [lo, hi): entry k of its diagonal m sits at (r0 + k, c0 + k)
    t = band[1][lo : hi - halo]
    r0, c0, k = max(-m, 0), max(m, 0), t.size
    rt = np.zeros_like(r)
    np.multiply(r[:, r0 : r0 + k], t, out=rt[:, c0 : c0 + k])
    y = r - phi.beta.conjugate() * rt
    residual = phi.alpha * (rt - phi.beta * r)
    residual[r0 : r0 + k] -= t[:, None] * y[c0 : c0 + k]
    inner = slice(p[0] - lo, p[-1] + 1 - lo)
    value = float(np.linalg.norm(residual[inner, inner]))
    return DefectReport.build(name, value, tolerance, context)


def kappa_flow_derivative(
    T: OperatorMatrix,
    X: str,
    rel: Realization,
    w: TruncationWindow,
    step: float = DEFAULT_FD_STEP,
) -> OperatorMatrix:
    """d/ds at 0 of R(exp sX) T R(exp sX)^{-1} by second-order central differences.

    For L and M, e^{+-sX} = D (C -/+ i S) D^-1 with C = cos sHr and S = sin sHr
    (see ``numkernel.mat_exp``), so (e^{sX} T e^{-sX} - e^{-sX} T e^{sX}) / 2s is
    i D (C T' S - S T' C) D^-1 / s with T' = D^-1 T D: one spectrum and one set
    of parity blocks serve both signs of s.  The symmetric part C T' C + S T' S
    cancels exactly, not in rounding, so values differ from the product of the
    four exponentials by that rounding.  For e and f the real-flow derivatives
    combine as (L -/+ iM)/2.  The commutator [dR(X), T] (see
    ``kappa_commutator``) is the algebraic route to the same derivative; the
    two are compared in the verification suites.
    """
    step = float(step)
    if not _STEP_MIN <= step <= _STEP_MAX:
        raise ParameterError(f"step {step} outside [{_STEP_MIN}, {_STEP_MAX}]")

    def fd_real(gen: str) -> OperatorMatrix:
        a = rel.generator(gen, w)
        T._require_compatible(a)
        spec = _spectrum(a)
        cos_even, cos_odd, sin_eo = _parity_blocks(spec, step)
        d = spec.phases
        tp = np.divide(T.data, d[:, None], order="C")  # C order: rows are read as real pairs
        tp *= d
        tp = OperatorMatrix._adopt(tp, a.window, a.basis)

        def times(parity: int, even: np.ndarray, odd: np.ndarray) -> np.ndarray:
            # T' times the real matrix with these blocks in its even and odd rows, through
            # the operator product; read as real pairs, it takes real blocks in real arithmetic
            full = np.zeros(a.data.shape, dtype=np.complex128)
            full.real[0::2, parity::2], full.real[1::2, 1 - parity::2] = even, odd
            return (tp @ OperatorMatrix._adopt(full, a.window, a.basis, None)).data.view(np.float64)

        tc, ts = times(0, cos_even, cos_odd), times(1, sin_eo, sin_eo.T)
        # whole-window arrays are dropped once read: this sets the suite's peak memory
        del tp
        # C (T' S) - S (T' C) by row parity: C keeps the parity of a row, S swaps it
        even = cos_even @ ts[0::2] - sin_eo @ tc[1::2]
        odd = cos_odd @ ts[1::2] - sin_eo.T @ tc[0::2]
        del ts, tc
        k = np.empty(a.data.shape, dtype=np.complex128)
        k.view(np.float64)[0::2], k.view(np.float64)[1::2] = even, odd
        k *= (1j / step) * d[:, None]
        k /= d[None, :]
        return OperatorMatrix._adopt(k, a.window, a.basis, None)

    if X == "L" or X == "M":
        return fd_real(X)
    if X == "e":
        return 0.5 * (fd_real("L") - 1j * fd_real("M"))
    if X == "f":
        return 0.5 * (fd_real("L") + 1j * fd_real("M"))
    raise ParameterError(f"unsupported generator {X!r} (expected L, M, e or f)")


def kappa_commutator(T: OperatorMatrix, X: str, rel: Realization, w: TruncationWindow) -> OperatorMatrix:
    """[dR(X), T]: the exact derivative of the conjugation flow at s = 0."""
    if X not in KAPPA_GENERATORS:
        raise ParameterError(f"unsupported generator {X!r} (expected L, M, e or f)")
    a = rel.generator(X, w)
    return a @ T - T @ a


def infinitesimal_reports(
    T: OperatorMatrix,
    rel: Realization,
    w: TruncationWindow,
    step: float = DEFAULT_FD_STEP,
    identity_tol: float = DEFAULT_IDENTITY_TOL,
    route_tol: float = DEFAULT_ROUTE_TOL,
    context: dict | None = None,
) -> list:
    """Certify the four infinitesimal relations and the route agreement.

    T is in the orthonormal basis of ``rel``'s generators, and every relation
    is measured on its interior block.  Identity defects (against T^2 - I,
    -i(T^2 + I), -I, T^2) use the Frobenius norm; the flow-vs-commutator
    route gap is an entrywise maximum, since its floor is the
    central-difference bias at the given step.  Each relation is measured as
    soon as its operands exist, and the e and f flow blocks follow from the L
    and M ones by linearity, so no whole-window result outlives its use.
    """
    square = _interior_block(T @ T, w)
    ident = np.eye(square.shape[0])
    targets = {"L": square - ident, "M": -1j * (square + ident), "e": -ident, "f": square}
    del ident  # the loop below sets the suite's peak memory
    flow = {}
    reports = []
    for gen in KAPPA_GENERATORS:
        if gen in ("L", "M"):
            fd = flow[gen] = _interior_block(kappa_flow_derivative(T, gen, rel, w, step), w)
        else:
            fd = 0.5 * (flow["L"] + (-1j if gen == "e" else 1j) * flow["M"])
        comm = _interior_block(kappa_commutator(T, gen, rel, w), w)
        ctx = dict(context or {}, generator=gen, step=step)
        identity = float(np.linalg.norm(fd - targets[gen]))
        reports.append(DefectReport.build(f"kappa_{gen}_identity", identity, identity_tol, ctx))
        gap = float(np.max(np.abs(fd - comm)))
        reports.append(DefectReport.build(f"kappa_{gen}_route_gap", gap, route_tol, ctx))
    return reports


def reducible_lambda_check(
    rel: Realization,
    w: TruncationWindow,
    tolerance: float = DEFAULT_REDUCIBLE_TOL,
    context: dict | None = None,
) -> DefectReport:
    """Single-entry witness that the shift of the reducible sum ``rel`` forces lam = 1.

    The (g_1, g_{-1}) entry of [dR(f), T] - T^2 in the monomial seam basis
    equals r (lam - 1) exactly, so the reported value is |r| |lam - 1| up to
    rounding.
    """
    if w.kind != BILATERAL or w.N < 4:
        raise ParameterError("needs a bilateral window with N >= 4")
    T = reducible_shift(rel, w)
    F = reducible_generator_matrix(rel.params, "f", w)
    witness = (F @ T - T @ F) - T @ T
    value = abs(witness.entry(1, -1))
    ctx = dict(context or {})
    ctx.setdefault("lam", rel.params.lam)
    ctx.setdefault("r", [rel.r.real, rel.r.imag])
    return DefectReport.build("reducible_lambda", value, tolerance, ctx)
