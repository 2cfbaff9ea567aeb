"""Defect certificates for conjugation covariance and its infinitesimal forms.

An operator T is homogeneous for a representation R when
``phi_g(T) = R(g)^{-1} T R(g)`` along the cover; ``homogeneity_defect``
certifies it with phi's denominator multiplied out, so it forms no phi(T),
resolvent or inverse.  Differentiating the conjugation flow
kappa(g)T = R(g) T R(g)^{-1} at the identity yields
``kappa(L)T = T^2 - I``, ``kappa(M)T = -i(T^2 + I)``, ``kappa(e)T = -I`` and
``kappa(f)T = T^2`` for such T.  Every certificate here is a named residual
restricted to the window interior; the infinitesimal ones are formed only
there, from bands and interior blocks, and from L's flow alone: M is L
turned a quarter by exp(pi/4 h), and e and f are (L -/+ iM)/2.
``mobius_of_operator``, phi(T) by one guarded solve, serves no certificate.
"""

from __future__ import annotations

import json

import numpy as np

from .errors import ParameterError, value_type
from .mobius import MobiusElement
from .numkernel import (
    BILATERAL,
    OperatorMatrix,
    TruncationWindow,
    _interior_positions,
    _parity_blocks,
    _rows,
    _shift_residual,
    _spectrum,
    _tiles,
    interior_norm,
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


@value_type
class DefectReport:
    """Named residual with its tolerance, verdict, and reproducing context."""

    name: str
    value: float
    tolerance: float
    passed: bool
    context: dict = {}

    @classmethod
    def build(cls, name: str, value: float, tolerance: float, context: dict | None = None) -> "DefectReport":
        value = float(value)
        tolerance = float(tolerance)
        if not value >= 0.0:
            raise ParameterError(f"defect value must be non-negative, got {value}")
        if not 0.0 < tolerance < np.inf:  # an infinite one passes everything and is not JSON
            raise ParameterError(f"tolerance must be positive and finite, got {tolerance}")
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
    context: dict | None = None,
) -> DefectReport:
    """Interior residual of phi_g(T) = R^{-1} T R for a matching (phi, R) pair
    and a shift T, whose nonzero entries lie on one diagonal m.

    The value is the interior Frobenius norm of
    ``alpha R (T - beta I) - T R (I - conj(beta) T)``: the residual
    R phi(T) - T R times the bidiagonal I - conj(beta) T, so no resolvent, no
    inverse of R and no conjugation by the truncated R (which would drag
    boundary error inward) is formed.  A dense R goes to
    ``numkernel._shift_residual`` as the view of its rows and columns on the
    interior and a halo of |m|, clipped to the window: one tile of ``TILE``
    interior columns at a time, O(interior^2), with temporaries of O(N * TILE).
    A banded R (a rotation) stays on band products, O(N): the kernel would
    build its block, 0.6 of a window array at N = 256, pad 96.  Any other T
    raises ``ParameterError``.
    """
    band = T.single_diagonal
    if band is None:
        raise ParameterError("homogeneity is certified for a shift: T needs a single diagonal")
    T._require_compatible(R)
    p = _interior_positions(R, w)
    alpha, beta = phi.alpha, phi.beta
    if R.bands is not None:
        rt = R @ T
        value = interior_norm(alpha * (rt - beta * R) - T @ (R - beta.conjugate() * rt), w)
        return DefectReport.build("homogeneity", value, tolerance, context)
    (m, t), n, p0, p1 = band, w.size, int(p[0]), int(p[-1]) + 1
    # R's rows and columns on the interior and the halo that T's rows i + m and R T's columns j - m reach
    lo, hi = max(p0 - abs(m), 0), min(p1 + abs(m), n)
    value = _shift_residual(R.data[lo:hi, lo:hi], lo, _rows(m, t, n)[n : 2 * n], m, p0, p1, alpha, beta)
    return DefectReport.build("homogeneity", value, tolerance, context)


def _conjugated_block(spec, t: float, band: np.ndarray, m: int, lo: int, hi: int, classes) -> np.ndarray:
    """Rows and columns lo..hi-1 of E T E^H, E = C - iS with C = cos tHr and S = sin tHr
    (``numkernel._parity_blocks`` of ``spec``), for the shift T on diagonal m with
    entries ``band`` in ``np.diagonal`` order, on the entries of the given classes.

    C keeps the parity of a position and S swaps it, so class 0, where i + j + m is
    even, holds C T C + S T S, and class 1, where it is odd, i (C T S - S T C).  The
    block is formed one tile of ``TILE`` of its columns of one parity cp at a time:
    those columns of C and S, T S and T C as a row shift and scaling of them, and
    for class q their products with the block's rows of parity (q + cp + m) % 2 of
    C and S: O(|B|^2 n) per class for B = lo..hi-1, with temporaries of O(N * TILE).
    """
    cos_even, cos_odd, sin_eo = _parity_blocks(spec, t)
    n, r0, c0, k, band = spec.phases.size, max(-m, 0), max(m, 0), band.size, band[:, None]
    # the block's even and odd positions as rows of the parity blocks, and the rows of C
    # and of S that reach the block's rows of each parity
    half = (slice((lo + 1) // 2, (hi + 1) // 2), slice(lo // 2, hi // 2))
    left = ((cos_even[half[0]], sin_eo[half[0]]), (cos_odd[half[1]], sin_eo[:, half[1]].T))
    block = np.zeros((hi - lo, hi - lo), dtype=np.complex128)
    for cp in (0, 1):
        for h0, h1 in _tiles(half[cp].start, half[cp].stop):
            # columns j = 2h + cp: C[:, j] lives on the rows of parity cp, S[:, j] on the others
            c, s = np.zeros((2, n, h1 - h0))
            c[cp::2] = (cos_even, cos_odd)[cp][:, h0:h1]
            s[1 - cp :: 2] = sin_eo[:, h0:h1] if cp else sin_eo[h0:h1].T
            tc, ts = np.zeros((2, n, h1 - h0), dtype=np.complex128)
            np.multiply(band, c[c0 : c0 + k], out=tc[r0 : r0 + k])
            np.multiply(band, s[c0 : c0 + k], out=ts[r0 : r0 + k])
            tc, ts = tc.view(np.float64), ts.view(np.float64)  # complex columns read as real pairs
            cols = slice(2 * h0 + cp - lo, 2 * h1 + cp - lo, 2)
            for q in classes:
                rp = (q + cp + m) % 2  # the parity of the rows that class q reaches from these columns
                # C (T C) + S (T S) for class 0, C (T S) - S (T C) for class 1, the second in place
                out = left[rp][0] @ (ts if q else tc)[rp::2]
                (np.subtract if q else np.add)(out, left[rp][1] @ (tc if q else ts)[1 - rp :: 2], out=out)
                np.multiply(out.view(np.complex128), 1j if q else 1.0, out=block[(rp - lo) % 2 :: 2, cols])
            del c, s, tc, ts, out  # before the next tile's arrays are allocated
    return block


def kappa_flow_derivative(
    T: OperatorMatrix,
    rel: Realization,
    w: TruncationWindow,
    step: float = DEFAULT_FD_STEP,
) -> np.ndarray:
    """Interior block (rows and columns ``w.interior_positions()``) of d/ds at 0 of
    R(exp sL) T R(exp sL)^{-1}, the flow of X = L, by central differences, for a
    shift T on diagonal m; any other T raises ``ParameterError``.

    e^{+-sX} = D (C -/+ i S) D^-1 (see ``numkernel.mat_exp``), so the symmetric part
    of the difference cancels exactly and what remains is i D (C T' S - S T' C) D^-1 / s
    with T' = D^-1 T D: class 1 of ``_conjugated_block`` on the interior, O(|P|^2 n).
    M, e and f are L's flow turned a quarter (see ``infinitesimal_reports``).
    """
    step = float(step)
    if not _STEP_MIN <= step <= _STEP_MAX:
        raise ParameterError(f"step {step} outside [{_STEP_MIN}, {_STEP_MAX}]")
    band = T.single_diagonal
    if band is None:
        raise ParameterError("the flow derivative is taken for a shift: T needs a single diagonal")
    a = rel.generator("L", w)
    T._require_compatible(a)
    p = _interior_positions(T, w)
    spec = _spectrum(a)
    (m, t), d = band, spec.phases
    # T' = D^-1 T D on diagonal m, whose entry k sits at (r0 + k, c0 + k)
    r0, c0, k = max(-m, 0), max(m, 0), t.size
    block = _conjugated_block(spec, step, t / d[r0 : r0 + k] * d[c0 : c0 + k], m, int(p[0]), int(p[-1]) + 1, (1,))
    block *= (1.0 / step) * d[p, None]
    block /= d[None, p]
    return block


def kappa_commutator(T: OperatorMatrix, rel: Realization, w: TruncationWindow) -> tuple[np.ndarray, np.ndarray]:
    """[dR(L), T] for a shift T on diagonal m, the exact derivative of L's conjugation
    flow at s = 0, as its diagonals m - 1 and m + 1 in ``np.diagonal`` order, read from
    the generator's +-1 bands and T's band.  Any other T raises ``ParameterError``."""
    if T.single_diagonal is None:
        raise ParameterError("the commutator route is taken for a shift: T needs a single diagonal")
    # products of bands, O(N): each entry is one product, in the order of the dense L T - T L
    a, m = rel.generator("L", w), T.single_diagonal[0]
    commutator = a @ T - T @ a
    return commutator.diagonal(m - 1), commutator.diagonal(m + 1)


def infinitesimal_reports(
    T: OperatorMatrix,
    rel: Realization,
    w: TruncationWindow,
    step: float = DEFAULT_FD_STEP,
    identity_tol: float = DEFAULT_IDENTITY_TOL,
    context: dict | None = None,
) -> list:
    """Certify the four infinitesimal relations and the route agreement for a shift T.

    T is in the orthonormal basis of ``rel``'s generators, and every relation
    is measured on its interior block.  Identity defects (against T^2 - I,
    -i(T^2 + I), -I, T^2) use the Frobenius norm; the flow-vs-commutator
    route gap is an entrywise maximum against ``DEFAULT_ROUTE_TOL``, since its
    floor is the central-difference bias at the given step.

    Only L's interior flow block and L's commutator are formed.  M is L turned a
    quarter by exp(pi/4 h): dR(M) = Q dR(L) Q^-1 with Q = diag(omega^k), which is
    exp(pi/4 dR(h)) up to a phase, omega = -i (i under the sharp twist).  For a shift
    T on diagonal m (any other T raises ``ParameterError``), Q^-1 T Q = omega^m T, so
    M's flow and commutator are L's with block entry (i, j) scaled by omega^r,
    r = (m + i - j) mod 4, exactly, and e and f are (L -/+ iM)/2 of them: each
    relation scales L's by one constant c(r) per residue class.  So the flow is read
    once.  Its diagonals 2m and 0, which carry the targets, and m -/+ 1, which carry
    the commutator, are copied out and zeroed; the rest gives each class's squared
    norm S_r and largest modulus P_r, over the 16 strided sub-blocks, each in one
    class.  A relation's identity squared is sum_r |c(r)|^2 S_r plus each copied
    diagonal's |c d - target|^2, and its route gap the largest |c(r)| P_r and
    |c| max|d - commutator|, so a NaN anywhere reaches both.
    """
    low, high = kappa_commutator(T, rel, w)  # refuses all but a shift
    m, p = T.single_diagonal[0], _interior_positions(T, w)
    square = (T @ T).diagonal(2 * m)  # T^2's one diagonal
    targets = {"L": (1, -1), "M": (-1j, -1j), "e": (0, -1), "f": (1, 0)}  # X's target a T^2 + b I
    omega = -1j * rel._sign("h")
    turn = np.array([1, omega, -1, -omega])  # omega^r, each a power of i, exact
    scales = {"L": np.ones(4), "M": turn, "e": 0.5 - 0.5j * turn, "f": 0.5 + 0.5j * turn}
    flow = kappa_flow_derivative(T, rel, w, step)  # a fresh block: the suite zeroes its diagonals
    n, p0, diagonals = p.size, int(p[0]), []
    for q in dict.fromkeys((2 * m, 0, m - 1, m + 1)):  # distinct: at m = 0 both targets are on diagonal 0
        k = np.arange(max(-q, 0), min(n, n - q))  # the block's rows on diagonal q
        window = slice(p0, p0 + k.size)  # the window diagonal's entries that they hold
        commutator = low[window] if q == m - 1 else high[window] if q == m + 1 else 0.0
        parts = (square[window] if q == 2 * m else 0.0, 1.0 if q == 0 else 0.0)  # of T^2 and of I
        diagonals.append(((m - q) % 4, flow[k, k + q], commutator, parts))
        flow[k, k + q] = 0.0
    square_norm, largest = np.zeros(4), np.zeros(4)
    for a in range(4):
        for b in range(4):
            part, r = flow[a::4, b::4], (m + a - b) % 4
            square_norm[r] += np.vdot(part, part).real
            largest[r] = np.maximum(largest[r], np.max(np.abs(part), initial=0.0))  # max() would drop a NaN
    reports = []
    for X in KAPPA_GENERATORS:
        (a, b), c = targets[X], scales[X]
        size = np.abs(c)
        identity, gap = size**2 @ square_norm, np.max(size * largest)
        for r, d, commutator, (t2, t0) in diagonals:
            residual = c[r] * d - (a * t2 + b * t0)
            identity += np.vdot(residual, residual).real
            gap = np.maximum(gap, size[r] * np.max(np.abs(d - commutator), initial=0.0))
        ctx = dict(context or {}, generator=X, step=step)
        reports.append(DefectReport.build(f"kappa_{X}_identity", np.sqrt(identity), identity_tol, ctx))
        reports.append(DefectReport.build(f"kappa_{X}_route_gap", gap, DEFAULT_ROUTE_TOL, ctx))
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
