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

from .errors import DefectReport, ParameterError
from .mobius import MobiusElement
from .numkernel import (
    BILATERAL,
    OperatorMatrix,
    TruncationWindow,
    _conjugated_block,
    _interior_bounds,
    _rows,
    _shift_residual,
    np,
    solve,
)
from .repn import Realization, _reducible_raising
from .shifts import reducible_coefficients

KAPPA_GENERATORS = ("L", "M", "e", "f")

_STEP_MIN = 1e-6
_STEP_MAX = 1e-2
DEFAULT_FD_STEP = 1e-4

DEFAULT_HOMOGENEITY_TOL = 1e-6
DEFAULT_IDENTITY_TOL = 1e-6
DEFAULT_ROUTE_TOL = 1e-7
DEFAULT_REDUCIBLE_TOL = 1e-9


def mobius_of_operator(phi: MobiusElement, T: OperatorMatrix) -> OperatorMatrix:
    """phi(T) = alpha (T - beta I)(I - conj(beta) T)^{-1}, by one guarded ``solve``.

    A near-singular I - conj(beta) T means phi is not holomorphic on the
    truncation's numerical spectrum; ``solve`` refuses it.  No certificate
    calls this: ``homogeneity_defect`` multiplies the denominator out.  It
    stays in the package, with ``numkernel.solve``, because the benchmark's
    tracer (``bench/tracer.py``, ``TARGETS``) wraps both by name.
    """
    ident = OperatorMatrix.identity(T.window, T.basis)
    return solve(ident - phi.beta.conjugate() * T, phi.alpha * (T - phi.beta * ident))


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
    boundary error inward) is formed.  R goes to ``numkernel._shift_residual``
    as its block (``R.block``) of rows and columns on the interior and a halo
    of |m|, clipped to the window: one tile of ``TILE`` interior columns at a
    time, O(interior^2), with temporaries of O(N * TILE).
    """
    (m, t), n = T.single_diagonal, w.size
    T._require_compatible(R)
    p0, p1 = _interior_bounds(R, w)
    # R's rows and columns on the interior and the halo that T's rows i + m and R T's columns j - m reach
    lo, hi = max(p0 - abs(m), 0), min(p1 + abs(m), n)
    value = _shift_residual(R.block(lo, hi), lo, _rows(m, t, n)[n : 2 * n], m, p0, p1, phi.alpha, phi.beta)
    return DefectReport.build("homogeneity", value, tolerance, context)


def kappa_flow_derivative(T: OperatorMatrix, rel: Realization, w: TruncationWindow, step: float = DEFAULT_FD_STEP) -> np.ndarray:
    """Interior block (rows and columns ``w.interior_positions()``) of d/ds at 0 of
    R(exp sL) T R(exp sL)^{-1}, the flow of X = L, by central differences, for a
    shift T on diagonal m.

    e^{+-sX} = D (C -/+ i S) D^-1, so class 0 cancels exactly, and the difference is class 1
    of R T R^-1 for R = e^{sX} (``numkernel._conjugated_block``) over s, O(|P|^2 n).  M, e
    and f are L's flow turned a quarter (see ``infinitesimal_reports``).
    """
    step = float(step)
    if not _STEP_MIN <= step <= _STEP_MAX:
        raise ParameterError(f"step {step} outside [{_STEP_MIN}, {_STEP_MAX}]")
    a = rel.generator("L", w)
    T._require_compatible(a)
    block = _conjugated_block(a, step, T, *_interior_bounds(T, w), (1,))
    block /= step
    return block


def kappa_commutator(T: OperatorMatrix, rel: Realization, w: TruncationWindow) -> tuple[np.ndarray, np.ndarray]:
    """[dR(L), T] for a shift T on diagonal m, the exact derivative of L's conjugation
    flow at s = 0, as its diagonals m - 1 and m + 1 in ``np.diagonal`` order: band
    products, O(N)."""
    m = T.single_diagonal[0]
    a = rel.generator("L", w)
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

    Only L's interior flow block and L's commutator are formed, each from its own O(N)
    build of L's generator; the flow's spectrum is cached on content.  M is L turned a quarter by exp(pi/4 h): dR(M) = Q dR(L) Q^-1 with
    Q = diag(omega^k), which is exp(pi/4 dR(h)) up to a phase, omega = -i (i under the
    sharp twist).  For a shift T on diagonal m,
    Q^-1 T Q = omega^m T, so M's flow and commutator are L's with block entry (i, j)
    scaled by omega^r, r = (m + i - j) mod 4, exactly, and e and f are (L -/+ iM)/2 of
    them: each relation scales L's by one constant c(r) per residue class.  So the flow is read
    once.  Its diagonals 2m and 0, which carry the targets, and m -/+ 1, which carry
    the commutator, are copied out and zeroed; the rest gives each class's squared
    norm S_r and largest modulus P_r, over the 16 strided sub-blocks, each in one
    class.  A relation's identity squared is sum_r |c(r)|^2 S_r plus each copied
    diagonal's |c d - target|^2, and its route gap the largest |c(r)| P_r and
    |c| max|d - commutator|, so a NaN anywhere reaches both.
    """
    low, high = kappa_commutator(T, rel, w)  # refuses all but a shift
    m, (p0, p1) = T.single_diagonal[0], _interior_bounds(T, w)
    square = (T @ T).diagonal(2 * m)  # T^2's one diagonal
    targets = {"L": (1, -1), "M": (-1j, -1j), "e": (0, -1), "f": (1, 0)}  # X's target a T^2 + b I
    omega = -1j * rel._sign("h")
    turn = np.array([1, omega, -1, -omega])  # omega^r, each a power of i, exact
    scales = {"L": np.ones(4), "M": turn, "e": 0.5 - 0.5j * turn, "f": 0.5 + 0.5j * turn}
    flow = kappa_flow_derivative(T, rel, w, step)  # a fresh block: the suite zeroes its diagonals
    n, diagonals = p1 - p0, []
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
    rounding.  It is read from the seam row, from the coefficients that the
    builders map over the window: T's a_n (``shifts.reducible_coefficients``,
    so a pole anywhere in the window is refused as ``reducible_shift``
    refuses it) and dR(f)'s raising coefficient at n = 0 and -1
    (``repn._reducible_raising``).  The entry is
    dR(f)[1, 0] a_{-1} - a_0 dR(f)[0, -1] - a_0 a_{-1}, in complex Python
    arithmetic and in the band products' order, so it is the float those
    products give, and no array is formed: numpy is not loaded.
    """
    if w.kind != BILATERAL or w.N < 4:
        raise ParameterError("needs a bilateral window with N >= 4")
    a = reducible_coefficients(rel, w)  # a_n at list position n - w.lo
    a0, a1 = complex(a[-w.lo]), complex(a[-w.lo - 1])
    f0, f1 = (complex(_reducible_raising(rel.params, n)) for n in (0, -1))
    # (F T - T F) - T T at (1, -1): each product has one term there, F[1, 0] T[0, -1] and so on
    value = abs((f0 * a1 - a0 * f1) - a0 * a1)
    ctx = dict(context or {})
    ctx.setdefault("lam", rel.params.lam)
    ctx.setdefault("r", [rel.r.real, rel.r.imag])
    return DefectReport.build("reducible_lambda", value, tolerance, ctx)
