"""Rotation-isotypic structure of operators.

Conjugating by the rotation flow scales the m-th matrix diagonal by
e^{2imt}, so the isotypic decomposition of an operator is exact diagonal
surgery.  On top of that sit the telescoping product identity behind the
one-dimensionality arguments, an affine classifier for step-(-1) families,
and the normalizer defect that certifies membership of conjugates in the
algebra generated by a shift.
"""

from __future__ import annotations

import cmath
from typing import Mapping

from .errors import DefectReport, NumericsError, ParameterError, value_type
from .mobius import GroupPath
from .numkernel import (
    BILATERAL,
    UNILATERAL,
    OperatorMatrix,
    TruncationWindow,
    _interior_bounds,
    _rows,
    _shift_residual,
    np,
)
from .repn import Realization, RepnParams
from .specialfn import principal_re_mu

FIT_T2 = "T2branch"
FIT_T3 = "T3branch"
FIT_NEITHER = "neither"

_BRANCH_TOL = 1e-8
_TIE_TOL = 1e-8

DEFAULT_NORMALIZER_TOL = 1e-6


def isotypic_component(T: OperatorMatrix, m: int) -> np.ndarray:
    """The entries of T on one rotation character, T f_n = a_n f_{n-m}: its
    m-th matrix diagonal (row n - m, column n), as ``np.diagonal`` orders it
    and ``OperatorMatrix.from_band`` reassembles it; empty when |m| >= window
    size."""
    return T.diagonal(m)


def ladder_cancellation(lam: float, mu: complex, m: int, n: int, side: str) -> complex:
    """Three-term product combination that telescopes to 2 m^2 identically.

    ``side`` picks which neighbour recurrence produced the combination:
    "f" eliminates through the raising coefficients, "e" through the lowering
    ones.  The value is independent of lam, mu and n.
    """
    mu = complex(mu)
    if side == "f":
        return (
            -(mu - n) * (lam + mu + n - 1)
            + 2.0 * (mu - n + m) * (lam + mu + n - m - 1)
            - (mu - n + 2 * m) * (lam + mu + n - 2 * m - 1)
        )
    if side == "e":
        return (
            -(lam + mu + n) * (mu - n - 1)
            + 2.0 * (lam + mu + n - m) * (mu - n + m - 1)
            - (lam + mu + n - 2 * m) * (mu - n + 2 * m - 1)
        )
    raise ParameterError(f"side must be 'e' or 'f', got {side!r}")


@value_type
class AminusOneFit:
    """Affine fit a_n (mu - n - 1) = a - b n with its branch verdict."""

    a: complex
    b: complex
    residual: float
    branch: str
    tie: bool = False


def _gaussian(z: complex) -> tuple:
    """The complex float z as a Gaussian rational: the pair of ``fractions.Fraction``
    of its parts, each exact."""
    from fractions import Fraction  # loaded where an exact fit is made, as json where JSON is printed

    return Fraction(z.real), Fraction(z.imag)


def _gaussian_product(z: tuple, w: tuple) -> tuple:
    """The product of two Gaussian rationals, exact."""
    return z[0] * w[0] - z[1] * w[1], z[0] * w[1] + z[1] * w[0]


def classify_a_minus1(a: Mapping[int, complex], p: RepnParams) -> AminusOneFit:
    """Fit a step-(-1) coefficient family and decide which branch it solves.

    Exact families make the affine model exact: constants give
    a = b (mu - 1) (the T2 branch) and the rational family
    a_n = (lam + mu + n)/(n + 1 - mu) gives a = -b (lam + mu) (the T3
    branch).  When both factors vanish the branches coincide, which happens
    exactly at mu = (1 - lam)/2; that case is reported as T2 with a tie flag.
    The least-squares line, its residual and both factors are computed exactly,
    in Gaussian rationals (``_gaussian``) from the floats given, and rounded once,
    so no digit of mu is lost against a large |n|.  A non-finite coefficient or an
    n past +-2**53 (as ``weights`` refuses it) raises ``ParameterError``, and finite
    ones whose fit overflows a double raise ``NumericsError``.
    """
    if p.index_set != BILATERAL:
        raise ParameterError("the affine classifier needs the bilateral index set")
    items = sorted((int(n), complex(v)) for n, v in dict(a).items())
    if len(items) < 3:
        raise ParameterError("need at least 3 coefficients")
    for n, v in items:
        if abs(n) > 2**53:
            raise ParameterError(f"n={n} must lie within +-{2**53}")
        if not cmath.isfinite(v):
            raise ParameterError(f"non-finite coefficient at n={n}")
    # the least-squares line y = a - b n through y_n = a_n (mu - n - 1); 3 or more distinct n give it rank 2
    mu = _gaussian(p.mu)
    ys = [(n, _gaussian_product(_gaussian(v), (mu[0] - n - 1, mu[1]))) for n, v in items]
    k, sx, sxx = len(ys), sum(n for n, _ in ys), sum(n * n for n, _ in ys)
    sy = [sum(y[i] for _, y in ys) for i in (0, 1)]
    sxy = [sum(n * y[i] for n, y in ys) for i in (0, 1)]
    b = [(sx * sy[i] - k * sxy[i]) / (k * sxx - sx * sx) for i in (0, 1)]
    a = [(sy[i] + b[i] * sx) / k for i in (0, 1)]
    # a + b c at c = 1 - mu, T2's factor, and at c = lam + mu, T3's
    lam = _gaussian(p.lam)[0]
    products = _gaussian_product(b, (1 - mu[0], -mu[1])), _gaussian_product(b, (lam + mu[0], mu[1]))
    factors = [(a[0] + bc[0], a[1] + bc[1]) for bc in products]
    residuals = [(y[0] - a[0] + b[0] * n, y[1] - a[1] + b[1] * n) for n, y in ys]
    try:  # a Fraction past the double range raises where it is rounded, as abs of a complex does
        a_fit, b_fit, factor_t2, factor_t3 = (complex(float(z[0]), float(z[1])) for z in (a, b, *factors))
        residual = max(abs(complex(float(re), float(im))) for re, im in residuals)
        scale = max(1.0, abs(a_fit), abs(b_fit))
        hit_t2 = abs(factor_t2) <= _BRANCH_TOL * scale
        hit_t3 = abs(factor_t3) <= _BRANCH_TOL * scale
    except OverflowError:
        raise NumericsError("the affine fit of these coefficients overflows double precision") from None
    if hit_t2 and hit_t3:
        if abs(p.mu - principal_re_mu(p.lam)) <= _TIE_TOL:
            return AminusOneFit(a_fit, b_fit, residual, FIT_T2, tie=True)
        return AminusOneFit(a_fit, b_fit, residual, FIT_NEITHER)
    if hit_t2:
        return AminusOneFit(a_fit, b_fit, residual, FIT_T2)
    if hit_t3:
        return AminusOneFit(a_fit, b_fit, residual, FIT_T3)
    return AminusOneFit(a_fit, b_fit, residual, FIT_NEITHER)


def _best_multiple_residual(block: np.ndarray, ref: np.ndarray | None) -> float:
    """Distance from ``block`` to the nearest multiple of ``ref`` (to 0 without one)."""
    if ref is None:
        return float(np.linalg.norm(block))
    denom = float(np.vdot(ref, ref).real)
    if denom <= 0.0:
        return float(np.linalg.norm(block))
    c = np.vdot(ref, block) / denom
    return float(np.linalg.norm(block - c * ref))


def normalizer_defect(
    T: OperatorMatrix,
    rel: Realization,
    path: GroupPath,
    w: TruncationWindow,
    tolerance: float = DEFAULT_NORMALIZER_TOL,
    context: dict | None = None,
) -> DefectReport:
    """Certify that conjugation by R = R(path) of the family ``rel`` keeps the
    operator inside the algebra the shift generates, with T in the orthonormal
    basis of ``rel``'s generators.

    S = R T R^{-1} must commute with T, and every isotypic component of S
    must be a scalar multiple of the matching power of T.  Components on the
    opposite side of the step direction are held against the powers of T*
    on unilateral windows and against zero on bilateral ones, and for a step
    of 2 or more those off the multiples of the step against zero.  The defect
    adds the interior commutator norm and all the component residuals.
    Components are compared on the interior stretch of their diagonals, for
    as long as that stretch is non-empty; past it every residual is 0.

    R is never built: ``Realization.conjugate`` forms S on the interior P and a halo
    of |m|, clipped to the window, O(|P|^2 n).  [S, T] is ``numkernel._shift_residual``
    of that block; each component is a diagonal of its interior part, held against T^k's
    one diagonal, which one shifted product per k updates: O(N) per k, no window-sized array.
    """
    step, band = T.single_diagonal
    if step == 0:
        raise ParameterError("expected a single-step shift")
    p0, p1 = _interior_bounds(T, w)
    n, halo, size = w.size, abs(step), p1 - p0
    lo, hi = max(p0 - halo, 0), min(p1 + halo, n)
    s = rel.conjugate(T, path, w, lo, hi)
    t = _rows(step, band, n)  # entry n + i is T[i, i + m], 0 off the window
    value = _shift_residual(s, lo, t[n : 2 * n], step, p0, p1)
    inner = slice(p0 - lo, p1 - lo)
    s = s[inner, inner]
    power = _rows(0, np.ones(n, dtype=np.complex128), n)  # diagonal k m of T^k, laid out like t
    for k in range(-(-size // halo)):
        m = step * k
        # diagonal m of the interior block starts on window row p0 + max(-m, 0)
        weights = power[n + p0 + max(-m, 0) :][: size - abs(m)]
        # contiguous copies of the diagonals: vdot sums a strided view in another order
        value += _best_multiple_residual(np.diagonal(s, m).copy(), weights)
        if k > 0:
            adjoint = weights.conj() if w.kind == UNILATERAL else None
            value += _best_multiple_residual(np.diagonal(s, -m).copy(), adjoint)
        # T^{k+1}[i, i + (k + 1) m] = T[i, i + m] T^k[i + m, i + (k + 1) m]
        power[n : 2 * n] = t[n : 2 * n] * power[n + step : 2 * n + step]
    # no power of T or of T* reaches a diagonal off the multiples of the step
    value += sum(_best_multiple_residual(np.diagonal(s, m).copy(), None) for m in range(1 - size, size) if m % step)
    return DefectReport.build("normalizer", value, tolerance, context)
