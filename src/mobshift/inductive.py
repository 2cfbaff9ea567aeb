"""Rotation-isotypic structure of operators.

Conjugating by the rotation flow scales the m-th matrix diagonal by
e^{2imt}, so the isotypic decomposition of an operator is exact diagonal
surgery.  On top of that sit the commutator coefficient maps for step shifts,
the telescoping product identity behind the one-dimensionality arguments, an
affine classifier for step-(-1) families, and the normalizer defect that
certifies membership of conjugates in the algebra generated by a shift.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .errors import ParameterError
from .homogeneity import DefectReport
from .mobius import GroupPath
from .numkernel import (
    BILATERAL,
    UNILATERAL,
    OperatorMatrix,
    TruncationWindow,
    interior_norm,
)
from .repn import Realization, RepnParams

FIT_T2 = "T2branch"
FIT_T3 = "T3branch"
FIT_NEITHER = "neither"

_BRANCH_TOL = 1e-8
_TIE_TOL = 1e-8

DEFAULT_NORMALIZER_TOL = 1e-6
DEFAULT_FLIP_TOL = 1e-12


def isotypic_component(T: OperatorMatrix, m: int) -> np.ndarray:
    """The entries of T on one rotation character, T f_n = a_n f_{n-m}: its
    m-th matrix diagonal (row n - m, column n), as ``np.diagonal`` orders it
    and ``OperatorMatrix.from_band`` reassembles it; empty when |m| >= window
    size."""
    return np.diagonal(T.data, m)


def te_tf_coefficients(a: Mapping[int, complex], m: int, p: RepnParams, w: TruncationWindow):
    """Coefficient sequences of the commutators with the lowering and raising
    generators, for a step-m shift T f_n = a_n f_{n-m}.

    Returns (te, tf) keyed by the source index n:
    [dR(e), T] f_n = te_n f_{n-m-1} with te_n = (mu - n + m) a_n - (mu - n) a_{n-1},
    [dR(f), T] f_n = tf_n f_{n-m+1} with tf_n = (lam + mu + n - m) a_n - (lam + mu + n) a_{n+1}.
    Neighbours missing at a window or index-set edge contribute zero, which
    reproduces both the genuine degenerate cases and the truncated matrices.
    """
    seq = {int(n): complex(v) for n, v in dict(a).items()}
    lam, mu = p.lam, p.mu
    te: dict[int, complex] = {}
    tf: dict[int, complex] = {}
    for n in w.indices():
        n = int(n)
        if w.contains(n - m - 1):
            te[n] = (mu - n + m) * seq.get(n, 0.0) - (mu - n) * seq.get(n - 1, 0.0)
        if w.contains(n - m + 1):
            tf[n] = (lam + mu + n - m) * seq.get(n, 0.0) - (lam + mu + n) * seq.get(n + 1, 0.0)
    return te, tf


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


@dataclass(frozen=True)
class AminusOneFit:
    """Affine fit a_n (mu - n - 1) = a - b n with its branch verdict."""

    a: complex
    b: complex
    residual: float
    branch: str
    tie: bool = False


def classify_a_minus1(a: Mapping[int, complex], p: RepnParams) -> AminusOneFit:
    """Fit a step-(-1) coefficient family and decide which branch it solves.

    Exact families make the affine model exact: constants give
    a = b (mu - 1) (the T2 branch) and the rational family
    a_n = (lam + mu + n)/(n + 1 - mu) gives a = -b (lam + mu) (the T3
    branch).  When both factors vanish the branches coincide, which happens
    exactly at mu = (1 - lam)/2; that case is reported as T2 with a tie flag.
    A non-finite coefficient raises ``ParameterError``.
    """
    if p.index_set != BILATERAL:
        raise ParameterError("the affine classifier needs the bilateral index set")
    items = sorted((int(n), complex(v)) for n, v in dict(a).items())
    if len(items) < 3:
        raise ParameterError("need at least 3 coefficients")
    ns = np.array([n for n, _ in items], dtype=np.float64)
    vals = np.array([v for _, v in items], dtype=np.complex128)
    finite = np.isfinite(vals)
    if not finite.all():
        raise ParameterError(f"non-finite coefficient at n={int(ns[~finite][0])}")
    y = vals * (p.mu - ns - 1.0)
    design = np.column_stack([np.ones_like(ns), -ns]).astype(np.complex128)
    sol, _, rank, _ = np.linalg.lstsq(design, y, rcond=None)
    if rank < 2:
        raise ParameterError("fit matrix is rank-deficient")
    a_fit, b_fit = complex(sol[0]), complex(sol[1])
    residual = float(np.max(np.abs(y - design @ sol)))
    scale = max(1.0, abs(a_fit), abs(b_fit))
    factor_t2 = a_fit + b_fit * (1.0 - p.mu)
    factor_t3 = a_fit + b_fit * (p.lam + p.mu)
    hit_t2 = abs(factor_t2) <= _BRANCH_TOL * scale
    hit_t3 = abs(factor_t3) <= _BRANCH_TOL * scale
    if hit_t2 and hit_t3:
        if abs(p.mu - (1.0 - p.lam) / 2.0) <= _TIE_TOL:
            return AminusOneFit(a_fit, b_fit, residual, FIT_T2, tie=True)
        return AminusOneFit(a_fit, b_fit, residual, FIT_NEITHER)
    if hit_t2:
        return AminusOneFit(a_fit, b_fit, residual, FIT_T2)
    if hit_t3:
        return AminusOneFit(a_fit, b_fit, residual, FIT_T3)
    return AminusOneFit(a_fit, b_fit, residual, FIT_NEITHER)


def _single_step(T: OperatorMatrix) -> int:
    band = T.single_diagonal
    if band is None or band[0] == 0:
        raise ParameterError("expected a single-step shift")
    return band[0]


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
    R: OperatorMatrix,
    w: TruncationWindow,
    tolerance: float = DEFAULT_NORMALIZER_TOL,
    context: dict | None = None,
) -> DefectReport:
    """Certify that conjugation keeps the operator inside the algebra the
    shift generates, with T and R in an orthonormal basis.

    S = R T R^{-1} must commute with T, and every isotypic component of S
    must be a scalar multiple of the matching power of T.  Components on the
    opposite side of the step direction are held against the powers of T*
    on unilateral windows and against zero on bilateral ones.  The defect
    adds the interior commutator norm and all the component residuals.

    A step-s shift has one diagonal t, so T^k has one diagonal, with weights
    P_k = P_{k-1}[:L] * t[|s|(k-1) : |s|(k-1) + L] and L = size - |s| k;
    the diagonal of T* on the opposite side is conj(t).
    Components are compared on the interior stretch of their diagonals, for
    as long as that stretch is non-empty; past it every residual is 0.

    R must be unitary, as ``Realization.along_path`` builds it (a product of
    exponentials of skew-Hermitian generators), so S = (R T) R^H: one dense
    product, with no inverse, solve or condition estimate.  Every product
    with T is a row or column scaling, so the rest costs O(N^2).
    """
    step = _single_step(T)
    s = abs(step)
    S = (R @ T) @ R.H
    value = interior_norm(S @ T - T @ S, w)
    interior = w.size - 2 * w.padding
    t = np.diagonal(T.data, step)
    adj = t.conj() if w.kind == UNILATERAL else None
    power = adj_power = np.ones(w.size, dtype=np.complex128)
    for k in range(-(-interior // s)):
        if k > 0:
            length = w.size - s * k
            lo = s * (k - 1)
            power = power[:length] * t[lo : lo + length]
            if adj is not None:
                adj_power = adj_power[:length] * adj[lo : lo + length]
        span = slice(w.padding, w.padding + interior - s * k)
        value += _best_multiple_residual(isotypic_component(S, step * k)[span], power[span])
        if k > 0:
            opposite = isotypic_component(S, -step * k)[span]
            value += _best_multiple_residual(opposite, adj_power[span] if adj is not None else None)
    return DefectReport.build("normalizer", value, tolerance, context)


def sharp_isotypic_flip(
    T: OperatorMatrix,
    m: int,
    p: RepnParams | None = None,
    angle: float = 0.2,
    tolerance: float = DEFAULT_FLIP_TOL,
    context: dict | None = None,
) -> DefectReport:
    """Entrywise check that the sharp twist swaps rotation characters m and -m.

    T is in the orthonormal basis of p, where the rotation flows are built.
    Conjugating by the plain rotation flow at angle t scales the m-th
    diagonal by e^{+2imt}; by the sharp-twisted flow, by e^{-2imt}.  The
    reported value is the larger of the two entrywise errors.
    """
    w = T.window
    if p is None:
        if w.kind == UNILATERAL:
            p = RepnParams(UNILATERAL, 1.0)
        else:
            p = RepnParams(BILATERAL, 0.3, 0.35 + 0j)
    forward = GroupPath((("h", angle),))
    backward = GroupPath((("h", -angle),))
    plain, sharp = (rel.along_path(forward, w) @ T @ rel.along_path(backward, w)
                    for rel in (Realization.plain(p), Realization.sharp(p)))
    base = isotypic_component(T, m)
    err_plain = isotypic_component(plain, m) - cmath.exp(2j * m * angle) * base
    err_sharp = isotypic_component(sharp, m) - cmath.exp(-2j * m * angle) * base
    value = np.abs(np.concatenate((err_plain, err_sharp))).max(initial=0.0)
    ctx = dict(context or {})
    ctx.setdefault("m", int(m))
    ctx.setdefault("angle", float(angle))
    return DefectReport.build("sharp_isotypic_flip", value, tolerance, ctx)
