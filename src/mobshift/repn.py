"""Series taxonomy and finite matrix realizations of the cover representations.

On monomials ``f_n(z) = z^n`` the representation acts by

    (R(g)F)(z) = (phi'_{g^{-1}}(z))^{lam/2} |phi'_{g^{-1}}(z)|^mu F(phi_{g^{-1}}(z)),

which differentiates to the generator actions

    dR(h) f_n = -i (2n + lam) f_n,
    dR(e) f_n = (mu - n) f_{n-1},
    dR(f) f_n = (lam + mu + n) f_{n+1},

with L = e + f and M = i(e - f).  The module realizes R two independent
ways -- exponentials of truncated generator matrices along flow paths, and
direct evaluation on the unit circle followed by Fourier extraction -- so the
two routes can cross-check each other away from the truncation boundary.
Both return R in the orthonormal basis x_n = f_n / ||f_n||, where no verdict
depends on the scale of the Gram: the exponential route builds each generator
there from the monomial matrix and the norm ratios, the circle route scales
its monomial table by the norms.  ``generator_matrix`` and
``reducible_generator_matrix`` stay the monomial action; ``to_orthonormal``
brings a monomial operator to the basis of R.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

from . import mobius
from .errors import (
    ClassificationError,
    GridSizeError,
    NumericsError,
    ParameterError,
    WindowMismatchError,
)
from .mobius import GroupPath, MobiusElement
from .numkernel import (
    BILATERAL,
    GENERATOR_CACHE_SIZE,
    MONOMIAL,
    ORTHONORMAL,
    UNILATERAL,
    OperatorMatrix,
    TruncationWindow,
    _interior_positions,
    _require_power_of_two,
    mat_exp,
)
from .specialfn import _PRINCIPAL_RE_TOL, norm_sq_sequence

HOLO = "holo"
ANTIHOLO = "antiholo"
PRINCIPAL = "principal"
COMPLEMENTARY = "complementary"
REDUCIBLE = "reducible"

_COUPLING_BOUND = 10.0
_NYQUIST_TAIL_TOL = 1e-9
_NEGATIVE_INDEX_TOL = 1e-10
_ORACLE_BETA_CAP = 0.3
_CIRCLE_BLOCK = 32


@dataclass(frozen=True)
class RepnParams:
    """(index set, lam, mu) naming one representation of the cover.

    Unilateral families fix mu = 0.
    """

    index_set: str
    lam: float
    mu: complex = 0j

    def __post_init__(self):
        if self.index_set not in (UNILATERAL, BILATERAL):
            raise ParameterError(f"unknown index set {self.index_set!r}")
        object.__setattr__(self, "lam", float(self.lam))
        object.__setattr__(self, "mu", complex(self.mu))
        if not (math.isfinite(self.lam) and cmath.isfinite(self.mu)):
            raise ParameterError(f"lam and mu must be finite, got lam={self.lam}, mu={self.mu}")
        if self.index_set == UNILATERAL and self.mu != 0:
            raise ParameterError("unilateral families require mu = 0")


def classify_series(p: RepnParams) -> str:
    """Sort parameters into the unitary series taxonomy, rejecting the rest.

    Unilateral with lam > 0 is the holomorphic family.  Bilateral splits into
    principal (Re mu = (1 - lam)/2 with lam in (-1, 1]) and complementary
    (mu real in (0, 1) and (-lam, 1 - lam), lam in (-1, 1)); an integer mu is
    the reducible direct-sum point and is rejected here.  The
    anti-holomorphic family is reached through the sharp twist of a
    holomorphic one, never by classification.  Returns the series kind.
    """
    if p.index_set == UNILATERAL:
        if p.lam <= 0.0:
            raise ClassificationError("the holomorphic family requires lam > 0")
        return HOLO
    mu = p.mu
    if mu.imag == 0.0 and float(mu.real).is_integer():
        raise ClassificationError(
            "bilateral families require non-integer mu (integer mu is the reducible direct-sum point)"
        )
    if abs(mu.real - (1.0 - p.lam) / 2.0) <= _PRINCIPAL_RE_TOL:
        if not -1.0 < p.lam <= 1.0:
            raise ClassificationError("the principal family requires lam in (-1, 1]")
        return PRINCIPAL
    if mu.imag == 0.0:
        lo, hi = complementary_mu_interval(p.lam)
        if not lo < mu.real < hi:
            raise ClassificationError(
                "the complementary family requires mu in (0, 1) intersected with (-lam, 1 - lam)"
            )
        return COMPLEMENTARY
    raise ClassificationError(
        "bilateral parameters match neither the principal nor the complementary family"
    )


def complementary_mu_interval(lam: float) -> tuple[float, float]:
    """The complementary family's mu interval (0, 1) intersected with
    (-lam, 1 - lam); it is non-empty exactly for lam in (-1, 1), and any other
    lam raises ``ClassificationError``."""
    if not -1.0 < lam < 1.0:
        raise ClassificationError("the complementary family requires lam in (-1, 1)")
    return max(0.0, -lam), min(1.0, 1.0 - lam)


def _generator(
    w: TruncationWindow, lam: float, X: str, lowering: np.ndarray, raising: np.ndarray
) -> OperatorMatrix:
    """Generator X of a family with dR(h) f_n = -i (2n + lam) f_n.

    ``lowering`` is the +1 diagonal (dR(e) on the columns n > lo) and
    ``raising`` the -1 diagonal (dR(f) on the columns n < hi).
    """
    if X == "h":
        return OperatorMatrix.from_band(w, 0, -1j * (2.0 * w.indices() + lam))
    if X == "e":
        return OperatorMatrix.from_band(w, 1, lowering)
    if X == "f":
        return OperatorMatrix.from_band(w, -1, raising)
    if X not in ("L", "M"):
        raise ParameterError(f"unknown generator {X!r}")
    # accumulating into zeros rounds exactly as e + f and i (e - f) would
    data = np.zeros((w.size, w.size), dtype=np.complex128)
    k = np.arange(w.size - 1)
    data[k, k + 1] += lowering
    if X == "L":
        data[k + 1, k] += raising
    else:
        data[k + 1, k] -= raising
        data *= 1j
    return OperatorMatrix._adopt(data, w, MONOMIAL)


def generator_matrix(p: RepnParams, X: str, w: TruncationWindow) -> OperatorMatrix:
    """Truncated monomial-basis matrix of the generator action.

    Raising/lowering across the window edge is dropped; for the unilateral
    index set the vanishing of the lowering action on f_0 is genuine, not a
    truncation artifact.
    """
    if w.kind != p.index_set:
        raise WindowMismatchError(
            f"window kind {w.kind!r} does not match params index set {p.index_set!r}"
        )
    n = w.indices()
    return _generator(w, p.lam, X, p.mu - n[1:], p.lam + p.mu + n[:-1])


def reducible_generator_matrix(p: RepnParams, X: str, w: TruncationWindow) -> OperatorMatrix:
    """Generator matrices of the direct-sum family at lam = p.lam in its seam basis g_n.

    The lowering action is 1 - lam - n below the seam and -n from n = 0 on,
    the raising action n + 1 up to n = -1 and lam + n above; they vanish at
    n = 0 and n = -1, the two seam columns of the decomposition.  The range
    of lam is checked once, by ``Realization.reducible``.
    """
    if w.kind != BILATERAL:
        raise WindowMismatchError("the reducible sum lives on a bilateral window")
    lam = p.lam
    n = w.indices()
    ne, nf = n[1:], n[:-1]  # source indices of the lowering and raising entries
    lowering = np.where(ne < 0, 1.0 - lam - ne, -ne)
    raising = np.where(nf < 0, nf + 1.0, lam + nf)
    return _generator(w, lam, X, lowering, raising)


def gram(p: RepnParams, w: TruncationWindow) -> OperatorMatrix:
    """Diagonal matrix of squared basis norms ||f_n||^2 (see ``norm_sq_sequence``)."""
    return OperatorMatrix.from_band(w, 0, norm_sq_sequence(p, w).values)


def to_orthonormal(A: OperatorMatrix, G: OperatorMatrix) -> OperatorMatrix:
    """G^{1/2} A G^{-1/2}: a monomial-basis operator in the orthonormal basis
    x_n = f_n / ||f_n|| of the diagonal Gram G.

    A step-(-1) shift with coefficients a_n turns into the weighted shift with
    w_n = a_n ||f_{n+1}|| / ||f_n||.  Only ratios of the norms enter, so the
    result does not depend on the overall scale of G.
    """
    if A.basis != MONOMIAL:
        raise ParameterError("input must be in the monomial basis")
    A._require_compatible(G)
    band = G.single_diagonal
    if band is None or band[0] != 0 or band[1].imag.any() or not (band[1].real > 0.0).all():
        raise ParameterError("the Gram must be diagonal with positive entries")
    s = np.sqrt(band[1].real)
    structure = A.single_diagonal
    if structure is None:
        data = A.data * s[:, None]
        data /= s[None, :]
        return OperatorMatrix._adopt(data, A.window, ORTHONORMAL, None)
    # a shift is rescaled along its band; the rest of the matrix stays untouched zeros
    m, d = structure
    rows, cols = s[max(-m, 0) :][: d.size], s[max(m, 0) :][: d.size]
    return OperatorMatrix.from_band(A.window, m, d * rows / cols, ORTHONORMAL)


def unitarity_residual(R: OperatorMatrix, w: TruncationWindow) -> float:
    """Interior norm of R* R - I for R in an orthonormal basis; only the
    interior block R[:, p]* R[:, p] - I is multiplied out."""
    p = _interior_positions(R, w)
    cols = R.data[:, p]
    return float(np.linalg.norm(cols.conj().T @ cols - np.eye(p.size)))


# generator images under the conjugation twist: h and M reverse, hence e <-> f
_SHARP_GEN = {"h": (-1.0, "h"), "L": (1.0, "L"), "M": (-1.0, "M"), "e": (1.0, "f"), "f": (1.0, "e")}


@dataclass(frozen=True)
class Realization:
    """One family: its parameters and the route that realizes it.

    ``flavor`` is "plain" (the irreducible families), "sharp" (their twist,
    the anti-holomorphic family) or "reducible" (the direct sum, whose
    ``params`` are (bilateral, lam) and which alone carries a seam coupling r).
    """

    flavor: str
    params: RepnParams
    r: complex | None = None

    def __post_init__(self):
        if (self.flavor == "reducible") != (self.r is not None):
            raise ParameterError("the coupling r belongs to the reducible sum, and only to it")
        if self.r is not None:
            object.__setattr__(self, "r", complex(self.r))
            if not 0.0 < self.params.lam < 2.0:
                raise ParameterError("reducible sums require lam in (0, 2)")
            if not abs(self.r) <= _COUPLING_BOUND:
                raise ParameterError(f"coupling |r| must be a number not exceeding {_COUPLING_BOUND}")

    @classmethod
    def plain(cls, params: RepnParams) -> "Realization":
        return cls("plain", params)

    @classmethod
    def sharp(cls, params: RepnParams) -> "Realization":
        return cls("sharp", params)

    @classmethod
    def reducible(cls, lam: float, r: complex = 1.0) -> "Realization":
        return cls("reducible", RepnParams(BILATERAL, lam), r)

    @functools.lru_cache(maxsize=GENERATOR_CACHE_SIZE)
    def generator(self, X: str, w: TruncationWindow) -> OperatorMatrix:
        """dR(X) in the orthonormal basis x_n = f_n / s_n, s_n = ||f_n||.

        The monomial matrix keeps its diagonal; its +1 band is scaled by
        s_n / s_{n+1} and its -1 band by s_{n+1} / s_n, the square root of
        ``norm_ratio`` (both bands are 0 across a reducible seam).  The sharp
        twist negates h and M and swaps e and f.  The last few (realization,
        X, window) are kept, so repeated paths reuse one generator object.
        """
        sign, xs = _SHARP_GEN.get(X, (1.0, X)) if self.flavor == "sharp" else (1.0, X)
        build = reducible_generator_matrix if self.flavor == "reducible" else generator_matrix
        a = build(self.params, xs, w).data
        s = np.sqrt(norm_sq_sequence(self.params, w).values)
        # np.zeros, not a scaled copy of a: only the pages the bands touch are resident
        data = np.zeros(a.shape, dtype=np.complex128)
        np.fill_diagonal(data, sign * np.diagonal(a))
        k = np.arange(w.size - 1)
        data[k, k + 1] = np.diagonal(a, 1) * (sign * s[:-1]) / s[1:]
        data[k + 1, k] = np.diagonal(a, -1) * (sign * s[1:]) / s[:-1]
        return OperatorMatrix._adopt(data, w, ORTHONORMAL)

    def along_path(self, path: GroupPath, w: TruncationWindow) -> OperatorMatrix:
        """R(path) in the orthonormal basis: the ordered product of the
        generator exponentials.

        Trustworthy on the window interior; boundary rows and columns carry
        truncation error.
        """
        out = None
        for gen, t in path.segments:
            factor = mat_exp(self.generator(gen, w), t)
            out = factor if out is None else out @ factor
        return OperatorMatrix.identity(w, ORTHONORMAL) if out is None else out


def rep_matrix(p: RepnParams, path: GroupPath, w: TruncationWindow) -> OperatorMatrix:
    """R(path) of the family p in the orthonormal basis."""
    return Realization.plain(p).along_path(path, w)


def unitarity_defect(p: RepnParams, path: GroupPath, w: TruncationWindow) -> float:
    """Interior norm of R* R - I along a path, with R in the orthonormal basis
    of the family's Gram; zero for an exactly unitary action."""
    return unitarity_residual(rep_matrix(p, path, w), w)


def default_grid_size(w: TruncationWindow) -> int:
    """Smallest power of two at least 8x the window size."""
    target = 8 * w.size
    return 1 << (target - 1).bit_length()


def _circle_factors(phi_inv: MobiusElement, eta_plus: complex, eta_minus: complex, grid: int):
    """Moved points and derivative multiplier on the uniform circle grid.

    The multiplier is exp(eta_plus * log phi' + eta_minus * conj(log phi'))
    with each log taken on its principal branch; with eta_plus = (lam + mu)/2
    and eta_minus = mu/2 this equals (phi')^{lam/2} |phi'|^mu.
    """
    z = np.exp(2j * np.pi * np.arange(grid) / grid)
    beta = phi_inv.beta
    moved = phi_inv.alpha * (z - beta) / (1.0 - beta.conjugate() * z)
    # 1 - conj(beta) z stays in the right half plane because |beta| <= 0.3
    log_deriv = (
        cmath.log(phi_inv.alpha)
        + math.log1p(-abs(beta) ** 2)
        - 2.0 * np.log(1.0 - beta.conjugate() * z)
    )
    multiplier = np.exp(complex(eta_plus) * log_deriv + complex(eta_minus) * np.conj(log_deriv))
    return moved, multiplier


def _signed_frequencies(grid: int) -> np.ndarray:
    k = np.arange(grid)
    k[k > grid // 2] -= grid
    return k


def _circle_table(
    p: RepnParams,
    phi_inv: MobiusElement,
    eta_plus: complex,
    eta_minus: complex,
    w: TruncationWindow,
    grid_size: int | None,
) -> np.ndarray:
    """Window-by-window matrix of the circle-route action, one column per monomial.

    Built ``_CIRCLE_BLOCK`` monomials at a time, so peak memory is
    O(grid * block + size^2): rows moved ** n (up from n = 0 by moved, down
    from n = -1 by 1 / moved, carried across blocks), scaled by the multiplier
    and transformed along the grid.  The checks take their maxima over all blocks.
    """
    if w.kind != p.index_set:
        raise WindowMismatchError("window kind does not match params index set")
    grid = default_grid_size(w) if grid_size is None else int(grid_size)
    _require_power_of_two(grid)
    if abs(phi_inv.beta) > _ORACLE_BETA_CAP:
        raise ParameterError(
            f"|beta| = {abs(phi_inv.beta):.3f} too far from the identity for principal branches"
        )
    moved, multiplier = _circle_factors(phi_inv, eta_plus, eta_minus, grid)
    k = _signed_frequencies(grid)
    nyquist = np.abs(k) > grid // 4
    negative = (k < 0) & ~nyquist
    rows = w.indices() % grid
    table = np.empty((w.size, w.size), dtype=np.complex128)
    tail = worst = 0.0
    for ns, factor in ((np.arange(0, w.hi + 1), moved), (np.arange(-1, w.lo - 1, -1), 1.0 / moved)):
        power = np.ones(grid, dtype=np.complex128)
        for start in range(0, ns.size, _CIRCLE_BLOCK):
            block = ns[start : start + _CIRCLE_BLOCK]
            samples = np.empty((block.size, grid), dtype=np.complex128)
            for i, n in enumerate(block):
                power = power * factor if n else power
                samples[i] = power
            np.multiply(multiplier, samples, out=samples)
            samples = np.fft.fft(samples, axis=-1)
            samples /= grid
            # np.maximum keeps a NaN, as the maximum over the whole table would
            tail = np.maximum(tail, np.max(np.abs(samples[:, nyquist])))
            if w.kind == UNILATERAL:
                worst = np.maximum(worst, np.max(np.abs(samples[:, negative])))
            table[:, block - w.lo] = samples[:, rows].T
    if tail > _NYQUIST_TAIL_TOL:
        raise GridSizeError(
            f"coefficient magnitude {tail:.3e} near the Nyquist edge; enlarge the sampling grid"
        )
    if worst > _NEGATIVE_INDEX_TOL:
        raise NumericsError(
            f"negative-index content {worst:.3e} in a unilateral action; branch assumptions violated"
        )
    return table


def circle_rep_matrix(
    p: RepnParams, path: GroupPath, w: TruncationWindow, grid_size: int | None = None
) -> OperatorMatrix:
    """Whole representation matrix over the circle route, in the orthonormal basis:
    the monomial table scaled in place by s_i / s_j, s = sqrt(``norm_sq_sequence``)."""
    phi_inv = mobius.inverse(mobius.path_to_mobius(path))
    table = _circle_table(p, phi_inv, (p.lam + p.mu) / 2.0, p.mu / 2.0, w, grid_size)
    s = np.sqrt(norm_sq_sequence(p, w).values)
    table *= s[:, None]
    table /= s[None, :]
    return OperatorMatrix._adopt(table, w, ORTHONORMAL, None)
