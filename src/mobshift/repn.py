"""Series taxonomy and finite matrix realizations of the cover representations.

On monomials ``f_n(z) = z^n`` the representation acts by

    (R(g)F)(z) = (phi'_{g^{-1}}(z))^{lam/2} |phi'_{g^{-1}}(z)|^mu F(phi_{g^{-1}}(z)),

which differentiates to the generator actions

    dR(h) f_n = -i (2n + lam) f_n,
    dR(e) f_n = (mu - n) f_{n-1},
    dR(f) f_n = (lam + mu + n) f_{n+1},

with L = e + f and M = i(e - f).  The module realizes R two independent
ways -- one exponential of the truncated L between two diagonal rotations
(the Cartan form of the path), and direct evaluation on the unit circle
followed by Fourier extraction -- so the two routes can cross-check each
other away from the truncation boundary.  Both return R in the orthonormal
basis x_n = f_n / ||f_n||, where no verdict depends on the scale of the Gram:
``Realization.orthonormal``, the only change of basis, brings the monomial
generators (``generator_matrix``, ``reducible_generator_matrix``) and shifts
there, and the circle route scales its table, by the norms of one Gram per
family and window (``Realization.norms``).  The circle route sizes its own
sampling grid from the Nyquist tail it measures.
"""

from __future__ import annotations

import cmath
import math

from . import mobius
from .errors import NumericsError, ParameterError, WindowMismatchError, value_type
from .mobius import GroupPath, MobiusElement
from .numkernel import (
    BILATERAL,
    MONOMIAL,
    ORTHONORMAL,
    UNILATERAL,
    OperatorMatrix,
    TruncationWindow,
    _conjugated_block,
    _interior_bounds,
    _squared_norm,
    _tiles,
    interior_norm,
    mat_exp,
    np,
)
from .specialfn import _principal_coincidence, norm_sq_sequence

HOLO = "holo"
ANTIHOLO = "antiholo"
PRINCIPAL = "principal"
COMPLEMENTARY = "complementary"
REDUCIBLE = "reducible"

DEFAULT_COUPLING = 1.0
_COUPLING_BOUND = 10.0
_NYQUIST_TAIL_TOL = 1e-9
_NEGATIVE_INDEX_TOL = 1e-10
#: the finest circle grid the route samples on: a Nyquist tail still above tolerance there is
#: refused, and that is the route's only limit on how far a path may boost
MAX_GRID = 1 << 16


@value_type
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
            raise ParameterError("the holomorphic family requires lam > 0")
        return HOLO
    mu = p.mu
    if mu.imag == 0.0 and float(mu.real).is_integer():
        raise ParameterError(
            "bilateral families require non-integer mu (integer mu is the reducible direct-sum point)"
        )
    if _principal_coincidence(p):
        if not -1.0 < p.lam <= 1.0:
            raise ParameterError("the principal family requires lam in (-1, 1]")
        return PRINCIPAL
    if mu.imag == 0.0:
        lo, hi = complementary_mu_interval(p.lam)
        if not lo < mu.real < hi:
            raise ParameterError(
                "the complementary family requires mu in (0, 1) intersected with (-lam, 1 - lam)"
            )
        return COMPLEMENTARY
    raise ParameterError(
        "bilateral parameters match neither the principal nor the complementary family"
    )


def complementary_mu_interval(lam: float) -> tuple[float, float]:
    """The complementary family's mu interval (0, 1) intersected with
    (-lam, 1 - lam); it is non-empty exactly for lam in (-1, 1), and any other
    lam raises ``ParameterError``."""
    if not -1.0 < lam < 1.0:
        raise ParameterError("the complementary family requires lam in (-1, 1)")
    return max(0.0, -lam), min(1.0, 1.0 - lam)


def _h_diagonal(p: RepnParams, w: TruncationWindow) -> np.ndarray:
    """dR(h)'s diagonal -i (2n + lam) over a window of p's index set, in either basis."""
    if w.kind != p.index_set:
        raise WindowMismatchError(f"window kind {w.kind!r} does not match params index set {p.index_set!r}")
    return -1j * (2.0 * w.indices() + p.lam)


def _generator(p: RepnParams, w: TruncationWindow, X: str, lowering: np.ndarray, raising: np.ndarray) -> OperatorMatrix:
    """Generator X, as its bands, of a family with dR(h) f_n = -i (2n + lam) f_n.

    ``lowering`` is the +1 diagonal (dR(e) on the columns n > lo) and
    ``raising`` the -1 diagonal (dR(f) on the columns n < hi).  A window of
    another index set than p's raises ``WindowMismatchError``.
    """
    # L = e + f and M = i (e - f)
    table = {"h": {0: _h_diagonal(p, w)}, "e": {1: lowering}, "f": {-1: raising},
             "L": {1: lowering, -1: raising}, "M": {1: 1j * lowering, -1: -1j * raising}}
    if X not in table:
        raise ParameterError(f"unknown generator {X!r}")
    return OperatorMatrix._adopt(w, MONOMIAL, bands=table[X])


def generator_matrix(p: RepnParams, X: str, w: TruncationWindow) -> OperatorMatrix:
    """Truncated monomial-basis matrix of the generator action.

    Raising/lowering across the window edge is dropped; for the unilateral
    index set the vanishing of the lowering action on f_0 is genuine, not a
    truncation artifact.
    """
    n = w.indices()
    return _generator(p, w, X, p.mu - n[1:], p.lam + p.mu + n[:-1])


def reducible_generator_matrix(p: RepnParams, X: str, w: TruncationWindow) -> OperatorMatrix:
    """Generator matrices of the direct-sum family at lam = p.lam in its seam basis g_n.

    The lowering and raising actions (``_reducible_lowering``,
    ``_reducible_raising``) are mapped over the window; they vanish at n = 0
    and n = -1, the two seam columns of the decomposition.  The range
    of lam is checked once, by ``Realization.reducible``.
    """
    if w.kind != BILATERAL:
        raise WindowMismatchError("the reducible sum lives on a bilateral window")
    n = range(w.lo, w.hi + 1)
    lowering = np.array([_reducible_lowering(p, k) for k in n[1:]])  # on the columns n > lo
    raising = np.array([_reducible_raising(p, k) for k in n[:-1]])  # on the columns n < hi
    return _generator(p, w, X, lowering, raising)


def _reducible_lowering(p: RepnParams, n: int) -> float:
    """dR(e) g_n = c g_{n-1} of the reducible sum at lam = p.lam: c = 1 - lam - n below the seam, -n from n = 0 on."""
    return 1.0 - p.lam - n if n < 0 else float(-n)  # not -float(n), which is -0.0 at n = 0


def _reducible_raising(p: RepnParams, n: int) -> float:
    """dR(f) g_n = c g_{n+1} of the reducible sum at lam = p.lam: c = n + 1 below the seam, lam + n from n = 0 on."""
    return n + 1.0 if n < 0 else p.lam + n


def gram(p: RepnParams, w: TruncationWindow) -> OperatorMatrix:
    """Diagonal matrix of squared basis norms ||f_n||^2 (see ``norm_sq_sequence``)."""
    return OperatorMatrix.from_band(w, 0, norm_sq_sequence(p, w))


def unitarity_residual(R: OperatorMatrix, w: TruncationWindow) -> float:
    """Interior norm of R* R - I for R in an orthonormal basis.

    A banded R (a rotation, stored as its one band) reads it from the bands of
    R* R - I, O(N).  A dense R forms the Hermitian G = R[:, P]* R[:, P] one
    tile of rows at a time, G[tile, tile:] = R[:, tile]* R[:, tile:], and counts
    the part right of the tile's own square twice: its temporaries are
    ``TILE`` x n, and R[:, P] is read in place, never copied.
    """
    p0, p1 = _interior_bounds(R, w)
    if R.bands is not None:
        return interior_norm(R.H @ R - OperatorMatrix.identity(w, R.basis), w)
    r, total = R.data, 0.0
    for a, b in _tiles(p0, p1):
        tile = r[:, a:b].conj().T
        own = tile @ r[:, a:b]
        own.flat[:: b - a + 1] -= 1.0
        total += _squared_norm(own) + 2.0 * _squared_norm(tile @ r[:, b:p1])
        del tile, own  # before the next tile's arrays are allocated
    return math.sqrt(total)


@value_type
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
        object.__setattr__(self, "_norms", {})  # (kind, N) -> ``norms``; not a field
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
    def reducible(cls, lam: float, r: complex = DEFAULT_COUPLING) -> "Realization":
        return cls("reducible", RepnParams(BILATERAL, lam), r)

    def norms(self, w: TruncationWindow) -> np.ndarray:
        """s_n = ||f_n|| on w, read-only, from one ``gram`` per lattice (kind, N) kept on this realization."""
        s = self._norms.get((w.kind, w.N))
        if s is None:
            s = self._norms[w.kind, w.N] = np.sqrt(gram(self.params, w).diagonal(0).real)
            s.setflags(write=False)
        return s

    def orthonormal(self, A: OperatorMatrix, w: TruncationWindow) -> OperatorMatrix:
        """S A S^-1, S = diag(``norms(w)``): a monomial-basis A on w's lattice (any other raises) in
        the orthonormal basis, each band rescaled along itself, so a step-(-1) shift's a_n turns
        into the weight a_n s_{n+1} / s_n.  Only ratios of the norms enter, not the Gram's scale."""
        if A.basis != MONOMIAL or not A.window.same_lattice(w):
            raise WindowMismatchError("the operator must be in the monomial basis, on the window's lattice")
        s = self.norms(w)
        return OperatorMatrix._adopt(A.window, ORTHONORMAL, bands={
            m: d * s[max(-m, 0) :][: d.size] / s[max(m, 0) :][: d.size] if m else d for m, d in A._banded().items()
        })

    def generator(self, X: str, w: TruncationWindow) -> OperatorMatrix:
        """dR(X) of a real generator X = h, L or M in the orthonormal basis
        x_n = f_n / s_n, s_n = ||f_n||; e and f are (L -/+ iM)/2 by linearity.

        ``orthonormal`` of the monomial bands: the diagonal stays, the +1 band is
        scaled by s_n / s_{n+1} and the -1 band by s_{n+1} / s_n (both are 0 across
        a reducible seam), and the sharp twist multiplies X by its sign in
        ``mobius.STAR_SIGNS``.  Each call builds fresh bands, O(N), and no dense
        matrix; the spectrum of ``numkernel.mat_exp`` is cached on content.
        """
        if X not in mobius.GENERATORS:
            raise ParameterError(f"unsupported generator {X!r} (expected h, L or M)")
        build = reducible_generator_matrix if self.flavor == "reducible" else generator_matrix
        return self._sign(X) * self.orthonormal(build(self.params, X, w), w)

    def _sign(self, X: str) -> float:
        """The factor of dR(X) under this flavor: its ``mobius.STAR_SIGNS`` sign when sharp."""
        return mobius.STAR_SIGNS[X] if self.flavor == "sharp" else 1.0

    def _cartan_factors(self, path: GroupPath, w: TruncationWindow) -> tuple[float, np.ndarray, np.ndarray | float]:
        """(s, left, right) with R(path) = diag(left) e^{s dR(L)} diag(right) (right 1 when
        s = 0), from the Cartan form R = D(theta1) e^{s dR(L)} D(theta2) (``mobius.cartan``),
        D(theta) = exp(theta dR(h)), whose diagonal d is the same in both bases.  Entry
        (j, k) of R is e^{(theta1 + theta2) d_j} E[j, k] z^{k - j}, z = e^{-2i sign theta2}:
        the rotation angle is rounded once, and z^{k - j} = c_k / c_j, c_k = z^{k + 1} by
        repeated products, rides on left and right, exact to |k - j| roundings (small where
        E is large), not two phases of order theta (2n + lam) rounded apart."""
        theta1, s, theta2 = mobius.cartan(path)
        sign = self._sign("h")
        c = np.cumprod(np.full(w.size, np.exp(-2j * sign * theta2))) if s else 1.0
        return s, np.exp((theta1 + theta2) * (sign * _h_diagonal(self.params, w))) / c, c

    def along_path(self, path: GroupPath, w: TruncationWindow) -> OperatorMatrix:
        """R(path) in the orthonormal basis from ``_cartan_factors``: one exponential (none
        when s = 0) whatever the path's length, with both diagonals folded into its phase
        scaling; trustworthy on the window interior, the boundary carries truncation error."""
        s, left, right = self._cartan_factors(path, w)
        if s == 0.0:
            return OperatorMatrix.from_band(w, 0, left, ORTHONORMAL)
        return mat_exp(self.generator("L", w), s, left, right)

    def conjugate(self, T: OperatorMatrix, path: GroupPath, w: TruncationWindow, lo: int, hi: int) -> np.ndarray:
        """Rows and columns lo..hi-1 of R T R^-1, R = ``along_path(path, w)``, for a shift T in
        R's basis and window, without R: a rotation rescales T's band, O(N), and builds no
        generator, and a boost is ``numkernel._conjugated_block``, O(|B|^2 N)."""
        m, t = T.single_diagonal
        if T.basis != ORTHONORMAL or not T.window.same_lattice(w):
            raise WindowMismatchError("T must be in the orthonormal basis, on the window's lattice")
        s, left, right = self._cartan_factors(path, w)
        if s == 0.0:  # R = diag(left): (R T R^-1)[i, i + m] = left[i] T[i, i + m] / left[i + m]
            return OperatorMatrix.from_band(w, m, left[max(-m, 0) :][: t.size] * t / left[max(m, 0) :][: t.size]).block(lo, hi)
        return _conjugated_block(self.generator("L", w), s, T, lo, hi, (0, 1), left, right)


def _circle_factors(phi_inv: MobiusElement, eta_plus: complex, eta_minus: complex, grid: int):
    """Moved points and derivative multiplier on the uniform circle grid.

    The multiplier is exp(eta_plus * log phi' + eta_minus * conj(log phi'))
    with each log taken on its principal branch; with eta_plus = (lam + mu)/2
    and eta_minus = mu/2 this equals (phi')^{lam/2} |phi'|^mu.
    """
    z = np.exp(2j * np.pi * np.arange(grid) / grid)
    beta = phi_inv.beta
    moved = phi_inv.alpha * (z - beta) / (1.0 - beta.conjugate() * z)
    # 1 - conj(beta) z has a positive real part for every |beta| < 1, which MobiusElement
    # enforces, so the principal logarithm stays analytic on the circle
    log_deriv = (
        cmath.log(phi_inv.alpha)
        + math.log1p(-abs(beta) ** 2)
        - 2.0 * np.log(1.0 - beta.conjugate() * z)
    )
    multiplier = np.exp(complex(eta_plus) * log_deriv + complex(eta_minus) * np.conj(log_deriv))
    return moved, multiplier


def _circle_table(p: RepnParams, phi_inv: MobiusElement, w: TruncationWindow) -> tuple[np.ndarray, int]:
    """Window-by-window matrix of the circle-route action, one column per monomial, and the
    grid it was sampled on.

    The grid starts at the smallest power of two at least 8N, whose quarter (the Nyquist
    edge) lies N past the window's largest index, and doubles while the coefficients beyond
    that edge exceed ``_NYQUIST_TAIL_TOL``, up to ``MAX_GRID``.  Each try fills the one
    table ``TILE`` monomials at a time, so peak memory is O(grid * TILE + size^2): rows
    moved ** n (up from n = 0 by moved, down from n = -1 by 1 / moved, carried across
    blocks), scaled by the multiplier and transformed along the grid.  A try below
    ``MAX_GRID`` stops at the first block whose tail refuses its grid; otherwise the
    checks take their maxima over all blocks.
    """
    if w.kind != p.index_set:
        raise WindowMismatchError("window kind does not match params index set")
    eta_plus, eta_minus = (p.lam + p.mu) / 2.0, p.mu / 2.0
    table = np.empty((w.size, w.size), dtype=np.complex128)
    grid = 1 << (8 * w.N - 1).bit_length()
    while True:
        moved, multiplier = _circle_factors(phi_inv, eta_plus, eta_minus, grid)
        multiplier /= grid
        # frequencies in FFT order: |k| > grid / 4 is the Nyquist tail, and the negative
        # frequencies short of it are the last quarter
        tail_cols, negative_cols = slice(grid // 4 + 1, grid - grid // 4), slice(grid - grid // 4, grid)
        rows = w.indices() % grid
        tail = worst = 0.0
        for ns, factor in ((np.arange(0, w.hi + 1), moved), (np.arange(-1, w.lo - 1, -1), 1.0 / moved)):
            power = np.ones(grid, dtype=np.complex128)
            for a, b in _tiles(0, ns.size):
                if tail > _NYQUIST_TAIL_TOL and grid < MAX_GRID:
                    break  # this grid is refused already: the next try refills the table
                block = ns[a:b]
                samples = np.empty((block.size, grid), dtype=np.complex128)
                for i, n in enumerate(block):
                    if n:
                        power *= factor
                    np.multiply(multiplier, power, out=samples[i])
                samples = np.fft.fft(samples, axis=-1)
                # np.maximum keeps a NaN, as the maximum over the whole table would
                tail = np.maximum(tail, np.max(np.abs(samples[:, tail_cols])))
                if w.kind == UNILATERAL:
                    worst = np.maximum(worst, np.max(np.abs(samples[:, negative_cols])))
                table[:, block - w.lo] = samples[:, rows].T
        # a NaN tail passes and ends the doubling: no finer grid would resolve it
        if not tail > _NYQUIST_TAIL_TOL:
            break
        if grid >= MAX_GRID:
            raise NumericsError(f"Nyquist tail {tail:.3e} above {_NYQUIST_TAIL_TOL:.0e} at grid {grid}, the largest tried")
        grid *= 2
    if worst > _NEGATIVE_INDEX_TOL:
        raise NumericsError(
            f"negative-index content {worst:.3e} at grid {grid} in a unilateral action; branch assumptions violated"
        )
    return table, grid


def circle_rep_matrix(p: RepnParams, path: GroupPath, w: TruncationWindow) -> OperatorMatrix:
    """Whole representation matrix over the circle route (on the grid ``_circle_table`` picks), in
    the orthonormal basis: the monomial table scaled in place by s_i / s_j, s = ``Realization.norms``."""
    table, _ = _circle_table(p, mobius.inverse(mobius.path_to_mobius(path)), w)
    s = Realization.plain(p).norms(w)
    table *= s[:, None]
    table /= s[None, :]
    return OperatorMatrix._adopt(w, ORTHONORMAL, data=table)
