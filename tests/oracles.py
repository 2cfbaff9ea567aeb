"""Independent oracles the tests use to compute expected values.

Each routine here deliberately takes a different route than the library code
it checks: gamma values (a Lanczos kernel, itself checked against an
asymptotic series) instead of products of norm ratios, truncated
Taylor sums and Pade scaling-and-squaring instead of eigendecompositions,
brute-force summation instead of sliced norms, rotation-average quadrature
instead of diagonal surgery, dense matrix powers instead of diagonal
recurrences, an LU solve for phi(T) instead of its denominator multiplied
out, whole-window dense products instead of row and column scalings of an
interior block, four dense products of the exponentials, or whole-window
products of their parity blocks, instead of row shifts of the parity
blocks' interior columns, two dense products instead of the commutator's two
diagonals, the ordered product of one exponential per path segment instead
of the path's Cartan form, pointwise phi, phi' and twist instead of SU(1,1)
matrices, a dense ``np.linalg.lstsq`` instead of the affine classifier's
centred closed-form line, three band products over the window instead of the
seam row's scalars, ``np.where`` over the window's indices instead of the
reducible generators' scalar coefficients.  ``circle_fft`` and ``circle_synthesis`` are the plain
normalized FFT pair of unit-circle samples; ``unblocked_circle_table`` builds
the circle route's whole grid x window table at once; ``circle_rep_oracle``
applies the circle route's table to one coefficient vector, as the oracle of
the exponential route.  ``orthonormal`` is not an oracle: it is the
conversion of a monomial operator into the basis of R that the tests share;
nor is ``as_bands``, a raw array as an operator with every diagonal a band, on
which the library's algebra runs; nor are ``traced_peak``, the tracemalloc peak that the memory tests read,
and ``tile_edge_windows``, the windows whose interiors end at and between
the tile edges of the interior certificates.
``star_path``, ``te_tf_coefficients`` and ``sharp_isotypic_flip`` are
statements from the paper that no command prints and only the tests check:
the twist lifted to paths, the commutator coefficient maps of a step shift,
and the sharp twist swapping rotation characters m and -m.  ``quarter_turn``
is Q = diag(omega^k) with dR(M) = Q dR(L) Q^-1, M being L turned by
exp(pi/4 h): the tests check that statement band for band, and turn L's flow
and commutator into M's with it.
"""

import cmath
import math
import tracemalloc

import numpy as np

from mobshift.errors import NumericsError, ParameterError
from mobshift.mobius import STAR_SIGNS, GroupPath, MobiusElement
from mobshift.numkernel import (
    BILATERAL,
    MONOMIAL,
    ORTHONORMAL,
    TILE,
    UNILATERAL,
    OperatorMatrix,
    TruncationWindow,
    _parity_blocks,
    mat_exp,
)
from mobshift.repn import (
    _NEGATIVE_INDEX_TOL,
    _NYQUIST_TAIL_TOL,
    Realization,
    RepnParams,
    _circle_factors,
    _circle_table,
)
from mobshift.shifts import reducible_shift
from mobshift.specialfn import norm_sq_sequence

#: entrywise tolerance of ``sharp_isotypic_flip``
FLIP_TOL = 1e-12

_BERNOULLI = (
    1.0 / 6,
    -1.0 / 30,
    1.0 / 42,
    -1.0 / 30,
    5.0 / 66,
    -691.0 / 2730,
    7.0 / 6,
    -3617.0 / 510,
    43867.0 / 798,
    -174611.0 / 330,
)


def stirling_gamma(z: complex) -> complex:
    """Gamma via the asymptotic log series after shifting Re z above 32."""
    z = complex(z)
    shift_product = 1.0 + 0j
    while z.real < 32.0:
        shift_product *= z
        z += 1.0
    log_gamma = (z - 0.5) * cmath.log(z) - z + 0.5 * math.log(2.0 * math.pi)
    for k, b in enumerate(_BERNOULLI, start=1):
        log_gamma += b / ((2 * k) * (2 * k - 1) * z ** (2 * k - 1))
    return cmath.exp(log_gamma) / shift_product


# Lanczos kernel, g = 7, nine terms; ~1e-13 relative accuracy on moderate arguments
_LANCZOS_G = 7.0
_LANCZOS_C = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)


def complex_gamma(z: complex) -> complex:
    """Gamma(z) via the Lanczos kernel for Re z >= 0.5, reflection elsewhere.

    Non-positive integers are poles and raise ``ParameterError``.
    """
    z = complex(z)
    if z.imag == 0.0 and z.real <= 0.0 and float(z.real).is_integer():
        raise ParameterError(f"gamma pole at {z}")
    if z.real < 0.5:
        return math.pi / (cmath.sin(math.pi * z) * complex_gamma(1.0 - z))
    zz = z - 1.0
    x = _LANCZOS_C[0]
    for k in range(1, len(_LANCZOS_C)):
        x += _LANCZOS_C[k] / (zz + k)
    t = zz + _LANCZOS_G + 0.5
    return math.sqrt(2.0 * math.pi) * t ** (zz + 0.5) * cmath.exp(-t) * x


def taylor_expm(a: np.ndarray, order: int = 30) -> np.ndarray:
    """Truncated Taylor series of e^A; accurate for modest norms."""
    n = a.shape[0]
    out = np.eye(n, dtype=np.complex128)
    term = np.eye(n, dtype=np.complex128)
    for k in range(1, order + 1):
        term = term @ a / k
        out = out + term
    return out


_PADE13_THETA = 5.371920351148152
_PADE13_B = (
    64764752532480000.0,
    32382376266240000.0,
    7771770303897600.0,
    1187353796428800.0,
    129060195264000.0,
    10559470521600.0,
    670442572800.0,
    33522128640.0,
    1323241920.0,
    40840800.0,
    960960.0,
    16380.0,
    182.0,
    1.0,
)


def pade_expm(a: np.ndarray) -> np.ndarray:
    """e^A by scaling and squaring around the order-13 diagonal Pade kernel
    (Higham 2005); valid for any square matrix, normal or not."""
    a = np.asarray(a, dtype=np.complex128)
    n1 = float(np.linalg.norm(a, 1))
    squarings = 0
    if n1 > _PADE13_THETA:
        squarings = int(math.ceil(math.log2(n1 / _PADE13_THETA)))
        a = a / (2.0 ** squarings)
    ident = np.eye(a.shape[0], dtype=np.complex128)
    b = _PADE13_B
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a2 @ a4
    u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2) + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * ident)
    v = a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2) + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * ident
    f = np.linalg.solve(v - u, v + u)
    for _ in range(squarings):
        f = f @ f
    return f


def apply(phi: MobiusElement, z: complex) -> complex:
    """phi(z) = alpha (z - beta) / (1 - conj(beta) z), pointwise."""
    return phi.alpha * (z - phi.beta) / (1.0 - phi.beta.conjugate() * z)


def derivative(phi: MobiusElement, z: complex) -> complex:
    """phi'(z) = alpha (1 - |beta|^2) / (1 - conj(beta) z)^2, pointwise."""
    d = 1.0 - phi.beta.conjugate() * z
    return phi.alpha * (1.0 - abs(phi.beta) ** 2) / (d * d)


def star(phi: MobiusElement) -> MobiusElement:
    """The twist z -> conj(phi(conj z)), whose parameters are (conj alpha, conj beta)."""
    return MobiusElement(phi.alpha.conjugate(), phi.beta.conjugate())


def star_path(p: GroupPath) -> GroupPath:
    """Segment-wise lift of the conjugation twist: h and M reverse, L is fixed (``STAR_SIGNS``)."""
    return GroupPath(tuple((g, STAR_SIGNS[g] * t) for g, t in p.segments))


def product_rep_matrix(rel, path, w) -> np.ndarray:
    """R(path) as the ordered product of one exponential per segment, each
    factor with its own truncation error: the oracle of ``Realization.along_path``.
    An h segment is diagonal, the scalar exponentials of t dR(h); an L or M
    segment is ``mat_exp``."""
    out = np.eye(w.size, dtype=np.complex128)
    for gen, t in path.segments:
        X = rel.generator(gen, w)
        out = out @ (np.diag(np.exp(t * np.diagonal(X.data))) if gen == "h" else mat_exp(X, t).data)
    return out


def dense_mobius(phi: MobiusElement, data: np.ndarray) -> np.ndarray:
    """alpha (T - beta I)(I - conj(beta) T)^{-1} on a raw array, by one LU solve."""
    ident = np.eye(data.shape[0], dtype=np.complex128)
    return phi.alpha * np.linalg.solve(ident - np.conj(phi.beta) * data, data - phi.beta * ident)


def dense_homogeneity_residual(phi: MobiusElement, T, R, w) -> float:
    """Interior Frobenius norm of alpha R (T - beta I) - T R (I - conj(beta) T),
    formed over the whole window by dense products."""
    ident = np.eye(w.size, dtype=np.complex128)
    t, r = T.data, R.data
    whole = phi.alpha * (r @ (t - phi.beta * ident)) - t @ r @ (ident - np.conj(phi.beta) * t)
    p = w.interior_positions()
    return float(np.linalg.norm(whole[np.ix_(p, p)]))


def dense_flow_difference(X, T, s: float) -> np.ndarray:
    """(F T F^-1 - F^-1 T F) / 2s with F = e^{sX} and F^-1 = e^{-sX} from
    ``mat_exp``, by four dense products over the whole window."""
    f, b, t = mat_exp(X, s).data, mat_exp(X, -s).data, T.data
    return (f @ t @ b - b @ t @ f) / (2.0 * s)


def whole_window_flow_derivative(T, X, rel, w, step: float) -> np.ndarray:
    """i D (C T' S - S T' C) D^-1 / step with T' = D^-1 T D over the whole window:
    C = cos(step Hr) and S = sin(step Hr) assembled from their parity blocks into
    dense window-sized arrays and multiplied out, the oracle of the interior block
    that ``kappa_flow_derivative`` forms."""
    cos_even, cos_odd, sin_eo, d = _parity_blocks(rel.generator(X, w), step)
    c, s = np.zeros((w.size, w.size)), np.zeros((w.size, w.size))
    c[0::2, 0::2], c[1::2, 1::2] = cos_even, cos_odd
    s[0::2, 1::2], s[1::2, 0::2] = sin_eo, sin_eo.T
    tp = T.data / d[:, None] * d[None, :]
    return (1j / step) * (c @ tp @ s - s @ tp @ c) * d[:, None] / d[None, :]


def quarter_turn(rel: Realization, w: TruncationWindow) -> OperatorMatrix:
    """Q = diag(omega^k) over the window's positions, omega = -i, or i under the sharp
    twist, as an orthonormal-basis operator: dR(M) = Q dR(L) Q^-1."""
    omega = 1j if rel.flavor == "sharp" else -1j
    return OperatorMatrix.from_band(w, 0, np.array([1, omega, -1, -omega])[np.arange(w.size) % 4], ORTHONORMAL)


def where_reducible_bands(p: RepnParams, w: TruncationWindow) -> dict:
    """Each reducible generator's bands at lam = p.lam, {X: {m: band}}, from the lowering
    and raising coefficients written by cases, as ``np.where`` over the window's indices,
    rather than as the plain action at mu_n = 0 above the seam and 1 - lam below it."""
    n = w.indices()
    ne, nf = n[1:], n[:-1]  # source indices of the lowering and raising entries
    lowering = np.where(ne < 0, 1.0 - p.lam - ne, -ne)
    raising = np.where(nf < 0, nf + 1.0, p.lam + nf)
    return {"h": {0: -1j * (2.0 * n + p.lam)}, "e": {1: lowering}, "f": {-1: raising},
            "L": {1: lowering, -1: raising}, "M": {1: 1j * lowering, -1: -1j * raising}}


def band_product_seam_witness(rel: Realization, w: TruncationWindow) -> float:
    """|entry (1, -1)| of (F T - T F) - T^2, F = dR(f) and T = ``reducible_shift`` of the
    reducible sum ``rel`` as their bands, by three band products over the whole window,
    instead of the seam row's one term per product in scalars."""
    T = reducible_shift(rel, w)
    F = OperatorMatrix.from_band(w, -1, where_reducible_bands(rel.params, w)["f"][-1])
    witness = (F @ T - T @ F) - T @ T
    return abs(witness.entry(1, -1))


def dense_commutator(A, T) -> np.ndarray:
    """A T - T A by two dense products over the whole window."""
    return A.data @ T.data - T.data @ A.data


def brute_interior_frobenius(data: np.ndarray, positions) -> float:
    """Direct double-sum Frobenius norm over interior index pairs."""
    total = 0.0
    for i in positions:
        for j in positions:
            total += abs(data[i, j]) ** 2
    return math.sqrt(total)


def rotation_average_component(T, m: int, count: int) -> np.ndarray:
    """Average chi_m(angle)^{-1} * (rotation conjugation of T) over ``count``
    equispaced angles; isolates the m-th diagonal by character orthogonality."""
    idx = T.window.indices()
    out = np.zeros_like(T.data)
    for q in range(count):
        t = math.pi * q / count
        d = np.exp(-2j * idx * t)
        conjugated = (d[:, None] * T.data) * np.conj(d)[None, :]
        out = out + np.exp(-2j * m * t) * conjugated
    return out / count


def traced_peak(f, *args) -> int:
    """The peak bytes that tracemalloc sees allocated while f(*args) runs."""
    tracemalloc.start()
    try:
        f(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def tile_edge_windows():
    """Windows whose interior is one short of a tile, one tile, two tiles (one per parity of
    position) and two tiles and 5, each at pads 0 and 1, where a step-2 shift's halo is
    clipped at both window ends: bilateral when the size is odd, else unilateral."""
    for interior in (TILE - 1, TILE, 2 * TILE, 2 * TILE + 5):
        for pad in (0, 1):
            size = interior + 2 * pad
            yield TruncationWindow(BILATERAL, size // 2, pad) if size % 2 else TruncationWindow(UNILATERAL, size - 1, pad)


def random_mobius(rng, beta_max: float = 0.9) -> MobiusElement:
    theta = rng.uniform(-math.pi, math.pi)
    radius = beta_max * math.sqrt(rng.uniform())
    angle = rng.uniform(-math.pi, math.pi)
    return MobiusElement(cmath.exp(1j * theta), radius * cmath.exp(1j * angle))


def random_disc_point(rng, radius: float = 0.8) -> complex:
    r = radius * math.sqrt(rng.uniform())
    a = rng.uniform(-math.pi, math.pi)
    return r * cmath.exp(1j * a)


def random_dense(rng, size: int, scale: float = 1.0) -> np.ndarray:
    re = rng.standard_normal((size, size))
    im = rng.standard_normal((size, size))
    return scale * (re + 1j * im) / math.sqrt(2.0)


def random_unitary(rng, size: int) -> np.ndarray:
    """The unitary factor Q of the QR factorization of a complex Gaussian matrix."""
    q, _ = np.linalg.qr(random_dense(rng, size))
    return q


def as_bands(data: np.ndarray, w: TruncationWindow, basis: str = MONOMIAL) -> OperatorMatrix:
    """The operator with every diagonal of ``data`` as a band, the sum of one ``from_band``
    per diagonal: algebra runs on bands, and the public constructor keeps an array of
    more than one diagonal dense, as read-only data."""
    bands = (OperatorMatrix.from_band(w, m, np.diagonal(data, m), basis) for m in range(1 - w.size, w.size))
    return sum(bands, OperatorMatrix.from_band(w, 0, np.zeros(w.size), basis))


def orthonormal(T, p, w):
    """A monomial-basis shift in the orthonormal basis where R is built: the dense
    diag(s) T diag(1/s), s_n = ||f_n|| from ``norm_sq_sequence``, read back as its band."""
    assert T.basis == MONOMIAL
    s = np.sqrt(norm_sq_sequence(p, w))
    return OperatorMatrix((s[:, None] * T.data) / s[None, :], T.window, ORTHONORMAL)


def _dict_isotypic_matrix(data: np.ndarray, w, m: int) -> np.ndarray:
    """The m-th diagonal (row n - m, column n) of a matrix on window w,
    copied entry by entry through a dict keyed by the source index n."""
    coeffs = {}
    for n in w.indices():
        n = int(n)
        if w.contains(n - m):
            coeffs[n] = complex(data[w.pos(n - m), w.pos(n)])
    out = np.zeros((w.size, w.size), dtype=np.complex128)
    for n, a in coeffs.items():
        out[w.pos(n - m), w.pos(n)] = a
    return out


def _dense_best_multiple_residual(component: np.ndarray, basis, positions) -> float:
    block = component[np.ix_(positions, positions)]
    if basis is None:
        return float(np.linalg.norm(block))
    ref = basis[np.ix_(positions, positions)]
    denom = float(np.vdot(ref, ref).real)
    if denom <= 0.0:
        return float(np.linalg.norm(block))
    c = np.vdot(ref, block) / denom
    return float(np.linalg.norm(block - c * ref))


def dense_normalizer_defect(T, R, w) -> float:
    """Normalizer defect with dense matrix powers T^k and T*^k (the latter on
    unilateral windows) and one dense isotypic component per offset, over
    every offset of the window, those off the multiples of the step held
    against zero: O(N^4)."""
    steps = [m for m in range(-(w.size - 1), w.size) if np.any(_dict_isotypic_matrix(T.data, w, m))]
    if len(steps) != 1 or steps[0] == 0:
        raise ValueError("expected a single-step shift")
    step = steps[0]
    positions = w.interior_positions()
    ident = np.eye(w.size, dtype=np.complex128)
    S = R.data @ T.data @ np.linalg.solve(R.data, ident)
    commutator = S @ T.data - T.data @ S
    value = float(np.linalg.norm(commutator[np.ix_(positions, positions)]))
    adjoint = T.data.conj().T if w.kind == UNILATERAL else None
    power = ident
    adj_power = ident
    for k in range(w.size):
        m = step * k
        value += _dense_best_multiple_residual(_dict_isotypic_matrix(S, w, m), power, positions)
        if k > 0:
            opposite = _dict_isotypic_matrix(S, w, -m)
            value += _dense_best_multiple_residual(opposite, adj_power if adjoint is not None else None, positions)
        power = power @ T.data
        if adjoint is not None:
            adj_power = adj_power @ adjoint
    for m in range(1 - w.size, w.size):
        if m % step:
            value += _dense_best_multiple_residual(_dict_isotypic_matrix(S, w, m), None, positions)
    return value


def _require_power_of_two(n: int) -> None:
    if n < 1 or n & (n - 1):
        raise ParameterError(f"sample count {n} is not a power of two")


def circle_fft(samples) -> np.ndarray:
    """Fourier coefficients of uniform unit-circle samples.

    Normalized so that sampling e^{ik theta} puts 1 at coefficient k (mod the
    grid length); negative frequencies wrap to the top half of the array.
    """
    s = np.asarray(samples, dtype=np.complex128)
    if s.ndim != 1:
        raise ParameterError("samples must be one-dimensional")
    _require_power_of_two(s.shape[0])
    return np.fft.fft(s) / s.shape[0]


def circle_synthesis(coeffs) -> np.ndarray:
    """Inverse of circle_fft: rebuild the circle samples from coefficients."""
    c = np.asarray(coeffs, dtype=np.complex128)
    if c.ndim != 1:
        raise ParameterError("coefficients must be one-dimensional")
    _require_power_of_two(c.shape[0])
    return np.fft.ifft(c) * c.shape[0]


def unblocked_circle_table(phi_inv: MobiusElement, eta_plus, eta_minus, w, grid: int) -> np.ndarray:
    """The circle-route table in one piece: the grid x window powers
    P[j, p] = moved_j ** (lo + p) by cumulative products column by column,
    scaled, transformed along the grid axis and checked as a whole."""
    moved, multiplier = _circle_factors(phi_inv, eta_plus, eta_minus, grid)
    samples = np.empty((grid, w.size), dtype=np.complex128)
    samples[:, w.pos(0)] = 1.0
    for n in range(1, w.hi + 1):
        samples[:, w.pos(n)] = samples[:, w.pos(n - 1)] * moved
    inv = 1.0 / moved
    for n in range(-1, w.lo - 1, -1):
        samples[:, w.pos(n)] = samples[:, w.pos(n + 1)] * inv
    table = np.fft.fft(multiplier[:, None] * samples, axis=0) / grid
    k = np.fft.fftfreq(grid, 1.0 / grid)  # signed frequencies in FFT order
    tail = float(np.max(np.abs(table[np.abs(k) > grid // 4])))
    if tail > _NYQUIST_TAIL_TOL:
        raise NumericsError(f"Nyquist tail {tail:.3e} above {_NYQUIST_TAIL_TOL:.0e} at grid {grid}, the largest tried")
    negative = float(np.max(np.abs(table[(k < 0) & (np.abs(k) <= grid // 4)])))
    if w.kind == UNILATERAL and negative > _NEGATIVE_INDEX_TOL:
        raise NumericsError(
            f"negative-index content {negative:.3e} at grid {grid} in a unilateral action; branch assumptions violated"
        )
    return table[w.indices() % grid, :]


def circle_rep_oracle(p, phi_inv: MobiusElement, w, coeffs) -> np.ndarray:
    """R(g) applied to monomial coefficients over w, computed on the unit
    circle, independent of the generator-exponential route.

    ``phi_inv`` is phi_{g^-1}, any element of the disc.  The
    circle route's table raises ``NumericsError`` for a Nyquist tail above
    1e-9 at its largest grid and ``NumericsError`` for negative-index content
    above 1e-10 in a unilateral action.
    """
    return _circle_table(p, phi_inv, w)[0] @ np.asarray(coeffs, dtype=np.complex128)


def lstsq_affine_fit(a, mu: complex) -> tuple[complex, complex, float]:
    """(a, b, residual) of the least-squares fit a_n (mu - n - 1) = a - b n over the
    coefficients ``a`` (n -> a_n), by a dense least-squares solve of the design [1, -n]."""
    ns = np.array(sorted(a), dtype=np.float64)
    y = np.array([a[n] for n in sorted(a)], dtype=np.complex128) * (mu - ns - 1.0)
    design = np.column_stack([np.ones_like(ns), -ns]).astype(np.complex128)
    sol = np.linalg.lstsq(design, y, rcond=None)[0]
    return complex(sol[0]), complex(sol[1]), float(np.max(np.abs(y - design @ sol)))


def te_tf_coefficients(a, m: int, p, w):
    """Coefficient sequences of the commutators with the lowering and raising
    generators, for a step-m shift T f_n = a_n f_{n-m}.

    Returns (te, tf) keyed by the source index n:
    [dR(e), T] f_n = te_n f_{n-m-1} with te_n = (mu - n + m) a_n - (mu - n) a_{n-1},
    [dR(f), T] f_n = tf_n f_{n-m+1} with tf_n = (lam + mu + n - m) a_n - (lam + mu + n) a_{n+1}.
    Neighbours missing at a window or index-set edge contribute zero, which
    reproduces both the genuine degenerate cases and the truncated matrices.
    Each map holds every source index whose target is in the window, in
    increasing order: the band ``OperatorMatrix.from_band`` takes, of step m + 1 and m - 1.
    """
    seq = {int(n): complex(v) for n, v in dict(a).items()}
    lam, mu = p.lam, p.mu
    te, tf = {}, {}
    for n in w.indices():
        n = int(n)
        if w.contains(n - m - 1):
            te[n] = (mu - n + m) * seq.get(n, 0.0) - (mu - n) * seq.get(n - 1, 0.0)
        if w.contains(n - m + 1):
            tf[n] = (lam + mu + n - m) * seq.get(n, 0.0) - (lam + mu + n) * seq.get(n + 1, 0.0)
    return te, tf


def sharp_isotypic_flip(T, m: int, p=None, angle: float = 0.2) -> float:
    """Entrywise error of the sharp twist swapping rotation characters m and -m.

    T is in the orthonormal basis of p, where the rotation flows are built.
    Conjugating by the plain rotation flow at angle t scales the m-th
    diagonal by e^{+2imt}; by the sharp-twisted flow, by e^{-2imt}.  Returns
    the larger of the two entrywise errors, to be held against ``FLIP_TOL``.
    """
    w = T.window
    if p is None:
        p = RepnParams(UNILATERAL, 1.0) if w.kind == UNILATERAL else RepnParams(BILATERAL, 0.3, 0.35 + 0j)
    forward = GroupPath((("h", angle),))
    backward = GroupPath((("h", -angle),))
    plain, sharp = (rel.along_path(forward, w) @ T @ rel.along_path(backward, w)
                    for rel in (Realization.plain(p), Realization.sharp(p)))
    base = T.diagonal(m)
    err_plain = plain.diagonal(m) - cmath.exp(2j * m * angle) * base
    err_sharp = sharp.diagonal(m) - cmath.exp(-2j * m * angle) * base
    return float(np.abs(np.concatenate((err_plain, err_sharp))).max(initial=0.0))
