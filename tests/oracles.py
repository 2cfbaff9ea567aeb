"""Independent oracles the tests use to compute expected values.

Each routine here deliberately takes a different route than the library code
it checks: gamma values (a Lanczos kernel, itself checked against an
asymptotic series) instead of products of norm ratios, truncated
Taylor sums and Pade scaling-and-squaring instead of eigendecompositions,
brute-force summation instead of sliced norms, rotation-average quadrature
instead of diagonal surgery, dense matrix powers instead of diagonal
recurrences, an LU solve for phi(T) instead of its denominator multiplied
out, whole-window dense products instead of row and column scalings of an
interior block, four dense products of the exponentials instead of their
parity blocks.  ``circle_fft`` and ``circle_synthesis`` are the plain
normalized FFT pair of unit-circle samples; ``unblocked_circle_table`` builds
the circle route's whole grid x window table at once; ``circle_rep_oracle``
applies the circle route's table to one coefficient vector, as the oracle of
the exponential route.  ``orthonormal`` is not an oracle: it is the
conversion of a monomial operator into the basis of R that the tests share.
"""

import cmath
import math

import numpy as np

from mobshift.errors import GridSizeError, NumericsError, ParameterError, PoleError
from mobshift.mobius import MobiusElement
from mobshift.numkernel import UNILATERAL, _require_power_of_two, mat_exp
from mobshift.repn import (
    _NEGATIVE_INDEX_TOL,
    _NYQUIST_TAIL_TOL,
    _circle_factors,
    _circle_table,
    _signed_frequencies,
    gram,
    to_orthonormal,
)

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

    Non-positive integers are poles and raise ``PoleError``.
    """
    z = complex(z)
    if z.imag == 0.0 and z.real <= 0.0 and float(z.real).is_integer():
        raise PoleError(f"gamma pole at {z}")
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


def orthonormal(T, p, w):
    """A monomial-basis operator in the orthonormal basis where R is built."""
    return to_orthonormal(T, gram(p, w))


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
    every offset of the window: O(N^4)."""
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
    return value


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
    k = _signed_frequencies(grid)
    tail = float(np.max(np.abs(table[np.abs(k) > grid // 4])))
    if tail > _NYQUIST_TAIL_TOL:
        raise GridSizeError(
            f"coefficient magnitude {tail:.3e} near the Nyquist edge; enlarge the sampling grid"
        )
    negative = float(np.max(np.abs(table[(k < 0) & (np.abs(k) <= grid // 4)])))
    if w.kind == UNILATERAL and negative > _NEGATIVE_INDEX_TOL:
        raise NumericsError(
            f"negative-index content {negative:.3e} in a unilateral action; branch assumptions violated"
        )
    return table[w.indices() % grid, :]


def circle_rep_oracle(p, phi_inv: MobiusElement, eta_plus, eta_minus, w, coeffs, grid_size=None) -> np.ndarray:
    """R(g) applied to monomial coefficients over w, computed on the unit
    circle, independent of the generator-exponential route.

    ``phi_inv`` is phi_{g^-1} (|beta| <= 0.3, else ``ParameterError``);
    eta_plus, eta_minus are (lam + mu)/2 and mu/2.  The circle route's table
    raises ``GridSizeError`` for a Nyquist tail above 1e-9 and
    ``NumericsError`` for negative-index content above 1e-10 in a unilateral
    action.
    """
    return _circle_table(p, phi_inv, eta_plus, eta_minus, w, grid_size) @ np.asarray(coeffs, dtype=np.complex128)
