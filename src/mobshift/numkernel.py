"""Dense complex linear-algebra kernels shared by every other module.

Matrices live on an explicit truncation window and carry a basis tag, so
bookkeeping mistakes (mixing windows or bases) fail fast instead of producing
plausible-looking numbers.  Operators are dense complex128 and read-only; the
public constructor copies, library results own their fresh arrays.  ``mat_exp``
takes generators already in an orthonormal basis, skew-Hermitian, and reads no
Gram; it works in real arithmetic, from one real eigh of the generator's
tridiagonal Hermitian form and half-size products split by index parity.
That real tridiagonal is the same for L and M of one family and window (a
quarter-turn apart, a diagonal unitary that the phases absorb), so the eigh
is cached on its content: one per family and window.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    EmptyInteriorError,
    NotSkewAdjointError,
    ParameterError,
    SingularMatrixError,
    WindowMismatchError,
)

UNILATERAL = "unilateral"
BILATERAL = "bilateral"
MONOMIAL = "monomial"
ORTHONORMAL = "orthonormal"

#: refuse linear solves with a worse 1-norm condition estimate
COND_LIMIT = 1.0e8
#: largest skew-Hermitian residue, relative to the largest entry, that mat_exp accepts
SKEW_TOL = 1.0e-12
#: real spectra mat_exp keeps, one entry per family and window (L and M share
#: one, h needs none); repn keeps as many orthonormal-basis generators
GENERATOR_CACHE_SIZE = 3


@dataclass(frozen=True)
class TruncationWindow:
    """Finite index range standing in for Z or Z+, with an untrusted margin.

    A unilateral window covers 0..N, a bilateral one -N..N.  ``padding``
    marks how many indices at each end are considered polluted by the
    truncation; interior measurements skip them.
    """

    kind: str
    N: int
    padding: int

    def __post_init__(self):
        if self.kind not in (UNILATERAL, BILATERAL):
            raise ParameterError(f"unknown window kind {self.kind!r}")
        if self.N < 1:
            raise ParameterError("window size N must be at least 1")
        if not 0 <= self.padding < self.N:
            raise ParameterError("padding must satisfy 0 <= padding < N")

    @classmethod
    def unilateral(cls, N: int, padding: int | None = None) -> "TruncationWindow":
        return cls(UNILATERAL, N, N // 4 if padding is None else padding)

    @classmethod
    def bilateral(cls, N: int, padding: int | None = None) -> "TruncationWindow":
        return cls(BILATERAL, N, N // 4 if padding is None else padding)

    @property
    def lo(self) -> int:
        return 0 if self.kind == UNILATERAL else -self.N

    @property
    def hi(self) -> int:
        return self.N

    @property
    def size(self) -> int:
        return self.hi - self.lo + 1

    def indices(self) -> np.ndarray:
        return np.arange(self.lo, self.hi + 1)

    def contains(self, n: int) -> bool:
        return self.lo <= n <= self.hi

    def pos(self, n: int) -> int:
        """Array position of the basis index n."""
        if not self.contains(n):
            raise ParameterError(f"index {n} outside window [{self.lo}, {self.hi}]")
        return int(n - self.lo)

    def interior_positions(self) -> np.ndarray:
        """Array positions at distance >= padding from both window ends."""
        return np.arange(self.padding, self.size - self.padding)

    def interior_indices(self) -> np.ndarray:
        return self.interior_positions() + self.lo

    def with_padding(self, padding: int) -> "TruncationWindow":
        return TruncationWindow(self.kind, self.N, padding)

    def same_lattice(self, other: "TruncationWindow") -> bool:
        return self.kind == other.kind and self.N == other.N


_SCAN = object()


@dataclass(frozen=True, eq=False)
class OperatorMatrix:
    """Immutable square matrix over a window's basis indices."""

    data: np.ndarray
    window: TruncationWindow
    basis: str = MONOMIAL

    def __post_init__(self):
        self._seal(np.array(self.data, dtype=np.complex128))

    @classmethod
    def _adopt(cls, data, window: TruncationWindow, basis: str = MONOMIAL, offset=_SCAN) -> "OperatorMatrix":
        """The constructor's checks without its copy, for an array just allocated
        and referenced nowhere else.  ``offset`` records ``single_diagonal``: None,
        or the diagonal m that holds every nonzero entry; left out, it is scanned."""
        out = object.__new__(cls)
        object.__setattr__(out, "window", window)
        object.__setattr__(out, "basis", basis)
        out._seal(np.asarray(data, dtype=np.complex128))
        if offset is None:
            out.__dict__["single_diagonal"] = None
        elif offset is not _SCAN:
            d = np.diagonal(out.data, offset)
            out.__dict__["single_diagonal"] = (offset, d) if d.any() else (0, np.diagonal(out.data))
        return out

    def _seal(self, arr: np.ndarray) -> None:
        if arr.shape != (self.window.size, self.window.size):
            raise WindowMismatchError(
                f"matrix shape {arr.shape} does not match window size {self.window.size}"
            )
        if not np.isfinite(arr).all():
            raise ParameterError("non-finite matrix entries")
        if self.basis not in (MONOMIAL, ORTHONORMAL):
            raise ParameterError(f"unknown basis tag {self.basis!r}")
        arr.setflags(write=False)
        object.__setattr__(self, "data", arr)

    # -- constructors ----------------------------------------------------

    @classmethod
    def identity(cls, window: TruncationWindow, basis: str = MONOMIAL) -> "OperatorMatrix":
        return cls.from_band(window, 0, np.ones(window.size), basis)

    @classmethod
    def zeros(cls, window: TruncationWindow, basis: str = MONOMIAL) -> "OperatorMatrix":
        return cls.from_band(window, 0, np.zeros(window.size), basis)

    @classmethod
    def from_band(
        cls, window: TruncationWindow, m: int, diagonal, basis: str = MONOMIAL
    ) -> "OperatorMatrix":
        """Operator whose only nonzero entries lie on diagonal m; inverse of
        ``single_diagonal``.

        Entry k of ``diagonal`` goes to (k + max(-m, 0), k + max(m, 0)), as
        ``np.diagonal`` orders it, so its length is max(size - |m|, 0).
        """
        m = int(m)
        d = np.asarray(diagonal, dtype=np.complex128)
        size = window.size
        length = max(size - abs(m), 0)
        if d.shape != (length,):
            raise WindowMismatchError(
                f"diagonal {m} of a size-{size} window needs {length} entries, got shape {d.shape}"
            )
        data = np.zeros((size, size), dtype=np.complex128)
        k = np.arange(d.size)
        data[k + max(-m, 0), k + max(m, 0)] = d
        return cls._adopt(data, window, basis, m)

    # -- bookkeeping -----------------------------------------------------

    def _require_compatible(self, other: "OperatorMatrix") -> None:
        if not self.window.same_lattice(other.window) or self.basis != other.basis:
            raise WindowMismatchError("operands live on different windows or bases")

    def entry(self, row: int, col: int) -> complex:
        """Entry addressed by basis indices (not array positions)."""
        return complex(self.data[self.window.pos(row), self.window.pos(col)])

    # -- algebra -----------------------------------------------------------

    def __add__(self, other: "OperatorMatrix") -> "OperatorMatrix":
        self._require_compatible(other)
        return OperatorMatrix._adopt(self.data + other.data, self.window, self.basis)

    def __sub__(self, other: "OperatorMatrix") -> "OperatorMatrix":
        self._require_compatible(other)
        return OperatorMatrix._adopt(self.data - other.data, self.window, self.basis)

    def __neg__(self) -> "OperatorMatrix":
        return OperatorMatrix._adopt(-self.data, self.window, self.basis)

    def __mul__(self, scalar) -> "OperatorMatrix":
        return OperatorMatrix._adopt(self.data * complex(scalar), self.window, self.basis)

    __rmul__ = __mul__

    def __truediv__(self, scalar) -> "OperatorMatrix":
        return OperatorMatrix._adopt(self.data / complex(scalar), self.window, self.basis)

    def __matmul__(self, other: "OperatorMatrix") -> "OperatorMatrix":
        """Matrix product; O(N^2) when either operand has a single diagonal."""
        self._require_compatible(other)
        left, right = self.single_diagonal, other.single_diagonal
        if left is None and right is None:
            return OperatorMatrix._adopt(self.data @ other.data, self.window, self.basis, None)
        # entry k of diagonal m sits at (r0 + k, c0 + k)
        m, d = left if left is not None else right
        r0, c0, k = max(-m, 0), max(m, 0), d.size
        out = np.zeros_like(self.data)
        if left is not None:
            np.multiply(d[:, None], other.data[c0 : c0 + k], out=out[r0 : r0 + k])
        else:
            np.multiply(self.data[:, r0 : r0 + k], d[None, :], out=out[:, c0 : c0 + k])
        offset = _SCAN if left is None or right is None else left[0] + right[0]
        return OperatorMatrix._adopt(out, self.window, self.basis, offset)

    @functools.cached_property
    def single_diagonal(self) -> tuple[int, np.ndarray] | None:
        """(m, np.diagonal(data, m)) when every nonzero entry lies on diagonal m.

        None when two diagonals carry nonzero entries.  The zero matrix reads
        as diagonal 0.  ``from_band``, ``solve``, ``mat_exp`` and products of two
        dense or two banded operands record it; others are scanned once.
        (``np.unique`` is avoided: its first call imports ``numpy.ma``, about
        20 ms in every fresh process.)
        """
        a = self.data
        if np.count_nonzero(a) > a.shape[0]:
            return None
        rows, cols = np.nonzero(a)
        offsets = cols - rows
        if np.any(offsets != offsets[:1]):
            return None
        m = int(offsets[0]) if offsets.size else 0
        return m, np.diagonal(a, m)

    @property
    def H(self) -> "OperatorMatrix":
        """Conjugate transpose."""
        return OperatorMatrix._adopt(self.data.conj().T, self.window, self.basis)


@dataclass(frozen=True, eq=False)
class _Spectrum:
    """e^{tX} data for one tridiagonal generator X.

    ``values`` and the even and odd rows of Q diagonalize the real symmetric
    tridiagonal Hr = Q Lambda Q^T, and e^{tX} is D (cos tHr - i sin tHr) D^-1
    with D = diag(``phases``).  The phases are X's own; the rest is shared
    by every generator with the same Hr.
    """

    values: np.ndarray
    even: np.ndarray
    odd: np.ndarray
    phases: np.ndarray


#: Hr's off-diagonal, as bytes -> (values, even rows, odd rows) of its eigh
_spectra: dict = {}


def _band_form(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Hr's off-diagonal and the phases of a skew-Hermitian generator on the +-1 diagonals.

    H = i X is Hermitian tridiagonal with zero diagonal.  The unit phases
    u_k = H[k+1, k] / |H[k+1, k]| (1 across a seam) multiply up to D = diag(d),
    and Hr = D^-1 H D is real symmetric with off-diagonal |H[k+1, k]|.  The
    similarity keeps D^-1, not D^H: over long chains |d_k| drifts off 1.
    """
    upper, lower = np.diagonal(a, 1), np.diagonal(a, -1)
    if np.count_nonzero(a) != np.count_nonzero(upper) + np.count_nonzero(lower):
        raise NotSkewAdjointError("generator is not supported on the first off-diagonals")
    residue = float(np.max(np.abs(lower + upper.conj())))
    if not residue <= SKEW_TOL * max(float(np.max(np.abs(upper))), float(np.max(np.abs(lower)))):
        raise NotSkewAdjointError(
            f"generator is not skew-Hermitian (residue {residue:.3e}): its basis norms do not match its action"
        )
    h = 1j * lower
    mod = np.abs(h)
    u = np.divide(h, mod, out=np.ones_like(h), where=mod != 0.0)
    return mod, np.concatenate(([1.0 + 0j], np.cumprod(u)))


def _spectrum(X: OperatorMatrix) -> _Spectrum:
    """Spectral data of a tridiagonal X: its own checks and phases, run before
    the lookup so that a hit never vouches for X, and the real eigh of Hr
    cached on Hr's content, which L and M of one family and window share."""
    mod, phases = _band_form(X.data)
    key = mod.tobytes()
    hit = _spectra.pop(key, None)
    if hit is None:
        values, q = np.linalg.eigh(np.diag(mod, 1) + np.diag(mod, -1))
        hit = values, np.ascontiguousarray(q[0::2]), np.ascontiguousarray(q[1::2])
    _spectra[key] = hit
    while len(_spectra) > GENERATOR_CACHE_SIZE:
        del _spectra[next(iter(_spectra))]
    return _Spectrum(*hit, phases)


def _parity_blocks(spec: _Spectrum, t: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """cos tHr on the even positions, cos tHr on the odd ones, and sin tHr from
    even to odd positions: three real half-size products.  Hr links only even
    positions to odd ones, so cos tHr has no even-odd entries and sin tHr
    (symmetric) only those."""
    cos, sin = np.cos(t * spec.values), np.sin(t * spec.values)
    qe, qo = spec.even, spec.odd
    return (qe * cos) @ qe.T, (qo * cos) @ qo.T, (qe * sin) @ qo.T


def mat_exp(X: OperatorMatrix, t: float = 1.0) -> OperatorMatrix:
    """e^{tX} for a skew-Hermitian diagonal or tridiagonal generator.

    Either must be skew-Hermitian to ``SKEW_TOL`` relative to its largest
    entry.  A diagonal X (|Re d| within that bound) takes the scalar
    exponentials, which are then unimodular.  A tridiagonal X must live on
    the +-1 diagonals; then e^{tX} = D (cos tHr - i sin tHr) D^-1 with
    Hr = Q Lambda Q^T real (see ``_band_form``): one real eigh per family
    and window, cached for the last few (see ``_spectrum``), and each t
    costs the three real half-size products of ``_parity_blocks``.  Any
    other generator raises ``NotSkewAdjointError``, as does one built in
    the orthonormal basis of norms that do not match its action.
    """
    t = float(t)
    band = X.single_diagonal
    if band is not None and band[0] == 0:
        d = band[1]
        residue = float(np.max(np.abs(d.real)))
        if not residue <= SKEW_TOL * float(np.max(np.abs(d))):
            raise NotSkewAdjointError(f"diagonal generator is not skew-Hermitian (real part {residue:.3e})")
        return OperatorMatrix.from_band(X.window, 0, np.exp(t * d), X.basis)
    spec = _spectrum(X)
    cos_even, cos_odd, sin_eo = _parity_blocks(spec, t)
    out = np.zeros(X.data.shape, dtype=np.complex128)
    out.real[0::2, 0::2] = cos_even
    out.real[1::2, 1::2] = cos_odd
    out.imag[0::2, 1::2] = -sin_eo
    out.imag[1::2, 0::2] = -sin_eo.T
    out *= spec.phases[:, None]
    out /= spec.phases[None, :]
    return OperatorMatrix._adopt(out, X.window, X.basis, None)


def solve(A: OperatorMatrix, B: OperatorMatrix, *, cond_limit: float = COND_LIMIT) -> OperatorMatrix:
    """X with A X = B, refused when the 1-norm condition estimate is untrustworthy.

    The estimate needs A^{-1}, so B = I returns that inverse without a
    second factorization.
    """
    A._require_compatible(B)
    a = np.asarray(A.data)
    with np.errstate(all="ignore"):
        try:
            inv = np.linalg.inv(a)
        except np.linalg.LinAlgError as exc:
            raise SingularMatrixError(math.inf, "matrix is singular to machine precision") from exc
        estimate = float(np.linalg.norm(a, 1)) * float(np.linalg.norm(inv, 1))
    if not estimate < cond_limit:
        raise SingularMatrixError(estimate)
    band = B.single_diagonal
    if band is not None and band[0] == 0 and np.all(band[1] == 1.0):
        return OperatorMatrix._adopt(inv, A.window, A.basis, None)
    x = np.linalg.solve(a, B.data)
    return OperatorMatrix._adopt(x, A.window, A.basis, None)


def _interior_positions(A: OperatorMatrix, w: TruncationWindow) -> np.ndarray:
    """The interior positions of w, checked to be non-empty and to fit A."""
    if not A.window.same_lattice(w):
        raise WindowMismatchError("matrix window does not match the measurement window")
    p = w.interior_positions()
    if p.size == 0:
        raise EmptyInteriorError(f"padding {w.padding} leaves no interior in a size-{w.size} window")
    return p


def _interior_block(A: OperatorMatrix, w: TruncationWindow) -> np.ndarray:
    p = _interior_positions(A, w)
    return A.data[np.ix_(p, p)]


def interior_norm(A: OperatorMatrix, w: TruncationWindow) -> float:
    """Frobenius norm of the sub-block with interior row AND column indices."""
    return float(np.linalg.norm(_interior_block(A, w)))


def _require_power_of_two(n: int) -> None:
    if n < 1 or n & (n - 1):
        raise ParameterError(f"sample count {n} is not a power of two")
