"""Dense complex linear-algebra kernels shared by every other module.

Matrices live on an explicit truncation window and carry a basis tag, so
bookkeeping mistakes (mixing windows or bases) fail fast instead of producing
plausible-looking numbers.  Operators are dense complex128 and read-only; the
public constructor copies and scans its outside array for a single diagonal,
library builders state theirs.  ``mat_exp`` takes skew-Hermitian generators
on the +-1 diagonals in an orthonormal basis, reads no Gram, and works in
real arithmetic from one cached real eigh per family and window, which L and
M share; it keeps half of that spectrum, whose other half is the reflection
of the first by diag((-1)^n)."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

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
#: real spectra mat_exp keeps, one entry per family and window (L and M share one)
SPECTRUM_CACHE_SIZE = 3


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


def _scan(a: np.ndarray) -> int | None:
    """The diagonal that holds every nonzero entry of a (0 when there is none), or None."""
    rows, cols = np.nonzero(a)
    offsets = cols - rows
    if np.any(offsets != offsets[:1]):
        return None
    return int(offsets[0]) if offsets.size else 0


@dataclass(frozen=True, eq=False)
class OperatorMatrix:
    """Immutable square matrix over a window's basis indices; ``single_diagonal``,
    fixed when it is built, is (m, np.diagonal(data, m)) when every nonzero entry
    lies on diagonal m (the zero matrix reads as diagonal 0), else None."""

    data: np.ndarray
    window: TruncationWindow
    basis: str = MONOMIAL
    single_diagonal: tuple[int, np.ndarray] | None = field(init=False, repr=False)

    def __post_init__(self):
        self._seal(np.array(self.data, dtype=np.complex128))
        self._record(_scan(self.data))

    @classmethod
    def _adopt(cls, data, window: TruncationWindow, basis: str, offset: int | None) -> "OperatorMatrix":
        """The constructor's checks without its copy or its scan, for a fresh array
        referenced nowhere else; its builder states the ``offset``, m or None."""
        out = object.__new__(cls)
        object.__setattr__(out, "window", window)
        object.__setattr__(out, "basis", basis)
        out._seal(np.asarray(data, dtype=np.complex128))
        out._record(offset)
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

    def _record(self, m: int | None) -> None:
        band = None if m is None else (m, np.diagonal(self.data, m))
        if band is not None and not band[1].any():
            band = (0, np.diagonal(self.data))
        object.__setattr__(self, "single_diagonal", band)

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
        return OperatorMatrix._adopt(self.data + other.data, self.window, self.basis, None)

    def __sub__(self, other: "OperatorMatrix") -> "OperatorMatrix":
        self._require_compatible(other)
        return OperatorMatrix._adopt(self.data - other.data, self.window, self.basis, None)

    def __neg__(self) -> "OperatorMatrix":
        return OperatorMatrix._adopt(-self.data, self.window, self.basis, self.offset)

    def __mul__(self, scalar) -> "OperatorMatrix":
        return OperatorMatrix._adopt(self.data * complex(scalar), self.window, self.basis, self.offset)

    __rmul__ = __mul__

    def __truediv__(self, scalar) -> "OperatorMatrix":
        return OperatorMatrix._adopt(self.data / complex(scalar), self.window, self.basis, self.offset)

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
        offset = None if left is None or right is None else left[0] + right[0]
        return OperatorMatrix._adopt(out, self.window, self.basis, offset)

    @property
    def offset(self) -> int | None:
        """m of ``single_diagonal``, or None."""
        return None if self.single_diagonal is None else self.single_diagonal[0]

    @property
    def H(self) -> "OperatorMatrix":
        """Conjugate transpose."""
        offset = None if self.offset is None else -self.offset
        return OperatorMatrix._adopt(self.data.conj().T, self.window, self.basis, offset)


@dataclass(frozen=True, eq=False)
class _Spectrum:
    """e^{tX} = D (cos tHr - i sin tHr) D^-1 data for one tridiagonal generator X.

    D = diag(``phases``) is X's own; the rest is shared by every generator with
    the same Hr.  P = diag((-1)^k) reflects Hr, P Hr P = -Hr, so each eigenpair
    (lambda > 0, q) has the partner (-lambda, P q), orthogonal to it, and the
    rest is Hr's kernel.  ``values`` are the positive lambda, ``even`` and ``odd``
    the even and odd rows of their q, each column scaled to unit norm.
    """

    values: np.ndarray
    even: np.ndarray
    odd: np.ndarray
    phases: np.ndarray


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


@functools.lru_cache(maxsize=SPECTRUM_CACHE_SIZE)
def _real_eigh(off_diagonal: bytes) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The positive eigenvalues of the real symmetric tridiagonal Hr with these
    off-diagonal bytes and a zero diagonal, and the even and odd rows of their
    eigenvectors, scaled to unit columns.

    eigh sorts the values, so with a kernel of dimension d the positive ones
    are the last (n - d) / 2.  d needs no tolerance: the exact zeros of the
    off-diagonal cut Hr into irreducible blocks, and such a block is singular,
    with a simple zero eigenvalue, exactly when its length is odd.
    """
    mod = np.frombuffer(off_diagonal)
    n, k = mod.size + 1, np.arange(mod.size)
    hr = np.zeros((n, n))
    hr[k, k + 1] = hr[k + 1, k] = mod
    values, q = np.linalg.eigh(hr)
    lengths = np.diff(np.concatenate(([0], np.flatnonzero(mod == 0.0) + 1, [n])))
    first = n - (n - int(np.count_nonzero(lengths % 2))) // 2
    even, odd = q[0::2, first:], q[1::2, first:]
    return values[first:], even / np.linalg.norm(even, axis=0), odd / np.linalg.norm(odd, axis=0)


def _spectrum(X: OperatorMatrix) -> _Spectrum:
    """Spectral data of a tridiagonal X: its own checks and phases, run before
    the lookup so that a hit never vouches for X, and the real eigh of Hr
    cached on Hr's content, which L and M of one family and window share."""
    mod, phases = _band_form(X.data)
    return _Spectrum(*_real_eigh(mod.tobytes()), phases)


def _parity_blocks(spec: _Spectrum, t: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """cos tHr on the even positions, cos tHr on the odd ones, and sin tHr from
    even to odd positions (Hr links only even positions to odd ones): three real
    half-size products over the positive half of the spectrum.

    With u and v the unit even and odd halves of q, a pair (lambda, q) and its
    partner add sin(t lambda) u v^T to sin tHr, and (1 - cos t lambda) u u^T
    and v v^T to I - cos tHr; the kernel adds to neither.  Near 0, rounding
    mixes q with its partner and the kernel by about eps ||Hr|| / lambda, but
    these weights are of order lambda^2, so the mixing does not reach the blocks."""
    u, v, tv = spec.even, spec.odd, t * spec.values
    versine = 2.0 * np.sin(0.5 * tv) ** 2
    blocks = [(w * -versine) @ w.T for w in (u, v)]
    for block in blocks:
        block.flat[:: block.shape[0] + 1] += 1.0
    return *blocks, (u * np.sin(tv)) @ v.T


def mat_exp(X: OperatorMatrix, t: float = 1.0, left=1.0, right=1.0) -> OperatorMatrix:
    """diag(left) e^{tX} diag(right) for a skew-Hermitian generator X on the
    +-1 diagonals; the diagonals (1 by default) ride on the phase scaling by D.

    X must be skew-Hermitian to ``SKEW_TOL`` relative to its largest entry;
    then e^{tX} = D (cos tHr - i sin tHr) D^-1 with Hr = Q Lambda Q^T real
    (see ``_band_form``): one real eigh per family and window, whose positive
    half is cached for the last few (see ``_spectrum``), and each t costs the
    three real half-size products of ``_parity_blocks``.  Any other generator
    raises ``NotSkewAdjointError``, a diagonal one too (callers take its scalar
    exponentials), as does one built in the orthonormal basis of norms that do
    not match its action.
    """
    t = float(t)
    spec = _spectrum(X)
    cos_even, cos_odd, sin_eo = _parity_blocks(spec, t)
    out = np.zeros(X.data.shape, dtype=np.complex128)
    out.real[0::2, 0::2] = cos_even
    out.real[1::2, 1::2] = cos_odd
    out.imag[0::2, 1::2] = -sin_eo
    out.imag[1::2, 0::2] = -sin_eo.T
    out *= (left * spec.phases)[:, None]
    out /= (spec.phases / right)[None, :]
    return OperatorMatrix._adopt(out, X.window, X.basis, None)


def solve(A: OperatorMatrix, B: OperatorMatrix) -> OperatorMatrix:
    """X with A X = B, refused when the 1-norm condition estimate reaches ``COND_LIMIT``.

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
    if not estimate < COND_LIMIT:
        raise SingularMatrixError(estimate)
    identity = B.offset == 0 and np.all(B.single_diagonal[1] == 1.0)
    return OperatorMatrix._adopt(inv if identity else np.linalg.solve(a, B.data), A.window, A.basis, None)


def _interior_positions(A: OperatorMatrix, w: TruncationWindow) -> np.ndarray:
    """The interior positions of w, checked to be non-empty and to fit A."""
    if not A.window.same_lattice(w):
        raise WindowMismatchError("matrix window does not match the measurement window")
    p = w.interior_positions()
    if p.size == 0:
        raise EmptyInteriorError(f"padding {w.padding} leaves no interior in a size-{w.size} window")
    return p


def interior_norm(A: OperatorMatrix, w: TruncationWindow) -> float:
    """Frobenius norm of the sub-block with interior row AND column indices."""
    p = _interior_positions(A, w)
    return float(np.linalg.norm(A.data[np.ix_(p, p)]))


def _require_power_of_two(n: int) -> None:
    if n < 1 or n & (n - 1):
        raise ParameterError(f"sample count {n} is not a power of two")
