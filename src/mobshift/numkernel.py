"""Linear-algebra kernels shared by every other module.

Matrices live on an explicit truncation window and carry a basis tag, so a
bookkeeping mistake fails fast at one of two doors, ``TruncationWindow.require``
(a window of another index set) and ``OperatorMatrix._require_on`` (an operator
off a window's lattice or basis).  Operators are read-only complex128, and their
algebra runs on their nonzero diagonals, which every library builder of a shift,
Gram or generator states; the dense array is built only when read.  A result
that fills the window (``mat_exp``'s, ``solve``'s, the circle route's) is stored
dense as read-only data, read through ``data``, ``block``, ``diagonal`` and
``entry``; ``single_diagonal``, a shift's one door, refuses it.  ``mat_exp`` takes
skew-Hermitian generators on the +-1 diagonals in an orthonormal basis, reads
only those two bands, and works in real arithmetic from one cached real eigh
per family and window (L and M share it); it keeps half of that spectrum, the
reflection of the other half.  ``_conjugated_block`` reads that spectrum for a
block of R T R^-1, R = ``mat_exp``'s, for a shift T, and builds no R.  The
interior certificates sum their norms over tiles of ``TILE`` interior rows or
columns, so none of them holds a window-sized temporary, the normalizer's
commutator included: it and homogeneity are one kernel, ``_shift_residual``.

``np`` is the package's one binding of numpy, which every other module takes
from here (``from .numkernel import np``): a module that loads numpy on the
first read of one of its attributes, or numpy itself when it is loaded
already.  So a command that forms no array (a refusal, ``verify lemmas``,
``weights``, ``classify``) never imports numpy.  An ``import
numpy`` statement would load it at once, even under a lazy loader, because
the import system reads the module's ``__spec__``.  ``bind_lazily`` makes
that binding, and ``cli`` binds the certificate modules with it too."""

from __future__ import annotations

import functools
import importlib.util
import math
import sys

from .errors import NumericsError, ParameterError, SingularMatrixError, WindowMismatchError, value_type

UNILATERAL = "unilateral"
BILATERAL = "bilateral"
MONOMIAL = "monomial"
ORTHONORMAL = "orthonormal"

#: refuse linear solves with a worse 1-norm condition estimate
COND_LIMIT = 1.0e8
#: largest skew-Hermitian residue, relative to the largest entry, that mat_exp accepts
SKEW_TOL = 1.0e-12
#: real spectra mat_exp keeps: every command reads L's, of one family and window
SPECTRUM_CACHE_SIZE = 1
#: interior rows or columns an interior certificate forms at once: its temporaries are O(N * TILE)
TILE = 64


def bind_lazily(name: str):
    """The module ``name`` from ``sys.modules``, or a module that executes it on its
    first attribute read, registered there (and on its parent package) so that every
    later import finds it."""
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec(name)
    if spec is None:
        raise ModuleNotFoundError(f"No module named {name!r}", name=name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    parent, _, child = name.rpartition(".")
    if parent:
        setattr(sys.modules[parent], child, module)
    return module


np = bind_lazily("numpy")


@value_type
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

    def require(self, kind: str) -> None:
        """Refuse, with ``WindowMismatchError``, a window of another index set than ``kind``."""
        if self.kind != kind:
            raise WindowMismatchError(f"a {self.kind} window where the {kind} index set is needed")


def _scan(a: np.ndarray) -> int | None:
    """The diagonal that holds every nonzero entry of a (0 when there is none), or None."""
    rows, cols = np.nonzero(a)
    offsets = cols - rows
    if np.any(offsets != offsets[:1]):
        return None
    return int(offsets[0]) if offsets.size else 0


def _freeze(a: np.ndarray) -> np.ndarray:
    if not np.isfinite(a).all():
        raise ParameterError("non-finite matrix entries")
    a.setflags(write=False)
    return a


def _rows(m: int, d: np.ndarray, n: int) -> np.ndarray:
    """Diagonal m of a size-n matrix by row, 3n long: entry n + i is the (i, i + m) entry, 0 off the window."""
    return np.pad(d, (n + max(-m, 0), n + max(m, 0)))


@value_type(eq=False, hide=("bands",))
class OperatorMatrix:
    """Immutable square matrix over a window's basis indices.

    ``bands`` maps offsets m to the nonzero diagonals m, as ``np.diagonal``
    orders them, so it holds every nonzero entry and the zero matrix has none.
    Every library builder that knows its operator's diagonals states them, and
    they are then its storage: ``data``, the dense read-only array, is built
    from them on first read and kept.  An operator without bands (None) stores
    ``data`` itself, as read-only data: its algebra raises ``ParameterError``.
    The public constructor copies its array and scans it once; a single
    diagonal becomes its one band, and anything else stays dense.
    """

    window: TruncationWindow
    basis: str
    bands: dict[int, np.ndarray] | None

    def __init__(self, data, window: TruncationWindow, basis: str = MONOMIAL):
        data = np.array(data, dtype=np.complex128)
        m = _scan(data) if data.shape == (window.size, window.size) else None
        self._init(window, basis, data, None if m is None else {m: np.diagonal(data, m)})

    @classmethod
    def _adopt(cls, window: TruncationWindow, basis: str, data=None, bands=None) -> "OperatorMatrix":
        """The constructor's checks without its copy or its scan, for a fresh ``data``
        array or fresh ``bands`` referenced nowhere else."""
        out = object.__new__(cls)
        out._init(window, basis, data, bands)
        return out

    def _init(self, window: TruncationWindow, basis: str, data, bands) -> None:
        object.__setattr__(self, "window", window)
        object.__setattr__(self, "basis", basis)
        if basis not in (MONOMIAL, ORTHONORMAL):
            raise ParameterError(f"unknown basis tag {basis!r}")
        size = window.size
        if data is not None:
            if data.shape != (size, size):
                raise WindowMismatchError(f"matrix shape {data.shape} does not match window size {size}")
            object.__setattr__(self, "data", _freeze(data))
        if bands is not None:
            bands = {int(m): _freeze(np.asarray(d, dtype=np.complex128)) for m, d in bands.items()}
            for m, d in bands.items():
                if d.shape != (max(size - abs(m), 0),):
                    raise WindowMismatchError(f"diagonal {m} of a size-{size} window needs {max(size - abs(m), 0)} entries, got shape {d.shape}")
        object.__setattr__(self, "bands", None if bands is None else {m: d for m, d in bands.items() if d.any()})

    @functools.cached_property
    def data(self) -> np.ndarray:
        """The dense matrix, read-only; built from ``bands`` on first read."""
        return self.block(0, self.window.size)

    def block(self, lo: int, hi: int) -> np.ndarray:
        """Rows and columns lo..hi-1 (array positions), read-only: a view of ``data``
        when it is stored or already built, else built from the bands without it."""
        if self.bands is None or "data" in self.__dict__:
            return self.data[lo:hi, lo:hi]
        out = np.zeros((hi - lo,) * 2, dtype=np.complex128)
        for m, d in self.bands.items():
            # entry k of diagonal m sits at (k + max(-m, 0), k + max(m, 0))
            k = np.arange(lo, hi - abs(m))
            out[k + max(-m, 0) - lo, k + max(m, 0) - lo] = d[k]
        out.setflags(write=False)
        return out

    @property
    def single_diagonal(self) -> tuple[int, np.ndarray]:
        """(m, diagonal m) of a shift, whose ``bands`` hold at most one band (the zero matrix reads
        as diagonal 0): a certificate's one door to its T, so any other operator raises ``ParameterError``."""
        if self.bands is None or len(self.bands) > 1:
            raise ParameterError("expected a shift: T needs its nonzero entries on a single diagonal")
        return next(iter(self.bands.items()), (0, np.zeros(self.window.size, dtype=np.complex128)))

    def diagonal(self, m: int) -> np.ndarray:
        """Diagonal m as ``np.diagonal`` orders it: entry k sits at (k + max(-m, 0), k + max(m, 0))."""
        if self.bands is None:
            return np.diagonal(self.data, m)
        band = self.bands.get(m)
        return np.zeros(max(self.window.size - abs(m), 0), dtype=np.complex128) if band is None else band

    # -- constructors ----------------------------------------------------

    @classmethod
    def identity(cls, window: TruncationWindow, basis: str = MONOMIAL) -> "OperatorMatrix":
        return cls.from_band(window, 0, np.ones(window.size), basis)

    @classmethod
    def from_band(cls, window: TruncationWindow, m: int, diagonal, basis: str = MONOMIAL) -> "OperatorMatrix":
        """Operator whose only nonzero entries lie on diagonal m, stored as that one
        band (a copy of ``diagonal``); inverse of ``single_diagonal``.

        Entry k of ``diagonal`` goes to (k + max(-m, 0), k + max(m, 0)), as
        ``np.diagonal`` orders it, so its length is max(size - |m|, 0).
        """
        return cls._adopt(window, basis, bands={int(m): np.array(diagonal, dtype=np.complex128)})

    # -- bookkeeping -----------------------------------------------------

    def _require_on(self, window: TruncationWindow, basis: str | None = None) -> None:
        """Refuse, with ``WindowMismatchError``, an operator off ``window``'s lattice (kind, N), or off ``basis`` if named."""
        on, need = (self.window.kind, self.window.N, self.basis), (window.kind, window.N, basis or self.basis)
        if on != need:
            raise WindowMismatchError(f"an operator of (kind, N, basis) {on} where {need} is needed")

    def entry(self, row: int, col: int) -> complex:
        """Entry addressed by basis indices (not array positions)."""
        i, j = self.window.pos(row), self.window.pos(col)
        return complex(self.diagonal(j - i)[min(i, j)])

    # -- algebra -----------------------------------------------------------

    def _banded(self) -> dict[int, np.ndarray]:
        """The bands, which all algebra reads: an operator stored dense (a result that
        fills the window) is read-only data, and algebra on it is refused here."""
        if self.bands is None:
            raise ParameterError("a dense operator is read-only data: its algebra is not supported")
        return self.bands

    def _entrywise(self, f) -> "OperatorMatrix":
        """f of every band; f must keep 0 at 0 (0 * inf, say, is refused as non-finite)."""
        bands = self._banded()
        if f(np.zeros(1)).any():
            raise ParameterError("non-finite matrix entries")
        return OperatorMatrix._adopt(self.window, self.basis, bands={m: f(d) for m, d in bands.items()})

    def _combine(self, other: "OperatorMatrix", f) -> "OperatorMatrix":
        other._require_on(self.window, self.basis)
        offsets = self._banded().keys() | other._banded().keys()
        return OperatorMatrix._adopt(
            self.window, self.basis, bands={m: f(self.diagonal(m), other.diagonal(m)) for m in offsets}
        )

    def __add__(self, other: "OperatorMatrix") -> "OperatorMatrix":
        return self._combine(other, np.add)

    def __sub__(self, other: "OperatorMatrix") -> "OperatorMatrix":
        return self._combine(other, np.subtract)

    def __neg__(self) -> "OperatorMatrix":
        return self._entrywise(np.negative)

    def __mul__(self, scalar) -> "OperatorMatrix":
        c = complex(scalar)
        return self._entrywise(lambda a: a * c)

    __rmul__ = __mul__

    def __truediv__(self, scalar) -> "OperatorMatrix":
        c = complex(scalar)
        return self._entrywise(lambda a: a / c)

    def __matmul__(self, other: "OperatorMatrix") -> "OperatorMatrix":
        """Matrix product of the bands: O(N) per pair of bands."""
        other._require_on(self.window, self.basis)
        n = self.window.size
        right, bands = {q: _rows(q, b, n) for q, b in other._banded().items()}, {}
        for m, a in self._banded().items():
            a = _rows(m, a, n)
            for q, b in right.items():
                # (A B)[i, i + m + q] = A[i, i + m] B[i + m, i + m + q] on the rows of diagonal m + q
                i = np.arange(n + max(-m - q, 0), 2 * n - max(m + q, 0))
                term = a[i] * b[i + m]
                bands[m + q] = bands[m + q] + term if m + q in bands else term
        return OperatorMatrix._adopt(self.window, self.basis, bands=bands)

    @property
    def H(self) -> "OperatorMatrix":
        """Conjugate transpose."""
        return OperatorMatrix._adopt(self.window, self.basis, bands={-m: d.conj() for m, d in self._banded().items()})


def _band_form(X: "OperatorMatrix") -> tuple[np.ndarray, np.ndarray]:
    """Hr's off-diagonal and the phases of a skew-Hermitian generator X on the +-1
    diagonals, read from those two bands.

    H = i X is Hermitian tridiagonal with zero diagonal.  The unit phases
    u_k = H[k+1, k] / |H[k+1, k]| (1 across a seam) multiply up to D = diag(d),
    and Hr = D^-1 H D is real symmetric with off-diagonal |H[k+1, k]|.  The
    similarity keeps D^-1, not D^H: over long chains |d_k| drifts off 1.
    """
    if X.bands is None or not X.bands.keys() <= {-1, 1}:
        raise NumericsError("generator is not stored as bands on the first off-diagonals")
    upper, lower = X.diagonal(1), X.diagonal(-1)
    residue = float(np.max(np.abs(lower + upper.conj())))
    if not residue <= SKEW_TOL * max(float(np.max(np.abs(upper))), float(np.max(np.abs(lower)))):
        raise NumericsError(
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
    eigenvectors, scaled to unit columns: half of the spectrum, the reflection of
    the other half.

    P = diag((-1)^k) reflects Hr, P Hr P = -Hr, so each eigenpair (lambda > 0, q)
    has the partner (-lambda, P q), orthogonal to it, and the rest is Hr's kernel.
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


def _parity_blocks(X: OperatorMatrix, t: float) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """cos tHr on the even positions, cos tHr on the odd ones, sin tHr from even to
    odd positions (Hr links only even to odd), and the phases d of e^{tX} = D (cos tHr
    - i sin tHr) D^-1, D = diag(d): X's own checks (``_band_form``) run before the
    lookup of ``_real_eigh``, so a cache hit never vouches for X, and a t lambda past
    the double range raises ``NumericsError`` before any sine.

    Three real half-size products over the positive half of the spectrum: with u and
    v the unit even and odd halves of q, a pair (lambda, q) and its partner
    (-lambda, P q) add sin(t lambda) u v^T to sin tHr, and (1 - cos t lambda) u u^T
    and v v^T to I - cos tHr; the kernel adds to neither.  Near 0, rounding mixes q
    with its partner and the kernel by about eps ||Hr|| / lambda, but these weights
    are of order lambda^2, so the mixing does not reach the blocks."""
    mod, phases = _band_form(X)
    values, u, v = _real_eigh(mod.tobytes())
    if not np.isfinite(tv := t * values).all():
        raise NumericsError(f"the generator's spectrum times t = {t:g} overflows double precision")
    # the weight 1 - cos t lambda = a^2 with a = sqrt(2) |sin(t lambda / 2)|, so each
    # block is I - (w a)(w a)^T: one operand read twice, which BLAS forms as syrk
    root = np.sqrt(2.0) * np.abs(np.sin(0.5 * tv))
    blocks = []
    for w in (u, v):
        wa = w * root
        block = wa @ wa.T
        np.negative(block, out=block)
        block.flat[:: block.shape[0] + 1] += 1.0
        blocks.append(block)
    return *blocks, (u * np.sin(tv)) @ v.T, phases


def mat_exp(X: OperatorMatrix, t: float = 1.0, left=1.0, right=1.0) -> OperatorMatrix:
    """diag(left) e^{tX} diag(right) for a skew-Hermitian generator X on the
    +-1 diagonals; the diagonals (1 by default) ride on the phase scaling by D.
    Only X's two bands are read; the window sizes the one dense array, the result.

    X must be skew-Hermitian to ``SKEW_TOL`` relative to its largest entry;
    then e^{tX} = D (cos tHr - i sin tHr) D^-1 with Hr = Q Lambda Q^T real
    (see ``_band_form``): one real eigh per family and window, whose positive
    half is cached for the last one (see ``_real_eigh``), and each t costs the
    three real half-size products of ``_parity_blocks``.  Any other generator
    raises ``NumericsError``, a diagonal one too (callers take its scalar
    exponentials), as do one stored dense and one built in the orthonormal
    basis of norms that do not match its action.
    """
    cos_even, cos_odd, sin_eo, phases = _parity_blocks(X, float(t))
    out = np.zeros((X.window.size,) * 2, dtype=np.complex128)
    out.real[0::2, 0::2] = cos_even
    out.real[1::2, 1::2] = cos_odd
    out.imag[0::2, 1::2] = -sin_eo
    out.imag[1::2, 0::2] = -sin_eo.T
    out *= (left * phases)[:, None]
    out /= (phases / right)[None, :]
    return OperatorMatrix._adopt(X.window, X.basis, data=out)


def _conjugated_block(X: OperatorMatrix, t: float, T: OperatorMatrix, lo: int, hi: int, classes, left=1.0, right=1.0) -> np.ndarray:
    """Rows and columns lo..hi-1 of R T R^-1 for R = ``mat_exp(X, t, left, right)`` and a
    shift T on diagonal m, on the entries of the given classes, without R.

    ``mat_exp`` forms R = diag(a) E diag(b)^-1, a = left d and b = d / right for X's phases d
    and E = C - iS (``_parity_blocks``), so R T R^-1 = diag(a) E T' E^H diag(a)^-1 for the
    shift T' = diag(b)^-1 T diag(b).  C keeps the parity of a position and S swaps it, so
    class 0, where i + j + m is even, holds C T' C + S T' S, and class 1 i (C T' S - S T' C).
    One tile of ``TILE`` block columns of one parity cp at a time: those columns of C and S,
    T' S and T' C as a row shift and scaling of them, and for class q their products with
    the block's rows of parity (q + cp + m) % 2 of C and S: O(|B|^2 n) per class, with
    temporaries of O(N * TILE).  The block's rows are then scaled by a, its columns by 1 / a.
    """
    m, band = T.single_diagonal
    cos_even, cos_odd, sin_eo, d = _parity_blocks(X, float(t))
    a, b, n, r0, c0, k = left * d, d / right, d.size, max(-m, 0), max(m, 0), band.size
    band = (band / b[r0 : r0 + k] * b[c0 : c0 + k])[:, None]
    # the block's even and odd positions as rows of the parity blocks, and the rows of C
    # and of S that reach the block's rows of each parity
    half = (slice((lo + 1) // 2, (hi + 1) // 2), slice(lo // 2, hi // 2))
    rows = ((cos_even[half[0]], sin_eo[half[0]]), (cos_odd[half[1]], sin_eo[:, half[1]].T))
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
                # C (T' C) + S (T' S) for class 0, C (T' S) - S (T' C) for class 1, the second in place
                out = rows[rp][0] @ (ts if q else tc)[rp::2]
                (np.subtract if q else np.add)(out, rows[rp][1] @ (tc if q else ts)[1 - rp :: 2], out=out)
                np.multiply(out.view(np.complex128), 1j if q else 1.0, out=block[(rp - lo) % 2 :: 2, cols])
            del c, s, tc, ts, out  # before the next tile's arrays are allocated
    block *= a[lo:hi, None]
    block *= 1.0 / a[lo:hi]
    return block


def solve(A: OperatorMatrix, B: OperatorMatrix) -> OperatorMatrix:
    """X with A X = B, refused when the 1-norm condition estimate reaches ``COND_LIMIT``.

    The estimate needs A^{-1}, so B = I returns that inverse without a
    second factorization.
    """
    B._require_on(A.window, A.basis)
    a = np.asarray(A.data)
    with np.errstate(all="ignore"):
        try:
            inv = np.linalg.inv(a)
        except np.linalg.LinAlgError as exc:
            raise SingularMatrixError(math.inf, "matrix is singular to machine precision") from exc
        estimate = float(np.linalg.norm(a, 1)) * float(np.linalg.norm(inv, 1))
    if not estimate < COND_LIMIT:
        raise SingularMatrixError(estimate)
    identity = B.bands is not None and B.bands.keys() == {0} and np.all(B.bands[0] == 1.0)
    return OperatorMatrix._adopt(A.window, A.basis, data=inv if identity else np.linalg.solve(a, B.data))


def _interior_bounds(A: OperatorMatrix, w: TruncationWindow) -> tuple[int, int]:
    """(p0, p1): the interior positions p0..p1-1 of w, checked to be non-empty and to fit A."""
    A._require_on(w)
    p0, p1 = w.padding, w.size - w.padding
    if p0 >= p1:
        raise ParameterError(f"padding {w.padding} leaves no interior in a size-{w.size} window")
    return p0, p1


def _tiles(lo: int, hi: int):
    """Consecutive ranges (a, b) of at most ``TILE`` positions that cover lo..hi-1."""
    return ((a, min(a + TILE, hi)) for a in range(lo, hi, TILE))


def _squared_norm(x: np.ndarray) -> float:
    """The sum of |x|^2 over all entries: the squared Frobenius norm."""
    return float(np.vdot(x, x).real)


def _shift_residual(x: np.ndarray, x0: int, t: np.ndarray, m: int, p0: int, p1: int, alpha=1, beta=0) -> float:
    """Frobenius norm over the interior positions p0..p1-1 of alpha X (T - beta I)
    - T X (I - conj(beta) T) for a shift T on diagonal m; (1, 0) gives [X, T].

    ``t`` is T's band by row over the window, as ``_rows(m, band, n)[n : 2n]``
    gives it; ``x`` is the block X[x0:x0+k, x0:x0+k], reaching |m| past the
    interior or to the window's end.  (X T)'s column j is X's column j - m times
    t[j - m] and (T Y)'s row i is t[i] Y[i + m]; an index off the block is off
    the window, where t is 0.  One tile of ``TILE`` interior columns at a time."""
    # positions within the block from here on
    k, t, p0, p1 = x.shape[0], t[x0 : x0 + x.shape[0]], p0 - x0, p1 - x0
    # the interior rows i whose i + m lies in the block
    ia = max(p0, -m)
    ib = max(min(p1, k - m), ia)
    total = 0.0
    for a, b in _tiles(p0, p1):
        # (X T)[:, j] on the tile's columns ja..jb-1, whose j - m lies in the block
        ja = max(a, m)
        jb = max(min(b, k + m), ja)
        xt = np.zeros((k, b - a), dtype=np.complex128)
        np.multiply(x[:, ja - m : jb - m], t[ja - m : jb - m], out=xt[:, ja - a : jb - a])
        # alpha (X T - beta X) on the interior rows
        residual = np.multiply(x[p0:p1, a:b], -beta)
        residual += xt[p0:p1]
        residual *= alpha
        # xt turns into Y = X - conj(beta) X T, and T Y's row i is t[i] Y[i + m, :]
        xt *= -beta.conjugate()
        xt += x[:, a:b]
        y = xt[ia + m : ib + m]
        residual[ia - p0 : ib - p0] -= np.multiply(y, t[ia:ib, None], out=y)
        total += _squared_norm(residual)
        del xt, residual, y  # before the next tile's arrays are allocated
    return math.sqrt(total)


def interior_norm(A: OperatorMatrix, w: TruncationWindow) -> float:
    """Frobenius norm of the sub-block with interior row AND column indices, from the
    interior stretch of each band: O(N)."""
    p0, p1 = _interior_bounds(A, w)
    # entry k of diagonal m has both indices in [p0, p1) for k in [p0, p1 - |m|)
    return math.sqrt(sum(_squared_norm(d[p0 : max(p1 - abs(m), p0)]) for m, d in A._banded().items()))
