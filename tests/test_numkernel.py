import math

import numpy as np
import pytest

from mobshift import numkernel
from mobshift.errors import (
    NumericsError,
    ParameterError,
    SingularMatrixError,
    WindowMismatchError,
)
from mobshift.homogeneity import mobius_of_operator
from mobshift.mobius import MobiusElement
from mobshift.numkernel import (
    BILATERAL,
    ORTHONORMAL,
    UNILATERAL,
    OperatorMatrix,
    TruncationWindow,
    interior_norm,
    mat_exp,
    solve,
)
from mobshift.repn import Realization, RepnParams, generator_matrix, gram

from oracles import (
    as_bands,
    brute_interior_frobenius,
    circle_fft,
    circle_synthesis,
    pade_expm,
    random_dense,
    taylor_expm,
)


@pytest.fixture
def rng():
    return np.random.default_rng(20240901)


def window_of_size(size, padding=0):
    # unilateral windows give any size, bilateral only odd ones
    return TruncationWindow(UNILATERAL, size - 1, padding)


# ---------------------------------------------------------------- windows


def test_window_ranges():
    uni = TruncationWindow(UNILATERAL, 8, 2)
    bil = TruncationWindow(BILATERAL, 8, 2)
    assert (uni.lo, uni.hi, uni.size) == (0, 8, 9)
    assert (bil.lo, bil.hi, bil.size) == (-8, 8, 17)
    assert uni.pos(0) == 0 and uni.pos(8) == 8
    assert bil.pos(-8) == 0 and bil.pos(0) == 8
    assert list(bil.interior_positions() + bil.lo) == list(range(-6, 7))


def test_window_validation():
    with pytest.raises(ParameterError):
        TruncationWindow("circle", 4, 1)
    with pytest.raises(ParameterError):
        TruncationWindow(UNILATERAL, 0, 0)
    with pytest.raises(ParameterError):
        TruncationWindow(UNILATERAL, 4, 4)  # padding must stay below N
    with pytest.raises(ParameterError):
        TruncationWindow(UNILATERAL, 4, -1)


def test_pos_outside_window():
    w = TruncationWindow(UNILATERAL, 4, 1)
    with pytest.raises(ParameterError):
        w.pos(-1)


# ---------------------------------------------------------------- matrices


def test_matrix_shape_and_finiteness():
    w = window_of_size(3)
    with pytest.raises(WindowMismatchError):
        OperatorMatrix(np.zeros((2, 2)), w)
    bad = np.zeros((3, 3), dtype=complex)
    bad[0, 0] = np.nan
    with pytest.raises(ParameterError):
        OperatorMatrix(bad, w)
    # a band operator's zeros count too: 0 * inf is not finite, even where no band is stored
    with np.errstate(invalid="ignore", divide="ignore"), pytest.raises(ParameterError):
        OperatorMatrix.from_band(w, 0, np.zeros(w.size)) * np.inf
    with np.errstate(invalid="ignore", divide="ignore"), pytest.raises(ParameterError):
        OperatorMatrix.from_band(w, 1, np.ones(2)) / 0.0


def test_matrix_basis_bookkeeping(rng):
    w = window_of_size(4)
    a = OperatorMatrix(random_dense(rng, 4), w)
    b = OperatorMatrix(random_dense(rng, 4), w, ORTHONORMAL)
    with pytest.raises(WindowMismatchError):
        _ = a + b
    with pytest.raises(WindowMismatchError):
        _ = a @ b
    other = TruncationWindow(UNILATERAL, 4, 1)
    c = OperatorMatrix(random_dense(rng, 5), other)
    with pytest.raises(WindowMismatchError):
        _ = a + c


def test_matrix_entry_by_index():
    w = TruncationWindow(BILATERAL, 2, 0)
    m = OperatorMatrix.from_band(w, 0, [1, 2, 3, 4, 5])
    assert m.entry(-2, -2) == 1
    assert m.entry(2, 2) == 5
    assert m.entry(1, -1) == 0


def test_matrix_algebra(rng):
    w = window_of_size(5)
    a = as_bands(random_dense(rng, 5), w)
    b = as_bands(random_dense(rng, 5), w)
    np.testing.assert_allclose((a + b - b).data, a.data, atol=1e-14)
    np.testing.assert_allclose((2.0 * a).data, 2.0 * a.data)
    np.testing.assert_allclose((a @ b).data, a.data @ b.data)
    np.testing.assert_allclose(a.H.data, a.data.conj().T)


def test_matrix_data_is_immutable(rng):
    w = window_of_size(3)
    m = OperatorMatrix(random_dense(rng, 3), w)
    with pytest.raises(ValueError):
        m.data[0, 0] = 1.0


def test_public_constructor_copies_its_input(rng):
    w = window_of_size(3)
    raw = random_dense(rng, 3)
    m = OperatorMatrix(raw, w)
    raw[0, 0] = 7.0
    assert m.data[0, 0] != 7.0 and not np.shares_memory(m.data, raw)


def test_library_results_are_read_only(rng):
    w = TruncationWindow(BILATERAL, 4, 1)
    p = RepnParams(BILATERAL, 0.3, complex(0.35, 0.5))
    a = as_bands(random_dense(rng, w.size), w)
    b = as_bands(random_dense(rng, w.size), w)
    shift = OperatorMatrix.from_band(w, -1, np.arange(1.0, w.size))
    results = [
        a + b, a - b, -a, 2.0 * a, a * 2.0, a / 2.0, a @ b, a @ shift, shift @ a, shift @ shift, a.H,
        shift, OperatorMatrix.identity(w), OperatorMatrix.from_band(w, 0, np.zeros(w.size)),
        mat_exp(generator_matrix(p, "L", w), 0.1),
        solve(a, b), solve(a, OperatorMatrix.identity(w)),
        mobius_of_operator(MobiusElement(1.0, 0.2), shift), mobius_of_operator(MobiusElement(1.0, 0.2), 0.1 * a),
    ]
    for out in results:
        assert not out.data.flags.writeable
        with pytest.raises(ValueError):
            out.data[0, 0] = 1.0


def test_algebra_on_a_dense_result_is_refused(rng):
    # a result that fills the window (an exponential, a solve, the public constructor's
    # array of more than one diagonal) is read-only data: every algebra operation, on
    # either side, refuses it with one ParameterError, and its readers still work
    w = TruncationWindow(BILATERAL, 4, 1)
    p = RepnParams(BILATERAL, 0.3, complex(0.35, 0.5))
    L = Realization.plain(p).generator("L", w)
    shift = OperatorMatrix.from_band(w, -1, np.arange(1.0, w.size), ORTHONORMAL)
    raw = random_dense(rng, w.size) + 4.0 * np.eye(w.size)
    dense = [mat_exp(L, 0.1), OperatorMatrix(raw, w, ORTHONORMAL)]
    dense.append(solve(dense[1], dense[0]))
    operations = [
        lambda R: R + shift, lambda R: shift - R, lambda R: -R, lambda R: 2.0 * R, lambda R: R / 2.0,
        lambda R: R @ shift, lambda R: shift @ R, lambda R: R.H, lambda R: interior_norm(R, w),
    ]
    for R in dense:
        assert R.bands is None
        for operation in operations:
            with pytest.raises(ParameterError, match="read-only data"):
                operation(R)
        assert np.array_equal(R.block(1, 3), R.data[1:3, 1:3])
        assert np.array_equal(R.diagonal(-1), np.diagonal(R.data, -1))
        assert R.entry(2, 1) == R.data[w.pos(2), w.pos(1)]
    with pytest.raises(ParameterError, match="read-only data"):
        Realization.plain(p).orthonormal(OperatorMatrix(raw, w), w)


# ---------------------------------------------------------------- mat_exp


def test_mat_exp_zero_is_identity():
    w = window_of_size(5)
    out = mat_exp(OperatorMatrix.from_band(w, 0, np.zeros(w.size)))
    np.testing.assert_array_equal(out.data, np.eye(5))


def test_mat_exp_refuses_a_diagonal_generator():
    # the exponential of a diagonal is its scalar exponentials, which callers take themselves
    w = window_of_size(2)
    with pytest.raises(NumericsError, match="first off-diagonals"):
        mat_exp(OperatorMatrix.from_band(w, 0, 1j * np.array([0.1, -0.3])))


def test_mat_exp_refuses_a_dense_tridiagonal(rng):
    # the public constructor keeps a skew-Hermitian tridiagonal dense, as read-only data;
    # mat_exp reads a generator's two bands, so it refuses one stored without them
    lower = rng.standard_normal(7) + 1j * rng.standard_normal(7)
    w = window_of_size(8)
    dense = OperatorMatrix(np.diag(lower, -1) - np.diag(lower.conj(), 1), w)
    assert dense.bands is None
    with pytest.raises(NumericsError, match="first off-diagonals"):
        mat_exp(dense, 0.1)
    banded = OperatorMatrix.from_band(w, -1, lower) - OperatorMatrix.from_band(w, 1, lower.conj())
    assert np.array_equal(banded.data, dense.data)
    assert np.max(np.abs(mat_exp(banded, 0.1).data - pade_expm(0.1 * dense.data))) <= 1e-14


def test_pade_oracle_against_taylor_series(rng):
    # random non-normal matrices are outside mat_exp's domain; the Pade
    # oracle that cross-checks it is itself checked against Taylor sums
    raw = random_dense(rng, 6)
    raw /= max(1.0, np.linalg.norm(raw))
    expected = taylor_expm(raw, order=30)
    assert np.max(np.abs(pade_expm(raw) - expected)) <= 1e-12


def test_pade_oracle_inverse_property(rng):
    raw = random_dense(rng, 7)
    raw *= 2.0 / np.linalg.norm(raw)
    product = pade_expm(raw) @ pade_expm(-1.0 * raw)
    assert np.max(np.abs(product - np.eye(7))) <= 1e-10


def test_mat_exp_norm_guard():
    # a diagonal generator lies off the +-1 diagonals, so a real diagonal is
    # refused before any exponential is formed, whether it would overflow or not
    w = window_of_size(3)
    for a in (OperatorMatrix(np.eye(3) * 5e3, w), OperatorMatrix.from_band(w, 0, 0.5 * np.ones(3))):
        with pytest.raises(NumericsError, match="first off-diagonals"):
            mat_exp(a)


@pytest.mark.parametrize("im_mu", [1e4, 1e8])
def test_mat_exp_refuses_an_unpaired_spectrum(im_mu):
    # nothing is refused: the parity split takes the -lambda half of Hr's spectrum as the
    # reflection of the +lambda half, so a large Im mu, whose computed spectrum pairs up only
    # to about eps |Im mu|, still gives the exponential of a complex eigh of the whole generator
    w = TruncationWindow(BILATERAL, 64, 16)
    L = Realization.plain(RepnParams(BILATERAL, 0.3, complex(0.35, im_mu))).generator("L", w)
    values, q = np.linalg.eigh(1j * L.data)
    reference = (q * np.exp(-0.1j * values)) @ q.conj().T
    assert np.max(np.abs(mat_exp(L, 0.1).data - reference)) <= 1e-8


def skew_generator(lower):
    """The generator with -1 band ``lower`` and +1 band -conj(``lower``), built from those two bands."""
    w = window_of_size(lower.size + 1)
    return OperatorMatrix.from_band(w, -1, lower) - OperatorMatrix.from_band(w, 1, lower.conj())


def cut_skew_generator(rng, size, odd):
    """Random skew-Hermitian generator on the +-1 diagonals whose exact zeros cut
    its tridiagonal into ``odd`` blocks of odd length and some of even length."""
    lengths = [1] * odd
    for _ in range((size - odd) // 2):
        k = int(rng.integers(len(lengths) + 1))
        lengths[k : k + 1] = [lengths[k] + 2] if k < len(lengths) else [2]
    lower = rng.standard_normal(size - 1) + 1j * rng.standard_normal(size - 1)
    lower[np.cumsum(rng.permutation(lengths))[:-1] - 1] = 0.0
    return skew_generator(lower)


@pytest.mark.parametrize("t", [1e-4, 0.1, 0.5, -0.3])
@pytest.mark.parametrize(
    "size, odd", [(7, 1), (7, 3), (7, 7), (8, 0), (8, 2), (8, 8), (16, 4), (33, 5), (64, 2), (65, 1), (65, 9), (65, 65)]
)
def test_mat_exp_matches_pade_oracle_across_zero_band_entries(rng, size, odd, t):
    # Hr's kernel has one vector per odd block, counted from the exact zeros alone, and only
    # the positive half of the spectrum is kept
    X = cut_skew_generator(rng, size, odd)
    values, even, odd_rows = numkernel._real_eigh(numkernel._band_form(X)[0].tobytes())
    assert values.size == even.shape[1] == odd_rows.shape[1] == (size - odd) // 2
    assert np.all(values > 0.0)
    expected = pade_expm(t * X.data)
    assert np.max(np.abs(mat_exp(X, t).data - expected)) <= 2e-14 * np.max(np.abs(expected))


@pytest.mark.parametrize("t", [0.1, 0.5])
@pytest.mark.parametrize("weak", [1e-4, 1e-8])
@pytest.mark.parametrize("size, at", [(8, (4,)), (64, (32,)), (65, (20, 41))])
def test_mat_exp_matches_pade_oracle_near_a_split(rng, size, at, weak, t):
    # weak band entries nearly cut Hr into odd blocks, so a pair of eigenvalues lies within
    # about weak of 0, where rounding mixes an eigenvector with its partner and the kernel
    lower = rng.standard_normal(size - 1) + 1j * rng.standard_normal(size - 1)
    lower[list(at)] *= weak
    X = skew_generator(lower)
    expected = pade_expm(t * X.data)
    assert np.max(np.abs(mat_exp(X, t).data - expected)) <= 2e-14 * np.max(np.abs(expected))


def test_pade_oracle_scaling_branch_accuracy(rng):
    # norm above the Pade threshold exercises the oracle's squaring loop
    raw = random_dense(rng, 5)
    raw *= 20.0 / np.linalg.norm(raw, 1)
    expected = taylor_expm(raw / 16.0, order=40)
    for _ in range(4):
        expected = expected @ expected
    assert np.max(np.abs(pade_expm(raw) - expected)) <= 1e-9 * np.max(np.abs(expected))


# ---------------------------------------------------------------- single diagonals


def band_matrix(rng, size, m):
    """Random complex matrix whose only nonzero diagonal is m."""
    data = np.zeros((size, size), dtype=complex)
    k = np.arange(size - abs(m))
    data[k + max(-m, 0), k + max(m, 0)] = rng.standard_normal(k.size) + 1j * rng.standard_normal(k.size)
    return data


BAND_WINDOWS = [TruncationWindow(UNILATERAL, 8, 0), TruncationWindow(BILATERAL, 5, 0)]
BAND_OFFSETS = (-3, -1, 0, 1, 2)


def assert_same_product(left, right):
    expected = left.data @ right.data
    got = (left @ right).data
    assert np.max(np.abs(got - expected), initial=0.0) <= 1e-15 * max(1.0, np.max(np.abs(expected)))


@pytest.mark.parametrize("w", BAND_WINDOWS, ids=("unilateral", "bilateral"))
@pytest.mark.parametrize("m", BAND_OFFSETS)
def test_band_product_matches_dense_product(rng, w, m):
    band = OperatorMatrix(band_matrix(rng, w.size, m), w)
    assert band.bands.keys() == {m} and np.array_equal(band.bands[m], np.diagonal(band.data, m))
    dense = OperatorMatrix(random_dense(rng, w.size), w)
    assert dense.bands is None
    assert_same_product(band, as_bands(dense.data, w))
    assert_same_product(as_bands(dense.data, w), band)
    for other in BAND_OFFSETS:
        assert_same_product(band, OperatorMatrix(band_matrix(rng, w.size, other), w))


@pytest.mark.parametrize("offsets", [(2,), (-1, 1), (-2, 0, 3)])
def test_banded_times_dense_is_one_scaling_per_band(rng, offsets):
    # 1-3 bands on either side of an operand with every band, the generator L among them,
    # give the dense product; an exponential is read-only, so its array goes in as bands
    w = TruncationWindow(BILATERAL, 16, 0)
    L = Realization.plain(RepnParams(BILATERAL, 0.3, complex(0.35, 0.5))).generator("L", w)
    banded = sum(
        (OperatorMatrix.from_band(w, m, np.diagonal(band_matrix(rng, w.size, m), m), ORTHONORMAL) for m in offsets),
        OperatorMatrix.from_band(w, 0, np.zeros(w.size), ORTHONORMAL),
    )
    for A in (banded, L):
        a = sum(np.diag(d, m) for m, d in A.bands.items())
        for B in (as_bands(random_dense(rng, w.size), w, ORTHONORMAL), as_bands(mat_exp(L, 0.1).data, w, ORTHONORMAL)):
            for got, want in ((A @ B, a @ B.data), (B @ A, B.data @ a)):
                assert np.max(np.abs(got.data - want)) <= 1e-14 * np.max(np.abs(want))


@pytest.mark.parametrize("w", BAND_WINDOWS, ids=("unilateral", "bilateral"))
def test_from_band_inverts_single_diagonal(rng, w):
    for m in BAND_OFFSETS + (w.size, -w.size):
        T = OperatorMatrix(band_matrix(rng, w.size, m), w)
        assert np.array_equal(OperatorMatrix.from_band(w, *T.single_diagonal).data, T.data)
        assert np.array_equal(OperatorMatrix.from_band(w, m, np.diagonal(T.data, m)).data, T.data)
    for m, length in ((0, w.size - 1), (1, w.size), (-2, w.size - 1), (w.size, 1)):
        with pytest.raises(WindowMismatchError):
            OperatorMatrix.from_band(w, m, np.ones(length))


@pytest.mark.parametrize("w", BAND_WINDOWS, ids=("unilateral", "bilateral"))
def test_band_product_with_the_zero_matrix(rng, w):
    zero = OperatorMatrix.from_band(w, 0, np.zeros(w.size))
    found = zero.single_diagonal
    assert found[0] == 0 and not found[1].any()
    dense = as_bands(random_dense(rng, w.size), w)
    for left, right in ((zero, dense), (dense, zero), (zero, zero)):
        out = left @ right
        assert not out.data.any()


def test_single_diagonal_rejects_two_diagonals(rng):
    w = TruncationWindow(BILATERAL, 8, 2)
    p = RepnParams(BILATERAL, 0.3, complex(0.35, 0.5))
    assert generator_matrix(p, "L", w).bands.keys() == generator_matrix(p, "M", w).bands.keys() == {-1, 1}
    assert generator_matrix(p, "h", w).bands.keys() == {0}
    # as many nonzeros as rows, but on more than one diagonal: the scan keeps them dense
    scanned = OperatorMatrix(np.fliplr(np.eye(w.size)), w)
    flip = as_bands(np.fliplr(np.eye(w.size)), w)
    assert scanned.bands is None and len(flip.bands) == w.size
    for T in (generator_matrix(p, "L", w), generator_matrix(p, "M", w), scanned, flip):
        with pytest.raises(ParameterError, match="^expected a shift: T needs its nonzero entries on a single diagonal$"):
            T.single_diagonal
    assert_same_product(flip, OperatorMatrix(band_matrix(rng, w.size, 1), w))


@pytest.mark.parametrize("w", BAND_WINDOWS, ids=("unilateral", "bilateral"))
def test_recorded_structure_equals_the_scan(rng, w, monkeypatch):
    def same(x, y):
        # the scan records one band, or none for the zero matrix, and keeps any other array dense
        if x is None or len(x) > 1:
            return y is None
        return x.keys() == y.keys() and all(np.array_equal(x[m], y[m]) for m in x)

    p = RepnParams(w.kind, 2.0) if w.kind == UNILATERAL else RepnParams(BILATERAL, 0.3, complex(0.35, 0.5))
    a, b = (as_bands(random_dense(rng, w.size), w) for _ in range(2))
    # every library builder states its operator's band: none of them scans
    monkeypatch.setattr(numkernel, "_scan", lambda data: pytest.fail("a library result was scanned"))
    bands = [OperatorMatrix.from_band(w, m, np.diagonal(band_matrix(rng, w.size, m), m)) for m in BAND_OFFSETS]
    bands.append(OperatorMatrix.from_band(w, 2, np.zeros(w.size - 2)))
    bands += [op for band in bands for op in (2.0 * band, 0.0 * band, -band, band / 2.0, band.H)]
    products = [x @ y for x in bands for y in bands]
    dense = [a @ b, a @ bands[0], bands[0] @ a, a + bands[0], a - b, a.H,
             mat_exp(Realization.plain(p).generator("L", w), 0.1), solve(a, b), solve(a, OperatorMatrix.identity(w))]
    known = bands + products + dense + [OperatorMatrix.identity(w), OperatorMatrix.from_band(w, 0, np.zeros(w.size))]
    known += [Realization.plain(p).generator(X, w) for X in ("h", "L", "M")]
    monkeypatch.undo()
    for T in known:
        assert same(T.bands, OperatorMatrix(T.data, T.window, T.basis).bands)
    assert all(T.bands is None or len(T.bands) > 1 for T in dense)


@pytest.mark.parametrize("w", BAND_WINDOWS, ids=("unilateral", "bilateral"))
def test_band_operators_build_their_dense_array_once(rng, w):
    p = RepnParams(w.kind, 2.0) if w.kind == UNILATERAL else RepnParams(BILATERAL, 0.3, complex(0.35, 0.5))
    built = [Realization.plain(p).generator(X, w) for X in ("h", "L", "M")]
    built += [gram(p, w), OperatorMatrix.from_band(w, -2, np.diagonal(band_matrix(rng, w.size, -2), -2))]
    for A in built:
        assert A.bands and "data" not in vars(A)  # stored as bands until read
        dense = A.data
        assert A.data is dense and not dense.flags.writeable
        assert np.array_equal(dense, sum(np.diag(d, m) for m, d in A.bands.items()))
        with pytest.raises(ValueError):
            dense[0, 0] = 1.0


# ---------------------------------------------------------------- solve


def test_solve_identity(rng):
    w = window_of_size(4)
    b = OperatorMatrix(random_dense(rng, 4), w)
    out = solve(OperatorMatrix.identity(w), b)
    assert np.max(np.abs(out.data - b.data)) <= 1e-14


def test_solve_against_identity_returns_the_inverse(rng):
    w = window_of_size(8)
    a_raw = random_dense(rng, 8) + 4.0 * np.eye(8)
    out = solve(OperatorMatrix(a_raw, w), OperatorMatrix.identity(w))
    assert np.array_equal(out.data, np.linalg.inv(a_raw))
    a_raw[:, -1] = a_raw[:, 0]
    with pytest.raises(SingularMatrixError):
        solve(OperatorMatrix(a_raw, w), OperatorMatrix.identity(w))


def test_solve_scalar_system():
    w = window_of_size(4)
    out = solve(2.0 * OperatorMatrix.identity(w), OperatorMatrix.identity(w))
    np.testing.assert_allclose(out.data, 0.5 * np.eye(4))


def test_solve_recovers_known_solution(rng):
    w = window_of_size(8)
    a_raw = random_dense(rng, 8) + 4.0 * np.eye(8)
    x_true = random_dense(rng, 8)
    a = OperatorMatrix(a_raw, w)
    b = OperatorMatrix(a_raw @ x_true, w)
    x = solve(a, b)
    assert np.max(np.abs(x.data - x_true)) <= 1e-11


def test_solve_residual_bound(rng):
    w = window_of_size(8)
    for _ in range(5):
        a_raw = random_dense(rng, 8) + 4.0 * np.eye(8)
        assert np.linalg.cond(a_raw, 1) <= 1e6
        a = OperatorMatrix(a_raw, w)
        b = OperatorMatrix(random_dense(rng, 8), w)
        x = solve(a, b)
        assert np.linalg.norm(a_raw @ x.data - b.data) <= 1e-10 * np.linalg.norm(b.data)


def test_solve_rejects_singular():
    w = window_of_size(3)
    a = OperatorMatrix(np.diag([1.0, 1.0, 0.0]).astype(complex), w)
    with pytest.raises(SingularMatrixError) as info:
        solve(a, OperatorMatrix.identity(w))
    assert info.value.estimate > 1e8


def test_solve_rejects_ill_conditioned():
    w = window_of_size(3)
    a = OperatorMatrix(np.diag([1.0, 1.0, 1e-12]).astype(complex), w)
    with pytest.raises(SingularMatrixError) as info:
        solve(a, OperatorMatrix.identity(w))
    assert info.value.estimate > 1e8


# ---------------------------------------------------------------- interior


def test_interior_norm_zero():
    w = TruncationWindow(BILATERAL, 4, 1)
    assert interior_norm(OperatorMatrix.from_band(w, 0, np.zeros(w.size)), w) == 0.0


def test_interior_norm_identity_counts_interior():
    w = TruncationWindow(BILATERAL, 4, 1)
    # interior indices -3..3: seven diagonal ones
    assert interior_norm(OperatorMatrix.identity(w), w) == pytest.approx(math.sqrt(7), abs=1e-15)


def test_interior_norm_matches_brute_force(rng):
    w = TruncationWindow(BILATERAL, 6, 2)
    m = as_bands(random_dense(rng, w.size), w)
    expected = brute_interior_frobenius(m.data, list(w.interior_positions()))
    assert interior_norm(m, w) == pytest.approx(expected, rel=1e-13)


def test_interior_norm_monotone_in_padding(rng):
    w = TruncationWindow(BILATERAL, 8, 0)
    m = as_bands(random_dense(rng, w.size), w)
    values = [interior_norm(m, TruncationWindow(w.kind, w.N, p)) for p in range(0, 8)]
    assert all(values[i + 1] <= values[i] for i in range(len(values) - 1))


def test_interior_empty_raises():
    w = TruncationWindow(UNILATERAL, 6, 4)  # positions 4..2 form an empty set
    with pytest.raises(ParameterError, match="leaves no interior"):
        interior_norm(OperatorMatrix.identity(w), w)


def test_interior_window_mismatch(rng):
    w = TruncationWindow(BILATERAL, 4, 1)
    m = OperatorMatrix(random_dense(rng, w.size), w)
    with pytest.raises(WindowMismatchError):
        interior_norm(m, TruncationWindow(BILATERAL, 5, 1))


# ---------------------------------------------------------------- circle fft


def test_circle_fft_constant():
    coeffs = circle_fft(np.ones(32))
    assert coeffs[0] == pytest.approx(1.0)
    assert np.max(np.abs(coeffs[1:])) < 1e-14


def test_circle_fft_pure_harmonic():
    theta = 2.0 * np.pi * np.arange(64) / 64
    coeffs = circle_fft(np.exp(1j * theta))
    assert abs(coeffs[1] - 1.0) <= 1e-13
    mask = np.ones(64, dtype=bool)
    mask[1] = False
    assert np.max(np.abs(coeffs[mask])) < 1e-13


def test_circle_fft_trig_polynomial(rng):
    table = {k: complex(rng.standard_normal(), rng.standard_normal()) for k in range(-5, 6)}
    n = 64
    theta = 2.0 * np.pi * np.arange(n) / n
    samples = sum(c * np.exp(1j * k * theta) for k, c in table.items())
    coeffs = circle_fft(samples)
    for k, c in table.items():
        assert abs(coeffs[k % n] - c) <= 1e-12


def test_circle_fft_round_trip(rng):
    samples = rng.standard_normal(128) + 1j * rng.standard_normal(128)
    back = circle_synthesis(circle_fft(samples))
    assert np.max(np.abs(back - samples)) <= 1e-12


def test_circle_fft_requires_power_of_two():
    with pytest.raises(ParameterError):
        circle_fft(np.ones(48))
    with pytest.raises(ParameterError):
        circle_synthesis(np.ones(12))
