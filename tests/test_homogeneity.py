import cmath
import itertools
import json
import math

import numpy as np
import pytest

from mobshift import homogeneity, numkernel
from mobshift.cli import DEFAULT_PATHS
from mobshift.errors import DefectReport, ParameterError, SingularMatrixError, WindowMismatchError
from mobshift.homogeneity import (
    homogeneity_defect,
    infinitesimal_reports,
    kappa_commutator,
    kappa_flow_derivative,
    mobius_of_operator,
    reducible_lambda_check,
)
from mobshift.inductive import normalizer_defect
from mobshift.mobius import GroupPath, MobiusElement, compose, path_to_mobius
from mobshift.numkernel import (
    BILATERAL,
    ORTHONORMAL,
    UNILATERAL,
    OperatorMatrix,
    TruncationWindow,
    _rows,
    _shift_residual,
    mat_exp,
    solve,
)
from mobshift.repn import Realization, RepnParams, reducible_generator_matrix
from mobshift.shifts import canonical_shift, reducible_shift

from oracles import (
    band_product_seam_witness,
    dense_commutator,
    dense_flow_difference,
    dense_homogeneity_residual,
    dense_mobius,
    orthonormal,
    quarter_turn,
    random_dense,
    random_mobius,
    random_unitary,
    tile_edge_windows,
    traced_peak,
    where_reducible_bands,
    whole_window_flow_derivative,
)

HOLO2 = RepnParams(UNILATERAL, 2.0)
PRIN = RepnParams(BILATERAL, 0.3, complex(0.35, 0.5))


@pytest.fixture
def rng():
    return np.random.default_rng(271828)


# ---------------------------------------------------------------- reports


def test_defect_report_verdict_and_json():
    report = DefectReport.build("probe", 2.0e-9, 1.0e-6, {"lam": 0.3})
    assert report.passed
    payload = json.loads(report.to_json())
    assert payload["pass"] is True
    assert payload["name"] == "probe"
    assert payload["context"]["lam"] == 0.3
    failing = DefectReport.build("probe", 2.0, 1.0e-6)
    assert not failing.passed


def test_defect_report_validation():
    with pytest.raises(ParameterError):
        DefectReport.build("p", -1.0, 1e-6)
    with pytest.raises(ParameterError):
        DefectReport.build("p", 1.0, 0.0)


# ---------------------------------------------------------------- calculus


def test_mobius_of_operator_identity_and_rotation(rng):
    w = TruncationWindow(BILATERAL, 6, 1)
    t = canonical_shift("T2", PRIN, w)
    out = mobius_of_operator(MobiusElement.identity(), t)
    assert np.max(np.abs(out.data - t.data)) <= 1e-14
    alpha = cmath.exp(0.7j)
    out = mobius_of_operator(MobiusElement(alpha, 0.0), t)
    assert np.max(np.abs(out.data - alpha * t.data)) <= 1e-14


def test_mobius_of_operator_on_circulant_eigenvalues(rng):
    # wrap-around shift diagonalizes on the Fourier basis, giving an
    # eigenvalue-level functional-calculus oracle
    w = TruncationWindow(BILATERAL, 6, 1)
    size = w.size
    # data[(j + 1) % size, j] = 1: the -1 band of ones and the corner on diagonal size - 1
    c = OperatorMatrix.from_band(w, -1, np.ones(size - 1)) + OperatorMatrix.from_band(w, size - 1, [1.0])
    phi = MobiusElement(cmath.exp(0.3j), 0.25 * cmath.exp(0.4j))
    image = mobius_of_operator(phi, c)
    for k in range(size):
        vec = np.exp(-2j * math.pi * k * np.arange(size) / size) / math.sqrt(size)
        eig = np.exp(2j * math.pi * k / size)
        expected = phi.alpha * (eig - phi.beta) / (1.0 - phi.beta.conjugate() * eig)
        assert np.max(np.abs(image.data @ vec - expected * vec)) <= 1e-11


def test_mobius_of_operator_rejects_singular_resolvent():
    w = TruncationWindow(UNILATERAL, 4, 1)
    t = 2.0 * OperatorMatrix.identity(w)
    with pytest.raises(SingularMatrixError):
        mobius_of_operator(MobiusElement(1.0, 0.5), t)


def refuse_solve(monkeypatch):
    """Make every linear solve through the package fail."""

    def refuse(*args, **kwargs):
        raise AssertionError("the homogeneity certificate must not call solve")

    monkeypatch.setattr(numkernel, "solve", refuse)
    monkeypatch.setattr(homogeneity, "solve", refuse)


def random_shift(rng, w, step):
    k = w.size - abs(step)
    weights = rng.uniform(0.2, 1.5, k) * np.exp(1j * rng.uniform(-math.pi, math.pi, k))
    return OperatorMatrix.from_band(w, step, weights)


def shift_cases(rng):
    uni = TruncationWindow(UNILATERAL, 24, 6)
    bi = TruncationWindow(BILATERAL, 12, 3)
    yield "T1", canonical_shift("T1", HOLO2, uni)
    yield "T1star", canonical_shift("T1star", HOLO2, uni)
    yield "T2", canonical_shift("T2", PRIN, bi)
    yield "T3", canonical_shift("T3", PRIN, bi)
    yield "reducible r=10", reducible_shift(Realization.reducible(1.0, 10.0), bi)
    for step in (-2, -1, 1, 2):
        yield f"random step {step}", random_shift(rng, uni, step)
        yield f"random bilateral step {step}", random_shift(rng, bi, step)


def test_mobius_of_shift_matches_dense_oracle(rng):
    phis = [MobiusElement.identity(), MobiusElement(cmath.exp(0.4j), 0.0)]
    phis += [random_mobius(rng, 0.5) for _ in range(3)]
    for label, t in shift_cases(rng):
        for phi in phis:
            expected = dense_mobius(phi, t.data)
            got = mobius_of_operator(phi, t).data
            assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected)), label


def test_mobius_of_ill_conditioned_shift_refused_by_both_routes():
    w = TruncationWindow(BILATERAL, 16, 4)
    t = 8.0 * canonical_shift("T2", PRIN, w)
    phi = MobiusElement(1.0, 0.5)
    with pytest.raises(SingularMatrixError) as calculus:
        mobius_of_operator(phi, t)
    ident = OperatorMatrix.identity(w)
    with pytest.raises(SingularMatrixError) as direct:
        solve(ident - 0.5 * t, t - 0.5 * ident)
    assert calculus.value.estimate == pytest.approx(1.23e20, rel=1e-2)
    assert calculus.value.estimate == pytest.approx(direct.value.estimate, rel=1e-12)


def test_homogeneity_of_a_shift_needs_no_linear_solve(monkeypatch):
    refuse_solve(monkeypatch)
    w = TruncationWindow(BILATERAL, 64, 16)
    t = orthonormal(canonical_shift("T3", PRIN, w), PRIN, w)
    path = GroupPath.parse("L:0.1,M:-0.05,h:0.2")
    report = homogeneity_defect(t, Realization.plain(PRIN).along_path(path, w), path_to_mobius(path), w)
    assert report.passed


def test_functional_calculus_composes(rng):
    # psi(T) is a dense result, read-only, so phi of it is the oracle's LU solve on its array
    w = TruncationWindow(BILATERAL, 32, 8)
    t = canonical_shift("T2", PRIN, w)
    p = np.ix_(w.interior_positions(), w.interior_positions())
    for _ in range(5):
        phi = random_mobius(rng, 0.15)
        psi = random_mobius(rng, 0.15)
        outer = mobius_of_operator(compose(phi, psi), t)
        nested = dense_mobius(phi, mobius_of_operator(psi, t).data)
        assert np.linalg.norm((outer.data - nested)[p]) <= 1e-9


# ---------------------------------------------------------------- homogeneity


def test_homogeneity_defect_empty_path_is_zero():
    w = TruncationWindow(BILATERAL, 16, 4)
    t = canonical_shift("T2", PRIN, w)
    report = homogeneity_defect(t, OperatorMatrix.identity(w), MobiusElement.identity(), w)
    assert report.value == 0.0


def test_homogeneity_certificate_for_t1():
    w = TruncationWindow(UNILATERAL, 64, 16)
    t = orthonormal(canonical_shift("T1", HOLO2, w), HOLO2, w)
    path = GroupPath((("L", 0.1),))
    report = homogeneity_defect(t, Realization.plain(HOLO2).along_path(path, w), path_to_mobius(path), w)
    assert report.value < 1e-6
    assert report.passed


def test_homogeneity_certificate_for_t1star_under_sharp():
    w = TruncationWindow(UNILATERAL, 64, 16)
    t = orthonormal(canonical_shift("T1star", HOLO2, w), HOLO2, w)
    path = GroupPath((("M", 0.1), ("h", 0.2)))
    report = homogeneity_defect(t, Realization.sharp(HOLO2).along_path(path, w), path_to_mobius(path), w)
    assert report.value < 1e-6


def test_a_rotation_in_the_path_costs_no_accuracy():
    # M:0.1 is L:0.1 between rotations by pi/4 and -pi/4; rounded apart, the two
    # rotations read 2.2x L:0.1's rounding floor at N = 256 and grow linearly in N
    w = TruncationWindow(BILATERAL, 256, 64)
    p = RepnParams(BILATERAL, 0.3, complex(0.35, 3.0))
    t = orthonormal(canonical_shift("T2", p, w), p, w)
    values = {}
    for text in ("L:0.1", "M:0.1"):
        path = GroupPath.parse(text)
        values[text] = homogeneity_defect(t, Realization.plain(p).along_path(path, w), path_to_mobius(path), w).value
    assert values["M:0.1"] <= 1.2 * values["L:0.1"]


def test_scaled_shift_is_not_homogeneous():
    w = TruncationWindow(BILATERAL, 64, 16)
    t = 2.0 * orthonormal(canonical_shift("T2", PRIN, w), PRIN, w)
    path = GroupPath((("L", 0.1),))
    report = homogeneity_defect(t, Realization.plain(PRIN).along_path(path, w), path_to_mobius(path), w)
    assert report.value > 1e-2
    assert not report.passed


@pytest.mark.parametrize(
    "kind,params,flavor",
    [
        ("T1", HOLO2, "plain"),
        ("T1star", HOLO2, "sharp"),
        ("T2", PRIN, "plain"),
        ("T3", PRIN, "plain"),
    ],
)
def test_homogeneity_defect_padding_collapse(kind, params, flavor):
    w = TruncationWindow(params.index_set, 64, 16)
    t = orthonormal(canonical_shift(kind, params, w), params, w)
    rel = Realization.sharp(params) if flavor == "sharp" else Realization.plain(params)
    path = GroupPath((("L", 0.1),))
    R = rel.along_path(path, w)
    phi = path_to_mobius(path)
    d4 = homogeneity_defect(t, R, phi, TruncationWindow(w.kind, w.N, 4)).value
    d24 = homogeneity_defect(t, R, phi, TruncationWindow(w.kind, w.N, 24)).value
    assert d4 >= 100.0 * d24


def test_reducible_shift_homogeneous_at_lambda_one():
    w = TruncationWindow(BILATERAL, 64, 16)
    for r in (0.3, 1.0, 2.0):
        rel = Realization.reducible(1.0, r)
        t = orthonormal(reducible_shift(rel, w), rel.params, w)
        for text in ("L:0.1", "M:0.1", "h:0.3"):
            path = GroupPath.parse(text)
            report = homogeneity_defect(t, rel.along_path(path, w), path_to_mobius(path), w)
            assert report.value <= 1e-6, (r, text, report.value)


# ---------------------------------------------------------------- resolvent-free residual


@pytest.mark.parametrize("pad", ["0", "1", "N/4"])
@pytest.mark.parametrize("step", [-2, -1, 1, 2])
@pytest.mark.parametrize("kind", [UNILATERAL, BILATERAL])
def test_homogeneity_residual_matches_dense_oracle(rng, kind, step, pad):
    # a random unitary R and random weights keep the residual O(1), so the
    # halo evaluation is held to the whole-window products entry for entry
    N = 16
    w = TruncationWindow(kind, N, {"0": 0, "1": 1, "N/4": N // 4}[pad])
    for _ in range(3):
        t = random_shift(rng, w, step)
        r = OperatorMatrix(random_unitary(rng, w.size), w)
        phi = random_mobius(rng, 0.9)
        want = dense_homogeneity_residual(phi, t, r, w)
        got = homogeneity_defect(t, r, phi, w).value
        assert want > 1e-3
        assert abs(got - want) <= 1e-14 * want


@pytest.mark.parametrize("step", [-2, -1, 1, 2])
def test_homogeneity_residual_tiles_match_the_dense_oracle(rng, step):
    # interiors short of a tile, one tile, two and not a multiple, with the halo clipped at
    # both window ends at pads 0 and 1; a dense unitary R, and a two-band R read through its block
    for w in tile_edge_windows():
        t = random_shift(rng, w, step)
        two_bands = OperatorMatrix.from_band(w, 0, np.exp(1j * rng.uniform(0, 6, w.size))) + random_shift(rng, w, 1)
        for r in (OperatorMatrix(random_unitary(rng, w.size), w), two_bands):
            phi = random_mobius(rng, 0.9)
            want = dense_homogeneity_residual(phi, t, r, w)
            assert abs(homogeneity_defect(t, r, phi, w).value - want) <= 1e-14 * want, w


@pytest.mark.parametrize("step", [-2, -1, 1, 2])
def test_shift_residual_matches_the_dense_residuals(rng, step):
    # the homogeneity residual under a random phi and, with (alpha, beta) = (1, 0), the
    # commutator [X, T], on the block of the interior and its halo (which starts past the
    # window's first row at pad 4) and on the whole window, for interiors at and between
    # the tile edges
    for w in (*tile_edge_windows(), TruncationWindow(BILATERAL, 16, 4)):
        n, p = w.size, w.interior_positions()
        p0, p1 = int(p[0]), int(p[-1]) + 1
        lo, hi = max(p0 - abs(step), 0), min(p1 + abs(step), n)
        t = random_shift(rng, w, step)
        band = _rows(step, t.single_diagonal[1], n)[n : 2 * n]
        X = OperatorMatrix(random_dense(rng, n), w)
        commutator = float(np.linalg.norm(dense_commutator(X, t)[np.ix_(p, p)]))
        for x0, x in ((lo, X.data[lo:hi, lo:hi]), (0, X.data)):
            phi = random_mobius(rng, 0.9)
            want = dense_homogeneity_residual(phi, t, X, w)
            assert abs(_shift_residual(x, x0, band, step, p0, p1, phi.alpha, phi.beta) - want) <= 1e-14 * want, (w, x0)
            assert abs(_shift_residual(x, x0, band, step, p0, p1) - commutator) <= 1e-14 * commutator, (w, x0)


def test_homogeneity_defect_holds_less_than_one_window_array():
    # R (T - beta I) and its residual over the interior and halo held 6.8 MB on L:0.1, and a
    # rotation built its dense R for 9.1 MB, where one window-sized array is 4.0 MB
    w = TruncationWindow(BILATERAL, 256, 64)
    rel = Realization.plain(PRIN)
    t = orthonormal(canonical_shift("T2", PRIN, w), PRIN, w)
    for text in ("L:0.1", "h:0.3"):
        path = GroupPath.parse(text)
        R = rel.along_path(path, w)
        assert traced_peak(homogeneity_defect, t, R, path_to_mobius(path), w) <= w.size**2 * 16, text
    assert "data" not in vars(R)


# (realization, operator) of the five families; the reducible sum at lambda = 1
HOMOGENEOUS_FAMILIES = {
    "holo-T1": (Realization.plain(HOLO2), "T1"),
    "antiholo-T1star": (Realization.sharp(HOLO2), "T1star"),
    "principal-T2": (Realization.plain(PRIN), "T2"),
    "principal-T3": (Realization.plain(PRIN), "T3"),
    "complementary-T3": (Realization.plain(RepnParams(BILATERAL, 0.4, 0.2 + 0j)), "T3"),
    "reducible-1": (Realization.reducible(1.0, 2.0), "reducible"),
}


def _family_shift(rel, op, w):
    t = reducible_shift(rel, w) if op == "reducible" else canonical_shift(op, rel.params, w)
    return orthonormal(t, rel.params, w)


@pytest.mark.parametrize("family", sorted(HOMOGENEOUS_FAMILIES))
def test_homogeneity_residual_on_families(family):
    """The new residual equals the dense whole-window oracle, and its verdict
    equals the verdict of the resolvent form R phi(T) - T R."""
    rel, op = HOMOGENEOUS_FAMILIES[family]
    for N, pad in ((64, 16), (64, 0), (64, 1), (128, 32)):
        w = TruncationWindow(rel.params.index_set, N, pad)
        t = _family_shift(rel, op, w)
        for text in (*DEFAULT_PATHS, "L:0.3"):
            path = GroupPath.parse(text)
            R, phi = rel.along_path(path, w), path_to_mobius(path)
            got = homogeneity_defect(t, R, phi, w)
            # at the rounding floor the scale is the size of the products, not the value
            p = w.interior_positions()
            scale = np.linalg.norm((t.data @ R.data)[np.ix_(p, p)])
            assert abs(got.value - dense_homogeneity_residual(phi, t, R, w)) <= 1e-14 * scale, (N, pad, text)
            resolvent = np.linalg.norm((R.data @ dense_mobius(phi, t.data) - t.data @ R.data)[np.ix_(p, p)])
            assert got.passed == (resolvent <= got.tolerance), (N, pad, text, got.value, resolvent)


@pytest.mark.parametrize("N", [64, 128, 256])
@pytest.mark.parametrize("family", sorted(HOMOGENEOUS_FAMILIES))
def test_homogeneity_of_a_rotation_matches_the_dense_oracle(family, N):
    # a rotation R is stored as its one band and read through its block, like any R
    rel, op = HOMOGENEOUS_FAMILIES[family]
    path = GroupPath.parse("h:0.3")
    phi = path_to_mobius(path)
    for pad in (N // 4, 0):
        w = TruncationWindow(rel.params.index_set, N, pad)
        t, R = _family_shift(rel, op, w), rel.along_path(path, w)
        assert R.single_diagonal[0] == 0
        got = homogeneity_defect(t, R, phi, w)
        p = w.interior_positions()
        scale = np.linalg.norm((t.data @ R.data)[np.ix_(p, p)])
        assert abs(got.value - dense_homogeneity_residual(phi, t, R, w)) <= 1e-14 * scale, (N, pad)
        assert got.passed


def test_negative_controls_fail_the_resolvent_free_residual():
    path = GroupPath.parse("L:0.1")
    phi = path_to_mobius(path)
    w = TruncationWindow(BILATERAL, 64, 16)
    scaled = 2.0 * orthonormal(canonical_shift("T2", PRIN, w), PRIN, w)
    wh = TruncationWindow(UNILATERAL, 64, 16)
    decaying = orthonormal(OperatorMatrix.from_band(wh, -1, 1.0 / (wh.indices()[:-1] + 2)), HOLO2, wh)
    seam = Realization.reducible(1.5, 1.0)
    cases = [
        ("scaled shift", scaled, Realization.plain(PRIN).along_path(path, w), w),
        ("decaying weights", decaying, Realization.plain(HOLO2).along_path(path, wh), wh),
        ("reducible lambda 1.5", _family_shift(seam, "reducible", w), seam.along_path(path, w), w),
    ]
    for label, t, R, window in cases:
        report = homogeneity_defect(t, R, phi, window)
        assert report.value > 1e-2 and not report.passed, label


def test_certificates_call_no_solve_and_no_resolvent(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a certificate must not invert or solve")

    for module, name in (
        (numkernel, "solve"),
        (homogeneity, "solve"),
        (homogeneity, "mobius_of_operator"),
        (np.linalg, "solve"),
        (np.linalg, "inv"),
    ):
        monkeypatch.setattr(module, name, refuse)
    path = GroupPath.parse("L:0.1,M:-0.05,h:0.2")
    w = TruncationWindow(BILATERAL, 64, 24)
    t = orthonormal(canonical_shift("T3", PRIN, w), PRIN, w)
    rel = Realization.plain(PRIN)
    assert homogeneity_defect(t, rel.along_path(path, w), path_to_mobius(path), w).passed
    assert normalizer_defect(t, rel, path, w).passed


def test_homogeneity_defect_refuses_a_dense_operator(rng):
    w = TruncationWindow(BILATERAL, 8, 2)
    dense = OperatorMatrix(random_dense(rng, w.size), w)
    with pytest.raises(ParameterError):
        homogeneity_defect(dense, OperatorMatrix.identity(w), MobiusElement.identity(), w)


def test_homogeneity_defect_empty_interior():
    w = TruncationWindow(UNILATERAL, 4, 3)
    t = canonical_shift("T1", HOLO2, w)
    with pytest.raises(ParameterError, match="leaves no interior"):
        homogeneity_defect(t, OperatorMatrix.identity(w), MobiusElement.identity(), w)


@pytest.mark.parametrize("certificate", ["normalizer", "flow derivative", "infinitesimal"])
def test_normalizer_flow_and_infinitesimal_refuse_an_empty_interior_and_another_lattice(certificate):
    rel, w = Realization.plain(HOLO2), TruncationWindow(UNILATERAL, 8, 2)
    T = rel.orthonormal(canonical_shift("T1", HOLO2, w), w)
    measure = {
        "normalizer": lambda v: normalizer_defect(T, rel, GroupPath.parse("L:0.1"), v),
        "flow derivative": lambda v: kappa_flow_derivative(T, rel, v),
        "infinitesimal": lambda v: infinitesimal_reports(T, rel, v),
    }[certificate]
    measure(w)  # T's own window has an interior
    with pytest.raises(ParameterError, match="leaves no interior"):
        measure(TruncationWindow(UNILATERAL, 8, 5))
    with pytest.raises(WindowMismatchError):
        measure(TruncationWindow(UNILATERAL, 9, 2))


# ---------------------------------------------------------------- infinitesimal


def flow_block(T, X, rel, w, step=homogeneity.DEFAULT_FD_STEP):
    """The interior flow block of X = L, from ``kappa_flow_derivative``, or of X = M, L's
    turned a quarter: Q kappa_flow_derivative(Q^-1 T Q) Q^-1."""
    if X == "L":
        return kappa_flow_derivative(T, rel, w, step)
    Q = quarter_turn(rel, w)
    q = Q.diagonal(0)[w.interior_positions()]
    return q[:, None] * kappa_flow_derivative(Q.H @ T @ Q, rel, w, step) * q.conj()


def test_kappa_identities_for_t1():
    w = TruncationWindow(UNILATERAL, 64, 16)
    t = orthonormal(canonical_shift("T1", HOLO2, w), HOLO2, w)
    ip = np.ix_(w.interior_positions(), w.interior_positions())
    square, ident = (t @ t).data[ip], np.eye(w.size)[ip]
    targets = {"L": square - ident, "M": -1j * (square + ident), "e": -ident, "f": square}
    fd = {gen: flow_block(t, gen, Realization.plain(HOLO2), w) for gen in ("L", "M")}
    # the complex flows by linearity: e = (L - iM)/2, f = (L + iM)/2
    fd["e"], fd["f"] = 0.5 * (fd["L"] - 1j * fd["M"]), 0.5 * (fd["L"] + 1j * fd["M"])
    for gen in ("L", "M", "e", "f"):
        assert np.linalg.norm(fd[gen] - targets[gen]) <= 1e-6, gen


def commutator_matrix(T, X, rel, w):
    """[dR(X), T] as a window matrix: for X = L from the two diagonals ``kappa_commutator``
    returns, for X = M L's turned a quarter, Q [dR(L), Q^-1 T Q] Q^-1."""
    if X == "M":
        Q = quarter_turn(rel, w)
        return Q @ commutator_matrix(Q.H @ T @ Q, "L", rel, w) @ Q.H
    low, high = kappa_commutator(T, rel, w)
    m = T.single_diagonal[0]
    return OperatorMatrix.from_band(w, m - 1, low, T.basis) + OperatorMatrix.from_band(w, m + 1, high, T.basis)


def test_kappa_routes_agree(rng):
    w = TruncationWindow(BILATERAL, 64, 16)
    t = orthonormal(canonical_shift("T3", PRIN, w), PRIN, w)
    rel = Realization.plain(PRIN)
    ip = np.ix_(w.interior_positions(), w.interior_positions())
    fd = {gen: flow_block(t, gen, rel, w, step=1e-4) for gen in ("L", "M")}
    comm = {gen: commutator_matrix(t, gen, rel, w).data[ip] for gen in ("L", "M")}
    # the complex flows on both routes by linearity: e = (L - iM)/2, f = (L + iM)/2
    for route in (fd, comm):
        route["e"], route["f"] = 0.5 * (route["L"] - 1j * route["M"]), 0.5 * (route["L"] + 1j * route["M"])
    for gen in ("L", "M", "e", "f"):
        assert np.max(np.abs(fd[gen] - comm[gen])) <= 1e-7, gen


def test_kappa_commutator_is_the_band_product_bit_for_bit(rng):
    # one product per entry, in the order of the band products dR(L) T - T dR(L)
    for N in (2, 3, 16):
        for label, rel, w, T in oracle_operands(rng, N):
            a, m = rel.generator("L", w), T.single_diagonal[0]
            product = a @ T - T @ a
            for diagonal, q in zip(kappa_commutator(T, rel, w), (m - 1, m + 1)):
                assert np.array_equal(diagonal, product.diagonal(q)), (label, N, q)


def test_infinitesimal_reports_build_only_l_and_one_spectrum(monkeypatch):
    # the commutator and the flow each read L's generator from the realization, an O(N)
    # band build, and no other generator is built; the flow's eigh is the only one
    generator, asked = Realization.generator, []
    monkeypatch.setattr(Realization, "generator", lambda rel, X, w: asked.append(X) or generator(rel, X, w))
    eigh, calls = np.linalg.eigh, []
    monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(a.shape) or eigh(a))
    numkernel._real_eigh.cache_clear()
    w = TruncationWindow(BILATERAL, 16, 4)
    infinitesimal_reports(orthonormal(canonical_shift("T3", PRIN, w), PRIN, w), Realization.plain(PRIN), w)
    assert asked == ["L", "L"] and calls == [(w.size, w.size)]


def test_kappa_commutator_takes_a_shift():
    w = TruncationWindow(UNILATERAL, 8, 2)
    t = orthonormal(canonical_shift("T1", HOLO2, w), HOLO2, w)
    with pytest.raises(ParameterError, match="single diagonal"):
        kappa_commutator(t + t.H, Realization.plain(HOLO2), w)


def test_infinitesimal_reports_form_e_and_f_by_linearity_on_both_routes(rng):
    # e and f, targets included, are (L -/+ iM)/2 of the L and M residuals, and M's flow and
    # commutator are L's turned a quarter, omega^m Q (.) Q^-1 for a shift on diagonal m.  The
    # suite sums each residue class of the block apart, so its identity values match the
    # dense residuals' norms up to summation order; its route gaps scale each class by 0 or
    # 1 and match them bit for bit.  Interiors of 1, 2 and 3 positions leave classes empty,
    # and at m = -1, 0 and 1 a commutator diagonal and a target diagonal coincide.
    short = (
        (f"{w} step {step}", rel, w, OperatorMatrix.from_band(w, step, random_shift(rng, w, step).single_diagonal[1], ORTHONORMAL))
        for rel, w in (
            (ORACLE_CASES["holo"][0], TruncationWindow(UNILATERAL, 2, 1)),
            (ORACLE_CASES["holo"][0], TruncationWindow(UNILATERAL, 3, 1)),
            (ORACLE_CASES["principal T3"][0], TruncationWindow(BILATERAL, 2, 1)),
        )
        for step in (-2, -1, 0, 1, 2)
    )
    for label, rel, w, t in itertools.chain(oracle_operands(rng, 16), short):
        m = t.single_diagonal[0]
        reports = {r.name: r.value for r in infinitesimal_reports(t, rel, w)}
        ip = np.ix_(w.interior_positions(), w.interior_positions())
        q = quarter_turn(rel, w).diagonal(0)
        omega_m = np.array([1, q[1], -1, -q[1]])[m % 4]
        turn = lambda block: omega_m * q[w.interior_positions(), None] * block * q[w.interior_positions()].conj()
        square, ident = (t @ t).data[ip], np.eye(w.size)[ip]
        targets = {"L": square - ident, "M": -1j * (square + ident)}
        fd = {"L": kappa_flow_derivative(t, rel, w)}
        comm = {"L": commutator_matrix(t, "L", rel, w).data[ip]}
        fd["M"], comm["M"] = turn(fd["L"]), turn(comm["L"])
        identity = [fd[gen] - targets[gen] for gen in ("L", "M")]
        gap = [fd[gen] - comm[gen] for gen in ("L", "M")]
        for gen, combine in (
            ("L", lambda L, M: L), ("M", lambda L, M: M), ("e", lambda L, M: 0.5 * (L - 1j * M)), ("f", lambda L, M: 0.5 * (L + 1j * M))
        ):
            dense = float(np.linalg.norm(combine(*identity)))
            assert abs(reports[f"kappa_{gen}_identity"] - dense) <= 1e-14 * dense, (label, gen)
            assert reports[f"kappa_{gen}_route_gap"] == float(np.max(np.abs(combine(*gap)))), (label, gen)


def test_infinitesimal_reports_form_no_window_product(monkeypatch):
    # every target and route is read from bands and interior blocks; products of bands stay
    # bands, and no operator is read as a dense window matrix
    w = TruncationWindow(BILATERAL, 32, 8)
    rel = Realization.plain(PRIN)
    t = orthonormal(canonical_shift("T3", PRIN, w), PRIN, w)
    expected = [r.value for r in infinitesimal_reports(t, rel, w)]
    monkeypatch.setattr(OperatorMatrix, "data", property(lambda self: pytest.fail("a dense window matrix was formed")))
    monkeypatch.setattr(np, "eye", lambda *args, **kwargs: pytest.fail("an identity matrix was formed"))
    assert [r.value for r in infinitesimal_reports(t, rel, w)] == expected


def test_infinitesimal_reports_take_a_shift():
    w = TruncationWindow(UNILATERAL, 16, 4)
    t = orthonormal(canonical_shift("T1", HOLO2, w), HOLO2, w)
    with pytest.raises(ParameterError, match="single diagonal"):
        infinitesimal_reports(t + t.H, Realization.plain(HOLO2), w)


ORACLE_CASES = {
    "holo": (Realization.plain(HOLO2), UNILATERAL, lambda w: canonical_shift("T1", HOLO2, w)),
    "sharp": (Realization.sharp(HOLO2), UNILATERAL, lambda w: canonical_shift("T1star", HOLO2, w)),
    "principal T2": (Realization.plain(PRIN), BILATERAL, lambda w: canonical_shift("T2", PRIN, w)),
    "principal T3": (Realization.plain(PRIN), BILATERAL, lambda w: canonical_shift("T3", PRIN, w)),
    "complementary T3": (
        Realization.plain(RepnParams(BILATERAL, 0.2, 0.4)), BILATERAL,
        lambda w: canonical_shift("T3", RepnParams(BILATERAL, 0.2, 0.4), w),
    ),
    "reducible": (Realization.reducible(1.0, 2.0), BILATERAL, lambda w: reducible_shift(Realization.reducible(1.0, 2.0), w)),
}


def oracle_operands(rng, N: int):
    """(label, realization, window, orthonormal shift) for each family's own shift and for
    random shifts of steps +-1 and +-2, at pads 0, 1 and N/4."""
    for pad in (0, 1, N // 4):
        for case, (rel, kind, build) in ORACLE_CASES.items():
            w = TruncationWindow(kind, N, pad)
            yield f"{case} pad {pad}", rel, w, orthonormal(build(w), rel.params, w)
        for step in (-2, -1, 1, 2):
            w = TruncationWindow(BILATERAL, N, pad)
            band = random_shift(rng, w, step).single_diagonal[1]
            yield f"random step {step} pad {pad}", ORACLE_CASES["principal T3"][0], w, OperatorMatrix.from_band(w, step, band, ORTHONORMAL)


def test_kappa_flow_derivative_is_the_interior_of_the_whole_window_oracles(rng):
    for label, rel, w, T in oracle_operands(rng, 16):
        ip = np.ix_(w.interior_positions(), w.interior_positions())
        for X in ("L", "M"):
            A = rel.generator(X, w)
            scale = np.max(np.abs(T.data)) * np.max(np.abs(A.data))
            block = flow_block(T, X, rel, w, step=1e-3)
            assert block.shape == (w.interior_positions().size,) * 2
            assert np.max(np.abs(block - whole_window_flow_derivative(T, X, rel, w, 1e-3)[ip])) <= 1e-13 * scale, label
            assert np.max(np.abs(block - dense_flow_difference(A, T, 1e-3)[ip])) <= 1e-12 * scale, label


@pytest.mark.parametrize("step", [-2, -1, 1, 2])
def test_kappa_flow_derivative_tiles_match_the_whole_window_oracles(rng, step):
    # interiors short of a tile, one tile per parity of position, and not a multiple, at
    # pads 0 and 1
    for w in tile_edge_windows():
        rel = Realization.plain(PRIN if w.kind == BILATERAL else HOLO2)
        ip = np.ix_(w.interior_positions(), w.interior_positions())
        T = OperatorMatrix.from_band(w, step, random_shift(rng, w, step).single_diagonal[1], ORTHONORMAL)
        for X in ("L", "M"):
            A = rel.generator(X, w)
            scale = np.max(np.abs(T.data)) * np.max(np.abs(A.data))
            block = flow_block(T, X, rel, w, step=1e-3)
            assert np.max(np.abs(block - whole_window_flow_derivative(T, X, rel, w, 1e-3)[ip])) <= 1e-13 * scale, w
            assert np.max(np.abs(block - dense_flow_difference(A, T, 1e-3)[ip])) <= 1e-12 * scale, w


@pytest.mark.parametrize("m", [-6, -5, -4, -3, -2, -1, 1, 2, 3, 4, 5, 6])
@pytest.mark.parametrize("kind", [UNILATERAL, BILATERAL])
def test_conjugated_block_classes_add_up_to_the_dense_conjugation(rng, kind, m):
    # R = diag(left) e^{tL} diag(right) with unit-modulus diagonals, and the blocks cover
    # the window, a stretch over tile edges, stretches clipped at either end, and single
    # positions of both parities
    rel = Realization.plain(PRIN if kind == BILATERAL else HOLO2)
    w = TruncationWindow(kind, 150, 0)
    a, t, n = rel.generator("L", w), 0.3, w.size
    left, right = (np.exp(1j * rng.uniform(-np.pi, np.pi, n)) for _ in range(2))
    r = mat_exp(a, t, left, right).data
    band = random_shift(rng, w, m).single_diagonal[1]
    T = OperatorMatrix.from_band(w, m, band, ORTHONORMAL)
    dense = r @ T.data @ np.linalg.inv(r)
    for lo, hi in ((0, n), (3, n - 2), (0, 7), (n - 9, n), (70, 71), (71, 72)):
        even, odd = (numkernel._conjugated_block(a, t, T, lo, hi, (q,), left, right) for q in (0, 1))
        i, j = np.indices(even.shape) + lo
        assert not even[(i + j + m) % 2 == 1].any() and not odd[(i + j + m) % 2 == 0].any(), (lo, hi)
        np.testing.assert_allclose(even + odd, dense[lo:hi, lo:hi], rtol=0, atol=1e-13 * np.max(np.abs(band)))
        both = numkernel._conjugated_block(a, t, T, lo, hi, (0, 1), left, right)
        np.testing.assert_array_equal(both, even + odd)


def test_infinitesimal_reports_hold_less_than_two_and_a_half_window_arrays():
    # C[:, P], S[:, P], T'S and T'C over all interior columns, and e and f formed with three
    # block-sized temporaries each, held 17.4 MB, where one window-sized array is 4.0 MB; the
    # flow's own tiles set the peak, 1.42 window arrays, and the suite adds to its block only
    # copies of four diagonals and of one strided sixteenth of it at a time
    w = TruncationWindow(BILATERAL, 256, 64)
    rel = Realization.plain(PRIN)
    t = orthonormal(canonical_shift("T2", PRIN, w), PRIN, w)
    infinitesimal_reports(t, rel, w)  # the cached spectrum is not a temporary
    assert traced_peak(infinitesimal_reports, t, rel, w) <= 2.5 * w.size**2 * 16


def test_infinitesimal_reports_route_gap_holds_no_block_sized_temporary():
    # the flow's own peak is 2.09 interior blocks at N = 512, and the suite reads the block
    # a strided sixteenth at a time; np.abs over the whole block would add a real half block
    w = TruncationWindow(BILATERAL, 512, 128)
    rel = Realization.plain(PRIN)
    t = orthonormal(canonical_shift("T2", PRIN, w), PRIN, w)
    infinitesimal_reports(t, rel, w)  # the cached spectrum is not a temporary
    assert traced_peak(infinitesimal_reports, t, rel, w) <= 2.3 * w.interior_positions().size ** 2 * 16


def test_infinitesimal_reports_refuse_a_nan_of_the_flow(monkeypatch):
    # a NaN in L's flow reaches the values, so DefectReport.build refuses them: off the
    # diagonals that carry a target or the commutator, on diagonal m - 5, whose residue
    # class r = 1 e scales by (1 - i omega^r)/2 = 0 (omega = -i), and on diagonal m - 1
    w = TruncationWindow(BILATERAL, 16, 4)
    rel = Realization.plain(PRIN)
    t = orthonormal(canonical_shift("T3", PRIN, w), PRIN, w)
    m, flow = t.single_diagonal[0], homogeneity.kappa_flow_derivative
    for q in (m - 5, m - 1):
        def poisoned(*args, q=q):
            block = flow(*args)
            block[max(-q, 0), max(q, 0)] = np.nan
            return block

        monkeypatch.setattr(homogeneity, "kappa_flow_derivative", poisoned)
        with pytest.raises(ParameterError, match="non-negative"):
            infinitesimal_reports(t, rel, w)


def test_kappa_commutator_is_the_band_of_the_dense_commutator(rng):
    for label, rel, w, T in oracle_operands(rng, 16):
        for X in ("L", "M"):
            dense = dense_commutator(rel.generator(X, w), T)
            scale = np.max(np.abs(dense))
            assert np.max(np.abs(commutator_matrix(T, X, rel, w).data - dense)) <= 1e-15 * scale, label


FLOW_FAMILIES = (
    (Realization.plain(HOLO2), TruncationWindow(UNILATERAL, 24, 6)),
    (Realization.plain(PRIN), TruncationWindow(BILATERAL, 12, 3)),
    (Realization.reducible(1.5), TruncationWindow(BILATERAL, 12, 3)),
)
FLOW_OPERANDS = {
    "step -1": lambda rng, w: random_shift(rng, w, 1).data.conj().T,  # F-ordered, as .H gives
    "step +1": lambda rng, w: random_shift(rng, w, 1).data,
    "step 2": lambda rng, w: random_shift(rng, w, 2).data,
    "identity": lambda rng, w: np.eye(w.size),
}


@pytest.mark.parametrize("s", [1e-4, 1e-3, 1e-2])
@pytest.mark.parametrize("X", ["L", "M"])
@pytest.mark.parametrize("operand", sorted(FLOW_OPERANDS))
def test_kappa_flow_derivative_matches_dense_difference(rng, operand, X, s):
    for rel, w in FLOW_FAMILIES:
        T = OperatorMatrix(FLOW_OPERANDS[operand](rng, w), w, ORTHONORMAL)
        A = rel.generator(X, w)
        ip = np.ix_(w.interior_positions(), w.interior_positions())
        delta = flow_block(T, X, rel, w, step=s) - dense_flow_difference(A, T, s)[ip]
        assert np.max(np.abs(delta)) <= 1e-12 * np.max(np.abs(T.data)) * np.max(np.abs(A.data)), rel.flavor


def test_kappa_flow_derivative_takes_a_shift(rng):
    rel, w = FLOW_FAMILIES[1]
    shift = OperatorMatrix.from_band(w, 1, random_shift(rng, w, 1).single_diagonal[1], ORTHONORMAL)
    other = OperatorMatrix.from_band(w, 2, random_shift(rng, w, 2).single_diagonal[1], ORTHONORMAL)
    for T in (shift + other, OperatorMatrix(random_dense(rng, w.size), w, ORTHONORMAL)):
        with pytest.raises(ParameterError, match="single diagonal"):
            kappa_flow_derivative(T, rel, w)


#: every certificate that takes a shift T, on the principal family; the door refuses before
#: any other argument is read
BOOST = GroupPath.parse("L:0.1")
SHIFT_READERS = {
    "homogeneity_defect": lambda T, rel, w: homogeneity_defect(T, OperatorMatrix.identity(w, ORTHONORMAL), MobiusElement(1.0, 0.0), w),
    "kappa_flow_derivative": kappa_flow_derivative,
    "kappa_commutator": kappa_commutator,
    "normalizer_defect": lambda T, rel, w: normalizer_defect(T, rel, BOOST, w),
    "Realization.conjugate": lambda T, rel, w: rel.conjugate(T, BOOST, w, 0, w.size),
}
SHIFT_DOOR = "^expected a shift: T needs its nonzero entries on a single diagonal$"


@pytest.mark.parametrize("reader", SHIFT_READERS)
def test_every_certificate_refuses_a_non_shift_at_one_door(reader):
    # a two-band T and a dense T (an exponential) each raise single_diagonal's one message;
    # a step-0 T is a shift, which only the normalizer refuses, with its own message
    w, rel = TruncationWindow(BILATERAL, 16, 4), Realization.plain(PRIN)
    shift = OperatorMatrix.from_band(w, 1, np.arange(1.0, w.size), ORTHONORMAL)
    for T in (shift + shift.H, mat_exp(rel.generator("L", w), 0.1)):
        with pytest.raises(ParameterError, match=SHIFT_DOOR):
            SHIFT_READERS[reader](T, rel, w)
    if reader == "normalizer_defect":
        with pytest.raises(ParameterError, match="^expected a single-step shift$"):
            SHIFT_READERS[reader](OperatorMatrix.identity(w, ORTHONORMAL), rel, w)


def test_kappa_flow_derivative_refuses_other_windows_and_bases():
    rel, w = FLOW_FAMILIES[1]
    for T in (OperatorMatrix.identity(w), OperatorMatrix.identity(TruncationWindow(BILATERAL, 13, 3), ORTHONORMAL)):
        with pytest.raises(WindowMismatchError):
            kappa_flow_derivative(T, rel, w)


def test_kappa_step_validation():
    w = TruncationWindow(UNILATERAL, 8, 2)
    t = canonical_shift("T1", HOLO2, w)
    with pytest.raises(ParameterError):
        kappa_flow_derivative(t, Realization.plain(HOLO2), w, step=1e-7)
    with pytest.raises(ParameterError):
        kappa_flow_derivative(t, Realization.plain(HOLO2), w, step=0.5)


def test_infinitesimal_reports_cover_sharp_and_reducible():
    w = TruncationWindow(UNILATERAL, 64, 16)
    t1s = orthonormal(canonical_shift("T1star", HOLO2, w), HOLO2, w)
    reports = infinitesimal_reports(t1s, Realization.sharp(HOLO2), w)
    assert len(reports) == 8
    assert all(r.passed for r in reports), [(r.name, r.value) for r in reports if not r.passed]

    wb = TruncationWindow(BILATERAL, 64, 16)
    red = Realization.reducible(1.0, 2.0)
    reports = infinitesimal_reports(orthonormal(reducible_shift(red, wb), red.params, wb), red, wb)
    assert all(r.passed for r in reports), [(r.name, r.value) for r in reports if not r.passed]


# ---------------------------------------------------------------- reducible seam


def test_reducible_lambda_check_values():
    w = TruncationWindow(BILATERAL, 16, 4)
    assert reducible_lambda_check(Realization.reducible(1.0, 0.5), w).value <= 1e-12
    report = reducible_lambda_check(Realization.reducible(1.5, 1.0), w)
    assert abs(report.value - 0.5) <= 1e-12
    assert not report.passed
    assert reducible_lambda_check(Realization.reducible(1.2, 0.0), w).value == 0.0


def test_reducible_lambda_check_matches_product_rule(rng):
    w = TruncationWindow(BILATERAL, 16, 4)
    for _ in range(10):
        lam = float(rng.uniform(0.1, 1.9))
        r = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        report = reducible_lambda_check(Realization.reducible(lam, r), w)
        assert abs(report.value - abs(r) * abs(lam - 1.0)) <= 1e-12


def test_reducible_lambda_check_window_guard():
    with pytest.raises(ParameterError):
        reducible_lambda_check(Realization.reducible(1.0, 1.0), TruncationWindow(BILATERAL, 3, 1))
    with pytest.raises(ParameterError):
        reducible_lambda_check(Realization.reducible(1.0, 1.0), TruncationWindow(UNILATERAL, 16, 4))


def test_reducible_lambda_check_refuses_a_realization_without_a_seam():
    # a plain family has no coupling r: the refusal is the reducible shift's, not a TypeError on r = None
    with pytest.raises(ParameterError, match="needs the reducible sum"):
        reducible_lambda_check(Realization.plain(RepnParams(BILATERAL, 0.3, complex(0.35, 0.5))), TruncationWindow(BILATERAL, 16, 4))


def test_reducible_lambda_check_refuses_a_pole_anywhere_in_the_window():
    # lam + n = -2.2e-16 at n = -2, a coefficient that the seam row itself does not read
    with pytest.raises(ParameterError, match="coefficient pole at n=-2 for lam=1.9999999999999998"):
        reducible_lambda_check(Realization.reducible(1.9999999999999998), TruncationWindow(BILATERAL, 64, 16))


@pytest.mark.parametrize("N", [4, 64, 4096])
def test_reducible_lambda_check_reads_the_band_product_witness_bit_for_bit(rng, N):
    w = TruncationWindow(BILATERAL, N, N // 4)
    cases = [(1.0, 1.0), (1.0, 2.5 - 0.5j), (0.5, 0.0), (1.0 - 2.0**-52, 3.0 + 1j), (1.0 + 2.0**-52, -1j), (1.7, -7.0 + 7.0j)]
    count = 10 if N == 4096 else 200  # the oracle's band products are O(N) each
    for _ in range(count):
        lam = float(rng.uniform(0.01, 1.99))
        radius, angle = float(rng.uniform(0.0, 10.0)), float(rng.uniform(-math.pi, math.pi))
        cases.append((lam, cmath.rect(radius, angle)))
    for lam, r in cases:
        rel = Realization.reducible(lam, r)
        assert reducible_lambda_check(rel, w).value == band_product_seam_witness(rel, w), (lam, r)


def _assert_reducible_bands_equal_the_where_formulas(lam, N):
    w = TruncationWindow(BILATERAL, N, 0)
    p = RepnParams(BILATERAL, lam)
    for X, bands in where_reducible_bands(p, w).items():
        got = reducible_generator_matrix(p, X, w).bands
        assert sorted(got) == sorted(bands), X
        for m, d in bands.items():
            assert got[m].tobytes() == np.asarray(d, dtype=np.complex128).tobytes(), (lam, X, m)


#: where lam + fl(1 - lam) could leave 1 if any double could: the subnormal and tiny lam whose
#: 1 - lam rounds to 1, the tie below 1/2 that Sterbenz no longer covers, and the edges of (0, 2)
ADVERSARIAL_LAMS = [5e-324, 1e-300, 2.0**-60, 0.5 - 2.0**-54, 1.0 - 2.0**-52, 1.0 + 2.0**-52, 2.0 - 2.0**-52]


@pytest.mark.parametrize("lam", [0.3, 1.0, 1.9999, *ADVERSARIAL_LAMS])
@pytest.mark.parametrize("N", [1, 4, 64])
def test_reducible_generator_bands_equal_the_where_formulas_bit_for_bit(lam, N):
    # the reducible sum is the plain action at mu_n = 1 - lam below the seam, and its seam
    # columns stay exact zeros only because lam + fl(1 - lam) rounds to exactly 1
    _assert_reducible_bands_equal_the_where_formulas(lam, N)


def test_reducible_generator_bands_equal_the_where_formulas_on_sampled_lambdas():
    rng = np.random.default_rng(1729)
    # uniform in (0, 2), and log-uniform down to the subnormals
    lams = np.concatenate((rng.uniform(0.0, 2.0, 500), 2.0 ** rng.uniform(-1074.0, 1.0, 500)))
    for lam in lams:
        assert 0.0 < lam < 2.0
        _assert_reducible_bands_equal_the_where_formulas(float(lam), 4)
