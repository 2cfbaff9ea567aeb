import cmath
import json
import math

import numpy as np
import pytest

from mobshift import homogeneity, numkernel
from mobshift.cli import DEFAULT_PATHS
from mobshift.errors import EmptyInteriorError, ParameterError, SingularMatrixError, WindowMismatchError
from mobshift.homogeneity import (
    DefectReport,
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
    interior_norm,
    solve,
)
from mobshift.repn import Realization, RepnParams, rep_matrix
from mobshift.shifts import canonical_shift, reducible_shift

from oracles import (
    dense_flow_difference,
    dense_homogeneity_residual,
    dense_mobius,
    orthonormal,
    random_dense,
    random_mobius,
    random_unitary,
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
    data = np.zeros((size, size), dtype=complex)
    for j in range(size):
        data[(j + 1) % size, j] = 1.0
    c = OperatorMatrix(data, w)
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
    report = homogeneity_defect(t, rep_matrix(PRIN, path, w), path_to_mobius(path), w)
    assert report.passed


def test_functional_calculus_composes(rng):
    w = TruncationWindow(BILATERAL, 32, 8)
    t = canonical_shift("T2", PRIN, w)
    for _ in range(5):
        phi = random_mobius(rng, 0.15)
        psi = random_mobius(rng, 0.15)
        outer = mobius_of_operator(compose(phi, psi), t)
        nested = mobius_of_operator(phi, mobius_of_operator(psi, t))
        assert interior_norm(outer - nested, w) <= 1e-9


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
    report = homogeneity_defect(t, rep_matrix(HOLO2, path, w), path_to_mobius(path), w)
    assert report.value < 1e-6
    assert report.passed


def test_homogeneity_certificate_for_t1star_under_sharp():
    w = TruncationWindow(UNILATERAL, 64, 16)
    t = orthonormal(canonical_shift("T1star", HOLO2, w), HOLO2, w)
    path = GroupPath((("M", 0.1), ("h", 0.2)))
    report = homogeneity_defect(t, Realization.sharp(HOLO2).along_path(path, w), path_to_mobius(path), w)
    assert report.value < 1e-6


def test_scaled_shift_is_not_homogeneous():
    w = TruncationWindow(BILATERAL, 64, 16)
    t = 2.0 * orthonormal(canonical_shift("T2", PRIN, w), PRIN, w)
    path = GroupPath((("L", 0.1),))
    report = homogeneity_defect(t, rep_matrix(PRIN, path, w), path_to_mobius(path), w)
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
    d4 = homogeneity_defect(t, R, phi, w.with_padding(4)).value
    d24 = homogeneity_defect(t, R, phi, w.with_padding(24)).value
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
            scale = interior_norm(t @ R, w)
            assert abs(got.value - dense_homogeneity_residual(phi, t, R, w)) <= 1e-14 * scale, (N, pad, text)
            p = w.interior_positions()
            resolvent = np.linalg.norm((R.data @ dense_mobius(phi, t.data) - t.data @ R.data)[np.ix_(p, p)])
            assert got.passed == (resolvent <= got.tolerance), (N, pad, text, got.value, resolvent)


def test_negative_controls_fail_the_resolvent_free_residual():
    path = GroupPath.parse("L:0.1")
    phi = path_to_mobius(path)
    w = TruncationWindow(BILATERAL, 64, 16)
    scaled = 2.0 * orthonormal(canonical_shift("T2", PRIN, w), PRIN, w)
    wh = TruncationWindow(UNILATERAL, 64, 16)
    decaying = orthonormal(OperatorMatrix.from_band(wh, -1, 1.0 / (wh.indices()[:-1] + 2)), HOLO2, wh)
    seam = Realization.reducible(1.5, 1.0)
    cases = [
        ("scaled shift", scaled, rep_matrix(PRIN, path, w), w),
        ("decaying weights", decaying, rep_matrix(HOLO2, path, wh), wh),
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
    R = rep_matrix(PRIN, path, w)
    assert homogeneity_defect(t, R, path_to_mobius(path), w).passed
    assert normalizer_defect(t, R, w).passed


def test_homogeneity_defect_refuses_a_dense_operator(rng):
    w = TruncationWindow(BILATERAL, 8, 2)
    dense = OperatorMatrix(random_dense(rng, w.size), w)
    with pytest.raises(ParameterError):
        homogeneity_defect(dense, OperatorMatrix.identity(w), MobiusElement.identity(), w)


def test_homogeneity_defect_empty_interior():
    w = TruncationWindow(UNILATERAL, 4, 3)
    t = canonical_shift("T1", HOLO2, w)
    with pytest.raises(EmptyInteriorError):
        homogeneity_defect(t, OperatorMatrix.identity(w), MobiusElement.identity(), w)


# ---------------------------------------------------------------- infinitesimal


def test_kappa_identities_for_t1():
    w = TruncationWindow(UNILATERAL, 64, 16)
    t = orthonormal(canonical_shift("T1", HOLO2, w), HOLO2, w)
    square, ident = t @ t, OperatorMatrix.identity(w, t.basis)
    targets = {"L": square - ident, "M": -1j * (square + ident), "e": -ident, "f": square}
    for gen in ("L", "M", "e", "f"):
        fd = kappa_flow_derivative(t, gen, Realization.plain(HOLO2), w)
        assert interior_norm(fd - targets[gen], w) <= 1e-6, gen


def test_kappa_routes_agree(rng):
    w = TruncationWindow(BILATERAL, 64, 16)
    t = orthonormal(canonical_shift("T3", PRIN, w), PRIN, w)
    rel = Realization.plain(PRIN)
    for gen in ("L", "M", "e", "f"):
        fd = kappa_flow_derivative(t, gen, rel, w, step=1e-4)
        comm = kappa_commutator(t, gen, rel, w)
        p = w.interior_positions()
        assert np.max(np.abs((fd - comm).data[np.ix_(p, p)])) <= 1e-7, gen


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
    "dense": lambda rng, w: random_dense(rng, w.size),
}


@pytest.mark.parametrize("s", [1e-4, 1e-3, 1e-2])
@pytest.mark.parametrize("X", ["L", "M"])
@pytest.mark.parametrize("operand", sorted(FLOW_OPERANDS))
def test_kappa_flow_derivative_matches_dense_difference(rng, operand, X, s):
    for rel, w in FLOW_FAMILIES:
        T = OperatorMatrix(FLOW_OPERANDS[operand](rng, w), w, ORTHONORMAL)
        A = rel.generator(X, w)
        delta = kappa_flow_derivative(T, X, rel, w, step=s).data - dense_flow_difference(A, T, s)
        assert np.max(np.abs(delta)) <= 1e-12 * np.max(np.abs(T.data)) * np.max(np.abs(A.data)), rel.flavor


def test_kappa_flow_derivative_refuses_other_windows_and_bases():
    rel, w = FLOW_FAMILIES[1]
    for T in (OperatorMatrix.identity(w), OperatorMatrix.identity(TruncationWindow(BILATERAL, 13, 3), ORTHONORMAL)):
        with pytest.raises(WindowMismatchError):
            kappa_flow_derivative(T, "L", rel, w)


def test_kappa_step_validation():
    w = TruncationWindow(UNILATERAL, 8, 2)
    t = canonical_shift("T1", HOLO2, w)
    with pytest.raises(ParameterError):
        kappa_flow_derivative(t, "L", Realization.plain(HOLO2), w, step=1e-7)
    with pytest.raises(ParameterError):
        kappa_flow_derivative(t, "L", Realization.plain(HOLO2), w, step=0.5)
    with pytest.raises(ParameterError):
        kappa_flow_derivative(t, "h", Realization.plain(HOLO2), w)


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
