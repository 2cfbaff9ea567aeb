import cmath
import tracemalloc

import numpy as np
import pytest

from mobshift import numkernel, repn
from mobshift.errors import (
    ClassificationError,
    EmptyInteriorError,
    GridSizeError,
    NotSkewAdjointError,
    NumericsError,
    ParameterError,
    WindowMismatchError,
)
from mobshift.homogeneity import infinitesimal_reports, kappa_flow_derivative
from mobshift.mobius import GroupPath, MobiusElement, inverse, path_to_mobius, star_path
from mobshift.numkernel import (
    BILATERAL,
    ORTHONORMAL,
    UNILATERAL,
    OperatorMatrix,
    TruncationWindow,
    interior_norm,
    mat_exp,
)
from mobshift.repn import (
    COMPLEMENTARY,
    HOLO,
    PRINCIPAL,
    Realization,
    RepnParams,
    circle_rep_matrix,
    classify_series,
    complementary_mu_interval,
    default_grid_size,
    generator_matrix,
    gram,
    reducible_generator_matrix,
    rep_matrix,
    to_orthonormal,
    unitarity_defect,
    unitarity_residual,
)

from oracles import circle_rep_oracle, pade_expm, random_dense, unblocked_circle_table

PRINCIPAL_P = RepnParams(BILATERAL, 0.3, complex(0.35, 0.7))
COMP_P = RepnParams(BILATERAL, 0.4, 0.2 + 0j)
HOLO2 = RepnParams(UNILATERAL, 2.0)


# ---------------------------------------------------------------- taxonomy


def test_classify_examples():
    assert classify_series(RepnParams(UNILATERAL, 2.0)) == HOLO
    assert classify_series(PRINCIPAL_P) == PRINCIPAL
    assert classify_series(COMP_P) == COMPLEMENTARY


def test_classify_rejections():
    with pytest.raises(ClassificationError):
        classify_series(RepnParams(UNILATERAL, 0.0))
    with pytest.raises(ClassificationError):
        classify_series(RepnParams(BILATERAL, 1.0, 0j))  # reducible point
    with pytest.raises(ClassificationError):
        classify_series(RepnParams(BILATERAL, 1.5, complex(-0.25, 0.0)))
    with pytest.raises(ClassificationError):
        classify_series(RepnParams(BILATERAL, 0.4, complex(0.9, 0.0)))  # outside (-lam, 1-lam)
    with pytest.raises(ClassificationError):
        classify_series(RepnParams(BILATERAL, 0.4, complex(0.5, 0.3)))


@pytest.mark.parametrize(
    "index_set,lam,mu",
    [(UNILATERAL, float("nan"), 0j), (UNILATERAL, float("inf"), 0j), (BILATERAL, 0.3, complex(0.35, float("nan"))),
     (BILATERAL, 0.3, complex(float("nan"), 0.5)), (BILATERAL, float("-inf"), 0.2 + 0j)],
)
def test_repn_params_reject_non_finite_values(index_set, lam, mu):
    with pytest.raises(ParameterError, match="must be finite"):
        RepnParams(index_set, lam, mu)


def test_complementary_mu_interval():
    assert complementary_mu_interval(0.4) == (0.0, 0.6)
    assert complementary_mu_interval(-0.5) == (0.5, 1.0)
    for lam in (-1.0, 1.0, float("nan")):
        with pytest.raises(ClassificationError, match="requires lam in"):
            complementary_mu_interval(lam)


def test_classify_prefers_principal_on_the_coincidence_line():
    # real mu on Re mu = (1 - lam)/2 sits in both descriptions
    assert classify_series(RepnParams(BILATERAL, 0.4, 0.3 + 0j)) == PRINCIPAL


def test_unilateral_requires_zero_mu():
    with pytest.raises(ParameterError):
        RepnParams(UNILATERAL, 1.0, 0.2 + 0j)


def test_reducible_realization_payload():
    rel = Realization.reducible(1.0, 0.5)
    assert rel.flavor == "reducible" and rel.params == RepnParams(BILATERAL, 1.0) and rel.r == 0.5
    assert Realization.reducible(1.0).r == 1.0 and Realization.plain(PRINCIPAL_P).r is None
    for lam, r in ((2.5, 1.0), (0.0, 1.0), (1.0, 11.0), (1.0, 20.0), (1.0, complex("nan"))):
        with pytest.raises(ParameterError):
            Realization.reducible(lam, r)
    with pytest.raises(ParameterError):
        Realization("reducible", RepnParams(BILATERAL, 1.0))
    with pytest.raises(ParameterError):
        Realization("plain", PRINCIPAL_P, 0.5)


# ---------------------------------------------------------------- generators


def test_generator_lowering_kills_bottom_monomial():
    w = TruncationWindow(UNILATERAL, 6, 1)
    e = generator_matrix(HOLO2, "e", w)
    assert np.max(np.abs(e.data[:, 0])) == 0.0


def test_generator_raising_coefficient():
    w = TruncationWindow(UNILATERAL, 6, 1)
    f = generator_matrix(HOLO2, "f", w)
    assert f.entry(4, 3) == pytest.approx(5.0)  # lam + mu + n at n = 3


def test_generator_rotation_eigenvalue():
    w = TruncationWindow(UNILATERAL, 6, 1)
    h = generator_matrix(RepnParams(UNILATERAL, 1.0), "h", w)
    assert h.entry(0, 0) == pytest.approx(-1j)


def test_generator_complex_combinations():
    w = TruncationWindow(BILATERAL, 6, 1)
    e = generator_matrix(PRINCIPAL_P, "e", w)
    f = generator_matrix(PRINCIPAL_P, "f", w)
    L = generator_matrix(PRINCIPAL_P, "L", w)
    M = generator_matrix(PRINCIPAL_P, "M", w)
    np.testing.assert_allclose(L.data, (e + f).data)
    np.testing.assert_allclose(M.data, (1j * (e - f)).data)
    np.testing.assert_allclose((0.5 * (L - 1j * M)).data, e.data, atol=1e-15)
    np.testing.assert_allclose((0.5 * (L + 1j * M)).data, f.data, atol=1e-15)


def _band_reference(w, lowering, raising):
    """Reference e and f: entries lowering(n) at (n - 1, n) and raising(n) at (n + 1, n)."""
    e = np.zeros((w.size, w.size), dtype=complex)
    f = np.zeros((w.size, w.size), dtype=complex)
    for n in range(w.lo, w.hi + 1):
        if w.contains(n - 1):
            e[w.pos(n - 1), w.pos(n)] = lowering(n)
        if w.contains(n + 1):
            f[w.pos(n + 1), w.pos(n)] = raising(n)
    return e, f


def _assert_generators_match(generator, e, f):
    assert np.array_equal(generator("e").data, e)
    assert np.array_equal(generator("f").data, f)
    assert np.array_equal(generator("L").data, e + f)
    assert np.array_equal(generator("M").data, 1j * (e - f))


@pytest.mark.parametrize("p", [HOLO2, PRINCIPAL_P, COMP_P], ids=("holo", "principal", "complementary"))
def test_generator_bands_equal_their_formulas(p):
    w = TruncationWindow(p.index_set, 24, 4)
    e, f = _band_reference(w, lambda n: p.mu - n, lambda n: p.lam + p.mu + n)
    _assert_generators_match(lambda X: generator_matrix(p, X, w), e, f)


def test_reducible_generator_bands_equal_their_formulas():
    w = TruncationWindow(BILATERAL, 24, 4)
    lam = 1.3
    e, f = _band_reference(
        w,
        lambda n: 1.0 - lam - n if n < 0 else (0.0 if n == 0 else -float(n)),
        lambda n: float(n + 1) if n < -1 else (0.0 if n == -1 else lam + n),
    )
    _assert_generators_match(lambda X: reducible_generator_matrix(RepnParams(BILATERAL, lam), X, w), e, f)


def test_generator_window_mismatch():
    with pytest.raises(WindowMismatchError):
        generator_matrix(HOLO2, "e", TruncationWindow(BILATERAL, 6, 1))
    with pytest.raises(ParameterError):
        generator_matrix(HOLO2, "q", TruncationWindow(UNILATERAL, 6, 1))


@pytest.mark.parametrize("p", [HOLO2, PRINCIPAL_P, COMP_P])
def test_bracket_relations_on_interior(p):
    w = TruncationWindow(p.index_set, 16, 3)
    h = generator_matrix(p, "h", w)
    e = generator_matrix(p, "e", w)
    f = generator_matrix(p, "f", w)
    assert interior_norm(h @ e - e @ h - 2j * e, w) <= 1e-10
    assert interior_norm(h @ f - f @ h - (-2j) * f, w) <= 1e-10
    assert interior_norm(e @ f - f @ e - (-1j) * h, w) <= 1e-10


def test_reducible_bracket_relations_on_interior():
    w = TruncationWindow(BILATERAL, 16, 3)
    h = reducible_generator_matrix(RepnParams(BILATERAL, 1.3), "h", w)
    e = reducible_generator_matrix(RepnParams(BILATERAL, 1.3), "e", w)
    f = reducible_generator_matrix(RepnParams(BILATERAL, 1.3), "f", w)
    assert interior_norm(h @ e - e @ h - 2j * e, w) <= 1e-10
    assert interior_norm(h @ f - f @ h - (-2j) * f, w) <= 1e-10
    assert interior_norm(e @ f - f @ e - (-1j) * h, w) <= 1e-10


# ---------------------------------------------------------------- reducible sum


def test_reducible_raising_vanishes_at_seam():
    w = TruncationWindow(BILATERAL, 6, 1)
    f = reducible_generator_matrix(RepnParams(BILATERAL, 1.3), "f", w)
    assert np.max(np.abs(f.data[:, w.pos(-1)])) == 0.0


def test_reducible_lowering_coefficient():
    w = TruncationWindow(BILATERAL, 6, 1)
    e = reducible_generator_matrix(RepnParams(BILATERAL, 1.3), "e", w)
    assert e.entry(-3, -2) == pytest.approx(1.7)  # 1 - lam - n at n = -2


def test_reducible_matches_bilateral_family_at_lambda_one():
    w = TruncationWindow(BILATERAL, 12, 3)
    seam = RepnParams(BILATERAL, 1.0, 0j)
    for gen in ("h", "e", "f"):
        a = reducible_generator_matrix(RepnParams(BILATERAL, 1.0), gen, w)
        b = generator_matrix(seam, gen, w)
        assert np.max(np.abs(a.data - b.data)) <= 1e-14


def test_reducible_parameter_validation():
    w = TruncationWindow(BILATERAL, 6, 1)
    with pytest.raises(ParameterError):
        reducible_generator_matrix(Realization.reducible(2.5).params, "e", w)
    with pytest.raises(WindowMismatchError):
        reducible_generator_matrix(RepnParams(BILATERAL, 1.0), "e", TruncationWindow(UNILATERAL, 6, 1))


# ---------------------------------------------------------------- path matrices


def test_rep_matrix_empty_path_is_identity():
    w = TruncationWindow(BILATERAL, 8, 2)
    out = rep_matrix(PRINCIPAL_P, GroupPath(()), w)
    np.testing.assert_array_equal(out.data, np.eye(w.size))


def test_rep_matrix_rotation_is_exact_diagonal():
    w = TruncationWindow(BILATERAL, 8, 2)
    t = 0.3
    out = rep_matrix(PRINCIPAL_P, GroupPath((("h", t),)), w)
    expected = np.diag(np.exp(-1j * (2.0 * w.indices() + PRINCIPAL_P.lam) * t))
    assert np.max(np.abs(out.data - expected)) <= 1e-13


def test_rep_matrix_is_multiplicative_over_concatenation():
    w = TruncationWindow(BILATERAL, 16, 4)
    p1 = GroupPath((("L", 0.1),))
    p2 = GroupPath((("M", -0.05), ("h", 0.2)))
    whole = rep_matrix(PRINCIPAL_P, p1 + p2, w)
    parts = rep_matrix(PRINCIPAL_P, p1, w) @ rep_matrix(PRINCIPAL_P, p2, w)
    assert np.max(np.abs(whole.data - parts.data)) <= 1e-12


def test_concatenated_path_agrees_with_circle_route():
    w = TruncationWindow(BILATERAL, 64, 16)
    p1 = GroupPath((("L", 0.1),))
    p2 = GroupPath((("M", -0.05), ("h", 0.2)))
    whole = rep_matrix(PRINCIPAL_P, p1 + p2, w)
    parts = rep_matrix(PRINCIPAL_P, p1, w) @ rep_matrix(PRINCIPAL_P, p2, w)
    circle = circle_rep_matrix(PRINCIPAL_P, p1 + p2, w)
    ip = w.interior_positions()
    block = np.ix_(ip, ip)
    assert np.max(np.abs(whole.data[block] - circle.data[block])) <= 1e-7
    assert np.max(np.abs(parts.data[block] - circle.data[block])) <= 1e-7


def test_rep_matrix_sharp_values():
    w = TruncationWindow(UNILATERAL, 8, 2)
    sharp = Realization.sharp(HOLO2)
    lpath = GroupPath((("L", 0.15),))
    np.testing.assert_array_equal(sharp.along_path(lpath, w).data, rep_matrix(HOLO2, lpath, w).data)
    hpath = GroupPath((("h", 0.2),))
    np.testing.assert_array_equal(
        sharp.along_path(hpath, w).data,
        rep_matrix(HOLO2, GroupPath((("h", -0.2),)), w).data,
    )
    np.testing.assert_array_equal(sharp.along_path(GroupPath(()), w).data, np.eye(w.size))


def test_realization_generator_tables():
    w = TruncationWindow(UNILATERAL, 8, 2)
    plain = Realization.plain(HOLO2)
    sharp = Realization.sharp(HOLO2)
    np.testing.assert_array_equal(sharp.generator("e", w).data, plain.generator("f", w).data)
    np.testing.assert_array_equal(sharp.generator("f", w).data, plain.generator("e", w).data)
    np.testing.assert_array_equal(sharp.generator("h", w).data, (-1.0 * plain.generator("h", w)).data)
    np.testing.assert_array_equal(sharp.generator("L", w).data, plain.generator("L", w).data)
    np.testing.assert_array_equal(sharp.generator("M", w).data, (-1.0 * plain.generator("M", w)).data)


def test_realization_paths_match_module_functions():
    w = TruncationWindow(UNILATERAL, 8, 2)
    path = GroupPath((("M", 0.1), ("h", 0.2)))
    # the sharp generators against the plain route along the twisted path
    np.testing.assert_allclose(
        Realization.sharp(HOLO2).along_path(path, w).data, rep_matrix(HOLO2, star_path(path), w).data, atol=1e-14
    )
    wb = TruncationWindow(BILATERAL, 8, 2)
    red = Realization.reducible(1.0)
    seam = RepnParams(BILATERAL, 1.0, 0j)
    np.testing.assert_allclose(
        red.along_path(path, wb).data, rep_matrix(seam, path, wb).data, atol=1e-14
    )


# ---------------------------------------------------------------- spectral exponential

SPECTRAL_CASES = {
    "holo": (Realization.plain(RepnParams(UNILATERAL, 2.7)), UNILATERAL),
    "sharp": (Realization.sharp(RepnParams(UNILATERAL, 2.7)), UNILATERAL),
    "principal": (Realization.plain(PRINCIPAL_P), BILATERAL),
    "complementary": (Realization.plain(COMP_P), BILATERAL),
    "reducible": (Realization.reducible(1.5), BILATERAL),
    "seam": (Realization.plain(RepnParams(BILATERAL, 1.0, 0j)), BILATERAL),
}


# (case, N, relative bound); holo at N = 63 is the one even-size window (64
# positions), where the parity split has as many even rows as odd ones
SPECTRAL_WINDOWS = [pytest.param(case, 24, 1e-12, id=case) for case in sorted(SPECTRAL_CASES)]
SPECTRAL_WINDOWS += [pytest.param(case, 64, 2e-14, id=f"{case}-64") for case in sorted(SPECTRAL_CASES)]
SPECTRAL_WINDOWS += [pytest.param("holo", 63, 2e-14, id="holo-63")]


@pytest.mark.parametrize("t", [1e-4, -1e-4, 0.1, 0.5])
@pytest.mark.parametrize("X", ["L", "M"])
@pytest.mark.parametrize("case, N, bound", SPECTRAL_WINDOWS)
def test_mat_exp_matches_pade_oracle(case, N, bound, X, t):
    rel, kind = SPECTRAL_CASES[case]
    A = rel.generator(X, TruncationWindow(kind, N, N // 4))
    expected = pade_expm(t * A.data)
    assert np.max(np.abs(mat_exp(A, t).data - expected)) <= bound * np.max(np.abs(expected))


@pytest.mark.parametrize("case", sorted(SPECTRAL_CASES))
def test_generators_are_the_monomial_ones_in_the_orthonormal_basis(case):
    rel, kind = SPECTRAL_CASES[case]
    w = TruncationWindow(kind, 24, 6)
    build = reducible_generator_matrix if rel.flavor == "reducible" else generator_matrix
    for X in ("h", "e", "f", "L", "M"):
        A = rel.generator(X, w)
        sign, xs = repn._SHARP_GEN[X] if rel.flavor == "sharp" else (1.0, X)
        want = sign * to_orthonormal(build(rel.params, xs, w), gram(rel.params, w)).data
        assert A.basis == ORTHONORMAL
        assert np.max(np.abs(A.data - want)) <= 1e-15 * np.max(np.abs(want)), X
        if X in ("h", "L", "M"):
            assert np.max(np.abs(A.data + A.data.conj().T)) <= 1e-14 * np.max(np.abs(A.data)), X


def test_mat_exp_refuses_generators_without_a_gram():
    # the monomial holomorphic L is skew only against its Gram, which mat_exp never reads
    w = TruncationWindow(UNILATERAL, 8, 2)
    with pytest.raises(NotSkewAdjointError):
        mat_exp(generator_matrix(HOLO2, "L", w), 0.1)
    dense = OperatorMatrix(random_dense(np.random.default_rng(3), w.size), w)
    with pytest.raises(NotSkewAdjointError):
        mat_exp(dense)


def test_mat_exp_refuses_generators_off_the_first_off_diagonals():
    w = TruncationWindow(BILATERAL, 8, 2)
    h, L = generator_matrix(PRINCIPAL_P, "h", w), generator_matrix(PRINCIPAL_P, "L", w)
    second = OperatorMatrix.from_band(w, 2, np.full(w.size - 2, 0.5))
    for X in (h + L, L + second - second.H):
        with pytest.raises(NotSkewAdjointError):
            mat_exp(X, 0.1)


def test_exponential_caches_hold_one_realization():
    w = TruncationWindow(BILATERAL, 16, 4)
    path = GroupPath((("L", 0.1), ("M", -0.05), ("h", 0.2)))
    T = OperatorMatrix.identity(w, ORTHONORMAL)
    for lam in (0.1, 0.3, 0.5):
        p = RepnParams(BILATERAL, lam, complex((1.0 - lam) / 2.0, 0.5))
        for rel in (Realization.plain(p), Realization.sharp(p), Realization.reducible(lam + 1.0)):
            rel.along_path(path, w)
            kappa_flow_derivative(T, "M", rel, w)
            assert len(numkernel._spectra) <= numkernel.GENERATOR_CACHE_SIZE == 3
            assert Realization.generator.cache_info().currsize <= 3
        assert Realization.plain(p).generator("L", w) is Realization.plain(p).generator("L", w)


@pytest.mark.parametrize("case", ["holo", "sharp", "principal", "complementary", "reducible"])
def test_l_and_m_share_one_spectrum(case, monkeypatch):
    # M is L turned a quarter by a diagonal unitary, which the phases absorb
    rel, kind = SPECTRAL_CASES[case]
    for N in (32, 128):
        w = TruncationWindow(kind, N, N // 4)
        hr = [numkernel._band_form(rel.generator(X, w).data)[0] for X in ("L", "M")]
        assert hr[0].tobytes() == hr[1].tobytes()
    w = TruncationWindow(kind, 32, 8)
    eigh, calls = np.linalg.eigh, []
    monkeypatch.setattr(numkernel, "_spectra", {})
    monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(a.shape) or eigh(a))
    rel.along_path(GroupPath((("L", 0.1), ("M", -0.05), ("h", 0.2))), w)
    infinitesimal_reports(OperatorMatrix.identity(w, ORTHONORMAL), rel, w)
    assert calls == [(w.size, w.size)]


def test_a_cached_spectrum_never_vouches_for_a_generator():
    rel, kind = SPECTRAL_CASES["principal"]
    w = TruncationWindow(kind, 16, 4)
    L = rel.generator("L", w)
    mat_exp(L, 0.1)
    assert numkernel._band_form(L.data)[0].tobytes() in numkernel._spectra
    # the same |lower band| as L, so the same Hr, but an upper band that no longer mirrors it
    data = L.data.copy()
    k = np.arange(w.size - 1)
    data[k, k + 1] *= 1.0 + 1e-6
    with pytest.raises(NotSkewAdjointError):
        mat_exp(OperatorMatrix(data, w, ORTHONORMAL), 0.1)


# ---------------------------------------------------------------- gram / unitarity


def test_gram_principal_is_exact_identity():
    w = TruncationWindow(BILATERAL, 16, 4)
    assert np.array_equal(gram(PRINCIPAL_P, w).data, np.eye(w.size))


def test_gram_holomorphic_values():
    w = TruncationWindow(UNILATERAL, 8, 2)
    g1 = gram(RepnParams(UNILATERAL, 1.0), w)
    assert np.max(np.abs(g1.data - np.eye(w.size))) <= 1e-14
    g2 = gram(HOLO2, w)
    assert g2.entry(3, 3) == pytest.approx(0.25, abs=1e-13)


def test_unitarity_defect_rotation_path():
    w = TruncationWindow(BILATERAL, 64, 16)
    assert unitarity_defect(PRINCIPAL_P, GroupPath((("h", 0.3),)), w) <= 1e-14


def test_unitarity_defect_translation_path_small():
    w = TruncationWindow(UNILATERAL, 64, 16)
    assert unitarity_defect(HOLO2, GroupPath((("L", 0.1),)), w) < 1e-8


def test_unitarity_residual_matches_the_whole_product():
    # only the interior block is formed; the whole R* R - I is the reference
    rng = np.random.default_rng(7)
    path = GroupPath((("L", 0.1), ("M", -0.05), ("h", 0.2)))
    for p, w in ((PRINCIPAL_P, TruncationWindow(BILATERAL, 24, 6)), (HOLO2, TruncationWindow(UNILATERAL, 24, 6))):
        for R in (rep_matrix(p, path, w), OperatorMatrix(random_dense(rng, w.size), w)):
            expected = interior_norm(R.H @ R - OperatorMatrix.identity(w, R.basis), w)
            assert abs(unitarity_residual(R, w) - expected) <= 1e-13 * max(1.0, expected)
    with pytest.raises(EmptyInteriorError):
        unitarity_residual(R, TruncationWindow(UNILATERAL, 24, 13))
    with pytest.raises(WindowMismatchError):
        unitarity_residual(R, TruncationWindow(UNILATERAL, 20, 5))


@pytest.mark.parametrize("lam", [40.0, 140.0, 200.0])
def test_unitarity_defect_at_large_lambda(lam):
    # the Gram spans hundreds of decades here; in the orthonormal basis the
    # defect still sits at the rounding floor
    w = TruncationWindow(UNILATERAL, 64, 16)
    path = GroupPath((("L", 0.1), ("M", -0.05), ("h", 0.2)))
    assert unitarity_defect(RepnParams(UNILATERAL, lam), path, w) <= 1e-12


def test_unitarity_defect_padding_profile():
    # truncation keeps the generator skew against the Gram form, so the
    # defect sits at the rounding floor and must not grow with padding
    w = TruncationWindow(UNILATERAL, 64, 4)
    path = GroupPath((("L", 0.1),))
    values = [unitarity_defect(HOLO2, path, w.with_padding(p)) for p in (4, 8, 12, 16, 20, 24)]
    assert values[0] <= 1e-12
    for a, b in zip(values, values[1:]):
        assert b <= 2.0 * a + 1e-13


# ---------------------------------------------------------------- circle route


def monomial(w, n):
    """Coefficients of f_n over the window w."""
    return np.eye(w.size)[w.pos(n)]


def test_circle_oracle_identity_fixes_coefficients():
    w = TruncationWindow(BILATERAL, 8, 2)
    rng = np.random.default_rng(5)
    F = rng.standard_normal(w.size) + 1j * rng.standard_normal(w.size)
    out = circle_rep_oracle(PRINCIPAL_P, MobiusElement.identity(), 0.0, 0.0, w, F)
    assert np.max(np.abs(out - F)) <= 1e-13


def test_circle_oracle_rotation_scales_coefficients():
    p = PRINCIPAL_P
    w = TruncationWindow(BILATERAL, 8, 2)
    t = 0.2
    phi_inv = MobiusElement(cmath.exp(-2j * t), 0.0)
    out = circle_rep_oracle(p, phi_inv, (p.lam + p.mu) / 2.0, p.mu / 2.0, w, np.ones(w.size))
    expected = np.exp(-1j * (2.0 * w.indices() + p.lam) * t)
    assert np.max(np.abs(out - expected)) <= 1e-12


def test_circle_oracle_matches_rep_matrix_column():
    # the oracle acts on monomials: its image of f_0 is column 0 of R scaled back
    # by ||f_n||; the rows near n = 0 hold the column's content (below 1e-15 from n = 16)
    p = HOLO2
    w = TruncationWindow(UNILATERAL, 64, 16)
    path = GroupPath((("L", 0.1),))
    R = rep_matrix(p, path, w)
    phi_inv = inverse(path_to_mobius(path))
    out = circle_rep_oracle(p, phi_inv, (p.lam + p.mu) / 2.0, p.mu / 2.0, w, monomial(w, 0))
    s = np.sqrt(gram(p, w).data.diagonal().real)
    rows = w.pos(0) + np.arange(8)
    assert np.max(np.abs(out[rows] * s[rows] - R.data[rows, w.pos(0)])) <= 1e-12


def test_circle_matrix_matches_rep_matrix_interior():
    path = GroupPath((("L", 0.1),))
    for p, w in (
        (RepnParams(BILATERAL, 0.3, complex(0.35, 0.5)), TruncationWindow(BILATERAL, 64, 16)),
        (RepnParams(UNILATERAL, 16.0), TruncationWindow(UNILATERAL, 64, 16)),
    ):
        R = rep_matrix(p, path, w)
        C = circle_rep_matrix(p, path, w)
        assert R.basis == C.basis == ORTHONORMAL
        ip = w.interior_positions()
        assert np.max(np.abs(R.data[np.ix_(ip, ip)] - C.data[np.ix_(ip, ip)])) <= 1e-11, p


def test_circle_oracle_rejects_far_elements():
    w = TruncationWindow(BILATERAL, 8, 2)
    far = MobiusElement(1.0, 0.45)
    with pytest.raises(ParameterError):
        circle_rep_oracle(PRINCIPAL_P, far, 0.15, 0.0, w, monomial(w, 0))


def test_circle_oracle_grid_too_small():
    p = RepnParams(BILATERAL, 0.3, complex(0.35, 0.5))
    w = TruncationWindow(BILATERAL, 8, 2)
    phi_inv = MobiusElement(1.0, 0.3)
    with pytest.raises(GridSizeError):
        circle_rep_oracle(p, phi_inv, (p.lam + p.mu) / 2.0, p.mu / 2.0, w, monomial(w, 8), grid_size=32)


def test_circle_oracle_detects_negative_leakage():
    # a conjugate-exponent mismatch drives content into negative indices
    w = TruncationWindow(UNILATERAL, 16, 4)
    phi_inv = MobiusElement(1.0, 0.25)
    with pytest.raises(NumericsError):
        circle_rep_oracle(HOLO2, phi_inv, 1.0, 0.5, w, monomial(w, 0))


# one window smaller than a block, one spanning a partial block on each side
CIRCLE_CASES = [
    (HOLO2, TruncationWindow(UNILATERAL, 16, 4), GroupPath((("L", 0.1),))),
    (RepnParams(UNILATERAL, 5.0), TruncationWindow(UNILATERAL, 100, 25), GroupPath((("M", 0.1), ("h", 0.2)))),
    (PRINCIPAL_P, TruncationWindow(BILATERAL, 8, 2), GroupPath((("M", 0.1),))),
    (PRINCIPAL_P, TruncationWindow(BILATERAL, 40, 10), GroupPath((("L", 0.1), ("M", -0.05), ("h", 0.2)))),
    (COMP_P, TruncationWindow(BILATERAL, 40, 10), GroupPath((("L", -0.15),))),
]


@pytest.mark.parametrize(
    "p, w, path", CIRCLE_CASES, ids=("holo-17", "holo-101", "principal-17", "principal-81", "complementary-81")
)
def test_blocked_circle_table_matches_unblocked_oracle(p, w, path):
    rng = np.random.default_rng(w.size)
    assert w.size < repn._CIRCLE_BLOCK or w.size % repn._CIRCLE_BLOCK
    phi_inv = inverse(path_to_mobius(path))
    eta = ((p.lam + p.mu) / 2.0, p.mu / 2.0)
    expected = unblocked_circle_table(phi_inv, *eta, w, default_grid_size(w))
    scale = np.max(np.abs(expected))
    s = np.sqrt(gram(p, w).data.diagonal().real)
    blocked = circle_rep_matrix(p, path, w).data / s[:, None] * s[None, :]
    assert np.max(np.abs(blocked - expected)) <= 1e-14 * scale
    F = rng.standard_normal(w.size) + 1j * rng.standard_normal(w.size)
    out = circle_rep_oracle(p, phi_inv, *eta, w, F)
    assert np.max(np.abs(out - expected @ F)) <= 1e-14 * scale * np.sum(np.abs(F))


def test_blocked_circle_checks_report_the_whole_table_maximum():
    # a grid too small for a window of several blocks, and leakage into
    # negative indices: the messages quote the maximum over every block
    phi_inv = MobiusElement(1.0, 0.3)
    principal_eta = ((PRINCIPAL_P.lam + PRINCIPAL_P.mu) / 2.0, PRINCIPAL_P.mu / 2.0)
    for p, window, eta, grid, error in (
        (PRINCIPAL_P, TruncationWindow(BILATERAL, 40, 10), principal_eta, 128, GridSizeError),
        (HOLO2, TruncationWindow(UNILATERAL, 80, 20), (1.0, 0.5), None, NumericsError),
    ):
        with pytest.raises(error) as blocked:
            circle_rep_oracle(p, phi_inv, *eta, window, monomial(window, 0), grid_size=grid)
        with pytest.raises(error) as whole:
            unblocked_circle_table(phi_inv, *eta, window, grid or default_grid_size(window))
        assert str(blocked.value) == str(whole.value)


def _traced_peak(p, path, w):
    tracemalloc.start()
    try:
        circle_rep_matrix(p, path, w)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_circle_route_memory_grows_like_the_output():
    # the whole-table construction holds two grid x size arrays: 134.7 MB at N = 256
    p, path = PRINCIPAL_P, GroupPath((("M", 0.1),))
    circle_rep_matrix(p, path, TruncationWindow(BILATERAL, 8, 2))
    peaks = {}
    for N in (128, 256):
        w = TruncationWindow(BILATERAL, N, N // 4)
        peaks[N] = _traced_peak(p, path, w)
    size, grid = 513, default_grid_size(TruncationWindow(BILATERAL, 256, 64))
    assert peaks[256] < 3 * size * size * 16 + 3 * repn._CIRCLE_BLOCK * grid * 16
    assert peaks[256] < 4 * peaks[128]


def test_default_grid_size_power_of_two():
    w = TruncationWindow(BILATERAL, 64, 16)
    g = default_grid_size(w)
    assert g >= 8 * w.size and g & (g - 1) == 0
