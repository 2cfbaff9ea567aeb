import cmath
import re
import weakref

import numpy as np
import pytest

from mobshift import numkernel, repn
from mobshift.errors import NumericsError, ParameterError, WindowMismatchError
from mobshift.cli import DEFAULT_PATHS
from mobshift.homogeneity import homogeneity_defect, infinitesimal_reports, kappa_flow_derivative
from mobshift.mobius import STAR_SIGNS, GroupPath, MobiusElement, cartan, inverse, path_to_mobius
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
    generator_matrix,
    gram,
    reducible_generator_matrix,
    unitarity_residual,
)
from mobshift.shifts import canonical_shift
from mobshift.specialfn import norm_sq_sequence

from oracles import (
    circle_rep_oracle,
    pade_expm,
    product_rep_matrix,
    quarter_turn,
    random_dense,
    star_path,
    tile_edge_windows,
    traced_peak,
    unblocked_circle_table,
)

PRINCIPAL_P = RepnParams(BILATERAL, 0.3, complex(0.35, 0.7))
COMP_P = RepnParams(BILATERAL, 0.4, 0.2 + 0j)
HOLO2 = RepnParams(UNILATERAL, 2.0)


# ---------------------------------------------------------------- taxonomy


def test_classify_examples():
    assert classify_series(RepnParams(UNILATERAL, 2.0)) == HOLO
    assert classify_series(PRINCIPAL_P) == PRINCIPAL
    assert classify_series(COMP_P) == COMPLEMENTARY


def test_classify_rejections():
    with pytest.raises(ParameterError, match="the holomorphic family requires lam > 0"):
        classify_series(RepnParams(UNILATERAL, 0.0))
    with pytest.raises(ParameterError, match="integer mu is the reducible direct-sum point"):
        classify_series(RepnParams(BILATERAL, 1.0, 0j))
    with pytest.raises(ParameterError, match="the principal family requires lam in"):
        classify_series(RepnParams(BILATERAL, 1.5, complex(-0.25, 0.0)))
    with pytest.raises(ParameterError, match="the complementary family requires mu in"):
        classify_series(RepnParams(BILATERAL, 0.4, complex(0.9, 0.0)))  # outside (-lam, 1-lam)
    with pytest.raises(ParameterError, match="match neither the principal nor the complementary"):
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
        with pytest.raises(ParameterError, match="requires lam in"):
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


@pytest.mark.parametrize(
    "p",
    [HOLO2, PRINCIPAL_P, COMP_P, RepnParams(BILATERAL, 0.3, complex(0.35, -0.0))],
    ids=("holo", "principal", "complementary", "principal Im mu -0"),
)
def test_generator_bands_equal_their_formulas(p):
    w = TruncationWindow(p.index_set, 24, 4)
    e, f = _band_reference(w, lambda n: p.mu - n, lambda n: p.lam + p.mu + n)
    _assert_generators_match(lambda X: generator_matrix(p, X, w), e, f)
    # byte for byte, the signed zero of Im mu included: mu_n is mu at every index
    n, bands = w.indices(), generator_matrix(p, "L", w).bands
    assert bands[1].tobytes() == (p.mu - n[1:]).tobytes()
    assert bands[-1].tobytes() == (p.lam + p.mu + n[:-1]).tobytes()


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
    out = Realization.plain(PRINCIPAL_P).along_path(GroupPath(()), w)
    np.testing.assert_array_equal(out.data, np.eye(w.size))


def test_rep_matrix_rotation_is_exact_diagonal():
    w = TruncationWindow(BILATERAL, 8, 2)
    t = 0.3
    out = Realization.plain(PRINCIPAL_P).along_path(GroupPath((("h", t),)), w)
    expected = np.diag(np.exp(-1j * (2.0 * w.indices() + PRINCIPAL_P.lam) * t))
    assert np.max(np.abs(out.data - expected)) <= 1e-13


def test_rep_matrix_is_multiplicative_over_concatenation():
    p1 = GroupPath((("L", 0.1),))
    p2 = GroupPath((("M", -0.05), ("h", 0.2)))
    # the ordered product is multiplicative by construction, over the whole window
    w = TruncationWindow(BILATERAL, 16, 4)
    rel = Realization.plain(PRINCIPAL_P)
    whole = product_rep_matrix(rel, GroupPath(p1.segments + p2.segments), w)
    assert np.max(np.abs(whole - product_rep_matrix(rel, p1, w) @ product_rep_matrix(rel, p2, w))) <= 1e-12
    # the Cartan form truncates once per path, not once per segment, so R(p1 + p2) and
    # R(p1) R(p2) differ near the window edge (by 0.64 at N = 16, pad 4) and agree on a deep interior
    w = TruncationWindow(BILATERAL, 128, 64)
    whole = Realization.plain(PRINCIPAL_P).along_path(GroupPath(p1.segments + p2.segments), w)
    parts = Realization.plain(PRINCIPAL_P).along_path(p1, w).data @ Realization.plain(PRINCIPAL_P).along_path(p2, w).data
    ip = w.interior_positions()
    assert np.max(np.abs(whole.data - parts)[np.ix_(ip, ip)]) <= 1e-13


CARTAN_CASES = {
    "holo": (Realization.plain(RepnParams(UNILATERAL, 2.7)), UNILATERAL),
    "sharp": (Realization.sharp(RepnParams(UNILATERAL, 2.7)), UNILATERAL),
    "principal": (Realization.plain(PRINCIPAL_P), BILATERAL),
    "complementary": (Realization.plain(COMP_P), BILATERAL),
    "reducible": (Realization.reducible(1.3, 0.7 + 0.2j), BILATERAL),
}
CARTAN_PATHS = (
    "L:0.1", "M:0.1", "h:0.3", "L:0.1,M:-0.05,h:0.2",  # the CLI's default paths
    "h:0.5,h:0.5,h:0.5,L:0.2", "h:0.5,L:0.3,h:0.5,M:-0.3,h:0.5,L:0.1,h:0.5", "L:-0.2,M:0.3",
)


@pytest.mark.parametrize("case", sorted(CARTAN_CASES))
def test_cartan_form_matches_the_ordered_product(case):
    # one exponential between two diagonals against one exponential per segment; the
    # product's extra truncation errors stay near the edge, out of a deep interior.
    # The fifth and sixth paths turn past pi/2, so the rotation angle must be lifted to the cover
    rel, kind = CARTAN_CASES[case]
    w = TruncationWindow(kind, 256, 128)
    ip = np.ix_(w.interior_positions(), w.interior_positions())
    for text in CARTAN_PATHS:
        path = GroupPath.parse(text)
        R = rel.along_path(path, w)
        assert R.basis == ORTHONORMAL
        assert np.max(np.abs(R.data - product_rep_matrix(rel, path, w))[ip]) <= 5e-14, text


def test_cartan_form_of_a_long_boost_matches_the_ordered_product():
    path = GroupPath.parse("L:0.1,M:0.1,L:0.1,M:0.1")
    assert 0.25 <= abs(path_to_mobius(path).beta) <= 0.35
    rel = Realization.plain(PRINCIPAL_P)
    w = TruncationWindow(BILATERAL, 256, 160)
    ip = np.ix_(w.interior_positions(), w.interior_positions())
    assert np.max(np.abs(rel.along_path(path, w).data - product_rep_matrix(rel, path, w))[ip]) <= 5e-14


def test_along_path_takes_one_exponential_of_l_and_no_dense_product(monkeypatch):
    rel = Realization.plain(PRINCIPAL_P)
    w = TruncationWindow(BILATERAL, 16, 4)
    calls = []
    exp = repn.mat_exp
    monkeypatch.setattr(repn, "mat_exp", lambda X, *args: calls.append(X) or exp(X, *args))
    monkeypatch.setattr(OperatorMatrix, "__matmul__", lambda *args: pytest.fail("along_path formed a product"))
    for text, exps in (("L:0.1,M:-0.05,h:0.2,M:0.3,L:-0.4", 1), ("M:0.1", 1), ("h:0.5,h:-0.2", 0), ("id", 0)):
        calls.clear()
        rel.along_path(GroupPath.parse(text), w)
        assert len(calls) == exps, text
        assert all(np.array_equal(X.data, rel.generator("L", w).data) for X in calls), text


def test_along_path_reads_dr_h_without_building_it(monkeypatch):
    # dR(h) is diagonal and the same in both bases: R takes its diagonal from the
    # family's parameters, bit for bit what the dense orthonormal h held, with
    # D(theta1 + theta2) on the left and D(theta2)'s remainder as z^(k - j) = c_k / c_j
    def dense_h_along_path(rel, path, w):
        theta1, s, theta2 = cartan(path)
        d = np.diagonal(rel.generator("h", w).data)
        if s == 0.0:
            return np.diag(np.exp((theta1 + theta2) * d))
        # d_k - d_j = -2i sign (k - j)
        c = np.cumprod(np.full(w.size, np.exp(-2j * np.sign((d[0] - d[1]).imag) * theta2)))
        return mat_exp(rel.generator("L", w), s, np.exp((theta1 + theta2) * d) / c, c).data

    generator, asked = Realization.generator, []
    monkeypatch.setattr(Realization, "generator", lambda rel, X, w: asked.append(X) or generator(rel, X, w))
    for case in ("holo", "principal", "sharp", "reducible"):
        rel, kind = CARTAN_CASES[case]
        w = TruncationWindow(kind, 32, 8)
        for text in DEFAULT_PATHS:
            asked.clear()
            R = rel.along_path(GroupPath.parse(text), w)
            assert "h" not in asked, (case, text)
            np.testing.assert_array_equal(R.data, dense_h_along_path(rel, GroupPath.parse(text), w))
    with pytest.raises(WindowMismatchError):
        Realization.plain(HOLO2).along_path(GroupPath.parse("h:0.3"), TruncationWindow(BILATERAL, 8, 2))


def test_single_segment_paths_are_the_exponential_of_their_generator():
    # a bare L:t or h:t is its own Cartan form: bit for bit the exponential of t dR(X),
    # which for the diagonal dR(h) is its scalar exponentials
    for rel, kind in CARTAN_CASES.values():
        w = TruncationWindow(kind, 16, 4)
        for X, t in (("L", 0.15), ("L", -0.37), ("h", 0.3), ("h", -0.5)):
            R = rel.along_path(GroupPath(((X, t),)), w)
            a = rel.generator(X, w)
            expected = np.diag(np.exp(t * np.diagonal(a.data))) if X == "h" else mat_exp(a, t).data
            np.testing.assert_array_equal(R.data, expected)


@pytest.mark.parametrize("N", [128, 256])
def test_cartan_form_agrees_with_circle_route(N):
    # the last path turns by 1.5 before its boost: the lift agrees with the principal log of alpha
    w = TruncationWindow(BILATERAL, N, N // 4)
    ip = np.ix_(w.interior_positions(), w.interior_positions())
    for p in (PRINCIPAL_P, COMP_P):
        for text in ("L:0.1,M:-0.05,h:0.2", "M:0.1", "h:0.5,h:0.5,h:0.5,L:0.1"):
            path = GroupPath.parse(text)
            gap = np.max(np.abs(Realization.plain(p).along_path(path, w).data - circle_rep_matrix(p, path, w).data)[ip])
            assert gap <= 1e-13, (p, text)


def test_concatenated_path_agrees_with_circle_route():
    w = TruncationWindow(BILATERAL, 64, 16)
    p1 = GroupPath((("L", 0.1),))
    p2 = GroupPath((("M", -0.05), ("h", 0.2)))
    whole = Realization.plain(PRINCIPAL_P).along_path(GroupPath(p1.segments + p2.segments), w)
    parts = Realization.plain(PRINCIPAL_P).along_path(p1, w).data @ Realization.plain(PRINCIPAL_P).along_path(p2, w).data
    circle = circle_rep_matrix(PRINCIPAL_P, GroupPath(p1.segments + p2.segments), w)
    ip = w.interior_positions()
    block = np.ix_(ip, ip)
    assert np.max(np.abs(whole.data[block] - circle.data[block])) <= 1e-7
    assert np.max(np.abs(parts[block] - circle.data[block])) <= 1e-7


def test_rep_matrix_sharp_values():
    w = TruncationWindow(UNILATERAL, 8, 2)
    sharp = Realization.sharp(HOLO2)
    lpath = GroupPath((("L", 0.15),))
    np.testing.assert_array_equal(sharp.along_path(lpath, w).data, Realization.plain(HOLO2).along_path(lpath, w).data)
    hpath = GroupPath((("h", 0.2),))
    np.testing.assert_array_equal(
        sharp.along_path(hpath, w).data,
        Realization.plain(HOLO2).along_path(GroupPath((("h", -0.2),)), w).data,
    )
    np.testing.assert_array_equal(sharp.along_path(GroupPath(()), w).data, np.eye(w.size))


def test_realization_generator_tables():
    w = TruncationWindow(UNILATERAL, 8, 2)
    plain = Realization.plain(HOLO2)
    sharp = Realization.sharp(HOLO2)
    np.testing.assert_array_equal(sharp.generator("h", w).data, (-1.0 * plain.generator("h", w)).data)
    np.testing.assert_array_equal(sharp.generator("L", w).data, plain.generator("L", w).data)
    np.testing.assert_array_equal(sharp.generator("M", w).data, (-1.0 * plain.generator("M", w)).data)


@pytest.mark.parametrize(
    "rel, kind",
    [(Realization.plain(HOLO2), UNILATERAL), (Realization.sharp(HOLO2), UNILATERAL), (Realization.reducible(1.5), BILATERAL)],
    ids=("plain", "sharp", "reducible"),
)
def test_realization_builds_only_the_real_generators(rel, kind):
    # e and f are (L -/+ iM)/2 by linearity; only the monomial generator_matrix keeps them
    w = TruncationWindow(kind, 8, 2)
    for X in ("e", "f", "x"):
        with pytest.raises(ParameterError, match="expected h, L or M"):
            rel.generator(X, w)


def test_realization_paths_match_module_functions():
    w = TruncationWindow(UNILATERAL, 8, 2)
    path = GroupPath((("M", 0.1), ("h", 0.2)))
    # the sharp generators against the plain route along the twisted path
    np.testing.assert_allclose(
        Realization.sharp(HOLO2).along_path(path, w).data, Realization.plain(HOLO2).along_path(star_path(path), w).data, atol=1e-14
    )
    wb = TruncationWindow(BILATERAL, 8, 2)
    red = Realization.reducible(1.0)
    seam = RepnParams(BILATERAL, 1.0, 0j)
    np.testing.assert_allclose(
        red.along_path(path, wb).data, Realization.plain(seam).along_path(path, wb).data, atol=1e-14
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
    s = np.sqrt(norm_sq_sequence(rel.params, w))
    for X in ("h", "L", "M"):
        A = rel.generator(X, w)
        sign = STAR_SIGNS[X] if rel.flavor == "sharp" else 1.0
        want = sign * (s[:, None] * build(rel.params, X, w).data) / s[None, :]
        assert A.basis == ORTHONORMAL
        assert np.max(np.abs(A.data - want)) <= 1e-15 * np.max(np.abs(want)), X
        assert np.max(np.abs(A.data + A.data.conj().T)) <= 1e-14 * np.max(np.abs(A.data)), X


def test_norms_are_read_once_per_window_lattice(monkeypatch):
    # the padding does not move the lattice, so it reuses the norms; another N reads its own,
    # and the norms kept on an instance change neither its equality nor its hash
    built, build = [], repn.gram
    monkeypatch.setattr(repn, "gram", lambda p, w: built.append(w.N) or build(p, w))
    rel = Realization.plain(HOLO2)
    s = rel.norms(TruncationWindow(UNILATERAL, 16, 4))
    assert rel.norms(TruncationWindow(UNILATERAL, 16, 2)) is s and not s.flags.writeable
    assert np.array_equal(s, np.sqrt(norm_sq_sequence(HOLO2, TruncationWindow(UNILATERAL, 16, 4))))
    assert rel.norms(TruncationWindow(UNILATERAL, 12, 2)).size == 13 and built == [16, 12]
    assert rel == Realization.plain(HOLO2) and hash(rel) == hash(Realization.plain(HOLO2))


def test_mat_exp_refuses_generators_without_a_gram():
    # the monomial holomorphic L is skew only against its Gram, which mat_exp never reads
    w = TruncationWindow(UNILATERAL, 8, 2)
    with pytest.raises(NumericsError, match="generator is not skew-Hermitian"):
        mat_exp(generator_matrix(HOLO2, "L", w), 0.1)
    dense = OperatorMatrix(random_dense(np.random.default_rng(3), w.size), w)
    with pytest.raises(NumericsError, match="first off-diagonals"):
        mat_exp(dense)


def test_mat_exp_refuses_generators_off_the_first_off_diagonals():
    w = TruncationWindow(BILATERAL, 8, 2)
    h, L = generator_matrix(PRINCIPAL_P, "h", w), generator_matrix(PRINCIPAL_P, "L", w)
    second = OperatorMatrix.from_band(w, 2, np.full(w.size - 2, 0.5))
    for X in (h + L, L + second - second.H):
        with pytest.raises(NumericsError, match="first off-diagonals"):
            mat_exp(X, 0.1)


def test_exponential_caches_hold_one_realization():
    w = TruncationWindow(BILATERAL, 16, 4)
    path = GroupPath((("L", 0.1), ("M", -0.05), ("h", 0.2)))
    T = OperatorMatrix.identity(w, ORTHONORMAL)
    for lam in (0.1, 0.3, 0.5):
        p = RepnParams(BILATERAL, lam, complex((1.0 - lam) / 2.0, 0.5))
        for rel in (Realization.plain(p), Realization.sharp(p), Realization.reducible(lam + 1.0)):
            rel.along_path(path, w)
            kappa_flow_derivative(T, rel, w)
            assert numkernel._real_eigh.cache_info().currsize <= numkernel.SPECTRUM_CACHE_SIZE == 1


@pytest.mark.parametrize("path", ["L:0.1", "h:0.3", "L:0.1,M:-0.05,h:0.2"])
@pytest.mark.parametrize("case", ["holo", "sharp", "principal", "complementary", "reducible"])
def test_conjugate_is_the_dense_conjugation_by_along_path(case, path):
    # R T R^-1 with R = along_path(path), on the whole window, on blocks clipped at
    # either end and on one inside it, for steps of both signs
    rel, kind = SPECTRAL_CASES[case]
    w, rng, g = TruncationWindow(kind, 32, 8), np.random.default_rng(7), GroupPath.parse(path)
    r = rel.along_path(g, w).data
    n = w.size
    for m in (-1, 2):
        band = rng.standard_normal(n - abs(m)) + 1j * rng.standard_normal(n - abs(m))
        T = OperatorMatrix.from_band(w, m, band, ORTHONORMAL)
        dense = r @ T.data @ np.linalg.inv(r)
        for lo, hi in ((0, n), (0, 9), (n - 9, n), (5, n - 5)):
            block = rel.conjugate(T, g, w, lo, hi)
            assert np.max(np.abs(block - dense[lo:hi, lo:hi])) <= 1e-12 * np.max(np.abs(band)), (m, lo, hi)
    with pytest.raises(ParameterError):
        rel.conjugate(OperatorMatrix.identity(w, ORTHONORMAL) + T, g, w, 0, n)


@pytest.mark.parametrize("path", ["h:0.3", "L:0.1"])
def test_conjugate_refuses_a_shift_of_another_basis_or_window(path):
    # a rotation builds no generator, and still refuses T as a boost does
    rel, g, w = Realization.plain(HOLO2), GroupPath.parse(path), TruncationWindow(UNILATERAL, 16, 4)
    others = [TruncationWindow(UNILATERAL, 12, 4), TruncationWindow(BILATERAL, 16, 4)]
    for T in [canonical_shift("T1", HOLO2, w)] + [OperatorMatrix.from_band(v, -1, np.ones(v.size - 1), ORTHONORMAL) for v in others]:
        with pytest.raises(WindowMismatchError):
            rel.conjugate(T, g, w, 0, w.size)


@pytest.mark.parametrize("case, N, kernel", [("holo", 32, 1), ("holo", 31, 0), ("principal", 32, 1), ("reducible", 32, 1)])
def test_generators_die_after_use_and_spectra_keep_half(case, N, kernel, monkeypatch):
    # no generator outlives the exponential or the flow derivative that used it: the cache is
    # on the spectrum, which keeps only its positive half, (size - kernel) / 2 eigenvectors
    rel, kind = SPECTRAL_CASES[case]
    w, refs = TruncationWindow(kind, N, N // 4), []
    blocks = numkernel._parity_blocks
    monkeypatch.setattr(numkernel, "_parity_blocks", lambda X, t: refs.append(weakref.ref(X)) or blocks(X, t))
    R = rel.along_path(GroupPath.parse("L:0.1,M:-0.05,h:0.2"), w)
    block = kappa_flow_derivative(OperatorMatrix.identity(w, ORTHONORMAL), rel, w)
    assert R.data.shape == (w.size, w.size) and block.shape == (w.size - 2 * w.padding,) * 2
    assert len(refs) == 2 and all(ref() is None for ref in refs)
    values, even, odd = numkernel._real_eigh(numkernel._band_form(rel.generator("L", w))[0].tobytes())
    assert values.size == even.shape[1] == odd.shape[1] == (w.size - kernel) // 2


@pytest.mark.parametrize("case", sorted(SPECTRAL_CASES))
def test_m_is_l_turned_a_quarter(case):
    # M is L turned by exp(pi/4 h): dR(M) = Q dR(L) Q^-1 with Q = diag(omega^k), omega = -i
    # (i when sharp), band for band and bit for bit, as the infinitesimal suite reads it
    rel, kind = SPECTRAL_CASES[case]
    for N in (2, 31, 32):
        w = TruncationWindow(kind, N, 0)
        Q = quarter_turn(rel, w)
        turned, M = Q @ rel.generator("L", w) @ Q.H, rel.generator("M", w)
        assert turned.bands.keys() == M.bands.keys() and M.bands, (case, N)
        assert all(np.array_equal(turned.bands[m], M.bands[m]) for m in M.bands), (case, N)


@pytest.mark.parametrize("case", ["holo", "sharp", "principal", "complementary", "reducible"])
def test_l_and_m_share_one_spectrum(case, monkeypatch):
    # M is L turned a quarter by a diagonal unitary, which the phases absorb
    rel, kind = SPECTRAL_CASES[case]
    for N in (32, 128):
        w = TruncationWindow(kind, N, N // 4)
        hr = [numkernel._band_form(rel.generator(X, w))[0] for X in ("L", "M")]
        assert hr[0].tobytes() == hr[1].tobytes()
    w = TruncationWindow(kind, 32, 8)
    eigh, calls = np.linalg.eigh, []
    numkernel._real_eigh.cache_clear()
    monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(a.shape) or eigh(a))
    rel.along_path(GroupPath((("L", 0.1), ("M", -0.05), ("h", 0.2))), w)
    infinitesimal_reports(OperatorMatrix.identity(w, ORTHONORMAL), rel, w)
    assert calls == [(w.size, w.size)]


def test_a_cached_spectrum_never_vouches_for_a_generator():
    rel, kind = SPECTRAL_CASES["principal"]
    w = TruncationWindow(kind, 16, 4)
    L = rel.generator("L", w)
    numkernel._real_eigh.cache_clear()
    mat_exp(L, 0.1)
    mat_exp(L, 0.2)
    cached = numkernel._real_eigh.cache_info()
    assert (cached.hits, cached.misses, cached.currsize) == (1, 1, 1)
    # the same |lower band| as L, so the same Hr, but an upper band that no longer mirrors it
    data = L.data.copy()
    k = np.arange(w.size - 1)
    data[k, k + 1] *= 1.0 + 1e-6
    with pytest.raises(NumericsError, match="first off-diagonals"):
        mat_exp(OperatorMatrix(data, w, ORTHONORMAL), 0.1)
    assert numkernel._real_eigh.cache_info() == cached


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
    assert unitarity_residual(Realization.plain(PRINCIPAL_P).along_path(GroupPath((("h", 0.3),)), w), w) <= 1e-14


def test_unitarity_defect_translation_path_small():
    w = TruncationWindow(UNILATERAL, 64, 16)
    assert unitarity_residual(Realization.plain(HOLO2).along_path(GroupPath((("L", 0.1),)), w), w) < 1e-8


def test_unitarity_residual_matches_the_whole_product():
    # only the interior block is formed; the whole R* R - I is the reference
    rng = np.random.default_rng(7)
    path = GroupPath((("L", 0.1), ("M", -0.05), ("h", 0.2)))
    for p, w in ((PRINCIPAL_P, TruncationWindow(BILATERAL, 24, 6)), (HOLO2, TruncationWindow(UNILATERAL, 24, 6))):
        for R in (Realization.plain(p).along_path(path, w), OperatorMatrix(random_dense(rng, w.size), w)):
            ip = np.ix_(w.interior_positions(), w.interior_positions())
            expected = float(np.linalg.norm((R.data.conj().T @ R.data - np.eye(w.size))[ip]))
            assert abs(unitarity_residual(R, w) - expected) <= 1e-13 * max(1.0, expected)
    with pytest.raises(ParameterError, match="leaves no interior"):
        unitarity_residual(R, TruncationWindow(UNILATERAL, 24, 13))
    with pytest.raises(WindowMismatchError):
        unitarity_residual(R, TruncationWindow(UNILATERAL, 20, 5))


def test_unitarity_residual_tiles_match_the_whole_product():
    # interiors short of a tile, one tile, two and not a multiple; a dense R of O(1) defect,
    # a rotation and a two-band R, against R[:, P]* R[:, P] - I in one piece
    rng = np.random.default_rng(11)
    for w in tile_edge_windows():
        p = w.interior_positions()
        rotation = OperatorMatrix.from_band(w, 0, np.exp(1j * rng.uniform(0, 6, w.size)) * rng.uniform(0.5, 1.5, w.size))
        two_bands = rotation + OperatorMatrix.from_band(w, -2, rng.standard_normal(w.size - 2))
        for R in (OperatorMatrix(random_dense(rng, w.size, 1.0 / np.sqrt(w.size)), w), rotation, two_bands):
            cols = R.data[:, p]
            want = float(np.linalg.norm(cols.conj().T @ cols - np.eye(p.size)))
            assert abs(unitarity_residual(R, w) - want) <= 1e-14 * want, w


def test_unitarity_residual_holds_less_than_one_window_array():
    # R[:, P]* R[:, P] - I formed in one piece held 5.3 MB on L:0.1, and a rotation built
    # its dense R for 9.3 MB, where one window-sized array is 4.0 MB
    w = TruncationWindow(BILATERAL, 256, 64)
    rel = Realization.plain(PRINCIPAL_P)
    for text in ("L:0.1", "h:0.3"):
        R = rel.along_path(GroupPath.parse(text), w)
        assert traced_peak(unitarity_residual, R, w) <= w.size**2 * 16, text
    assert "data" not in vars(R)


@pytest.mark.parametrize("lam", [40.0, 140.0, 200.0])
def test_unitarity_defect_at_large_lambda(lam):
    # the Gram spans hundreds of decades here; in the orthonormal basis the
    # defect still sits at the rounding floor
    w = TruncationWindow(UNILATERAL, 64, 16)
    path = GroupPath((("L", 0.1), ("M", -0.05), ("h", 0.2)))
    assert unitarity_residual(Realization.plain(RepnParams(UNILATERAL, lam)).along_path(path, w), w) <= 1e-12


def test_unitarity_defect_padding_profile():
    # truncation keeps the generator skew against the Gram form, so the
    # defect sits at the rounding floor and must not grow with padding
    w = TruncationWindow(UNILATERAL, 64, 4)
    path = GroupPath((("L", 0.1),))
    R = Realization.plain(HOLO2).along_path(path, w)
    values = [unitarity_residual(R, TruncationWindow(w.kind, w.N, p)) for p in (4, 8, 12, 16, 20, 24)]
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
    out = circle_rep_oracle(PRINCIPAL_P, MobiusElement.identity(), w, F)
    assert np.max(np.abs(out - F)) <= 1e-13


def test_circle_oracle_rotation_scales_coefficients():
    p = PRINCIPAL_P
    w = TruncationWindow(BILATERAL, 8, 2)
    t = 0.2
    phi_inv = MobiusElement(cmath.exp(-2j * t), 0.0)
    out = circle_rep_oracle(p, phi_inv, w, np.ones(w.size))
    expected = np.exp(-1j * (2.0 * w.indices() + p.lam) * t)
    assert np.max(np.abs(out - expected)) <= 1e-12


def test_circle_oracle_matches_rep_matrix_column():
    # the oracle acts on monomials: its image of f_0 is column 0 of R scaled back
    # by ||f_n||; the rows near n = 0 hold the column's content (below 1e-15 from n = 16)
    p = HOLO2
    w = TruncationWindow(UNILATERAL, 64, 16)
    path = GroupPath((("L", 0.1),))
    R = Realization.plain(p).along_path(path, w)
    phi_inv = inverse(path_to_mobius(path))
    out = circle_rep_oracle(p, phi_inv, w, monomial(w, 0))
    s = np.sqrt(gram(p, w).data.diagonal().real)
    rows = w.pos(0) + np.arange(8)
    assert np.max(np.abs(out[rows] * s[rows] - R.data[rows, w.pos(0)])) <= 1e-12


def test_circle_matrix_matches_rep_matrix_interior():
    path = GroupPath((("L", 0.1),))
    for p, w in (
        (RepnParams(BILATERAL, 0.3, complex(0.35, 0.5)), TruncationWindow(BILATERAL, 64, 16)),
        (RepnParams(UNILATERAL, 16.0), TruncationWindow(UNILATERAL, 64, 16)),
    ):
        R = Realization.plain(p).along_path(path, w)
        C = circle_rep_matrix(p, path, w)
        assert R.basis == C.basis == ORTHONORMAL
        ip = w.interior_positions()
        assert np.max(np.abs(R.data[np.ix_(ip, ip)] - C.data[np.ix_(ip, ip)])) <= 1e-11, p


@pytest.mark.parametrize("lam", [0.5, 1.0, 1.5])
def test_the_circle_route_refuses_the_reducible_seam_basis(lam):
    # its table samples one mu at every index, and the seam basis has mu_n = 1 - lam below n = 0
    p, w = RepnParams(BILATERAL, lam, 0j), TruncationWindow(BILATERAL, 32, 8)
    with pytest.raises(ParameterError, match="^the circle route does not realize bilateral mu = 0") as refused:
        circle_rep_matrix(p, GroupPath.parse("L:0.1"), w)
    assert "\n" not in str(refused.value)


@pytest.mark.parametrize("lam", [1e4, 1e5])
def test_the_circle_route_refuses_an_overflowing_multiplier(lam):
    # on L:0.1, lam/2 log phi' passes the double range's 709 from finite inputs: one
    # NumericsError line (exit 3's family) before any table is filled, and no RuntimeWarning
    p, w = RepnParams(UNILATERAL, lam), TruncationWindow(UNILATERAL, 64, 16)
    with pytest.raises(NumericsError, match="^the circle route's multiplier") as refused:
        circle_rep_matrix(p, GroupPath.parse("L:0.1"), w)
    assert str(refused.value).endswith("overflows double precision") and "\n" not in str(refused.value)


def test_circle_oracle_takes_every_element_of_the_disc():
    # R(g) f_0 is the multiplier (phi')^{lam/2} |phi'|^mu, whose principal logarithm is
    # analytic for every |beta| < 1: at |beta| = 0.45 (and 0.9) its Fourier coefficients,
    # from phi' sampled directly, match the route's column; the disc's edge is refused
    w = TruncationWindow(BILATERAL, 8, 2)
    grid = 1 << 14
    z = np.exp(2j * np.pi * np.arange(grid) / grid)
    for beta in (0.45, 0.9j):
        far = MobiusElement(1.0, beta)
        d = (1.0 - abs(beta) ** 2) / (1.0 - np.conj(beta) * z) ** 2
        coefficients = np.fft.fft(np.exp(PRINCIPAL_P.lam / 2.0 * np.log(d) + PRINCIPAL_P.mu * np.log(np.abs(d)))) / grid
        out = circle_rep_oracle(PRINCIPAL_P, far, w, monomial(w, 0))
        assert np.max(np.abs(out - coefficients[w.indices() % grid])) <= 1e-13, beta
    with pytest.raises(ParameterError, match="strictly inside the unit disc"):
        MobiusElement(1.0, 1.0)


def test_circle_oracle_grid_too_small():
    # Im mu = 1e5 still leaves a tail of 2.5e-2 beyond the Nyquist edge at the largest grid
    p = RepnParams(BILATERAL, 0.3, complex(0.35, 1e5))
    w = TruncationWindow(BILATERAL, 64, 16)
    with pytest.raises(NumericsError, match=f"at grid {repn.MAX_GRID}, the largest tried"):
        circle_rep_oracle(p, inverse(path_to_mobius(GroupPath.parse("L:0.1"))), w, monomial(w, 8))


def test_circle_oracle_detects_negative_leakage():
    # holo lam = 100 leaves 1.02e-10 on negative indices, just over the 1e-10 guard
    w = TruncationWindow(UNILATERAL, 64, 16)
    phi_inv = inverse(path_to_mobius(GroupPath.parse("L:0.1,M:-0.05,h:0.2")))
    with pytest.raises(NumericsError, match="negative-index content 1.0"):
        circle_rep_oracle(RepnParams(UNILATERAL, 100.0), phi_inv, w, monomial(w, 0))


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
    assert w.size < numkernel.TILE or w.size % numkernel.TILE
    phi_inv = inverse(path_to_mobius(path))
    _, grid = repn._circle_table(p, phi_inv, w)
    expected = unblocked_circle_table(phi_inv, (p.lam + p.mu) / 2.0, p.mu / 2.0, w, grid)
    scale = np.max(np.abs(expected))
    s = np.sqrt(gram(p, w).data.diagonal().real)
    blocked = circle_rep_matrix(p, path, w).data / s[:, None] * s[None, :]
    assert np.max(np.abs(blocked - expected)) <= 1e-14 * scale
    F = rng.standard_normal(w.size) + 1j * rng.standard_normal(w.size)
    out = circle_rep_oracle(p, phi_inv, w, F)
    assert np.max(np.abs(out - expected @ F)) <= 1e-14 * scale * np.sum(np.abs(F))


def test_blocked_circle_checks_report_the_whole_table_maximum():
    # a tail no grid up to the cap resolves, over the positive and the negative
    # monomials, and leakage into negative indices over two blocks: the messages
    # quote the maximum over every block at the grid they name
    for p, window, path, reason in (
        (RepnParams(BILATERAL, 0.3, complex(0.35, 1e5)), TruncationWindow(BILATERAL, 8, 2), "L:0.1", "Nyquist tail"),
        (RepnParams(UNILATERAL, 100.0), TruncationWindow(UNILATERAL, 64, 16), "L:0.1,M:-0.05,h:0.2", "negative-index content"),
    ):
        phi_inv = inverse(path_to_mobius(GroupPath.parse(path)))
        with pytest.raises(NumericsError, match=reason) as blocked:
            circle_rep_oracle(p, phi_inv, window, monomial(window, 0))
        grid = int(re.search(r"at grid (\d+)", str(blocked.value)).group(1))
        with pytest.raises(NumericsError, match=reason) as whole:
            unblocked_circle_table(phi_inv, (p.lam + p.mu) / 2.0, p.mu / 2.0, window, grid)
        assert str(blocked.value) == str(whole.value)


def test_circle_route_memory_grows_like_the_output():
    # the whole-table construction holds two grid x size arrays: 134.7 MB at N = 256
    p, path = PRINCIPAL_P, GroupPath((("M", 0.1),))
    circle_rep_matrix(p, path, TruncationWindow(BILATERAL, 8, 2))
    peaks = {}
    for N in (128, 256):
        w = TruncationWindow(BILATERAL, N, N // 4)
        peaks[N] = traced_peak(circle_rep_matrix, p, path, w)
    size, grid = 513, repn._circle_table(p, inverse(path_to_mobius(path)), w)[1]
    assert peaks[256] < 3 * size * size * 16 + 3 * numkernel.TILE * grid * 16
    assert peaks[256] < 4 * peaks[128]


def test_circle_grid_starts_at_the_first_power_of_two_past_8n():
    # the corners of the benchmark's route draws, on its two (N, path) pairs: the
    # start grid's Nyquist edge, N past the window, already holds the tail
    points = [RepnParams(UNILATERAL, lam) for lam in (0.05, 16.0)]
    points += [RepnParams(BILATERAL, lam, complex((1.0 - lam) / 2.0, 8.0)) for lam in (-0.99, 1.0)]
    for lam in (-0.95, 0.95):
        lo, hi = complementary_mu_interval(lam)
        points += [RepnParams(BILATERAL, lam, complex(lo + share * (hi - lo))) for share in (0.3, 0.7)]
    for N, path in ((128, DEFAULT_PATHS[3]), (256, DEFAULT_PATHS[1])):
        phi_inv = inverse(path_to_mobius(GroupPath.parse(path)))
        start = 1 << (8 * N - 1).bit_length()
        for p in points:
            _, grid = repn._circle_table(p, phi_inv, TruncationWindow(p.index_set, N, N // 4))
            assert grid == start >= 8 * N and grid & (grid - 1) == 0, (N, path, p)


def test_a_refused_grid_stops_at_its_first_block(monkeypatch):
    # a try below the cap stops at the first block whose Nyquist tail refuses its grid; the
    # accepted try and the cap's refusal read every block: at N = 64, one block for each
    # refused grid, then 3 at 16384 or 3 at the cap (2 and 2 at N = 8)
    fft, calls = np.fft.fft, []
    monkeypatch.setattr(np.fft, "fft", lambda a, *args, **kwargs: calls.append(len(a)) or fft(a, *args, **kwargs))
    phi_inv = inverse(path_to_mobius(GroupPath.parse("L:0.1")))
    tables = {}
    for im_mu, N, blocks in ((1e4, 64, 8), (1e5, 64, 10), (1e4, 8, 10), (1e5, 8, 12)):
        p, w = RepnParams(BILATERAL, 0.3, complex(0.35, im_mu)), TruncationWindow(BILATERAL, N, 1)
        etas = ((p.lam + p.mu) / 2.0, p.mu / 2.0)
        calls.clear()
        if im_mu < 1e5:
            tables[N], grid = repn._circle_table(p, phi_inv, w)
            assert grid == 16384 and len(calls) == blocks, (im_mu, N, calls)
            if N == 8:
                expected = unblocked_circle_table(phi_inv, *etas, w, grid)
                assert np.max(np.abs(tables[N] - expected)) <= 1e-14 * np.max(np.abs(expected))
            continue
        with pytest.raises(NumericsError, match=f"at grid {repn.MAX_GRID}, the largest tried") as refused:
            repn._circle_table(p, phi_inv, w)
        assert len(calls) == blocks, (im_mu, N, calls)
        if N == 8:
            with pytest.raises(NumericsError, match="Nyquist tail") as whole:
                unblocked_circle_table(phi_inv, *etas, w, repn.MAX_GRID)
            assert str(refused.value) == str(whole.value)
    # five refused tries at N = 64 and eight at N = 8 leave the same bytes on the accepted grid
    assert tables[64][56:73, 56:73].tobytes() == tables[8].tobytes()


def test_circle_route_doubles_its_grid_until_the_tail_is_resolved():
    # the start grid, 512, leaves a tail; the guard accepts 16384 and R is exact at pad 1
    p = RepnParams(BILATERAL, 0.3, complex(0.35, 1e4))
    w = TruncationWindow(BILATERAL, 64, 1)
    path = GroupPath.parse("L:0.1")
    assert repn._circle_table(p, inverse(path_to_mobius(path)), w)[1] == 16384
    T = Realization.plain(p).orthonormal(canonical_shift("T2", p, w), w)
    assert homogeneity_defect(T, circle_rep_matrix(p, path, w), path_to_mobius(path), w).value <= 1e-14


#: (family, shift) on the circle route past the old |beta| <= 0.3: holomorphic T1,
#: principal T2 and complementary T3
WIDE_BOOST_FAMILIES = [
    (RepnParams(UNILATERAL, 1.0), "T1"),
    (RepnParams(BILATERAL, 0.3, complex(0.35, 3.0)), "T2"),
    (RepnParams(BILATERAL, 0.4, 0.2 + 0j), "T3"),
]
#: |beta| = 0.462, 0.639, 0.762 and 0.905
WIDE_BOOST_PATHS = ["L:0.5", "L:0.5,M:0.5", "L:0.5,L:0.5", "L:0.5,L:0.5,L:0.5"]


@pytest.mark.parametrize("path", WIDE_BOOST_PATHS)
@pytest.mark.parametrize("p, kind", WIDE_BOOST_FAMILIES, ids=["holo T1", "principal T2", "complementary T3"])
def test_the_circle_route_certifies_every_boost_its_grid_resolves(p, kind, path):
    # the principal logarithms stay analytic for every |beta| < 1, so only the grid limits a
    # boost: R is exact on the interior, and the scaled shift 2T still fails at O(1)
    w, g = TruncationWindow(p.index_set, 64, 16), GroupPath.parse(path)
    R, phi = circle_rep_matrix(p, g, w), path_to_mobius(g)
    T = Realization.plain(p).orthonormal(canonical_shift(kind, p, w), w)
    assert homogeneity_defect(T, R, phi, w).value <= 1e-13
    assert homogeneity_defect(T * 2.0, R, phi, w).value >= 1.0


@pytest.mark.parametrize("p, kind", WIDE_BOOST_FAMILIES, ids=["holo T1", "principal T2", "complementary T3"])
def test_a_boost_past_the_grids_reach_is_refused_in_one_line(p, kind):
    # L:0.5 six times is |beta| = 0.995: the tail beyond the Nyquist edge outlasts the cap
    path = GroupPath.parse(",".join(["L:0.5"] * 6))
    assert abs(path_to_mobius(path).beta) == pytest.approx(0.995, abs=5e-4)
    with pytest.raises(NumericsError, match=rf"^Nyquist tail \S+ above 1e-09 at grid {repn.MAX_GRID}, the largest tried$") as refused:
        circle_rep_matrix(p, path, TruncationWindow(p.index_set, 64, 16))
    assert repn.MAX_GRID == 65536 and "\n" not in str(refused.value)
