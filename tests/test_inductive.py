import numpy as np
import pytest

from mobshift import numkernel
from mobshift.cli import DEFAULT_PATHS
from mobshift.errors import ParameterError
from mobshift.inductive import (
    FIT_NEITHER,
    FIT_T2,
    FIT_T3,
    classify_a_minus1,
    isotypic_component,
    ladder_cancellation,
    normalizer_defect,
)
from mobshift.mobius import GroupPath
from mobshift.numkernel import (
    BILATERAL,
    MONOMIAL,
    ORTHONORMAL,
    UNILATERAL,
    OperatorMatrix,
    TruncationWindow,
    _parity_blocks,
)
from mobshift.repn import Realization, RepnParams, generator_matrix
from mobshift.shifts import canonical_shift, reducible_shift

from oracles import (
    FLIP_TOL,
    as_bands,
    dense_normalizer_defect,
    lstsq_affine_fit,
    orthonormal,
    random_dense,
    rotation_average_component,
    sharp_isotypic_flip,
    te_tf_coefficients,
    traced_peak,
)

HOLO2 = RepnParams(UNILATERAL, 2.0)
PRIN = RepnParams(BILATERAL, 0.3, complex(0.35, 0.7))
COMP = RepnParams(BILATERAL, 0.4, 0.2 + 0j)


@pytest.fixture
def rng():
    return np.random.default_rng(1618)


# ---------------------------------------------------------------- isotypic


def test_isotypic_of_identity():
    w = TruncationWindow(BILATERAL, 4, 1)
    ident = OperatorMatrix.identity(w)
    zero_component = OperatorMatrix.from_band(w, 0, isotypic_component(ident, 0))
    np.testing.assert_array_equal(zero_component.data, np.eye(w.size))
    for m in (-2, -1, 1, 3):
        assert not isotypic_component(ident, m).any()


def test_isotypic_of_shift():
    w = TruncationWindow(UNILATERAL, 6, 1)
    t1 = canonical_shift("T1", HOLO2, w)
    comp = OperatorMatrix.from_band(w, -1, isotypic_component(t1, -1))
    np.testing.assert_array_equal(comp.data, t1.data)
    assert not isotypic_component(t1, 1).any()


def test_isotypic_reassembly_is_exact(rng):
    w = TruncationWindow(BILATERAL, 5, 1)
    t = OperatorMatrix(random_dense(rng, w.size), w)
    total = np.zeros_like(t.data)
    top = w.size - 1
    for m in range(-top, top + 1):
        total = total + OperatorMatrix.from_band(w, m, isotypic_component(t, m)).data
    assert np.array_equal(total, t.data)


def test_isotypic_matches_rotation_average(rng):
    w = TruncationWindow(BILATERAL, 5, 1)
    t = OperatorMatrix(random_dense(rng, w.size), w)
    count = 4 * w.size
    for m in (-3, -1, 0, 2, 5):
        averaged = rotation_average_component(t, m, count)
        surgical = OperatorMatrix.from_band(w, m, isotypic_component(t, m)).data
        assert np.max(np.abs(averaged - surgical)) <= 1e-10


def test_isotypic_beyond_window_is_zero_matrix(rng):
    w = TruncationWindow(BILATERAL, 3, 1)
    t = OperatorMatrix(random_dense(rng, w.size), w)
    for m in (w.size, -w.size, w.size + 4):
        comp = isotypic_component(t, m)
        assert comp.size == 0
        np.testing.assert_array_equal(OperatorMatrix.from_band(w, m, comp).data, np.zeros((w.size, w.size)))


# ---------------------------------------------------------------- te / tf


def test_te_tf_vanish_for_scalar_diagonal():
    w = TruncationWindow(BILATERAL, 8, 2)
    a = {n: 1.0 for n in range(w.lo, w.hi + 1)}
    te, tf = te_tf_coefficients(a, 0, PRIN, w)
    assert max(abs(v) for v in te.values()) == 0.0
    assert max(abs(v) for v in tf.values()) == 0.0


def test_te_constant_for_unilateral_unit_shift():
    # T f_n = f_{n+1} with mu = 0: the lowering commutator is -identity
    w = TruncationWindow(UNILATERAL, 8, 2)
    a = {n: 1.0 for n in range(0, w.hi)}
    te, _ = te_tf_coefficients(a, -1, HOLO2, w)
    for n in range(0, w.hi):
        assert te[n] == pytest.approx(-1.0)


def test_te_constant_for_rational_family():
    w = TruncationWindow(BILATERAL, 12, 2)
    lam, mu = PRIN.lam, PRIN.mu
    a = {n: (lam + mu + n) / (n + 1.0 - mu) for n in range(w.lo, w.hi)}
    te, _ = te_tf_coefficients(a, -1, PRIN, w)
    for n in range(w.lo + 1, w.hi):
        assert abs(te[n] - (-1.0)) <= 1e-12


@pytest.mark.parametrize("m", [-2, -1, 0, 1, 2])
def test_te_tf_match_matrix_commutators(rng, m):
    w = TruncationWindow(BILATERAL, 12, 3)
    coeffs = {
        n: complex(rng.standard_normal(), rng.standard_normal())
        for n in range(w.lo, w.hi + 1)
        if w.contains(n - m)
    }
    t = OperatorMatrix.from_band(w, m, list(coeffs.values()))
    te, tf = te_tf_coefficients(coeffs, m, PRIN, w)
    e = generator_matrix(PRIN, "e", w)
    f = generator_matrix(PRIN, "f", w)
    comm_e = e @ t - t @ e
    comm_f = f @ t - t @ f
    interior = set(int(n) for n in w.interior_positions() + w.lo)
    for n, value in te.items():
        if n in interior and (n - m - 1) in interior:
            assert abs(comm_e.entry(n - m - 1, n) - value) <= 1e-11
    for n, value in tf.items():
        if n in interior and (n - m + 1) in interior:
            assert abs(comm_f.entry(n - m + 1, n) - value) <= 1e-11


def test_diagonal_commutator_entry_formula(rng):
    # for diagonal T, [T, T_e] f_n = -(mu - n)(a_{n-1} - a_n)^2 f_{n-1}
    w = TruncationWindow(BILATERAL, 10, 2)
    for _ in range(100):
        lam = float(rng.uniform(-0.9, 0.9))
        mu = complex(rng.uniform(0.05, 0.95), rng.uniform(-1.0, 1.0))
        p = RepnParams(BILATERAL, lam, mu)
        a = {n: complex(rng.standard_normal(), rng.standard_normal()) for n in range(w.lo, w.hi + 1)}
        te, _ = te_tf_coefficients(a, 0, p, w)
        t = OperatorMatrix.from_band(w, 0, list(a.values()))
        t_e = OperatorMatrix.from_band(w, 1, list(te.values()))
        bracket = t @ t_e - t_e @ t
        for n in range(w.lo + 1, w.hi + 1):
            expected = -(mu - n) * (a[n - 1] - a[n]) ** 2
            assert abs(bracket.entry(n - 1, n) - expected) <= 1e-11


def test_lowering_recurrence_propagates_from_anchor(rng):
    # step-(+1) families with te = 0 satisfy (mu - n + m) a_n = (mu - n) a_{n-1}
    w = TruncationWindow(BILATERAL, 10, 2)
    mu = complex(0.45, 0.8)
    p = RepnParams(BILATERAL, 0.1, mu)
    m = 1
    a = {0: complex(1.3, -0.4)}
    for n in range(1, w.hi + 1):
        a[n] = a[n - 1] * (mu - n) / (mu - n + m)
    for n in range(-1, w.lo - 1, -1):
        a[n] = a[n + 1] * (mu - n - 1 + m) / (mu - n - 1)
    te, _ = te_tf_coefficients(a, m, p, w)
    for n, value in te.items():
        if w.contains(n - 1):  # rows where both terms were present
            assert abs(value) <= 1e-12
    zero = {n: 0.0 for n in a}
    te0, _ = te_tf_coefficients(zero, m, p, w)
    assert max(abs(v) for v in te0.values()) == 0.0


# ---------------------------------------------------------------- ladder identity


def test_ladder_cancellation_unit_step():
    assert ladder_cancellation(0.7, 0.1 + 0.9j, 1, 5, "f") == pytest.approx(2.0)
    assert ladder_cancellation(-0.3, 0.2, 1, -11, "e") == pytest.approx(2.0)


def test_ladder_cancellation_specific_values():
    assert abs(ladder_cancellation(0.4, 0.2, 3, -7, "f") - 18.0) <= 1e-10
    assert abs(ladder_cancellation(0.3, complex(0.35, 0.7), -2, 11, "e") - 8.0) <= 1e-10


def test_ladder_cancellation_randomized(rng):
    for _ in range(500):
        lam = float(rng.uniform(-3.0, 3.0))
        mu = complex(rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0))
        m = int(rng.integers(1, 9)) * (1 if rng.uniform() < 0.5 else -1)
        n = int(rng.integers(-25, 26))
        for side in ("e", "f"):
            assert abs(ladder_cancellation(lam, mu, m, n, side) - 2.0 * m * m) <= 1e-10


def test_ladder_cancellation_side_validation():
    with pytest.raises(ParameterError):
        ladder_cancellation(0.1, 0.2, 1, 0, "g")


# ---------------------------------------------------------------- classifier


def scaled(c, mapping):
    return {n: c * v for n, v in mapping.items()}


def test_classifier_constant_family():
    ns = range(-16, 17)
    fit = classify_a_minus1({n: 1.0 for n in ns}, PRIN)
    assert fit.branch == FIT_T2
    assert fit.residual <= 1e-10
    # a = b (mu - 1) with b the constant value
    assert abs(fit.a - fit.b * (PRIN.mu - 1.0)) <= 1e-10


def test_classifier_rational_family():
    lam, mu = PRIN.lam, PRIN.mu
    coeffs = {n: (lam + mu + n) / (n + 1.0 - mu) for n in range(-16, 17)}
    fit = classify_a_minus1(coeffs, PRIN)
    assert fit.branch == FIT_T3
    assert fit.residual <= 1e-10
    assert abs(fit.a + fit.b * (lam + mu)) <= 1e-10


def test_classifier_rejects_quadratic():
    fit = classify_a_minus1({n: float(n * n) for n in range(-16, 17)}, PRIN)
    assert fit.branch == FIT_NEITHER
    assert fit.residual > 1e-3


def test_classifier_tie_on_coincidence_line():
    p = RepnParams(BILATERAL, 0.4, 0.3 + 0j)  # mu = (1 - lam)/2
    fit = classify_a_minus1({n: 2.0 for n in range(-10, 11)}, p)
    assert fit.branch == FIT_T2
    assert fit.tie


def test_classifier_input_validation():
    with pytest.raises(ParameterError):
        classify_a_minus1({0: 1.0, 1: 1.0}, PRIN)
    with pytest.raises(ParameterError):
        classify_a_minus1({n: 1.0 for n in range(5)}, HOLO2)
    for bad in (float("nan"), complex(1.0, float("inf"))):
        with pytest.raises(ParameterError, match="non-finite coefficient at n=1"):
            classify_a_minus1({0: 1.0, 1: bad, 2: 1.0}, PRIN)


def test_classifier_randomized_families(rng):
    for _ in range(25):
        lam = float(rng.uniform(-0.95, 0.95))
        mu = complex((1.0 - lam) / 2.0, rng.uniform(0.2, 2.5))
        p = RepnParams(BILATERAL, lam, mu)
        c = complex(rng.uniform(0.5, 2.0), rng.uniform(-0.5, 0.5))
        const = scaled(c, {n: 1.0 for n in range(-20, 21)})
        assert classify_a_minus1(const, p).branch == FIT_T2
        rational = scaled(c, {n: (lam + mu + n) / (n + 1.0 - mu) for n in range(-20, 21)})
        assert classify_a_minus1(rational, p).branch == FIT_T3


@pytest.mark.parametrize(
    "family, branch",
    [(lambda n: (PRIN.lam + PRIN.mu + n) / (n + 1.0 - PRIN.mu), FIT_T3), (lambda n: 1.5 - 0.5j, FIT_T2)],
    ids=["T3", "T2"],
)
@pytest.mark.parametrize("far", [2**31, 2**52, -(2**53)])
def test_classifier_keeps_the_branch_with_a_row_far_from_the_others(family, branch, far):
    # rows n = 0, 1, 2 and one far out: a line fitted in floats lost mu's digits against |n|
    # and read neither (residual 2.4e-8 for T3 at 2**31, 0.15 for T2 at 2**52)
    fit = classify_a_minus1({n: family(n) for n in (0, 1, 2, far)}, PRIN)
    assert fit.branch == branch and fit.residual <= 1e-12


def test_classifier_fit_matches_the_lstsq_oracle(rng):
    # the exact line against a dense least-squares solve, on random complex
    # T2, T3 and neither families over random ranges of n, the tie line mu = (1 - lam)/2 among them
    for trial in range(40):
        lam = float(rng.uniform(-0.95, 0.95))
        tie = trial % 4 == 0
        mu = complex((1.0 - lam) / 2.0, 0.0 if tie else rng.uniform(-3.0, 3.0))
        if not tie and trial % 2:
            mu += float(rng.uniform(-0.4, 0.4))
        p = RepnParams(BILATERAL, lam, mu)
        c = complex(rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0))
        lo = int(rng.integers(-40, 5))
        ns = range(lo, lo + int(rng.integers(3, 40)))
        families = (
            (FIT_T2, {n: c for n in ns}),
            (FIT_T2 if tie else FIT_T3, {n: c * (lam + mu + n) / (n + 1.0 - mu) for n in ns}),
            (FIT_NEITHER, {n: c * (1.0 + 0.1 * n * n) for n in ns}),
        )
        for branch, coeffs in families:
            fit = classify_a_minus1(coeffs, p)
            a, b, residual = lstsq_affine_fit(coeffs, mu)
            scale = max(1.0, abs(a), abs(b))
            assert abs(fit.a - a) <= 1e-12 * scale and abs(fit.b - b) <= 1e-12 * scale
            assert abs(fit.residual - residual) <= 1e-12 * max(scale, residual)
            assert (fit.branch, fit.tie) == (branch, tie and branch == FIT_T2)


# ---------------------------------------------------------------- normalizer


def test_normalizer_rotation_path_is_tiny():
    w = TruncationWindow(BILATERAL, 32, 8)
    t2 = orthonormal(canonical_shift("T2", PRIN, w), PRIN, w)
    report = normalizer_defect(t2, Realization.plain(PRIN), GroupPath((("h", 0.25),)), w)
    assert report.value <= 1e-12


def test_normalizer_certifies_generated_algebra():
    w = TruncationWindow(BILATERAL, 64, 24)
    t2 = orthonormal(canonical_shift("T2", PRIN, w), PRIN, w)
    assert normalizer_defect(t2, Realization.plain(PRIN), GroupPath((("L", 0.1),)), w).value < 1e-6

    wh = TruncationWindow(UNILATERAL, 64, 24)
    t1 = orthonormal(canonical_shift("T1", HOLO2, wh), HOLO2, wh)
    assert normalizer_defect(t1, Realization.plain(HOLO2), GroupPath((("L", 0.1),)), wh).value < 1e-6


def test_normalizer_negative_control():
    wh = TruncationWindow(UNILATERAL, 64, 16)
    n = wh.indices()[:-1]
    bad = orthonormal(OperatorMatrix.from_band(wh, -1, 1.0 / (n + 2)), HOLO2, wh)
    report = normalizer_defect(bad, Realization.plain(HOLO2), GroupPath((("L", 0.1),)), wh)
    assert report.value > 1e-2


def test_normalizer_holds_the_diagonals_off_the_step_against_zero():
    # R T2^2 R^-1 = phi(T2)^2 carries odd powers of T2 once beta != 0, so it leaves the
    # algebra that T2^2 generates: its odd diagonals, which no power of T2^2 reaches,
    # hold about 3.5 along a boost; a rotation keeps T2^2's diagonal
    p = RepnParams(BILATERAL, 0.3, complex(0.35, 3.0))
    w = TruncationWindow(BILATERAL, 64, 24)
    t2 = orthonormal(canonical_shift("T2", p, w), p, w)
    square = t2 @ t2
    assert square.single_diagonal[0] == -2
    boost = normalizer_defect(square, Realization.plain(p), GroupPath.parse("L:0.1"), w)
    rotation = normalizer_defect(square, Realization.plain(p), GroupPath.parse("h:0.3"), w)
    assert boost.value > 1.0 and not boost.passed
    assert rotation.value < 1e-12 and rotation.passed


# (params, operator); params None is the reducible sum at lambda = 1
AGREEMENT_FAMILIES = {
    "holo-T1": (HOLO2, "T1"),
    "antiholo-T1star": (HOLO2, "T1star"),
    "principal-T2": (PRIN, "T2"),
    "principal-T3": (PRIN, "T3"),
    "complementary-T3": (COMP, "T3"),
    "reducible-1": (None, "reducible"),
}


def _family_setup(family, N):
    """Orthonormal-basis shift, realization and window, as ``verify normalizer`` builds them."""
    p, op = AGREEMENT_FAMILIES[family]
    if p is None:
        w = TruncationWindow(BILATERAL, N, 3 * N // 8)
        rel = Realization.reducible(1.0)
        T = reducible_shift(rel, w)
    else:
        w = TruncationWindow(p.index_set, N, 3 * N // 8)
        rel = Realization.sharp(p) if op == "T1star" else Realization.plain(p)
        T = canonical_shift(op, p, w)
    return orthonormal(T, rel.params, w), rel, w


#: a path whose Cartan form has every factor: two rotations around a boost
LONG_PATH = GroupPath.parse("L:0.3,M:-0.2,h:0.4,L:-0.15")


@pytest.mark.parametrize("N", [16, 32, 64])
@pytest.mark.parametrize("family", sorted(AGREEMENT_FAMILIES))
def test_normalizer_matches_dense_oracle_on_families(family, N):
    T, rel, w = _family_setup(family, N)
    for text in DEFAULT_PATHS:
        path = GroupPath.parse(text)
        got = normalizer_defect(T, rel, path, w).value
        assert abs(got - dense_normalizer_defect(T, rel.along_path(path, w), w)) <= 1e-12, text


@pytest.mark.parametrize("step", [-2, -1, 1, 2, 3])
@pytest.mark.parametrize("layout", ["unilateral", "unilateral-gram", "bilateral"])
def test_normalizer_matches_dense_oracle_on_random_shifts(rng, step, layout):
    w = TruncationWindow(BILATERAL if layout == "bilateral" else UNILATERAL, 16, 4)
    coeffs = {
        n: complex(rng.standard_normal(), rng.standard_normal())
        for n in range(w.lo, w.hi + 1)
        if w.contains(n - step)
    }
    gram_layout = layout == "unilateral-gram"
    t = OperatorMatrix.from_band(w, step, list(coeffs.values()), MONOMIAL if gram_layout else ORTHONORMAL)
    if gram_layout:  # G^{1/2} t G^{-1/2} for a random diagonal Gram G
        s = np.sqrt(rng.uniform(0.5, 2.0, w.size))
        t = OperatorMatrix((s[:, None] * t.data) / s[None, :], w, ORTHONORMAL)
    # normalizer_defect conjugates by E^H; the oracle keeps an independent solve with R
    rel = Realization.plain(PRIN if layout == "bilateral" else HOLO2)
    want = dense_normalizer_defect(t, rel.along_path(LONG_PATH, w), w)
    got = normalizer_defect(t, rel, LONG_PATH, w).value
    assert want > 1e-3
    assert abs(got - want) <= 1e-12 * want


@pytest.mark.parametrize("pad", [0, 1, 4])
@pytest.mark.parametrize("step", [-6, -2, -1, 1, 2, 3, 6])
@pytest.mark.parametrize("kind", [UNILATERAL, BILATERAL])
def test_normalizer_matches_dense_oracle_where_the_halo_is_clipped(rng, kind, step, pad):
    # at pad 0 and 1 the |step| halo around the interior runs off the window's ends; on
    # 0..8 at pad 4 a step of 6 reaches past both ends from the one interior index
    w = TruncationWindow(kind, 8, pad)
    size = w.size - abs(step)
    t = OperatorMatrix.from_band(w, step, rng.standard_normal(size) + 1j * rng.standard_normal(size), ORTHONORMAL)
    # a dense R, and a diagonal one, which stays on T's band (and certifies a step
    # whose one interior entry per component is always a multiple: a defect of 0)
    rel = Realization.plain(HOLO2 if kind == UNILATERAL else PRIN)
    for path in (LONG_PATH, GroupPath((("h", rng.uniform(-0.5, 0.5)),))):
        want = dense_normalizer_defect(t, rel.along_path(path, w), w)
        assert abs(normalizer_defect(t, rel, path, w).value - want) <= 1e-12 * max(want, 1.0)


def test_normalizer_memory_stays_below_two_window_arrays(monkeypatch):
    # S = (R T) R^H over the whole window held about 4 window-sized arrays on L:0.1
    # and 1.4 on h:0.3, and the commutator over the whole interior block 1.25 on both;
    # E's parity blocks are formed before the trace, as R was, and a rotation stays on
    # T's band
    w = TruncationWindow(BILATERAL, 256, 96)
    rel = Realization.plain(PRIN)
    T = orthonormal(canonical_shift("T2", PRIN, w), PRIN, w)
    blocks = _parity_blocks(rel.generator("L", w), 0.1)
    monkeypatch.setattr(numkernel, "_parity_blocks", lambda X, t: blocks)
    for text in ("L:0.1", "h:0.3"):
        assert traced_peak(normalizer_defect, T, rel, GroupPath.parse(text), w) <= 1.1 * w.size**2 * 16, text


def test_normalizer_call_holds_few_window_arrays():
    # the whole call with L's spectrum cached: E's parity blocks (0.38 window arrays),
    # S's block on the interior and halo (0.40) and one tile's products; R, which the
    # call no longer builds, was 1 more
    w = TruncationWindow(BILATERAL, 256, 96)
    rel = Realization.plain(PRIN)
    T = orthonormal(canonical_shift("T2", PRIN, w), PRIN, w)
    _parity_blocks(rel.generator("L", w), 0.1)
    for text, bound in (("L:0.1", 1.3), ("h:0.3", 0.6)):
        assert traced_peak(normalizer_defect, T, rel, GroupPath.parse(text), w) <= bound * w.size**2 * 16, text


def test_normalizer_requires_single_step_shift(rng):
    w = TruncationWindow(BILATERAL, 6, 1)
    dense = OperatorMatrix(random_dense(rng, w.size), w)
    rel, path = Realization.plain(PRIN), GroupPath((("h", 0.1),))
    with pytest.raises(ParameterError):
        normalizer_defect(dense, rel, path, w)
    with pytest.raises(ParameterError):
        normalizer_defect(OperatorMatrix.from_band(w, 0, np.zeros(w.size)), rel, path, w)
    two_steps = OperatorMatrix.from_band(w, 1, np.ones(w.size - 1)) + OperatorMatrix.from_band(w, 2, np.ones(w.size - 2))
    with pytest.raises(ParameterError):
        normalizer_defect(two_steps, rel, path, w)


# ---------------------------------------------------------------- sharp flip


def test_sharp_flip_for_adjoint_shift():
    w = TruncationWindow(UNILATERAL, 12, 3)
    t1s = orthonormal(canonical_shift("T1star", HOLO2, w), HOLO2, w)
    assert sharp_isotypic_flip(t1s, 1, p=HOLO2) <= FLIP_TOL


def test_sharp_flip_fixes_diagonal():
    w = TruncationWindow(BILATERAL, 8, 2)
    assert sharp_isotypic_flip(OperatorMatrix.identity(w, ORTHONORMAL), 0) <= FLIP_TOL


def test_sharp_flip_random_operator(rng):
    w = TruncationWindow(BILATERAL, 8, 2)
    t = as_bands(random_dense(rng, w.size), w, ORTHONORMAL)
    for m in (-3, 2):
        value = sharp_isotypic_flip(t, m)
        assert value <= FLIP_TOL, (m, value)
