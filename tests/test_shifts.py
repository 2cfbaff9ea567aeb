import math

import numpy as np
import pytest

from mobshift.errors import NumericsError, ParameterError, WindowMismatchError
from mobshift.numkernel import BILATERAL, ORTHONORMAL, UNILATERAL, OperatorMatrix, TruncationWindow
from mobshift.repn import (
    ANTIHOLO,
    COMPLEMENTARY,
    HOLO,
    PRINCIPAL,
    Realization,
    RepnParams,
    complementary_mu_interval,
)
from mobshift.shifts import canonical_shift, reducible_shift, weight_sequence
from mobshift.specialfn import norm_ratio

HOLO2 = RepnParams(UNILATERAL, 2.0)
PRIN = RepnParams(BILATERAL, 0.3, complex(0.35, 0.7))
COMP = RepnParams(BILATERAL, 0.4, 0.2 + 0j)


# ---------------------------------------------------------------- canonical shifts


def test_t1star_kills_bottom_vector():
    w = TruncationWindow(UNILATERAL, 6, 1)
    t = canonical_shift("T1star", HOLO2, w)
    assert np.max(np.abs(t.data[:, 0])) == 0.0


def test_t1star_first_coefficient():
    w = TruncationWindow(UNILATERAL, 6, 1)
    t = canonical_shift("T1star", HOLO2, w)
    assert t.entry(0, 1) == pytest.approx(0.5)  # n/(lam + n - 1) at n = 1


def test_t3_reduces_to_t2_on_the_coincidence_line():
    p = RepnParams(BILATERAL, 0.4, 0.3 + 0j)  # mu = (1 - lam)/2
    w = TruncationWindow(BILATERAL, 16, 4)
    t2 = canonical_shift("T2", p, w)
    t3 = canonical_shift("T3", p, w)
    assert np.max(np.abs(t2.data - t3.data)) <= 1e-14


def test_canonical_shift_compatibility():
    w_uni = TruncationWindow(UNILATERAL, 6, 1)
    w_bil = TruncationWindow(BILATERAL, 6, 1)
    with pytest.raises(ParameterError):
        canonical_shift("T2", HOLO2, w_uni)
    with pytest.raises(ParameterError):
        canonical_shift("T1", PRIN, w_bil)
    with pytest.raises(ParameterError):
        canonical_shift("T9", HOLO2, w_uni)
    canonical_shift("T3", RepnParams(BILATERAL, 1.0, 2j), w_bil)  # non-integer mu is fine
    with pytest.raises(ParameterError, match="T3 needs non-integer mu"):
        canonical_shift("T3", RepnParams(BILATERAL, 0.5, 1.0 + 0j), w_bil)


# ---------------------------------------------------------------- weights


def test_weight_values_holomorphic():
    p1 = RepnParams(UNILATERAL, 1.0)
    for n in range(5):
        assert weight_sequence(Realization.plain(p1), n) == pytest.approx(1.0)
    assert weight_sequence(Realization.plain(HOLO2), 0) == pytest.approx(math.sqrt(0.5), abs=1e-12)
    with pytest.raises(ParameterError):
        weight_sequence(Realization.plain(HOLO2), -1)


def test_weight_values_antiholomorphic():
    p = RepnParams(UNILATERAL, 0.5)
    assert weight_sequence(Realization.sharp(p), -1) == pytest.approx(math.sqrt(2.0), abs=1e-12)
    assert weight_sequence(Realization.sharp(p), 0) == 0.0
    assert weight_sequence(Realization.sharp(RepnParams(UNILATERAL, 1.0)), 0) == 0.0
    with pytest.raises(ParameterError):
        weight_sequence(Realization.sharp(p), 1)


def test_weight_values_principal_branches():
    assert weight_sequence(Realization.plain(PRIN), 7) == 1.0
    n = 3
    expected = (PRIN.lam + PRIN.mu + n) / (n + 1.0 - PRIN.mu)
    assert weight_sequence(Realization.plain(PRIN), n, branch="T3") == pytest.approx(expected)
    with pytest.raises(ParameterError):
        weight_sequence(Realization.plain(PRIN), 0, branch="T9")


def test_weight_values_complementary():
    n = 2
    expected = math.sqrt((1.0 - 0.2 + n) / (0.4 + 0.2 + n))
    assert weight_sequence(Realization.plain(COMP), n) == pytest.approx(expected, abs=1e-12)


def test_weight_values_reducible():
    rel = Realization.reducible(1.0, 0.5)
    assert weight_sequence(rel, -2) == 1.0
    assert weight_sequence(rel, -1) == 0.5
    assert weight_sequence(rel, 0) == 1.0


def test_a_plain_bilateral_family_reads_its_own_branch_at_the_seam():
    # the realization alone picks the shift: a plain family never takes the reducible sum's
    # seam coupling (asking for it with a plain realization once raised a TypeError on r = None)
    for p in (PRIN, COMP, RepnParams(BILATERAL, 1.0)):
        assert weight_sequence(Realization.plain(p), -1) == complex(math.sqrt(norm_ratio(p, -1)))
    assert weight_sequence(Realization.reducible(1.0, 0.5), -1) == 0.5


# ---------------------------------------------------------------- basis change


def test_to_orthonormal_principal_is_unchanged():
    w = TruncationWindow(BILATERAL, 12, 3)
    t2 = canonical_shift("T2", PRIN, w)
    out = Realization.plain(PRIN).orthonormal(t2, w)
    np.testing.assert_array_equal(out.data, t2.data)
    assert out.basis == ORTHONORMAL


def test_to_orthonormal_t1_matches_weight_sequence():
    w = TruncationWindow(UNILATERAL, 24, 4)
    out = Realization.plain(HOLO2).orthonormal(canonical_shift("T1", HOLO2, w), w)
    for n in range(0, w.hi):
        assert abs(out.entry(n + 1, n) - weight_sequence(Realization.plain(HOLO2), n)) <= 1e-12


def test_to_orthonormal_t1star_matches_antiholomorphic_weights():
    # x_n built on f_{-n}: the weight at n <= 0 shows up at column -n
    w = TruncationWindow(UNILATERAL, 24, 4)
    p = RepnParams(UNILATERAL, 0.5)
    out = Realization.plain(p).orthonormal(canonical_shift("T1star", p, w), w)
    for n in range(1, w.hi + 1):
        assert abs(out.entry(n - 1, n) - weight_sequence(Realization.sharp(p), -n)) <= 1e-12


#: lambdas of the weights-against-Gram checks, from subnormal to huge; each family takes those in its range
GRAM_LAMS = (1e-320, 1e-17, 0.3, 1e300)
#: complementary lambdas near -1 and 1, where the mu interval is a sliver at 1 or at 0
EDGE_LAMS = (-1.0 + 2.0**-52, -1.0 + 2.0**-40, 1.0 - 2.0**-40, 1.0 - 2.0**-53)


def _complementary(lam, share):
    lo, hi = complementary_mu_interval(lam)
    return RepnParams(BILATERAL, lam, complex(lo + share * (hi - lo)))


def _weights_or_refusal(rel, n):
    try:
        return weight_sequence(rel, n)
    except (ParameterError, NumericsError) as exc:
        return str(exc)


def _gram_weight_or_refusal(p, m):
    try:
        return complex(math.sqrt(norm_ratio(p, m)))
    except (ParameterError, NumericsError) as exc:
        return str(exc)


@pytest.mark.parametrize(
    "kind, rel, ns",
    [(HOLO, Realization.plain(RepnParams(UNILATERAL, lam)), range(0, 51)) for lam in GRAM_LAMS]
    + [(ANTIHOLO, Realization.sharp(RepnParams(UNILATERAL, lam)), range(-50, 0)) for lam in GRAM_LAMS]
    + [(COMPLEMENTARY, Realization.plain(_complementary(lam, share)), range(-50, 51))
       for lam in (*GRAM_LAMS[:3], *EDGE_LAMS) for share in (0.25, 0.75)],
    ids=[f"{kind} {lam!r}" for kind in (HOLO, ANTIHOLO) for lam in GRAM_LAMS]
    + [f"complementary {lam!r} at {share}" for lam in (*GRAM_LAMS[:3], *EDGE_LAMS) for share in (0.25, 0.75)],
)
def test_weights_are_the_square_roots_of_the_grams_ratios(kind, rel, ns):
    # bit for bit, and refused at the same n with the same reason; the anti-holomorphic
    # weight at n < 0 is the holomorphic ratio at -n - 1
    for n in ns:
        m = -n - 1 if kind == ANTIHOLO else n
        assert _weights_or_refusal(rel, n) == _gram_weight_or_refusal(rel.params, m), n


@pytest.mark.parametrize("lam", [lam for lam in GRAM_LAMS if 0.0 < lam < 2.0] + [1.0, 1.7])
def test_reducible_weights_are_the_orthonormal_shifts_band(lam):
    # the table and the Gram route refuse the same windows; where neither does, the
    # weights are the -1 band of the shift in the orthonormal seam basis
    rel = Realization.reducible(lam, 0.7 + 0.2j)
    w = TruncationWindow(BILATERAL, 50, 0)
    weights = [_weights_or_refusal(rel, n) for n in range(w.lo, w.hi)]
    refused = [x for x in weights if isinstance(x, str)]
    try:
        band = rel.orthonormal(reducible_shift(rel, w), w).diagonal(-1)
    except (ParameterError, NumericsError):
        assert refused
        return
    assert not refused
    assert np.all(np.abs(np.array(weights) - band) <= 1e-15 * np.abs(band))


def test_to_orthonormal_t3_complementary_simplifies():
    w = TruncationWindow(BILATERAL, 24, 4)
    out = Realization.plain(COMP).orthonormal(canonical_shift("T3", COMP, w), w)
    lam, mu = COMP.lam, COMP.mu.real
    for n in range(w.lo, w.hi):
        expected = math.sqrt((lam + mu + n) / (1.0 - mu + n))
        assert abs(out.entry(n + 1, n) - expected) <= 1e-12
    assert out.entry(1, 0) == pytest.approx(math.sqrt(0.75), abs=1e-10)


def test_orthonormal_takes_a_monomial_operator_on_its_window():
    w, rel = TruncationWindow(UNILATERAL, 4, 1), Realization.plain(HOLO2)
    t = canonical_shift("T1", HOLO2, w)
    for A, v in ((rel.orthonormal(t, w), w), (t, TruncationWindow(UNILATERAL, 5, 1)), (t, TruncationWindow(BILATERAL, 4, 1))):
        with pytest.raises(WindowMismatchError):
            rel.orthonormal(A, v)


def test_gram_adjoint_of_t1_is_t1star():
    # the Gram adjoint G^-1 T* G is the plain adjoint in the orthonormal basis
    w = TruncationWindow(UNILATERAL, 24, 4)
    rel = Realization.plain(HOLO2)
    adj = rel.orthonormal(canonical_shift("T1", HOLO2, w), w).H
    expected = rel.orthonormal(canonical_shift("T1star", HOLO2, w), w)
    assert np.max(np.abs(adj.data - expected.data)) <= 1e-12


@pytest.mark.parametrize("lam", [0.5, 1.0, 2.0])
def test_t1_and_its_adjoint_do_not_commute(lam):
    p = RepnParams(UNILATERAL, lam)
    w = TruncationWindow(UNILATERAL, 16, 2)
    t1 = canonical_shift("T1", p, w)
    t1s = canonical_shift("T1star", p, w)
    comm = t1 @ t1s - t1s @ t1
    assert abs(comm.entry(0, 0)) == pytest.approx(1.0 / lam, abs=1e-12)
    assert np.linalg.norm(comm.data) > 0.1 / lam


def test_principal_t3_weights_unimodular():
    for n in range(-64, 65):
        w = weight_sequence(Realization.plain(PRIN), n, branch="T3")
        assert abs(abs(w) - 1.0) <= 1e-12


def test_complementary_weights_approach_one():
    for n in list(range(-64, -7)) + list(range(8, 65)):
        w = weight_sequence(Realization.plain(COMP), n)
        assert abs(w - 1.0) <= 2.0 / abs(n)


# ---------------------------------------------------------------- reducible shift


def test_reducible_shift_coefficients():
    w = TruncationWindow(BILATERAL, 6, 1)
    t = reducible_shift(Realization.reducible(1.0, 0.5), w)
    for n in range(w.lo, w.hi):
        expected = 0.5 if n == -1 else 1.0
        assert t.entry(n + 1, n) == pytest.approx(expected)


def test_reducible_shift_below_seam_value():
    w = TruncationWindow(BILATERAL, 6, 1)
    t = reducible_shift(Realization.reducible(1.5, 1.0), w)
    assert t.entry(-2, -3) == pytest.approx(4.0 / 3.0)  # (1 + n)/(lam + n) at n = -3


def test_reducible_shift_with_unit_coupling_is_t2():
    w = TruncationWindow(BILATERAL, 8, 2)
    t = reducible_shift(Realization.reducible(1.0, 1.0), w)
    t2 = canonical_shift("T2", PRIN, w)
    np.testing.assert_array_equal(t.data, t2.data)


def test_reducible_shift_block_structure():
    # rows/cols >= 0 against < 0: the coupling block has exactly one entry
    w = TruncationWindow(BILATERAL, 6, 1)
    t = reducible_shift(Realization.reducible(1.3, 0.7), w)
    neg = [w.pos(n) for n in range(w.lo, 0)]
    pos = [w.pos(n) for n in range(0, w.hi + 1)]
    upper_right = t.data[np.ix_(neg, pos)]  # maps the n >= 0 block downward
    assert np.count_nonzero(upper_right) == 0
    lower_left = t.data[np.ix_(pos, neg)]
    assert np.count_nonzero(lower_left) == 1
    assert t.entry(0, -1) == pytest.approx(0.7)


def test_reducible_shift_validation():
    w = TruncationWindow(BILATERAL, 6, 1)
    with pytest.raises(ParameterError):
        reducible_shift(Realization.plain(PRIN), w)
    with pytest.raises(WindowMismatchError):
        reducible_shift(Realization.reducible(1.0, 1.0), TruncationWindow(UNILATERAL, 6, 1))


def test_reducible_shift_pole_inside_the_lambda_bound():
    # lam = 2 - 1e-13 lies in (0, 2), but (1 + n)/(lam + n) has its pole at n = -2
    w = TruncationWindow(BILATERAL, 8, 2)
    with pytest.raises(ParameterError, match="pole at n=-2"):
        reducible_shift(Realization.reducible(2.0 - 1e-13, 1.0), w)


def _formula_shift(w, step, sources, coefficient):
    """Reference build: the band of the coefficient formula, one source index at a time."""
    return OperatorMatrix.from_band(w, step, [coefficient(n) for n in sources])


@pytest.mark.parametrize(
    "kind, p",
    [("T1", HOLO2), ("T1star", HOLO2), ("T2", PRIN), ("T3", PRIN), ("T2", COMP), ("T3", COMP)],
    ids=("T1-holo", "T1star-holo", "T2-principal", "T3-principal", "T2-complementary", "T3-complementary"),
)
def test_canonical_shift_matches_its_coefficient_formula(kind, p):
    w = TruncationWindow(p.index_set, 32, 8)
    lam, mu = p.lam, p.mu
    if kind == "T1star":
        want = _formula_shift(w, +1, range(1, w.hi + 1), lambda n: n / (lam + n - 1.0))
    elif kind == "T3":
        want = _formula_shift(w, -1, range(w.lo, w.hi), lambda n: (lam + mu + n) / (n + 1.0 - mu))
    else:
        want = _formula_shift(w, -1, range(w.lo, w.hi), lambda n: 1.0)
    got = canonical_shift(kind, p, w).data
    if kind == "T3":
        # numpy and Python complex division may round differently
        assert np.max(np.abs(got - want.data)) <= 1e-15 * np.max(np.abs(want.data))
    else:
        assert np.array_equal(got, want.data)


def test_reducible_shift_matches_its_coefficient_formula():
    w = TruncationWindow(BILATERAL, 32, 8)
    lam, r = 1.3, 10.0
    want = _formula_shift(w, -1, range(w.lo, w.hi), lambda n: (1.0 + n) / (lam + n) if n < -1 else (r if n == -1 else 1.0))
    assert np.array_equal(reducible_shift(Realization.reducible(lam, r), w).data, want.data)
