import math

import numpy as np
import pytest

from mobshift.errors import ParameterRangeError, PoleError, WindowMismatchError
from mobshift.numkernel import BILATERAL, UNILATERAL, TruncationWindow
from mobshift.repn import RepnParams
from mobshift.specialfn import NormSequence, norm_ratio, norm_sq_sequence

from oracles import complex_gamma, stirling_gamma


@pytest.fixture
def rng():
    return np.random.default_rng(77)


def sample_away_from_poles(rng, count, radius=10.0, margin=0.2):
    out = []
    while len(out) < count:
        z = complex(rng.uniform(-radius, radius), rng.uniform(-radius, radius))
        if abs(z) > radius:
            continue
        if abs(z.imag) < margin and z.real < 0.5 and abs(z.real - round(z.real)) < margin:
            continue
        out.append(z)
    return out


# ---------------------------------------------------------------- gamma oracle


def test_gamma_small_integers():
    assert complex_gamma(1.0) == pytest.approx(1.0, rel=1e-14)
    assert complex_gamma(4.0) == pytest.approx(6.0, rel=1e-14)
    assert complex_gamma(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-13)


def test_gamma_against_asymptotic_oracle_spot():
    z = 0.3 + 0.2j
    expected = stirling_gamma(z)
    assert abs(complex_gamma(z) - expected) <= 1e-11 * abs(expected)


def test_gamma_against_asymptotic_oracle_sample(rng):
    for z in sample_away_from_poles(rng, 60):
        expected = stirling_gamma(z)
        assert abs(complex_gamma(z) - expected) <= 1e-12 * abs(expected), f"z={z}"


def test_gamma_functional_equation(rng):
    for z in sample_away_from_poles(rng, 200):
        lhs = complex_gamma(z + 1.0)
        rhs = z * complex_gamma(z)
        assert abs(lhs - rhs) <= 1e-11 * abs(lhs), f"z={z}"


def test_gamma_reflection(rng):
    import cmath

    for z in sample_away_from_poles(rng, 200):
        if abs(z.imag) < 0.05 and abs(z.real - round(z.real)) < 0.05:
            continue  # sin(pi z) ~ 0 makes the product ill-defined
        value = complex_gamma(z) * complex_gamma(1.0 - z) * cmath.sin(math.pi * z) / math.pi
        assert abs(value - 1.0) <= 1e-10, f"z={z}"


def test_gamma_poles():
    for z in (0.0, -1.0, -2.0, -7.0):
        with pytest.raises(PoleError):
            complex_gamma(z)


# ---------------------------------------------------------------- norms


def test_principal_norms_are_exactly_one():
    p = RepnParams(BILATERAL, 0.3, complex(0.35, 0.7))
    w = TruncationWindow(BILATERAL, 32, 8)
    seq = norm_sq_sequence(p, w)
    assert np.array_equal(seq.values, np.ones(w.size))


def test_holomorphic_lambda_one_norms_are_one():
    p = RepnParams(UNILATERAL, 1.0)
    w = TruncationWindow(UNILATERAL, 20, 4)
    seq = norm_sq_sequence(p, w)
    assert np.max(np.abs(seq.values - 1.0)) <= 1e-14


def test_holomorphic_lambda_two_value():
    # Gamma(4)/Gamma(5) = 6/24
    p = RepnParams(UNILATERAL, 2.0)
    w = TruncationWindow(UNILATERAL, 8, 2)
    seq = norm_sq_sequence(p, w)
    assert seq.value(3) == pytest.approx(0.25, abs=1e-13)


@pytest.mark.parametrize(
    "p",
    [RepnParams(UNILATERAL, 2.7), RepnParams(UNILATERAL, 40.0), RepnParams(BILATERAL, 0.4, 0.2 + 0j)],
    ids=("holo-2.7", "holo-40", "complementary"),
)
def test_norms_are_the_gamma_ratios_up_to_a_constant(p):
    # ||f_n||^2 = Gamma(1 - mu + n) / Gamma(lam + conj(mu) + n), scaled so ||f_0|| = 1
    w = TruncationWindow(p.index_set, 24, 4)
    seq = norm_sq_sequence(p, w)

    def gamma_ratio(n):
        return stirling_gamma(1.0 - p.mu + n) / stirling_gamma(p.lam + p.mu.conjugate() + n)

    for n in range(w.lo, w.hi + 1):
        want = gamma_ratio(n) / gamma_ratio(0)
        assert abs(seq.value(n) - want) <= 1e-10 * abs(want), f"n={n}"


def test_norm_ratio_recurrence_holds():
    cases = [
        RepnParams(UNILATERAL, 2.7),
        RepnParams(BILATERAL, 0.4, 0.2 + 0j),
    ]
    for p in cases:
        w = TruncationWindow(p.index_set, 24, 4)
        seq = norm_sq_sequence(p, w)
        for n in range(w.lo, w.hi):
            got = seq.value(n + 1) / seq.value(n)
            assert got == pytest.approx(norm_ratio(p, n), rel=1e-10)


def test_complementary_norms_positive_everywhere():
    p = RepnParams(BILATERAL, 0.4, 0.2 + 0j)
    w = TruncationWindow(BILATERAL, 64, 16)
    seq = norm_sq_sequence(p, w)
    assert np.all(seq.values > 0.0)
    assert np.all(np.isfinite(seq.values))


def test_norms_reject_nonunitary_parameters():
    # bilateral mu with the wrong real part: the ratio turns genuinely complex
    p = RepnParams(BILATERAL, 0.4, complex(0.5, 0.3))
    w = TruncationWindow(BILATERAL, 8, 2)
    with pytest.raises(ParameterRangeError):
        norm_sq_sequence(p, w)


def test_holomorphic_lambda_200_norms_are_finite():
    # the norms carry no gamma anchor, so nothing overflows at large lam
    for N in (8, 256):
        seq = norm_sq_sequence(RepnParams(UNILATERAL, 200.0), TruncationWindow(UNILATERAL, N, 2))
        assert seq.value(0) == 1.0 and seq.value(1) == pytest.approx(1.0 / 200.0, rel=1e-15)


def test_reducible_seam_norms():
    # bilateral mu = 0 is the direct-sum point: mu = 1 - lam below the seam,
    # mu = 0 from n = 0 up, both sides of the cut at 1
    w = TruncationWindow(BILATERAL, 12, 2)
    assert np.array_equal(norm_sq_sequence(RepnParams(BILATERAL, 1.0), w).values, np.ones(w.size))
    lam = 1.5
    seq = norm_sq_sequence(RepnParams(BILATERAL, lam), w)
    assert seq.value(-1) == seq.value(0) == 1.0
    for n in range(w.lo, -1):
        assert seq.value(n + 1) / seq.value(n) == pytest.approx((lam + n) / (n + 1.0), rel=1e-13)
    for n in range(0, w.hi):
        assert seq.value(n + 1) / seq.value(n) == pytest.approx((n + 1.0) / (lam + n), rel=1e-13)


def test_norms_window_mismatch():
    p = RepnParams(UNILATERAL, 2.0)
    with pytest.raises(WindowMismatchError):
        norm_sq_sequence(p, TruncationWindow(BILATERAL, 8, 2))


def test_norm_sequence_validates_positivity():
    w = TruncationWindow(UNILATERAL, 2, 0)
    with pytest.raises(ParameterRangeError):
        NormSequence(w, np.array([1.0, -1.0, 2.0]))
