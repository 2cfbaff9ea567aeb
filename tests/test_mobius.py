import cmath
import math

import numpy as np
import pytest

from mobshift.errors import ParameterError
from mobshift.mobius import GroupPath, MobiusElement, cartan, compose, flow, inverse, path_to_mobius

from oracles import apply, derivative, random_disc_point, random_mobius, star, star_path


@pytest.fixture
def rng():
    return np.random.default_rng(31415)


def params_close(a, b, tol=1e-12):
    return abs(a.alpha - b.alpha) <= tol and abs(a.beta - b.beta) <= tol


# ---------------------------------------------------------------- element


def test_element_validation():
    with pytest.raises(ParameterError):
        MobiusElement(1.1, 0.0)
    with pytest.raises(ParameterError):
        MobiusElement(1.0, 1.0)


def test_apply_identity_and_zero_of_beta():
    ident = MobiusElement.identity()
    z = 0.3 + 0.1j
    assert apply(ident, z) == z
    phi = MobiusElement(1.0, 0.5)
    assert abs(apply(phi, 0.5)) <= 1e-15


def test_apply_operand_order_stability(rng):
    phi = MobiusElement(1j, 0.2)
    z = 0.7 + 0j
    first = phi.alpha * (z - phi.beta) / (1.0 - phi.beta.conjugate() * z)
    second = (phi.alpha * (z - phi.beta)) / (1.0 - phi.beta.conjugate() * z)
    assert abs(first - second) <= 1e-15
    assert abs(apply(phi, z) - first) <= 1e-15


# ---------------------------------------------------------------- compose / inverse


def test_compose_with_inverse_is_identity(rng):
    for _ in range(10):
        phi = random_mobius(rng)
        chi = compose(phi, inverse(phi))
        assert params_close(chi, MobiusElement.identity())


def test_compose_with_inverse_near_the_boundary(rng):
    # |beta| = 1 - 1e-6 u: the product of the SU(1,1) matrices needs no tolerance.  The
    # rounded inverse carries the conditioning 1/(1 - |beta|^2) of this product, so the
    # fixed bound is asked for u >= 0.1, and a bound scaled by it down to u = 1e-5
    for u_min, scaled in ((0.1, False), (1e-5, True)):
        for _ in range(500):
            beta = (1.0 - 1e-6 * rng.uniform(u_min, 1.0)) * cmath.exp(1j * rng.uniform(-math.pi, math.pi))
            phi = MobiusElement(cmath.exp(1j * rng.uniform(-math.pi, math.pi)), beta)
            chi = compose(phi, inverse(phi))
            err = max(abs(chi.alpha - 1.0), abs(chi.beta))
            assert err * (1.0 - abs(beta) ** 2) <= 1e-14 if scaled else err <= 1e-8


@pytest.mark.parametrize("gen", ["L", "M"])
def test_compose_identity_with_a_real_flow_is_exact(gen):
    for t in (-0.5, -0.13, 0.1, 0.37, 0.5):
        assert compose(MobiusElement.identity(), flow(gen, t)) == flow(gen, t)


def test_compose_rotations_multiply():
    a = MobiusElement(cmath.exp(0.4j), 0.0)
    b = MobiusElement(cmath.exp(-1.1j), 0.0)
    chi = compose(a, b)
    assert params_close(chi, MobiusElement(cmath.exp(-0.7j), 0.0))


def test_compose_pointwise(rng):
    for _ in range(10):
        phi, psi = random_mobius(rng), random_mobius(rng)
        chi = compose(phi, psi)
        for _ in range(20):
            z = random_disc_point(rng)
            assert abs(apply(chi, z) - apply(phi, apply(psi, z))) <= 1e-12


def test_inverse_identity_and_involution(rng):
    assert params_close(inverse(MobiusElement.identity()), MobiusElement.identity())
    for _ in range(10):
        phi = random_mobius(rng)
        assert params_close(inverse(inverse(phi)), phi, tol=1e-13)


def test_inverse_pointwise(rng):
    for _ in range(10):
        phi = random_mobius(rng)
        psi = inverse(phi)
        for _ in range(20):
            z = random_disc_point(rng)
            assert abs(apply(phi, apply(psi, z)) - z) <= 1e-12


def test_associativity_on_parameters(rng):
    for _ in range(20):
        a, b, c = (random_mobius(rng, 0.8) for _ in range(3))
        left = compose(compose(a, b), c)
        right = compose(a, compose(b, c))
        assert params_close(left, right)


# ---------------------------------------------------------------- star


def test_star_is_involution(rng):
    for _ in range(10):
        phi = random_mobius(rng)
        assert params_close(star(star(phi)), phi, tol=0.0)


def test_star_action_is_conjugation(rng):
    for _ in range(10):
        phi = random_mobius(rng)
        for _ in range(10):
            z = random_disc_point(rng)
            expected = apply(phi, z.conjugate()).conjugate()
            assert abs(apply(star(phi), z) - expected) <= 1e-13


def test_star_fixes_real_axis_flow_and_reverses_imaginary():
    lflow = flow("L", 0.2)
    assert params_close(star(lflow), lflow)
    mflow = flow("M", 0.2)
    assert params_close(star(mflow), flow("M", -0.2))


def test_star_is_homomorphism(rng):
    for _ in range(10):
        phi, psi = random_mobius(rng), random_mobius(rng)
        assert params_close(star(compose(phi, psi)), compose(star(phi), star(psi)))


# ---------------------------------------------------------------- flows and paths


def test_flow_values():
    assert params_close(flow("h", 0.0), MobiusElement.identity())
    t = 0.25
    assert params_close(flow("h", t), MobiusElement(cmath.exp(2j * t), 0.0))
    lf = flow("L", 0.1)
    assert abs(lf.beta - (-math.tanh(0.1))) <= 1e-12
    assert lf.beta.real == pytest.approx(-0.09966799462495582, abs=1e-12)


def test_flow_time_cap():
    with pytest.raises(ParameterError):
        flow("L", 0.6)
    with pytest.raises(ParameterError):
        flow("x", 0.1)


def test_path_to_mobius_empty_and_single():
    assert params_close(path_to_mobius(GroupPath(())), MobiusElement.identity())
    p = GroupPath((("h", 0.3),))
    assert params_close(path_to_mobius(p), MobiusElement(cmath.exp(0.6j), 0.0))


def test_path_flow_additivity(rng):
    p = GroupPath((("L", 0.1), ("L", 0.1)))
    got = path_to_mobius(p)
    want = MobiusElement(1.0, -math.tanh(0.2))
    assert params_close(got, want, tol=1e-13)
    for _ in range(10):
        z = random_disc_point(rng)
        assert abs(apply(got, z) - apply(want, z)) <= 1e-13


def test_path_concatenation(rng):
    p = GroupPath((("L", 0.1), ("M", -0.05)))
    q = GroupPath((("h", 0.2), ("L", 0.3)))
    assert params_close(path_to_mobius(GroupPath(p.segments + q.segments)), compose(path_to_mobius(p), path_to_mobius(q)))


def test_star_path_segments():
    p = GroupPath((("L", 0.2),))
    assert star_path(p).segments == (("L", 0.2),)
    p = GroupPath((("h", 0.3),))
    assert star_path(p).segments == (("h", -0.3),)
    assert star_path(GroupPath(())).segments == ()


def test_star_path_covers_star(rng):
    p = GroupPath((("L", 0.1), ("M", -0.05), ("h", 0.3)))
    assert params_close(path_to_mobius(star_path(p)), star(path_to_mobius(p)))


def test_path_parse_and_describe():
    p = GroupPath.parse("L:0.1,M:-0.05,h:0.3")
    assert p.segments == (("L", 0.1), ("M", -0.05), ("h", 0.3))
    assert p.describe() == "L:0.1,M:-0.05,h:0.3"
    assert GroupPath.parse("").segments == ()
    assert GroupPath.parse("id").describe() == "id"
    with pytest.raises(ParameterError):
        GroupPath.parse("L=0.1")
    with pytest.raises(ParameterError):
        GroupPath.parse("L:0.7")


def test_path_parse_rejects_malformed_time():
    for text in ("L:abc", "M:", "h:0.1x"):
        with pytest.raises(ParameterError, match="malformed time"):
            GroupPath.parse(text)


# ---------------------------------------------------------------- derivative


def test_derivative_rotation_and_identity(rng):
    rot = MobiusElement(cmath.exp(0.9j), 0.0)
    for _ in range(5):
        z = random_disc_point(rng)
        assert abs(derivative(rot, z) - rot.alpha) <= 1e-15
    assert derivative(MobiusElement.identity(), 0.2 + 0.2j) == pytest.approx(1.0)


def test_derivative_matches_finite_difference(rng):
    h = 1e-5
    for _ in range(20):
        phi = random_mobius(rng)
        z = random_disc_point(rng, radius=0.7)
        fd = (apply(phi, z + h) - apply(phi, z - h)) / (2.0 * h)
        assert abs(derivative(phi, z) - fd) <= 1e-8


def test_derivative_chain_rule(rng):
    for _ in range(20):
        phi, psi = random_mobius(rng, 0.7), random_mobius(rng, 0.7)
        z = random_disc_point(rng, radius=0.6)
        chi = compose(phi, psi)
        chained = derivative(phi, apply(psi, z)) * derivative(psi, z)
        assert abs(derivative(chi, z) - chained) <= 1e-8


# ---------------------------------------------------------------- Cartan form


def cartan_element(theta1: float, s: float, theta2: float) -> MobiusElement:
    """exp(theta1 h) exp(s L) exp(theta2 h) projected to the disc, for any angles."""
    return MobiusElement(cmath.exp(2j * (theta1 + theta2)), -math.tanh(s) * cmath.exp(-2j * theta2))


def test_cartan_reassembles_the_path(rng):
    for _ in range(200):
        k = int(rng.integers(2, 7))
        path = GroupPath(tuple((str(rng.choice(["h", "L", "M"])), float(rng.uniform(-0.5, 0.5))) for _ in range(k)))
        theta1, s, theta2 = cartan(path)
        assert abs(theta2) <= math.pi / 4 + 1e-15
        assert params_close(cartan_element(theta1, s, theta2), path_to_mobius(path))


@pytest.mark.parametrize(
    "text, turn",
    [("h:0.5,h:0.5,h:0.5,L:0.2", 1.5), ("h:0.5,h:0.5,h:0.5,h:0.5", 2.0), ("h:-0.5,h:-0.5,h:-0.5,h:-0.5,h:-0.5", -2.5)],
)
def test_cartan_lifts_the_rotation_to_the_cover(text, turn):
    # alpha fixes theta1 + theta2 only up to pi; the lift follows the path past pi/2
    theta1, s, theta2 = cartan(GroupPath.parse(text))
    assert theta1 + theta2 == pytest.approx(turn, abs=1e-12)
    if "L" not in text:
        assert s == 0.0 and theta2 == 0.0


def test_cartan_keeps_a_single_segment_exact():
    for t in (0.15, -0.37, 0.5):
        assert cartan(GroupPath((("L", t),))) == (0.0, t, 0.0)
        assert cartan(GroupPath((("h", t),))) == (t, 0.0, 0.0)
        assert cartan(GroupPath((("M", t),))) == (math.pi / 4, t, -math.pi / 4)
        assert params_close(cartan_element(*cartan(GroupPath((("M", t),)))), flow("M", t))
    assert cartan(GroupPath(())) == (0.0, 0.0, 0.0)

