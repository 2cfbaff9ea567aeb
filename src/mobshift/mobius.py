"""The disc-automorphism group, its flow-path cover, and the Cartan form of a path.

Elements are ``phi_{alpha,beta}(z) = alpha (z - beta) / (1 - conj(beta) z)``
with ``|alpha| = 1`` and ``|beta| < 1``; they compose as SU(1,1) matrices
(see ``compose``).  Elements of the simply connected cover are represented
as short flow paths in the real generators h, L, M; fractional powers of
derivatives stay on principal branches because every path starts at the
identity and each segment is short.
"""

from __future__ import annotations

import cmath
import math

from .errors import ParameterError, value_type

GENERATORS = ("h", "L", "M")
SEGMENT_TIME_CAP = 0.5

_ALPHA_TOL = 1e-12
_BETA_TOL = 1e-12


@value_type
class MobiusElement:
    alpha: complex
    beta: complex

    def __post_init__(self):
        a = complex(self.alpha)
        b = complex(self.beta)
        if abs(abs(a) - 1.0) > _ALPHA_TOL:
            raise ParameterError(f"alpha must have unit modulus, got |alpha| = {abs(a)!r}")
        if abs(b) > 1.0 - _BETA_TOL:
            raise ParameterError(f"beta must lie strictly inside the unit disc, got |beta| = {abs(b)!r}")
        object.__setattr__(self, "alpha", a)
        object.__setattr__(self, "beta", b)

    @classmethod
    def identity(cls) -> "MobiusElement":
        return cls(1.0 + 0j, 0j)


def inverse(phi: MobiusElement) -> MobiusElement:
    """The element psi with phi(psi(z)) = z, namely (conj(alpha), -alpha beta)."""
    return MobiusElement(phi.alpha.conjugate(), -phi.alpha * phi.beta)


def _su11(phi: MobiusElement) -> tuple[complex, complex]:
    """(a, b) of phi's SU(1,1) matrix [[a, b], [conj b, conj a]], up to a positive scale:
    a = sqrt(alpha), b = -beta a, so that (a z + b) / (conj(b) z + conj(a)) = phi(z)."""
    a = cmath.sqrt(phi.alpha)
    return a, -phi.beta * a


def compose(phi: MobiusElement, psi: MobiusElement) -> MobiusElement:
    """The element chi with chi(z) = phi(psi(z)).

    chi's matrix is the product of phi's and psi's SU(1,1) matrices, and
    alpha = a / conj(a), beta = -b / a are read back from it; any positive
    scale of the product cancels in both, so there is no tolerance.
    """
    a1, b1 = _su11(phi)
    a2, b2 = _su11(psi)
    a = a1 * a2 + b1 * b2.conjugate()
    b = a1 * b2 + b1 * a2.conjugate()
    return MobiusElement(a / a.conjugate(), -b / a)


def flow(gen: str, t: float) -> MobiusElement:
    """One-parameter flows of the generators.

    exp(t h) rotates by e^{2it}; exp(t L) and exp(t M) translate along the
    real and imaginary axes with beta = -tanh t and -i tanh t.
    """
    if gen not in GENERATORS:
        raise ParameterError(f"unknown generator {gen!r}")
    t = float(t)
    if abs(t) > SEGMENT_TIME_CAP:
        raise ParameterError(
            f"|t| = {abs(t)} exceeds the per-segment cap {SEGMENT_TIME_CAP}; split the path"
        )
    if gen == "h":
        return MobiusElement(cmath.exp(2j * t), 0j)
    b = math.tanh(t)
    if gen == "L":
        return MobiusElement(1.0 + 0j, complex(-b))
    return MobiusElement(1.0 + 0j, -1j * b)


@value_type
class GroupPath:
    """Cover element as an ordered tuple of (generator, time) flow segments."""

    segments: tuple = ()

    def __post_init__(self):
        segs = []
        for seg in self.segments:
            gen, t = seg
            if gen not in GENERATORS:
                raise ParameterError(f"unknown generator {gen!r} in path")
            t = float(t)
            if not math.isfinite(t) or abs(t) > SEGMENT_TIME_CAP:
                raise ParameterError(f"segment time {t} outside [-{SEGMENT_TIME_CAP}, {SEGMENT_TIME_CAP}]")
            segs.append((gen, t))
        object.__setattr__(self, "segments", tuple(segs))

    @classmethod
    def parse(cls, text: str) -> "GroupPath":
        """Parse comma-separated ``gen:time`` tokens, e.g. ``L:0.1,M:-0.05,h:0.3``.

        Blank text or ``id`` is the empty path.
        """
        text = text.strip()
        if not text or text == "id":
            return cls(())
        segs = []
        for token in text.split(","):
            parts = token.strip().split(":")
            if len(parts) != 2:
                raise ParameterError(f"malformed path segment {token!r}; expected gen:time")
            try:
                t = float(parts[1])
            except ValueError:
                raise ParameterError(f"malformed time in path segment {token!r}; expected a number") from None
            segs.append((parts[0].strip(), t))
        return cls(tuple(segs))

    def describe(self) -> str:
        return ",".join(f"{g}:{t:g}" for g, t in self.segments) or "id"


def path_to_mobius(p: GroupPath) -> MobiusElement:
    """Project a flow path to the automorphism it covers (left-to-right)."""
    out = MobiusElement.identity()
    for gen, t in p.segments:
        out = compose(out, flow(gen, t))
    return out


def cartan(p: GroupPath) -> tuple[float, float, float]:
    """(theta1, s, theta2) with p = exp(theta1 h) exp(s L) exp(theta2 h) on the cover.

    From phi = (alpha, beta) of p: tanh|s| = |beta| and e^{-2i theta2} = -sign(s) beta/|beta|
    with |theta2| <= pi/4 (0 when beta = 0); theta1 + theta2 is the Theta with
    e^{2i Theta} = alpha, lifted segment by segment (each moves it by less than pi/2).  A
    single segment is its own Cartan form (M is L turned by exp(pi/4 h)), kept exact.
    """
    if len(p.segments) == 1:
        gen, t = p.segments[0]
        return {"h": (t, 0.0, 0.0), "L": (0.0, t, 0.0), "M": (math.pi / 4, t, -math.pi / 4)}[gen]
    phi, turn = MobiusElement.identity(), 0.0
    for gen, t in p.segments:
        phi = compose(phi, flow(gen, t))
        half = cmath.phase(phi.alpha) / 2.0
        turn = half + math.pi * round((turn - half) / math.pi)
    sign = -1.0 if phi.beta.real > 0.0 else 1.0
    theta2 = -cmath.phase(-sign * phi.beta) / 2.0 if phi.beta else 0.0
    return turn - theta2, sign * math.atanh(abs(phi.beta)), theta2


STAR_SIGNS = {"h": -1.0, "L": 1.0, "M": -1.0}
