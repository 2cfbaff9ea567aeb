"""Seeded operation lists for the three workloads.

An operation is one process: a ``mobshift`` command line, or in ``wide``
also one cross-check of the two routes to R(path).  The seed draws
the family parameters from each family's valid range; everything else
(the suites, window sizes, paths and the number of operations) is fixed, so
every seed does the same amount of work.  The program sees only argv and
the coefficient files written here.

Paths are the CLI's ``DEFAULT_PATHS``; windows use the CLI's pad fractions,
N/4 and, for the normalizer, 3N/8.
"""

from __future__ import annotations

import cmath
import math
import os
import random
from dataclasses import dataclass, field

DEFAULT_PATHS = ("L:0.1", "M:0.1", "h:0.3", "L:0.1,M:-0.05,h:0.2")

WORKLOADS = ("desk", "sweep", "wide")

# Seeded ranges.  Each is the family's valid range, cut only where a correct
# outcome is out of reach at the seed; every cut that hides a failure has a
# probe in desk_probes.  HOLO_LAM: lam > 0; homogeneity false-fails from
# about lam = 38 (probe at 40).  PRINCIPAL_LAM: (-1, 1].  IM_MU: any; no
# failure found up to 8.  COMPLEMENTARY_LAM: (-1, 1).  MU_MIDDLE: the share
# of the complementary mu interval drawn from; T3 infinitesimal false-fails
# near its edges (probe at lam = 0, mu = 0.1).  COUPLING: |r| <= 10;
# infinitesimal false-fails from |r| = 7.5 (probe at 8).  OFF_LAM: |lam - 1|
# for the negative controls, which must fail anywhere in (0, 2) but lam = 1.
HOLO_LAM = (0.05, 16.0)
PRINCIPAL_LAM = (-0.99, 1.0)
IM_MU = (0.01, 8.0)
COMPLEMENTARY_LAM = (-0.95, 0.95)
MU_MIDDLE = (0.3, 0.7)
COUPLING = (0.01, 7.0)
OFF_LAM = (0.05, 0.95)

# seconds one cycle of each op list takes, reference runs included, on a
# 2-core x86-64 machine with BLAS on one thread; sets how many cycles fill a run
NOMINAL_CYCLE_S = {"desk": 22.0, "sweep": 32.0, "wide": 40.0}

# The reference task (reference.py) times the machine after every operation:
# (SIZE, ROUNDS) of each kind, its median seconds on the machine above when
# nothing else loads its host, and per workload the kind whose mix of
# start-up and dense work is closest to its operations' and how many times
# it runs after each operation.  One reference run varies by 10-30% on its
# own, apart from the machine's speed, so workloads with few operations run
# it more often.
REFERENCE = {"startup": (48, 2), "compute": (256, 16)}
REFERENCE_NOMINAL_S = {"startup": 0.15, "compute": 0.16}
REFERENCE_OF = {"desk": ("startup", 1), "sweep": ("compute", 2), "wide": ("compute", 2)}


@dataclass(frozen=True)
class Op:
    """One operation and what a correct outcome looks like.

    ``kind`` selects the output check (see ``checks.py``): ``verify``,
    ``weights``, ``classify``, ``sweep``, ``usage`` (bad input),
    ``report-or-error`` (either is correct) or ``route``.
    ``exit`` is the exit code a correct program gives.  ``expect`` holds the
    kind-specific facts the check needs, such as the report count.
    ``repeat_of`` names an earlier operation with the same arguments whose
    output must be byte-identical.
    """

    label: str
    kind: str
    args: tuple
    exit: int = 0
    expect: dict = field(default_factory=dict)
    repeat_of: int | None = None


def _f(x: float) -> str:
    return f"{x:.6g}"


def _u(rng: random.Random, lo: float, hi: float) -> float:
    """A uniform draw rounded to the digits that argv carries."""
    return float(_f(rng.uniform(lo, hi)))


def _c(z: complex) -> str:
    return f"{z.real:.6g}{z.imag:+.6g}j"


@dataclass(frozen=True)
class Params:
    """One seeded point of every family."""

    holo: float
    antiholo: float
    principal: tuple  # (lam, Im mu)
    complementary: tuple  # (lam, mu)
    r: complex  # seam coupling of the reducible sum (its lam is 1)
    off_lam: float  # reducible lam != 1, for the negative controls

    @classmethod
    def draw(cls, rng: random.Random) -> "Params":
        lam_c = _u(rng, *COMPLEMENTARY_LAM)
        lo, hi = max(0.0, -lam_c), min(1.0, 1.0 - lam_c)
        mu_c = float(_f(lo + (hi - lo) * rng.uniform(*MU_MIDDLE)))
        off = rng.uniform(*OFF_LAM)
        r = cmath.rect(rng.uniform(*COUPLING), rng.uniform(0.0, 2.0 * math.pi))
        return cls(
            holo=_u(rng, *HOLO_LAM),
            antiholo=_u(rng, *HOLO_LAM),
            principal=(_u(rng, *PRINCIPAL_LAM), _u(rng, *IM_MU)),
            complementary=(lam_c, mu_c),
            r=complex(float(_f(r.real)), float(_f(r.imag))),
            off_lam=float(_f(1.0 - off if rng.random() < 0.5 else 1.0 + off)),
        )

    def series_args(self, family: str) -> list[str]:
        if family == "holo":
            return ["--series", "holo", f"--lambda={_f(self.holo)}"]
        if family == "antiholo":
            return ["--series", "antiholo", f"--lambda={_f(self.antiholo)}"]
        if family == "principal":
            lam, im = self.principal
            return ["--series", "principal", f"--lambda={_f(lam)}", f"--im-mu={_f(im)}"]
        if family == "complementary":
            lam, mu = self.complementary
            return ["--series", "complementary", f"--lambda={_f(lam)}", f"--mu={_f(mu)}"]
        return ["--series", "reducible", "--lambda=1", f"--r={_c(self.r)}"]


FAMILY_OPS = (
    ("holo", "T1"),
    ("antiholo", "T1star"),
    ("principal", "T2"),
    ("principal", "T3"),
    ("complementary", "T2"),
    ("complementary", "T3"),
    ("reducible", "reducible"),
)
FAMILIES = ("holo", "antiholo", "principal", "complementary", "reducible")
REPORTS_PER_SUITE = {"unitarity": 4, "homogeneity": 4, "normalizer": 4, "infinitesimal": 8, "reducible-lambda": 1}


def _verify(label, suite, args, exit=0, reports=None) -> Op:
    return Op(label, "verify", ("verify", suite, *args), exit, {"reports": reports or REPORTS_PER_SUITE[suite]})


def _window(N: int, pad: int) -> list[str]:
    return [f"--N={N}", f"--pad={pad}"]


# -- desk ------------------------------------------------------------------


def _write_coefficients(path: str, rows) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("n,re,im\n")
        for n, a in rows:
            fh.write(f"{n},{a.real!r},{a.imag!r}\n")


def _classify_ops(rng: random.Random, workdir: str) -> list[Op]:
    """Seeded T2, T3 and corrupted coefficient files, plus one malformed file."""
    lam, im = _u(rng, *PRINCIPAL_LAM), _u(rng, *IM_MU)
    mu = complex((1.0 - lam) / 2.0, im)
    ns = range(-6, 7)
    const = cmath.rect(rng.uniform(0.5, 2.0), rng.uniform(0.0, 2.0 * math.pi))
    t2 = [(n, const) for n in ns]
    t3 = [(n, (lam + mu + n) / (n + 1.0 - mu)) for n in ns]
    bad_at = rng.randrange(len(t2))
    corrupted = [(n, a * (1.5 if i == bad_at else 1.0)) for i, (n, a) in enumerate(t2)]
    param_args = (f"--lambda={_f(lam)}", f"--mu-re={(1.0 - lam) / 2.0!r}", f"--mu-im={_f(im)}")
    ops = []
    for name, rows, branch, code in (
        ("t2", t2, "T2branch", 0),
        ("t3", t3, "T3branch", 0),
        ("corrupted", corrupted, "neither", 1),
    ):
        path = os.path.join(workdir, f"{name}.csv")
        _write_coefficients(path, rows)
        ops.append(Op(f"classify {name}", "classify", ("classify", f"--file={path}", *param_args), code, {"branch": branch}))
    malformed = os.path.join(workdir, "malformed.csv")
    with open(malformed, "w", encoding="utf-8") as fh:
        fh.write("n,re,im\n0,1.0,0.0,7\n")
    ops.append(Op("classify malformed", "usage", ("classify", f"--file={malformed}", *param_args), 2))
    return ops


def _weights(label: str, args: list, n0: int, n1: int, *extra: str) -> Op:
    argv = ("weights", *args, f"--n0={n0}", f"--n1={n1}", *extra)
    return Op(f"weights {label}", "weights", argv, 0, {"rows": n1 - n0 + 1, "json": "--format=json" in extra})


def _desk_round(p: Params, rng: random.Random, workdir: str) -> list[Op]:
    ops = [
        _weights("holo", p.series_args("holo"), 0, 12),
        _weights("antiholo", p.series_args("antiholo"), -12, 0),
        _weights("principal", p.series_args("principal"), -6, 6),
        _weights("principal T3 json", p.series_args("principal"), -6, 6, "--branch=T3", "--format=json"),
        _weights("complementary", p.series_args("complementary"), -6, 6),
        _weights("reducible", p.series_args("reducible"), -6, 6),
    ]
    for family in FAMILIES:
        ops.append(_verify(f"unitarity {family}", "unitarity", p.series_args(family)))
    for suite in ("homogeneity", "infinitesimal"):
        for family, op in FAMILY_OPS:
            ops.append(_verify(f"{suite} {family} {op}", suite, [*p.series_args(family), f"--op={op}"]))
    off = [f"--lambda={_f(p.off_lam)}", f"--r={_c(p.r)}"]
    ops += [
        _verify("reducible-lambda at 1", "reducible-lambda", ["--lambda=1", f"--r={_c(p.r)}"]),
        # negative controls: the seam forces lam = 1, so these must fail
        _verify("reducible-lambda off 1", "reducible-lambda", off, 1),
        _verify("homogeneity reducible off 1", "homogeneity", ["--series", "reducible", *off], 1),
        _verify("infinitesimal reducible off 1", "infinitesimal", ["--series", "reducible", *off], 1),
        Op("lemmas", "verify", ("verify", "lemmas", "--samples=25", f"--seed={rng.randrange(10**6)}"), 0, {"reports": 50}),
    ]
    ops += _classify_ops(rng, workdir)
    lams = ",".join(_f(x) for x in sorted(_u(rng, *PRINCIPAL_LAM) for _ in range(3)))
    grid = ("sweep", "--series=principal", f"--lambda-grid={lams}", f"--im-mu-grid={_f(p.principal[1])}")
    ops.append(Op("sweep principal 3 cells", "sweep", (*grid, "--suites=unitarity,homogeneity"), 0, {"cells": 3}))
    return ops


def _bad_input_ops(p: Params, workdir: str) -> list[Op]:
    """Inputs outside the domain: each must exit 2 with a one-line reason."""
    cases = (
        ("principal lam out of range", ("verify", "unitarity", "--series", "principal", "--lambda=1.5")),
        ("holo lam <= 0", ("verify", "unitarity", "--series", "holo", "--lambda=-1")),
        ("complementary without mu", ("verify", "unitarity", "--series", "complementary", "--lambda=0.2")),
        ("segment beyond cap", ("verify", "unitarity", *p.series_args("holo"), "--path=L:0.7")),
        ("window N = 0", ("verify", "unitarity", *p.series_args("holo"), "--N=0")),
        ("operator of another family", ("verify", "homogeneity", *p.series_args("holo"), "--op=T2")),
        ("coupling too large", ("verify", "unitarity", "--series", "reducible", "--lambda=1", "--r=20")),
        ("weights n0 > n1", ("weights", *p.series_args("holo"), "--n0=5", "--n1=2")),
        ("missing file", ("classify", f"--file={os.path.join(workdir, 'absent.csv')}", "--lambda=0.3", "--mu-re=0.35")),
    )
    return [Op(f"bad input: {label}", "usage", args, 2) for label, args in cases]


def desk(seed: int, workdir: str) -> list[Op]:
    rng = random.Random(seed)
    p = Params.draw(rng)
    ops = _desk_round(p, rng, workdir)
    ops += [_verify(f"normalizer {family}", "normalizer", p.series_args(family)) for family in FAMILIES]
    ops += _bad_input_ops(p, workdir)
    return _with_repeats(ops, ("lemmas", "homogeneity holo T1", "weights complementary", "sweep principal 3 cells"))


def desk_probes(seed: int) -> list[Op]:
    """Known defects of the program, run apart from the measured operations.

    Each op states the correct outcome; a probe that does not get it is an
    open defect.  They are reported on their own, so they neither hide nor
    count among the workload's failed operations.
    """
    p = Params.draw(random.Random(seed))
    return [
        # norm sequence overflows in complex_gamma: a traceback instead of exit 2/3 or a report
        Op("probe: holo lambda 200", "report-or-error", ("verify", "unitarity", "--series", "holo", "--lambda=200")),
        # the identity holds, but pollution from the window edge reaches the interior at pad = N/4
        _verify("probe: homogeneity along L:0.3", "homogeneity", [*p.series_args("holo"), "--path=L:0.3"], reports=1),
        # a malformed segment time escapes as ValueError: a traceback instead of exit 2
        Op("probe: malformed path time", "usage", ("verify", "unitarity", *p.series_args("holo"), "--path=L:abc"), 2),
        # the identity holds, but the finite-difference route gap grows with the
        # T3 coefficients near the edge of the complementary mu interval and
        # exceeds its absolute tolerance
        _verify(
            "probe: complementary T3 near the mu edge",
            "infinitesimal",
            ["--series", "complementary", "--lambda=0", "--mu=0.1", "--op=T3"],
        ),
        # the same: the route gap grows with |r| and exceeds the tolerance from |r| = 7.5
        _verify(
            "probe: reducible infinitesimal at |r| = 8",
            "infinitesimal",
            ["--series", "reducible", "--lambda=1", "--r=8"],
        ),
        # the identity holds for every lam > 0, but the defect grows with lam
        # and passes the tolerance from about lam = 38
        _verify("probe: homogeneity holo lambda 40", "homogeneity", ["--series", "holo", "--lambda=40"]),
    ]


def _with_repeats(ops: list[Op], labels) -> list[Op]:
    """Append a second run of the first op with each label (criterion 10)."""
    out = list(ops)
    for label in labels:
        index = next(i for i, op in enumerate(ops) if op.label == label)
        op = ops[index]
        out.append(Op(f"repeat: {op.label}", op.kind, op.args, op.exit, op.expect, repeat_of=index))
    return out


# -- sweep -----------------------------------------------------------------


def sweep(seed: int, workdir: str) -> list[Op]:
    rng = random.Random(seed)
    common = ("--suites=unitarity,homogeneity", *_window(128, 32))

    def grid(lo: float, hi: float, k: int) -> str:
        return ",".join(_f(x) for x in sorted(rng.uniform(lo, hi) for _ in range(k)))

    def op(label: str, series: str, cells: int, *grids: str) -> Op:
        return Op(f"sweep {label}", "sweep", ("sweep", f"--series={series}", *grids, *common), 0, {"cells": cells})

    # many two-cell grids rather than a few larger ones: more samples per run.
    # Principal grids are the most of them, so the median and the tail fall
    # inside their cluster of times, not in the gap to the cheaper families.
    ops = []
    for draw in ("a", "b", "c", "d"):
        ops += [
            op(f"principal 2 lambda {draw}", "principal", 2, f"--lambda-grid={grid(*PRINCIPAL_LAM, 2)}", f"--im-mu-grid={grid(*IM_MU, 1)}"),
            op(f"complementary 2 lambda {draw}", "complementary", 2, f"--lambda-grid={grid(*COMPLEMENTARY_LAM, 2)}", "--mu-grid=auto"),
        ]
    for draw in ("a", "b", "c"):
        ops.append(op(f"principal 2 Im mu {draw}", "principal", 2, f"--lambda-grid={grid(*PRINCIPAL_LAM, 1)}", f"--im-mu-grid={grid(*IM_MU, 2)}"))
    ops.append(op("holo 4 lambda", "holo", 4, f"--lambda-grid={grid(*HOLO_LAM, 4)}"))
    return _with_repeats(ops, ("sweep holo 4 lambda",))


# -- wide --------------------------------------------------------------------


def _route_ops(p: Params) -> list[Op]:
    """Cross-checks of rep_matrix against circle_rep_matrix on the interior.

    The only operations that time the circle route, which no CLI command uses.
    """
    lam_p, im = p.principal
    lam_c, mu_c = p.complementary
    points = (
        ("holo", "unilateral", p.holo, (0.0, 0.0)),
        ("principal", "bilateral", lam_p, ((1.0 - lam_p) / 2.0, im)),
        ("complementary", "bilateral", lam_c, (mu_c, 0.0)),
    )
    ops = []
    for N, path in ((128, DEFAULT_PATHS[3]), (256, DEFAULT_PATHS[1])):
        for family, index_set, lam, mu in points:
            request = {"index_set": index_set, "lam": lam, "mu": list(mu), "N": N, "pad": N // 4, "path": path}
            ops.append(Op(f"route {family} N={N} {path}", "route", tuple(sorted(request.items()))))
    return ops


def wide(seed: int, workdir: str) -> list[Op]:
    """Large windows, one command per (suite, path) so each run has many samples."""
    p = Params.draw(random.Random(seed))
    big = _window(256, 64)
    ops = []
    for path in DEFAULT_PATHS:
        for label, suite, family, window in (
            ("unitarity complementary N=256", "unitarity", "complementary", big),
            ("homogeneity principal N=256", "homogeneity", "principal", big),
            ("normalizer principal N=128", "normalizer", "principal", _window(128, 48)),
        ):
            ops.append(_verify(f"{label} {path}", suite, [*p.series_args(family), *window, f"--path={path}"], reports=1))
    for family in ("principal", "complementary", "reducible"):
        ops.append(_verify(f"infinitesimal {family} N=256", "infinitesimal", [*p.series_args(family), *big]))
    ops += _route_ops(p)
    return _with_repeats(ops, ("infinitesimal reducible N=256", "route principal N=256 M:0.1"))


BUILDERS = {"desk": desk, "sweep": sweep, "wide": wide}
