"""Command line front end: weight tables, verification suites, the affine
classifier, and parameter sweeps with machine-readable reports.

Every command resolves its family arguments (series, lambda, mu or Im mu, r)
to one ``Realization``, and --op to an operator checked against the series.
The unitarity, homogeneity and normalizer suites share one loop that builds
R once per path, in the orthonormal basis of the family's Gram where every
suite certifies, so no verdict depends on the Gram's scale; each ``sweep``
cell runs that loop over the requested suites.

Exit codes: 0 all checks pass, 1 a verification failed, 2 bad usage or
parameters, 3 a numerical failure (a generator that is not skew-Hermitian in
the orthonormal basis because the basis norms do not match its action, grid
too small, or too little memory for the window).  Identical arguments and
seed produce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from .errors import NumericsError, ParameterError
from .homogeneity import (
    DEFAULT_HOMOGENEITY_TOL,
    DEFAULT_REDUCIBLE_TOL,
    DefectReport,
    homogeneity_defect,
    infinitesimal_reports,
    reducible_lambda_check,
)
from .inductive import classify_a_minus1, ladder_cancellation, normalizer_defect
from .mobius import GroupPath, path_to_mobius
from .numkernel import BILATERAL, OperatorMatrix, TruncationWindow, UNILATERAL
from .repn import (
    ANTIHOLO,
    COMPLEMENTARY,
    HOLO,
    PRINCIPAL,
    REDUCIBLE,
    Realization,
    RepnParams,
    classify_series,
    complementary_mu_interval,
    gram,
    to_orthonormal,
    unitarity_residual,
)
from .shifts import canonical_shift, reducible_shift, weight_sequence

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_NUMERICAL = 3

DEFAULT_N = 64
DEFAULT_PADDING = 16
DEEP_PADDING = 24
DEFAULT_PATHS = ("L:0.1", "M:0.1", "h:0.3", "L:0.1,M:-0.05,h:0.2")
DEFAULT_UNITARITY_TOL = 1e-7
DEFAULT_NORMALIZER_TOL = 1e-6

SERIES_CHOICES = (HOLO, ANTIHOLO, PRINCIPAL, COMPLEMENTARY, REDUCIBLE)
SUITES = ("homogeneity", "unitarity", "infinitesimal", "reducible-lambda", "normalizer", "lemmas")
SWEEP_SUITES = ("unitarity", "homogeneity")
OP_CHOICES = ("T1", "T1star", "T2", "T3", "reducible")


def _complex_arg(text: str) -> complex:
    try:
        return complex(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not a complex number: {text!r}") from exc


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def _realization(series: str | None, lam: float | None, im_mu=None, mu=None, r=None) -> Realization:
    """The family that (series, lambda, mu or Im mu, r) name, checked once; weights,
    every verify suite and each sweep cell resolve their family here."""
    if series is None:
        raise ParameterError("--series is required for this command")
    if lam is None:
        raise ParameterError("--lambda is required")
    if series == REDUCIBLE:
        return Realization.reducible(lam, 1.0 if r is None else r)
    if series in (HOLO, ANTIHOLO):
        params = RepnParams(UNILATERAL, lam)
    elif series == PRINCIPAL:
        # Re mu is forced to (1 - lam)/2 so invalid principal input cannot be expressed
        params = RepnParams(BILATERAL, lam, complex((1.0 - lam) / 2.0, 0.5 if im_mu is None else im_mu))
    elif series == COMPLEMENTARY:
        if mu is None:
            raise ParameterError("--mu is required for the complementary family")
        # lam first: an auto-grid cell whose mu interval is empty carries mu = NaN
        complementary_mu_interval(lam)
        # the midpoint mu = (1 - lam)/2 classifies as principal; same matrices
        params = RepnParams(BILATERAL, lam, complex(mu))
    else:
        raise ParameterError(f"unknown series {series!r}")
    classify_series(params)
    return Realization.sharp(params) if series == ANTIHOLO else Realization.plain(params)


def _context(series: str, rel: Realization) -> dict:
    """The family part of a report context: series, lam and mu, or lam and r."""
    p = rel.params
    if rel.r is not None:
        return {"series": series, "lam": p.lam, "r": [rel.r.real, rel.r.imag]}
    return {"series": series, "lam": p.lam, "mu": [p.mu.real, p.mu.imag]}


def _paths(args) -> list[GroupPath]:
    texts = args.path if args.path else list(DEFAULT_PATHS)
    return [GroupPath.parse(t) for t in texts]


_DEFAULT_OP = {HOLO: "T1", ANTIHOLO: "T1star", PRINCIPAL: "T2", COMPLEMENTARY: "T2", REDUCIBLE: "reducible"}


def _operator_name(series: str, op: str | None) -> str:
    """The operator --op names (the family's own by default), checked against the series."""
    if op is None:
        return _DEFAULT_OP[series]
    if op == "reducible" and series != REDUCIBLE:
        raise ParameterError("the reducible shift needs --series reducible")
    if series == REDUCIBLE and op != "reducible":
        raise ParameterError("--series reducible only supports --op reducible")
    if op == "T1star" and series != ANTIHOLO:
        raise ParameterError("T1star is certified against the anti-holomorphic (sharp) family")
    if op == "T1" and series != HOLO:
        raise ParameterError("T1 belongs to the holomorphic family")
    if op in ("T2", "T3") and series not in (PRINCIPAL, COMPLEMENTARY):
        raise ParameterError(f"{op} belongs to the bilateral families")
    return op


def _operator(op: str, rel: Realization, w: TruncationWindow) -> OperatorMatrix:
    """The operator op names, in the orthonormal basis of the family's Gram."""
    T = reducible_shift(rel, w) if op == "reducible" else canonical_shift(op, rel.params, w)
    return to_orthonormal(T, gram(rel.params, w))


_PATH_SUITE_TOL = {
    "unitarity": DEFAULT_UNITARITY_TOL,
    "homogeneity": DEFAULT_HOMOGENEITY_TOL,
    "normalizer": DEFAULT_NORMALIZER_TOL,
}


def _path_reports(suites, rel: Realization, w: TruncationWindow, paths, op=None, tolerance=None, context=None):
    """Yield the report of each suite along each path, building R once per path.

    Every suite reads R, and the operator ``op`` names when given, in the
    orthonormal basis of the family's Gram, where R is built.
    """
    T = None if op is None else _operator(op, rel, w)
    for path in paths:
        R = rel.along_path(path, w)
        for suite in suites:
            tol = _PATH_SUITE_TOL[suite] if tolerance is None else tolerance
            ctx = dict(context or {}, suite=suite, path=path.describe())
            if suite == "unitarity":
                yield DefectReport.build("unitarity", unitarity_residual(R, w), tol, ctx)
            elif suite == "homogeneity":
                yield homogeneity_defect(T, R, path_to_mobius(path), w, tolerance=tol, context=ctx)
            else:
                yield normalizer_defect(T, R, w, tolerance=tol, context=ctx)


# ----------------------------------------------------------------------
# weights


def cmd_weights(args) -> int:
    rel = _realization(args.series, args.lam, args.im_mu, args.mu, args.r)
    if args.n0 > args.n1:
        raise ParameterError("--n0 must not exceed --n1")
    rows = [(n, weight_sequence(args.series, rel, n, branch=args.branch)) for n in range(args.n0, args.n1 + 1)]
    if args.format == "json":
        for n, wgt in rows:
            print(json.dumps({"n": n, "re": wgt.real, "im": wgt.imag, "abs": abs(wgt)}, sort_keys=True))
    else:
        print("n,re,im,abs")
        for n, wgt in rows:
            print(f"{n},{_fmt(wgt.real)},{_fmt(wgt.imag)},{_fmt(abs(wgt))}")
    return EXIT_OK


# ----------------------------------------------------------------------
# verify


def _suite_lemmas(args) -> list[DefectReport]:
    if args.samples < 1:
        raise ParameterError("--samples must be at least 1")
    tol = args.tolerance if args.tolerance is not None else 1e-10
    rng = np.random.default_rng(args.seed)
    reports = []
    for i in range(args.samples):
        lam = float(rng.uniform(-2.0, 3.0))
        mu = complex(rng.uniform(-1.5, 1.5), rng.uniform(-2.0, 2.0))
        m = int(rng.integers(1, 9)) * (1 if rng.uniform() < 0.5 else -1)
        n = int(rng.integers(-20, 21))
        for side in ("f", "e"):
            value = abs(ladder_cancellation(lam, mu, m, n, side) - 2.0 * m * m)
            ctx = {
                "suite": "lemmas",
                "side": side,
                "lam": lam,
                "mu": [mu.real, mu.imag],
                "m": m,
                "n": n,
                "sample": i,
                "seed": args.seed,
            }
            reports.append(DefectReport.build(f"ladder_{side}", value, tol, ctx))
    return reports


def _verify_setup(args):
    """Realization, window, operator name (None for unitarity) and context of a verify suite."""
    rel = _realization(args.series, args.lam, args.im_mu, args.mu, args.r)
    w = TruncationWindow(rel.params.index_set, args.N, args.pad)
    ctx = _context(args.series, rel)
    ctx.update(suite=args.suite, N=args.N, padding=args.pad)
    if args.suite == "unitarity":
        return rel, w, None, ctx
    ctx["op"] = _operator_name(args.series, args.op)
    return rel, w, ctx["op"], ctx


def _suite_along_paths(args) -> list[DefectReport]:
    rel, w, op, ctx = _verify_setup(args)
    return list(_path_reports([args.suite], rel, w, _paths(args), op, args.tolerance, ctx))


def _suite_infinitesimal(args) -> list[DefectReport]:
    rel, w, op, ctx = _verify_setup(args)
    kwargs = {} if args.tolerance is None else {"identity_tol": args.tolerance}
    return infinitesimal_reports(_operator(op, rel, w), rel, w, step=args.step, context=ctx, **kwargs)


def _suite_reducible_lambda(args) -> list[DefectReport]:
    rel = _realization(REDUCIBLE, args.lam, r=args.r)
    w = TruncationWindow(rel.params.index_set, args.N, args.pad)
    tol = args.tolerance if args.tolerance is not None else DEFAULT_REDUCIBLE_TOL
    ctx = {"suite": "reducible-lambda", "N": args.N, "padding": args.pad}
    return [reducible_lambda_check(rel, w, tolerance=tol, context=ctx)]


_SUITE_RUNNERS = {
    "lemmas": _suite_lemmas,
    "unitarity": _suite_along_paths,
    "homogeneity": _suite_along_paths,
    "infinitesimal": _suite_infinitesimal,
    "reducible-lambda": _suite_reducible_lambda,
    "normalizer": _suite_along_paths,
}


def _default_pad(N: int, normalizer: bool = False) -> int:
    """Padding when --pad is omitted: N/4, or 3N/8 for the normalizer, which
    conjugates by R and needs a deeper quarantine; never below 16 and 24,
    which small windows need (pad 8 at N = 32 fails homogeneity)."""
    return max(DEEP_PADDING, 3 * N // 8) if normalizer else max(DEFAULT_PADDING, N // 4)


def cmd_verify(args) -> int:
    if args.pad is None:
        args.pad = _default_pad(args.N, args.suite == "normalizer")
    reports = _SUITE_RUNNERS[args.suite](args)
    for report in reports:
        print(report.to_json())
    return EXIT_OK if all(r.passed for r in reports) else EXIT_FAIL


# ----------------------------------------------------------------------
# classify


def cmd_classify(args) -> int:
    coeffs: dict[int, complex] = {}
    try:
        with open(args.file, "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line or line.startswith("#") or line.lower().startswith("n,"):
                    continue
                parts = [p.strip() for p in line.split(",")]
                if len(parts) not in (2, 3):
                    raise ParameterError(f"malformed coefficient row: {line!r}")
                n = int(parts[0])
                re = float(parts[1])
                im = float(parts[2]) if len(parts) == 3 else 0.0
                coeffs[n] = complex(re, im)
    except OSError as exc:
        raise ParameterError(f"cannot read {args.file}: {exc}") from exc
    except ValueError as exc:
        raise ParameterError(f"malformed coefficient file: {exc}") from exc
    mu = complex(args.mu_re, args.mu_im)
    params = RepnParams(BILATERAL, args.lam, mu)
    fit = classify_a_minus1(coeffs, params)
    print(
        json.dumps(
            {
                "a": [fit.a.real, fit.a.imag],
                "b": [fit.b.real, fit.b.imag],
                "residual": fit.residual,
                "branch": fit.branch,
                "tie": fit.tie,
            },
            sort_keys=True,
        )
    )
    return EXIT_OK if fit.branch != "neither" else EXIT_FAIL


# ----------------------------------------------------------------------
# sweep


def _grid_values(flag: str, text: str) -> list[float]:
    try:
        return [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise ParameterError(f"{flag} takes comma-separated numbers, got {text!r}") from None


def _complementary_midpoint(lam: float) -> float:
    """Midpoint of the complementary mu interval.

    The interval is empty outside lam in (-1, 1); the midpoint is then NaN,
    and the cell's family check refuses that lam.
    """
    try:
        lo, hi = complementary_mu_interval(lam)
    except ParameterError:
        return math.nan
    return 0.5 * (lo + hi)


def _sweep_cell(args, op, suites, paths, lam: float, mu: complex) -> tuple[float, bool]:
    """Max defect and all-pass over the requested suites at one parameter point."""
    rel = _realization(args.series, lam, im_mu=mu.imag, mu=mu.real)
    w = TruncationWindow(rel.params.index_set, args.N, args.pad)
    reports = list(_path_reports(suites, rel, w, paths, op if "homogeneity" in suites else None))
    return max(r.value for r in reports), all(r.passed for r in reports)


def cmd_sweep(args) -> int:
    if args.pad is None:
        args.pad = _default_pad(args.N)
    suites = [suite.strip() for suite in args.suites.split(",")]
    for suite in suites:
        if suite not in SWEEP_SUITES:
            raise ParameterError(f"sweep supports suites {','.join(SWEEP_SUITES)}; got {suite!r}")
    op = _operator_name(args.series, args.op)
    paths = _paths(args)
    lams = _grid_values("--lambda-grid", args.lambda_grid)
    im_mus = _grid_values("--im-mu-grid", args.im_mu_grid) if args.series == PRINCIPAL else []
    auto = args.mu_grid.strip() == "auto"
    mu_values = _grid_values("--mu-grid", args.mu_grid) if args.series == COMPLEMENTARY and not auto else []
    print("series,lambda,mu_re,mu_im,N,padding,suites,max_defect,status")
    any_bad = False
    for lam in lams:
        if args.series == PRINCIPAL:
            mus = [complex((1.0 - lam) / 2.0, im) for im in im_mus]
        elif args.series == COMPLEMENTARY:
            mus = [complex(_complementary_midpoint(lam))] if auto else [complex(v) for v in mu_values]
        else:
            mus = [0j]
        for mu in mus:
            try:
                worst, ok = _sweep_cell(args, op, suites, paths, lam, mu)
                worst_text, status = _fmt(worst), ("pass" if ok else "fail")
            except (ParameterError, NumericsError) as exc:
                worst_text, status = "nan", f"error: {exc}"
            any_bad = any_bad or status != "pass"
            print(
                f"{args.series},{_fmt(lam)},{_fmt(mu.real)},{_fmt(mu.imag)},"
                f"{args.N},{args.pad},{'+'.join(suites)},{worst_text},{status}"
            )
    return EXIT_FAIL if any_bad else EXIT_OK


# ----------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mobshift",
        description="Construct truncated cover representations and certify shift-operator identities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_series(sp):
        sp.add_argument("--series", choices=SERIES_CHOICES, help="representation family")
        sp.add_argument("--lambda", dest="lam", type=float, help="family parameter lambda")
        sp.add_argument("--im-mu", dest="im_mu", type=float, help="Im mu (principal; Re mu is forced)")
        sp.add_argument("--mu", type=float, help="real mu (complementary)")
        sp.add_argument("--r", type=_complex_arg, help="seam coupling (reducible)")

    wp = sub.add_parser("weights", help="emit a weight-sequence table")
    add_series(wp)
    wp.add_argument("--branch", choices=("T2", "T3"), default="T2", help="principal branch choice")
    wp.add_argument("--n0", type=int, required=True)
    wp.add_argument("--n1", type=int, required=True)
    wp.add_argument("--format", choices=("csv", "json"), default="csv")
    wp.set_defaults(func=cmd_weights)

    vp = sub.add_parser("verify", help="run a verification suite, one JSON report per line")
    vp.add_argument("suite", choices=SUITES)
    add_series(vp)
    vp.add_argument("--N", type=int, default=DEFAULT_N, help="window size (default 64)")
    vp.add_argument("--pad", type=int, default=None, help="interior padding (default max(16, N/4); max(24, 3N/8) for normalizer)")
    vp.add_argument("--op", choices=OP_CHOICES, help="operator under test")
    vp.add_argument("--path", action="append", help="flow path gen:time[,gen:time...]; repeatable")
    vp.add_argument("--tolerance", type=float, help="override the suite tolerance")
    vp.add_argument("--step", type=float, default=1e-4, help="finite-difference step")
    vp.add_argument("--samples", type=int, default=100, help="random samples (lemmas)")
    vp.add_argument("--seed", type=int, default=0, help="random seed (lemmas)")
    vp.set_defaults(func=cmd_verify)

    cp = sub.add_parser("classify", help="classify a step-(-1) coefficient file")
    cp.add_argument("--file", required=True, help="CSV of n,re[,im] coefficient rows")
    cp.add_argument("--lambda", dest="lam", type=float, required=True)
    cp.add_argument("--mu-re", dest="mu_re", type=float, required=True)
    cp.add_argument("--mu-im", dest="mu_im", type=float, default=0.0)
    cp.set_defaults(func=cmd_classify)

    gp = sub.add_parser("sweep", help="run suites over a parameter grid, CSV per cell")
    gp.add_argument("--series", choices=(HOLO, PRINCIPAL, COMPLEMENTARY), required=True)
    gp.add_argument("--lambda-grid", dest="lambda_grid", default="", help="comma-separated lambda values")
    gp.add_argument("--im-mu-grid", dest="im_mu_grid", default="0.5", help="comma-separated Im mu (principal)")
    gp.add_argument("--mu-grid", dest="mu_grid", default="auto", help="'auto' midpoints or comma-separated mu")
    gp.add_argument("--suites", default="unitarity", help="comma-separated: " + ",".join(SWEEP_SUITES))
    gp.add_argument("--op", choices=OP_CHOICES, help="operator for the homogeneity suite")
    gp.add_argument("--path", action="append", help="flow path; repeatable")
    gp.add_argument("--N", type=int, default=DEFAULT_N)
    gp.add_argument("--pad", type=int, default=None, help="interior padding (default max(16, N/4))")
    gp.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NumericsError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except MemoryError as exc:
        print(f"numerical failure: out of memory ({exc})", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    raise SystemExit(main())
