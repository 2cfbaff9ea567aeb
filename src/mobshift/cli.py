"""Command line front end: weight tables, verification suites, the affine
classifier, and parameter sweeps with machine-readable reports.

Exit codes: 0 all checks pass, 1 a verification failed, 2 bad usage or
parameters, 3 a numerical failure (singular solve, generator not skew-adjoint
under a diagonal Gram, grid too small, basis-norm gamma overflow).  Identical
arguments and seed produce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
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
    SeriesTag,
    classify_series,
    gram,
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

SERIES_CHOICES = (HOLO, ANTIHOLO, PRINCIPAL, COMPLEMENTARY, REDUCIBLE)
SUITES = ("homogeneity", "unitarity", "infinitesimal", "reducible-lambda", "normalizer", "lemmas")
OP_CHOICES = ("T1", "T1star", "T2", "T3", "reducible")


def _complex_arg(text: str) -> complex:
    try:
        return complex(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not a complex number: {text!r}") from exc


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


class _Setup:
    """Resolved series request: parameters, realization, and context echo."""

    def __init__(self, series: str, params: RepnParams | None, tag: SeriesTag, realization: Realization | None):
        self.series = series
        self.params = params
        self.tag = tag
        self.realization = realization

    def context(self) -> dict:
        ctx: dict = {"series": self.series}
        if self.params is not None:
            ctx["lam"] = self.params.lam
            ctx["mu"] = [self.params.mu.real, self.params.mu.imag]
        if self.tag.kind == REDUCIBLE:
            ctx["lam"] = self.tag.lam
            ctx["r"] = [self.tag.r.real, self.tag.r.imag]
        return ctx


def _resolve_series(args) -> _Setup:
    series = args.series
    if series is None:
        raise ParameterError("--series is required for this command")
    lam = args.lam
    if lam is None:
        raise ParameterError("--lambda is required")
    if series == REDUCIBLE:
        r = args.r if args.r is not None else 1.0 + 0j
        tag = SeriesTag.reducible(lam, r)
        return _Setup(series, None, tag, Realization.reducible(lam))
    if series in (HOLO, ANTIHOLO):
        params = RepnParams(UNILATERAL, lam)
        classify_series(params)
        tag = SeriesTag(series)
        rel = Realization.sharp(params) if series == ANTIHOLO else Realization.plain(params)
        return _Setup(series, params, tag, rel)
    if series == PRINCIPAL:
        im_mu = args.im_mu if args.im_mu is not None else 0.5
        # Re mu is forced to (1 - lam)/2 so invalid principal input cannot be expressed
        params = RepnParams(BILATERAL, lam, complex((1.0 - lam) / 2.0, im_mu))
        classify_series(params)
        return _Setup(series, params, SeriesTag(PRINCIPAL), Realization.plain(params))
    if series == COMPLEMENTARY:
        if args.mu is None:
            raise ParameterError("--mu is required for the complementary family")
        params = RepnParams(BILATERAL, lam, complex(args.mu))
        got = classify_series(params)
        # the midpoint mu = (1 - lam)/2 classifies as principal; same matrices
        if got.kind not in (COMPLEMENTARY, PRINCIPAL):
            raise ParameterError(f"parameters classify as {got.kind}, not complementary")
        return _Setup(series, params, SeriesTag(COMPLEMENTARY), Realization.plain(params))
    raise ParameterError(f"unknown series {series!r}")


def _window(args) -> TruncationWindow:
    kind = UNILATERAL if args.series in (HOLO, ANTIHOLO) else BILATERAL
    return TruncationWindow(kind, args.N, args.pad)


def _paths(args) -> list[GroupPath]:
    texts = args.path if args.path else list(DEFAULT_PATHS)
    return [GroupPath.parse(t) for t in texts]


def _operator(setup: _Setup, op: str, w: TruncationWindow) -> OperatorMatrix:
    if op == "reducible":
        if setup.tag.kind != REDUCIBLE:
            raise ParameterError("the reducible shift needs --series reducible")
        return reducible_shift(setup.tag, w)
    if setup.tag.kind == REDUCIBLE:
        raise ParameterError("--series reducible only supports --op reducible")
    if op == "T1star" and setup.series != ANTIHOLO:
        raise ParameterError("T1star is certified against the anti-holomorphic (sharp) family")
    if op == "T1" and setup.series != HOLO:
        raise ParameterError("T1 belongs to the holomorphic family")
    if op in ("T2", "T3") and setup.series not in (PRINCIPAL, COMPLEMENTARY):
        raise ParameterError(f"{op} belongs to the bilateral families")
    return canonical_shift(op, setup.params, w)


def _default_op(series: str) -> str:
    return {HOLO: "T1", ANTIHOLO: "T1star", PRINCIPAL: "T2", COMPLEMENTARY: "T2", REDUCIBLE: "reducible"}[series]


# ----------------------------------------------------------------------
# weights


def cmd_weights(args) -> int:
    if args.pad is None:
        args.pad = DEFAULT_PADDING
    setup = _resolve_series(args)
    if args.n0 > args.n1:
        raise ParameterError("--n0 must not exceed --n1")
    rows = []
    for n in range(args.n0, args.n1 + 1):
        wgt = weight_sequence(setup.tag, setup.params, n, branch=args.branch)
        rows.append((n, wgt))
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


def _suite_unitarity(args) -> list[DefectReport]:
    setup = _resolve_series(args)
    w = _window(args)
    tol = args.tolerance if args.tolerance is not None else DEFAULT_UNITARITY_TOL
    if setup.tag.kind == REDUCIBLE:
        g = OperatorMatrix.identity(w)
    else:
        g = gram(setup.params, w)
    reports = []
    for path in _paths(args):
        value = unitarity_residual(setup.realization.along_path(path, w), g, w)
        ctx = setup.context()
        ctx.update({"suite": "unitarity", "path": path.describe(), "N": args.N, "padding": args.pad})
        reports.append(DefectReport.build("unitarity", value, tol, ctx))
    return reports


def _suite_homogeneity(args) -> list[DefectReport]:
    setup = _resolve_series(args)
    w = _window(args)
    op = args.op or _default_op(args.series)
    T = _operator(setup, op, w)
    tol = args.tolerance if args.tolerance is not None else DEFAULT_HOMOGENEITY_TOL
    reports = []
    for path in _paths(args):
        R = setup.realization.along_path(path, w)
        phi = path_to_mobius(path)
        ctx = setup.context()
        ctx.update({"suite": "homogeneity", "op": op, "path": path.describe(), "N": args.N, "padding": args.pad})
        reports.append(homogeneity_defect(T, R, phi, w, tolerance=tol, context=ctx))
    return reports


def _suite_infinitesimal(args) -> list[DefectReport]:
    setup = _resolve_series(args)
    w = _window(args)
    op = args.op or _default_op(args.series)
    T = _operator(setup, op, w)
    ctx = setup.context()
    ctx.update({"suite": "infinitesimal", "op": op, "N": args.N, "padding": args.pad})
    kwargs = {}
    if args.tolerance is not None:
        kwargs["identity_tol"] = args.tolerance
    return infinitesimal_reports(T, setup.realization, w, step=args.step, context=ctx, **kwargs)


def _suite_reducible_lambda(args) -> list[DefectReport]:
    if args.lam is None:
        raise ParameterError("--lambda is required")
    r = args.r if args.r is not None else 1.0 + 0j
    w = TruncationWindow(BILATERAL, args.N, args.pad)
    tol = args.tolerance if args.tolerance is not None else DEFAULT_REDUCIBLE_TOL
    ctx = {"suite": "reducible-lambda", "N": args.N, "padding": args.pad}
    return [reducible_lambda_check(args.lam, r, w, tolerance=tol, context=ctx)]


def _suite_normalizer(args) -> list[DefectReport]:
    setup = _resolve_series(args)
    w = _window(args)
    op = args.op or _default_op(args.series)
    T = _operator(setup, op, w)
    g = gram(setup.params, w) if setup.params is not None and w.kind == UNILATERAL else None
    tol = args.tolerance if args.tolerance is not None else 1e-6
    reports = []
    for path in _paths(args):
        R = setup.realization.along_path(path, w)
        ctx = setup.context()
        ctx.update({"suite": "normalizer", "op": op, "path": path.describe(), "N": args.N, "padding": args.pad})
        reports.append(normalizer_defect(T, R, w, tolerance=tol, gram=g, context=ctx))
    return reports


_SUITE_RUNNERS = {
    "lemmas": _suite_lemmas,
    "unitarity": _suite_unitarity,
    "homogeneity": _suite_homogeneity,
    "infinitesimal": _suite_infinitesimal,
    "reducible-lambda": _suite_reducible_lambda,
    "normalizer": _suite_normalizer,
}


def cmd_verify(args) -> int:
    if args.pad is None:
        # the normalizer conjugates by R, which needs a deeper quarantine
        args.pad = DEEP_PADDING if args.suite == "normalizer" else DEFAULT_PADDING
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


def _grid_values(text: str) -> list[float]:
    text = text.strip()
    if not text:
        return []
    return [float(tok) for tok in text.split(",") if tok.strip()]


def _complementary_midpoint(lam: float) -> float:
    lo = max(0.0, -lam)
    hi = min(1.0, 1.0 - lam)
    if not lo < hi:
        raise ParameterError(f"empty complementary interval at lam={lam}")
    return 0.5 * (lo + hi)


def _sweep_cell(args, lam: float, mu: complex) -> tuple[float, str]:
    """Max defect over the requested suites at one parameter point."""
    if args.series == PRINCIPAL:
        params = RepnParams(BILATERAL, lam, mu)
    elif args.series == COMPLEMENTARY:
        params = RepnParams(BILATERAL, lam, mu)
    else:
        params = RepnParams(UNILATERAL, lam)
    got = classify_series(params)
    if args.series == PRINCIPAL and got.kind != PRINCIPAL:
        raise ParameterError(f"classified as {got.kind}")
    rel = Realization.plain(params)
    w = TruncationWindow(params.index_set, args.N, args.pad)
    g = gram(params, w)
    paths = _paths(args)
    suites = [suite.strip() for suite in args.suites.split(",")]
    for suite in suites:
        if suite not in ("unitarity", "homogeneity"):
            raise ParameterError(f"sweep supports suites unitarity,homogeneity; got {suite!r}")
    T = canonical_shift(args.op or _default_op(args.series), params, w) if "homogeneity" in suites else None
    worst = 0.0
    ok = True
    # one R per path, shared by the suites
    for path in paths:
        R = rel.along_path(path, w)
        for suite in suites:
            if suite == "unitarity":
                value = unitarity_residual(R, g, w)
                worst = max(worst, value)
                ok = ok and value <= DEFAULT_UNITARITY_TOL
            else:
                report = homogeneity_defect(T, R, path_to_mobius(path), w, tolerance=DEFAULT_HOMOGENEITY_TOL)
                worst = max(worst, report.value)
                ok = ok and report.passed
    return worst, ("pass" if ok else "fail")


def cmd_sweep(args) -> int:
    if args.pad is None:
        args.pad = DEFAULT_PADDING
    if args.series not in (HOLO, PRINCIPAL, COMPLEMENTARY):
        raise ParameterError("sweep supports --series holo, principal or complementary")
    lams = _grid_values(args.lambda_grid)
    print("series,lambda,mu_re,mu_im,N,padding,suites,max_defect,status")
    any_bad = False
    for lam in lams:
        if args.series == PRINCIPAL:
            mus = [complex((1.0 - lam) / 2.0, im) for im in _grid_values(args.im_mu_grid)]
        elif args.series == COMPLEMENTARY:
            if args.mu_grid.strip() == "auto":
                mus = [complex(_complementary_midpoint(lam))]
            else:
                mus = [complex(v) for v in _grid_values(args.mu_grid)]
        else:
            mus = [0j]
        for mu in mus:
            try:
                worst, status = _sweep_cell(args, lam, mu)
                worst_text = _fmt(worst)
            except (ParameterError, NumericsError) as exc:
                status = f"error: {exc}"
                worst_text = "nan"
            if status != "pass":
                any_bad = True
            suites_label = "+".join(s.strip() for s in args.suites.split(","))
            print(
                f"{args.series},{_fmt(lam)},{_fmt(mu.real)},{_fmt(mu.imag)},"
                f"{args.N},{args.pad},{suites_label},{worst_text},{status}"
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

    def add_common(sp, with_series=True):
        if with_series:
            sp.add_argument("--series", choices=SERIES_CHOICES, help="representation family")
            sp.add_argument("--lambda", dest="lam", type=float, help="family parameter lambda")
            sp.add_argument("--im-mu", dest="im_mu", type=float, help="Im mu (principal; Re mu is forced)")
            sp.add_argument("--mu", type=float, help="real mu (complementary)")
            sp.add_argument("--r", type=_complex_arg, help="seam coupling (reducible)")
        sp.add_argument("--N", type=int, default=DEFAULT_N, help="window size (default 64)")
        sp.add_argument("--pad", type=int, default=None, help="interior padding (default 16; 24 for normalizer)")

    wp = sub.add_parser("weights", help="emit a weight-sequence table")
    add_common(wp)
    wp.add_argument("--branch", choices=("T2", "T3"), default="T2", help="principal branch choice")
    wp.add_argument("--n0", type=int, required=True)
    wp.add_argument("--n1", type=int, required=True)
    wp.add_argument("--format", choices=("csv", "json"), default="csv")
    wp.set_defaults(func=cmd_weights)

    vp = sub.add_parser("verify", help="run a verification suite, one JSON report per line")
    vp.add_argument("suite", choices=SUITES)
    add_common(vp)
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
    gp.add_argument("--suites", default="unitarity", help="comma-separated: unitarity,homogeneity")
    gp.add_argument("--op", choices=OP_CHOICES, help="operator for the homogeneity suite")
    gp.add_argument("--path", action="append", help="flow path; repeatable")
    gp.add_argument("--N", type=int, default=DEFAULT_N)
    gp.add_argument("--pad", type=int, default=None)
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


if __name__ == "__main__":
    raise SystemExit(main())
