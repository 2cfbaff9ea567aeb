"""Command line front end: weight tables, verification suites, the affine
classifier, and parameter sweeps with machine-readable reports.

Every command resolves its family arguments (series, lambda, mu or Im mu, r)
to one ``Realization``, and --op to an operator checked against the series.
argparse refuses an option that a command or verify suite (each has its own
parser) does not take, and ``_OWN_OPTION`` one of another family.
The unitarity, homogeneity and normalizer suites share one loop that builds
R once per path unless the normalizer runs alone, in the family's
orthonormal basis where every suite certifies (``Realization.orthonormal``
brings the shift there too); each ``sweep`` cell runs that loop over its suites.

Exit codes: 0 all checks pass, 1 a verification failed, 2 bad usage or
parameters, 3 a numerical failure (a generator that is not skew-Hermitian in
the orthonormal basis because the basis norms do not match its action, or
whose spectrum overflows at the flow time, a ``classify`` fit that overflows,
or too little memory for the window).
Identical arguments and seed produce byte-identical output.  ``--N`` is
bounded (``MAX_N``), and so are ``verify lemmas --samples`` and the rows of
``weights`` (--n0 to --n1, each within +-2**53, where a float n is exact;
``MAX_SAMPLES``, ``MAX_WEIGHT_ROWS``): ``verify lemmas`` prints each report
as it is made, but ``weights`` holds all its rows before it prints one, so
that a row it refuses leaves no output.

Importing this module does not import numpy: the package binds it lazily
(``numkernel.np``), so it loads at the first array a command forms, and a
command that forms none never pays for it: a refusal, ``verify lemmas``,
``verify reducible-lambda`` (it reads the seam row from scalar coefficients),
``weights`` (it reads the scalar ``specialfn.norm_ratio`` and shift
coefficients, Python floats) and ``classify`` (a least-squares line in exact
rationals), whatever its file holds.  The certificate modules ``homogeneity`` and
``inductive`` are bound the same way (``numkernel.bind_lazily``): import
registers both, and each runs, and is compiled, at a command's first read of
one of its names: ``homogeneity`` for its suites (and a ``sweep`` of them),
``inductive`` for the normalizer, ``verify lemmas`` and ``classify``, and neither
for ``weights``, unitarity or a refusal.
``json`` is imported where JSON is printed.

``main()`` without argv is the process entry (``python -m mobshift.cli`` and the
``mobshift`` script): it freezes the import-time heap and turns the cyclic
collector off before the command, and no collection runs while the command
does: the cycles that one command leaves are a few hundred objects, from
argparse's parser and numpy's import, whatever the command's size, so
collecting them would cost more than it frees.  When the command returns (or
argparse refuses its arguments) it runs the exit handlers, flushes stdout and
stderr and ends the process by ``os._exit``, so that the interpreter tears
nothing down, numpy's modules included.  It also restores the default SIGPIPE
action, so a reader that closes stdout early ends the process without a
traceback.  ``main(argv)`` changes none of these.
"""

from __future__ import annotations

import argparse
import atexit
import gc
import os
import random
import sys

from .errors import DefectReport, NumericsError, ParameterError
from .mobius import GroupPath, path_to_mobius
from .numkernel import BILATERAL, OperatorMatrix, TruncationWindow, UNILATERAL, bind_lazily
from .repn import (
    ANTIHOLO,
    COMPLEMENTARY,
    DEFAULT_COUPLING,
    HOLO,
    PRINCIPAL,
    REDUCIBLE,
    Realization,
    RepnParams,
    classify_series,
    complementary_mu_interval,
    unitarity_residual,
)
from .shifts import BRANCH_T2, BRANCH_T3, canonical_shift, reducible_shift, weight_sequence
from .specialfn import principal_re_mu

#: the certificate modules, each executed at a command's first read of one of its names
homogeneity = bind_lazily(f"{__package__}.homogeneity")
inductive = bind_lazily(f"{__package__}.inductive")

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_NUMERICAL = 3

DEFAULT_N = 64
DEFAULT_PADDING = 16
DEEP_PADDING = 24
DEFAULT_PATHS = ("L:0.1", "M:0.1", "h:0.3", "L:0.1,M:-0.05,h:0.2")
DEFAULT_UNITARITY_TOL = 1e-7
DEFAULT_IM_MU = 0.5
#: the most lemma samples (about 1.3 KB and 45 us each) and weight rows (0.13 KB each, and
#: 3.9 us in csv or 6.5 us in json on a 2-core x86-64 host) that one command takes: weights
#: holds its rows, 146 MB max RSS at its limit, and lemmas prints each sample as it goes
MAX_SAMPLES = 100_000
MAX_WEIGHT_ROWS = 1_000_000
#: the largest window size --N: by the N^2 scaling of N = 2048's 676 MB, about 2.7 GB
MAX_N = 4096

SERIES_CHOICES = (HOLO, ANTIHOLO, PRINCIPAL, COMPLEMENTARY, REDUCIBLE)
SUITES = ("homogeneity", "unitarity", "infinitesimal", "reducible-lambda", "normalizer", "lemmas")
SWEEP_SUITES = ("unitarity", "homogeneity")
#: each family's shifts under --op, its own (the default) first
_OPERATORS = {HOLO: ("T1",), ANTIHOLO: ("T1star",), PRINCIPAL: ("T2", "T3"), COMPLEMENTARY: ("T2", "T3"), REDUCIBLE: ("reducible",)}
OP_CHOICES = tuple(dict.fromkeys(op for ops in _OPERATORS.values() for op in ops))
#: each family's index set: the window of its Hilbert basis
_INDEX_SET = {HOLO: UNILATERAL, ANTIHOLO: UNILATERAL, PRINCIPAL: BILATERAL, COMPLEMENTARY: BILATERAL, REDUCIBLE: BILATERAL}


def _complex_arg(text: str) -> complex:
    try:
        return complex(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not a complex number: {text!r}") from exc


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def _realization(series: str | None, lam: float | None, im_mu=None, mu=None, r=None) -> Realization:
    """The family that (series, lambda, mu or Im mu, r) name, checked once; weights,
    every verify suite and each sweep cell resolve their family here.  Im mu and r
    left out (None) take their defaults."""
    if series not in _INDEX_SET:  # None: --series left out; argparse's choices refuse any other
        raise ParameterError("--series is required for this command")
    if lam is None:
        raise ParameterError("--lambda is required")
    if series == REDUCIBLE:
        return Realization.reducible(lam, DEFAULT_COUPLING if r is None else r)
    if series == PRINCIPAL:
        mu = complex(principal_re_mu(lam), DEFAULT_IM_MU if im_mu is None else im_mu)
    elif series == COMPLEMENTARY:
        if mu is None:
            raise ParameterError("--mu is required for the complementary family")
        # lam first: a lam outside (-1, 1) is named as such even when RepnParams would refuse mu
        complementary_mu_interval(lam)
        # the midpoint mu = (1 - lam)/2 classifies as principal; same matrices
    else:
        mu = 0  # the unilateral families fix mu = 0
    params = RepnParams(_INDEX_SET[series], lam, complex(mu))
    classify_series(params)
    return Realization.sharp(params) if series == ANTIHOLO else Realization.plain(params)


#: the options (argparse dest) that only some families read, across weights, verify and
#: sweep, with those families; each defaults to None, so that one given is told apart
_OWN_OPTION = {
    "im_mu": (PRINCIPAL,), "mu": (COMPLEMENTARY,), "r": (REDUCIBLE,), "branch": (PRINCIPAL, COMPLEMENTARY),
    "im_mu_grid": (PRINCIPAL,), "mu_grid": (COMPLEMENTARY,),
}


def _refuse_other_families(args, series: str | None) -> None:
    """An option of other families than ``series`` is refused, not dropped."""
    for dest, owners in _OWN_OPTION.items():
        if getattr(args, dest, None) is not None and series not in owners:
            families = " and ".join(owners) + (" family" if len(owners) == 1 else " families")
            raise ParameterError(f"--{dest.replace('_', '-')} is an option of the {families} only")


def _family(args) -> Realization:
    """``_realization`` of the family options on the command line, after ``_refuse_other_families``."""
    _refuse_other_families(args, args.series)
    return _realization(args.series, args.lam, args.im_mu, args.mu, args.r)


def _context(series: str, rel: Realization) -> dict:
    """The family part of a report context: series, lam and mu, or lam and r."""
    p = rel.params
    if rel.r is not None:
        return {"series": series, "lam": p.lam, "r": [rel.r.real, rel.r.imag]}
    return {"series": series, "lam": p.lam, "mu": [p.mu.real, p.mu.imag]}


def _paths(args) -> list[GroupPath]:
    texts = args.path if args.path else list(DEFAULT_PATHS)
    return [GroupPath.parse(t) for t in texts]


def _operator_name(series: str, op: str | None) -> str:
    """The operator --op names (the family's own by default), checked against the series."""
    ops = _OPERATORS[series]
    if op is None:
        return ops[0]
    if op not in ops:
        raise ParameterError(f"{op} is not certified against the {series} family, which takes {' or '.join(ops)}")
    return op


def _operator(op: str, rel: Realization, w: TruncationWindow) -> OperatorMatrix:
    """The operator op names, in the orthonormal basis of the family (``Realization.orthonormal``)."""
    T = reducible_shift(rel, w) if op == "reducible" else canonical_shift(op, rel.params, w)
    return rel.orthonormal(T, w)


def _path_reports(suites, rel: Realization, w: TruncationWindow, paths, op=None, tolerance=None, context=None):
    """Yield the report of each suite along each path, building R once per path
    unless the normalizer, which reads the path instead, runs alone.  The suites'
    default tolerances are read first, so the certificate module of each suite that
    runs executes before the first array, and numpy's import reuses the memory that
    its compile frees; unitarity alone executes neither."""
    tols = {"unitarity": DEFAULT_UNITARITY_TOL}
    if "homogeneity" in suites:
        tols["homogeneity"] = homogeneity.DEFAULT_HOMOGENEITY_TOL
    if "normalizer" in suites:
        tols["normalizer"] = inductive.DEFAULT_NORMALIZER_TOL
    T = None if op is None else _operator(op, rel, w)
    for path in paths:
        R = rel.along_path(path, w) if set(suites) - {"normalizer"} else None
        for suite in suites:
            tol = tols[suite] if tolerance is None else tolerance
            ctx = dict(context or {}, suite=suite, path=path.describe())
            if suite == "unitarity":
                yield DefectReport.build("unitarity", unitarity_residual(R, w), tol, ctx)
            elif suite == "homogeneity":
                yield homogeneity.homogeneity_defect(T, R, path_to_mobius(path), w, tolerance=tol, context=ctx)
            else:
                yield inductive.normalizer_defect(T, rel, path, w, tolerance=tol, context=ctx)
        del R  # the next path's R is built without this one alive


# ----------------------------------------------------------------------
# weights


def cmd_weights(args) -> int:
    rel = _family(args)
    if args.n0 > args.n1:
        raise ParameterError("--n0 must not exceed --n1")
    if max(-args.n0, args.n1) > 2**53:  # past it, float(n) is not exact
        raise ParameterError(f"--n0 and --n1 must lie within +-{2**53}")
    if args.n1 - args.n0 >= MAX_WEIGHT_ROWS:
        raise ParameterError(f"--n0 to --n1 spans {args.n1 - args.n0 + 1} rows, more than {MAX_WEIGHT_ROWS}")
    branch = args.branch or BRANCH_T2
    if args.series == COMPLEMENTARY and branch != BRANCH_T2:
        raise ParameterError("only the T2 branch is tabulated for the complementary family")
    rows = [(n, weight_sequence(rel, n, branch)) for n in range(args.n0, args.n1 + 1)]
    if args.format == "json":
        import json  # loaded where JSON is printed: the CSV table never pays it

        for n, wgt in rows:
            print(json.dumps({"n": n, "re": wgt.real, "im": wgt.imag, "abs": abs(wgt)}, sort_keys=True))
    else:
        print("n,re,im,abs")
        for n, wgt in rows:
            print(f"{n},{_fmt(wgt.real)},{_fmt(wgt.imag)},{_fmt(abs(wgt))}")
    return EXIT_OK


# ----------------------------------------------------------------------
# verify


def _suite_lemmas(args):
    """Yield the reports one sample at a time, so memory does not grow with --samples."""
    if args.samples < 1:
        raise ParameterError("--samples must be at least 1")
    if args.samples > MAX_SAMPLES:
        raise ParameterError(f"--samples must not exceed {MAX_SAMPLES}")
    tol = args.tolerance if args.tolerance is not None else 1e-10
    rng = random.Random(args.seed)
    for i in range(args.samples):
        lam = rng.uniform(-2.0, 3.0)
        mu = complex(rng.uniform(-1.5, 1.5), rng.uniform(-2.0, 2.0))
        m = rng.randrange(1, 9) * (1 if rng.random() < 0.5 else -1)
        n = rng.randrange(-20, 21)
        for side in ("f", "e"):
            value = abs(inductive.ladder_cancellation(lam, mu, m, n, side) - 2.0 * m * m)
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
            yield DefectReport.build(f"ladder_{side}", value, tol, ctx)


def _window(args, series: str) -> TruncationWindow:
    """The window of --N (at most ``MAX_N``) and --pad, with ``_default_pad`` when --pad
    is left out, checked before any window-sized array is allocated."""
    if args.N > MAX_N:
        raise ParameterError(f"--N must not exceed {MAX_N}")
    pad = _default_pad(args.N, series, getattr(args, "suite", None) == "normalizer") if args.pad is None else args.pad
    return TruncationWindow(_INDEX_SET[series], args.N, pad)


def _verify_setup(args):
    """Realization, window, operator name (None for unitarity, which reads no --op) and context of a verify suite."""
    rel = _family(args)
    w = _window(args, args.series)
    ctx = _context(args.series, rel)
    ctx.update(suite=args.suite, N=args.N, padding=w.padding)
    if "op" not in args:
        return rel, w, None, ctx
    ctx["op"] = _operator_name(args.series, args.op)
    return rel, w, ctx["op"], ctx


def _suite_along_paths(args) -> list[DefectReport]:
    rel, w, op, ctx = _verify_setup(args)
    return list(_path_reports([args.suite], rel, w, _paths(args), op, args.tolerance, ctx))


def _suite_infinitesimal(args) -> list[DefectReport]:
    rel, w, op, ctx = _verify_setup(args)
    kwargs = {} if args.tolerance is None else {"identity_tol": args.tolerance}
    return homogeneity.infinitesimal_reports(_operator(op, rel, w), rel, w, step=args.step, context=ctx, **kwargs)


def _suite_reducible_lambda(args) -> list[DefectReport]:
    rel = _realization(REDUCIBLE, args.lam, r=args.r)
    w = _window(args, REDUCIBLE)
    tol = args.tolerance if args.tolerance is not None else homogeneity.DEFAULT_REDUCIBLE_TOL
    ctx = {"suite": "reducible-lambda", "N": args.N, "padding": w.padding}
    return [homogeneity.reducible_lambda_check(rel, w, tolerance=tol, context=ctx)]


def _default_pad(N: int, series: str, normalizer: bool = False) -> int:
    """Padding when --pad is omitted: N/4, or 3N/8 for the normalizer, which
    conjugates by R and needs a deeper quarantine; never below 16 and 24,
    which small windows need (pad 8 at N = 32 fails homogeneity), and at most
    the largest pad that leaves the window an interior: N/2 on 0..N, N - 1 on -N..N."""
    pad = max(DEEP_PADDING, 3 * N // 8) if normalizer else max(DEFAULT_PADDING, N // 4)
    return min(pad, N // 2 if _INDEX_SET[series] == UNILATERAL else N - 1)


def cmd_verify(args) -> int:
    passed = True
    for report in args.run(args):
        print(report.to_json())
        passed = passed and report.passed
    return EXIT_OK if passed else EXIT_FAIL


# ----------------------------------------------------------------------
# classify


def cmd_classify(args) -> int:
    coeffs: dict[int, complex] = {}
    try:
        with open(args.file, "r", encoding="utf-8-sig") as fh:
            for line in fh:
                line = line.strip()
                if not line or line.startswith("#") or line.lower().startswith("n,"):
                    continue
                parts = [p.strip() for p in line.split(",")]
                if len(parts) not in (2, 3):
                    raise ValueError(f"row {line!r} has {len(parts)} fields, not 2 or 3")
                n = int(parts[0])
                if n in coeffs:
                    raise ValueError(f"n={n} appears in more than one row")
                re = float(parts[1])
                im = float(parts[2]) if len(parts) == 3 else 0.0
                coeffs[n] = complex(re, im)
    except OSError as exc:
        raise ParameterError(f"cannot read {args.file}: {exc}") from exc
    except ValueError as exc:
        raise ParameterError(f"malformed coefficient file: {exc}") from exc
    mu = complex(args.mu_re, args.mu_im)
    params = RepnParams(BILATERAL, args.lam, mu)
    fit = inductive.classify_a_minus1(coeffs, params)
    import json  # loaded where JSON is printed: a refused file never pays it

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
        values = [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise ParameterError(f"{flag} takes comma-separated numbers, got {text!r}") from None
    if not values:
        raise ParameterError(f"{flag} names no value, so the sweep would certify nothing")
    return values


def _sweep_cell(series: str, w: TruncationWindow, op, suites, paths, lam: float, mu: complex) -> tuple[float, bool]:
    """Max defect and all-pass over the requested suites at one parameter point."""
    rel = _realization(series, lam, im_mu=mu.imag, mu=mu.real)
    reports = list(_path_reports(suites, rel, w, paths, op if "homogeneity" in suites else None))
    return max(r.value for r in reports), all(r.passed for r in reports)


def cmd_sweep(args) -> int:
    _refuse_other_families(args, args.series)
    suites = [suite.strip() for suite in args.suites.split(",")]
    for suite in suites:
        if suite not in SWEEP_SUITES:
            raise ParameterError(f"sweep supports suites {','.join(SWEEP_SUITES)}; got {suite!r}")
    if args.op is not None and "homogeneity" not in suites:
        raise ParameterError("--op names the operator of the homogeneity suite, which --suites does not run")
    op = _operator_name(args.series, args.op)
    paths = _paths(args)
    lams = _grid_values("--lambda-grid", args.lambda_grid)
    im_mus = _grid_values("--im-mu-grid", str(DEFAULT_IM_MU) if args.im_mu_grid is None else args.im_mu_grid) if args.series == PRINCIPAL else []
    auto = args.mu_grid is None or args.mu_grid.strip() == "auto"
    mu_values = _grid_values("--mu-grid", args.mu_grid) if args.series == COMPLEMENTARY and not auto else []
    w = _window(args, args.series)
    print("series,lambda,mu_re,mu_im,N,padding,suites,max_defect,status")
    any_bad = False
    for lam in lams:
        if args.series == PRINCIPAL:
            mus = [complex(principal_re_mu(lam), im) for im in im_mus]
        elif args.series == COMPLEMENTARY:
            mus = [None] if auto else [complex(v) for v in mu_values]
        else:
            mus = [0j]
        for mu in mus:
            try:
                if mu is None:  # the midpoint of the mu interval, which is empty outside lam in (-1, 1)
                    mu = complex(0.5 * sum(complementary_mu_interval(lam)))
                worst, ok = _sweep_cell(args.series, w, op, suites, paths, lam, mu)
                worst_text, status = _fmt(worst), ("pass" if ok else "fail")
            except (ParameterError, NumericsError) as exc:
                worst_text, status = "nan", f"error: {exc}"
            any_bad = any_bad or status != "pass"
            mu_cols = "nan,0" if mu is None else f"{_fmt(mu.real)},{_fmt(mu.imag)}"  # None: midpoint refused
            print(
                f"{args.series},{_fmt(lam)},{mu_cols},"
                f"{args.N},{w.padding},{'+'.join(suites)},{worst_text},{status}"
            )
    return EXIT_FAIL if any_bad else EXIT_OK


# ----------------------------------------------------------------------
# parser


class _Parser(argparse.ArgumentParser):
    """Refuses bad usage with a one-line reason and exit 2; the subcommand parsers inherit it."""

    def error(self, message):
        self.exit(EXIT_USAGE, f"error: {message}\n")


def build_parser(argv) -> argparse.ArgumentParser:
    """The parser of every command and ``verify`` suite name, with the arguments
    of only the command (and suite) that argv names, the one that argparse reads:
    the first word of argv that is not an option, and the next under ``verify``."""
    words = [arg for arg in argv if not arg.startswith("-")]
    command = words[0] if words else None
    suite = words[1] if command == "verify" and len(words) > 1 else None
    parser = _Parser(
        prog="mobshift",
        description="Construct truncated cover representations and certify shift-operator identities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_family(sp):
        sp.add_argument("--series", choices=SERIES_CHOICES, help="representation family")
        sp.add_argument("--lambda", dest="lam", type=float, help="family parameter lambda")
        sp.add_argument("--im-mu", dest="im_mu", type=float, help=f"Im mu (principal; Re mu is forced; default {DEFAULT_IM_MU:g})")
        sp.add_argument("--mu", type=float, help="real mu (complementary)")
        sp.add_argument("--r", type=_complex_arg, help=f"seam coupling (reducible; default {DEFAULT_COUPLING:g})")

    def add_window(sp, pad_default):
        sp.add_argument("--N", type=int, default=DEFAULT_N, help=f"window size (default {DEFAULT_N}, at most {MAX_N})")
        sp.add_argument("--pad", type=int, help=f"interior padding (default {pad_default}; at most N/2 for holo and antiholo, N-1 otherwise)")

    wp = sub.add_parser("weights", help="emit a weight-sequence table")
    if command == "weights":
        add_family(wp)
        wp.add_argument("--branch", choices=(BRANCH_T2, BRANCH_T3), help=f"branch (principal, complementary; default {BRANCH_T2})")
        wp.add_argument("--n0", type=int, required=True)
        wp.add_argument("--n1", type=int, required=True, help=f"last n (at most {MAX_WEIGHT_ROWS} rows from --n0)")
        wp.add_argument("--format", choices=("csv", "json"), default="csv")
        wp.set_defaults(func=cmd_weights)

    vp = sub.add_parser("verify", help="run a verification suite, one JSON report per line")
    vp.set_defaults(func=cmd_verify)
    suites = vp.add_subparsers(dest="suite", required=True)
    for name in SUITES:
        sp = suites.add_parser(name)
        if name != suite:
            continue
        if suite == "lemmas":
            sp.add_argument("--samples", type=int, default=100, help=f"random samples (default 100, at most {MAX_SAMPLES})")
            sp.add_argument("--seed", type=int, default=0, help="random seed (default 0)")
            sp.set_defaults(run=_suite_lemmas)
        elif suite == "reducible-lambda":
            sp.add_argument("--series", choices=(REDUCIBLE,), help="representation family, reducible only")
            sp.add_argument("--lambda", dest="lam", type=float, help="family parameter lambda")
            sp.add_argument("--r", type=_complex_arg, help=f"seam coupling (default {DEFAULT_COUPLING:g})")
            sp.set_defaults(run=_suite_reducible_lambda)
        else:
            add_family(sp)
            sp.set_defaults(run=_suite_infinitesimal if suite == "infinitesimal" else _suite_along_paths)
        if suite != "lemmas":
            add_window(sp, "max(24, 3N/8)" if suite == "normalizer" else "max(16, N/4)")
        if suite in ("homogeneity", "normalizer", "infinitesimal"):
            sp.add_argument("--op", choices=OP_CHOICES, help="operator under test (default: the family's own)")
        if suite in ("unitarity", "homogeneity", "normalizer"):
            sp.add_argument("--path", action="append", help="flow path gen:time[,gen:time...]; repeatable")
        tolerance = "the suite tolerance"
        if suite == "infinitesimal":
            step = homogeneity.DEFAULT_FD_STEP
            sp.add_argument("--step", type=float, default=step, help=f"finite-difference step (default {step:g})")
            tolerance = f"the identity tolerance (the route gap keeps {homogeneity.DEFAULT_ROUTE_TOL:g})"
        sp.add_argument("--tolerance", type=float, help=f"override {tolerance}")

    cp = sub.add_parser("classify", help="classify a step-(-1) coefficient file")
    if command == "classify":
        cp.add_argument("--file", required=True, help="CSV of n,re[,im] coefficient rows, one per n")
        cp.add_argument("--lambda", dest="lam", type=float, required=True)
        cp.add_argument("--mu-re", dest="mu_re", type=float, required=True)
        cp.add_argument("--mu-im", dest="mu_im", type=float, default=0.0)
        cp.set_defaults(func=cmd_classify)

    gp = sub.add_parser("sweep", help="run suites over a parameter grid, CSV per cell")
    if command == "sweep":
        gp.add_argument("--series", choices=(HOLO, PRINCIPAL, COMPLEMENTARY), required=True)
        gp.add_argument("--lambda-grid", dest="lambda_grid", default="", help="comma-separated lambda values")
        gp.add_argument("--im-mu-grid", dest="im_mu_grid", help=f"comma-separated Im mu (principal; default {DEFAULT_IM_MU:g})")
        gp.add_argument("--mu-grid", dest="mu_grid", help="'auto' midpoints (the default; (1 - lambda)/2, on the principal line) or comma-separated mu (complementary)")
        gp.add_argument("--suites", default="unitarity", help="comma-separated: " + ",".join(SWEEP_SUITES))
        gp.add_argument("--op", choices=OP_CHOICES, help="operator for the homogeneity suite")
        gp.add_argument("--path", action="append", help="flow path; repeatable")
        add_window(gp, "max(16, N/4)")
        gp.set_defaults(func=cmd_sweep)

    return parser


def _enter_process() -> None:
    """Set up the process that runs one command: restore the default SIGPIPE action
    (where there is one), so a closed stdout ends it quietly as it ends ``head``, then
    move every object alive after import into the collector's permanent generation,
    which no collection scans, and turn the cyclic collector off.  The objects that a
    command leaves in cycles are a constant few hundred, from argparse's parser and
    numpy's import (about 650 after a command that loads numpy, as many after
    ``verify lemmas`` of 10 samples as of 10000), so the 30-odd collections that
    numpy's import alone would trigger free nothing that grows; reference counting
    frees everything else as before."""
    import signal  # not loaded at import: only the process entry pays it

    if hasattr(signal, "SIGPIPE"):
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    gc.freeze()
    gc.disable()


def _exit_process(code: int):
    """End the process with ``code`` as soon as the command has returned: run the exit
    handlers registered so far, flush stdout and stderr, and leave by ``os._exit``,
    so that the interpreter tears down none of its modules (numpy's 200-odd among
    them, when the command loaded it).  A stdout that cannot take the rest of the
    output is reported and ends the process with 120, as the interpreter's own exit
    does, in the same order."""
    atexit._run_exitfuncs()
    try:
        sys.stdout.flush()
    except OSError as exc:
        print(f"Exception ignored in: {sys.stdout!r}\n{type(exc).__name__}: {exc}", file=sys.stderr)
        code = 120
    sys.stderr.flush()
    os._exit(code)


def main(argv=None) -> int:
    if argv is None:
        _enter_process()
        try:
            code = main(sys.argv[1:])
        except SystemExit as exc:  # argparse's refusals and --help, with an int code
            code = exc.code
        _exit_process(code)
    args = build_parser(argv).parse_args(argv)
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
