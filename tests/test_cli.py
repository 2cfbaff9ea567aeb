import json
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from mobshift import cli, homogeneity, numkernel, repn, specialfn
from mobshift.errors import NumericsError
from mobshift.numkernel import OperatorMatrix
from mobshift.repn import Realization


def run(capsys, argv):
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # argparse's refusals
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------- weights


def test_weights_holomorphic_lambda_one(capsys):
    code, out, _ = run(capsys, ["weights", "--series", "holo", "--lambda", "1", "--n0", "0", "--n1", "4"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,re,im,abs"
    assert len(lines) == 6
    for line in lines[1:]:
        _, re, im, mag = line.split(",")
        assert float(re) == 1.0 and float(im) == 0.0 and float(mag) == 1.0


def test_weights_holomorphic_lambda_two_first_value(capsys):
    code, out, _ = run(capsys, ["weights", "--series", "holo", "--lambda", "2", "--n0", "0", "--n1", "0"])
    assert code == 0
    row = out.strip().splitlines()[1].split(",")
    assert float(row[1]) == pytest.approx(math.sqrt(0.5), abs=1e-10)


def test_weights_reducible_seam(capsys):
    code, out, _ = run(
        capsys,
        ["weights", "--series", "reducible", "--lambda", "1", "--r", "0.5", "--n0", "-2", "--n1", "0"],
    )
    assert code == 0
    values = [float(line.split(",")[1]) for line in out.strip().splitlines()[1:]]
    assert values == [1.0, 0.5, 1.0]


def test_weights_json_format(capsys):
    code, out, _ = run(
        capsys,
        ["weights", "--series", "principal", "--lambda", "0.3", "--im-mu", "0.7",
         "--branch", "T3", "--n0", "0", "--n1", "1", "--format", "json"],
    )
    assert code == 0
    rows = [json.loads(line) for line in out.strip().splitlines()]
    assert len(rows) == 2
    assert rows[0]["abs"] == pytest.approx(1.0, abs=1e-12)


def test_weights_takes_no_window_options():
    with pytest.raises(SystemExit) as exc:
        cli.main(["weights", "--series", "holo", "--lambda", "1", "--n0", "0", "--n1", "1", "--N", "8"])
    assert exc.value.code == 2


def test_weights_invalid_parameters_exit_two(capsys):
    code, _, err = run(capsys, ["weights", "--series", "holo", "--lambda", "0", "--n0", "0", "--n1", "2"])
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_weights_non_finite_lambda_exit_two(capsys, value):
    code, out, err = run(capsys, ["weights", "--series", "holo", "--lambda", value, "--n0", "0", "--n1", "1"])
    assert code == 2 and out == ""
    assert err == f"error: lam and mu must be finite, got lam={value}, mu=0j\n"


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize(
    "series, lam, n0",
    [("antiholo", "1e-17", "-1"), ("holo", "1e-320", "0")],
    ids=("1 - lam + n rounds to 0", "the first ratio overflows"),
)
def test_weights_refuse_what_verify_refuses(capsys, series, lam, n0, fmt):
    # the weights are square roots of the Gram's norm ratios: a table is finite, and a
    # family whose Gram verify refuses is refused with exit 2, not a traceback
    code, out, err = run(capsys, ["weights", "--series", series, "--lambda", lam, "--n0", n0, "--n1", str(int(n0) + 1), "--format", fmt])
    verified = run(capsys, ["verify", "unitarity", "--series", series, "--lambda", lam, "--N", "8", "--pad", "2"])[0]
    if verified == 2:
        assert (code, out) == (2, "") and len(err.splitlines()) == 1
    else:
        assert (code, err) == (0, "") and not re.search("inf|nan", out, re.IGNORECASE), out


# ---------------------------------------------------------------- verify


def test_verify_lemmas(capsys):
    code, out, _ = run(capsys, ["verify", "lemmas", "--samples", "100", "--seed", "42"])
    assert code == 0
    reports = [json.loads(line) for line in out.strip().splitlines()]
    assert len(reports) == 200
    assert all(r["pass"] for r in reports)
    assert all(r["value"] <= 1e-10 for r in reports)


@pytest.mark.parametrize("samples", ["0", "-1"])
def test_verify_lemmas_without_samples_exit_two(capsys, samples):
    code, out, err = run(capsys, ["verify", "lemmas", "--samples", samples])
    assert code == 2 and out == ""
    assert err == "error: --samples must be at least 1\n"


def test_verify_homogeneity_principal(capsys):
    code, out, _ = run(
        capsys,
        ["verify", "homogeneity", "--series", "principal", "--lambda", "0.3", "--im-mu", "0.5",
         "--op", "T2", "--path", "L:0.1"],
    )
    assert code == 0
    report = json.loads(out.strip().splitlines()[0])
    assert report["pass"] and report["value"] <= 1e-6
    assert report["context"]["path"] == "L:0.1"


def test_verify_homogeneity_default_paths(capsys):
    code, out, _ = run(
        capsys,
        ["verify", "homogeneity", "--series", "holo", "--lambda", "2", "--op", "T1"],
    )
    assert code == 0
    assert len(out.strip().splitlines()) == 4


def test_verify_reducible_lambda_failure_exit_one(capsys):
    code, out, _ = run(capsys, ["verify", "reducible-lambda", "--lambda", "1.5", "--r", "1"])
    assert code == 1
    report = json.loads(out.strip().splitlines()[0])
    assert report["value"] == pytest.approx(0.5, abs=1e-12)
    assert not report["pass"]


def test_verify_unitarity(capsys):
    code, out, _ = run(
        capsys,
        ["verify", "unitarity", "--series", "complementary", "--lambda", "0.4", "--mu", "0.2"],
    )
    assert code == 0
    reports = [json.loads(line) for line in out.strip().splitlines()]
    assert len(reports) == 4 and all(r["pass"] for r in reports)


def test_verify_infinitesimal_antiholomorphic(capsys):
    code, out, _ = run(
        capsys,
        ["verify", "infinitesimal", "--series", "antiholo", "--lambda", "0.5", "--op", "T1star",
         "--N", "32", "--pad", "8"],
    )
    assert code == 0
    reports = [json.loads(line) for line in out.strip().splitlines()]
    assert len(reports) == 8 and all(r["pass"] for r in reports)


def test_verify_infinitesimal_forms_one_flow(capsys, monkeypatch):
    # M, e and f are L's flow turned a quarter: one flow derivative and one set of parity
    # blocks serve all four relations
    calls = []
    for name in ("kappa_flow_derivative", "_parity_blocks"):
        monkeypatch.setattr(homogeneity, name, lambda *a, _f=getattr(homogeneity, name), _n=name: calls.append(_n) or _f(*a))
    argv = ["verify", "infinitesimal", "--series", "principal", "--lambda", "0.3", "--im-mu", "3", "--N", "32"]
    assert run(capsys, argv)[0] == 0
    assert sorted(calls) == ["_parity_blocks", "kappa_flow_derivative"]


def test_verify_normalizer_builds_no_r(capsys, monkeypatch):
    # the normalizer conjugates by E's parity blocks on every default path, rotations
    # and boosts alike: no exponential and no dense R
    def refuse(*args, **kwargs):
        raise AssertionError("the normalizer built R")

    for owner in (numkernel, repn):
        monkeypatch.setattr(owner, "mat_exp", refuse)
    monkeypatch.setattr(Realization, "along_path", refuse)
    code, out, err = run(capsys, ["verify", "normalizer", "--series", "principal", "--lambda", "0.3", "--im-mu", "0.5"])
    reports = [json.loads(line) for line in out.splitlines()]
    assert (code, err) == (0, "") and [r["context"]["path"] for r in reports] == list(cli.DEFAULT_PATHS)


def test_verify_refuses_an_infinite_tolerance(capsys):
    # inf passes every report and prints "tolerance": Infinity, which is not JSON
    argv = ["verify", "homogeneity", "--series", "holo", "--lambda", "2", "--N", "16", "--tolerance", "inf"]
    assert run(capsys, argv) == (2, "", "error: tolerance must be positive and finite, got inf\n")


@pytest.mark.parametrize(
    "family, codes",
    [
        (["--series", "holo", "--lambda", "2"], [1, 0, 1, 0]),
        (["--series", "antiholo", "--lambda", "0.5"], [1, 0, 0, 0]),
        (["--series", "principal", "--lambda", "0.3", "--im-mu", "3"], [1, 1, 0, 0]),
        (["--series", "complementary", "--lambda", "0.2", "--mu", "0.4"], [1, 0, 0, 0]),
        (["--series", "reducible", "--lambda", "1"], [1, 0, 0, 0]),
        (["--series", "reducible", "--lambda", "1.5"], [1, 1, 1, 1]),
    ],
    ids=("holo", "antiholo", "principal", "complementary", "reducible", "reducible off 1"),
)
def test_verify_infinitesimal_on_the_smallest_windows(capsys, family, codes):
    # N = 1..4 at the default pad: each window reports, and its verdicts do not move
    for N, code in zip((1, 2, 3, 4), codes):
        got, out, err = run(capsys, ["verify", "infinitesimal", *family, "--N", str(N)])
        assert (got, len(out.splitlines()), err) == (code, 8, ""), N


def test_verify_normalizer_uses_deep_padding(capsys):
    code, out, _ = run(
        capsys,
        ["verify", "normalizer", "--series", "principal", "--lambda", "0.3", "--im-mu", "0.5",
         "--op", "T2", "--path", "L:0.1"],
    )
    assert code == 0
    report = json.loads(out.strip().splitlines()[0])
    assert report["context"]["padding"] == 24
    assert report["pass"]


def test_default_padding_follows_the_window(capsys):
    # at N = 128 the pads of N = 64 (16, and 24 for the normalizer) read 1e-3 to 2e-2
    # for homogeneity and 0.09 to 0.73 for the normalizer
    family = ["--series", "principal", "--lambda", "0.3", "--N", "128"]
    for suite, padding in (("homogeneity", 32), ("normalizer", 48)):
        code, out, _ = run(capsys, ["verify", suite, *family])
        reports = [json.loads(line) for line in out.strip().splitlines()]
        assert code == 0 and len(reports) == 4, suite
        assert all(r["context"]["padding"] == padding for r in reports), suite
    code, out, _ = run(capsys, ["sweep", "--series", "holo", "--lambda-grid", "2", "--suites", "unitarity,homogeneity",
                                "--N", "128"])
    assert code == 0 and out.splitlines()[1].split(",")[5] == "32"


@pytest.mark.parametrize(
    "argv, padding",
    [
        (["verify", "unitarity", "--series", "holo", "--lambda", "1", "--N", "16"], 8),
        (["verify", "normalizer", "--series", "holo", "--lambda", "1", "--N", "32"], 16),
        (["verify", "unitarity", "--series", "principal", "--lambda", "0.3", "--N", "8"], 7),
    ],
    ids=("unilateral N = 16", "unilateral normalizer N = 32", "bilateral N = 8"),
)
def test_default_padding_leaves_small_windows_an_interior(capsys, argv, padding):
    # the floors 16 and 24 would leave no interior here; a pad the user never set is capped instead
    code, out, err = run(capsys, argv)
    assert code != 2 and err == ""
    assert all(json.loads(line)["context"]["padding"] == padding for line in out.splitlines())


def test_sweep_default_padding_leaves_small_windows_an_interior(capsys):
    code, out, err = run(capsys, ["sweep", "--series", "holo", "--lambda-grid", "1", "--N", "16"])
    assert code == 0 and err == ""
    assert out.splitlines()[1].split(",")[5] == "8"


def test_verify_incompatible_operator_exit_two(capsys):
    code, _, err = run(
        capsys,
        ["verify", "homogeneity", "--series", "principal", "--lambda", "0.3", "--op", "T1"],
    )
    assert code == 2 and "error" in err


#: the family arguments of each series, and its shifts, its own (the default) first
FAMILY_ARGS = {
    "holo": ["--lambda", "2"],
    "antiholo": ["--lambda", "2"],
    "principal": ["--lambda", "0.3"],
    "complementary": ["--lambda", "0.2", "--mu", "0.3"],
    "reducible": ["--lambda", "1"],
}
FAMILY_OPS = {
    "holo": ("T1",), "antiholo": ("T1star",), "principal": ("T2", "T3"), "complementary": ("T2", "T3"),
    "reducible": ("reducible",),
}


@pytest.mark.parametrize("op", cli.OP_CHOICES)
@pytest.mark.parametrize("series", cli.SERIES_CHOICES)
def test_verify_accepts_exactly_the_shifts_of_the_family(capsys, series, op):
    argv = ["verify", "homogeneity", "--series", series, *FAMILY_ARGS[series], "--N", "8", "--pad", "2", "--path", "h:0.1"]
    code, out, err = run(capsys, [*argv, "--op", op])
    if op in FAMILY_OPS[series]:
        assert code != 2 and err == ""
        assert {json.loads(line)["context"]["op"] for line in out.splitlines()} == {op}
    else:
        assert code == 2 and out == ""
        assert err == f"error: {op} is not certified against the {series} family, which takes {' or '.join(FAMILY_OPS[series])}\n"
    assert cli._operator_name(series, None) == FAMILY_OPS[series][0]


def test_verify_malformed_path_time_exit_two(capsys):
    code, out, err = run(capsys, ["verify", "unitarity", "--series", "holo", "--lambda", "1", "--path", "L:abc"])
    assert code == 2 and out == ""
    assert err.startswith("error: malformed time") and err.count("\n") == 1


def test_verify_empty_interior_exit_two(capsys):
    argv = ["verify", "unitarity", "--series", "holo", "--lambda", "1", "--N", "4", "--pad", "3"]
    code, out, err = run(capsys, argv)
    assert code == 2 and out == ""
    assert err == "error: padding 3 leaves no interior in a size-5 window\n"


def test_verify_reducible_pole_exit_two(capsys):
    # lam = 2 - 1e-13 passes the (0, 2) bound but puts a pole at n = -2
    argv = ["verify", "homogeneity", "--series", "reducible", "--lambda", "1.9999999999999", "--N", "8", "--pad", "2"]
    code, out, err = run(capsys, argv)
    assert code == 2 and out == ""
    assert err == "error: coefficient pole at n=-2 for lam=1.9999999999999\n"


@pytest.mark.parametrize("N", ["64", "256"])
def test_verify_holo_lambda_200_reports(capsys, N):
    # the basis norms carry no gamma anchor that could overflow
    code, out, err = run(capsys, ["verify", "unitarity", "--series", "holo", "--lambda", "200", "--N", N])
    assert code in (0, 1) and err == ""
    assert len(out.strip().splitlines()) == 4


@pytest.mark.parametrize("lam", ["2", "40", "140"])
def test_verify_unitarity_fails_a_scaled_action(capsys, monkeypatch, lam):
    # R = 2I: its monomial residual R* G R - G fell below the tolerance with
    # the Gram (5e-60 at lam = 40, 0.0 at lam = 140); R* R - I does not
    monkeypatch.setattr(Realization, "along_path", lambda self, path, w: 2.0 * OperatorMatrix.identity(w))
    code, out, _ = run(capsys, ["verify", "unitarity", "--series", "holo", "--lambda", lam])
    reports = [json.loads(line) for line in out.strip().splitlines()]
    assert code == 1 and len(reports) == 4
    assert all(not r["pass"] and r["value"] > 1.0 for r in reports)


def test_verify_unitarity_of_the_reducible_sum_off_the_seam(capsys):
    # the seam-basis blocks carry their own norms, so lam != 1 is unitary too
    code, out, _ = run(capsys, ["verify", "unitarity", "--series", "reducible", "--lambda", "1.5"])
    reports = [json.loads(line) for line in out.strip().splitlines()]
    assert code == 0 and len(reports) == 4
    assert max(r["value"] for r in reports) <= 1e-12


def test_verify_refuses_basis_norms_that_do_not_match_the_generators(capsys, monkeypatch):
    # a Gram off by 1e-6 leaves the orthonormal-basis generators non-skew, and mat_exp refuses them
    norm_ratio = specialfn.norm_ratio
    monkeypatch.setattr(specialfn, "norm_ratio", lambda params, n: norm_ratio(params, n) * (1.0 + 1e-6))
    code, out, err = run(capsys, ["verify", "unitarity", "--series", "holo", "--lambda", "2"])
    assert code == 3 and out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("numerical failure: generator is not skew-Hermitian (residue ")


def test_verify_rejects_a_nan_coupling(capsys):
    code, out, err = run(capsys, ["verify", "unitarity", "--series", "reducible", "--lambda", "1", "--r", "nan"])
    assert code == 2 and out == ""
    assert err == "error: coupling |r| must be a number not exceeding 10.0\n"


def test_out_of_memory_exits_three(capsys, monkeypatch):
    # stands in for the allocation a huge window (--N 100000) asks for; nothing that large is allocated
    def exhausted(*args, **kwargs):
        raise MemoryError("Unable to allocate 149. GiB for an array with shape (100001, 100001) and data type complex128")

    monkeypatch.setattr(repn, "mat_exp", exhausted)
    code, out, err = run(capsys, ["verify", "unitarity", "--series", "holo", "--lambda", "1"])
    assert code == 3 and out == ""
    assert err == (
        "numerical failure: out of memory (Unable to allocate 149. GiB for an array with shape"
        " (100001, 100001) and data type complex128)\n"
    )


@pytest.mark.parametrize(
    "argv, message",
    [
        (["unitarity", "--series", "complementary", "--lambda", "0.4", "--mu", "0.2", "--im-mu", "3", "--r", "5",
          "--path", "L:0.1"], "--im-mu is an option of the principal family only"),
        (["unitarity", "--series", "holo", "--lambda", "2", "--mu", "0.3"], "--mu is an option of the complementary family only"),
        (["unitarity", "--series", "principal", "--lambda", "0.3", "--r", "2"], "--r is an option of the reducible family only"),
        (["reducible-lambda", "--lambda", "1", "--im-mu", "2"], "unrecognized arguments: --im-mu 2"),
    ],
    ids=("complementary with Im mu and r", "holo with mu", "principal with r", "reducible-lambda with Im mu"),
)
def test_verify_refuses_an_option_of_another_family(capsys, argv, message):
    code, out, err = run(capsys, ["verify", *argv])
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["verify", "lemmas", "--samples", "1", "--series", "principal", "--lambda", "3", "--mu", "3"],
         "unrecognized arguments: --series principal --lambda 3 --mu 3"),
        (["verify", "lemmas", "--samples", "1", "--r", "2"], "unrecognized arguments: --r 2"),
        (["verify", "reducible-lambda", "--series", "principal", "--lambda", "1"],
         "argument --series: invalid choice: 'principal' (choose from 'reducible')"),
        (["sweep", "--series", "holo", "--lambda-grid", "1", "--im-mu-grid", "3"],
         "--im-mu-grid is an option of the principal family only"),
        (["sweep", "--series", "principal", "--lambda-grid", "0.3", "--mu-grid", "0.2"],
         "--mu-grid is an option of the complementary family only"),
        (["verify", "lemmas", "--samples", "1", "--N", "8", "--pad", "3", "--op", "T2", "--path", "L:0.1", "--step", "0.001"],
         "unrecognized arguments: --N 8 --pad 3 --op T2 --path L:0.1 --step 0.001"),
        (["verify", "lemmas", "--samples", "1", "--step", "0.001"], "unrecognized arguments: --step 0.001"),
        (["verify", "reducible-lambda", "--lambda", "1", "--op", "T2", "--path", "L:0.1", "--step", "0.001"],
         "unrecognized arguments: --op T2 --path L:0.1 --step 0.001"),
        (["verify", "reducible-lambda", "--lambda", "1", "--samples", "3"], "unrecognized arguments: --samples 3"),
        (["verify", "unitarity", "--series", "holo", "--lambda", "1", "--op", "T1", "--step", "0.001", "--samples", "4", "--seed", "3"],
         "unrecognized arguments: --op T1 --step 0.001 --samples 4 --seed 3"),
        (["verify", "unitarity", "--series", "holo", "--lambda", "1", "--seed", "3"], "unrecognized arguments: --seed 3"),
        (["verify", "infinitesimal", "--series", "holo", "--lambda", "1", "--path", "L:0.2"],
         "unrecognized arguments: --path L:0.2"),
        (["verify", "homogeneity", "--series", "holo", "--lambda", "1", "--step", "0.01"], "unrecognized arguments: --step 0.01"),
        (["verify", "normalizer", "--series", "holo", "--lambda", "1", "--step", "0.01"], "unrecognized arguments: --step 0.01"),
        (["sweep", "--series", "holo", "--lambda-grid", "1", "--suites", "unitarity", "--op", "T1"],
         "--op names the operator of the homogeneity suite, which --suites does not run"),
        (["verify", "lemmas", "--N", "8"], "unrecognized arguments: --N 8"),
        (["verify", "infinitesimal", "--path", "L:0.1"], "unrecognized arguments: --path L:0.1"),
        (["verify", "unitarity", "--op", "T1"], "unrecognized arguments: --op T1"),
        (["sweep", "--series", "holo", "--im-mu-grid", "3"], "--im-mu-grid is an option of the principal family only"),
    ],
    ids=("lemmas with a family", "lemmas with r", "reducible-lambda of another series",
         "holo sweep with an Im mu grid", "principal sweep with a mu grid", "lemmas with a window", "lemmas with a step",
         "reducible-lambda with an operator", "reducible-lambda with samples", "unitarity with an operator",
         "unitarity with a seed", "infinitesimal with a path", "homogeneity with a step", "normalizer with a step",
         "unitarity sweep with an operator", "bare lemmas with a window", "bare infinitesimal with a path",
         "bare unitarity with an operator", "holo sweep without a lambda grid, with an Im mu grid"),
)
def test_options_a_run_does_not_read_are_refused(capsys, argv, message):
    code, out, err = run(capsys, argv)
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


def test_usage_errors_are_one_line(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "unitarity", "--series", "foo", "--lambda", "1"])
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert captured.err.startswith("error: argument --series: invalid choice: 'foo'")
    assert captured.err.count("\n") == 1 and captured.err.endswith("\n")


def test_weights_refuses_an_option_of_another_family(capsys):
    code, out, err = run(capsys, ["weights", "--series", "antiholo", "--lambda", "2", "--r", "2", "--n0", "-1", "--n1", "0"])
    assert code == 2 and out == ""
    assert err == "error: --r is an option of the reducible family only\n"


#: the options only some families read, those families, and a command line that takes each;
#: weights --branch T3 printed the T2 table under holo, antiholo and reducible
FAMILY_OWNED = (
    ("--im-mu", "1", ("principal",), ("verify", "unitarity")),
    ("--mu", "0.3", ("complementary",), ("verify", "unitarity")),
    ("--r", "2", ("reducible",), ("verify", "unitarity")),
    ("--im-mu", "1", ("principal",), ("weights", "--n0", "0", "--n1", "1")),
    ("--mu", "0.3", ("complementary",), ("weights", "--n0", "0", "--n1", "1")),
    ("--r", "2", ("reducible",), ("weights", "--n0", "0", "--n1", "1")),
    ("--branch", "T3", ("principal", "complementary"), ("weights", "--n0", "0", "--n1", "1")),
    ("--im-mu-grid", "1", ("principal",), ("sweep", "--lambda-grid", "0.5")),
    ("--mu-grid", "0.3", ("complementary",), ("sweep", "--lambda-grid", "0.5")),
)


@pytest.mark.parametrize(
    "flag, value, owners, series, command",
    [pytest.param(flag, value, owners, series, command, id=f"{command[0]} {flag} {series}")
     for flag, value, owners, command in FAMILY_OWNED
     for series in (("holo", "principal", "complementary") if command[0] == "sweep" else cli.SERIES_CHOICES)
     if series not in owners],
)
def test_a_family_owned_option_is_refused_under_every_other_family(capsys, flag, value, owners, series, command):
    code, out, err = run(capsys, [*command, "--series", series, "--lambda", "0.5", flag, value])
    families = "principal and complementary families" if len(owners) == 2 else f"{owners[0]} family"
    assert code == 2 and out == ""
    assert err == f"error: {flag} is an option of the {families} only\n"


#: the options of each verify suite (each also takes --tolerance) and of each other command
SUITE_OPTIONS = {
    "lemmas": {"--samples", "--seed"},
    "reducible-lambda": {"--series", "--lambda", "--r", "--N", "--pad"},
    "unitarity": {"--series", "--lambda", "--im-mu", "--mu", "--r", "--N", "--pad", "--path"},
    "homogeneity": {"--series", "--lambda", "--im-mu", "--mu", "--r", "--N", "--pad", "--op", "--path"},
    "normalizer": {"--series", "--lambda", "--im-mu", "--mu", "--r", "--N", "--pad", "--op", "--path"},
    "infinitesimal": {"--series", "--lambda", "--im-mu", "--mu", "--r", "--N", "--pad", "--op", "--step"},
    "weights": {"--series", "--lambda", "--im-mu", "--mu", "--r", "--branch", "--n0", "--n1", "--format"},
    "classify": {"--file", "--lambda", "--mu-re", "--mu-im"},
    "sweep": {"--series", "--lambda-grid", "--im-mu-grid", "--mu-grid", "--suites", "--op", "--path", "--N", "--pad"},
}


@pytest.mark.parametrize("suite", sorted(SUITE_OPTIONS))
def test_verify_suite_help_lists_exactly_its_options(capsys, suite):
    verify = suite in cli.SUITES
    code, out, err = run(capsys, ["verify", suite, "--help"] if verify else [suite, "--help"])
    assert code == 0 and err == ""
    wanted = SUITE_OPTIONS[suite] | {"--help"} | ({"--tolerance"} if verify else set())
    assert set(re.findall(r"(?<![\w-])--[A-Za-z][\w-]*", out)) == wanted


def test_help_lists_every_command_and_suite(capsys):
    # the parser builds only the arguments of the command argv names, but lists every name
    code, out, err = run(capsys, ["--help"])
    assert code == 0 and err == ""
    assert "{weights,verify,classify,sweep}" in out
    for command, text in (
        ("weights", "emit a weight-sequence table"),
        ("verify", "run a verification suite, one JSON report per line"),
        ("classify", "classify a step-(-1) coefficient file"),
        ("sweep", "run suites over a parameter grid, CSV per cell"),
    ):
        assert re.search(rf"^ +{command} +{re.escape(text)}$", out, re.M), command
    code, out, err = run(capsys, ["verify", "--help"])
    assert code == 0 and err == ""
    assert "{homogeneity,unitarity,infinitesimal,reducible-lambda,normalizer,lemmas}" in out


@pytest.mark.parametrize(
    "argv, message",
    [
        (["frobnicate", "--N", "8"], "argument command: invalid choice: 'frobnicate' (choose from 'weights', 'verify', 'classify', 'sweep')"),
        (["verify", "frobnicate", "--N", "8"], "argument suite: invalid choice: 'frobnicate' (choose from "
         "'homogeneity', 'unitarity', 'infinitesimal', 'reducible-lambda', 'normalizer', 'lemmas')"),
        # the parser is built for the first word that is not an option, the one argparse reads
        (["--x", "verify", "lemmas", "--samples", "1"], "unrecognized arguments: --x"),
        (["verify", "--x", "lemmas", "--samples", "1"], "unrecognized arguments: --x"),
    ],
    ids=["command", "suite", "option before the command", "option before the suite"],
)
def test_an_unknown_command_suite_or_option_is_refused_in_one_line(capsys, argv, message):
    code, out, err = run(capsys, argv)
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_bench_command_lines_parse(tmp_path, seed):
    # every CLI operation of the desk, sweep and wide workloads that a correct program
    # answers with a report (exit 0 or 1) must get past the parser that main builds for it
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench"))
    try:
        import workloads
    finally:
        sys.path.pop(0)
    ops = [op for name in ("desk", "sweep", "wide") for op in workloads.BUILDERS[name](seed, str(tmp_path))]
    checked = [op for op in ops if op.kind != "route" and op.exit in (0, 1)]
    assert len(checked) > 50
    for op in checked:
        args = cli.build_parser(list(op.args)).parse_args(list(op.args))
        assert args.command == op.args[0], op.label


def test_family_options_apply_to_their_own_family(capsys):
    # each family takes its own option, and the defaults (Im mu 0.5, r 1) apply when it is left out
    for argv, key, value in (
        (["unitarity", "--series", "principal", "--lambda", "0.3", "--path", "L:0.1"], "mu", [0.35, 0.5]),
        (["unitarity", "--series", "principal", "--lambda", "0.3", "--im-mu", "2", "--path", "L:0.1"], "mu", [0.35, 2.0]),
        (["unitarity", "--series", "complementary", "--lambda", "0.4", "--mu", "0.2", "--path", "L:0.1"], "mu", [0.2, 0.0]),
        (["unitarity", "--series", "reducible", "--lambda", "1", "--path", "L:0.1"], "r", [1.0, 0.0]),
        (["reducible-lambda", "--lambda", "1", "--r", "2"], "r", [2.0, 0.0]),
    ):
        code, out, _ = run(capsys, ["verify", *argv, "--N", "16", "--pad", "4"])
        assert code == 0, argv
        assert json.loads(out.splitlines()[0])["context"][key] == pytest.approx(value), argv


def test_verify_homogeneity_holo_at_large_lambda(capsys):
    # one exponential per path: the composite default path no longer stacks one
    # truncation error per segment (it read 1.4e-6 against the 1e-6 tolerance)
    code, out, _ = run(capsys, ["verify", "homogeneity", "--series", "holo", "--lambda=40"])
    reports = [json.loads(line) for line in out.strip().splitlines()]
    assert code == 0 and len(reports) == 4
    assert max(r["value"] for r in reports) <= 1e-7


def test_verify_non_finite_im_mu_exit_two(capsys):
    argv = ["verify", "unitarity", "--series", "principal", "--lambda", "0.3", "--im-mu=nan"]
    code, out, err = run(capsys, argv)
    assert code == 2 and out == ""
    assert err == "error: lam and mu must be finite, got lam=0.3, mu=(0.35+nanj)\n"


@pytest.mark.parametrize("im_mu", ["1e9", "1e12", "1e13"])
def test_verify_unitarity_at_large_im_mu(capsys, im_mu):
    # the exponential pairs Hr's eigenvalues as +-lambda by construction, so no rounding of a
    # computed spectrum of norm ~|Im mu| can leave its parity blocks unpaired
    argv = ["verify", "unitarity", "--series", "principal", "--lambda", "0.3", "--im-mu", im_mu, "--N", "64"]
    code, out, err = run(capsys, argv)
    reports = [json.loads(line) for line in out.strip().splitlines()]
    assert code == 0 and err == "" and reports
    assert max(r["value"] for r in reports) <= 1e-13


def test_certificate_suites_call_no_inverse_solve_or_resolvent(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("no CLI certificate may invert or solve")

    for module, name in ((np.linalg, "inv"), (np.linalg, "solve"), (numkernel, "solve"),
                         (homogeneity, "solve"), (homogeneity, "mobius_of_operator")):
        monkeypatch.setattr(module, name, refuse)
    family = ["--series", "principal", "--lambda", "0.3", "--im-mu", "0.7", "--N", "32"]
    for suite in ("homogeneity", "normalizer"):
        code, out, _ = run(capsys, ["verify", suite, *family])
        assert code == 0 and len(out.splitlines()) == 4, suite
    code, out, _ = run(capsys, ["sweep", "--series", "holo", "--lambda-grid", "1,2", "--suites", "unitarity,homogeneity",
                                "--N", "32"])
    assert code == 0 and out.count(",pass") == 2


def test_numerical_failures_exit_three(capsys, monkeypatch):
    def boom(args):
        raise NumericsError("synthetic failure")

    monkeypatch.setattr(cli, "_suite_lemmas", boom)
    code, _, err = run(capsys, ["verify", "lemmas"])
    assert code == 3
    assert "numerical failure" in err


# ---------------------------------------------------------------- classify


def write_coeffs(tmp_path, name, rows):
    path = tmp_path / name
    path.write_text("n,re,im\n" + "\n".join(rows) + "\n")
    return str(path)


def test_classify_constant_file(capsys, tmp_path):
    path = write_coeffs(tmp_path, "const.csv", [f"{n},1.0,0.0" for n in range(-10, 11)])
    code, out, _ = run(capsys, ["classify", "--file", path, "--lambda", "0.3", "--mu-re", "0.35", "--mu-im", "0.7"])
    assert code == 0
    assert json.loads(out)["branch"] == "T2branch"


def test_classify_rational_file(capsys, tmp_path):
    lam, mu = 0.3, complex(0.35, 0.7)
    rows = []
    for n in range(-10, 11):
        a = (lam + mu + n) / (n + 1.0 - mu)
        rows.append(f"{n},{a.real!r},{a.imag!r}")
    path = write_coeffs(tmp_path, "rational.csv", rows)
    code, out, _ = run(capsys, ["classify", "--file", path, "--lambda", "0.3", "--mu-re", "0.35", "--mu-im", "0.7"])
    assert code == 0
    assert json.loads(out)["branch"] == "T3branch"


def test_classify_quadratic_is_neither_exit_one(capsys, tmp_path):
    path = write_coeffs(tmp_path, "quad.csv", [f"{n},{float(n * n)!r},0.0" for n in range(-10, 11)])
    code, out, _ = run(capsys, ["classify", "--file", path, "--lambda", "0.3", "--mu-re", "0.35", "--mu-im", "0.7"])
    assert code == 1
    assert json.loads(out)["branch"] == "neither"


@pytest.mark.parametrize("row", ["1,nan", "1,1.0,inf"])
def test_classify_non_finite_coefficient_exit_two(capsys, tmp_path, row):
    path = write_coeffs(tmp_path, "nonfinite.csv", ["0,1.0,0.0", row, "2,1.0,0.0"])
    code, out, err = run(capsys, ["classify", "--file", path, "--lambda", "0.3", "--mu-re", "0.35"])
    assert code == 2 and out == ""
    assert err == "error: non-finite coefficient at n=1\n"


def test_classify_non_finite_lambda_exit_two(capsys, tmp_path):
    path = write_coeffs(tmp_path, "const.csv", [f"{n},1.0,0.0" for n in range(-10, 11)])
    code, out, err = run(capsys, ["classify", "--file", path, "--lambda", "nan", "--mu-re", "0.35"])
    assert code == 2 and out == ""
    assert err == "error: lam and mu must be finite, got lam=nan, mu=(0.35+0j)\n"


def test_classify_refuses_a_repeated_n(capsys, tmp_path):
    # the last row for n = 0 used to win silently, and the constant family read as neither
    path = write_coeffs(tmp_path, "repeat.csv", [f"{n},1.0,0.0" for n in range(-5, 6)] + ["0,2.0,0.0"])
    code, out, err = run(capsys, ["classify", "--file", path, "--lambda", "0.3", "--mu-re", "0.35"])
    assert code == 2 and out == ""
    assert err == "error: malformed coefficient file: n=0 appears in more than one row\n"


def test_classify_names_a_row_of_the_wrong_width_once(capsys, tmp_path):
    # the bench's malformed file: the row's message used to carry a second prefix
    path = tmp_path / "malformed.csv"
    path.write_text("n,re,im\n0,1.0,0.0,7\n")
    code, out, err = run(capsys, ["classify", "--file", str(path), "--lambda", "0.3", "--mu-re", "0.35"])
    assert code == 2 and out == ""
    assert err == "error: malformed coefficient file: row '0,1.0,0.0,7' has 4 fields, not 2 or 3\n"


def test_classify_malformed_file_exit_two(capsys, tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("n,re\n0,not-a-number\n")
    code, _, err = run(capsys, ["classify", "--file", str(path), "--lambda", "0.3", "--mu-re", "0.35"])
    assert code == 2 and "error" in err


def test_classify_reads_a_file_saved_with_a_byte_order_mark(capsys, tmp_path):
    # a UTF-8 export that starts with U+FEFF used to read its header as n = '\ufeffn' and exit 2
    path = tmp_path / "bom.csv"
    path.write_text("n,re,im\n" + "".join(f"{n},1.0,0.0\n" for n in range(-10, 11)), encoding="utf-8-sig")
    code, out, err = run(capsys, ["classify", "--file", str(path), "--lambda", "0.3", "--mu-re", "0.35", "--mu-im", "0.7"])
    assert (code, err) == (0, "")
    assert json.loads(out)["branch"] == "T2branch"


# ---------------------------------------------------------------- sweep


def test_sweep_complementary_midpoints(capsys):
    code, out, _ = run(
        capsys,
        ["sweep", "--series", "complementary", "--lambda-grid=-0.5,0,0.5", "--suites", "unitarity"],
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("series,lambda,mu_re,mu_im")
    assert len(lines) == 4
    assert all(line.endswith("pass") for line in lines[1:])
    assert lines[2].split(",")[2] == "0.5"  # lam = 0 midpoint


def test_sweep_complementary_midpoint_outside_the_family_is_an_error_row(capsys):
    code, out, err = run(capsys, ["sweep", "--series", "complementary", "--lambda-grid", "0.5,1.5"])
    assert code == 1 and err == ""
    lines = out.strip().splitlines()
    assert len(lines) == 3 and lines[1].endswith(",pass")
    assert lines[2] == (
        "complementary,1.5,nan,0,64,16,unitarity,nan,error: the complementary family requires lam in (-1, 1)"
    )


@pytest.mark.parametrize("series, lam", [("holo", 2), ("antiholo", 2), ("principal", 0.3), ("complementary", 0.2), ("reducible", 0.5)])
def test_index_set_table_is_the_index_set_of_each_family(series, lam):
    # verify's and sweep's windows read the table, each family's RepnParams its own
    mu = 0.3 if series == "complementary" else None
    assert cli._realization(series, lam, mu=mu).params.index_set == cli._INDEX_SET[series]


@pytest.mark.parametrize("series, grid", [("holo", "1,2"), ("principal", "0.3"), ("complementary", "0.2")])
def test_sweep_runs_both_suites_on_the_window_of_each_family(capsys, series, grid):
    code, out, err = run(capsys, ["sweep", "--series", series, "--lambda-grid", grid, "--suites", "unitarity,homogeneity", "--N", "16"])
    assert (code, err) == (0, "")
    rows = out.strip().splitlines()[1:]
    assert len(rows) == len(grid.split(",")) and all(row.endswith(",pass") for row in rows)


def test_sweep_offers_only_holo_principal_and_complementary(capsys):
    code, out, err = run(capsys, ["sweep", "--series", "antiholo", "--lambda-grid", "1,2"])
    assert code == 2 and out == "" and "invalid choice: 'antiholo'" in err


def test_sweep_operator_is_checked_against_the_series(capsys):
    code, out, err = run(capsys, ["sweep", "--series", "holo", "--lambda-grid", "2", "--suites", "homogeneity", "--op", "T1star"])
    assert code == 2 and out == ""
    assert err == "error: T1star is not certified against the holo family, which takes T1\n"


@pytest.mark.parametrize("window, message", [
    (["--N", "8", "--pad", "20"], "padding must satisfy 0 <= padding < N"),
    (["--N", "0"], "window size N must be at least 1"),
])
def test_sweep_checks_its_window_before_the_header(capsys, window, message):
    # the window depends on the series, --N and --pad alone: one refusal, not one error row per cell
    code, out, err = run(capsys, ["sweep", "--series", "holo", "--lambda-grid", "1,2", *window])
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_sweep_empty_grid(capsys):
    # a sweep that certifies nothing is refused, not passed with a bare header
    code, out, err = run(capsys, ["sweep", "--series", "principal", "--lambda-grid", ""])
    assert code == 2 and out == ""
    assert err == "error: --lambda-grid names no value, so the sweep would certify nothing\n"


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["--series", "holo"], "--lambda-grid"),
        (["--series", "holo", "--lambda-grid=,"], "--lambda-grid"),
        (["--series", "principal", "--lambda-grid=0.2", "--im-mu-grid="], "--im-mu-grid"),
        (["--series", "complementary", "--lambda-grid=0.2", "--mu-grid="], "--mu-grid"),
    ],
    ids=("no lambda grid", "empty lambda grid", "empty Im mu grid", "empty mu grid"),
)
def test_sweep_refuses_an_empty_grid(capsys, argv, flag):
    code, out, err = run(capsys, ["sweep", *argv])
    assert code == 2 and out == ""
    assert err == f"error: {flag} names no value, so the sweep would certify nothing\n"


def test_sweep_principal_grid(capsys):
    grid = ",".join(f"{v:.1f}" for v in [x / 10 for x in range(-9, 11)])
    code, out, _ = run(
        capsys,
        ["sweep", "--series", "principal", f"--lambda-grid={grid}", "--im-mu-grid", "0.5,2",
         "--suites", "unitarity", "--path", "L:0.1"],
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 1 + 20 * 2
    assert all(line.endswith("pass") for line in lines[1:])


def test_sweep_empty_interior_reports_error_cell(capsys):
    code, out, err = run(capsys, ["sweep", "--series", "holo", "--lambda-grid", "1", "--N", "4", "--pad", "3"])
    assert code == 1 and err == ""
    lines = out.strip().splitlines()
    assert len(lines) == 2
    assert lines[1].endswith(",nan,error: padding 3 leaves no interior in a size-5 window")


def test_sweep_builds_one_realization_per_cell_and_path(capsys, monkeypatch):
    calls = []
    along_path = Realization.along_path

    def counting(self, path, w):
        calls.append(path.describe())
        return along_path(self, path, w)

    monkeypatch.setattr(Realization, "along_path", counting)
    code, out, _ = run(
        capsys,
        ["sweep", "--series", "principal", "--lambda-grid", "0.2,0.4", "--suites", "unitarity,homogeneity",
         "--N", "32", "--pad", "12"],
    )
    assert code == 0
    assert len(out.strip().splitlines()) == 1 + 2
    assert len(calls) == 2 * len(cli.DEFAULT_PATHS)


@pytest.mark.parametrize("flag", ["--lambda-grid", "--im-mu-grid", "--mu-grid"])
def test_sweep_malformed_grid_exit_two(capsys, flag):
    series = "complementary" if flag == "--mu-grid" else "principal"
    grids = {"--lambda-grid": "0.2", flag: "abc"}
    code, out, err = run(capsys, ["sweep", "--series", series, *(f"{k}={v}" for k, v in grids.items())])
    assert code == 2 and out == ""
    assert err == f"error: {flag} takes comma-separated numbers, got 'abc'\n"


@pytest.mark.parametrize(
    "extra, message",
    [
        (["--suites", "unitarity,bogus"], "error: sweep supports suites unitarity,homogeneity; got 'bogus'"),
        (["--path", "L:abc"], "error: malformed time in path segment 'L:abc'; expected a number"),
    ],
    ids=("suite", "path"),
)
def test_sweep_argument_errors_exit_two_before_the_header(capsys, extra, message):
    code, out, err = run(capsys, ["sweep", "--series", "principal", "--lambda-grid", "0.2,0.4", *extra])
    assert code == 2 and out == ""
    assert err == message + "\n"


def test_sweep_cell_is_the_max_of_the_verify_reports(capsys):
    window = ["--N", "32", "--pad", "12"]
    values = []
    for suite in ("unitarity", "homogeneity"):
        argv = ["verify", suite, "--series", "principal", "--lambda", "0.2", "--im-mu", "0.7", *window]
        code, out, _ = run(capsys, argv)
        assert code == 0
        values += [json.loads(line)["value"] for line in out.splitlines()]
    argv = ["sweep", "--series", "principal", "--lambda-grid", "0.2", "--im-mu-grid", "0.7",
            "--suites", "unitarity,homogeneity", *window]
    code, out, _ = run(capsys, argv)
    assert code == 0
    assert float(out.splitlines()[1].split(",")[7]) == max(values)


# ---------------------------------------------------------------- determinism


@pytest.mark.parametrize(
    "argv, code",
    [
        (["verify", "homogeneity", "--series", "holo", "--lambda", "2"], 0),
        (["verify", "unitarity", "--series", "principal", "--lambda", "0.3"], 0),
        (["verify", "infinitesimal", "--series", "complementary", "--lambda", "0.2", "--mu", "0.4"], 0),
        (["verify", "reducible-lambda", "--lambda", "1"], 0),
        (["verify", "normalizer", "--series", "antiholo", "--lambda", "2"], 0),
        (["verify", "homogeneity", "--series", "reducible", "--lambda", "0.5"], 1),
        (["verify", "lemmas", "--samples", "3"], 0),
        (["sweep", "--series", "principal", "--lambda-grid", "0.2,0.4", "--suites", "unitarity,homogeneity"], 0),
    ],
    ids=("homogeneity", "unitarity", "infinitesimal", "reducible-lambda", "normalizer", "reducible off 1",
         "lemmas", "sweep"),
)
def test_no_command_scans_an_operator_for_its_band(capsys, monkeypatch, argv, code):
    # every operator a command builds states its band; only outside arrays are scanned
    monkeypatch.setattr(numkernel, "_scan", lambda data: pytest.fail("an operator was scanned for its band"))
    window = [] if argv[1] == "lemmas" else ["--N", "32", "--pad", "12"]  # lemmas reads no window
    assert run(capsys, [*argv, *window])[0] == code


def test_identical_runs_are_byte_identical(capsys):
    argv = ["verify", "lemmas", "--samples", "25", "--seed", "7"]
    _, first, _ = run(capsys, argv)
    _, second, _ = run(capsys, argv)
    assert first == second

    argv = ["sweep", "--series", "complementary", "--lambda-grid", "0.4", "--suites", "unitarity,homogeneity"]
    _, first, _ = run(capsys, argv)
    _, second, _ = run(capsys, argv)
    assert first == second


def test_reports_carry_reproducing_context(capsys):
    code, out, _ = run(
        capsys,
        ["verify", "unitarity", "--series", "principal", "--lambda", "0.3", "--im-mu", "0.5"],
    )
    assert code == 0
    for line in out.strip().splitlines():
        ctx = json.loads(line)["context"]
        assert {"series", "lam", "mu", "N", "padding", "path"} <= set(ctx)


def test_cli_import_does_not_load_scipy():
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    probe = "import sys, mobshift.cli; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_cli_import_loads_every_traced_module_and_no_dataclasses():
    # the tracer looks each module of bench/tracer.py's TARGETS up in sys.modules after
    # importing mobshift.cli, so a module imported lazily would fail a traced bench run;
    # dataclasses compiles methods per class at import, which every process would pay
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench"))
    try:
        import tracer
    finally:
        sys.path.pop(0)
    modules = sorted({f"mobshift.{target.name.partition('.')[0]}" for target in tracer.TARGETS})
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    probe = f"import sys, mobshift.cli; print([m for m in {modules!r} if m not in sys.modules], 'dataclasses' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert len(modules) > 5
    assert out.stdout.strip() == "[] False"


def test_verify_lemmas_does_not_load_numpy_random():
    # the samples come from the standard library's generator; numpy.random costs its import
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    probe = "import sys, mobshift.cli; code = mobshift.cli.main(['verify', 'lemmas', '--samples', '3']); print(code, 'numpy.random' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip().splitlines()[-1] == "0 False"


@pytest.mark.parametrize("suite, callers", [("homogeneity", ["mat_exp"]), ("infinitesimal", [])])
def test_cli_keeps_shifts_grams_and_generators_as_bands(capsys, monkeypatch, suite, callers):
    # T, the Gram and the generators stay bands: the one complex array of window shape is R,
    # which mat_exp returns (the eigh's Hr is real)
    size, seen = 2 * 128 + 1, []
    for name in ("zeros", "empty", "zeros_like"):
        def spy(*args, _allocate=getattr(np, name), **kwargs):
            out = _allocate(*args, **kwargs)
            if out.shape == (size, size) and np.iscomplexobj(out):
                seen.append(sys._getframe(1).f_code.co_name)
            return out

        monkeypatch.setattr(np, name, spy)
    argv = ["verify", suite, "--series", "principal", "--lambda", "0.3", "--N", "128", "--pad", "32"]
    assert run(capsys, argv + (["--path", "L:0.1"] if suite == "homogeneity" else []))[0] == 0
    assert seen == callers
