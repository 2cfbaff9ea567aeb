import gc
import json
import math
import os
import re
import signal
import subprocess
import sys
import warnings

import numpy as np
import pytest

from mobshift import cli, homogeneity, inductive, numkernel, repn, specialfn
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


def test_weights_of_the_hardy_space_are_exactly_one(capsys):
    # each norm ratio is one correctly rounded division (n + 1)/(n + 1)
    code, out, err = run(capsys, ["weights", "--series", "holo", "--lambda", "1", "--n0", "0", "--n1", "1000"])
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert (code, err, len(rows)) == (0, "", 1001)
    assert all(real == mag == "1" for _, real, _, mag in rows)


def test_weights_refuse_the_reducible_shifts_coefficient_pole(capsys):
    # the table reads the shift's coefficients, so it refuses the pole verify homogeneity refuses
    family = ["--series", "reducible", "--lambda", "1.9999999999999998"]
    code, out, err = run(capsys, ["weights", *family, "--n0", "-3", "--n1", "-1"])
    verified = run(capsys, ["verify", "homogeneity", *family, "--N", "8", "--pad", "2"])
    assert (code, out, err) == verified == (2, "", "error: coefficient pole at n=-2 for lam=1.9999999999999998\n")


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


def test_weights_tabulate_only_the_t2_branch_of_the_complementary_family(capsys):
    # the rule is the series', not the realization's: the same parameters named principal
    # (Im mu = 0 on the coincidence line) print their T3 rows
    args = ["--lambda", "0.4", "--branch", "T3", "--n0", "0", "--n1", "1"]
    code, out, err = run(capsys, ["weights", "--series", "complementary", "--mu", "0.3", *args])
    assert (code, out, err) == (2, "", "error: only the T2 branch is tabulated for the complementary family\n")
    code, out, err = run(capsys, ["weights", "--series", "principal", "--im-mu", "0", *args])
    assert (code, err) == (0, "") and out.splitlines()[0] == "n,re,im,abs" and len(out.splitlines()) == 3


@pytest.mark.parametrize("mu", ["1e-13", "1e-17"])
@pytest.mark.parametrize(
    "argv",
    [["verify", "unitarity"], ["verify", "homogeneity", "--op", "T2"], ["verify", "normalizer", "--op", "T2"],
     ["weights", "--n0", "-3", "--n1", "2"]],
    ids=["unitarity", "homogeneity T2", "normalizer T2", "weights"],
)
def test_the_complementary_family_runs_at_its_mu_to_zero_edge(capsys, argv, mu):
    # both mu lie inside (0, 0.7) at lam = 0.3; the norm ratio's numerator 1 - mu + n used to
    # cancel at n = -1, to a skew residue of 8.2e-11 (exit 3) at 1e-13 and a ratio of -0 (exit 2)
    # at 1e-17; n + 1 - mu is exactly -mu there
    code, out, err = run(capsys, [*argv, "--series", "complementary", "--lambda", "0.3", "--mu", mu])
    assert (code, err) == (0, "")
    if argv[0] == "weights":
        row = next(line for line in out.splitlines() if line.startswith("-1,"))
        assert float(row.split(",")[3]) == pytest.approx(math.sqrt(float(mu) / (0.7 - float(mu))), rel=1e-12)


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
    [("antiholo", "1e-17", "-1"), ("holo", "1e-320", "0"), ("reducible", "5e-324", "-1")],
    ids=("1 - lam + n rounds to 0", "the first ratio overflows", "the reducible ratio overflows"),
)
def test_weights_refuse_what_verify_refuses(capsys, series, lam, n0, fmt):
    # the weights are square roots of the Gram's norm ratios: a table is finite, and a
    # family whose Gram verify refuses is refused with the same exit code (2 outside the
    # domain, 3 for a ratio that overflows), not a traceback
    code, out, err = run(capsys, ["weights", "--series", series, "--lambda", lam, "--n0", n0, "--n1", str(int(n0) + 1), "--format", fmt])
    verified = run(capsys, ["verify", "unitarity", "--series", series, "--lambda", lam, "--N", "8", "--pad", "2"])[0]
    if verified in (2, 3):
        assert (code, out) == (verified, "") and len(err.splitlines()) == 1
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


@pytest.mark.parametrize(
    "argv, err",
    [
        (["verify", "lemmas", "--samples", "100001"], "error: --samples must not exceed 100000\n"),
        (["verify", "lemmas", "--samples", "100000000000"], "error: --samples must not exceed 100000\n"),
        (["weights", "--series", "holo", "--lambda", "2", "--n0", "0", "--n1", "1000000"],
         "error: --n0 to --n1 spans 1000001 rows, more than 1000000\n"),
        (["weights", "--series", "holo", "--lambda", "2", "--n0", "-100000000000", "--n1", "100000000000"],
         "error: --n0 to --n1 spans 200000000001 rows, more than 1000000\n"),
        (["weights", "--series", "holo", "--lambda", "2", "--n0", str(10**400), "--n1", str(10**400)],
         "error: --n0 and --n1 must lie within +-9007199254740992\n"),
        (["weights", "--series", "principal", "--lambda", "0.3", "--im-mu", "0.7", "--branch", "T3",
          "--n0", str(10**400), "--n1", str(10**400)],
         "error: --n0 and --n1 must lie within +-9007199254740992\n"),
        (["weights", "--series", "reducible", "--lambda", "0.5", "--n0", str(-10**400), "--n1", str(-10**400)],
         "error: --n0 and --n1 must lie within +-9007199254740992\n"),
        (["weights", "--series", "holo", "--lambda", "2", "--n0", str(2**53 + 1), "--n1", str(2**53 + 1)],
         "error: --n0 and --n1 must lie within +-9007199254740992\n"),
    ],
    ids=["lemmas one over", "lemmas huge", "weights one over", "weights huge", "holo n past double range",
         "principal T3 n past double range", "reducible n past double range", "n one past 2**53"],
)
def test_a_count_over_its_limit_exits_two_before_any_work(capsys, monkeypatch, argv, err):
    # a count is bounded up front: a row computed at all fails the test at once instead of
    # running a huge count
    def refuse(*args, **kwargs):
        raise AssertionError("a row was computed")

    monkeypatch.setattr(inductive, "ladder_cancellation", refuse)
    monkeypatch.setattr(cli, "weight_sequence", refuse)
    assert run(capsys, argv) == (2, "", err)


def test_counts_at_their_limits_run_and_help_states_the_limits(capsys, monkeypatch):
    monkeypatch.setattr(cli, "MAX_SAMPLES", 3)
    monkeypatch.setattr(cli, "MAX_WEIGHT_ROWS", 3)
    code, out, _ = run(capsys, ["verify", "lemmas", "--samples", "3"])
    assert code == 0 and len(out.splitlines()) == 6
    assert run(capsys, ["verify", "lemmas", "--samples", "4"])[0] == 2
    weights = ["weights", "--series", "holo", "--lambda", "2", "--n0", "1"]
    code, out, _ = run(capsys, [*weights, "--n1", "3"])
    assert code == 0 and len(out.splitlines()) == 4
    assert run(capsys, [*weights, "--n1", "4"])[0] == 2
    assert "at most 3)" in run(capsys, ["verify", "lemmas", "--help"])[1]
    assert "at most 3 rows" in run(capsys, ["weights", "--help"])[1]


def test_verify_lemmas_prints_each_report_as_it_is_made(capsys, monkeypatch):
    # the reports of a sample are on stdout before the next sample is drawn, so memory does
    # not grow with --samples; the output is that of the reports held in a list
    code, whole, _ = run(capsys, ["verify", "lemmas", "--samples", "5", "--seed", "3"])
    printed, ladder = [], inductive.ladder_cancellation

    def counting(*args):
        printed.append(capsys.readouterr().out.count("\n"))
        return ladder(*args)

    monkeypatch.setattr(inductive, "ladder_cancellation", counting)
    code_streamed, rest, _ = run(capsys, ["verify", "lemmas", "--samples", "5", "--seed", "3"])
    assert printed == [0, 1, 1, 1, 1, 1, 1, 1, 1, 1]
    assert code == code_streamed == 0 and len(whole.splitlines()) == 10 and whole.endswith(rest)


WINDOW_COMMANDS = {
    "homogeneity": ["verify", "homogeneity", "--series", "holo", "--lambda", "2"],
    "unitarity": ["verify", "unitarity", "--series", "principal", "--lambda", "0.3"],
    "infinitesimal": ["verify", "infinitesimal", "--series", "holo", "--lambda", "2"],
    "normalizer": ["verify", "normalizer", "--series", "principal", "--lambda", "0.3"],
    "reducible-lambda": ["verify", "reducible-lambda", "--lambda", "1.5"],
    "sweep": ["sweep", "--series", "holo", "--lambda-grid", "2", "--suites", "unitarity,homogeneity"],
}


@pytest.mark.parametrize("name", sorted(WINDOW_COMMANDS))
def test_a_window_over_max_n_exits_two_before_any_work(capsys, monkeypatch, name):
    # one process at N = 100000000 was killed for memory; a window over MAX_N is refused
    # before any window-sized array: no generator, exponential or shift is built
    def refuse(*args, **kwargs):
        raise AssertionError("a window-sized operator was built")

    for module, attr in ((repn, "mat_exp"), (repn, "generator_matrix"), (repn, "reducible_generator_matrix"),
                         (cli, "canonical_shift"), (cli, "reducible_shift"), (repn, "gram")):
        monkeypatch.setattr(module, attr, refuse)
    argv = WINDOW_COMMANDS[name]
    assert run(capsys, [*argv, "--N", "4097"]) == (2, "", "error: --N must not exceed 4096\n")
    assert run(capsys, [*argv, "--N", "100000000"]) == (2, "", "error: --N must not exceed 4096\n")


NORM_BUILDS = {
    "homogeneity": (["verify", "homogeneity", "--series", "holo", "--lambda", "2"], 1),
    "unitarity": (["verify", "unitarity", "--series", "holo", "--lambda", "2"], 1),
    "normalizer": (["verify", "normalizer", "--series", "principal", "--lambda", "0.3"], 1),
    "infinitesimal": (["verify", "infinitesimal", "--series", "complementary", "--lambda", "0.3", "--mu", "0.4"], 1),
    "sweep": (["sweep", "--series", "holo", "--lambda-grid", "0.5,2", "--suites", "unitarity,homogeneity"], 2),
}


@pytest.mark.parametrize("name", sorted(NORM_BUILDS))
def test_each_command_builds_the_norms_once_per_family_and_window(capsys, monkeypatch, name):
    # every generator, shift and path of a family on one window reads one norm sequence;
    # a sweep builds one family per cell
    built, original = [], specialfn.norm_sq_sequence
    for module in [m for key, m in sys.modules.items() if key.startswith("mobshift")]:
        if getattr(module, "norm_sq_sequence", None) is original:
            monkeypatch.setattr(module, "norm_sq_sequence", lambda p, w: built.append(p) or original(p, w))
    argv, builds = NORM_BUILDS[name]
    assert run(capsys, [*argv, "--N", "32"])[0] == 0
    assert len(built) == builds


@pytest.mark.parametrize("name", sorted(WINDOW_COMMANDS))
def test_a_window_at_max_n_runs_and_help_states_the_limit(capsys, monkeypatch, name):
    monkeypatch.setattr(cli, "MAX_N", 16)
    argv = WINDOW_COMMANDS[name]
    assert run(capsys, [*argv, "--N", "16", "--pad", "4"])[0] in (0, 1)
    assert run(capsys, [*argv, "--N", "17", "--pad", "4"]) == (2, "", "error: --N must not exceed 16\n")
    assert "at most 16)" in run(capsys, [*argv[: 1 if name == "sweep" else 2], "--help"])[1]


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
    for owner, name in ((homogeneity, "kappa_flow_derivative"), (numkernel, "_parity_blocks")):
        monkeypatch.setattr(owner, name, lambda *a, _f=getattr(owner, name), _n=name: calls.append(_n) or _f(*a))
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


def test_verify_t1star_at_tiny_lambda(capsys):
    # T1star's coefficient at n = 1 is 1/lam: no (lam + 1) - 1 cancels to 0 below 1.1e-16
    argv = ["verify", "homogeneity", "--series", "antiholo", "--lambda", "1e-17", "--path", "L:0.1"]
    code, out, err = run(capsys, argv)
    assert (code, err) == (0, "") and len(out.splitlines()) == 1
    # at lam = 1e-320 the ratio 1/lam overflows: every suite refuses with the Gram's reason
    family = ["--series", "antiholo", "--lambda", "1e-320"]
    refusal = run(capsys, ["verify", "unitarity", *family])
    assert refusal[:2] == (3, "") and refusal[2].count("\n") == 1
    assert re.fullmatch(r"numerical failure: norm ratio at n=0 = \S+ / \S+ overflows double precision\n", refusal[2])
    for suite in ("homogeneity", "normalizer", "infinitesimal"):
        assert run(capsys, ["verify", suite, *family]) == refusal, suite


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


def test_verify_refuses_squared_norms_that_underflow_to_subnormals(capsys):
    # holo lam = 200 at N = 3000 leaves 480 squared norms subnormal (the smallest 7e-323), too few
    # digits for the orthonormal basis, a numerical failure; at N = 2048 every one is normal
    # (the smallest 3.6e-291)
    argv = ["verify", "unitarity", "--series", "holo", "--lambda", "200", "--path", "L:0.1", "--N"]
    assert run(capsys, [*argv, "3000"]) == (3, "", GRAM_PAST_THE_DOUBLE_RANGE.format("6.92e-323 to 1"))
    code, out, err = run(capsys, [*argv, "2048"])
    assert code == 0 and err == "" and len(out.splitlines()) == 1


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


#: valid family parameters at the ends of the double range
EXTREMES = {
    "principal im mu 1e307": ["--series=principal", "--lambda=0.3", "--im-mu=1e307"],
    "principal im mu 1e308": ["--series=principal", "--lambda=0.3", "--im-mu=1e308"],
    "holo lambda 1e-310": ["--series=holo", "--lambda=1e-310"],
    "holo lambda 1e150": ["--series=holo", "--lambda=1e150"],
    "antiholo lambda 1e150": ["--series=antiholo", "--lambda=1e150"],
    "complementary mu 1e-300": ["--series=complementary", "--lambda=0.3", "--mu=1e-300"],
    "reducible r 10 at lambda 1": ["--series=reducible", "--lambda=1", "--r=10"],
    "reducible r 10 at lambda 1e-300": ["--series=reducible", "--lambda=1e-300", "--r=10"],
}


#: the one line that refuses squared norms past the normal double range, given their span
GRAM_PAST_THE_DOUBLE_RANGE = "numerical failure: the squared norms span {}, past the normal double range\n"

#: the rows of EXTREMES that every path suite refuses with exit 3 in the same line, numerical
#: failures, not parameters outside the unitary range: 1/lam at n = 0 overflows at
#: lam = 1e-310, and the squared norms underflow to 0 by n = 3 at lam = 1e150
REFUSED_EXTREMES = {
    "holo lambda 1e-310": "numerical failure: norm ratio at n=0 = (1+0j) / (1e-310+0j) overflows double precision\n",
    "holo lambda 1e150": GRAM_PAST_THE_DOUBLE_RANGE.format("0 to 1"),
    "antiholo lambda 1e150": GRAM_PAST_THE_DOUBLE_RANGE.format("0 to 1"),
}

#: valid parameters whose ratios are all finite but whose squared norms leave the normal double
#: range, with the span that the refusal gives: 1/lam times 2 overflows at lam = 1e-307, the
#: norms underflow to 0 by n = 2 at lam = 1e300 and to subnormals from n = 2521 at lam = 200, and
#: 1/mu overflows below n = 0 at the complementary mu = 1e-310
GRAM_RANGE_INPUTS = {
    "holo lambda 1e-307 N 64": (["--series=holo", "--lambda=1e-307", "--N=64"], "1 to inf"),
    "holo lambda 1e300 N 8": (["--series=holo", "--lambda=1e300", "--N=8"], "0 to 1"),
    "holo lambda 200 N 3000": (["--series=holo", "--lambda=200", "--N=3000"], "6.92e-323 to 1"),
    "complementary mu 1e-310 N 8": (["--series=complementary", "--lambda=0.3", "--mu=1e-310", "--N=8"], "1 to inf"),
}


@pytest.mark.parametrize("suite", ["unitarity", "homogeneity", "normalizer", "infinitesimal"])
@pytest.mark.parametrize("name", EXTREMES)
def test_extreme_valid_parameters_give_reports_or_one_line(capsys, name, suite):
    # in process, so a RuntimeWarning is an error here: each run either reports in JSON
    # lines with a silent stderr or refuses with one stderr line
    code, out, err = run(capsys, ["verify", suite, *EXTREMES[name], "--N=8"])
    if name in REFUSED_EXTREMES:
        assert (code, out, err) == (3, "", REFUSED_EXTREMES[name])
    elif code in (0, 1):
        assert err == "" and out and all(isinstance(json.loads(line), dict) for line in out.splitlines())
    else:
        assert code in (2, 3) and out == "" and len(err.splitlines()) == 1, (code, err)


@pytest.mark.parametrize("suite", ["unitarity", "homogeneity", "normalizer", "infinitesimal"])
@pytest.mark.parametrize("name", GRAM_RANGE_INPUTS)
def test_squared_norms_past_the_double_range_exit_three(capsys, name, suite):
    # in process, so numpy's overflow warning would be an error: one line, exit 3, no output
    argv, span = GRAM_RANGE_INPUTS[name]
    assert run(capsys, ["verify", suite, *argv]) == (3, "", GRAM_PAST_THE_DOUBLE_RANGE.format(span))


def test_weights_read_neighbour_ratios_where_the_squared_norms_overflow(capsys):
    code, out, err = run(capsys, ["weights", "--series", "holo", "--lambda", "1e-307", "--n0", "0", "--n1", "3"])
    assert (code, err) == (0, "") and len(out.splitlines()) == 5


@pytest.mark.parametrize("suite", ["unitarity", "homogeneity", "normalizer", "infinitesimal"])
def test_a_spectrum_past_the_double_range_exits_three(capsys, suite):
    # Hr's largest eigenvalues overflow to inf at Im mu = 1e308: refused before any sin, at
    # the first path's L:0.1, or at the flow derivative's step
    code, out, err = run(capsys, ["verify", suite, *EXTREMES["principal im mu 1e308"], "--N=8"])
    t = "0.0001" if suite == "infinitesimal" else "0.1"
    assert (code, out) == (3, "")
    assert err == f"numerical failure: the generator's spectrum times t = {t} overflows double precision\n"



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


def test_classify_a_fit_that_overflows_exits_three_without_a_warning(capsys, tmp_path):
    # every coefficient is finite, but a_2 (mu - 3) is not: the fit used to warn on stderr
    # and print a NaN report with exit 1
    path = write_coeffs(tmp_path, "huge.csv", ["0,1e308,0", "1,1e308,0", "2,-1e308,0", "3,1e308,0"])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, ["classify", "--file", path, "--lambda=0.3", "--mu-re=0.35"])
    assert code == 3 and out == ""
    assert err == "numerical failure: the affine fit of these coefficients overflows double precision\n"


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


def test_classify_refuses_an_n_past_2_to_the_53(capsys, tmp_path):
    # float(n) is exact up to 2**53: a constant file whose last row had n = 99999999999999999999
    # was read as neither (residual 0.65, exit 1)
    rows = [f"{n},1.5,-0.5" for n in range(-3, 4)]
    args = ["--lambda", "0.3", "--mu-re", "0.35", "--mu-im", "0.7"]
    for n in (2**53 + 1, -(2**53 + 1), 99999999999999999999):
        path = write_coeffs(tmp_path, "far.csv", [*rows, f"{n},1.5,-0.5"])
        assert run(capsys, ["classify", "--file", path, *args]) == (2, "", f"error: n={n} must lie within +-9007199254740992\n")
    for n in (2**53, -(2**53)):  # read and fitted, though the fit's digits no longer tell the branches apart there
        code, out, err = run(capsys, ["classify", "--file", write_coeffs(tmp_path, "edge.csv", [*rows, f"{n},1.5,-0.5"]), *args])
        assert code in (0, 1) and err == "" and set(json.loads(out)) == {"a", "b", "residual", "branch", "tie"}


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
    # importing mobshift.cli, so a module that cli binds lazily must be registered there
    # at import, as homogeneity and inductive are (their first attribute read runs them);
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


def test_cli_import_loads_no_numpy_module():
    # numpy is bound lazily: "numpy" itself is registered, but none of it runs until a
    # command reads one of its attributes; test_the_process_entry_prints_what_main_argv_prints
    # checks the commands that never do
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    probe = "import sys, mobshift.cli; print(sorted(m for m in sys.modules if m.startswith('numpy.')))"
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


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


# ---------------------------------------------------------------- process entry


SRC = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
#: the norm ratios off by 1e-6, so that the orthonormal generators are not skew: exit 3
SKEWED_NORMS = (
    "from mobshift import specialfn\n"
    "ratio = specialfn.norm_ratio\n"
    "specialfn.norm_ratio = lambda params, n: ratio(params, n) * (1.0 + 1e-6)\n"
)


def run_process(argv, prelude=""):
    """``python -m mobshift.cli ARGV``, or, after ``prelude``, the same entry by runpy."""
    env = dict(os.environ, PYTHONPATH=SRC)
    if prelude:
        code = prelude + "import runpy\nrunpy.run_module('mobshift.cli', run_name='__main__', alter_sys=True)\n"
        cmd = [sys.executable, "-c", code, *argv]
    else:
        cmd = [sys.executable, "-m", "mobshift.cli", *argv]
    return subprocess.run(cmd, env=env, capture_output=True, timeout=300)


def test_main_with_argv_leaves_the_collector_and_sigpipe_as_they_were(capsys):
    before = gc.isenabled(), gc.get_freeze_count(), signal.getsignal(signal.SIGPIPE) if hasattr(signal, "SIGPIPE") else None
    assert run(capsys, ["verify", "homogeneity", "--series", "holo", "--lambda", "2"])[0] == 0
    assert run(capsys, ["verify", "lemmas", "--samples", "0"])[0] == 2
    after = gc.isenabled(), gc.get_freeze_count(), signal.getsignal(signal.SIGPIPE) if hasattr(signal, "SIGPIPE") else None
    assert after == before


def test_the_process_entry_freezes_the_import_heap_and_turns_the_collector_off():
    # read from an exit handler, which the process entry runs before it leaves by os._exit:
    # gc.get_objects() lists no frozen object, so cli's module dict, alive before the entry's
    # freeze, is not listed; numpy's modules, loaded mid-command, are.  The collector stays off
    for argv, numpy_loaded in (
        (["verify", "lemmas", "--samples", "1"], False),
        (["verify", "homogeneity", "--series", "holo", "--lambda", "2"], True),
    ):
        probe = (
            "import atexit, gc, runpy, sys\n"
            "def state():\n"
            "    cli = vars(sys.modules['__main__'])\n"
            "    frozen = not any(o is cli for o in gc.get_objects())\n"
            "    print(gc.get_freeze_count() > 0, gc.isenabled(), 'numpy.linalg' in sys.modules, frozen)\n"
            "atexit.register(state)\n"
            f"sys.argv = ['mobshift', *{argv!r}]\n"
            "runpy.run_module('mobshift.cli', run_name='__main__', alter_sys=True)\n"
        )
        out = subprocess.run([sys.executable, "-c", probe], env=dict(os.environ, PYTHONPATH=SRC), capture_output=True, text=True)
        assert (out.returncode, out.stdout.splitlines()[-1]) == (0, f"True False {numpy_loaded} True")


def test_the_cycles_a_command_leaves_do_not_grow_with_its_size():
    # why the process entry turns the collector off: what one command leaves in cycles is
    # argparse's and numpy's, a constant, however many samples, rows or refused cells it makes
    probe = (
        "import gc, os, sys\n"
        "from mobshift import cli\n"
        "gc.freeze()\n"
        "gc.disable()\n"
        "out, sys.stdout = sys.stdout, open(os.devnull, 'w')\n"
        "code = cli.main(sys.argv[1:])\n"
        "sys.stdout.close()\n"
        "sys.stdout = out\n"
        "print(code, gc.collect())\n"
    )

    def cycles(argv):
        out = subprocess.run([sys.executable, "-c", probe, *argv], env=dict(os.environ, PYTHONPATH=SRC), capture_output=True, text=True, check=True)
        return out.stdout.split()

    weights = ["weights", "--series", "holo", "--lambda", "2", "--n0", "0"]
    for small, large in (
        (["verify", "lemmas", "--samples", "10"], ["verify", "lemmas", "--samples", "10000"]),
        ([*weights, "--n1", "9"], [*weights, "--n1", "99999"]),
        (["sweep", "--series", "holo", "--lambda-grid=-1"], ["sweep", "--series", "holo", "--lambda-grid=" + ",".join(str(-k) for k in range(1, 11))]),
    ):
        assert cycles(small) == cycles(large), small


#: the process's last stderr line, after the command's own output: the numpy submodules it loaded
NUMPY_AT_EXIT = (
    "import atexit, sys\n"
    "atexit.register(lambda: print(sorted(m for m in sys.modules if m.startswith('numpy.')), file=sys.stderr))\n"
)


@pytest.mark.parametrize(
    "code, argv, prelude",
    [
        (0, ["verify", "homogeneity", "--series", "holo", "--lambda=2", "--op=T1"], ""),
        (1, ["verify", "reducible-lambda", "--lambda", "1.5", "--r", "1"], NUMPY_AT_EXIT),
        (0, ["verify", "reducible-lambda", "--lambda", "1"], NUMPY_AT_EXIT),
        (2, ["verify", "reducible-lambda", "--lambda", "1.9999999999999998"], NUMPY_AT_EXIT),
        (2, ["verify", "reducible-lambda", "--lambda", "1", "--N", "3"], NUMPY_AT_EXIT),
        (2, ["verify", "unitarity", "--series", "holo", "--lambda", "2", "--op", "T1"], NUMPY_AT_EXIT),
        (2, ["verify", "lemmas", "--samples", "100001"], NUMPY_AT_EXIT),
        (3, ["verify", "unitarity", "--series", "holo", "--lambda", "2"], SKEWED_NORMS),
        (2, ["verify", "unitarity", "--series", "principal", "--lambda=1.5"], NUMPY_AT_EXIT),
        (2, ["verify", "unitarity", "--series", "complementary", "--lambda=0.2"], NUMPY_AT_EXIT),
        (2, ["verify", "unitarity", "--series", "holo", "--lambda=2", "--path=L:0.7"], NUMPY_AT_EXIT),
        (2, ["verify", "unitarity", "--series", "holo", "--lambda=2", "--N=0"], NUMPY_AT_EXIT),
        (2, ["verify", "homogeneity", "--series", "holo", "--lambda=2", "--op=T2"], NUMPY_AT_EXIT),
        (2, ["verify", "unitarity", "--series", "reducible", "--lambda=1", "--r=20"], NUMPY_AT_EXIT),
        (2, ["weights", "--series", "holo", "--lambda=2", "--n0=5", "--n1=2"], NUMPY_AT_EXIT),
        (2, ["classify", "--file={tmp}/absent.csv", "--lambda=0.3", "--mu-re=0.35"], NUMPY_AT_EXIT),
        (2, ["classify", "--file={tmp}/malformed.csv", "--lambda=0.3", "--mu-re=0.35"], NUMPY_AT_EXIT),
        (0, ["verify", "lemmas", "--samples=25", "--seed=7"], NUMPY_AT_EXIT),
        (0, ["weights", "--series", "holo", "--lambda=2", "--n0=0", "--n1=12"], NUMPY_AT_EXIT),
        (0, ["weights", "--series", "antiholo", "--lambda=0.7", "--n0=-12", "--n1=0", "--format=json"], NUMPY_AT_EXIT),
        (0, ["weights", "--series", "principal", "--lambda=0.3", "--n0=-6", "--n1=6"], NUMPY_AT_EXIT),
        (0, ["weights", "--series", "principal", "--lambda=0.3", "--n0=-6", "--n1=6", "--branch=T3", "--format=json"], NUMPY_AT_EXIT),
        (0, ["weights", "--series", "complementary", "--lambda=0.3", "--mu=0.2", "--n0=-6", "--n1=6"], NUMPY_AT_EXIT),
        (0, ["weights", "--series", "reducible", "--lambda=0.5", "--r=0.7", "--n0=-6", "--n1=6"], NUMPY_AT_EXIT),
        (0, ["classify", "--file={tmp}/t2.csv", "--lambda=0.3", "--mu-re=0.35", "--mu-im=0.7"], NUMPY_AT_EXIT),
        (0, ["classify", "--file={tmp}/t3.csv", "--lambda=0.3", "--mu-re=0.35", "--mu-im=0.7"], NUMPY_AT_EXIT),
        (1, ["classify", "--file={tmp}/neither.csv", "--lambda=0.3", "--mu-re=0.35", "--mu-im=0.7"], NUMPY_AT_EXIT),
        (3, ["classify", "--file={tmp}/huge.csv", "--lambda=0.3", "--mu-re=0.35"], NUMPY_AT_EXIT),
    ],
    ids=[
        "pass", "seam control", "seam at lambda 1", "seam pole", "seam window N = 3", "argparse refusal",
        "count refusal", "skewed norms", "family parameter",
        "missing mu", "path segment", "window N = 0", "foreign op", "coupling", "weights n0 > n1",
        "classify missing file", "classify malformed file", "lemmas", "weights holo", "weights antiholo json",
        "weights principal", "weights principal T3 json", "weights complementary", "weights reducible",
        "classify t2", "classify t3", "classify neither", "classify overflow",
    ],
)
def test_the_process_entry_prints_what_main_argv_prints(capsys, monkeypatch, tmp_path, code, argv, prelude):
    # the refusals, verify lemmas, verify reducible-lambda, weights and classify form no array,
    # so they must not load numpy at all
    (tmp_path / "malformed.csv").write_text("n,re,im\n0,1.0,0.0,7\n")
    lam, mu = 0.3, complex(0.35, 0.7)
    for name, coefficient in (("t2", lambda n: 1.5 - 0.5j), ("t3", lambda n: (lam + mu + n) / (n + 1.0 - mu)),
                              ("neither", lambda n: complex(n * n))):
        write_coeffs(tmp_path, f"{name}.csv", [f"{n},{coefficient(n).real!r},{coefficient(n).imag!r}" for n in range(-6, 7)])
    write_coeffs(tmp_path, "huge.csv", ["0,1e308,0", "1,1e308,0", "2,-1e308,0", "3,1e308,0"])
    argv = [arg.format(tmp=tmp_path) for arg in argv]
    proc = run_process(argv, prelude)
    err = proc.stderr.decode()
    if prelude == NUMPY_AT_EXIT:
        *lines, numpy_modules = err.splitlines(keepends=True)
        err = "".join(lines)
        assert numpy_modules == "[]\n"
    if prelude == SKEWED_NORMS:
        ratio = specialfn.norm_ratio
        monkeypatch.setattr(specialfn, "norm_ratio", lambda params, n: ratio(params, n) * (1.0 + 1e-6))
    expected = run(capsys, argv)
    assert expected[0] == code
    assert (proc.returncode, proc.stdout.decode(), err) == expected


#: the process's last stderr line: the certificate modules that the command left unexecuted,
#: which still have the lazy loader's class (type() reads it without running the module)
CERTIFICATES_AT_EXIT = (
    "import atexit, sys, types\n"
    "certificates = ('mobshift.homogeneity', 'mobshift.inductive')\n"
    "atexit.register(lambda: print([m for m in certificates if type(sys.modules[m]) is not types.ModuleType], file=sys.stderr))\n"
)
BOTH = ["mobshift.homogeneity", "mobshift.inductive"]


@pytest.mark.parametrize(
    "code, argv, unexecuted",
    [
        (0, ["weights", "--series", "holo", "--lambda=2", "--n0=0", "--n1=3"], BOTH),
        (0, ["weights", "--series", "principal", "--lambda=0.3", "--n0=-2", "--n1=2", "--format=json"], BOTH),
        (2, ["weights", "--series", "holo", "--lambda=2", "--n0=5", "--n1=2"], BOTH),
        (2, ["verify", "unitarity", "--series", "holo", "--lambda=2", "--N=0"], BOTH),
        (2, ["verify", "lemmas", "--samples=0"], BOTH),
        (2, ["verify", "unitarity", "--frobnicate"], BOTH),
        (0, ["verify", "reducible-lambda", "--lambda", "1"], ["mobshift.inductive"]),
        (0, ["verify", "unitarity", "--series", "holo", "--lambda=2", "--N=16", "--pad=4"], BOTH),
        (0, ["sweep", "--series", "holo", "--lambda-grid=2", "--N=16", "--pad=4", "--suites=unitarity"], BOTH),
        (0, ["verify", "infinitesimal", "--series", "holo", "--lambda=2", "--N=16", "--pad=4"], ["mobshift.inductive"]),
        (0, ["sweep", "--series", "holo", "--lambda-grid=2", "--suites=unitarity,homogeneity"], ["mobshift.inductive"]),
        (0, ["verify", "normalizer", "--series", "holo", "--lambda=2", "--N=32"], ["mobshift.homogeneity"]),
        (0, ["verify", "lemmas", "--samples=3"], ["mobshift.homogeneity"]),
        (0, ["classify", "--file={t2}", "--lambda=0.3", "--mu-re=0.35", "--mu-im=0.7"], ["mobshift.homogeneity"]),
    ],
    ids=["weights csv", "weights json", "weights refusal", "window refusal", "count refusal", "argparse refusal",
         "seam", "unitarity", "sweep unitarity", "infinitesimal", "sweep", "normalizer", "lemmas", "classify"],
)
def test_the_process_entry_runs_only_the_certificate_modules_that_the_command_reads(tmp_path, code, argv, unexecuted):
    # cli binds homogeneity and inductive lazily: import registers both, and a module runs
    # (and is compiled) at the first read of one of its names; every report is errors'
    t2 = write_coeffs(tmp_path, "t2.csv", ["0,1.5,-0.5", "1,1.5,-0.5", "2,1.5,-0.5"])
    proc = run_process([arg.format(t2=t2) for arg in argv], CERTIFICATES_AT_EXIT)
    assert proc.returncode == code
    assert proc.stderr.decode().splitlines()[-1] == repr(unexecuted)


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full on this platform")
def test_a_stdout_that_cannot_take_the_output_ends_the_process_with_120():
    # the process entry leaves by os._exit after its own flush, which reports a full stdout
    # as the interpreter's exit would: one "Exception ignored" note and status 120
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    argv = ["weights", "--series", "holo", "--lambda", "2", "--n0", "0", "--n1", "3"]
    with open("/dev/full", "wb") as full:
        proc = subprocess.run([sys.executable, "-m", "mobshift.cli", *argv], env=dict(env, PYTHONPATH=SRC),
                              stdout=full, stderr=subprocess.PIPE, timeout=300)
    assert proc.returncode == 120
    assert proc.stderr.decode().splitlines()[-1] == "OSError: [Errno 28] No space left on device"


@pytest.mark.skipif(not hasattr(signal, "SIGPIPE"), reason="no SIGPIPE on this platform")
def test_a_reader_that_closes_stdout_early_ends_the_process_without_a_traceback():
    # as `mobshift weights ... | head -1`: 20001 rows overrun the pipe, so the process
    # writes after the reader has gone and ends on SIGPIPE, as head and cat do
    argv = ["weights", "--series", "holo", "--lambda", "2", "--n0", "0", "--n1", "20000"]
    proc = subprocess.Popen([sys.executable, "-m", "mobshift.cli", *argv], env=dict(os.environ, PYTHONPATH=SRC),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.readline() == b"n,re,im,abs\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=300) == -signal.SIGPIPE
    assert b"Traceback" not in err and err == b""
