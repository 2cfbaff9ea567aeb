import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from mobshift import cli, homogeneity, numkernel, repn, specialfn
from mobshift.errors import NumericsError
from mobshift.numkernel import OperatorMatrix
from mobshift.repn import Realization


def run(capsys, argv):
    code = cli.main(argv)
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


def test_verify_incompatible_operator_exit_two(capsys):
    code, _, err = run(
        capsys,
        ["verify", "homogeneity", "--series", "principal", "--lambda", "0.3", "--op", "T1"],
    )
    assert code == 2 and "error" in err


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
    Realization.generator.cache_clear()
    try:
        code, out, err = run(capsys, ["verify", "unitarity", "--series", "holo", "--lambda", "2"])
    finally:
        Realization.generator.cache_clear()  # its generators were built from the wrong norms
    assert code == 3 and out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("numerical failure: generator is not skew-Hermitian (residue ")


def test_verify_rejects_a_nan_coupling(capsys):
    code, out, err = run(capsys, ["verify", "unitarity", "--series", "reducible", "--lambda", "1", "--r", "nan"])
    assert code == 2 and out == ""
    assert err == "error: coupling |r| must be a number not exceeding 10.0\n"


def test_out_of_memory_exits_three(capsys, monkeypatch):
    # stands in for the allocation a huge window (--N 100000) asks for; nothing that large is allocated
    def exhausted(X, t=1.0):
        raise MemoryError("Unable to allocate 149. GiB for an array with shape (100001, 100001) and data type complex128")

    monkeypatch.setattr(repn, "mat_exp", exhausted)
    code, out, err = run(capsys, ["verify", "unitarity", "--series", "holo", "--lambda", "1"])
    assert code == 3 and out == ""
    assert err == (
        "numerical failure: out of memory (Unable to allocate 149. GiB for an array with shape"
        " (100001, 100001) and data type complex128)\n"
    )


def test_verify_non_finite_im_mu_exit_two(capsys):
    argv = ["verify", "unitarity", "--series", "principal", "--lambda", "0.3", "--im-mu=nan"]
    code, out, err = run(capsys, argv)
    assert code == 2 and out == ""
    assert err == "error: lam and mu must be finite, got lam=0.3, mu=(0.35+nanj)\n"


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

    monkeypatch.setitem(cli._SUITE_RUNNERS, "lemmas", boom)
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


def test_classify_malformed_file_exit_two(capsys, tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("n,re\n0,not-a-number\n")
    code, _, err = run(capsys, ["classify", "--file", str(path), "--lambda", "0.3", "--mu-re", "0.35"])
    assert code == 2 and "error" in err


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


def test_sweep_operator_is_checked_against_the_series(capsys):
    code, out, err = run(capsys, ["sweep", "--series", "holo", "--lambda-grid", "2", "--op", "T1star"])
    assert code == 2 and out == ""
    assert err == "error: T1star is certified against the anti-holomorphic (sharp) family\n"


def test_sweep_empty_grid(capsys):
    code, out, _ = run(capsys, ["sweep", "--series", "principal", "--lambda-grid", ""])
    assert code == 0
    assert out.strip().splitlines() == ["series,lambda,mu_re,mu_im,N,padding,suites,max_defect,status"]


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
