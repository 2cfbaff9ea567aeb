"""What the benchmark under ``bench/`` needs of the package.

The tracer wraps functions by name and the route operation imports
``Realization``, ``RepnParams`` and ``circle_rep_matrix``; a rename that
breaks either fails here rather than in a later benchmark run.  These tests
only run the bench scripts; they change nothing under ``bench/``.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"


def run_script(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True, timeout=300)


def test_bench_selfcheck_passes():
    # installs the tracer over every TARGETS name and runs one traced verify
    out = run_script(str(BENCH / "selfcheck.py"))
    assert out.returncode == 0, out.stdout + out.stderr
    assert out.stdout.splitlines()[-1] == "selfcheck: ok"


def test_bench_route_op_agrees_and_traces(tmp_path):
    request = {"index_set": "bilateral", "lam": 0.3, "mu": [0.35, 0.5], "N": 32, "pad": 12, "path": "M:0.1"}
    spans_path = tmp_path / "spans.json"
    out = run_script(str(BENCH / "child.py"), "route", json.dumps(request), str(spans_path), "0")
    assert out.returncode == 0, out.stderr
    reply = json.loads(out.stdout)
    assert 0.0 <= reply["gap"] <= 1e-7
    names = {span[0] for span in json.loads(spans_path.read_text())}
    assert {"repn.Realization.along_path", "repn.circle_rep_matrix", "repn.generator_matrix"} <= names


def test_traced_unitarity_sizes_the_exponential_and_builds_the_generator(tmp_path):
    # work_n3 needs the size of mat_exp's operand, which the tracer reads from its dense
    # array; the generator_matrix span is where the generator build is charged
    spans_path = tmp_path / "spans.json"
    argv = ["verify", "unitarity", "--series", "principal", "--lambda", "0.3", "--N", "32", "--pad", "8", "--path", "L:0.1"]
    out = run_script(str(BENCH / "child.py"), "cli", str(spans_path), "0", *argv)
    assert out.returncode == 0, out.stderr
    spans = json.loads(spans_path.read_text())
    assert [span[6] for span in spans if span[0] == "numkernel.mat_exp"] == [2 * 32 + 1]
    assert "repn.generator_matrix" in {span[0] for span in spans}


def test_traced_normalizer_builds_no_r(tmp_path):
    # the normalizer conjugates T by the parity blocks of L's spectrum: the trace holds
    # its span and neither the exponential nor the path's R
    spans_path = tmp_path / "spans.json"
    argv = ["verify", "normalizer", "--series", "principal", "--lambda", "0.3", "--N", "32", "--path", "L:0.1"]
    out = run_script(str(BENCH / "child.py"), "cli", str(spans_path), "0", *argv)
    assert out.returncode == 0, out.stderr
    names = {span[0] for span in json.loads(spans_path.read_text())}
    assert "inductive.normalizer_defect" in names
    assert not names & {"numkernel.mat_exp", "repn.Realization.along_path"}


def test_traced_infinitesimal_forms_one_flow_and_no_r(tmp_path):
    # the suite reads its four relations off one flow of L, conjugated by the parity blocks
    # of L's spectrum: the trace holds one span of each and neither the exponential nor R
    spans_path = tmp_path / "spans.json"
    argv = ["verify", "infinitesimal", "--series", "principal", "--lambda", "0.3", "--N", "32"]
    out = run_script(str(BENCH / "child.py"), "cli", str(spans_path), "0", *argv)
    assert out.returncode == 0, out.stderr
    names = [span[0] for span in json.loads(spans_path.read_text())]
    assert names.count("homogeneity.infinitesimal_reports") == 1
    assert names.count("homogeneity.kappa_flow_derivative") == 1
    assert not set(names) & {"numkernel.mat_exp", "repn.Realization.along_path"}
