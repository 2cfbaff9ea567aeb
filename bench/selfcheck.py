"""Self-check of the benchmark: its declared schema and its tracer.

    python3 bench/selfcheck.py

Checks that BENCHMARK.json declares the workloads and metrics ``run.py``
reports, that a result line has the expected shape,
and that the tracer restores every binding it replaces and produces spans
whose self time never exceeds their total time.  It never asserts on how
long anything took.  Exits 1 with one line per problem, 0 when all hold.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import TARGETS, Tracer, self_times  # noqa: E402

problems: list[str] = []


def expect(ok: bool, message: str) -> None:
    if not ok:
        problems.append(message)


def check_benchmark_json() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    expect(names == list(workloads.WORKLOADS), f"workloads {names} differ from {workloads.WORKLOADS}")
    e2e = [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]]
    expect(e2e == list(run.END_TO_END), "end_to_end differs from run.END_TO_END")
    for m in spec["end_to_end"]:
        expect(0 < m["bound"] <= 0.25, f"bound of {m['name']} outside (0, 0.25]")
    layer = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    expect(layer == run.per_layer_spec(), "per_layer differs from run.per_layer_spec()")


def check_result_shape() -> None:
    for spec in (run.END_TO_END, run.per_layer_spec()):
        values = {name: 1.5 for name, _, _ in spec}
        line = json.dumps(run.result_json(True, 3, 0, values, spec))
        result = json.loads(line)
        expect(list(result) == ["correct", "attempted", "failed", "metrics"], "result keys")
        expect(set(result["metrics"]) == {n for n, _, _ in spec}, "result metric names")
        for name, unit, _ in spec:
            expect(result["metrics"][name] == {"value": 1.5, "unit": unit}, f"result entry of {name}")
    walls = [float(i) for i in range(100)]
    expect(run.tail(walls) == (89.0, 90.0, 10), f"tail of 100 samples: {run.tail(walls)}")
    expect(run.tail(walls[:39]) == (29.0, 100.0 * 30 / 39, 9), f"tail of 39 samples: {run.tail(walls[:39])}")
    expect(run.tail(walls[:3]) == (2.0, 100.0, 0), f"tail of 3 samples: {run.tail(walls[:3])}")


def _bindings() -> dict:
    """Every function-valued attribute of every mobshift module and class."""
    out = {}
    for name, mod in sorted(sys.modules.items()):
        if name == "mobshift" or name.startswith("mobshift."):
            for attr, value in vars(mod).items():
                if callable(value):
                    out[(name, attr)] = value
                if isinstance(value, type) and value.__module__ == name:
                    for meth, fn in vars(value).items():
                        out[(name, f"{attr}.{meth}")] = fn
    return out


def check_tracer() -> None:
    import mobshift.cli
    from mobshift.mobius import GroupPath
    from mobshift.numkernel import TruncationWindow
    from mobshift.repn import Realization, RepnParams

    before = _bindings()
    tracer = Tracer()
    tracer.install()
    try:
        expect(mobshift.cli.main is not before[("mobshift.cli", "main")], "cli.main was not wrapped")
        expect(
            mobshift.repn.mat_exp is not before[("mobshift.repn", "mat_exp")],
            "the name mat_exp bound in repn was not rebound",
        )
        with contextlib.redirect_stdout(io.StringIO()) as out:
            rc = mobshift.cli.main(["verify", "unitarity", "--series", "principal", "--lambda=0.3", "--N=8", "--pad=2"])
        expect(rc == 0 and out.getvalue().count("\n") == 4, f"traced CLI run gave exit {rc}")
        tracer.op_id = 1
        p = RepnParams("bilateral", 0.3, complex(0.35, 0.5))
        w = TruncationWindow("bilateral", 8, 2)
        path = GroupPath.parse("L:0.1,M:-0.05")
        Realization.plain(p).along_path(path, w)
        mobshift.repn.circle_rep_matrix(p, path, w)  # looked up after install, as callers do
    finally:
        tracer.uninstall()
    after = _bindings()
    changed = [k for k in before if after.get(k) is not before[k]]
    expect(not changed, f"bindings not restored: {changed[:5]}")

    spans = tracer.spans
    names = {s[0] for s in spans}
    for wanted in ("cli.main", "repn.Realization.along_path", "numkernel.mat_exp", "repn.circle_rep_matrix"):
        expect(wanted in names, f"no span for {wanted}")
    expect(spans[0][0] == "cli.main" and spans[0][3] is None, "cli.main is not the first root span")
    own = self_times(spans)
    for i, (span, s) in enumerate(zip(spans, own)):
        expect(0.0 <= s <= span[2] - span[1], f"span {i} ({span[0]}) self time outside [0, total]")
        if span[3] is not None:
            parent = spans[span[3]]
            inside = parent[1] <= span[1] - span[8] and span[2] <= parent[2]
            expect(span[3] < i and inside, f"span {i} and its key time not inside its parent")
    roots = sum(s[2] - s[1] for s in spans if s[3] is None)
    expect(sum(own) <= roots, "self times sum to more than the root spans cover")
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "spans.json")
        tracer.dump(path)
        values, self_sum = run.layer_metrics([path], wall=roots)
    expect(values["cli.main.calls"] == 1, "cli.main.calls != 1")
    expect(values["repn.Realization.along_path.calls"] == 5, "along_path.calls != 5 (4 paths + 1)")
    expect(0.0 < values["numkernel.mat_exp.distinct_ratio"] <= 1.0, "mat_exp.distinct_ratio outside (0, 1]")
    expect(values["numkernel.mat_exp.work_n3"] % 17**3 == 0, "mat_exp.work_n3 is not a sum of 17^3")
    expect({t.name for t in TARGETS} >= names, "span names outside TARGETS")


def main() -> int:
    check_benchmark_json()
    check_result_shape()
    check_tracer()
    for p in problems:
        print(f"selfcheck: {p}")
    print(f"selfcheck: {'ok' if not problems else f'{len(problems)} problem(s)'}")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
