"""mobshift benchmark: time to verdict and certificate throughput.

    python3 bench/run.py --workload {desk,sweep,wide} --seed N \\
        --seconds S --trace {0,1}

Run it from the root of a source checkout; the program is imported from
``src/``.  Each workload is a closed loop: one client issues one operation
at a time.  An operation is one ``python -m mobshift.cli ...`` process, or
in ``wide`` also one process that realizes R(path) by both routes.
Children run with BLAS pinned to one thread; this process imports neither
numpy nor mobshift.

The workload's operation list (``workloads.py``) runs as whole cycles, so
every run measures the same mix; the number of cycles is the one that takes
about ``--seconds`` on the reference machine, at least one.  Every outcome is checked
(``checks.py``); a repeated command must print byte-identical output.

``--trace 0`` reports the end-to-end metrics.  The machine's speed drifts
from second to second with the load its host carries, so after every
operation the run also times a fixed reference task that does not touch
mobshift (``reference.py``), and it reports each operation's time rescaled
to the reference task's nominal speed: measured seconds * nominal / median
of the reference runs nearest that operation.  The measured figures are
printed too.  ``--trace 1`` runs the
operation list once, each operation untraced and again with the outside-in
tracer (``tracer.py``) in the child, and reports the per-layer metrics and
the tracing overhead; its counts repeat exactly from run to run.  In a
traced ``desk`` run the program's known defects also run, as probes apart
from the measured operations (``workloads.desk_probes``).  Both print one
JSON object as the last stdout line; the lines before it, marked ``#``, give
the same numbers for people, with the environment.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import checks
import workloads
from tracer import TARGETS, self_times

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = str(HERE / "child.py")
REFERENCE = str(HERE / "reference.py")

BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_IMPORTS = 9
SCALE_WINDOW = 2  # reference runs on each side that rescale one timing
IMPORTTIME_RUNS = 3
OP_TIMEOUT_S = 150
TAIL_BEYOND = 10


class SetupError(Exception):
    """The program cannot be run from this checkout."""


# -- metric schema -------------------------------------------------------------

END_TO_END = (
    ("setup_s", "s", "lower"),
    ("reports_per_s", "1/s", "higher"),
    ("op_s.p50", "s", "lower"),
    ("op_s.tail", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)


def per_layer_spec() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every metric a traced run reports."""
    spec = []
    for t in TARGETS:
        spec.append((f"{t.name}.calls", "count", "lower"))
        spec.append((f"{t.name}.self_s", "s", "lower"))
        if t.has_children:
            spec.append((f"{t.name}.total_s", "s", "lower"))
        if t.can_raise:
            spec.append((f"{t.name}.failed", "count", "lower"))
        if t.key:
            spec.append((f"{t.name}.distinct_ratio", "ratio", "higher"))
        if t.size:
            spec.append((f"{t.name}.work_n3", "count", "lower"))
    spec += [
        ("import.numpy_s", "s", "lower"),
        ("import.mobshift_s", "s", "lower"),
        ("trace.overhead_frac", "ratio", "lower"),
        ("ops_failed_frac", "ratio", "lower"),
        ("defect_probes.open", "count", "lower"),
    ]
    return spec


def result_json(correct: bool, attempted: int, failed: int, values: dict, spec) -> dict:
    metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in spec}
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


# -- environment -----------------------------------------------------------------


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in BLAS_THREAD_VARS:
        env[var] = "1"
    return env


def probe_environment(env: dict) -> dict:
    proc = subprocess.run(
        [sys.executable, CHILD, "env"], env=env, cwd=ROOT, capture_output=True, text=True, timeout=OP_TIMEOUT_S
    )
    if proc.returncode != 0:
        last = (proc.stderr.strip().splitlines() or ["no output"])[-1]
        raise SetupError(f"cannot import mobshift from {ROOT / 'src'}: {last}")
    info = json.loads(proc.stdout)
    if not Path(info.pop("mobshift_file")).resolve().is_relative_to(ROOT / "src"):
        raise SetupError("mobshift was imported from outside this checkout's src/")
    info["git_sha"] = git_sha()
    info["nproc"] = os.cpu_count()
    info["cpus_usable"] = len(os.sched_getaffinity(0))
    info["blas_threads"] = {var: env[var] for var in BLAS_THREAD_VARS}
    return info


def git_sha() -> str | None:
    try:
        top = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"], capture_output=True, text=True, timeout=10
        )
    except OSError:
        return None
    lines = top.stdout.splitlines()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


@dataclass
class Child:
    rc: int
    stdout: str
    stderr: str
    wall: float
    rss_mb: float


def run_child(cmd: list, env: dict, workdir: str) -> Child:
    """Run one process to its end; its peak memory is its own, from wait4."""
    with tempfile.TemporaryFile(dir=workdir) as out, tempfile.TemporaryFile(dir=workdir) as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=out, stderr=err)
        timer = threading.Timer(OP_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        text = (out.read().decode(errors="replace"), err.read().decode(errors="replace"))
    return Child(proc.returncode, *text, wall, usage.ru_maxrss / 1024.0)


def time_import(env: dict, workdir: str) -> float:
    child = run_child([sys.executable, "-c", "import mobshift.cli"], env, workdir)
    if child.rc != 0:
        raise SetupError("import mobshift.cli failed")
    return child.wall


def time_startup_reference(env: dict, workdir: str) -> float:
    """Wall seconds of one whole ``startup`` reference process."""
    size, rounds = workloads.REFERENCE["startup"]
    child = run_child([sys.executable, REFERENCE, str(size), str(rounds)], env, workdir)
    if child.rc != 0:
        raise SetupError(f"the reference task failed: {child.stderr.strip()[-200:]}")
    return child.wall


@contextlib.contextmanager
def reference_timer(kind: str, env: dict, workdir: str):
    """Yields a function that times one reference run of ``kind``.

    ``startup`` times a whole process, which tracks start-up-bound
    operations.  ``compute`` times only the dense rounds, in one process
    kept for the run: its operations are mostly dense work and barely feel
    the file access of start-up, which slows at other times.
    """
    if kind == "startup":
        yield lambda: time_startup_reference(env, workdir)
        return
    size, rounds = workloads.REFERENCE[kind]
    proc = subprocess.Popen(
        [sys.executable, REFERENCE, "serve"], env=env, cwd=ROOT, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
    )

    def time_rounds() -> float:
        timer = threading.Timer(OP_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            proc.stdin.write(f"{size} {rounds}\n")
            proc.stdin.flush()
            line = proc.stdout.readline()
        except OSError:  # the process is gone: a broken pipe
            line = ""
        finally:
            timer.cancel()
        if not line:
            raise SetupError("the reference process ended early")
        return float(line)

    try:
        time_rounds()  # warm-up: the first rounds also load BLAS
        yield time_rounds
    finally:
        proc.kill()
        proc.wait()


def speed_scales(kind: str, reference_walls: list[list[float]]) -> list[float]:
    """Nominal / measured speed of the machine around each timing.

    ``reference_walls[i]`` are the reference runs right after timing ``i``;
    its scale comes from the median of those after the timings within
    SCALE_WINDOW of it.
    """
    nominal = workloads.REFERENCE_NOMINAL_S[kind]
    scales = []
    for i in range(len(reference_walls)):
        near = reference_walls[max(0, i - SCALE_WINDOW) : i + SCALE_WINDOW + 1]
        scales.append(nominal / statistics.median(w for walls in near for w in walls))
    return scales


def rescaled(walls: list[float], kind: str, reference_walls: list[list[float]]) -> list[float]:
    return [w * s for w, s in zip(walls, speed_scales(kind, reference_walls), strict=True)]


_IMPORTTIME = re.compile(r"import time:\s+(\d+)\s+\|\s+(\d+)\s+\|\s*(\S+)")


def import_times(env: dict) -> tuple[float, float]:
    """Medians of numpy's and mobshift's own cumulative import time, in s."""
    numpy_s, mobshift_s = [], []
    for _ in range(IMPORTTIME_RUNS):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import mobshift.cli"],
            env=env,
            cwd=ROOT,
            capture_output=True,
            text=True,
        )
        cumulative: dict[str, int] = {}
        for m in _IMPORTTIME.finditer(proc.stderr):
            cumulative[m.group(3)] = max(cumulative.get(m.group(3), 0), int(m.group(2)))
        numpy_us = cumulative.get("numpy", 0)
        numpy_s.append(numpy_us * 1e-6)
        mobshift_s.append((cumulative.get("mobshift", 0) + cumulative.get("mobshift.cli", 0) - numpy_us) * 1e-6)
    return statistics.median(numpy_s), statistics.median(mobshift_s)


# -- running operations ---------------------------------------------------------------


@dataclass
class Outcome:
    op: workloads.Op
    op_id: int
    wall: float
    output: str
    reasons: list
    verdicts: int
    rss_mb: float


class Runner:
    """Runs operations, traced or not, and checks each outcome."""

    def __init__(self, env: dict, workdir: str, traced: bool):
        self.env = env
        self.workdir = workdir
        self.traced = traced
        self.span_files: list[str] = []

    def command(self, op: workloads.Op, op_id: int) -> list[str]:
        trace = []
        if self.traced:
            spans = os.path.join(self.workdir, f"spans-{op_id}.json")
            self.span_files.append(spans)
            trace = [spans, str(op_id)]
        if op.kind == "route":
            return [sys.executable, CHILD, "route", json.dumps(dict(op.args)), *trace]
        if self.traced:
            return [sys.executable, CHILD, "cli", *trace, *op.args]
        return [sys.executable, "-m", "mobshift.cli", *op.args]

    def run(self, op: workloads.Op, op_id: int) -> Outcome:
        child = run_child(self.command(op, op_id), self.env, self.workdir)
        if child.wall >= OP_TIMEOUT_S:
            reasons, verdicts = [f"killed after {OP_TIMEOUT_S} s"], 0
        else:
            reasons, verdicts = checks.check_cli(op, child.rc, child.stdout, child.stderr)
        return Outcome(op, op_id, child.wall, child.stdout, reasons, verdicts, child.rss_mb)


def cycles_for(workload: str, seconds: float) -> int:
    """Whole cycles that take about ``seconds`` on the reference machine.

    The count depends only on the arguments, so every run of a workload
    takes the same number of samples.
    """
    return max(1, round(seconds / workloads.NOMINAL_CYCLE_S[workload]))


def run_cycles(runner: Runner, ops: list, cycles: int, reference):
    """Run the op list ``cycles`` times, calling ``reference()`` after each
    operation; returns (outcomes, what each call returned)."""
    outcomes: list[Outcome] = []
    reference_walls: list[list[float]] = []
    for _ in range(cycles):
        for op in ops:
            outcomes.append(runner.run(op, len(outcomes)))
            reference_walls.append(reference())
    return outcomes, reference_walls


def check_repeats(outcomes: list[Outcome], ops: list) -> None:
    """Identical arguments must print identical output (criterion 10)."""
    reference = outcomes[: len(ops)]
    for i, out in enumerate(outcomes):
        first = reference[out.op.repeat_of] if out.op.repeat_of is not None else reference[i % len(ops)]
        if first is not out and out.output != first.output:
            out.reasons.append(f"output differs from the earlier run of {first.op.label!r}")


def tail(samples: list[float]) -> tuple[float, float, int]:
    """Highest percentile with TAIL_BEYOND samples beyond it: (value, percentile, beyond).

    Below 4 * TAIL_BEYOND samples that percentile is under p75, no tail at
    all, so a quarter of the samples beyond it is enough: the maximum alone
    is one sample and moves with the noise of one operation.
    """
    ordered = sorted(samples)
    n = len(ordered)
    beyond = min(TAIL_BEYOND, n // 4)
    return ordered[n - 1 - beyond], 100.0 * (n - beyond) / n, beyond


def layer_metrics(span_files: list[str], wall: float) -> tuple[dict, float]:
    """Per-function counts and times from the span files; also the sum of self times."""
    stats = {t.name: {"calls": 0, "self_s": 0.0, "total_s": 0.0, "failed": 0, "distinct": 0, "work_n3": 0} for t in TARGETS}
    self_sum = 0.0
    for path in span_files:
        with open(path, encoding="utf-8") as fh:
            spans = json.load(fh)
        distinct: dict[str, set] = {}
        for span, own in zip(spans, self_times(spans)):
            name, start, end, _parent, _op, key, size, failed, _key_s = span
            s = stats[name]
            s["calls"] += 1
            s["self_s"] += own
            s["total_s"] += end - start
            s["failed"] += int(failed)
            if size is not None:
                s["work_n3"] += size**3
            if key is not None:
                distinct.setdefault(name, set()).add(key)
            self_sum += own
        # a cache lives in one process, so inputs count as distinct per process
        for name, keys in distinct.items():
            stats[name]["distinct"] += len(keys)
    values = {}
    for t in TARGETS:
        s = stats[t.name]
        values[f"{t.name}.calls"] = s["calls"]
        values[f"{t.name}.self_s"] = s["self_s"]
        values[f"{t.name}.total_s"] = s["total_s"]
        values[f"{t.name}.failed"] = s["failed"]
        values[f"{t.name}.distinct_ratio"] = s["distinct"] / s["calls"] if s["calls"] else 1.0
        values[f"{t.name}.work_n3"] = s["work_n3"]
    if self_sum > wall:
        raise RuntimeError(f"tracer invariant broken: self times sum to {self_sum} s over {wall} s of traced wall")
    return values, self_sum


# -- main -----------------------------------------------------------------------------


def say(text: str) -> None:
    print(f"# {text}", flush=True)


def run_probes(runner: Runner, seed: int) -> int:
    open_defects = 0
    for i, op in enumerate(workloads.desk_probes(seed)):
        outcome = runner.run(op, -1 - i)
        state = "open: " + "; ".join(outcome.reasons) if outcome.reasons else "fixed"
        open_defects += bool(outcome.reasons)
        say(f"defect probe {op.label[len('probe: '):]!r}: {state}")
    return open_defects


def measure_end_to_end(args, env: dict, ops: list, plain: Runner, workdir: str) -> tuple[list, dict]:
    imports, setup_refs = [], []
    for _ in range(SETUP_IMPORTS):
        imports.append(time_import(env, workdir))
        setup_refs.append([time_startup_reference(env, workdir)])
    kind, per_op = workloads.REFERENCE_OF[args.workload]
    cycles = cycles_for(args.workload, args.seconds)
    with reference_timer(kind, env, workdir) as reference:
        outcomes, refs = run_cycles(plain, ops, cycles, lambda: [reference() for _ in range(per_op)])
    check_repeats(outcomes, ops)
    measured = [o.wall for o in outcomes]
    walls = rescaled(measured, kind, refs)
    verdicts = sum(o.verdicts for o in outcomes)
    tail_value, tail_pct, beyond = tail(walls)
    for o, ref, wall in zip(outcomes, refs, walls):
        say(f"op {o.op_id} {o.op.label!r}: {o.wall:.3f} s measured, {wall:.3f} s rescaled, {o.rss_mb:.1f} MB; {kind} reference {' '.join(f'{r:.3f}' for r in ref)} s")
    say(f"{len(outcomes)} operations in {cycles} cycle(s) of {len(ops)}, {sum(measured):.3f} s measured")
    say(f"op_s.tail is p{tail_pct:.1f} of {len(walls)} samples, {beyond} beyond it")
    say(
        f"measured, not rescaled: setup_s {statistics.median(imports):.4f}, reports_per_s {verdicts / sum(measured):.4f}, "
        f"op_s.p50 {statistics.median(measured):.4f}, op_s.tail {tail(measured)[0]:.4f}"
    )
    values = {
        "setup_s": statistics.median(rescaled(imports, "startup", setup_refs)),
        "reports_per_s": verdicts / sum(walls),
        "op_s.p50": statistics.median(walls),
        "op_s.tail": tail_value,
        "peak_rss_mb": max(o.rss_mb for o in outcomes),
    }
    return outcomes, values


def measure_layers(args, env: dict, ops: list, plain: Runner, workdir: str) -> tuple[list, dict]:
    """One cycle, each op run untraced and traced back to back.

    The pair alternates which run goes first, so drift in machine speed
    falls on both sides of the overhead estimate alike.
    """
    numpy_s, mobshift_s = import_times(env)
    traced = Runner(env, workdir, traced=True)
    untraced_out, traced_out = [], []
    for i, op in enumerate(ops):
        for runner in (plain, traced) if i % 2 == 0 else (traced, plain):
            (traced_out if runner is traced else untraced_out).append(runner.run(op, i))
    outcomes = untraced_out + traced_out
    check_repeats(outcomes, ops)
    untraced_wall = sum(o.wall for o in untraced_out)
    traced_wall = sum(o.wall for o in traced_out)
    values, self_sum = layer_metrics(traced.span_files, traced_wall)
    values.update(
        {
            "import.numpy_s": numpy_s,
            "import.mobshift_s": mobshift_s,
            "trace.overhead_frac": traced_wall / untraced_wall - 1.0,
        }
    )
    say(f"{len(ops)} operations, {untraced_wall:.3f} s untraced and {traced_wall:.3f} s traced")
    say(f"self times sum to {self_sum:.3f} s of {traced_wall:.3f} s traced wall")
    return outcomes, values


def bench(args, workdir: str) -> dict:
    env = child_env()
    info = probe_environment(env)
    info.update(workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace)
    say("env " + json.dumps(info, sort_keys=True))
    ops = workloads.BUILDERS[args.workload](args.seed, workdir)
    plain = Runner(env, workdir, traced=False)
    if args.trace:
        # the probes feed a per-layer metric, so only traced runs pay for them
        probes_open = run_probes(plain, args.seed) if args.workload == "desk" else 0
        outcomes, values = measure_layers(args, env, ops, plain, workdir)
        values["defect_probes.open"] = probes_open
        spec = per_layer_spec()
    else:
        outcomes, values = measure_end_to_end(args, env, ops, plain, workdir)
        spec = END_TO_END
    failed = [o for o in outcomes if o.reasons]
    for o in failed:
        say(f"FAILED {o.op.label!r}: {'; '.join(o.reasons)}")
    values["ops_failed_frac"] = len(failed) / len(outcomes)
    say(f"ops_failed_frac = {values['ops_failed_frac']!r} ratio ({len(failed)}/{len(outcomes)})")
    for name, unit, _ in spec:
        if name != "ops_failed_frac":
            say(f"{name} = {values[name]!r} {unit}")
    return result_json(not failed, len(outcomes), len(failed), values, spec)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    scratch = ROOT / ".bench_work"
    scratch.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=scratch)
    try:
        result = bench(args, workdir)
    except SetupError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
