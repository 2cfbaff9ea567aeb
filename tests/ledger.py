"""The verdict ledger: what every CLI operation of the benchmark's workloads answers.

One row per operation of ``desk`` (its defect probes included), ``sweep`` and ``wide``
at seeds 7 and 11, read from ``bench/workloads.py`` without changing it; route
operations, which call no command, and repeats are left out.  A row holds the exit
code, the entries of every stdout line and the first word of stderr.  An entry is a
JSON report's name, pass flag and value, or a field of any other JSON or CSV line.
An integer is kept as it is, any other number to 7 significant digits, and one whose
magnitude is at most ``TINY`` as the class ``TINY_CLASS``, so a row records verdicts,
not the digits that rounding moves.

``test_ledger.py`` replays every row in process.  A change that moves a verdict on
purpose regenerates the ledger and lists each moved row in CHANGES.md::

    PYTHONPATH=src python tests/ledger.py
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import pathlib
import sys
import tempfile

from mobshift import cli

ROOT = pathlib.Path(__file__).resolve().parent.parent
LEDGER = ROOT / "tests" / "ledger.jsonl"
SEEDS = (7, 11)
#: values at or below this magnitude are one class: their digits are rounding
TINY = 1e-9
TINY_CLASS = "<=1e-9"
#: how far a replayed value may move from its ledger entry
REL_TOL = 1e-6


def _workloads():
    sys.path.insert(0, str(ROOT / "bench"))
    try:
        import workloads
    finally:
        sys.path.pop(0)
    return workloads


def operations(workdir: str) -> list[tuple[str, list[str]]]:
    """(key, argv) of each CLI operation, keyed "workload seed: label"; the coefficient
    files of ``desk``'s classify operations are written to ``workdir``."""
    workloads = _workloads()
    out = []
    for seed in SEEDS:
        for name in workloads.WORKLOADS:
            ops = workloads.BUILDERS[name](seed, workdir)
            if name == "desk":
                ops += workloads.desk_probes(seed)
            out += [(f"{name} {seed}: {op.label}", list(op.args)) for op in ops if op.kind != "route" and op.repeat_of is None]
    assert len({key for key, _ in out}) == len(out), "operation labels repeat within a workload"
    return out


def run(argv: list[str]) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of ``cli.main(argv)``, in process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse's refusals
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _number(x):
    if isinstance(x, int):
        return x
    if not math.isfinite(x):
        return repr(x)
    return TINY_CLASS if abs(x) <= TINY else float(f"{x:.7g}")


def _field(text: str):
    for kind in (int, float):
        try:
            return _number(kind(text))
        except ValueError:
            pass
    return text


def _flatten(value) -> list:
    if isinstance(value, dict):
        return [x for key in sorted(value) for x in (key, *_flatten(value[key]))]
    if isinstance(value, list):
        return [x for item in value for x in _flatten(item)]
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return [_number(value)]
    return [value]


def entries(line: str) -> list:
    """What a row keeps of one stdout line."""
    if line.startswith("{"):
        record = json.loads(line)
        if "pass" in record:  # a report: its context restates the arguments
            return [record["name"], record["pass"], _number(record["value"])]
        return _flatten(record)
    return [_field(text) for text in line.split(",")]


def row(key: str, code: int, out: str, err: str) -> dict:
    words = err.split()
    return {"op": key, "exit": code, "stdout": [entries(line) for line in out.splitlines()], "stderr": words[0] if words else ""}


def _same(a, b) -> bool:
    if isinstance(a, float) and isinstance(b, float):
        return abs(a - b) <= REL_TOL * max(abs(a), abs(b))
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_same(a[key], b[key]) for key in a)
    return type(a) is type(b) and a == b


def differences(recorded: list[dict], replayed: list[dict]) -> list[str]:
    """The keys of the operations whose rows differ, or that only one side has."""
    old = {r["op"]: r for r in recorded}
    new = {r["op"]: r for r in replayed}
    moved = [key for key in old.keys() & new.keys() if not _same(old[key], new[key])]
    return sorted(moved + list(old.keys() ^ new.keys()))


def replay(workdir: str) -> list[dict]:
    return [row(key, *run(argv)) for key, argv in operations(workdir)]


def read() -> list[dict]:
    return [json.loads(line) for line in LEDGER.read_text().splitlines()]


def main() -> int:
    with tempfile.TemporaryDirectory() as workdir:
        rows = replay(workdir)
    LEDGER.write_text("".join(json.dumps(r, sort_keys=True) + "\n" for r in rows))
    print(f"{len(rows)} rows written to {LEDGER.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
