"""Correctness checks of one operation's outcome.

``check_cli`` returns the reasons an outcome is wrong
(none when it is right) and the number of certified verdicts it carries: a JSON report line, a
sweep CSV cell, a classifier verdict or a route cross-check.
"""

from __future__ import annotations

import json
import math

from workloads import Op

REPORT_KEYS = {"name", "value", "tolerance", "pass", "context"}
CLASSIFY_KEYS = {"a", "b", "residual", "branch", "tie"}
SWEEP_HEADER = "series,lambda,mu_re,mu_im,N,padding,suites,max_defect,status"
ROUTE_TOL = 1e-7


def _reports(stdout: str, reasons: list) -> list[dict]:
    out = []
    for line in stdout.splitlines():
        try:
            report = json.loads(line)
        except ValueError:
            reasons.append(f"stdout line is not JSON: {line[:60]!r}")
            continue
        if not isinstance(report, dict) or set(report) != REPORT_KEYS:
            reasons.append(f"report keys {sorted(report) if isinstance(report, dict) else type(report).__name__}")
            continue
        value, tol = report["value"], report["tolerance"]
        if not (isinstance(value, (int, float)) and isinstance(tol, (int, float)) and isinstance(report["pass"], bool)):
            reasons.append(f"report {report['name']!r} has mistyped fields")
            continue
        if report["pass"] != (value <= tol):
            reasons.append(f"report {report['name']!r}: pass={report['pass']} but value {value!r} vs tolerance {tol!r}")
        out.append(report)
    return out


def _check_verify(op: Op, rc: int, stdout: str, reasons: list) -> int:
    reports = _reports(stdout, reasons)
    if len(reports) != op.expect["reports"]:
        reasons.append(f"{len(reports)} reports, expected {op.expect['reports']}")
    passed = all(r["pass"] for r in reports)
    if rc == 0 and not passed:
        reasons.append("exit 0 with a failing report")
    if rc == 1 and reports and passed:
        reasons.append("exit 1 with every report passing")
    return len(reports)


def _check_weights(op: Op, stdout: str, reasons: list) -> int:
    lines = stdout.splitlines()
    if op.expect.get("json"):
        rows = []
        for line in lines:
            try:
                row = json.loads(line)
                rows.append((row["re"], row["im"], row["abs"]))
            except (ValueError, KeyError, TypeError):
                reasons.append(f"bad weights line {line[:60]!r}")
    else:
        if not lines or lines[0] != "n,re,im,abs":
            reasons.append("missing weights CSV header")
            return 0
        rows = []
        for line in lines[1:]:
            try:
                rows.append(tuple(float(x) for x in line.split(",")[1:]))
            except ValueError:
                reasons.append(f"bad weights row {line[:60]!r}")
    if len(rows) != op.expect["rows"]:
        reasons.append(f"{len(rows)} weight rows, expected {op.expect['rows']}")
    for re_, im, ab in rows:
        if not math.isclose(math.hypot(re_, im), ab, rel_tol=1e-12, abs_tol=1e-300):
            reasons.append(f"weight abs {ab!r} disagrees with ({re_!r}, {im!r})")
            break
    return 0


def _check_classify(op: Op, stdout: str, reasons: list) -> int:
    try:
        (fit,) = [json.loads(line) for line in stdout.splitlines()]
    except ValueError:
        reasons.append("classifier output is not one JSON line")
        return 0
    if set(fit) != CLASSIFY_KEYS:
        reasons.append(f"classifier keys {sorted(fit)}")
    elif fit["branch"] != op.expect["branch"]:
        reasons.append(f"branch {fit['branch']!r}, expected {op.expect['branch']!r}")
    return 1


def _check_sweep(op: Op, stdout: str, reasons: list) -> int:
    lines = stdout.splitlines()
    if not lines or lines[0] != SWEEP_HEADER:
        reasons.append("missing sweep CSV header")
        return 0
    cells = lines[1:]
    if len(cells) != op.expect["cells"]:
        reasons.append(f"{len(cells)} sweep cells, expected {op.expect['cells']}")
    for cell in cells:
        fields = cell.split(",")
        if len(fields) != 9 or fields[8] != "pass":
            reasons.append(f"sweep cell not passing: {cell[:80]!r}")
    return len(cells)


def _check_error_line(stderr: str, reasons: list) -> None:
    lines = [line for line in stderr.splitlines() if line.strip()]
    if len(lines) != 1:
        reasons.append(f"expected a one-line reason on stderr, got {len(lines)} lines")


def check_cli(op: Op, rc: int, stdout: str, stderr: str) -> tuple[list, int]:
    reasons: list[str] = []
    if "Traceback" in stderr:
        reasons.append("traceback on stderr: " + stderr.strip().splitlines()[-1][:100])
    if op.kind == "report-or-error":
        # either a well-formed report or exit 2/3 with a one-line reason
        if rc in (2, 3):
            _check_error_line(stderr, reasons)
            if stdout:
                reasons.append("output on stdout alongside an error exit")
            return reasons, 0
        if rc not in (0, 1):
            reasons.append(f"exit {rc}, expected a report (0/1) or an error (2/3)")
            return reasons, 0
        op = Op(op.label, "verify", op.args, rc, {"reports": 4})  # one per default path
    if rc != op.exit:
        reasons.append(f"exit {rc}, expected {op.exit}")
    if op.kind == "verify":
        return reasons, _check_verify(op, rc, stdout, reasons)
    if op.kind == "weights":
        return reasons, _check_weights(op, stdout, reasons)
    if op.kind == "classify":
        return reasons, _check_classify(op, stdout, reasons)
    if op.kind == "sweep":
        return reasons, _check_sweep(op, stdout, reasons)
    if op.kind == "route":
        return reasons, _check_route(stdout, reasons)
    if op.kind == "usage":
        _check_error_line(stderr, reasons)
        if stdout:
            reasons.append("output on stdout alongside a usage error")
        return reasons, 0
    raise ValueError(f"unknown operation kind {op.kind!r}")


def _check_route(stdout: str, reasons: list) -> int:
    try:
        gap = json.loads(stdout)["gap"]
    except (ValueError, KeyError, TypeError):
        reasons.append(f"route check printed no gap: {stdout[:60]!r}")
        return 0
    if not gap <= ROUTE_TOL:
        reasons.append(f"interior route mismatch {gap:.3e} > {ROUTE_TOL}")
    return 1
