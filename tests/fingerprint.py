"""One fingerprint of every benchmark operation's exact output.

Runs in process every CLI operation that ``ledger.py`` lists (``desk`` with its
defect probes, ``sweep`` and ``wide`` at seeds 7 and 11) and every route
operation of those workloads through ``bench/child.py``'s ``route_check``, and
prints the operation count and one sha256 over each CLI operation's exit code,
stdout and stderr, with the scratch directory of ``desk``'s coefficient files
replaced by a fixed token, and over each route operation's gap and digest.  It
reads ``bench/`` without changing it::

    PYTHONPATH=src python tests/fingerprint.py

Where the ledger keeps verdicts, this keeps every byte, so two commits whose
lines match answer every operation alike.  Compare two commits on one machine
only: the route digests hash every entry of R, which BLAS builds round apart.
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile

import ledger

#: what replaces the scratch directory in the output
WORKDIR = "<workdir>"


def fingerprint() -> tuple[int, str]:
    """(operation count, sha256 hex digest) over every CLI and route operation."""
    digest, count = hashlib.sha256(), 0

    def add(record) -> None:
        nonlocal count
        digest.update(json.dumps(record).encode() + b"\n")
        count += 1

    workloads = ledger._workloads()
    sys.path.insert(0, str(ledger.ROOT / "bench"))
    try:
        import child
    finally:
        sys.path.pop(0)
    with tempfile.TemporaryDirectory() as workdir:
        for key, argv in ledger.operations(workdir):
            code, out, err = ledger.run(argv)
            add([key, code, out.replace(workdir, WORKDIR), err.replace(workdir, WORKDIR)])
        for seed in ledger.SEEDS:
            for name in workloads.WORKLOADS:
                for op in workloads.BUILDERS[name](seed, workdir):
                    if op.kind == "route":
                        add([f"{name} {seed}: {op.label}", child.route_check(dict(op.args))])
    return count, digest.hexdigest()


def main() -> int:
    count, hexdigest = fingerprint()
    print(f"{count} ops sha256 {hexdigest}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
