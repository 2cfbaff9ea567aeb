"""Child processes of the benchmark; each runs with BLAS pinned to one thread.

    python3 bench/child.py env
        Print the interpreter, numpy and BLAS build and where mobshift
        was imported from, as one JSON line.
    python3 bench/child.py cli SPANS OP_ID ARG...
        Run ``mobshift ARG...`` exactly as ``python -m mobshift.cli`` does,
        with the tracer installed; the spans go to the file SPANS on exit.
    python3 bench/child.py route REQUEST [SPANS OP_ID]
        Cross-check the two routes to R(path) for the JSON REQUEST and print
        one JSON reply.  With SPANS, trace the check and write the spans on
        exit.
"""

from __future__ import annotations

import json
import sys


def env_main() -> int:
    import platform

    import numpy

    import mobshift
    import mobshift.cli  # noqa: F401  (the import every command pays)

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    print(
        json.dumps(
            {
                "python": platform.python_version(),
                "numpy": numpy.__version__,
                "blas": blas,
                "mobshift_file": mobshift.__file__,
            },
            sort_keys=True,
        )
    )
    return 0


def _traced(spans_path: str, op_id: str):
    from tracer import Tracer

    tracer = Tracer()
    tracer.op_id = int(op_id)
    tracer.install()
    return tracer


def cli_main(spans_path: str, op_id: str, argv: list[str]) -> int:
    tracer = _traced(spans_path, op_id)
    import mobshift.cli

    try:
        return mobshift.cli.main(argv)
    finally:
        tracer.uninstall()
        tracer.dump(spans_path)


def route_check(request: dict) -> dict:
    """Realize R(path) by both routes and measure their interior mismatch.

    The imports run at call time, after the tracer is installed, so the
    names bind to its wrappers.
    """
    import hashlib

    import numpy as np

    from mobshift.mobius import GroupPath
    from mobshift.numkernel import TruncationWindow
    from mobshift.repn import Realization, RepnParams, circle_rep_matrix

    p = RepnParams(request["index_set"], request["lam"], complex(*request["mu"]))
    w = TruncationWindow(p.index_set, request["N"], request["pad"])
    path = GroupPath.parse(request["path"])
    R = Realization.plain(p).along_path(path, w)
    C = circle_rep_matrix(p, path, w)
    ip = w.interior_positions()
    gap = float(np.max(np.abs(R.data[np.ix_(ip, ip)] - C.data[np.ix_(ip, ip)])))
    digest = hashlib.blake2b(R.data.tobytes() + C.data.tobytes(), digest_size=16).hexdigest()
    return {"gap": gap, "digest": digest}


def route_main(request: str, spans_path: str | None = None, op_id: str | None = None) -> int:
    import mobshift.cli  # noqa: F401  (the import every command pays)

    tracer = _traced(spans_path, op_id) if spans_path else None
    try:
        print(json.dumps(route_check(json.loads(request))))
    finally:
        if tracer is not None:
            tracer.uninstall()
            tracer.dump(spans_path)
    return 0


def main(argv: list[str]) -> int:
    mode = argv[0]
    if mode == "env":
        return env_main()
    if mode == "cli":
        return cli_main(argv[1], argv[2], argv[3:])
    if mode == "route":
        return route_main(*argv[1:4])
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
