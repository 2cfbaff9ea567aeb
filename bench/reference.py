"""Reference task: fixed work that does not touch mobshift.

    python3 bench/reference.py SIZE ROUNDS
    python3 bench/reference.py serve

Starts Python, imports numpy and runs ROUNDS rounds of a complex SIZE x SIZE
product and solve on fresh arrays, the same kinds of cost a mobshift command
pays, and prints the seconds the rounds took.  ``serve`` runs one task per
stdin line ``SIZE ROUNDS`` and prints its seconds, one line each.  ``run.py``
times it between operations to measure how fast the machine is running at
that moment (see ``workloads.REFERENCE``).  Its arrays are small, so its
peak memory stays at the numpy-import floor that every mobshift command
also pays.
"""

from __future__ import annotations

import sys
import time

import numpy as np


def main(size: int, rounds: int) -> tuple[float, float]:
    """(seconds the rounds took, a checksum of their result)."""
    rng = np.random.default_rng(0)
    a = (rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))) / size
    shift = 2.0 * np.eye(size)
    start = time.perf_counter()
    for _ in range(rounds):
        a = np.linalg.solve(shift + a @ a, a) + 0.5 * a
    return time.perf_counter() - start, float(np.abs(a).sum())


def serve() -> None:
    for line in sys.stdin:
        size, rounds = map(int, line.split())
        print(main(size, rounds)[0], flush=True)


if __name__ == "__main__":
    if sys.argv[1:] == ["serve"]:
        serve()
    else:
        print(*main(int(sys.argv[1]), int(sys.argv[2])))
