"""Outside-in tracer for mobshift: wraps public functions from the outside.

The program is left untouched.  ``Tracer.install`` replaces each traced
function by a timing wrapper.  Callers bind names through
``from .numkernel import mat_exp``, so every ``mobshift.*`` module attribute
that holds the original is rebound, not just the defining module's.
``Realization.along_path`` is patched on its class.  ``Tracer.uninstall``
puts every original back.

A span is (name, start, end, parent span index, operation id, input key,
operand size, failed, key seconds).  The key and size are taken before the
span starts, inside the parent's span; ``key seconds`` is how long that took,
and ``self_times`` takes it off the parent's self time, so the tracer's own
fingerprinting counts in no function's time.  Spans stay in memory and are
written out once, at the end of the process, by ``Tracer.dump``.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import json
import sys
import time
from dataclasses import dataclass
from typing import Callable


def _matrix_key(A, *args, **kwargs) -> str:
    data = A.data
    digest = hashlib.blake2b(data.tobytes(), digest_size=16).hexdigest()
    return f"{data.shape}:{A.window!r}:{A.basis}:{digest}"


def _args_key(*args, **kwargs) -> str:
    return repr((args, sorted(kwargs.items())))


def _matrix_size(A, *args, **kwargs) -> int:
    return int(A.data.shape[0])


@dataclass(frozen=True)
class Target:
    """One traced function.

    ``has_children``: it calls other traced functions, so total time differs
    from self time.  ``can_raise``: its own body raises on bad values, so
    failed calls are counted.  ``key``: fingerprints the input, for the
    distinct-input ratio.  ``size``: operand dimension, for the n^3 work count.
    """

    name: str
    has_children: bool = False
    can_raise: bool = False
    key: Callable | None = None
    size: Callable | None = None


TARGETS = (
    Target("cli.main", has_children=True, can_raise=True),
    Target("mobius.path_to_mobius"),
    Target("specialfn.norm_sq_sequence", can_raise=True),
    Target("numkernel.mat_exp", can_raise=True, key=_matrix_key, size=_matrix_size),
    Target("numkernel.solve", can_raise=True, size=_matrix_size),
    Target("numkernel.interior_norm"),
    Target("repn.generator_matrix", can_raise=True, key=_args_key),
    Target("repn.reducible_generator_matrix", can_raise=True),
    Target("repn.Realization.along_path", has_children=True, key=_args_key),
    Target("repn.gram", has_children=True),
    Target("repn.circle_rep_matrix", has_children=True, can_raise=True),
    Target("shifts.canonical_shift", can_raise=True),
    Target("shifts.reducible_shift", can_raise=True),
    Target("homogeneity.homogeneity_defect", has_children=True),
    Target("homogeneity.mobius_of_operator", has_children=True),
    Target("homogeneity.kappa_flow_derivative", has_children=True, can_raise=True),
    Target("homogeneity.infinitesimal_reports", has_children=True),
    Target("homogeneity.reducible_lambda_check", has_children=True, can_raise=True),
    Target("inductive.normalizer_defect", has_children=True),
    Target("inductive.isotypic_component"),
    Target("inductive.classify_a_minus1", can_raise=True),
    Target("inductive.ladder_cancellation", can_raise=True),
)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.op_id = 0
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    # -- patching --------------------------------------------------------

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        importlib.import_module("mobshift.cli")  # loads every mobshift module
        modules = [m for n, m in sorted(sys.modules.items()) if n == "mobshift" or n.startswith("mobshift.")]
        for target in TARGETS:
            module_name, _, attr = target.name.partition(".")
            module = sys.modules[f"mobshift.{module_name}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                orig = cls.__dict__[meth]
                self._restore.append((cls, meth, orig))
                setattr(cls, meth, self._wrap(target, orig))
                continue
            orig = getattr(module, attr)
            wrapper = self._wrap(target, orig)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is orig:
                        self._restore.append((mod, name, orig))
                        setattr(mod, name, wrapper)

    def uninstall(self) -> None:
        while self._restore:
            obj, name, orig = self._restore.pop()
            setattr(obj, name, orig)

    def _wrap(self, target: Target, fn):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            key_start = clock()
            key = target.key(*args, **kwargs) if target.key else None
            size = target.size(*args, **kwargs) if target.size else None
            key_s = clock() - key_start
            span = [target.name, 0.0, 0.0, stack[-1] if stack else None, self.op_id, key, size, False, key_s]
            index = len(spans)
            spans.append(span)
            stack.append(index)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                span[7] = True
                raise
            finally:
                span[2] = clock()
                stack.pop()

        return wrapper

    # -- output ------------------------------------------------------------

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh)


def self_times(spans: list) -> list[float]:
    """Duration of each span minus the time its direct child spans cover.

    Children of one span run one after another inside it, so the covered
    time is the sum of their durations, plus the time the tracer spent
    taking each child's key before the child started.
    """
    child_time = [0.0] * len(spans)
    for span in spans:
        parent = span[3]
        if parent is not None:
            child_time[parent] += span[2] - span[1] + span[8]
    return [max(0.0, (s[2] - s[1]) - c) for s, c in zip(spans, child_time)]
