"""Per-layer spans for trirail, recorded from outside the package.

The tracer rebinds public functions as module attributes (and the
``__post_init__`` of the ``Pose``/``JointInputs`` value classes) with
wrappers that record one span per call.  This reaches nested calls
because the package calls across modules through module attributes:
``workspace`` calls ``ik.solve``, ``jacobian.build`` and
``jacobian.classify``, ``ik`` calls ``fk.solve`` and ``fk.solve_at_gamma``,
and ``fk.solve`` looks ``enumerate_candidates`` up in its module globals.

Spans are kept in flat arrays (a scan of the 41^3 box records over a
million of them) and analysed after the run.  A span's self time is its
duration minus the durations of its direct child spans; calls are
strictly nested on one thread, so the children never overlap.
"""

from __future__ import annotations

import os
import time
from array import array
from collections import Counter
from contextlib import contextmanager

#: Traced functions in report order.  ``ik.solve`` is split by its
#: ``check_roundtrip`` flag; ``params.values`` is the construction of a
#: ``Pose`` or ``JointInputs`` (where finiteness is checked).
FUNCTIONS = (
    "params.load_params",
    "params.values",
    "fk.solve",
    "fk.solve_at_gamma",
    "fk.enumerate_candidates",
    "ik.solve_rt",
    "ik.solve_nort",
    "jacobian.build",
    "jacobian.classify",
    "workspace.sample_point",
    "workspace.scan",
    "workspace.cross_section",
    "workspace.export",
    "workspace.summary",
)


class Tracer:
    """Span recorder: name, start, end and parent of every wrapped call."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self.name = array("H")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: Counter = Counter()
        self._stack = [-1]

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def wrap(self, fn, name: str, *, after=None, raises=None):
        """``fn`` recording a span named ``name`` per call.

        ``after(args, result)`` adds counts from a successful call;
        ``raises=(exc_type, counter)`` counts calls that raise ``exc_type``.
        """
        nid = self._name_id(name)
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        stack, clock, counts = self._stack, self.clock, self.counts

        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                if raises is not None and isinstance(exc, raises[0]):
                    counts[raises[1]] += 1
                raise
            finally:
                ends[idx] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def arrays(self):
        """Spans as numpy arrays: name id, parent index, start, end."""
        import numpy as np

        return (
            np.array(self.name, dtype=np.int64),
            np.array(self.parent, dtype=np.int64),
            np.array(self.start, dtype=np.float64),
            np.array(self.end, dtype=np.float64),
        )

    def self_times(self) -> dict[str, tuple[int, float]]:
        """``{name: (calls, self seconds)}`` over all recorded spans."""
        import numpy as np

        name, parent, start, end = self.arrays()
        duration = end - start
        own = duration.copy()
        nested = parent >= 0
        np.subtract.at(own, parent[nested], duration[nested])
        size = len(self.names)
        calls = np.bincount(name, minlength=size)
        seconds = np.bincount(name, weights=own, minlength=size)
        return {n: (int(calls[i]), float(seconds[i])) for i, n in enumerate(self.names)}

    def child_calls(self, child_names, parent_name: str) -> int:
        """Spans named in ``child_names`` whose direct parent is ``parent_name``."""
        import numpy as np

        if parent_name not in self.names:
            return 0
        name, parent, _, _ = self.arrays()
        ids = [self.names.index(n) for n in child_names if n in self.names]
        nested = np.isin(name, ids) & (parent >= 0)
        return int(np.count_nonzero(name[parent[nested]] == self.names.index(parent_name)))

    def save(self, path) -> None:
        """Write every span: name table, name id, parent index, start, end."""
        import numpy as np

        name, parent, start, end = self.arrays()
        np.savez(path, names=np.array(self.names), name=name.astype(np.uint16),
                 parent=parent.astype(np.int32), start=start, end=end)


def _patches(tracer: Tracer):
    """(owner, attribute, wrapper) for every traced entry point."""
    from trirail import fk, ik, jacobian, params, workspace
    from trirail.errors import CotangentSingular

    counts = tracer.counts

    def count_len(counter):
        def after(args, result):
            counts[counter] += len(result)
        return after

    def count_ik_rt(args, result):
        counts["ik.solutions"] += len(result)
        counts["ik.rt_solutions"] += len(result)
        counts["ik.roundtrip_failed"] += sum(1 for s in result if s.roundtrip == "failed")

    def count_ik_nort(args, result):
        counts["ik.solutions"] += len(result)

    def count_bytes(args, result):
        counts["workspace.export.bytes"] += os.path.getsize(args[2])

    solve_rt = tracer.wrap(ik.solve, "ik.solve_rt", after=count_ik_rt)
    solve_nort = tracer.wrap(ik.solve, "ik.solve_nort", after=count_ik_nort)

    def ik_solve(pose, params_, **kwargs):
        chosen = solve_rt if kwargs.get("check_roundtrip", True) else solve_nort
        return chosen(pose, params_, **kwargs)

    patches = [
        (params, "load_params", tracer.wrap(params.load_params, "params.load_params")),
        (fk, "solve", tracer.wrap(fk.solve, "fk.solve", after=count_len("fk.solutions"))),
        (fk, "solve_at_gamma", tracer.wrap(fk.solve_at_gamma, "fk.solve_at_gamma",
                                           after=count_len("fk.solutions"))),
        (fk, "enumerate_candidates", tracer.wrap(fk.enumerate_candidates,
                                                 "fk.enumerate_candidates",
                                                 after=count_len("fk.candidates"))),
        (ik, "solve", ik_solve),
        (jacobian, "build", tracer.wrap(jacobian.build, "jacobian.build",
                                        raises=(CotangentSingular,
                                                "jacobian.cotangent_singular"))),
        (jacobian, "classify", tracer.wrap(jacobian.classify, "jacobian.classify")),
        (workspace, "export", tracer.wrap(workspace.export, "workspace.export",
                                          after=count_bytes)),
    ]
    for fn in ("sample_point", "scan", "cross_section", "summary"):
        patches.append((workspace, fn, tracer.wrap(getattr(workspace, fn), f"workspace.{fn}")))
    for cls in (params.Pose, params.JointInputs):
        patches.append((cls, "__post_init__",
                        tracer.wrap(cls.__dict__["__post_init__"], "params.values")))
    return patches


def traced_attributes():
    """``{(owner, attribute): current value}`` of every attribute the tracer rebinds."""
    return {(owner, attr): owner.__dict__[attr] for owner, attr, _ in _patches(Tracer())}


@contextmanager
def installed(tracer: Tracer):
    """Rebind the traced entry points for the duration of the block."""
    patches = _patches(tracer)
    originals = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in patches]
    try:
        for owner, attr, wrapper in patches:
            setattr(owner, attr, wrapper)
        yield tracer
    finally:
        for owner, attr, original in originals:
            setattr(owner, attr, original)
