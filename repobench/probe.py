"""Outside-in tracing: wrappers around the program's public entry points.

The program itself runs with tracing off.  A traced repetition installs
:class:`Probes` — plain function wrappers set on the modules and classes
that own each entry point — and removes them afterwards, restoring the
exact original attributes.  Each wrapper opens a span on a
:class:`Tracer`, which keeps spans in memory with each span's *self
time*: its duration minus the time of the spans nested inside it.

A pass (one prepare, one solve, one burst of updates) is the root span;
its own self time is the row ``other``, so the rows of a pass always sum
to the pass's traced duration.  Spans opened on another thread (the
serving layer's solver thread) with no parent on that thread count as
children of the pass root.
"""

from __future__ import annotations

import functools
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from repobench.ledger import OTHER

_MISSING = object()


def layer_tag(layer: int) -> str:
    """Per-layer row suffix: ``L1``, ``L2`` and ``L3plus``."""
    return f"L{layer}" if layer < 3 else "L3plus"


class Tracer:
    """In-memory spans, each with its self time."""

    def __init__(self) -> None:
        self.spans: List[Dict[str, Any]] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._root: Optional[List[Any]] = None
        self._pass: Optional[str] = None
        self._pass_seq = 0
        self._ids = 0

    def _stack(self) -> List[List[Any]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _next_id(self) -> int:
        with self._lock:
            self._ids += 1
            return self._ids

    def begin_pass(self, name: str) -> None:
        """Open the root span of a pass on the calling thread."""
        if self._root is not None:
            raise RuntimeError(f"pass {self._pass!r} is still open")
        self._pass = name
        self._pass_seq += 1
        # Frame: [row, start, child seconds, span id, parent id]
        self._root = [OTHER, time.perf_counter(), 0.0, self._next_id(), None]

    def end_pass(self) -> float:
        """Close the open pass; return its traced wall seconds."""
        root = self._root
        if root is None:
            raise RuntimeError("no pass is open")
        with self._lock:
            self._record(root, time.perf_counter())
            self._root = None
        return self.spans[-1]["dur"]

    def begin(self, row: str) -> List[Any]:
        stack = self._stack()
        if stack:
            parent = stack[-1][3]
        elif self._root is not None:
            parent = self._root[3]
        else:
            parent = None
        frame = [row, time.perf_counter(), 0.0, self._next_id(), parent]
        stack.append(frame)
        return frame

    def end(self, frame: List[Any]) -> None:
        t1 = time.perf_counter()
        stack = self._stack()
        stack.pop()
        dur = t1 - frame[1]
        with self._lock:
            if self._root is None:
                return  # span outside any pass: not part of the ledger
            self._record(frame, t1)
            if stack:
                stack[-1][2] += dur
            else:
                self._root[2] += dur

    def _record(self, frame: List[Any], t1: float) -> None:
        row, t0, child, sid, parent = frame
        dur = t1 - t0
        self.spans.append(
            {
                "pass": self._pass,
                "seq": self._pass_seq,
                "row": row,
                "id": sid,
                "parent": parent,
                "start": t0,
                "dur": dur,
                "self": dur - child,
            }
        )

    @property
    def pass_seq(self) -> int:
        """Sequence number of the most recently opened pass."""
        return self._pass_seq


Namer = Callable[[Tuple[Any, ...]], str]


def _wrap(fn: Callable[..., Any], tracer: Tracer, namer: Namer) -> Callable[..., Any]:
    @functools.wraps(fn)
    def probe(*args: Any, **kwargs: Any) -> Any:
        frame = tracer.begin(namer(args))
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.end(frame)

    return probe


class Probes:
    """Installs span wrappers on ``(owner, attribute, namer)`` targets.

    ``owner`` is a module or a class.  On a class, a method it only
    inherits is wrapped on the class itself and deleted again on removal,
    so the base class is never touched.
    """

    def __init__(self, tracer: Tracer, targets: List[Tuple[Any, str, Namer]]) -> None:
        self.tracer = tracer
        self.targets = targets
        self._saved: List[Tuple[Any, str, Any]] = []

    def install(self) -> "Probes":
        if self._saved:
            raise RuntimeError("probes are already installed")
        for owner, attr, namer in self.targets:
            saved = vars(owner).get(attr, _MISSING)
            self._saved.append((owner, attr, saved))
            setattr(owner, attr, _wrap(getattr(owner, attr), self.tracer, namer))
        return self

    def remove(self) -> None:
        while self._saved:
            owner, attr, saved = self._saved.pop()
            if saved is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, saved)


def fixed(row: str) -> Namer:
    """A namer that always returns ``row``."""
    return lambda _args: row


def program_targets(process_backend: bool) -> List[Tuple[Any, str, Namer]]:
    """The program's entry points the benchmark traces, with row names.

    Imported lazily so importing this module needs no program.
    """
    from repro.clustering.degree_reduction import DegreeReductionResult
    from repro.core import pipeline
    from repro.dp.accumulation import DownwardAccumulationSolver, UpwardAccumulationSolver
    from repro.dp.local_solver import FiniteStateClusterSolver
    from repro.dp.problem import ClusterDP
    from repro.dynamic import IncrementalSolverGroup

    def up(args: Tuple[Any, ...]) -> str:
        ctxs = args[1]
        return "dp.up." + layer_tag(ctxs[0].cluster.layer) if ctxs else "dp.up.empty"

    def down(args: Tuple[Any, ...]) -> str:
        return "dp.down." + layer_tag(args[1].cluster.layer)

    targets: List[Tuple[Any, str, Namer]] = [
        (pipeline, "normalize_to_rooted_tree", fixed("representations.normalize")),
        (pipeline, "reduce_degrees", fixed("clustering.degree_reduction")),
        (pipeline, "build_hierarchical_clustering", fixed("clustering.build")),
        (DegreeReductionResult, "project_labels", fixed("pipeline.project_labels")),
        (IncrementalSolverGroup, "apply_updates", fixed("incremental.apply")),
        (ClusterDP, "summarize_layer", up),
    ]
    for cls in (FiniteStateClusterSolver, UpwardAccumulationSolver, DownwardAccumulationSolver):
        if "summarize_layer" in vars(cls):
            targets.append((cls, "summarize_layer", up))
        targets += [
            (cls, "assign_internal_labels", down),
            (cls, "label_virtual_root", fixed("dp.root")),
            (cls, "extract", fixed("dp.extract")),
        ]
    if process_backend:
        from repro.mpc.exec.pool import ProcessDPSession

        def session_up(args: Tuple[Any, ...]) -> str:
            return "dp.up." + layer_tag(args[1][0].layer) if args[1] else "dp.up.empty"

        def session_down(args: Tuple[Any, ...]) -> str:
            return "dp.down." + layer_tag(args[1][0][0].layer) if args[1] else "dp.down.empty"

        targets += [
            (ProcessDPSession, "solve_layer", session_up),
            (ProcessDPSession, "label_layer", session_down),
        ]
    return targets
