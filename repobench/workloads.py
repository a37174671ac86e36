"""The four benchmark workloads and the measurement loop they share.

Every workload runs the same three phases inside its ``--seconds`` budget,
on inputs generated from the workload seed:

1. **setup** — repeated ``prepare()`` (plus ``TreeServer`` construction on
   serve-mixed);
2. **solve** — ``prepare()``, then the problem list solved cold on the fresh
   ``PreparedTree`` and solved again warm (on the direct workloads that
   ``prepare()`` is timed as a setup repetition too);
3. **traffic** — bursts of 8-update submissions, straight into
   ``IncrementalSolverGroup.apply_updates`` from one client, or through a
   ``TreeServer`` with two writers beside one paced reader.

Every timed repetition (a *pass*) is bracketed by host calibrations and
reported in reference seconds (``measure.Clock``).  Every operation's
output is checked; see :class:`Run` for what counts as attempted and
failed.  With ``trace`` on, repetitions alternate untraced and traced; the
traced ones run under :class:`~repobench.probe.Probes` and feed the ledger.
"""

from __future__ import annotations

import asyncio
import contextlib
import gc
import math
import os
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from repobench import inputs, probe
from repobench.measure import Clock

from repro.core.pipeline import PreparedTree, as_cluster_dp, prepare, solve_on
from repro.dp.sequential import solve_sequential
from repro.mpc.config import MPCConfig
from repro.mpc.simulator import MPCSimulator
from repro.problems.max_weight_independent_set import (
    MaxWeightIndependentSet,
    independent_set_weight,
    is_independent_set,
)
from repro.problems.max_weight_matching import MaxWeightMatching, is_matching, matching_weight
from repro.problems.subtree_aggregation import NodeDepth, SubtreeSize
from repro.representations.parentheses import parentheses_to_tree
from repro.serving import ServerConfig, TreeServer
from repro.trees.tree import RootedTree

#: Fewest repetitions of each phase, whatever the budget (two, so a traced
#: run has an untraced and a traced one).
MIN_REPS = 2
#: Paced reader of the served workload: reads per second.
READ_RATE = 100.0
#: Node count of the untimed pass that starts the process pool.
WARMUP_N = 1_000


@dataclass(frozen=True)
class Workload:
    """One input family and traffic mix; why each exists is in
    ``BENCHMARK.json`` and ``README.md``."""

    name: str
    n: int
    #: "attach" (weighted attachment tree; MWIS + MWM) or "deep"
    #: (parenthesis string of a path-heavy tree; SubtreeSize + NodeDepth).
    shape: str
    exec_backend: str = "inline"
    #: Concurrent closed-loop writers through a TreeServer; 0 = direct
    #: IncrementalSolverGroup.apply_updates from one client.
    served_writers: int = 0
    #: Submissions per writer per traffic burst.
    burst: int = 16
    #: Shares of ``--seconds`` after which the setup and the solve phase
    #: stop starting repetitions; the traffic phase has the rest.
    setup_end: float = 0.1
    solve_end: float = 0.65
    #: Exact number of solve repetitions; 0 runs as many as fit before
    #: ``solve_end``.  Pool workers keep per-solve state that grows over
    #: their first few full solves (about 30 MiB each at n=20,000), so the
    #: peak-memory reading needs the same number of solves in every run.
    solve_reps: int = 0


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "attach-inline",
            n=20_000,
            shape="attach",
            setup_end=0.08,
            solve_end=0.72,
        ),
        Workload(
            "deep-parens",
            n=20_000,
            shape="deep",
            burst=64,
            solve_end=0.55,
        ),
        Workload(
            "serve-mixed",
            n=10_000,
            shape="attach",
            served_writers=2,
            burst=8,
            setup_end=0.2,
            solve_end=0.5,
        ),
        Workload(
            "attach-process",
            n=20_000,
            shape="attach",
            exec_backend="process",
            solve_reps=3,
        ),
    )
}


def repetitions(deadline: float, count: int = 0) -> Iterator[int]:
    """Yield 0, 1, 2, ... while one more repetition, taking as long as the
    last one, still ends by ``deadline`` — and at least ``MIN_REPS`` times.
    With ``count``, yield exactly ``count`` times, whatever the deadline.

    Stopping before an overrun keeps each phase's share of the run, and so
    the sample counts, the same from run to run.
    """
    if count:
        yield from range(count)
        return
    rep = 0
    last = 0.0
    while rep < MIN_REPS or time.perf_counter() + last <= deadline:
        t0 = time.perf_counter()
        yield rep
        last = time.perf_counter() - t0
        rep += 1


def problems_for(shape: str) -> List[Any]:
    if shape == "attach":
        return [MaxWeightIndependentSet(), MaxWeightMatching()]
    return [SubtreeSize(), NodeDepth()]


def vm_kib(pid: Any, field_name: str) -> int:
    """A ``/proc/<pid>/status`` memory field in KiB (0 where unavailable)."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith(field_name + ":"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


@dataclass
class PassRecord:
    """One timed repetition of a pass, as written to the trace file."""

    name: str
    index: int
    traced: bool
    wall: float
    t0: float
    t1: float
    seq: Optional[int] = None
    #: Wall→reference factor; set by :meth:`Run.execute` once every
    #: calibration reading of the run is in.
    factor: float = float("nan")

    @property
    def ref(self) -> float:
        return self.wall * self.factor

    def as_dict(self) -> Dict[str, Any]:
        return {
            "type": "pass",
            "pass": self.name,
            "index": self.index,
            "traced": self.traced,
            "wall": self.wall,
            "factor": self.factor,
            "seq": self.seq,
        }


@dataclass
class Run:
    """One benchmark run of one workload.

    ``attempted`` counts program operations — a prepare, a server
    construction, one problem solved, one update submission, one read, and
    each end-of-run verification; ``failed`` counts those that returned a
    wrong result.  An update submission is checked by its reports: one per
    problem, each counting the batch's updates; on the direct path each
    report also flags a value change exactly when the value moved, and on
    the served path the writer's snapshot versions only go up.  An
    exception from the program is not caught: it ends the run without a
    result line.
    """

    workload: Workload
    seed: int
    seconds: float
    trace: bool
    attempted: int = 0
    failed: int = 0
    failures: List[str] = field(default_factory=list)
    passes: List[PassRecord] = field(default_factory=list)
    #: ``(wall seconds, pass index)`` samples of untraced bursts: update
    #: round trips, reads from their due time, reader wake-up lag, and
    #: round trip minus solver time.
    samples: Dict[str, List[Tuple[float, int]]] = field(
        default_factory=lambda: {"update": [], "read": [], "read_lag": [], "queue_wait": []}
    )
    #: ``(point updates, pass index)`` of every untraced burst.
    bursts: List[Tuple[int, int]] = field(default_factory=list)
    #: Per-problem ``UpdateReport``s of every applied batch.
    reports: List[Any] = field(default_factory=list)
    facts: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.problems = problems_for(self.workload.shape)
        self.clock = Clock()
        self.tracer = probe.Tracer()
        self._probes = probe.Probes(
            self.tracer, probe.program_targets(self.workload.exec_backend == "process")
        )
        self._reference: Dict[str, Any] = {}

    # ------------------------------------------------------------------ #
    # Bookkeeping

    def check(self, ok: bool, what: str) -> None:
        """Count one operation; record it as failed unless ``ok``."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)

    def _traced_rep(self, rep: int) -> bool:
        return self.trace and rep % 2 == 1

    @contextlib.contextmanager
    def _pass(self, name: str, traced: bool) -> Iterator[None]:
        """Time the body as one repetition of pass ``name``; record it."""
        gc.collect()
        self.clock.mark()
        if traced:
            self._probes.install()
            self.tracer.begin_pass(name)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            if traced:
                self.tracer.end_pass()
                self._probes.remove()
        self.clock.mark()
        seq = self.tracer.pass_seq if traced else None
        self.passes.append(PassRecord(name, len(self.passes), traced, t1 - t0, t0, t1, seq))

    def normalized(self, key: str) -> List[float]:
        """The ``key`` samples in reference seconds."""
        return [wall * self.passes[i].factor for wall, i in self.samples[key]]

    def wall(self, key: str) -> List[float]:
        return [wall for wall, _ in self.samples[key]]

    def update_rate(self, normalized: bool = True) -> float:
        """Point updates per (reference, or wall) second over every untraced
        burst, each burst's time normalized by its own factor."""
        recs = [self.passes[i] for _, i in self.bursts]
        seconds = sum(rec.ref if normalized else rec.wall for rec in recs)
        return sum(n for n, _ in self.bursts) / seconds

    # ------------------------------------------------------------------ #
    # Inputs and references

    def make_input(self, n: int) -> Any:
        if self.workload.shape == "attach":
            return inputs.attach_tree(n, self.seed)
        return inputs.deep_parens(n, self.seed)

    def config(self, n: int) -> MPCConfig:
        return MPCConfig(
            n=n,
            obs="off",
            exec_backend=self.workload.exec_backend,
            exec_workers=2,
            exec_faults="",
        )

    def prepare(self, rep: Any, n: int) -> PreparedTree:
        prepared = prepare(rep, sim=MPCSimulator(self.config(n)))
        self.check(prepared.original_tree.num_nodes == n, "prepare: node count")
        return prepared

    def build_reference(self, rep: Any) -> None:
        """Expected outputs, computed without the MPC pipeline."""
        if self.workload.shape == "attach":
            self._reference["tree"] = rep
            self._reference["values"] = self._sequential_values(rep)
        else:
            tree = parentheses_to_tree(rep.text)
            self._reference["sizes"] = {v: float(s) for v, s in tree.subtree_sizes().items()}
            self._reference["depths"] = {v: float(d) for v, d in tree.depths().items()}

    def _sequential_values(self, tree: RootedTree) -> Dict[str, float]:
        return {p.name: solve_sequential(p, tree).value for p in self.problems}

    def output_ok(
        self,
        name: str,
        res: Any,
        tree: Optional[RootedTree] = None,
        values: Optional[Dict[str, float]] = None,
    ) -> bool:
        """Whether one solved problem matches the reference input's outputs,
        or those of ``tree`` with sequential-DP ``values``.

        MWIS/MWM: the value equals the sequential DP's and the witness is a
        valid independent set / matching of that weight.  Accumulations:
        every node's value equals a direct pass over the tree.
        """
        if self.workload.shape == "deep":
            if "subtree_values" in res.output:
                return bool(res.output["subtree_values"] == self._reference["sizes"])
            return bool(res.output["depths"] == self._reference["depths"])
        if tree is None or values is None:
            tree, values = self._reference["tree"], self._reference["values"]
        expected = values[name]
        out = res.output
        if "independent_set" in out:
            valid = is_independent_set(tree, out["independent_set"])
            weight = independent_set_weight(tree, out["independent_set"])
        else:
            valid = is_matching(out["matching"])
            weight = matching_weight(tree, out["matching"])
        return valid and _close(res.value, expected) and _close(weight, res.value)

    # ------------------------------------------------------------------ #
    # Phases

    def solve_all(self, prepared: PreparedTree, solvers: Sequence[Any]) -> Dict[str, Any]:
        return {p.name: solve_on(prepared, s) for p, s in zip(self.problems, solvers)}

    def warm_up(self, rep_in: Any) -> None:
        """Untimed full-size prepare, cold and warm solve.

        The first solve repetition of a process runs measurably faster than
        every later one (module-level caches and the heap settle after it),
        so it is left out of the medians.  On the process backend a small
        pass starts the pool instead, and the inline solve of the full input
        that follows is the bit-identity reference.  :meth:`execute` resets
        the peak-memory mark after this, so none of it counts.
        """
        if self.workload.exec_backend == "process":
            small = prepare(self.make_input(WARMUP_N), sim=MPCSimulator(self.config(WARMUP_N)))
            self.solve_all(small, [as_cluster_dp(p) for p in self.problems])
            config = MPCConfig(n=self.workload.n, obs="off")
        else:
            config = self.config(self.workload.n)
        prepared = prepare(rep_in, sim=MPCSimulator(config))
        solvers = [as_cluster_dp(p) for p in self.problems]
        solved = self.solve_all(prepared, solvers)
        if self.workload.exec_backend == "process":
            self._reference["inline"] = {name: _fingerprint(r) for name, r in solved.items()}
        else:
            self.solve_all(prepared, solvers)

    def setup_phase(self, rep_in: Any, deadline: float) -> None:
        n = self.workload.n
        for rep in repetitions(deadline):
            with self._pass("setup", self._traced_rep(rep)):
                prepared = self.prepare(rep_in, n)
                server = self.serve(prepared) if self.workload.served_writers else None
            if server is not None:
                self.check(server.version == 0, "server: initial version")
            if rep == 0:
                clustering = prepared.clustering
                self.facts.update(
                    rss_after_prepare_kib=vm_kib("self", "VmRSS"),
                    aux_nodes=len(prepared.reduction.aux_nodes),
                    clusters=len(clustering.clusters),
                    layers=clustering.num_layers,
                    layer1_clusters=len(clustering.clusters_at_layer(1)),
                )
            prepared = server = None

    def solve_phase(self, rep_in: Any, deadline: float) -> PreparedTree:
        n = self.workload.n
        for rep in repetitions(deadline, self.workload.solve_reps):
            # Drop the previous repetition before the next one starts.
            prepared = cold = warm = solvers = None
            traced = self._traced_rep(rep)
            if self.workload.served_writers:
                prepared = self.prepare(rep_in, n)
            else:
                with self._pass("setup", traced):
                    prepared = self.prepare(rep_in, n)
            solvers = [as_cluster_dp(p) for p in self.problems]
            with self._pass("solve_cold", traced):
                cold = self.solve_all(prepared, solvers)
            if rep == 0:
                self._record_rounds(prepared)
            with self._pass("solve_warm", traced):
                warm = self.solve_all(prepared, solvers)
            for name, res in cold.items():
                self.check(self.output_ok(name, res), f"{name}: cold output is wrong")
                same = _fingerprint(warm[name]) == _fingerprint(res)
                if "inline" in self._reference:
                    same = same and _fingerprint(res) == self._reference["inline"][name]
                self.check(
                    same and self.output_ok(name, warm[name]),
                    f"{name}: warm output is wrong, differs from cold or from inline",
                )
            self.facts["kernel"] = _kernel_stats(solvers)
        return prepared

    def _record_rounds(self, prepared: PreparedTree) -> None:
        """Round accounting of one prepare plus one solve pass."""
        stats = prepared.sim.stats
        by_label: Dict[str, int] = {}
        for table in (stats.rounds_by_label, stats.charged_by_label):
            for label, rounds in table.items():
                by_label[label] = by_label.get(label, 0) + rounds
        self.facts.update(
            rounds_total=stats.total_rounds,
            rounds_by_label=by_label,
            words_sent=stats.total_words_sent + stats.charged_words,
            peak_machine_words=stats.peak_machine_words,
        )

    def serve(self, prepared: PreparedTree) -> TreeServer:
        return TreeServer(
            prepared,
            self.problems,
            config=ServerConfig(max_batch=256, max_delay=0.0, queue_limit=10_000),
        )

    def traffic_phase(
        self, prepared: PreparedTree, deadline: float
    ) -> Tuple[Dict[str, Any], List[List[Any]]]:
        """Update bursts until ``deadline``; returns the final per-problem
        views and the batches applied, for :meth:`verify_state`."""
        tree = prepared.original_tree
        batches = inputs.update_batches(tree.nodes(), tree.edges(), self.seed)
        applied: List[List[Any]] = []
        if self.workload.served_writers:
            views = self._served_traffic(prepared, batches, applied, deadline)
        else:
            views = self._direct_traffic(prepared, batches, applied, deadline)
        self.facts["updates_applied"] = sum(len(b) for b in applied)
        return views, applied

    def _book_burst(self, todo: List[List[Any]], got: Dict[str, List[float]]) -> None:
        """Book one finished burst; untraced bursts feed the latency metrics."""
        rec = self.passes[-1]
        if rec.traced:
            return
        for key, values in got.items():
            self.samples[key].extend((x, rec.index) for x in values)
        self.bursts.append((sum(len(b) for b in todo), rec.index))

    def _direct_traffic(
        self,
        prepared: PreparedTree,
        batches: Iterator[List[Any]],
        applied: List[List[Any]],
        deadline: float,
    ) -> Dict[str, Any]:
        group = prepared.incremental_many(self.problems)
        values = {name: solver.value for name, solver in group.solvers.items()}
        for burst in repetitions(deadline):
            todo = [next(batches) for _ in range(self.workload.burst)]
            got: Dict[str, List[float]] = {"update": []}
            with self._pass("updates", self._traced_rep(burst)):
                for ups in todo:
                    t0 = time.perf_counter()
                    reports = group.apply_updates(ups)
                    got["update"].append(time.perf_counter() - t0)
                    self.reports.append(reports)
            for ups, reports in zip(todo, self.reports[-len(todo):]):
                self.check(
                    _reports_ok(reports, len(ups), values),
                    "update batch: reports miss a problem, miscount updates or misflag a value change",
                )
            applied.extend(todo)
            self._book_burst(todo, got)
        return group.views()

    def _served_traffic(
        self,
        prepared: PreparedTree,
        batches: Iterator[List[Any]],
        applied: List[List[Any]],
        deadline: float,
    ) -> Dict[str, Any]:
        server = self.serve(prepared)
        nodes = prepared.original_tree.nodes()
        names = [p.name for p in self.problems]
        writers = self.workload.served_writers
        batches_seen: set = set()
        # Latest snapshot version each writer has seen; it must only go up.
        seen_version = [0] * writers

        async def burst_body(todo: List[List[Any]], got: Dict[str, List[float]]) -> None:
            done = asyncio.Event()

            async def writer(w: int, mine: List[List[Any]]) -> None:
                for ups in mine:
                    t0 = time.perf_counter()
                    result = await server.update(ups)
                    round_trip = time.perf_counter() - t0
                    solver_s = sum(r.seconds for r in result.reports.values())
                    got["update"].append(round_trip)
                    got["queue_wait"].append(max(0.0, round_trip - solver_s))
                    self.check(
                        result.version > seen_version[w]
                        and result.updates >= len(ups)
                        and sorted(result.reports) == sorted(names)
                        and all(r.updates == result.updates for r in result.reports.values()),
                        "update submission: version went back or reports are wrong",
                    )
                    seen_version[w] = result.version
                    if result.version not in batches_seen:  # coalesced submissions share one
                        batches_seen.add(result.version)
                        self.reports.append(result.reports)

            async def reader() -> None:
                start = time.perf_counter()
                last_version = -1
                k = 0
                while not done.is_set():
                    due = start + k / READ_RATE
                    delay = due - time.perf_counter()
                    if delay > 0:
                        await asyncio.sleep(delay)
                    woke = time.perf_counter()
                    if done.is_set():
                        return
                    name = names[k % len(names)]
                    label = await server.query_label(nodes[(k * 7919) % len(nodes)], name)
                    got["read"].append(time.perf_counter() - due)
                    got["read_lag"].append(woke - due)
                    version = server.snapshot(name).version
                    self.check(
                        label is not None and version >= last_version,
                        "read: missing label or snapshot version went back",
                    )
                    last_version = version
                    k += 1

            rtask = asyncio.get_running_loop().create_task(reader())
            try:
                await asyncio.gather(*(writer(i, todo[i::writers]) for i in range(writers)))
            finally:
                done.set()
                await rtask

        async def main() -> None:
            async with server:
                for burst in repetitions(deadline):
                    todo = [next(batches) for _ in range(self.workload.burst * writers)]
                    got: Dict[str, List[float]] = {
                        "update": [], "queue_wait": [], "read": [], "read_lag": []
                    }
                    with self._pass("updates", self._traced_rep(burst)):
                        await burst_body(todo, got)
                    applied.extend(todo)
                    self._book_burst(todo, got)

        asyncio.run(main())
        return {name: server.snapshot(name).view for name in names}

    def verify_state(
        self,
        prepared: PreparedTree,
        views: Dict[str, Any],
        applied: List[List[Any]],
        scratch: bool = False,
    ) -> None:
        """Check the state after the last batch against the mutated tree.

        ``scratch`` also requires bit-identity with a from-scratch solve of
        the mutated tree (the served-snapshot guarantee).
        """
        updates = [u for batch in applied for u in batch]
        mutated = inputs.apply_to_tree(prepared.original_tree, updates)
        values = self._sequential_values(mutated) if self.workload.shape == "attach" else None
        fresh = None
        if scratch:
            config = MPCConfig(n=mutated.num_nodes, obs="off")
            fresh_prepared = prepare(mutated, sim=MPCSimulator(config))
            fresh = self.solve_all(fresh_prepared, [as_cluster_dp(p) for p in self.problems])
        for name, view in views.items():
            ok = self.output_ok(name, view, tree=mutated, values=values)
            if fresh is not None:
                ok = ok and _fingerprint(view) == _fingerprint(fresh[name])
            self.check(ok, f"{name}: state after the last batch is wrong")

    # ------------------------------------------------------------------ #

    def execute(self) -> None:
        """Run every phase, then normalize every pass.

        The peak-memory mark covers the program only: it is reset after the
        benchmark's own reference work and warm-up, and read when the last
        burst ends, before the end-of-run checks.
        """
        w = self.workload
        rep_in = self.make_input(w.n)
        self.build_reference(rep_in)
        self.warm_up(rep_in)
        reset_peak_rss()
        start = time.perf_counter()
        self.setup_phase(rep_in, start + w.setup_end * self.seconds)
        prepared = self.solve_phase(rep_in, start + w.solve_end * self.seconds)
        views, applied = self.traffic_phase(prepared, start + self.seconds)
        self.facts["peak_rss_kib"] = self._peak_rss_kib(prepared)
        self.verify_state(prepared, views, applied, scratch=bool(w.served_writers))
        self.facts["exec_health"] = prepared.exec_health() or {}
        self.shutdown(prepared)
        for rec in self.passes:
            rec.factor = self.clock.factor(rec.t0, rec.t1)

    def _peak_rss_kib(self, prepared: PreparedTree) -> int:
        """Peak resident memory of this process plus every pool worker."""
        total = vm_kib("self", "VmHWM")
        if self.workload.exec_backend == "process":
            for pid in prepared.sim.executor.worker_pids():
                total += vm_kib(pid, "VmHWM")
        return total

    def shutdown(self, prepared: PreparedTree) -> None:
        """Stop the worker pool and the shared-memory resource tracker."""
        if self.workload.exec_backend != "process":
            return
        from multiprocessing import resource_tracker

        from repro.mpc.exec import shm

        prepared.sim.executor.close()
        tracker = resource_tracker._resource_tracker
        if getattr(tracker, "_pid", None) is not None:
            tracker._stop()
        self.check(shm.leaked_segments() == [], "exec: leaked shared-memory segments")
        self.check(not live_children(), "exec: child processes still running")


def reset_peak_rss() -> None:
    """Lower this process's peak resident memory (VmHWM) to its current
    resident size (Linux 4.0 and later)."""
    gc.collect()
    with open("/proc/self/clear_refs", "w", encoding="ascii") as fh:
        fh.write("5")


def live_children() -> List[int]:
    """PIDs of this process's children that have not exited."""
    me = os.getpid()
    alive = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[1]) == me and fields[0] != "Z":
            alive.append(int(entry))
    return alive


def _fingerprint(res: Any) -> Tuple[Any, Any, Dict[Any, Any]]:
    """What must be bit-identical between two solves of one problem."""
    return (res.value, res.root_label, dict(res.node_labels))


def _reports_ok(reports: Dict[str, Any], updates: int, values: Dict[str, Any]) -> bool:
    """Whether one batch's ``UpdateReport``s are consistent: one per problem
    in ``values``, each counting ``updates`` point updates and flagging
    ``value_changed`` exactly when its value differs from the previous
    batch's (``values``, updated in place)."""
    if sorted(reports) != sorted(values):
        return False
    ok = True
    for name, report in reports.items():
        moved = report.value != values[name]
        ok = ok and report.updates == updates and report.value_changed == moved
        values[name] = report.value
    return ok


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-9)


def _kernel_stats(solvers: Sequence[Any]) -> Dict[str, int]:
    """Dense-kernel cache counters summed over the solvers that have one."""
    totals: Dict[str, int] = {}
    for solver in solvers:
        dense = getattr(solver, "_dense", None)
        if dense is None:
            continue
        for stat, value in dense.cache_stats().items():
            totals[stat] = totals.get(stat, 0) + int(value)
    return totals
