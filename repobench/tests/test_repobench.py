"""Tests of the benchmark's own machinery (not of the program).

    python3 -m pytest repobench/tests -q
"""

from __future__ import annotations

import dataclasses
import json
import sys
import time
import types
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
for entry in (str(ROOT), str(ROOT / "src")):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from repobench import inputs, ledger, measure, probe, workloads  # noqa: E402
from repobench import run as bench_run  # noqa: E402
from repobench.workloads import MIN_REPS, WORKLOADS, Run, repetitions  # noqa: E402

# --------------------------------------------------------------------- #
# Seeded generators


def test_attach_tree_is_deterministic_per_seed():
    a, b = inputs.attach_tree(300, 7), inputs.attach_tree(300, 7)
    assert (a.parent, a.node_data, a.edge_data) == (b.parent, b.node_data, b.edge_data)
    c = inputs.attach_tree(300, 8)
    assert (a.parent, a.node_data) != (c.parent, c.node_data)
    assert set(a.edge_data) == set(a.edges())


def test_deep_parens_is_deterministic_and_split_heavy():
    assert inputs.deep_parens(800, 3).text == inputs.deep_parens(800, 3).text
    assert inputs.deep_parens(800, 3).text != inputs.deep_parens(800, 4).text
    tree = inputs.deep_tree(800, 3)
    assert tree.num_nodes == 800
    assert max(len(tree.children(v)) for v in tree.nodes()) >= 800 // 40


def test_update_batches_are_deterministic_and_apply_in_order():
    tree = inputs.attach_tree(100, 1)
    nodes, edges = tree.nodes(), tree.edges()
    first = inputs.update_batches(nodes, edges, 5)
    second = inputs.update_batches(nodes, edges, 5)
    a = [next(first) for _ in range(3)]
    assert a == [next(second) for _ in range(3)]
    assert all(len(batch) == inputs.BATCH_UPDATES for batch in a)
    flat = [u for batch in a for u in batch]
    mutated = inputs.apply_to_tree(tree, flat)
    last = {}
    for u in flat:
        last[(u.kind, u.target)] = u.data
    for (kind, target), data in last.items():
        store = mutated.node_data if kind == "node" else mutated.edge_data
        assert store[target] == data
    assert tree.node_data == inputs.attach_tree(100, 1).node_data  # input untouched


# --------------------------------------------------------------------- #
# Percentiles, calibration and normalization


@pytest.mark.parametrize("q", [0, 10, 50, 90, 99, 100])
def test_percentile_matches_numpy(q):
    rng = np.random.default_rng(q)
    values = rng.random(37).tolist()
    assert measure.percentile(values, q) == pytest.approx(np.percentile(values, q))


def test_percentile_rejects_empty():
    with pytest.raises(ValueError):
        measure.percentile([], 50)
    assert measure.percentile([3.0], 50) == 3.0


def test_clock_factor_is_mean_of_nearby_readings(monkeypatch):
    readings = iter([0.010, 0.030, 0.020, 0.040, 0.050, 0.075])
    monkeypatch.setattr(measure, "calibrate", lambda: next(readings))
    clock = measure.Clock(window=4.0, nearest=1)
    for t in (0.0, 1.0, 2.0, 20.0, 21.0, 22.0):
        monkeypatch.setattr(measure.time, "perf_counter", lambda t=t: t)
        clock.mark()
    # Readings within 4 s of [1, 2]: 0.010, 0.030, 0.020 -> mean 0.020.
    assert clock.factor(1.0, 2.0) == pytest.approx(measure.C_REF / 0.020)
    # 0.040, 0.050, 0.075: a slow reading counts in full (median 0.050).
    assert clock.factor(21.0, 21.5) == pytest.approx(measure.C_REF / 0.055)
    # Too few readings in the window: the nearest ones are used.
    wide = measure.Clock(window=0.1, nearest=3)
    wide.readings = list(clock.readings)
    assert wide.factor(3.0, 3.0) == pytest.approx(measure.C_REF / 0.020)
    with pytest.raises(ValueError):
        measure.Clock().factor(0.0, 1.0)


def test_calibration_loop_is_fixed_work():
    assert measure.calibration_loop() == measure.calibration_loop()
    assert measure.calibrate() > 0


# --------------------------------------------------------------------- #
# Probes and the tracer


class _Base:
    def inherited(self, x):
        return x + 1


class _Leaf(_Base):
    def own(self, x):
        return self.inherited(x) * 2


def _rows(tracer, seq):
    rows = {}
    for span in tracer.spans:
        if span["seq"] == seq:
            rows[span["row"]] = rows.get(span["row"], 0.0) + span["self"]
    return rows


def test_probes_install_restore_and_self_time():
    module = types.ModuleType("fake")
    module.fn = lambda x: x * 3
    original_fn, original_own = module.fn, _Leaf.own
    tracer = probe.Tracer()
    targets = [
        (module, "fn", probe.fixed("fn")),
        (_Leaf, "own", probe.fixed("own")),
        (_Leaf, "inherited", probe.fixed("inherited")),
    ]
    probes = probe.Probes(tracer, targets).install()
    assert module.fn is not original_fn and "inherited" in vars(_Leaf)
    tracer.begin_pass("p")
    assert _Leaf().own(1) == 4 and module.fn(2) == 6
    total = tracer.end_pass()
    module.fn(1)  # outside any pass: not recorded
    probes.remove()
    assert module.fn is original_fn
    assert _Leaf.own is original_own
    assert "inherited" not in vars(_Leaf) and _Leaf().inherited(1) == 2
    rows = _rows(tracer, tracer.pass_seq)
    assert set(rows) == {"own", "inherited", "fn", probe.OTHER}
    assert sum(rows.values()) == pytest.approx(total)
    by_row = {span["row"]: span for span in tracer.spans}
    assert by_row["inherited"]["parent"] == by_row["own"]["id"]
    assert by_row["own"]["dur"] >= by_row["inherited"]["dur"]
    assert len(tracer.spans) == 4


def test_probes_restore_the_program_entry_points():
    targets = probe.program_targets(process_backend=True)
    before = [(owner, attr, vars(owner).get(attr)) for owner, attr, _ in targets]
    p = probe.Probes(probe.Tracer(), targets).install()
    with pytest.raises(RuntimeError):
        p.install()
    p.remove()
    assert [(o, a, vars(o).get(a)) for o, a, _ in targets] == before


def test_spans_on_other_threads_count_as_pass_children():
    import threading

    tracer = probe.Tracer()
    tracer.begin_pass("p")

    def work():
        frame = tracer.begin("worker")
        sum(range(10_000))
        tracer.end(frame)

    t = threading.Thread(target=work)
    t.start()
    t.join(timeout=10)
    assert not t.is_alive()
    total = tracer.end_pass()
    rows = _rows(tracer, tracer.pass_seq)
    assert sum(rows.values()) == pytest.approx(total)
    assert rows["worker"] > 0


def test_layer_tag():
    assert [probe.layer_tag(k) for k in (1, 2, 3, 7)] == ["L1", "L2", "L3plus", "L3plus"]


# --------------------------------------------------------------------- #
# Ledger


def _pass(name, index, traced, wall, factor=1.0, seq=None):
    return {
        "type": "pass", "pass": name, "index": index, "traced": traced,
        "wall": wall, "factor": factor, "seq": seq,
    }


def _span(seq, row, self_s):
    return {"type": "span", "seq": seq, "row": row, "self": self_s, "dur": self_s}


def _staged_run(probed_rows):
    """Untraced, traced, untraced repetitions of a two-stage pass (two 60 ms
    stages), the traced one with probes on the stages in ``probed_rows``."""
    stages = types.ModuleType("stages")
    stages.parse = lambda: time.sleep(0.06)
    stages.solve = lambda: time.sleep(0.06)
    tracer = probe.Tracer()
    targets = [(stages, row, probe.fixed(row)) for row in probed_rows]
    passes = []
    for index, traced in enumerate((False, True, False)):
        probes = probe.Probes(tracer, targets)
        if traced:
            probes.install()
            tracer.begin_pass("solve")
        t0 = time.perf_counter()
        stages.parse()
        stages.solve()
        wall = time.perf_counter() - t0
        if traced:
            tracer.end_pass()
            probes.remove()
        passes.append(_pass("solve", index, traced, wall, seq=tracer.pass_seq if traced else None))
    return passes, tracer.spans


def _write_trace(path, passes, spans):
    """The trace file as ``run.write_trace`` writes it."""
    lines = [json.dumps(p) for p in passes] + [json.dumps({"type": "span", **s}) for s in spans]
    path.write_text("\n".join(lines) + "\n")


def test_ledger_cover_of_a_fully_probed_pass(tmp_path):
    passes, spans = _staged_run(["parse", "solve"])
    book = ledger.build(passes, spans)
    assert book["solve"]["cover"] == pytest.approx(1.0, abs=0.15)
    assert book["solve"]["other_share"] < 0.05
    assert book["solve"]["rows"]["parse"] == pytest.approx(0.06, rel=0.5)
    assert set(book["solve"]["rows"]) == {"parse", "solve", probe.OTHER}
    assert ledger.failures(book) == []
    path = tmp_path / "trace.jsonl"
    _write_trace(path, passes, spans)
    assert ledger.main([str(path)]) == 0


def test_ledger_fails_a_pass_with_a_missing_probe(tmp_path):
    # The unprobed stage's time lands in `other`, which the cover leaves out.
    passes, spans = _staged_run(["parse"])
    book = ledger.build(passes, spans)
    assert book["solve"]["cover"] == pytest.approx(0.5, abs=0.15)
    assert book["solve"]["other_share"] == pytest.approx(0.5, abs=0.1)
    assert ledger.failures(book) == ["solve"]
    path = tmp_path / "trace.jsonl"
    _write_trace(path, passes, spans)
    assert ledger.main([str(path)]) == 1


def test_ledger_normalizes_by_each_repetitions_factor():
    passes = [
        _pass("p", 0, False, 2.0, factor=0.5),
        _pass("p", 1, True, 1.0, factor=1.0, seq=1),
    ]
    spans = [_span(1, "dp.up.L1", 0.9), _span(1, probe.OTHER, 0.1)]
    book = ledger.build(passes, spans)
    assert book["p"]["cover"] == pytest.approx(0.9)
    assert book["p"]["other_share"] == pytest.approx(0.1)
    assert book["p"]["overhead_s"] == pytest.approx(0.0)
    assert ledger.failures(book) == []


def test_ledger_fails_a_pass_slowed_by_tracing():
    passes = [
        _pass("p", 0, False, 1.0),
        _pass("p", 1, True, 1.6, seq=1),
        _pass("p", 2, False, 1.0),
    ]
    book = ledger.build(passes, [_span(1, "dp.up.L1", 1.5), _span(1, probe.OTHER, 0.1)])
    assert book["p"]["cover"] == pytest.approx(1.5)
    assert book["p"]["overhead_s"] == pytest.approx(0.6)
    assert ledger.failures(book) == ["p"]


# --------------------------------------------------------------------- #
# Update-report checks and the peak-memory mark


def _report(updates, value, changed):
    return types.SimpleNamespace(updates=updates, value=value, value_changed=changed)


def test_reports_ok_checks_every_batch_report():
    values = {"a": 1.0, "b": 2.0}
    assert workloads._reports_ok({"a": _report(8, 1.5, True), "b": _report(8, 2.0, False)}, 8, values)
    assert values == {"a": 1.5, "b": 2.0}
    # A missing problem, a miscounted batch, a misflagged value change.
    assert not workloads._reports_ok({"a": _report(8, 1.5, False)}, 8, dict(values))
    assert not workloads._reports_ok(
        {"a": _report(7, 1.5, False), "b": _report(8, 2.0, False)}, 8, dict(values)
    )
    assert not workloads._reports_ok(
        {"a": _report(8, 1.5, True), "b": _report(8, 2.0, False)}, 8, dict(values)
    )


def test_reset_peak_rss_drops_an_earlier_peak():
    block = np.ones(48 * 2**20, dtype=np.uint8)  # 48 MiB, touched
    high = workloads.vm_kib("self", "VmHWM")
    del block
    workloads.reset_peak_rss()
    assert workloads.vm_kib("self", "VmHWM") < high - 32 * 1024


# --------------------------------------------------------------------- #
# BENCHMARK.json and tiny runs of every workload


def test_repetitions_stop_before_overrunning_the_deadline():
    assert list(repetitions(time.perf_counter() - 1.0)) == list(range(MIN_REPS))
    deadline = time.perf_counter() + 0.25
    reps = []
    for rep in repetitions(deadline):
        reps.append(rep)
        time.sleep(0.1)
    # Two 0.1 s repetitions fit; a third would end after the deadline.
    assert reps == [0, 1]
    assert time.perf_counter() <= deadline + 0.05
    assert list(repetitions(time.perf_counter() - 1.0, count=3)) == [0, 1, 2]


def test_benchmark_json_matches_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == bench_run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == bench_run.PER_LAYER
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", list(WORKLOADS))
def test_tiny_run_of_every_workload(name, trace):
    small = dataclasses.replace(WORKLOADS[name], n=600, burst=2)
    run = Run(small, seed=3, seconds=0.5, trace=trace)
    run.execute()
    assert run.failed == 0, run.failures
    assert run.attempted > 0
    if trace:
        book = ledger.build([p.as_dict() for p in run.passes], run.tracer.spans)
        values = bench_run.per_layer(run, book)
        names = [m for m, _ in bench_run.PER_LAYER]
    else:
        values = bench_run.end_to_end(run)
        names = [m for m, _ in bench_run.END_TO_END]
    assert sorted(values) == sorted(names)
    assert all(isinstance(v, float) and v == v for v in values.values())
    bench_run.detail(run, {})
