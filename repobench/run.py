"""Repository benchmark entry point.

    python3 repobench/run.py --workload attach-inline --seed 1 --seconds 25 --trace 0

Runs one workload (see ``workloads.WORKLOADS``) for ``--seconds`` seconds on
inputs made from ``--seed`` and prints, as its last stdout line, one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` alternates untraced and
traced repetitions, reports the per-layer metrics and writes every span to
``.repobench/trace-<workload>-<seed>.jsonl`` for ``repobench/ledger.py``.
The line before the result is a JSON ``detail`` object with the
workload-specific numbers that are not gated (serving tails, read latency).
Times are in reference seconds (see ``measure.py``); ``wall.*`` metrics
give the raw wall times.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Dict, List, Tuple

ROOT = Path(__file__).resolve().parent.parent
if not (ROOT / "src" / "repro").is_dir():
    # Measure the checkout's program, never an installed copy.
    sys.exit(f"no program source at {ROOT / 'src' / 'repro'}")
sys.path[0:0] = [str(ROOT), str(ROOT / "src")]

from repobench import ledger  # noqa: E402
from repobench.measure import percentile  # noqa: E402
from repobench.probe import OTHER  # noqa: E402

#: (name, unit) of every end-to-end metric, reported with --trace 0.
END_TO_END: List[Tuple[str, str]] = [
    ("setup_s", "s"),
    ("solve_cold_s", "s"),
    ("solve_warm_s", "s"),
    ("updates_per_s", "1/s"),
    ("update_p50_ms", "ms"),
    ("rounds_total", "count"),
    ("peak_rss_mb", "MiB"),
]

ROUND_LABELS = (
    "group_by",
    "reduce",
    "parens-summaries",
    "clustering-bookkeeping",
    "dp-pass",
)
DP_ROWS = (
    "up.L1", "up.L2", "up.L3plus", "down.L1", "down.L2", "down.L3plus", "root", "extract", "other"
)
LEDGER_PASSES = ("setup", "solve_cold", "solve_warm", "updates")
KERNEL_COUNTS = ("transition_enumerations", "affine_composes", "value_evictions", "trace_evictions")

#: (name, unit) of every per-layer metric, reported with --trace 1.
PER_LAYER: List[Tuple[str, str]] = (
    [
        ("host.calibration_ms", "ms"),
        ("wall.setup_s", "s"),
        ("wall.solve_cold_s", "s"),
        ("wall.solve_warm_s", "s"),
        ("wall.updates_per_s", "1/s"),
        ("wall.update_p50_ms", "ms"),
        ("representations.normalize_s", "s"),
        ("clustering.degree_reduction_s", "s"),
        ("clustering.aux_nodes", "count"),
        ("clustering.build_s", "s"),
        ("clustering.clusters", "count"),
        ("clustering.layers", "count"),
    ]
    + [(f"mpc.rounds.{label}", "count") for label in ROUND_LABELS]
    + [
        ("mpc.rounds.dp-update_per_batch", "count"),
        ("mpc.words_sent", "count"),
        ("mpc.peak_machine_words", "count"),
        ("dp.up.L1.clusters", "count"),
    ]
    + [(f"dp.{p}.{row}_s", "s") for p in ("cold", "warm") for row in DP_ROWS]
    + [
        ("kernels.value_hit_ratio", "ratio"),
        ("kernels.trace_hit_ratio", "ratio"),
    ]
    + [(f"kernels.{stat}", "count") for stat in KERNEL_COUNTS]
    + [
        ("incremental.apply_s", "s"),
        ("incremental.clusters_resolved_per_update", "count"),
        ("incremental.summaries_changed_ratio", "ratio"),
        ("incremental.full_resolves", "count"),
        ("serving.batch_size", "count"),
        ("exec.dp_layer_calls", "count"),
        ("exec.retries", "count"),
        ("exec.rebuilds", "count"),
        ("exec.fallbacks", "count"),
        ("mem.rss_after_prepare_mb", "MiB"),
        ("trace.overhead_s", "s"),
    ]
)


def _median(run: Any, name: str, wall: bool = False) -> float:
    """Median (reference, or wall) seconds of the untraced ``name`` passes."""
    recs = [p for p in run.passes if p.name == name and not p.traced]
    return percentile([p.wall if wall else p.ref for p in recs], 50)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def end_to_end(run: Any) -> Dict[str, float]:
    return {
        "setup_s": _median(run, "setup"),
        "solve_cold_s": _median(run, "solve_cold"),
        "solve_warm_s": _median(run, "solve_warm"),
        "updates_per_s": run.update_rate(),
        "update_p50_ms": percentile(run.normalized("update"), 50) * 1000.0,
        "rounds_total": float(run.facts["rounds_total"]),
        "peak_rss_mb": run.facts["peak_rss_kib"] / 1024.0,
    }


def _incremental(run: Any) -> Dict[str, float]:
    resolved = changed = full = rounds = 0
    for reports in run.reports:
        for rep in reports.values():
            resolved += rep.clusters_resolved
            changed += rep.summaries_changed
            full += int(rep.full_resolve)
            rounds += rep.rounds_charged
    updates = run.facts["updates_applied"]
    return {
        "incremental.clusters_resolved_per_update": _ratio(resolved, updates),
        "incremental.summaries_changed_ratio": _ratio(changed, resolved),
        "incremental.full_resolves": float(full),
        "serving.batch_size": _ratio(updates, len(run.reports)),
        "mpc.rounds.dp-update_per_batch": _ratio(rounds, len(run.reports)),
    }


def _apply_per_call(run: Any) -> float:
    """Median over traced bursts of the mean apply_updates call, in ref-s."""
    per_burst = []
    for rec in run.passes:
        if rec.traced and rec.name == "updates":
            durs = [
                s["dur"]
                for s in run.tracer.spans
                if s["seq"] == rec.seq and s["row"] == "incremental.apply"
            ]
            per_burst.append(sum(durs) / len(durs) * rec.factor)
    return percentile(per_burst, 50)


def _kernels(run: Any) -> Dict[str, float]:
    k = run.facts["kernel"]
    out = {}
    for cache in ("value", "trace"):
        hits, misses = k.get(f"{cache}_hits", 0), k.get(f"{cache}_misses", 0)
        out[f"kernels.{cache}_hit_ratio"] = _ratio(hits, hits + misses)
    for stat in KERNEL_COUNTS:
        out[f"kernels.{stat}"] = float(k.get(stat, 0))
    return out


def per_layer(run: Any, book: Dict[str, Dict[str, Any]]) -> Dict[str, float]:
    facts = run.facts
    setup_rows = book["setup"]["rows"]
    health = facts["exec_health"]
    dp_calls = 0
    if run.workload.exec_backend == "process":
        dp_calls = sum(
            1
            for span in run.tracer.spans
            if span["pass"].startswith("solve_") and span["row"].startswith(("dp.up.", "dp.down."))
        )
    out: Dict[str, float] = {
        "host.calibration_ms": percentile([r for _, r in run.clock.readings], 50) * 1000.0,
        "wall.setup_s": _median(run, "setup", wall=True),
        "wall.solve_cold_s": _median(run, "solve_cold", wall=True),
        "wall.solve_warm_s": _median(run, "solve_warm", wall=True),
        "wall.updates_per_s": run.update_rate(normalized=False),
        "wall.update_p50_ms": percentile(run.wall("update"), 50) * 1000.0,
        "representations.normalize_s": setup_rows.get("representations.normalize", 0.0),
        "clustering.degree_reduction_s": setup_rows.get("clustering.degree_reduction", 0.0),
        "clustering.aux_nodes": float(facts["aux_nodes"]),
        "clustering.build_s": setup_rows.get("clustering.build", 0.0),
        "clustering.clusters": float(facts["clusters"]),
        "clustering.layers": float(facts["layers"]),
        "mpc.words_sent": float(facts["words_sent"]),
        "mpc.peak_machine_words": float(facts["peak_machine_words"]),
        "dp.up.L1.clusters": float(facts["layer1_clusters"]),
        "incremental.apply_s": _apply_per_call(run),
        "exec.dp_layer_calls": float(dp_calls),
        "exec.retries": float(health.get("retries", 0)),
        "exec.rebuilds": float(health.get("rebuilds", 0)),
        "exec.fallbacks": float(health.get("inline_fallbacks", 0)),
        "mem.rss_after_prepare_mb": facts["rss_after_prepare_kib"] / 1024.0,
        "trace.overhead_s": sum(entry["overhead_s"] for entry in book.values()),
    }
    for label in ROUND_LABELS:
        out[f"mpc.rounds.{label}"] = float(facts["rounds_by_label"].get(label, 0))
    for pass_name, tag in (("solve_cold", "cold"), ("solve_warm", "warm")):
        rows = book[pass_name]["rows"]
        for row in DP_ROWS:
            secs = rows.get(row if row == OTHER else f"dp.{row}", 0.0)
            if row == "extract":
                # Label projection is the rest of building the result.
                secs += rows.get("pipeline.project_labels", 0.0)
            out[f"dp.{tag}.{row}_s"] = secs
    out.update(_kernels(run))
    out.update(_incremental(run))
    return out


def detail(run: Any, book: Dict[str, Dict[str, Any]]) -> Dict[str, Any]:
    """What a run reports besides its metrics: ungated tails, serve-only
    latencies, raw samples and the ledger."""
    info: Dict[str, Any] = {
        "workload": run.workload.name,
        "seed": run.seed,
        "failures": run.failures,
        "rounds_by_label": run.facts["rounds_by_label"],
        "update_p90_ms": percentile(run.normalized("update"), 90) * 1000.0,
        "update_samples": len(run.samples["update"]),
        "passes": {
            name: [
                [p.wall, p.factor, p.t0] for p in run.passes if p.name == name and not p.traced
            ]
            for name in LEDGER_PASSES
        },
        "calibrations": run.clock.readings,
    }
    if run.samples["read"]:
        for key, q, label in (
            ("read", 50, "read_p50_ms"),
            ("read", 99, "read_p99_ms"),
            ("read_lag", 50, "loop_lag_p50_ms"),
            ("queue_wait", 50, "queue_wait_p50_ms"),
        ):
            info[label] = percentile(run.normalized(key), q) * 1000.0
        info["reads"] = len(run.samples["read"])
    if book:
        info["ledger"] = book
        if run.workload.exec_backend == "process":
            info["exec.dp_layer_s"] = sum(
                secs
                for name in ("solve_cold", "solve_warm")
                for row, secs in book[name]["rows"].items()
                if row.startswith(("dp.up.", "dp.down."))
            )
    return info


def write_trace(run: Any, path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as fh:
        for rec in run.passes:
            fh.write(json.dumps(rec.as_dict()) + "\n")
        for span in run.tracer.spans:
            fh.write(json.dumps({"type": "span", **span}) + "\n")


def main(argv: List[str]) -> int:
    from repobench.workloads import WORKLOADS, Run

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    run = Run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    run.execute()
    book: Dict[str, Dict[str, Any]] = {}
    if run.trace:
        write_trace(run, Path.cwd() / ".repobench" / f"trace-{args.workload}-{args.seed}.jsonl")
        book = ledger.build([p.as_dict() for p in run.passes], run.tracer.spans)
        missing = [p for p in LEDGER_PASSES if p not in book]
        if missing:
            raise RuntimeError(f"no traced repetition of {missing}")
        values = per_layer(run, book)
        units = dict(PER_LAYER)
    else:
        values = end_to_end(run)
        units = dict(END_TO_END)
    info = detail(run, book)
    if book:
        info["ledger_outside_tolerance"] = ledger.failures(book)
    print(json.dumps({"detail": info}, sort_keys=True))
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    print(
        json.dumps(
            {
                "correct": run.failed == 0,
                "attempted": run.attempted,
                "failed": run.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
