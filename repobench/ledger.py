"""Per-pass, per-layer self-time ledger of a traced benchmark run (stdlib only).

A traced run (``run.py --trace 1``) alternates untraced and traced
repetitions of every pass and writes them, with every span, as JSON lines
to ``.repobench/trace-<workload>-<seed>.jsonl``.  This tool turns that file
into a table: for each pass, the self time of every row (layer), normalized
to reference seconds, next to the untraced time of the neighbouring
repetitions.  Two checks, each per pass:

* *cover*: the sum of the named rows — every row but ``other``, the pass's
  own time outside any traced entry point — over that untraced time.  It is
  1 when the traced layers account for the whole pass and tracing costs
  nothing; it must stay within ``1 ± TOLERANCE``.
* *other share*: ``other`` over the traced pass's duration, at most
  ``OTHER_MAX``.  Both come from the same repetition, so host noise cancels;
  a probe that is missing or no longer reached leaves its layer's time in
  ``other`` and trips this check first.

The tool exits 1 when a check fails.

    python3 repobench/ledger.py .repobench/trace-attach-inline-1.jsonl
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from typing import Any, Dict, Iterable, List, Optional, Tuple

#: Row name of a pass root's own self time: the pass's time outside every
#: traced entry point.
OTHER = "other"

#: Largest allowed |cover - 1| of a pass.  A 24-second run has only one or
#: two traced cold and warm solves, a lone repetition runs up to a third
#: slower or faster than its untraced neighbours on the reference host, and
#: the glue between traced entry points (``other``) is up to a fifth of a
#: solve, so covers of 0.66-1.37 were measured; the bound catches gross
#: tracing overhead and double-counted spans.
TOLERANCE = 0.4
#: Largest allowed share of ``other`` in a traced pass (measured: at most
#: 0.18, on deep-parens solves).
OTHER_MAX = 0.25


def load(lines: Iterable[str]) -> Tuple[List[Dict[str, Any]], List[Dict[str, Any]]]:
    """Split a trace file's lines into pass records and span records."""
    passes: List[Dict[str, Any]] = []
    spans: List[Dict[str, Any]] = []
    for line in lines:
        if not line.strip():
            continue
        rec = json.loads(line)
        kind = rec.get("type")
        if kind == "pass":
            passes.append(rec)
        elif kind == "span":
            spans.append(rec)
    return passes, spans


def _neighbour_ref(untraced: List[Dict[str, Any]], index: int) -> Optional[float]:
    """Mean reference seconds of the untraced repetitions just before and
    after position ``index`` (either one alone at the ends)."""
    before = [p for p in untraced if p["index"] < index]
    after = [p for p in untraced if p["index"] > index]
    near = ([before[-1]] if before else []) + ([after[0]] if after else [])
    if not near:
        return None
    return statistics.fmean(p["wall"] * p["factor"] for p in near)


def build(passes: List[Dict[str, Any]], spans: List[Dict[str, Any]]) -> Dict[str, Dict[str, Any]]:
    """The ledger: per pass name, median row self times and the cover.

    Returns ``{pass: {"rows": {row: ref_s}, "cover": c, "other_share": s,
    "overhead_s": o, "traced": k, "untraced_ref_s": u}}`` with medians over the pass's
    traced repetitions; passes without a traced and an untraced
    repetition are left out.
    """
    rows_by_seq: Dict[int, Dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for span in spans:
        rows_by_seq[span["seq"]][span["row"]] += span["self"]
    by_name: Dict[str, List[Dict[str, Any]]] = defaultdict(list)
    for p in passes:
        by_name[p["pass"]].append(p)
    out: Dict[str, Dict[str, Any]] = {}
    for name, recs in by_name.items():
        recs.sort(key=lambda p: p["index"])
        untraced = [p for p in recs if not p["traced"]]
        covers: List[float] = []
        other_shares: List[float] = []
        overheads: List[float] = []
        neighbours: List[float] = []
        row_samples: Dict[str, List[float]] = defaultdict(list)
        traced = [p for p in recs if p["traced"]]
        for p in traced:
            ref = _neighbour_ref(untraced, p["index"])
            if ref is None or ref <= 0:
                continue
            rows = rows_by_seq.get(p["seq"], {})
            for row, self_s in rows.items():
                row_samples[row].append(self_s * p["factor"])
            named = sum(secs for row, secs in rows.items() if row != OTHER)
            covers.append(named * p["factor"] / ref)
            other_shares.append(rows.get(OTHER, 0.0) / (named + rows.get(OTHER, 0.0)))
            overheads.append(p["wall"] * p["factor"] - ref)
            neighbours.append(ref)
        if not covers:
            continue
        # A row missing from some repetitions counts as 0 there.
        k = len(covers)
        out[name] = {
            "rows": {
                row: statistics.median(vals + [0.0] * (k - len(vals)))
                for row, vals in sorted(row_samples.items())
            },
            "cover": statistics.median(covers),
            "other_share": statistics.median(other_shares),
            "overhead_s": statistics.median(overheads),
            "untraced_ref_s": statistics.median(neighbours),
            "traced": k,
        }
    return out


def failures(ledger: Dict[str, Dict[str, Any]]) -> List[str]:
    """Pass names whose cover is outside ``1 ± TOLERANCE`` or whose
    ``other`` share is above ``OTHER_MAX``."""
    return [
        name
        for name, entry in ledger.items()
        if abs(entry["cover"] - 1.0) > TOLERANCE or entry["other_share"] > OTHER_MAX
    ]


def render(ledger: Dict[str, Dict[str, Any]]) -> str:
    lines: List[str] = []
    for name, entry in ledger.items():
        untraced = entry["untraced_ref_s"]
        lines.append(
            f"{name}: untraced {untraced:.4f} ref-s, cover {entry['cover']:.3f}, "
            f"other share {entry['other_share']:.3f}, "
            f"tracing overhead {entry['overhead_s']:+.4f} ref-s "
            f"({entry['traced']} traced repetitions)"
        )
        for row, secs in sorted(entry["rows"].items(), key=lambda kv: -kv[1]):
            share = secs / untraced if untraced else 0.0
            lines.append(f"    {row:<32} {secs:10.4f} ref-s  {share:7.1%}")
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("trace", help="JSON-lines trace written by run.py --trace 1")
    args = parser.parse_args(argv)
    with open(args.trace, encoding="utf-8") as fh:
        passes, spans = load(fh)
    ledger = build(passes, spans)
    if not ledger:
        print("no pass has both a traced and an untraced repetition", file=sys.stderr)
        return 1
    print(render(ledger))
    bad = failures(ledger)
    if bad:
        print(
            f"cover outside 1 ± {TOLERANCE} or other share above {OTHER_MAX}: "
            + ", ".join(bad),
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
