#!/usr/bin/env python3
"""Profile reader for mcgp run reports.

Consumes the "profile" section a profiler-attached run embeds in its JSON
run report (mcpart --profile --report-json=..., or a bench --trace-dir
report.json) and renders the three views a performance investigation
actually starts from:

  top     the phases that ate the run, ranked by a field
          (top-N by thread CPU time, with each phase's share of the run)
  levels  the per-hierarchy-level trend of one derived metric for one
          phase (e.g. CPU ns per edge of coarsen.matching by level)
  diff    A/B comparison of two reports, per matching phase
          (report.py diff before.json after.json --metric=parallelism)

Schema-1 reports (which also carried hardware-counter fields) still load;
fields this reader does not know are ignored, and a schema-1 report whose
kernel refused the counters has no task_clock_ns, so `top` falls back to
wall_ns.

Dependency-free by design: stdlib only, same as tools/mcgp_bench_diff.

Exit codes: 0 = ok, 2 = bad input.
"""

from __future__ import annotations

import argparse
import json
import sys

# Profile schema this reader understands (kMcgpSchemaVersion in
# src/support/schema.hpp). Newer majors fail loudly instead of silently
# misreading fields whose meaning may have changed. Schema 3 changed only
# the run ledger's phases, so the profile section reads as in schema 2.
SUPPORTED_SCHEMA = 3

# Raw per-phase fields the C++ side writes (summed per bucket).
RAW_FIELDS = ("scopes", "edges", "vtxs", "wall_ns", "task_clock_ns")

# metric name -> (numerator field, denominator field). Recomputed here
# from the raw sums rather than trusting the report's per-phase derived
# values, so diff ratios aggregate correctly across levels.
DERIVED = {
    "wall_ns_per_edge": ("wall_ns", "edges"),
    "task_clock_per_edge": ("task_clock_ns", "edges"),
    # On-CPU time over wall time: 1.0 = one busy core, `threads` = perfect
    # scaling. Aux (worker-side) rows contribute task_clock but no wall
    # time, so the aggregated ratio is the phase's effective occupancy.
    "parallelism": ("task_clock_ns", "wall_ns"),
}

METRICS = tuple(RAW_FIELDS) + tuple(DERIVED)


def load_profile(path):
    """Read a run report (or a bare profile object) and return the
    profile dict, or raise SystemExit with a precise message."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except OSError as e:
        raise SystemExit(f"error: cannot read {path}: {e}")
    except json.JSONDecodeError as e:
        raise SystemExit(f"error: {path}: not valid JSON: {e}")
    if isinstance(doc, dict) and isinstance(doc.get("profile"), dict):
        prof = doc["profile"]
    elif isinstance(doc, dict) and "schema_version" in doc and "phases" in doc:
        prof = doc  # a bare profile object
    else:
        raise SystemExit(
            f"error: {path}: no \"profile\" section — produce one with "
            "mcpart --profile --report-json=<path>")
    schema = prof.get("schema_version")
    if schema is None or schema > SUPPORTED_SCHEMA:
        raise SystemExit(
            f"error: {path}: profile schema_version {schema!r} not "
            f"supported (this reader understands <= {SUPPORTED_SCHEMA})")
    return prof


def metric_value(row, metric):
    """Evaluate a raw or derived metric on one aggregated row.
    Returns None when an input is absent or a denominator is zero."""
    if metric in DERIVED:
        num_field, den_field = DERIVED[metric]
        num, den = row.get(num_field), row.get(den_field)
        if num is None or den is None or den == 0:
            return None
        return num / den
    return row.get(metric)


def merge_rows(acc, row):
    for field in RAW_FIELDS:
        if field in row:
            acc[field] = acc.get(field, 0) + row[field]
    # `threads` counts distinct worker ordinals seen by a bucket — an
    # occupancy, not an accumulating sum, so aggregation takes the max
    # across a phase's per-level rows.
    if "threads" in row:
        acc["threads"] = max(acc.get("threads", 0), row["threads"])


def by_phase(prof):
    """Aggregate the per-(phase, level) rows into {phase: summed_row},
    excluding the all-enclosing "run" row (returned separately)."""
    phases = {}
    run = None
    for row in prof.get("phases", []):
        name = row.get("phase", "?")
        if name == "run":
            run = dict(run or {})
            merge_rows(run, row)
            continue
        acc = phases.setdefault(name, {})
        merge_rows(acc, row)
    return phases, run


def fmt(v):
    if v is None:
        return "-"
    if isinstance(v, float):
        return f"{v:.4g}"
    return f"{v:,}"


def check_metric(metric):
    if metric not in METRICS:
        raise SystemExit(
            f"error: unknown metric {metric!r} (choose from "
            f"{', '.join(METRICS)})")


def pick_rank_field(prof, requested):
    """The field `top` ranks by: the requested one, else task_clock_ns
    when the report carries it, else wall_ns."""
    if requested:
        check_metric(requested)
        return requested
    if any("task_clock_ns" in row for row in prof.get("phases", [])):
        return "task_clock_ns"
    return "wall_ns"


def cmd_top(args):
    prof = load_profile(args.report)
    rank = pick_rank_field(prof, args.by)
    phases, run = by_phase(prof)
    rows = []
    for name, acc in phases.items():
        v = metric_value(acc, rank)
        if v is not None:
            rows.append((v, name, acc))
    rows.sort(key=lambda t: (-t[0], t[1]))
    total = metric_value(run, rank) if run else None
    print(f"top {min(args.n, len(rows))} phases by {rank} "
          f"({args.report})")
    header = (f"{'phase':<22} {rank:>16} {'share':>7}  "
              f"{'thr':>3} {'par':>5}")
    print(header)
    print("-" * len(header))
    for v, name, acc in rows[:args.n]:
        share = f"{v / total:7.1%}" if total else "      -"
        thr = acc.get("threads")
        par = metric_value(acc, "parallelism")
        print(f"{name:<22} {fmt(v):>16} {share}  "
              f"{fmt(thr):>3} {fmt(par):>5}")
    if total is not None:
        print(f"{'(whole run)':<22} {fmt(total):>16}")
    return 0


def cmd_levels(args):
    prof = load_profile(args.report)
    check_metric(args.metric)
    rows = [r for r in prof.get("phases", [])
            if r.get("phase") == args.phase and "level" in r]
    if not rows:
        leveled = sorted({r["phase"] for r in prof.get("phases", [])
                          if "level" in r})
        raise SystemExit(
            f"error: no per-level rows for phase {args.phase!r} "
            f"(phases with levels: {', '.join(leveled) or 'none'})")
    rows.sort(key=lambda r: r["level"])
    print(f"{args.phase}: {args.metric} by hierarchy level ({args.report})")
    header = f"{'level':>5} {'edges':>12} {'vtxs':>12} {args.metric:>16}"
    print(header)
    print("-" * len(header))
    for r in rows:
        v = metric_value(r, args.metric)
        print(f"{r['level']:>5} {fmt(r.get('edges')):>12} "
              f"{fmt(r.get('vtxs')):>12} {fmt(v):>16}")
    return 0


def cmd_diff(args):
    before = load_profile(args.before)
    after = load_profile(args.after)
    check_metric(args.metric)
    phases_b, run_b = by_phase(before)
    phases_a, run_a = by_phase(after)
    if run_b:
        phases_b["run"] = run_b
    if run_a:
        phases_a["run"] = run_a
    names = sorted(set(phases_b) | set(phases_a))
    if args.phase:
        if args.phase not in names:
            raise SystemExit(
                f"error: phase {args.phase!r} in neither report "
                f"(have: {', '.join(names)})")
        names = [args.phase]
    print(f"{args.metric}: {args.before} -> {args.after}")
    header = (f"{'phase':<22} {'before':>14} {'after':>14} {'delta':>9}")
    print(header)
    print("-" * len(header))
    for name in names:
        vb = metric_value(phases_b.get(name, {}), args.metric)
        va = metric_value(phases_a.get(name, {}), args.metric)
        if vb is None and va is None:
            continue
        if vb is None or va is None or vb == 0:
            delta = "-"
        else:
            delta = f"{(va - vb) / vb:+.1%}"
        print(f"{name:<22} {fmt(vb):>14} {fmt(va):>14} {delta:>9}")
    return 0


def main(argv=None):
    p = argparse.ArgumentParser(
        description="read the profile section of mcgp run reports")
    sub = p.add_subparsers(dest="cmd", required=True)

    p_top = sub.add_parser("top", help="phases ranked by a field")
    p_top.add_argument("report", help="run report JSON with a profile "
                                      "section")
    p_top.add_argument("--n", type=int, default=10,
                       help="rows to show (default 10)")
    p_top.add_argument("--by", default=None,
                       help="ranking field (default: task_clock_ns, "
                            "falling back to wall_ns)")
    p_top.set_defaults(fn=cmd_top)

    p_lv = sub.add_parser("levels", help="per-level trend of one metric")
    p_lv.add_argument("report")
    p_lv.add_argument("--phase", default="coarsen.matching",
                      help="leveled phase (default coarsen.matching)")
    p_lv.add_argument("--metric", default="task_clock_per_edge",
                      help="metric to trend (default task_clock_per_edge)")
    p_lv.set_defaults(fn=cmd_levels)

    p_df = sub.add_parser("diff", help="A/B compare two reports")
    p_df.add_argument("before")
    p_df.add_argument("after")
    p_df.add_argument("--metric", default="task_clock_ns",
                      help="metric to compare (default task_clock_ns)")
    p_df.add_argument("--phase", default=None,
                      help="restrict to one phase (default: all)")
    p_df.set_defaults(fn=cmd_diff)

    args = p.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
