#!/usr/bin/env python3
"""Run-ledger regression gate.

Compares a current run-ledger (JSONL, one record per partition call —
see src/support/run_ledger.hpp) against a committed baseline ledger and
exits nonzero when any tracked metric regressed beyond its threshold:

  cut        relative increase  > --cut-tol   (quality regression)
  seconds    relative increase  > --time-tol  (runtime regression;
             skipped when the baseline time is below --min-time, where
             scheduler noise dominates)
  peak RSS   relative increase  > --rss-tol   (memory regression;
             skipped when either side lacks the metric)
  feasible   baseline true -> current false   (with --feasibility; a
             balance-contract regression. Skipped when either side
             lacks the field, so old ledgers keep comparing)

Records are joined on the identity tuple
(experiment, algorithm, graph, nparts, ncon, threads, seed); at a fixed
seed the partitioner is deterministic, so the baseline cut is exact, not
statistical. When a ledger holds several records for one key (appended
across invocations), the cut of the last record is used and the
best-of-N (minimum) is used for time and RSS — reruns only add noise
upward.

Dependency-free by design: stdlib only, so the CI gate needs nothing but
a Python interpreter.

Exit codes: 0 = no regression, 1 = regression (or, with --require-all,
a baseline key missing from the current ledger), 2 = bad input.
"""

from __future__ import annotations

import argparse
import json
import sys

# Ledger schema this gate understands (mirrors kMcgpSchemaVersion in
# src/support/schema.hpp). Newer majors fail loudly instead of silently
# comparing fields whose meaning may have changed.
SUPPORTED_SCHEMA = 2

KEY_FIELDS = ("experiment", "algorithm", "graph", "nparts", "ncon",
              "threads", "seed")


def read_ledger(path):
    """Parse a JSONL ledger into {key_tuple: merged_record}."""
    merged = {}
    try:
        with open(path, "r", encoding="utf-8") as f:
            lines = f.readlines()
    except OSError as e:
        raise SystemExit(f"error: cannot read ledger {path}: {e}")
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as e:
            raise SystemExit(f"error: {path}:{lineno}: not valid JSON: {e}")
        schema = rec.get("schema_version")
        if schema is None or schema > SUPPORTED_SCHEMA:
            raise SystemExit(
                f"error: {path}:{lineno}: ledger schema_version {schema!r} "
                f"not supported (this gate understands <= {SUPPORTED_SCHEMA})")
        missing = [k for k in KEY_FIELDS if k not in rec]
        if missing:
            raise SystemExit(
                f"error: {path}:{lineno}: record lacks key fields {missing}")
        key = tuple(rec[k] for k in KEY_FIELDS)
        prev = merged.get(key)
        if prev is None:
            merged[key] = rec
        else:
            # Re-runs of the same configuration: deterministic metrics take
            # the latest record, noisy ones the best observation.
            best = dict(rec)
            best["seconds"] = min(prev.get("seconds", 0.0),
                                  rec.get("seconds", 0.0))
            if "peak_rss_bytes" in prev and "peak_rss_bytes" in rec:
                best["peak_rss_bytes"] = min(prev["peak_rss_bytes"],
                                             rec["peak_rss_bytes"])
            merged[key] = best
    if not merged:
        raise SystemExit(f"error: ledger {path} holds no records")
    return merged


def key_name(key):
    return ("{0}/{1} {2} k={3} m={4} t={5} seed={6}".format(*key))


def relative_increase(base, cur):
    if base <= 0:
        return 0.0 if cur <= 0 else float("inf")
    return (cur - base) / base


def main(argv=None):
    p = argparse.ArgumentParser(
        description="compare a run ledger against a committed baseline")
    p.add_argument("--baseline", required=True,
                   help="committed baseline ledger (JSONL)")
    p.add_argument("--current", required=True,
                   help="freshly produced ledger (JSONL)")
    p.add_argument("--cut-tol", type=float, default=0.02,
                   help="allowed relative cut increase (default 0.02)")
    p.add_argument("--time-tol", type=float, default=0.50,
                   help="allowed relative time increase (default 0.50)")
    p.add_argument("--rss-tol", type=float, default=0.50,
                   help="allowed relative peak-RSS increase (default 0.50)")
    p.add_argument("--min-time", type=float, default=0.05,
                   help="skip time comparison when the baseline run is "
                        "shorter than this many seconds (default 0.05)")
    p.add_argument("--feasibility", action="store_true",
                   help="fail when a configuration that was feasible in "
                        "the baseline is infeasible in the current ledger "
                        "(records lacking the field are skipped)")
    p.add_argument("--require-all", action="store_true",
                   help="fail when a baseline key is missing from the "
                        "current ledger (default: warn)")
    args = p.parse_args(argv)

    baseline = read_ledger(args.baseline)
    current = read_ledger(args.current)

    regressions = []
    compared = 0
    skipped_time = 0
    missing = []

    for key in sorted(baseline):
        if key not in current:
            missing.append(key)
            continue
        base, cur = baseline[key], current[key]
        compared += 1
        name = key_name(key)

        d_cut = relative_increase(base["cut"], cur["cut"])
        if d_cut > args.cut_tol:
            regressions.append(
                f"{name}: cut {base['cut']} -> {cur['cut']} "
                f"(+{d_cut:.1%} > {args.cut_tol:.1%})")

        if base.get("seconds", 0.0) < args.min_time:
            skipped_time += 1
        else:
            d_t = relative_increase(base["seconds"], cur["seconds"])
            if d_t > args.time_tol:
                regressions.append(
                    f"{name}: time {base['seconds']:.3f}s -> "
                    f"{cur['seconds']:.3f}s (+{d_t:.1%} > {args.time_tol:.1%})")

        if args.feasibility:
            base_feas = base.get("feasible")
            cur_feas = cur.get("feasible")
            if base_feas is True and cur_feas is False:
                regressions.append(
                    f"{name}: feasible -> infeasible (balance contract "
                    f"regression)")

        base_rss = base.get("peak_rss_bytes", -1)
        cur_rss = cur.get("peak_rss_bytes", -1)
        if base_rss > 0 and cur_rss > 0:
            d_rss = relative_increase(base_rss, cur_rss)
            if d_rss > args.rss_tol:
                regressions.append(
                    f"{name}: peak rss {base_rss} -> {cur_rss} "
                    f"(+{d_rss:.1%} > {args.rss_tol:.1%})")

    for key in sorted(missing):
        print(f"missing from current ledger: {key_name(key)}")
    new_keys = sorted(set(current) - set(baseline))
    for key in new_keys:
        print(f"not in baseline (ignored): {key_name(key)}")

    print(f"compared {compared} configuration(s) "
          f"({skipped_time} below the {args.min_time}s time floor, "
          f"{len(missing)} missing, {len(new_keys)} new)")

    for r in regressions:
        print(f"REGRESSION: {r}")
    if regressions:
        print(f"FAIL: {len(regressions)} regression(s)")
        return 1
    if missing and args.require_all:
        print(f"FAIL: {len(missing)} baseline configuration(s) missing "
              "(--require-all)")
        return 1
    if compared == 0:
        print("FAIL: no overlapping configurations to compare")
        return 1
    print("OK: no regressions")
    return 0


if __name__ == "__main__":
    sys.exit(main())
