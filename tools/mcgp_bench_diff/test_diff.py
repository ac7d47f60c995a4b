#!/usr/bin/env python3
"""Self-test for the run-ledger regression gate (diff.py).

Drives the gate in-process over the committed fixtures:

1. baseline vs current_ok must pass (small improvements and noise-level
   drift stay under every threshold; the extra current-only key is
   ignored).
2. baseline vs current_regressed must exit nonzero and flag exactly the
   injected regressions: a >2% cut increase, a >50% time increase, and a
   >50% peak-RSS increase — while the sub-floor timing blowup of the
   0.01s quality run stays exempt (scheduler noise, not signal).
3. Duplicate baseline records for one key merge best-of (min time/RSS).
4. --require-all turns a missing baseline key into a failure.
5. Schema-3 records carrying keys the gate does not know (host
   identity, profile sections from profiler-attached runs, phases as
   {wall_s, cpu_s} objects, unattributed_s) compare
   cleanly against a schema-1 baseline that lacks them, and the
   committed schema-1 baselines in bench/baselines/ still load — new
   telemetry must never invalidate committed baselines.
6. --feasibility flags a feasible->infeasible flip as a regression, stays
   quiet without the flag, and skips records lacking the field (old
   baselines keep gating new binaries).

Run directly (`python3 tools/mcgp_bench_diff/test_diff.py`) or via ctest
(`mcgp_bench_diff_selftest`). Exits nonzero on any mismatch.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import diff  # noqa: E402

FIXTURES = Path(__file__).resolve().parent / "fixtures"
BASELINE = str(FIXTURES / "baseline.jsonl")
BASELINES = Path(__file__).resolve().parents[2] / "bench" / "baselines"


def run_gate(argv):
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            code = diff.main(argv)
    except SystemExit as e:  # read_ledger raises SystemExit on bad input
        return 2, out.getvalue() + str(e)
    return code, out.getvalue()


def main():
    errors = []

    code, out = run_gate(["--baseline", BASELINE,
                          "--current", str(FIXTURES / "current_ok.jsonl")])
    if code != 0:
        errors.append(f"current_ok: expected exit 0, got {code}\n{out}")
    if "not in baseline (ignored)" not in out:
        errors.append("current_ok: extra key was not reported as ignored")

    code, out = run_gate(["--baseline", BASELINE,
                          "--current",
                          str(FIXTURES / "current_regressed.jsonl")])
    if code == 0:
        errors.append("current_regressed: expected nonzero exit, got 0")
    flagged = [line for line in out.splitlines()
               if line.startswith("REGRESSION:")]
    if len(flagged) != 3:
        errors.append(
            f"current_regressed: expected exactly 3 regressions "
            f"(cut, time, rss), got {len(flagged)}:\n{out}")
    for metric in ("cut", "time", "peak rss"):
        if not any(f" {metric} " in line for line in flagged):
            errors.append(f"current_regressed: no {metric} regression flagged")
    if any("mgen1-grid2d" in line for line in flagged):
        errors.append(
            "current_regressed: sub-floor timing of the 0.01s baseline run "
            "must not be compared")

    merged = diff.read_ledger(BASELINE)
    key = ("runtime", "MC-RB", "grid-60x60", 64, 1, 1, 1)
    if key not in merged:
        errors.append("merge: expected key missing from parsed baseline")
    else:
        rec = merged[key]
        if rec["seconds"] != 0.200 or rec["peak_rss_bytes"] != 50000000:
            errors.append(
                f"merge: duplicate records should keep best-of time/RSS, "
                f"got seconds={rec['seconds']} rss={rec['peak_rss_bytes']}")

    with tempfile.NamedTemporaryFile("w", suffix=".jsonl",
                                     delete=False) as tmp:
        # A current ledger holding only one of the baseline keys.
        tmp.write(Path(FIXTURES / "current_ok.jsonl").read_text()
                  .splitlines(keepends=True)[0])
        partial = tmp.name
    code, _ = run_gate(["--baseline", BASELINE, "--current", partial])
    if code != 0:
        errors.append(f"partial without --require-all: expected 0, got {code}")
    code, _ = run_gate(["--baseline", BASELINE, "--current", partial,
                        "--require-all"])
    if code == 0:
        errors.append("partial with --require-all: expected nonzero exit")

    # Schema-2 ledgers stamp host identity and (with --profile) a
    # profile object onto every record, and schema 3 writes each phase as
    # {wall_s, cpu_s} beside unattributed_s; the gate must ignore keys it
    # does not know so schema-1 baselines keep gating new binaries.
    enriched_lines = []
    for line in Path(FIXTURES / "current_ok.jsonl").read_text().splitlines():
        rec = json.loads(line)
        rec["schema_version"] = 3
        rec["phases"] = {"kway_refine": {"wall_s": 0.03, "cpu_s": 0.05}}
        rec["unattributed_s"] = 0.002
        rec["host"] = "ci-runner"
        rec["cpu"] = "Fixture CPU @ 2.70GHz"
        rec["cores"] = 8
        rec["profile"] = {"wall_ns": 43000000, "task_clock_ns": 42000000}
        enriched_lines.append(json.dumps(rec))
    with tempfile.NamedTemporaryFile("w", suffix=".jsonl",
                                     delete=False) as tmp:
        tmp.write("\n".join(enriched_lines) + "\n")
        enriched = tmp.name
    code, out = run_gate(["--baseline", BASELINE, "--current", enriched])
    if code != 0:
        errors.append(f"extra keys: schema-3 records with host/profile "
                      f"fields must compare cleanly against a schema-1 "
                      f"baseline, got exit {code}\n{out}")
    for committed in sorted(BASELINES.glob("*.json")):
        try:
            diff.read_ledger(str(committed))
        except SystemExit as e:
            errors.append(f"committed baseline {committed.name} no longer "
                          f"loads: {e}")

    # Feasibility gate: a baseline-feasible key turning infeasible must
    # fail under --feasibility, pass without it, and records lacking the
    # field on either side must be skipped rather than compared.
    def write_ledger(records):
        with tempfile.NamedTemporaryFile("w", suffix=".jsonl",
                                         delete=False) as tmp:
            for rec in records:
                tmp.write(json.dumps(rec) + "\n")
            return tmp.name

    def feas_rec(graph, feasible):
        rec = {"schema_version": 1, "git": "fixture",
               "experiment": "quality_kway", "algorithm": "MC-KW",
               "graph": graph, "nparts": 64, "ncon": 3, "threads": 1,
               "seed": 1, "cut": 100, "imbalance": [1.02],
               "max_imbalance": 1.02, "seconds": 0.2}
        if feasible is not None:
            rec["feasible"] = feasible
        return rec

    feas_base = write_ledger([feas_rec("g-flips", True),
                              feas_rec("g-stays", True),
                              feas_rec("g-legacy", None)])
    feas_cur = write_ledger([feas_rec("g-flips", False),
                             feas_rec("g-stays", True),
                             feas_rec("g-legacy", False)])
    code, out = run_gate(["--baseline", feas_base, "--current", feas_cur,
                          "--feasibility"])
    if code == 0:
        errors.append("feasibility: feasible->infeasible flip must fail "
                      "under --feasibility")
    flagged = [line for line in out.splitlines()
               if line.startswith("REGRESSION:")]
    if len(flagged) != 1 or "g-flips" not in flagged[0] \
            or "infeasible" not in flagged[0]:
        errors.append(
            f"feasibility: expected exactly the g-flips flip flagged "
            f"(g-legacy lacks the baseline field), got:\n{out}")
    code, out = run_gate(["--baseline", feas_base, "--current", feas_cur])
    if code != 0:
        errors.append(f"feasibility: without --feasibility the flip must "
                      f"not gate, got exit {code}\n{out}")

    if errors:
        for e in errors:
            print(f"FAIL: {e}", file=sys.stderr)
        return 1
    print("mcgp_bench_diff self-test: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
