#!/usr/bin/env python3
"""Self-test for the profile reader (report.py).

Drives the reader in-process over the committed fixtures:

1. `top` on the before-report ranks kway_refine's 16.4M summed CPU ns
   above coarsen.matching's 7.25M, shows the whole-run total, and leaves
   the "run" row out of the ranking itself.
2. `levels` renders the per-level CPU-ns-per-edge trend of
   coarsen.matching (level 0 = 49 ns/edge in the fixture) and errors
   precisely on a phase with no leveled rows.
3. `diff before after --metric=task_clock_per_edge` reports the injected
   improvement as a negative delta for coarsen.matching.
4. A schema-1 report (with its hardware-counter fields) still loads and
   ranks by task_clock_ns; one without task_clock_ns ranks by wall_ns.
   A schema-3 report, whose profile section is unchanged, loads too.
5. Bad input (no profile section, unsupported schema) exits nonzero
   with a message naming the file.

Run directly (`python3 tools/mcgp_prof/test_report.py`) or via ctest
(`mcgp_prof_selftest`). Exits nonzero on any mismatch.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import report  # noqa: E402

FIXTURES = Path(__file__).resolve().parent / "fixtures"
BEFORE = str(FIXTURES / "report_before.json")
AFTER = str(FIXTURES / "report_after.json")
SCHEMA1 = str(FIXTURES / "report_schema1.json")


def run_tool(argv):
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            code = report.main(argv)
    except SystemExit as e:  # load_profile raises SystemExit on bad input
        return 2, out.getvalue() + str(e)
    return code, out.getvalue()


def ranked_phases(out):
    return [ln.split()[0] for ln in out.splitlines()[3:] if ln and
            not ln.startswith("(")]


def write_tmp(doc):
    with tempfile.NamedTemporaryFile("w", suffix=".json",
                                     delete=False) as tmp:
        json.dump(doc, tmp)
        return tmp.name


def main():
    errors = []

    # 1. top: ranking, whole-run total, no "run" row inside the ranking.
    code, out = run_tool(["top", BEFORE, "--n", "3"])
    if code != 0:
        errors.append(f"top: expected exit 0, got {code}\n{out}")
    lines = out.splitlines()
    if "task_clock_ns" not in lines[0]:
        errors.append(f"top: default ranking should be task_clock_ns\n{out}")
    ranked = ranked_phases(out)
    if ranked[:2] != ["kway_refine", "coarsen.matching"]:
        errors.append(f"top: expected kway_refine (16.4M ns) then "
                      f"coarsen.matching (7.25M), got {ranked[:2]}\n{out}")
    if "run" in ranked:
        errors.append(f"top: the all-enclosing run row must not be ranked "
                      f"against the phases it contains\n{out}")
    if "(whole run)" not in out or "27,950,000" not in out:
        errors.append(f"top: whole-run CPU total missing\n{out}")
    # Parallel-efficiency columns: kway_refine ran on 4 threads with
    # 16.4M ns on-CPU over 6.1M ns wall -> parallelism 2.689; the serial
    # phases show thr 1 and par <= 1. `threads` aggregates by max, not sum.
    if lines[1].split()[-2:] != ["thr", "par"]:
        errors.append(f"top: header lacks the thr/par columns\n{out}")
    kway = next((ln.split() for ln in lines[3:]
                 if ln.startswith("kway_refine")), [])
    if len(kway) < 5 or kway[3] != "4" or kway[4] != "2.689":
        errors.append(f"top: kway_refine should show thr=4 par=2.689, "
                      f"got {kway}\n{out}")
    match = next((ln.split() for ln in lines[3:]
                  if ln.startswith("coarsen.matching")), [])
    if len(match) < 5 or match[3] != "1":
        errors.append(f"top: coarsen.matching should show thr=1, "
                      f"got {match}\n{out}")

    # parallelism is a first-class metric: rankable and diffable.
    code, out = run_tool(["top", BEFORE, "--by", "parallelism"])
    if code != 0 or ranked_phases(out)[:1] != ["kway_refine"]:
        errors.append(f"top --by=parallelism: expected kway_refine (2.689) "
                      f"first\n{out}")

    # Explicit ranking field.
    code, out = run_tool(["top", BEFORE, "--by", "wall_ns"])
    if code != 0 or "wall_ns" not in out.splitlines()[0]:
        errors.append(f"top --by: expected wall_ns ranking, got\n{out}")
    code, out = run_tool(["top", BEFORE, "--by", "cycles"])
    if code == 0:
        errors.append("top --by=cycles: the hardware fields are gone; "
                      "expected nonzero exit")

    # 2. levels: per-level trend plus precise error for unleveled phases.
    code, out = run_tool(["levels", BEFORE, "--phase", "coarsen.matching"])
    if code != 0:
        errors.append(f"levels: expected exit 0, got {code}\n{out}")
    if "task_clock_per_edge" not in out.splitlines()[0]:
        errors.append(f"levels: default metric should be "
                      f"task_clock_per_edge\n{out}")
    rows = [ln.split() for ln in out.splitlines()[3:] if ln.strip()]
    if len(rows) != 2 or rows[0][0] != "0" or rows[1][0] != "1":
        errors.append(f"levels: expected rows for levels 0 and 1\n{out}")
    elif float(rows[0][-1]) != 49.0:  # 4.9e6 CPU ns / 1e5 edges
        errors.append(f"levels: level-0 task_clock_per_edge should be 49, "
                      f"got {rows[0][-1]}")
    code, out = run_tool(["levels", BEFORE, "--phase", "initpart"])
    if code == 0 or "no per-level rows" not in out:
        errors.append(f"levels initpart: expected a no-leveled-rows error, "
                      f"got exit {code}\n{out}")

    # 3. diff: the injected improvement shows as a negative delta.
    code, out = run_tool(["diff", BEFORE, AFTER,
                          "--metric", "task_clock_per_edge"])
    if code != 0:
        errors.append(f"diff: expected exit 0, got {code}\n{out}")
    match_line = next((ln for ln in out.splitlines()
                       if ln.startswith("coarsen.matching")), "")
    if "-" not in match_line.split()[-1] or "%" not in match_line:
        errors.append(f"diff: coarsen.matching task_clock_per_edge should "
                      f"improve (negative % delta), got: {match_line!r}")
    code, out = run_tool(["diff", BEFORE, AFTER, "--phase", "run"])
    if code != 0 or "run" not in out:
        errors.append(f"diff --phase=run: expected the run row\n{out}")
    body = [ln for ln in out.splitlines()[3:] if ln.strip()]
    if len(body) != 1:
        errors.append(f"diff --phase=run: expected exactly one row\n{out}")

    # 4. schema 1 still loads: its extra hardware fields are ignored.
    code, out = run_tool(["top", SCHEMA1])
    if code != 0 or ranked_phases(out)[:1] != ["kway_refine"]:
        errors.append(f"top schema-1: expected kway_refine first\n{out}")
    code, out = run_tool(["diff", SCHEMA1, AFTER])
    if code != 0 or "coarsen.matching" not in out:
        errors.append(f"diff schema-1 -> schema-2: expected rows\n{out}")
    schema3 = json.loads(Path(AFTER).read_text())
    schema3["schema_version"] = 3
    schema3["profile"]["schema_version"] = 3
    code, out = run_tool(["diff", BEFORE, write_tmp(schema3)])
    if code != 0 or "coarsen.matching" not in out:
        errors.append(f"diff schema-2 -> schema-3: expected rows\n{out}")
    # A schema-1 report whose kernel refused every counter has no
    # task_clock_ns: top falls back to wall time.
    wall_only = write_tmp({"profile": {"schema_version": 1, "phases": [
        {"phase": "coarsen.matching", "level": 0, "scopes": 1,
         "edges": 100000, "vtxs": 40000, "wall_ns": 5000000},
        {"phase": "run", "scopes": 1, "edges": 100000, "vtxs": 40000,
         "wall_ns": 18000000}]}})
    code, out = run_tool(["top", wall_only])
    if code != 0 or "wall_ns" not in out.splitlines()[0]:
        errors.append(f"top without task_clock_ns: expected the wall_ns "
                      f"fallback\n{out}")

    # 5. bad input fails loudly, naming the file.
    code, out = run_tool(["top", write_tmp({"schema_version": 2,
                                            "edge_cut": 7})])
    if code == 0 or "profile" not in out:
        errors.append(f"no-profile input: expected a loud failure\n{out}")
    code, out = run_tool(["top", write_tmp(
        {"profile": {"schema_version": 999, "phases": []}})])
    if code == 0 or "schema_version" not in out:
        errors.append(f"future schema: expected a loud failure\n{out}")

    if errors:
        for e in errors:
            print(f"FAIL: {e}", file=sys.stderr)
        return 1
    print("mcgp_prof self-test: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
