#!/usr/bin/env python3
"""mcpart argument parsing and run artifacts.

Runs the mcpart binary given as the first argument on a tiny generated
.graph file. Each malformed value of the positional k or a numeric flag
must exit 2 with a message naming that argument; one well-formed run
must exit 0. Each artifact stands on its own flag: --report-json alone
writes a report with "timeline" and "profile" sections, and --ledger
alone writes a record with the "profile" headline.

Usage: python3 tests/test_mcpart_cli.py <path-to-mcpart>
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
from pathlib import Path

# (argument named in the message, argv after the graph path)
MALFORMED = [
    ("nparts", ["abc"]),
    ("nparts", ["0"]),
    ("nparts", ["-3"]),
    ("nparts", ["4x"]),
    ("--ub", ["2", "--ub=abc"]),
    ("--ub", ["2", "--ub=nan"]),
    ("--ub", ["2", "--ub=inf"]),
    ("--ub", ["2", "--ub=1.05junk"]),
    ("--ub", ["2", "--ub="]),
    ("--threads", ["2", "--threads=abc"]),
    ("--threads", ["2", "--threads=-4"]),
    ("--threads", ["2", "--threads=0"]),
    ("--threads", ["2", "--threads=2.5"]),
    ("--seed", ["2", "--seed=xyz"]),
    ("--seed", ["2", "--seed=-1"]),
    ("--seed", ["2", "--seed=99999999999999999999999"]),
    ("--ncommon", ["2", "--ncommon=abc"]),
    ("--ncommon", ["2", "--ncommon=0"]),
]

WELL_FORMED = ["2", "--ub=1.05", "--seed=7", "--threads=2", "--no-write"]


def write_ring(path, n=8):
    """A METIS .graph of an n-cycle (1-indexed adjacency lines)."""
    lines = [f"{n} {n}"]
    for v in range(1, n + 1):
        lines.append(f"{(v - 2) % n + 1} {v % n + 1}")
    Path(path).write_text("\n".join(lines) + "\n")


def main():
    if len(sys.argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    mcpart = sys.argv[1]
    errors = []
    with tempfile.TemporaryDirectory() as tmp:
        graph = str(Path(tmp) / "ring.graph")
        write_ring(graph)

        def run(args):
            return subprocess.run([mcpart, graph, *args], capture_output=True,
                                  text=True, timeout=60)

        for name, args in MALFORMED:
            r = run(args)
            if r.returncode != 2:
                errors.append(f"{args}: expected exit 2, got {r.returncode}"
                              f"\n{r.stdout}{r.stderr}")
            elif name not in r.stderr:
                errors.append(f"{args}: message does not name {name}: "
                              f"{r.stderr!r}")
        r = run(WELL_FORMED)
        if r.returncode != 0:
            errors.append(f"{WELL_FORMED}: expected exit 0, got "
                          f"{r.returncode}\n{r.stdout}{r.stderr}")

        report = Path(tmp) / "report.json"
        r = run(["2", "--no-write", f"--report-json={report}"])
        if r.returncode != 0 or not report.exists():
            errors.append(f"--report-json: expected a report, got exit "
                          f"{r.returncode}\n{r.stdout}{r.stderr}")
        else:
            doc = json.loads(report.read_text())
            for section in ("timeline", "profile"):
                if section not in doc:
                    errors.append(f"--report-json alone: no {section!r}")
        ledger = Path(tmp) / "ledger.jsonl"
        r = run(["2", "--no-write", f"--ledger={ledger}"])
        if r.returncode != 0 or not ledger.exists():
            errors.append(f"--ledger: expected a record, got exit "
                          f"{r.returncode}\n{r.stdout}{r.stderr}")
        elif "profile" not in json.loads(ledger.read_text()):
            errors.append("--ledger alone: no 'profile' headline")
    for e in errors:
        print(f"FAIL: {e}", file=sys.stderr)
    if errors:
        return 1
    print(f"mcpart flags: {len(MALFORMED)} malformed rejected, "
          "well-formed run ok, report and ledger sections present")
    return 0


if __name__ == "__main__":
    sys.exit(main())
