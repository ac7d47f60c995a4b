#!/usr/bin/env python3
"""Self-test for mcgp-lint.

Two parts:

1. Fixture round-trip: every fixture under fixtures/ is linted with
   --all-rules semantics, and the set of (line, rule) findings must equal
   the set of `// LINT-EXPECT: <rule>` markers in the file — the linter
   must fire on every tagged line and stay silent on every untagged one.
   Every rule must be exercised by at least one marker.

   A `// LINT-MISS: <rule>` marker documents a known, deliberate false
   negative (a case delegated to the AST-accurate mcgp-tidy plugin — see
   the "Division of labor" note in lint.py): the linter must stay SILENT
   on that line. If a lint.py change starts reporting a LINT-MISS line,
   this test fails so the delegation documentation gets re-examined.

2. Scope checks: the path-based rule scoping (check.hpp exemption for
   sum-arith/narrowing, src/core/ restriction for unordered-iter, the
   random.cpp exemption for rng-source, src/core/ restriction with the
   core/seam.* exemption for observer-seam) is verified on synthetic
   paths.

Run directly (`python3 tools/mcgp_lint/test_lint.py`) or via ctest
(`mcgp_lint_fixtures`). Exits nonzero on any mismatch.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import lint  # noqa: E402

FIXTURES = Path(__file__).resolve().parent / "fixtures"

_EXPECT_RE = re.compile(r"//\s*LINT-EXPECT:\s*([a-z0-9-]+(?:\s*,\s*[a-z0-9-]+)*)")
_MISS_RE = re.compile(r"//\s*LINT-MISS:\s*([a-z0-9-]+(?:\s*,\s*[a-z0-9-]+)*)")


def parse_expectations(path: Path) -> tuple:
    expected = set()
    misses = set()
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        m = _EXPECT_RE.search(line)
        if m:
            for rule in re.split(r"\s*,\s*", m.group(1)):
                expected.add((lineno, rule))
        m = _MISS_RE.search(line)
        if m:
            for rule in re.split(r"\s*,\s*", m.group(1)):
                misses.add((lineno, rule))
    return expected, misses


def check_fixtures() -> list:
    errors = []
    fixture_files = sorted(FIXTURES.glob("*.cpp"))
    if not fixture_files:
        return [f"no fixtures found under {FIXTURES}"]
    exercised = set()
    for path in fixture_files:
        expected, documented_misses = parse_expectations(path)
        if not expected:
            errors.append(f"{path.name}: fixture has no LINT-EXPECT markers")
        overlap = expected & documented_misses
        for line, rule in sorted(overlap):
            errors.append(
                f"{path.name}:{line}: `{rule}` marked both LINT-EXPECT and "
                "LINT-MISS — pick one")
        findings = lint.lint_file(path, all_rules=True)
        actual = {(f.line, f.rule) for f in findings}
        for miss in sorted(expected - actual):
            errors.append(
                f"{path.name}:{miss[0]}: expected a `{miss[1]}` finding, "
                "linter was silent")
        for extra in sorted(actual - expected):
            if extra in documented_misses:
                errors.append(
                    f"{path.name}:{extra[0]}: documented false negative "
                    f"`{extra[1]}` now fires — the case is no longer "
                    "delegated to mcgp-tidy; update the DELEGATED note in "
                    "lint.py and retag this line LINT-EXPECT")
            else:
                errors.append(
                    f"{path.name}:{extra[0]}: unexpected `{extra[1]}` "
                    "finding (line has no LINT-EXPECT marker)")
        exercised |= {rule for (_, rule) in expected}
    for rule in lint._RULES:
        if rule not in exercised:
            errors.append(f"rule `{rule}` has no fixture coverage")
    return errors


SUM_SNIPPET = "sum_t f(sum_t a, sum_t b) { return a + b; }\n"
ITER_SNIPPET = (
    "#include <unordered_map>\n"
    "int f(const std::unordered_map<int, int>& m, int* o) {\n"
    "  for (const auto& kv : m) *o += kv.second;\n"
    "  return *o;\n"
    "}\n")
RNG_SNIPPET = "int f() { return std::rand(); }\n"
SEAM_SNIPPET = (
    "void f(TraceRecorder* tr) {\n"
    "  TraceSpan span(tr, \"fm.pass\");\n"
    "  trace_count(tr, \"fm.passes\");\n"
    "}\n")


def check_scoping() -> list:
    errors = []

    def expect(path, text, rule, should_fire):
        findings = [f for f in lint.lint_text(path, text) if f.rule == rule]
        if should_fire and not findings:
            errors.append(f"scope: `{rule}` should fire for {path}")
        if not should_fire and findings:
            errors.append(f"scope: `{rule}` must not fire for {path}")

    # check.hpp is the one home of raw sum_t arithmetic.
    expect("src/support/check.hpp", SUM_SNIPPET, "sum-arith", False)
    expect("src/core/foo.cpp", SUM_SNIPPET, "sum-arith", True)
    expect("src/graph/foo.cpp", SUM_SNIPPET, "sum-arith", True)

    # unordered-iter only polices src/core/.
    expect("src/core/foo.cpp", ITER_SNIPPET, "unordered-iter", True)
    expect("src/graph/foo.cpp", ITER_SNIPPET, "unordered-iter", False)
    expect("src/support/trace.cpp", ITER_SNIPPET, "unordered-iter", False)

    # random.cpp implements the sanctioned RNG; everything else is policed.
    expect("src/support/random.cpp", RNG_SNIPPET, "rng-source", False)
    expect("src/core/foo.cpp", RNG_SNIPPET, "rng-source", True)
    expect("src/gen/foo.cpp", RNG_SNIPPET, "rng-source", True)

    # observer-seam polices src/core/; the seam itself writes the sinks.
    expect("src/core/foo.cpp", SEAM_SNIPPET, "observer-seam", True)
    expect("src/core/seam.cpp", SEAM_SNIPPET, "observer-seam", False)
    expect("src/core/seam.hpp", SEAM_SNIPPET, "observer-seam", False)
    expect("src/support/trace.hpp", SEAM_SNIPPET, "observer-seam", False)
    expect("tests/test_trace.cpp", SEAM_SNIPPET, "observer-seam", False)
    return errors


def main() -> int:
    errors = check_fixtures() + check_scoping()
    if errors:
        for e in errors:
            print(f"FAIL: {e}")
        print(f"test_lint: {len(errors)} failure(s)")
        return 1
    nfix = len(list(FIXTURES.glob('*.cpp')))
    print(f"test_lint: OK ({nfix} fixtures, {len(lint._RULES)} rules, "
          "scoping verified)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
