#!/usr/bin/env python3
"""mcgp-lint: project-specific static checks for the mcgp codebase.

A dependency-free, token-level linter (stdlib only; the container has no
libclang, so this deliberately avoids it) that enforces the project's
type- and determinism-discipline rules:

  sum-arith       Raw arithmetic (+, -, *, +=, -=, *=, ++, --) on sum_t
                  lvalues. All 64-bit accumulation must go through
                  checked_add / checked_sub / checked_mul from
                  src/support/check.hpp so overflow is diagnosed, never
                  silent. (src/support/check.hpp itself is exempt: it is
                  the one place allowed to touch raw sum_t arithmetic,
                  via __builtin_*_overflow.)

  narrowing       sum_t -> idx_t/wgt_t narrowing, either through
                  static_cast or through a narrowing declaration
                  initializer. Must use checked_narrow<> from
                  src/support/check.hpp, which range-checks the value.

  unordered-iter  Iteration over std::unordered_map / std::unordered_set
                  inside src/core/. Hash-container iteration order is
                  unspecified and varies across standard libraries, so
                  any algorithmic decision derived from it breaks the
                  bit-reproducibility guarantee. Lookups are fine;
                  iteration is the hazard.

  rng-source      Nondeterministic randomness or wall-clock-seeded
                  entropy (std::rand, srand, std::random_device, raw
                  <random> engines, system_clock/high_resolution_clock)
                  outside src/support/random.cpp. All randomness must
                  flow through mcgp::Rng, seeded explicitly.

  observer-seam   A trace or flight-recorder sink named inside src/core/
                  (TraceSpan, FlightSample, trace_count, trace_instant,
                  record_level_sample) outside core/seam.*. A pipeline
                  boundary records its facts once, on a Seam, which
                  fans them out to the attached sinks.

The checker works on a comment/string-stripped token stream with
per-file declaration tracking (sum_t scalars, std::vector<sum_t> /
std::array<sum_t, N> element accesses, floating-point operands). It is a
heuristic, not a compiler: it cannot see through auto, typedefs it does
not know, or cross-file aliasing. False negatives are possible by
design; the rules are tuned so that the shipped tree has zero findings
with zero suppressions (enforced by ctest `mcgp_lint_src`).

Division of labor with mcgp-tidy (tools/mcgp_tidy/, the clang-tidy
plugin): each rule here but observer-seam has an AST-accurate
counterpart that closes the type-visibility gaps on purpose left open
below. The regex rules stay as
the seconds-fast, dependency-free first line (they run everywhere, the
plugin needs a clang toolchain); the plugin is the authority on anything
requiring type information. Specifically DELEGATED to mcgp-tidy, and
deliberately NOT reported here so the two tools never double-report:

  sum-arith       -> mcgp-sum-arith      sum_t reached through `auto`,
                     template parameters, container value_types, or
                     members declared in another file (see
                     fixtures/sum_arith_auto.cpp, LINT-MISS markers).
  narrowing       -> mcgp-narrowing      casts whose operand is sum_t
                     only behind sugar; implicit narrowing.
  unordered-iter  -> mcgp-unordered-iter containers reached through
                     `auto`, member typedefs, or aliases.
  rng-source      -> mcgp-rng-hygiene    engine aliases resolved to
                     canonical <random> templates.
  (no regex rule) -> mcgp-pointer-order  raw-pointer ordering cannot be
                     expressed at token level at all.
  observer-seam   has no counterpart: a sink's name is the token itself,
                     so the token rule is exact.

Usage:
  python3 tools/mcgp_lint/lint.py [--all-rules] PATH...
Exit status is 0 when no findings, 1 otherwise. --all-rules disables the
path scoping (used by the fixture tests).
"""

from __future__ import annotations

import argparse
import re
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Sequence, Set, Tuple

# ---------------------------------------------------------------------------
# Tokenization
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""
      (?P<id>[A-Za-z_]\w*)
    | (?P<num>\.?\d(?:['\w.]|[eEpP][+-])*)
    | (?P<op><<=|>>=|\.\.\.|\+\+|--|\+=|-=|\*=|/=|%=|&=|\|=|\^=|&&|\|\||==|!=|<=|>=|->|::|<<|>>|[-+*/%=<>!&|^~?:;,.()\[\]{}#])
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class Token:
    kind: str  # "id" | "num" | "op"
    text: str
    line: int


def strip_comments_and_strings(src: str) -> str:
    """Replace comments and string/char literal *contents* with spaces,
    preserving every newline so token line numbers stay exact."""
    out: List[str] = []
    i, n = 0, len(src)
    while i < n:
        c = src[i]
        nxt = src[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":
            while i < n and src[i] != "\n":
                i += 1
        elif c == "/" and nxt == "*":
            i += 2
            while i + 1 < n and not (src[i] == "*" and src[i + 1] == "/"):
                if src[i] == "\n":
                    out.append("\n")
                i += 1
            i += 2
        elif c == '"':
            # String literal (raw strings are not used in this codebase).
            i += 1
            while i < n and src[i] != '"':
                if src[i] == "\\":
                    i += 1
                elif src[i] == "\n":
                    out.append("\n")
                i += 1
            i += 1
            out.append(" ")
        elif c == "'":
            # Digit separator (1'000) vs char literal: a separator is
            # always sandwiched between alphanumerics.
            prev = out[-1] if out else ""
            if prev.isalnum() and i + 1 < n and (src[i + 1].isalnum()):
                out.append(c)
                i += 1
            else:
                i += 1
                while i < n and src[i] != "'":
                    if src[i] == "\\":
                        i += 1
                    i += 1
                i += 1
                out.append(" ")
        else:
            out.append(c)
            i += 1
    return "".join(out)


def tokenize(src: str) -> List[Token]:
    clean = strip_comments_and_strings(src)
    toks: List[Token] = []
    line = 1
    pos = 0
    for m in _TOKEN_RE.finditer(clean):
        line += clean.count("\n", pos, m.start())
        pos = m.start()
        kind = m.lastgroup or "op"
        toks.append(Token(kind, m.group(), line))
    return toks


# ---------------------------------------------------------------------------
# Declaration tracking
# ---------------------------------------------------------------------------

_FLOAT_TYPES = {"double", "float", "real_t"}
_SUM_CONTAINERS = {"vector", "array"}
_UNORDERED = {"unordered_map", "unordered_set", "unordered_multimap",
              "unordered_multiset"}


@dataclass
class Decls:
    sum_vars: Set[str]
    sum_vecs: Set[str]      # subscript / front / back yields a sum_t lvalue
    float_vars: Set[str]
    float_vecs: Set[str]
    unordered: Set[str]


def _match_forward(toks: Sequence[Token], i: int, open_: str,
                   close: str) -> int:
    """Index of the token closing the bracket opened at toks[i]."""
    depth = 0
    for j in range(i, len(toks)):
        t = toks[j].text
        if t == open_:
            depth += 1
        elif t == close:
            depth -= 1
            if depth == 0:
                return j
    return len(toks) - 1


def _close_angle(toks: Sequence[Token], i: int) -> int:
    """Index of the `>` matching `<` at toks[i] (no shift operators appear
    inside the template argument lists we scan)."""
    depth = 0
    for j in range(i, len(toks)):
        t = toks[j].text
        if t == "<":
            depth += 1
        elif t in (">", ">>"):
            depth -= 2 if t == ">>" else 1
            if depth <= 0:
                return j
    return len(toks) - 1


def _declared_names(toks: Sequence[Token], i: int) -> Tuple[List[str], int]:
    """Collect declarator names starting after a type that ends at toks[i-1].
    Skips cv/ref/pointer tokens; follows `name = init, name2 = init2`
    chains at bracket depth 0. Returns (names, resume_index)."""
    names: List[str] = []
    j = i
    while j < len(toks) and toks[j].text in ("const", "&", "*", "&&"):
        j += 1
    if j >= len(toks) or toks[j].kind != "id":
        return names, j
    names.append(toks[j].text)
    j += 1
    # `sum_t name(` is a function declarator: keep the name (a call to it
    # yields sum_t) but stop here so the scanner descends into the
    # parameter list and tracks the parameters as declarations too.
    if j < len(toks) and toks[j].text == "(":
        return names, j
    # Walk to ; ) or a depth-0 comma; a comma followed by `name [=,;)]`
    # continues the declarator list (covers `sum_t a = 0, b = 0;`). A
    # depth-0 `{` ends the walk: it is a function body (the "declarator"
    # was a function name) or a brace initializer — either way the names
    # are already collected and the tokens inside must be scanned normally.
    depth = 0
    while j < len(toks):
        t = toks[j].text
        if t == "{" and depth == 0:
            break
        if t in "([{":
            depth += 1
        elif t in ")]}":
            if depth == 0:
                break
            depth -= 1
        elif depth == 0 and t == ";":
            break
        elif depth == 0 and t == ",":
            if (j + 1 < len(toks) and toks[j + 1].kind == "id"
                    and j + 2 < len(toks)
                    and toks[j + 2].text in ("=", ",", ";", ")")):
                names.append(toks[j + 1].text)
                j += 2
                continue
            break
        j += 1
    return names, j


def collect_decls(toks: Sequence[Token]) -> Decls:
    d = Decls(set(), set(), set(), set(), set())
    i = 0
    n = len(toks)
    while i < n:
        t = toks[i]
        if t.kind != "id":
            i += 1
            continue
        # Scalar declarations:  [const] sum_t [const|&|*] name ...
        if t.text == "sum_t" or t.text in _FLOAT_TYPES:
            # Not a template argument (vector<sum_t>): that is preceded
            # by `<`. A `(` or `,` before the type is a function
            # parameter, which declares a name like any other.
            prev = toks[i - 1].text if i > 0 else ""
            if prev not in ("<", "<<"):
                names, j = _declared_names(toks, i + 1)
                target = d.sum_vars if t.text == "sum_t" else d.float_vars
                # Casts (`static_cast<...>`, `(sum_t)x`, `sum_t(x)`)
                # yield no declarator name and are skipped.
                for name in names:
                    target.add(name)
                if names:
                    i = j
                    continue
        # Container declarations: [std::]vector<sum_t> name,
        # [std::]array<sum_t, N> name, unordered_map<...> name.
        if t.text in _SUM_CONTAINERS or t.text in _UNORDERED:
            j = i + 1
            if j < n and toks[j].text == "<":
                close = _close_angle(toks, j)
                inner = [x.text for x in toks[j + 1:close]]
                names, k = _declared_names(toks, close + 1)
                if t.text in _UNORDERED:
                    for name in names:
                        d.unordered.add(name)
                elif inner[:1] == ["sum_t"]:
                    for name in names:
                        d.sum_vecs.add(name)
                elif inner[:1] and inner[0] in ("double", "float", "real_t"):
                    for name in names:
                        d.float_vecs.add(name)
                if names:
                    i = k
                    continue
        i += 1
    return d


# ---------------------------------------------------------------------------
# Operand classification
# ---------------------------------------------------------------------------

def _match_back(toks: Sequence[Token], i: int, close: str, open_: str) -> int:
    depth = 0
    for j in range(i, -1, -1):
        t = toks[j].text
        if t == close:
            depth += 1
        elif t == open_:
            depth -= 1
            if depth == 0:
                return j
    return 0


def _is_float_literal(text: str) -> bool:
    if text.startswith(("0x", "0X")):
        return "p" in text or "P" in text
    return ("." in text or "e" in text or "E" in text
            or text.rstrip("lL").endswith(("f", "F")))


class Classifier:
    def __init__(self, toks: Sequence[Token], decls: Decls):
        self.toks = toks
        self.d = decls

    def _subscript_base(self, i: int) -> Optional[str]:
        """toks[i] == `]`: name of the subscripted variable, if simple."""
        open_i = _match_back(self.toks, i, "]", "[")
        if open_i > 0 and self.toks[open_i - 1].kind == "id":
            return self.toks[open_i - 1].text
        return None

    def sum_ending_at(self, i: int) -> bool:
        t = self.toks[i]
        if t.kind == "id":
            return t.text in self.d.sum_vars
        if t.text == "]":
            # A subscript on a tracked sum container — or on a tracked
            # scalar name, which can only compile if the declaration was
            # actually a C array of sum_t (e.g. `sum_t fresh[2 * N]`).
            base = self._subscript_base(i)
            return base is not None and (base in self.d.sum_vecs
                                         or base in self.d.sum_vars)
        return False

    def sum_starting_at(self, i: int) -> bool:
        t = self.toks[i]
        if t.kind != "id":
            return False
        if t.text in self.d.sum_vars:
            return True
        nxt = self.toks[i + 1].text if i + 1 < len(self.toks) else ""
        return t.text in self.d.sum_vecs and nxt == "["

    def float_ending_at(self, i: int) -> bool:
        t = self.toks[i]
        if t.kind == "num":
            return _is_float_literal(t.text)
        if t.kind == "id":
            return t.text in self.d.float_vars
        if t.text == ")":
            open_i = _match_back(self.toks, i, ")", "(")
            # static_cast<double>( ... )  /  double( ... )
            k = open_i - 1
            if k >= 0 and self.toks[k].text in (">", ">>"):
                lt = _match_back(self.toks, k, ">", "<")
                inner = [x.text for x in self.toks[lt + 1:k]]
                head = self.toks[lt - 1].text if lt > 0 else ""
                return (head == "static_cast"
                        and bool(inner)
                        and inner[0] in ("double", "float", "real_t"))
            if k >= 0 and self.toks[k].text in ("double", "float", "real_t"):
                return True
        if t.text == "]":
            base = self._subscript_base(i)
            return base is not None and (base in self.d.float_vecs
                                         or base in self.d.float_vars)
        return False

    def float_starting_at(self, i: int) -> bool:
        t = self.toks[i]
        if t.kind == "num":
            return _is_float_literal(t.text)
        if t.kind == "id":
            if t.text in self.d.float_vars:
                return True
            if t.text in ("static_cast",) and i + 2 < len(self.toks):
                if (self.toks[i + 1].text == "<"
                        and self.toks[i + 2].text in ("double", "float",
                                                      "real_t")):
                    return True
            nxt = self.toks[i + 1].text if i + 1 < len(self.toks) else ""
            if t.text in self.d.float_vecs and nxt == "[":
                return True
            if t.text in ("double", "float", "real_t") and nxt == "(":
                return True
        return False


# ---------------------------------------------------------------------------
# Rules
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Finding:
    path: str
    line: int
    rule: str
    message: str

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


_NARROW_TARGETS = {"idx_t", "wgt_t"}

_BANNED_RNG_IDS = {
    "random_device": "std::random_device is nondeterministic entropy",
    "mt19937": "raw <random> engine",
    "mt19937_64": "raw <random> engine",
    "minstd_rand": "raw <random> engine",
    "minstd_rand0": "raw <random> engine",
    "default_random_engine": "raw <random> engine",
    "knuth_b": "raw <random> engine",
    "ranlux24": "raw <random> engine",
    "ranlux48": "raw <random> engine",
    "srand": "global C RNG seeding",
    "system_clock": "wall clock is nondeterministic across runs",
    "high_resolution_clock": "unspecified clock (may alias system_clock)",
}


_TYPE_NAMES = {
    "idx_t", "wgt_t", "sum_t", "real_t", "size_t", "int", "char", "bool",
    "double", "float", "long", "short", "unsigned", "signed", "auto",
    "void", "int32_t", "int64_t", "uint32_t", "uint64_t", "uint8_t",
    "Graph", "Workspace", "Rng", "InvariantAuditor", "TraceRecorder",
}


def _binary_context(toks: Sequence[Token], i: int) -> bool:
    """Whether the +, -, * at toks[i] is a binary arithmetic operator (as
    opposed to unary sign, dereference, or pointer declaration)."""
    if i == 0:
        return False
    p = toks[i - 1]
    # `wgt_t* w` / `Graph& g`: a type name directly before * is a
    # declarator, not multiplication.
    if toks[i].text == "*" and p.text in _TYPE_NAMES:
        return False
    return p.kind in ("id", "num") or p.text in (")", "]")


def rule_sum_arith(path: str, toks: Sequence[Token], decls: Decls,
                   cls: Classifier) -> List[Finding]:
    out: List[Finding] = []

    def flag(line: int, what: str) -> None:
        out.append(Finding(
            path, line, "sum-arith",
            f"raw {what} on a sum_t lvalue; use checked_add/checked_sub/"
            "checked_mul from support/check.hpp"))

    n = len(toks)
    for i, t in enumerate(toks):
        if t.text in ("+=", "-=", "*="):
            if i > 0 and cls.sum_ending_at(i - 1):
                # float RHS still accumulates into an integer; always flag.
                flag(t.line, f"`{t.text}`")
        elif t.text in ("++", "--"):
            if i > 0 and cls.sum_ending_at(i - 1):
                flag(t.line, f"`{t.text}`")
            elif i + 1 < n and cls.sum_starting_at(i + 1):
                flag(t.line, f"`{t.text}`")
        elif t.text in ("+", "-", "*") and _binary_context(toks, i):
            if i + 1 >= n:
                continue
            lhs_sum = cls.sum_ending_at(i - 1)
            rhs_sum = cls.sum_starting_at(i + 1)
            if not (lhs_sum or rhs_sum):
                continue
            # Mixed float arithmetic promotes to double: no int64 overflow.
            if cls.float_ending_at(i - 1) or cls.float_starting_at(i + 1):
                continue
            flag(t.line, f"binary `{t.text}`")
    return out


def _depth0_indices(toks: Sequence[Token], lo: int, hi: int) -> List[int]:
    """Token indices in [lo, hi) at bracket depth 0 relative to lo. A sum
    var nested inside a call's argument list says nothing about the type
    of the enclosing expression, so narrowing checks ignore it."""
    out: List[int] = []
    depth = 0
    for k in range(lo, min(hi, len(toks))):
        tx = toks[k].text
        if tx in ")]}":
            depth -= 1
        if depth == 0:
            out.append(k)
        if tx in "([{":
            depth += 1
    return out


def rule_narrowing(path: str, toks: Sequence[Token], decls: Decls,
                   cls: Classifier) -> List[Finding]:
    out: List[Finding] = []
    n = len(toks)
    i = 0
    while i < n:
        t = toks[i]
        # static_cast<idx_t|wgt_t>( ...sum... )
        if (t.text == "static_cast" and i + 1 < n
                and toks[i + 1].text == "<"):
            close = _close_angle(toks, i + 1)
            inner = [x.text for x in toks[i + 2:close]
                     if x.text not in ("::", "mcgp", "const")]
            if inner and inner[0] in _NARROW_TARGETS and close + 1 < n \
                    and toks[close + 1].text == "(":
                rp = _match_forward(toks, close + 1, "(", ")")
                # Only depth-0 sum primaries: a sum_t var buried inside a
                # nested call's argument list (`static_cast<idx_t>(f(s))`)
                # says nothing about the casted value's type.
                if any(cls.sum_starting_at(k)
                       for k in _depth0_indices(toks, close + 2, rp)):
                    out.append(Finding(
                        path, t.line, "narrowing",
                        f"static_cast<{inner[0]}> of a sum_t value; use "
                        "checked_narrow from support/check.hpp"))
                i = rp + 1
                continue
        # idx_t name = ...sum...;   (narrowing declaration initializer)
        if (t.kind == "id" and t.text in _NARROW_TARGETS
                and (i == 0 or toks[i - 1].text not in ("<", ",", "::",
                                                        "<<"))):
            j = i + 1
            while j < n and toks[j].text in ("const", "&", "*"):
                j += 1
            if (j + 1 < n and toks[j].kind == "id"
                    and toks[j + 1].text == "="):
                k = j + 2
                depth = 0
                body_idx: List[int] = []
                depth0_idx: List[int] = []
                while k < n:
                    tx = toks[k].text
                    if tx in "([{":
                        depth += 1
                    elif tx in ")]}":
                        if depth == 0:
                            break
                        depth -= 1
                    elif depth == 0 and tx in (";", ","):
                        break
                    body_idx.append(k)
                    # Depth 0 *and* subscript heads: `pwgts[i]` is a sum
                    # element even though `i` sits at depth 1, while a sum
                    # var passed as a call argument proves nothing about
                    # the initializer's type (out-params, accessors).
                    if depth == 0 or (depth == 1 and k > 0
                                      and toks[k - 1].text == "["):
                        depth0_idx.append(k)
                    k += 1
                texts = {toks[b].text for b in body_idx}
                if ("checked_narrow" not in texts
                        and "static_cast" not in texts
                        and any(cls.sum_starting_at(b) for b in depth0_idx)):
                    out.append(Finding(
                        path, t.line, "narrowing",
                        f"implicit sum_t -> {t.text} narrowing in "
                        "initializer; use checked_narrow from "
                        "support/check.hpp"))
                i = k
                continue
        i += 1
    return out


# begin()-family only: `m.find(k) != m.end()` is a *lookup* — the
# determinism hazard is starting an iteration, not comparing against end.
_ITER_MEMBERS = {"begin", "cbegin", "rbegin"}


def rule_unordered_iter(path: str, toks: Sequence[Token], decls: Decls,
                        cls: Classifier) -> List[Finding]:
    out: List[Finding] = []
    n = len(toks)
    for i, t in enumerate(toks):
        if t.kind != "id" or t.text not in decls.unordered:
            continue
        nxt = toks[i + 1].text if i + 1 < n else ""
        if nxt in (".",) and i + 2 < n and toks[i + 2].text in _ITER_MEMBERS:
            out.append(Finding(
                path, t.line, "unordered-iter",
                f"`{t.text}.{toks[i + 2].text}()` iterates an unordered "
                "container in src/core/; iteration order is unspecified "
                "and breaks determinism"))
        elif i > 0 and toks[i - 1].text == ":":
            # `for (auto& kv : name)` — confirm we are inside a for-range.
            j = _match_back(toks, i, ")", "(")
            # find the `(`, then check the id before it
            k = i
            depth = 0
            while k >= 0:
                tx = toks[k].text
                if tx == ")":
                    depth += 1
                elif tx == "(":
                    if depth == 0:
                        break
                    depth -= 1
                k -= 1
            if k > 0 and toks[k - 1].text == "for":
                out.append(Finding(
                    path, t.line, "unordered-iter",
                    f"range-for over unordered container `{t.text}` in "
                    "src/core/; iteration order is unspecified and breaks "
                    "determinism"))
    return out


_SINK_IDS = {
    "TraceSpan": "a trace span",
    "FlightSample": "a flight sample",
    "trace_count": "a trace counter",
    "trace_instant": "a trace instant",
    "record_level_sample": "a flight sample",
}


def rule_observer_seam(path: str, toks: Sequence[Token], decls: Decls,
                       cls: Classifier) -> List[Finding]:
    return [
        Finding(path, t.line, "observer-seam",
                f"`{t.text}` writes {_SINK_IDS[t.text]} directly; record "
                "the boundary on a Seam (core/seam.hpp), which fans its "
                "record out to every attached sink")
        for t in toks if t.kind == "id" and t.text in _SINK_IDS
    ]


def rule_rng_source(path: str, toks: Sequence[Token], decls: Decls,
                    cls: Classifier) -> List[Finding]:
    out: List[Finding] = []
    n = len(toks)
    for i, t in enumerate(toks):
        if t.kind != "id":
            continue
        if t.text in _BANNED_RNG_IDS:
            out.append(Finding(
                path, t.line, "rng-source",
                f"`{t.text}`: {_BANNED_RNG_IDS[t.text]}; all randomness "
                "must flow through mcgp::Rng (support/random.hpp) with an "
                "explicit seed"))
        elif t.text in ("rand", "time"):
            prev = toks[i - 1] if i > 0 else None
            nxt = toks[i + 1].text if i + 1 < n else ""
            # A *call*: `std::rand()`, `return time(0)`, `x = rand()` —
            # but not a member access (`s.rand()`) nor a declaration of
            # an unrelated function (`int rand()`, preceded by a type).
            is_call = (prev is not None and nxt == "("
                       and (prev.text in ("::", "return")
                            or (prev.kind == "op"
                                and prev.text not in (".", "->"))))
            if is_call:
                out.append(Finding(
                    path, t.line, "rng-source",
                    f"`{t.text}()`: nondeterministic C source; all "
                    "randomness must flow through mcgp::Rng "
                    "(support/random.hpp) with an explicit seed"))
    return out


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------

def _posix(p: Path) -> str:
    return p.as_posix()


def _rule_applies(rule: str, rel: str, all_rules: bool) -> bool:
    if all_rules:
        return True
    if rule in ("sum-arith", "narrowing"):
        return not rel.endswith("support/check.hpp")
    if rule == "unordered-iter":
        return "/core/" in rel or rel.startswith("core/")
    if rule == "rng-source":
        return not rel.endswith("support/random.cpp")
    if rule == "observer-seam":
        in_core = "/core/" in rel or rel.startswith("core/")
        return in_core and "core/seam." not in rel
    return True


_RULES = {
    "sum-arith": rule_sum_arith,
    "narrowing": rule_narrowing,
    "unordered-iter": rule_unordered_iter,
    "rng-source": rule_rng_source,
    "observer-seam": rule_observer_seam,
}


def lint_text(path: str, text: str, all_rules: bool = False) -> List[Finding]:
    toks = tokenize(text)
    decls = collect_decls(toks)
    cls = Classifier(toks, decls)
    findings: List[Finding] = []
    for name, fn in _RULES.items():
        if _rule_applies(name, path, all_rules):
            findings.extend(fn(path, toks, decls, cls))
    findings.sort(key=lambda f: (f.line, f.rule))
    return findings


def lint_file(path: Path, root: Optional[Path] = None,
              all_rules: bool = False) -> List[Finding]:
    rel = _posix(path if root is None else path.relative_to(root))
    return lint_text(rel, path.read_text(encoding="utf-8"), all_rules)


_EXTS = {".cpp", ".cc", ".cxx", ".hpp", ".hh", ".h"}


def gather(paths: Sequence[str]) -> List[Path]:
    files: List[Path] = []
    for p in paths:
        pp = Path(p)
        if pp.is_dir():
            files.extend(sorted(x for x in pp.rglob("*")
                                if x.suffix in _EXTS and x.is_file()
                                and "CMakeFiles" not in x.parts))
        elif pp.is_file():
            files.append(pp)
        else:
            print(f"mcgp-lint: no such path: {p}", file=sys.stderr)
            sys.exit(2)
    return files


def main(argv: Sequence[str]) -> int:
    ap = argparse.ArgumentParser(
        prog="mcgp-lint", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("paths", nargs="+", help="files or directories to lint")
    ap.add_argument("--all-rules", action="store_true",
                    help="apply every rule to every file (ignore the "
                         "path-based scoping; used by the fixture tests)")
    ap.add_argument("--list-rules", action="store_true",
                    help="print rule names and exit")
    args = ap.parse_args(argv)

    if args.list_rules:
        for r in _RULES:
            print(r)
        return 0

    total = 0
    nfiles = 0
    for f in gather(args.paths):
        findings = lint_file(f, all_rules=args.all_rules)
        nfiles += 1
        for fi in findings:
            print(fi)
        total += len(findings)
    if total:
        print(f"mcgp-lint: {total} finding(s) in {nfiles} file(s)",
              file=sys.stderr)
        return 1
    print(f"mcgp-lint: OK ({nfiles} file(s), 0 findings)", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
