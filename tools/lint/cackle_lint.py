#!/usr/bin/env python3
"""Cackle project-invariant lint engine.

Enforces source-level invariants that sanitizers and tests cannot see:

  cackle-determinism        no wall-clock / ambient randomness outside the
                            seeded RNG and the thread-pool park/unpark path
  cackle-unordered-iter     no unordered_map/unordered_set iteration whose
                            body emits output (metrics, JSON, streams)
  cackle-layering           #include edges must follow the link DAG derived
                            from src/*/CMakeLists.txt (no back-edges)
  cackle-status-discipline  Status/StatusOr must be [[nodiscard]] classes and
                            every Status-returning header signature must be
                            [[nodiscard]]
  cackle-raw-thread         no std::thread/std::jthread/std::async outside
                            src/common/thread_pool.{h,cc}
  cackle-metric-name        MetricsRegistry calls must take names from
                            src/common/metric_names.h, never inline literals
  cackle-metric-prefix      the exec.morsel.* metric namespace is reserved:
                            string literals with that prefix may only appear
                            in src/common/metric_names.h
  cackle-ptr-order          no ordering by pointer value: pointer-keyed
                            std::map/set, std::less<T*>, or sort comparators
                            that cast pointers to integers (address order is
                            allocation order — run-to-run nondeterminism)
  cackle-float-merge        no floating-point accumulation into captured
                            state inside ThreadPool task bodies unless the
                            line carries an "ascending-index merge" comment
                            or a NOLINT (reassociation breaks bit-identity)
  cackle-rng-stream         RNG streams come only from the common/rng
                            factories (Rng::Stream/StreamSeed, Fork,
                            SweepRunner::CellSeed) with *named* tag
                            constants; inline seed literals and ad-hoc
                            `seed ^ 0x...` arithmetic are banned
  cackle-lock-annotation    no bare std::mutex (use the annotated
                            cackle::Mutex), and every Mutex member must have
                            at least one CACKLE_GUARDED_BY user in its file,
                            so the thread-safety annotation rollout stays
                            complete as code grows

Suppression: append `// NOLINT(cackle-<check>): <reason>` to the offending
line, or put `// NOLINTNEXTLINE(cackle-<check>): <reason>` on the line above.
A non-empty reason is mandatory; a bare NOLINT is itself a violation.
`--suppressions` prints the full suppression inventory; with
`--suppressions-baseline FILE` the inventory count is a ratchet (CI fails
when suppressions accumulate beyond the committed count).

Baseline: `--baseline FILE` filters known violations (see --write-baseline).
The baseline is a ratchet: it may only shrink. This repo's committed baseline
(tools/lint/baseline.txt) is empty and should stay that way.

Implementation notes: every check has a token-level implementation over a
shared token stream from a small C++ lexer, driven by the file set in
compile_commands.json when present (falling back to a glob of --src-dir), so
the engine stays dependency-free. When the libclang Python bindings
(clang.cindex) are installed and --ast=auto (the default), an AST pass over
the compilation database *adds* type-aware findings the lexer cannot see
(pointer-typed comparisons inside sort comparators, Rng constructions behind
typedefs, float compound-assignments with resolved types). AST mode only
ever widens the finding set — degraded token mode is always a subset — so an
environment without libclang (CACKLE_LINT_NO_CLANG=1, or bindings absent)
loses recall, never soundness of the gate. The selftest asserts the subset
property in both modes.

Diagnostics go to stdout as `path:line: [check-id] message` (paths relative
to --root); the summary goes to stderr. Exit 0 clean, 1 violations, 2 config
error.
"""

import argparse
import hashlib
import json
import os
import re
import sys

CHECK_IDS = (
    "cackle-determinism",
    "cackle-unordered-iter",
    "cackle-layering",
    "cackle-status-discipline",
    "cackle-raw-thread",
    "cackle-metric-name",
    "cackle-metric-prefix",
    "cackle-ptr-order",
    "cackle-float-merge",
    "cackle-rng-stream",
    "cackle-lock-annotation",
)

# Files (relative to the src dir) allowed to touch clocks / randomness: the
# seeded RNG wraps all randomness, and the thread pool's park/unpark path
# needs a real monotonic clock for its idle-wait bookkeeping.
DETERMINISM_ALLOWLIST = {
    "common/rng.h",
    "common/rng.cc",
    "common/thread_pool.cc",
}

# Files allowed to spawn raw threads: the pool itself.
RAW_THREAD_ALLOWLIST = {
    "common/thread_pool.h",
    "common/thread_pool.cc",
}

# The sanctioned stream factories themselves (Rng::Stream/StreamSeed/Fork and
# SweepRunner::CellSeed) necessarily contain the seed arithmetic everyone
# else is banned from writing inline.
RNG_STREAM_ALLOWLIST = {
    "common/rng.h",
    "common/rng.cc",
    "sim/sweep_runner.cc",
}

# The annotated Mutex wrapper is the one place a bare std::mutex may live.
LOCK_ANNOTATION_ALLOWLIST = {
    "common/thread_annotations.h",
}

# Ordered associative containers whose iteration order is the key's sort
# order — pointer keys make that allocation order.
ORDERED_ASSOC_CONTAINERS = {"map", "set", "multimap", "multiset"}

# Sorting algorithms whose comparator we scan for pointer→integer casts.
SORT_ALGOS = {"sort", "stable_sort", "partial_sort", "nth_element"}
PTR_CAST_IDENTS = {"uintptr_t", "intptr_t", "reinterpret_cast"}

# Comment marker that sanctions a float accumulation inside a task body: it
# asserts the merge happens in ascending morsel/partition index order, which
# pins the reassociation order and keeps results bit-identical.
FLOAT_MERGE_MARKER = "ascending-index merge"
FLOAT_TYPES = ("float", "double")

# ThreadPool entry points whose task-body lambdas run on worker threads.
POOL_SUBMIT_METHODS = {"Submit", "SubmitRange"}

# The registry header itself and the central name registry are the only
# places metric-name string literals may live.
METRIC_NAME_ALLOWLIST = {
    "common/metric_names.h",
}

# Metric namespaces minted by the intra-operator parallelism work. Their
# spellings live in metric_names.h only; any other file spelling one out as
# a literal (even outside a registry call, e.g. in a snapshot filter) is a
# violation of cackle-metric-prefix.
RESERVED_METRIC_PREFIXES = ("exec.morsel.",)

METRIC_CALL_METHODS = {
    "GetCounter", "GetGauge", "GetHistogram",
    "AddCounter", "SetCounter", "SetGauge", "Observe",
    "CounterValue", "FindCounter", "FindGauge", "FindHistogram",
}

# Tokens inside an unordered-container loop body that indicate the body is
# emitting output whose order the container does not pin down.
OUTPUT_SINK_IDENTS = {
    # metrics
    "SetCounter", "AddCounter", "SetGauge", "Observe",
    "GetCounter", "GetGauge", "GetHistogram",
    # JSON snapshot writer
    "WriteJson", "BeginObject", "EndObject", "BeginArray", "EndArray",
    "Key", "String", "Double", "Int", "Bool",
    # table printer / stdio
    "AddRow", "AddCell", "printf", "fprintf", "sprintf", "snprintf", "puts",
    # billing / cost attribution
    "Charge", "Attribute", "AddCost",
}
OUTPUT_SINK_PUNCT = {"<<"}

WALL_CLOCKS = {"system_clock", "steady_clock", "high_resolution_clock"}
AMBIENT_RANDOM = {"random_device", "gettimeofday", "clock_gettime",
                  "timespec_get", "localtime", "gmtime", "strftime"}
STD_BANNED = {"time", "rand", "srand"}

DECL_SPECIFIERS = {"virtual", "static", "inline", "constexpr", "explicit",
                   "friend", "extern"}
DECL_BOUNDARIES = {";", "{", "}", ":"}

MULTI_CHAR_PUNCT = ("<<=", ">>=", "->*", "::", "<<", ">>", "->", "==", "!=",
                    "<=", ">=", "&&", "||", "+=", "-=", "*=", "/=", "%=",
                    "&=", "|=", "^=", "++", "--")

NOLINT_RE = re.compile(
    r"//\s*(NOLINTNEXTLINE|NOLINT)\(([a-z\-,\s]+)\)\s*(:\s*(\S.*))?")
INCLUDE_RE = re.compile(r'^\s*#\s*include\s+"([^"]+)"')


class Token:
    __slots__ = ("kind", "text", "line")

    def __init__(self, kind, text, line):
        self.kind = kind  # "ident" | "number" | "string" | "char" | "punct"
        self.text = text
        self.line = line

    def __repr__(self):
        return f"{self.kind}:{self.text}@{self.line}"


def tokenize(source):
    """A pragmatic C++ lexer: identifiers, numbers, string/char literals,
    and punctuation, with comments dropped. Enough for lexically decidable
    invariants; not a conforming preprocessor."""
    tokens = []
    i = 0
    line = 1
    n = len(source)
    while i < n:
        c = source[i]
        if c == "\n":
            line += 1
            i += 1
            continue
        if c in " \t\r\f\v":
            i += 1
            continue
        if source.startswith("//", i):
            j = source.find("\n", i)
            i = n if j < 0 else j
            continue
        if source.startswith("/*", i):
            j = source.find("*/", i + 2)
            j = n if j < 0 else j + 2
            line += source.count("\n", i, j)
            i = j
            continue
        if source.startswith('R"', i):  # raw string: R"delim( ... )delim"
            m = re.match(r'R"([^(\s]*)\(', source[i:])
            if m:
                end = source.find(")" + m.group(1) + '"', i + m.end())
                end = n if end < 0 else end + len(m.group(1)) + 2
                tokens.append(Token("string", source[i:end], line))
                line += source.count("\n", i, end)
                i = end
                continue
        if c == '"' or c == "'":
            j = i + 1
            while j < n and source[j] != c:
                j += 2 if source[j] == "\\" else 1
            j = min(j + 1, n)
            tokens.append(Token("string" if c == '"' else "char",
                                source[i:j], line))
            line += source.count("\n", i, j)
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            tokens.append(Token("ident", source[i:j], line))
            i = j
            continue
        if c.isdigit() or (c == "." and i + 1 < n and source[i + 1].isdigit()):
            j = i
            while j < n and (source[j].isalnum() or source[j] in "._'+-" and
                             (source[j] not in "+-" or
                              source[j - 1] in "eEpP")):
                j += 1
            tokens.append(Token("number", source[i:j], line))
            i = j
            continue
        for p in MULTI_CHAR_PUNCT:
            if source.startswith(p, i):
                tokens.append(Token("punct", p, line))
                i += len(p)
                break
        else:
            tokens.append(Token("punct", c, line))
            i += 1
    return tokens


class Suppressions:
    """Per-line NOLINT(cackle-*) directives, with mandatory reasons."""

    def __init__(self, lines):
        self.by_line = {}  # line number -> set of check ids
        self.bare = []  # (line, directive) for reason-less NOLINTs
        self.entries = []  # (line, sorted check-id tuple, reason) — audit
        for lineno, text in enumerate(lines, start=1):
            m = NOLINT_RE.search(text)
            if not m:
                continue
            directive, checks, reason = m.group(1), m.group(2), m.group(4)
            target = lineno + 1 if directive == "NOLINTNEXTLINE" else lineno
            ids = {c.strip() for c in checks.split(",") if c.strip()}
            known = {c for c in ids if c in CHECK_IDS}
            if not known:
                continue  # foreign NOLINT (e.g. clang-tidy's); none of ours
            if not reason:
                self.bare.append((lineno, directive))
                continue  # a reason-less suppression does not suppress
            self.by_line.setdefault(target, set()).update(known)
            self.entries.append((lineno, tuple(sorted(known)), reason))

    def active(self, line, check):
        return check in self.by_line.get(line, ())


class SourceFile:
    def __init__(self, root, relpath):
        self.relpath = relpath
        with open(os.path.join(root, relpath), encoding="utf-8") as f:
            self.text = f.read()
        self.lines = self.text.splitlines()
        self.tokens = tokenize(self.text)
        self.suppressions = Suppressions(self.lines)


class Violation:
    def __init__(self, relpath, line, check, message, line_text):
        self.relpath = relpath
        self.line = line
        self.check = check
        self.message = message
        self.line_text = line_text

    def fingerprint(self):
        norm = " ".join(self.line_text.split())
        digest = hashlib.sha1(
            f"{self.check}|{self.relpath}|{norm}".encode()).hexdigest()
        return digest[:16]

    def render(self):
        return f"{self.relpath}:{self.line}: [{self.check}] {self.message}"


def match_balanced(tokens, i, open_tok, close_tok):
    """Index just past the token closing the group opened at tokens[i]."""
    depth = 0
    while i < len(tokens):
        t = tokens[i].text
        if t == open_tok:
            depth += 1
        elif t == close_tok:
            depth -= 1
            if depth == 0:
                return i + 1
        i += 1
    return i


def match_template(tokens, i):
    """Index just past the `>` closing the `<` at tokens[i], treating `>>`
    as two closes (C++11 semantics)."""
    depth = 0
    while i < len(tokens):
        t = tokens[i].text
        if t == "<":
            depth += 1
        elif t == ">":
            depth -= 1
            if depth == 0:
                return i + 1
        elif t == ">>":
            depth -= 2
            if depth <= 0:
                return i + 1
        i += 1
    return i


# --------------------------------------------------------------------------
# Checks. Each takes (engine, file) and yields Violation.
# --------------------------------------------------------------------------

def check_determinism(engine, f):
    check = "cackle-determinism"
    if f.relpath_in_src in DETERMINISM_ALLOWLIST:
        return
    toks = f.tokens
    for i, t in enumerate(toks):
        if t.kind != "ident":
            continue
        hit = None
        if t.text in WALL_CLOCKS:
            if (i + 2 < len(toks) and toks[i + 1].text == "::"
                    and toks[i + 2].text == "now"):
                hit = f"std::chrono::{t.text}::now() reads the wall clock"
        elif t.text in AMBIENT_RANDOM:
            hit = f"'{t.text}' is a nondeterministic source"
        elif t.text in STD_BANNED:
            prev = toks[i - 1] if i > 0 else None
            prev2 = toks[i - 2] if i > 1 else None
            qualified_std = (prev is not None and prev.text == "::"
                             and prev2 is not None and prev2.text == "std")
            bare_call = (t.text in ("rand", "srand")
                         and i + 1 < len(toks) and toks[i + 1].text == "("
                         and (prev is None
                              or prev.text not in (".", "->", "::")))
            if qualified_std or bare_call:
                hit = f"'{t.text}()' is banned; use common/rng.h"
        if hit:
            yield engine.violation(
                f, t.line, check,
                hit + " (allowlist: common/rng.*, common/thread_pool.cc)")


def check_raw_thread(engine, f):
    check = "cackle-raw-thread"
    if f.relpath_in_src in RAW_THREAD_ALLOWLIST:
        return
    toks = f.tokens
    for i, t in enumerate(toks):
        if t.kind != "ident" or t.text not in ("thread", "jthread", "async"):
            continue
        prev = toks[i - 1] if i > 0 else None
        prev2 = toks[i - 2] if i > 1 else None
        if (prev is not None and prev.text == "::" and prev2 is not None
                and prev2.text == "std"):
            yield engine.violation(
                f, t.line, check,
                f"std::{t.text} outside common/thread_pool.cc; "
                "submit work to the shared ThreadPool instead")


def check_metric_name(engine, f):
    check = "cackle-metric-name"
    if f.relpath_in_src in METRIC_NAME_ALLOWLIST:
        return
    toks = f.tokens
    for i, t in enumerate(toks):
        if (t.kind != "ident" or t.text not in METRIC_CALL_METHODS
                or i + 1 >= len(toks) or toks[i + 1].text != "("):
            continue
        end = match_balanced(toks, i + 1, "(", ")")
        for j in range(i + 2, end - 1):
            if toks[j].kind == "string":
                yield engine.violation(
                    f, toks[j].line, check,
                    f"string literal {toks[j].text} passed to {t.text}(); "
                    "use a constant from common/metric_names.h")
                break


def check_metric_prefix(engine, f):
    check = "cackle-metric-prefix"
    if f.relpath_in_src in METRIC_NAME_ALLOWLIST:
        return
    for t in f.tokens:
        if t.kind != "string" or not t.text.startswith('"'):
            continue  # raw strings never spell metric names here
        body = t.text[1:]
        for prefix in RESERVED_METRIC_PREFIXES:
            if body.startswith(prefix):
                yield engine.violation(
                    f, t.line, check,
                    f"literal {t.text} uses the reserved metric namespace "
                    f"'{prefix}*'; spell it via a constant in "
                    "common/metric_names.h")
                break


def _unordered_decl_names(toks):
    names = set()
    for i, t in enumerate(toks):
        if t.kind != "ident" or t.text not in ("unordered_map",
                                               "unordered_set"):
            continue
        j = i + 1
        if j < len(toks) and toks[j].text == "<":
            j = match_template(toks, j)
        while j < len(toks) and toks[j].text in ("&", "*", "const"):
            j += 1
        if j < len(toks) and toks[j].kind == "ident":
            names.add(toks[j].text)
    return names


def check_unordered_iter(engine, f):
    check = "cackle-unordered-iter"
    toks = f.tokens
    unordered = _unordered_decl_names(toks)
    if not unordered:
        return
    for i, t in enumerate(toks):
        if t.kind != "ident" or t.text != "for":
            continue
        if i + 1 >= len(toks) or toks[i + 1].text != "(":
            continue
        close = match_balanced(toks, i + 1, "(", ")")
        # Find the range-for ':' at paren depth 1 (skip '::').
        colon = None
        depth = 0
        for j in range(i + 1, close):
            tj = toks[j].text
            if tj in "([{":
                depth += 1
            elif tj in ")]}":
                depth -= 1
            elif tj == ":" and depth == 1:
                colon = j
                break
        if colon is None:
            continue
        range_idents = [x.text for x in toks[colon + 1:close - 1]
                        if x.kind == "ident"]
        if not range_idents or range_idents[-1] not in unordered:
            continue
        container = range_idents[-1]
        # Loop body: balanced braces or a single statement.
        body_start = close
        if body_start < len(toks) and toks[body_start].text == "{":
            body_end = match_balanced(toks, body_start, "{", "}")
        else:
            body_end = body_start
            while body_end < len(toks) and toks[body_end].text != ";":
                body_end += 1
        for j in range(body_start, body_end):
            tj = toks[j]
            if ((tj.kind == "ident" and tj.text in OUTPUT_SINK_IDENTS)
                    or (tj.kind == "punct"
                        and tj.text in OUTPUT_SINK_PUNCT)):
                yield engine.violation(
                    f, t.line, check,
                    f"iteration over unordered container '{container}' "
                    f"emits output ('{tj.text}' in body); iterate a sorted "
                    "copy or justify with NOLINT")
                break


def check_status_discipline(engine, f):
    check = "cackle-status-discipline"
    if not f.relpath.endswith(".h"):
        return
    toks = f.tokens
    # status.h declares the classes; require the class-level attribute there
    # instead of per-signature markers (factories are covered by the class).
    if f.relpath_in_src == "common/status.h":
        for cls in ("Status", "StatusOr"):
            pattern = re.compile(
                r"class\s*\[\[\s*nodiscard\s*\]\]\s*" + cls + r"\b")
            if not pattern.search(f.text):
                yield engine.violation(
                    f, 1, check,
                    f"class {cls} must be declared [[nodiscard]]")
        return
    for i, t in enumerate(toks):
        if t.kind != "ident" or t.text not in ("Status", "StatusOr"):
            continue
        # Forward: the return type must be followed by a function name and
        # an opening paren (value return only; refs/pointers are accessors).
        j = i + 1
        if t.text == "StatusOr":
            if j >= len(toks) or toks[j].text != "<":
                continue
            j = match_template(toks, j)
        if j + 1 >= len(toks) or toks[j].kind != "ident" \
                or toks[j + 1].text != "(":
            continue
        func_name = toks[j].text
        # Backward: skip decl specifiers and the cackle:: qualifier; a
        # declaration context begins after ; { } : or at file start.
        k = i - 1
        while k >= 0 and ((toks[k].kind == "ident"
                           and toks[k].text in DECL_SPECIFIERS)
                          or toks[k].text == "::"
                          or (toks[k].kind == "ident"
                              and toks[k].text == "cackle")):
            k -= 1
        if k >= 0 and toks[k].text == "]":
            continue  # attribute present ([[nodiscard]] tokenizes to ]])
        if k >= 0 and toks[k].text == "]]":
            continue
        if k < 0 or toks[k].text in DECL_BOUNDARIES:
            yield engine.violation(
                f, t.line, check,
                f"{t.text}-returning '{func_name}' lacks [[nodiscard]]")


def check_layering(engine, f):
    check = "cackle-layering"
    own_dir = f.relpath_in_src.split("/", 1)[0]
    allowed = engine.layer_closure.get(own_dir)
    if allowed is None:
        return  # directory not part of the link DAG (no add_library)
    for lineno, text in enumerate(f.lines, start=1):
        m = INCLUDE_RE.match(text)
        if not m:
            continue
        inc = m.group(1)
        inc_dir = inc.split("/", 1)[0]
        if inc_dir == own_dir or inc_dir not in engine.layer_dirs:
            continue
        if inc_dir not in allowed:
            yield engine.violation(
                f, lineno, check,
                f'"{inc}" is a layering back-edge: {own_dir} does not link '
                f"against {inc_dir} (allowed: "
                f"{', '.join(sorted(allowed)) or 'none'})")


def _first_template_arg(toks, i):
    """Tokens of the first template argument; tokens[i] must be the `<`."""
    end = match_template(toks, i)
    arg = []
    depth = 0
    for j in range(i, end):
        t = toks[j].text
        if t == "<":
            depth += 1
            if depth == 1:
                continue
        elif t == ">":
            depth -= 1
            if depth == 0:
                break
        elif t == ">>":
            depth -= 2
            if depth <= 0:
                break
        elif t == "," and depth == 1:
            break
        arg.append(toks[j])
    return arg


def check_ptr_order(engine, f):
    check = "cackle-ptr-order"
    toks = f.tokens
    for i, t in enumerate(toks):
        if t.kind != "ident":
            continue
        prev = toks[i - 1] if i > 0 else None
        if (t.text in ORDERED_ASSOC_CONTAINERS
                and i + 1 < len(toks) and toks[i + 1].text == "<"):
            if prev is not None and prev.text in (".", "->"):
                continue  # a method named map/set, not the container
            arg = _first_template_arg(toks, i + 1)
            if any(a.text == "*" for a in arg):
                key = " ".join(a.text for a in arg)
                yield engine.violation(
                    f, t.line, check,
                    f"std::{t.text} keyed by pointer type '{key}': iteration "
                    "order is address order, i.e. allocation order — "
                    "nondeterministic across runs; key by a stable id")
        elif (t.text == "less" and i + 1 < len(toks)
              and toks[i + 1].text == "<"):
            arg = _first_template_arg(toks, i + 1)
            if any(a.text == "*" for a in arg):
                yield engine.violation(
                    f, t.line, check,
                    "std::less over a pointer type compares addresses — "
                    "nondeterministic across runs; compare a stable id")
        elif (t.text in SORT_ALGOS and i + 1 < len(toks)
              and toks[i + 1].text == "("):
            if prev is not None and prev.text in (".", "->"):
                continue  # container member .sort(), not std::sort
            end = match_balanced(toks, i + 1, "(", ")")
            for j in range(i + 2, end - 1):
                if (toks[j].kind == "ident"
                        and toks[j].text in PTR_CAST_IDENTS):
                    yield engine.violation(
                        f, toks[j].line, check,
                        f"comparator passed to {t.text}() casts a pointer to "
                        f"an integer ('{toks[j].text}'): that sorts by "
                        "address, i.e. allocation order — sort by a stable "
                        "id instead")
                    break


def _float_decl_names(toks, lo=0, hi=None):
    """Names declared with float/double type in tokens[lo:hi], excluding
    function declarations (name directly followed by '(')."""
    hi = len(toks) if hi is None else hi
    names = set()
    for i in range(lo, hi):
        t = toks[i]
        if t.kind != "ident" or t.text not in FLOAT_TYPES:
            continue
        j = i + 1
        while j < hi and toks[j].text in ("&", "const"):
            j += 1
        if j < hi and toks[j].kind == "ident":
            if j + 1 < hi and toks[j + 1].text == "(":
                continue
            names.add(toks[j].text)
    return names


def _has_float_merge_marker(f, line):
    for ln in (line - 1, line):
        if 0 < ln <= len(f.lines) \
                and FLOAT_MERGE_MARKER in f.lines[ln - 1].lower():
            return True
    return False


def check_float_merge(engine, f):
    check = "cackle-float-merge"
    toks = f.tokens
    submit_calls = []
    for i, t in enumerate(toks):
        if (t.kind == "ident" and t.text in POOL_SUBMIT_METHODS
                and i + 1 < len(toks) and toks[i + 1].text == "("):
            submit_calls.append((i + 1, match_balanced(toks, i + 1,
                                                       "(", ")")))
    if not submit_calls:
        return
    all_float = _float_decl_names(toks)
    for lo, hi in submit_calls:
        j = lo
        while j < hi:
            if toks[j].text != "[":
                j += 1
                continue
            # Lambda declarator: [captures] (params)? specifiers? { body }
            cap_end = match_balanced(toks, j, "[", "]")
            k = cap_end
            if k < hi and toks[k].text == "(":
                k = match_balanced(toks, k, "(", ")")
            while k < hi and toks[k].text not in ("{", ";", ",", ")"):
                k += 1
            if k >= hi or toks[k].text != "{":
                j = cap_end
                continue
            body_lo, body_hi = k, match_balanced(toks, k, "{", "}")
            local_float = _float_decl_names(toks, body_lo, body_hi)
            for m in range(body_lo, body_hi):
                tm = toks[m]
                if (tm.kind != "ident" or tm.text not in all_float
                        or tm.text in local_float):
                    continue
                nxt = toks[m + 1] if m + 1 < body_hi else None
                accumulates = nxt is not None and nxt.text in ("+=", "-=",
                                                               "*=")
                if (not accumulates and nxt is not None and nxt.text == "="
                        and m + 3 < body_hi
                        and toks[m + 2].text == tm.text
                        and toks[m + 3].text in ("+", "-", "*")):
                    accumulates = True  # x = x + ... spelling
                if accumulates and not _has_float_merge_marker(f, tm.line):
                    yield engine.violation(
                        f, tm.line, check,
                        f"float accumulation into '{tm.text}' inside a "
                        "ThreadPool task body: completion order "
                        "reassociates the sum and breaks bit-identity; "
                        "merge per-task partials in ascending task-index "
                        "order (mark the merge line with "
                        f"'{FLOAT_MERGE_MARKER}') or justify with NOLINT")
            j = body_hi


def check_rng_stream(engine, f):
    check = "cackle-rng-stream"
    if f.relpath_in_src in RNG_STREAM_ALLOWLIST:
        return
    toks = f.tokens
    for i, t in enumerate(toks):
        if t.kind != "ident":
            continue
        if t.text == "Rng":
            # Rng(<args>) or `Rng name(<args>)` — flag inline literal seeds
            # and inline seed arithmetic in the constructor argument.
            j = i + 1
            if j < len(toks) and toks[j].kind == "ident":
                j += 1  # variable name in a declaration
            if j < len(toks) and toks[j].text == "(":
                end = match_balanced(toks, j, "(", ")")
                args = toks[j + 1:end - 1]
                if args and (any(a.kind == "number" for a in args)
                             or any(a.text in ("^", "^=") for a in args)):
                    yield engine.violation(
                        f, t.line, check,
                        "Rng constructed from an inline literal or ad-hoc "
                        "seed arithmetic; derive the seed via "
                        "Rng::Stream(base, kTag) with a named tag constant "
                        "(common/rng.h) so the stream map stays greppable")
            # Rng::Stream / Rng::StreamSeed with a literal tag: the tag must
            # be a named constant, or the stream map is unreviewable.
            if (i + 3 < len(toks) and toks[i + 1].text == "::"
                    and toks[i + 2].text in ("Stream", "StreamSeed")
                    and toks[i + 3].text == "("):
                end = match_balanced(toks, i + 3, "(", ")")
                args = toks[i + 4:end - 1]
                if any(a.kind == "number" for a in args):
                    yield engine.violation(
                        f, toks[i + 2].line, check,
                        f"Rng::{toks[i + 2].text}() called with a literal "
                        "stream tag; name it as a kFooStreamTag constant so "
                        "collisions are reviewable")
        elif "seed" in t.text.lower():
            nxt = toks[i + 1] if i + 1 < len(toks) else None
            prev = toks[i - 1] if i > 0 else None
            if ((nxt is not None and nxt.text in ("^", "^="))
                    or (prev is not None and prev.text == "^")):
                yield engine.violation(
                    f, t.line, check,
                    f"ad-hoc seed arithmetic on '{t.text}': XOR-folding "
                    "stream ids inline is banned; use "
                    "Rng::StreamSeed(base, kTag) from common/rng.h")


def check_lock_annotation(engine, f):
    check = "cackle-lock-annotation"
    if f.relpath_in_src in LOCK_ANNOTATION_ALLOWLIST:
        return
    toks = f.tokens
    for i, t in enumerate(toks):
        if t.kind != "ident":
            continue
        if (t.text == "mutex" and i >= 2 and toks[i - 1].text == "::"
                and toks[i - 2].text == "std"):
            yield engine.violation(
                f, t.line, check,
                "bare std::mutex cannot carry thread-safety annotations; "
                "use cackle::Mutex from common/thread_annotations.h")
            continue
        if t.text != "Mutex":
            continue
        prev = toks[i - 1] if i > 0 else None
        if prev is not None and prev.text in ("class", "struct", "enum"):
            continue  # a declaration of the type itself
        j = i + 1
        if j >= len(toks) or toks[j].kind != "ident":
            continue  # Mutex& / Mutex* parameters, Mutex(), casts, ...
        name = toks[j]
        if j + 1 >= len(toks) or toks[j + 1].text not in (";", "=", "{"):
            continue  # not a member/variable declaration
        if re.search(r"CACKLE_(PT_)?GUARDED_BY\(\s*" + re.escape(name.text)
                     + r"\s*\)", f.text):
            continue
        yield engine.violation(
            f, name.line, check,
            f"Mutex '{name.text}' has no CACKLE_GUARDED_BY({name.text}) "
            "user in this file; annotate the data it guards, or justify a "
            "pure condvar-handshake mutex with NOLINT")


CHECKS = (
    check_determinism,
    check_unordered_iter,
    check_layering,
    check_status_discipline,
    check_raw_thread,
    check_metric_name,
    check_metric_prefix,
    check_ptr_order,
    check_float_merge,
    check_rng_stream,
    check_lock_annotation,
)


# --------------------------------------------------------------------------
# AST provider (libclang). Optional: when clang.cindex is importable and
# CACKLE_LINT_NO_CLANG is unset, an AST pass over the compilation database
# ADDS type-aware findings the lexer cannot see. It never removes token-level
# findings, so degraded token mode is always a subset of AST mode and losing
# libclang loses recall, never gate soundness.
# --------------------------------------------------------------------------

class ClangAst:
    def __init__(self, cindex, index, compile_commands, root):
        self.cindex = cindex
        self.index = index
        self.root = root
        self.notices = []
        self._args_by_file = {}
        if compile_commands and os.path.isfile(compile_commands):
            try:
                with open(compile_commands, encoding="utf-8") as fh:
                    for entry in json.load(fh):
                        path = os.path.normpath(os.path.join(
                            entry.get("directory", ""), entry["file"]))
                        raw = entry.get("arguments")
                        if raw is None:
                            raw = entry.get("command", "").split()
                        args = [a for a in raw[1:]
                                if a.startswith(("-I", "-D", "-std=",
                                                 "-isystem"))]
                        self._args_by_file[path] = args
            except (OSError, ValueError, KeyError) as exc:
                self.notices.append(
                    f"compilation database unreadable for AST pass: {exc}")

    @classmethod
    def create(cls, compile_commands, root):
        """Returns (provider-or-None, human-readable mode notice)."""
        if os.environ.get("CACKLE_LINT_NO_CLANG"):
            return None, ("CACKLE_LINT_NO_CLANG set; degraded token-level "
                          "checks only")
        try:
            from clang import cindex  # noqa: PLC0415
        except ImportError:
            return None, ("clang.cindex not installed; degraded token-level "
                          "checks only")
        try:
            index = cindex.Index.create()
        except Exception as exc:  # libclang shared library missing/broken
            return None, (f"libclang unavailable ({exc}); degraded "
                          "token-level checks only")
        return (cls(cindex, index, compile_commands, root),
                "clang.cindex active; AST pass adds type-aware findings")

    def _parse(self, relpath):
        path = os.path.join(self.root, relpath)
        args = self._args_by_file.get(
            os.path.normpath(path),
            ["-std=c++20", "-I" + os.path.join(self.root, "src")])
        tu = self.index.parse(path, args=args)
        return tu

    def extra_findings(self, engine, f):
        """Yields Violations the token pass cannot see. Any libclang hiccup
        degrades to 'no extra findings for this file' with a notice."""
        if not f.relpath.endswith((".cc", ".cpp")):
            return
        try:
            yield from self._extra(engine, f)
        except Exception as exc:
            self.notices.append(f"AST pass skipped for {f.relpath}: {exc}")

    def _extra(self, engine, f):
        ck = self.cindex.CursorKind
        tk = self.cindex.TypeKind
        tu = self._parse(f.relpath)
        target = os.path.normpath(os.path.join(self.root, f.relpath))
        float_kinds = {tk.FLOAT, tk.DOUBLE, tk.LONGDOUBLE}

        def in_file(cur):
            loc = cur.location
            return (loc.file is not None
                    and os.path.normpath(loc.file.name) == target)

        def pointee(cur):
            ty = cur.type.get_canonical()
            return ty.kind == tk.POINTER

        def walk(cur, sort_depth, submit_lambda_depth):
            for child in cur.get_children():
                s, l = sort_depth, submit_lambda_depth
                if child.kind == ck.CALL_EXPR:
                    if child.spelling in SORT_ALGOS:
                        s += 1
                    if child.spelling in POOL_SUBMIT_METHODS:
                        l += 1
                if not in_file(child):
                    walk(child, s, l)
                    continue
                # Pointer-typed < / > comparison inside a sort comparator:
                # ordering by address.
                if (s > 0 and child.kind == ck.BINARY_OPERATOR):
                    operands = list(child.get_children())
                    if (len(operands) == 2 and pointee(operands[0])
                            and pointee(operands[1])):
                        yield engine.violation(
                            f, child.location.line, "cackle-ptr-order",
                            "comparator inside a sort call compares two "
                            "pointers: address order is allocation order — "
                            "nondeterministic across runs (AST)")
                # Rng constructed with an integer literal (even behind a
                # typedef or brace-init the lexer pattern misses).
                if (child.kind in (ck.CXX_FUNCTIONAL_CAST_EXPR,
                                   ck.CALL_EXPR)
                        and child.type.get_canonical().spelling
                        .endswith("Rng")):
                    for g in child.get_children():
                        if g.kind == ck.INTEGER_LITERAL:
                            yield engine.violation(
                                f, child.location.line, "cackle-rng-stream",
                                "Rng constructed from an integer literal; "
                                "derive the seed via Rng::Stream(base, "
                                "kTag) with a named tag constant (AST)")
                            break
                # Float compound-assignment inside a Submit lambda body.
                if (l > 0
                        and child.kind == ck.COMPOUND_ASSIGNMENT_OPERATOR):
                    operands = list(child.get_children())
                    if (operands and operands[0].type.get_canonical().kind
                            in float_kinds
                            and not _has_float_merge_marker(
                                f, child.location.line)):
                        yield engine.violation(
                            f, child.location.line, "cackle-float-merge",
                            "float compound assignment inside a ThreadPool "
                            "task body: completion order reassociates the "
                            "sum and breaks bit-identity (AST)")
                yield from walk(child, s, l)

        yield from walk(tu.cursor, 0, 0)


# --------------------------------------------------------------------------
# Engine
# --------------------------------------------------------------------------

class Engine:
    def __init__(self, root, src_dir, compile_commands=None, ast=None):
        self.root = root
        self.src_dir = src_dir
        self.ast = ast
        self.violations = []
        self.suppression_inventory = []  # (relpath, line, ids, reason)
        self.layer_dirs, self.layer_closure, cycle = self._link_dag()
        if cycle:
            raise SystemExit(f"error: link DAG has a cycle: {cycle}")
        self.files = self._file_set(compile_commands)

    def _link_dag(self):
        """Derives the allowed include DAG from src/*/CMakeLists.txt."""
        src_root = os.path.join(self.root, self.src_dir)
        target_dir = {}  # cackle_x -> dir name
        deps = {}  # dir -> set of dep dirs (direct)
        lib_re = re.compile(r"add_library\s*\(\s*(\w+)")
        link_re = re.compile(
            r"target_link_libraries\s*\(\s*(\w+)\s+(?:PUBLIC|PRIVATE|"
            r"INTERFACE)?([^)]*)\)", re.S)
        if not os.path.isdir(src_root):
            return set(), {}, None
        for d in sorted(os.listdir(src_root)):
            cml = os.path.join(src_root, d, "CMakeLists.txt")
            if not os.path.isfile(cml):
                continue
            text = open(cml, encoding="utf-8").read()
            for m in lib_re.finditer(text):
                target_dir[m.group(1)] = d
        dir_of = lambda tgt: target_dir.get(tgt)
        for d in sorted(set(target_dir.values())):
            deps[d] = set()
        for d in list(deps):
            cml = os.path.join(src_root, d, "CMakeLists.txt")
            text = open(cml, encoding="utf-8").read()
            for m in link_re.finditer(text):
                src_d = dir_of(m.group(1))
                if src_d is None:
                    continue
                for word in re.findall(r"[\w:]+", m.group(2)):
                    dep_d = dir_of(word)
                    if dep_d is not None and dep_d != src_d:
                        deps[src_d].add(dep_d)
        # Transitive closure + cycle detection (DFS).
        closure = {}
        state = {}  # 0 visiting, 1 done

        def visit(d, stack):
            if d in closure and state.get(d) == 1:
                return closure[d], None
            if state.get(d) == 0:
                return set(), " -> ".join(stack + [d])
            state[d] = 0
            acc = set(deps[d])
            for dep in sorted(deps[d]):
                sub, cyc = visit(dep, stack + [d])
                if cyc:
                    return set(), cyc
                acc |= sub
            state[d] = 1
            closure[d] = acc
            return acc, None

        for d in sorted(deps):
            _, cyc = visit(d, [])
            if cyc:
                return set(deps), {}, cyc
        return set(deps), closure, None

    def _file_set(self, compile_commands):
        src_prefix = os.path.join(self.root, self.src_dir) + os.sep
        rels = set()
        if compile_commands and os.path.isfile(compile_commands):
            with open(compile_commands, encoding="utf-8") as fh:
                for entry in json.load(fh):
                    path = os.path.normpath(
                        os.path.join(entry.get("directory", ""),
                                     entry["file"]))
                    if path.startswith(src_prefix):
                        rels.add(os.path.relpath(path, self.root))
        # Headers never appear in the compilation database, and a stale DB
        # must not hide new sources, so always union with the glob.
        for dirpath, _, filenames in os.walk(
                os.path.join(self.root, self.src_dir)):
            for name in filenames:
                if name.endswith((".h", ".cc", ".cpp", ".hpp")):
                    rels.add(os.path.relpath(os.path.join(dirpath, name),
                                             self.root))
        return sorted(rels)

    def violation(self, f, line, check, message):
        text = f.lines[line - 1] if 0 < line <= len(f.lines) else ""
        return Violation(f.relpath, line, check, message, text)

    def run(self):
        for rel in self.files:
            f = SourceFile(self.root, rel)
            f.relpath_in_src = os.path.relpath(
                rel, self.src_dir).replace(os.sep, "/")
            f.relpath = rel.replace(os.sep, "/")
            for lineno, directive in f.suppressions.bare:
                self.violations.append(Violation(
                    f.relpath, lineno, "cackle-nolint",
                    f"{directive}(cackle-*) without a ': <reason>' — "
                    "suppressions must be justified",
                    f.lines[lineno - 1]))
            for lineno, ids, reason in f.suppressions.entries:
                self.suppression_inventory.append(
                    (f.relpath, lineno, ids, reason))
            seen = set()
            for check in CHECKS:
                for v in check(self, f):
                    if not f.suppressions.active(v.line, v.check):
                        self.violations.append(v)
                        seen.add((v.check, v.relpath, v.line))
            if self.ast is not None:
                # AST findings only widen the set: dedupe against token-level
                # findings at the same (check, file, line).
                for v in self.ast.extra_findings(self, f):
                    if f.suppressions.active(v.line, v.check):
                        continue
                    if (v.check, v.relpath, v.line) in seen:
                        continue
                    self.violations.append(v)
                    seen.add((v.check, v.relpath, v.line))
        self.violations.sort(key=lambda v: (v.relpath, v.line, v.check))
        return self.violations


def suppression_key(entry):
    """Stable (line-number-free) form of an inventory entry, so ordinary
    code motion does not churn the committed baseline."""
    relpath, _line, ids, reason = entry
    return f"{relpath} {','.join(ids)} :: {reason.strip()}"


def run_suppression_audit(engine, args):
    """--suppressions / --write-suppressions-baseline mode: the inventory of
    justified NOLINTs is printed, and its size is a ratchet against the
    committed baseline — suppressions may be moved or removed freely, but a
    net-new suppression fails CI until the baseline is consciously updated."""
    inventory = sorted(engine.suppression_inventory)
    keys = sorted(suppression_key(e) for e in inventory)

    if args.write_suppressions_baseline:
        if not args.suppressions_baseline:
            print("error: --write-suppressions-baseline requires "
                  "--suppressions-baseline", file=sys.stderr)
            return 2
        with open(args.suppressions_baseline, "w", encoding="utf-8") as fh:
            fh.write("# cackle_lint suppression inventory — a count "
                     "ratchet: may only shrink.\n"
                     "# Regenerate with: cackle_lint.py --suppressions "
                     "--write-suppressions-baseline\n"
                     "#   --suppressions-baseline <this file>\n"
                     "# format: <path> <check-id[,check-id]> :: <reason>\n")
            for key in keys:
                fh.write(key + "\n")
        print(f"wrote {len(keys)} suppression entries to "
              f"{args.suppressions_baseline}", file=sys.stderr)
        return 0

    for relpath, line, ids, reason in inventory:
        print(f"{relpath}:{line}: [{','.join(ids)}] {reason}")

    if not args.suppressions_baseline:
        print(f"cackle_lint: {len(inventory)} suppression(s) (no baseline "
              "given; inventory only)", file=sys.stderr)
        return 0

    baseline_keys = []
    if os.path.isfile(args.suppressions_baseline):
        with open(args.suppressions_baseline, encoding="utf-8") as fh:
            baseline_keys = [ln.strip() for ln in fh
                             if ln.strip() and not ln.startswith("#")]
    if len(keys) > len(baseline_keys):
        fresh = sorted(set(keys) - set(baseline_keys))
        print(f"cackle_lint: suppression count grew: {len(keys)} > "
              f"{len(baseline_keys)} baselined. New entries:",
              file=sys.stderr)
        for key in fresh or keys:
            print(f"  {key}", file=sys.stderr)
        print("Remove the suppression or consciously regenerate "
              f"{args.suppressions_baseline}.", file=sys.stderr)
        return 1
    if len(keys) < len(baseline_keys):
        print(f"cackle_lint: suppression count shrank to {len(keys)} "
              f"(baseline {len(baseline_keys)}); ratchet down by "
              f"regenerating {args.suppressions_baseline}", file=sys.stderr)
    else:
        print(f"cackle_lint: {len(keys)} suppression(s), within baseline",
              file=sys.stderr)
    return 0


def load_baseline(path):
    entries = set()
    if not path or not os.path.isfile(path):
        return entries
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) >= 3:
                entries.add((parts[0], parts[1], parts[2]))
    return entries


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", default=".",
                    help="repository root (default: cwd)")
    ap.add_argument("--src-dir", default="src",
                    help="source tree to lint, relative to --root")
    ap.add_argument("--baseline", default=None,
                    help="baseline file of known violations to filter")
    ap.add_argument("--write-baseline", action="store_true",
                    help="write current violations to --baseline and exit 0")
    ap.add_argument("--compile-commands", default=None,
                    help="compile_commands.json to derive the file set from")
    ap.add_argument("--ast", choices=("auto", "off"), default="auto",
                    help="auto (default): use clang.cindex when available "
                         "to add AST-backed findings; off: token-level only. "
                         "CACKLE_LINT_NO_CLANG=1 forces token-level mode.")
    ap.add_argument("--suppressions", action="store_true",
                    help="print the NOLINT suppression inventory instead of "
                         "linting; with --suppressions-baseline, gate on it")
    ap.add_argument("--suppressions-baseline", default=None,
                    help="committed suppression inventory; the count is a "
                         "ratchet (new suppressions fail the audit)")
    ap.add_argument("--write-suppressions-baseline", action="store_true",
                    help="write the current suppression inventory to "
                         "--suppressions-baseline and exit 0")
    args = ap.parse_args(argv)

    root = os.path.abspath(args.root)
    cc = args.compile_commands
    if cc is None:
        for candidate in ("build", "build-release", "build-rel",
                          "build-asan", "build-tsan"):
            p = os.path.join(root, candidate, "compile_commands.json")
            if os.path.isfile(p):
                cc = p
                break

    ast = None
    if args.ast == "auto":
        ast, notice = ClangAst.create(cc, root)
        print(f"note: {notice}", file=sys.stderr)

    engine = Engine(root, args.src_dir, compile_commands=cc, ast=ast)
    violations = engine.run()
    if ast is not None:
        for notice in ast.notices:
            print(f"note: {notice}", file=sys.stderr)

    if args.suppressions or args.write_suppressions_baseline:
        return run_suppression_audit(engine, args)

    if args.write_baseline:
        if not args.baseline:
            print("error: --write-baseline requires --baseline",
                  file=sys.stderr)
            return 2
        with open(args.baseline, "w", encoding="utf-8") as fh:
            fh.write("# cackle_lint baseline — ratchet only downward.\n"
                     "# format: <check-id> <path> <fingerprint>\n")
            for v in violations:
                fh.write(f"{v.check} {v.relpath} {v.fingerprint()}\n")
        print(f"wrote {len(violations)} baseline entries to {args.baseline}",
              file=sys.stderr)
        return 0

    baseline = load_baseline(args.baseline)
    fresh, known = [], []
    for v in violations:
        if (v.check, v.relpath, v.fingerprint()) in baseline:
            known.append(v)
        else:
            fresh.append(v)

    for v in fresh:
        print(v.render())
    print(f"cackle_lint: {len(engine.files)} files, "
          f"{len(fresh)} violation(s), {len(known)} baselined",
          file=sys.stderr)
    return 1 if fresh else 0


if __name__ == "__main__":
    sys.exit(main())
