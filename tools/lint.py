#!/usr/bin/env python3
"""Project lint (detlint) for adaptive_ie.

A small rule engine enforcing repo-local correctness rules that compilers
don't. Each rule is a registered object with a stable id; findings are
suppressed per line with `// NOLINT(ie-<rule>)`, and the determinism rules
additionally honor the waiver comment documented below. Files are read and
tokenized (comment/string stripping) exactly once; every rule works off
that shared FileContext.

Style / hygiene rules:

  pragma-once          every header uses `#pragma once` (no ad-hoc include
                       guards, no unguarded headers)
  using-namespace      no `using namespace` at any scope in headers
  raw-random           no rand()/srand()/time(nullptr) seeding outside
                       src/common/rng.* — all randomness goes through
                       ie::Rng so runs stay reproducible
  naked-new            no naked new/delete in src/
  raw-mutex            no bare std:: sync primitives outside
                       src/common/sync.h — use the capability-annotated
                       ie::Mutex/CondVar wrappers (DESIGN.md §11)

Determinism rules (DESIGN.md §12) — the static side of the byte-identical
output guarantee:

  unordered-iteration  no range-for / .begin() iteration over
                       std::unordered_map/set in src/ outside the facade
                       src/common/ordered.h. Iterate via
                       ie::ForEachSorted / SortedKeys / SortedItems, or
                       waive the site with `// DETERMINISM:
                       order-insensitive (<reason>)` on the same or
                       preceding line — the reason is mandatory.
  pointer-key          no pointer-keyed maps/sets and no std::hash over
                       pointer types in src/ — addresses differ run to
                       run, so anything ordered or iterated by them is
                       nondeterministic. Key by a stable id instead.
  locale-format        in export paths (files carrying a
                       `detlint: export-path` marker comment): no
                       std::to_string, no printf-family %f/%e/%g
                       conversions, no iostream formatting machinery.
                       Use FormatDouble / FormatJsonNumber
                       (common/string_util.h): locale-independent,
                       shortest round-trip.
  float-reduce         in files that include common/parallel.h: no
                       std::accumulate / std::reduce over floating
                       accumulators — use ie::FixedOrderSum
                       (common/ordered.h) so the association order is
                       explicit and cannot be silently parallelized.

Architecture rules (archlint, DESIGN.md §16) — the static side of the
module layering and the shared-vs-session state split:

  layering-violation   an `#include` of a src/ module that the including
                       module's library does not link, directly or
                       transitively: the module DAG is the build's link
                       graph, read from the `target_link_libraries(ie_<m>
                       PUBLIC ...)` lines under src/ (bench, tools, tests
                       and examples include freely). Waive a site with
                       `// ARCH: layering (<reason>)` — the reason is
                       mandatory.
  cycle                any include cycle reachable from the linted files
                       (graph-level: the include-graph extractor chases
                       quoted includes transitively). Waivable on the
                       anchoring include line with `// ARCH: cycle
                       (<reason>)`.
  const-escape         no `const_cast` and no `mutable` members in src/.
                       `mutable` on the sync-facade primitives (ie::Mutex,
                       CondVar) is the sanctioned
                       synchronized-interior handle and is exempt; any
                       other site needs `// ARCH: const-escape (<reason>)`
                       naming why the mutation is unobservable (e.g. a
                       lock-guarded cache behind a deterministic warm
                       pass).
  shared-immutable     cross-check of the IE_SHARED_IMMUTABLE marker
                       (common/arch.h): inside a marked struct/class body,
                       every data member must be const (deep-const views
                       only, so no non-const member function of a pointee
                       is reachable), no `mutable` members, and every
                       member function must be const-qualified. Waive a
                       member with `// ARCH: shared-immutable (<reason>)`.

Advisory (not in the default rule set, no CI gate):

  unused-include       with --unused-include, flags quoted includes of
                       repo headers none of whose provided names (types,
                       functions, macros, constants) appear in the
                       including file. Heuristic — verify a removal still
                       builds before committing it.

Usage: tools/lint.py [paths...] [--format=text|json] [--treat-as-src]
                     [--unused-include]
       (paths default to src tests bench examples; the violation corpora
        tests/detlint/cases and tests/archlint/cases are skipped in
        directory walks and only linted when a case file is passed
        explicitly — their files violate rules on purpose)
Exit status: 0 clean, 1 findings, 2 usage/internal error.
"""

import argparse
import json
import os
import re
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

HEADER_EXTS = (".h", ".hpp", ".hh")
SOURCE_EXTS = (".cc", ".cpp", ".cxx") + HEADER_EXTS

DEFAULT_PATHS = ("src", "tests", "bench", "examples")

# Per-rule allowlists: the facade a rule protects is the one place the raw
# construct may appear.
RAW_RANDOM_ALLOWED = ("src/common/rng.h", "src/common/rng.cc")
RAW_MUTEX_ALLOWED = ("src/common/sync.h",)
UNORDERED_ITERATION_ALLOWED = ("src/common/ordered.h",)

NOLINT_RE = re.compile(r"//\s*NOLINT\(ie-([a-z-]+)\)")
# Determinism waiver: reason is mandatory and must be non-empty — a bare
# `// DETERMINISM: order-insensitive` or `(...)` with only whitespace does
# not waive anything.
WAIVER_RE = re.compile(
    r"//\s*DETERMINISM:\s*order-insensitive\s*\(\s*[^)\s][^)]*\)")

# ---------------------------------------------------------------------------
# Architecture model (archlint, DESIGN.md §16).
#
# The module DAG is the build's link graph. The modules are the
# add_subdirectory entries of src/CMakeLists.txt; a module may include
# itself and every module its `target_link_libraries(ie_<m> PUBLIC ...)`
# line in src/<m>/CMakeLists.txt links, directly or transitively.
# Everything else is a layering-violation. The top trees include freely.
TOP_MODULES = frozenset(("bench", "tools", "tests", "examples"))

SUBDIRECTORY_RE = re.compile(r"^\s*add_subdirectory\(\s*(\w+)\s*\)", re.M)


def read_module_graph(src_dir):
    """Maps each module under src_dir to the frozenset of modules it may
    #include (not counting itself): the closure of its ie_* link edges.
    Raises AssertionError on a module without a readable link line, an
    edge to a target that is not a module, or a link cycle."""
    def read(path):
        with open(path, encoding="utf-8") as f:
            return f.read()

    links = {}
    for module in SUBDIRECTORY_RE.findall(
            read(os.path.join(src_dir, "CMakeLists.txt"))):
        path = os.path.join(src_dir, module, "CMakeLists.txt")
        m = re.search(r"target_link_libraries\(\s*ie_%s\s+PUBLIC\b([^)]*)"
                      % module, read(path))
        if m is None:
            raise AssertionError(
                f"{path}: no target_link_libraries(ie_{module} PUBLIC ...)")
        links[module] = re.findall(r"\bie_(\w+)", m.group(1))
    closure = {}

    def close(module, trail):
        if module in trail:
            raise AssertionError(
                "link cycle: " + " -> ".join(trail + (module,)))
        if module not in links:
            raise AssertionError(
                f"{trail[-1]} links ie_{module}, which is not a module")
        if module not in closure:
            deps = set()
            for dep in links[module]:
                deps |= {dep} | close(dep, trail + (module,))
            closure[module] = frozenset(deps)
        return closure[module]

    return {module: close(module, ()) for module in links}


ALLOWED_INCLUDES = read_module_graph(os.path.join(REPO_ROOT, "src"))
SRC_MODULES = frozenset(ALLOWED_INCLUDES)

# Module override for files outside src/ (the archlint violation corpus
# and lint tests): `// archlint: module=<name>` pins the file's module.
ARCH_MODULE_RE = re.compile(r"//\s*archlint:\s*module=([a-z]+)")
# Architecture waiver: per-site, reason mandatory and non-empty, tag must
# name the rule being waived.
ARCH_WAIVER_RE_TEMPLATE = r"//\s*ARCH:\s*%s\s*\(\s*[^)\s][^)]*\)"
_ARCH_WAIVER_RES = {
    tag: re.compile(ARCH_WAIVER_RE_TEMPLATE % re.escape(tag))
    for tag in ("layering", "cycle", "const-escape", "shared-immutable")
}

INCLUDE_RE = re.compile(r'^[ \t]*#[ \t]*include[ \t]*"([^"]+)"',
                        re.MULTILINE)

CPP_KEYWORDS = frozenset((
    "alignas", "auto", "bool", "break", "case", "catch", "char", "class",
    "const", "constexpr", "continue", "decltype", "default", "delete", "do",
    "double", "else", "enum", "explicit", "extern", "false", "float", "for",
    "friend", "goto", "if", "inline", "int", "long", "mutable", "namespace",
    "new", "noexcept", "nullptr", "operator", "private", "protected",
    "public", "return", "short", "signed", "sizeof", "static", "struct",
    "switch", "template", "this", "throw", "true", "try", "typedef",
    "typename", "union", "unsigned", "using", "virtual", "void", "volatile",
    "while", "std", "size_t", "uint32_t", "uint64_t", "int32_t", "int64_t",
))

# A `"` opens a raw string literal when the code immediately before it is
# an R / uR / UR / LR / u8R prefix that is itself a token start (not the
# tail of a longer identifier: `FOOR"x"` is the identifier FOOR followed
# by an ordinary string).
RAW_STR_PREFIX_RE = re.compile(r"(?:^|[^A-Za-z0-9_])(?:u8|u|U|L)?R$")
# d-char-seq: up to 16 chars, no parens/backslash/whitespace, then `(`.
RAW_STR_DELIM_RE = re.compile(r"[^ ()\\\t\r\n\v\f]{0,16}\(")


def strip_comments_and_strings(text):
    """Replaces comment and string-literal contents with spaces, preserving
    line structure so reported line numbers stay accurate."""
    out = []
    i, n = 0, len(text)
    state = "code"  # code | line_comment | block_comment | string | char
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line_comment"
                out.append("  ")
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = "block_comment"
                out.append("  ")
                i += 2
                continue
            if c == '"':
                # Raw string literal? The prefix (R / uR / u8R / ...) was
                # already emitted as code; escapes are inert inside it and
                # it closes only at `)delim"`.
                if RAW_STR_PREFIX_RE.search(text[max(0, i - 4):i]):
                    dm = RAW_STR_DELIM_RE.match(text, i + 1)
                    if dm:
                        delim = text[i + 1:dm.end() - 1]
                        close = text.find(')' + delim + '"', dm.end())
                        end = n if close < 0 else close + len(delim) + 2
                        out.append('"')
                        for ch in text[i + 1:end - 1] if close >= 0 \
                                else text[i + 1:end]:
                            out.append("\n" if ch == "\n" else " ")
                        if close >= 0:
                            out.append('"')
                        i = end
                        continue
                state = "string"
                out.append('"')
                i += 1
                continue
            if c == "'":
                state = "char"
                out.append("'")
                i += 1
                continue
            out.append(c)
        elif state == "line_comment":
            if c == "\n":
                state = "code"
                out.append("\n")
            else:
                out.append(" ")
        elif state == "block_comment":
            if c == "*" and nxt == "/":
                state = "code"
                out.append("  ")
                i += 2
                continue
            out.append("\n" if c == "\n" else " ")
        elif state in ("string", "char"):
            quote = '"' if state == "string" else "'"
            if c == "\\":
                out.append("  ")
                i += 2
                continue
            if c == quote:
                state = "code"
                out.append(quote)
            else:
                out.append(" ")
        i += 1
    return "".join(out)


def relpath(path):
    return os.path.relpath(os.path.abspath(path), REPO_ROOT).replace(os.sep, "/")


def _blank_template_args(text):
    """Blanks the contents of balanced <...> groups (keeping the brackets)
    so declaration parsing sees `std::unordered_map<> name`. Unbalanced
    `<`/`>` (comparisons, shifts) simply never closes / never opens, which
    is harmless for the declaration statements this feeds."""
    out = []
    depth = 0
    for c in text:
        if c == "<":
            depth += 1
            out.append(c if depth == 1 else " ")
        elif c == ">":
            if depth > 0:
                depth -= 1
                out.append(c if depth == 0 else " ")
            else:
                out.append(c)
        else:
            out.append(c if depth == 0 else " ")
    return "".join(out)


_UNORDERED_DECL_RE = re.compile(r"\bunordered_(?:map|set)\s*<")
_IDENT_RE = re.compile(r"[A-Za-z_]\w*")


def collect_unordered_names(code):
    """Identifiers declared (anywhere in `code`) with a type mentioning
    std::unordered_map/set: variables, members, parameters, and functions
    returning one. Used by the unordered-iteration rule to recognize
    iteration sites without a real type system."""
    names = set()
    # Statement-ish granularity: declarations end at ; = { or (.
    for statement in re.split(r"[;{}]", code):
        if not _UNORDERED_DECL_RE.search(statement):
            continue
        flat = _blank_template_args(statement)
        # The declared name is the last identifier before the statement
        # ends or its initializer/body/argument list starts.
        decl = re.split(r"[=({]", flat, maxsplit=0)[0] if False else flat
        # Cut at the first initializer/call marker AFTER the template args.
        m = re.search(r"<\s*>", decl)
        tail = decl[m.end():] if m else decl
        cut = re.search(r"[=({]", tail)
        head = tail[:cut.start()] if cut else tail
        idents = [i for i in _IDENT_RE.findall(head)
                  if i not in CPP_KEYWORDS]
        if idents:
            names.add(idents[-1])
    return names


class FileContext:
    """Everything the rules need about one file, computed once."""

    def __init__(self, path, rel, raw, treat_as_src=False):
        self.path = path
        self.rel = rel
        self.raw = raw
        self.raw_lines = raw.splitlines()
        self.code = strip_comments_and_strings(raw)
        self.code_lines = self.code.splitlines()
        self.is_header = rel.endswith(HEADER_EXTS)
        self.in_src = rel.startswith("src/") or treat_as_src
        self.is_export_path = "detlint: export-path" in raw
        # Matched against raw text: the stripper blanks string contents,
        # and include paths are string literals.
        self.includes_parallel = re.search(
            r'#\s*include\s*"common/parallel\.h"', raw) is not None
        # Quoted includes as (line, path) pairs — from raw text, since the
        # stripper blanks string contents.
        self.includes = [(raw.count("\n", 0, m.start()) + 1, m.group(1))
                         for m in INCLUDE_RE.finditer(raw)]
        self.module = self._module_of(rel, raw)
        self._unordered_names = None

    @staticmethod
    def _module_of(rel, raw):
        """The file's module in the module DAG: the directory under
        src/, the top-level tree for bench/tools/tests/examples, or an
        explicit `// archlint: module=<m>` marker (corpus/test files)."""
        m = ARCH_MODULE_RE.search(raw)
        if m and m.group(1) in SRC_MODULES | TOP_MODULES:
            return m.group(1)
        parts = rel.split("/")
        if parts[0] == "src" and len(parts) > 2 and parts[1] in SRC_MODULES:
            return parts[1]
        if parts[0] in TOP_MODULES:
            return parts[0]
        return None

    def arch_waived(self, idx, tag):
        """Architecture waiver for `tag` on this line or in the contiguous
        comment block immediately above it (reasons routinely wrap)."""
        pattern = _ARCH_WAIVER_RES[tag]
        lines = [self.raw_line(idx)]
        j = idx - 1
        while j >= 1 and len(lines) <= 6 and \
                self.raw_line(j).lstrip().startswith("//"):
            lines.append(self.raw_line(j))
            j -= 1
        return bool(pattern.search(" ".join(reversed(lines))))

    @property
    def unordered_names(self):
        if self._unordered_names is None:
            code = self.code
            # Members declared in the companion header are iterated from
            # the .cc: fold its declarations in.
            if not self.is_header:
                base, _ = os.path.splitext(self.path)
                for ext in HEADER_EXTS:
                    try:
                        with open(base + ext, encoding="utf-8",
                                  errors="replace") as f:
                            code = code + "\n" + \
                                strip_comments_and_strings(f.read())
                        break
                    except OSError:
                        continue
            self._unordered_names = collect_unordered_names(code)
        return self._unordered_names

    def raw_line(self, idx):
        """1-based; empty string past EOF."""
        return self.raw_lines[idx - 1] if 1 <= idx <= len(self.raw_lines) \
            else ""

    def line_of_offset(self, offset):
        return self.code.count("\n", 0, offset) + 1

    def waived(self, idx):
        """Determinism waiver on this line or in the contiguous comment
        block immediately above it (reasons routinely wrap)."""
        lines = [self.raw_line(idx)]
        j = idx - 1
        while j >= 1 and len(lines) <= 6 and \
                self.raw_line(j).lstrip().startswith("//"):
            lines.append(self.raw_line(j))
            j -= 1
        return bool(WAIVER_RE.search(" ".join(reversed(lines))))


class Rule:
    """Base class: subclasses set `rule_id` and implement check(ctx)
    yielding (line, message) pairs. NOLINT suppression is engine-wide."""

    rule_id = None

    def check(self, ctx):
        raise NotImplementedError


class PragmaOnceRule(Rule):
    rule_id = "pragma-once"

    def check(self, ctx):
        if not ctx.is_header:
            return
        if "#pragma once" not in ctx.raw:
            yield 1, "header missing `#pragma once`"
        for idx, line in enumerate(ctx.code_lines, 1):
            if re.search(r"#\s*ifndef\s+\w*_H_?\b", line):
                yield idx, "ad-hoc include guard; use `#pragma once`"
                break


class UsingNamespaceRule(Rule):
    rule_id = "using-namespace"

    def check(self, ctx):
        if not ctx.is_header:
            return
        for idx, line in enumerate(ctx.code_lines, 1):
            if re.search(r"\busing\s+namespace\b", line):
                yield idx, "`using namespace` in a header"


class RawRandomRule(Rule):
    rule_id = "raw-random"

    def check(self, ctx):
        if ctx.rel in RAW_RANDOM_ALLOWED:
            return
        for idx, line in enumerate(ctx.code_lines, 1):
            if re.search(r"(?<![\w:.])s?rand\s*\(", line) or \
               re.search(r"(?<![\w:.])time\s*\(\s*(nullptr|NULL|0)\s*\)",
                         line):
                yield idx, ("raw rand()/time() seeding; use ie::Rng "
                            "(src/common/rng.h)")


class NakedNewRule(Rule):
    rule_id = "naked-new"

    def check(self, ctx):
        if not ctx.in_src:
            return
        for idx, line in enumerate(ctx.code_lines, 1):
            new_m = re.search(r"(?<![\w.])new\b(?!\s*\()", line)
            if new_m and not re.search(r"placement\s+new", line):
                yield idx, ("naked `new`; use std::make_unique or a "
                            "container/value")
            del_m = re.search(r"(?<![\w.])delete\b(?!\s*\[?\]?\s*;?\s*$)",
                              line)
            # `= delete` declarations and `operator delete` are fine.
            if del_m and not re.search(r"=\s*delete\b|operator\s+delete",
                                       line):
                yield idx, ("naked `delete`; manage lifetime with smart "
                            "pointers/containers")


class RawMutexRule(Rule):
    rule_id = "raw-mutex"

    PATTERN = re.compile(
        r"\bstd\s*::\s*(?:recursive_mutex|recursive_timed_mutex|timed_mutex|"
        r"mutex|shared_mutex|shared_timed_mutex|lock_guard|unique_lock|"
        r"shared_lock|scoped_lock|condition_variable_any|condition_variable"
        r")\b")

    def check(self, ctx):
        if ctx.rel in RAW_MUTEX_ALLOWED:
            return
        for idx, line in enumerate(ctx.code_lines, 1):
            if self.PATTERN.search(line):
                yield idx, ("bare std:: sync primitive; use the "
                            "capability-annotated wrappers in "
                            "src/common/sync.h (ie::Mutex, MutexLock, "
                            "CondVar, ...)")


def _match_paren(text, open_pos):
    """Index just past the `)` matching the `(` at open_pos, or -1."""
    depth = 0
    for i in range(open_pos, len(text)):
        if text[i] == "(":
            depth += 1
        elif text[i] == ")":
            depth -= 1
            if depth == 0:
                return i + 1
    return -1


class UnorderedIterationRule(Rule):
    rule_id = "unordered-iteration"

    MESSAGE = ("iteration over unordered container '%s': order is a hash "
               "artifact — use ie::ForEachSorted/SortedKeys/SortedItems "
               "(src/common/ordered.h) or waive with `// DETERMINISM: "
               "order-insensitive (<reason>)`")

    def check(self, ctx):
        if not ctx.in_src or ctx.rel in UNORDERED_ITERATION_ALLOWED:
            return
        names = ctx.unordered_names
        if not names:
            return
        findings = []
        # Range-for loops: `for (decl : range-expr)` with any unordered
        # name in the range expression.
        for m in re.finditer(r"\bfor\s*\(", ctx.code):
            open_pos = m.end() - 1
            close = _match_paren(ctx.code, open_pos)
            if close < 0:
                continue
            inner = ctx.code[open_pos + 1:close - 1]
            colon = self._top_level_colon(inner)
            if colon < 0:
                continue
            range_expr = inner[colon + 1:]
            hit = next((i for i in _IDENT_RE.findall(range_expr)
                        if i in names), None)
            if hit is not None:
                findings.append((ctx.line_of_offset(m.start()), hit))
        # Explicit iteration entry points: name.begin() / name.cbegin()
        # (iterator loops, algorithm calls, iterator-pair construction).
        begin_re = re.compile(
            r"\b(" + "|".join(re.escape(n) for n in sorted(names)) +
            r")\s*\.\s*c?begin\s*\(")
        for m in begin_re.finditer(ctx.code):
            findings.append((ctx.line_of_offset(m.start()), m.group(1)))
        for line, name in sorted(set(findings)):
            if not ctx.waived(line):
                yield line, self.MESSAGE % name

    @staticmethod
    def _top_level_colon(text):
        """Position of a depth-0 `:` that is not part of `::`, or -1."""
        depth = 0
        i = 0
        while i < len(text):
            c = text[i]
            if c in "([{<":
                depth += 1
            elif c in ")]}>":
                depth = max(0, depth - 1)
            elif c == ":" and depth == 0:
                if i + 1 < len(text) and text[i + 1] == ":":
                    i += 2
                    continue
                if i > 0 and text[i - 1] == ":":
                    i += 1
                    continue
                return i
            i += 1
        return -1


class PointerKeyRule(Rule):
    rule_id = "pointer-key"

    CONTAINER_RE = re.compile(
        r"\b(?:unordered_map|unordered_set|unordered_multimap|"
        r"unordered_multiset|map|set|multimap|multiset)\s*<")
    HASH_RE = re.compile(r"\bstd\s*::\s*hash\s*<[^<>]*\*\s*>")

    def check(self, ctx):
        if not ctx.in_src:
            return
        for m in self.CONTAINER_RE.finditer(ctx.code):
            key = self._first_template_arg(ctx.code, m.end() - 1)
            if key is not None and "*" in key:
                yield (ctx.line_of_offset(m.start()),
                       "pointer-keyed container: addresses differ run to "
                       "run, making order and hashing nondeterministic — "
                       "key by a stable id instead")
        for m in self.HASH_RE.finditer(ctx.code):
            yield (ctx.line_of_offset(m.start()),
                   "std::hash over a pointer type hashes addresses, which "
                   "differ run to run — hash a stable id instead")

    @staticmethod
    def _first_template_arg(text, open_pos):
        """Text of the first top-level template argument after the `<` at
        open_pos (up to the first depth-0 comma or the closing `>`)."""
        depth = 0
        start = open_pos + 1
        for i in range(open_pos, min(len(text), open_pos + 400)):
            c = text[i]
            if c == "<" or c == "(":
                depth += 1
            elif c == ">" or c == ")":
                depth -= 1
                if depth == 0:
                    return text[start:i]
            elif c == "," and depth == 1:
                return text[start:i]
        return None


class LocaleFormatRule(Rule):
    rule_id = "locale-format"

    PRINTF_CALL_RE = re.compile(r"\b(\w*printf|\w*Format\w*)\s*\(")
    FLOAT_CONV_RE = re.compile(r"%[-+ #0-9.*]*(?:l|L|h)?[aAeEfFgG]\b")
    STREAM_RE = re.compile(
        r"\b(?:ostringstream|stringstream|ofstream|setprecision)\b|"
        r"\bstd\s*::\s*(?:cout|cerr)\b")

    def check(self, ctx):
        if not (ctx.in_src and ctx.is_export_path):
            return
        for idx, line in enumerate(ctx.code_lines, 1):
            if re.search(r"\bstd\s*::\s*to_string\s*\(", line):
                yield idx, ("std::to_string in an export path is "
                            "locale-dependent and precision-lossy for "
                            "floats; use FormatDouble/FormatJsonNumber "
                            "(common/string_util.h)")
            if self.PRINTF_CALL_RE.search(line) and \
               self.FLOAT_CONV_RE.search(ctx.raw_line(idx)):
                yield idx, ("printf-family float conversion (%f/%e/%g) in "
                            "an export path honors LC_NUMERIC and rounds; "
                            "use FormatDouble/FormatJsonNumber "
                            "(common/string_util.h)")
            if self.STREAM_RE.search(line):
                yield idx, ("iostream formatting in an export path picks "
                            "up the global locale; use FormatDouble/"
                            "FormatJsonNumber (common/string_util.h)")


class FloatReduceRule(Rule):
    rule_id = "float-reduce"

    CALL_RE = re.compile(r"\bstd\s*::\s*(accumulate|reduce)\s*\(")
    FLOATY_RE = re.compile(
        r"\b\d+\.\d*(?:[eE][-+]?\d+)?f?|\b\d+[eE][-+]?\d+f?\b|"
        r"\b(?:double|float)\b|\.\d+f?\b")

    def check(self, ctx):
        if not (ctx.in_src and ctx.includes_parallel):
            return
        for m in self.CALL_RE.finditer(ctx.code):
            open_pos = ctx.code.find("(", m.start())
            close = _match_paren(ctx.code, open_pos)
            args = ctx.code[open_pos:close if close > 0 else open_pos + 200]
            if self.FLOATY_RE.search(args):
                yield (ctx.line_of_offset(m.start()),
                       "floating std::%s in a file that uses "
                       "common/parallel.h: reduction order could silently "
                       "change under parallelization — use "
                       "ie::FixedOrderSum (common/ordered.h)" % m.group(1))


def include_module(path):
    """Module an include path points into, or None for non-modular
    includes (system headers are angle-bracketed and never reach here;
    sibling includes like "bench_common.h" carry no module)."""
    head = path.split("/", 1)[0]
    return head if "/" in path and head in SRC_MODULES | TOP_MODULES \
        else None


class LayeringRule(Rule):
    rule_id = "layering-violation"

    MESSAGE = ("module '%s' must not include '%s': src/%s/CMakeLists.txt "
               "does not link ie_%s, directly or transitively; invert the "
               "dependency, move the shared type down, or waive with "
               "`// ARCH: layering (<reason>)`")

    def check(self, ctx):
        module = ctx.module
        # Top-layer trees may include everything; unattributed files
        # (e.g. a stray root-level TU) carry no layering obligations.
        if module is None or module in TOP_MODULES:
            return
        allowed = ALLOWED_INCLUDES[module]
        for line, path in ctx.includes:
            target = include_module(path)
            if target is None or target == module or target in allowed:
                continue
            if ctx.arch_waived(line, "layering"):
                continue
            yield line, self.MESSAGE % (module, path, module, target)


class ConstEscapeRule(Rule):
    rule_id = "const-escape"

    # `mutable` on a sync-facade primitive is the sanctioned
    # synchronized-interior handle: the facade's lock operations are
    # non-const by design, so a const reader must hold the primitive
    # mutable. Anything else guarded by it still needs its own waiver.
    SYNC_PRIMITIVE_RE = re.compile(
        r"\bmutable\s+(?:ie\s*::\s*)?(?:Mutex|CondVar)\b")
    # Skip lambda mutability (`](...) mutable {`): it is capture-local
    # state, not a const-object escape.
    MUTABLE_MEMBER_RE = re.compile(r"(?<!\))\s*\bmutable\b")

    def check(self, ctx):
        if not ctx.in_src:
            return
        for idx, line in enumerate(ctx.code_lines, 1):
            if re.search(r"\bconst_cast\s*<", line) and \
                    not ctx.arch_waived(idx, "const-escape"):
                yield idx, ("const_cast strips the const contract readers "
                            "rely on; refactor, or waive with `// ARCH: "
                            "const-escape (<reason>)` naming why the "
                            "mutation is unobservable")
            if re.search(r"\)\s*mutable\b", line):
                continue
            if self.MUTABLE_MEMBER_RE.search(line) and \
                    not self.SYNC_PRIMITIVE_RE.search(line) and \
                    not ctx.arch_waived(idx, "const-escape"):
                yield idx, ("`mutable` member makes const objects "
                            "writable; use a per-session member, or waive "
                            "with `// ARCH: const-escape (<reason>)` for a "
                            "documented synchronized interior")


class SharedImmutableRule(Rule):
    """Cross-checks IE_SHARED_IMMUTABLE-marked types (common/arch.h):
    every data member const, no mutable members, every member function
    const-qualified. Deep-const members mean no non-const member function
    of a pointee is reachable — the compiler enforces the rest."""

    rule_id = "shared-immutable"

    MARKER_RE = re.compile(
        r"\b(?:struct|class)\s+IE_SHARED_IMMUTABLE\s+(\w+)")

    def check(self, ctx):
        if not ctx.in_src:
            return
        for m in self.MARKER_RE.finditer(ctx.code):
            name = m.group(1)
            open_pos = ctx.code.find("{", m.end())
            if open_pos < 0:
                continue
            close_pos = self._match_brace(ctx.code, open_pos)
            body = ctx.code[open_pos + 1:close_pos]
            for offset, stmt in self._statements(body):
                line = ctx.line_of_offset(open_pos + 1 + offset)
                for msg in self._check_statement(name, stmt):
                    if not ctx.arch_waived(line, "shared-immutable"):
                        yield line, msg

    @staticmethod
    def _match_brace(text, open_pos):
        depth = 0
        for i in range(open_pos, len(text)):
            if text[i] == "{":
                depth += 1
            elif text[i] == "}":
                depth -= 1
                if depth == 0:
                    return i
        return len(text)

    @staticmethod
    def _statements(body):
        """Top-level statements of a class body as (offset, text) pairs.
        Braced blocks (member-function bodies, nested types) end the
        statement that introduced them and are skipped whole; default
        member initializers of brace-init form stay part of their
        statement via the `=` check."""
        statements = []
        start = 0
        depth = 0
        i = 0
        while i < len(body):
            c = body[i]
            if c in "([":
                depth += 1
            elif c in ")]":
                depth = max(0, depth - 1)
            elif c == "{" and depth == 0:
                stmt = body[start:i]
                if "=" in stmt.rsplit(")", 1)[-1]:
                    # `= {...}` initializer: stays in this statement.
                    i = SharedImmutableRule._match_brace(body, i) + 1
                    continue
                statements.append((start, stmt))
                i = SharedImmutableRule._match_brace(body, i) + 1
                start = i
                continue
            elif c == ";" and depth == 0:
                statements.append((start, body[start:i]))
                start = i + 1
            i += 1
        tail = body[start:].strip()
        if tail:
            statements.append((start, tail))
        return [(off + len(txt) - len(txt.lstrip()), txt.strip())
                for off, txt in statements if txt.strip()]

    @staticmethod
    def _check_statement(type_name, stmt):
        if not stmt or stmt.rstrip(":") in ("public", "private",
                                            "protected"):
            return
        first = _IDENT_RE.match(stmt)
        first = first.group(0) if first else ""
        if first in ("using", "typedef", "friend", "static_assert",
                     "enum"):
            return
        if re.search(r"(?<!\))\s*\bmutable\b", stmt):
            yield ("mutable member in IE_SHARED_IMMUTABLE type '%s': "
                   "sessions share it const — move the state to the "
                   "session (ExtractionSession) or waive with `// ARCH: shared-immutable "
                   "(<reason>)`" % type_name)
            return
        if "(" in stmt:
            # Member function: constructors/destructors create the object
            # before sharing; everything else must be const-qualified.
            if stmt.lstrip("~ ").startswith(type_name) or \
                    first in ("static", "explicit", "constexpr"):
                return
            if not re.search(r"\bconst\b", stmt.rsplit(")", 1)[-1]):
                yield ("non-const member function in IE_SHARED_IMMUTABLE "
                       "type '%s': shared state must be read-only — "
                       "const-qualify it or move it to the session"
                       % type_name)
            return
        if re.match(r"(?:static\s+)?(?:constexpr|const)\b", stmt):
            return
        idents = [i for i in _IDENT_RE.findall(stmt.split("=")[0])
                  if i not in CPP_KEYWORDS]
        member = idents[-1] if idents else "?"
        yield ("member '%s' of IE_SHARED_IMMUTABLE type '%s' is not "
               "const: shared context must be deeply const (hold a "
               "`const T*`/`const T&` view, or move it to the session)"
               % (member, type_name))


RULES = (
    PragmaOnceRule(),
    UsingNamespaceRule(),
    RawRandomRule(),
    NakedNewRule(),
    RawMutexRule(),
    UnorderedIterationRule(),
    PointerKeyRule(),
    LocaleFormatRule(),
    FloatReduceRule(),
    LayeringRule(),
    ConstEscapeRule(),
    SharedImmutableRule(),
)

RULE_IDS = tuple(r.rule_id for r in RULES) + ("cycle",)


# ---------------------------------------------------------------------------
# Include-graph analyses (archlint, DESIGN.md §16). Unlike the per-file
# rules these need the graph: quoted includes are resolved and chased
# transitively from the linted files, so a cycle hiding behind headers
# that were not passed explicitly is still found.

def resolve_include(from_path, inc):
    """Absolute path of the repo file a quoted include resolves to, or
    None for system/external headers. Mirrors the build's include dirs:
    src/ first (every target compiles with -I src), then the including
    file's directory, then the repo root (tests include "tests/...")."""
    for base in (os.path.join(REPO_ROOT, "src"),
                 os.path.dirname(from_path), REPO_ROOT):
        candidate = os.path.normpath(os.path.join(base, inc))
        if candidate.endswith(SOURCE_EXTS) and os.path.isfile(candidate):
            return candidate
    return None


def build_include_graph(roots):
    """Include graph over the transitive closure of `roots`: maps absolute
    path -> list of (line, absolute included path)."""
    graph = {}
    stack = [os.path.abspath(p) for p in roots]
    while stack:
        path = stack.pop()
        if path in graph:
            continue
        try:
            with open(path, encoding="utf-8", errors="replace") as f:
                raw = f.read()
        except OSError:
            graph[path] = []
            continue
        edges = []
        for m in INCLUDE_RE.finditer(raw):
            target = resolve_include(path, m.group(1))
            if target is not None:
                edges.append((raw.count("\n", 0, m.start()) + 1, target))
                stack.append(target)
        graph[path] = edges
    return graph


def check_cycles(files, findings):
    """Appends one `cycle` finding per include cycle reachable from
    `files`, anchored at the lexicographically first member's include of
    the next member (deterministic across runs)."""
    graph = build_include_graph(files)
    index = {}
    lowlink = {}
    on_stack = set()
    stack = []
    sccs = []

    def strongconnect(root):  # iterative Tarjan
        work = [(root, 0)]
        while work:
            node, edge_idx = work.pop()
            if edge_idx == 0:
                index[node] = lowlink[node] = len(index)
                stack.append(node)
                on_stack.add(node)
            recurse = False
            edges = graph.get(node, [])
            for i in range(edge_idx, len(edges)):
                _, target = edges[i]
                if target not in index:
                    work.append((node, i + 1))
                    work.append((target, 0))
                    recurse = True
                    break
                if target in on_stack:
                    lowlink[node] = min(lowlink[node], index[target])
            if recurse:
                continue
            if lowlink[node] == index[node]:
                scc = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    scc.append(member)
                    if member == node:
                        break
                if len(scc) > 1 or \
                        any(t == node for _, t in graph.get(node, [])):
                    sccs.append(scc)
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])

    for node in sorted(graph):
        if node not in index:
            strongconnect(node)

    for scc in sccs:
        members = sorted(relpath(p) for p in scc)
        anchor = min(scc, key=relpath)
        scc_set = set(scc)
        line, target = next(
            ((ln, t) for ln, t in graph.get(anchor, []) if t in scc_set),
            (1, anchor))
        rel = relpath(anchor)
        raw_line = ""
        try:
            with open(anchor, encoding="utf-8", errors="replace") as f:
                lines = f.read().splitlines()
            raw_line = lines[line - 1] if 0 < line <= len(lines) else ""
        except OSError:
            pass
        if suppressed(raw_line, "cycle"):
            continue
        if _ARCH_WAIVER_RES["cycle"].search(raw_line):
            continue
        findings.append(
            (rel, line, "cycle",
             "include cycle: %s — headers in a cycle cannot be layered "
             "or compiled standalone; break it with a forward "
             "declaration or by moving the shared type down"
             % " -> ".join(members + [members[0]])))


# Names a header "provides", for the advisory unused-include analysis:
# types, enums, aliases, macros, and anything that syntactically looks
# like a function or initialized constant. Over-approximating keeps the
# advisory conservative (an include is flagged only when NONE of these
# names appear in the including file).
_PROVIDES_RES = (
    re.compile(r"\b(?:class|struct|union)\s+(?:IE_\w+\s+)?([A-Za-z_]\w*)"),
    re.compile(r"\benum\s+(?:class\s+|struct\s+)?([A-Za-z_]\w*)"),
    re.compile(r"\busing\s+([A-Za-z_]\w*)\s*="),
    re.compile(r"([A-Za-z_]\w*)\s*\("),
    re.compile(r"\b(?:constexpr|const|inline)\s+[\w:<>]+\s+"
               r"([A-Za-z_]\w*)\s*[={]"),
)
_DEFINE_RE = re.compile(r"#\s*define\s+([A-Za-z_]\w*)")


def _provided_names(path, cache):
    if path in cache:
        return cache[path]
    try:
        with open(path, encoding="utf-8", errors="replace") as f:
            raw = f.read()
    except OSError:
        cache[path] = frozenset()
        return cache[path]
    code = strip_comments_and_strings(raw)
    names = set(_DEFINE_RE.findall(raw))
    for pattern in _PROVIDES_RES:
        names.update(pattern.findall(code))
    cache[path] = frozenset(names - CPP_KEYWORDS)
    return cache[path]


def check_unused_includes(files, findings):
    """Advisory: flags quoted includes of repo files whose provided names
    never appear in the including file. Heuristic (macros expanded by
    other macros, re-exported headers, and operator-only headers can fool
    it) — verify each removal still builds."""
    cache = {}
    for path in files:
        path = os.path.abspath(path)
        try:
            with open(path, encoding="utf-8", errors="replace") as f:
                raw = f.read()
        except OSError:
            continue
        code = strip_comments_and_strings(raw)
        used = frozenset(_IDENT_RE.findall(code))
        stem = os.path.splitext(os.path.basename(path))[0]
        for m in INCLUDE_RE.finditer(raw):
            inc = m.group(1)
            target = resolve_include(path, inc)
            if target is None:
                continue
            # The companion header is the TU's interface — always "used".
            if os.path.splitext(os.path.basename(target))[0] == stem:
                continue
            if _provided_names(target, cache) & used:
                continue
            line = raw.count("\n", 0, m.start()) + 1
            findings.append(
                (relpath(path), line, "unused-include",
                 'no name provided by "%s" appears in this file '
                 "(advisory — verify the removal builds)" % inc))


def suppressed(raw_line, rule):
    m = NOLINT_RE.search(raw_line)
    return bool(m and m.group(1) == rule)


def check_file(path, findings, treat_as_src=False):
    """Lints one file, appending (rel, line, rule_id, message) tuples."""
    rel = relpath(path)
    try:
        with open(path, encoding="utf-8", errors="replace") as f:
            raw = f.read()
    except OSError as err:
        findings.append((rel, 0, "io", str(err)))
        return
    ctx = FileContext(path, rel, raw, treat_as_src=treat_as_src)
    for rule in RULES:
        for line, msg in rule.check(ctx):
            if not suppressed(ctx.raw_line(line), rule.rule_id):
                findings.append((rel, line, rule.rule_id, msg))


def collect_files(paths):
    files = []
    for p in paths:
        ap = p if os.path.isabs(p) else os.path.join(REPO_ROOT, p)
        if os.path.isfile(ap):
            if ap.endswith(SOURCE_EXTS):
                files.append(ap)
        elif os.path.isdir(ap):
            for dirpath, dirnames, filenames in os.walk(ap):
                # `detlint` and `archlint` hold the violation corpora:
                # their cases trip rules on purpose and are linted one by
                # one by their ctest drivers, never by directory walks.
                dirnames[:] = [d for d in dirnames
                               if not d.startswith(("build", ".git"))
                               and d not in ("detlint", "archlint")]
                for fn in sorted(filenames):
                    if fn.endswith(SOURCE_EXTS):
                        files.append(os.path.join(dirpath, fn))
        else:
            print(f"lint.py: no such path: {p}", file=sys.stderr)
            return None
    return files


def main(argv):
    parser = argparse.ArgumentParser(
        prog="lint.py", description="adaptive_ie project lint (detlint)")
    parser.add_argument("paths", nargs="*",
                        help="files or directories (default: %s)" %
                        " ".join(DEFAULT_PATHS))
    parser.add_argument("--format", choices=("text", "json"),
                        default="text", dest="fmt",
                        help="output format (json is machine-readable)")
    parser.add_argument("--treat-as-src", action="store_true",
                        help="apply src/-scoped rules to every input "
                        "(used by the violation-corpus driver and tests)")
    parser.add_argument("--unused-include", action="store_true",
                        help="also run the advisory unused-include "
                        "analysis over the inputs (heuristic; verify "
                        "removals build)")
    args = parser.parse_args(argv[1:])

    paths = args.paths or [p for p in DEFAULT_PATHS
                           if os.path.isdir(os.path.join(REPO_ROOT, p))]
    files = collect_files(paths)
    if files is None:
        return 2
    findings = []
    for path in files:
        check_file(path, findings, treat_as_src=args.treat_as_src)
    check_cycles(files, findings)
    if args.unused_include:
        check_unused_includes(files, findings)

    if args.fmt == "json":
        print(json.dumps({
            "files_checked": len(files),
            "findings": [
                {"file": rel, "line": line, "rule": rule, "message": msg}
                for rel, line, rule, msg in findings
            ],
        }, indent=2))
        return 1 if findings else 0

    for rel, line, rule, msg in findings:
        print(f"{rel}:{line}: [{rule}] {msg}")
    if findings:
        print(f"lint.py: {len(findings)} finding(s) in "
              f"{len({f[0] for f in findings})} file(s)", file=sys.stderr)
        return 1
    print(f"lint.py: OK ({len(files)} files clean)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
