#!/usr/bin/env python3
"""Project-invariant static analyzer for the kcenter repo (stdlib only).

The codebase's correctness story rests on conventions no compiler checks:
determinism by ordered reduction, float64 dimension-ascending accumulation,
Options structs that hold only algorithmic knobs while execution resources
live in ``mpc::ExecContext``, and the ``util < geometry < ... < engine``
module layering.  ``kc_lint`` machine-checks those conventions over
``src/ tests/ bench/ tools/ examples/`` and the build files, with
file:line diagnostics, an inline allowlist, and a JSON report.

Rules
-----
layering      #include edges between src/ modules must follow the
              documented DAG (see ``ALLOWED_INCLUDES`` below); the
              file-level include graph must be acyclic; every public
              ``src/**/*.hpp`` must be reachable from the umbrella header
              ``src/kcenter.hpp``.  ``LEAF_HEADERS`` (forward-declaration
              only headers, e.g. ``mpc/context.hpp``) are includable from
              anywhere but must themselves include nothing.
determinism   no ``std::rand``/``srand``/``std::random_device`` and no
              time-seeded engines outside ``src/util/rng``; no iteration
              over ``unordered_{map,set}`` (iteration order feeds results
              — use an ordered container, sort the keys, or allowlist an
              order-insensitive use); no wall-clock reads in ``src/``
              outside ``util/timer.hpp`` (bench/tools/examples/tests time
              things by design and are exempt from the wall-clock ban).
numerics      no ``float`` accumulators (``float x; ... x += ...`` —
              accumulation is float64 by contract);
              no ``==``/``!=`` against floating-point literals (exact
              sentinel compares must be allowlisted with a reason); no
              ``-ffast-math``-family flags in any build file (they break
              the bit-reproducibility contract every differential test
              depends on).
api           Options structs in ``src/`` must not regain execution-
              resource members (``pool``/``buffer``/``faults``/
              ``transport``/``injector`` — those live in
              ``mpc::ExecContext``); MPC entry points (functions declared
              in ``src/mpc/*.hpp`` taking an ``...Options`` parameter)
              must also take an ``ExecContext``; ``case Norm::`` labels
              appear only under ``src/geometry/`` — everywhere else a
              runtime ``Norm`` reaches its kernels through
              ``kernels::with_norm``; a dimension dispatch (a ``switch``
              on ``dim()``, or a ``template operator()<k>()`` call with
              an integer literal k) appears only in
              ``src/geometry/kernels.hpp`` — everywhere else a runtime
              dimension reaches its kernels through ``kernels::with_dim``.
syscalls      statement-position (return-value-discarding) calls to
              ``read``/``write``/``fsync``/``posix_madvise``/``waitpid``
              and friends in ``src/dataset/`` are flagged; check the
              return or allowlist with a reason.
exports       every function a ``src/**/*.hpp`` exports (free functions
              at namespace scope outside ``namespace detail``, and public
              member functions) has a caller outside ``tests/``.  A free
              function's name appears as an identifier in ``tools/``,
              ``examples/``, ``bench/``, ``perfbench/`` (read as caller
              evidence only, never linted) or a ``src/`` file other than
              its own header and the ``.cpp`` of the same stem.  A member
              ``C::name`` is used as a member in any of those files, its
              own ones included: ``.name(``, ``->name(``, or ``C::name``
              outside its definition (a bare ``name`` does not count).
              Test-only API is deleted, moved into ``tests/``, or made
              file-local/private.
allowlist     allow annotations must carry a non-empty reason and must
              actually suppress something (stale annotations rot).

Allowlist syntax
----------------
    some_call();  // kc-lint-allow(<rule>): <reason>
or on the immediately preceding line:
    // kc-lint-allow(<rule>): <reason>
    some_call();

Usage
-----
    tools/kc_lint.py [--root DIR] [--json OUT] [--budget BASELINE]
    tools/kc_lint.py --self-test tests/lint_fixtures
    tools/kc_lint.py --update-budget tools/lint_budget.json

``--budget`` compares the allowlist/NOLINT counts against a committed
baseline (tools/lint_budget.json) and fails on growth, so new suppressions
are a conscious, reviewed decision — the same discipline check_bench.py
applies to performance numbers.  Exit status: 0 clean, 1 diagnostics or
budget growth, 2 usage/internal error.
"""

import argparse
import json
import os
import re
import sys

# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

SCAN_DIRS = ("src", "tests", "bench", "tools", "examples")
CPP_EXTS = (".hpp", ".cpp")
# Directories never scanned (fixture trees contain deliberate violations).
EXCLUDE_PARTS = {"build", ".git", "lint_fixtures", "_deps"}

# The documented module DAG: each src/ module may include only the modules
# listed here (plus itself and LEAF_HEADERS).  This is the machine-readable
# form of  util < geometry < {core, dataset, workload}
#               < {mpc, stream, sketch, dynamic, lowerbound} < engine
# with the intra-group refinements the code actually uses (core below
# dataset/workload, sketch below dynamic/lowerbound, dataset below mpc —
# the wire format reuses the .kcb checksum).
ALLOWED_INCLUDES = {
    "util": set(),
    "geometry": {"util"},
    "sketch": {"util"},
    "core": {"util", "geometry"},
    "dataset": {"util", "geometry", "core"},
    "workload": {"util", "geometry", "core"},
    "mpc": {"util", "geometry", "core", "dataset"},
    "stream": {"util", "geometry", "core"},
    "dynamic": {"util", "geometry", "core", "sketch"},
    "lowerbound": {"util", "geometry", "core", "sketch"},
    "engine": {"util", "geometry", "core", "dataset", "workload", "mpc",
               "stream", "sketch", "dynamic", "lowerbound"},
}

# Forward-declaration-only headers, includable from any module (they carry
# no dependencies, so they cannot create a real layering edge).  A leaf
# header including anything project-local is itself a violation.
LEAF_HEADERS = {"mpc/context.hpp"}

UMBRELLA = "kcenter.hpp"

# determinism: RNG primitives are confined to util/rng.
RNG_EXEMPT = {"src/util/rng.hpp", "src/util/rng.cpp"}
# determinism: raw wall-clock reads in src/ are confined to the Timer.
WALLCLOCK_EXEMPT = {"src/util/timer.hpp"}

# api: execution-resource member names banned from Options structs.
BANNED_OPTION_MEMBERS = {"pool", "buffer", "faults", "transport", "injector"}
# api: mpc headers where Options-taking functions are context plumbing
# rather than algorithm entry points.
API_EXEMPT_MPC_HEADERS = {"src/mpc/context.hpp"}
# api: the only src/ module that may switch on a Norm (kernels::with_norm
# and Metric::name live there).
NORM_DISPATCH_SCOPE = "src/geometry/"
# api: the only file that may map a runtime dimension to a kernel
# instantiation (kernels::with_dim).
DIM_DISPATCH_FILE = "src/geometry/kernels.hpp"

# syscalls: functions whose discarded return hides real I/O failures.
CHECKED_SYSCALLS = (
    "read", "write", "pread", "pwrite", "fsync", "fdatasync", "ftruncate",
    "posix_madvise", "madvise", "msync", "waitpid", "close", "kill",
    "shutdown",
)
SYSCALL_SCOPES = ("src/dataset/",)

# exports: trees whose sources count as callers of src/ exports.  perfbench/
# is read for this only; it is frozen and never linted.
CALLER_DIRS = ("tools", "examples", "bench", "perfbench")
# exports: identifiers that precede "(" without naming a declared function.
NOT_FUNCTION_NAMES = {"alignas", "decltype", "noexcept", "operator",
                      "requires", "static_assert", "void", "int", "double"}

FASTMATH_FLAGS = re.compile(
    r"-ffast-math|-Ofast\b|-funsafe-math-optimizations|"
    r"-fassociative-math|-freciprocal-math|-ffinite-math-only")

RULES = ("layering", "determinism", "numerics", "api", "syscalls",
         "exports", "allowlist")

ALLOW_RE = re.compile(r"//\s*kc-lint-allow\(([a-z]+)\)\s*:?\s*(.*?)\s*$")

# ---------------------------------------------------------------------------
# C++ comment/string stripping (keeps line structure intact)
# ---------------------------------------------------------------------------


def strip_cpp(text, keep_strings=False):
    """Replaces comments — and, unless ``keep_strings``, string and char
    literals — with spaces so rule regexes never match inside them.
    Newlines survive, so line numbers in the stripped text equal line
    numbers in the file."""
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":
            j = text.find("\n", i)
            j = n if j < 0 else j
            out.append(" " * (j - i))
            i = j
        elif c == "/" and nxt == "*":
            j = text.find("*/", i + 2)
            j = n - 2 if j < 0 else j
            seg = text[i:j + 2]
            out.append("".join(ch if ch == "\n" else " " for ch in seg))
            i = j + 2
        elif c == "R" and nxt == '"':
            m = re.match(r'R"([^()\\\s]{0,16})\(', text[i:])
            if m:
                close = ")" + m.group(1) + '"'
                j = text.find(close, i + m.end())
                j = n - len(close) if j < 0 else j
                seg = text[i:j + len(close)]
                out.append("".join(ch if ch == "\n" else " " for ch in seg))
                i = j + len(close)
            else:
                out.append(c)
                i += 1
        elif c == '"' or c == "'":
            # Skip char/string literal with escapes; keep the delimiters so
            # expressions stay balanced-ish.
            out.append(c)
            j = i + 1
            while j < n and text[j] != c:
                if text[j] == "\\":
                    j += 1
                elif text[j] == "\n":
                    break  # unterminated (or a stray quote); bail out
                j += 1
            body = text[i + 1:j]
            out.append(body if keep_strings else " " * len(body))
            if j < n and text[j] == c:
                out.append(c)
                j += 1
            i = j
        else:
            out.append(c)
            i += 1
    return "".join(out)


def strip_hash_comments(text):
    """Strip #-comments in cmake/yaml/shell build files (line structure
    kept).  Quote-awareness is deliberately skipped: a fast-math flag
    inside a quoted string is still a flag."""
    return "\n".join(line.split("#", 1)[0] for line in text.split("\n"))


# ---------------------------------------------------------------------------
# Source model
# ---------------------------------------------------------------------------


class SourceFile:
    def __init__(self, root, relpath):
        self.rel = relpath.replace(os.sep, "/")
        path = os.path.join(root, relpath)
        with open(path, "r", encoding="utf-8", errors="replace") as fh:
            self.raw = fh.read()
        self.raw_lines = self.raw.split("\n")
        self.stripped = strip_cpp(self.raw)
        self.lines = self.stripped.split("\n")
        # Comments stripped, strings kept: include paths live in strings.
        self.code_lines = strip_cpp(self.raw, keep_strings=True).split("\n")
        # allow annotations: line -> (rule, reason, used[False])
        self.allows = []
        for no, line in enumerate(self.raw_lines, 1):
            m = ALLOW_RE.search(line)
            if m:
                self.allows.append(
                    {"line": no, "rule": m.group(1), "reason": m.group(2),
                     "used": False})
        self.nolint = sum(line.count("NOLINT") for line in self.raw_lines)

    @property
    def in_src(self):
        return self.rel.startswith("src/")

    def includes(self):
        """Yields (line_no, include_string) for quoted includes."""
        for no, line in enumerate(self.code_lines, 1):
            m = re.match(r'\s*#\s*include\s+"([^"\n]+)"', line)
            if m:
                yield no, m.group(1)


class Linter:
    def __init__(self, root):
        self.root = root
        self.files = {}
        self.diags = []  # dicts: rule/file/line/message
        self.build_files = []  # (relpath, raw_lines)
        self._load()

    # -- loading ----------------------------------------------------------

    def _excluded(self, relpath):
        return any(p in EXCLUDE_PARTS for p in relpath.split(os.sep))

    def _load(self):
        for d in SCAN_DIRS:
            top = os.path.join(self.root, d)
            if not os.path.isdir(top):
                continue
            for dirpath, dirnames, filenames in os.walk(top):
                dirnames[:] = sorted(
                    x for x in dirnames if x not in EXCLUDE_PARTS)
                for f in sorted(filenames):
                    rel = os.path.relpath(os.path.join(dirpath, f), self.root)
                    if self._excluded(rel):
                        continue
                    if f.endswith(CPP_EXTS):
                        self.files[rel.replace(os.sep, "/")] = SourceFile(
                            self.root, rel)
        # Build files for the fast-math rule: every CMakeLists.txt/*.cmake
        # outside excluded dirs, CI workflows, and shell scripts in tools/.
        candidates = []
        for dirpath, dirnames, filenames in os.walk(self.root):
            dirnames[:] = sorted(
                x for x in dirnames if x not in EXCLUDE_PARTS)
            for f in sorted(filenames):
                if (f == "CMakeLists.txt" or f.endswith(".cmake")
                        or f.endswith((".yml", ".yaml", ".sh"))):
                    candidates.append(
                        os.path.relpath(os.path.join(dirpath, f), self.root))
        for rel in sorted(candidates):
            with open(os.path.join(self.root, rel), "r", encoding="utf-8",
                      errors="replace") as fh:
                text = strip_hash_comments(fh.read())
            self.build_files.append(
                (rel.replace(os.sep, "/"), text.split("\n")))

    # -- diagnostics ------------------------------------------------------

    def diag(self, rule, rel, line, message):
        self.diags.append(
            {"rule": rule, "file": rel, "line": line, "message": message})

    # -- rule 1: layering -------------------------------------------------

    def module_of(self, rel):
        assert rel.startswith("src/")
        rest = rel[len("src/"):]
        return rest.split("/")[0] if "/" in rest else "<root>"

    def resolve_include(self, rel, inc):
        """Project-relative path of the included file, or None."""
        cand = "src/" + inc
        if cand in self.files:
            return cand
        base = rel.rsplit("/", 1)[0]
        cand = base + "/" + inc
        if cand in self.files:
            return cand
        return None

    def check_layering(self):
        src_files = {r: f for r, f in self.files.items() if f.in_src}
        graph = {}
        for rel, f in sorted(src_files.items()):
            edges = []
            for no, inc in f.includes():
                dst = self.resolve_include(rel, inc)
                if dst is None or not dst.startswith("src/"):
                    continue
                edges.append((no, dst))
                self._check_edge(rel, no, dst)
            graph[rel] = edges

        self._check_cycles(graph)
        self._check_umbrella(src_files, graph)

    def _check_edge(self, rel, no, dst):
        src_mod = self.module_of(rel)
        dst_mod = self.module_of(dst)
        dst_short = dst[len("src/"):]
        if rel[len("src/"):] in LEAF_HEADERS:
            self.diag("layering", rel, no,
                      f"leaf header includes {dst_short!r}: leaf headers "
                      f"must stay forward-declaration-only")
            return
        if dst_short in LEAF_HEADERS or src_mod == dst_mod:
            return
        if src_mod == "<root>":  # the umbrella may include everything
            return
        if dst_mod == "<root>":
            self.diag("layering", rel, no,
                      "module code must not include the umbrella header "
                      "(include the specific module headers instead)")
            return
        allowed = ALLOWED_INCLUDES.get(src_mod, set())
        if dst_mod not in allowed:
            self.diag("layering", rel, no,
                      f"illegal include edge {src_mod} -> {dst_mod} "
                      f"({dst_short!r}): the layering DAG allows {src_mod} "
                      f"to include only "
                      f"{{{', '.join(sorted(allowed)) or 'nothing'}}}")

    def _check_cycles(self, graph):
        WHITE, GREY, BLACK = 0, 1, 2
        color = {rel: WHITE for rel in graph}
        stack = []

        def visit(rel):
            color[rel] = GREY
            stack.append(rel)
            for no, dst in graph.get(rel, ()):
                if color.get(dst, BLACK) == GREY:
                    cycle = stack[stack.index(dst):] + [dst]
                    self.diag("layering", rel, no,
                              "include cycle: " + " -> ".join(
                                  p[len("src/"):] for p in cycle))
                elif color.get(dst) == WHITE:
                    visit(dst)
            stack.pop()
            color[rel] = BLACK

        for rel in sorted(graph):
            if color[rel] == WHITE:
                visit(rel)

    def _check_umbrella(self, src_files, graph):
        umbrella = "src/" + UMBRELLA
        if umbrella not in src_files:
            return  # fixture trees without an umbrella skip this check
        reached = set()
        todo = [umbrella]
        while todo:
            cur = todo.pop()
            if cur in reached:
                continue
            reached.add(cur)
            for _, dst in graph.get(cur, ()):
                todo.append(dst)
        for rel in sorted(src_files):
            if rel.endswith(".hpp") and rel not in reached:
                self.diag("layering", rel, 1,
                          f"public header not reachable from the umbrella "
                          f"header src/{UMBRELLA}")

    # -- rule 2: determinism ----------------------------------------------

    RNG_RE = re.compile(r"\b(?:std::)?(?:random_device\b|s?rand\s*\()")
    TIME_SEED_RE = re.compile(
        r"(?:mt19937(?:_64)?|default_random_engine|minstd_rand0?|ranlux\w+|"
        r"\bseed)\s*[({][^;)}]*(?:\btime\s*\(|::now\b)")
    WALLCLOCK_RE = re.compile(
        r"::now\s*\(|\bgettimeofday\s*\(|\bclock_gettime\s*\(|"
        r"\btime\s*\(\s*(?:nullptr|NULL|0)\s*\)|"
        r"\b(?:system_clock|steady_clock|high_resolution_clock)\b")

    def check_determinism(self):
        for rel, f in sorted(self.files.items()):
            if rel not in RNG_EXEMPT:
                for no, line in enumerate(f.lines, 1):
                    if self.RNG_RE.search(line):
                        self.diag("determinism", rel, no,
                                  "raw RNG primitive (std::rand/srand/"
                                  "random_device); all randomness flows "
                                  "through util/rng for reproducibility")
                    if self.TIME_SEED_RE.search(line):
                        self.diag("determinism", rel, no,
                                  "time-seeded RNG: seeds must be explicit "
                                  "inputs, never wall-clock reads")
            self._check_unordered_iteration(rel, f)
            if f.in_src and rel not in WALLCLOCK_EXEMPT:
                for no, line in enumerate(f.lines, 1):
                    if self.WALLCLOCK_RE.search(line):
                        self.diag("determinism", rel, no,
                                  "wall-clock read in src/ (use util/"
                                  "timer.hpp Timer; raw clocks are for "
                                  "bench/tools code)")

    UNORDERED_DECL_RE = re.compile(
        r"\bunordered_(?:map|set|multimap|multiset)\s*<.*>\s+(\w+)\s*[;={(]")

    def _check_unordered_iteration(self, rel, f):
        names = set()
        for line in f.lines:
            m = self.UNORDERED_DECL_RE.search(line)
            if m:
                names.add(m.group(1))
        if not names:
            return
        alt = "|".join(sorted(names))
        iter_re = re.compile(
            r"for\s*\([^;{}]*?:\s*(?:this->)?(?:" + alt + r")\s*\)|"
            r"\b(?:" + alt + r")\s*\.\s*c?begin\s*\(")
        for no, line in enumerate(f.lines, 1):
            if iter_re.search(line):
                self.diag("determinism", rel, no,
                          "iteration over an unordered container: the "
                          "visit order is hash-dependent and must not feed "
                          "results or reductions (sort the keys, use an "
                          "ordered container, or allowlist an order-"
                          "insensitive use)")

    # -- rule 3: numerics -------------------------------------------------

    FLOAT_DECL_RE = re.compile(r"\bfloat\s+(\w+)\s*[;={]")
    FLOAT_LIT = r"[-+]?(?:\d+\.\d*|\.\d+)(?:[eE][-+]?\d+)?f?"
    FLOAT_EQ_RE = re.compile(
        r"[!=]=\s*" + FLOAT_LIT + r"\b|" + FLOAT_LIT + r"\s*[!=]=")

    def check_numerics(self):
        for rel, f in sorted(self.files.items()):
            acc_names = set()
            for line in f.lines:
                m = self.FLOAT_DECL_RE.search(line)
                if m:
                    acc_names.add(m.group(1))
            acc_re = (re.compile(
                r"\b(?:" + "|".join(sorted(acc_names)) + r")\s*\+=")
                if acc_names else None)
            for no, line in enumerate(f.lines, 1):
                if acc_re and acc_re.search(line):
                    self.diag("numerics", rel, no,
                              "float accumulator: accumulation is float64 "
                              "by contract (see geometry/kernels.hpp)")
                if self.FLOAT_EQ_RE.search(line):
                    self.diag("numerics", rel, no,
                              "==/!= against a floating-point literal; "
                              "exact sentinel compares need an allowlist "
                              "reason, tolerance compares a helper")
        for rel, lines in self.build_files:
            for no, line in enumerate(lines, 1):
                if FASTMATH_FLAGS.search(line):
                    self.diag("numerics", rel, no,
                              "fast-math-family flag: breaks the bit-"
                              "reproducibility contract (ordered "
                              "reductions, differential tests)")

    # -- rule 4: api conventions ------------------------------------------

    OPTIONS_RE = re.compile(r"\bstruct\s+(\w*Options)\b[^;{]*\{")

    def check_api(self):
        for rel, f in sorted(self.files.items()):
            if not f.in_src:
                continue
            self._check_options_members(rel, f)
            if (rel.startswith("src/mpc/") and rel.endswith(".hpp")
                    and rel not in API_EXEMPT_MPC_HEADERS):
                self._check_mpc_entry_points(rel, f)
            if not rel.startswith(NORM_DISPATCH_SCOPE):
                self._check_norm_dispatch(rel, f)
            if rel != DIM_DISPATCH_FILE:
                self._check_dim_dispatch(rel, f)

    NORM_CASE_RE = re.compile(r"\bcase\s+(?:\w+::)*Norm::")

    def _check_norm_dispatch(self, rel, f):
        for no, line in enumerate(f.lines, 1):
            if self.NORM_CASE_RE.search(line):
                self.diag("api", rel, no,
                          "`case Norm::` outside src/geometry/: map a "
                          "runtime Norm to its kernel instantiation with "
                          "kernels::with_norm (geometry/kernels.hpp), the "
                          "one Norm dispatch")

    DIM_SWITCH_RE = re.compile(r"\bswitch\s*\([^)]*\bdim\s*\(\s*\)")
    DIM_LITERAL_RE = re.compile(
        r"\btemplate\s+operator\s*\(\s*\)\s*<\s*\d+\s*>")

    def _check_dim_dispatch(self, rel, f):
        for no, line in enumerate(f.lines, 1):
            if self.DIM_SWITCH_RE.search(line) or \
                    self.DIM_LITERAL_RE.search(line):
                self.diag("api", rel, no,
                          "dimension dispatch outside "
                          "src/geometry/kernels.hpp: map a runtime "
                          "dimension to its kernel instantiation with "
                          "kernels::with_dim, the one dimension dispatch")

    def _check_options_members(self, rel, f):
        text = f.stripped
        for m in self.OPTIONS_RE.finditer(text):
            body_start = m.end()
            depth, i = 1, body_start
            while i < len(text) and depth > 0:
                if text[i] == "{":
                    depth += 1
                elif text[i] == "}":
                    depth -= 1
                i += 1
            body = text[body_start:i - 1]
            base_line = text.count("\n", 0, body_start) + 1
            member_re = re.compile(
                r"\b(" + "|".join(sorted(BANNED_OPTION_MEMBERS)) +
                r")\s*(?:=[^;]*)?;")
            for bm in member_re.finditer(body):
                line = base_line + body.count("\n", 0, bm.start())
                self.diag("api", rel, line,
                          f"{m.group(1)} holds execution resource "
                          f"{bm.group(1)!r}: Options structs carry "
                          f"algorithmic knobs only — execution resources "
                          f"live in mpc::ExecContext (mpc/context.hpp)")

    FUNC_OPEN_RE = re.compile(r"\b(\w+)\s*\(")

    def _check_mpc_entry_points(self, rel, f):
        text = f.stripped
        for m in self.FUNC_OPEN_RE.finditer(text):
            name = m.group(1)
            if name in ("struct", "if", "for", "while", "switch", "return",
                        "sizeof", "defined", "decltype", "static_assert"):
                continue
            depth, i = 1, m.end()
            while i < len(text) and depth > 0:
                if text[i] == "(":
                    depth += 1
                elif text[i] == ")":
                    depth -= 1
                i += 1
            params = text[m.end():i - 1]
            tail = text[i:i + 80]
            if not re.match(r"\s*(?:noexcept\s*)?(?:->\s*\w+\s*)?;", tail):
                continue  # not a declaration (definition, call, macro, ...)
            if not re.search(r"\b\w+Options\b", params):
                continue
            if "ExecContext" not in params:
                line = text.count("\n", 0, m.start()) + 1
                self.diag("api", rel, line,
                          f"MPC entry point {name!r} takes an Options "
                          f"parameter but no ExecContext: execution "
                          f"environment (pool/buffer/faults/transport) is "
                          f"passed via mpc::ExecContext")

    # -- rule 5: unchecked syscall returns --------------------------------

    SYSCALL_RE = re.compile(
        r"^\s*(?:\(void\)\s*|static_cast<void>\(\s*)?(?:::)?\b(" +
        "|".join(CHECKED_SYSCALLS) + r")\s*\(")

    def check_syscalls(self):
        for rel, f in sorted(self.files.items()):
            if not any(rel.startswith(s) for s in SYSCALL_SCOPES):
                continue
            for no, line in enumerate(f.lines, 1):
                m = self.SYSCALL_RE.match(line)
                if m:
                    self.diag("syscalls", rel, no,
                              f"unchecked return of ::{m.group(1)}(): I/O "
                              f"and process-control failures on this path "
                              f"must be handled or explicitly allowlisted")

    # -- rule 6: exports without a caller outside tests/ ------------------

    TOKEN_RE = re.compile(r"[A-Za-z_]\w*|::|\S")
    IDENT_RE = re.compile(r"[A-Za-z_]\w*")

    # A member use: ".name(" or "->name(", template arguments allowed.
    MEMBER_USE_RE = re.compile(
        r"(?:\.|->)\s*(?:template\s+)?([A-Za-z_]\w*)\s*"
        r"(?:<[^;{}()]*>\s*)?\(")
    # "C::name" and whether "(" follows (a call or a definition).  The
    # lookahead consumes only C, so "ns::C::name" also yields (C, name).
    QUALIFIED_RE = re.compile(
        r"\b([A-Za-z_]\w*)(?=\s*::\s*(?:template\s+)?([A-Za-z_]\w*)\s*"
        r"(?:<[^;{}()]*>\s*)?(\()?)")
    # After a definition's parameter list: qualifiers, then its body.
    DEFINITION_TAIL_RE = re.compile(
        r"\s*(?:const\s*)?(?:noexcept\s*)?(?:override\s*)?"
        r"(?:->[^;{]*)?\{")

    def _qualified_uses(self, text):
        """(class, name) pairs of every ``C::name`` in ``text`` that is not
        the out-of-class definition of ``C::name``."""
        uses = set()
        for m in self.QUALIFIED_RE.finditer(text):
            if m.group(3):
                depth, i = 1, m.end(3)
                while i < len(text) and depth > 0:
                    depth += (text[i] == "(") - (text[i] == ")")
                    i += 1
                if self.DEFINITION_TAIL_RE.match(text, i):
                    continue
            uses.add((m.group(1), m.group(2)))
        return uses

    def check_exports(self):
        src_users, callers = {}, set()
        member_uses, qualified_uses = set(), set()
        texts = []
        for rel, f in self.files.items():
            if f.in_src:
                texts.append(f.stripped)
                for name in set(self.IDENT_RE.findall(f.stripped)):
                    src_users.setdefault(name, set()).add(rel)
        for top in CALLER_DIRS:
            for dirpath, dirnames, filenames in os.walk(
                    os.path.join(self.root, top)):
                dirnames[:] = [x for x in dirnames if x not in EXCLUDE_PARTS]
                for fn in filenames:
                    if not fn.endswith(CPP_EXTS):
                        continue
                    text = SourceFile(self.root, os.path.relpath(
                        os.path.join(dirpath, fn), self.root)).stripped
                    callers.update(self.IDENT_RE.findall(text))
                    texts.append(text)
        for text in texts:
            member_uses.update(self.MEMBER_USE_RE.findall(text))
            qualified_uses |= self._qualified_uses(text)
        for rel, f in sorted(self.files.items()):
            if not (f.in_src and rel.endswith(".hpp")):
                continue
            own = {rel, rel[:-len(".hpp")] + ".cpp"}
            for name, no, cls in self._exported_functions(f):
                if cls:
                    if (name in member_uses
                            or (cls, name) in qualified_uses):
                        continue
                    self.diag("exports", rel, no,
                              f"{cls}::{name} is exported but nothing "
                              f"outside tests/ uses it as a member "
                              f"(.{name}(, ->{name}( or {cls}::{name}): "
                              f"delete it, move it into tests/, or make "
                              f"it private")
                elif name not in callers and \
                        not src_users.get(name, own) - own:
                    self.diag("exports", rel, no,
                              f"{name!r} is exported but nothing outside "
                              f"tests/ calls it: delete it, move it into "
                              f"tests/, or make it file-local/private")

    def _exported_functions(self, f):
        """Yields (name, line, class) for each function declared at
        namespace scope outside ``detail``/anonymous namespaces (class
        None), or as a public member of a visible class.  Bodies,
        initializers and directives are skipped."""
        # scope: [kind (ns/class/skip), class name, access, visible]
        scopes, stmt, code, cont = [["ns", "", "public", True]], [], [], False
        for line in f.lines:  # blank out directives and their continuations
            directive = cont or line.lstrip().startswith("#")
            cont = directive and line.rstrip().endswith("\\")
            code.append("" if directive else line)
        for tok, no in ((t, no) for no, line in enumerate(code, 1)
                        for t in self.TOKEN_RE.findall(line)):
            top = scopes[-1]
            if top[0] == "skip":
                if tok in ("{", "}"):
                    scopes.append(top) if tok == "{" else scopes.pop()
                continue
            words = [t for t, _ in stmt]
            if tok == ":" and words in (["public"], ["private"],
                                        ["protected"]):
                top[2], stmt = words[0], []
                continue
            if (tok not in ("{", ";", "}")
                    or words.count("(") > words.count(")")):
                stmt.append((tok, no))
                continue
            if tok == "}":
                scopes.pop()
            decl = tok != "}" and self._function_decl(words, top[1])
            visible = top[3] and top[2] == "public"
            if decl and visible:
                # The line the declaration starts on.
                yield decl, stmt[0][1], top[1] if top[0] == "class" else None
            keys = [i for i, w in enumerate(words)
                    if w in ("class", "struct", "union")]
            if tok == "{" and (decl or "enum" in words or "=" in words):
                scopes.append(["skip", "", None, False])
            elif tok == "{" and ("namespace" in words or "extern" in words):
                name = words[-1] if words[-1] != "namespace" else ""
                scopes.append(["ns", "", "public",
                               visible and name not in ("", "detail")])
            elif tok == "{" and keys:
                key, after = words[keys[-1]], words[keys[-1] + 1:]
                scopes.append(["class", after[0] if after else "",
                               "private" if key == "class" else "public",
                               visible])
            elif tok == "{":
                scopes.append(["skip", "", None, False])
            stmt = []

    def _function_decl(self, toks, class_name):
        """The function name if ``toks`` declares or defines a function (not
        a constructor, destructor or operator), else None."""
        if {"friend", "using", "typedef"} & set(toks):
            return None
        depth = angle = 0
        for i, t in enumerate(toks):
            if depth == 0 and t in ("<", ">"):
                angle += 1 if t == "<" else -1
            elif depth == 0 and angle == 0 and t == "=":
                return None
            elif depth == 0 and angle == 0 and t == "(":
                prev = toks[i - 1] if i else ""
                before = toks[i - 2] if i > 1 else ""
                if prev in ("decltype", "alignas", "noexcept"):
                    pass
                elif (self.IDENT_RE.fullmatch(prev)
                      and prev not in NOT_FUNCTION_NAMES
                      and prev != class_name
                      and before not in ("~", "::", "operator")):
                    return prev
                else:
                    return None
            depth += (t == "(") - (t == ")")
        return None

    # -- allowlist resolution ---------------------------------------------

    @staticmethod
    def _covering_lines(f, line):
        """Line numbers whose kc-lint-allow annotation covers ``line``: the
        line itself (trailing annotation) plus the run of blank/comment-only
        lines immediately above it (so wrapped reasons work)."""
        covered = {line}
        k = line - 1
        while k >= 1:
            stripped = f.lines[k - 1] if k - 1 < len(f.lines) else ""
            raw = f.raw_lines[k - 1] if k - 1 < len(f.raw_lines) else ""
            if not raw.strip() or not stripped.strip():
                covered.add(k)  # blank or comment-only
                k -= 1
            else:
                break
        return covered

    def apply_allowlist(self):
        kept, suppressed = [], []
        for d in sorted(self.diags,
                        key=lambda d: (d["file"], d["line"], d["rule"])):
            f = self.files.get(d["file"])
            allow = None
            if f is not None:
                covered = self._covering_lines(f, d["line"])
                for a in f.allows:
                    if a["rule"] == d["rule"] and a["line"] in covered:
                        allow = a
                        break
            if allow is not None and allow["reason"]:
                allow["used"] = True
                suppressed.append(dict(d, reason=allow["reason"]))
            else:
                kept.append(d)
        # Allowlist hygiene: empty reasons and stale annotations are
        # themselves diagnostics.
        for rel, f in sorted(self.files.items()):
            for a in f.allows:
                if a["rule"] not in RULES or a["rule"] == "allowlist":
                    kept.append({"rule": "allowlist", "file": rel,
                                 "line": a["line"],
                                 "message": f"unknown rule "
                                            f"{a['rule']!r} in kc-lint-allow "
                                            f"(rules: "
                                            f"{', '.join(RULES[:-1])})"})
                elif not a["reason"]:
                    kept.append({"rule": "allowlist", "file": rel,
                                 "line": a["line"],
                                 "message": "kc-lint-allow without a "
                                            "reason: every suppression "
                                            "carries its justification"})
                elif not a["used"]:
                    kept.append({"rule": "allowlist", "file": rel,
                                 "line": a["line"],
                                 "message": f"stale kc-lint-allow"
                                            f"({a['rule']}): suppresses "
                                            f"nothing on this or the next "
                                            f"line — remove it"})
        kept.sort(key=lambda d: (d["file"], d["line"], d["rule"]))
        return kept, suppressed

    # -- driver -----------------------------------------------------------

    def run(self):
        self.check_layering()
        self.check_determinism()
        self.check_numerics()
        self.check_api()
        self.check_syscalls()
        self.check_exports()
        # Dedup (two patterns may fire on one line).
        seen = set()
        unique = []
        for d in self.diags:
            key = (d["rule"], d["file"], d["line"])
            if key not in seen:
                seen.add(key)
                unique.append(d)
        self.diags = unique
        return self.apply_allowlist()


# ---------------------------------------------------------------------------
# Report / budget
# ---------------------------------------------------------------------------


def build_report(linter, kept, suppressed):
    rules = {}
    for r in RULES:
        rules[r] = {
            "diagnostics": sum(1 for d in kept if d["rule"] == r),
            "allowlisted": sum(1 for d in suppressed if d["rule"] == r),
        }
    nolint_files = {rel: f.nolint for rel, f in sorted(linter.files.items())
                    if f.nolint}
    return {
        "tool": "kc_lint",
        "version": 1,
        "files_scanned": len(linter.files),
        "build_files_scanned": len(linter.build_files),
        "rules": rules,
        "diagnostics": kept,
        "allowlisted": suppressed,
        "nolint": {"total": sum(nolint_files.values()),
                   "files": nolint_files},
        "status": "fail" if kept else "ok",
    }


def budget_from_report(report):
    return {
        "comment": "Committed allowlist/NOLINT budget — kc_lint.py fails "
                   "when a count grows past this baseline.  Shrink freely; "
                   "grow only as a conscious, reviewed decision "
                   "(kc_lint.py --update-budget tools/lint_budget.json).",
        "allow": {r: report["rules"][r]["allowlisted"]
                  for r in RULES if report["rules"][r]["allowlisted"]},
        "nolint": report["nolint"]["total"],
    }


def check_budget(report, budget_path):
    try:
        with open(budget_path, "r", encoding="utf-8") as fh:
            budget = json.load(fh)
    except OSError as exc:
        print(f"kc_lint: cannot read budget {budget_path}: {exc}")
        return ["missing budget baseline"]
    failures = []
    for rule in RULES:
        cur = report["rules"][rule]["allowlisted"]
        base = budget.get("allow", {}).get(rule, 0)
        if cur > base:
            failures.append(
                f"allowlist budget for {rule!r} grew: {cur} > committed "
                f"{base} (tools/lint_budget.json) — remove suppressions or "
                f"consciously bump the budget with --update-budget")
        elif cur < base:
            print(f"kc_lint: note — {rule} allowlist count {cur} is below "
                  f"the committed budget {base}; consider tightening the "
                  f"baseline")
    cur = report["nolint"]["total"]
    base = budget.get("nolint", 0)
    if cur > base:
        failures.append(
            f"NOLINT budget grew: {cur} > committed {base} — every new "
            f"clang-tidy suppression is a conscious, reviewed decision")
    return failures


# ---------------------------------------------------------------------------
# Self-test over the fixture corpus
# ---------------------------------------------------------------------------


def normalize(diags):
    return sorted(f"{d['rule']} {d['file']}:{d['line']}" for d in diags)


def self_test(fixtures_dir):
    if not os.path.isdir(fixtures_dir):
        print(f"kc_lint: fixture dir {fixtures_dir} not found")
        return 2
    cases = sorted(d for d in os.listdir(fixtures_dir)
                   if os.path.isdir(os.path.join(fixtures_dir, d)))
    if not cases:
        print(f"kc_lint: no fixture cases under {fixtures_dir}")
        return 2
    failed = 0
    for case in cases:
        case_dir = os.path.join(fixtures_dir, case)
        expected_path = os.path.join(case_dir, "expected.txt")
        expected = []
        if os.path.exists(expected_path):
            with open(expected_path, "r", encoding="utf-8") as fh:
                expected = sorted(
                    line.strip() for line in fh
                    if line.strip() and not line.startswith("#"))
        linter = Linter(case_dir)
        kept, suppressed = linter.run()
        actual = normalize(kept)
        ok = actual == expected
        # Optional budget assertion (the allowlist fixtures pin the
        # per-rule suppression counts the JSON report must carry).
        budget_path = os.path.join(case_dir, "expected_budget.json")
        if ok and os.path.exists(budget_path):
            with open(budget_path, "r", encoding="utf-8") as fh:
                want = json.load(fh)
            report = build_report(linter, kept, suppressed)
            got = {r: report["rules"][r]["allowlisted"]
                   for r in RULES if report["rules"][r]["allowlisted"]}
            if got != want:
                ok = False
                print(f"  {case}: allowlist budget mismatch: "
                      f"got {got}, want {want}")
        status = "PASS" if ok else "FAIL"
        print(f"  {case}: {status} ({len(actual)} diagnostics)")
        if not ok:
            failed += 1
            for line in actual:
                mark = " " if line in expected else "+"
                print(f"    {mark} {line}")
            for line in expected:
                if line not in actual:
                    print(f"    - {line} (expected, not produced)")
    if failed:
        print(f"kc_lint self-test: FAIL ({failed}/{len(cases)} cases)")
        return 1
    print(f"kc_lint self-test: OK ({len(cases)} cases)")
    return 0


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------


def main():
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--root", default=None,
                        help="repo root (default: the parent of tools/)")
    parser.add_argument("--json", default=None, metavar="OUT",
                        help="write the machine-readable report here")
    parser.add_argument("--budget", default=None, metavar="BASELINE",
                        help="fail if allowlist/NOLINT counts grew past "
                             "this committed baseline")
    parser.add_argument("--update-budget", default=None, metavar="BASELINE",
                        help="rewrite the committed budget from the "
                             "current tree and exit")
    parser.add_argument("--self-test", default=None, metavar="DIR",
                        help="run the fixture corpus under DIR and compare "
                             "against the golden expected.txt files")
    args = parser.parse_args()

    if args.self_test:
        return self_test(args.self_test)

    root = args.root or os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))
    if not os.path.isdir(os.path.join(root, "src")):
        print(f"kc_lint: no src/ under root {root}")
        return 2

    linter = Linter(root)
    kept, suppressed = linter.run()
    report = build_report(linter, kept, suppressed)

    if args.update_budget:
        with open(args.update_budget, "w", encoding="utf-8") as fh:
            json.dump(budget_from_report(report), fh, indent=2,
                      sort_keys=True)
            fh.write("\n")
        print(f"kc_lint: wrote budget baseline to {args.update_budget}")
        # Still report diagnostics: a budget refresh on a dirty tree is
        # almost certainly a mistake.

    budget_failures = []
    if args.budget:
        budget_failures = check_budget(report, args.budget)
        if budget_failures:
            report["status"] = "fail"

    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")

    for d in kept:
        print(f"{d['file']}:{d['line']}: [{d['rule']}] {d['message']}")
    for failure in budget_failures:
        print(f"budget: {failure}")

    counts = ", ".join(
        f"{r}={report['rules'][r]['allowlisted']}"
        for r in RULES if report["rules"][r]["allowlisted"])
    if kept or budget_failures:
        print(f"kc_lint: FAIL — {len(kept)} diagnostics, "
              f"{len(budget_failures)} budget violations over "
              f"{len(linter.files)} files")
        return 1
    print(f"kc_lint: OK — {len(linter.files)} files, "
          f"{len(linter.build_files)} build files, "
          f"{len(suppressed)} allowlisted"
          + (f" ({counts})" if counts else "")
          + f", NOLINT={report['nolint']['total']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
