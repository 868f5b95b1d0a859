#!/usr/bin/env python3
"""wnrs_lint: project-specific conventions clang-tidy cannot express.

Rules (ids are stable; cite them in review comments):

  abort-call
      No direct abort()/exit()/_exit()/_Exit()/quick_exit() anywhere in
      src/ except src/common/logging.cc — process death is WNRS_CHECK's
      job, so every abort carries a logged, invariant-naming message.
  serve-aborting
      No aborting (non-Try*) engine entry points under src/serve/. The
      serve layer faces untrusted requests; a bad customer index must
      degrade to a Status, never take the process down. Use the Try*
      layer exclusively.
  naked-new
      No naked new/delete in src/ outside the node-arena allowlist
      (rtree.cc and bulk_load.cc own the R*-tree node lifecycle;
      metrics.cc holds the deliberately leaked process-wide registry and
      its pimpl). Everything else uses containers or make_shared/
      make_unique.
  packed-lock
      No std::mutex/lock_guard/unique_lock/scoped_lock/condition_variable
      (or pthread mutexes, or .lock() calls) in the packed read-path
      files. The packed image is immutable after Freeze and its whole
      point is lock-free concurrent reads; a lock creeping in would be a
      design regression, not a bug fix.
  raw-mutex
      No raw std::mutex/std::shared_mutex/std::condition_variable/
      std::scoped_lock (or lock_guard/unique_lock/shared_lock, or the
      <mutex>/<shared_mutex>/<condition_variable> includes) anywhere
      outside src/common/annotated_mutex.h. Locking goes through the
      capability-annotated wnrs::Mutex/SharedMutex/CondVar wrappers so
      Clang Thread Safety Analysis (-Wthread-safety, the thread-safety CI
      job) sees every locking site; a raw primitive is invisible to the
      analysis. Escape hatch for deliberate exceptions:
      `// wnrs-lint: allow-raw-mutex(<reason>)` on the same line or
      within the three lines above.
  discard
      Every `(void)call(...)` / `static_cast<void>(call(...))` discard
      must carry a `// wnrs-lint: allow-discard(<reason>)` justification
      on the same line or within the three lines above. With
      [[nodiscard]] Status/Result, `(void)` is the only escape hatch —
      this rule makes each use auditable. Applies to src/, tests/,
      bench/, and examples/. Discards wrapped in EXPECT_DEATH/
      ASSERT_DEATH are exempt: the result is unreachable by definition.
  raw-file-io
      No raw file I/O — fopen, f/i/ofstream (or including <fstream>),
      open(2), or mmap — in src/ outside src/storage/. Everything that
      touches the filesystem goes through the storage funnel (file_io.h,
      the slab/bundle stores) so checksumming, error mapping, and the
      persistence formats stay in one auditable layer.
  wire-packing
      Byte-order intrinsics (hton*/ntoh*/htobe*/htole*/bswap/byteswap)
      are allowed in exactly one place: src/net/wire.{h,cc}, the
      WireWriter/WireReader funnel every wire byte goes through. And
      inside src/net/ (outside wire.{h,cc}) no memcpy/bit_cast either —
      protocol code serializes through the funnel, never by hand, so the
      frozen frame format has a single auditable implementation.
  header-selfcontained
      Every header under src/ must compile on its own (IWYU-style:
      `g++ -fsyntax-only` of a TU containing just that #include), so any
      file can include exactly what it uses.

Usage:
  python3 tools/wnrs_lint.py                 # lint the whole repo
  python3 tools/wnrs_lint.py --skip-headers  # skip the (slower) header pass
  python3 tools/wnrs_lint.py --self-test     # prove each rule still fires

Exit codes: 0 = clean, 1 = violations found, 2 = environment error.
"""

import argparse
import concurrent.futures
import os
import re
import shutil
import subprocess
import sys
import tempfile

# --- Rule configuration ----------------------------------------------------

# abort-call: the one file allowed to end the process directly.
ABORT_ALLOWLIST = {"src/common/logging.cc"}
ABORT_RE = re.compile(
    r"(?<![\w.])(?:std\s*::\s*)?(?:abort|_Exit|_exit|quick_exit|exit)\s*\(")

# serve-aborting: WNRS_CHECK-aborting engine/snapshot entry points. The
# Try* forms of the same names are the sanctioned serve-layer API.
ABORTING_ENGINE_CALLS = [
    "ModifyBothConstrained", "ModifyBothApprox", "ModifyBothBatch",
    "ModifyBoth", "ModifyWhyNot", "ModifyQuery", "ReverseSkyline",
    "IsReverseSkylineMember", "CustomersInRange", "Explain",
    "ConstrainedSafeRegion", "ApproxSafeRegion", "SafeRegion",
    "LostCustomers", "MqpEvaluationCost", "NudgeToStrictMember",
    "AddProduct", "RemoveProduct", "PrecomputeApproxDsls",
]
SERVE_ABORTING_RE = re.compile(
    r"(?<![\w])(?<!Try)(?:" + "|".join(ABORTING_ENGINE_CALLS) + r")\s*\(")

# naked-new: files that legitimately own raw node/shard lifetimes, with
# the reason on record.
NAKED_NEW_ALLOWLIST = {
    # R*-tree nodes are parent-linked and freed subtree-wise; unique_ptr
    # would fight the reinsert/condense moves for zero safety gain.
    "src/index/rtree.cc",
    # STR bulk loading packs node levels bottom-up as an RStarTree friend;
    # the nodes it news are adopted by the tree it returns.
    "src/index/bulk_load.cc",
    # Process-wide registry: deliberately leaked singleton + pimpl +
    # hazard-free shard publication via atomics.
    "src/common/metrics.cc",
}
NEW_RE = re.compile(r"(?<![\w.])new\b(?!\s*\()")
PLACEMENT_NEW_RE = re.compile(r"(?<![\w.])new\s*\(")
DELETE_RE = re.compile(r"(?<![\w.])delete\b(\s*\[\s*\])?")

# packed-lock: the lock-free packed read path, by file.
PACKED_READ_PATH_FILES = {
    "src/index/packed_rtree.h", "src/index/packed_rtree.cc",
    "src/geometry/kernels.h", "src/geometry/kernels.cc",
    "src/skyline/bbs.h", "src/skyline/bbs.cc",
    "src/reverse_skyline/bbrs.h", "src/reverse_skyline/bbrs.cc",
    "src/reverse_skyline/window_query.h",
    "src/reverse_skyline/window_query.cc",
}
LOCK_RE = re.compile(
    r"std\s*::\s*(?:recursive_|shared_|timed_)*mutex\b"
    r"|std\s*::\s*(?:lock_guard|unique_lock|scoped_lock|condition_variable)"
    r"\b|pthread_mutex|\.\s*lock\s*\(")

# raw-mutex: the one header allowed to name the std locking primitives —
# it wraps them in the capability-annotated types everything else uses.
RAW_MUTEX_ALLOWLIST = {"src/common/annotated_mutex.h"}
RAW_MUTEX_RE = re.compile(
    r"std\s*::\s*(?:recursive_|shared_|timed_)*mutex\b"
    r"|std\s*::\s*condition_variable(?:_any)?\b"
    r"|std\s*::\s*(?:scoped_lock|lock_guard|unique_lock|shared_lock)\b"
    r"|#\s*include\s*<(?:mutex|shared_mutex|condition_variable)>")
ALLOW_RAW_MUTEX_RE = re.compile(r"wnrs-lint:\s*allow-raw-mutex\(\s*\S")
# How far above the use the justification may start (comments wrap).
ALLOW_RAW_MUTEX_WINDOW = 3

# raw-file-io: only the storage layer may open files; everything else
# goes through that funnel.
RAW_FILE_IO_ALLOWLIST_PREFIXES = ("src/storage/",)
RAW_FILE_IO_RE = re.compile(
    r"(?<![\w.])(?:std\s*::\s*)?(?:fopen|freopen)\s*\("
    r"|(?<![\w.])(?:std\s*::\s*)?(?:i|o)?fstream\b"
    r"|(?<![\w.:])(?:open|openat|mmap|mmap64)\s*\(")
FSTREAM_INCLUDE_RE = re.compile(r"#\s*include\s*<fstream>")

# wire-packing: the one funnel allowed to reorder/reinterpret wire bytes.
WIRE_PACKING_ALLOWLIST = {"src/net/wire.h", "src/net/wire.cc"}
BYTE_ORDER_RE = re.compile(
    r"(?<![\w.])(?:hton[sl]|ntoh[sl]|hto(?:be|le)(?:16|32|64)"
    r"|(?:be|le)(?:16|32|64)toh|__builtin_bswap(?:16|32|64)"
    r"|(?:std\s*::\s*)?byteswap)\s*\(")
NET_PACKING_RE = re.compile(
    r"(?<![\w.])(?:std\s*::\s*)?(?:memcpy|bit_cast)\b")

# discard: a (void)/static_cast<void> cast applied to a *call* — an
# identifier-only discard like `(void)unused_param;` is fine.
DISCARD_RE = re.compile(
    r"(?:\(\s*void\s*\)|static_cast\s*<\s*void\s*>\s*\()"
    r"\s*[A-Za-z_][\w:.>\-]*\(")
ALLOW_DISCARD_RE = re.compile(r"wnrs-lint:\s*allow-discard\(\s*\S")
# A discard inside a gtest death assertion is self-justifying: the result
# is unreachable because the call is required to abort.
DEATH_MACRO_RE = re.compile(r"(?:EXPECT|ASSERT)_DEATH(?:_IF_SUPPORTED)?\s*\(")
# How far above the discard the justification may start (comments wrap).
ALLOW_DISCARD_WINDOW = 3

SOURCE_DIRS = ["src", "tests", "bench", "examples", "tools"]
CXX_STANDARD = "c++20"


# --- Helpers ---------------------------------------------------------------

def strip_comments_and_strings(text):
    """Blank out comments and string/char literals, preserving newlines so
    line numbers survive. Good enough for token-level linting; not a real
    lexer (raw strings are handled conservatively)."""
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":
            j = text.find("\n", i)
            j = n if j == -1 else j
            i = j
        elif c == "/" and nxt == "*":
            j = text.find("*/", i + 2)
            j = n - 2 if j == -1 else j
            out.append("\n" * text.count("\n", i, j + 2))
            i = j + 2
        elif c == '"' or c == "'":
            quote = c
            j = i + 1
            while j < n and text[j] != quote:
                j += 2 if text[j] == "\\" else 1
            out.append(quote + quote)
            i = j + 1
        else:
            out.append(c)
            i += 1
    return "".join(out)


def repo_files(root, subdirs, exts=(".h", ".cc")):
    for sub in subdirs:
        base = os.path.join(root, sub)
        if not os.path.isdir(base):
            continue
        for dirpath, _, names in os.walk(base):
            for name in sorted(names):
                if name.endswith(exts):
                    path = os.path.join(dirpath, name)
                    yield os.path.relpath(path, root).replace(os.sep, "/")


class Linter:
    def __init__(self, root):
        self.root = root
        self.violations = []

    def report(self, rule, rel, lineno, line, detail):
        self.violations.append(
            f"{rel}:{lineno}: [{rule}] {detail}\n    {line.strip()}")

    def lint_file(self, rel):
        path = os.path.join(self.root, rel)
        with open(path, encoding="utf-8") as f:
            raw = f.read()
        stripped = strip_comments_and_strings(raw)
        raw_lines = raw.splitlines()
        for lineno, line in enumerate(stripped.splitlines(), start=1):
            self._check_line(rel, lineno, line, raw_lines)

    def _check_line(self, rel, lineno, line, raw_lines):
        in_src = rel.startswith("src/")
        if in_src and rel not in ABORT_ALLOWLIST and ABORT_RE.search(line):
            self.report(
                "abort-call", rel, lineno, line,
                "direct process exit outside logging.cc — use WNRS_CHECK "
                "(aborting, logged) or return a Status")
        if rel.startswith("src/serve/") and SERVE_ABORTING_RE.search(line):
            self.report(
                "serve-aborting", rel, lineno, line,
                "aborting engine call in the serve layer — use the Try* "
                "variant so bad requests degrade to a Status")
        if in_src and rel not in NAKED_NEW_ALLOWLIST:
            if NEW_RE.search(line) or PLACEMENT_NEW_RE.search(line):
                self.report(
                    "naked-new", rel, lineno, line,
                    "naked new outside the node-arena allowlist — use "
                    "make_unique/make_shared or a container")
            m = DELETE_RE.search(line)
            # `= delete;` (deleted special members) is declaration syntax,
            # not a delete-expression: skip when preceded by `=`.
            if m and not re.search(r"=\s*$", line[:m.start()]):
                self.report(
                    "naked-new", rel, lineno, line,
                    "naked delete outside the node-arena allowlist")
        if (in_src and not rel.startswith(RAW_FILE_IO_ALLOWLIST_PREFIXES)
                and (RAW_FILE_IO_RE.search(line)
                     or FSTREAM_INCLUDE_RE.search(line))):
            self.report(
                "raw-file-io", rel, lineno, line,
                "raw file I/O outside the storage layer — go through "
                "storage/file_io.h so checksums and formats stay in one "
                "place")
        if rel not in WIRE_PACKING_ALLOWLIST:
            if BYTE_ORDER_RE.search(line):
                self.report(
                    "wire-packing", rel, lineno, line,
                    "byte-order intrinsic outside src/net/wire.{h,cc} — "
                    "endianness lives in the WireWriter/WireReader funnel "
                    "only")
            if rel.startswith("src/net/") and NET_PACKING_RE.search(line):
                self.report(
                    "wire-packing", rel, lineno, line,
                    "manual byte packing (memcpy/bit_cast) in the net "
                    "layer — serialize through WireWriter/WireReader so "
                    "the frame format has one implementation")
        if rel in PACKED_READ_PATH_FILES and LOCK_RE.search(line):
            self.report(
                "packed-lock", rel, lineno, line,
                "lock primitive in a packed read-path file — the frozen "
                "image must stay lock-free for concurrent readers")
        if rel not in RAW_MUTEX_ALLOWLIST and RAW_MUTEX_RE.search(line):
            lo = max(0, lineno - 1 - ALLOW_RAW_MUTEX_WINDOW)
            window = raw_lines[lo:lineno]  # Up to and including this line.
            if not any(ALLOW_RAW_MUTEX_RE.search(w) for w in window):
                self.report(
                    "raw-mutex", rel, lineno, line,
                    "raw std locking primitive outside annotated_mutex.h "
                    "— use wnrs::Mutex/SharedMutex/CondVar and the RAII "
                    "guards so thread-safety analysis sees the site, or "
                    "justify with `// wnrs-lint: allow-raw-mutex(<reason>)`")
        if DISCARD_RE.search(line) and not DEATH_MACRO_RE.search(line):
            lo = max(0, lineno - 1 - ALLOW_DISCARD_WINDOW)
            window = raw_lines[lo:lineno]  # Up to and including this line.
            if not any(ALLOW_DISCARD_RE.search(w) for w in window):
                self.report(
                    "discard", rel, lineno, line,
                    "discarded call without a justification — annotate "
                    "with `// wnrs-lint: allow-discard(<reason>)` or "
                    "handle the result")


# --- Header self-containment ----------------------------------------------

def check_header(root, rel, compiler):
    """Compiles `#include "rel"` alone; returns (rel, ok, output)."""
    with tempfile.NamedTemporaryFile(
            mode="w", suffix=".cc", delete=False) as tu:
        include = rel[len("src/"):]  # Headers are included src-relative.
        tu.write(f'#include "{include}"\n')
        tu_path = tu.name
    try:
        proc = subprocess.run(
            [compiler, f"-std={CXX_STANDARD}", "-fsyntax-only", "-Wall",
             "-Wextra", "-I", os.path.join(root, "src"), "-x", "c++",
             tu_path],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        return rel, proc.returncode == 0, proc.stdout.strip()
    finally:
        os.unlink(tu_path)


def lint_headers(root, jobs):
    compiler = shutil.which("g++") or shutil.which("c++") or \
        shutil.which("clang++")
    if compiler is None:
        print("error: no C++ compiler for the header-selfcontained pass "
              "(pass --skip-headers to skip)", file=sys.stderr)
        sys.exit(2)
    headers = [f for f in repo_files(root, ["src"], exts=(".h",))]
    violations = []
    with concurrent.futures.ThreadPoolExecutor(jobs) as pool:
        for rel, ok, output in pool.map(
                lambda h: check_header(root, h, compiler), headers):
            if not ok:
                first = output.splitlines()[0] if output else "(no output)"
                violations.append(
                    f"{rel}:1: [header-selfcontained] header does not "
                    f"compile standalone\n    {first}")
    return violations, len(headers)


# --- Self test -------------------------------------------------------------

SELF_TEST_SEEDS = {
    # rule id -> (repo-relative path, file contents that must trip it)
    "abort-call": ("src/core/bad_abort.cc",
                   "void f() { abort(); }\n"),
    "serve-aborting": ("src/serve/bad_call.cc",
                       "void f(E* e, P q) { e->ModifyBoth(1, q); }\n"),
    "naked-new": ("src/core/bad_new.cc",
                  "int* f() { return new int(7); }\n"),
    "packed-lock": ("src/index/packed_rtree.cc",
                    "#include <mutex>\nstd::mutex freeze_mu;\n"),
    "raw-mutex": ("src/core/bad_mutex.cc",
                  "#include <mutex>\nstd::mutex mu;\n"),
    "discard": ("src/core/bad_discard.cc",
                "void f() { (void)Compute(); }\n"),
    "raw-file-io": ("src/core/bad_io.cc",
                    '#include <cstdio>\n'
                    'void f() { std::fopen("x", "rb"); }\n'),
    "wire-packing": ("src/net/bad_packing.cc",
                     "#include <arpa/inet.h>\n"
                     "unsigned short f(unsigned short v) "
                     "{ return htons(v); }\n"),
}


def self_test():
    """Seeds one violation per rule into a scratch tree and asserts the
    linter catches each — the CI proof that the rules still fire."""
    failures = []
    for rule, (rel, contents) in sorted(SELF_TEST_SEEDS.items()):
        with tempfile.TemporaryDirectory() as scratch:
            path = os.path.join(scratch, rel)
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(path, "w") as f:
                f.write(contents)
            linter = Linter(scratch)
            linter.lint_file(rel)
            if not any(f"[{rule}]" in v for v in linter.violations):
                failures.append(f"rule '{rule}' did not fire on seeded "
                                f"violation in {rel}")
            else:
                print(f"self-test ok: [{rule}] fires")
    # And a justified discard must NOT fire.
    with tempfile.TemporaryDirectory() as scratch:
        rel = "src/core/good_discard.cc"
        path = os.path.join(scratch, rel)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as f:
            f.write("void f() {\n"
                    "  // wnrs-lint: allow-discard(cache prewarm)\n"
                    "  (void)Compute();\n"
                    "}\n")
        linter = Linter(scratch)
        linter.lint_file(rel)
        if any("[discard]" in v for v in linter.violations):
            failures.append("justified allow-discard still fired")
        else:
            print("self-test ok: allow-discard justification honored")
    # And a justified raw mutex must NOT fire.
    with tempfile.TemporaryDirectory() as scratch:
        rel = "src/core/good_mutex.cc"
        path = os.path.join(scratch, rel)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as f:
            f.write("// wnrs-lint: allow-raw-mutex(FFI boundary needs the "
                    "std type)\n"
                    "#include <mutex>\n"
                    "std::mutex interop_mu;\n")
        linter = Linter(scratch)
        linter.lint_file(rel)
        if any("[raw-mutex]" in v for v in linter.violations):
            failures.append("justified allow-raw-mutex still fired")
        else:
            print("self-test ok: allow-raw-mutex justification honored")
    for f_ in failures:
        print(f"SELF-TEST FAIL: {f_}")
    return 1 if failures else 0


# --- Main ------------------------------------------------------------------

def main():
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--root", default=None,
                        help="repo root (default: parent of this script)")
    parser.add_argument("--skip-headers", action="store_true",
                        help="skip the header-selfcontained compile pass")
    parser.add_argument("-j", "--jobs", type=int,
                        default=os.cpu_count() or 2)
    parser.add_argument("--self-test", action="store_true",
                        help="verify every rule fires on a seeded violation")
    args = parser.parse_args()

    if args.self_test:
        return self_test()

    root = args.root or os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))
    linter = Linter(root)
    files = list(repo_files(root, SOURCE_DIRS))
    if not files:
        print(f"error: no sources found under {root}", file=sys.stderr)
        return 2
    for rel in files:
        linter.lint_file(rel)
    violations = linter.violations
    n_headers = 0
    if not args.skip_headers:
        header_violations, n_headers = lint_headers(root, args.jobs)
        violations += header_violations

    for v in violations:
        print(v)
    if violations:
        print(f"\nFAIL: {len(violations)} violation(s) across "
              f"{len(files)} files")
        return 1
    print(f"OK: {len(files)} files, {n_headers} standalone headers clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
