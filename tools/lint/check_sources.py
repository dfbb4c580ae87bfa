#!/usr/bin/env python3
"""Repo-convention linter for the neurofem tree.

Checks (see docs/static_analysis.md):
  * every header uses `#pragma once` (no include guards);
  * no `std::cout` / `printf` / C `rand()` in library code under src/ —
    diagnostics go through base/check.h, randomness through base/rng.h, and
    report printers take a std::ostream&;
  * no `using namespace std;` anywhere;
  * include order: a .cpp's first include is its own header; within each
    blank-line-separated include block, <system> and "project" includes are
    each sorted and not mixed;
  * every file under src/ declares the `neuro` namespace, and namespace
    closing braces carry a `// namespace ...` comment;
  * no raw `std::vector<int>` index members in src/fem/ and src/solver/
    headers — index bookkeeping there uses the strong ID types of
    base/strong_id.h; only the grandfathered CSR wire format and per-rank
    count tables in VECTOR_INT_MEMBER_ALLOWLIST may stay flat ints;
  * no raw std::mutex / std::lock_guard / std::unique_lock /
    std::condition_variable in src/ — shared state is synchronized through
    the annotated base::Mutex / base::MutexLock / base::CondVar family
    (base/mutex.h) so Clang's thread-safety analysis can prove the locking
    discipline (docs/static_analysis.md, "Capability annotations"); the only
    grandfathered user of the raw primitives is base/mutex.h itself
    (RAW_SYNC_ALLOWLIST, drift-checked);
  * no std::deque / std::queue / std::priority_queue in src/service/ — the
    service layer's only queue is service::BoundedQueue, whose capacity is
    fixed at construction and whose overflow is a typed kResourceExhausted
    rejection (docs/service.md); an unbounded standard container would turn
    overload into silent memory growth instead of backpressure
    (UNBOUNDED_QUEUE_ALLOWLIST is empty by design, drift-checked);
  * no raw base/stopwatch.h timing in src/core/ and src/fem/ — durations
    reported from the pipeline and the FEM layer flow through obs::Span
    (obs::timed_span) so that every number in a report is also a span in an
    exported trace and the two can never disagree (docs/observability.md);
    timing that genuinely must stay out of traces goes in STOPWATCH_ALLOWLIST;
  * no new NEURO_CHECK / NEURO_CHECK_MSG in src/core/ and src/solver/ —
    recoverable failures (convergence, deadlines, communication, bad input
    data) are reported as base::Status / base::Outcome (see
    docs/robustness.md); NEURO_CHECK is reserved for genuine invariant
    corruption, and the existing invariant checks are grandfathered in
    NEURO_CHECK_BUDGET;
  * no explicit vector intrinsics anywhere — neither the
    <immintrin.h>/<arm_neon.h> family of headers nor _mm*/__m128/__m256/NEON
    tokens; vectorization is left to the compiler, so numeric results do not
    depend on which ISA a hand-written kernel was dispatched to;
  * no trailing whitespace, no tabs in C++ sources, files end with a newline;
  * the grandfather lists themselves may not drift: a
    VECTOR_INT_MEMBER_ALLOWLIST entry whose file or member no longer exists,
    or a NEURO_CHECK_BUDGET entry whose file is gone or whose budget exceeds
    the file's actual NEURO_CHECK count, is a lint error — stale slack in an
    allowlist is how new violations creep in unreviewed.

Exits non-zero listing every violation. Run directly:

    python3 tools/lint/check_sources.py [repo-root]

or via the build: `ctest -R lint` / `cmake --build build --target lint`.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

CPP_DIRS = ("src", "tests", "bench", "examples", "tools")
LIBRARY_DIR = "src"
CPP_SUFFIXES = {".h", ".cpp"}

# Library code must route output/randomness through the base/ primitives.
BANNED_IN_SRC = [
    (re.compile(r"\bstd::cout\b"), "std::cout (pass a std::ostream& instead)"),
    (re.compile(r"\bstd::cerr\b"), "std::cerr (throw via base/check.h instead)"),
    (re.compile(r"\b(?:std::)?f?printf\s*\("), "printf (pass a std::ostream& instead)"),
    (re.compile(r"\b(?:std::)?s?rand\s*\("), "C rand() (use base/rng.h)"),
]
BANNED_EVERYWHERE = [
    (re.compile(r"\busing\s+namespace\s+std\s*;"), "using namespace std"),
]

INCLUDE_RE = re.compile(r'^\s*#\s*include\s+([<"])([^>"]+)[>"]')

# Macro-only headers define no symbols, so the namespace-neuro rule does not
# apply to them.
MACRO_ONLY_HEADERS = {
    "src/base/numerics_annotations.h",
    "src/base/thread_annotations.h",
}

# Locking discipline (docs/static_analysis.md, "Capability annotations"):
# library code synchronizes through the annotated base::Mutex family so that
# the clang-static CI job's -Werror=thread-safety build proves every guarded
# access. A raw std primitive is invisible to that analysis — the compiler
# cannot connect it to any NEURO_GUARDED_BY contract — so new uses in src/
# are banned. base/mutex.h (the wrapper itself) is the one grandfathered
# user; the entry is drift-checked like every other allowlist.
RAW_SYNC_RE = re.compile(
    r"\bstd::(?:recursive_|shared_|timed_)?mutex\b"
    r"|\bstd::condition_variable(?:_any)?\b"
    r"|\bstd::(?:lock_guard|unique_lock|scoped_lock|shared_lock)\b")
RAW_SYNC_ALLOWLIST = {"src/base/mutex.h"}

# Index bookkeeping in the FEM and solver layers must use the strong ID types
# of base/strong_id.h (NodeId, DofId, GlobalRow, ...) so that index-space
# mix-ups fail to compile (see docs/static_analysis.md, "Index spaces and
# strong IDs"). New raw std::vector<int> *members* in headers under these
# directories are banned; the allowlist grandfathers the CSR wire format
# (row_ptr/cols position streams shipped flat across ranks by design) and
# per-rank count tables, which hold counts, not indices.
TYPED_INDEX_HEADER_DIRS = ("src/fem/", "src/solver/")
VECTOR_INT_MEMBER_RE = re.compile(r"^\s*(?:const\s+)?std::vector<int>\s+(\w+)\s*[;={]")
VECTOR_INT_MEMBER_ALLOWLIST = {
    # CSR wire format: positions into the value stream, not row/col indices.
    ("src/solver/dist_matrix.h", "row_ptr_"),
    ("src/solver/dist_matrix.h", "global_cols_"),
    ("src/solver/dist_matrix.h", "local_cols_"),
    ("src/solver/dist_matrix.h", "local_indices"),  # Exchange plan entries
    ("src/solver/ilu_kernels.h", "row_ptr_"),
    ("src/solver/ilu_kernels.h", "cols_"),
    ("src/solver/ilu_kernels.h", "diag_pos_"),
    ("src/solver/preconditioner.h", "row_ptr_"),
    ("src/solver/preconditioner.h", "cols_"),
    ("src/solver/preconditioner.h", "diag_pos_"),
    # Halo-exchange plans: offsets into packed send/recv buffers.
    ("src/solver/additive_schwarz.h", "local_indices"),
    ("src/solver/additive_schwarz.h", "ext_positions"),
    ("src/solver/additive_schwarz.h", "owned_ext_positions_"),
    # Per-rank counts for the scaling report (values, not indices).
    ("src/fem/deformation_solver.h", "nodes_per_rank"),
    ("src/fem/deformation_solver.h", "fixed_dofs_per_rank"),
}

# Backpressure discipline (docs/service.md): every queue in the service layer
# is a service::BoundedQueue — capacity fixed at construction, overflow
# surfaced to the caller as a typed kResourceExhausted rejection. The
# unbounded standard containers would absorb overload as memory growth the
# admission controller never sees, so they are banned under src/service/.
# The allowlist is empty by design; an entry is the review prompt to argue
# why a particular queue genuinely may grow without bound.
UNBOUNDED_QUEUE_DIRS = ("src/service/",)
UNBOUNDED_QUEUE_RE = re.compile(r"\bstd::(?:deque|queue|priority_queue)\b")
UNBOUNDED_QUEUE_INCLUDES = {"deque", "queue"}
UNBOUNDED_QUEUE_ALLOWLIST: set[str] = set()

# No hand-written vector code: an explicit intrinsic couples numeric results
# to the build host's ISA and needs a scalar twin plus a runtime dispatch
# switch to stay portable and bit-exact. The tree has no exempt directory.
# Both the intrinsics *headers* (caught at the include line, before any token
# is used) and the intrinsic *tokens* themselves are banned.
SIMD_INCLUDE_HEADERS = {
    "immintrin.h", "x86intrin.h",                      # AVX/AVX2/AVX-512 umbrella
    "emmintrin.h", "xmmintrin.h", "pmmintrin.h",       # SSE/SSE2/SSE3
    "tmmintrin.h", "smmintrin.h", "nmmintrin.h",       # SSSE3/SSE4.1/SSE4.2
    "arm_neon.h", "arm_sve.h",                         # ARM
}
SIMD_TOKEN_RE = re.compile(
    r"\b_mm(?:256|512)?_\w+\b"                 # SSE/AVX intrinsic calls
    r"|\b__m(?:64|128|256|512)[di]?\b"         # x86 vector register types
    r"|\bfloat(?:16|32|64)x\d+(?:x\d+)?_t\b"   # NEON vector types
    r"|\bv[a-z0-9]\w*q?_(?:n_|lane_)?f(?:16|32|64)\b")  # NEON f* intrinsics

# Timing discipline (docs/observability.md): the pipeline (src/core/) and the
# FEM layer (src/fem/) report stage durations that are *views over trace
# spans* — StageTiming, DegradationReport and the wall_*_s fields all read
# obs::Span/obs::timed_span, so a Fig. 6 table and an exported Chrome trace
# are the same measurement. A raw base/stopwatch.h Stopwatch there would be a
# second clock that can silently drift from the trace. The allowlist is empty
# today; adding to it is the review prompt to argue the timing really must
# not appear in traces.
STOPWATCH_DIRS = ("src/core/", "src/fem/")
STOPWATCH_TOKEN_RE = re.compile(r"\bStopwatch\b")
STOPWATCH_ALLOWLIST: set[str] = set()

# Failure-taxonomy discipline (docs/robustness.md): inside the intraoperative
# pipeline (src/core/) and the solver (src/solver/), a failure that can happen
# in a correct program — a solve that stagnates, a deadline that expires, a
# peer that drops a message, data that arrives non-finite — must surface as a
# typed base::Status / base::Outcome so the degradation ladder can act on it.
# NEURO_CHECK aborts the computation and is reserved for invariant corruption
# (indexing bugs, broken exchange plans). The budget below grandfathers the
# audited invariant checks; adding a NEURO_CHECK to these directories trips
# the lint until the budget is raised — which is the code review prompt to
# argue the new check really is an invariant and not a recoverable failure.
NEURO_CHECK_DIRS = ("src/core/", "src/solver/")
NEURO_CHECK_RE = re.compile(r"\bNEURO_CHECK(?:_MSG)?\s*\(")
NEURO_CHECK_BUDGET = {
    "src/core/pipeline.cpp": 2,        # unknown stage name; empty brain mesh
    "src/core/landmarks.cpp": 1,       # < 4 landmarks cannot define a frame
    "src/solver/dist_vector.h": 3,     # row-range ownership invariants
    "src/solver/preconditioner.cpp": 8,  # size invariants + factorization pivots
    "src/solver/dist_matrix.cpp": 6,   # exchange-plan lifecycle invariants
    "src/solver/ilu_kernels.cpp": 3,   # CSR structure + pivot invariants
    "src/solver/additive_schwarz.cpp": 5,  # halo-plan size + ghost-index invariants
}


def strip_comments_and_strings(text: str) -> str:
    """Blanks out comments and string/char literals, preserving line structure
    so reported line numbers stay correct."""
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
                state = "string"
                out.append(" ")
                i += 1
                continue
            if c == "'":
                state = "char"
                out.append(" ")
                i += 1
                continue
            out.append(c)
        elif state == "line_comment":
            if c == "\n":
                state = "code"
                out.append(c)
            else:
                out.append(" ")
        elif state == "block_comment":
            if c == "*" and nxt == "/":
                state = "code"
                out.append("  ")
                i += 2
                continue
            out.append(c if c == "\n" else " ")
        elif state in ("string", "char"):
            quote = '"' if state == "string" else "'"
            if c == "\\":
                out.append("  ")
                i += 2
                continue
            if c == quote:
                state = "code"
            out.append(c if c == "\n" else " ")
        i += 1
    return "".join(out)


def check_file(root: Path, path: Path) -> list[str]:
    rel = path.relative_to(root).as_posix()
    raw = path.read_text(encoding="utf-8")
    errors: list[str] = []

    def err(line: int, message: str) -> None:
        errors.append(f"{rel}:{line}: {message}")

    # -- whitespace hygiene ---------------------------------------------------
    if raw and not raw.endswith("\n"):
        err(raw.count("\n") + 1, "file does not end with a newline")
    for lineno, line in enumerate(raw.splitlines(), 1):
        if line.rstrip("\n") != line.rstrip():
            err(lineno, "trailing whitespace")
        if "\t" in line:
            err(lineno, "tab character (use spaces)")

    code = strip_comments_and_strings(raw)
    code_lines = code.splitlines()
    raw_lines = raw.splitlines()

    # -- pragma once ----------------------------------------------------------
    if path.suffix == ".h":
        if not re.search(r"^\s*#\s*pragma\s+once\s*$", code, re.MULTILINE):
            err(1, "header is missing #pragma once")

    # -- banned constructs ----------------------------------------------------
    in_library = rel.startswith(LIBRARY_DIR + "/")
    banned = BANNED_EVERYWHERE + (BANNED_IN_SRC if in_library else [])
    for lineno, line in enumerate(code_lines, 1):
        for pattern, what in banned:
            if pattern.search(line):
                err(lineno, f"banned construct: {what}")

    # -- include order --------------------------------------------------------
    # Parse from raw lines: the comment/string stripper blanks the quoted
    # include target. Skip lines that are inside block comments by requiring
    # the stripped line to still start with '#'.
    includes = []  # (lineno, kind, target)
    for lineno, line in enumerate(raw_lines, 1):
        m = INCLUDE_RE.match(line)
        if m and code_lines[lineno - 1].lstrip().startswith("#"):
            includes.append((lineno, "system" if m.group(1) == "<" else "project", m.group(2)))

    if includes and path.suffix == ".cpp" and in_library:
        own = path.relative_to(root / LIBRARY_DIR).with_suffix(".h").as_posix()
        first = includes[0]
        if first[1] != "project" or first[2] != own:
            if (root / LIBRARY_DIR / own).exists():
                err(first[0], f'first include must be the file\'s own header "{own}"')

    # Group includes into blank-line-separated blocks; each block must be
    # internally sorted and must not mix <system> with "project" includes.
    block: list[tuple[int, str, str]] = []

    def flush_block() -> None:
        if len(block) < 2:
            block.clear()
            return
        kinds = {k for (_, k, _) in block}
        if len(kinds) > 1:
            err(block[0][0], 'include block mixes <system> and "project" includes')
        targets = [t for (_, _, t) in block]
        if targets != sorted(targets):
            err(block[0][0], f"includes not sorted within block: {', '.join(targets)}")
        block.clear()

    prev_lineno = None
    for inc in includes:
        lineno = inc[0]
        if prev_lineno is not None:
            between = code_lines[prev_lineno : lineno - 1]
            if any(not l.strip() for l in between):
                flush_block()
        # A .cpp's own first header is its own block.
        if block or not (path.suffix == ".cpp" and not includes.index(inc)):
            block.append(inc)
        prev_lineno = lineno
    flush_block()

    # -- annotated base::Mutex family over raw std synchronization ------------
    if in_library and rel not in RAW_SYNC_ALLOWLIST:
        for lineno, line in enumerate(code_lines, 1):
            m = RAW_SYNC_RE.search(line)
            if m:
                err(lineno,
                    f"raw {m.group(0)} — use the annotated base::Mutex / "
                    "base::MutexLock / base::CondVar family (base/mutex.h) so "
                    "the thread-safety analysis sees the lock "
                    "(docs/static_analysis.md)")

    # -- strong IDs over raw index members (fem/solver headers) ---------------
    if path.suffix == ".h" and rel.startswith(TYPED_INDEX_HEADER_DIRS):
        for lineno, line in enumerate(code_lines, 1):
            m = VECTOR_INT_MEMBER_RE.match(line)
            if m and (rel, m.group(1)) not in VECTOR_INT_MEMBER_ALLOWLIST:
                err(lineno,
                    f"raw std::vector<int> index member '{m.group(1)}' — use a "
                    "strong ID container from base/strong_id.h, or allowlist "
                    "genuine wire-format arrays in check_sources.py")

    # -- bounded queues only in the service layer -----------------------------
    if rel.startswith(UNBOUNDED_QUEUE_DIRS) and rel not in UNBOUNDED_QUEUE_ALLOWLIST:
        for lineno, _, target in includes:
            if target in UNBOUNDED_QUEUE_INCLUDES:
                err(lineno,
                    f"unbounded <{target}> in the service layer — queue through "
                    "service::BoundedQueue so overload surfaces as a typed "
                    "kResourceExhausted rejection, not memory growth "
                    "(docs/service.md)")
        for lineno, line in enumerate(code_lines, 1):
            m = UNBOUNDED_QUEUE_RE.search(line)
            if m:
                err(lineno,
                    f"unbounded {m.group(0)} in the service layer — queue "
                    "through service::BoundedQueue so overload surfaces as a "
                    "typed kResourceExhausted rejection, not memory growth "
                    "(docs/service.md)")

    # -- no explicit vector intrinsics ---------------------------------------
    simd_why = ("hand-written vector code is banned; leave vectorization to "
                "the compiler so results do not depend on the host ISA")
    for lineno, _, target in includes:
        if target in SIMD_INCLUDE_HEADERS:
            err(lineno, f"intrinsics header <{target}> — {simd_why}")
    for lineno, line in enumerate(code_lines, 1):
        m = SIMD_TOKEN_RE.search(line)
        if m:
            err(lineno, f"vector intrinsic '{m.group(0)}' — {simd_why}")

    # -- no raw Stopwatch in core/fem (span-as-stopwatch discipline) ----------
    if rel.startswith(STOPWATCH_DIRS) and rel not in STOPWATCH_ALLOWLIST:
        for lineno, _, target in includes:
            if target == "base/stopwatch.h":
                err(lineno,
                    "raw base/stopwatch.h in core/fem — time through "
                    "obs::timed_span so the duration is also a trace span "
                    "(docs/observability.md), or add the file to "
                    "STOPWATCH_ALLOWLIST in check_sources.py")
        for lineno, line in enumerate(code_lines, 1):
            if STOPWATCH_TOKEN_RE.search(line):
                err(lineno,
                    "raw Stopwatch in core/fem — time through obs::timed_span "
                    "so the duration is also a trace span "
                    "(docs/observability.md), or add the file to "
                    "STOPWATCH_ALLOWLIST in check_sources.py")

    # -- NEURO_CHECK budget (core/solver failure taxonomy) --------------------
    if rel.startswith(NEURO_CHECK_DIRS):
        hits = [lineno for lineno, line in enumerate(code_lines, 1)
                if NEURO_CHECK_RE.search(line)]
        budget = NEURO_CHECK_BUDGET.get(rel, 0)
        if len(hits) > budget:
            err(hits[-1],
                f"{len(hits)} NEURO_CHECK uses exceed this file's budget of "
                f"{budget} — recoverable failures (convergence, deadline, "
                "comm, bad data) must return base::Status/Outcome (see "
                "docs/robustness.md); raise NEURO_CHECK_BUDGET in "
                "check_sources.py only for genuine invariant checks")

    # -- namespaces -----------------------------------------------------------
    if in_library and rel not in MACRO_ONLY_HEADERS:
        if not re.search(r"^\s*namespace\s+neuro\b", code, re.MULTILINE):
            err(1, "library file does not declare namespace neuro")

    # Track brace nesting to find the braces that close namespaces; those must
    # carry the conventional `}  // namespace …` comment on the raw line.
    stack: list[tuple[bool, int]] = []  # (is_namespace, open_lineno)
    pending_namespace = False
    for lineno, line in enumerate(code_lines, 1):
        for tok in re.findall(r"using\s+namespace\b|namespace\b|[{};]", line):
            if tok.startswith("using"):
                continue  # a using-directive opens no scope
            if tok == ";":
                pending_namespace = False  # namespace alias / using-directive
            elif tok == "namespace":
                pending_namespace = True
            elif tok == "{":
                stack.append((pending_namespace, lineno))
                pending_namespace = False
            else:  # "}"
                pending_namespace = False
                if not stack:
                    continue  # unbalanced (macro trickery); not this rule's job
                was_namespace, _ = stack.pop()
                if was_namespace and "namespace" not in raw_lines[lineno - 1]:
                    err(lineno, "namespace-closing brace must carry a '// namespace …' comment")

    return errors


def check_allowlist_drift(root: Path) -> list[str]:
    """The grandfather lists are ratchets, not suggestions: every entry must
    still correspond to code that exists, and every budget must be exactly the
    file's current NEURO_CHECK count. A deleted file, a renamed member, or a
    refactor that removed a check leaves slack under which a *new* violation
    could land without tripping the lint — so the stale entry itself is the
    violation, and the fix is to shrink the list, never to grow into it."""
    errors: list[str] = []

    by_file: dict[str, set[str]] = {}
    for rel, member in VECTOR_INT_MEMBER_ALLOWLIST:
        by_file.setdefault(rel, set()).add(member)
    for rel in sorted(by_file):
        path = root / rel
        if not path.is_file():
            errors.append(
                f"check_sources.py: stale VECTOR_INT_MEMBER_ALLOWLIST entries for "
                f"deleted file {rel} — remove them")
            continue
        code = strip_comments_and_strings(path.read_text(encoding="utf-8"))
        present = {m.group(1) for line in code.splitlines()
                   if (m := VECTOR_INT_MEMBER_RE.match(line))}
        for member in sorted(by_file[rel] - present):
            errors.append(
                f"check_sources.py: stale VECTOR_INT_MEMBER_ALLOWLIST entry "
                f"('{rel}', '{member}') — no such std::vector<int> member; "
                "remove the entry")

    for rel in sorted(RAW_SYNC_ALLOWLIST):
        path = root / rel
        if not path.is_file():
            errors.append(
                f"check_sources.py: stale RAW_SYNC_ALLOWLIST entry for deleted "
                f"file {rel} — remove it")
            continue
        code = strip_comments_and_strings(path.read_text(encoding="utf-8"))
        if not any(RAW_SYNC_RE.search(line) for line in code.splitlines()):
            errors.append(
                f"check_sources.py: stale RAW_SYNC_ALLOWLIST entry {rel} — the "
                "file no longer uses raw std synchronization; remove the entry")

    for rel in sorted(MACRO_ONLY_HEADERS):
        path = root / rel
        if not path.is_file():
            errors.append(
                f"check_sources.py: stale MACRO_ONLY_HEADERS entry for deleted "
                f"file {rel} — remove it")
            continue
        code = strip_comments_and_strings(path.read_text(encoding="utf-8"))
        if re.search(r"^\s*namespace\s+neuro\b", code, re.MULTILINE):
            errors.append(
                f"check_sources.py: stale MACRO_ONLY_HEADERS entry {rel} — the "
                "file now declares namespace neuro; remove the entry")

    for rel in sorted(STOPWATCH_ALLOWLIST):
        path = root / rel
        if not path.is_file():
            errors.append(
                f"check_sources.py: stale STOPWATCH_ALLOWLIST entry for deleted "
                f"file {rel} — remove it")
            continue
        if not rel.startswith(STOPWATCH_DIRS):
            errors.append(
                f"check_sources.py: STOPWATCH_ALLOWLIST entry {rel} is outside "
                f"the checked directories {STOPWATCH_DIRS} — remove it")
            continue
        raw = path.read_text(encoding="utf-8")
        code = strip_comments_and_strings(raw)
        if not STOPWATCH_TOKEN_RE.search(code) and "base/stopwatch.h" not in raw:
            errors.append(
                f"check_sources.py: stale STOPWATCH_ALLOWLIST entry {rel} — the "
                "file no longer uses Stopwatch; remove the entry")

    for rel in sorted(UNBOUNDED_QUEUE_ALLOWLIST):
        path = root / rel
        if not path.is_file():
            errors.append(
                f"check_sources.py: stale UNBOUNDED_QUEUE_ALLOWLIST entry for "
                f"deleted file {rel} — remove it")
            continue
        if not rel.startswith(UNBOUNDED_QUEUE_DIRS):
            errors.append(
                f"check_sources.py: UNBOUNDED_QUEUE_ALLOWLIST entry {rel} is "
                f"outside the checked directories {UNBOUNDED_QUEUE_DIRS} — "
                "remove it")
            continue
        code = strip_comments_and_strings(path.read_text(encoding="utf-8"))
        if not any(UNBOUNDED_QUEUE_RE.search(line) for line in code.splitlines()):
            errors.append(
                f"check_sources.py: stale UNBOUNDED_QUEUE_ALLOWLIST entry {rel} "
                "— the file no longer uses an unbounded queue; remove the entry")

    for rel in sorted(NEURO_CHECK_BUDGET):
        budget = NEURO_CHECK_BUDGET[rel]
        path = root / rel
        if not path.is_file():
            errors.append(
                f"check_sources.py: stale NEURO_CHECK_BUDGET entry for deleted "
                f"file {rel} — remove it")
            continue
        if not rel.startswith(NEURO_CHECK_DIRS):
            errors.append(
                f"check_sources.py: NEURO_CHECK_BUDGET entry {rel} is outside "
                f"the checked directories {NEURO_CHECK_DIRS} — remove it")
            continue
        code = strip_comments_and_strings(path.read_text(encoding="utf-8"))
        used = sum(1 for line in code.splitlines() if NEURO_CHECK_RE.search(line))
        if used < budget:
            errors.append(
                f"check_sources.py: NEURO_CHECK_BUDGET for {rel} is {budget} but "
                f"the file uses only {used} — lower the budget to {used} so the "
                "freed slack cannot absorb new checks unreviewed")
    return errors


def main(argv: list[str]) -> int:
    root = Path(argv[1]).resolve() if len(argv) > 1 else Path(__file__).resolve().parents[2]
    files = []
    for d in CPP_DIRS:
        base = root / d
        if base.is_dir():
            files.extend(p for p in sorted(base.rglob("*")) if p.suffix in CPP_SUFFIXES)
    all_errors: list[str] = []
    for path in files:
        all_errors.extend(check_file(root, path))
    all_errors.extend(check_allowlist_drift(root))
    if all_errors:
        print(f"check_sources: {len(all_errors)} violation(s) in {len(files)} files:")
        for e in all_errors:
            print(f"  {e}")
        return 1
    print(f"check_sources: OK ({len(files)} files clean)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
