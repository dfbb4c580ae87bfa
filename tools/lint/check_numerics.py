#!/usr/bin/env python3
"""Numerical-determinism and error-discipline static analyzer.

Every correctness claim this repo makes — Fig. 4 accuracy, rank-count
equivalence, fallback-rung determinism — rests on bit-identical replay
(DESIGN.md §6). The regression tests assert that property on the schedules
they happen to run; this tool rejects the constructs that *break* it
statically, before any run:

  unordered-iteration   iteration over a std::unordered_map/unordered_set
                        whose loop body accumulates floating point, emits
                        communicator traffic, or writes exported output — the
                        hash-table layout of the run would leak into numerics
                        or report bytes
  nondet-source         a nondeterminism source (rand/srand, std::
                        random_device, time(), clock(), a monotonic-clock
                        ::now() read) outside the allowlisted timing and
                        seeded-RNG wrappers (src/obs/, base/stopwatch.h,
                        base/deadline.h, base/rng.*)
  float-exact-compare   a floating-point == / != against a literal outside
                        explicitly suppressed exact-replay/sentinel checks
  discarded-status      a call whose base::Status / base::Outcome<T> return
                        value is dropped on the floor — a swallowed deadline
                        violation or solver fault

Functions marked with the grep-able `NEURO_BITEXACT` macro
(base/numerics_annotations.h) opt into the strict profile: inside their
bodies *any* unordered-container iteration and *any* nondeterminism source is
a finding, allowlist or not.

The analyzer is a built-in tokenizer needing no toolchain, so it reports the
same findings on every host. Without preprocessing or type information it
harvests declarations by name and over-approximates where cheap:

  * unordered-container names come from the file itself plus every header
    of the scanned tree (tests/numerics_lint/ under --self-test), so a loop
    over a member declared in another file is still caught. A .cpp's own
    locals stay private to it — they are visible to no other translation
    unit, and sharing them would only turn name collisions into findings.
  * Status/Outcome-returning function names come from every file of the
    tree (from the file itself under --self-test). A discarded call the
    name list misses is still an error at build time: base::Status and
    base::Outcome<T> are class-level [[nodiscard]], every CI build sets
    -Werror, and the compile_fail.ts_discarded_status /
    compile_fail.ts_discarded_outcome tests prove the diagnostic fires.

Precision is validated by the --self-test fixtures and by the zero-findings
requirement on the real tree.

Suppressions are grep-able markers on the finding's line or the line above:

    // NEURO_NONDET_OK(<reason>)         unordered-iteration, nondet-source,
                                         float-exact-compare
    NEURO_STATUS_IGNORED(<expr>, <reason>)   discarded-status (the macro also
                                         silences the class-level
                                         [[nodiscard]] at compile time)

`--self-test` runs the analyzer over tests/numerics_lint/ fixtures and checks
the findings against their `// EXPECT: <check>@<line>` comments (a fixture
with `// EXPECT-CLEAN` must produce none); any mismatch — missed seeded bug
or spurious extra — fails.
"""

from __future__ import annotations

import argparse
import dataclasses
import pathlib
import re
import sys

CHECK_UNORDERED = "unordered-iteration"
CHECK_NONDET = "nondet-source"
CHECK_FLOAT_EQ = "float-exact-compare"
CHECK_DISCARD = "discarded-status"

# Suppression markers. NONDET_OK covers the three determinism rules;
# STATUS_IGNORED covers the error-discipline rule (and doubles as the macro
# that casts the dropped value to void).
NONDET_OK_RE = re.compile(r"NEURO_NONDET_OK\s*\(")
STATUS_IGNORED_RE = re.compile(r"NEURO_STATUS_IGNORED\s*\(")

# Files where wall-clock reads are the *product*, not a hazard: the tracer
# and metrics (src/obs/), the sanctioned timing primitives, and the seeded
# RNG wrapper every stochastic component must draw from. NEURO_BITEXACT
# regions override this list.
NONDET_ALLOWLIST_PREFIXES = ("src/obs/",)
NONDET_ALLOWLIST_FILES = {
    "src/base/stopwatch.h",
    "src/base/deadline.h",
    "src/base/rng.h",
    "src/base/rng.cpp",
}

NONDET_PATTERNS = [
    (re.compile(r"\bstd\s*::\s*random_device\b"), "std::random_device"),
    (re.compile(r"(?<![\w:.>])s?rand\s*\("), "C rand()/srand()"),
    (re.compile(r"(?<![\w:.>])time\s*\("), "time()"),
    (re.compile(r"(?<![\w:.>])clock\s*\("), "clock()"),
    (re.compile(r"\b[A-Za-z_]\w*\s*::\s*now\s*\("), "clock ::now() read"),
]

UNORDERED_TYPE_RE = re.compile(r"\bstd\s*::\s*unordered_(?:map|set|multimap|multiset)\b")
WORD_RE = re.compile(r"[A-Za-z_]\w*")
BITEXACT_RE = re.compile(r"\bNEURO_BITEXACT\b")

# A floating-point literal: 1.0, .5, 3., 1e-9, 2.5e3f — but not the "1.5" in
# "v1.5" or a member access like "a.b".
FP_LITERAL_RE = re.compile(
    r"(?<![\w.])(?:\d+\.\d*|\.\d+)(?:[eE][+-]?\d+)?[fFlL]?(?![\w.])"
    r"|(?<![\w.])\d+[eE][+-]?\d+[fFlL]?(?![\w.])"
)
EQ_NEQ_RE = re.compile(r"(?<![=!<>+\-*/%&|^])(==|!=)(?!=)")

# Function/method declarations returning Status or Outcome<T>; group(1) is
# the function name. Used by the textual discarded-status rule.
STATUS_FN_RE = re.compile(
    r"\b(?:base\s*::\s*)?(?:Status|Outcome\s*<[^;{}()]{0,120}>)\s+"
    r"(?:[A-Za-z_]\w*\s*::\s*)*([A-Za-z_]\w*)\s*\("
)
# A discarding statement's prefix may only be an object/namespace chain
# ("budget.", "session->", "base::"), never a keyword, declaration, or
# assignment context.
CHAIN_PREFIX_RE = re.compile(r"^\s*(?:[A-Za-z_]\w*\s*(?:::|\.|->)\s*)*$")

# Loop-body classifiers for the unordered-iteration rule: what makes a
# nondeterministic visit order *observable*.
BODY_ACCUM_RE = re.compile(r"[-+*/]=(?!=)|\bstd\s*::\s*(?:max|min)\s*\(")
BODY_COMM_RE = re.compile(
    r"\.\s*(?:send|recv|isend|irecv|barrier|broadcast|allreduce_\w+|"
    r"allgatherv|allgather_parts)\s*(?:<[^;>]*>)?\s*\("
)
BODY_EXPORT_RE = re.compile(r"<<|\bpush_back\s*\(|\bemplace_back\s*\(")


@dataclasses.dataclass(frozen=True)
class Finding:
    path: str
    line: int
    check: str
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}: [{self.check}] {self.message}"


def strip_comments_and_strings(text: str) -> str:
    """Returns same-length text with comments/char/string literals blanked.

    Newlines are preserved so offsets and line numbers survive; everything
    else inside a literal or comment becomes a space.
    """
    out = list(text)
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":
            while i < n and text[i] != "\n":
                out[i] = " "
                i += 1
        elif c == "/" and nxt == "*":
            out[i] = out[i + 1] = " "
            i += 2
            while i < n and not (text[i] == "*" and i + 1 < n and text[i + 1] == "/"):
                if text[i] != "\n":
                    out[i] = " "
                i += 1
            if i < n:
                out[i] = out[i + 1] = " "
                i += 2
        elif c == '"' or c == "'":
            quote = c
            i += 1
            while i < n and text[i] != quote:
                if text[i] == "\\":
                    out[i] = " "
                    i += 1
                    if i < n and text[i] != "\n":
                        out[i] = " "
                    i += 1
                    continue
                if text[i] != "\n":
                    out[i] = " "
                i += 1
            i += 1
        else:
            i += 1
    return "".join(out)


def suppressed_lines(original: str) -> dict[str, set[int]]:
    """Maps marker family -> line numbers carrying that suppression."""
    nondet: set[int] = set()
    status: set[int] = set()
    for idx, line in enumerate(original.splitlines(), start=1):
        if NONDET_OK_RE.search(line):
            nondet.add(idx)
        if STATUS_IGNORED_RE.search(line):
            status.add(idx)
    return {"nondet": nondet, "status": status}


def apply_suppressions(findings: list[Finding], markers: dict[str, set[int]]) -> list[Finding]:
    def family(check: str) -> set[int]:
        return markers["status"] if check == CHECK_DISCARD else markers["nondet"]

    return [
        f
        for f in findings
        if f.line not in family(f.check) and (f.line - 1) not in family(f.check)
    ]


def line_of(text: str, pos: int) -> int:
    return text.count("\n", 0, pos) + 1


def match_balanced(text: str, open_pos: int, open_ch: str, close_ch: str) -> int:
    """Index just past the bracket matching text[open_pos]; -1 if unbalanced."""
    depth = 0
    for i in range(open_pos, len(text)):
        if text[i] == open_ch:
            depth += 1
        elif text[i] == close_ch:
            depth -= 1
            if depth == 0:
                return i + 1
    return -1


def bitexact_regions(stripped: str) -> list[tuple[int, int]]:
    """Offset ranges of function bodies marked NEURO_BITEXACT.

    The macro expands to nothing, so it is located textually: each marker
    claims the next top-level `{...}` body that follows it.
    """
    regions: list[tuple[int, int]] = []
    for m in BITEXACT_RE.finditer(stripped):
        open_brace = stripped.find("{", m.end())
        if open_brace < 0:
            continue
        # Skip over parameter lists / ctor-inits between marker and body.
        i = m.end()
        while i < open_brace:
            if stripped[i] == "(":
                closed = match_balanced(stripped, i, "(", ")")
                if closed < 0:
                    break
                i = closed
                open_brace = stripped.find("{", i)
                if open_brace < 0:
                    break
            else:
                i += 1
        if open_brace is None or open_brace < 0:
            continue
        close = match_balanced(stripped, open_brace, "{", "}")
        if close < 0:
            continue
        regions.append((open_brace, close))
    return regions


def in_regions(pos: int, regions: list[tuple[int, int]]) -> bool:
    return any(start <= pos < end for start, end in regions)


def bitexact_line_ranges(stripped: str) -> list[tuple[int, int]]:
    return [
        (line_of(stripped, start), line_of(stripped, end - 1))
        for start, end in bitexact_regions(stripped)
    ]


def line_in_ranges(line: int, ranges: list[tuple[int, int]]) -> bool:
    return any(lo <= line <= hi for lo, hi in ranges)


def harvest_status_functions(stripped: str) -> set[str]:
    """Names of functions/methods declared to return Status or Outcome<T>."""
    names = set()
    for m in STATUS_FN_RE.finditer(stripped):
        name = m.group(1)
        if name not in ("operator", "if", "while", "for", "return", "switch"):
            names.add(name)
    return names


def harvest_unordered_names(stripped: str) -> set[str]:
    """Names declared with a std::unordered_{map,set,multimap,multiset} type."""
    names: set[str] = set()
    for m in UNORDERED_TYPE_RE.finditer(stripped):
        open_angle = stripped.find("<", m.end())
        if open_angle < 0 or stripped[m.end() : open_angle].strip():
            continue
        close = match_balanced(stripped, open_angle, "<", ">")
        if close < 0:
            continue
        nm = re.match(r"\s*&?\s*([A-Za-z_]\w*)", stripped[close:])
        if nm:
            names.add(nm.group(1))
    return names


# --------------------------------------------------------------------------
# Line-based rules
# --------------------------------------------------------------------------


def scan_nondet_sources(
    stripped: str, rel: str, strict_ranges: list[tuple[int, int]]
) -> list[Finding]:
    allowlisted = rel.startswith(NONDET_ALLOWLIST_PREFIXES) or rel in NONDET_ALLOWLIST_FILES
    findings: list[Finding] = []
    for lineno, line in enumerate(stripped.splitlines(), start=1):
        if line.lstrip().startswith("#"):
            continue  # includes / macros, not executed code
        strict = line_in_ranges(lineno, strict_ranges)
        if allowlisted and not strict:
            continue
        for pattern, what in NONDET_PATTERNS:
            if pattern.search(line):
                where = (
                    "inside a NEURO_BITEXACT function" if strict else "on library code"
                )
                findings.append(
                    Finding(
                        rel,
                        lineno,
                        CHECK_NONDET,
                        f"{what} {where}: nondeterminism sources break "
                        "bit-identical replay; route timing through "
                        "base/deadline.h or obs/, randomness through "
                        "base/rng.h, or suppress with // NEURO_NONDET_OK(reason)",
                    )
                )
                break
    return findings


def scan_float_exact_compares(stripped: str, rel: str) -> list[Finding]:
    findings: list[Finding] = []
    for lineno, line in enumerate(stripped.splitlines(), start=1):
        if line.lstrip().startswith("#"):
            continue
        for m in EQ_NEQ_RE.finditer(line):
            # `bool operator==(...)` declares the comparison, it does not
            # perform one.
            if re.search(r"\boperator\s*$", line[: m.start()]):
                continue
            left = re.split(r"[(){};,?:]|&&|\|\|", line[: m.start()])[-1]
            right = re.split(r"[(){};,?:]|&&|\|\|", line[m.end() :])[0]
            if FP_LITERAL_RE.search(left) or FP_LITERAL_RE.search(right):
                findings.append(
                    Finding(
                        rel,
                        lineno,
                        CHECK_FLOAT_EQ,
                        f"floating-point `{m.group(1)}` against a literal: "
                        "exact FP equality is only meaningful for "
                        "sentinel/exact-replay checks — use a tolerance, or "
                        "suppress with // NEURO_NONDET_OK(reason)",
                    )
                )
                break
    return findings


def classify_loop_body(body: str) -> str | None:
    """Why iterating an unordered container here is observable, or None."""
    if BODY_ACCUM_RE.search(body):
        return "accumulates floating point"
    if BODY_COMM_RE.search(body):
        return "emits communicator traffic"
    if BODY_EXPORT_RE.search(body):
        return "writes exported output"
    return None


def unordered_finding(rel: str, lineno: int, reason: str | None, strict: bool) -> Finding:
    if strict:
        what = "iteration over an unordered container inside a NEURO_BITEXACT function"
    else:
        what = f"iteration over an unordered container whose body {reason}"
    return Finding(
        rel,
        lineno,
        CHECK_UNORDERED,
        f"{what}: visit order depends on the hash-table layout of the run — "
        "iterate a sorted container (std::map / sorted vector) or sort keys "
        "first",
    )


# --------------------------------------------------------------------------
# Analyzer
# --------------------------------------------------------------------------


class Analyzer:
    """Regex/tokenizer analysis of one file.

    `status_names` defaults to the Status/Outcome functions the file itself
    declares; `header_unordered_names` (containers declared in headers) is
    added to the unordered-container names the file itself declares.
    """

    def analyze_file(
        self,
        path: pathlib.Path,
        rel: str,
        status_names: set[str] | None = None,
        header_unordered_names: set[str] | frozenset[str] = frozenset(),
    ) -> list[Finding]:
        original = path.read_text(encoding="utf-8", errors="replace")
        stripped = strip_comments_and_strings(original)
        markers = suppressed_lines(original)
        strict_ranges = bitexact_line_ranges(stripped)
        strict_regions = bitexact_regions(stripped)
        names = status_names if status_names is not None else harvest_status_functions(stripped)
        unordered_names = harvest_unordered_names(stripped) | header_unordered_names

        findings: list[Finding] = []
        findings.extend(scan_nondet_sources(stripped, rel, strict_ranges))
        findings.extend(scan_float_exact_compares(stripped, rel))
        findings.extend(
            self._scan_unordered_iteration(stripped, rel, strict_regions, unordered_names)
        )
        findings.extend(self._scan_discarded_status(stripped, rel, names))
        findings.sort(key=lambda f: (f.line, f.check))
        return apply_suppressions(findings, markers)

    # -- rule: unordered-iteration -----------------------------------------

    def _scan_unordered_iteration(
        self,
        stripped: str,
        rel: str,
        strict_regions: list[tuple[int, int]],
        names: set[str],
    ) -> list[Finding]:
        findings: list[Finding] = []
        for m in re.finditer(r"\bfor\s*\(", stripped):
            open_paren = stripped.find("(", m.start())
            close_paren = match_balanced(stripped, open_paren, "(", ")")
            if close_paren < 0:
                continue
            header = stripped[open_paren + 1 : close_paren - 1]
            if not self._header_is_unordered(header, names):
                continue
            body = self._loop_body(stripped, close_paren)
            strict = in_regions(m.start(), strict_regions)
            reason = classify_loop_body(body)
            if strict or reason is not None:
                findings.append(
                    unordered_finding(rel, line_of(stripped, m.start()), reason, strict)
                )
        return findings

    @staticmethod
    def _header_is_unordered(header: str, names: set[str]) -> bool:
        # Range-for: `for (auto& kv : <range>)` — examine the range expr.
        colon = None
        depth = 0
        for i, ch in enumerate(header):
            if ch in "([{<":
                depth += 1
            elif ch in ")]}>":
                depth = max(0, depth - 1)
            elif ch == ":" and depth == 0:
                if i + 1 < len(header) and header[i + 1] == ":":
                    continue
                if i > 0 and header[i - 1] == ":":
                    continue
                colon = i
                break
        if colon is not None:
            range_expr = header[colon + 1 :]
            if UNORDERED_TYPE_RE.search(range_expr):
                return True
            return any(w in names for w in WORD_RE.findall(range_expr))
        # Classic iterator loop: `for (auto it = m.begin(); ...)`.
        if ".begin" not in header and ".cbegin" not in header:
            return False
        return any(
            re.search(rf"\b{re.escape(n)}\s*\.\s*c?begin\s*\(", header) for n in names
        )

    @staticmethod
    def _loop_body(stripped: str, after_close_paren: int) -> str:
        i = after_close_paren
        n = len(stripped)
        while i < n and stripped[i] in " \t\n":
            i += 1
        if i < n and stripped[i] == "{":
            end = match_balanced(stripped, i, "{", "}")
            return stripped[i:end] if end > 0 else stripped[i:]
        end = stripped.find(";", i)
        return stripped[i : end + 1] if end >= 0 else stripped[i:]

    # -- rule: discarded-status --------------------------------------------

    def _scan_discarded_status(
        self, stripped: str, rel: str, names: set[str]
    ) -> list[Finding]:
        if not names:
            return []
        findings: list[Finding] = []
        pattern = re.compile(
            r"\b(" + "|".join(re.escape(n) for n in sorted(names)) + r")\s*\("
        )
        for m in pattern.finditer(stripped):
            open_paren = stripped.find("(", m.end(1))
            close = match_balanced(stripped, open_paren, "(", ")")
            if close < 0:
                continue
            # The whole statement must be the bare call: the prefix back to
            # the previous ; { or } may only be an object/namespace chain,
            # and the call must be immediately followed by `;`.
            stmt_start = max(
                stripped.rfind(";", 0, m.start()),
                stripped.rfind("{", 0, m.start()),
                stripped.rfind("}", 0, m.start()),
            )
            prefix = stripped[stmt_start + 1 : m.start()]
            if not CHAIN_PREFIX_RE.match(prefix):
                continue
            tail = stripped[close:].lstrip()
            if not tail.startswith(";"):
                continue
            findings.append(
                Finding(
                    rel,
                    line_of(stripped, m.start()),
                    CHECK_DISCARD,
                    f"return value of {m.group(1)}() (base::Status/Outcome) is "
                    "discarded — a swallowed failure; check it, or discard "
                    "explicitly via NEURO_STATUS_IGNORED(expr, reason)",
                )
            )
        return findings


# --------------------------------------------------------------------------
# Driver
# --------------------------------------------------------------------------


def iter_tree_files(root: pathlib.Path):
    base = root / "src"
    if not base.is_dir():
        return
    for path in sorted(base.rglob("*")):
        if path.suffix not in (".h", ".cpp"):
            continue
        yield path, path.relative_to(root).as_posix()


def harvest_files(paths, harvester) -> set[str]:
    """Union of `harvester` over the comment-stripped text of `paths`."""
    names: set[str] = set()
    for path in paths:
        names |= harvester(
            strip_comments_and_strings(path.read_text(encoding="utf-8", errors="replace"))
        )
    return names


EXPECT_RE = re.compile(r"//\s*EXPECT:\s*([\w-]+)\s*@\s*(\d+)")
EXPECT_CLEAN_RE = re.compile(r"//\s*EXPECT-CLEAN\b")


def run_self_test(root: pathlib.Path) -> int:
    fixtures_dir = root / "tests" / "numerics_lint"
    failures = 0
    fixture_files = sorted(fixtures_dir.glob("*.cpp"))
    if not fixture_files:
        print(f"check_numerics: no fixtures in {fixtures_dir}", file=sys.stderr)
        return 1
    analyzer = Analyzer()
    header_unordered_names = harvest_files(
        sorted(fixtures_dir.glob("*.h")), harvest_unordered_names
    )
    for path in fixture_files:
        text = path.read_text(encoding="utf-8")
        expected = {(m.group(1), int(m.group(2))) for m in EXPECT_RE.finditer(text)}
        is_clean = EXPECT_CLEAN_RE.search(text) is not None
        if not expected and not is_clean:
            print(f"{path.name}: fixture has neither EXPECT: nor EXPECT-CLEAN")
            failures += 1
            continue
        got_findings = analyzer.analyze_file(
            path, path.name, header_unordered_names=header_unordered_names
        )
        got = {(f.check, f.line) for f in got_findings}
        missed = expected - got
        extra = got - expected
        for check, line in sorted(missed):
            print(f"{path.name}: MISSED seeded bug [{check}] at line {line}")
            failures += 1
        for check, line in sorted(extra):
            print(f"{path.name}: SPURIOUS finding [{check}] at line {line}")
            failures += 1
        if not missed and not extra:
            label = "clean" if is_clean else f"{len(expected)} seeded"
            print(f"check_numerics self-test OK: {path.name} ({label})")
    if failures:
        print(f"check_numerics self-test: {failures} mismatch(es)", file=sys.stderr)
        return 1
    print(f"check_numerics self-test: OK ({len(fixture_files)} fixtures)")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=pathlib.Path, default=pathlib.Path.cwd(),
                        help="repository root to scan (default: cwd)")
    parser.add_argument("--self-test", action="store_true",
                        help="validate against tests/numerics_lint fixtures")
    args = parser.parse_args()

    if args.self_test:
        return run_self_test(args.root)

    files = list(iter_tree_files(args.root))
    status_names = harvest_files((path for path, _rel in files), harvest_status_functions)
    header_unordered_names = harvest_files(
        (path for path, _rel in files if path.suffix == ".h"), harvest_unordered_names
    )
    analyzer = Analyzer()
    findings: list[Finding] = []
    for path, rel in files:
        findings.extend(
            analyzer.analyze_file(path, rel, status_names, header_unordered_names)
        )

    for f in findings:
        print(f.render())
    if findings:
        print(
            f"check_numerics: {len(findings)} finding(s) in {len(files)} files; "
            "suppress determinism findings with // NEURO_NONDET_OK(reason), "
            "status discards with NEURO_STATUS_IGNORED(expr, reason)",
            file=sys.stderr,
        )
        return 1
    print(f"check_numerics: OK ({len(files)} files)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
