#!/usr/bin/env python3
"""Static SPMD collective-safety analyzer.

The par runtime executes one body per rank (threads-as-ranks); collectives
(`barrier`, `broadcast`, `allreduce_*`, `allgatherv`, `allgather_parts`) only
complete when *every* rank reaches them in the same order. The runtime
verifier (par/verify.h) catches divergence at run time, but only on the
schedules the tests happen to execute. This tool rejects the bug classes
*statically*, before any schedule runs:

  rank-conditional-collective  a collective (or a call that forwards the
                               Communicator) under control flow whose
                               condition depends on the rank
  early-exit-past-collective   a rank-dependent return/throw that skips a
                               collective executed on other ranks
  divergent-tag                a send/recv/isend/irecv whose *tag* argument
                               is computed from the rank, so matching pairs
                               disagree on the mailbox key

Analysis targets are (a) lambda bodies handed to run_spmd and (b) every
function taking a `par::Communicator&` parameter — collectives are methods on
Communicator, so any transitively reachable collective site necessarily sits
in such a function and is analyzed on its own. The runtime itself
(src/par/communicator.*) is excluded: it implements the collectives and is
legitimately rank-divergent inside.

The analyzer is a built-in tokenizer and scope tracker needing no toolchain,
so it reports the same findings on every host.

A finding is suppressed only by a grep-able marker on the same or the
immediately preceding line:

    // NEURO_SPMD_OK(<reason>)

`--self-test` runs the analyzer over tests/spmd_lint/ fixtures and checks the
findings against their `// EXPECT: <check>@<line>` comments (a fixture with
`// EXPECT-CLEAN` must produce none); any mismatch — missed seeded bug or
spurious extra — fails.
"""

from __future__ import annotations

import argparse
import dataclasses
import pathlib
import re
import sys

COLLECTIVES = {
    "barrier",
    "broadcast",
    "allreduce_sum",
    "allreduce_max",
    "allreduce_min",
    "allgatherv",
    "allgather_parts",
}
# Point-to-point calls: the tag is argument index 1 for all four
# (send(dst, tag, data), recv(src, tag), isend, irecv).
P2P = {"send", "recv", "isend", "irecv"}
CONTROL_KEYWORDS = {"if", "while", "for", "switch"}
EXIT_KEYWORDS = {"return", "throw", "co_return"}

SUPPRESS_RE = re.compile(r"NEURO_SPMD_OK\s*\(")
RANK_SOURCE_RE = re.compile(r"\.\s*rank\s*\(\s*\)|\brank_id\s*\(\s*\)")

# The collective runtime itself; rank-divergent by design.
EXCLUDED = ("src/par/communicator.h", "src/par/communicator.cpp")

CHECK_RANK_COND = "rank-conditional-collective"
CHECK_EARLY_EXIT = "early-exit-past-collective"
CHECK_DIVERGENT_TAG = "divergent-tag"


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


def suppressed_lines(original: str) -> set[int]:
    """Line numbers carrying a NEURO_SPMD_OK(<reason>) marker."""
    lines = set()
    for idx, line in enumerate(original.splitlines(), start=1):
        if SUPPRESS_RE.search(line):
            lines.add(idx)
    return lines


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


def split_top_level_args(arglist: str) -> list[str]:
    """Splits a bracket-free-at-top-level argument list on commas."""
    args: list[str] = []
    depth = 0
    current: list[str] = []
    for ch in arglist:
        if ch in "([{<":
            # '<' is ambiguous (less-than vs template); good enough for tag
            # extraction — tags are ints, not templates with commas.
            depth += 1
        elif ch in ")]}>":
            depth = max(0, depth - 1)
        if ch == "," and depth == 0:
            args.append("".join(current).strip())
            current = []
        else:
            current.append(ch)
    if current:
        args.append("".join(current).strip())
    return args


# --------------------------------------------------------------------------
# Analyzer
# --------------------------------------------------------------------------

WORD_RE = re.compile(r"[A-Za-z_]\w*")
COMM_PARAM_RE = re.compile(r"(?:par\s*::\s*)?Communicator\s*&\s*([A-Za-z_]\w*)")
ASSIGN_RE = re.compile(
    r"(?<![<>!=+\-*/%&|^])\b([A-Za-z_]\w*)\s*(?:[+\-*/%&|^]?=)(?!=)\s*([^;]*);"
)


@dataclasses.dataclass
class Region:
    """One analysis target: a function body with Communicator access."""

    comm: str  # parameter name of the Communicator
    body_start: int  # offset just past the opening '{'
    body_end: int  # offset of the closing '}'


@dataclasses.dataclass
class Scope:
    tainted: bool
    braced: bool
    at_depth: int  # brace depth inside the scope (braced only)
    kind: str


@dataclasses.dataclass
class Event:
    kind: str  # 'collective' | 'indirect' | 'exit' | 'p2p'
    pos: int
    tainted_scopes: tuple[int, ...]  # ids of enclosing tainted scopes
    detail: str


class Analyzer:
    """Tokenizer + brace/scope tracker + rank-taint propagation.

    No preprocessing and no type information, so it over-approximates where
    cheap (any `foo(..., comm, ...)` call counts as collective-bearing) and
    relies on naming where types are unavailable (`.rank()` / `rank_id()` are
    the taint sources). Precision is validated by --self-test fixtures and by
    the zero-findings requirement on the real tree.
    """

    def analyze_file(self, path: pathlib.Path, rel: str) -> list[Finding]:
        original = path.read_text(encoding="utf-8", errors="replace")
        stripped = strip_comments_and_strings(original)
        ok_lines = suppressed_lines(original)
        findings: list[Finding] = []
        for region in self._find_regions(stripped):
            findings.extend(self._analyze_region(stripped, region, rel))
        return [
            f
            for f in findings
            if f.line not in ok_lines and (f.line - 1) not in ok_lines
        ]

    def _find_regions(self, s: str) -> list[Region]:
        regions = []
        for m in COMM_PARAM_RE.finditer(s):
            comm = m.group(1)
            # Walk out of the parameter list: we are inside at least one '('.
            i = m.end()
            depth = 1
            while i < len(s) and depth > 0:
                if s[i] == "(":
                    depth += 1
                elif s[i] == ")":
                    depth -= 1
                i += 1
            if depth != 0:
                continue
            # Skip qualifiers / attributes / ctor-inits up to '{' or give up
            # at ';' (pure declaration) or another unexpected construct.
            body_open = -1
            j = i
            while j < len(s):
                c = s[j]
                if c == "{":
                    body_open = j
                    break
                if c == ";":
                    break
                if c == "(":  # ctor-init argument list or noexcept(...)
                    j = match_balanced(s, j, "(", ")")
                    if j < 0:
                        break
                    continue
                j += 1
            if body_open < 0:
                continue
            body_close = match_balanced(s, body_open, "{", "}")
            if body_close < 0:
                continue
            regions.append(Region(comm, body_open + 1, body_close - 1))
        # Keep only outermost regions: a lambda taking Communicator& defined
        # inside another analyzed function would otherwise be scanned twice.
        regions.sort(key=lambda r: (r.body_start, -r.body_end))
        result: list[Region] = []
        for r in regions:
            if result and r.body_end <= result[-1].body_end:
                continue
            result.append(r)
        return result

    def _tainted_idents(self, body: str, comm: str) -> set[str]:
        tainted: set[str] = set()
        changed = True
        while changed:
            changed = False
            for m in ASSIGN_RE.finditer(body):
                lhs, rhs = m.group(1), m.group(2)
                if lhs in tainted:
                    continue
                if self._expr_tainted(rhs, tainted):
                    tainted.add(lhs)
                    changed = True
        tainted.discard(comm)
        return tainted

    @staticmethod
    def _expr_tainted(expr: str, tainted: set[str]) -> bool:
        if RANK_SOURCE_RE.search(expr):
            return True
        return any(w in tainted for w in WORD_RE.findall(expr))

    def _analyze_region(self, s: str, region: Region, rel: str) -> list[Finding]:
        body = s[region.body_start : region.body_end]
        tainted = self._tainted_idents(body, region.comm)
        events = self._scan(s, region, tainted)
        findings: list[Finding] = []
        for idx, ev in enumerate(events):
            if ev.kind in ("collective", "indirect") and ev.tainted_scopes:
                what = (
                    f"collective {ev.detail}"
                    if ev.kind == "collective"
                    else f"call {ev.detail} (forwards the Communicator)"
                )
                findings.append(
                    Finding(
                        rel,
                        line_of(s, ev.pos),
                        CHECK_RANK_COND,
                        f"{what} under rank-dependent control flow; every "
                        "rank must reach each collective or the team "
                        "deadlocks",
                    )
                )
            elif ev.kind == "exit" and ev.tainted_scopes:
                guard = set(ev.tainted_scopes)
                for later in events[idx + 1 :]:
                    if later.kind not in ("collective", "indirect"):
                        continue
                    if guard.isdisjoint(later.tainted_scopes):
                        findings.append(
                            Finding(
                                rel,
                                line_of(s, ev.pos),
                                CHECK_EARLY_EXIT,
                                f"rank-dependent {ev.detail} skips "
                                f"{later.detail} at line "
                                f"{line_of(s, later.pos)} that other ranks "
                                "execute",
                            )
                        )
                        break
            elif ev.kind == "p2p":
                findings.append(
                    Finding(
                        rel,
                        line_of(s, ev.pos),
                        CHECK_DIVERGENT_TAG,
                        f"{ev.detail}: tag argument depends on the rank, so "
                        "sender and receiver disagree on the mailbox key",
                    )
                )
        return findings

    def _scan(self, s: str, region: Region, tainted: set[str]) -> list[Event]:
        events: list[Event] = []
        scopes: list[Scope] = []
        scope_serial = [0]
        scope_ids: list[int] = []
        brace_depth = 0
        paren_depth = 0
        # pending control header waiting for its body ('{' or statement)
        pending: list[tuple[bool, str]] = []
        last_if_taint = False
        i = region.body_start
        end = region.body_end

        def tainted_ids() -> tuple[int, ...]:
            return tuple(
                sid for sid, sc in zip(scope_ids, scopes) if sc.tainted
            )

        def open_scope(tnt: bool, braced: bool, kind: str) -> None:
            scopes.append(Scope(tnt, braced, brace_depth, kind))
            scope_serial[0] += 1
            scope_ids.append(scope_serial[0])

        def close_top() -> None:
            nonlocal last_if_taint
            sc = scopes.pop()
            scope_ids.pop()
            if sc.kind == "if":
                last_if_taint = sc.tainted

        while i < end:
            c = s[i]
            if c == "{":
                brace_depth += 1
                if pending:
                    tnt, kind = pending.pop()
                    open_scope(tnt, True, kind)
                i += 1
                continue
            if c == "}":
                brace_depth -= 1
                while scopes and scopes[-1].braced and scopes[-1].at_depth > brace_depth:
                    close_top()
                i += 1
                continue
            if c == "(":
                paren_depth += 1
                i += 1
                continue
            if c == ")":
                paren_depth -= 1
                i += 1
                continue
            if c == ";" and paren_depth == 0:
                while scopes and not scopes[-1].braced:
                    close_top()
                i += 1
                continue
            if c.isalpha() or c == "_":
                m = WORD_RE.match(s, i)
                assert m is not None
                word = m.group(0)
                j = m.end()
                if word in CONTROL_KEYWORDS:
                    open_paren = s.find("(", j, end)
                    if open_paren < 0:
                        i = j
                        continue
                    cond_end = match_balanced(s, open_paren, "(", ")")
                    if cond_end < 0:
                        i = j
                        continue
                    cond = s[open_paren + 1 : cond_end - 1]
                    tnt = self._expr_tainted(cond, tainted)
                    if pending:  # `else if (...)`: inherit the else taint
                        tnt = tnt or pending.pop()[0]
                    pending.append((tnt, word))
                    i = cond_end
                    continue
                if word == "else":
                    pending.append((last_if_taint, "else"))
                    i = j
                    continue
                if word in EXIT_KEYWORDS:
                    if pending:  # unbraced `if (...) return;`
                        tnt, kind = pending.pop()
                        open_scope(tnt, False, kind)
                    events.append(Event("exit", i, tainted_ids(), word))
                    i = j
                    continue
                if pending:
                    # Any other statement token consumes the pending control
                    # header as an unbraced single-statement scope.
                    tnt, kind = pending.pop()
                    open_scope(tnt, False, kind)
                if word == region.comm:
                    ev, nxt = self._comm_call(s, i, j, end, region.comm, tainted, tainted_ids())
                    if ev is not None:
                        events.append(ev)
                    i = nxt
                    continue
                # Indirect collective-bearing call: foo(..., comm, ...).
                open_paren = j
                while open_paren < end and s[open_paren] in " \t\n":
                    open_paren += 1
                if open_paren < end and s[open_paren] == "(" and word not in EXIT_KEYWORDS:
                    close = match_balanced(s, open_paren, "(", ")")
                    if close > 0:
                        args = s[open_paren + 1 : close - 1]
                        # `comm` must be an argument itself; `comm.recv(...)`
                        # as an argument passes a payload, not the Communicator.
                        if re.search(rf"\b{re.escape(region.comm)}\b(?!\s*\.)", args):
                            events.append(
                                Event("indirect", i, tainted_ids(), f"{word}(...)")
                            )
                            # Do not skip the args: nested comm.X(...) calls
                            # inside them must still be scanned.
                i = j
                continue
            i += 1
        return events

    def _comm_call(
        self,
        s: str,
        pos: int,
        after_word: int,
        end: int,
        comm: str,
        tainted: set[str],
        tainted_scopes: tuple[int, ...],
    ) -> tuple[Event | None, int]:
        """Parses `comm.<method>[<T>](args)` at pos; returns (event, resume)."""
        j = after_word
        while j < end and s[j] in " \t\n":
            j += 1
        if j >= end or s[j] != ".":
            return None, after_word
        j += 1
        while j < end and s[j] in " \t\n":
            j += 1
        m = WORD_RE.match(s, j)
        if m is None:
            return None, after_word
        method = m.group(0)
        j = m.end()
        if j < end and s[j] == "<":  # explicit template args, e.g. recv<int>
            close_angle = match_balanced(s, j, "<", ">")
            if close_angle > 0:
                j = close_angle
        while j < end and s[j] in " \t\n":
            j += 1
        if j >= end or s[j] != "(":
            return None, after_word
        close = match_balanced(s, j, "(", ")")
        if close < 0:
            return None, after_word
        if method in COLLECTIVES:
            return Event("collective", pos, tainted_scopes, f"{comm}.{method}()"), after_word
        if method in P2P:
            args = split_top_level_args(s[j + 1 : close - 1])
            if len(args) >= 2 and self._expr_tainted(args[1], tainted):
                return (
                    Event("p2p", pos, tainted_scopes, f"{comm}.{method}(..., {args[1]}, ...)"),
                    after_word,
                )
        return None, after_word


# --------------------------------------------------------------------------
# Driver
# --------------------------------------------------------------------------


def iter_tree_files(root: pathlib.Path):
    for sub in ("src", "apps", "bench"):
        base = root / sub
        if not base.is_dir():
            continue
        for path in sorted(base.rglob("*")):
            if path.suffix not in (".h", ".cpp"):
                continue
            rel = path.relative_to(root).as_posix()
            if rel in EXCLUDED:
                continue
            yield path, rel


EXPECT_RE = re.compile(r"//\s*EXPECT:\s*([\w-]+)\s*@\s*(\d+)")
EXPECT_CLEAN_RE = re.compile(r"//\s*EXPECT-CLEAN\b")


def run_self_test(fixtures_dir: pathlib.Path) -> int:
    failures = 0
    fixture_files = sorted(fixtures_dir.glob("*.cpp"))
    if not fixture_files:
        print(f"check_spmd: no fixtures in {fixtures_dir}", file=sys.stderr)
        return 1
    analyzer = Analyzer()
    for path in fixture_files:
        text = path.read_text(encoding="utf-8")
        expected = {(m.group(1), int(m.group(2))) for m in EXPECT_RE.finditer(text)}
        is_clean = EXPECT_CLEAN_RE.search(text) is not None
        if not expected and not is_clean:
            print(f"{path.name}: fixture has neither EXPECT: nor EXPECT-CLEAN")
            failures += 1
            continue
        got_findings = analyzer.analyze_file(path, path.name)
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
            print(f"check_spmd self-test OK: {path.name} ({label})")
    if failures:
        print(f"check_spmd self-test: {failures} mismatch(es)", file=sys.stderr)
        return 1
    print(f"check_spmd self-test: OK ({len(fixture_files)} fixtures)")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=pathlib.Path, default=pathlib.Path.cwd(),
                        help="repository root to scan (default: cwd)")
    parser.add_argument("--self-test", action="store_true",
                        help="validate against tests/spmd_lint fixtures")
    args = parser.parse_args()

    if args.self_test:
        return run_self_test(args.root / "tests" / "spmd_lint")

    analyzer = Analyzer()
    findings: list[Finding] = []
    scanned = 0
    for path, rel in iter_tree_files(args.root):
        scanned += 1
        findings.extend(analyzer.analyze_file(path, rel))

    for f in findings:
        print(f.render())
    if findings:
        print(
            f"check_spmd: {len(findings)} finding(s) in {scanned} files; "
            "suppress only with // NEURO_SPMD_OK(reason)",
            file=sys.stderr,
        )
        return 1
    print(f"check_spmd: OK ({scanned} files)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
