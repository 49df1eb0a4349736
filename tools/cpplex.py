#!/usr/bin/env python3
"""cpplex: shared C++ lexical scaffolding for the jetsim analyzers.

jetrace (concurrency discipline), jethot (hot-path discipline) and
detlint (determinism lint) all audit src/ at the source level with
the same idiom-driven lexical engine: strip comments and strings,
walk brace scopes statement by statement, and classify what remains.
This module is the single home of that engine so the three tools
cannot drift — the noise stripper, the suppression-comment matcher,
the scope walker, the file collector, the Tarjan SCC pass over
capability/call graphs, and the SARIF 2.1.0 emitter all live here and
are imported by the tools.

Nothing in this module knows about any specific rule: each tool
supplies its own regexes and callbacks. The self-test lives in
tests/tools/cpplex_test.py (wired into ctest).
"""

import json
import os
import re

# Keep in lockstep with lint::kJsonSchemaVersion (src/lint/finding.hh)
# and with the SCHEMA_VERSION the tools stamp into --json output.
SCHEMA_VERSION = 1

STRING_RE = re.compile(r'"(?:\\.|[^"\\])*"|' r"'(?:\\.|[^'\\])*'")

CONTROL_KEYWORDS = {"if", "constexpr", "for", "while", "switch",
                    "catch", "do", "else", "try", "return", "sizeof",
                    "alignof", "decltype", "new", "delete", "case",
                    "default"}

#: C++ source extensions the analyzers consider.
SOURCE_EXTS = (".cc", ".hh", ".cpp", ".hpp")

#: Annotation macros from src/core/hot_annotations.hh. They expand to
#: nothing in every build; classify_open strips them so an annotated
#: definition still parses as a function (JETSIM_COLD_OK's parentheses
#: would otherwise look like the function's own).
ANNOT_MACRO_RE = re.compile(
    r"\bJETSIM_(?:COLD_OK\s*\([^)]*\)|HOT_BOUNDARY\b|HOT\b)")


def strip_noise(line, in_block):
    """Remove strings/comments; returns (code, still_in_block)."""
    if in_block:
        end = line.find("*/")
        if end < 0:
            return "", True
        line = line[end + 2:]
    line = STRING_RE.sub('""', line)
    out = []
    i = 0
    while i < len(line):
        if line.startswith("//", i):
            break
        if line.startswith("/*", i):
            end = line.find("*/", i + 2)
            if end < 0:
                return "".join(out), True
            i = end + 2
            continue
        out.append(line[i])
        i += 1
    return "".join(out), False


def strip_file(raw_lines):
    """Noise-strip a whole file; returns the code-line list."""
    code_lines = []
    in_block = False
    for line in raw_lines:
        code, in_block = strip_noise(line, in_block)
        code_lines.append(code)
    return code_lines


def allow_matcher(tool):
    """Build the `// <tool>: allow(rule-a, rule-b)` suppression
    matcher for one tool. Returns allowed(raw_lines, idx, rule): True
    when line idx or the one above carries allow(rule)."""
    allow_re = re.compile(tool + r":\s*allow\(([a-z-]+(?:\s*,\s*"
                                 r"[a-z-]+)*)\)")

    def allowed(raw_lines, idx, rule):
        for li in (idx, idx - 1):
            if 0 <= li < len(raw_lines):
                m = allow_re.search(raw_lines[li])
                if m and rule in [r.strip() for r in
                                  m.group(1).split(",")]:
                    return True
        return False

    allowed.regexp = allow_re
    return allowed


def collect_files(targets):
    """Expand files/directories into the sorted C++ source list."""
    files = []
    for t in targets:
        if os.path.isfile(t):
            files.append(t)
        else:
            for dirpath, _, names in os.walk(t):
                for n in sorted(names):
                    if n.endswith(SOURCE_EXTS):
                        files.append(os.path.join(dirpath, n))
    return sorted(files)


class Scope:
    __slots__ = ("kind", "name", "held_before")

    def __init__(self, kind, name, held_before=0):
        self.kind = kind    # namespace | class | function | block
        self.name = name
        self.held_before = held_before  # tool-defined scope payload


def strip_template_header(text):
    """Drop a leading `template <...>` clause, whose default
    arguments (`typename D = ...`) would otherwise read as a brace
    initializer."""
    if not re.match(r"template\s*<", text):
        return text
    depth = 0
    for i, c in enumerate(text):
        if c == "<":
            depth += 1
        elif c == ">":
            depth -= 1
            if depth == 0:
                return text[i + 1:].strip()
    return text


def classify_open(text, lineno):
    """Classify the declaration text preceding a `{`: namespace,
    class/struct/enum, function (incl. lambdas), or plain block."""
    del lineno  # kept for signature stability across tools
    text = strip_template_header(ANNOT_MACRO_RE.sub("", text).strip())
    if not text:
        return Scope("block", "")
    m = re.match(r"^(?:inline\s+)?namespace\b\s*([\w:]*)", text)
    if m:
        return Scope("namespace", m.group(1) or "<anon>")
    m = re.search(r"\b(class|struct|union)\s+(?:JETSIM_\w+"
                  r"\s*\([^)]*\)\s*)?(\w+)?", text)
    if m and "(" not in text.split(m.group(1))[0]:
        return Scope("class", m.group(2) or "<anon>")
    if re.search(r"\benum\b", text):
        return Scope("class", "<enum>")
    if "(" in text and ")" in text:
        first = re.search(r"([\w:~]+)\s*\(", text)
        name = first.group(1) if first else ""
        base = name.split("::")[-1] if name else ""
        if base in CONTROL_KEYWORDS:
            return Scope("block", "")
        if "=" in text.split("(")[0] and "]" not in text:
            return Scope("block", "")  # brace initializer
        fname = name if name else "<lambda>"
        return Scope("function", fname)
    if "]" in text:           # lambda introducer without parens
        return Scope("function", "<lambda>")
    if re.match(r"^(do|else|try)\b", text):
        return Scope("block", "")
    return Scope("block", "")


class Walker:
    """Char-by-char scope/statement walker over noise-stripped code.

    Callbacks (all optional):
      on_line(code, idx)            before each line's chars
      on_open(scope, sigtext, lineno)  after a `{` pushed its Scope;
                                    sigtext is the declaration text
                                    accumulated since the last ;{}
      on_close(scope)               after a `}` popped its Scope
      on_statement(stmt, lineno)    a statement completed at a `;`

    `scopes` is the live scope stack; `pending_start` is the 1-based
    line where the current pending text began (statement spans).
    Statement-level resolution matters: a line-level pass would miss
    locks/calls inside single-line function bodies.
    """

    def __init__(self, on_line=None, on_open=None, on_close=None,
                 on_statement=None):
        self.on_line = on_line
        self.on_open = on_open
        self.on_close = on_close
        self.on_statement = on_statement
        self.scopes = []
        self.pending_start = 1

    def run(self, code_lines):
        self.scopes = []
        pending = ""
        self.pending_start = 1
        # Parenthesis nesting within the current statement: a `;`
        # inside parens (for-loop headers, C++17 if-initializers) is
        # not a statement end — splitting there hands classify_open a
        # truncated tail like `!ts.empty())`, which misreads as a
        # function definition. Depth is saved across scope opens so a
        # lambda body inside an argument list restores correctly.
        depth = 0
        depth_stack = []
        for idx, code in enumerate(code_lines):
            if self.on_line:
                self.on_line(code, idx)
            for ch in code:
                if not pending.strip():
                    self.pending_start = idx + 1
                if ch == "{":
                    sc = classify_open(pending, idx + 1)
                    self.scopes.append(sc)
                    if self.on_open:
                        self.on_open(sc, pending, idx + 1)
                    pending = ""
                    depth_stack.append(depth)
                    depth = 0
                elif ch == "}":
                    if self.scopes:
                        sc = self.scopes.pop()
                        if self.on_close:
                            self.on_close(sc)
                    pending = ""
                    depth = depth_stack.pop() if depth_stack else 0
                elif ch == ";" and depth == 0:
                    if self.on_statement:
                        self.on_statement(pending, idx + 1)
                    pending = ""
                else:
                    if ch == "(":
                        depth += 1
                    elif ch == ")" and depth:
                        depth -= 1
                    pending += ch
            pending += " "

    def fn_depth(self):
        return sum(1 for s in self.scopes if s.kind == "function")

    def in_class(self):
        return any(s.kind == "class" for s in self.scopes)


def find_cycles(nodes, edges):
    """Strongly connected components with >1 node (or a self-edge).
    Tarjan, iterative; `edges` is a dict/set of (a, b) pairs."""
    adj = {n: [] for n in nodes}
    for (a, b) in edges:
        adj[a].append(b)
    index = {}
    low = {}
    on_stack = set()
    stack = []
    sccs = []
    counter = [0]

    for root in nodes:
        if root in index:
            continue
        work = [(root, iter(adj[root]))]
        index[root] = low[root] = counter[0]
        counter[0] += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, it = work[-1]
            advanced = False
            for nxt in it:
                if nxt not in index:
                    index[nxt] = low[nxt] = counter[0]
                    counter[0] += 1
                    stack.append(nxt)
                    on_stack.add(nxt)
                    work.append((nxt, iter(adj[nxt])))
                    advanced = True
                    break
                if nxt in on_stack:
                    low[node] = min(low[node], index[nxt])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == index[node]:
                scc = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    scc.append(w)
                    if w == node:
                        break
                if len(scc) > 1 or (node, node) in edges:
                    sccs.append(sorted(scc))
    return sccs


def to_sarif(tool, rules, findings, root=None):
    """Render findings as a SARIF 2.1.0 log (the shared emitter the
    jethot/jetrace/detlint `--sarif` flags print), so editors and CI
    annotate the offending lines inline.

    `rules` is the tool's [(id, description), ...] table; `findings`
    are the tool's finding dicts ({path, line, rule, message}, extra
    keys preserved under properties). Paths are emitted relative to
    @p root when given (SARIF wants URIs, not host paths)."""
    rule_ids = [r[0] for r in rules]
    results = []
    for f in findings:
        path = f["path"]
        if root:
            try:
                path = os.path.relpath(path, root)
            except ValueError:
                pass
        res = {
            "ruleId": f["rule"],
            "level": "error",
            "message": {"text": f["message"]},
            "locations": [{
                "physicalLocation": {
                    "artifactLocation": {
                        "uri": path.replace(os.sep, "/")},
                    "region": {"startLine": max(1, f.get("line", 1))},
                },
            }],
        }
        if f["rule"] in rule_ids:
            res["ruleIndex"] = rule_ids.index(f["rule"])
        extra = {k: v for k, v in f.items()
                 if k not in ("path", "line", "rule", "message")}
        if extra:
            res["properties"] = extra
        results.append(res)
    return {
        "$schema": "https://json.schemastore.org/sarif-2.1.0.json",
        "version": "2.1.0",
        "runs": [{
            "tool": {"driver": {
                "name": tool,
                "informationUri":
                    "https://github.com/jetsim/jetsim",
                "rules": [{"id": rid,
                           "shortDescription": {"text": desc}}
                          for rid, desc in rules],
            }},
            "results": results,
        }],
    }


def print_sarif(tool, rules, findings, root=None):
    print(json.dumps(to_sarif(tool, rules, findings, root), indent=2))
