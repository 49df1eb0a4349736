#!/usr/bin/env python3
"""cpplex: shared C++ lexical scaffolding for the jetsim analyzers.

jetrace (concurrency discipline), jethot (hot-path discipline) and
detlint (determinism lint) all audit src/ with one idiom-driven
lexical engine, which lives here so the tools cannot drift: the noise
stripper, the suppression-comment matcher, the scope walker, the file
collector, Tarjan's SCC pass, the SARIF 2.1.0 emitter, and the one
call graph jethot and jetrace share (CallGraph, filled by GraphWalker
and widened by libclang's AST call edges when the bindings import).
Its resolver tries the exact key, then the caller's own class, then
every function sharing the base name. The own-class step is taken
only for bare and `this->` calls: a lexer cannot know the class of
`x` in `x.f()`. The first two steps can still pick a wrong target, so
the graph is no sound over-approximation.

Nothing in this module knows about any specific rule: each tool
supplies its own regexes and callbacks. The self-test lives in
tests/tools/cpplex_test.py (wired into ctest).
"""

import collections
import json
import os
import re

# Keep in lockstep with lint::kJsonSchemaVersion (src/lint/finding.hh);
# report() stamps it into every analyzer's --json output.
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
    __slots__ = ("kind", "name", "held_before", "key")

    def __init__(self, kind, name, held_before=0):
        self.kind = kind    # namespace | class | function | block
        self.name = name
        self.held_before = held_before  # tool-defined scope payload
        self.key = None     # a function's CallGraph key (GraphWalker)


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


def open_paren_tail(text):
    """The text after the last `(` that @p text leaves open, or None
    when every `(` in it is closed."""
    depth = 0
    for i in range(len(text) - 1, -1, -1):
        if text[i] == ")":
            depth += 1
        elif text[i] == "(":
            if depth == 0:
                return text[i + 1:]
            depth -= 1
    return None


def classify_open(text):
    """Classify the declaration text preceding a `{`: namespace,
    class/struct/enum, function (incl. lambdas), or plain block."""
    text = strip_template_header(ANNOT_MACRO_RE.sub("", text).strip())
    if not text:
        return Scope("block", "")
    # A `{` inside an open call's argument list is a braced argument
    # (`v.push_back(\n {i, write})`), or, when a `[` follows that `(`,
    # a lambda argument — never a function named after the callee
    # (`engine.post(sub, f(x), [srv] {` is not a `post`).
    tail = open_paren_tail(text)
    if tail is not None:
        if "[" not in tail:
            return Scope("block", "")
        return Scope("function", "<lambda>")
    m = re.match(r"^(?:inline\s+)?namespace\b\s*([\w:]*)", text)
    if m:
        return Scope("namespace", m.group(1) or "<anon>")
    m = re.search(r"\b(class|struct|union)\s+(?:(?:JETSIM_\w+|alignas)"
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
                    sc = classify_open(pending)
                    self.scopes.append(sc)
                    self.opened(sc, pending, idx + 1)
                    pending = ""
                    depth_stack.append(depth)
                    depth = 0
                elif ch == "}":
                    if self.scopes:
                        self.closed(self.scopes.pop())
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

    def opened(self, sc, sig, lineno):
        if self.on_open:
            self.on_open(sc, sig, lineno)

    def closed(self, sc):
        if self.on_close:
            self.on_close(sc)

    def in_class(self):
        return any(s.kind == "class" for s in self.scopes)


def blank_preprocessor(code_lines):
    """Blank out #directives incl. backslash continuations, so macro
    *definitions* (JETSIM_CHECK's braces and report() calls) never
    reach the scope walker — expansion sites are what gets audited."""
    out = []
    cont = False
    for code in code_lines:
        s = code.strip()
        if cont or s.startswith("#"):
            cont = s.endswith("\\")
            out.append("")
        else:
            cont = False
            out.append(code)
    return out


CALL_RE = re.compile(r"([\w~:]+)\s*\(")
MACRO_NAME_RE = re.compile(r"^JETSIM_[A-Z_]+$")
THIS_ARROW_RE = re.compile(r"\bthis\s*->$")

# Member names that are std::atomic's API: a dotted call to one of
# these is synchronisation on a data member, not a call into repo
# code, and must not alias a repo function that shares the base name
# (ResultCache::store vs. `sense_.store(...)`). Rule matching still
# sees the text — only the call *edge* is dropped.
ATOMIC_MEMBERS = frozenset((
    "load", "store", "exchange", "compare_exchange_weak",
    "compare_exchange_strong", "fetch_add", "fetch_sub", "fetch_and",
    "fetch_or", "fetch_xor", "test_and_set", "notify_one",
    "notify_all", "wait"))


def call_sites(text):
    """The calls in noise-stripped @p text as (callee, on_object)
    pairs. The callee keeps one level of qualification (`Class::fn`
    resolves exactly; deeper namespace prefixes add nothing).
    on_object is True for `x.f(` and `x->f(`, False for a bare or
    `this->` call."""
    out = []
    for m in CALL_RE.finditer(text):
        parts = [p for p in m.group(1).split("::") if p]
        if not parts or parts[-1] in CONTROL_KEYWORDS or \
                MACRO_NAME_RE.match(parts[-1]):
            continue
        pre = text[:m.start(1)].rstrip()
        dotted = pre.endswith(".") or pre.endswith("->")
        if dotted and parts[-1] in ATOMIC_MEMBERS:
            continue
        out.append(("::".join(parts[-2:]),
                    dotted and not THIS_ARROW_RE.search(pre)))
    return out


#: A call site; ctx is the tool's context there (jetrace: held locks).
Call = collections.namedtuple("Call", "callee on_object path line ctx")


class CallGraph:
    """`nodes` maps each function key (`C::f`, `f`, or
    `<lambda@path:line>`) to its record: `calls`, a list of Call,
    plus the fields the tool's @p new_record returns."""

    def __init__(self, new_record=dict):
        self.new_record = new_record
        self.nodes = {}
        self._bases = None

    def node(self, key):
        rec = self.nodes.get(key)
        if rec is None:
            rec = self.nodes[key] = self.new_record()
            rec["calls"] = []
            self._bases = None
        return rec

    def add_call(self, caller, callee, path, line, ctx=(),
                 on_object=False):
        self.node(caller)["calls"].append(
            Call(callee, on_object, path, line, ctx))

    def resolve(self, caller, callee, on_object=False):
        """Candidate keys for @p callee called in @p caller: the exact
        key, else the caller's own class (bare and `this->` calls
        only, mirroring C++ member lookup), else every function
        sharing the base name."""
        if callee in self.nodes:
            return (callee,)
        if not on_object and "::" not in callee and "::" in caller:
            own = caller.split("::")[0] + "::" + callee
            if own in self.nodes:
                return (own,)
        if self._bases is None:
            self._bases = {}
            for k in self.nodes:
                self._bases.setdefault(k.split("::")[-1], []).append(k)
        return tuple(k for k in self._bases.get(
            callee.split("::")[-1], ()) if k != caller)

    def callees(self, caller):
        """(key, call) for every function a call in @p caller may
        reach."""
        for call in self.nodes[caller]["calls"]:
            for key in self.resolve(caller, call.callee,
                                    call.on_object):
                yield key, call

    def add_libclang_calls(self, ci, files, root):
        """Widen the graph with the AST's call edges: overload sets,
        operator calls and macro expansions the lexer cannot see. An
        AST call names its target's key exactly and carries no
        context, so it can only add reachability. Best-effort: a file
        libclang cannot parse or walk adds nothing."""
        include_dir = os.path.join(root, "src") if root else "."
        records = (ci.CursorKind.CLASS_DECL, ci.CursorKind.STRUCT_DECL,
                   ci.CursorKind.CLASS_TEMPLATE)
        functions = (ci.CursorKind.FUNCTION_DECL,
                     ci.CursorKind.CXX_METHOD,
                     ci.CursorKind.CONSTRUCTOR,
                     ci.CursorKind.DESTRUCTOR)

        def key_of(cur):
            sp = cur.semantic_parent
            if sp is not None and sp.kind in records:
                return f"{sp.spelling}::{cur.spelling}"
            return cur.spelling

        def walk(cur, fn, path, rel):
            for c in cur.get_children():
                if c.location.file and str(c.location.file) != path:
                    continue
                k = fn
                if c.kind in functions and c.is_definition():
                    k = key_of(c)
                    self.node(k)
                elif c.kind == ci.CursorKind.CALL_EXPR and fn:
                    target = c.referenced
                    self.add_call(fn, key_of(target) if target
                                  else c.spelling, rel,
                                  c.location.line)
                walk(c, k, path, rel)

        for path in files:
            rel = os.path.relpath(path, root) if root else path
            try:
                walk(parse_tu(ci, path, include_dir).cursor, None,
                     path, rel)
            except Exception:
                continue


class GraphWalker(Walker):
    """A Walker that keys every function it enters into @p graph;
    `fn` is the innermost one's key. A nested function (a lambda) is
    its own node, called by the enclosing function where it opens.
    The tool's on_open runs before the new function becomes `fn`, so
    calls in its opening text belong to the enclosing function. Calls
    recorded here carry ctx(). Directive lines are blanked first: a
    macro definition is not a function."""

    def __init__(self, graph, path, ctx=tuple, **callbacks):
        super().__init__(**callbacks)
        self.graph, self.path, self.ctx = graph, path, ctx
        self.fn_stack = []

    @property
    def fn(self):
        return self.fn_stack[-1] if self.fn_stack else None

    def run(self, code_lines):
        self.fn_stack = []
        super().run(blank_preprocessor(code_lines))

    def add_call(self, callee, lineno):
        self.graph.add_call(self.fn, callee, self.path, lineno,
                            self.ctx())

    def add_calls(self, text, lineno):
        for callee, on_object in call_sites(text):
            self.graph.add_call(self.fn, callee, self.path, lineno,
                                self.ctx(), on_object)

    def function_key(self, sc, lineno):
        parts = [p for p in sc.name.split("::") if p]
        if sc.name == "<lambda>" or not parts:
            return f"<lambda@{self.path}:{lineno}>"
        if len(parts) >= 2:
            return "::".join(parts[-2:])
        cls = next((s.name for s in reversed(self.scopes[:-1])
                    if s.kind == "class" and s.name), None)
        return f"{cls}::{parts[-1]}" if cls else parts[-1]

    def opened(self, sc, sig, lineno):
        if sc.kind == "function":
            sc.key = self.function_key(sc, lineno)
            self.graph.node(sc.key)
            if self.fn:
                self.add_call(sc.key, lineno)
        super().opened(sc, sig, lineno)
        if sc.kind == "function":
            self.fn_stack.append(sc.key)

    def closed(self, sc):
        if sc.kind == "function" and self.fn_stack:
            self.fn_stack.pop()
        super().closed(sc)


def try_libclang():
    """The libclang Python bindings (clang.cindex), or None."""
    try:
        import clang.cindex as ci
        return ci
    except Exception:
        return None


def parse_tu(ci, path, include_dir):
    return ci.Index.create().parse(
        path, args=["-std=c++20", "-x", "c++", "-I" + include_dir])


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


def report(args, tool, rules, findings, root, **doc):
    """Print @p findings as a SARIF 2.1.0 log (--sarif), as the tool's
    JSON document with @p doc's keys after them (--json), or one line
    each. True when a machine format was printed: the tool adds its
    text summary only otherwise."""
    if args.sarif:
        print(json.dumps(to_sarif(tool, rules, findings, root), indent=2))
    elif args.json:
        print(json.dumps({"schema_version": SCHEMA_VERSION, "tool": tool,
                          "findings": findings, **doc}, indent=2))
    else:
        for f in findings:
            print(f"{f['path']}:{f['line']}: [{f['rule']}] "
                  f"{f['message']}")
    return args.sarif or args.json
