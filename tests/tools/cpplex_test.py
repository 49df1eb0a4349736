#!/usr/bin/env python3
"""Self-test for tools/cpplex.py — the lexer / scope-walker /
emitter scaffolding shared by jethot, jetrace, and detlint.

Pins the pieces the three tools rely on: comment/string stripping
(incl. multi-line block comments), scope classification (namespace /
class / function / lambda / control block, and that JETSIM_HOT /
JETSIM_COLD_OK annotations on a definition do not confuse it), the
char-level Walker contract (on_open after push, on_close after pop,
statement events with paren-aware `;` handling so for-headers and
C++17 if-initializers stay whole), Tarjan cycle detection, the
per-tool allow() suppression matcher, and the shared SARIF 2.1.0
emitter.

Run directly or via ctest (registered in tests/CMakeLists.txt).
"""

import importlib.util
import json
import os
import subprocess
import sys
import tempfile
import unittest

TOOLS = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                     os.pardir, os.pardir, "tools")
CPPLEX = os.path.join(TOOLS, "cpplex.py")

spec = importlib.util.spec_from_file_location("cpplex", CPPLEX)
cpplex = importlib.util.module_from_spec(spec)
spec.loader.exec_module(cpplex)


class StripNoiseTest(unittest.TestCase):
    def test_line_comment(self):
        code, blk = cpplex.strip_noise("int x; // trailing", False)
        self.assertEqual(code.strip(), "int x;")
        self.assertFalse(blk)

    def test_string_with_brace(self):
        code, _ = cpplex.strip_noise('call("{;}");', False)
        self.assertNotIn("{", code.replace('""', ""))

    def test_block_comment_spans_lines(self):
        code, blk = cpplex.strip_noise("int a; /* open", False)
        self.assertTrue(blk)
        self.assertEqual(code.strip(), "int a;")
        code, blk = cpplex.strip_noise("still out */ int b;", True)
        self.assertFalse(blk)
        self.assertEqual(code.strip(), "int b;")

    def test_strip_file(self):
        lines = cpplex.strip_file(
            ['int a; /* x', 'y */ int b; // z'])
        self.assertEqual([ln.strip() for ln in lines],
                         ["int a;", "int b;"])


class ClassifyOpenTest(unittest.TestCase):
    def kind(self, text):
        return cpplex.classify_open(text).kind

    def test_namespace(self):
        sc = cpplex.classify_open("namespace jetsim::sim")
        self.assertEqual((sc.kind, sc.name),
                         ("namespace", "jetsim::sim"))

    def test_class(self):
        sc = cpplex.classify_open("class EventQueue")
        self.assertEqual((sc.kind, sc.name), ("class", "EventQueue"))
        sc = cpplex.classify_open("struct alignas(64) Shard")
        self.assertEqual((sc.kind, sc.name), ("class", "Shard"))

    def test_function_qualified(self):
        sc = cpplex.classify_open("void EventQueue::dispatch(int k)")
        self.assertEqual((sc.kind, sc.name),
                         ("function", "EventQueue::dispatch"))

    def test_control_is_block(self):
        self.assertEqual(self.kind("if (ready(x))"), "block")
        self.assertEqual(self.kind("for (int i = 0; i < n; ++i)"),
                         "block")
        self.assertEqual(self.kind("while (x.load())"), "block")

    def test_if_constexpr_is_block(self):
        self.assertEqual(self.kind("if constexpr (fitsInline<D>())"),
                         "block")

    def test_template_defaults_do_not_hide_a_function(self):
        # `typename D = ...` is not a brace initializer.
        sc = cpplex.classify_open(
            "template <typename F, typename D = std::decay_t<F>, "
            "typename = std::enable_if_t<!std::is_same_v<D, X>>> "
            "InlineFn(F &&f)")
        self.assertEqual((sc.kind, sc.name), ("function", "InlineFn"))

    def test_lambda(self):
        self.assertEqual(
            cpplex.classify_open("eq_.schedule(t, [this]").name,
            "<lambda>")

    def test_braced_call_argument_is_block(self):
        # A call whose braced argument starts on the next line, as in
        # `by_buffer[...].push_back(\n {i, write})`: keyed as a
        # function `push_back`, it swallowed every `x.push_back(...)`
        # call in src/.
        self.assertEqual(
            self.kind("by_buffer[static_cast<std::size_t>(buf)]"
                      ".push_back("), "block")
        self.assertEqual(self.kind("ring.push(Msg{when, f(x), "),
                         "block")
        # A lambda argument opens a lambda, even after a parenthesised
        # argument: it is not a function named after the callee.
        for text in ("eq.scheduleIn(f(gap), [this]",
                     "engine.post(sub, shard, engine.shard(shard).now()"
                     " + fanout, [srv, origin]",
                     "std::sort(v.begin(), v.end(), [](int a, int b)"):
            sc = cpplex.classify_open(text)
            self.assertEqual((sc.kind, sc.name), ("function", "<lambda>"),
                             text)

    def test_annotation_macros_stripped(self):
        sc = cpplex.classify_open(
            'JETSIM_COLD_OK("ring growth") void Fifo::grow()')
        self.assertEqual((sc.kind, sc.name),
                         ("function", "Fifo::grow"))
        sc = cpplex.classify_open("JETSIM_HOT void dispatch()")
        self.assertEqual((sc.kind, sc.name),
                         ("function", "dispatch"))


class WalkerTest(unittest.TestCase):
    def walk(self, src):
        events = []
        w = cpplex.Walker(
            on_open=lambda sc, sig, ln: events.append(
                ("open", sc.kind, sc.name, ln)),
            on_close=lambda sc: events.append(("close", sc.kind)),
            on_statement=lambda st, ln: events.append(
                ("stmt", " ".join(st.split()), ln)))
        w.run(cpplex.strip_file(src.splitlines()))
        return events

    def test_scopes_and_statements(self):
        ev = self.walk("void f()\n{\n    int x = 1;\n}\n")
        self.assertEqual(ev[0][:3], ("open", "function", "f"))
        self.assertEqual(ev[1][:2], ("stmt", "int x = 1"))
        self.assertEqual(ev[2], ("close", "function"))

    def test_semicolons_inside_parens_do_not_split(self):
        # C++17 if-initializer: the `;` inside the condition parens
        # must not end the statement — a split here misreads the
        # tail `!ts.empty())` as a function definition.
        ev = self.walk(
            "void f()\n{\n"
            "    if (const auto &ts = env().threads; !ts.empty()) {\n"
            "        use(ts);\n"
            "    }\n"
            "}\n")
        kinds = [(e[0], e[1]) for e in ev if e[0] == "open"]
        self.assertEqual(kinds,
                         [("open", "function"), ("open", "block")])

    def test_for_header_stays_whole(self):
        ev = self.walk(
            "void f()\n{\n"
            "    for (int i = 0; i < n; ++i) {\n"
            "        g(i);\n"
            "    }\n"
            "}\n")
        opens = [e for e in ev if e[0] == "open" and e[1] == "block"]
        self.assertEqual(len(opens), 1)
        stmts = [e[1] for e in ev if e[0] == "stmt"]
        self.assertEqual(stmts, ["g(i)"])

    def test_lambda_in_arg_list_restores_depth(self):
        ev = self.walk(
            "void f()\n{\n"
            "    eq_.schedule(t, [this] {\n"
            "        tick();\n"
            "    });\n"
            "    done();\n"
            "}\n")
        names = [e[2] for e in ev if e[0] == "open"]
        self.assertIn("<lambda>", names)
        stmts = [e[1] for e in ev if e[0] == "stmt"]
        self.assertIn("done()", stmts)

    def test_pending_start_tracks_statement_spans(self):
        starts = []
        w = cpplex.Walker()
        w.on_statement = lambda st, ln: starts.append(
            (w.pending_start, ln))
        w.run(cpplex.strip_file(
            "void f()\n{\n    g(a,\n      b);\n}\n".splitlines()))
        self.assertEqual(starts, [(3, 4)])


class CallGraphTest(unittest.TestCase):
    def graph(self):
        g = cpplex.CallGraph()
        for key in ("A::tick", "A::run", "B::run", "B::stop", "free"):
            g.node(key)
        return g

    def test_call_sites(self):
        self.assertEqual(
            cpplex.call_sites("if (ok(a.run(), p->stop(), this->run(),"
                              " ns::B::run(), JETSIM_CHECK(x),"
                              " n_.load()))"),
            [("ok", False), ("run", True), ("stop", True),
             ("run", False), ("B::run", False)])

    def test_exact_key_first(self):
        self.assertEqual(self.graph().resolve("A::tick", "B::run"),
                         ("B::run",))
        self.assertEqual(self.graph().resolve("A::tick", "free"),
                         ("free",))

    def test_bare_and_this_calls_prefer_the_own_class(self):
        g = self.graph()
        for callee, on_object in cpplex.call_sites("run(); this->run();"):
            self.assertEqual(g.resolve("A::tick", callee, on_object),
                             ("A::run",))

    def test_base_name_fallback(self):
        g = self.graph()
        self.assertEqual(g.resolve("free", "run"), ("A::run", "B::run"))
        self.assertEqual(g.resolve("A::tick", "stop"), ("B::stop",))
        self.assertEqual(g.resolve("A::run", "run", on_object=True),
                         ("B::run",))  # never the caller itself

    def test_call_on_an_object_reaches_every_namesake(self):
        g = self.graph()
        for callee, on_object in cpplex.call_sites("x.run(); p->run();"):
            self.assertEqual(g.resolve("A::tick", callee, on_object),
                             ("A::run", "B::run"))

    def test_walker_keys_functions_and_lambdas(self):
        src = ("#define CHECK(x) do { report(x); } while (0)\n"
               "struct A {\n"
               "    void run();\n"
               "    void tick() { run(); log_.flush(); }\n"
               "};\n"
               "void A::run() { auto f = [this] { helper(); }; f(); }\n"
               "void helper() {}\n")
        g = cpplex.CallGraph()
        w = cpplex.GraphWalker(g, "t.cc")
        w.on_statement = lambda st, ln: w.fn and w.add_calls(st, ln)
        w.run(cpplex.strip_file(src.splitlines()))
        self.assertEqual(sorted(g.nodes), ["<lambda@t.cc:6>", "A::run",
                                           "A::tick", "helper"])
        calls = {k: [(c.callee, c.on_object, c.line)
                     for c in r["calls"]] for k, r in g.nodes.items()}
        self.assertEqual(calls["A::tick"],
                         [("run", False, 4), ("flush", True, 4)])
        self.assertEqual(calls["A::run"][0], ("<lambda@t.cc:6>", False, 6))
        self.assertEqual([k for k, _ in g.callees("<lambda@t.cc:6>")],
                         ["helper"])

    def test_lambda_argument_after_a_call_is_not_the_callee(self):
        # The lambda passed to post() is a node of its own; the call
        # q.post(...) in send() still reaches Q::post and nothing else.
        src = ("struct Q { void post(int a, int b, Fn f); };\n"
               "void Q::post(int a, int b, Fn f) { grow(); }\n"
               "void send(Q &q, int x) {\n"
               "    q.post(1, twice(x), [x] {\n"
               "        use(x);\n"
               "    });\n"
               "}\n")
        g = cpplex.CallGraph()
        w = cpplex.GraphWalker(g, "t.cc")
        # As the tools do: a lambda's opening text is the enclosing
        # function's statement.
        w.on_open = lambda sc, sig, ln: w.fn and w.add_calls(sig, ln)
        w.on_statement = lambda st, ln: w.fn and w.add_calls(st, ln)
        w.run(cpplex.strip_file(src.splitlines()))
        self.assertEqual(sorted(g.nodes),
                         ["<lambda@t.cc:4>", "Q::post", "send"])
        self.assertEqual([k for k, _ in g.callees("<lambda@t.cc:4>")], [])
        self.assertIn("Q::post", [k for k, _ in g.callees("send")])


# A stand-in for libclang's Python bindings: whatever file it parses,
# the AST it returns has root() calling hidden() at line 5, where the
# lexer sees only a macro.
FAKE_CINDEX = """\
class CursorKind:
    (TRANSLATION_UNIT, NAMESPACE, CLASS_DECL, STRUCT_DECL,
     CLASS_TEMPLATE, FUNCTION_DECL, CXX_METHOD, CONSTRUCTOR,
     DESTRUCTOR, CALL_EXPR, VAR_DECL) = range(11)


class StorageClass:
    STATIC = 0


class Location:
    def __init__(self, file, line):
        self.file, self.line = file, line


class Cursor:
    def __init__(self, kind, spelling, file, line, parent=None,
                 referenced=None):
        self.kind, self.spelling = kind, spelling
        self.location = Location(file, line)
        self.semantic_parent, self.referenced = parent, referenced
        self.children = []
        if parent is not None:
            parent.children.append(self)

    def get_children(self):
        return self.children

    def is_definition(self):
        return self.kind == CursorKind.FUNCTION_DECL


class Index:
    @staticmethod
    def create():
        return Index()

    def parse(self, path, args=None):
        tu = Cursor(CursorKind.TRANSLATION_UNIT, path, None, 0)
        hidden = Cursor(CursorKind.FUNCTION_DECL, "hidden", path, 4, tu)
        root = Cursor(CursorKind.FUNCTION_DECL, "root", path, 5, tu)
        Cursor(CursorKind.CALL_EXPR, "hidden", path, 5, root, hidden)
        return type("TU", (), {"cursor": tu})
"""

HIDDEN_CALL = """\
#define INVOKE(f) f()
Mutex lockA;
Mutex lockB;
void hidden() { LockGuard b(lockB); if (broken()) throw 1; }
JETSIM_HOT void root() { INVOKE(hidden); }
void outer() { LockGuard a(lockA); root(); }
"""


class LibclangBackendTest(unittest.TestCase):
    """The AST's call edges widen the one call graph for both tools.
    No bindings ship here, so a fake clang.cindex goes on the tools'
    sys.path."""

    def run_tool(self, tool, backend):
        with tempfile.TemporaryDirectory() as td:
            os.makedirs(os.path.join(td, "fake", "clang"))
            open(os.path.join(td, "fake", "clang", "__init__.py"),
                 "w").close()
            with open(os.path.join(td, "fake", "clang", "cindex.py"),
                      "w") as f:
                f.write(FAKE_CINDEX)
            path = os.path.join(td, "hidden.cc")
            with open(path, "w") as f:
                f.write(HIDDEN_CALL)
            env = dict(os.environ, PYTHONPATH=os.path.join(td, "fake"))
            proc = subprocess.run(
                [sys.executable, os.path.join(TOOLS, tool),
                 "--backend", backend, "--json", "--root", td, path],
                capture_output=True, text=True, env=env)
        return proc.returncode, json.loads(proc.stdout)

    def test_jethot_reaches_a_throw_through_an_ast_edge(self):
        code, doc = self.run_tool("jethot.py", "libclang")
        self.assertEqual(code, 1, doc)
        throws = [f["chain"] for f in doc["findings"]
                  if f["rule"] == "hot-throw"]
        self.assertEqual(throws, [["root", "hidden"]])
        code, doc = self.run_tool("jethot.py", "lex")
        self.assertEqual((code, doc["findings"]), (0, []))

    def test_jetrace_adds_the_lock_edge_an_ast_edge_carries(self):
        def edges(doc):
            return [(e["from"], e["to"])
                    for e in doc["lock_graph"]["edges"]]
        code, doc = self.run_tool("jetrace.py", "libclang")
        self.assertEqual((code, edges(doc)), (0, [("lockA", "lockB")]))
        code, doc = self.run_tool("jetrace.py", "lex")
        self.assertEqual((code, edges(doc)), (0, []))


class FindCyclesTest(unittest.TestCase):
    def test_cycle_found(self):
        cyc = cpplex.find_cycles(
            ["a", "b", "c"], {("a", "b"), ("b", "a"), ("b", "c")})
        self.assertTrue(any(set(c) == {"a", "b"} for c in cyc))

    def test_acyclic(self):
        self.assertEqual(
            cpplex.find_cycles(["a", "b"], {("a", "b")}), [])

    def test_self_edge(self):
        self.assertTrue(
            cpplex.find_cycles(["a"], {("a", "a")}))


class AllowMatcherTest(unittest.TestCase):
    def test_same_line_and_line_above(self):
        allowed = cpplex.allow_matcher("jethot")
        lines = ["// jethot: allow(hot-spin) bounded",
                 "while (!cas()) {}",
                 "x.lock();  // jethot: allow(hot-lock) startup"]
        self.assertTrue(allowed(lines, 1, "hot-spin"))
        self.assertTrue(allowed(lines, 2, "hot-lock"))
        self.assertFalse(allowed(lines, 1, "hot-lock"))
        self.assertFalse(allowed(lines, 2, "hot-spin"))

    def test_comma_list_and_tool_isolation(self):
        jethot = cpplex.allow_matcher("jethot")
        detlint = cpplex.allow_matcher("detlint")
        lines = ["// jethot: allow(hot-spin, hot-io) barrier"]
        self.assertTrue(jethot(lines, 0, "hot-io"))
        self.assertFalse(detlint(lines, 0, "hot-io"))


class SarifTest(unittest.TestCase):
    def test_shape_and_properties(self):
        doc = cpplex.to_sarif(
            "jethot", [("hot-alloc", "heap allocation")],
            [{"path": "/r/src/a.cc", "line": 7, "rule": "hot-alloc",
              "message": "operator new", "chain": ["root", "f"]}],
            root="/r")
        self.assertEqual(doc["version"], "2.1.0")
        run = doc["runs"][0]
        self.assertEqual(run["tool"]["driver"]["name"], "jethot")
        self.assertEqual(run["tool"]["driver"]["rules"][0]["id"],
                         "hot-alloc")
        res = run["results"][0]
        self.assertEqual(res["ruleId"], "hot-alloc")
        loc = res["locations"][0]["physicalLocation"]
        self.assertEqual(loc["artifactLocation"]["uri"], "src/a.cc")
        self.assertEqual(loc["region"]["startLine"], 7)
        self.assertEqual(res["properties"]["chain"], ["root", "f"])


if __name__ == "__main__":
    unittest.main(verbosity=2)
