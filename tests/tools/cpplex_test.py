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
import os
import unittest

CPPLEX = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      os.pardir, os.pardir, "tools", "cpplex.py")

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
        return cpplex.classify_open(text, 1).kind

    def test_namespace(self):
        sc = cpplex.classify_open("namespace jetsim::sim", 1)
        self.assertEqual((sc.kind, sc.name),
                         ("namespace", "jetsim::sim"))

    def test_class(self):
        sc = cpplex.classify_open("class EventQueue", 1)
        self.assertEqual((sc.kind, sc.name), ("class", "EventQueue"))

    def test_function_qualified(self):
        sc = cpplex.classify_open("void EventQueue::dispatch(int k)",
                                  1)
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
            "InlineFn(F &&f)", 1)
        self.assertEqual((sc.kind, sc.name), ("function", "InlineFn"))

    def test_lambda(self):
        self.assertEqual(
            cpplex.classify_open("eq_.schedule(t, [this]", 1).name,
            "<lambda>")

    def test_annotation_macros_stripped(self):
        sc = cpplex.classify_open(
            'JETSIM_COLD_OK("slab growth") void EventPool::grow()', 1)
        self.assertEqual((sc.kind, sc.name),
                         ("function", "EventPool::grow"))
        sc = cpplex.classify_open("JETSIM_HOT void dispatch()", 1)
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
