#!/usr/bin/env python3
"""Self-test for tools/lint.py.

Exercises the comment/string stripper (including the C++ raw-string
handling that once confused it) and every lint rule, positive and
negative, against synthetic files in a temp tree. Run directly or via
tools/ci.sh; exit status 0 means the linter behaves as documented.
"""

import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import lint  # noqa: E402


def rules_for(path, text, treat_as_src=False):
    """Writes text at path (relative to the fake repo root), lints it, and
    returns the sorted set of rule names found."""
    ap = os.path.join(lint.REPO_ROOT, path)
    os.makedirs(os.path.dirname(ap), exist_ok=True)
    with open(ap, "w", encoding="utf-8") as f:
        f.write(text)
    findings = []
    lint.check_file(ap, findings, treat_as_src=treat_as_src)
    return sorted({rule for _, _, rule, _ in findings})


class LintTestBase(unittest.TestCase):
    def setUp(self):
        self._tmp = tempfile.TemporaryDirectory(prefix="lint_test_")
        self._saved_root = lint.REPO_ROOT
        lint.REPO_ROOT = self._tmp.name

    def tearDown(self):
        lint.REPO_ROOT = self._saved_root
        self._tmp.cleanup()


class StripTest(LintTestBase):
    def strip(self, text):
        return lint.strip_comments_and_strings(text)

    def test_line_and_block_comments_blanked(self):
        s = self.strip("int x; // new Foo\n/* delete p; */ int y;\n")
        self.assertNotIn("new", s)
        self.assertNotIn("delete", s)
        self.assertIn("int x;", s)
        self.assertIn("int y;", s)

    def test_ordinary_string_contents_blanked(self):
        s = self.strip('auto s = "std::mutex mu; new Foo";\n')
        self.assertNotIn("mutex", s)
        self.assertNotIn("new", s)

    def test_raw_string_contents_blanked(self):
        s = self.strip('auto s = R"(std::mutex mu; new Foo)";\nint z;\n')
        self.assertNotIn("mutex", s)
        self.assertNotIn("new", s)
        self.assertIn("int z;", s)

    def test_raw_string_with_delimiter(self):
        # The inner )" must NOT close a delimited raw string.
        s = self.strip('auto s = R"x(a )" b new C)x"; int after;\n')
        self.assertNotIn("new", s)
        self.assertIn("int after;", s)

    def test_raw_string_quote_inside_does_not_flip_state(self):
        # A `"` inside the raw string must not open a phantom string state
        # that swallows the following code.
        s = self.strip('auto s = R"(say "hi")";\nint visible = 1;\n')
        self.assertIn("int visible = 1;", s)

    def test_raw_string_preserves_line_count(self):
        text = 'auto s = R"(line1\nline2\nline3)";\nint q;\n'
        s = self.strip(text)
        self.assertEqual(s.count("\n"), text.count("\n"))
        self.assertIn("int q;", s)

    def test_encoding_prefixes(self):
        for prefix in ("u8R", "uR", "UR", "LR"):
            s = self.strip(f'auto s = {prefix}"(new Foo)";\n')
            self.assertNotIn("new", s, msg=prefix)

    def test_identifier_ending_in_r_is_not_a_raw_prefix(self):
        # FOOR"..." is the identifier FOOR then an ordinary string: the
        # quote inside would end it early if misparsed as raw.
        s = self.strip('auto s = FOOR"abc";\nint keep;\n')
        self.assertIn("FOOR", s)
        self.assertIn("int keep;", s)

    def test_unterminated_raw_string_blanks_to_eof(self):
        s = self.strip('auto s = R"(never closed\nnew Foo\n')
        self.assertNotIn("new", s)

    def test_escaped_quote_in_ordinary_string(self):
        s = self.strip('auto s = "a\\"b new c"; int tail;\n')
        self.assertNotIn("new", s)
        self.assertIn("int tail;", s)


class RulesTest(LintTestBase):
    def test_pragma_once_missing(self):
        self.assertIn("pragma-once", rules_for("src/a.h", "int f();\n"))

    def test_pragma_once_present(self):
        self.assertEqual(rules_for("src/a.h", "#pragma once\nint f();\n"), [])

    def test_using_namespace_in_header(self):
        text = "#pragma once\nusing namespace std;\n"
        self.assertIn("using-namespace", rules_for("src/b.h", text))

    def test_raw_random_flagged_and_allowlisted(self):
        text = "int f() { return rand(); }\n"
        self.assertIn("raw-random", rules_for("src/c.cc", text))
        self.assertEqual(rules_for("src/common/rng.cc", text), [])

    def test_naked_new_only_in_src(self):
        text = "auto* p = new int(3);\n"
        self.assertIn("naked-new", rules_for("src/d.cc", text))
        self.assertEqual(rules_for("tests/d_test.cc", text), [])

    def test_raw_mutex_flagged_everywhere(self):
        for path in ("src/e.cc", "tests/e_test.cc", "bench/e_bench.cc"):
            self.assertIn(
                "raw-mutex",
                rules_for(path, "std::mutex mu;\n"), msg=path)

    def test_raw_mutex_variants(self):
        for decl in ("std::shared_mutex m;",
                     "std::lock_guard<std::mutex> l(m);",
                     "std::unique_lock<std::mutex> l(m);",
                     "std::shared_lock<std::shared_mutex> l(m);",
                     "std::scoped_lock l(m);",
                     "std::condition_variable cv;",
                     "std::condition_variable_any cv;",
                     "std::recursive_mutex rm;"):
            self.assertIn("raw-mutex", rules_for("src/f.cc", decl + "\n"),
                          msg=decl)

    def test_raw_mutex_allowlisted_in_sync_facade(self):
        text = "#pragma once\nstd::mutex mu_;\n"
        self.assertEqual(rules_for("src/common/sync.h", text), [])

    def test_raw_mutex_not_fooled_by_lookalikes(self):
        for line in ("ie::Mutex mu;", "MutexLock lock(mu);",
                     "// std::mutex in a comment",
                     'auto s = "std::mutex in a string";'):
            self.assertEqual(rules_for("src/g.cc", line + "\n"), [], msg=line)

    def test_raw_mutex_in_raw_string_not_flagged(self):
        # Regression: before the raw-string fix the stripper lost sync
        # after R"(...)" and leaked literal contents into "code".
        text = 'auto doc = R"(use std::mutex here)";\n'
        self.assertEqual(rules_for("src/h.cc", text), [])

    def test_code_after_raw_string_still_linted(self):
        # Regression: the misparse could also blank REAL code after a raw
        # string (the phantom string state), hiding genuine findings.
        text = 'auto doc = R"(say "hi")";\nstd::mutex mu;\n'
        self.assertEqual(rules_for("src/i.cc", text), ["raw-mutex"])

    def test_nolint_suppression(self):
        for rule, line in (
                ("raw-mutex", "std::mutex mu;  // NOLINT(ie-raw-mutex)"),
                ("naked-new", "auto* p = new int;  // NOLINT(ie-naked-new)"),
                ("raw-random", "int x = rand();  // NOLINT(ie-raw-random)")):
            self.assertEqual(rules_for("src/j.cc", line + "\n"), [], msg=rule)

    def test_nolint_wrong_rule_does_not_suppress(self):
        text = "std::mutex mu;  // NOLINT(ie-naked-new)\n"
        self.assertEqual(rules_for("src/k.cc", text), ["raw-mutex"])


UNORDERED_LOOP = (
    "std::unordered_map<int, double> counts;\n"
    "void f() {\n"
    "  for (const auto& [k, v] : counts) {}\n"
    "}\n")


class UnorderedIterationTest(LintTestBase):
    def test_range_for_flagged(self):
        self.assertIn("unordered-iteration",
                      rules_for("src/a.cc", UNORDERED_LOOP))

    def test_begin_iteration_flagged(self):
        text = ("std::unordered_set<int> seen;\n"
                "void f() {\n"
                "  for (auto it = seen.begin(); it != seen.end(); ++it) {}\n"
                "}\n")
        self.assertIn("unordered-iteration", rules_for("src/b.cc", text))

    def test_cbegin_flagged(self):
        text = ("std::unordered_map<int, int> m;\n"
                "auto it = m.cbegin();\n")
        self.assertIn("unordered-iteration", rules_for("src/b2.cc", text))

    def test_waiver_with_reason_suppresses(self):
        text = ("std::unordered_map<int, double> counts;\n"
                "void f() {\n"
                "  // DETERMINISM: order-insensitive (order-free tally)\n"
                "  for (const auto& [k, v] : counts) {}\n"
                "}\n")
        self.assertEqual(rules_for("src/c.cc", text), [])

    def test_waiver_without_reason_does_not_suppress(self):
        for stale in ("// DETERMINISM: order-insensitive",
                      "// DETERMINISM: order-insensitive ()",
                      "// DETERMINISM: order-insensitive (   )"):
            text = ("std::unordered_map<int, double> counts;\n"
                    "void f() {\n"
                    f"  {stale}\n"
                    "  for (const auto& [k, v] : counts) {}\n"
                    "}\n")
            self.assertIn("unordered-iteration",
                          rules_for("src/d.cc", text), msg=stale)

    def test_multiline_waiver_reason_suppresses(self):
        text = ("std::unordered_map<int, double> counts;\n"
                "void f() {\n"
                "  // DETERMINISM: order-insensitive (a long reason that\n"
                "  // wraps to a second comment line)\n"
                "  for (const auto& [k, v] : counts) {}\n"
                "}\n")
        self.assertEqual(rules_for("src/e.cc", text), [])

    def test_nolint_suppresses(self):
        text = ("std::unordered_map<int, double> counts;\n"
                "void f() {\n"
                "  for (const auto& [k, v] : counts) {}"
                "  // NOLINT(ie-unordered-iteration)\n"
                "}\n")
        self.assertEqual(rules_for("src/f.cc", text), [])

    def test_ordered_map_not_flagged(self):
        text = ("std::map<int, double> counts;\n"
                "void f() {\n"
                "  for (const auto& [k, v] : counts) {}\n"
                "}\n")
        self.assertEqual(rules_for("src/g.cc", text), [])

    def test_facade_header_allowlisted(self):
        text = "#pragma once\n" + UNORDERED_LOOP
        self.assertEqual(rules_for("src/common/ordered.h", text), [])

    def test_scoped_to_src_unless_treat_as_src(self):
        self.assertEqual(rules_for("tests/h_test.cc", UNORDERED_LOOP), [])
        self.assertIn("unordered-iteration",
                      rules_for("tests/h_test.cc", UNORDERED_LOOP,
                                treat_as_src=True))

    def test_companion_header_members_recognized(self):
        header = ("#pragma once\n"
                  "#include <unordered_map>\n"
                  "class Thing {\n"
                  "  std::unordered_map<int, double> scores_;\n"
                  "  void Dump();\n"
                  "};\n")
        source = ("#include \"src/i.h\"\n"
                  "void Thing::Dump() {\n"
                  "  for (const auto& [k, v] : scores_) {}\n"
                  "}\n")
        self.assertEqual(rules_for("src/i.h", header), [])
        self.assertIn("unordered-iteration", rules_for("src/i.cc", source))

    def test_loop_in_raw_string_not_flagged(self):
        text = ("std::unordered_map<int, double> counts;\n"
                'auto doc = R"(for (const auto& [k, v] : counts) {})";\n')
        self.assertEqual(rules_for("src/j.cc", text), [])

    def test_lookup_only_use_not_flagged(self):
        text = ("std::unordered_map<int, double> counts;\n"
                "double get(int k) { return counts.at(k); }\n"
                "bool has(int k) { return counts.find(k) != counts.end(); }\n")
        self.assertEqual(rules_for("src/k.cc", text), [])

    def test_foreach_on_untracked_name_not_flagged(self):
        # `counts` is tracked, so the rule runs on this file; only the name
        # tracking decides whether an iteration over `visitor` is flagged.
        tracked = "std::unordered_map<int, double> counts;\n"
        for use in ("void f() { for (int k : visitor) Use(k); }\n",
                    "void f() { auto it = visitor.begin(); }\n"):
            self.assertEqual(
                rules_for("src/o.cc",
                          tracked + "OrderedVisitor visitor;\n" + use),
                [], msg=use)
            self.assertIn(
                "unordered-iteration",
                rules_for("src/o.cc", tracked +
                          "std::unordered_map<int, int> visitor;\n" + use),
                msg=use)


class PointerKeyTest(LintTestBase):
    def test_pointer_keyed_unordered_map_flagged(self):
        text = "std::unordered_map<Foo*, int> by_ptr;\n"
        self.assertIn("pointer-key", rules_for("src/a.cc", text))

    def test_pointer_keyed_set_flagged(self):
        for decl in ("std::unordered_set<const Node*> seen;",
                     "std::set<Node*> seen;",
                     "std::map<const Doc*, int> m;"):
            self.assertIn("pointer-key", rules_for("src/b.cc", decl + "\n"),
                          msg=decl)

    def test_pointer_value_not_flagged(self):
        text = "std::unordered_map<int, Foo*> by_id;\n"
        self.assertEqual(rules_for("src/c.cc", text), [])

    def test_std_hash_of_pointer_flagged(self):
        text = "size_t h = std::hash<Foo*>{}(p);\n"
        self.assertIn("pointer-key", rules_for("src/d.cc", text))

    def test_nolint_suppresses(self):
        text = ("std::unordered_map<Foo*, int> m;"
                "  // NOLINT(ie-pointer-key)\n")
        self.assertEqual(rules_for("src/e.cc", text), [])


EXPORT_MARKER = "// detlint: export-path\n"


class LocaleFormatTest(LintTestBase):
    def test_to_string_flagged_in_export_path(self):
        text = EXPORT_MARKER + "auto s = std::to_string(3.14);\n"
        self.assertIn("locale-format", rules_for("src/a.cc", text))

    def test_no_marker_no_finding(self):
        text = "auto s = std::to_string(3.14);\n"
        self.assertEqual(rules_for("src/b.cc", text), [])

    def test_printf_float_conversion_flagged(self):
        text = EXPORT_MARKER + \
            'std::snprintf(buf, sizeof(buf), "%.9g", v);\n'
        self.assertIn("locale-format", rules_for("src/c.cc", text))

    def test_printf_integer_conversion_not_flagged(self):
        text = EXPORT_MARKER + \
            'std::snprintf(buf, sizeof(buf), "%d-%u", a, b);\n'
        self.assertEqual(rules_for("src/d.cc", text), [])

    def test_stream_machinery_flagged(self):
        for line in ("std::ostringstream os;",
                     "os << std::setprecision(9);",
                     "std::cout << value;"):
            text = EXPORT_MARKER + line + "\n"
            self.assertIn("locale-format", rules_for("src/e.cc", text),
                          msg=line)

    def test_nolint_suppresses(self):
        text = EXPORT_MARKER + \
            "auto s = std::to_string(x);  // NOLINT(ie-locale-format)\n"
        self.assertEqual(rules_for("src/f.cc", text), [])


PARALLEL_INCLUDE = '#include "common/parallel.h"\n'


class FloatReduceTest(LintTestBase):
    def test_float_accumulate_flagged_with_parallel(self):
        text = PARALLEL_INCLUDE + \
            "double s = std::accumulate(v.begin(), v.end(), 0.0);\n"
        self.assertIn("float-reduce", rules_for("src/a.cc", text))

    def test_float_reduce_flagged(self):
        text = PARALLEL_INCLUDE + \
            "auto s = std::reduce(v.begin(), v.end(), double{0});\n"
        self.assertIn("float-reduce", rules_for("src/b.cc", text))

    def test_integer_accumulate_not_flagged(self):
        text = PARALLEL_INCLUDE + \
            "int s = std::accumulate(v.begin(), v.end(), 0);\n"
        self.assertEqual(rules_for("src/c.cc", text), [])

    def test_no_parallel_include_not_flagged(self):
        text = "double s = std::accumulate(v.begin(), v.end(), 0.0);\n"
        self.assertEqual(rules_for("src/d.cc", text), [])

    def test_nolint_suppresses(self):
        text = PARALLEL_INCLUDE + \
            "double s = std::accumulate(v.begin(), v.end(), 0.0);" \
            "  // NOLINT(ie-float-reduce)\n"
        self.assertEqual(rules_for("src/e.cc", text), [])


class JsonOutputTest(LintTestBase):
    def test_json_format_lists_findings(self):
        import contextlib
        import io
        import json as json_mod
        path = os.path.join(lint.REPO_ROOT, "src", "bad.cc")
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as f:
            f.write("std::mutex mu;\n")
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            status = lint.main(["lint.py", "--format=json", "src/bad.cc"])
        self.assertEqual(status, 1)
        doc = json_mod.loads(out.getvalue())
        self.assertEqual(doc["files_checked"], 1)
        self.assertEqual([f["rule"] for f in doc["findings"]], ["raw-mutex"])
        self.assertEqual(doc["findings"][0]["line"], 1)

    def test_json_format_clean_file(self):
        import contextlib
        import io
        import json as json_mod
        path = os.path.join(lint.REPO_ROOT, "src", "ok.cc")
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as f:
            f.write("int f() { return 1; }\n")
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            status = lint.main(["lint.py", "--format=json", "src/ok.cc"])
        self.assertEqual(status, 0)
        self.assertEqual(json_mod.loads(out.getvalue())["findings"], [])

    def test_detlint_corpus_dir_pruned_from_walk(self):
        case_dir = os.path.join(lint.REPO_ROOT, "tests", "detlint", "cases")
        os.makedirs(case_dir, exist_ok=True)
        with open(os.path.join(case_dir, "violation.cc"), "w",
                  encoding="utf-8") as f:
            f.write("std::mutex mu;\n")
        files = lint.collect_files(["tests"])
        self.assertEqual(files, [])


class LayeringTest(LintTestBase):
    def test_up_include_flagged(self):
        self.assertEqual(
            rules_for("src/ranking/foo.cc",
                      '#include "pipeline/result.h"\nint x;\n'),
            ["layering-violation"])

    def test_down_include_clean(self):
        self.assertEqual(
            rules_for("src/pipeline/foo.cc",
                      '#include "ranking/document_ranker.h"\n'
                      '#include "common/status.h"\nint x;\n'),
            [])

    def test_linked_module_allowed(self):
        # ie_extract links ie_learn.
        self.assertEqual(
            rules_for("src/extract/foo.cc",
                      '#include "learn/linear_model.h"\nint x;\n'),
            [])

    def test_unlinked_module_flagged(self):
        # ...but ie_learn does not link ie_extract.
        self.assertEqual(
            rules_for("src/learn/foo.cc",
                      '#include "extract/ner.h"\nint x;\n'),
            ["layering-violation"])

    def test_module_the_build_does_not_link_flagged(self):
        # Neither ie_learn nor ie_index links ie_corpus, though both sit
        # above it in the layer order the lint once declared by hand.
        for path in ("src/learn/foo.cc", "src/index/foo.cc"):
            self.assertEqual(
                rules_for(path, '#include "corpus/corpus.h"\nint x;\n'),
                ["layering-violation"], msg=path)

    def test_transitively_linked_module_allowed(self):
        # ie_eval links ie_pipeline, so eval consumes the result record
        # with no waiver.
        self.assertEqual(
            rules_for("src/eval/foo.h",
                      "#pragma once\n"
                      '#include "pipeline/result.h"\n'
                      '#include "ranking/document_ranker.h"\nint x;\n'),
            [])

    def test_skip_layer_up_include_flagged(self):
        self.assertEqual(
            rules_for("src/text/foo.cc",
                      '#include "corpus/corpus.h"\nint x;\n'),
            ["layering-violation"])

    def test_module_marker_overrides_path(self):
        # A file outside src/ pinned to a module by marker carries that
        # module's layering obligations (corpus cases rely on this).
        self.assertEqual(
            rules_for("scratch/foo.cc",
                      "// archlint: module=ranking\n"
                      '#include "pipeline/result.h"\nint x;\n'),
            ["layering-violation"])

    def test_top_trees_unconstrained(self):
        self.assertEqual(
            rules_for("bench/foo.cc",
                      '#include "pipeline/pipeline.h"\nint x;\n'),
            [])

    def test_sibling_include_carries_no_module(self):
        self.assertEqual(
            rules_for("src/ranking/foo.cc",
                      '#include "helper_local.h"\nint x;\n'),
            [])

    def test_waiver_with_reason_accepted(self):
        self.assertEqual(
            rules_for("src/ranking/foo.cc",
                      "// ARCH: layering (consumes the passive result "
                      "record only)\n"
                      '#include "pipeline/result.h"\nint x;\n'),
            [])

    def test_waiver_without_reason_rejected(self):
        self.assertEqual(
            rules_for("src/ranking/foo.cc",
                      "// ARCH: layering ()\n"
                      '#include "pipeline/result.h"\nint x;\n'),
            ["layering-violation"])

    def test_nolint_suppresses(self):
        self.assertEqual(
            rules_for("src/ranking/foo.cc",
                      '#include "pipeline/result.h"'
                      "  // NOLINT(ie-layering-violation)\nint x;\n"),
            [])

    def test_dag_closure_is_sane(self):
        # common is under every module, and no module that pipeline
        # links may include pipeline.
        for module in lint.SRC_MODULES - {"common"}:
            self.assertIn("common", lint.ALLOWED_INCLUDES[module],
                          msg=module)
        self.assertTrue(lint.ALLOWED_INCLUDES["pipeline"])
        for module in lint.ALLOWED_INCLUDES["pipeline"]:
            self.assertNotIn("pipeline", lint.ALLOWED_INCLUDES[module],
                             msg=module)


class ModuleGraphTest(LintTestBase):
    def write_tree(self, links):
        """Writes src/CMakeLists.txt with one add_subdirectory per module
        and src/<m>/CMakeLists.txt with the given link line (None: no
        target_link_libraries line at all); returns the src dir."""
        src = os.path.join(lint.REPO_ROOT, "src")
        os.makedirs(src)
        with open(os.path.join(src, "CMakeLists.txt"), "w",
                  encoding="utf-8") as f:
            f.write("".join("add_subdirectory(%s)\n" % m for m in links))
        for module, line in links.items():
            os.makedirs(os.path.join(src, module))
            with open(os.path.join(src, module, "CMakeLists.txt"), "w",
                      encoding="utf-8") as f:
                f.write("add_library(ie_%s STATIC %s.cc)\n" % (module, module))
                if line is not None:
                    f.write(line + "\n")
        return src

    def test_closure_over_multiline_link_lines(self):
        src = self.write_tree({
            "base": "target_link_libraries(ie_base PUBLIC Threads::Threads)",
            "mid": "target_link_libraries(ie_mid PUBLIC ie_base)",
            "top": "target_link_libraries(ie_top PUBLIC\n  ie_mid)",
        })
        self.assertEqual(lint.read_module_graph(src), {
            "base": frozenset(),
            "mid": frozenset({"base"}),
            "top": frozenset({"base", "mid"}),
        })

    def test_missing_link_line_raises(self):
        src = self.write_tree({
            "base": "target_link_libraries(ie_base PUBLIC Threads::Threads)",
            "mid": None,
        })
        with self.assertRaisesRegex(AssertionError, "ie_mid PUBLIC"):
            lint.read_module_graph(src)

    def test_link_cycle_raises(self):
        src = self.write_tree({
            "a": "target_link_libraries(ie_a PUBLIC ie_b)",
            "b": "target_link_libraries(ie_b PUBLIC ie_c)",
            "c": "target_link_libraries(ie_c PUBLIC ie_a)",
        })
        with self.assertRaisesRegex(AssertionError, "link cycle"):
            lint.read_module_graph(src)

    def test_link_to_unknown_target_raises(self):
        src = self.write_tree({
            "a": "target_link_libraries(ie_a PUBLIC ie_gone)",
        })
        with self.assertRaisesRegex(AssertionError, "not a module"):
            lint.read_module_graph(src)


class CycleTest(LintTestBase):
    def write(self, rel, text):
        ap = os.path.join(lint.REPO_ROOT, rel)
        os.makedirs(os.path.dirname(ap), exist_ok=True)
        with open(ap, "w", encoding="utf-8") as f:
            f.write(text)
        return ap

    def cycles(self, roots):
        findings = []
        lint.check_cycles(roots, findings)
        return findings

    def test_two_header_cycle_detected(self):
        a = self.write("src/m/a.h", '#include "m/b.h"\nint xa;\n')
        self.write("src/m/b.h", '#include "m/a.h"\nint xb;\n')
        findings = self.cycles([a])
        self.assertEqual(len(findings), 1)
        rel, line, rule, msg = findings[0]
        self.assertEqual(rule, "cycle")
        self.assertEqual(rel, "src/m/a.h")  # lexicographic anchor
        self.assertIn("src/m/b.h", msg)

    def test_cycle_found_transitively_from_tu(self):
        # The TU is not in the cycle; the graph chase must still find it.
        tu = self.write("src/m/use.cc", '#include "m/a.h"\nint y;\n')
        self.write("src/m/a.h", '#include "m/b.h"\n')
        self.write("src/m/b.h", '#include "m/a.h"\n')
        findings = self.cycles([tu])
        self.assertEqual([f[2] for f in findings], ["cycle"])

    def test_self_include_detected(self):
        a = self.write("src/m/self.h", '#include "m/self.h"\n')
        self.assertEqual([f[2] for f in self.cycles([a])], ["cycle"])

    def test_acyclic_graph_clean(self):
        a = self.write("src/m/a.h", '#include "m/b.h"\n')
        self.write("src/m/b.h", '#include "m/c.h"\n')
        self.write("src/m/c.h", "int z;\n")
        self.assertEqual(self.cycles([a]), [])

    def test_diamond_is_not_a_cycle(self):
        a = self.write("src/m/top.h",
                       '#include "m/l.h"\n#include "m/r.h"\n')
        self.write("src/m/l.h", '#include "m/base.h"\n')
        self.write("src/m/r.h", '#include "m/base.h"\n')
        self.write("src/m/base.h", "int z;\n")
        self.assertEqual(self.cycles([a]), [])

    def test_waiver_on_anchor_line_accepted(self):
        a = self.write(
            "src/m/a.h",
            '#include "m/b.h"  // ARCH: cycle (forward-decl split '
            "scheduled; tracked pair)\n")
        self.write("src/m/b.h", '#include "m/a.h"\n')
        self.assertEqual(self.cycles([a]), [])


class ConstEscapeTest(LintTestBase):
    def test_const_cast_flagged(self):
        self.assertEqual(
            rules_for("src/m/x.cc",
                      "int f(const int* p) "
                      "{ return *const_cast<int*>(p); }\n"),
            ["const-escape"])

    def test_mutable_member_flagged(self):
        self.assertEqual(
            rules_for("src/m/x.h",
                      "#pragma once\nstruct C { mutable long hits = 0; "
                      "};\n"),
            ["const-escape"])

    def test_sync_facade_primitive_exempt(self):
        self.assertEqual(
            rules_for("src/m/x.h",
                      "#pragma once\nstruct C {\n"
                      "  mutable ie::CondVar cv;\n"
                      "  mutable Mutex plain_mu;\n"
                      "};\n"),
            [])

    def test_lambda_mutable_exempt(self):
        self.assertEqual(
            rules_for("src/m/x.cc",
                      "auto f = [n = 0]() mutable { return ++n; };\n"),
            [])

    def test_waiver_with_reason_accepted(self):
        self.assertEqual(
            rules_for("src/m/x.h",
                      "#pragma once\nstruct C {\n"
                      "  // ARCH: const-escape (DCL cache guarded by mu;\n"
                      "  // readers see a published value)\n"
                      "  mutable long cache = 0;\n"
                      "};\n"),
            [])

    def test_waiver_without_reason_rejected(self):
        self.assertEqual(
            rules_for("src/m/x.cc",
                      "// ARCH: const-escape ()\n"
                      "int f(const int* p) "
                      "{ return *const_cast<int*>(p); }\n"),
            ["const-escape"])

    def test_outside_src_not_scoped(self):
        self.assertEqual(
            rules_for("scratch/x.cc",
                      "int f(const int* p) "
                      "{ return *const_cast<int*>(p); }\n"),
            [])


class SharedImmutableTest(LintTestBase):
    def test_nonconst_data_member_flagged(self):
        self.assertEqual(
            rules_for("src/m/x.h",
                      "#pragma once\n"
                      "struct IE_SHARED_IMMUTABLE S {\n"
                      "  const int* ok = nullptr;\n"
                      "  int* bad = nullptr;\n"
                      "};\n"),
            ["shared-immutable"])

    def test_mutable_member_flagged(self):
        rules = rules_for("src/m/x.h",
                          "#pragma once\n"
                          "struct IE_SHARED_IMMUTABLE S {\n"
                          "  mutable int dirty = 0;\n"
                          "};\n")
        self.assertIn("shared-immutable", rules)

    def test_nonconst_member_function_flagged(self):
        self.assertEqual(
            rules_for("src/m/x.h",
                      "#pragma once\n"
                      "struct IE_SHARED_IMMUTABLE S {\n"
                      "  const int* table = nullptr;\n"
                      "  void Rebind(const int* next) { table = next; }\n"
                      "};\n"),
            ["shared-immutable"])

    def test_conforming_type_clean(self):
        self.assertEqual(
            rules_for("src/m/x.h",
                      "#pragma once\n"
                      "struct IE_SHARED_IMMUTABLE S {\n"
                      "  const int* table = nullptr;\n"
                      "  const double* bias = nullptr;\n"
                      "  double BiasOrZero() const "
                      "{ return bias ? *bias : 0.0; }\n"
                      "  static const char* Name() { return \"S\"; }\n"
                      "};\n"),
            [])

    def test_constructor_exempt(self):
        self.assertEqual(
            rules_for("src/m/x.h",
                      "#pragma once\n"
                      "struct IE_SHARED_IMMUTABLE S {\n"
                      "  const int* table;\n"
                      "  explicit S(const int* t) : table(t) {}\n"
                      "};\n"),
            [])

    def test_unmarked_type_unconstrained(self):
        self.assertEqual(
            rules_for("src/m/x.h",
                      "#pragma once\nstruct Plain {\n"
                      "  int* scratch = nullptr;\n"
                      "  void Reset() { scratch = nullptr; }\n"
                      "};\n"),
            [])

    def test_waiver_with_reason_accepted(self):
        self.assertEqual(
            rules_for("src/m/x.h",
                      "#pragma once\n"
                      "struct IE_SHARED_IMMUTABLE S {\n"
                      "  // ARCH: shared-immutable (interned-id table "
                      "behind a lock; ids are append-only)\n"
                      "  int* table = nullptr;\n"
                      "};\n"),
            [])


class UnusedIncludeTest(LintTestBase):
    def analyze(self, rel, text):
        ap = os.path.join(lint.REPO_ROOT, rel)
        os.makedirs(os.path.dirname(ap), exist_ok=True)
        with open(ap, "w", encoding="utf-8") as f:
            f.write(text)
        findings = []
        lint.check_unused_includes([ap], findings)
        return findings

    def setUp(self):
        super().setUp()
        hdr = os.path.join(lint.REPO_ROOT, "src", "common", "thing.h")
        os.makedirs(os.path.dirname(hdr), exist_ok=True)
        with open(hdr, "w", encoding="utf-8") as f:
            f.write("#pragma once\nstruct Thing { int v = 0; };\n")

    def test_unused_quoted_include_flagged(self):
        findings = self.analyze(
            "src/m/x.cc", '#include "common/thing.h"\nint unrelated;\n')
        self.assertEqual([f[2] for f in findings], ["unused-include"])
        self.assertIn("advisory", findings[0][3])

    def test_used_include_clean(self):
        self.assertEqual(
            self.analyze("src/m/x.cc",
                         '#include "common/thing.h"\nThing t;\n'),
            [])

    def test_companion_header_always_used(self):
        hdr = os.path.join(lint.REPO_ROOT, "src", "m", "x.h")
        os.makedirs(os.path.dirname(hdr), exist_ok=True)
        with open(hdr, "w", encoding="utf-8") as f:
            f.write("#pragma once\nstruct Unrelated {};\n")
        self.assertEqual(
            self.analyze("src/m/x.cc", '#include "m/x.h"\nint y;\n'),
            [])

    def test_system_includes_ignored(self):
        self.assertEqual(
            self.analyze("src/m/x.cc", "#include <vector>\nint y;\n"),
            [])


class ArchJsonAndWalkTest(LintTestBase):
    def test_json_output_carries_arch_rules(self):
        import contextlib
        import io
        import json as json_mod
        path = os.path.join(lint.REPO_ROOT, "src", "ranking", "bad.cc")
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as f:
            f.write('#include "pipeline/result.h"\n'
                    "int f(const int* p) "
                    "{ return *const_cast<int*>(p); }\n")
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            status = lint.main(
                ["lint.py", "--format=json", "src/ranking/bad.cc"])
        self.assertEqual(status, 1)
        doc = json_mod.loads(out.getvalue())
        self.assertEqual(sorted(f["rule"] for f in doc["findings"]),
                         ["const-escape", "layering-violation"])

    def test_archlint_corpus_dir_pruned_from_walk(self):
        case_dir = os.path.join(lint.REPO_ROOT, "tests", "archlint",
                                "cases")
        os.makedirs(case_dir, exist_ok=True)
        with open(os.path.join(case_dir, "violation.cc"), "w",
                  encoding="utf-8") as f:
            f.write('#include "pipeline/result.h"\n')
        self.assertEqual(lint.collect_files(["tests"]), [])

    def test_cycle_reported_through_main(self):
        import contextlib
        import io
        import json as json_mod
        for name, inc in (("a", "b"), ("b", "a")):
            path = os.path.join(lint.REPO_ROOT, "src", "m", f"{name}.h")
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(path, "w", encoding="utf-8") as f:
                f.write(f'#pragma once\n#include "m/{inc}.h"\n')
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            status = lint.main(["lint.py", "--format=json", "src"])
        self.assertEqual(status, 1)
        doc = json_mod.loads(out.getvalue())
        self.assertEqual([f["rule"] for f in doc["findings"]], ["cycle"])


if __name__ == "__main__":
    unittest.main(verbosity=2)
