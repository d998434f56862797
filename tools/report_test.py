#!/usr/bin/env python3
"""Self-test for tools/report.py.

Feeds the ledger validator small hand-written ledgers: a clean one and a
byte-truncated copy must pass, and each broken one must be reported for
its own fault. Run directly or via tools/ci.sh; exit status 0 means the
validator behaves as documented.
"""

import contextlib
import io
import json
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import report  # noqa: E402


def header(schema=4):
    return {"type": "header", "schema": schema, "ranker": "RSVM-IE",
            "sampler": "SRS", "update": "Mod-C", "access": "full",
            "seed": 7, "pool_size": 6, "sample_size": 2,
            "extract_threads": 1}


def it(i, phase, useful, retrain=0, stat=0.0):
    line = {"type": "iter", "i": i, "doc": 40 + i, "phase": phase,
            "useful": useful, "stat": stat, "retrain": retrain}
    if retrain:
        line["dw"] = 0.5
        line["dw_c"] = [0.5]
    return line


def footer(iterations=6, updates=1, useful_total=3):
    return {"type": "end", "iterations": iterations, "updates": updates,
            "useful_total": useful_total, "extraction_seconds": 0.6,
            "extract_cpu_seconds": 0.01, "extract_wall_seconds": 0.02,
            "ranking_cpu_seconds": 0.003, "detector_cpu_seconds": 0.001}


def clean_ledger():
    """Header, two warmup, three main (one retrain), one tail, footer."""
    return [header(),
            it(1, "warmup", 1), it(2, "warmup", 0),
            it(3, "main", 1, stat=0.25), it(4, "main", 0, retrain=1),
            it(5, "main", 1), it(6, "tail", 0),
            footer()]


def render(lines):
    return "".join(json.dumps(line, separators=(",", ":")) + "\n"
                   for line in lines)


class ReportTestBase(unittest.TestCase):
    def setUp(self):
        self._tmp = tempfile.TemporaryDirectory(prefix="report_test_")

    def tearDown(self):
        self._tmp.cleanup()

    def validate_text(self, text):
        path = os.path.join(self._tmp.name, "ledger.jsonl")
        with open(path, "w", encoding="utf-8") as f:
            f.write(text)
        with contextlib.redirect_stderr(io.StringIO()):
            return report.validate(path)

    def validate(self, lines):
        return self.validate_text(render(lines))

    def assertReported(self, lines, fragment):
        findings = self.validate(lines)
        self.assertEqual(len(findings), 1, msg=findings)
        self.assertIn(fragment, findings[0])


class CleanLedgerTest(ReportTestBase):
    def test_clean_ledger_passes(self):
        self.assertEqual(self.validate(clean_ledger()), [])

    def test_byte_truncated_ledger_passes(self):
        text = render(clean_ledger())
        # Cut inside the fifth iter line: the footer and a partial line go.
        cut = text.index('"i":5') + 10
        self.assertEqual(self.validate_text(text[:cut]), [])

    def test_truncated_at_line_end_passes(self):
        self.assertEqual(self.validate(clean_ledger()[:-1]), [])


class BrokenLedgerTest(ReportTestBase):
    def test_gap_in_numbering_reported_once(self):
        lines = clean_ledger()
        del lines[3]  # i=3
        lines[-1] = footer(iterations=5, useful_total=2)
        self.assertReported(lines, "expected i=3")

    def test_backwards_phase_reported(self):
        lines = clean_ledger()
        lines[5]["phase"] = "warmup"  # i=5 after main
        self.assertReported(lines, "phase 'warmup' after 'main' (backwards)")

    def test_dw_without_retrain_reported(self):
        lines = clean_ledger()
        lines[5]["dw"] = 0.1
        self.assertReported(lines, "dw/dw_c without retrain")

    def test_retrain_without_dw_reported(self):
        lines = clean_ledger()
        del lines[4]["dw_c"]
        self.assertReported(lines, "retrain without dw/dw_c")

    def test_footer_updates_mismatch_reported(self):
        lines = clean_ledger()
        lines[-1] = footer(updates=2)
        self.assertReported(lines, "footer updates=2 but ledger shows 1")

    def test_footer_useful_total_mismatch_reported(self):
        lines = clean_ledger()
        lines[-1] = footer(useful_total=4)
        self.assertReported(lines,
                            "footer useful_total=4 but ledger shows 3")

    def test_footer_iterations_mismatch_reported(self):
        lines = clean_ledger()
        lines[-1] = footer(iterations=7)
        self.assertReported(lines, "footer iterations=7 but ledger shows 6")

    def test_schema_3_header_reported(self):
        lines = clean_ledger()
        lines[0] = header(schema=3)
        self.assertReported(lines, "unsupported schema 3")

    def test_running_total_column_reported(self):
        lines = clean_ledger()
        lines[1]["useful_total"] = 1
        self.assertReported(lines, "unexpected field(s) useful_total")

    def test_missing_field_reported(self):
        lines = clean_ledger()
        del lines[2]["stat"]
        self.assertReported(lines, "missing field 'stat'")

    def test_flag_outside_0_1_reported(self):
        for value in (2, True, 1.0):
            lines = clean_ledger()
            lines[4]["retrain"] = value
            findings = self.validate(lines)
            self.assertTrue(any("retrain %r not 0/1" % value in f
                                for f in findings), msg=findings)


class SummaryTest(unittest.TestCase):
    def test_useful_rate_curve_from_useful_column(self):
        iters = clean_ledger()[1:-1]
        self.assertEqual(report.useful_rates(iters),
                         [1.0, 0.5, 2 / 3, 0.5, 3 / 5, 0.5])

    def test_summary_totals(self):
        ledger = report.Ledger()
        ledger.header, ledger.end = header(), footer()
        ledger.iters = clean_ledger()[1:-1]
        summary = report.summarize(ledger)
        self.assertEqual(summary["useful_total"], 3)
        self.assertEqual(summary["useful_rate"], 0.5)
        self.assertEqual(summary["updates"], 1)
        self.assertEqual(summary["phase.main"], 3)
        self.assertEqual(summary["truncated"], 0)


if __name__ == "__main__":
    unittest.main(verbosity=2)
