#!/usr/bin/env python3
"""Flight-recorder ledger tool: validate, report, and diff pipeline runs.

The pipeline's flight recorder (src/pipeline/recorder.cc, DESIGN.md §15)
writes one JSON object per line:

  {"type":"header","schema":4, ...run metadata...}
  {"type":"iter","i":1, ...one document's facts...}   x N, flushed per line
  {"type":"end", ...run totals...}                    absent if crashed

An iter line carries i, doc, phase, useful, stat and retrain, plus dw and
dw_c on retrain lines, and nothing else: running totals (useful so far,
the useful rate) are sums over the useful column, computed here.

Because every line is flushed before the next iteration runs, a crashed
run's ledger is parseable up to the crash point: a missing footer (or a
trailing partial line when the file does not end in a newline) marks the
run truncated but the prefix stays fully checkable.

Modes (exactly one):
  --validate LEDGER       structural + invariant checks (see validate())
  --report LEDGER         learning curve, phase breakdown, update log,
                          latency totals (ASCII, stdout)
  --diff A B              side-by-side comparison of two runs

Exit status: 0 OK, 1 findings, 2 usage/internal error.
"""

import argparse
import json
import math
import sys

SCHEMA = 4
PHASES = ("warmup", "main", "tail")
ITER_KEYS = ("i", "doc", "phase", "useful", "stat", "retrain")
UPDATE_KEYS = ("dw", "dw_c")  # on retrain lines only


def is_flag(value):
    """True for the JSON integers 0 and 1 only (not true/false or 1.0)."""
    return type(value) is int and value in (0, 1)


class Ledger:
    """A parsed ledger: header dict, iteration dicts, optional footer."""

    def __init__(self):
        self.header = None
        self.iters = []
        self.end = None
        self.truncated_line = False  # file ended mid-line (no final \n)


def parse_ledger(path, findings):
    """Parses a ledger file, appending findings; returns a Ledger.

    Tolerates exactly one trailing partial line and only when the file
    does not end with a newline — the crash-in-mid-write case. A garbled
    line anywhere else is a finding.
    """
    ledger = Ledger()
    try:
        with open(path, "r", encoding="utf-8") as f:
            data = f.read()
    except OSError as e:
        findings.append("%s: unreadable: %s" % (path, e))
        return ledger
    if not data:
        findings.append("%s: empty ledger" % path)
        return ledger
    lines = data.split("\n")
    ends_with_newline = lines and lines[-1] == ""
    if ends_with_newline:
        lines.pop()
    for n, line in enumerate(lines, start=1):
        try:
            obj = json.loads(line)
        except json.JSONDecodeError:
            if n == len(lines) and not ends_with_newline:
                ledger.truncated_line = True  # crash mid-write: tolerated
            else:
                findings.append("%s:%d: malformed JSON line" % (path, n))
            continue
        if not isinstance(obj, dict):
            findings.append("%s:%d: line is not a JSON object" % (path, n))
            continue
        kind = obj.get("type")
        if kind == "header":
            if ledger.header is not None:
                findings.append("%s:%d: duplicate header" % (path, n))
            elif ledger.iters or ledger.end:
                findings.append("%s:%d: header not first" % (path, n))
            else:
                ledger.header = obj
        elif kind == "iter":
            if ledger.end is not None:
                findings.append("%s:%d: iter after end" % (path, n))
            ledger.iters.append(obj)
        elif kind == "end":
            if ledger.end is not None:
                findings.append("%s:%d: duplicate end" % (path, n))
            else:
                ledger.end = obj
        else:
            findings.append("%s:%d: unknown type %r" % (path, n, kind))
    return ledger


def validate(path):
    """Returns a list of findings for one ledger file.

    Invariants (beyond parseability):
      header      schema == 4, present before any iteration
      fields      exactly ITER_KEYS, plus UPDATE_KEYS on retrain lines
      numbering   iter "i" strictly 1,2,3,... (the recorder assigns them)
      phases      only warmup|main|tail, transitions only forward
      flags       useful and retrain in {0,1}
      retrain     dw/dw_c present iff retrain == 1
      footer      when present: iterations == number of iter lines,
                  updates == number of retrain=1 lines, useful_total ==
                  sum of useful; missing footer = truncated run (warning,
                  not a finding)
    """
    findings = []
    ledger = parse_ledger(path, findings)
    if ledger.header is None:
        findings.append("%s: missing header line" % path)
    elif ledger.header.get("schema") != SCHEMA:
        findings.append("%s: unsupported schema %r" %
                        (path, ledger.header.get("schema")))

    prev = None
    phase_rank = {name: rank for rank, name in enumerate(PHASES)}
    retrain_count = 0
    useful_total = 0
    for obj in ledger.iters:
        i = obj.get("i")
        where = "%s: iter i=%r" % (path, i)
        expect = 1 if prev is None else prev["i"] + 1
        if type(i) is not int or i != expect:
            findings.append("%s: expected i=%d" % (where, expect))
            # Number the next line from this one, so one gap is one
            # finding; a non-integer "i" takes the expected place.
            if type(i) is not int:
                obj = dict(obj, i=expect)

        for key in ITER_KEYS:
            if key not in obj:
                findings.append("%s: missing field %r" % (where, key))
        extra = sorted(set(obj) - {"type"} - set(ITER_KEYS) -
                       set(UPDATE_KEYS))
        if extra:
            findings.append("%s: unexpected field(s) %s" %
                            (where, ", ".join(extra)))
        phase = obj.get("phase")
        if phase not in phase_rank:
            findings.append("%s: bad phase %r" % (where, phase))
        elif prev is not None and prev.get("phase") in phase_rank and \
                phase_rank[phase] < phase_rank[prev["phase"]]:
            findings.append("%s: phase %r after %r (backwards)" %
                            (where, phase, prev["phase"]))

        useful = obj.get("useful")
        if not is_flag(useful):
            findings.append("%s: useful %r not 0/1" % (where, useful))
        else:
            useful_total += useful

        retrain = obj.get("retrain")
        if not is_flag(retrain):
            findings.append("%s: retrain %r not 0/1" % (where, retrain))
        elif retrain == 1:
            retrain_count += 1
            if any(key not in obj for key in UPDATE_KEYS):
                findings.append("%s: retrain without dw/dw_c" % where)
        elif any(key in obj for key in UPDATE_KEYS):
            findings.append("%s: dw/dw_c without retrain" % where)
        prev = obj

    if ledger.end is None:
        print("%s: no footer — truncated run (%d iteration(s) recovered)" %
              (path, len(ledger.iters)), file=sys.stderr)
    else:
        for key, expect in (("iterations", len(ledger.iters)),
                            ("updates", retrain_count),
                            ("useful_total", useful_total)):
            got = ledger.end.get(key)
            if got != expect:
                findings.append("%s: footer %s=%r but ledger shows %d" %
                                (path, key, got, expect))
    return findings


def load_or_die(path):
    findings = []
    ledger = parse_ledger(path, findings)
    for f in findings:
        print(f, file=sys.stderr)
    if ledger.header is None and not ledger.iters:
        print("%s: nothing to report" % path, file=sys.stderr)
        sys.exit(1)
    return ledger


def sparkline(values, width):
    """Downsamples values to `width` buckets rendered as 8-level bars."""
    if not values:
        return ""
    bars = " ▁▂▃▄▅▆▇█"
    lo, hi = min(values), max(values)
    span = (hi - lo) or 1.0
    out = []
    for b in range(width):
        chunk = values[b * len(values) // width:
                       (b + 1) * len(values) // width] or [lo]
        mean = sum(chunk) / len(chunk)
        out.append(bars[1 + int((mean - lo) / span * 7.499)])
    return "".join(out)


def useful_rates(iters):
    """The running useful rate after each iteration: useful so far / i."""
    rates, total = [], 0
    for n, obj in enumerate(iters, start=1):
        total += obj.get("useful", 0)
        rates.append(total / n)
    return rates


def summarize(ledger):
    """Returns a flat dict of headline numbers for report/diff."""
    info = dict(ledger.header or {})
    info.pop("type", None)
    iters = ledger.iters
    out = {"iterations": len(iters)}
    out.update(("cfg.%s" % k, v) for k, v in sorted(info.items()))
    if iters:
        out["useful_total"] = sum(o.get("useful", 0) for o in iters)
        out["useful_rate"] = out["useful_total"] / len(iters)
        out["updates"] = sum(o.get("retrain", 0) for o in iters)
        for phase in PHASES:
            n = sum(1 for o in iters if o.get("phase") == phase)
            if n:
                out["phase.%s" % phase] = n
    if ledger.end:
        for key, value in sorted(ledger.end.items()):
            if key not in ("type", "iterations", "updates", "useful_total"):
                out["end.%s" % key] = value
    out["truncated"] = int(ledger.end is None)
    return out


def fmt(value):
    if isinstance(value, float):
        return "%.6g" % value
    return str(value)


def report(path):
    ledger = load_or_die(path)
    summary = summarize(ledger)
    print("run: %s" % path)
    for key, value in summary.items():
        print("  %-24s %s" % (key, fmt(value)))
    iters = ledger.iters
    if iters:
        width = min(64, max(8, len(iters)))
        rates = useful_rates(iters)
        stats = [o.get("stat", 0.0) for o in iters]
        print("  useful_rate curve        |%s| %s -> %s" %
              (sparkline(rates, width), fmt(rates[0]), fmt(rates[-1])))
        print("  detector statistic       |%s| max %s" %
              (sparkline(stats, width), fmt(max(stats))))
        updates = [(o["i"], o.get("dw", 0.0))
                   for o in iters if o.get("retrain")]
        for i, dw in updates[:20]:
            print("  update @ i=%-8d       dw=%s" % (i, fmt(dw)))
        if len(updates) > 20:
            print("  ... %d more update(s)" % (len(updates) - 20))
    return 0


def diff(path_a, path_b):
    a = summarize(load_or_die(path_a))
    b = summarize(load_or_die(path_b))
    keys = sorted(set(a) | set(b))
    width = max(len(k) for k in keys)
    differing = 0
    print("%-*s  %-20s  %-20s" % (width, "key", path_a[-20:], path_b[-20:]))
    for key in keys:
        va, vb = a.get(key, "—"), b.get(key, "—")
        same = va == vb
        if isinstance(va, float) and isinstance(vb, float):
            same = math.isclose(va, vb, rel_tol=1e-9, abs_tol=1e-12)
        marker = " " if same else "*"
        if not same:
            differing += 1
        print("%s %-*s %-20s  %-20s" %
              (marker, width, key, fmt(va), fmt(vb)))
    print("%d differing key(s)" % differing)
    return 0


def main(argv):
    parser = argparse.ArgumentParser(
        description="Validate, render, or diff flight-recorder run ledgers.")
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--validate", metavar="LEDGER")
    mode.add_argument("--report", metavar="LEDGER")
    mode.add_argument("--diff", nargs=2, metavar=("A", "B"))
    args = parser.parse_args(argv)

    if args.report:
        return report(args.report)
    if args.diff:
        return diff(args.diff[0], args.diff[1])
    findings = validate(args.validate)
    for finding in findings:
        print(finding, file=sys.stderr)
    if findings:
        print("report: %d finding(s)" % len(findings), file=sys.stderr)
        return 1
    print("report: %s OK" % args.validate)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
