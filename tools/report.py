#!/usr/bin/env python3
"""Flight-recorder ledger tool: validate, report, and diff pipeline runs.

The pipeline's flight recorder (src/pipeline/recorder.cc, DESIGN.md §15)
writes one JSON object per line:

  {"type":"header","schema":2, ...run metadata...}
  {"type":"iter","i":1, ...one iteration...}          x N, flushed per line
  {"type":"end", ...run totals...}                    absent if crashed

Because every line is flushed before the next iteration runs, a crashed
run's ledger is parseable up to the crash point: a missing footer (or a
trailing partial line when the file does not end in a newline) marks the
run truncated but the prefix stays fully checkable.

Modes (exactly one):
  --validate LEDGER       structural + invariant checks (see validate())
  --report LEDGER         learning curve, phase breakdown, update log,
                          latency totals (ASCII, stdout)
  --diff A B              side-by-side comparison of two runs
  --validate-prom FILE    check a Prometheus text exposition written by
                          MetricsSnapshot::ToPrometheus /
                          bench --metrics-out

Exit status: 0 OK, 1 findings, 2 usage/internal error.
"""

import argparse
import json
import math
import sys

PHASES = ("warmup", "main", "tail")
# Cumulative iteration counters: monotone non-decreasing across the run.
CUMULATIVE = ("useful_total", "full_rescores", "hits", "waits", "misses",
              "cancelled")


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
      header      schema == 2, present before any iteration
      numbering   iter "i" strictly 1,2,3,... (the recorder assigns them)
      executor    hits + waits + misses == i (exactly one Take per doc)
      cumulative  monotone non-decreasing counters (CUMULATIVE)
      usefulness  useful in {0,1}; useful_total increments by useful;
                  useful_rate == useful_total / i (within 1e-9)
      phases      only warmup|main|tail, transitions only forward
      retrain     retrain in {0,1}; dw/dw_c present iff retrain
      footer      when present: iterations == last i, updates == number of
                  retrain=1 iterations, useful_total matches; missing
                  footer = truncated run (warning, not a finding)
    """
    findings = []
    ledger = parse_ledger(path, findings)
    if ledger.header is None:
        findings.append("%s: missing header line" % path)
    elif ledger.header.get("schema") != 2:
        findings.append("%s: unsupported schema %r" %
                        (path, ledger.header.get("schema")))

    prev = None
    phase_rank = {name: rank for rank, name in enumerate(PHASES)}
    retrain_count = 0
    for obj in ledger.iters:
        i = obj.get("i")
        where = "%s: iter i=%r" % (path, i)
        expect = 1 if prev is None else prev["i"] + 1
        if i != expect:
            findings.append("%s: expected i=%d" % (where, expect))
            # Renumber locally so one gap doesn't cascade into N findings.
            obj = dict(obj, i=expect)
            i = expect

        for key in ("doc", "phase", "useful", "useful_total", "useful_rate",
                    "stat", "retrain", "full_rescores", "hits", "waits",
                    "misses", "cancelled", "queue", "arena"):
            if key not in obj:
                findings.append("%s: missing field %r" % (where, key))
        phase = obj.get("phase")
        if phase not in phase_rank:
            findings.append("%s: bad phase %r" % (where, phase))
        elif prev is not None and prev.get("phase") in phase_rank and \
                phase_rank[phase] < phase_rank[prev["phase"]]:
            findings.append("%s: phase %r after %r (backwards)" %
                            (where, phase, prev["phase"]))

        useful = obj.get("useful")
        if useful not in (0, 1):
            findings.append("%s: useful %r not 0/1" % (where, useful))
        total = obj.get("useful_total")
        prev_total = prev["useful_total"] if prev else 0
        if isinstance(total, int) and useful in (0, 1) and \
                isinstance(prev_total, int) and total != prev_total + useful:
            findings.append("%s: useful_total %d != %d + useful %d" %
                            (where, total, prev_total, useful))
        rate = obj.get("useful_rate")
        if isinstance(total, int) and isinstance(rate, (int, float)) and \
                abs(rate - total / i) > 1e-9:
            findings.append("%s: useful_rate %r != %d/%d" %
                            (where, rate, total, i))

        consumed = sum(obj.get(k, 0) for k in ("hits", "waits", "misses"))
        if consumed != i:
            findings.append("%s: hits+waits+misses %d != i" %
                            (where, consumed))
        for key in CUMULATIVE:
            now, before = obj.get(key), (prev or {}).get(key, 0)
            if isinstance(now, int) and isinstance(before, int) and \
                    now < before:
                findings.append("%s: cumulative %r decreased %d -> %d" %
                                (where, key, before, now))

        retrain = obj.get("retrain")
        if retrain not in (0, 1):
            findings.append("%s: retrain %r not 0/1" % (where, retrain))
        elif retrain == 1:
            retrain_count += 1
            if "dw" not in obj or "dw_c" not in obj:
                findings.append("%s: retrain without dw/dw_c" % where)
        elif "dw" in obj or "dw_c" in obj:
            findings.append("%s: dw/dw_c without retrain" % where)
        prev = obj

    if ledger.end is None:
        print("%s: no footer — truncated run (%d iteration(s) recovered)" %
              (path, len(ledger.iters)), file=sys.stderr)
    else:
        last_i = prev["i"] if prev else 0
        for key, expect in (("iterations", last_i),
                            ("updates", retrain_count)):
            got = ledger.end.get(key)
            if got != expect:
                findings.append("%s: footer %s=%r but ledger shows %d" %
                                (path, key, got, expect))
        if prev is not None and \
                ledger.end.get("useful_total") != prev.get("useful_total"):
            findings.append("%s: footer useful_total %r != last iter %r" %
                            (path, ledger.end.get("useful_total"),
                             prev.get("useful_total")))
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


def summarize(ledger):
    """Returns a flat dict of headline numbers for report/diff."""
    info = dict(ledger.header or {})
    info.pop("type", None)
    iters = ledger.iters
    out = {"iterations": len(iters)}
    out.update(("cfg.%s" % k, v) for k, v in sorted(info.items()))
    if iters:
        last = iters[-1]
        out["useful_total"] = last.get("useful_total", 0)
        out["useful_rate"] = last.get("useful_rate", 0.0)
        out["updates"] = sum(o.get("retrain", 0) for o in iters)
        out["full_rescores"] = last.get("full_rescores", 0)
        out["executor_hits"] = last.get("hits", 0)
        out["executor_waits"] = last.get("waits", 0)
        out["executor_misses"] = last.get("misses", 0)
        out["executor_cancelled"] = last.get("cancelled", 0)
        out["peak_queue_depth"] = max(o.get("queue", 0) for o in iters)
        out["peak_arena_bytes"] = max(o.get("arena", 0) for o in iters)
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
        rates = [o.get("useful_rate", 0.0) for o in iters]
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


def validate_prom(path):
    """Checks a Prometheus text exposition (MetricsSnapshot::ToPrometheus).

    Rules: every sample's metric family has a preceding # TYPE line (no
    duplicates); values parse as floats; histogram bucket counts are
    cumulative non-decreasing with an le="+Inf" bucket equal to _count.
    """
    findings = []
    try:
        with open(path, "r", encoding="utf-8") as f:
            lines = f.read().split("\n")
    except OSError as e:
        return ["%s: unreadable: %s" % (path, e)]
    types = {}
    buckets = {}  # family -> list of (le, count)
    counts = {}  # family -> _count value
    for n, line in enumerate(lines, start=1):
        if not line:
            continue
        where = "%s:%d" % (path, n)
        if line.startswith("#"):
            parts = line.split()
            if len(parts) >= 4 and parts[1] == "TYPE":
                family, kind = parts[2], parts[3]
                if family in types:
                    findings.append("%s: duplicate TYPE for %s" %
                                    (where, family))
                types[family] = kind
            continue
        name, _, value = line.rpartition(" ")
        label = ""
        if "{" in name:
            name, _, label = name.partition("{")
            label = label.rstrip("}")
        try:
            value = float(value)
        except ValueError:
            findings.append("%s: non-numeric value %r" % (where, value))
            continue
        family = name
        for suffix in ("_bucket", "_sum", "_count"):
            if name.endswith(suffix) and name[:-len(suffix)] in types:
                family = name[:-len(suffix)]
        if family not in types:
            findings.append("%s: sample %r without TYPE line" %
                            (where, name))
            continue
        if name.endswith("_bucket") and types.get(family) == "histogram":
            le = None
            for part in label.split(","):
                k, _, v = part.partition("=")
                if k == "le":
                    le = v.strip('"')
            if le is None:
                findings.append("%s: bucket without le label" % where)
            else:
                buckets.setdefault(family, []).append((le, value))
        elif name.endswith("_count") and types.get(family) == "histogram":
            counts[family] = value
    for family, series in sorted(buckets.items()):
        prev = -1.0
        saw_inf = False
        for le, value in series:
            if value < prev:
                findings.append("%s: %s bucket counts decrease at le=%s" %
                                (path, family, le))
            prev = value
            if le == "+Inf":
                saw_inf = True
                if family in counts and value != counts[family]:
                    findings.append(
                        "%s: %s +Inf bucket %s != _count %s" %
                        (path, family, fmt(value), fmt(counts[family])))
        if not saw_inf:
            findings.append("%s: %s has no +Inf bucket" % (path, family))
    return findings


def main(argv):
    parser = argparse.ArgumentParser(
        description="Validate, render, or diff flight-recorder run ledgers.")
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--validate", metavar="LEDGER")
    mode.add_argument("--report", metavar="LEDGER")
    mode.add_argument("--diff", nargs=2, metavar=("A", "B"))
    mode.add_argument("--validate-prom", metavar="FILE")
    args = parser.parse_args(argv)

    if args.report:
        return report(args.report)
    if args.diff:
        return diff(args.diff[0], args.diff[1])
    findings = (validate(args.validate) if args.validate
                else validate_prom(args.validate_prom))
    for finding in findings:
        print(finding, file=sys.stderr)
    if findings:
        print("report: %d finding(s)" % len(findings), file=sys.stderr)
        return 1
    print("report: %s OK" % (args.validate or args.validate_prom))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
