#!/usr/bin/env python3
"""Perf-trajectory trend gate (DESIGN.md §14).

Compares fresh bench JSON outputs against the committed baselines at the
repo root (BENCH_featurize.json, BENCH_extract.json, BENCH_index.json) and
fails on regressions of the *gated* metrics:

  featurize  featurize.speedup            (>= gate, trend)
  extract    speedup_at_8                 (trend, when gated)
  index      per-tier compression_ratio   (>= gate, trend)

Two layers of checking:

  1. Hard invariants — always enforced on the fresh run, at any scale:
     byte_identical must be true and the bench's own gate must not be
     FAIL (SKIP is fine: e.g. the extract speedup gate on small hosts,
     the index compression gate below the million-doc tier).

  2. Trend — when fresh and baseline ran at the same scale (same docs /
     matching tier), each gated metric must not regress by more than
     --tolerance (default 15%). All gated metrics are ratios, so they
     are host-speed invariant; scale still shifts them, which is why
     mismatched-scale runs (the CI smoke at IE_BENCH_DOCS=4000 vs the
     committed 20k-doc trajectory) only get layer 1 plus the bench's
     own absolute gate threshold.

Usage:
  tools/bench_trend.py --fresh DIR [--baseline DIR] [--tolerance 0.15]
                       [--benches featurize,extract,index]

Exit codes: 0 ok, 1 regression/invariant failure, 2 usage/IO error.
"""

import argparse
import json
import os
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ALL_BENCHES = ("featurize", "extract", "index")

failures = []


def fail(msg):
    failures.append(msg)
    print("FAIL: %s" % msg)


def note(msg):
    print("      %s" % msg)


def load(path):
    try:
        with open(path) as f:
            return json.load(f)
    except FileNotFoundError:
        return None
    except json.JSONDecodeError as e:
        fail("%s: invalid JSON (%s)" % (path, e))
        return None


def check_invariants(name, fresh):
    ok = True
    if fresh.get("byte_identical") is not True:
        fail("%s: byte_identical is %r" % (name, fresh.get("byte_identical")))
        ok = False
    gate = fresh.get("gate", fresh.get("compression_gate"))
    if gate == "FAIL":
        fail("%s: bench's own gate reports FAIL" % name)
        ok = False
    return ok


def check_trend(name, metric, fresh_value, base_value, tolerance):
    """Gated metrics are higher-is-better ratios."""
    if base_value is None or base_value <= 0.0:
        note("%s.%s: no baseline value; skipping trend" % (name, metric))
        return
    floor = base_value * (1.0 - tolerance)
    status = "ok" if fresh_value >= floor else "REGRESSION"
    print("      %s.%s: fresh=%.3f baseline=%.3f floor=%.3f %s"
          % (name, metric, fresh_value, base_value, floor, status))
    if fresh_value < floor:
        fail("%s.%s regressed >%d%%: %.3f < %.3f (baseline %.3f)"
             % (name, metric, round(tolerance * 100), fresh_value, floor,
                base_value))


def compare_featurize(fresh, base, tolerance):
    check_invariants("featurize", fresh)
    threshold = fresh.get("gate_threshold", 1.5)
    fresh_value = fresh.get("featurize", {}).get("speedup")
    if fresh_value is None:
        fail("featurize: missing gated metric speedup")
        return
    if fresh_value < threshold:
        fail("featurize.speedup below gate threshold: %.3f < %.2f"
             % (fresh_value, threshold))
    if base is not None and fresh.get("docs") == base.get("docs"):
        check_trend("featurize", "speedup", fresh_value,
                    base.get("featurize", {}).get("speedup"), tolerance)
    else:
        note("featurize.speedup: fresh=%.3f (scale differs from baseline; "
             "gate-threshold check only)" % fresh_value)


def compare_extract(fresh, base, tolerance):
    check_invariants("extract", fresh)
    fresh_gated = fresh.get("gate") in ("PASS", "FAIL")
    base_gated = base is not None and base.get("gate") in ("PASS", "FAIL")
    if not fresh_gated:
        note("extract.speedup_at_8: gate SKIP on this host; "
             "determinism invariants only")
        return
    fresh_value = fresh.get("speedup_at_8")
    if fresh_value is None:
        fail("extract: gate applies but speedup_at_8 missing")
        return
    same_scale = base_gated and fresh.get("docs") == base.get("docs")
    if same_scale:
        check_trend("extract", "speedup_at_8", fresh_value,
                    base.get("speedup_at_8"), tolerance)
    else:
        note("extract.speedup_at_8: fresh=%.3f (no same-scale gated "
             "baseline; bench's own gate already enforced)" % fresh_value)


def compare_index(fresh, base, tolerance):
    check_invariants("index", fresh)
    base_tiers = {t.get("docs"): t for t in (base or {}).get("tiers", [])}
    for tier in fresh.get("tiers", []):
        docs = tier.get("docs")
        ratio = tier.get("compression_ratio")
        if ratio is None:
            fail("index: tier docs=%s missing compression_ratio" % docs)
            continue
        base_tier = base_tiers.get(docs)
        if base_tier is None:
            note("index.compression_ratio[docs=%s]: fresh=%.3f "
                 "(no matching baseline tier)" % (docs, ratio))
        else:
            check_trend("index", "compression_ratio[docs=%s]" % docs, ratio,
                        base_tier.get("compression_ratio"), tolerance)
        for point in tier.get("finalize_sweep", []):
            if point.get("identical") is not True:
                fail("index: finalize_sweep docs=%s threads=%s not identical"
                     % (docs, point.get("threads")))


COMPARATORS = {
    "featurize": compare_featurize,
    "extract": compare_extract,
    "index": compare_index,
}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--fresh", required=True,
                        help="directory holding freshly produced BENCH_*.json")
    parser.add_argument("--baseline", default=REPO_ROOT,
                        help="directory holding committed baselines "
                             "(default: repo root)")
    parser.add_argument("--tolerance", type=float, default=0.15,
                        help="max allowed fractional regression of gated "
                             "metrics (default 0.15)")
    parser.add_argument("--benches", default=",".join(ALL_BENCHES),
                        help="comma-separated subset of: %s"
                             % ",".join(ALL_BENCHES))
    args = parser.parse_args()

    benches = [b.strip() for b in args.benches.split(",") if b.strip()]
    unknown = [b for b in benches if b not in COMPARATORS]
    if unknown:
        print("unknown bench(es): %s" % ", ".join(unknown), file=sys.stderr)
        return 2

    compared = 0
    for name in benches:
        filename = "BENCH_%s.json" % name
        fresh = load(os.path.join(args.fresh, filename))
        if fresh is None:
            note("%s: no fresh %s; skipping" % (name, filename))
            continue
        base = load(os.path.join(args.baseline, filename))
        if base is None:
            note("%s: no committed baseline %s; invariants only"
                 % (name, filename))
        print("[trend] %s (fresh %s vs baseline %s)"
              % (name, args.fresh, args.baseline))
        COMPARATORS[name](fresh, base, args.tolerance)
        compared += 1

    if compared == 0:
        print("no fresh bench files found under %s" % args.fresh,
              file=sys.stderr)
        return 2
    if failures:
        print("\nbench_trend: %d failure(s)" % len(failures))
        return 1
    print("\nbench_trend: OK (%d bench(es) checked)" % compared)
    return 0


if __name__ == "__main__":
    sys.exit(main())
