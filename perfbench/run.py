#!/usr/bin/env python3
"""Builds and runs the repository benchmark (perfbench/perfbench.cc).

Measurement mode, run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

builds the `perfbench` binary from the library sources under src/ into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), runs it, and
passes its standard output through: the last line is one JSON object with
the keys correct, attempted, failed and metrics. At a workload's default
seed the pinned output digests from perfbench/workloads.json are checked.

Self-test mode:

    python3 perfbench/run.py --quick

runs every workload once on a small corpus in both trace modes, checks
that every emitted metric is declared in BENCHMARK.json with its unit,
that the two workloads running the same configs produce the same
digests, and that a tampered order and a tampered verdict are reported as
failed runs. Exits 0 when all of that holds.
"""

import argparse
import json
import os
import re
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME_RE = re.compile(r"^[A-Za-z0-9_.-]+$")
# A quick (self-test) invocation: one set-up and one pass on a small corpus.
QUICK_TIMEOUT_S = 120


def log(message):
    print(f"[run.py] {message}", file=sys.stderr, flush=True)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, target, "perfbench")


def build():
    """Configures (once) and builds the benchmark; returns the binary path."""
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only the result.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("build failed: " + " ".join(cmd))
            return None
    return os.path.join(out, "perfbench")


def load_json(name):
    with open(os.path.join(ROOT if name == "BENCHMARK.json" else HERE,
                           name)) as f:
        return json.load(f)


def pins_for(workload, seed):
    spec = load_json("workloads.json")["workloads"].get(workload)
    if spec is None or seed != spec["default_seed"]:
        return []
    return ["--pins", ",".join(f"{k}={v}" for k, v in spec["pins"].items())]


def run_binary(binary, args, timeout_s):
    """Runs the binary; returns (exit code, stdout text)."""
    try:
        proc = subprocess.run([binary] + args, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=timeout_s)
    except subprocess.TimeoutExpired:
        log(f"benchmark exceeded {timeout_s}s")
        return 1, ""
    return proc.returncode, proc.stdout


def work_dir():
    path = os.path.join(build_dir(), "work")
    os.makedirs(path, exist_ok=True)
    return path


def measure(binary, a):
    args = ["--workload", a.workload, "--seed", str(a.seed),
            "--seconds", str(a.seconds), "--trace", str(a.trace),
            "--work-dir", work_dir()] + pins_for(a.workload, a.seed)
    # An invocation takes about --seconds untraced and under twice that
    # traced (one pass plus its replay); past three times it has hung.
    code, stdout = run_binary(binary, args, 3 * a.seconds + 30)
    sys.stdout.write(stdout)
    sys.stdout.flush()
    return code


# ---------------------------------------------------------------- self-test

def quick_run(binary, workload, trace, extra=()):
    with tempfile.NamedTemporaryFile(dir=work_dir(), suffix=".json",
                                     delete=False) as tmp:
        details_path = tmp.name
    try:
        args = ["--workload", workload, "--seed", "1", "--seconds", "1",
                "--trace", str(trace), "--quick", "--work-dir", work_dir(),
                "--details", details_path] + list(extra)
        code, stdout = run_binary(binary, args, QUICK_TIMEOUT_S)
        lines = stdout.strip().splitlines()
        result = json.loads(lines[-1]) if code == 0 and lines else None
        details = None
        if result is not None:
            with open(details_path) as f:
                details = json.load(f)
        return result, details
    finally:
        os.remove(details_path)


def check_names(result, declared, problems, where):
    emitted = result["metrics"]
    for name, entry in emitted.items():
        if not NAME_RE.match(name):
            problems.append(f"{where}: malformed metric name {name!r}")
        elif name not in declared:
            problems.append(f"{where}: {name} is not declared in "
                            "BENCHMARK.json")
        elif entry["unit"] != declared[name]:
            problems.append(f"{where}: {name} has unit {entry['unit']}, "
                            f"declared {declared[name]}")
    for name in declared:
        if name not in emitted:
            problems.append(f"{where}: declared metric {name} not emitted")


def self_test(binary):
    bench = load_json("BENCHMARK.json")
    records = load_json("workloads.json")
    end_to_end = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    problems = []

    names = list(records["workloads"])
    measured = [w["name"] for w in bench["workloads"]]
    if sorted(measured) != sorted(n for n in names
                                  if records["workloads"][n]["measured"]):
        problems.append("BENCHMARK.json and workloads.json disagree on the "
                        "measured workloads")
    for name in per_layer:
        if name not in records["per_layer_moves"]:
            problems.append(f"per-layer metric {name} has no 'moves' record")

    digests = {}
    for workload in names:
        for trace, declared in ((0, end_to_end), (1, per_layer)):
            where = f"{workload} trace={trace}"
            result, details = quick_run(binary, workload, trace)
            if result is None:
                problems.append(f"{where}: no result")
                continue
            log(f"{where}: correct={result['correct']} "
                f"attempted={result['attempted']} failed={result['failed']}")
            if not result["correct"] or result["failed"] or \
                    result["attempted"] < 1:
                problems.append(f"{where}: runs failed")
            check_names(result, declared, problems, where)
            # First-pass labels; later passes append "@<pass>".
            digests[workload] = {label: c["digest"] for label, c in
                                 details["configs"].items() if "@" not in label}
            if sorted(digests[workload]) != \
                    sorted(records["workloads"][workload]["configs"]):
                problems.append(f"{where}: config set differs from "
                                "workloads.json")
    if digests.get("rerank_heavy") != digests.get("extract_parallel"):
        problems.append("rerank_heavy and extract_parallel digests differ")
    specs = records["workloads"]
    if specs["rerank_heavy"]["pins"] != specs["extract_parallel"]["pins"]:
        problems.append("rerank_heavy and extract_parallel pins differ")

    for tamper in ("order", "verdict"):
        result, _ = quick_run(binary, "rerank_heavy", 0, ["--tamper", tamper])
        if result is None or result["correct"] or result["failed"] < 1:
            problems.append(f"tampered {tamper} was not reported as failed")
        else:
            log(f"tampered {tamper}: failed={result['failed']} (expected)")

    for problem in problems:
        log("FAIL " + problem)
    log("self-test " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--quick", action="store_true",
                        help="self-test on a small corpus")
    a = parser.parse_args()
    if not a.quick and None in (a.workload, a.seed, a.seconds, a.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")

    binary = build()
    if binary is None:
        return 1
    return self_test(binary) if a.quick else measure(binary, a)


if __name__ == "__main__":
    sys.exit(main())
