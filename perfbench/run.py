#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the root of a checkout. The benchmark binary is built from the
checkout's sources into .bench_build/ (or $CARGO_TARGET_DIR) the first time
and brought up to date on every run. A run prints the binary's report, then
one JSON line: with --trace 0 every end-to-end metric BENCHMARK.json names,
with --trace 1 every per-layer metric. The exit status is non-zero when a
correctness gate fails, when the build fails, or when the binary does not
finish within its time limit; in the last two cases no result is printed.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BINARY_TIMEOUT_S = 170


def log(message):
    print(message, file=sys.stderr, flush=True)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return target


def build():
    """Configures once, then brings the binary up to date. Returns its path."""
    out = os.path.join(build_dir(), "perfbench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B",
                      out, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs])
    for step in steps:
        done = subprocess.run(step, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            log(done.stdout)
            log("error: building the benchmark failed: " + " ".join(step))
            sys.exit(1)
    return os.path.join(out, "perfbench")


def run_binary(binary, args):
    """Runs the benchmark binary. Returns (exit code, report lines, result)."""
    try:
        done = subprocess.run([binary] + args, stdout=subprocess.PIPE,
                              text=True, timeout=BINARY_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        log("error: the benchmark binary did not finish in %d s"
            % BINARY_TIMEOUT_S)
        sys.exit(1)
    lines = done.stdout.splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
            lines = lines[:-1]
        except ValueError:
            result = None
    return done.returncode, lines, result


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def select(spec, result, trace):
    """The metrics BENCHMARK.json names for this kind of run."""
    measured = result["metrics"]
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    selected = {}
    for metric in wanted:
        name, unit = metric["name"], metric["unit"]
        entry = measured.get(name)
        if entry is None:
            if not trace:
                raise ValueError("end-to-end metric %s was not measured" % name)
            # A layer this workload does not cross.
            entry = {"value": 0, "unit": unit}
        if entry["unit"] != unit:
            raise ValueError("metric %s measured in %s, BENCHMARK.json says %s"
                             % (name, entry["unit"], unit))
        value = float(entry["value"])
        if not math.isfinite(value) or (not trace and value == 0):
            raise ValueError("metric %s has no usable value (%r)"
                             % (name, value))
        selected[name] = {"value": value, "unit": unit}
    return selected


def run(args):
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        log("error: --workload must be one of " + ", ".join(names))
        return 2
    binary = build()
    work = os.path.join(build_dir(), "work", "%s-%d" % (args.workload,
                                                         os.getpid()))
    spans = os.path.join(build_dir(), "spans")
    os.makedirs(work, exist_ok=True)
    os.makedirs(spans, exist_ok=True)
    argv = ["--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--work-dir", work]
    if args.trace:
        argv += ["--spans", os.path.join(
            spans, "%s-seed%d.json" % (args.workload, args.seed))]
    try:
        code, lines, result = run_binary(binary, argv)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if result is None:
        log("error: the benchmark binary printed no result (exit %d)" % code)
        return code or 1
    for line in lines:
        print(line)
    try:
        metrics = select(spec, result, args.trace)
    except ValueError as error:
        log("error: %s" % error)
        return 1
    measured = result["metrics"]
    print("workload %s, seed %d, %g s, trace %d: %d attempted, %d failed"
          % (args.workload, args.seed, args.seconds, args.trace,
             result["attempted"], result["failed"]))
    for name in sorted(metrics):
        print("  %-44s %14.6g %s" % (name, metrics[name]["value"],
                                      metrics[name]["unit"]))
    if not args.trace:
        # The named figures this workload has (ungated; the traced
        # run reports them among the per-layer metrics).
        for name in sorted(n for n in measured if n.startswith("e2e.")):
            print("  %-44s %14.6g %s" % (name, measured[name]["value"],
                                          measured[name]["unit"]))
    print(json.dumps({"correct": bool(result["correct"]) and code == 0,
                      "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]),
                      "metrics": metrics}))
    return code


# ---- Self-test ----

def self_test():
    """Proves each correctness gate can fail, and that counts repeat."""
    binary = build()
    spec = load_spec()
    plan_path = os.path.join(ROOT, "perfbench", "plan.json")
    with open(plan_path) as f:
        plan = json.load(f)
    work = os.path.join(build_dir(), "work", "self-test-%d" % os.getpid())
    os.makedirs(work, exist_ok=True)
    failures = []

    def check(ok, what):
        log(("ok   " if ok else "FAIL ") + what)
        if not ok:
            failures.append(what)

    def go(workload, seed, seconds, trace=1, damage=None):
        argv = ["--workload", workload, "--seed", str(seed), "--seconds",
                str(seconds), "--trace", str(trace), "--work-dir", work]
        if damage:
            argv += ["--damage", damage]
        return run_binary(binary, argv)

    try:
        # Each gate, given damaged input, must fail the run. serve_stream
        # runs long enough for every tail it reports to be supported.
        for workload, damage, seconds in [("trickle_refresh", "view", 1),
                                          ("serve_stream", "view", 6),
                                          ("serve_stream", "reads", 6),
                                          ("crash_recover", "no-tear", 1)]:
            code, _, result = go(workload, 1, seconds, damage=damage)
            check(code != 0 and result is not None and not result["correct"],
                  "%s fails with --damage %s" % (workload, damage))
            if result is not None:
                check_coverage(spec, plan, workload, result, check)

        # Counts repeat exactly for one seed, and follow the seed.
        counted = lambda r: {
            n: v["value"] for n, v in r["metrics"].items()
            if n == "accesses_per_update" or n.startswith("storage.")
            or n.startswith("diff.")}
        runs = [go("trickle_refresh", seed, 1) for seed in (7, 7, 8)]
        check(all(code == 0 and r is not None and r["correct"]
                  for code, _, r in runs),
              "undamaged trickle_refresh runs pass their gate")
        if all(r is not None for _, _, r in runs):
            first, again, other = (counted(r) for _, _, r in runs)
            check(first == again and len(first) > 10,
                  "%d counts identical across two runs with seed 7"
                  % len(first))
            check(first["accesses_per_update"] !=
                  other["accesses_per_update"],
                  "seed 8 draws a different stream than seed 7")
            check_coverage(spec, plan, "trickle_refresh", runs[0][2], check)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    log("self-test: %s" % ("FAILED: " + "; ".join(failures) if failures
                           else "all checks passed"))
    return 1 if failures else 0


def check_coverage(spec, plan, workload, result, check):
    """Every per-layer metric plan.json says a workload reports, it reports."""
    measured = result["metrics"]
    declared = {m["name"] for m in spec["per_layer"]}
    missing = [name for row in plan["predictions"]
               if workload in row["workloads"]
               for name in row["per_layer"]
               if name not in measured]
    undeclared = [name for row in plan["predictions"]
                  for name in row["per_layer"] if name not in declared]
    check(not missing and not undeclared,
          "%s reports its per-layer metrics%s" % (
              workload, "" if not missing and not undeclared else
              " (missing %s, not in BENCHMARK.json %s)"
              % (missing, undeclared)))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
