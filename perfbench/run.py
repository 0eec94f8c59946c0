#!/usr/bin/env python3
"""Repository benchmark: builds perfbench (and the program's libraries) from
source, runs one workload, checks its simulated outputs, and prints its
metrics. The last line of stdout is the JSON result.

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --all [--seed N] [--seconds S] [--write-baseline FILE]
  python3 perfbench/run.py --selftest
  python3 perfbench/run.py --record-digests --workload NAME --seed N

Workloads: pair_grid, fleet_tree, churn, tcp_loop. The build goes to
.bench_build/ and traces to .bench_out/ at the root of the checkout. See
perfbench/METRICS.md for what each metric means.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
OUT = os.path.join(ROOT, ".bench_out")
DIGESTS = os.path.join(HERE, "digests.json")
BENCHMARK = os.path.join(ROOT, "BENCHMARK.json")
WORKLOADS = ["pair_grid", "fleet_tree", "churn", "tcp_loop"]


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build(target):
    """Configures (once) and builds `target`; all build output goes to stderr
    and the compilers' scratch files stay inside the build tree."""
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, env=env, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD, "--target", target, "-j", jobs],
                   stdout=sys.stderr, env=env, check=True)
    return os.path.join(BUILD, target)


def build_settings():
    """Build type and DPS_NATIVE as the build cache records them."""
    settings = {"CMAKE_BUILD_TYPE": "", "DPS_NATIVE": "OFF"}
    with open(os.path.join(BUILD, "CMakeCache.txt")) as cache:
        for line in cache:
            key, _, value = line.strip().partition("=")
            name = key.split(":")[0]
            if name in settings:
                settings[name] = value
    return settings


def commit():
    """The checked-out commit, or "unknown" outside a git checkout."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        result = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], env=env,
                                capture_output=True, text=True, check=False)
    except OSError:
        return "unknown"
    return result.stdout.strip() if result.returncode == 0 else "unknown"


def load_digests():
    with open(DIGESTS) as f:
        return json.load(f)


def run_workload(binary, workload, seed, seconds, trace, echo=True):
    """Runs one workload; returns (exit code, stdout lines)."""
    digests = load_digests()
    args = [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", "1" if trace else "0", "--commit", commit()]
    canary = digests["canary"].get(workload)
    if canary:
        args += ["--canary-digest", canary]
    prefix = digests["prefix"].get(workload, {}).get(str(seed))
    if prefix:
        args += ["--prefix-digest", prefix]
    if trace:
        os.makedirs(OUT, exist_ok=True)
        args += ["--trace-out", os.path.join(OUT, "trace-%s.csv" % workload)]
    proc = subprocess.run(args, stdout=subprocess.PIPE, text=True, check=False)
    lines = proc.stdout.splitlines()
    if echo:
        for line in lines:
            print(line)
        sys.stdout.flush()
    return proc.returncode, lines


def last_json(lines):
    return json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None


def run_all(args):
    """Every workload, untraced then traced: prints each metric with its unit
    and writes the results (with provenance) to .bench_out/results.json, and
    to --write-baseline when given."""
    binary = build("perfbench")
    settings = build_settings()
    if args.write_baseline and (settings["CMAKE_BUILD_TYPE"] != "Release" or
                                settings["DPS_NATIVE"].upper() in ("ON", "1", "TRUE")):
        log("run.py: refusing to write a baseline from a %s build with DPS_NATIVE=%s; "
            "baselines come from Release builds without DPS_NATIVE" %
            (settings["CMAKE_BUILD_TYPE"] or "untyped", settings["DPS_NATIVE"]))
        return 2
    with open(BENCHMARK) as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    results = {}
    status = 0
    for workload in WORKLOADS:
        entry = {}
        for trace in (False, True):
            code, lines = run_workload(binary, workload, args.seed, seconds, trace, echo=False)
            result = last_json(lines)
            if code != 0 or result is None or not result["correct"]:
                status = 1
            provenance = next((json.loads(l[len("provenance "):]) for l in lines
                               if l.startswith("provenance ")), {})
            breakdown = [l[len("span "):] for l in lines if l.startswith("span ")]
            entry["per_layer" if trace else "end_to_end"] = result
            entry.setdefault("provenance", provenance)
            if trace:
                entry["breakdown"] = breakdown
        results[workload] = entry
        for kind in ("end_to_end", "per_layer"):
            result = entry[kind] or {"metrics": {}, "correct": False}
            print("%s %s correct=%s" % (workload, kind, result["correct"]))
            for name, metric in result["metrics"].items():
                print("  %-26s %14.6g %s" % (name, metric["value"], metric["unit"]))
    os.makedirs(OUT, exist_ok=True)
    document = {"seed": args.seed, "seconds": seconds, "build": settings, "results": results}
    paths = [os.path.join(OUT, "results.json")]
    if args.write_baseline:
        paths.append(args.write_baseline)
    for path in paths:
        with open(path, "w") as f:
            json.dump(document, f, indent=1, sort_keys=True)
            f.write("\n")
        log("run.py: wrote %s" % path)
    return status


def record_digests(args):
    """Stores the canary and prefix digests of one run in digests.json: a
    deliberate change to the benchmark's expected outputs."""
    binary = build("perfbench")
    _, lines = run_workload(binary, args.workload, args.seed, 1, False, echo=False)
    found = dict(l.split()[:2] for l in lines if l.startswith(("canary_digest", "prefix_digest")))
    digests = load_digests()
    digests["canary"][args.workload] = found["canary_digest"]
    digests["prefix"].setdefault(args.workload, {})[str(args.seed)] = found["prefix_digest"]
    with open(DIGESTS, "w") as f:
        json.dump(digests, f, indent=1, sort_keys=True)
        f.write("\n")
    log("run.py: recorded %s seed %d: %s" % (args.workload, args.seed, found))
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true")
    parser.add_argument("--write-baseline", metavar="FILE")
    parser.add_argument("--selftest", action="store_true")
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args()

    try:
        if args.selftest:
            return subprocess.run([build("perfbench_selftest")], check=False).returncode
        if args.all:
            return run_all(args)
        if not args.workload:
            parser.error("--workload is required")
        if args.record_digests:
            return record_digests(args)
        if args.seconds is None:
            parser.error("--seconds is required")
        code, _ = run_workload(build("perfbench"), args.workload, args.seed, args.seconds,
                               args.trace == 1)
        return code
    except (subprocess.CalledProcessError, OSError, ValueError, KeyError) as e:
        log("run.py: %s" % e)
        return 1


if __name__ == "__main__":
    sys.exit(main())
