#!/usr/bin/env python3
"""FUNNEL benchmark: one command per workload run (perfbench/README.md).

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload W --reps 10 [--seed N]
    python3 perfbench/run.py --self-test

Run from the root of a checkout. The first call builds perfbench/ (the
program's libraries, funnel_serve and the load generator) with CMake into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench); later calls
reuse the build. A single run prints the generator's lines, an ENV line, and
as its last line one JSON object with "correct", "attempted", "failed" and
"metrics". BENCHMARK.json is the one list of metric names and units: the
generator reports values by name and this script attaches the units.
--reps runs consecutive seeds and prints the result record: the
environment header and the median, quartiles and sample count of every
metric across the runs.
"""
import argparse
import datetime
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["ingest_fanout", "change_storm", "durable_ingest", "batch_review"]
RUN_TIMEOUT_S = 175


def nproc():
    return os.cpu_count() or 1


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return base


def build():
    """Configure and build once; returns the build directory or None."""
    bdir = os.path.join(build_dir(), "perfbench")
    steps = []
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", bdir, "-j", str(nproc()), "--target",
                  "funnel_serve", "funnelbench", "funnelbench_selftest"])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            sys.stderr.write("error: benchmark build failed\n")
            return None
    return bdir


def source_id():
    """git sha when the checkout is a repository, else a hash of the
    sources the benchmark builds."""
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                             text=True)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except OSError:
        pass
    h = hashlib.sha256()
    for top in ("src", "tools", "perfbench"):
        for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(ROOT, top))):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "tree:" + h.hexdigest()[:16]


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def env_header(workload, seed):
    return {
        "sha": source_id(),
        "build_type": "Release",
        "nproc": nproc(),
        "cpu_model": cpu_model(),
        "date": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "workload": workload,
        "seed": seed,
    }


def metric_units(trace):
    """{name: unit} of the run's metrics, from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def with_units(values, trace):
    """The generator's {name: value} as {name: {"value", "unit"}}, or None
    when a name is not in BENCHMARK.json or an end-to-end one is missing.
    A per-layer metric of a layer the workload does not reach reads 0."""
    units = metric_units(trace)
    unknown = sorted(set(values) - set(units))
    missing = sorted(set(units) - set(values))
    if unknown or (missing and not trace):
        sys.stderr.write("error: metrics not in BENCHMARK.json %s, missing %s\n"
                         % (unknown, missing))
        return None
    return {name: {"value": values.get(name, 0.0), "unit": unit}
            for name, unit in units.items()}


def run_once(bdir, workload, seed, seconds, trace, echo=True):
    """One run; returns (result dict, record dict) or None on failure."""
    work = os.path.join(build_dir(), "work-%d" % os.getpid())
    shutil.rmtree(work, ignore_errors=True)
    cmd = [os.path.join(bdir, "funnelbench"), workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--serve", os.path.join(bdir, "funnel_serve"), "--work", work]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write("error: run exceeded %d s\n" % RUN_TIMEOUT_S)
        return None
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout[-4000:])
        sys.stderr.write("error: funnelbench exited %d\n" % proc.returncode)
        return None
    record = {}
    for line in lines[:-1]:
        if line.startswith("RECORD "):
            record = json.loads(line[len("RECORD "):])
        if echo:
            print(line)
        elif line.startswith("# problem"):
            sys.stderr.write("seed %d: %s\n" % (seed, line))
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "values"]:
        sys.stderr.write("error: malformed result line\n")
        return None
    result["metrics"] = with_units(result.pop("values"), trace)
    if result["metrics"] is None:
        return None
    return result, record


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def describe(values, unit=None):
    q1, med, q3 = quartiles(values)
    out = {"median": med, "q1": q1, "q3": q3, "n": len(values),
           "spread": (q3 - q1) / med if med else 0.0}
    if unit is not None:
        out["unit"] = unit
    return out


def reps(bdir, args):
    metrics, units, extras = {}, {}, {}
    failed = attempted = 0
    correct = True
    for i in range(args.reps):
        seed = args.seed + i
        got = run_once(bdir, args.workload, seed, args.seconds, args.trace,
                       echo=False)
        if got is None:
            return 1
        result, record = got
        correct = correct and result["correct"]
        failed += result["failed"]
        attempted += result["attempted"]
        for name, m in result["metrics"].items():
            metrics.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
        for name, v in record.items():
            extras.setdefault(name, []).append(v)
        print("# seed %d: %s" % (seed, json.dumps(
            {k: round(v["value"], 4) for k, v in result["metrics"].items()})),
            file=sys.stderr)
    out = {
        "env": env_header(args.workload, args.seed),
        "runs": args.reps,
        "seconds": args.seconds,
        "trace": args.trace,
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: describe(v, units[k]) for k, v in metrics.items()},
        "record": {k: describe(v) for k, v in extras.items()},
    }
    print(json.dumps(out, indent=1, sort_keys=True))
    return 0 if correct and failed == 0 else 1


def self_test(bdir):
    proc = subprocess.run([os.path.join(bdir, "funnelbench_selftest")])
    ok = proc.returncode == 0
    checks = [
        (quartiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10]) == (2.75, 5.5, 8.25),
         "quartiles of 1..10 are the exclusive-method 2.75/5.5/8.25"),
        (quartiles([4.0]) == (4.0, 4.0, 4.0), "one run is its own quartiles"),
        (describe([9, 10, 11, 10])["spread"] == (10.75 - 9.25) / 10,
         "spread is the quartile distance over the median"),
    ]
    for passed, what in checks:
        print("%s  %s" % ("ok  " if passed else "FAIL", what))
        ok = ok and passed
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=15)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--reps", type=int, default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if not args.self_test and args.workload is None:
        ap.error("--workload is required")
    bdir = build()
    if bdir is None:
        return 1
    if args.self_test:
        return self_test(bdir)
    if args.reps > 0:
        return reps(bdir, args)
    got = run_once(bdir, args.workload, args.seed, args.seconds, args.trace)
    if got is None:
        return 1
    result, _ = got
    print("ENV " + json.dumps(env_header(args.workload, args.seed)))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
