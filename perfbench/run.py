#!/usr/bin/env python3
"""Entry point of the repository benchmark (see BENCHMARK.json).

Run from the repository root:

  python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --record-reference

The first form builds perfbench_driver from ../src and this directory (into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench), runs one
workload and prints, as its last stdout line, one JSON object with the keys
correct, attempted, failed and metrics. With --trace 0 the metrics are the
end_to_end metrics of BENCHMARK.json, with --trace 1 its per_layer metrics;
a per-layer metric of a layer the workload does not touch reads 0.

The second form re-records perfbench/reference.json: the exact work (fronts,
hypervolumes and work counts) of every problem instance, which every later
run is checked against. Re-record only when the inputs or the program's
outputs are meant to change, and say why in the change that does it.
"""

import argparse
import concurrent.futures
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REFERENCE = os.path.join(HERE, "reference.json")
INSTANCES = 20  # kInstances in bench.hpp
# reference.json section -> the workload that records it.
RECORDED = {"search": "search-serial", "ioe-sweep": "ioe-sweep",
            "serve-loopback": "serve-loopback"}
DRIVER_TIMEOUT_S = 170


def log(message):
    print("perfbench: " + message, file=sys.stderr, flush=True)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, target, "perfbench")


def build():
    """Configure and build the driver (both no-ops when up to date); returns
    its path."""
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    for cmd in (["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
                ["cmake", "--build", out, "--target", "perfbench_driver", "-j", jobs]):
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            raise RuntimeError("build failed: " + " ".join(cmd))
    return os.path.join(out, "perfbench_driver")


def source_hash():
    """SHA-256 over the program and benchmark sources; identifies the code
    also in a source tree that has no git history."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode() + b"\0")
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()[:16]


def git_commit():
    try:
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
        return done.stdout.strip() if done.returncode == 0 else "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def run_driver(driver, args):
    done = subprocess.run([driver] + args, stdout=subprocess.PIPE,
                          stderr=sys.stderr, text=True, timeout=DRIVER_TIMEOUT_S)
    if done.returncode != 0:
        raise RuntimeError("driver exited with code %d" % done.returncode)
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError("driver printed nothing")
    return lines


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return spec["per_layer" if trace else "end_to_end"]


def finish(summary, trace):
    """Check the driver's metrics against BENCHMARK.json: every end-to-end
    metric must be measured; a per-layer metric the workload's layers do not
    produce reads 0."""
    measured = summary["metrics"]
    metrics = {}
    for m in declared_metrics(trace):
        name, unit = m["name"], m["unit"]
        if name in measured:
            if measured[name]["unit"] != unit:
                raise RuntimeError("metric %s has unit %s, BENCHMARK.json says %s"
                                   % (name, measured[name]["unit"], unit))
            metrics[name] = measured[name]
        elif trace:
            metrics[name] = {"value": 0, "unit": unit}
        else:
            raise RuntimeError("end-to-end metric %s was not measured" % name)
    extra = set(measured) - set(metrics)
    if extra:
        raise RuntimeError("metrics missing from BENCHMARK.json: %s" % sorted(extra))
    return {"correct": summary["correct"], "attempted": summary["attempted"],
            "failed": summary["failed"], "metrics": metrics}


def record_reference(driver):
    work_root = os.path.join(build_dir(), "record")

    def record(job):
        section, instance = job
        lines = run_driver(driver, [
            "--workload", RECORDED[section], "--seed", str(instance),
            "--seconds", "1", "--trace", "0", "--record", "1",
            "--work-dir", os.path.join(work_root, "%s-%d" % (section, instance))])
        return section, instance, json.loads(lines[-1])

    jobs = [(s, i) for s in RECORDED for i in range(INSTANCES)]
    reference = {}
    with concurrent.futures.ThreadPoolExecutor(max_workers=2) as pool:
        for section, instance, record_line in pool.map(record, jobs):
            reference["input_spec"] = record_line["input_spec"]
            reference.setdefault(section, {})[str(instance)] = record_line["work"]
            log("recorded %s instance %d" % (section, instance))
    with open(REFERENCE, "w") as f:
        json.dump(reference, f, indent=1, sort_keys=True)
        f.write("\n")
    log("wrote " + REFERENCE)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args()

    try:
        driver = build()
        if args.record_reference:
            record_reference(driver)
            return 0
        if not args.workload:
            parser.error("--workload is required")
        lines = run_driver(driver, [
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", repr(args.seconds), "--trace", str(args.trace),
            "--reference", REFERENCE,
            "--work-dir", os.path.join(build_dir(), "work"),
            "--git-commit", git_commit(), "--source-hash", source_hash()])
        result = finish(json.loads(lines[-1]), args.trace == 1)
    except (RuntimeError, OSError, ValueError, KeyError,
            subprocess.SubprocessError) as e:
        log(str(e))
        return 1
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
