#!/usr/bin/env python3
"""Builds Maya's server and the perfbench load generator from source, runs one
workload and prints its result as the last line of standard output.

Run from the repository root:

    python3 perfbench/run.py --workload predict --seed 1 --seconds 18 --trace 0

The build goes to $CARGO_TARGET_DIR when set, else .bench_build; server logs
and span files go under it too. --workload all runs every workload in turn
and prints each metric as <workload>.<metric>. See perfbench/README.md.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["predict", "trace_predict", "hyperscale", "search"]


def build(build_dir):
    log_path = os.path.join(build_dir, "perfbench-build.log")
    os.makedirs(build_dir, exist_ok=True)
    with open(log_path, "w") as log:
        for cmd in (
            ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
            ["cmake", "--build", build_dir, "-j4", "--target", "perfbench", "maya_serve"],
        ):
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode != 0:
                log.flush()
                with open(log_path) as failed:
                    sys.stderr.write(failed.read()[-4000:])
                sys.stderr.write("perfbench: build failed (%s)\n" % " ".join(cmd))
                return False
    return True


def revision():
    """The git revision when there is one, plus a digest of the sources the
    server is built from, so runs outside a git checkout stay comparable."""
    try:
        rev = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short", "HEAD"],
                             capture_output=True, text=True, timeout=10).stdout.strip()
    except OSError:
        rev = ""
    digest = hashlib.sha256()
    for base in ("src", "tools"):
        for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(ROOT, base))):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "%s+src.%s" % (rev or "nogit", digest.hexdigest()[:12])


def run_workload(build_dir, workload, args, rev):
    out_dir = os.path.join(build_dir, "runs")
    os.makedirs(out_dir, exist_ok=True)
    cmd = [
        os.path.join(build_dir, "perfbench"),
        "--workload=" + workload,
        "--seed=%d" % args.seed,
        "--seconds=%s" % args.seconds,
        "--trace=%d" % args.trace,
        "--serve=" + os.path.join(build_dir, "maya_serve"),
        "--reference=" + os.path.join(HERE, "data", "reference.tsv"),
        "--out=" + out_dir,
        "--revision=" + rev,
    ]
    return subprocess.run(cmd, stdout=subprocess.PIPE, text=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = parser.parse_args()

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not build(build_dir):
        return 2
    rev = revision()

    if args.workload != "all":
        result = run_workload(build_dir, args.workload, args, rev)
        sys.stdout.write(result.stdout)
        return result.returncode

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for workload in WORKLOADS:
        result = run_workload(build_dir, workload, args, rev)
        lines = result.stdout.strip().splitlines()
        if not lines:
            return result.returncode or 2
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        one = json.loads(lines[-1])
        code = code or result.returncode
        combined["correct"] = combined["correct"] and one["correct"]
        combined["attempted"] += one["attempted"]
        combined["failed"] += one["failed"]
        for name, metric in one["metrics"].items():
            combined["metrics"]["%s.%s" % (workload, name)] = metric
            print("%-40s %14.4f %s" % (workload + "." + name, metric["value"], metric["unit"]))
    print(json.dumps(combined))
    return code


if __name__ == "__main__":
    sys.exit(main())
