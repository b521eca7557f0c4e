#!/usr/bin/env python3
"""Builds the benchmark suite from source and runs one workload, or all of them.

    python3 benchsuite/run.py --workload <name|all> --seed <n> --seconds <s> \
        --trace <0|1> [--out-dir <dir>] [--build-dir <dir>]

Run it from the repository root. CMake builds benchsuite/ (Release) into
.bench_build, with the build log on stderr. Each workload runs in its own
bench_suite process, whose last stdout line is the result JSON; this script
checks that the result names exactly the metrics BENCHMARK.json lists
(end_to_end with --trace 0, per_layer with --trace 1) and fails otherwise.
With --out-dir every run also writes <workload>.seed<n>.trace<t>.json there,
the input of compare.py.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no lowino sources next to the benchmark; run it from a full checkout")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", build_dir, "--target", "bench_suite", "-j", "4"],
                   stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "bench_suite")


def run_workload(binary, expected, name, args):
    cmd = [binary, "--workload", name, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.out_dir:
        cmd += ["--out", os.path.join(args.out_dir,
                                      f"{name}.seed{args.seed}.trace{args.trace}.json")]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"run.py: {name} exited with {proc.returncode}", file=sys.stderr)
        return False
    got = set(json.loads(lines[-1])["metrics"])
    if got != expected:
        print(f"run.py: {name} metrics differ from BENCHMARK.json: missing "
              f"{sorted(expected - got)}, unexpected {sorted(got - expected)}", file=sys.stderr)
        return False
    return True


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    parser.add_argument("--out-dir")
    parser.add_argument("--build-dir", default=os.path.join(ROOT, ".bench_build"))
    args = parser.parse_args()

    binary = build(os.path.abspath(args.build_dir))
    if args.out_dir:
        os.makedirs(args.out_dir, exist_ok=True)
    expected = {m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    ok = True
    for name in names if args.workload == "all" else [args.workload]:
        ok = run_workload(binary, expected, name, args) and ok
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
