#!/usr/bin/env python3
"""Build qsurf from source and run the repository benchmark.

Run from the root of a checkout:

  python3 qbench/run.py --workload figures-congested --seed 1 \\
          --seconds 20 --trace 0
      One run of one workload.  The last line of standard output is
      {"correct", "attempted", "failed", "metrics"}: the end-to-end
      metrics with --trace 0, the per-layer metrics with --trace 1.

  python3 qbench/run.py --workload all [--seed 1] [--seconds 20]
      Every workload, untraced then traced: prints each end-to-end
      metric by name and unit, ops attempted and failed, and the
      tracing overhead (traced wall_s over untraced wall_s, minus 1).

  python3 qbench/run.py --workload deep-serial --repeat 10 --out a.jsonl
      Ten untraced runs, seeds 1..10, one JSON line each in a.jsonl:
      a set of runs for qbench/compare.py.

  python3 qbench/run.py --selftest
      The benchmark's own tests (checks on perturbed outputs, and the
      comparison command on synthetic sets).

The build goes to $CARGO_TARGET_DIR when set, else .bench_build;
sockets, server logs and span traces go to .bench_out.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["figures-congested", "deep-serial", "serve-mix"]
RUN_TIMEOUT_S = 170


def build_dir():
    return os.environ.get("CARGO_TARGET_DIR") or ".bench_build"


def build(targets):
    """Configure and build; tool output goes to stderr."""
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", out, "-j", jobs, "--target"] + targets,
    ]
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.exit("qbench: build step failed: " + " ".join(cmd))
    return out


def run_once(out, workload, seed, seconds, trace, echo=True):
    """Run the benchmark program once; return its parsed result."""
    cmd = [os.path.join(out, "qbench"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace),
           "--server", os.path.join(out, "compile_server"),
           "--out-dir", ".bench_out"]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                          text=True, timeout=RUN_TIMEOUT_S)
    if echo:
        sys.stdout.write(done.stdout)
        sys.stdout.flush()
    if done.returncode != 0:
        sys.exit(done.returncode)
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-1])


def describe(workload, result):
    print(f"{workload}: correct={str(result['correct']).lower()} "
          f"attempted={result['attempted']} failed={result['failed']}")
    for name, m in result["metrics"].items():
        print(f"  {name:<32} {m['value']:>16.6g} {m['unit']}")


def run_all(out, seed, seconds):
    summary = {}
    for workload in WORKLOADS:
        plain = run_once(out, workload, seed, seconds, 0, echo=False)
        traced = run_once(out, workload, seed, seconds, 1, echo=False)
        describe(workload, plain)
        describe(workload + " (traced)", traced)
        wall = plain["metrics"]["wall_s"]["value"]
        traced_wall = traced["metrics"]["trace.wall_s"]["value"]
        overhead = traced_wall / wall - 1
        print(f"  tracing overhead on wall_s: {overhead:+.1%}")
        summary[workload] = {"untraced": plain, "traced": traced,
                             "trace_overhead": overhead}
    ok = all(s["untraced"]["correct"] and s["traced"]["correct"]
             for s in summary.values())
    print(json.dumps({"correct": ok, "workloads": summary}))
    return 0 if ok else 1


def selftest(out):
    code = subprocess.run([os.path.join(out, "qbench_selftest")]).returncode
    code |= subprocess.run(
        [sys.executable, os.path.join(HERE, "compare.py"), "--selftest"]
    ).returncode
    return code


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS + ["all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--repeat", type=int, default=0,
                   help="runs with seeds seed..seed+N-1, appended to --out")
    p.add_argument("--out", help="JSON-lines file for --repeat")
    p.add_argument("--selftest", action="store_true")
    args = p.parse_args()

    if args.selftest:
        return selftest(build(["qbench_selftest"]))
    if not args.workload:
        p.error("--workload is required")
    out = build(["qbench", "compile_server"])
    if args.workload == "all":
        return run_all(out, args.seed, args.seconds)
    if args.repeat:
        if not args.out:
            p.error("--repeat needs --out")
        with open(args.out, "a") as f:
            for seed in range(args.seed, args.seed + args.repeat):
                r = run_once(out, args.workload, seed, args.seconds,
                             args.trace, echo=False)
                f.write(json.dumps({"workload": args.workload,
                                    "seed": seed, "result": r}) + "\n")
                f.flush()
                describe(f"{args.workload} seed {seed}", r)
        return 0
    run_once(out, args.workload, args.seed, args.seconds, args.trace)
    return 0


if __name__ == "__main__":
    sys.exit(main())
