#!/usr/bin/env python3
"""Compare two sets of benchmark runs against BENCHMARK.json's bounds.

  python3 qbench/compare.py A.jsonl B.jsonl [--config BENCHMARK.json]

Each set is a JSON-lines file written by `qbench/run.py --repeat`.
For every workload and end-to-end metric it prints the median and
quartiles of each set (statistics.quantiles, n=4) and the spread
(Q3 - Q1) / median, and says whether the sets agree:

  * each set's spread is within the metric's bound (setup_s exempt:
    one cold set-up per run is a noisy sample by nature, and only its
    median is held to the bound);
  * B's median is not worse than A's by more than the bound;
  * the share of failed ops is exactly the same in both sets.

Exit status 0 when everything agrees, 1 otherwise.
  python3 qbench/compare.py --selftest   checks this logic.
"""

import argparse
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(path):
    runs = {}
    with open(path) as f:
        for line in f:
            if line.strip():
                rec = json.loads(line)
                runs.setdefault(rec["workload"], []).append(rec["result"])
    return runs


def quartiles(values):
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def failed_share(results):
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    return failed, attempted


def compare(config, a_runs, b_runs, out=sys.stdout):
    """Print the comparison; return True when the sets agree."""
    agree = True
    for w in config["workloads"]:
        name = w["name"]
        a, b = a_runs.get(name, []), b_runs.get(name, [])
        if not a or not b:
            print(f"{name}: missing from a set", file=out)
            agree = False
            continue
        print(f"{name} ({len(a)} vs {len(b)} runs)", file=out)
        for side, rs in (("A", a), ("B", b)):
            if not all(r["correct"] for r in rs):
                print(f"  set {side} has an incorrect run", file=out)
                agree = False
        fa, na = failed_share(a)
        fb, nb = failed_share(b)
        # Exact comparison of the two fractions, in integers.
        if fa * nb != fb * na:
            print(f"  failed share differs: {fa}/{na} vs {fb}/{nb}",
                  file=out)
            agree = False
        for m in config["end_to_end"]:
            key, bound = m["name"], m["bound"]
            va = [r["metrics"][key]["value"] for r in a]
            vb = [r["metrics"][key]["value"] for r in b]
            qa, qb = quartiles(va), quartiles(vb)
            sa = (qa[2] - qa[0]) / qa[1] if qa[1] else float("inf")
            sb = (qb[2] - qb[0]) / qb[1] if qb[1] else float("inf")
            if m["better"] == "lower":
                drift = qb[1] / qa[1] - 1 if qa[1] else float("inf")
            else:
                drift = 1 - qb[1] / qa[1] if qa[1] else float("inf")
            ok = drift <= bound
            if key != "setup_s":
                ok = ok and sa <= bound and sb <= bound
            agree = agree and ok
            print(f"  {key:<12} A {qa[1]:.6g} [{qa[0]:.6g}, {qa[2]:.6g}]"
                  f" spread {sa:.3f} | B {qb[1]:.6g} [{qb[0]:.6g},"
                  f" {qb[2]:.6g}] spread {sb:.3f} | worse by"
                  f" {drift:+.3f} bound {bound} "
                  f"{'ok' if ok else 'OUT OF BOUND'}", file=out)
    print("AGREE" if agree else "DISAGREE", file=out)
    return agree


def selftest():
    import io
    config = {"workloads": [{"name": "w"}],
              "end_to_end": [{"name": "t", "unit": "s", "better": "lower",
                              "bound": 0.1},
                             {"name": "setup_s", "unit": "s",
                              "better": "lower", "bound": 0.25}]}

    def runs(ts, setups=None, failed=0, correct=True):
        setups = setups or [1.0] * len(ts)
        return {"w": [{"correct": correct, "attempted": 100,
                       "failed": failed,
                       "metrics": {"t": {"value": t, "unit": "s"},
                                   "setup_s": {"value": s, "unit": "s"}}}
                      for t, s in zip(ts, setups)]}

    steady = [1.0, 1.01, 0.99, 1.0, 1.02, 0.98, 1.0, 1.01, 0.99, 1.0]
    cases = [
        ("identical steady sets agree", runs(steady), runs(steady), True),
        ("a 20% slower B disagrees", runs(steady),
         runs([t * 1.2 for t in steady]), False),
        ("a 20% faster B agrees", runs(steady),
         runs([t * 0.8 for t in steady]), True),
        ("a wide spread disagrees", runs(steady),
         runs([1.0, 1.3, 0.7, 1.0, 1.3, 0.7, 1.0, 1.3, 0.7, 1.0]), False),
        ("a noisy setup_s spread is exempt", runs(steady),
         runs(steady, [1.0, 1.4, 0.8, 1.0, 1.4, 0.8, 1.0, 1.1, 0.9, 1.0]),
         True),
        ("a setup_s median 30% worse disagrees", runs(steady),
         runs(steady, [1.3] * 10), False),
        ("a different failed share disagrees", runs(steady, failed=2),
         runs(steady, failed=3), False),
        ("an incorrect run disagrees", runs(steady),
         runs(steady, correct=False), False),
    ]
    bad = 0
    for what, a, b, want in cases:
        got = compare(config, a, b, out=io.StringIO())
        print(("ok    " if got == want else "FAIL  ") + what)
        bad += got != want
    print(f"compare selftest {'passed' if not bad else 'FAILED'}: "
          f"{bad} failing case(s)")
    return 1 if bad else 0


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("a", nargs="?")
    p.add_argument("b", nargs="?")
    p.add_argument("--config", default=os.path.join(ROOT, "BENCHMARK.json"))
    p.add_argument("--selftest", action="store_true")
    args = p.parse_args()
    if args.selftest:
        return selftest()
    if not (args.a and args.b):
        p.error("two sets of runs are required")
    with open(args.config) as f:
        config = json.load(f)
    return 0 if compare(config, load(args.a), load(args.b)) else 1


if __name__ == "__main__":
    sys.exit(main())
