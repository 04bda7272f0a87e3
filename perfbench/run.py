#!/usr/bin/env python3
"""Build and run the simulator's wall-clock benchmark.

Run from the repository root:

  python3 perfbench/run.py --workload grep-mix --seed 1 --seconds 20 --trace 0
  python3 perfbench/run.py --self-test

A measuring run builds perfbench/perfbench.exe with dune, runs it, and
prints its report; the last line is one JSON object with the keys
correct, attempted, failed and metrics.  A failed output check exits
nonzero and prints no result.  --self-test checks the workload sizing
(see README.md) instead of measuring.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "perfbench.exe")
WORKLOADS = ["grep-mix", "monitored-point", "sharded-rsa"]
RUN_TIMEOUT_S = 170


def dune_command():
    if shutil.which("dune"):
        return ["dune"]
    if shutil.which("opam"):
        return ["opam", "exec", "--", "dune"]
    sys.exit("perfbench: dune not found")


def build():
    # The shared dune cache lives outside the checkout; keep it off.
    cmd = dune_command() + [
        "build", "--root", ".", "--cache=disabled", "--display=quiet",
        "./perfbench/perfbench.exe",
    ]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                          text=True, timeout=870)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        sys.exit("perfbench: build failed")


def run(workload, seed, seconds, trace, domains=None, inputs=None):
    """Run the executable once; return (report lines, result object)."""
    cmd = [EXE, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if domains is not None:
        cmd += ["--domains", str(domains)]
    if inputs is not None:
        cmd += ["--inputs", str(inputs)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=RUN_TIMEOUT_S)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"perfbench: {workload} seed {seed} failed (exit {proc.returncode})")
    result = json.loads(lines[-1])
    if result.get("correct") is not True or result.get("attempted", 0) < 1:
        sys.exit(f"perfbench: {workload} seed {seed} produced no valid result")
    return lines[:-1], result


def value(result, name):
    return result["metrics"][name]["value"]


def self_test():
    ok = True
    # Seed cliff: a held-out seed must not land in another latency regime.
    for workload in WORKLOADS:
        p99 = {}
        for seed in (1, 2, 3, 7):
            _, result = run(workload, seed, 0, 0, inputs=1)
            p99[seed] = value(result, "sim_read_p99_ms")
        spread = max(p99.values()) / min(p99.values())
        good = spread <= 2.0
        ok &= good
        print(f"{'ok  ' if good else 'FAIL'} {workload}: sim_read_p99_ms by seed "
              f"{ {s: round(v, 1) for s, v in p99.items()} }, max/min {spread:.3f} (limit 2)")
    # Allocation on worker domains is counted: the same run allocates the
    # same words whether its shards run on one domain or two.
    words = {}
    for domains in (0, 2):
        _, result = run("sharded-rsa", 1, 0, 0, domains=domains, inputs=1)
        words[domains] = value(result, "minor_words_per_read")
    diff = abs(words[2] - words[0]) / words[0]
    good = diff <= 0.01
    ok &= good
    print(f"{'ok  ' if good else 'FAIL'} sharded-rsa minor_words_per_read: domains 0 "
          f"{words[0]:.1f}, domains 2 {words[2]:.1f}, difference {100 * diff:.3f}% (limit 1%)")
    return ok


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")
    build()
    if args.self_test:
        sys.exit(0 if self_test() else 1)
    lines, result = run(args.workload, args.seed, args.seconds, args.trace)
    for line in lines:
        print(line)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
