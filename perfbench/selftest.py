#!/usr/bin/env python3
"""Checks the benchmark's side-channel contract on every workload.

Runs each workload once untraced and once traced with the same seed and
requires identical simulated results (response times, messages, drops,
events): the timing wrappers and the attached metrics collector must not
perturb the simulation (DESIGN.md section 9). Also requires both runs to
pass their own output checks and the traced ledger to be complete.

Usage (from the repository root): python3 perfbench/selftest.py [--seed N]
Exit code 0 when every workload passes.
"""

import argparse
import os
import sys

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402  (perfbench/run.py)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=3)
    args = parser.parse_args()
    if not run.build():
        return 3
    failures = 0
    for workload in run.WORKLOADS:
        plain, _, error = run.run_once(workload, args.seed, traced=False)
        traced, _, traced_error = run.run_once(workload, args.seed,
                                               traced=True)
        problems = [e for e in (error, traced_error) if e]
        if not problems:
            ledger = run.check_ledger(workload, traced)
            if ledger:
                problems.append(ledger)
            if plain["sim"] != traced["sim"]:
                diff = sorted(k for k in plain["sim"]
                              if plain["sim"][k] != traced["sim"].get(k))
                problems.append(f"{workload}: traced run changed {diff}")
        status = "FAIL" if problems else "ok"
        print(f"{status:4} {workload}")
        for problem in problems:
            print(f"     {problem}")
        failures += bool(problems)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
