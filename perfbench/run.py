#!/usr/bin/env python3
"""Whole-process benchmark of the qamarket simulator.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

Builds perfbench/cpp (with the repository's libraries) into
.bench_build/perfbench on first use, then runs the named workload as
repeated independent processes of qa_perfbench for about S seconds. Each
repetition is one whole workload: model build, capacity estimate, workload
generation, allocator build, Federation construction, Run, summary.

--trace 0 prints the end-to-end metrics (medians over the repetitions).
--trace 1 alternates untraced and traced repetitions and prints the
per-layer metrics of the traced ones, the wall-time ledger, and
trace.overhead_frac (traced vs untraced run_s).

Every repetition's outputs are checked (conservation, capacity estimate,
ledger completeness), and every repetition of one seed, traced or not, must
produce identical simulated results. The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}; attempted
and failed count the queries offered and dropped over all repetitions.
Exit code 0 when every check passed, 1 when one failed, 2 on bad
arguments, 3 when the program cannot be built.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "qa_perfbench")

# BENCHMARK.json is the single list of measured workloads and of metric
# names and units; qa_perfbench must produce every metric it declares.
with open(os.path.join(ROOT, "BENCHMARK.json")) as spec_file:
    SPEC = json.load(spec_file)
# The paper-scale workloads run and are checked the same way, but are not
# in BENCHMARK.json: their host times drift with the shared machine as
# much as the others', and two workloads are what fit the measured run
# length (see README.md).
EXTRA_WORKLOADS = ["fig4_broadcast_100", "zipf_overload_100"]
WORKLOADS = [w["name"] for w in SPEC["workloads"]] + EXTRA_WORKLOADS
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}

# A workload seed kept out of development runs, for confirming a claimed
# change on inputs it was not tuned on.
HOLDOUT_SEED = 7919

# The process ledger: qa_perfbench's top-level steps, in order, plus the
# wall time none of them covers.
LEDGER = ["query.model_build_s", "market.capacity_s", "workload.gen_s",
          "allocation.build_s", "sim.ctor_s", "sim.run_s", "stats.summary_s",
          "unattributed_s"]

# Share of wall_s the ledger may leave unattributed.
UNATTRIBUTED_LIMIT = 0.05
# A repetition taking longer than this is treated as hung.
REP_TIMEOUT_S = 150
# Repetitions run regardless of --seconds, so medians exist.
MIN_REPS = 3
MIN_TRACED_REPS = 2


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds qa_perfbench; False on failure."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        log("perfbench: repository sources not found next to perfbench/")
        return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"),
                      "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "qa_perfbench",
                  "-j", jobs])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True)
        except OSError as err:
            log(f"perfbench: cannot run {cmd[0]}: {err}")
            return False
        if done.returncode != 0:
            log(done.stdout[-4000:])
            log(f"perfbench: build step failed: {' '.join(cmd)}")
            return False
    return os.path.isfile(BINARY)


def run_once(workload, seed, traced):
    """Runs one repetition; returns (record, wall seconds, error)."""
    t0 = time.monotonic_ns()
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--trace", "1" if traced else "0", "--t0-ns", str(t0)]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, REP_TIMEOUT_S, f"{workload}: repetition timed out"
    elapsed = (time.monotonic_ns() - t0) * 1e-9
    lines = done.stdout.strip().splitlines()
    try:
        record = json.loads(lines[-1])
    except (IndexError, ValueError):
        return None, elapsed, (f"{workload}: qa_perfbench exited {done.returncode}"
                               f" without a result: {done.stderr.strip()}")
    if done.returncode != 0 or record.get("failures"):
        reasons = "; ".join(record.get("failures", [])) or done.stderr.strip()
        return record, elapsed, f"{workload}: {reasons}"
    return record, elapsed, None


def check_ledger(workload, record):
    layers = record["layers"]
    wall = record["host"]["wall_s"]
    share = layers["unattributed_s"] / wall if wall > 0 else 1.0
    if not (abs(share) < UNATTRIBUTED_LIMIT):
        return (f"{workload}: unattributed time {100 * share:.2f}% of wall_s"
                f" (limit {100 * UNATTRIBUTED_LIMIT:.0f}%)")
    return None


def measure(workload, seed, seconds, traced):
    """Repeats the workload for about `seconds`.

    Returns ({traced: [records]}, [errors]); stops at the first error.
    """
    records = {False: [], True: []}
    errors = []
    start = time.monotonic()
    rep_times = []
    while True:
        n_plain, n_traced = len(records[False]), len(records[True])
        need_more = (n_plain < MIN_REPS if not traced else
                     min(n_plain, n_traced) < MIN_TRACED_REPS)
        if not need_more:
            elapsed = time.monotonic() - start
            if elapsed + statistics.mean(rep_times) > seconds:
                break
        # Traced passes alternate untraced and traced repetitions, so both
        # see the same machine conditions.
        this_traced = traced and n_traced < n_plain
        record, rep_s, error = run_once(workload, seed, this_traced)
        rep_times.append(rep_s)
        if this_traced and not error:
            error = check_ledger(workload, record)
        if error:
            errors.append(error)
            break
        records[this_traced].append(record)

    everything = records[False] + records[True]
    sims = [r["sim"] for r in everything]
    if sims and any(s != sims[0] for s in sims[1:]):
        errors.append(f"{workload}: simulated metrics differ between"
                      " repetitions of seed %d (traced and untraced)" % seed)
    return records, errors


def median_of(records, section, key):
    return statistics.median(r[section][key] for r in records)


def end_to_end_metrics(records):
    metrics = {}
    sim = records[0]["sim"]  # identical across repetitions (checked)
    for name, unit in END_TO_END.items():
        if name == "goodput_frac":
            value = sim["completed"] / sim["arrivals"]
        elif name in sim:
            value = sim[name]
        else:
            value = median_of(records, "host", name)
        metrics[name] = {"value": value, "unit": unit}
    return metrics


def layer_metrics(plain, traced):
    metrics = {}
    for name, unit in PER_LAYER.items():
        if name == "trace.overhead_frac":
            base = median_of(plain, "host", "run_s")
            value = (median_of(traced, "host", "run_s") - base) / base
        else:
            value = median_of(traced, "layers", name)
        metrics[name] = {"value": value, "unit": unit}
    return metrics


def print_report(workload, seed, records, metrics, traced):
    plain, with_trace = records[False], records[True]
    sim = (plain or with_trace)[0]["sim"]
    print(f"== {workload} (seed {seed}): {len(plain)} untraced + "
          f"{len(with_trace)} traced repetitions")
    print(f"   {sim['arrivals']} queries, {sim['resp_samples']} response-time"
          f" samples, {sim['dropped']} dropped, capacity estimate "
          f"{sim['capacity_qps']:.6g} q/s")
    if traced:
        wall = median_of(with_trace, "host", "wall_s")
        print(f"   wall-time ledger (traced, medians; wall_s {wall:.4f} s):")
        for key in LEDGER:
            value = metrics[key]["value"]
            print(f"     {key:<28} {value:12.6f} s  {100 * value / wall:6.2f}%")
    for name, entry in metrics.items():
        print(f"   {name:<34} {entry['value']:>16.6f} {entry['unit']}")


def run_workload(workload, seed, seconds, traced):
    records, errors = measure(workload, seed, seconds, traced)
    plain, with_trace = records[False], records[True]
    metrics = {}
    if not errors:
        metrics = (layer_metrics(plain, with_trace) if traced
                   else end_to_end_metrics(plain))
        print_report(workload, seed, records, metrics, traced)
    everything = plain + with_trace
    attempted = sum(r["sim"]["arrivals"] for r in everything)
    failed = sum(r["sim"]["dropped"] for r in everything)
    for error in errors:
        log(f"CHECK FAILED: {error}")
    return {"correct": not errors, "attempted": max(attempted, 1),
            "failed": failed, "metrics": metrics}


def main():
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        epilog=f"Held-out confirmation seed: {HOLDOUT_SEED}.")
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not build():
        return 3
    ok = True
    for workload in WORKLOADS if args.workload == "all" else [args.workload]:
        result = run_workload(workload, args.seed, args.seconds,
                              bool(args.trace))
        ok = ok and result["correct"]
        print(json.dumps(result), flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
