#!/usr/bin/env python3
"""Steadiness tool: runs workloads repeatedly and reports each metric's spread.

    python3 perfbench/steady.py [--workload NAME ...] [--seeds 1-10]
                                [--seconds S] [--trace 0|1]
                                [--save FILE] [--compare FILE]

Run it from the repository root. Each run is one invocation of the
benchmark command in BENCHMARK.json, with its own seed. For every metric
the tool prints the median, the first and third quartiles
(statistics.quantiles, n=4) and the spread, (q3 - q1) / median. An
end-to-end metric is marked "ok" when its spread is below a third of its
bound, "wide" otherwise (setup_s is exempt: one cold set-up per run is
expected to vary). It also prints the share of failed operations of each
run, which must be the same in every run, and on stderr the share of the
machine's CPU time its hypervisor stole during each run (/proc/stat), the
usual cause of a wide spread on a shared host.

--save writes the raw values to FILE; --compare reads such a file and
checks, per workload and metric, that this set's median is not worse than
the saved set's by more than the metric's bound.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            low, high = part.split("-")
            seeds.extend(range(int(low), int(high) + 1))
        else:
            seeds.append(int(part))
    return seeds


def cpu_times():
    """(steal, total) jiffies of the whole machine, or None without /proc."""
    try:
        with open("/proc/stat") as handle:
            fields = [int(value) for value in handle.readline().split()[1:]]
    except OSError:
        return None
    return fields[7] if len(fields) > 7 else 0, sum(fields)


def run_once(command, workload, seed, seconds, trace):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    before = cpu_times()
    done = subprocess.run(args, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True)
    after = cpu_times()
    if before and after and after[1] > before[1]:
        steal = (after[0] - before[0]) / (after[1] - before[1])
        sys.stderr.write("%s seed %d: %.1f%% of the machine's CPU time was stolen by "
                         "its host during the run\n" % (workload, seed, 100 * steal))
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stderr)
        raise SystemExit("%s seed %d: exit code %d" % (workload, seed, done.returncode))
    return json.loads(lines[-1])


def worse_by(metric, old, new):
    """How much worse `new` is than `old`, as a share of `old`."""
    if old == 0:
        return 0.0
    change = (new - old) / abs(old)
    return -change if metric.get("better") == "higher" else change


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--save")
    parser.add_argument("--compare")
    options = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    kind = "per_layer" if options.trace else "end_to_end"
    declared = {metric["name"]: metric for metric in spec[kind]}
    workloads = options.workload or [w["name"] for w in spec["workloads"]]
    seconds = options.seconds or spec["run_seconds"]
    seeds = parse_seeds(options.seeds)
    saved = {}
    if options.compare:
        with open(options.compare) as handle:
            saved = json.load(handle)

    raw = {}
    steady = True
    for workload in workloads:
        values = {}
        failed_shares = set()
        correct = True
        for seed in seeds:
            result = run_once(spec["command"], workload, seed, seconds, options.trace)
            correct = correct and result["correct"]
            failed_shares.add((result["failed"], result["attempted"]) if result["failed"] else 0)
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            sys.stderr.write("%s seed %d done\n" % (workload, seed))
        raw[workload] = values
        print("\n%s: %d runs, correct=%s, failed shares=%s"
              % (workload, len(seeds), correct, sorted(failed_shares, key=str)))
        missing = sorted(set(declared) - set(values))
        if missing:
            print("  MISSING metrics: %s" % ", ".join(missing))
            steady = False
        print("  %-44s %14s %14s %14s %8s %6s %s"
              % ("metric", "median", "q1", "q3", "spread", "bound", ""))
        for name, series in values.items():
            middle = statistics.median(series)
            q1, _, q3 = statistics.quantiles(series, n=4) if len(series) > 1 else (middle,) * 3
            spread = (q3 - q1) / abs(middle) if middle else float("inf")
            metric = declared.get(name, {})
            bound = metric.get("bound")
            verdict = ""
            if bound is not None:
                if name == "setup_s":
                    verdict = "(exempt)"
                elif spread < bound / 3:
                    verdict = "ok"
                else:
                    verdict = "wide"
                    steady = False
            if saved.get(workload, {}).get(name) and bound is not None:
                change = worse_by(metric, statistics.median(saved[workload][name]), middle)
                verdict += " %s by %.1f%% than saved%s" % (
                    "worse" if change > 0 else "better", 100 * abs(change),
                    " (past the bound)" if change > bound else "")
                steady = steady and change <= bound
            print("  %-44s %14.6g %14.6g %14.6g %8.3f %6s %s"
                  % (name, middle, q1, q3, spread, "" if bound is None else bound, verdict))
        steady = steady and correct and len(failed_shares) == 1
    if options.save:
        with open(options.save, "w") as handle:
            json.dump(raw, handle, indent=1)
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
