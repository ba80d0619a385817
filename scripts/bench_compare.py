#!/usr/bin/env python3
"""Compare two google-benchmark JSON outputs and print old-vs-new throughput.

Usage:
  bench_compare.py BASELINE.json NEW.json [--out COMBINED.json]

Both inputs are google-benchmark's JSON format (--benchmark_format=json or
--benchmark_out_format=json), with or without repetitions. When a file
contains repetition aggregates, the `median` aggregate is used (else the
`mean`); otherwise the raw per-benchmark entry is. Throughput is
items_per_second when the benchmark reports it, else bytes_per_second, else
runs/second derived from real_time.

A speedup is only printed when it is resolved: each side has at least
MIN_REPETITIONS repetitions (`run_type: iteration` entries) and the two
per-repetition throughput ranges (min..max) are disjoint, i.e. every
repetition of one side beat every repetition of the other. With k
repetitions per side and no real change that happens with probability
2 / C(2k, k): 0.8 % at k = 5, 0.06 % at k = 7 (the committed artifacts).
Otherwise it prints as "unresolved" — overlapping ranges, or too few
repetitions to tell a win from noise. (Median +/- stddev intervals were
not enough: on a shared machine they called unchanged code a resolved
1.15x speedup.)

With --out, also writes a combined JSON artifact holding the baseline and
new numbers, the coefficient of variation of each side (the `cv`
aggregate of real_time, null without repetitions) and the speedup per
benchmark; benchmarks only one side has are kept as new or removed rows.
The committed bench/results/BENCH_micro_exec.json and
bench/results/BENCH_strategy.json are produced this way.
"""

import argparse
import json
import sys

_TIME_UNIT_NS = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}

# Fewest repetitions per side for a speedup to count as resolved.
MIN_REPETITIONS = 5


# Throughput fields in preference order, with the unit each is printed in.
_THROUGHPUT_FIELDS = (("events_per_second", "events/s"),
                      ("items_per_second", "items/s"),
                      ("bytes_per_second", "bytes/s"))


def _throughput(entry):
    """(value, metric-name) for one benchmark entry."""
    for field, metric in _THROUGHPUT_FIELDS:
        if field in entry:
            return entry[field], metric
    ns = entry["real_time"] * _TIME_UNIT_NS.get(entry.get("time_unit", "ns"))
    return (1e9 / ns if ns else 0.0), "runs/s"


def load(path):
    """{benchmark-name: (entry, repetition throughputs)}.

    The entry is the `median` aggregate when present, else the `mean`, else
    the raw run; the list holds the throughput of every `iteration` entry
    (one per repetition).
    """
    return {name: (entry, reps)
            for name, (entry, reps, _) in load_with_cv(path).items()}


def load_with_cv(path):
    """{benchmark-name: (entry, repetition throughputs, cv or None)}: load()
    plus the coefficient of variation of real_time across repetitions (the
    `cv` aggregate), or None without repetitions."""
    with open(path) as f:
        doc = json.load(f)
    raw, reps = {}, {}
    by_aggregate = {"median": {}, "mean": {}, "cv": {}}
    for entry in doc.get("benchmarks", []):
        name = entry.get("run_name", entry.get("name", ""))
        if entry.get("run_type") == "aggregate":
            by_aggregate.get(entry.get("aggregate_name"), {})[name] = entry
        else:
            raw.setdefault(name, entry)
            reps.setdefault(name, []).append(_throughput(entry)[0])
    picked = {**raw, **by_aggregate["mean"], **by_aggregate["median"]}
    cv = {name: e.get("real_time") for name, e in by_aggregate["cv"].items()}
    return {name: (entry, reps.get(name, []), cv.get(name))
            for name, entry in picked.items()}


def speedup(base, new):
    """(ratio, resolved) of new over base throughput; each side is an
    (entry, repetition throughputs) pair from load(). Resolved when both
    sides have MIN_REPETITIONS repetitions and their ranges are disjoint."""
    base_v, _ = _throughput(base[0])
    new_v, _ = _throughput(new[0])
    ratio = new_v / base_v if base_v else float("inf")
    a, b = base[1], new[1]
    resolved = (len(a) >= MIN_REPETITIONS and len(b) >= MIN_REPETITIONS and
                (max(a) < min(b) or max(b) < min(a)))
    return ratio, resolved


def environment_header(path):
    """Execution-environment header for the combined artifact.

    Pulls available_cores / cxx_flags out of google-benchmark's context
    block (bench/micro_main.h registers them via AddCustomContext) so the
    committed artifact states on its face how many cores the numbers were
    measured on.
    """
    with open(path) as f:
        ctx = json.load(f).get("context", {})
    cores = ctx.get("available_cores") or ctx.get("num_cpus")
    try:
        cores = int(cores)
    except (TypeError, ValueError):
        cores = None
    return {
        "available_cores": cores,
        "cxx_flags": ctx.get("cxx_flags"),
        "library_build_type": ctx.get("library_build_type"),
    }


def spawn_speedups(run):
    """{name: (ratio, resolved)} vs the baseline-variant sibling in one run.

    Benchmarks come in variant families measured in the same invocation:
    the multi-stage plan executor against its per-stage thread-spawn
    baseline (MultiStagePlan vs MultiStagePlanSpawn) and the simulation-kernel
    benchmarks as Heap/Calendar (binary-heap baseline vs calendar-queue
    scheduler). For each non-baseline variant
    this reports how much faster it runs than its baseline sibling of the
    same invocation, so the artifact records the comparison even when the
    committed cross-run baseline predates these benchmarks.
    """
    pairs = (("MultiStagePlan/", "MultiStagePlanSpawn/"),
             ("Calendar", "Heap"))
    out = {}
    for name, entry in run.items():
        for variant, baseline in pairs:
            if variant in name:
                sibling = name.replace(variant, baseline)
                if sibling in run and sibling != name:
                    out[name] = speedup(run[sibling], entry)
                break
    return out


def fmt_speedup(ratio, resolved):
    return f"{ratio:6.2f}x" if resolved else "unresolved"


def fmt(value):
    for scale, suffix in ((1e9, "G"), (1e6, "M"), (1e3, "k")):
        if value >= scale:
            return f"{value / scale:.2f}{suffix}"
    return f"{value:.1f}"


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline")
    parser.add_argument("new")
    parser.add_argument("--out", help="write combined JSON artifact here")
    args = parser.parse_args(argv)

    old_cv = {n: c for n, (_, _, c) in load_with_cv(args.baseline).items()}
    new_cv = {n: c for n, (_, _, c) in load_with_cv(args.new).items()}
    old = load(args.baseline)
    new = load(args.new)
    shared = [name for name in new if name in old]
    if not shared:
        print("no overlapping benchmarks between the two files",
              file=sys.stderr)
        return 1

    vs_spawn = spawn_speedups(new)

    def annotate(name):
        if name in vs_spawn:
            return f"  [{fmt_speedup(*vs_spawn[name]).strip()} vs baseline]"
        return ""

    def vs_spawn_field(name):
        if name not in vs_spawn:
            return None
        ratio, resolved = vs_spawn[name]
        return round(ratio, 4) if resolved else "unresolved"

    width = max(len(n) for n in list(new) + list(old))
    print(f"{'benchmark':<{width}}  {'old':>10}  {'new':>10}  speedup")
    combined = []
    for name in shared:
        old_v, metric = _throughput(old[name][0])
        new_v, _ = _throughput(new[name][0])
        ratio, resolved = speedup(old[name], new[name])
        print(f"{name:<{width}}  {fmt(old_v):>10}  {fmt(new_v):>10}  "
              f"{fmt_speedup(ratio, resolved):>10}  ({metric})"
              f"{annotate(name)}")
        combined.append({
            "name": name,
            "metric": metric,
            "baseline": old_v,
            "after": new_v,
            "baseline_cv": old_cv.get(name),
            "after_cv": new_cv.get(name),
            "speedup": round(ratio, 4) if resolved else "unresolved",
            "speedup_vs_spawn": vs_spawn_field(name),
        })
    only_new = sorted(set(new) - set(old))
    only_old = sorted(set(old) - set(new))
    for name in only_new:
        new_v, metric = _throughput(new[name][0])
        print(f"{name:<{width}}  {'-':>10}  {fmt(new_v):>10}  {'new':>10}  "
              f"({metric}){annotate(name)}")
        combined.append({
            "name": name,
            "metric": metric,
            "baseline": None,
            "after": new_v,
            "baseline_cv": None,
            "after_cv": new_cv.get(name),
            "speedup": None,
            "speedup_vs_spawn": vs_spawn_field(name),
        })
    for name in only_old:
        old_v, metric = _throughput(old[name][0])
        print(f"{name:<{width}}  {fmt(old_v):>10}  {'-':>10}  "
              f"{'removed':>10}  ({metric})")
        combined.append({
            "name": name,
            "metric": metric,
            "baseline": old_v,
            "after": None,
            "baseline_cv": old_cv.get(name),
            "after_cv": None,
            "speedup": None,
            "speedup_vs_spawn": None,
        })

    if args.out:
        with open(args.out, "w") as f:
            json.dump({
                "baseline_file": args.baseline,
                "new_file": args.new,
                "environment": environment_header(args.new),
                "benchmarks": combined,
            }, f, indent=2)
            f.write("\n")
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
