#!/usr/bin/env python3
"""Compare two google-benchmark JSON outputs and print old-vs-new throughput.

Usage:
  bench_compare.py BASELINE NEW [--out COMBINED.json]

Each side is a google-benchmark JSON file (--benchmark_format=json or
--benchmark_out_format=json), with or without repetitions, or a directory
of such files whose entries are pooled. A directory is how interleaved
runs are compared: run each binary once per repetition, alternating, and
write every run to its own file (recipe in EXPERIMENTS.md), so slow
drift on a shared machine lands on both sides instead of on one block of
repetitions. When a side contains repetition aggregates, the `median`
aggregate is used (else the `mean`); otherwise the `iteration` entry with
the median throughput is. Throughput is events_per_second,
items_per_second or bytes_per_second when the benchmark reports one, else
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
aggregate of real_time, else computed from the `iteration` entries, null
with fewer than two) and the speedup per benchmark; benchmarks only one side has are kept as new or removed rows.
The committed bench/results/BENCH_micro_exec.json and
bench/results/BENCH_strategy.json are produced this way.
"""

import argparse
import json
import os
import statistics
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


def _read_docs(path):
    """The parsed JSON documents of one side: the file itself, or every
    *.json file of a directory in name order."""
    if os.path.isdir(path):
        names = sorted(n for n in os.listdir(path) if n.endswith(".json"))
        paths = [os.path.join(path, n) for n in names]
    else:
        paths = [path]
    docs = []
    for p in paths:
        with open(p) as f:
            docs.append(json.load(f))
    return docs


def _median_entry(entries):
    """The iteration entry of median throughput. With an even count the
    upper middle entry is returned carrying the mean of the two middle
    throughputs, so the value is the median of all repetitions."""
    ranked = sorted(entries, key=lambda e: _throughput(e)[0])
    mid = ranked[len(ranked) // 2]
    if len(ranked) % 2:
        return mid
    value = statistics.median(_throughput(e)[0] for e in ranked)
    out = dict(mid)
    field = next((f for f, _ in _THROUGHPUT_FIELDS if f in mid), None)
    if field is not None:
        out[field] = value
    else:
        out["real_time"] = (1e9 / value /
                            _TIME_UNIT_NS.get(mid.get("time_unit", "ns")))
    return out


def load(path):
    """{benchmark-name: (entry, repetition throughputs)}.

    The entry is the `median` aggregate when present, else the `mean`, else
    the median `iteration` entry; the list holds the throughput of every
    `iteration` entry (one per repetition).
    """
    return {name: (entry, reps)
            for name, (entry, reps, _) in load_with_cv(path).items()}


def load_with_cv(path):
    """{benchmark-name: (entry, repetition throughputs, cv or None)}: load()
    plus the coefficient of variation of real_time across repetitions (the
    `cv` aggregate, else the sample CV of the `iteration` entries), or None
    with fewer than two repetitions."""
    raw = {}
    by_aggregate = {"median": {}, "mean": {}, "cv": {}}
    for doc in _read_docs(path):
        for entry in doc.get("benchmarks", []):
            name = entry.get("run_name", entry.get("name", ""))
            if entry.get("run_type") == "aggregate":
                by_aggregate.get(entry.get("aggregate_name"), {})[name] = entry
            else:
                raw.setdefault(name, []).append(entry)
    picked = {name: _median_entry(entries) for name, entries in raw.items()}
    picked.update({**by_aggregate["mean"], **by_aggregate["median"]})
    cv = {name: e.get("real_time") for name, e in by_aggregate["cv"].items()}
    for name, entries in raw.items():
        times = [e["real_time"] for e in entries if "real_time" in e]
        if name not in cv and len(times) >= 2 and statistics.mean(times):
            cv[name] = statistics.stdev(times) / statistics.mean(times)
    return {name: (entry, [_throughput(e)[0] for e in raw.get(name, [])],
                   cv.get(name))
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
    ctx = _read_docs(path)[0].get("context", {})
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
    benchmarks as Heap/Radix (binary-heap baseline vs radix-heap
    scheduler). For each non-baseline variant
    this reports how much faster it runs than its baseline sibling of the
    same invocation, so the artifact records the comparison even when the
    committed cross-run baseline predates these benchmarks.
    """
    pairs = (("MultiStagePlan/", "MultiStagePlanSpawn/"),
             ("Radix", "Heap"))
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
