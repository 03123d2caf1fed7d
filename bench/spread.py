"""Run the benchmark once per seed on each workload and report the spread.

    python3 bench/spread.py [--first-seed 1] [--workload eof_points ...]

It makes ten runs per workload, each as long as ``run_seconds`` in
BENCHMARK.json, with seeds counting up from ``--first-seed``.  For each workload and end-to-end metric it prints the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the distance between them as a
share of the median, with the share of failed operations per run and the
host's CPU steal, read from /proc/stat around each run.  The raw runs go to
.bench_out/spread.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from run import OUT, ROOT, WORKLOADS

HERE = Path(__file__).resolve().parent
RUNS = 10


def cpu_times():
    """(steal, total) jiffies of all CPUs, or None where /proc/stat is absent."""
    try:
        with open("/proc/stat") as fh:
            fields = [int(x) for x in fh.readline().split()[1:9]]
    except OSError:
        return None
    return fields[7], sum(fields)


def run(workload, seed, seconds):
    before = cpu_times()
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          cwd=ROOT, capture_output=True, text=True, timeout=900)
    wall = time.perf_counter() - t0
    after = cpu_times()
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed} exited with {proc.returncode}")
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    steal = None
    if before and after and after[1] > before[1]:
        steal = 100.0 * (after[0] - before[0]) / (after[1] - before[1])
    res.update(seed=seed, wall_s=wall, steal_pct=steal)
    return res


def summarize(runs):
    rows = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        rows[name] = {"median": med, "q1": q1, "q3": q3, "iqr_share": (q3 - q1) / med,
                      "unit": runs[0]["metrics"][name]["unit"]}
    return rows


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--workload", action="append", choices=WORKLOADS)
    args = p.parse_args(argv)
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]

    print(f"nproc {os.cpu_count()}, {RUNS} runs of {seconds} s per workload")
    report = {}
    for workload in args.workload or WORKLOADS:
        runs = [run(workload, args.first_seed + i, seconds) for i in range(RUNS)]
        shares = sorted({r["failed"] / r["attempted"] for r in runs})
        steals = [r["steal_pct"] for r in runs if r["steal_pct"] is not None]
        print(f"\n{workload}: correct {all(r['correct'] for r in runs)}, failed share "
              f"{shares}, steal {min(steals, default=0):.1f}-{max(steals, default=0):.1f}%, "
              f"wall {max(r['wall_s'] for r in runs):.1f} s at most")
        for name, row in summarize(runs).items():
            print(f"  {name:12s} median {row['median']:.6g} {row['unit']}, quartiles "
                  f"{row['q1']:.6g}..{row['q3']:.6g}, spread {100 * row['iqr_share']:.2f}%")
        report[workload] = runs
    OUT.mkdir(exist_ok=True)
    (OUT / "spread.json").write_text(json.dumps(report, indent=1))


if __name__ == "__main__":
    main()
