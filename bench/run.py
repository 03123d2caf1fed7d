"""Benchmark rfunc end to end (``--trace 0``) or layer by layer (``--trace 1``).

    python3 bench/run.py --workload certify_sweep --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25 --trace 0

Run it from the root of a source checkout: rfunc is imported from ``src/``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOADS = ("certify_sweep", "eof_points", "state_files", "state_matrices")
SETUP_CHILDREN = 6     # extra fresh processes that time `import rfunc`
MIN_BATCHES = 5        # timed batches per run, whatever --seconds says
MAX_SPANS = 600_000    # traced batches stop once this many spans are held

CHILD_IMPORT = """
import json, time
t0 = time.perf_counter()
import numpy
t1 = time.perf_counter()
import rfunc
t2 = time.perf_counter()
print(json.dumps([t1 - t0, t2 - t1, t2 - t0]))
"""


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def import_in_children(n):
    """(numpy, rfunc without numpy, total) import seconds in n fresh processes."""
    samples = []
    for _ in range(n):
        proc = subprocess.run([sys.executable, "-c", CHILD_IMPORT], cwd=ROOT, env=child_env(),
                              capture_output=True, text=True, timeout=60, check=True)
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return samples


def measure(wl, api, seconds, tracer):
    """Warm-up batch, then whole batches until ``seconds`` have passed.

    With a tracer, every second batch is traced while there is room for spans.
    Returns untraced batch times (ms), traced batch bounds (ns), attempted,
    failed and the unexpected errors.
    """
    untraced, traced = [], []
    attempted = failed = 0
    errors = []

    def one(trace_it):
        nonlocal attempted, failed
        batch = wl.prepare()
        if trace_it:
            tracer.on()
        t0 = time.perf_counter_ns()
        outputs = wl.run(api, batch)
        t1 = time.perf_counter_ns()
        if trace_it:
            tracer.off()
        n_failed, errs = wl.check(batch, outputs)
        attempted += wl.ops_per_batch
        failed += n_failed
        errors.extend(errs)
        return t0, t1

    one(False)  # fills lazy caches of the process; not timed
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or len(untraced) + len(traced) < MIN_BATCHES:
        trace_it = tracer is not None and len(traced) < len(untraced) and not tracer.full()
        t0, t1 = one(trace_it)
        if trace_it:
            traced.append((t0, t1))
        else:
            untraced.append((t1 - t0) / 1e6)
    return untraced, traced, attempted, failed, errors


def run_one(args):
    if not (SRC / "rfunc" / "__init__.py").is_file():
        print(f"no rfunc sources under {SRC.name}/ of {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import rfunc  # the first numerical import of this process
    own_import = time.perf_counter() - t0
    if Path(rfunc.__file__).resolve().parent != SRC / "rfunc":
        print(f"imported rfunc from {rfunc.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import rfunc.cli  # noqa: F401  (the CLI layer; not imported by the package)
    children = import_in_children(SETUP_CHILDREN)

    import tracing
    import workloads

    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        wl = workloads.make(args.workload, args.seed, rfunc, Path(tmp))
        tracer = tracing.Tracer(rfunc, MAX_SPANS) if args.trace else None
        rss_before = peak_rss_mb()
        untraced, traced, attempted, failed, errors = measure(wl, rfunc, args.seconds, tracer)
        rss_after = peak_rss_mb()

    for err in errors[:20]:
        print(f"{args.workload}: {err}", file=sys.stderr)
    if args.trace:
        metrics = tracer.metrics(traced, wl.ops_per_batch, untraced,
                                 getattr(wl, "bytes_per_batch", 0))
        metrics["setup.import_numpy_s"] = (statistics.median(c[0] for c in children), "s")
        metrics["setup.import_rfunc_s"] = (statistics.median(c[1] for c in children), "s")
        tracer.write(OUT / f"trace_{args.workload}_seed{args.seed}.csv")
    else:
        # The mean, not the median: on a shared VM, interpreter-bound work can
        # swing in speed by a third within seconds, and the median of such a
        # two-speed mix jumps between the two where the mean follows the mix.
        batch_s = statistics.fmean(untraced) / 1e3
        metrics = {
            "ops_per_s": (wl.ops_per_batch / batch_s, "1/s"),
            "setup_s": (statistics.median([own_import] + [c[2] for c in children]), "s"),
            "peak_rss_mb": (rss_after, "MB"),
        }
    print(f"{args.workload}: {len(untraced)} untraced and {len(traced)} traced batches "
          f"of {wl.ops_per_batch} operations; peak RSS {rss_before:.2f} MB before the first "
          f"batch, {rss_after:.2f} MB after the last", file=sys.stderr)
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def run_all(args):
    """Each workload in a fresh process; one result line per workload, then a summary."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"{name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode
        line = proc.stdout.strip().splitlines()[-1]
        print(f"{name} {line}")
        res = json.loads(line)
        summary["correct"] &= res["correct"]
        summary["attempted"] += res["attempted"]
        summary["failed"] += res["failed"]
        summary["metrics"].update({f"{name}.{k}": v for k, v in res["metrics"].items()})
    print(json.dumps(summary))
    return 0


def main(argv=None):
    args = parse_args(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
