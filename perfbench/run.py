#!/usr/bin/env python3
"""Benchmark of hypercurv: fixed seeded workloads through its API and CLI.

Run from the repository root:

  python3 perfbench/run.py --workload grid9-wh --seed 0 --seconds 25 --trace 0

The workload is repeated, one solve after another in this one process and
thread (a closed loop with a single caller), for about --seconds of
solving.  Every output is checked against its reference outside
the timed region.  With --trace 0 the end-to-end metrics are reported;
with --trace 1 the layers are wrapped with spans (see tracer.py) and the
per-layer metrics are reported instead.  The last line of standard output
is the result as one JSON object; the line before it carries the details
(environment, sample counts, failed operations, counters, and in a traced
run every counter that differs from counters.json for this seed).  Spans, the
generated inputs and a copy of the result go to .perfbench_out/.
"""

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUTDIR = os.path.join(ROOT, ".perfbench_out")
SETUP_PROBES = 9
COUNT_SUFFIXES = (".calls", ".cells", ".expansions", ".lazy_w1", ".points")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=["grid9-wh", "w1-allpairs", "small-batch"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="time one set-up in this fresh interpreter and exit")
    return p.parse_args(argv)


def setup_probe(args):
    """Time importing hypercurv, building the inputs and the first
    distance_matrix() of each input hypergraph."""
    t0 = time.perf_counter()
    import hypercurv  # noqa: F401  (the import is what is timed)
    import workloads
    workloads.WORKLOADS[args.workload](ROOT, OUTDIR, args.seed,
                                       workloads.SetupClock())
    print(repr(time.perf_counter() - t0))
    return 0


def setup_times(args):
    """Set-up times of fresh interpreters.  The first one is dropped: it
    warms the file cache, and the bytecode cache where Python writes one."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    times = []
    for _ in range(SETUP_PROBES + 1):
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=120, check=True)
        times.append(float(done.stdout.split()[-1]))
    return times[1:]


def environment():
    from hypercurv import kernels
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"backend": kernels.BACKEND, "python": platform.python_version(),
            "nproc": os.cpu_count(), "cpu": cpu}


def percentile(samples, q):
    """Nearest-rank percentile."""
    s = sorted(samples)
    return s[max(0, math.ceil(q * len(s)) - 1)]


def is_count(name):
    return name.endswith(COUNT_SUFFIXES)


class Tally:
    """What the repetitions of one run measured."""

    def __init__(self):
        self.walls = {False: [], True: []}  # traced? -> seconds per repetition
        self.latencies = []  # per solve, untraced repetitions only
        self.layers = []  # per traced repetition
        self.hg_setup = []  # per repetition's input build
        self.solves = self.attempted = self.failed = 0
        self.failed_examples = []


def repeat(args, tally):
    """Run repetitions for about --seconds of solving; with --trace 1,
    alternate untraced and traced ones."""
    import tracer
    import workloads
    from hypercurv import cli, curvature, kernels, transport
    from hypercurv.cost import ConcaveCost

    modules = {"kernels": kernels, "transport": transport,
               "curvature": curvature, "cli": cli}
    build = workloads.WORKLOADS[args.workload]
    walls = tally.walls
    measured = 0.0
    while True:
        traced = bool(args.trace) and len(walls[True]) < len(walls[False])
        clock = workloads.SetupClock()
        ops = build(ROOT, OUTDIR, args.seed, clock)
        tally.hg_setup.append(clock.seconds)
        if traced:
            run_id = f"{args.workload}-s{args.seed}-r{len(walls[True])}"
            tr = tracer.Tracer(modules, ConcaveCost, run_id)
            with tr:
                outs, _lat, wall = workloads.run_ops(ops)
            tally.layers.append(tr.layer_metrics())
            if len(tally.layers) == 1:
                path = os.path.join(
                    OUTDIR, f"spans-{args.workload}-s{args.seed}.json")
                with open(path, "w", encoding="utf-8") as fh:
                    json.dump(tr.dump(), fh)
            del tr
        else:
            outs, lat, wall = workloads.run_ops(ops)
            tally.latencies += lat
        walls[traced].append(wall)
        measured += wall
        bad = workloads.failed_keys(ops, outs)
        tally.solves = len(ops)
        tally.attempted += len(ops)
        tally.failed += len(bad)
        tally.failed_examples += [repr(k) for k in
                                  bad[:10 - len(tally.failed_examples)]]
        # stop once the next repetition would mostly overrun --seconds
        if (measured + wall / 2 >= args.seconds
                and (not args.trace or walls[True])):
            return


def layer_metrics(args, tally, detail):
    """Per-layer metrics: medians over the traced repetitions."""
    metrics = {}
    for name in tally.layers[0]:
        median = statistics.median_low if is_count(name) else statistics.median
        metrics[name] = median([run[name] for run in tally.layers])
    traced_wall = statistics.median(tally.walls[True])
    metrics["hypergraph.setup_s"] = statistics.median(tally.hg_setup)
    metrics["trace.overhead_s"] = (traced_wall
                                   - statistics.median(tally.walls[False]))
    counts = {n: v for n, v in metrics.items() if is_count(n)}
    detail["traced_wall_s_per_rep"] = tally.walls[True]
    detail["counters"] = counts
    detail["counters_repeat"] = all(
        {n: run[n] for n in counts} == counts for run in tally.layers)
    recorded = recorded_counters().get(args.workload, {}).get(str(args.seed))
    if recorded is not None:
        detail["counters_vs_recorded"] = {
            n: [recorded.get(n), counts.get(n)]
            for n in sorted(set(recorded) | set(counts))
            if recorded.get(n) != counts.get(n)}
    detail["shares_of_traced_wall"] = {
        n[:-len(".self_s")]: v / traced_wall
        for n, v in metrics.items() if n.endswith(".self_s")}
    return metrics


def end_to_end_metrics(tally, setup_samples, detail):
    detail["setup_s_samples"] = setup_samples
    detail["latency_samples"] = len(tally.latencies)
    return {
        "wall_s": statistics.median(tally.walls[False]),
        "setup_s": statistics.median(setup_samples),
        "solve_p50_ms": statistics.median(tally.latencies) * 1e3,
        "solve_p90_ms": percentile(tally.latencies, 0.9) * 1e3,
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def measure(args):
    env = environment()
    env["load1_start"] = os.getloadavg()[0]
    setup_samples = [] if args.trace else setup_times(args)
    tally = Tally()
    repeat(args, tally)
    detail = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "env": env,
              "reps": {"untraced": len(tally.walls[False]),
                       "traced": len(tally.walls[True])},
              "solves_per_rep": tally.solves,
              "wall_s_per_rep": tally.walls[False],
              "failed_share": tally.failed / tally.attempted,
              "failed_examples": tally.failed_examples}
    if args.trace:
        metrics = layer_metrics(args, tally, detail)
    else:
        metrics = end_to_end_metrics(tally, setup_samples, detail)
    env["load1_end"] = os.getloadavg()[0]
    units = metric_units("per_layer" if args.trace else "end_to_end")
    if set(units) != set(metrics):
        raise RuntimeError("measured metrics differ from BENCHMARK.json: "
                           f"{sorted(set(units) ^ set(metrics))}")
    result = {"correct": tally.failed == 0, "attempted": tally.attempted,
              "failed": tally.failed,
              "metrics": {n: {"value": v, "unit": units[n]}
                          for n, v in metrics.items()}}
    path = os.path.join(OUTDIR, f"result-{args.workload}-s{args.seed}"
                                f"-t{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"detail": detail, "result": result}, fh, indent=1)
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


def recorded_counters():
    """Counters of earlier traced runs: workload -> seed -> name -> count."""
    with open(os.path.join(HERE, "counters.json"), encoding="utf-8") as fh:
        return json.load(fh)


def metric_units(kind):
    """Name -> unit of the "end_to_end" or "per_layer" metrics declared in
    BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "hypercurv", "__init__.py")):
        print(f"error: no hypercurv sources at {SRC}; run from the root of "
              "a hypercurv checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.makedirs(OUTDIR, exist_ok=True)
    if args.setup_probe:
        return setup_probe(args)
    return measure(args)


if __name__ == "__main__":
    sys.exit(main())
