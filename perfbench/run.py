"""gtop benchmark: seeded solve workloads, end-to-end metrics and a layer trace.

One workload per process, closed loop (each solve starts after the last
one and its checks finished):

    python3 perfbench/run.py --workload flow_od --seed 0 --seconds 25 --trace 0

``--trace 0`` reports the end-to-end metrics of untraced solves; ``--trace 1``
alternates untraced and traced solves and reports the per-layer metrics and
the tracing overhead.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the
lines before it give every metric with its unit and sample count.

    python3 perfbench/run.py --all --seed 0 --seconds 25

runs every workload untraced and traced, each in a fresh process, prints
both tables and writes them, with the machine facts, to
``.perfbench_out/results.json``.  The program is imported from ``src/``
next to this directory; without it the benchmark exits with status 2.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_ROOT = os.path.join(ROOT, ".perfbench_out")

# BLAS and gtop both read these when numpy loads, so they are set first.
THREAD_VARS = ("GTOP_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
               "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")

# flow_od runs by name and under --all but is left out of BENCHMARK.json:
# its one 10-19 s solve per run moved by up to 40% between runs on a shared
# 2-core machine, more than the 25% bound allows.
WORKLOAD_NAMES = ("flow_od", "chain_steer", "mfg_hub", "dense_cycle")

END_TO_END = {
    "solve_s": "s",
    "sweeps": "count",
    "sweep_ms": "ms",
    "setup_s": "s",
    "output_s": "s",
    "peak_rss_mb": "MB",
}

SOLVE_CLASSES = ("Equality", "Box", "Blockwise", "QuadraticDistance", "Congestion")
# Spans reported as total seconds and call count per traced solve.
COUNTED_SPANS = tuple(
    ["projections." + m for m in ("rebuild_backward", "push_forward", "w_node", "w_edge",
                                  "marginal", "bimarginal", "refresh")]
    + ["functions.solve_inclusion." + cls for cls in SOLVE_CLASSES]
    + ["functions.conjugate", "model.dual_objective", "model.renormalize",
       "solver.residual_map"])
# Spans reported as self seconds per traced solve.
SELF_SPANS = ("solver.sweep", "solver.solve", "cli.run")
# Spans reported as seconds per traced set-up.
SETUP_SPANS = ("builders.build_flow_problem", "builders.build_mfg_problem",
               "model.build_kernel", "cli.parse_config")

PER_LAYER = {"%s.%s" % (span, kind): unit
             for span in COUNTED_SPANS + ("functions.solve_inclusion",)
             for kind, unit in (("s", "s"), ("calls", "count"))}
PER_LAYER["solver.residual_map.useful_ratio"] = "ratio"
PER_LAYER.update((span + ".self_s", "s") for span in SELF_SPANS)
PER_LAYER.update((span + ".s", "s") for span in SETUP_SPANS)
PER_LAYER["trace.overhead"] = "ratio"

# On a shared 2-core machine, speed drifts by tens of percent over seconds.
# Set-up and the output step are therefore sampled in blocks of at least
# these lengths after every solve, solves take at most SOLVE_SHARE of the
# run, and the rest of the run is filled with more blocks.
SETUP_SECONDS = 0.25
OUTPUT_SECONDS = 0.25
SOLVE_SHARE = 0.8
# Set-up and output take milliseconds and are sampled hundreds of times per
# run.  Over 10 seeds on that machine, the spread (interquartile range over
# median) of their per-run medians was 0.14-0.42 and of their per-run minima
# 0.04-0.15, so they are reported as the minimum; the other timings are
# medians.
BEST_OF = ("setup_s", "output_s")
TRACED_SETUP_REPEATS = 3
# Every process first runs one solve capped at this many sweeps, untimed:
# the first solve in a fresh process runs up to 2.5x slower.
WARMUP_SWEEPS = 20


def machine_info():
    import platform
    import numpy
    blas = {}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "blas": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "threads": os.environ.get("GTOP_THREADS"),
    }


def _summary(values):
    """Median, sample count and, with enough samples, the highest percentile
    that has at least ten samples beyond it."""
    n = len(values)
    text = "median %.6g (n=%d, min %.6g, max %.6g" % (
        statistics.median(values), n, min(values), max(values))
    for pct in (99, 90):
        if n * (100 - pct) / 100 >= 10:
            text += ", p%d %.6g" % (pct, statistics.quantiles(values, n=100)[pct - 1])
            break
    return text + ")"


class Run:
    """One workload in one process: set-up samples, warm-up, timed solves and checks."""

    def __init__(self, name, seed, seconds, smoke=False, work_root=OUT_ROOT, log=print):
        self.name = name
        self.seed = seed
        self.seconds = seconds
        self.smoke = smoke
        self.work_dir = os.path.join(work_root, "%s-%d-%d" % (name, seed, os.getpid()))
        self.log = log
        self.attempted = 0
        self.failed = 0

    def measure(self, trace):
        import workloads
        try:
            self.workload = workloads.WORKLOADS[self.name](self.seed, self.work_dir, self.smoke)
            self.setup_s = []
            self._setup_block()
            self.capture = workloads.SolveCapture()
            self.capture.install()
            try:
                self.workload.run(self.problem, self.capture, max_sweeps=WARMUP_SWEEPS)
                metrics = self._traced() if trace else self._untraced()
            finally:
                self.capture.uninstall()
        finally:
            shutil.rmtree(self.work_dir, ignore_errors=True)
        for key, value in metrics.items():
            metrics[key] = {"value": value, "unit": END_TO_END.get(key) or PER_LAYER[key]}
        return {"correct": self.failed == 0, "attempted": self.attempted,
                "failed": self.failed, "metrics": metrics}

    def _setup_block(self):
        """Set-up samples; the first one in a process is the cold construction."""
        spent = 0.0
        while spent < SETUP_SECONDS:
            t0 = time.perf_counter()
            self.problem = self.workload.setup()
            self.setup_s.append(time.perf_counter() - t0)
            spent += self.setup_s[-1]

    def _output_block(self, samples):
        """Output step repeated on the last solution until ``samples`` sum to the block length."""
        while sum(samples) < OUTPUT_SECONDS:
            samples.append(self.workload.output(self.problem, self.capture))
        return samples

    def _solve(self, label, repeat_output=False):
        """One solve and its checks; a failure is counted, logged and not raised."""
        self.attempted += 1
        try:
            outcome = self.workload.run(self.problem, self.capture)
            if repeat_output:
                self._output_block(outcome.output_samples)
            fails = self.workload.check(self.problem, outcome)
        except Exception:  # a failed solve must not stop the run
            outcome, fails = None, [traceback.format_exc(limit=3)]
        if fails:
            self.failed += 1
        if outcome is not None:
            self.log("# %s solve %d: %.4f s, %d sweeps, output %.4f s, dual %.17g, %s" % (
                label, self.attempted, outcome.solve_s, outcome.report.sweeps,
                outcome.output_s, outcome.report.dual_objective,
                "checks ok" if not fails else "FAILED"))
        for msg in fails:
            self.log("#   check failed: %s" % msg)
        return outcome

    def _loop(self, step, seconds):
        """Repeat ``step`` while the next repeat is expected to end within ``seconds``."""
        start = time.perf_counter()
        count = 0
        while True:
            step()
            count += 1
            elapsed = time.perf_counter() - start
            if elapsed + elapsed / count > seconds:
                return

    def _untraced(self):
        outcomes = []

        def step():
            outcome = self._solve("untraced", repeat_output=True)
            if outcome is not None:
                outcomes.append(outcome)
            self._setup_block()

        start = time.perf_counter()
        self._loop(step, SOLVE_SHARE * self.seconds)
        if not outcomes:
            return {}
        while time.perf_counter() - start < self.seconds:
            self._setup_block()
            outcomes[-1].output_samples.extend(self._output_block([]))
        series = {
            "solve_s": [o.solve_s for o in outcomes],
            "sweeps": [o.report.sweeps for o in outcomes],
            "sweep_ms": [1000.0 * o.solve_s / o.report.sweeps for o in outcomes],
            "setup_s": self.setup_s,
            "output_s": [t for o in outcomes for t in o.output_samples],
        }
        self.log("# setup_s of the first construction: %.6g s" % self.setup_s[0])
        metrics = {}
        for key, values in series.items():
            best = key in BEST_OF
            metrics[key] = min(values) if best else statistics.median(values)
            self.log("# %-12s %s %.6g %s, %s" % (key, "min" if best else "median", metrics[key],
                                                 END_TO_END[key], _summary(values)))
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        self.log("# %-12s %.6g MB" % ("peak_rss_mb", metrics["peak_rss_mb"]))
        return metrics

    def _traced(self):
        from spans import Tracer
        tracer = Tracer()
        setup_samples = []
        for _ in range(TRACED_SETUP_REPEATS):
            tracer.reset()
            with tracer:
                self.workload.setup()
            setup_samples.append({span + ".s": tracer.total(span)[0] for span in SETUP_SPANS})

        plain, traced, samples = [], [], []

        def step():
            base = self._solve("untraced")
            tracer.reset()
            with tracer:
                outcome = self._solve("traced")
            if base is None or outcome is None:
                return
            plain.append(base.solve_s)
            traced.append(outcome.solve_s)
            samples.append(_layer_metrics(tracer))
            if (outcome.report.sweeps, outcome.report.dual_objective) != \
                    (base.report.sweeps, base.report.dual_objective):
                self.failed += 1
                self.log("#   check failed: traced solve differs from the untraced one")

        self._loop(step, self.seconds)
        if not samples:
            return {}
        metrics = {}
        for key in samples[0]:
            metrics[key] = statistics.median(s[key] for s in samples)
        for key in setup_samples[0]:
            metrics[key] = statistics.median(s[key] for s in setup_samples)
        metrics["trace.overhead"] = statistics.median(traced) / statistics.median(plain)
        self.log("# traced solves: %d; untraced solve_s %s; traced solve_s %s"
                 % (len(traced), _summary(plain), _summary(traced)))
        for key in PER_LAYER:
            self.log("# %-45s %.6g %s" % (key, metrics[key], PER_LAYER[key]))
        return metrics


def _layer_metrics(tracer):
    """Per-layer metrics of one traced solve."""
    m = {}
    for span in COUNTED_SPANS:
        s, _, calls = tracer.total(span)
        m[span + ".s"] = s
        m[span + ".calls"] = calls
    s, _, calls = tracer.prefixed("functions.solve_inclusion.")
    m["functions.solve_inclusion.s"] = s
    m["functions.solve_inclusion.calls"] = calls
    m["solver.residual_map.useful_ratio"] = tracer.useful_ratio()
    for span in SELF_SPANS:
        m[span + ".self_s"] = tracer.total(span)[1]
    return m


def run_suite(seed, seconds):
    """Every workload untraced and traced, each in a fresh process; prints both tables."""
    results = {"machine": machine_info(), "seed": seed, "seconds": seconds, "workloads": {}}
    for name in WORKLOAD_NAMES:
        entry = results["workloads"][name] = {}
        for trace in (0, 1):
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print("%s --trace %d exited with %d" % (name, trace, proc.returncode))
                return 1
            entry["traced" if trace else "untraced"] = json.loads(lines[-1])
    print(json.dumps(results["machine"]))
    names = list(WORKLOAD_NAMES)
    print("\n%-28s" % "metric (unit)" + "".join("%14s" % n for n in names))
    for key, unit in list(END_TO_END.items()) + [("failures", "ratio")]:
        row = "%-28s" % ("%s (%s)" % (key, unit))
        for name in names:
            res = results["workloads"][name]["untraced"]
            value = (res["failed"] / res["attempted"] if key == "failures"
                     else res["metrics"].get(key, {}).get("value", float("nan")))
            row += "%14.6g" % value
        print(row)
    print("\n%-48s" % "per-layer metric (unit), traced run" + "".join("%14s" % n for n in names))
    for key, unit in PER_LAYER.items():
        row = "%-48s" % ("%s (%s)" % (key, unit))
        for name in names:
            row += "%14.6g" % results["workloads"][name]["traced"]["metrics"].get(
                key, {}).get("value", float("nan"))
        print(row)
    os.makedirs(OUT_ROOT, exist_ok=True)
    path = os.path.join(OUT_ROOT, "results.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(results, fh, indent=1)
    print("\nwrote %s" % path)
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--all", action="store_true", help="run every workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="reduced instances that solve in well under a second")
    args = parser.parse_args(argv)
    if not args.all and args.workload is None:
        parser.error("give --workload or --all")
    if not os.path.isdir(os.path.join(SRC, "gtop")):
        print("error: no gtop sources at %s" % SRC, file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, SRC)
    if args.all:
        return run_suite(args.seed, args.seconds)
    print("# gtop benchmark: workload %s, seed %d, %g s, trace %d"
          % (args.workload, args.seed, args.seconds, args.trace))
    print("# machine %s" % json.dumps(machine_info()))
    result = Run(args.workload, args.seed, args.seconds, smoke=args.smoke).measure(args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
