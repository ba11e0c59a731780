"""Manifest benchmark for aphomog: end-to-end and per-layer metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each sample is one manifest executed by
``aphomog.cli.run_manifest`` in a fresh Python process (``bench/worker.py``)
with the CLI's default ``threads`` and the BLAS environment as inherited.
Samples run one after another from this process (a closed loop with one
client) until ``--seconds`` are used up.

``--trace 0`` reports the end-to-end metrics: medians over the samples of
``wall_s``, ``cpu_s`` and ``peak_rss_mb`` of the ``run_manifest`` call,
and of ``setup_s`` (import, load and validate) over extra set-up-only
processes plus the samples.  ``--trace 1`` is the diagnostic pass: untraced
samples, traced samples (layer spans, see ``tracer.py``) and a
single-threaded baseline (``threads=1``, ``OPENBLAS_NUM_THREADS=1``), and
reports the per-layer metrics.

Every sample's output is checked (``workloads.check_output``); a sample
that raises, exits nonzero or fails its check counts as failed, and
``error_rate`` is failed / attempted.  Human-readable lines go first; the
last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Exit code 2 means the checkout lacks the
package sources or the arguments are invalid.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKER = os.path.join(BENCH_DIR, "worker.py")
OUT_DIR = os.path.join(ROOT, ".bench_out")

sys.path.insert(0, BENCH_DIR)
import workloads  # noqa: E402

SETUP_SAMPLES = 3          # set-up-only processes per --trace 0 run
MIN_SAMPLES = 3            # manifest samples per --trace 0 run, whatever --seconds says
SAMPLE_TIMEOUT_S = 120.0
RUN_LIMIT_S = 150.0        # worker timeouts shrink so that a run ends within this
# Shares of --seconds spent by the --trace 1 phases: untraced, traced, baseline.
TRACE_PHASES = (0.35, 0.35, 0.30)

END_TO_END = {"wall_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}

_COUNTS = ("fields.evaluate_calls", "fields.evaluate_points", "operators.solve_calls",
           "operators.iterations", "operators.restarts", "operators.assemble_calls",
           "operators.unknowns", "operators.nnz", "metrics.rho_ladder_evaluate_points",
           "experiments.solve_problem_calls")
_RATIOS = ("operators.residual_max", "trace.coverage")
PER_LAYER_EXTRA = ("trace.overhead_s", "baseline.single_thread_wall_s")


def per_layer_unit(name):
    if name in _COUNTS:
        return "count"
    if name in _RATIOS:
        return "ratio"
    return "s"


# ---------------------------------------------------------------------------
# statistics


def tail_percentile(values):
    """(p, value) for the highest percentile with >= 10 samples beyond it,
    or None when there are fewer than 11 samples."""
    n = len(values)
    if n < 11:
        return None
    return 100.0 * (n - 10) / n, sorted(values)[n - 11]


def describe(name, values, unit):
    tail = tail_percentile(values)
    tail_txt = (f"p{tail[0]:.0f} {tail[1]:.6g} {unit}" if tail
                else "no percentile with 10 samples beyond it")
    return (f"{name}: median {statistics.median(values):.6g} {unit}, {tail_txt}, "
            f"n={len(values)}, range {min(values):.6g}..{max(values):.6g}")


# ---------------------------------------------------------------------------
# samples


class Context:
    """Scratch directory and manifest file of one benchmark run; starts its
    worker processes."""

    def __init__(self, workload, seed, tmp):
        self.workload = workload
        self.seed = seed
        self.tmp = tmp
        self.hard_end = time.monotonic() + RUN_LIMIT_S
        self.manifest_path = os.path.join(tmp, "manifest.json")
        with open(self.manifest_path, "w", encoding="utf-8") as f:
            json.dump(workloads.manifest(workload, seed), f)
        self._n = 0

    def worker(self, request, env=None):
        """Run one worker process; returns (report or None, error text)."""
        self._n += 1
        request = dict(request, report=os.path.join(self.tmp, f"report{self._n}.json"))
        req_path = os.path.join(self.tmp, f"request{self._n}.json")
        with open(req_path, "w", encoding="utf-8") as f:
            json.dump(request, f)
        timeout = max(1.0, min(SAMPLE_TIMEOUT_S, self.hard_end - time.monotonic()))
        try:
            proc = subprocess.run([sys.executable, WORKER, req_path], cwd=ROOT, env=env,
                                  capture_output=True, text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            return None, f"worker timed out after {timeout:.0f} s"
        if proc.returncode != 0:
            return None, f"worker exited {proc.returncode}: {proc.stderr[-2000:]}"
        with open(request["report"], encoding="utf-8") as f:
            return json.load(f), ""

    def setup_sample(self):
        report, err = self.worker({"mode": "setup", "manifest": self.manifest_path})
        if report is None:
            raise RuntimeError(err)
        return report["setup_s"]

    def run_sample(self, trace=False, threads=None, env=None):
        """One manifest run; returns {"report", "payload", "problems"}."""
        out_dir = tempfile.mkdtemp(prefix="out", dir=self.tmp)
        try:
            report, err = self.worker({"mode": "run", "manifest": self.manifest_path,
                                       "out_dir": out_dir, "threads": threads,
                                       "trace": trace}, env=env)
            if report is None:
                return {"report": None, "payload": None, "problems": [err]}
            with open(report["result_path"], encoding="utf-8") as f:
                payload = json.load(f)["payload"]
            return {"report": report, "payload": payload,
                    "problems": workloads.check_output(self.workload, self.seed, payload)}
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)


def sample_until(deadline, take, min_samples):
    """Take samples until the next one would end after ``deadline``."""
    samples, durations = [], []
    while True:
        t0 = time.monotonic()
        samples.append(take())
        durations.append(time.monotonic() - t0)
        if (len(samples) >= min_samples
                and time.monotonic() + statistics.median(durations) > deadline):
            return samples


def passed(samples):
    """Reports of the samples whose output passed its check."""
    return [s["report"] for s in samples if not s["problems"]]


# ---------------------------------------------------------------------------
# results


def end_to_end_metrics(run_reports, setup_values):
    """Sample values of each end-to-end metric."""
    return {"wall_s": [r["wall_s"] for r in run_reports],
            "cpu_s": [r["cpu_s"] for r in run_reports],
            "peak_rss_mb": [r["peak_rss_mb"] for r in run_reports],
            "setup_s": list(setup_values) + [r["setup_s"] for r in run_reports]}


def per_layer_metrics(untraced, traced, baseline):
    """Medians over traced samples plus the trace/baseline comparisons."""
    vals = {name: [r["layers"][name] for r in traced] for name in traced[0]["layers"]}
    vals["trace.overhead_s"] = [statistics.median(r["wall_s"] for r in traced)
                                - statistics.median(r["wall_s"] for r in untraced)]
    vals["baseline.single_thread_wall_s"] = [r["wall_s"] for r in baseline]
    return vals


def result_object(samples, values, units):
    """The final JSON line: medians with units, attempted and failed counts."""
    failed = sum(1 for s in samples if s["problems"])
    metrics = {name: {"value": statistics.median(v), "unit": units(name)}
               for name, v in values.items()}
    return {"correct": failed == 0, "attempted": len(samples), "failed": failed,
            "metrics": metrics}


def git_commit():
    """Commit of the checkout from .git, without running git (the
    benchmark's checkout may not be a repository)."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as f:
            ref = f.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:]), encoding="utf-8") as f:
                return f.read().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def run(args, tmp):
    ctx = Context(args.workload, args.seed, tmp)
    env_report, err = ctx.worker({"mode": "env"})       # also warms the bytecode cache
    if env_report is None:
        raise RuntimeError(err)
    record = dict(env_report["environment"], git_commit=git_commit(),
                  workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace)
    print("environment " + json.dumps(record, sort_keys=True))

    start = time.monotonic()
    if not args.trace:
        setup_values = [ctx.setup_sample() for _ in range(SETUP_SAMPLES)]
        samples = sample_until(start + args.seconds, ctx.run_sample, MIN_SAMPLES)
        good = passed(samples)
        values = end_to_end_metrics(good, setup_values) if good else {}
        units = END_TO_END.get
    else:
        ends = [start + args.seconds * sum(TRACE_PHASES[:i + 1]) for i in range(3)]
        untraced = sample_until(ends[0], ctx.run_sample, 2)
        traced = sample_until(ends[1], lambda: ctx.run_sample(trace=True), 2)
        single = dict(os.environ, OPENBLAS_NUM_THREADS="1")
        baseline = sample_until(ends[2], lambda: ctx.run_sample(threads=1, env=single), 1)
        samples = untraced + traced + baseline
        good = [passed(untraced), passed(traced), passed(baseline)]
        values = per_layer_metrics(*good) if all(good) else {}
        units = per_layer_unit

    for s in samples:
        for problem in s["problems"]:
            print(f"FAILED sample: {problem}", file=sys.stderr)
    if not values:
        print("no sample passed its output check; no metrics", file=sys.stderr)
        return 1
    result = result_object(samples, values, units)
    print(f"{args.workload}: error_rate {result['failed'] / result['attempted']:.6g} "
          f"({result['failed']} of {result['attempted']} runs failed)")
    for name, v in values.items():
        print(describe(name, v, units(name)))
    print(json.dumps(result))
    return 0


def update_reference(workload, tmp):
    """Store the observables of one DEFAULT_SEED run as the reference."""
    sample = Context(workload, workloads.DEFAULT_SEED, tmp).run_sample()
    if sample["payload"] is None:
        raise RuntimeError(sample["problems"])
    problems = workloads.invariant_problems(workload, sample["payload"])
    if problems:
        raise RuntimeError(f"invariants fail, reference not written: {problems}")
    ref = {"workload": workload, "seed": workloads.DEFAULT_SEED,
           "manifest": workloads.manifest(workload, workloads.DEFAULT_SEED),
           "observables": workloads.observables(workload, sample["payload"])}
    os.makedirs(workloads.REFERENCE_DIR, exist_ok=True)
    with open(workloads.reference_path(workload), "w", encoding="utf-8") as f:
        json.dump(ref, f, indent=1, sort_keys=True)
        f.write("\n")
    print(f"wrote {workloads.reference_path(workload)}")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--update-reference", action="store_true",
                        help="store the DEFAULT_SEED observables under bench/reference/")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        print("--seed must be >= 0 and --seconds > 0", file=sys.stderr)
        return 2
    if not os.path.isfile(os.path.join(ROOT, "src", "aphomog", "__init__.py")):
        print(f"no package sources at {os.path.join(ROOT, 'src', 'aphomog')}",
              file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="run", dir=OUT_DIR)
    try:
        if args.update_reference:
            return update_reference(args.workload, tmp)
        return run(args, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(OUT_DIR)
        except OSError:      # another run still uses it
            pass


if __name__ == "__main__":
    sys.exit(main())
