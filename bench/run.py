"""qkolab benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Single process, one client, closed loop: each job starts when the previous
one has finished and been checked. A round is one pass over the workload's
fixed job list; rounds repeat until the next one would overrun --seconds of
job time. With --trace 0 the run reports the end-to-end metrics; with
--trace 1 it alternates untraced and traced rounds and reports the
per-layer metrics, including the tracing overhead. The last line of
standard output is one JSON object; the lines before it list every metric
by name with its unit, plus the provenance of the run. Workload design and
metric definitions are in bench/design.json.

The program is imported from src/ of the checkout this file sits in; the
run exits with a non-zero code when that source tree is missing.
"""
import argparse
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
SETUP_PROBES = 3  # fresh interpreters timed per run; setup_s is their median
PROBE_TIMEOUT_S = 60
LAYER_MODULES = ("bits", "bitio", "compressor", "codes", "states", "circuits",
                 "fingerprint", "smp", "complexity", "demon", "cli")


def pin_environment() -> None:
    """One BLAS thread, and no QKOLAB_THREADS, which the program validates
    but does not use. Must run before numpy is imported."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    os.environ.pop("QKOLAB_THREADS", None)


def monotonic() -> float:
    """System-wide monotonic clock, comparable between processes."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def import_program() -> float:
    """Import qkolab and its layers from this checkout; returns seconds."""
    if not os.path.isfile(os.path.join(SRC, "qkolab", "__init__.py")):
        raise SystemExit(f"error: no qkolab source tree at {SRC}")
    sys.path.insert(0, SRC)
    t0 = time.perf_counter()
    for layer in LAYER_MODULES:
        importlib.import_module(f"qkolab.{layer}")
    elapsed = time.perf_counter() - t0
    import qkolab

    if os.path.dirname(os.path.dirname(os.path.abspath(qkolab.__file__))) != SRC:
        raise SystemExit(f"error: imported qkolab from {qkolab.__file__}, not from {SRC}")
    return elapsed


# -- one job, one round, one run ---------------------------------------------------
def run_job(job, tracer=None):
    """Times job.run() alone; returns (seconds, output, problems)."""
    if tracer is not None:
        tracer.install()
    t0 = time.perf_counter()
    try:
        out = job.run()
        error = None
    except Exception:  # a crashing job is a failed job; the run goes on
        out, error = None, traceback.format_exc()
    dt = time.perf_counter() - t0
    if tracer is not None:
        tracer.uninstall()
    if error is not None:
        return dt, out, ["raised " + error.strip().splitlines()[-1]]
    try:
        problems = job.check(out)
    except Exception:
        problems = ["check raised " + traceback.format_exc().strip().splitlines()[-1]]
    return dt, out, problems


class Measurement:
    """Everything the timed phase records."""

    def __init__(self, jobs: int):
        self.rounds = []  # (traced, seconds) per round
        self.samples = [[] for _ in range(jobs)]  # seconds per untraced run of each job
        self.units = [0.0] * jobs  # work units of each job (the same every round)
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.bytes_written = 0  # CLI report bytes in traced rounds


def measure(workload, seconds: float, tracer=None) -> Measurement:
    """Runs rounds of the job list until the next round would overrun
    ``seconds`` of job time. With a tracer, odd rounds are traced."""
    meas = Measurement(len(workload.jobs))
    spent = 0.0
    min_rounds = 2 if tracer is not None else 1
    while True:
        traced = tracer is not None and len(meas.rounds) % 2 == 1
        gc.collect()
        round_time = 0.0
        for index, job in enumerate(workload.jobs):
            if traced:
                tracer.job = len(meas.rounds) * len(workload.jobs) + index
            dt, out, problems = run_job(job, tracer if traced else None)
            round_time += dt
            meas.attempted += 1
            if problems:
                meas.failed += 1
                meas.problems.append(f"round {len(meas.rounds)} {job.name}: {'; '.join(problems)}")
            if traced:
                if job.out_path and os.path.exists(job.out_path):
                    meas.bytes_written += os.path.getsize(job.out_path)
                continue
            meas.samples[index].append(dt)
            if out is not None and not problems:
                meas.units[index] = job.work(out)
        meas.rounds.append((traced, round_time))
        spent += round_time
        if len(meas.rounds) >= min_rounds and spent + round_time > seconds:
            return meas


# -- set-up probes -------------------------------------------------------------------
def probe_setup(workload_name: str, seed: int, tiny: bool) -> None:
    """Child side: import, build, warm up, then report the ready time."""
    import_s = import_program()
    sys.path.insert(0, BENCH_DIR)
    import workloads

    wl = workloads.build(workload_name, seed, os.path.join(OUT_DIR, "jobs", workload_name), tiny)
    _, _, problems = run_job(wl.warmup)
    ready = monotonic()
    print(json.dumps({"ready": ready, "import_qkolab_s": import_s, "warmup_ok": not problems}))


def spawn(args: list[str]) -> tuple[float, dict]:
    """Runs this script in a fresh interpreter; returns (spawn time, report)."""
    start = monotonic()
    proc = subprocess.run([sys.executable, os.path.abspath(__file__)] + args,
                          capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"probe {args} failed: {proc.stderr.strip()[-500:]}")
    return start, json.loads(proc.stdout.strip().splitlines()[-1])


def setup_probes(workload_name: str, seed: int, tiny: bool) -> list[dict]:
    out = []
    for _ in range(SETUP_PROBES):
        start, rep = spawn(["--probe-setup", "--workload", workload_name, "--seed", str(seed)]
                           + (["--tiny"] if tiny else []))
        rep["setup_s"] = rep["ready"] - start
        out.append(rep)
    return out


def probe_import(module: str) -> None:
    """Child side: time one import after numpy is loaded."""
    import numpy  # noqa: F401

    t0 = time.perf_counter()
    importlib.import_module(module)
    print(json.dumps({"import_s": time.perf_counter() - t0}))


# -- reporting -------------------------------------------------------------------------
def quantile(values: list[float], q: float) -> float:
    """Linear-interpolation quantile of a non-empty list."""
    s = sorted(values)
    pos = q * (len(s) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def provenance() -> dict:
    import numpy
    import scipy
    import qkolab
    from qkolab import circuits, complexity, compressor

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "qkolab": getattr(qkolab, "__version__", None),
        "METHOD_ID": getattr(compressor, "METHOD_ID", None),
        "FORMAT_VERSION": getattr(complexity, "FORMAT_VERSION", None),
        "MCX_DECOMPOSITION_ID": getattr(circuits, "MCX_DECOMPOSITION_ID", None),
        "threads": {v: os.environ.get(v) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                                   "MKL_NUM_THREADS", "QKOLAB_THREADS")},
    }


def end_to_end(meas: Measurement, probes: list[dict]) -> dict:
    """The declared end-to-end metrics. Each job counts with its best
    untraced round, the one least slowed by other tenants of the host,
    who can only add time."""
    best = [min(s) for s in meas.samples]
    work_time = sum(b for b, u in zip(best, meas.units) if u)
    return {
        "setup_s": (statistics.median(p["setup_s"] for p in probes), "s"),
        "wall_s": (sum(best), "s"),
        "work_per_s": (sum(meas.units) / work_time if work_time else 0.0, "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def latency_report(meas: Measurement) -> dict:
    """Job latency over every untraced job run, contention included."""
    lat_ms = [1000 * t for s in meas.samples for t in s]
    untraced = [t for traced, t in meas.rounds if not traced]
    return {
        "job_p50_ms": (quantile(lat_ms, 0.5), "ms"),
        "job_p90_ms": (quantile(lat_ms, 0.9), "ms"),
        "round_median_s": (statistics.median(untraced), "s"),
        "failed_frac": (meas.failed / meas.attempted, "ratio"),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="qkolab benchmark")
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="small sizes, for the benchmark's own tests")
    ap.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--probe-import", default=None, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    pin_environment()

    if args.probe_import:
        probe_import(args.probe_import)
        return 0
    if args.workload is None:
        ap.error("--workload is required")
    if args.probe_setup:
        probe_setup(args.workload, args.seed, args.tiny)
        return 0

    import_s = import_program()
    sys.path.insert(0, BENCH_DIR)
    import layers
    import workloads
    from tracer import Tracer

    t0 = time.perf_counter()
    wl = workloads.build(args.workload, args.seed, os.path.join(OUT_DIR, "jobs", args.workload), args.tiny)
    _, _, warm_problems = run_job(wl.warmup)
    own_setup_s = import_s + time.perf_counter() - t0

    tracer = Tracer() if args.trace else None
    meas = measure(wl, args.seconds, tracer)
    probes = setup_probes(args.workload, args.seed, args.tiny)
    warm_ok = not warm_problems and all(p["warmup_ok"] for p in probes)
    if not warm_ok:
        meas.problems.append("warm-up job failed: " + "; ".join(warm_problems))

    info = provenance()
    print("provenance " + json.dumps(info, sort_keys=True))
    print(f"workload {wl.name} seed {args.seed} trace {args.trace}: {len(wl.jobs)} jobs per round, "
          f"{len(meas.rounds)} rounds, work unit: {wl.work_unit}")
    print(f"in-process setup {own_setup_s:.3f} s (import {import_s:.3f} s)")
    for line in meas.problems[:20]:
        print("FAILED " + line)

    if args.trace:
        scipy_probe = spawn(["--probe-import", "scipy.stats"])[1]
        metrics = layers.per_layer(tracer, wl, meas, probes, scipy_probe["import_s"])
        trace_path = os.path.join(OUT_DIR, f"trace-{wl.name}-seed{args.seed}.jsonl.gz")
        tracer.write_spans(trace_path)
        print(f"spans: {len(tracer.spans)} written to {trace_path}")
    else:
        metrics = end_to_end(meas, probes)
        with open(os.path.join(OUT_DIR, f"samples-{wl.name}-seed{args.seed}.json"), "w") as fh:
            json.dump({job.name: meas.samples[i] for i, job in enumerate(wl.jobs)}, fh)
        jobs_run = sum(len(s) for s in meas.samples)
        print(f"samples: {jobs_run} job runs, {len(probes)} setup probes, failed {meas.failed}/{meas.attempted}")
        for name, (value, unit) in latency_report(meas).items():
            print(f"{name} = {value:.6g} {unit} (printed, not declared)")
        print(f"{layers.WORK_NAMES[wl.name]} = {metrics['work_per_s'][0]:.6g} 1/s (work_per_s on {wl.name})")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    result = {
        "correct": meas.failed == 0 and warm_ok,
        "attempted": meas.attempted,
        "failed": meas.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
