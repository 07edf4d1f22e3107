#!/usr/bin/env python3
"""Benchmark of the sfs pipeline, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload verify_order4 --seed 2026 --seconds 30 --trace 0

The workload's passes run in a closed loop inside this process, through
``cli.main``, for about ``--seconds`` seconds; every item's report is
checked against the stored reference.  ``--trace 0`` reports the
end-to-end metrics of BENCHMARK.json, ``--trace 1`` alternates untraced
and traced passes and reports the per-layer metrics.  The last stdout
line is one JSON object; details and spans go to ``perfbench/out/``.
See perfbench/README.md for the workloads and metrics.
"""

import os

# one BLAS/OpenMP thread for every run, set before numpy is imported
PINNED_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = str(PINNED_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"
SETUP_SAMPLES = 5

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}


def machine_facts() -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"cores": os.cpu_count(), "usable_cores": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": f"{blas['name']} {blas['version']}",
            "blas_threads": PINNED_THREADS}


def measure_setup() -> list[float]:
    """Times for fresh interpreters to import the package and warm up."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        subprocess.run([sys.executable, str(Path(__file__).resolve()), "--setup-only"],
                       cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        samples.append(time.perf_counter() - start)
    return samples


def timed_loop(seconds: float, step) -> None:
    """Call step(0), step(1), ... while the next call should end within ``seconds``."""
    start = time.perf_counter()
    durations: list[float] = []
    while not durations or (time.perf_counter() - start
                            + statistics.median(durations) <= seconds):
        began = time.perf_counter()
        step(len(durations))
        durations.append(time.perf_counter() - began)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=2026)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="import and warm up, then exit (times setup_s)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "spaceform_spectra" / "__init__.py").is_file():
        print(f"error: no package source under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    if args.setup_only:
        import workloads
        workloads.warm_up()
        return 0

    import tracing
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"error: --workload must be one of {', '.join(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    setup_samples = measure_setup() if args.trace == 0 else []
    workload = workloads.WORKLOADS[args.workload]
    fseed = workloads.family_seed(args.seed)
    work = OUT / "work" / f"{workload.name}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        workloads.warm_up()
        runner = workloads.Runner(workload, fseed, work)
        walls, cpus, traced_walls = [], [], []
        tracer = tracing.Tracer()

        def untraced_pass(index):
            wall, cpu = runner.run_pass(index)
            walls.append(wall)
            cpus.append(cpu)

        def traced_pass(index):
            with tracer.installed():
                traced_walls.append(runner.run_pass(index, tracer)[0])

        def pair(index):   # alternate which side runs first
            for step in ((untraced_pass, traced_pass) if index % 2 == 0
                         else (traced_pass, untraced_pass)):
                step(index)

        timed_loop(args.seconds, untraced_pass if args.trace == 0 else pair)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if args.trace == 0:
        values = {"setup_s": statistics.median(setup_samples),
                  "wall_s": statistics.median(walls), "cpu_s": statistics.median(cpus),
                  "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}
    else:
        metrics = tracing.per_layer_metrics(tracer.layer_totals(), traced_walls, walls)
        tracer.dump(OUT / f"spans-{workload.name}-seed{args.seed}.json")

    label = f"{workload.name} seed={args.seed} family={fseed}"
    for problem in runner.problems:
        print(f"FAILED {label}: {problem}", file=sys.stderr)
    record = {"workload": workload.name, "seed": args.seed, "family_seed": fseed,
              "trace": args.trace, "machine": machine_facts(), "metrics": metrics,
              "setup_s": setup_samples, "pass_wall_s": walls,
              "traced_pass_wall_s": traced_walls,
              "attempted": runner.attempted, "failed": runner.failed,
              "problems": runner.problems}
    (OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n")

    print(f"# {label} passes={len(walls)} traced_passes={len(traced_walls)} "
          f"machine={json.dumps(record['machine'])}")
    for name, metric in metrics.items():
        print(f"{name:<40} {metric['value']:>16.6g} {metric['unit']}")
    print(f"{'fail_ratio (failed/attempted)':<40} "
          f"{runner.failed / runner.attempted:>16.6g} ratio")
    print(json.dumps({"correct": runner.failed == 0, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
