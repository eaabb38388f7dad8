"""Run one benchmark workload against the ALPS sources in ``src/``.

    python3 perfbench/run.py --workload ice-field --seed 1 --seconds 30 --trace 0

With ``--trace 0`` the run reports the end-to-end metrics of BENCHMARK.json;
with ``--trace 1`` it alternates untraced and traced rounds on the same
inputs and reports the per-layer metrics plus the tracing overhead. The last
line of standard output is the result as one JSON object; the full run
record goes to ``perfbench/out/``.
"""

from __future__ import annotations

import os

# The program's own BLAS/OpenMP thread defaults apply: inherited settings
# are cleared before NumPy loads, here and in every child.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "GOTO_NUM_THREADS", "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS", "OMP_THREAD_LIMIT", "OMP_DYNAMIC")
CLEARED = sorted(v for v in THREAD_VARS if os.environ.pop(v, None) is not None)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
# Set-up is timed in fresh interpreters at least SETUP_MIN times and until
# SETUP_TOTAL_S seconds have gone into it, so a cheap set-up gets more
# samples; the median is reported.
SETUP_MIN, SETUP_MAX, SETUP_TOTAL_S = 3, 15, 3.0
IMPORT_REPEATS = 3


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="Set up, print 'ready' and exit (used to time set-up).")
    return ap.parse_args(argv)


def load_spec():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def workdir_for(args) -> Path:
    return OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"


def time_setups(args) -> list[float]:
    """Wall time of fresh interpreters from spawn until their inputs are
    ready (they print 'ready'); each then exits and is waited for."""
    times = []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    while len(times) < SETUP_MIN or (sum(times) < SETUP_TOTAL_S and len(times) < SETUP_MAX):
        start = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            ready = time.perf_counter()
            proc.stdout.read()
            if proc.wait(timeout=60) != 0 or line.strip() != "ready":
                raise RuntimeError("set-up child failed")
        times.append(ready - start)
    return times


def time_imports() -> list[float]:
    """`import alps.cli` in fresh interpreters, timed inside each."""
    code = ("import time; t = time.perf_counter(); import alps.cli; "
            "print(time.perf_counter() - t)")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return [float(subprocess.run([sys.executable, "-c", code], env=env, check=True,
                                 capture_output=True, text=True, timeout=60).stdout)
            for _ in range(IMPORT_REPEATS)]


def blas_threads() -> dict:
    """Thread count of every OpenBLAS loaded in this process."""
    libs = set()
    with open("/proc/self/maps", encoding="utf-8") as fh:
        for line in fh:
            path = line.split()[-1]
            if "openblas" in path.lower() and ".so" in path:
                libs.add(path)
    counts = {}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                counts[Path(path).name] = fn()
                break
    return counts


def environment() -> dict:
    import numpy
    import scipy
    return {
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads(),
        "thread_vars_cleared": CLEARED,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def peak_rss_mb(children: bool) -> float:
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if children:
        kb += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kb / 1024.0


def end_to_end(samples, setup_times, round_walls, rss) -> dict:
    med = statistics.median
    return {
        "setup_s": med(setup_times),
        "wall_s": med(round_walls),
        "cell_s.p50": med(samples["cell_s"]),
        "fit_s.p50": med(samples["fit_s"]),
        "fit_points_per_s": med(samples["fit_rate"]),
        "predict_values_per_s": med(samples["predict_rate"]),
        "batch_s": med(samples["batch_s"]),
        "cli_predict_s": med(samples["cli_predict_s"]),
        "peak_rss_mb": rss,
    }


def run_rounds(wl, seconds, trace):
    """Untraced: rounds 0, 1, ... while the next round is expected to end
    within the budget. Traced: round 0's inputs again and again, untraced
    and traced in the order U T T U U T ..., so that neither kind always
    runs first; counts then repeat exactly from one traced round to the
    next. Returns the untraced and traced round walls, the per-layer
    metrics of each traced round, the tracer and the number of rounds."""
    from tracing import Tracer, layer_metrics
    from workloads import MAX_ROUNDS
    if trace:
        import alps.cli  # noqa: F401  (traced runs drive the CLI in process)
    walls, traced_walls, per_round = [], [], []
    tracer = Tracer()
    start = time.perf_counter()
    k = 0
    while True:
        traced = bool(trace) and k % 4 in (1, 2)
        first = len(tracer.spans)
        with tracer.installed() if traced else contextlib.nullcontext():
            t0 = time.perf_counter()
            wl.round(0 if trace else k, in_process=bool(trace))
            (traced_walls if traced else walls).append(time.perf_counter() - t0)
        if traced:
            per_round.append(layer_metrics(tracer.spans[first:]))
        k += 1
        step = statistics.median(walls + traced_walls)
        if (k >= MAX_ROUNDS or time.perf_counter() - start + step > seconds) and (
                not trace or traced_walls):
            return walls, traced_walls, per_round, tracer, k


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "alps" / "__init__.py").is_file():
        print(f"error: the ALPS sources are missing ({SRC / 'alps'})", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workdir = workdir_for(args)
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        wl = WORKLOADS[args.workload](args.seed, workdir, SRC)
        if args.setup_only:
            wl.setup()
            print("ready", flush=True)
            return 0
        return measure(args, wl)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, wl) -> int:
    spec = load_spec()
    setup_times = time_setups(args)
    wl.setup()
    walls, traced_walls, per_round, tracer, rounds = run_rounds(wl, args.seconds, args.trace)
    rss = peak_rss_mb(children=wl.name == "cli-batch")

    problems = []
    for k in range(rounds if not args.trace else 1):
        try:
            wl.check(k, last=k == (0 if args.trace else rounds - 1))
        except Exception as exc:  # any check that cannot complete is a failed check
            problems.append(f"round {k}: {type(exc).__name__}: {exc}")
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)

    if args.trace:
        metrics = {key: statistics.median(r[key] for r in per_round) for key in per_round[0]}
        metrics["cli.import_s"] = statistics.median(time_imports())
        metrics["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(walls)
        wanted = spec["per_layer"]
    elif wl.attempted == wl.failed:
        print("error: every operation failed; no metric to report", file=sys.stderr)
        return 1
    else:
        metrics = end_to_end(wl.samples, setup_times, walls, rss)
        wanted = spec["end_to_end"]
    result = {
        "correct": not problems,
        "attempted": wl.attempted,
        "failed": wl.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "rounds": rounds, "round_walls_s": walls,
        "traced_round_walls_s": traced_walls, "setup_times_s": setup_times,
        "environment": environment(), "problems": problems, **result,
    }
    OUT.mkdir(parents=True, exist_ok=True)
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    if args.trace:
        tracer.write(f"{stem}-spans.json")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
