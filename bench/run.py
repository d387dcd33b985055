"""Benchmark entry point: run workloads in fresh processes, print their figures.

    python3 bench/run.py --workload slab-dissolution --seed 1 --seconds 15 --trace 0
    python3 bench/run.py                  # every workload, seed 1, untraced

Each workload runs in its own fresh worker process (bench/worker.py)
with the BLAS/OpenMP thread pools capped at the number of usable CPUs.
With --trace 0 the figures printed are BENCHMARK.json's end-to-end
metrics, with --trace 1 its per-layer metrics.  The host facts and a
table come first; the last line is one JSON object with the keys
correct, attempted, failed and metrics.  The worker's full result is
kept under bench/results.  The exit code is 0 only when every worker
finished and reported every metric.
"""

import argparse
import json
import os
import platform
import subprocess
import sys

from workloads import SIZES, WORKLOADS

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
WORKER_TIMEOUT_S = 170
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class BenchError(RuntimeError):
    pass


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_worker(workload: str, seed: int, seconds: float, trace: int,
               size: str) -> dict:
    nproc = str(len(os.sched_getaffinity(0)))
    env = dict(os.environ, **{var: nproc for var in THREAD_VARS})
    env.pop("PYTHONPATH", None)     # the worker imports spintex from src/
    cmd = [sys.executable, os.path.join(BENCH, "worker.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--size", size]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload}: worker ran past {WORKER_TIMEOUT_S} s")
    if proc.returncode != 0:
        raise BenchError(f"{workload}: worker exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"{workload}: worker printed no result")
    return json.loads(lines[-1])


def select_metrics(result: dict, specs: list) -> dict:
    out = {}
    for spec in specs:
        value = result["metrics"].get(spec["name"])
        if value is None:
            raise BenchError(f"{result['workload']}: no metric "
                             f"{spec['name']!r}")
        out[spec["name"]] = {"value": value, "unit": spec["unit"]}
    return out


def save(result: dict, trace: int) -> None:
    path = os.path.join(BENCH, "results",
                        f"{result['workload']}-seed{result['seed']}-"
                        f"{result['size']}-trace{trace}.json")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", default="all",
                   choices=("all",) + WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=bench["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=SIZES, default="full",
                   help="tiny shrinks every run for quick tests")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    specs = bench["per_layer"] if args.trace else bench["end_to_end"]
    names = WORKLOADS if args.workload == "all" else (args.workload,)

    try:
        results = []
        for name in names:
            result = run_worker(name, args.seed, args.seconds, args.trace,
                                args.size)
            result["selected"] = select_metrics(result, specs)
            save(result, args.trace)
            results.append(result)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    host = results[0]["host"]
    print(f"host: nproc {host['nproc']}, cpu {cpu_model()}, numpy "
          f"{host['numpy']}, scipy {host['scipy']}, python {host['python']}")
    for r in results:
        print(f"{r['workload']} (seed {r['seed']}, {r['size']}, trace "
              f"{args.trace}): {r['rounds']} rounds, {r['attempted']} "
              f"operations attempted, {r['failed']} failed, correct "
              f"{r['correct']}")
        for fail in r["failures"]:
            print(f"  FAILED {fail}")
        for metric, m in r["selected"].items():
            print(f"  {metric:40s} {m['value']:14.6g} {m['unit']}")
    if len(results) == 1:
        metrics = results[0]["selected"]
    else:
        metrics = {f"{r['workload']}/{k}": v for r in results
                   for k, v in r["selected"].items()}
    print(json.dumps({"correct": all(r["correct"] for r in results),
                      "attempted": sum(r["attempted"] for r in results),
                      "failed": sum(r["failed"] for r in results),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
