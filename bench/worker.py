"""Run one workload in this process and print its figures as one JSON line.

run.py starts this in a fresh process per workload.  Set-up is timed
first, starting with the import of spintex; then whole rounds run until
the requested seconds have passed.  With --trace 1 every second round is
traced, so the traced and untraced figures of one process give the
tracing overhead.  Each round's run directories live in a temporary
directory under bench/tmp that is removed once the round is checked.

    python3 bench/worker.py --workload slab-dissolution --seed 1 \
        --seconds 15 --trace 0
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time

import spans
import workloads

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
SETUP_REPEATS = 5


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", default="full")
    return p.parse_args(argv)


def import_program() -> float:
    """Import spintex from this checkout's src; return the seconds taken."""
    sys.path.insert(0, SRC)
    t0 = time.perf_counter()
    import spintex
    elapsed = time.perf_counter() - t0
    where = os.path.dirname(os.path.abspath(spintex.__file__))
    if where != os.path.join(SRC, "spintex"):
        raise SystemExit(f"spintex imported from {where}, not from {SRC}")
    return elapsed


def setup_once(plan) -> float:
    """Seconds to validate, build and prepare every run of the workload."""
    import numpy as np
    from spintex import runner
    from spintex.io_text import RunConfig
    total = 0.0
    for values in plan.setup_configs():
        cfg = RunConfig(**values)
        t0 = time.perf_counter()
        cfg.validate()
        _, state = runner.build_evolver(cfg)
        runner.initial_field(cfg, np.random.default_rng(cfg.rng_seed), state)
        total += time.perf_counter() - t0
    return total


def layer_metrics(tracer, n_rounds: int) -> dict:
    """Per-round figures of every traced function, by layer name."""
    totals = spans.layer_totals(tracer.spans)
    out = {}
    for mod, attr, work in spans.TRACED:
        name = spans.span_name(mod, attr)
        row = totals.get(name, {"calls": 0, "s": 0.0, "self_s": 0.0,
                                "work": 0})
        out[f"{name}.calls"] = row["calls"] / n_rounds
        out[f"{name}.s"] = row["s"] / n_rounds
        out[f"{name}.self_s"] = row["self_s"] / n_rounds
        if work == "sites":
            out[f"{name}.sites_per_s"] = (row["work"] / row["s"]
                                          if row["s"] > 0 else 0.0)
        elif work is not None:
            out[f"{name}.mb"] = row["work"] / 1e6 / n_rounds
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    import_s = import_program()
    import numpy
    import scipy

    import checks

    plan = workloads.make_plan(args.workload, args.seed, args.size)
    setup_s = import_s + statistics.median(
        setup_once(plan) for _ in range(SETUP_REPEATS))

    tmp_root = os.path.join(BENCH, "tmp")
    os.makedirs(tmp_root, exist_ok=True)
    tracer = spans.Tracer() if args.trace else None
    plain, traced, failures = [], [], []
    attempted = 0
    wrong = False
    start = time.perf_counter()
    while True:
        tracing = tracer is not None and len(plain) > len(traced)
        root = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=tmp_root)
        try:
            if tracing:
                tracer.run_id = len(plain) + len(traced)
                tracer.install()
            try:
                rnd = workloads.run_round(plan, root)
            finally:
                if tracing:
                    tracer.uninstall()
            failed = checks.check_round(plan, rnd, root)
        finally:
            shutil.rmtree(root, ignore_errors=True)
        (traced if tracing else plain).append(rnd)
        attempted += len(rnd.operations)
        failures.append(failed)
        # an output that fails a check makes the run incorrect; an
        # operation that raised only counts as failed
        wrong = wrong or any(len(msgs) > (name in rnd.errors)
                             for name, msgs in failed.items())
        done = time.perf_counter() - start >= args.seconds
        if done and (tracer is None or len(plain) == len(traced)):
            break
    try:
        os.rmdir(tmp_root)
    except OSError:
        pass  # another run is using it

    def median(rounds, fn):
        return statistics.median(fn(r) for r in rounds)

    metrics = {
        "setup_s": setup_s,
        "run_s": median(plain, lambda r: r.run_s),
        "site_steps_per_s": median(plain, lambda r: r.site_steps / r.sim_s
                                   if r.sim_s > 0 else 0.0),
        "output_mb": median(plain, lambda r: r.output_bytes / 1e6),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        * 1024 / 1e6,
    }
    if tracer is not None:
        metrics.update(layer_metrics(tracer, len(traced)))
        traced_run_s = median(traced, lambda r: r.run_s)
        top = sum(s[2] - s[1] for s in tracer.spans if s[3] < 0)
        metrics["trace.run_s"] = traced_run_s
        metrics["trace.overhead_s"] = traced_run_s - metrics["run_s"]
        metrics["trace.accounted_share"] = top / sum(r.run_s for r in traced)
        tracer.write(os.path.join(
            BENCH, "results",
            f"trace-{args.workload}-seed{args.seed}-{args.size}.json"))

    result = {
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "rounds": len(plain) + len(traced),
        "traced_rounds": len(traced),
        "attempted": attempted,
        "failed": sum(len(f) for f in failures),
        "correct": not wrong,
        "failures": [f for f in failures if f],
        "round_run_s": [r.run_s for r in plain],
        "traced_round_run_s": [r.run_s for r in traced],
        "metrics": metrics,
        "host": {"nproc": len(os.sched_getaffinity(0)),
                 "numpy": numpy.__version__, "scipy": scipy.__version__,
                 "python": sys.version.split()[0]},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
