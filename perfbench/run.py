"""ergopulse benchmark: four workloads, end-to-end metrics, traced per-layer run.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload cesaro --trace 1    # per-layer metrics
    python3 perfbench/run.py --all                          # every workload
    python3 perfbench/run.py --smoke                        # toy-size self-test

One run times set-up in fresh processes (setup_s), then runs the
workload's job list in worker processes (worker.py) and prints
the metrics by name and unit, then, as the last line, one JSON object
with "correct", "attempted", "failed" and "metrics".  Metric names and
units come from BENCHMARK.json: the end_to_end list with --trace 0, the
per_layer list with --trace 1.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

from speed import REFERENCE_LOOP_S

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
WORKLOADS = ("sweep", "bounds", "optimize", "cesaro")
DEFAULT_SEED = 1
# Kept out of development: a claim made on the default seed is rechecked here.
HELD_OUT_SEED = 104729
SETUP_PROBES = 3
# An untraced run splits its seconds over this many worker processes, one
# after another, and pools their passes: the Schur-heavy sweep jobs run
# ~10% faster or slower for a whole process's lifetime (memory layout),
# which no within-process statistic can average out.
WORKERS = 3
BLAS_THREADS = 1
RUN_LIMIT_S = 170.0


class BenchError(Exception):
    pass


def load_spec() -> dict:
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise BenchError("cannot read %s: %s" % (path, exc)) from None


def git_commit() -> str:
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(seed: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "blas": "%s %s" % (blas.get("name"), blas.get("version")),
        "blas_threads": BLAS_THREADS,
        "commit": git_commit(),
        "seed": seed,
        "default_seed": DEFAULT_SEED,
        "held_out_seed": HELD_OUT_SEED,
    }


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    # String hashing is randomized per process, and the dict layouts it
    # yields moved wall_s of one seed by 5.6% (IQR/median) between
    # processes; with a fixed hash seed, by 1.7%.
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONPATH", None)
    return env


def spawn(argv, deadline, workdir, result_path):
    """Run worker.py with argv; returns (spawn monotonic time, result dict)."""
    os.makedirs(workdir, exist_ok=True)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workdir", workdir,
           "--result", result_path] + argv
    started = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL, env=child_env(), cwd=ROOT)
    try:
        code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError("worker %s ran past the time limit" % " ".join(argv)) from None
    if code != 0:
        raise BenchError("worker %s exited with %d" % (" ".join(argv), code))
    with open(result_path, encoding="utf-8") as fh:
        return started, json.load(fh)


def list_wall(passes, scale=True) -> float:
    """Sum over jobs of each job's median time across passes, at reference
    speed (scale) or as measured."""
    return sum(
        statistics.median(t * REFERENCE_LOOP_S / c if scale else t for t, c, _h in job)
        for job in zip(*passes)
    )


def pool(workers) -> dict:
    """Combine the worker results of one run."""
    res = {key: workers[0][key] for key in ("jobs", "per_layer", "absent") if key in workers[0]}
    res["untraced_job_s"] = [p for w in workers for p in w["untraced_job_s"]]
    res["wall_s"] = list_wall(res["untraced_job_s"])
    res["wall_raw_s"] = list_wall(res["untraced_job_s"], scale=False)
    res["peak_rss_mb"] = max(w["peak_rss_mb"] for w in workers)
    res["attempted"] = sum(w["attempted"] for w in workers)
    res["failed"] = sum(w["failed"] for w in workers)
    res["failures"] = [f for w in workers for f in w["failures"]]
    for w in workers[1:]:
        for name, a, b in zip(res["jobs"], workers[0]["first_digests"], w["first_digests"]):
            if a != b:
                res["failed"] += 1
                res["failures"].append("%s: output differs between worker processes" % name)
    res["fail_frac"] = res["failed"] / res["attempted"]
    if "traced_job_s" in workers[0]:
        res["traced_job_s"] = workers[0]["traced_job_s"]
        res["per_layer"]["trace_overhead_frac"] = list_wall(res["traced_job_s"]) / res["wall_s"] - 1.0
    return res


def run_once(workload, seed, seconds, trace, size="full", probes=SETUP_PROBES):
    """One benchmark run; returns (declared metrics, full result record)."""
    if workload not in WORKLOADS:
        raise BenchError("unknown workload %r; pick one of %s" % (workload, WORKLOADS))
    if not os.path.isfile(os.path.join(ROOT, "src", "ergopulse", "__init__.py")):
        raise BenchError("no ergopulse sources under %s" % os.path.join(ROOT, "src"))
    spec = load_spec()
    deadline = time.monotonic() + RUN_LIMIT_S
    base = ["--workload", workload, "--seed", str(seed), "--size", size]
    os.makedirs(OUT, exist_ok=True)
    rundir = os.path.join(OUT, "run-%d" % os.getpid())
    shutil.rmtree(rundir, ignore_errors=True)
    # Every process of the run writes its inputs and outputs to the same
    # paths, so reports that name their input files agree byte for byte.
    work = os.path.join(rundir, "work")
    try:
        # The first probe also compiles bytecode; it is not timed.
        setup, setup_raw = [], []
        for k in range(probes + 1):
            started, res = spawn(base + ["--setup-only"], deadline, work,
                                 os.path.join(rundir, "probe-%d.json" % k))
            if k:
                setup_raw.append(res["ready_monotonic"] - started - res["setup_handler_s"])
                setup.append(setup_raw[-1] * REFERENCE_LOOP_S / res["setup_loop_s"])
        tag = "%s-seed%d-trace%d" % (workload, seed, trace)
        span_path = os.path.join(OUT, tag + ".spans.jsonl")
        n_workers = 1 if trace else WORKERS
        argv = base + ["--seconds", repr(seconds / n_workers), "--trace", str(trace)]
        if trace:
            argv += ["--spans", span_path]
        workers = [spawn(argv, deadline, work, os.path.join(rundir, "worker-%d.json" % k))[1]
                   for k in range(n_workers)]
    finally:
        shutil.rmtree(rundir, ignore_errors=True)

    res = pool(workers)
    res.update(workload=workload, seed=seed, size=size,
               setup_samples_s=setup, setup_raw_samples_s=setup_raw)
    computed = dict(res.get("per_layer", {}))
    computed.update(wall_s=res["wall_s"], setup_s=statistics.median(setup),
                    peak_rss_mb=res["peak_rss_mb"])
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    missing = [m["name"] for m in declared if m["name"] not in computed]
    if missing:
        raise BenchError("metrics not computed: %s" % ", ".join(missing))
    metrics = {m["name"]: {"value": computed[m["name"]], "unit": m["unit"]} for m in declared}
    res["env"] = environment(seed)
    res["metrics"] = metrics
    with open(os.path.join(OUT, tag + ".json"), "w", encoding="utf-8") as fh:
        json.dump(res, fh, indent=1, sort_keys=True)
    return metrics, res


def report(workload, metrics, res) -> None:
    env = res["env"]
    print("env: " + " ".join("%s=%s" % kv for kv in env.items()))
    print("workload %s: %d jobs, %d untraced passes%s; times at reference speed "
          "(unscaled: wall %.4g s, setup %.4g s)" % (
              workload, len(res["jobs"]), len(res["untraced_job_s"]),
              ", %d traced" % len(res["traced_job_s"]) if "traced_job_s" in res else "",
              res["wall_raw_s"], statistics.median(res["setup_raw_samples_s"])))
    for name, m in metrics.items():
        print("  %-46s %14.6g %s" % (name, m["value"], m["unit"]))
    print("  %-46s %14.6g %s  (%d failed of %d jobs attempted)" % (
        "fail_frac", res["fail_frac"], "1", res["failed"], res["attempted"]))
    if res.get("absent"):
        print("  traced names absent from ergopulse: " + ", ".join(res["absent"]))
    for line in res["failures"]:
        print("  FAILED " + line)


def smoke() -> None:
    """Toy-size run of every workload, traced and untraced, with assertions."""
    spec = load_spec()
    zero_outside = {
        "matrixcore.expm.calls": ("sweep", "bounds"),
        "kernels.conj_weighted_sum.calls": ("cesaro",),
        "optimizer.objective_evals": ("optimize",),
    }
    for workload in WORKLOADS:
        for trace in (0, 1):
            metrics, res = run_once(workload, DEFAULT_SEED, 0, trace, "toy", probes=1)
            report(workload, metrics, res)
            assert res["failed"] == 0, res["failures"]
            declared = spec["per_layer"] if trace else spec["end_to_end"]
            for m in declared:
                assert metrics[m["name"]]["unit"] == m["unit"], m
                value = metrics[m["name"]]["value"]
                assert isinstance(value, (int, float)) and value == value, m
            if trace:
                for name, used_by in zero_outside.items():
                    value = metrics[name]["value"]
                    assert (value > 0) == (workload in used_by), (workload, name, value)
    print("smoke: every workload ran and reported every declared metric with its unit")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=None)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--all", action="store_true", help="run every workload in turn")
    p.add_argument("--smoke", action="store_true", help="toy-size self-test")
    args = p.parse_args(argv)
    try:
        if args.smoke:
            smoke()
            return 0
        seconds = args.seconds
        if seconds is None:
            seconds = load_spec()["run_seconds"]
        if args.all:
            for workload in WORKLOADS:
                metrics, res = run_once(workload, args.seed, seconds, args.trace)
                report(workload, metrics, res)
            return 0
        if args.workload is None:
            p.error("give --workload, --all or --smoke")
        metrics, res = run_once(args.workload, args.seed, seconds, args.trace)
        report(args.workload, metrics, res)
        print(json.dumps({
            "correct": res["failed"] == 0,
            "attempted": res["attempted"],
            "failed": res["failed"],
            "metrics": metrics,
        }))
        return 0
    except BenchError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
