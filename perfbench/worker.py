"""One workload in one process: set up, run the job list, check, report.

Started by run.py, never by hand.  The process imports ergopulse from the
checkout's src/, builds the seeded job list (the set-up that setup_s
times), then runs passes over the list until --seconds is used up (at
least one; with --trace 1 untraced and traced passes alternate, at least
one of each).  Every job's output is compared
byte for byte with its first-pass output, so reruns and the traced run
must reproduce the untraced results exactly; first-pass outputs also go
through the job's own correctness check.  Results go to --result as
JSON.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import sys
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fingerprint(obj, h=None):
    """Digest of a job's output: arrays by dtype, shape and bytes, floats by repr."""
    h = h or hashlib.sha256()
    if isinstance(obj, bytes):
        h.update(obj)
    elif isinstance(obj, np.ndarray):
        h.update(("%s%s" % (obj.dtype, obj.shape)).encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    elif isinstance(obj, dict):
        for key in sorted(obj):
            h.update(repr(key).encode())
            fingerprint(obj[key], h)
    elif isinstance(obj, (list, tuple)):
        h.update(b"[%d" % len(obj))
        for item in obj:
            fingerprint(item, h)
    else:
        h.update(repr(obj).encode())
    return h


def run_pass(jobs, meter, tracer=None):
    """Per job: (seconds without sampling, mean speed-loop seconds around it,
    sampling seconds inside it), and its output digest or error."""
    times, digests = [], []
    meter.sample()
    for k, job in enumerate(jobs):
        if tracer is not None:
            tracer.job = k
        first, handler_s = len(meter.samples) - 1, meter.handler_s
        t0 = time.perf_counter()
        try:
            out, error = job.run(), None
        except Exception as exc:  # a failed job is counted, not fatal
            out, error = None, "%s: %s" % (type(exc).__name__, exc)
        sampling = meter.handler_s - handler_s
        raw = time.perf_counter() - t0 - sampling
        meter.sample()
        times.append((raw, statistics.fmean(meter.samples[first:]), sampling))
        if error is None:
            digests.append(("ok", fingerprint(out).hexdigest(), out))
        else:
            digests.append(("error", error, None))
    return times, digests


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "toy"), default="full")
    p.add_argument("--workdir", required=True)
    p.add_argument("--result", required=True)
    p.add_argument("--spans", default=None)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    sys.path.insert(0, os.path.join(ROOT, "src"))
    from speed import Speedometer

    with Speedometer() as meter:
        meter.sample()
        import ergopulse
        import jobs as workloads

        job_list = workloads.WORKLOADS[args.workload](args.seed, args.size, args.workdir)
        ready = time.monotonic()
        setup_handler_s = meter.handler_s
        meter.sample()
    result = {
        "ready_monotonic": ready,
        "setup_handler_s": setup_handler_s,
        "setup_loop_s": statistics.fmean(meter.samples),
        "jobs": [j.name for j in job_list],
    }
    if args.setup_only:
        with open(args.result, "w", encoding="utf-8") as fh:
            json.dump(result, fh)
        return 0

    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer()

    untraced, traced, layer_passes = [], [], []
    failures: list[str] = []
    attempted = failed = 0
    first = None
    span_range = None
    start = time.perf_counter()
    with Speedometer() as meter:
        while True:
            use_trace = tracer is not None and len(traced) < len(untraced)
            if use_trace:
                tracer.install(ergopulse)
                mark = tracer.mark()
                try:
                    times, digests = run_pass(job_list, meter, tracer)
                finally:
                    tracer.uninstall()
                layer_passes.append(tracer.pass_metrics(mark, sum(t + h for t, _c, h in times)))
                if span_range is None:
                    span_range = (mark[0], len(tracer.span_start))
                else:
                    tracer.truncate(mark)
                traced.append(times)
            else:
                times, digests = run_pass(job_list, meter)
                untraced.append(times)

            for k, (status, digest, out) in enumerate(digests):
                attempted += 1
                problems = []
                if status == "error":
                    problems = [digest]
                elif first is None:
                    problems = job_list[k].check(out)
                elif first[k] != digest:
                    problems = ["output differs from the first pass"]
                if problems:
                    failed += 1
                    failures += ["%s: %s" % (job_list[k].name, m) for m in problems]
            if first is None:
                first = [digest for _s, digest, _o in digests]

            elapsed = time.perf_counter() - start
            if untraced and (tracer is None or traced):
                kind = traced if tracer is not None and len(traced) < len(untraced) else untraced
                if elapsed + sum(t for t, _c, _h in kind[-1]) > args.seconds:
                    break

    result.update(
        attempted=attempted,
        failed=failed,
        failures=failures[:50],
        first_digests=first,
        untraced_job_s=untraced,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    if tracer is not None:
        result.update(
            traced_job_s=traced,
            per_layer={
                key: statistics.median(m[key] for m in layer_passes)
                for key in layer_passes[0]
            },
            absent=tracer.absent,
        )
        if args.spans:
            result["spans_written"] = tracer.write(args.spans, *span_range)
            result["span_file"] = args.spans
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
