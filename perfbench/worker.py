"""One fresh benchmark process: set up, then run whole passes of jobs.

Started by run.py with the BLAS thread variables already set.  Set-up
is the import, input generation and one warm call per job class; the
process reports the CPU time it had used when set-up ended.  Jobs are
timed in CPU time too: BLAS runs one thread, so the process's CPU time
is the work done, without the time a shared host gives to others.  The
last stdout line is a JSON object describing every measured job.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
import time

import numpy as np

import spectral_decay as sd
import workloads

# Job classes that run birman_schwinger_spectrum, whose peak allocation
# the traced run reports.
ALLOC_CLASSES = ("bs-spectrum", "verify")


def attempt(job, runner):
    """Run and check one job: (CPU seconds, failure or None, output)."""
    t0 = time.process_time()
    try:
        out = runner(job.run)
    except Exception as exc:  # every failure is counted, none stops the run
        return time.process_time() - t0, {"type": type(exc).__name__,
                                          "detail": str(exc)[:120]}, None
    dt = time.process_time() - t0
    return dt, check(job, out), out


def check(job, out):
    """None if the output passes its check, else the failure record."""
    try:
        job.check(out)
    except workloads.CheckFailed as exc:
        return {"type": "CheckFailed", "detail": str(exc), "wrong": True}
    return None


def digest(report):
    """CLI reports are compared by digest, across warm calls and workers."""
    return hashlib.sha256(report.encode()).hexdigest()


def traced(tracer, name, run):
    """Run one job under the wrappers; its check runs untraced."""
    tracer.install()
    try:
        return tracer.span(name, run)
    finally:
        tracer.uninstall()


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--passes", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", required=True)
    args = ap.parse_args()

    rng = np.random.default_rng(args.seed)
    jobs = workloads.WORKLOADS[args.workload](sd, rng, args.workdir)
    warm_out = {}
    for job in jobs:
        if job.cls not in warm_out:
            try:
                warm_out[job.cls] = (job, job.run())
            except Exception:  # the measured passes count this job's failures
                warm_out[job.cls] = (job, None)
    setup_s = time.process_time()
    warm, digests = {}, {}
    for cls, (job, out) in warm_out.items():
        warm[cls] = None if out is None else check(job, out)
        if isinstance(out, str):
            digests[job.key] = digest(out)

    tracer = None
    if args.trace:
        from spans import Tracer
        tracer = Tracer(sd)
    records = []
    for p in range(args.passes):
        for job in jobs:
            dt, fail, out = attempt(job, lambda run: run())
            rec = {"cls": job.cls, "key": job.key, "twin": job.twin, "pass": p, "s": dt,
                   "fail": fail}
            if isinstance(out, str):
                rec["digest"] = digest(out)
            if tracer is not None and fail is None:
                tracer.job = len(records)
                rec["traced_s"], rec["traced_fail"], _ = attempt(
                    job, lambda run, c=job.cls: traced(tracer, f"job.{c}", run))
                if p == 0 and job.cls in ALLOC_CLASSES:
                    tracer.measure_alloc(job.run)
            records.append(rec)

    result = {"setup_s": setup_s, "warm": warm, "warm_digests": digests, "jobs": records,
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if tracer is not None:
        path = os.path.join(args.workdir, "trace.npz")
        tracer.write(path)
        result["trace"] = layer_metrics(tracer)
        result["trace_file"] = path
    print(json.dumps(result))


def layer_metrics(tr):
    """Per-layer counts, self times and derived ratios of a traced run."""
    out = {}
    for name in tr.calls:
        out[f"{name}.calls"] = tr.calls[name]
        out[f"{name}.s"] = tr.self_time[name]
    out.update(tr.counts)
    edges = tr.counts.get("bands.edges", 0)
    n, _ = tr.nested("floquet.discriminant", "bands.band_edges")
    out["bands.F_evals_per_edge"] = n / edges if edges else 0.0
    roots = tr.counts.get("dirac.roots", 0)
    n, _ = tr.nested("dirac.matching_determinant", "dirac.dirac_gap_eigenvalues")
    out["dirac.det_evals_per_root"] = n / roots if roots else 0.0
    out["gap.bs.eigvalsh_s"] = tr.nested("numpy.eigvalsh", "gap.birman_schwinger_spectrum")[1]
    out["gap.bs.peak_alloc_mb"] = tr.peak_alloc / 2 ** 20
    out["cli.self_s"] = sum(v for k, v in tr.self_time.items() if k.startswith("cli."))
    job_total = sum(v for k, v in tr.total.items() if k.startswith("job."))
    out["trace.self_sum_s"] = sum(tr.self_time.values())
    out["trace.job_s"] = job_total
    return out


if __name__ == "__main__":
    sys.exit(main())
