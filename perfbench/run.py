"""Benchmark entry point: python3 perfbench/run.py --workload W --seed S ...

Run from the root of a source checkout.  A run starts two fresh
worker processes (worker.py) one after another, each with BLAS limited
to one thread before numpy is imported.  Each sets up; the passes over
the seeded job list are then dealt out to the workers in turn, and a
worker runs its jobs back to back (one client, closed loop).  The number
of passes is fixed by --seconds and the workload's nominal pass time,
never by the clock, so a seed always yields the same jobs, counts and
failures.  Times are the workers' CPU seconds.

With --trace 0 the last stdout line carries the end-to-end metrics,
with --trace 1 the per-layer metrics of a run in which every job runs
once untraced and once traced.  Earlier lines are a readable report.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
BLAS_THREADS = 1
WORKERS = 2   # fresh processes per untraced run; setup_s is the median of their set-ups
WORKER_TIMEOUT_S = 160.0
# CPU seconds one pass over the job list takes on the reference machine.
NOMINAL_PASS_S = {"smooth": 8.5, "step": 5.6, "certify": 5.5}

E2E_UNITS = {"setup_s": "s", "pass_s": "s", "peak_rss_mb": "MB"}
# Per-layer metrics in the result line.  Self times are listed only for
# layers every workload exercises; the others (Dirac, symbols, the decay
# checks, verify suites, the CLI, solve_ivp on step) are printed in the
# report above it and kept in the trace file.
LAYER_COUNTS = (
    "ode.monodromy.calls", "ode.monodromy_dlam.calls", "scipy.solve_ivp.calls",
    "scipy.solve_ivp.nfev", "ode.propagate_hill.calls", "ode.propagate_hill_perturbed.calls",
    "floquet.discriminant.calls", "floquet.floquet_solutions.calls",
    "floquet.floquet_values.calls", "floquet.floquet_values.points", "bands.edges",
    "gap.matching_determinant.calls", "gap.bs.grid_points", "decay.fit_decay_rate.calls",
    "ode.propagate_dirac.calls", "symbols.gamma.calls", "symbols.ellipticity_margin.calls")
LAYER_TIMES = (
    "ode.monodromy.s", "ode.monodromy_dlam.s", "ode.propagate_hill.s",
    "ode.propagate_hill_perturbed.s", "floquet.discriminant.s", "floquet.floquet_solutions.s",
    "floquet.floquet_values.s", "bands.band_edges.s", "gap.solve_coupling.s",
    "gap.eigenfunction.s", "gap.birman_schwinger_spectrum.s", "gap.bs.eigvalsh_s",
    "decay.fit_decay_rate.s")
PER_LAYER = ({n: "count" for n in LAYER_COUNTS} | {n: "s" for n in LAYER_TIMES}
             | {"bands.F_evals_per_edge": "evals/edge", "dirac.det_evals_per_root": "evals/root",
                "gap.bs.peak_alloc_mb": "MB", "trace.overhead": "ratio"})


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def spawn(root, args, passes, workdir, deadline):
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env["PYTHONPATH"] = os.pathsep.join([os.path.join(root, "src"), HERE])
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--passes", str(passes), "--trace", str(args.trace),
           "--workdir", workdir]
    proc = subprocess.Popen(cmd, cwd=root, env=env, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        fail("worker timed out")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def pass_seconds(samples, twins):
    """CPU seconds for one pass: each job at its median time over the passes.

    Medians, not minima: on a shared host the fastest of a few samples
    depends on whether a run happened to catch a quiet moment.  A job
    that never completed is charged the median time of its twin, a job
    on the same input that differs only where the failure lies (or,
    without a completed twin, the mean of its class).  So a change that
    turns failures into completed jobs does not read as a slowdown; its
    effect shows in `failed`.
    """
    med = {k: statistics.median(v) for k, v in samples.items() if v}
    total = 0.0
    for (cls, key), times in samples.items():
        done = [t for (c, _), t in med.items() if c == cls]
        if times:
            total += med[(cls, key)]
        elif (cls, twins.get(key)) in med:
            total += med[(cls, twins[key])]
        elif done:
            total += statistics.fmean(done)
    return total


def flag_nondeterministic(results):
    """Fail every CLI report that differs from the first one of its input.

    The first report of an input is its warm call in the first worker.
    """
    first = {}
    for r in results:
        for key, d in r["warm_digests"].items():
            first.setdefault(key, d)
        for j in r["jobs"]:
            if "digest" in j and first.setdefault(j["key"], j["digest"]) != j["digest"]:
                j["fail"] = {"type": "CheckFailed", "wrong": True,
                             "detail": "report differs from an earlier run of the same input"}


def tail(times):
    """Highest percentile with at least ten jobs beyond it: (p, value, n)."""
    n = len(times)
    if n < 11:
        return None
    k = n - 11
    return 100.0 * (k + 1) / n, sorted(times)[k], n


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(NOMINAL_PASS_S))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "spectral_decay", "__init__.py")):
        fail("run from the root of a spectral-decay checkout (src/spectral_decay missing)")
    deadline = time.monotonic() + WORKER_TIMEOUT_S
    passes = max(1, round(args.seconds / NOMINAL_PASS_S[args.workload]))
    workdir = os.path.join(HERE, "out", f"{args.workload}-{args.seed}-{args.trace}")
    os.makedirs(workdir, exist_ok=True)

    if args.trace:
        results = [spawn(root, args, passes, workdir, deadline)]
    else:
        results = [spawn(root, args, len(range(i, passes, WORKERS)), workdir, deadline)
                   for i in range(WORKERS)]
    setups = [r["setup_s"] for r in results]
    jobs = [j for r in results for j in r["jobs"]]
    flag_nondeterministic(results)

    done = [j for j in jobs if j["fail"] is None]
    failures = Counter(j["fail"]["type"] + ": " + j["fail"]["detail"] for j in jobs if j["fail"])
    wrong = [j for j in jobs if j["fail"] and j["fail"].get("wrong")]
    wrong += [j for j in jobs if j.get("traced_fail") and j["traced_fail"].get("wrong")]
    wrong += [c for r in results for c, f in r["warm"].items() if f and f.get("wrong")]
    correct = not wrong and bool(done)

    by_cls, samples = {}, {}
    twins = {j["key"]: j["twin"] for j in jobs}
    for j in jobs:
        by_cls.setdefault(j["cls"], {"attempted": 0, "times": []})
        by_cls[j["cls"]]["attempted"] += 1
        samples.setdefault((j["cls"], j["key"]), [])
        if j["fail"] is None:
            by_cls[j["cls"]]["times"].append(j["s"])
            samples[(j["cls"], j["key"])].append(j["s"])
    pass_s = pass_seconds(samples, twins)

    print(f"workload {args.workload} seed {args.seed} passes {passes} "
          f"nproc {os.cpu_count()} blas_threads {BLAS_THREADS}")
    for cls, c in sorted(by_cls.items()):
        med = statistics.median(c["times"]) if c["times"] else float("nan")
        print(f"  job {cls:13s} attempted {c['attempted']:3d} completed {len(c['times']):3d} "
              f"median {med:.4f} s")
    t = tail([j["s"] for j in done])
    if t:
        print(f"  job_tail_s {t[1]:.4f} s (p{t[0]:.1f} of {t[2]} completed jobs)")
    else:
        print(f"  job_tail_s n/a ({len(done)} completed jobs, needs 11)")
    print(f"  fail_frac {len(jobs) - len(done)}/{len(jobs)} = {(len(jobs) - len(done)) / len(jobs):.4f}")
    for kind, n in sorted(failures.items()):
        print(f"    {n:3d} x {kind}")
    print(f"  setups {', '.join(f'{s:.3f}' for s in setups)} s")

    if args.trace:
        metrics = layer_report(results[0])
    else:
        values = {"setup_s": statistics.median(setups), "pass_s": pass_s,
                  "peak_rss_mb": max(r["peak_rss_mb"] for r in results)}
        metrics = {k: {"value": values[k], "unit": u} for k, u in E2E_UNITS.items()}
    for k, v in metrics.items():
        print(f"  {k} = {v['value']!r} {v['unit']}")
    print(json.dumps({"correct": correct, "attempted": len(jobs),
                      "failed": len(jobs) - len(done), "metrics": metrics}))


def layer_report(res):
    tr = dict(res["trace"])
    done = [j for j in res["jobs"] if j["fail"] is None and j.get("traced_fail") is None]
    tr["trace.overhead"] = (sum(j["traced_s"] for j in done) / sum(j["s"] for j in done)
                            if done else 1.0)
    print(f"  trace file {os.path.relpath(res['trace_file'])}; self times cover "
          f"{tr['trace.self_sum_s']:.4f} of {tr['trace.job_s']:.4f} s of traced jobs")
    for k in sorted(tr):
        if k not in PER_LAYER and not k.startswith("trace."):
            print(f"  layer {k} = {tr[k]!r}")
    return {k: {"value": tr.get(k, 0), "unit": unit} for k, unit in PER_LAYER.items()}


if __name__ == "__main__":
    main()
