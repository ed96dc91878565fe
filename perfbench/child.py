"""One workload in one fresh interpreter: a closed loop with one client.

Started by ``run.py`` from the root of a checkout with ``src`` on the
path. Jobs run back to back; the next starts when the previous returns.
Before measuring, one untimed pass at smoke sizes warms imports and
caches. Then it runs ``--seconds / NOMINAL_PASS_S`` measured passes,
which take about ``--seconds`` on the machine the nominal pass times were
measured on. The pass count is fixed, not timed, so every run of a
workload pools the same number of samples and the job percentiles always
fall on the same jobs. With ``--trace 1`` untraced and traced passes
alternate, starting with an untraced one.

After each job, untimed, its outputs are summarised and checked, and the
summary digest is compared with the first measured pass's. The result,
raw samples included, goes to ``<out>/result.json``; spans of traced
passes go to ``<out>/spans.csv``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path.cwd()


def _header(workload: str, seed: int, trace: bool) -> dict:
    import cvshare
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = "unknown"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, check=False)
        commit = proc.stdout.strip() or commit
    return {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "backend": cvshare.backend_name(),
        "commit": commit,
        "cvshare": str(Path(cvshare.__file__).parent.relative_to(ROOT)),
    }


def run_pass(jobs, first_digests, tracer=None, job_base=0):
    """Run every job once; return durations, failures and digest mismatches."""
    from workloads import digest

    durations, problems, digests, crashed, mismatched = [], {}, [], [], []
    for i, job in enumerate(jobs):
        job.prepare()
        if tracer is not None:
            tracer.job = job_base + i
        t0 = perf_counter()
        try:
            raw = job.call()
            error = None
        except Exception:  # a crashing job is a failed job; the loop goes on
            raw, error = None, traceback.format_exc(limit=3)
        t1 = perf_counter()
        if tracer is not None:
            tracer.job = None
        durations.append(t1 - t0)
        if error is not None:
            problems[job.name] = [f"raised: {error}"]
            crashed.append(job.name)
            digests.append(None)
            continue
        summary = job.observe(raw)
        del raw
        found = job.check(summary)
        if isinstance(summary.get("rc"), int) and summary["rc"] != 0:
            crashed.append(job.name)
        d = digest(summary)
        digests.append(d)
        if first_digests is not None and first_digests[i] != d:
            mismatched.append(job.name)
            found = found + ["outputs differ from the first pass's"]
        if found:
            problems[job.name] = found
    return {"durations": durations, "total": sum(durations), "problems": problems,
            "digests": digests, "crashed": crashed, "mismatched": mismatched,
            "job_base": job_base}


def _tail(samples: list[float]) -> tuple[float, float]:
    """Value and percentile of the highest rank with at least ten samples above it."""
    ordered = sorted(samples)
    k = len(ordered) - 11 if len(ordered) >= 11 else len(ordered) - 1
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    out = Path(args.out)

    header = _header(args.workload, args.seed, bool(args.trace))
    from workloads import NOMINAL_PASS_S, build_jobs

    jobs = build_jobs(args.workload, args.seed, out / "measured", smoke=args.smoke)
    warm = build_jobs(args.workload, args.seed, out / "warmup", smoke=True)
    run_pass(warm, None)

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
    n_passes = max(2 if tracer is not None or args.smoke else 1,
                   round(args.seconds / NOMINAL_PASS_S))
    passes, traced_results = [], []
    first = None
    for index in range(n_passes):
        traced = tracer is not None and index % 2 == 1
        if traced:
            tracer.install()
        result = run_pass(jobs, first, tracer if traced else None, len(passes) * len(jobs))
        if traced:
            tracer.uninstall()
            traced_results.append((result, *tracer.take()))
        result["traced"] = traced
        passes.append(result)
        if first is None:
            first = result["digests"]

    untraced = [p for p in passes if not p["traced"]]
    durations = [d for p in untraced for d in p["durations"]]
    tail, tail_pct = _tail(durations)
    attempted = sum(len(p["durations"]) for p in passes)
    failed = sum(len(p["problems"]) for p in passes)
    res = {
        "header": header,
        "jobs": [{"name": j.name, **j.meta} for j in jobs],
        "passes": [{"traced": p["traced"], "total": p["total"], "durations": p["durations"],
                    "problems": p["problems"]} for p in passes],
        "attempted": attempted,
        "failed": failed,
        "crashed": sum(len(p["crashed"]) for p in passes),
        "reproducible": not any(p["mismatched"] for p in passes),
        "pass_s": statistics.median(p["total"] for p in untraced),
        "job_s_p50": statistics.median(durations),
        "job_s_tail": tail,
        "job_s_tail_percentile": tail_pct,
        "job_samples": len(durations),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        res["layers"] = _layer_metrics(traced_results, res["pass_s"], out)
    with open(out / "result.json", "w") as fh:
        json.dump(res, fh, indent=1)
    return 0


def _layer_metrics(traced_results, untraced_pass_s: float, out: Path) -> dict:
    """Per-layer metrics, each the median over the traced passes."""
    from tracing import LAYERS, self_times

    per_pass = []
    with open(out / "spans.csv", "w") as fh:
        fh.write("id,layer,start,end,parent,job\n")
        for result, spans, counters in traced_results:
            for sid, layer, t0, t1, parent, job in spans.tolist():
                fh.write(f"{int(sid)},{LAYERS[int(layer)]},{t0!r},{t1!r},"
                         f"{int(parent)},{int(job)}\n")
            calls, self_s, root_by_job, min_own = self_times(spans)
            m = {}
            for i, name in enumerate(LAYERS):
                m[f"{name}.calls"] = float(calls[i])
                m[f"{name}.self_s"] = float(self_s[i])
            for key in ("sampler.normals", "sampler.bytes_out", "protocol.rounds",
                        "protocol.records", "estimators.values", "cli.bytes_written",
                        "cli.files_written", "cli.errors", "gaussian_core.states_built",
                        "certificates.points"):
                m[key] = float(counters.get(key, 0.0))
            rounds = counters.get("protocol.rounds", 0.0)
            est = counters.get("protocol.est_rounds", 0.0)
            m["protocol.est_ratio"] = est / rounds if rounds else 0.0
            job_remainders = [d - root_by_job.get(result["job_base"] + i, 0.0)
                              for i, d in enumerate(result["durations"])]
            remainder = sum(job_remainders)
            m["trace.remainder_s"] = remainder
            m["trace.overhead_s"] = result["total"] - untraced_pass_s
            # every layer's self time plus the unattributed remainder is the traced pass;
            # a negative self time or remainder means a span outside its parent or job
            m["trace.balance_error_s"] = max(
                abs(float(self_s.sum()) + remainder - result["total"]),
                -min_own, -min(job_remainders), 0.0)
            per_pass.append(m)
    return {k: statistics.median(m[k] for m in per_pass) for k in per_pass[0]}


if __name__ == "__main__":
    sys.exit(main())
