"""cvshare benchmark: three study workloads, output checks, and a per-layer traced run.

Run from the root of a checkout:

    python3 perfbench/run.py --workload mc_large --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --smoke

Each workload runs in one fresh child interpreter (``child.py``) as a
closed loop with one client. With ``--trace 0`` the run first times
``import cvshare.cli`` in fresh interpreters (``setup_s``), then prints
the end-to-end metrics; with ``--trace 1`` it prints the per-layer
metrics. The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it are the run header and a readable report.

``correct`` says that no job raised or exited nonzero, that every pass
wrote byte-identical outputs to the first pass's (traced passes
included), and, when traced, that the layers' self times and the
unattributed remainder add up to the traced pass time. ``failed`` counts
job runs that failed any output check; see ``README.md`` for the ones
that fail today on purpose.

``--smoke`` runs every workload untraced and traced at tiny sizes and
checks that every metric is printed: all six end-to-end metrics, and
every metric that ``BENCHMARK.json`` names in the JSON line as well.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
WORKLOADS = ("mc_large", "round_dump", "theory_grid")
#: BLAS threads of every child; one client computes on small matrices, so one thread
BLAS_THREADS = "1"
#: fresh interpreters timed for setup_s, half before and half after the workload, so
#: the median spans the run (after one untimed import that writes bytecode)
SETUP_REPEATS = 8
CHILD_TIMEOUT_S = 150.0
#: end-to-end metrics the report prints besides failed_frac; BENCHMARK.json gates the
#: steady ones (see README.md)
PRINTED_END_TO_END = {"setup_s": "s", "pass_s": "s", "job_s_p50": "s", "job_s_tail": "s",
                      "peak_rss_mb": "MB"}


def _child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def time_imports(repeats: int) -> list[float]:
    """Seconds from starting a fresh interpreter to ``import cvshare.cli`` returning."""
    code = "import time, cvshare.cli; print(repr(time.monotonic()))"
    samples = []
    for _ in range(repeats):
        t0 = time.monotonic()
        proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=_child_env(),
                              capture_output=True, text=True, timeout=60, check=False)
        if proc.returncode != 0:
            raise RuntimeError(f"import cvshare.cli failed:\n{proc.stderr}")
        samples.append(float(proc.stdout.strip().splitlines()[-1]) - t0)
    return samples


def run_child(workload: str, seed: int, seconds: float, trace: int, smoke: bool) -> dict:
    out = OUT / workload
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    cmd = [sys.executable, str(Path(__file__).with_name("child.py")), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--out", str(out)] + (["--smoke"] if smoke else [])
    with open(out / "child.log", "w") as log:
        proc = subprocess.Popen(cmd, cwd=ROOT, env=_child_env(), stdout=log,
                                stderr=subprocess.STDOUT)
        try:
            rc = proc.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise RuntimeError(f"{workload} child exceeded {CHILD_TIMEOUT_S:.0f} s")
    if rc != 0:
        log_text = (out / "child.log").read_text()
        raise RuntimeError(f"{workload} child exited {rc}:\n{log_text[-3000:]}")
    result = json.loads((out / "result.json").read_text())
    # keep the report and spans, drop the bulky per-job output files
    shutil.rmtree(out / "measured", ignore_errors=True)
    shutil.rmtree(out / "warmup", ignore_errors=True)
    return result


def report(result: dict, spec: dict, trace: int, setup_s: float | None) -> list[str]:
    """Readable lines, then the contract's JSON line as the last one."""
    lines = ["# header " + json.dumps(result["header"], sort_keys=True)]
    attempted, failed = result["attempted"], result["failed"]
    values = {}
    notes = {}
    if trace:
        values.update(result["layers"])
        lines.append("# wait time: none; the program is single-threaded and has no queues")
        balance = result["layers"]["trace.balance_error_s"]
        lines.append(f"# self-time balance error: {balance:.3g} s")
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    else:
        values.update(setup_s=setup_s, pass_s=result["pass_s"], job_s_p50=result["job_s_p50"],
                      job_s_tail=result["job_s_tail"], peak_rss_mb=result["peak_rss_mb"])
        n_passes = sum(1 for p in result["passes"] if not p["traced"])
        notes["setup_s"] = f"median of {len(result['setup_samples'])} fresh imports of cvshare.cli"
        notes["pass_s"] = f"median of {n_passes} passes"
        notes["job_s_p50"] = f"{result['job_samples']} samples"
        notes["job_s_tail"] = (f"p{result['job_s_tail_percentile']:.1f}, "
                               f"{result['job_samples']} samples")
        notes["peak_rss_mb"] = "ru_maxrss of the workload's child"
        units = PRINTED_END_TO_END
    for name, unit in units.items():
        note = f"  ({notes[name]})" if name in notes else ""
        lines.append(f"{name:28s} {values[name]:.6g} {unit}{note}")
    lines.append(f"{'failed_frac':28s} {failed / attempted:.6g} ratio  "
                 f"({failed} failed / {attempted} attempted job runs)")
    failures = {}
    for p in result["passes"]:
        for job, problems in p["problems"].items():
            failures.setdefault(job, []).append(problems)
    for job, runs in failures.items():
        lines.append(f"# FAILED {job} in {len(runs)} of {len(result['passes'])} passes: "
                     + "; ".join(runs[0]))
    correct = result["crashed"] == 0 and result["reproducible"]
    if trace:
        correct = correct and result["layers"]["trace.balance_error_s"] < 1e-6
    gated = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in gated}
    lines.append(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                             "metrics": metrics}))
    return lines


def run(workload: str, seed: int, seconds: float, trace: int, smoke: bool) -> list[str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if trace:
        return report(run_child(workload, seed, seconds, trace, smoke), spec, trace, None)
    half = 1 if smoke else SETUP_REPEATS // 2
    time_imports(1)
    samples = time_imports(half)
    result = run_child(workload, seed, seconds, trace, smoke)
    samples += time_imports(half)
    result["setup_samples"] = samples
    return report(result, spec, trace, statistics.median(samples))


def smoke() -> int:
    """Every workload, untraced and traced, at tiny sizes; every metric name must be printed."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    missing = []
    for workload in WORKLOADS:
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            lines = run(workload, 1, 0.5, trace, smoke=True)
            print("\n".join(lines[:-1]))
            printed = json.loads(lines[-1])["metrics"]
            readable = [m["name"] for m in spec[group]] + ["failed_frac"]
            if not trace:
                readable += list(PRINTED_END_TO_END)
            for name in readable:
                if not any(line.startswith(name + " ") for line in lines[:-1]):
                    missing.append(f"{workload} trace={trace}: {name} not printed")
            for m in spec[group]:
                if m["name"] not in printed:
                    missing.append(f"{workload} trace={trace}: {m['name']} not in the result")
    if missing:
        print("missing metrics: " + ", ".join(missing), file=sys.stderr)
        return 1
    print(json.dumps({"smoke": "ok", "workloads": list(WORKLOADS)}))
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny sizes, all workloads")
    args = ap.parse_args()
    if not (ROOT / "src" / "cvshare" / "__init__.py").is_file():
        print(f"cvshare sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()
    if args.workload is None:
        ap.error("--workload is required unless --smoke is given")
    try:
        lines = run(args.workload, args.seed, args.seconds, args.trace, smoke=False)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
