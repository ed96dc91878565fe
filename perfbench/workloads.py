"""Job lists of the three benchmark workloads and the output check of every job.

A job is one ``cvshare.cli.main(argv)`` call or one public library call.
Every input that varies (config seeds, ``--seed``, ``--band-seed``,
stream seeds, state displacements) is derived from the workload seed,
so the same seed gives the same jobs.

Each job has three parts:

* ``call``: the timed work. Program functions are looked up on their
  modules at call time, so the tracer's wrappers see the calls.
* ``observe``: untimed; turns the call's return value and output files
  into a small summary whose digest must repeat on every pass.
* ``check``: untimed; compares the summary and the output files with a
  reference that does not come from the code path under test, and
  returns a list of problems (empty when the job's outputs are right).
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import random
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import cvshare.bounds
import cvshare.cli
import cvshare.protocol
from cvshare.estimators import parse_coalition
from cvshare.gaussian_core import ExperimentModel
from cvshare.sampler import RandomStream

#: seconds of one measured pass of any workload, near the upper end of what a 2-core
#: x86-64 container (Python 3.11, numpy 2.4) measured; a run makes
#: round(--seconds / NOMINAL_PASS_S) passes
NOMINAL_PASS_S = 7.5
COALITIONS = ("a_alone", "ab", "ac", "abc")
#: every Monte Carlo quantity must lie within this many standard errors of its prediction
N_SE = 5.0
#: relative tolerance of the closed-form bounds.csv rows
CLOSED_FORM_RTOL = 1e-9
#: squeezing of every Monte Carlo job; the arms are ideal
R = 1.0


@dataclass
class Job:
    name: str
    call: Callable[[], Any]
    observe: Callable[[Any], dict]
    check: Callable[[dict], list[str]]
    out_dir: Path | None = None
    meta: dict = field(default_factory=dict)

    def prepare(self) -> None:
        """Remove the previous pass's outputs so every file is written afresh."""
        if self.out_dir is not None:
            shutil.rmtree(self.out_dir, ignore_errors=True)


def digest(summary: dict) -> str:
    return hashlib.sha256(json.dumps(summary, sort_keys=True).encode()).hexdigest()


# ---------------------------------------------------------------- references


def _within(name: str, value: float, predicted: float, se: float) -> list[str]:
    if not math.isfinite(value) or abs(value - predicted) > N_SE * se:
        return [f"{name} = {value!r}, predicted {predicted!r} +- {N_SE:g} x {se:.3g}"]
    return []


def _check_quadratures(label: str, mse_x: float, mse_p: float, n_x: int, n_p: int,
                       coalition: str, r: float) -> list[str]:
    """Per-quadrature MSE within N_SE standard errors of bounds.predicted_mse.

    A quadrature's MSE is a mean of squared normal errors, so its
    standard error is predicted * sqrt(2 / n).
    """
    px, pp, _ = cvshare.bounds.predicted_mse(ExperimentModel(r=r), parse_coalition(coalition))
    return (_within(f"{label} mse_x", mse_x, px, px * math.sqrt(2.0 / n_x))
            + _within(f"{label} mse_p", mse_p, pp, pp * math.sqrt(2.0 / n_p)))


def _check_witness(wit: dict, r: float) -> list[str]:
    """Witness mse_sum within N_SE standard errors of 4 e^{-2r}, unless not applicable."""
    if wit["status"] == "not-applicable":
        return []
    if wit["mse_sum"] is None:
        return [f"witness status {wit['status']!r} without a value"]
    half = cvshare.bounds.witness_bound(r) / 2.0
    se = math.hypot(half * math.sqrt(2.0 / wit["n_x"]), half * math.sqrt(2.0 / wit["n_p"]))
    return _within("witness mse_sum", wit["mse_sum"], 2.0 * half, se)


def _ideal_closed_form(coalition: str, r: float) -> float:
    """4 + 2 n1 + 2 n2 (thermal A marginal), 4, or 8 / (e^{2r} + e^{-2r})."""
    if coalition == "a_alone":
        n = (math.cosh(2.0 * r) - 1.0) / 2.0
        return cvshare.bounds.hcrb_thermal(cvshare.bounds.ThermalParams(n, n))
    if coalition in ("ab", "ac"):
        return 4.0
    return 8.0 / (math.exp(2.0 * r) + math.exp(-2.0 * r))


def _prob(v: float) -> bool:
    return 0.0 <= v <= 1.0


# ---------------------------------------------------------------- CLI jobs


def _read_json(path: Path):
    with open(path) as fh:
        return json.load(fh)


def _read_csv(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _cli_job(name: str, argv: list[str], out_dir: Path,
             check_files: Callable[[Path], list[str]], **meta) -> Job:
    argv = [*argv, "--out-dir", str(out_dir)]

    def call():
        return cvshare.cli.main(argv)

    def observe(rc):
        files = {}
        if out_dir.is_dir():
            for path in sorted(out_dir.iterdir()):
                files[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
        return {"rc": rc, "files": files}

    def check(summary):
        if summary["rc"] != 0:
            return [f"exit code {summary['rc']}"]
        try:
            return check_files(out_dir)
        except (OSError, KeyError, ValueError, TypeError) as exc:
            return [f"unreadable output: {type(exc).__name__}: {exc}"]

    return Job(name, call, observe, check, out_dir, {"argv": argv, **meta})


def _simulate_job(name, jobs_dir, inputs_dir, coalition, plan, gain_mode, n_rounds, seed,
                  dump) -> Job:
    cfg = inputs_dir / f"{name}.cfg"
    plan_lines = ["alpha_x = 1.0", "alpha_p = 1.0"] if plan == "fixed" else ["v_dist = 2.0"]
    cfg.write_text("\n".join([
        f"r = {R!r}", f"plan = {plan}", *plan_lines, f"coalition = {coalition}",
        f"n_rounds = {n_rounds}", f"seed = {seed}", f"gain_mode = {gain_mode}",
    ]) + "\n")
    argv = ["simulate", "--config", str(cfg)] + (["--dump-rounds"] if dump else [])

    def check_files(out: Path) -> list[str]:
        rep = _read_json(out / "mse_report.json")
        problems = _check_quadratures("simulate", rep["mse_x"], rep["mse_p"], rep["n_x"],
                                      rep["n_p"], coalition, R)
        problems += _check_witness(_read_json(out / "witness.json"), R)
        if dump:
            with open(out / "rounds.csv", newline="") as fh:
                n_rows = sum(1 for _ in fh) - 1
            if n_rows != n_rounds:
                problems.append(f"rounds.csv has {n_rows} data rows, expected {n_rounds}")
        return problems

    return _cli_job(name, argv, jobs_dir / name, check_files, n_rounds=n_rounds)


def _witness_job(name, jobs_dir, n_rounds, seed, surrogate) -> Job:
    argv = ["witness", "--n-rounds", str(n_rounds), "--seed", str(seed)]
    if surrogate:
        argv.append("--surrogate")

    def check_files(out: Path) -> list[str]:
        wit = _read_json(out / "witness.json")
        if surrogate:
            return [] if wit["entangled"] is False else [
                f"surrogate reports entangled = {wit['entangled']!r}"]
        return _check_witness(wit, R)

    return _cli_job(name, argv, jobs_dir / name, check_files, n_rounds=n_rounds)


def _bounds_job(name, jobs_dir, steps, extra, band_samples=None, band=None, band_seed=None):
    argv = ["bounds", "--steps", str(steps), *extra]
    if band is not None:
        argv += ["--band", band, "--band-samples", str(band_samples), "--band-seed", str(band_seed)]
    ideal = not extra

    def check_files(out: Path) -> list[str]:
        problems = []
        rows = _read_csv(out / "bounds.csv")
        if len(rows) != 4 * steps:
            problems.append(f"bounds.csv has {len(rows)} rows, expected {4 * steps}")
        for row in rows:
            value = float(row["mse_sum"])
            if ideal:
                ref = _ideal_closed_form(row["coalition"], float(row["r"]))
                if not abs(value - ref) <= CLOSED_FORM_RTOL * abs(ref):
                    problems.append(f"{row['coalition']} at r={row['r']}: {value!r} != {ref!r}")
            elif not (math.isfinite(value) and value > 0.0):
                problems.append(f"{row['coalition']} at r={row['r']}: mse_sum {value!r}")
        if band is not None:
            band_rows = _read_csv(out / "bounds_band.csv")
            if len(band_rows) != 4 * steps:
                problems.append(f"bounds_band.csv has {len(band_rows)} rows")
            for row in band_rows:
                lo, hi = float(row["mse_sum_lo"]), float(row["mse_sum_hi"])
                if not (math.isfinite(lo) and math.isfinite(hi) and 0.0 < lo <= hi):
                    problems.append(f"band {row['coalition']} at r={row['r']}: [{lo!r}, {hi!r}]")
        return problems[:5]

    return _cli_job(name, argv, jobs_dir / name, check_files, steps=steps,
                    band_samples=band_samples)


def _certify_job(name, jobs_dir, argv, n_points):
    def check_files(out: Path) -> list[str]:
        reports = _read_json(out / "certificates.json")
        bad = [r for r in reports
               if not (r["feasible_primal"] and r["feasible_dual"] and r["values_match"])]
        problems = [f"certificate at n1={r['n1']}, n2={r['n2']} not ok" for r in bad[:5]]
        if len(reports) != n_points:
            problems.append(f"{len(reports)} certificates, expected {n_points}")
        return problems

    return _cli_job(name, ["certify", *argv], jobs_dir / name, check_files, points=n_points)


_MU = ["--mu-single", "8", "--mu-pair", "5.83", "--mu-triple", "4"]


def _security_job(name, jobs_dir, n_probes):
    def check_files(out: Path) -> list[str]:
        problems = []
        for rep in _read_json(out / "security.json"):
            if not (math.isfinite(rep["v_t"]) and _prob(rep["delta"]) and _prob(rep["p_success"])):
                problems.append(f"security report out of range: {rep}")
        rows = _read_csv(out / "security_sweep.csv")
        if len(rows) != 2 * n_probes:
            problems.append(f"security_sweep.csv has {len(rows)} rows, expected {2 * n_probes}")
        for row in rows:
            if not (math.isfinite(float(row["v_t"])) and _prob(float(row["delta"]))
                    and _prob(float(row["p_success"]))):
                problems.append(f"sweep row out of range: {row}")
        return problems[:5]

    argv = ["security", *_MU, "--n-probes", str(n_probes)]
    return _cli_job(name, argv, jobs_dir / name, check_files, n_probes=n_probes)


def _mi_job(name, jobs_dir, n_max):
    def check_files(out: Path) -> list[str]:
        problems = []
        curve = _read_csv(out / "mi_curve.csv")
        exceed = _read_csv(out / "exceedance.csv")
        for rows, label in ((curve, "mi_curve.csv"), (exceed, "exceedance.csv")):
            if len(rows) != 3 * n_max:
                problems.append(f"{label} has {len(rows)} rows, expected {3 * n_max}")
        for row in curve:
            if not all(math.isfinite(float(row[k])) for k in ("mse_per_quadrature", "mi_bits")):
                problems.append(f"mi row not finite: {row}")
        for row in exceed:
            if not _prob(float(row["p_exceed"])):
                problems.append(f"exceedance row out of range: {row}")
        return problems[:5]

    argv = ["mi", "--v-dist", "2", *_MU, "--n-max", str(n_max)]
    return _cli_job(name, argv, jobs_dir / name, check_files, n_max=n_max)


def _state_jobs(jobs_dir, alpha_x, alpha_p) -> list[Job]:
    build_dir = jobs_dir / "state"

    def check_build(out: Path) -> list[str]:
        lines = (out / "state.txt").read_text().splitlines()
        if len(lines) != 8 or lines[0] != "3":
            return [f"state.txt has {len(lines)} lines, header {lines[:1]}"]
        mean = [float(v) for v in lines[1].split()]
        # ideal arms apply no loss, so the mean is exactly the displacement on A
        if mean != [0.0, 0.0, 0.0, 0.0, alpha_x, alpha_p]:
            return [f"state mean {mean}, expected displacement ({alpha_x!r}, {alpha_p!r}) on A"]
        return []

    def check_load(out: Path) -> list[str]:
        return [] if (out / "manifest.json").is_file() else ["state --load wrote no manifest"]

    build = _cli_job("state", ["state", "--r", repr(R), "--alpha-x", repr(alpha_x),
                               "--alpha-p", repr(alpha_p)], build_dir, check_build)
    load = _cli_job("state-load", ["state", "--load", str(build_dir / "state.txt")],
                    jobs_dir / "state-load", check_load)
    return [build, load]


# ---------------------------------------------------------------- library jobs


def _batch_job(name, coalition, n_probes, n_batches, seed) -> Job:
    model = ExperimentModel(r=R)

    def call():
        return cvshare.protocol.batch_mse_distribution(
            model, parse_coalition(coalition), n_probes, n_batches, RandomStream(seed))

    def observe(values):
        return {"mean": float(values.mean()), "n": int(values.size),
                "sha256": hashlib.sha256(values.tobytes()).hexdigest()}

    def check(summary):
        px, pp, ps = cvshare.bounds.predicted_mse(model, parse_coalition(coalition))
        se = math.sqrt(2.0 * (px * px + pp * pp) / (n_probes * n_batches))
        problems = _within("batch mean mse_sum", summary["mean"], ps, se)
        if summary["n"] != n_batches:
            problems.append(f"{summary['n']} batch values, expected {n_batches}")
        return problems

    return Job(name, call, observe, check,
               meta={"n_probes": n_probes, "n_batches": n_batches, "coalition": coalition})


def _records_job(n_rounds, seed) -> Job:
    """run_protocol with records for abc, then sift on both bases and the witness check."""
    model = ExperimentModel(r=R)

    def call():
        proto = cvshare.protocol
        result = proto.run_protocol(
            model, proto.DisplacementPlan.fixed(1.0, 1.0), n_rounds, parse_coalition("abc"),
            proto.ProtocolPolicy(), RandomStream(seed), keep_records=True)
        sifted_x = proto.sift(result.records, "x")
        sifted_p = proto.sift(result.records, "p")
        witness = proto.entanglement_check(sifted_x + sifted_p)
        return result, sifted_x, sifted_p, witness

    def observe(raw):
        result, sifted_x, sifted_p, witness = raw
        return {
            "mse_report": result.mse_report.to_json_dict(),
            "witness": witness.to_json_dict(),
            "n_records": len(result.records),
            "n_kept": sum(1 for rec in result.records if rec.kept),
            "n_sift_x": len(sifted_x),
            "n_sift_p": len(sifted_p),
            "sift_ok": all(rec.kept and rec.dealer_basis == "x" for rec in sifted_x)
            and all(rec.kept and rec.dealer_basis == "p" for rec in sifted_p),
        }

    def check(s):
        rep = s["mse_report"]
        problems = _check_quadratures("run_protocol", rep["mse_x"], rep["mse_p"], rep["n_x"],
                                      rep["n_p"], "abc", R)
        problems += _check_witness(s["witness"], R)
        if s["witness"]["entangled"] is not True:
            problems.append(f"entanglement_check reports entangled = {s['witness']['entangled']!r}")
        if s["n_records"] != n_rounds:
            problems.append(f"{s['n_records']} records, expected {n_rounds}")
        if not s["sift_ok"] or s["n_sift_x"] + s["n_sift_p"] != s["n_kept"]:
            problems.append("sift does not split the kept rounds by dealer basis")
        return problems

    return Job("run_protocol-records", call, observe, check, meta={"n_rounds": n_rounds})


# ---------------------------------------------------------------- workloads


def build_jobs(workload: str, seed: int, base: Path, smoke: bool = False) -> list[Job]:
    """The workload's job list; ``smoke`` shrinks every size so a pass takes well under a second."""
    rng = random.Random(f"{workload}:{seed}")

    def next_seed() -> int:
        return rng.getrandbits(32)

    jobs_dir, inputs_dir = base / "jobs", base / "inputs"
    shutil.rmtree(base, ignore_errors=True)
    inputs_dir.mkdir(parents=True)
    jobs_dir.mkdir()

    if workload == "mc_large":
        n_rounds = 20_000 if smoke else 1_000_000
        n_probes, n_batches = (50, 100) if smoke else (500, 2000)
        jobs = []
        for coalition in COALITIONS:
            for plan in ("fixed", "gaussian"):
                for mode in ("analytic",) if coalition == "a_alone" else ("analytic", "fitted"):
                    name = f"simulate-{coalition}-{plan}-{mode}"
                    jobs.append(_simulate_job(name, jobs_dir, inputs_dir, coalition, plan, mode,
                                              n_rounds, next_seed(), dump=False))
        jobs.append(_witness_job("witness", jobs_dir, n_rounds, next_seed(), surrogate=False))
        jobs.append(_witness_job("witness-surrogate", jobs_dir, n_rounds, next_seed(),
                                 surrogate=True))
        for coalition in COALITIONS:
            jobs.append(_batch_job(f"batch-{coalition}", coalition, n_probes, n_batches,
                                   next_seed()))
        return jobs

    if workload == "round_dump":
        n_rounds = 2_000 if smoke else 100_000
        jobs = [_simulate_job(f"simulate-dump-{c}", jobs_dir, inputs_dir, c, "fixed", "analytic",
                              n_rounds, next_seed(), dump=True) for c in COALITIONS]
        jobs.append(_records_job(n_rounds, next_seed()))
        alpha_x = round(rng.uniform(-2.0, 2.0), 6)
        alpha_p = round(rng.uniform(-2.0, 2.0), 6)
        return jobs + _state_jobs(jobs_dir, alpha_x, alpha_p)

    if workload == "theory_grid":
        steps, fine, samples, uniform_samples = (2, 4, 5, 5) if smoke else (16, 64, 200, 50)
        grid, n_probes = (2, 5) if smoke else (20, 200)
        return [
            _bounds_job("bounds-gaussian-band", jobs_dir, steps, [], samples, "gaussian",
                        next_seed()),
            _bounds_job("bounds-uniform-band-lossy", jobs_dir, steps,
                        ["--eta-a", "0.9", "--eta-b", "0.8", "--eps-c", "0.02"],
                        uniform_samples, "uniform", next_seed()),
            _bounds_job("bounds-fine", jobs_dir, fine, []),
            _certify_job("certify-grid", jobs_dir, ["--grid", str(grid)], grid * grid),
            _certify_job("certify-point", jobs_dir, ["--n1", "0.5", "--n2", "0.5"], 1),
            _security_job("security", jobs_dir, n_probes),
            _mi_job("mi", jobs_dir, n_probes),
        ]

    raise ValueError(f"unknown workload {workload!r}")
