"""Command-line interface: file outputs, manifests, exit codes."""

import hashlib
import importlib.util
import json
import math
import os
import tracemalloc
from pathlib import Path

import pytest

from conftest import MU_PAIR_ANCHOR, MU_SINGLE_ANCHOR, MU_TRIPLE_ANCHOR
from cvshare import __version__, cli
from cvshare.cli import main, parse_config_text
from cvshare.errors import InvalidArgumentError
from cvshare.sampler import RandomStream
from cvshare.security import MseDistribution, crossing_threshold, mse_cdf


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def read_lines(path):
    with open(path, newline="") as fh:
        return fh.read().splitlines()


def test_no_subcommand_is_usage_error(capsys):
    code, _, err = run_cli([], capsys)
    assert code == 2
    assert "usage" in err.lower()


def test_state_build_and_roundtrip(tmp_path, capsys):
    out = str(tmp_path)
    code, stdout, _ = run_cli(
        ["state", "--out-dir", out, "--r", "1.0", "--alpha-x", "0.5"], capsys
    )
    assert code == 0
    assert "physicality" in stdout or "eigenvalue" in stdout.lower()
    state_file = os.path.join(out, "state.txt")
    assert os.path.exists(state_file)
    code, stdout, _ = run_cli(["state", "--out-dir", out, "--load", state_file], capsys)
    assert code == 0
    manifest = read_json(os.path.join(out, "manifest.json"))
    assert manifest["tool"] == "cvshare"
    assert manifest["version"] == __version__
    assert manifest["subcommand"] == "state"
    for name in manifest["outputs"]:
        assert os.path.exists(os.path.join(out, name))


def test_state_load_missing_file(tmp_path, capsys):
    code, _, err = run_cli(
        ["state", "--out-dir", str(tmp_path), "--load", "/nonexistent/state.txt"], capsys
    )
    assert code == 2
    payload = json.loads(err.strip().splitlines()[-1])
    assert payload["error"] == "invalid-argument"


def test_bounds_curve(tmp_path, capsys):
    out = str(tmp_path)
    code, _, _ = run_cli(
        ["bounds", "--out-dir", out, "--r-min", "0.0", "--r-max", "1.0", "--steps", "3"],
        capsys,
    )
    assert code == 0
    lines = read_lines(os.path.join(out, "bounds.csv"))
    assert lines[0] == "r,coalition,mse_x,mse_p,mse_sum"
    assert len(lines) == 1 + 3 * 4  # three grid points, four coalitions
    r0 = [ln for ln in lines[1:] if ln.startswith("0.0,")]
    sums = {ln.split(",")[1]: float(ln.split(",")[4]) for ln in r0}
    # no squeezing: every coalition sits at the single-party limit
    assert sums["ab"] == pytest.approx(4.0)
    assert sums["abc"] == pytest.approx(4.0)
    assert sums["a_alone"] == pytest.approx(4.0)


def test_bounds_band(tmp_path, capsys):
    out = str(tmp_path)
    code, _, _ = run_cli(
        [
            "bounds",
            "--out-dir",
            out,
            "--steps",
            "2",
            "--band",
            "gaussian",
            "--band-samples",
            "50",
        ],
        capsys,
    )
    assert code == 0
    lines = read_lines(os.path.join(out, "bounds_band.csv"))
    assert lines[0] == "r,coalition,mse_sum_lo,mse_sum_hi"
    for ln in lines[1:]:
        parts = ln.split(",")
        assert float(parts[2]) <= float(parts[3])


def test_certify_single_point(tmp_path, capsys):
    out = str(tmp_path)
    code, stdout, _ = run_cli(
        ["certify", "--out-dir", out, "--n1", "0.5", "--n2", "0.5"], capsys
    )
    assert code == 0
    assert "1/1 certificates ok" in stdout
    reports = read_json(os.path.join(out, "certificates.json"))
    assert len(reports) == 1
    assert reports[0]["primal_value"] == pytest.approx(6.0)
    assert reports[0]["values_match"] is True


def test_certify_degenerate_point(tmp_path, capsys):
    code, stdout, _ = run_cli(
        ["certify", "--out-dir", str(tmp_path), "--n1", "0", "--n2", "0"], capsys
    )
    assert code == 0
    reports = read_json(os.path.join(str(tmp_path), "certificates.json"))
    assert reports[0]["status"] == "degenerate-dual"
    assert reports[0]["primal_value"] == 4.0


def test_certify_grid(tmp_path, capsys):
    code, stdout, _ = run_cli(["certify", "--out-dir", str(tmp_path), "--grid", "3"], capsys)
    assert code == 0
    assert "9/9 certificates ok" in stdout
    reports = read_json(os.path.join(str(tmp_path), "certificates.json"))
    assert len(reports) == 9
    assert all(r["values_match"] for r in reports)


def test_certify_requires_point_or_grid(tmp_path, capsys):
    code, _, err = run_cli(["certify", "--out-dir", str(tmp_path), "--n1", "0.5"], capsys)
    assert code == 2
    assert json.loads(err.strip().splitlines()[-1])["error"] == "invalid-argument"


def test_config_parser():
    cfg = parse_config_text(
        "# comment\nr = 0.7  # inline\ncoalition = ab\nn_rounds = 500\n\n"
    )
    assert cfg["r"] == 0.7
    assert cfg["coalition"] == "ab"
    assert cfg["n_rounds"] == 500
    assert cfg["eta_a"] == 1.0  # default survives
    with pytest.raises(InvalidArgumentError, match="line 1"):
        parse_config_text("nonsense")
    with pytest.raises(InvalidArgumentError, match="unknown key"):
        parse_config_text("squeeze = 1.0")
    with pytest.raises(InvalidArgumentError, match="duplicate"):
        parse_config_text("r = 1.0\nr = 2.0")
    with pytest.raises(InvalidArgumentError, match="bad int"):
        parse_config_text("n_rounds = many")


def test_simulate_and_rerun_byte_identical(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("r = 1.0\ncoalition = abc\nn_rounds = 10000\nseed = 5\n")
    out = str(tmp_path / "out")
    argv = ["simulate", "--out-dir", out, "--config", str(cfg), "--dump-rounds"]
    code, _, _ = run_cli(argv, capsys)
    assert code == 0
    names = ["mse_report.json", "witness.json", "bias.json", "rounds.csv", "manifest.json"]
    first = {}
    for name in names:
        with open(os.path.join(out, name), "rb") as fh:
            first[name] = fh.read()
    code, _, _ = run_cli(argv, capsys)
    assert code == 0
    for name in names:
        with open(os.path.join(out, name), "rb") as fh:
            assert fh.read() == first[name], name
    report = json.loads(first["mse_report.json"])
    assert report["coalition"] == "abc"
    assert report["mse_sum"] == pytest.approx(1.063, rel=0.25)
    witness = json.loads(first["witness.json"])
    assert witness["entangled"] is True
    rounds = first["rounds.csv"].decode().splitlines()
    assert rounds[0].startswith("round_index,alpha_x,alpha_p,dealer_basis")
    assert len(rounds) == 1 + 10000


# rounds.csv sha256 per (coalition, plan), from stream layout 3 (the dealer-basis
# triple of each kept round, then the normals still missing)
ROUNDS_CSV_SHA256 = {
    ("a_alone", "fixed"): "f909d9a564191e811160b69ef0d0b4b98d8b83a886825706c9facf3cc98d0435",
    ("ab", "fixed"): "d9960f2e3650693fefd3a1544b2408c42da440830da9dd676f0d6cac4baa00be",
    ("ac", "fixed"): "f9d66082d1b3c2823f7ae638a87fa20f21a5b2b3696bdb53635e584cf10337f4",
    ("abc", "fixed"): "8e14485446c963dcfd70b40ffca8d708612b2b8ad70cc65877e9f767fba97e0f",
    ("a_alone", "gaussian"): "8d655fa8f9e5cebd28c0b54a6b30ff8da6a269b882e376db42c9ade135599a01",
    ("ab", "gaussian"): "c1a0bd1daa49573120236473a45e37e8edbf092072b72628acfdbc2a6e046c6f",
    ("ac", "gaussian"): "2ea5ccdbc427fd17c3363a0f20b76c30d4f8bebdabb1918e530b7189174136b2",
    ("abc", "gaussian"): "cd30c88a1bc956d872dd4f2fb68f2814f4e3ed21110f5bfb839c6d186b9f8d26",
}


@pytest.mark.parametrize("coalition, plan", sorted(ROUNDS_CSV_SHA256))
def test_rounds_csv_bytes_pinned(tmp_path, capsys, coalition, plan):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        f"r = 1.0\nplan = {plan}\nalpha_x = 0.5\nalpha_p = -0.25\nv_dist = 1.5\n"
        f"coalition = {coalition}\nn_rounds = 200\nseed = 11\n"
    )
    out = tmp_path / "out"
    code, _, _ = run_cli(
        ["simulate", "--out-dir", str(out), "--config", str(cfg), "--dump-rounds"], capsys
    )
    assert code == 0
    digest = hashlib.sha256((out / "rounds.csv").read_bytes()).hexdigest()
    assert digest == ROUNDS_CSV_SHA256[(coalition, plan)]


LOSSY_ARMS = ["--eta-a", "0.8", "--eta-b", "0.9", "--eta-c", "0.95", "--eps-a", "0.02",
              "--eps-b", "0.05", "--eps-c", "0.1"]

# sha256 of outputs that depend on the dealer covariance, from the writer
# that chained one validated state per channel step
DEALER_OUTPUT_SHA256 = {
    "state-ideal": (
        ["state", "--r", "1.0", "--alpha-x", "0.3", "--alpha-p", "-0.7"],
        {"state.txt": "a76eff628de314cded95bcd20b7bdc43a2f89b50b199d32e7ca117fb36d1c6bd"},
    ),
    "state-lossy": (
        ["state", "--r", "0.8", "--eta-a", "0.9", "--eta-b", "0.7", "--eps-c", "0.05",
         "--alpha-x", "1.1"],
        {"state.txt": "d624456116f25c292cf140784a8d2509cb52aade9cbae25c6302cd031d063fbc"},
    ),
    "bounds-ideal-gaussian-band": (
        ["bounds", "--steps", "4", "--band", "gaussian", "--band-samples", "25"],
        {
            "bounds.csv": "1e379d8a5b4271ad59fd32f43277945c94df91a1d59588b1fd5593d77613798c",
            "bounds_band.csv": "d573cc9694bfd10f6acdcb19a157cfba943b47b1129f413342a9b3cb087bc111",
        },
    ),
    "bounds-lossy-uniform-band": (
        ["bounds", "--steps", "4", "--band", "uniform", "--band-samples", "25"] + LOSSY_ARMS,
        {
            "bounds.csv": "ea7c5cd815a5953b640ebb2f353096db785b6d6920166a25c988140f5877b9b6",
            "bounds_band.csv": "2350f668a976160d11324523f5b13449b143290731268f58a310a9e6a17b4d9f",
        },
    ),
    "bounds-16-gaussian-band": (
        ["bounds", "--steps", "16", "--band", "gaussian"],
        {
            "bounds.csv": "4e7bae8c5c6ff72fb73c2b9c1c3db56c00ee5d1bf36c3cc9b24ef6ecde3decff",
            "bounds_band.csv": "983d44a230388b7adb5912414389f4fee4798f0817ebeff3de202a9104d99d4e",
        },
    ),
    "bounds-16-lossy-uniform-band": (
        ["bounds", "--steps", "16", "--band", "uniform", "--band-samples", "50",
         "--eta-a", "0.9", "--eta-b", "0.8", "--eps-c", "0.02"],
        {
            "bounds.csv": "0b9220eda3cf67011205fec771ad9471c55bc239bf89650eb7dc17f1b1338dc3",
            "bounds_band.csv": "f964b77859f260648ed4347c3c426fd6d430b7569ef06dd8a596351f151a08b0",
        },
    ),
}


MU_ARGS = ["--mu-single", "8", "--mu-pair", "5.83", "--mu-triple", "4"]

# sha256 of the outputs that need no dealer state, from the writers that built
# each table as one string before writing it
SWEEP_OUTPUT_SHA256 = {
    "security": (
        ["security", *MU_ARGS, "--n-probes", "40"],
        {
            "security.json": "bef7c2d7bd766e848d9a3b9983794ebf22dbc19248f95c1d247befde1b6d6b3d",
            "security_sweep.csv": "57f9bca2a973f4c06191ae3ee2b63a94bc3347ded4a27d1c3dc27cb34b5bde2b",
        },
    ),
    "security-v-t": (
        ["security", *MU_ARGS, "--n-probes", "9", "--v-t", "6.1"],
        {
            "security.json": "2226fd633932e80d71b2951fc91b003646f0ff3a06fd4df38debc8a77e67b31c",
            "security_sweep.csv": "ef662bccab1f358e8e9ac2fb471358378e12b79fbfd33eaf2cc93817c2c1dce5",
        },
    ),
    "mi": (
        ["mi", "--v-dist", "5", *MU_ARGS, "--n-max", "40", "--c-bits", "1.5"],
        {
            "mi_curve.csv": "b08ff7f715f31967320c69b3b66044984607e80dcb33337da510e823f99d3dc5",
            "exceedance.csv": "b2eb023ce7fbec20d9133696ad6086789f1518192d89505fe245a21db81b2624",
        },
    ),
    "certify-grid-20": (
        ["certify", "--grid", "20"],
        {"certificates.json": "bd89481792d215450869a938e1c27069d2f3aa5f2068fd144daa820116c2bcdb"},
    ),
    "certify-point": (
        ["certify", "--n1", "0.5", "--n2", "0.5"],
        {"certificates.json": "eba76fdde1ceba53a8d25e2ad0a6a3354d48b78f2f88006ad5582aa3ae5c9aec"},
    ),
}
PINNED_OUTPUT_SHA256 = {**DEALER_OUTPUT_SHA256, **SWEEP_OUTPUT_SHA256}


@pytest.mark.parametrize("case", sorted(PINNED_OUTPUT_SHA256))
def test_dealer_outputs_bytes_pinned(tmp_path, capsys, case):
    argv, digests = PINNED_OUTPUT_SHA256[case]
    code, _, _ = run_cli(argv + ["--out-dir", str(tmp_path)], capsys)
    assert code == 0
    for name, want in digests.items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == want, name


@pytest.mark.parametrize("case", ["bounds-16-gaussian-band", "bounds-16-lossy-uniform-band"])
def test_band_chunks_do_not_change_the_band(tmp_path, capsys, monkeypatch, case):
    # 200 and 50 band samples in chunks of 3: every grid point crosses
    # chunk edges and ends on a partial chunk, and the band must still be
    # the one drawn and reduced in a single chunk; the 16-point grid is
    # evaluated in chunks of 3 points too
    monkeypatch.setattr(cli, "_BAND_CHUNK", 3)
    argv, digests = DEALER_OUTPUT_SHA256[case]
    code, _, _ = run_cli(argv + ["--out-dir", str(tmp_path)], capsys)
    assert code == 0
    for name, want in digests.items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == want, name


@pytest.mark.parametrize("case", ["bounds-16-gaussian-band", "bounds-16-lossy-uniform-band",
                                  "security", "security-v-t", "mi"])
def test_csv_chunks_do_not_change_the_tables(tmp_path, capsys, monkeypatch, case):
    # 18 to 120 rows formatted 3 at a time, most tables ending on a partial chunk
    monkeypatch.setattr(cli, "_CSV_CHUNK", 3)
    test_dealer_outputs_bytes_pinned(tmp_path, capsys, case)


@pytest.mark.parametrize("coalition, plan", [("a_alone", "fixed"), ("abc", "gaussian")])
def test_csv_chunks_do_not_change_rounds_csv(tmp_path, capsys, monkeypatch, coalition, plan):
    # 200 rounds in chunks of 3, the last one partial
    monkeypatch.setattr(cli, "_CSV_CHUNK", 3)
    test_rounds_csv_bytes_pinned(tmp_path, capsys, coalition, plan)


@pytest.mark.parametrize(
    "argv, flag",
    [(["bounds"], "--steps"), (["mi", "--v-dist", "5", *MU_ARGS], "--n-max"),
     (["security", *MU_ARGS], "--n-probes")],
    ids=["bounds", "mi", "security"],
)
def test_table_memory_does_not_grow_with_the_sweep(tmp_path, capsys, monkeypatch, argv, flag):
    monkeypatch.setattr(cli, "_CSV_CHUNK", 1024)
    monkeypatch.setattr(cli, "_BAND_CHUNK", 1024)

    def peak_bytes(n):
        tracemalloc.start()
        try:
            code, _, _ = run_cli(argv + [flag, str(n), "--out-dir", str(tmp_path)], capsys)
            assert code == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    # at least two full chunks of rows (bounds: of grid points) in either run
    small = peak_bytes(2 * 1024 + 10)
    large = peak_bytes(4 * (2 * 1024 + 10))
    # a table held whole would take about 4x the small run's peak
    assert large <= 1.1 * small


def _large_r_runs(tmp_path, r):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"r = {r}\ncoalition = abc\nn_rounds = 2000\n")
    out = str(tmp_path / "out")
    return [
        ["state", "--r", r],
        ["simulate", "--config", str(cfg)],
        ["witness", "--r", r],
        ["bounds", "--r-min", r, "--r-max", r, "--steps", "1"],
        ["state", "--load", os.path.join(out, "state.txt")],
    ], out


def test_squeezing_up_to_r_max_runs(tmp_path, capsys):
    # the ideal dealer state at r = 8 used to fail the uncertainty check
    # on round-off, because the slack did not grow with the covariance
    runs, out = _large_r_runs(tmp_path, "8.0")
    for argv in runs:
        code, _, err = run_cli(argv + ["--out-dir", out], capsys)
        assert code == 0, (argv, err)


def test_squeezing_above_r_max_is_one_line_json_error(tmp_path, capsys):
    runs, out = _large_r_runs(tmp_path, "8.5")
    messages = []
    for argv in runs:
        code, _, err = run_cli(argv + ["--out-dir", out], capsys)
        assert code == 2, argv
        assert "Traceback" not in err
        lines = err.strip().splitlines()
        assert len(lines) == 1
        payload = json.loads(lines[0])
        assert payload["error"] == "invalid-argument"
        messages.append(payload["message"])
    assert all("R_MAX = 8.0" in m for m in messages[:-1])
    # the rejected state run wrote no state file for the load to read
    assert messages[-1].startswith("state file not found")


def _one_json_error(err: str) -> dict:
    assert "Traceback" not in err
    lines = err.strip().splitlines()
    assert len(lines) == 1
    return json.loads(lines[0])


def test_band_near_r_max_clips_its_samples(tmp_path, capsys):
    # band samples above R_MAX are clipped to it; they used to fail the run
    argv = ["bounds", "--r-min", "7.9", "--r-max", "8.0", "--steps", "2", "--band", "uniform",
            "--band-fluct", "0.001", "--out-dir", str(tmp_path)]
    code, _, err = run_cli(argv, capsys)
    assert code == 0, err
    rows = read_lines(tmp_path / "bounds_band.csv")
    assert len(rows) == 1 + 2 * 4
    # a grid point above R_MAX is still an error
    argv[4] = "8.1"
    code, _, err = run_cli(argv, capsys)
    assert code == 2
    payload = _one_json_error(err)
    assert payload["error"] == "invalid-argument"
    assert "R_MAX = 8.0" in payload["message"]


def test_simulate_rejects_n_rounds_above_cap(tmp_path, capsys, monkeypatch):
    # runs that keep records have the lower cap, because their table grows with
    # n_rounds; both caps fire before any chunk stream is opened
    def no_rounds(self, *args):
        raise AssertionError("the rounds' random stream was opened")

    monkeypatch.setattr(RandomStream, "generator", no_rounds)
    monkeypatch.setattr(RandomStream, "chunk_generator", no_rounds)
    cfg = tmp_path / "run.cfg"
    for n_rounds, dump, cap in ((20_000_001, ["--dump-rounds"], "20000000"),
                                (1_000_000_001, [], "1000000000")):
        cfg.write_text(f"n_rounds = {n_rounds}\n")
        argv = ["simulate", "--config", str(cfg), "--out-dir", str(tmp_path), *dump]
        code, _, err = run_cli(argv, capsys)
        assert code == 2
        payload = _one_json_error(err)
        assert payload["error"] == "resource-limit"
        assert cap in payload["message"]


@pytest.mark.parametrize(
    "argv, key",
    [
        (["witness", "--r", "1", "--n-rounds", "20000", "--seed", "3", "--surrogate",
          "--alpha-x", "1e20", "--alpha-p", "1e20"], "alpha_x"),
        (["witness", "--alpha-p=-2e6"], "alpha_p"),
        (["simulate", "--config", "{cfg}"], "alpha_x"),
        (["simulate", "--config", "{cfg_v}"], "v_dist"),
    ],
    ids=["witness-surrogate-1e20", "witness-alpha-p", "simulate-ab-1e20", "simulate-v-dist"],
)
def test_displacement_beyond_alpha_max_is_rejected(tmp_path, capsys, argv, key):
    # at |alpha| = 1e20 the displacement's round-off swamps the shot noise: the
    # surrogate (a separable state) read entangled and the ab MSE read 0
    cfg = tmp_path / "run.cfg"
    cfg.write_text("coalition = ab\nalpha_x = 1e20\nalpha_p = 1e20\nn_rounds = 20000\n")
    cfg_v = tmp_path / "run_v.cfg"
    cfg_v.write_text("plan = gaussian\nv_dist = 1e13\nn_rounds = 20000\n")
    argv = [str(cfg) if a == "{cfg}" else str(cfg_v) if a == "{cfg_v}" else a for a in argv]
    code, _, err = run_cli(argv + ["--out-dir", str(tmp_path / "out")], capsys)
    assert code == 2
    payload = _one_json_error(err)
    assert payload["error"] == "invalid-argument"
    assert key in payload["message"]
    assert not (tmp_path / "out" / "witness.json").exists()


def test_displacement_at_alpha_max_keeps_its_verdicts(tmp_path, capsys):
    argv = ["witness", "--n-rounds", "20000", "--seed", "3", "--alpha-x", "1e6",
            "--alpha-p=-1e6", "--out-dir", str(tmp_path)]
    code, _, _ = run_cli(argv + ["--surrogate"], capsys)
    assert code == 0
    assert read_json(tmp_path / "witness.json")["entangled"] is False
    code, _, _ = run_cli(argv, capsys)
    assert code == 0
    assert read_json(tmp_path / "witness.json")["entangled"] is True


@pytest.mark.parametrize(
    "argv, flag",
    [(["--n1", "1e300", "--n2", "0"], "n1"), (["--n1", "0", "--n2", "1e13"], "n2"),
     (["--grid", "2", "--grid-max", "1e300"], "--grid-max")],
    ids=["n1-1e300", "n2-1e13", "grid-max-1e300"],
)
def test_certify_thermal_parameter_overflow_is_one_line_json_error(tmp_path, capsys, argv,
                                                                   flag):
    # (1 + n1) ** 2 raised OverflowError with a traceback at n1 = 1e300
    code, _, err = run_cli(["certify", *argv, "--out-dir", str(tmp_path)], capsys)
    assert code == 2
    payload = _one_json_error(err)
    assert payload["error"] == "invalid-argument"
    assert flag in payload["message"]


def test_certify_terms_finite_at_thermal_max(tmp_path, capsys):
    code, _, _ = run_cli(["certify", "--n1", "1e12", "--n2", "1e12", "--out-dir", str(tmp_path)],
                         capsys)
    assert code == 0
    text = (tmp_path / "certificates.json").read_text()
    assert "Infinity" not in text and "NaN" not in text


def test_certify_large_occupation_is_ok(tmp_path, capsys):
    # eigenvalue round-off at n1 = 1e8 was judged against an absolute tolerance
    for n1 in ("1e8", "1e12"):
        code, out, _ = run_cli(["certify", "--n1", n1, "--n2", "0", "--out-dir", str(tmp_path)],
                               capsys)
        assert code == 0
        assert "1/1 certificates ok" in out


def _fail(*args, **kwargs):
    raise AssertionError("the work ran before its cap was checked")


@pytest.mark.parametrize(
    "argv, patched, cap",
    [
        (["bounds", "--steps", "100000000"], [(cli.np, "linspace")], cli.MAX_BOUNDS_POINTS),
        (["bounds", "--steps", "5000", "--band", "gaussian", "--band-samples", "200"],
         [(cli.np, "linspace")], cli.MAX_BOUNDS_POINTS),
        (["security", "--mu-single", "8", "--mu-pair", "5.83", "--mu-triple", "4",
          "--n-probes", "1000000000"],
         [(cli.security, "MseDistribution"), (cli.security, "security_probabilities")],
         cli.MAX_SWEEP_PROBES),
        (["mi", "--v-dist", "2", "--mu-single", "8", "--mu-pair", "5.83", "--mu-triple", "4",
          "--n-max", "1000000000"],
         [(cli.security, "mutual_information"), (cli.security, "MseDistribution")],
         cli.MAX_SWEEP_PROBES),
        (["certify", "--grid", "100000"],
         [(cli.np, "linspace"), (cli.certificates, "verify_certificates")],
         cli.MAX_CERTIFY_POINTS),
    ],
    ids=["bounds-steps", "bounds-band-samples", "security-n-probes", "mi-n-max", "certify-grid"],
)
def test_work_caps_fire_before_any_work(tmp_path, capsys, monkeypatch, argv, patched, cap):
    # the work is patched to fail, so a missing cap cannot allocate or loop
    for module, name in patched:
        monkeypatch.setattr(module, name, _fail)
    out = tmp_path / "out"
    code, _, err = run_cli(argv + ["--out-dir", str(out)], capsys)
    assert code == 2
    payload = _one_json_error(err)
    assert payload["error"] == "resource-limit"
    assert str(cap) in payload["message"]
    assert not out.exists()


@pytest.mark.parametrize("value", ["1e308", "1e13", "0", "-1", "nan", "inf"])
def test_mi_v_dist_out_of_range_names_the_flag(tmp_path, capsys, value):
    # 1e308 failed inside the exceedance curve with "MSE values must be finite"
    argv = ["mi", f"--v-dist={value}", "--mu-single", "8", "--mu-pair", "5.83",
            "--mu-triple", "4", "--n-max", "2", "--out-dir", str(tmp_path / "out")]
    code, _, err = run_cli(argv, capsys)
    assert code == 2
    payload = _one_json_error(err)
    assert payload["error"] == "invalid-argument"
    assert "--v-dist" in payload["message"]


def test_tracer_call_sites_exist():
    # perfbench/tracing.py wraps these names; a missing one would crash a traced run
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    sites = tracing._sites()
    assert sites
    for module, attr, _, _ in sites:
        assert hasattr(module, attr), f"{module.__name__}.{attr}"


MI_ARGS = ["mi","--v-dist", "5", "--mu-single", "8", "--mu-pair", "5.83", "--mu-triple", "4",
           "--n-max", "2"]


@pytest.mark.parametrize(
    "argv",
    [
        ["bounds", "--steps", "2", "--band", "gaussian", "--band-samples", "0"],
        ["bounds", "--steps", "2", "--band", "uniform", "--band-samples", "-3"],
        MI_ARGS + ["--c-bits", "2000"],
        ["state", "--load", "{dir}"],
        ["simulate", "--config", "{dir}"],
    ],
    ids=["band-samples-0", "band-samples-negative", "mi-c-bits-2000", "state-load-dir",
         "simulate-config-dir"],
)
def test_bad_input_is_one_line_json_error(tmp_path, capsys, argv):
    argv = [str(tmp_path) if a == "{dir}" else a for a in argv]
    code, _, err = run_cli(argv + ["--out-dir", str(tmp_path / "out")], capsys)
    assert code == 2
    assert "Traceback" not in err
    lines = err.strip().splitlines()
    assert len(lines) == 1
    payload = json.loads(lines[0])
    assert payload["error"] == "invalid-argument"
    assert payload["message"]


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["bounds", "--steps", "abc"], "--steps"),
        (["bounds", "--no-such-flag", "1"], "--no-such-flag"),
        # argparse reads -inf as an option, so --r has no value
        (["state", "--r", "-inf"], "--r"),
        (["simulate"], "--config"),
    ],
    ids=["steps-abc", "unknown-flag", "r-minus-inf", "missing-config"],
)
def test_malformed_command_line_is_one_line_json_error(tmp_path, capsys, argv, flag):
    # argparse used to print its usage text and no JSON
    code, _, err = run_cli(argv + ["--out-dir", str(tmp_path / "out")], capsys)
    assert code == 2
    payload = _one_json_error(err)
    assert payload["error"] == "invalid-argument"
    assert flag in payload["message"]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv", [["--version"], ["--help"], ["bounds", "--help"]])
def test_help_and_version_exit_zero(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert "cvshare" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["certify", "--n1", "0.5", "--n2", "0.5", "--tol", "nan"], "--tol"),
        (["certify", "--grid", "2", "--tol", "-1"], "--tol"),
        (["bounds", "--r-max", "inf"], "--r-max"),
        (["bounds", "--r-min", "nan"], "--r-min"),
        (["bounds", "--r-min", "-0.5"], "--r-min"),
        (["security", "--mu-single", "1e308", "--mu-pair", "5.83", "--mu-triple", "4",
          "--n-probes", "3"], "--mu-single"),
        (["security", "--mu-single", "8", "--mu-pair", "5.83", "--mu-triple", "0",
          "--n-probes", "3"], "--mu-triple"),
        (["mi", "--v-dist", "5", "--mu-single", "8", "--mu-pair", "5.83", "--mu-triple", "nan"],
         "--mu-triple"),
        (["mi", "--v-dist", "5", "--mu-single", "8", "--mu-pair", "nan", "--mu-triple", "4"],
         "--mu-pair"),
        (["mi", "--v-dist", "5", "--mu-single", "1.1e12", "--mu-pair", "5.83", "--mu-triple", "4"],
         "--mu-single"),
    ],
    ids=["tol-nan", "tol-negative", "r-max-inf", "r-min-nan", "r-min-negative",
         "security-mu-single-1e308", "security-mu-triple-0", "mi-mu-triple-nan",
         "mi-mu-pair-nan", "mi-mu-single-above-1e12"],
)
def test_out_of_range_flag_is_named(tmp_path, capsys, argv, flag):
    # --tol nan and -1 printed "0/1 certificates ok", --r-max inf warned on
    # stderr, and the --mu-* errors blamed v_t, v_alpha or an unnamed mu
    code, _, err = run_cli(argv + ["--out-dir", str(tmp_path / "out")], capsys)
    assert code == 2
    payload = _one_json_error(err)
    assert payload["error"] == "invalid-argument"
    assert flag in payload["message"]
    if flag.startswith("--r-"):
        assert "R_MAX = 8.0" in payload["message"]
    assert not (tmp_path / "out").exists()


def test_certify_zero_tolerance_is_accepted(tmp_path, capsys):
    code, _, _ = run_cli(["certify", "--n1", "0.5", "--n2", "0.5", "--tol", "0",
                          "--out-dir", str(tmp_path)], capsys)
    assert code == 0
    assert read_json(tmp_path / "manifest.json")["arguments"]["tol"] == 0.0


def _eps_runs(tmp_path, r, eps):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"r = {r}\nn_rounds = 2000\neps_a = {eps}\neps_b = {eps}\neps_c = {eps}\n")
    arms = ["--eps-a", eps, "--eps-b", eps, "--eps-c", eps]
    return [
        ["state", "--r", r, *arms],
        ["bounds", "--r-min", r, "--r-max", r, "--steps", "1", *arms],
        ["witness", "--r", r, "--n-rounds", "2000", *arms],
        ["simulate", "--config", str(cfg)],
    ]


@pytest.mark.parametrize("r", ["0", "1", "8"])
def test_excess_noise_up_to_eps_max_runs(tmp_path, capsys, r):
    for argv in _eps_runs(tmp_path, r, "1e12"):
        code, _, err = run_cli(argv + ["--out-dir", str(tmp_path / "out")], capsys)
        assert code == 0, (argv, err)


@pytest.mark.parametrize("eps", ["1.000001e12", "1e16", "1e308"])
def test_excess_noise_above_eps_max_is_one_line_json_error(tmp_path, capsys, eps):
    # 1e308 failed with a LinAlgError traceback, and from about 1e16 at r = 8
    # physical states were rejected as not positive definite
    for argv in _eps_runs(tmp_path, "8", eps):
        code, _, err = run_cli(argv + ["--out-dir", str(tmp_path / "out")], capsys)
        assert code == 2, argv
        payload = _one_json_error(err)
        assert payload["error"] == "invalid-argument"
        assert "eps_a" in payload["message"] and "EPS_MAX" in payload["message"]


def test_simulate_missing_config(tmp_path, capsys):
    code, _, err = run_cli(
        ["simulate", "--out-dir", str(tmp_path), "--config", "/nope.cfg"], capsys
    )
    assert code == 2


def test_simulate_abort_loss_exit_code(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("eta_a = 0.3\nn_rounds = 1000\n")
    code, _, err = run_cli(
        ["simulate", "--out-dir", str(tmp_path), "--config", str(cfg)], capsys
    )
    assert code == 1
    payload = json.loads(err.strip().splitlines()[-1])
    assert payload["error"] == "abort-loss"


def test_security_outputs_match_library(tmp_path, capsys):
    out = str(tmp_path)
    code, _, _ = run_cli(
        [
            "security",
            "--out-dir",
            out,
            "--mu-single",
            repr(MU_SINGLE_ANCHOR),
            "--mu-pair",
            repr(MU_PAIR_ANCHOR),
            "--mu-triple",
            repr(MU_TRIPLE_ANCHOR),
            "--n-probes",
            "100",
        ],
        capsys,
    )
    assert code == 0
    reports = read_json(os.path.join(out, "security.json"))
    by_coalition = {r["coalition"]: r for r in reports}
    assert by_coalition["abc"]["v_t"] == pytest.approx(8.0 * math.log(2.0))
    assert by_coalition["abc"]["delta"] == pytest.approx(0.00031311917314236063, rel=1e-12)
    assert by_coalition["abc"]["p_success"] == pytest.approx(0.9997554491130155, rel=1e-12)
    assert by_coalition["ab"]["v_t"] == pytest.approx(6.8, abs=1e-9)
    sweep = read_lines(os.path.join(out, "security_sweep.csv"))
    assert sweep[0] == "n_probes,coalition,v_t,delta,p_success"
    assert len(sweep) == 1 + 100 * 2
    # last sweep row at n = 100 agrees with the report
    final_abc = [ln for ln in sweep[1:] if ln.startswith("100,abc")]
    assert float(final_abc[0].split(",")[3]) == pytest.approx(by_coalition["abc"]["delta"])


def test_security_explicit_threshold(tmp_path, capsys):
    out = str(tmp_path)
    code, _, _ = run_cli(
        [
            "security",
            "--out-dir",
            out,
            "--mu-single",
            "8.0",
            "--mu-pair",
            "5.828468526871509",
            "--mu-triple",
            "4.0",
            "--n-probes",
            "10",
            "--v-t",
            "6.8",
        ],
        capsys,
    )
    assert code == 0
    reports = read_json(os.path.join(out, "security.json"))
    for r in reports:
        assert r["v_t"] == 6.8
    ab = [r for r in reports if r["coalition"] == "ab"][0]
    assert ab["delta"] == pytest.approx(0.34702634193947507, rel=1e-12)
    assert ab["p_success"] == pytest.approx(0.7272944079561339, rel=1e-12)


def test_mi_curves(tmp_path, capsys):
    out = str(tmp_path)
    code, _, _ = run_cli(
        [
            "mi",
            "--out-dir",
            out,
            "--v-dist",
            "5.0",
            "--mu-single",
            "8.0",
            "--mu-pair",
            "5.828468526871509",
            "--mu-triple",
            "4.0",
            "--n-max",
            "30",
        ],
        capsys,
    )
    assert code == 0
    lines = read_lines(os.path.join(out, "mi_curve.csv"))
    assert lines[0] == "n_probes,coalition,mse_per_quadrature,mi_bits"
    assert len(lines) == 1 + 30 * 3
    rows = [ln.split(",") for ln in lines[1:]]
    abc = [(int(r[0]), float(r[3])) for r in rows if r[1] == "abc"]
    # information grows with the probe count
    assert abc == sorted(abc)
    mi_at = {r[1]: float(r[3]) for r in rows if int(r[0]) == 30}
    assert mi_at["abc"] > mi_at["ab"] > mi_at["a_alone"]
    exceed = read_lines(os.path.join(out, "exceedance.csv"))
    assert exceed[0] == "n_probes,coalition,p_exceed"
    pe = [float(ln.split(",")[2]) for ln in exceed[1:] if ln.split(",")[1] == "abc"]
    assert all(0.0 <= v <= 1.0 for v in pe)
    # spot-check the first exceedance value against the library: one probe,
    # c = 1 bit at v_dist = 5 needs per-quadrature MSE 5, i.e. 10 summed
    assert pe[0] == pytest.approx(
        mse_cdf(10.0, MseDistribution(mu=4.0, n_probes=1)), rel=1e-12
    )


def test_witness_subcommand(tmp_path, capsys):
    out = str(tmp_path)
    code, stdout, _ = run_cli(
        ["witness", "--out-dir", out, "--n-rounds", "1000", "--seed", "3"], capsys
    )
    assert code == 0
    payload = read_json(os.path.join(out, "witness.json"))
    assert payload["entangled"] is True
    assert payload["threshold"] == 4.0
    code, _, _ = run_cli(
        ["witness", "--out-dir", out, "--n-rounds", "1000", "--seed", "3", "--surrogate"],
        capsys,
    )
    assert code == 0
    payload = read_json(os.path.join(out, "witness.json"))
    assert payload["entangled"] is False


def test_out_dir_env_fallback(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("CVSHARE_OUT_DIR", str(tmp_path))
    code, _, _ = run_cli(["certify", "--n1", "1.0", "--n2", "1.0"], capsys)
    assert code == 0
    assert os.path.exists(os.path.join(str(tmp_path), "certificates.json"))


def test_manifest_lists_arguments(tmp_path, capsys):
    out = str(tmp_path)
    run_cli(["bounds", "--out-dir", out, "--steps", "2"], capsys)
    manifest = read_json(os.path.join(out, "manifest.json"))
    assert manifest["arguments"]["steps"] == 2
    assert manifest["subcommand"] == "bounds"
    assert "timestamp" not in manifest
    assert sorted(manifest["outputs"]) == manifest["outputs"]
