"""Command-line interface: file outputs, manifests, exit codes."""

import hashlib
import importlib.util
import json
import math
import os
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


# rounds.csv sha256 per (coalition, plan), from the per-round record writer
# that the column writer replaced
ROUNDS_CSV_SHA256 = {
    ("a_alone", "fixed"): "bbb8c2441532ace0cdc50070cd2fda26f73efe715da76486c61ec6c794deb6a7",
    ("ab", "fixed"): "018d1f759f018bcc866c601d8cd7b780846aa6f8f4953554a0e66362fa7b6a22",
    ("ac", "fixed"): "552c5d40d32a6550bf665064423cb8b36d81c5636c8c13db682d2aef71e11666",
    ("abc", "fixed"): "7e842e33f25b423816e8540baf0cae098e182d7650288c47fbca914c06879d8c",
    ("a_alone", "gaussian"): "6425a3bf353e84aa1d9951e9ecf366620840d0b76361b8914818aa05ab81680b",
    ("ab", "gaussian"): "57d9a385bbee108a4337cfd2565c3d9ad4005fa8d65f85d26968f4016448915e",
    ("ac", "gaussian"): "8dcdbe10117c16a286e53d6b18571c0b5fc3f3569005be5a92bc2eb342f1439a",
    ("abc", "gaussian"): "671421a68fb4e52a35e9b7d93dbabab4381a14716c945234c513241956d583d5",
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


@pytest.mark.parametrize("case", sorted(DEALER_OUTPUT_SHA256))
def test_dealer_outputs_bytes_pinned(tmp_path, capsys, case):
    argv, digests = DEALER_OUTPUT_SHA256[case]
    code, _, _ = run_cli(argv + ["--out-dir", str(tmp_path)], capsys)
    assert code == 0
    for name, want in digests.items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == want, name


@pytest.mark.parametrize("case", ["bounds-16-gaussian-band", "bounds-16-lossy-uniform-band"])
def test_band_chunks_do_not_change_the_band(tmp_path, capsys, monkeypatch, case):
    # 200 and 50 band samples in chunks of 3: every grid point crosses
    # chunk edges and ends on a partial chunk, and the band must still be
    # the one drawn and reduced in a single chunk
    monkeypatch.setattr(cli, "_BAND_CHUNK", 3)
    argv, digests = DEALER_OUTPUT_SHA256[case]
    code, _, _ = run_cli(argv + ["--out-dir", str(tmp_path)], capsys)
    assert code == 0
    for name, want in digests.items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == want, name


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
    def no_rounds(self):
        raise AssertionError("the rounds' random stream was opened")

    monkeypatch.setattr(RandomStream, "generator", no_rounds)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n_rounds = 20000001\n")
    code, _, err = run_cli(["simulate", "--config", str(cfg), "--out-dir", str(tmp_path)], capsys)
    assert code == 2
    payload = _one_json_error(err)
    assert payload["error"] == "resource-limit"
    assert "20000000" in payload["message"]


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
