"""Command-line interface: file outputs, manifests, exit codes."""

import argparse
import contextlib
import errno
import hashlib
import importlib.util
import io
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from conftest import MU_PAIR_ANCHOR, MU_SINGLE_ANCHOR, MU_TRIPLE_ANCHOR
from cvshare import __version__, certificates, cli, estimators, protocol, security
from cvshare.cli import main, parse_config_text
from cvshare.errors import InvalidArgumentError, ProtocolFailureError
from cvshare.estimators import Coalition
from cvshare.gaussian_core import ExperimentModel
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
    assert "1/1 certificates ok" in stdout
    reports = read_json(os.path.join(str(tmp_path), "certificates.json"))
    assert reports[0]["status"] == "degenerate-dual"
    assert reports[0]["primal_value"] == 4.0
    assert reports[0]["y3_eigs"] == []


@pytest.mark.parametrize("n1, n2", [("1e-17", "0"), ("0", "1e-12")])
def test_certify_near_the_vacuum_is_ok(tmp_path, capsys, n1, n2):
    # the inverted objective core read 4.000444 at (0, 1e-12), and at 1e-17, where
    # 1 + 2 n rounds to 1, it was singular and certify exited 1 with degenerate-dual
    code, stdout, _ = run_cli(
        ["certify", "--out-dir", str(tmp_path), "--n1", n1, "--n2", n2], capsys
    )
    assert code == 0
    assert "1/1 certificates ok" in stdout
    (report,) = read_json(os.path.join(str(tmp_path), "certificates.json"))
    assert report["status"] == "ok" and report["values_match"]
    assert report["primal_value"] == 4.0 + 2.0 * float(n1) + 2.0 * float(n2)
    assert len(report["y3_eigs"]) == 2


def test_certify_below_the_smallest_normal_float_is_one_line_json_error(tmp_path, capsys):
    # Y3's eigenvalue, about 2 / s, overflows there; the stack fails before a file is written
    code, stdout, err = run_cli(
        ["certify", "--out-dir", str(tmp_path), "--n1", "1e-310", "--n2", "0"], capsys
    )
    assert code == 1 and stdout == ""
    assert json.loads(err.strip().splitlines()[-1])["error"] == "degenerate-dual"
    assert not os.path.exists(os.path.join(str(tmp_path), "certificates.json"))


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


# rounds.csv sha256 per (coalition, plan), from stream layout 7 (SFC64 chunk streams; the
# counts, splits and statistics the reports read, then a uniform arrangement of the
# counts, the coins no count fixes, the blocks and every round's normals conditioned on
# the statistics)
ROUNDS_CSV_SHA256 = {
    ("a_alone", "fixed"): "34db4cca309bf4e68f49bc948f43f370b4a8b0110e1bc4ea48f3276abc028ce6",
    ("ab", "fixed"): "a32c9dd467abf331d212f599edd69a9e1c82054160ea3d0083c20507fcd7e347",
    ("ac", "fixed"): "d3b6a347461807bea8f29298dab2615066ee43a9600c28d1554255ac05d4bbc3",
    ("abc", "fixed"): "70b43caf1ef55c875a842aff07b1b2b813cbedef4444b1f9cf75d6f2a984cace",
    ("a_alone", "gaussian"): "331f8ec74fffe3f6b4d479c82fb18b297ca0d98ea088d5e0055f0183a9ed59b4",
    ("ab", "gaussian"): "45623d6464e582594b3e7bccbf635f07519161f420795451a966eb2f7cfc28f8",
    ("ac", "gaussian"): "209df9948739de123a2dc1c6ba1d9d61f509a7aa7a7c0e71d6158241614a0505",
    ("abc", "gaussian"): "57edf0877c8660143d7f93f384273d41ab7b03fdf2da79cbc45a29d544f8036d",
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


# rounds.csv sha256 of runs of several chunks, from stream layout 7, as the
# whole-run round table wrote them: (config lines, _CHUNK_ROUNDS or None, digest).
# 1031 rounds in chunks of 50 end on a partial chunk of 31; 150,000 rounds are two
# full chunks of 65,536 and a partial one
MULTI_CHUNK_ROUNDS_CSV_SHA256 = {
    "a_alone-fixed-chunks-of-50": (
        "coalition = a_alone\nplan = fixed\nn_rounds = 1031\n", 50,
        "c6ac07a9cb1558a14d9ee5f4d8c0d9ea51c437a36289ad8c897d8f01e837201a"),
    "abc-gaussian-n_rep-3-fitted-chunks-of-50": (
        "coalition = abc\nplan = gaussian\nn_rep = 3\ngain_mode = fitted\nn_rounds = 1031\n", 50,
        "353ecb59f707ec256c59e41d802bc8c41e84ac05ba6d5b7d92275a9c3d8bea37"),
    "abc-fixed-150000": (
        "coalition = abc\nn_rounds = 150000\n", None,
        "67491fa377d6fd552ac160fef0c41c4059e963ccaee56a1b7e2afedfa8e66a4f"),
}


@pytest.mark.parametrize("case", sorted(MULTI_CHUNK_ROUNDS_CSV_SHA256))
def test_multi_chunk_rounds_csv_bytes_pinned(tmp_path, capsys, monkeypatch, case):
    lines, chunk, expected = MULTI_CHUNK_ROUNDS_CSV_SHA256[case]
    if chunk is not None:
        monkeypatch.setattr(protocol, "_CHUNK_ROUNDS", chunk)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("r = 1.0\nalpha_x = 0.5\nalpha_p = -0.25\nv_dist = 1.5\nseed = 11\n" + lines)
    out = tmp_path / "out"
    code, _, _ = run_cli(
        ["simulate", "--out-dir", str(out), "--config", str(cfg), "--dump-rounds"], capsys
    )
    assert code == 0
    assert hashlib.sha256((out / "rounds.csv").read_bytes()).hexdigest() == expected


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
    # the corners of the accepted box, from the writer that checked every
    # dealer covariance it built
    "bounds-box-corners": (
        ["bounds", "--r-min", "0", "--r-max", "8", "--steps", "9", "--eta-a", "1e-12",
         "--eta-b", "0.5", "--eps-b", "1e12", "--eps-c", "1e-12", "--band", "uniform",
         "--band-samples", "40", "--band-fluct", "0.5"],
        {
            "bounds.csv": "673f69f734788df6fc922a5e35b46b30740a927a57e65e5454d3a4fe014948c9",
            "bounds_band.csv": "9f3c25c0e461d91cc7ddd8bdb59c9aebcc4e63b86fbe6b1e5203c694f774bde7",
        },
    ),
}


MU_ARGS = ["--mu-single", "8", "--mu-pair", "5.83", "--mu-triple", "4"]

# sha256 of the outputs that need no dealer state, from the writers that built
# each table as one string before writing it; the security and exceedance
# tables from the numpy incomplete gamma function, each of their probabilities
# checked against mpmath at 50 digits when pinned
SWEEP_OUTPUT_SHA256 = {
    "security": (
        ["security", *MU_ARGS, "--n-probes", "40"],
        {
            "security.json": "375bb46dc986ac4ce934b30a28759e8bba10e98ebc4020619422c4968335651d",
            "security_sweep.csv": "5db56b8abf9b990676731425631cbc291f92cea3ee6f18a0ea81ef67dc90c422",
        },
    ),
    "security-v-t": (
        ["security", *MU_ARGS, "--n-probes", "9", "--v-t", "6.1"],
        {
            "security.json": "1ebccd8a484e664d409ee24959552c4687c1492a88c3e416d315b7c48f4fdea9",
            "security_sweep.csv": "2cf0f5bf06022fdbaf3d1fcaf132cdad0269ac61500f17119b3e7a992354cc89",
        },
    ),
    "mi": (
        ["mi", "--v-dist", "5", *MU_ARGS, "--n-max", "40", "--c-bits", "1.5"],
        {
            "mi_curve.csv": "b08ff7f715f31967320c69b3b66044984607e80dcb33337da510e823f99d3dc5",
            "exceedance.csv": "eab954e9158f42f96ee53048aec798b7c3203e635886bd5bd38e6eee6b20e822",
        },
    ),
    "certify-grid-20": (
        ["certify", "--grid", "20"],
        {"certificates.json": "3f4131a2bb27a617a6e96835c16a9e4e614e6834a7b31a32f3602c77fc7f74ca"},
    ),
    "certify-point": (
        ["certify", "--n1", "0.5", "--n2", "0.5"],
        {"certificates.json": "eba76fdde1ceba53a8d25e2ad0a6a3354d48b78f2f88006ad5582aa3ae5c9aec"},
    ),
    # the vacuum point's empty y3_eigs, false verdicts, the exact mode and
    # floats in exponent form
    "certify-grid-7-exact": (
        ["certify", "--grid", "7", "--grid-min", "0", "--grid-max", "1e12", "--tol", "0"],
        {"certificates.json": "52dc9101a9e99522a42b7f537df2290755c5adcc804043c66d7f372bceb18056"},
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


# sha256 of bounds_band.csv per (_BAND_CHUNK, bounds flags), from the writer that
# evaluated one grid point per stack; a stack now holds _BAND_CHUNK // --band-samples
# whole points, and a point of more samples keeps its own stacks
BAND_STACK_SHA256 = {
    # 2 points a stack, the last stack holding 1
    "two-points-a-stack": (7, ["--steps", "5", "--band", "gaussian", "--band-samples", "3"],
                           "8d822dabb989751815884eb533fac8cd08b6038ac7ad4a2e2fa2cf5f9b8afd13"),
    "two-points-a-stack-lossy": (
        7, ["--steps", "5", "--band", "uniform", "--band-samples", "3", "--eta-a", "0.9",
            "--eps-c", "0.02"],
        "b73375ac14195315e170cc70143c003992f1fe218c6b8a5cd07a9bf15a9580f3"),
    # the same band as two-points-a-stack, its 5 points in one stack
    "one-stack": (4096, ["--steps", "5", "--band", "gaussian", "--band-samples", "3"],
                  "8d822dabb989751815884eb533fac8cd08b6038ac7ad4a2e2fa2cf5f9b8afd13"),
    "samples-fill-a-stack": (7, ["--steps", "5", "--band", "uniform", "--band-samples", "7"],
                             "293eba7b959d9af6355c2cf38071c0bd20c149883efc0338dd10c99810d97ea4"),
    "one-sample-past-a-stack": (
        7, ["--steps", "5", "--band", "gaussian", "--band-samples", "8"],
        "cf255bdbdd2ea94a0562c0756772f07ae976cadd480c187a2c8e4b6ec71b7ce2"),
    "samples-fill-a-full-stack": (
        4096, ["--steps", "3", "--band", "gaussian", "--band-samples", "4096"],
        "19ef13eac679c829a1bd17acd313dce4afd52453a1e9ca39ebf6dcfc3db4d77a"),
    "one-sample-past-a-full-stack": (
        4096, ["--steps", "3", "--band", "uniform", "--band-samples", "4097"],
        "ad6ba83b457c6609268442319914e7facc1ea2b77042c33a64b9c849e15ffda3"),
}


@pytest.mark.parametrize("case", sorted(BAND_STACK_SHA256))
def test_band_stacks_of_whole_points_keep_the_band(tmp_path, capsys, monkeypatch, case):
    chunk, argv, want = BAND_STACK_SHA256[case]
    monkeypatch.setattr(cli, "_BAND_CHUNK", chunk)
    code, _, _ = run_cli(["bounds", *argv, "--out-dir", str(tmp_path)], capsys)
    assert code == 0
    assert hashlib.sha256((tmp_path / "bounds_band.csv").read_bytes()).hexdigest() == want


def test_band_memory_does_not_grow_with_the_grid(tmp_path, capsys, monkeypatch):
    # stacks of 6 points x 20 samples; grids of 300 and 1,200 points, each at least
    # two full stacks of bounds.csv points as well
    monkeypatch.setattr(cli, "_BAND_CHUNK", 128)

    def peak_bytes(steps):
        tracemalloc.start()
        try:
            code, _, _ = run_cli(["bounds", "--steps", str(steps), "--band", "gaussian",
                                  "--band-samples", "20", "--out-dir", str(tmp_path)], capsys)
            assert code == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    # the first run also builds the parser and warms first-call caches
    peak_bytes(300)
    small = peak_bytes(300)
    large = peak_bytes(1200)
    # the row writer, which held up to 4,096 band rows at once, took about 3.4x
    assert large <= 1.1 * small


@pytest.mark.parametrize("case", ["bounds-16-gaussian-band", "bounds-16-lossy-uniform-band",
                                  "security", "security-v-t", "mi"])
def test_csv_chunks_do_not_change_the_tables(tmp_path, capsys, monkeypatch, case):
    # 18 to 120 rows formatted 3 at a time, most tables ending on a partial chunk
    monkeypatch.setattr(cli, "_CSV_CHUNK", 3)
    test_dealer_outputs_bytes_pinned(tmp_path, capsys, case)


@pytest.mark.parametrize("case", ["certify-grid-20", "certify-point", "certify-grid-7-exact"])
def test_chunks_do_not_change_the_certificates(tmp_path, capsys, monkeypatch, case):
    # certify --grid 20 checks its 400 points in stacks of 3, the last one
    # partial; the security and mi sweeps, which compute 3 probe counts at a
    # time under the same _CSV_CHUNK, are covered by the test above
    monkeypatch.setattr(cli, "_BAND_CHUNK", 3)
    monkeypatch.setattr(cli, "_CSV_CHUNK", 3)
    test_dealer_outputs_bytes_pinned(tmp_path, capsys, case)


@pytest.mark.parametrize("chunk", [3, 4096])
def test_certify_counts_the_ok_points_of_every_stack(tmp_path, capsys, monkeypatch, chunk):
    # one point of 49 passes the exact mode; with stacks of 3 it lies in the first
    monkeypatch.setattr(cli, "_BAND_CHUNK", chunk)
    argv, _ = SWEEP_OUTPUT_SHA256["certify-grid-7-exact"]
    code, out, _ = run_cli(argv + ["--out-dir", str(tmp_path)], capsys)
    assert code == 0
    assert out == "1/49 certificates ok\n"


# every float64 class: subnormals, signed zeros, the extremes and the non-finite
_ANY_FLOAT = st.one_of(
    st.floats(),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-308, 1e308,
                     -1e308, math.nan, math.inf, -math.inf]))


@st.composite
def _certificate_columns(draw):
    """Columns of a stack of 1 to 5 points with every float and verdict drawn freely,
    degenerate points among regular ones."""
    k = draw(st.integers(1, 5))

    def flags():
        return np.array(draw(st.lists(st.booleans(), min_size=k, max_size=k)), dtype=bool)

    def floats(rows, width=None):
        n = rows * (width or 1)
        values = np.array(draw(st.lists(_ANY_FLOAT, min_size=n, max_size=n)), dtype=float)
        return values if width is None else values.reshape(rows, width)

    degenerate = flags()
    return certificates.CertificateColumns(
        n1=floats(k), n2=floats(k), primal_value=floats(k), dual_value=floats(k),
        x1_eigs=floats(k, 4), x2_eigs=floats(k, 4), y1_eigs=floats(k, 4), y2_eigs=floats(k, 2),
        y3_eigs=floats(int(np.count_nonzero(~degenerate)), 2), degenerate=degenerate,
        feasible_primal=flags(), feasible_dual=flags(), values_match=flags(),
        constraint_residuals=floats(k, 6))


@settings(max_examples=300)
@given(cols=_certificate_columns())
def test_certificate_template_is_json_dumps(cols):
    # the writer before the template: each report's dict through json.dumps with
    # indent=2, every line indented two more spaces
    want = ",\n".join(
        "  " + json.dumps(r.to_json_dict(), sort_keys=True, indent=2).replace("\n", "\n  ")
        for r in certificates.reports_from_columns(cols))
    assert certificates.reports_to_text(cols) == want


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

    # at least two full chunks of rows (bounds: of grid points) in either run; the
    # untimed first run builds the parser and warms first-call caches
    peak_bytes(2 * 1024 + 10)
    small = peak_bytes(2 * 1024 + 10)
    large = peak_bytes(4 * (2 * 1024 + 10))
    # a table held whole would take about 4x the small run's peak
    assert large <= 1.1 * small


def _oracle_cells(col):
    """The per-value formatter that _cells replaced: repr of every float cell
    ("" for NaN), true/false for bools, strings as they are, str for the rest."""
    col = np.asarray(col)
    values = col.tolist()
    if col.dtype == bool:
        return ["true" if v else "false" for v in values]
    if col.dtype.kind == "f":
        return [repr(v) if v == v else "" for v in values]
    return values if col.dtype.kind == "U" else list(map(str, values))


def _oracle_table(header, chunks):
    """The per-row writer that the block writer, now _csv, replaced, as text."""
    text = ",".join(header) + "\n"
    for columns in chunks:
        text += "".join(",".join(row) + "\n" for row in zip(*map(_oracle_cells, columns)))
    return text


# a quiet NaN whose payload, and so whose bits, differ from np.nan's
_PAYLOAD_NAN = float(np.array([0x7FF8_0000_0000_0001], dtype=np.uint64).view(np.float64)[0])
_SPECIAL_FLOATS = [0.0, -0.0, math.inf, -math.inf, np.nan, -np.nan, _PAYLOAD_NAN,
                   5e-324, -2.5e-310, 1.7976931348623157e308]
_TABLE_FLOATS = st.one_of(st.sampled_from(_SPECIAL_FLOATS), st.floats(width=64))


def _one_column(values):
    """A one-column table in one chunk, as _tables draws them."""
    return ["c0"], [[np.array(values, dtype=np.float64)]]


@st.composite
def _tables(draw):
    """A header and column chunks of up to 10 rows: float columns (constant,
    signed zeros or any values), int, bool and str columns, split at drawn rows."""
    n = draw(st.integers(0, 10))

    def column(kind):
        if kind == "f":
            values = draw(st.one_of(_TABLE_FLOATS.map(lambda v: [v] * n),
                                    st.lists(st.sampled_from([0.0, -0.0]), min_size=n, max_size=n),
                                    st.lists(_TABLE_FLOATS, min_size=n, max_size=n)))
            return np.array(values, dtype=np.float64)
        if kind == "i":
            return np.array(draw(st.lists(st.integers(-2**63, 2**63 - 1), min_size=n, max_size=n)),
                            dtype=np.int64)
        if kind == "b":
            return np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)), dtype=bool)
        return np.array(draw(st.lists(st.text("abxp_", max_size=4), min_size=n, max_size=n)),
                        dtype=str)

    columns = [column(kind) for kind in draw(st.lists(st.sampled_from("fffibU"), min_size=1,
                                                      max_size=6))]
    edges = [0, *sorted(draw(st.lists(st.integers(0, n), max_size=3))), n]
    return ([f"c{i}" for i in range(len(columns))],
            [[col[a:b] for col in columns] for a, b in zip(edges, edges[1:])])


@settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(table=_tables())
@example(table=_one_column([0.0, -0.0, 0.0, -0.0]))
@example(table=_one_column([-0.0, 0.0, 0.0, 0.0, -0.0, -0.0, -0.0]))
@example(table=_one_column([np.nan, -np.nan, _PAYLOAD_NAN, np.nan]))
@example(table=_one_column(np.array([0x7FF0_0000_0000_0001, 0x7FF8_0000_0000_0002],
                                    dtype=np.uint64).view(np.float64)))
@example(table=_one_column([0.0] * 7))
@example(table=_one_column([-0.0] * 7))
@example(table=_one_column([math.inf] * 7))
@example(table=_one_column([-math.inf] * 7))
@example(table=_one_column([np.nan] * 7))
@example(table=_one_column([-np.nan] * 7))
@example(table=_one_column([_PAYLOAD_NAN] * 7))
@example(table=_one_column([5e-324] * 7))
@example(table=_one_column([-2.5e-310] * 7))
def test_csv_matches_the_per_row_writer(tmp_path, monkeypatch, table):
    # blocks of 3 rows, so most columns end on a partial or a constant block
    monkeypatch.setattr(cli, "_CSV_CHUNK", 3)
    header, chunks = table
    cli._Run(argparse.Namespace(out_dir=str(tmp_path))).write("t.csv", cli._csv(header, chunks))
    assert (tmp_path / "t.csv").read_bytes() == _oracle_table(header, chunks).encode()


def _round_like_columns(n, seed=5):
    """14 columns like rounds.csv: an index, 11 float columns and 2 of basis names."""
    gen = np.random.default_rng(seed)
    return [np.arange(n), *gen.standard_normal((11, n)),
            *np.array(["x", "p"])[gen.integers(0, 2, (2, n))]]


def test_csv_holds_one_block_at_a_time(tmp_path, monkeypatch):
    run = cli._Run(argparse.Namespace(out_dir=str(tmp_path)))
    header = [f"c{i}" for i in range(14)]

    def traced(chunks):
        """Peak bytes of writing the table, and the bytes held as each chunk is asked for."""
        held = []

        def source():
            for make in chunks:
                held.append(tracemalloc.get_traced_memory()[0] - start)
                yield make()

        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            run.write("t.csv", cli._csv(header, source()))
            return tracemalloc.get_traced_memory()[1] - start, held
        finally:
            tracemalloc.stop()

    def one_chunk_peak(n):
        columns = _round_like_columns(n)  # made before tracing starts
        return traced([lambda: columns])[0]

    small = one_chunk_peak(10_000)
    large = one_chunk_peak(40_000)
    # a block as long as most of the larger table would take about 3x
    assert large <= 1.25 * small

    # chunks of one block each, every one made only when _csv asks for it
    monkeypatch.setattr(cli, "_CSV_CHUNK", 2048)
    makers = [lambda seed=seed: _round_like_columns(2048, seed) for seed in range(4)]
    piece = len("".join(cli._csv([], [makers[0]()])))
    traced(makers[:1])  # warms first-call allocations
    one, _ = traced(makers[:1])
    four, held = traced(makers)
    # the previous piece or its cells, held while the next block is formatted,
    # would add a whole piece or more
    assert four <= one + piece // 2
    # nothing of the previous chunk, piece or cells is held while the next chunk is made
    assert max(held[1:]) <= held[0] + piece // 16


def test_write_holds_no_piece_once_written(tmp_path):
    # the first piece, certify's first stack of reports, stayed referenced until
    # the file was complete
    run = cli._Run(argparse.Namespace(out_dir=str(tmp_path)))
    held = []

    def pieces():
        for _ in range(3):
            held.append(tracemalloc.get_traced_memory()[0])
            yield "x" * 1_000_000

    tracemalloc.start()
    try:
        run.write("t.txt", pieces())
    finally:
        tracemalloc.stop()
    assert max(held[1:]) - held[0] < 100_000
    assert (tmp_path / "t.txt").stat().st_size == 3_000_000


def test_certify_memory_does_not_grow_with_the_grid(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "_BAND_CHUNK", 256)

    def peak_bytes(k):
        tracemalloc.start()
        try:
            code, _, _ = run_cli(["certify", "--grid", str(k), "--out-dir", str(tmp_path)], capsys)
            assert code == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    # 529 and 2116 points, at least two full stacks of points in either run; the
    # untimed first run builds the parser and warms first-call caches
    peak_bytes(23)
    small = peak_bytes(23)
    large = peak_bytes(46)
    # every report or the whole JSON text held at once would take about 4x
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
    # runs that dump their rounds have the lower cap, which bounds the size of
    # rounds.csv; both caps fire before any chunk stream is opened
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


@pytest.mark.parametrize("dump", [["--dump-rounds"], []], ids=["dump", "no-dump"])
def test_simulate_abort_on_loss_opens_no_chunk_stream(tmp_path, capsys, monkeypatch, dump):
    def no_rounds(self, *args):
        raise AssertionError("the rounds' random stream was opened")

    monkeypatch.setattr(RandomStream, "generator", no_rounds)
    monkeypatch.setattr(RandomStream, "chunk_generator", no_rounds)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("eta_a = 0.4\neta_min = 0.5\n")
    out = tmp_path / "out"
    code, _, err = run_cli(["simulate", "--config", str(cfg), "--out-dir", str(out), *dump],
                           capsys)
    assert code == 1
    assert _one_json_error(err)["error"] == "abort-loss"
    assert not out.exists()


def test_dump_rounds_memory_does_not_grow_with_n_rounds(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(protocol, "_CHUNK_ROUNDS", 4096)
    cfg = tmp_path / "run.cfg"

    def peak_bytes(n):
        cfg.write_text(f"coalition = abc\nn_rounds = {n}\nseed = 61\n")
        argv = ["simulate", "--config", str(cfg), "--out-dir", str(tmp_path), "--dump-rounds"]
        tracemalloc.start()
        try:
            code, _, _ = run_cli(argv, capsys)
            assert code == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    # the untimed first run builds the parser and warms first-call caches
    peak_bytes(4 * 4096 + 100)
    small = peak_bytes(4 * 4096 + 100)
    large = peak_bytes(4 * (4 * 4096 + 100))
    # a round table of the whole run would take about 4x the small run's rows
    assert large <= 1.1 * small


@pytest.mark.parametrize("failing", ["second-chunk", "too-few-usable-rounds"])
def test_dump_rounds_failure_leaves_no_file(tmp_path, capsys, monkeypatch, failing):
    # the run raises after rounds.csv holds rows: on drawing the second chunk, or
    # when every kept round went to the witness and bias subsets
    monkeypatch.setattr(protocol, "_CHUNK_ROUNDS", 512)
    out = tmp_path / "out"
    config = "coalition = abc\nn_rounds = 2000\n"
    if failing == "second-chunk":
        chunk_generator = RandomStream.chunk_generator

        def fail_second(self, i):
            if i == 1:
                assert (out / "rounds.csv").stat().st_size > 0
                raise ProtocolFailureError("the second chunk failed")
            return chunk_generator(self, i)

        monkeypatch.setattr(RandomStream, "chunk_generator", fail_second)
    else:
        config += "witness_fraction = 0.5\nbias_fraction = 0.5\n"
        write = cli._Run.write

        def written(self, name, pieces):
            write(self, name, pieces)
            if name == "rounds.csv":
                assert (out / "rounds.csv").stat().st_size > 0

        monkeypatch.setattr(cli._Run, "write", written)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(config)
    code, _, err = run_cli(
        ["simulate", "--config", str(cfg), "--out-dir", str(out), "--dump-rounds"], capsys)
    assert code == 1
    assert _one_json_error(err)["error"] == "protocol-failure"
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, key",
    [
        (["witness", "--r", "1", "--n-rounds", "20000", "--seed", "3", "--surrogate",
          "--alpha-x", "1e20", "--alpha-p", "1e20"], "alpha_x"),
        (["witness", "--alpha-p=-2e6"], "alpha_p"),
        (["simulate", "--config", "{cfg}"], "alpha_x"),
        (["simulate", "--config", "{cfg_v}"], "v_dist"),
        (["state", "--alpha-x", "2e6"], "alpha_x"),
        (["state", "--alpha-p=-2e6"], "alpha_p"),
    ],
    ids=["witness-surrogate-1e20", "witness-alpha-p", "simulate-ab-1e20", "simulate-v-dist",
         "state-alpha-x", "state-alpha-p"],
)
def test_displacement_beyond_alpha_max_is_rejected(tmp_path, capsys, argv, key):
    # at |alpha| = 1e20 the displacement's round-off swamps the shot noise: the
    # surrogate (a separable state) read entangled and the ab MSE read 0; state took
    # any finite displacement and wrote mean 2000000.0 at --alpha-x 2e6
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
         [(security, "MseDistribution"), (security, "security_probabilities")],
         cli.MAX_SWEEP_PROBES),
        (["mi", "--v-dist", "2", "--mu-single", "8", "--mu-pair", "5.83", "--mu-triple", "4",
          "--n-max", "1000000000"],
         [(security, "mutual_information"), (security, "MseDistribution")],
         cli.MAX_SWEEP_PROBES),
        (["certify", "--grid", "100000"],
         [(cli.np, "linspace"), (certificates, "certificate_columns")],
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


# Runs one process's work in a fresh interpreter and prints the cvshare and scipy
# modules it loaded, with the exit code and the sha256 of each file it wrote. The
# work is a module name for a bare import of that module, [] for an import of the
# CLI, or a command line that main runs after that import.
_LOADED_MODULES_SCRIPT = """
import contextlib, hashlib, importlib, io, json, sys
from pathlib import Path

def loaded(package):
    return sorted(m for m in sys.modules if m == package or m.startswith(package + "."))

out, work = Path(sys.argv[1]), json.loads(sys.argv[2])
code, files = None, {}
if isinstance(work, str):
    importlib.import_module(work)
else:
    import cvshare.cli
    if work:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cvshare.cli.main(work + ["--out-dir", str(out)])
        files = {f.name: hashlib.sha256(f.read_bytes()).hexdigest()
                 for f in sorted(out.iterdir())}
print(json.dumps({"cvshare": loaded("cvshare"), "scipy": loaded("scipy"), "code": code,
                  "files": files}))
"""

#: the modules import cvshare.cli loads, and so every subcommand with it
_CLI_MODULES = ["cvshare", "cvshare.cli", "cvshare.errors", "cvshare.estimators",
                "cvshare.gaussian_core"]
_RUN_CFG = "r = 1.0\ncoalition = abc\nn_rounds = 2000\nseed = 5\n"


@pytest.mark.parametrize(
    "work, layers",
    [
        ("cvshare", ["cvshare"]),
        ("cvshare.security", ["cvshare", "cvshare.errors", "cvshare.security"]),
        ([], []),
        (["state", "--r", "1"], []),
        (["bounds", "--steps", "4"], ["bounds"]),
        (["bounds", "--steps", "4", "--band", "gaussian", "--band-samples", "3"],
         ["bounds", "sampler"]),
        (["certify", "--n1", "0.5", "--n2", "0.5"], ["bounds", "certificates"]),
        (["simulate", "--config", "{cfg}"], ["protocol", "sampler"]),
        (["witness", "--n-rounds", "2000", "--seed", "3"], ["protocol", "sampler"]),
        (SWEEP_OUTPUT_SHA256["security"][0], ["security"]),
        (SWEEP_OUTPUT_SHA256["mi"][0], ["security"]),
    ],
    ids=["import-cvshare", "import-security", "import-cli", "state", "bounds", "bounds-band",
         "certify", "simulate", "witness", "security", "mi"],
)
def test_each_process_loads_only_the_layers_it_runs(tmp_path, work, layers):
    # a bare import of a module loads the package modules listed, and a subcommand
    # loads the CLI's modules and the layers it runs, nothing more; no process
    # loads scipy, since security and mi compute their gamma functions with numpy
    # and math
    cfg = tmp_path / "run.cfg"
    cfg.write_text(_RUN_CFG)
    if not isinstance(work, str):
        work = [str(cfg) if a == "{cfg}" else a for a in work]
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-c", _LOADED_MODULES_SCRIPT, str(tmp_path / "out"),
                           json.dumps(work)], env=env, capture_output=True, text=True,
                          timeout=120, check=False)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["scipy"] == []
    if isinstance(work, str):
        assert report["cvshare"] == layers
    else:
        assert report["cvshare"] == sorted(_CLI_MODULES + [f"cvshare.{m}" for m in layers])
    if layers == ["security"]:
        assert report["code"] == 0
        for name, want in SWEEP_OUTPUT_SHA256[work[0]][1].items():
            assert report["files"][name] == want, name
    else:
        assert report["code"] in (None, 0)


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


def test_traced_runs_match_untraced_runs():
    # perfbench's counters read what these calls return and bind their parameters
    # by name: estimate returns one array, witness_estimate a pair, and
    # batch_mse_distribution keeps n_probes_per_quadrature, n_batches and coalition
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    model = ExperimentModel(r=1.0, eta_a=0.9, eps_c=0.05)

    def runs():
        return (
            protocol.run_protocol(model, protocol.DisplacementPlan.fixed(0.5, -0.5), 2000,
                                  Coalition.ABC, protocol.ProtocolPolicy(), RandomStream(5)),
            protocol.witness_verification_run(model, 0.5, -0.5, 1000, RandomStream(6)),
            protocol.batch_mse_distribution(model, Coalition.AB, 5, 100, RandomStream(7)),
            estimators.estimate(Coalition.AB, {"x_a": [1.0, 2.0], "x_b": [0.5, 0.0]},
                                estimators.GainSet(0.5, 0.0), "x"),
        )

    plain = runs()
    original = protocol.run_protocol
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.job = 0
        traced = runs()
    finally:
        tracer.uninstall()
    spans, counters = tracer.take()
    assert protocol.run_protocol is original
    (run, witness, batch, est), (run_t, witness_t, batch_t, est_t) = plain, traced
    assert run_t.mse_report == run.mse_report
    assert run_t.witness == run.witness and run_t.bias == run.bias
    for name in protocol.ROUND_COLUMNS:
        assert np.array_equal(getattr(run_t.records, name), getattr(run.records, name),
                              equal_nan=True), name
    assert witness_t == witness
    assert np.array_equal(batch_t, batch)
    assert np.array_equal(est_t, est)
    assert len(spans) > 0
    assert counters["protocol.rounds"] == 2000 + 1000 + 2 * 5 * 100
    assert counters["protocol.records"] == 2000
    # one fold of the witness weights, the combinations of the 3 x 3 identity's rows, in
    # the run and in the verification run: neither estimates a round, as both draw their
    # witness errors from the law of the folded combination
    assert counters["estimators.values"] == 2 * 2 * 3 + est.size


MI_ARGS = ["mi","--v-dist", "5", "--mu-single", "8", "--mu-pair", "5.83", "--mu-triple", "4",
           "--n-max", "2"]
#: input files that are not UTF-8, by their name under the test's directory; each
#: was a UnicodeDecodeError traceback with exit 1
_UNDECODABLE = {"config.bin": b"\xff\xfe", "state.bin": b"\xff"}


@pytest.mark.parametrize(
    "argv",
    [
        ["bounds", "--steps", "2", "--band", "gaussian", "--band-samples", "0"],
        ["bounds", "--steps", "2", "--band", "uniform", "--band-samples", "-3"],
        MI_ARGS + ["--c-bits", "2000"],
        ["state", "--load", "{dir}"],
        ["simulate", "--config", "{dir}"],
        ["state", "--load", "{dir}/state.bin"],
        ["simulate", "--config", "{dir}/config.bin"],
    ],
    ids=["band-samples-0", "band-samples-negative", "mi-c-bits-2000", "state-load-dir",
         "simulate-config-dir", "state-load-not-utf8", "simulate-config-not-utf8"],
)
def test_bad_input_is_one_line_json_error(tmp_path, capsys, argv):
    for name, data in _UNDECODABLE.items():
        (tmp_path / name).write_bytes(data)
    argv = [a.replace("{dir}", str(tmp_path)) for a in argv]
    code, _, err = run_cli(argv + ["--out-dir", str(tmp_path / "out")], capsys)
    assert code == 2
    assert "Traceback" not in err
    lines = err.strip().splitlines()
    assert len(lines) == 1
    payload = json.loads(lines[0])
    assert payload["error"] == "invalid-argument"
    assert payload["message"]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv",
                         [["state", "--load", "{file}"], ["simulate", "--config", "{file}"]],
                         ids=["state-load", "simulate-config"])
def test_input_read_error_names_the_file(tmp_path, capsys, monkeypatch, argv):
    # an OSError while reading an input is the one-line usage error, not a traceback
    path = tmp_path / "input.txt"
    path.write_text("r = 1.0\n")

    def failing_open(*args, **kwargs):
        raise OSError(errno.EIO, "Input/output error")

    monkeypatch.setattr(cli, "open", failing_open, raising=False)
    argv = [a.replace("{file}", str(path)) for a in argv]
    code, _, err = run_cli(argv + ["--out-dir", str(tmp_path / "out")], capsys)
    assert code == 2
    payload = _one_json_error(err)
    assert payload["error"] == "invalid-argument"
    assert str(path) in payload["message"]
    assert "Input/output error" in payload["message"]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("line, row, message", [
    (3, "0.0 0.0 0.0 0.0 0.0", "wrong row length in state text, line 3: expected 6 entries, got 5"),
    (6, "0.0 0.0 1.0 0.0 0.0", "wrong row length in state text, line 6: expected 6 entries, got 5"),
    (9, "0.0 0.0 0.0 0.0 0.0 1.0 0.0",
     "wrong row length in state text, line 9: expected 6 entries, got 7"),
    (7, "0.0 0.0 0.0 1.0 0.0 x", "non-numeric entry in state text, line 7"),
], ids=["short-mean", "short-cov", "long-cov", "non-numeric"])
def test_load_names_the_bad_row(tmp_path, capsys, monkeypatch, line, row, message):
    # a three-mode state whose mean row is line 3, after a blank line 2; a covariance
    # row of 5 of its 6 entries read "non-numeric entry in state text"
    monkeypatch.chdir(tmp_path)
    lines = ["3", "", "0.0 " * 5 + "0.0"] + [
        " ".join("1.0" if j == i else "0.0" for j in range(6)) for i in range(6)]
    lines[line - 1] = row
    Path("state.txt").write_text("\n".join(lines) + "\n")
    code, _, err = run_cli(["state", "--load", "state.txt", "--out-dir", "out"], capsys)
    assert code == 2
    assert _one_json_error(err) == {"error": "unsupported-state", "message": message}
    assert not Path("out").exists()


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["bounds", "--steps", "abc"], "--steps"),
        (["bounds", "--no-such-flag", "1"], "--no-such-flag"),
        (["state", "--r"], "--r"),
        (["simulate"], "--config"),
    ],
    ids=["steps-abc", "unknown-flag", "r-no-value", "missing-config"],
)
def test_malformed_command_line_is_one_line_json_error(tmp_path, capsys, argv, flag):
    # argparse used to print its usage text and no JSON
    code, _, err = run_cli(argv + ["--out-dir", str(tmp_path / "out")], capsys)
    assert code == 2
    payload = _one_json_error(err)
    assert payload["error"] == "invalid-argument"
    assert flag in payload["message"]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["state", "--alpha-x", "-1e-3"], None),
        (["witness", "--n-rounds", "200", "--alpha-p", "-2.5E+0"], None),
        (["state", "--alpha-p", "-.5e1"], None),
        (["state", "--r", "-inf"], "r must be finite and >= 0"),
        (["state", "--r", "-1e-3"], "r must be finite and >= 0"),
        (["state", "--alpha-x", "-NaN"], "displacement must be finite"),
        (["witness", "--alpha-x", "-Infinity"], "alpha_x must be finite"),
        (["bounds", "--r-min", "-1e-3"], f"--r-min must be {cli._R_RULE}"),
        (["witness", "--seed", "-1e3"], "argument --seed: invalid int value: '-1e3'"),
        # the library's check of the seed read "seed must be ...", which names no flag of
        # bounds
        (["bounds", "--steps", "2", "--band", "gaussian", "--band-seed", "-1"],
         "--band-seed must be a 64-bit unsigned integer"),
    ],
    ids=["alpha-x-exponent", "alpha-p-signed-exponent", "alpha-p-leading-dot", "r-minus-inf",
         "r-exponent", "alpha-x-minus-nan", "alpha-x-minus-infinity", "r-min-exponent",
         "seed-exponent", "band-seed-negative"],
)
def test_negative_values_reach_their_own_check(tmp_path, capsys, argv, message):
    # argparse took a negative number with an exponent, -inf or -nan for an option,
    # so the flag read "expected one argument"
    code, _, err = run_cli(argv + ["--out-dir", str(tmp_path / "out")], capsys)
    if message is None:
        assert code == 0, err
        return
    assert code == 2
    assert _one_json_error(err) == {"error": "invalid-argument", "message": message}


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
        (["certify", "--grid", "3", "--tol", "1e308"], "--tol"),
        (["certify", "--grid", "3", "--tol", "1.000001"], "--tol"),
        (["bounds", "--steps", "2", "--eta-a", "1e-308"], "eta_a"),
        (["bounds", "--steps", "2", "--eta-c", "9.99999e-13"], "eta_c"),
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
        (["security", "--mu-single", "5e-324", "--mu-pair", "5", "--mu-triple", "4",
          "--n-probes", "10"], "--mu-single"),
        (["security", "--mu-single", "1e-310", "--mu-pair", "5", "--mu-triple", "4",
          "--n-probes", "10"], "--mu-single"),
        (["mi", "--v-dist", "5", "--mu-single", "5e-324", "--mu-pair", "5", "--mu-triple", "4"],
         "--mu-single"),
        (["mi", "--v-dist", "5", "--mu-single", "1e-310", "--mu-pair", "5", "--mu-triple", "4"],
         "--mu-single"),
        (["certify", "--grid", "3", "--grid-min", "-1"], "--grid-min"),
        (["certify", "--grid", "3", "--grid-min", "nan"], "--grid-min"),
        (["certify", "--grid", "3", "--grid-max", "inf"], "--grid-max"),
        (["certify", "--n1", "-1", "--n2", "0"], "--n1"),
        (["certify", "--n1", "0.5", "--n2", "nan"], "--n2"),
        (["certify", "--n1", "0.5", "--n2", "1.5e12"], "--n2"),
        (["security", "--mu-single", "8", "--mu-pair", "5", "--mu-triple", "4",
          "--n-probes", "10", "--v-t", "1e308"], "--v-t"),
        (["security", "--mu-single", "8", "--mu-pair", "5", "--mu-triple", "4",
          "--n-probes", "10", "--v-t", "-1"], "--v-t"),
        (["security", "--mu-single", "8", "--mu-pair", "5", "--mu-triple", "4",
          "--n-probes", "10", "--v-t", "nan"], "--v-t"),
    ],
    ids=["tol-nan", "tol-negative", "tol-1e308", "tol-above-one", "bounds-eta-a-1e-308",
         "bounds-eta-c-below-eta-min", "r-max-inf", "r-min-nan", "r-min-negative",
         "security-mu-single-1e308", "security-mu-triple-0", "mi-mu-triple-nan",
         "mi-mu-pair-nan", "mi-mu-single-above-1e12", "security-mu-single-5e-324",
         "security-mu-single-1e-310", "mi-mu-single-5e-324", "mi-mu-single-1e-310",
         "certify-grid-min-negative", "certify-grid-min-nan", "certify-grid-max-inf",
         "certify-n1-negative", "certify-n2-nan", "certify-n2-above-thermal-max",
         "security-v-t-1e308", "security-v-t-negative", "security-v-t-nan"],
)
@pytest.mark.filterwarnings("error")
def test_out_of_range_flag_is_named(tmp_path, capsys, argv, flag):
    # --tol nan and -1 printed "0/1 certificates ok", --r-max inf warned on
    # stderr, and the --mu-* errors blamed v_t, v_alpha or an unnamed mu; a
    # tiny --mu-* underflowed mu / N, and mi at 1e-310 exited 0 with a warning;
    # the certify values named no flag, and --v-t 1e308 exited 0 with a warning;
    # --tol 1e308 overflowed the eigenvalue check and --eta-a 1e-308 the
    # predicted MSEs, each exiting 0 with numpy overflow warnings
    code, _, err = run_cli(argv + ["--out-dir", str(tmp_path / "out")], capsys)
    assert code == 2
    payload = _one_json_error(err)
    assert payload["error"] == "invalid-argument"
    assert flag in payload["message"]
    if flag.startswith("--r-"):
        assert "R_MAX = 8.0" in payload["message"]
    if flag.startswith("eta_"):
        assert "ETA_MIN = 1e-12" in payload["message"]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("equal", ["--mu-pair", "--mu-triple"])
def test_equal_means_name_both_flags(tmp_path, capsys, equal):
    # "equal means have no crossing" named no flag
    mus = {"--mu-single": "8", "--mu-pair": "5", "--mu-triple": "4", equal: "8"}
    argv = ["security", *(a for kv in mus.items() for a in kv), "--n-probes", "10"]
    code, _, err = run_cli(argv + ["--out-dir", str(tmp_path / "out")], capsys)
    assert code == 2
    payload = _one_json_error(err)
    assert payload["error"] == "invalid-argument"
    assert "--mu-single" in payload["message"] and equal in payload["message"]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("v_t", ["1e12", "0"])
@pytest.mark.parametrize("mu_single", ["8", "1e-12"])
@pytest.mark.filterwarnings("error")
def test_v_t_at_its_bounds_runs(tmp_path, capsys, v_t, mu_single):
    # --v-t 1e308 overflowed v_t * N / mu; at 1e12 over a mean of 1e-12 it stays finite
    argv = ["security", "--mu-single", mu_single, "--mu-pair", "5", "--mu-triple", "1e-12",
            "--n-probes", "10", "--v-t", v_t, "--out-dir", str(tmp_path)]
    code, _, err = run_cli(argv, capsys)
    assert code == 0, err
    for rep in read_json(tmp_path / "security.json"):
        assert 0.0 <= rep["delta"] <= 1.0 and 0.0 <= rep["p_success"] <= 1.0


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


@pytest.mark.parametrize("r", ["0", "8"])
@pytest.mark.filterwarnings("error")
def test_transmissivity_down_to_eta_min_runs(tmp_path, capsys, r):
    # ETA_MIN on every arm, with the largest excess noise on each arm too
    arms = [f"--{q}-{arm}={v}" for arm in "abc" for q, v in (("eta", "1e-12"), ("eps", "1e12"))]
    for argv in (["state", "--r", r, *arms], ["bounds", "--r-min", r, "--r-max", r, *arms],
                 ["witness", "--r", r, "--n-rounds", "2000", *arms]):
        code, _, err = run_cli(argv + ["--out-dir", str(tmp_path / "out")], capsys)
        assert code == 0, (argv, err)
        assert err == ""


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


# sha256 of the witness subcommand's witness.json, plain and with --surrogate, from
# stream layout 7: one normal per round, its sd the norm of the witness weights over the
# Cholesky factor's normals
WITNESS_OUTPUT_SHA256 = {
    False: "9c5ee13598d6c188ae155a4d60553dc5230a0d1f446d89e3ef6c1b6b82ac95c4",
    True: "d4c4a7483270e01a9f2e4d80cbca99d190e3251e01a3ac4f0332df026cf1e610",
}


@pytest.mark.parametrize("surrogate", sorted(WITNESS_OUTPUT_SHA256), ids=["plain", "surrogate"])
def test_witness_output_bytes_pinned(tmp_path, capsys, surrogate):
    argv = ["witness", "--r", "1.2", "--eta-a", "0.9", "--n-rounds", "5000", "--seed", "3",
            "--out-dir", str(tmp_path)]
    code, _, _ = run_cli(argv + ["--surrogate"] * surrogate, capsys)
    assert code == 0
    digest = hashlib.sha256((tmp_path / "witness.json").read_bytes()).hexdigest()
    assert digest == WITNESS_OUTPUT_SHA256[surrogate]


def test_witness_under_loss_reads_a_large_secret_as_entangled(tmp_path, capsys):
    # A's outcome carries sqrt(eta_A) alpha and the witness subtracts sqrt(eta_A) alpha/sqrt(2);
    # it subtracted alpha/sqrt(2), so this run read mse_sum 156.5 and not entangled
    argv = ["witness", "--eta-a", "0.5", "--alpha-x", "30", "--alpha-p", "30", "--n-rounds",
            "200000", "--seed", "9", "--out-dir", str(tmp_path)]
    code, _, _ = run_cli(argv, capsys)
    assert code == 0
    payload = read_json(os.path.join(str(tmp_path), "witness.json"))
    assert payload["status"] == "ok" and payload["entangled"] is True
    assert payload["mse_sum"] < 4.0 - 5.0 * payload["standard_error"]


def test_out_dir_env_fallback(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("CVSHARE_OUT_DIR", str(tmp_path))
    code, _, _ = run_cli(["certify", "--n1", "1.0", "--n2", "1.0"], capsys)
    assert code == 0
    assert os.path.exists(os.path.join(str(tmp_path), "certificates.json"))


def test_the_shared_parser_answers_like_a_fresh_one(tmp_path, capsys, monkeypatch):
    # one interleaved sequence of runs, once with the parser main shares and once
    # with a parser built afresh for every run: exit codes, stdout, stderr and every
    # output byte must agree. $CVSHARE_OUT_DIR is set only once the shared parser
    # exists, and the run must still write there
    out, cwd = tmp_path / "out", tmp_path / "cwd"
    cfg = tmp_path / "run.cfg"
    cfg.write_text("coalition = ab\nn_rounds = 2000\n")
    model = ["--r", "0.9", "--eta-b", "0.8"]
    runs = [
        (["state", *model, "--alpha-x", "0.4", "--out-dir", str(out / "state")], None),
        (["--help"], None),
        (["bounds", "--steps", "3", "--band", "uniform", "--band-samples", "9",
          "--out-dir", str(out / "bounds")], None),
        (["bounds", "--steps", "0", "--out-dir", str(out / "range")], None),
        (["state", "--load", str(out / "state" / "state.txt"), "--out-dir", str(out / "load")],
         None),
        (["bounds", "--help"], None),
        (["certify", "--n1", "0.5", "--n2", "0.5"], out / "env"),
        (["certify", "--grid", "3", "--out-dir", str(out / "certify")], None),
        (["certify", "--help"], None),
        (["bounds", "--steps", "abc", "--out-dir", str(out / "type")], None),
        (["simulate", "--config", str(cfg), "--out-dir", str(out / "simulate")], None),
        (["simulate", "--help"], None),
        (["nope"], None),
        (["security", *MU_ARGS, "--n-probes", "5", "--out-dir", str(out / "security")], None),
        (["security", "--help"], None),
        ([], None),
        (["mi", "--v-dist", "5", *MU_ARGS, "--n-max", "5", "--out-dir", str(out / "mi")], None),
        (["mi", "--help"], None),
        (["witness", *model, "--eta-a", "0", "--out-dir", str(out / "rejected")], None),
        (["witness", *model, "--n-rounds", "2000", "--out-dir", str(out / "witness")], None),
        (["witness", "--help"], None),
        (["state", "--help"], None),
        (["state", *model], None),
        (["--version"], None),
    ]

    def answers(fresh):
        for path in (out, cwd):
            shutil.rmtree(path, ignore_errors=True)
        cwd.mkdir()
        monkeypatch.chdir(cwd)
        cli.build_parser.cache_clear()
        seen = []
        for argv, env_dir in runs:
            if env_dir is None:
                monkeypatch.delenv(cli.OUT_DIR_ENV, raising=False)
            else:
                monkeypatch.setenv(cli.OUT_DIR_ENV, str(env_dir))
            if fresh:
                cli.build_parser.cache_clear()
            try:
                code = main(argv)
            except SystemExit as exc:
                code = f"SystemExit({exc.code})"
            captured = capsys.readouterr()
            seen.append((argv, code, captured.out, captured.err))
        files = {str(p.relative_to(tmp_path)): p.read_bytes()
                 for root in (out, cwd) for p in sorted(root.rglob("*")) if p.is_file()}
        return seen, files

    shared = answers(fresh=False)
    assert cli.build_parser.cache_info().misses == 1
    fresh = answers(fresh=True)
    assert shared[0] == fresh[0]
    assert shared[1] == fresh[1]
    assert "out/env/certificates.json" in shared[1]
    assert "cwd/state.txt" in shared[1]
    assert not (out / "rejected").exists()
    assert {code for _, code, _, _ in shared[0]} == {0, 2, "SystemExit(0)"}


def _out_dir_cases(tmp_path):
    (tmp_path / "a_file").write_text("")
    (tmp_path / "taken" / "certificates.json").mkdir(parents=True)
    return {
        "existing-file": str(tmp_path / "a_file"),
        "under-a-file": str(tmp_path / "a_file" / "sub"),
        "empty": "",
        "output-is-a-directory": str(tmp_path / "taken"),
    }


@pytest.mark.parametrize("case", ["existing-file", "under-a-file", "empty",
                                  "output-is-a-directory"])
def test_unwritable_out_dir_is_one_line_json_error(tmp_path, capsys, case):
    path = _out_dir_cases(tmp_path)[case]
    code, _, err = run_cli(["certify", "--n1", "1.0", "--n2", "1.0", "--out-dir", path], capsys)
    assert code == 1
    payload = _one_json_error(err)
    assert payload["error"] == "output-error"
    assert "--out-dir" in payload["message"] and repr(path) in payload["message"]


def test_failed_output_removes_the_outputs_already_written(tmp_path, capsys):
    # bias.json is the third report simulate writes; the two before it must not stay
    cfg = tmp_path / "run.cfg"
    cfg.write_text("r = 1.0\ncoalition = ab\nn_rounds = 1000\nseed = 5\n")
    out = tmp_path / "out"
    (out / "bias.json").mkdir(parents=True)
    code, _, err = run_cli(["simulate", "--out-dir", str(out), "--config", str(cfg)], capsys)
    assert code == 1
    payload = _one_json_error(err)
    assert payload["error"] == "output-error" and "'bias.json'" in payload["message"]
    assert sorted(p.name for p in out.iterdir()) == ["bias.json"]
    assert (out / "bias.json").is_dir()
    assert not (out / "manifest.json").exists()


# a command line rejected after the output directory is made, and its error message
_REJECTED_RUNS = {
    "witness-eta-a-0": (["witness", "--eta-a", "0"], "eta_a must be in [ETA_MIN = 1e-12, 1]"),
    "witness-n-rounds-5": (["witness", "--n-rounds", "5"], "n_rounds must be >= 200"),
    "state-eps-b-negative": (["state", "--eps-b", "-1"], "eps_b must be in [0, EPS_MAX = 1e+12]"),
    "state-load-missing": (["state", "--load", "missing.txt"],
                           "state file not found: missing.txt"),
    "simulate-n-rounds-5": (["simulate", "--config", "n_rounds = 5"], "n_rounds must be >= 10"),
    "simulate-gain-mode-bogus": (["simulate", "--config", "gain_mode = bogus"],
                                 "gain_mode must be 'analytic' or 'fitted'"),
}


def _rejected_argv(tmp_path, case):
    """The case's command line, with a --config value written to a file first."""
    argv, message = _REJECTED_RUNS[case]
    if "--config" in argv:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(argv[-1] + "\n")
        argv = [*argv[:-1], str(cfg)]
    return argv, message


@pytest.mark.parametrize("case", sorted(_REJECTED_RUNS))
def test_rejected_run_leaves_no_out_dir(tmp_path, capsys, monkeypatch, case):
    monkeypatch.chdir(tmp_path)
    argv, message = _rejected_argv(tmp_path, case)
    out = tmp_path / "made" / "out"
    code, _, err = run_cli([*argv, "--out-dir", str(out)], capsys)
    assert code == 2
    assert _one_json_error(err)["message"] == message
    # the run made both levels, and removes both
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.cfg"] * ("--config" in argv)


@pytest.mark.parametrize("case", sorted(_REJECTED_RUNS))
def test_rejected_run_keeps_an_out_dir_that_was_there(tmp_path, capsys, monkeypatch, case):
    monkeypatch.chdir(tmp_path)
    argv, _ = _rejected_argv(tmp_path, case)
    for out in (tmp_path / "empty", tmp_path / "full"):
        out.mkdir()
    (tmp_path / "full" / "mine.txt").write_text("kept")
    for out in (tmp_path / "empty", tmp_path / "full"):
        code, _, _ = run_cli([*argv, "--out-dir", str(out)], capsys)
        assert code == 2
    assert not any((tmp_path / "empty").iterdir())
    assert [p.name for p in (tmp_path / "full").iterdir()] == ["mine.txt"]


def test_unwritable_out_dir_from_the_environment_is_named(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("CVSHARE_OUT_DIR", _out_dir_cases(tmp_path)["existing-file"])
    code, _, err = run_cli(["state", "--r", "1.0"], capsys)
    assert code == 1
    assert "CVSHARE_OUT_DIR" in _one_json_error(err)["message"]


# sha256 of analytic simulate's reports per (coalition, plan), in chunks of 512
# rounds, from stream layout 7, which draws the exact laws of what the reports read
# and no displacement: each coalition's two plans give the same reports. A one-pass
# run estimates with the analytic gain, so a fitted run's drawing must not move these
SIMULATE_REPORTS_SHA256 = {
    ("a_alone", "fixed"): ("7e7cec3c4f9b3de8080411902e7a1745a1995169af37aa7e4edc6f11d5a2794d",
                           "6c976a5b4e380e4af40ac994503154a19b05e30472dab8b29230a6c019404799",
                           "373267225e54f38e267224dc043cb79da2c2f692a427c9f85ea415c66e2ea70e"),
    ("ab", "fixed"): ("7cd353c7488185a5b3db651d829c678907bae462c55335485d9892a7759a3b55",
                      "ab4b2c5e0911d3b09babc858baeb5c3915a7d2ac03daf0217248996a85c804e5",
                      "66518465b3b46923f4603a8874a9eb4b8c7300a175446066d8abf6fe603f53b8"),
    ("ac", "fixed"): ("a0ae509196c248660e9336609e767ce6135f67b942b35c70b2cd4ad527389f7d",
                      "2e77b18ec93be43ddfa72129c1a024ea9381c1ab39cb6d0aed39be518f2f19d5",
                      "6e4ee0205798f3261fc046857c2d64c46703c2757914cff2fab394a6ba7437b1"),
    ("abc", "fixed"): ("677de62b31d49ae5d35ba01035b8489b29de62b243fafad93610b95924cbebc1",
                       "1a362bad9272cc086df72d35287708b3e429a2403f51356873e415d0bd8fb82b",
                       "93b04b1ace4ad455aa9173253e106550eeec6d5e56cbf71cdfde13d86481d443"),
    ("a_alone", "gaussian"): ("7e7cec3c4f9b3de8080411902e7a1745a1995169af37aa7e4edc6f11d5a2794d",
                              "6c976a5b4e380e4af40ac994503154a19b05e30472dab8b29230a6c019404799",
                              "373267225e54f38e267224dc043cb79da2c2f692a427c9f85ea415c66e2ea70e"),
    ("ab", "gaussian"): ("7cd353c7488185a5b3db651d829c678907bae462c55335485d9892a7759a3b55",
                         "ab4b2c5e0911d3b09babc858baeb5c3915a7d2ac03daf0217248996a85c804e5",
                         "66518465b3b46923f4603a8874a9eb4b8c7300a175446066d8abf6fe603f53b8"),
    ("ac", "gaussian"): ("a0ae509196c248660e9336609e767ce6135f67b942b35c70b2cd4ad527389f7d",
                         "2e77b18ec93be43ddfa72129c1a024ea9381c1ab39cb6d0aed39be518f2f19d5",
                         "6e4ee0205798f3261fc046857c2d64c46703c2757914cff2fab394a6ba7437b1"),
    ("abc", "gaussian"): ("677de62b31d49ae5d35ba01035b8489b29de62b243fafad93610b95924cbebc1",
                          "1a362bad9272cc086df72d35287708b3e429a2403f51356873e415d0bd8fb82b",
                          "93b04b1ace4ad455aa9173253e106550eeec6d5e56cbf71cdfde13d86481d443"),
}


@pytest.mark.parametrize("coalition, plan", sorted(SIMULATE_REPORTS_SHA256))
def test_analytic_simulate_reports_pinned(tmp_path, capsys, monkeypatch, coalition, plan):
    monkeypatch.setattr(protocol, "_CHUNK_ROUNDS", 512)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        f"r = 1.2\neta_a = 0.85\neta_b = 0.9\neps_c = 0.05\nplan = {plan}\n"
        f"alpha_x = 0.5\nalpha_p = -0.25\nv_dist = 1.5\nn_rep = 3\n"
        f"coalition = {coalition}\nn_rounds = 3000\nseed = 13\n"
    )
    out = tmp_path / "out"
    code, _, _ = run_cli(["simulate", "--out-dir", str(out), "--config", str(cfg)], capsys)
    assert code == 0
    names = ("mse_report.json", "bias.json", "witness.json")
    got = tuple(hashlib.sha256((out / name).read_bytes()).hexdigest() for name in names)
    assert got == SIMULATE_REPORTS_SHA256[(coalition, plan)]


# sha256 of fitted simulate's mse_report.json and bias.json for the pairs, in the
# setup of SIMULATE_REPORTS_SHA256, from stream layout 7: the calibration and
# estimation scatters drawn as Bartlett Wisharts
FITTED_PAIR_REPORTS_SHA256 = {
    ("ab", "fixed"): ("696189652f5deb7c615929b93c69083a05719a026209ac1824787b1de95750e6",
                      "f4e1b0523f21abd65c7ecff5d9e2073e296cc07cb56f943639f519506c63fa8b"),
    ("ab", "gaussian"): ("696189652f5deb7c615929b93c69083a05719a026209ac1824787b1de95750e6",
                         "f4e1b0523f21abd65c7ecff5d9e2073e296cc07cb56f943639f519506c63fa8b"),
    ("ac", "fixed"): ("9f925d65f25372f2f4dd4936e940522851b04f34f4d12ba07d5e7847451991d2",
                      "a79b86f33918f1a4ffb24766cba5d8d4b58e209b50cc5e4211cdb64422a2296c"),
    ("ac", "gaussian"): ("9f925d65f25372f2f4dd4936e940522851b04f34f4d12ba07d5e7847451991d2",
                         "a79b86f33918f1a4ffb24766cba5d8d4b58e209b50cc5e4211cdb64422a2296c"),
}


@pytest.mark.parametrize("coalition, plan", sorted(FITTED_PAIR_REPORTS_SHA256))
def test_fitted_pair_reports_pinned(tmp_path, capsys, monkeypatch, coalition, plan):
    monkeypatch.setattr(protocol, "_CHUNK_ROUNDS", 512)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        f"r = 1.2\neta_a = 0.85\neta_b = 0.9\neps_c = 0.05\nplan = {plan}\n"
        f"alpha_x = 0.5\nalpha_p = -0.25\nv_dist = 1.5\nn_rep = 3\n"
        f"coalition = {coalition}\nn_rounds = 3000\nseed = 13\ngain_mode = fitted\n"
    )
    out = tmp_path / "out"
    code, _, _ = run_cli(["simulate", "--out-dir", str(out), "--config", str(cfg)], capsys)
    assert code == 0
    got = tuple(hashlib.sha256((out / name).read_bytes()).hexdigest()
                for name in ("mse_report.json", "bias.json"))
    assert got == FITTED_PAIR_REPORTS_SHA256[(coalition, plan)]


# sha256 of batch_mse_distribution's values per coalition, 7 probes x 300 batches in
# chunks of 128 batches (two full and one of 44), from stream layout 7: one gamma draw
# per batch and quadrature, scaled by twice the squared norm of the weights over the
# Cholesky factor's normals
BATCH_VALUES_SHA256 = {
    "a_alone": "c94c6ea4be19c90611ec1e388bbcafc6812fc6fc8e4a98926cea8d315ed49137",
    "ab": "c9afdc29ee2373f49c64217570dbca7ea7421380060f1e43e0b08030342be944",
    "ac": "64df675ab2ab6749178de83deba27dbdebd6ad794dc26063f48b520336521094",
    "abc": "a9ff1fececcf4b56ac8720e7e5cb88a0c22a7e24566a7bb798e6f212ff67c0e6",
}


@pytest.mark.parametrize("coalition", sorted(BATCH_VALUES_SHA256))
def test_batch_values_pinned(monkeypatch, coalition):
    monkeypatch.setattr(protocol, "_CHUNK_ROUNDS", 128)
    model = ExperimentModel(r=1.2, eta_a=0.85, eta_b=0.9, eps_c=0.05)
    values = protocol.batch_mse_distribution(model, Coalition(coalition), 7, 300, RandomStream(13))
    assert hashlib.sha256(values.tobytes()).hexdigest() == BATCH_VALUES_SHA256[coalition]


# sha256 of each subcommand's manifest.json, run from the working directory with
# relative --out-dir, --config and --load so the recorded arguments hold on any
# machine; from the writer whose handlers each ended with a manifest call
MANIFEST_SHA256 = {
    "state": (["state", "--r", "0.5", "--alpha-x", "0.3"],
              "feefe7961e7f91736b0b53691f91bc698b331cf1813a5eea49d783503bdf3d03"),
    "state-load": (["state", "--load", "dealer.txt"],
                   "a85f15aa8d7642fc06d867c907a92111333cb319b90e34362beada51258b5774"),
    "bounds": (["bounds", "--steps", "4", "--band", "uniform", "--band-samples", "5"],
               "f1d00310f655737220c9b5cea7d0e7177ed30a212f078b4d80261785f0bf30cc"),
    "certify": (["certify", "--grid", "3"],
                "ba143e7b8595f2a755f56cc3a97b2780c758be70f274e827510b693077c50fe1"),
    "simulate": (["simulate", "--config", "run.cfg", "--dump-rounds"],
                 "0221bf884c3efcf248bb86b6353fe529a840d7649ef5ccfc76c846e28a8cddaf"),
    "security": (["security", *MU_ARGS, "--n-probes", "5"],
                 "5cc9aa63394f51596b24559f5642c862bed7119596eea59c6211441bc0e9ce25"),
    "mi": (["mi", "--v-dist", "5", *MU_ARGS, "--n-max", "5"],
           "ba872b7bc5353e2ff05223895bc7e400f03b4a536db58adf96716485afb998fd"),
    "witness": (["witness", "--n-rounds", "400", "--seed", "2"],
                "49ae1fe6a8c96194a6f298bf7a34eece870a5642714574de93641ba651302241"),
}


def test_manifest_bytes_pinned(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    Path("dealer.txt").write_text("1\n0.0 0.0\n1.0 0.0\n0.0 1.0\n")
    Path("run.cfg").write_text("coalition = ab\nn_rounds = 400\nseed = 3\n")
    for case, (argv, want) in MANIFEST_SHA256.items():
        out = Path("out", case)
        code, _, _ = run_cli(argv + ["--out-dir", str(out)], capsys)
        assert code == 0, case
        manifest = (out / "manifest.json").read_bytes()
        assert hashlib.sha256(manifest).hexdigest() == want, case
        # the manifest lists every other file the run wrote
        assert json.loads(manifest)["outputs"] == sorted(
            p.name for p in out.iterdir() if p.name != "manifest.json"), case


def test_sampled_manifests_name_the_stream_layout(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("coalition = ab\nn_rounds = 1000\n")
    runs = {"simulate": ["simulate", "--config", str(cfg)],
            "witness": ["witness", "--n-rounds", "1000"], "bounds": ["bounds", "--steps", "2"]}
    for name, argv in runs.items():
        code, _, _ = run_cli(argv + ["--out-dir", str(tmp_path / name)], capsys)
        assert code == 0
        manifest = read_json(os.path.join(str(tmp_path / name), "manifest.json"))
        assert manifest.get("stream_layout") == (
            None if name == "bounds" else protocol.STREAM_LAYOUT), name


def test_manifest_lists_arguments(tmp_path, capsys):
    out = str(tmp_path)
    run_cli(["bounds", "--out-dir", out, "--steps", "2"], capsys)
    manifest = read_json(os.path.join(out, "manifest.json"))
    assert manifest["arguments"]["steps"] == 2
    assert manifest["subcommand"] == "bounds"
    assert "timestamp" not in manifest
    assert sorted(manifest["outputs"]) == manifest["outputs"]


# edge values and, about as often, ordinary ones
_FUZZ_FLOATS = st.one_of(
    st.sampled_from(["nan", "inf", "-inf", "0", "-0", "1e308", "-1e308", "1e-308", "-1e-308"]),
    st.sampled_from(["0.02", "0.5", "0.9", "2", "6"]))
# sizes above a cap only reach the cap check, which runs before any allocation
_FUZZ_SIZES = st.one_of(st.sampled_from(["0", "-1", "-7", str(10**30)]),
                        st.sampled_from(["1", "2", "5"]))
_FUZZ_SEEDS = st.sampled_from(["0", "-1", "7", str(2**64 - 1), str(2**64), str(10**30)])


# path values, resolved under a fresh directory {root} that holds an empty file
# a_file, a file not_utf8 of bytes that are not UTF-8 and an empty directory a_dir:
# a missing path, a directory, a file, a file that is not text, a file where a
# directory is expected, and the empty string
_FUZZ_PATHS = st.sampled_from(["{root}/missing", "{root}/a_dir", "{root}/a_file",
                               "{root}/not_utf8", "{root}/a_file/sub", ""])
# rounds of a witness run: below its minimum, at its edges and above the cap
_FUZZ_ROUNDS = st.one_of(_FUZZ_SIZES, st.sampled_from(["399", "400", "1999", "2000"]))
# a bare flag, given without a value
_FUZZ_SWITCH = st.none()
# integers the library checks: seeds, and rounds of a witness or simulate run
_FUZZ_COUNTS = st.one_of(_FUZZ_SEEDS, _FUZZ_ROUNDS)
# every word a config key takes, and words none takes
_FUZZ_WORDS = st.sampled_from(["fixed", "gaussian", "a_alone", "ab", "ac", "abc", "bc",
                               "analytic", "fitted", "", "#"])


def _subcommands():
    """The parser of each subcommand, by name, as build_parser declares them."""
    parser = cli.build_parser()
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


def _bound_cases(kind):
    """(value, accepted) at each finite end of a _Bounded type: the end, accepted
    unless ``ends`` marks it open, and then the float just inside it instead; the
    float just outside it; and for an int flag the integer just outside it."""
    cases = []
    for end, mark, out in ((kind.lo, kind.ends[0], -math.inf), (kind.hi, kind.ends[1], math.inf)):
        if math.isinf(end):
            continue
        closed = mark in "[]"
        cases += [(end, closed), (math.nextafter(end, out), False)]
        if not closed:
            cases.append((math.nextafter(end, -out), True))
        if kind.cast is int:
            cases.append((end + (1 if out > 0 else -1), False))
    return [(str(value), accepted) for value, accepted in cases]


def _flag_strategy(action):
    """The values a flag is fuzzed with, read off its declaration: none for a
    switch, its choices, a path where it takes text, and otherwise numbers by its
    type, with the edges of a bounded flag's range."""
    if action.nargs == 0:
        return _FUZZ_SWITCH
    if action.choices:
        return st.sampled_from(action.choices)
    if action.type is None:
        return _FUZZ_PATHS
    if isinstance(action.type, cli._Bounded):
        numbers = _FUZZ_FLOATS if action.type.cast is float else _FUZZ_SIZES
        return st.one_of(numbers, st.sampled_from([v for v, _ in _bound_cases(action.type)]))
    return _FUZZ_FLOATS if action.type is float else _FUZZ_COUNTS


# per subcommand, each flag it declares with its strategy
_FUZZ_FLAGS = {name: {action.option_strings[0]: _flag_strategy(action) for action in sub._actions
                      if not isinstance(action, argparse._HelpAction)}
               for name, sub in _subcommands().items()}
_MU_FLAGS = {"--mu-single": "8", "--mu-pair": "5.83", "--mu-triple": "4"}
# per subcommand (and form, after a "-"): a valid command line; a case may redraw
# any flag of _FUZZ_FLAGS. simulate reads {root}/run.cfg, written from the case's
# config keys over _FUZZ_CONFIG
_FUZZ_COMMANDS = {
    "bounds": {"--steps": "3"},
    "security": {**_MU_FLAGS, "--n-probes": "3"},
    "mi": {**_MU_FLAGS, "--v-dist": "5", "--n-max": "3"},
    "certify-point": {"--n1": "0.5", "--n2": "0.5"},
    "certify-grid": {"--grid": "3"},
    "state": {},
    "witness": {"--n-rounds": "400"},
    "simulate": {"--config": "{root}/run.cfg"},
}
_FUZZ_CONFIG = {"n_rounds": "2000"}
# a config value by the type of its key's default
_CONFIG_STRATEGIES = {float: _FUZZ_FLOATS, int: _FUZZ_COUNTS, str: _FUZZ_WORDS}


@st.composite
def _fuzz_argv(draw):
    """A valid command line of a _FUZZ_COMMANDS form, writing to the fresh
    {root}/out, with one to three flags redrawn, each given as --flag=value so that
    a negative value reaches its flag."""
    form = draw(st.sampled_from(sorted(_FUZZ_COMMANDS)))
    subcommand = form.split("-")[0]
    flags = _FUZZ_FLAGS[subcommand]
    redrawn = draw(st.lists(st.sampled_from(sorted(flags)), min_size=1, max_size=3, unique=True))
    values = {**_FUZZ_COMMANDS[form], "--out-dir": "{root}/out",
              **{flag: draw(flags[flag]) for flag in redrawn}}
    return [subcommand, *(flag if value is None else f"{flag}={value}"
                          for flag, value in values.items())]


@st.composite
def _fuzz_config(draw):
    """Up to three config keys, each redrawn by the type of its default."""
    keys = draw(st.lists(st.sampled_from(sorted(cli._CONFIG_DEFAULTS)), max_size=3, unique=True))
    return {key: draw(_CONFIG_STRATEGIES[type(cli._CONFIG_DEFAULTS[key])]) for key in keys}


def test_fuzz_has_a_command_line_for_every_subcommand():
    assert {form.split("-")[0] for form in _FUZZ_COMMANDS} == set(_FUZZ_FLAGS)


def _tree(root):
    return sorted((path, sorted(dirs), sorted(files)) for path, dirs, files in os.walk(root))


@settings(max_examples=350)
@given(argv=_fuzz_argv(), config=_fuzz_config())
# each exited 0 with numpy overflow warnings
@example(argv=["bounds", "--steps=3", "--eta-a=1e-308", "--out-dir={root}/out"], config={})
@example(argv=["certify", "--grid=3", "--tol=1e308", "--out-dir={root}/out"], config={})
# each left an empty --out-dir behind
@example(argv=["witness", "--eta-a=0", "--out-dir={root}/out"], config={})
@example(argv=["state", "--load={root}/a_file/sub", "--out-dir={root}/out"], config={})
# raised OverflowError with a traceback
@example(argv=["simulate", "--config={root}/run.cfg", "--out-dir={root}/out"],
         config={"plan": "gaussian", "n_rep": str(2**63)})
def test_cli_exits_cleanly_on_any_flag(argv, config):
    # pytest captures warnings, so an empty stderr would not show one
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as root, contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()), \
            warnings.catch_warnings(record=True) as caught:
        (Path(root) / "a_file").write_text("")
        (Path(root) / "not_utf8").write_bytes(b"\xff\xfe")
        (Path(root) / "a_dir").mkdir()
        (Path(root) / "run.cfg").write_text(
            "".join(f"{key} = {value}\n" for key, value in {**_FUZZ_CONFIG, **config}.items()))
        before = _tree(root)
        warnings.simplefilter("always")
        code = main([arg.replace("{root}", root) for arg in argv])
        after = _tree(root)
    if code == 0:
        assert [str(w.message) for w in caught] == []
    else:
        assert code in (1, 2)
        payload = _one_json_error(err.getvalue())
        assert set(payload) == {"error", "message"}
        # a rejected run removes what it wrote and the directories it made
        assert after == before


# per subcommand, a command line on which every bound of each of its bounded flags
# runs; certify's --n1 and --n2 take the point form instead of the grid
_EDGE_COMMANDS = {
    "bounds": ["--steps", "2", "--r-min", "0", "--r-max", "8", "--band", "uniform",
               "--band-samples", "2"],
    "certify": ["--grid", "2"],
    "certify-point": ["--n1", "0.5", "--n2", "0.5"],
    "security": [*MU_ARGS, "--n-probes", "3"],
    "mi": [*MU_ARGS, "--v-dist", "5", "--n-max", "3"],
}
_BOUNDED_FLAGS = {(name, action.option_strings[0]): action.type
                  for name, sub in _subcommands().items() for action in sub._actions
                  if isinstance(action.type, cli._Bounded)}


@pytest.mark.parametrize("subcommand, flag", sorted(_BOUNDED_FLAGS),
                         ids=[f"{name}{flag}" for name, flag in sorted(_BOUNDED_FLAGS)])
@pytest.mark.filterwarnings("error")
def test_every_declared_bound_holds(tmp_path, capsys, subcommand, flag):
    # each finite end runs unless it is open, the float just outside it and NaN
    # are invalid-argument errors naming the flag
    kind = _BOUNDED_FLAGS[subcommand, flag]
    form = "certify-point" if flag in ("--n1", "--n2") else subcommand
    for value, accepted in [*_bound_cases(kind), ("nan", False)]:
        argv = [subcommand, *_EDGE_COMMANDS[form], f"{flag}={value}", "--out-dir",
                str(tmp_path / "out")]
        code, _, err = run_cli(argv, capsys)
        if accepted:
            assert code == 0, (value, err)
            continue
        assert code == 2, value
        payload = _one_json_error(err)
        assert payload["error"] == "invalid-argument"
        assert flag in payload["message"]
        if kind.cast is float or value.lstrip("-").isdigit():
            assert payload["message"] == f"{flag} must be {kind.rule}"
