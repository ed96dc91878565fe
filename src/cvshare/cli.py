"""Command-line interface: one executable exposing every pipeline.

Each run writes its outputs plus a manifest.json recording the tool
version, backend, subcommand and full argument set, and for the sampled
subcommands (simulate, witness) the random-stream layout. All JSON is
emitted with sorted keys and no timestamps, so the same arguments and
inputs give byte-identical outputs. A manifest records an input file by
its path, not its contents, so the manifests of ``simulate`` (its
``--config``) and ``state --load`` cannot replay their runs yet: a file
changed at that path gives other outputs under the same manifest.

Exit codes: 0 on success, 2 on argument and configuration errors,
1 on runtime failures (abort on loss, protocol failure, an output
directory or file that cannot be written); failures print one
machine-readable JSON object on stderr, and remove the files and the
directories the run made.

The CLI owns parsing, the run's files (:class:`_Run`), the generic CSV and
JSON writers and its own sweep tables; state.txt, certificates.json and
rounds.csv are laid out where their types live.

Importing this module loads numpy, ``errors``, ``estimators`` and
``gaussian_core``, which hold what every subcommand reads, the parser's
flag ranges included. Each handler imports the layers it runs on its
first call: ``bounds`` (and ``sampler`` for a band), ``certificates``,
``protocol`` and ``sampler`` for ``simulate`` and ``witness``, and
``security`` for ``security`` and ``mi``. So one process loads only what
its subcommand runs.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import re
import sys

import numpy as np

from . import __version__, backend_name
from .errors import (
    CvshareError,
    InvalidArgumentError,
    OutputError,
    ResourceLimitError,
    check_scalar,
)
from .estimators import Coalition, parse_coalition
from .gaussian_core import (
    ALPHA_MAX,
    DEFAULT_TOL,
    R_MAX,
    THERMAL_MAX,
    ExperimentModel,
    build_dealer_state,
    physicality_min_eigenvalue,
    state_from_text,
    state_to_text,
)

OUT_DIR_ENV = "CVSHARE_OUT_DIR"


def _json_text(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _cells(col) -> list[str]:
    """One table column as CSV cells: repr for floats ("" for NaN, an
    unmeasured outcome), true/false for bools, strings as they are, str
    for the rest. A float column whose values all share the first one's
    bits is formatted once; bits, not ==, since -0.0 == 0.0."""
    col = np.asarray(col)
    if col.dtype.kind == "f":
        bits = col.view(f"u{col.itemsize}")
        if len(col) > 1 and (bits == bits[0]).all():
            return _cells(col[:1]) * len(col)
        return [repr(v) if v == v else "" for v in col.tolist()]
    values = col.tolist()
    if col.dtype == bool:
        return ["true" if v else "false" for v in values]
    return values if col.dtype.kind == "U" else list(map(str, values))


#: table rows formatted at a time, which bounds the per-cell strings held at once;
#: also the probe counts of a security or mi sweep computed at a time
_CSV_CHUNK = 4096
#: grid points, band r-samples or certificate points evaluated at a time, which
#: bounds the covariance or certificate stack held at once
_BAND_CHUNK = 4096
#: caps on the work of the closed-form subcommands, checked before anything is
#: allocated; at each cap a run took, on a 2-core x86-64 host, about 22 s (bounds),
#: 3 s (certify), 1.7 s (mi) and 1.1 s (security).
#: Dealer covariances of ``bounds``: --steps x (1 + --band-samples)
MAX_BOUNDS_POINTS = 1_000_000
#: sweep length of ``security`` (--n-probes) and ``mi`` (--n-max)
MAX_SWEEP_PROBES = 100_000
#: (n1, n2) points of ``certify --grid K``: K squared
MAX_CERTIFY_POINTS = 100_000
#: largest accepted --mu-* of ``security`` and ``mi`` (a mean summed MSE), the
#: scale of EPS_MAX and of v_dist; far larger means overflow the thresholds
MU_MAX = 1e12
#: smallest accepted --mu-*; far smaller means underflow the per-probe MSE mu / N
#: and overflow the tail integrals
MU_MIN = 1.0 / MU_MAX


class _Bounded:
    """The argparse type of a flag with an accepted range: ``cast`` of the text,
    which must lie in [lo, hi], strict at an end that ``ends`` marks open with
    "(" or ")", as :func:`~cvshare.errors.check_scalar` checks it. Out of range it
    raises the InvalidArgumentError "{flag} must be {rule}", which argparse lets
    through to main. Named after ``cast``, so text ``cast`` rejects reads "invalid
    int value"."""

    def __init__(self, flag: str, cast: type, rule: str, lo: float, hi: float = math.inf,
                 ends: str = "[]"):
        self.flag, self.cast, self.rule = flag, cast, rule
        self.lo, self.hi, self.ends = lo, hi, ends
        self.__name__ = cast.__name__

    def __call__(self, text: str):
        return check_scalar(self.flag, self.cast(text), self.rule, self.lo, self.hi, self.ends,
                            integer=self.cast is int)


def _read_input(path: str, what: str) -> str:
    """Text of a UTF-8 input file; a missing path, a directory, text that is not
    UTF-8 or a failed read is a usage error naming the file."""
    if not os.path.exists(path):
        raise InvalidArgumentError(f"{what} not found: {path}")
    if os.path.isdir(path):
        raise InvalidArgumentError(f"{what} is a directory: {path}")
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise InvalidArgumentError(
            f"{what} is not UTF-8 text: {path} (byte {exc.start}: {exc.reason})") from None
    except OSError as exc:
        raise InvalidArgumentError(f"cannot read {what}: {path}: {exc.strerror or exc}") from None


def _csv(header, chunks):
    """A CSV table as text pieces: the header line, then the rows of each column chunk,
    at most _CSV_CHUNK at a time. A suspended generator keeps its locals, so each
    block's cells, each yielded piece and each chunk are dropped before the next is
    made."""
    yield ",".join(header) + "\n"
    for columns in chunks:
        for start in range(0, len(columns[0]), _CSV_CHUNK):
            cells = [_cells(col[start : start + _CSV_CHUNK]) for col in columns]
            text = "\n".join(map(",".join, zip(*cells))) + "\n"
            del cells
            yield text
            del text
        del columns


class _Run:
    """The one writer of a subcommand run's files. Used as ``with _Run(args) as run``:
    :meth:`write` streams each output, and ``outputs`` lists the files opened so
    far. When the block ends without an exception, the run writes manifest.json,
    so the manifest is always the last file written. A run that raises, or fails to
    write, removes its files and the directories it made, so a rejected run leaves
    nothing behind; a directory that was there stays."""

    def __init__(self, args: argparse.Namespace, stream_layout: int | None = None):
        self.out_dir = args.out_dir
        self.args = args
        self.stream_layout = stream_layout
        self.outputs: list[str] = []
        # the directories of out_dir that do not exist yet, deepest first
        self.made: list[str] = []
        path = self.out_dir
        while path and not os.path.lexists(path):
            self.made.append(path)
            path = os.path.dirname(path)
        with self._output():
            os.makedirs(self.out_dir, exist_ok=True)

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc_type is not None:
            self._discard()
            return
        manifest = {
            "tool": "cvshare",
            "version": __version__,
            "backend": backend_name(),
            "subcommand": self.args.subcommand,
            "arguments": {k: v for k, v in sorted(vars(self.args).items()) if k != "handler"},
            "outputs": sorted(self.outputs),
        }
        if self.stream_layout is not None:
            manifest["stream_layout"] = self.stream_layout
        self.write("manifest.json", _json_text(manifest))

    def _discard(self) -> None:
        for name in self.outputs:
            with contextlib.suppress(OSError):
                os.remove(os.path.join(self.out_dir, name))
        for path in self.made:
            with contextlib.suppress(OSError):
                os.rmdir(path)

    @contextlib.contextmanager
    def _output(self, name: str | None = None):
        """Report an OSError from making the output directory, or from opening or
        writing the output file ``name``, as an OutputError naming the path, after
        removing what the run wrote so far."""
        try:
            yield
        except OSError as exc:
            self._discard()
            what = f"output {name!r} in " if name else ""
            raise OutputError(f"cannot write {what}--out-dir (or {OUT_DIR_ENV}) "
                              f"{self.out_dir!r}: {exc.strerror or exc}") from None

    def write(self, name: str, pieces) -> None:
        """Write a text, or an iterable of text pieces as they come, to the file
        ``name``. The file is opened once the first piece is ready, so a run that
        fails before then leaves none; no piece is held once it is written."""
        pieces = iter([pieces] if isinstance(pieces, str) else pieces)
        first = next(pieces, "")
        with self._output(name), open(os.path.join(self.out_dir, name), "w", newline="") as fh:
            self.outputs.append(name)
            fh.write(first)
            del first
            fh.writelines(pieces)


def _add_out_dir(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--out-dir",
        default=None,
        help=f"output directory (default: ${OUT_DIR_ENV} or the working directory)",
    )


def _add_model_flags(sub: argparse.ArgumentParser, with_r: bool = True) -> None:
    if with_r:
        sub.add_argument("--r", type=float, default=1.0, help="squeezing parameter")
    for arm in ("a", "b", "c"):
        sub.add_argument(f"--eta-{arm}", type=float, default=1.0, help=f"arm {arm.upper()} transmissivity")
        sub.add_argument(f"--eps-{arm}", type=float, default=0.0, help=f"arm {arm.upper()} excess noise")


def _model_from_args(args: argparse.Namespace, r: float | None = None) -> ExperimentModel:
    """The model of the --r (or ``r``), --eta-* and --eps-* flags, or of a config's keys."""
    arms = {f"{q}_{arm}": getattr(args, f"{q}_{arm}") for q in ("eta", "eps") for arm in "abc"}
    return ExperimentModel(r=args.r if r is None else r, **arms)


def _cmd_state(args: argparse.Namespace) -> None:
    with _Run(args) as run:
        if args.load is not None:
            state = state_from_text(_read_input(args.load, "state file"))
        else:
            state = build_dealer_state(_model_from_args(args), args.alpha_x, args.alpha_p)
            run.write("state.txt", state_to_text(state))
    print(f"modes: {state.n_modes}")
    print(f"mean: {' '.join(repr(float(v)) for v in state.mean)}")
    print(f"min physicality eigenvalue: {physicality_min_eigenvalue(state):.6e}")


def _cmd_bounds(args: argparse.Namespace) -> None:
    from . import bounds

    if args.r_max < args.r_min:
        raise InvalidArgumentError("need --r-min <= --r-max")
    points = args.steps
    if args.band is not None:
        points *= 1 + args.band_samples
    if points > MAX_BOUNDS_POINTS:
        raise ResourceLimitError(
            f"--steps x (1 + --band-samples) = {points} exceeds the cap of {MAX_BOUNDS_POINTS}"
        )
    # the arms of every grid point; predicted_mse_grid does not read their r
    arms = _model_from_args(args, r=args.r_min)
    with _Run(args) as run:
        grid = np.linspace(args.r_min, args.r_max, args.steps)
        coalitions = list(Coalition)
        names = np.array([c.value for c in coalitions])

        def grid_chunks():
            # one row per (r, coalition), r-major
            for start in range(0, args.steps, _BAND_CHUNK):
                rs = grid[start : start + _BAND_CHUNK]
                mse = bounds.predicted_mse_grid(rs, arms)
                yield [np.repeat(rs, len(names)), np.tile(names, len(rs)),
                       *(np.stack([mse[c][k] for c in coalitions], axis=1).ravel()
                         for k in range(3))]

        run.write("bounds.csv", _csv(["r", "coalition", "mse_x", "mse_p", "mse_sum"],
                                     grid_chunks()))
        if args.band is not None:
            from .sampler import RandomStream

            gen = RandomStream(args.band_seed).generator()
            draw = gen.standard_normal if args.band == "gaussian" else functools.partial(
                gen.uniform, -1.0, 1.0)
            # whole grid points per stack, their samples drawn r-major as the stream runs;
            # a point of more than _BAND_CHUNK samples carries its min and max across stacks
            per = max(1, _BAND_CHUNK // args.band_samples)

            def band_chunks():
                for start in range(0, args.steps, per):
                    rs = grid[start : start + per, None]
                    lo, hi = math.inf, -math.inf
                    for s in range(0, args.band_samples, _BAND_CHUNK):
                        shape = (len(rs), min(_BAND_CHUNK, args.band_samples - s))
                        r_samples = np.clip(rs * (1.0 + args.band_fluct * draw(shape)), 0.0, R_MAX)
                        mse = bounds.predicted_mse_grid(r_samples.ravel(), arms)
                        # (point, coalition, sample)
                        sums = np.stack([mse[c][2].reshape(shape) for c in coalitions], axis=1)
                        lo, hi = np.minimum(lo, sums.min(axis=2)), np.maximum(hi, sums.max(axis=2))
                    yield [np.repeat(rs, len(names)), np.tile(names, len(rs)),
                           lo.ravel(), hi.ravel()]

            run.write("bounds_band.csv", _csv(["r", "coalition", "mse_sum_lo", "mse_sum_hi"],
                                              band_chunks()))
    print(f"wrote {args.steps * len(names)} bound rows for {args.steps} squeezing values")


def _cmd_certify(args: argparse.Namespace) -> None:
    from . import certificates

    single = args.n1 is not None or args.n2 is not None
    if single and args.grid is not None:
        raise InvalidArgumentError("--grid conflicts with --n1/--n2")
    if single and (args.n1 is None or args.n2 is None):
        raise InvalidArgumentError("--n1 and --n2 must be given together")
    if not single and args.grid is None:
        raise InvalidArgumentError("give --n1/--n2 or --grid K")
    if not single and args.grid**2 > MAX_CERTIFY_POINTS:
        raise ResourceLimitError(
            f"--grid {args.grid} asks for {args.grid**2} points, above the cap of "
            f"{MAX_CERTIFY_POINTS}"
        )
    with _Run(args) as run:
        if single:
            n1_axis, n2_axis = np.array([args.n1]), np.array([args.n2])
        else:
            n1_axis = n2_axis = np.linspace(args.grid_min, args.grid_max, args.grid)
        n_points = len(n1_axis) * len(n2_axis)
        n_ok = 0

        def pieces():
            # point k is (n1_axis[k // K], n2_axis[k % K]); the pieces join to the
            # _json_text of the list of every report
            nonlocal n_ok
            for start in range(0, n_points, _BAND_CHUNK):
                k = np.arange(start, min(start + _BAND_CHUNK, n_points))
                cols = certificates.certificate_columns(
                    n1_axis[k // len(n2_axis)], n2_axis[k % len(n2_axis)], tol=args.tol)
                ok = cols.feasible_primal & cols.feasible_dual & cols.values_match
                n_ok += np.count_nonzero(ok)
                yield ("[\n" if start == 0 else ",\n") + certificates.reports_to_text(cols)
            yield "\n]\n"

        run.write("certificates.json", pieces())
    print(f"{n_ok}/{n_points} certificates ok")


#: config keys with their defaults; each value is cast to its default's type
_CONFIG_DEFAULTS = {
    "r": 1.0,
    "eta_a": 1.0,
    "eta_b": 1.0,
    "eta_c": 1.0,
    "eps_a": 0.0,
    "eps_b": 0.0,
    "eps_c": 0.0,
    "plan": "fixed",
    "alpha_x": 1.0,
    "alpha_p": 1.0,
    "v_dist": 1.0,
    "n_rep": 1,
    "coalition": "abc",
    "n_rounds": 10000,
    "seed": 0,
    "stream_id": 0,
    "eta_min": 0.5,
    "witness_fraction": 0.05,
    "bias_fraction": 0.05,
    "gain_mode": "analytic",
}


def parse_config_text(text: str) -> dict:
    """Parse line-oriented ``key = value`` configuration with ``#`` comments."""
    values = dict(_CONFIG_DEFAULTS)
    seen = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InvalidArgumentError(f"config line {lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _CONFIG_DEFAULTS:
            raise InvalidArgumentError(f"config line {lineno}: unknown key {key!r}")
        if key in seen:
            raise InvalidArgumentError(f"config line {lineno}: duplicate key {key!r}")
        seen.add(key)
        caster = type(_CONFIG_DEFAULTS[key])
        try:
            values[key] = caster(value)
        except ValueError as exc:
            raise InvalidArgumentError(
                f"config line {lineno}: bad {caster.__name__} value {value!r}"
            ) from exc
    return values


def _cmd_simulate(args: argparse.Namespace) -> None:
    from . import protocol
    from .sampler import RandomStream

    cfg = parse_config_text(_read_input(args.config, "config file"))
    model = _model_from_args(argparse.Namespace(**cfg))
    plan = protocol.DisplacementPlan(kind=cfg["plan"], alpha_x=cfg["alpha_x"],
                                     alpha_p=cfg["alpha_p"], v_dist=cfg["v_dist"],
                                     n_rep=cfg["n_rep"])
    policy = protocol.ProtocolPolicy(eta_min=cfg["eta_min"],
                                     witness_fraction=cfg["witness_fraction"],
                                     bias_fraction=cfg["bias_fraction"])
    coalition = parse_coalition(cfg["coalition"])
    stream = RandomStream(cfg["seed"], cfg["stream_id"])
    with _Run(args, stream_layout=protocol.STREAM_LAYOUT) as run:
        if args.dump_rounds:
            # each chunk's table goes to rounds.csv as the chunk is drawn, and the reports
            # come from those rounds once the last is written
            rounds = protocol._ProtocolRun(model, plan, cfg["n_rounds"], coalition, policy,
                                           stream, cfg["gain_mode"], keep_records=True)
            run.write("rounds.csv", _csv(protocol.ROUND_COLUMNS,
                                          map(protocol.RoundTable.named_columns, rounds)))
            reports = rounds.reports
        else:
            reports = protocol.run_protocol(model, plan, cfg["n_rounds"], coalition, policy, stream,
                                            gain_mode=cfg["gain_mode"], keep_records=False)[1:]
        for name, report in zip(("mse_report.json", "witness.json", "bias.json"), reports):
            run.write(name, _json_text(report.to_json_dict()))
    rep = reports[0]
    print(
        f"coalition {rep.coalition.value}: mse_sum = {rep.mse_sum:.6f} "
        f"({rep.n_x}+{rep.n_p} rounds)"
    )


def _probe_chunks(n_max: int, names: np.ndarray, columns):
    """Sweep column chunks for N = 1..n_max, n-major with one row per (N, coalition):
    N, the coalition name, then the ``columns`` of an (n, 1) array of N, each of
    shape (n, len(names))."""
    for start in range(1, n_max + 1, _CSV_CHUNK):
        n = np.arange(start, min(start + _CSV_CHUNK, n_max + 1))
        yield [np.repeat(n, len(names)), np.tile(names, len(n)),
               *(np.ravel(col) for col in columns(n[:, None]))]


def _cmd_security(args: argparse.Namespace) -> None:
    from . import security

    if args.n_probes > MAX_SWEEP_PROBES:
        raise ResourceLimitError(f"--n-probes exceeds the cap of {MAX_SWEEP_PROBES}")
    mus = {"ab": ("--mu-pair", args.mu_pair), "abc": ("--mu-triple", args.mu_triple)}
    for flag, mu in mus.values():
        if args.v_t is None and mu == args.mu_single:
            raise InvalidArgumentError(
                f"--mu-single equals {flag}: equal means have no crossing, so give --v-t")
    v_ts = {name: security.crossing_threshold(args.mu_single, mu) if args.v_t is None
            else args.v_t for name, (_, mu) in mus.items()}
    with _Run(args) as run:
        names = np.array(list(mus))
        v_t = np.array(list(v_ts.values()))
        # v_t does not change with N, so its cells are formatted once
        v_t_cells = np.array([repr(v) for v in v_t.tolist()])
        # per coalition, the means of the lone party and of the coalition
        means = np.array([[args.mu_single, mu] for _, mu in mus.values()])

        def columns(n):
            # delta and p_success of every row in the chunk from one gamma-function call
            probs = security.mse_cdf_over_n(v_t[:, None], means, n[..., None])
            return np.broadcast_to(v_t_cells, probs.shape[:2]), probs[..., 0], probs[..., 1]

        run.write("security_sweep.csv",
                  _csv(["n_probes", "coalition", "v_t", "delta", "p_success"],
                       _probe_chunks(args.n_probes, names, columns)))
        # security.json holds the sweep's reports at N = --n-probes
        single = security.MseDistribution(args.mu_single, args.n_probes)
        reports = [security.security_probabilities(
            v_ts[name], single, security.MseDistribution(mu, args.n_probes), coalition_name=name
        ).to_json_dict() for name, (_, mu) in mus.items()]
        run.write("security.json", _json_text(reports))
    for rep in reports:
        print(
            f"{rep['coalition']}: v_t = {rep['v_t']:.6f}, delta = {rep['delta']:.6g}, "
            f"p_success = {rep['p_success']:.6g} at N = {rep['n_probes']}"
        )


def _cmd_mi(args: argparse.Namespace) -> None:
    from . import security

    if args.n_max > MAX_SWEEP_PROBES:
        raise ResourceLimitError(f"--n-max exceeds the cap of {MAX_SWEEP_PROBES}")
    req = security.required_mse(args.c_bits, args.v_dist)
    with _Run(args) as run:
        names = np.array(["a_alone", "ab", "abc"])
        mus = np.array([args.mu_single, args.mu_pair, args.mu_triple])

        def curve(n):
            # mean summed MSE mu/N; per-quadrature achieved MSE is half that
            v_alpha = 0.5 * mus / n
            return v_alpha, security.mutual_information(args.v_dist, v_alpha)

        def exceedance(n):
            # at least c bits takes a summed MSE of at most twice the per-quadrature target
            return (security.mse_cdf_over_n(2.0 * req, mus, n),)

        for name, header, columns in (
            ("mi_curve.csv", ["n_probes", "coalition", "mse_per_quadrature", "mi_bits"], curve),
            ("exceedance.csv", ["n_probes", "coalition", "p_exceed"], exceedance),
        ):
            run.write(name, _csv(header, _probe_chunks(args.n_max, names, columns)))
    print(f"required per-quadrature MSE for {args.c_bits} bits: {req:.6f}")


def _cmd_witness(args: argparse.Namespace) -> None:
    from . import protocol
    from .sampler import RandomStream

    with _Run(args, stream_layout=protocol.STREAM_LAYOUT) as run:
        result = protocol.witness_verification_run(
            _model_from_args(args),
            args.alpha_x,
            args.alpha_p,
            args.n_rounds,
            RandomStream(args.seed, args.stream_id),
            surrogate=args.surrogate,
        )
        run.write("witness.json", _json_text(result.to_json_dict()))
    shown = "n/a" if result.mse_sum is None else f"{result.mse_sum:.6f}"
    print(
        f"witness mse_sum = {shown} (threshold {result.threshold}), "
        f"entangled = {result.entangled}"
    )


#: what argparse takes for a negative number, not an option, so that the value of a
#: flag such as --alpha-x -1e-3 reaches its own check; argparse's own pattern has no
#: exponent, infinity or NaN
_NEGATIVE_NUMBER = re.compile(r"^-(\d+\.?\d*|\.\d+)(e[+-]?\d+)?$|^-(inf|infinity|nan)$",
                              re.IGNORECASE)


class _Parser(argparse.ArgumentParser):
    """Raises a malformed command line as an InvalidArgumentError, which main
    reports as the one-line JSON error."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NEGATIVE_NUMBER

    def error(self, message: str):
        raise InvalidArgumentError(message)

    def add_bounded(self, flag: str, cast: type, rule: str, lo: float, hi: float = math.inf,
                    ends: str = "[]", **kwargs) -> None:
        """Add ``flag`` with a _Bounded type, so its range is checked as it is parsed."""
        self.add_argument(flag, type=_Bounded(flag, cast, rule, lo, hi, ends), **kwargs)


#: accepted ranges, as the errors state them; --r, --eta-*, --eps-*, --alpha-*, witness
#: --seed and --stream-id, --n-rounds and --c-bits are left to the library, which checks
#: them under names that match the flags; --band-seed is declared here, since the
#: library's name for it, seed, would name no flag of bounds
_R_RULE = f"finite and in [0, R_MAX = {R_MAX}]"
_THERMAL_RULE = f"finite and in [0, THERMAL_MAX = {THERMAL_MAX:g}]"
_MU_RULE = f"in [{MU_MIN:g}, {MU_MAX:g}]"
_MU_FLAGS = ("--mu-single", "--mu-pair", "--mu-triple")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built once per process and shared, so callers only read
    it; that saves only a later main call in the same process. No default reads os.environ."""
    parser = _Parser(
        prog="cvshare",
        description="Simulator and analysis toolkit for three-party continuous-variable secret sharing",
    )
    parser.add_argument("--version", action="version", version=f"cvshare {__version__}")
    subs = parser.add_subparsers(dest="subcommand")

    sp = subs.add_parser("state", help="build or inspect a dealer state")
    _add_model_flags(sp)
    sp.add_argument("--alpha-x", type=float, default=0.0)
    sp.add_argument("--alpha-p", type=float, default=0.0)
    sp.add_argument("--load", default=None, help="validate a state file instead of building one")
    _add_out_dir(sp)
    sp.set_defaults(handler=_cmd_state)

    sp = subs.add_parser("bounds", help="theory MSE curves over a squeezing grid")
    sp.add_bounded("--r-min", float, _R_RULE, 0.0, R_MAX, default=0.0)
    sp.add_bounded("--r-max", float, _R_RULE, 0.0, R_MAX, default=1.5)
    sp.add_bounded("--steps", int, ">= 1", 1, default=16)
    _add_model_flags(sp, with_r=False)
    sp.add_argument("--band", choices=("uniform", "gaussian"), default=None,
                    help="also emit a squeezing-fluctuation band")
    sp.add_bounded("--band-fluct", float, "in [0, 1)", 0.0, 1.0, ends="[)", default=0.03)
    sp.add_bounded("--band-samples", int, ">= 1", 1, default=200)
    sp.add_bounded("--band-seed", int, "a 64-bit unsigned integer", 0, 2**64 - 1, default=0)
    _add_out_dir(sp)
    sp.set_defaults(handler=_cmd_bounds)

    sp = subs.add_parser("certify", help="verify estimation-bound certificates")
    sp.add_bounded("--n1", float, _THERMAL_RULE, 0.0, THERMAL_MAX, default=None)
    sp.add_bounded("--n2", float, _THERMAL_RULE, 0.0, THERMAL_MAX, default=None)
    sp.add_bounded("--grid", int, ">= 1", 1, default=None,
                   help="K for a K x K thermal-parameter grid")
    sp.add_bounded("--grid-min", float, _THERMAL_RULE, 0.0, THERMAL_MAX, default=0.1)
    sp.add_bounded("--grid-max", float, _THERMAL_RULE, 0.0, THERMAL_MAX, default=3.0)
    # a relative tolerance of 1 already admits an error as large as the value
    sp.add_bounded("--tol", float, "in [0, 1]", 0.0, 1.0, default=DEFAULT_TOL)
    _add_out_dir(sp)
    sp.set_defaults(handler=_cmd_certify)

    sp = subs.add_parser("simulate", help="run protocol rounds from a config file")
    sp.add_argument("--config", required=True, help="key = value configuration file")
    sp.add_argument("--dump-rounds", action="store_true",
                    help="also write rounds.csv; the reports then come from the dumped rounds")
    _add_out_dir(sp)
    sp.set_defaults(handler=_cmd_simulate)

    sp = subs.add_parser("security", help="threshold security probabilities")
    for flag in _MU_FLAGS:
        sp.add_bounded(flag, float, _MU_RULE, MU_MIN, MU_MAX, required=True)
    sp.add_bounded("--n-probes", int, ">= 1", 1, required=True)
    sp.add_bounded("--v-t", float, f"in [0, {MU_MAX:g}]", 0.0, MU_MAX, default=None,
                   help="access threshold (default: per-coalition crossing point)")
    _add_out_dir(sp)
    sp.set_defaults(handler=_cmd_security)

    sp = subs.add_parser("mi", help="mutual information and exceedance curves")
    # the same bound as a simulated modulation's v_dist; far larger values
    # overflow the exceedance curve
    v_dist_max = ALPHA_MAX**2
    sp.add_bounded("--v-dist", float, f"in (0, {v_dist_max:g}]", 0.0, v_dist_max, ends="(]",
                   required=True)
    sp.add_argument("--c-bits", type=float, default=1.0)
    for flag in _MU_FLAGS:
        sp.add_bounded(flag, float, _MU_RULE, MU_MIN, MU_MAX, required=True)
    sp.add_bounded("--n-max", int, ">= 1", 1, default=200)
    _add_out_dir(sp)
    sp.set_defaults(handler=_cmd_mi)

    sp = subs.add_parser("witness", help="entanglement verification run")
    _add_model_flags(sp)
    sp.add_argument("--alpha-x", type=float, default=0.0)
    sp.add_argument("--alpha-p", type=float, default=0.0)
    sp.add_argument("--n-rounds", type=int, default=2000)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--stream-id", type=int, default=0)
    sp.add_argument("--surrogate", action="store_true",
                    help="distribute the intercept-and-resend surrogate state instead")
    _add_out_dir(sp)
    sp.set_defaults(handler=_cmd_witness)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if not hasattr(args, "handler"):
            parser.print_usage(sys.stderr)
            return 2
        if args.out_dir is None:
            args.out_dir = os.environ.get(OUT_DIR_ENV, ".")
        args.handler(args)
    except CvshareError as exc:
        payload = {"error": exc.code, "message": str(exc)}
        sys.stderr.write(json.dumps(payload, sort_keys=True) + "\n")
        return 2 if isinstance(exc, InvalidArgumentError) else 1
    return 0


def console_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_entry()
