"""Command-line front end.

Subcommands dispatch the lab experiments and a few one-shot utilities.
One table, _COMMANDS, gives each subcommand its keys and their defaults;
its flags and the config keys it accepts both come from there.  Settings
resolve in three layers: built-in defaults, then a flat key=value
config file (--config), then explicit command-line flags.  Exit codes:
0 success, 1 an experiment assertion failed, 2 usage/config error.
"""

import argparse
import functools
import math
import sys

import numpy as np

from . import lab
from .coords import (EtaCoord, SimplexPoint, ThetaCoord, simplex_from_eta,
                     simplex_from_theta, to_eta, to_theta)
from .descent import DescentSpec, step
from .errors import SimplexFlowsError, WitnessNotFound
from .flows import (DT, SAMPLE_EVERY, FlowSpec, Trajectory, integrate,
                    natural_flow_exact)
from .geometry import curvature, kl
from .lab import fmt9
from .rng import make_rng, random_simplex_point
from .spectral import eigh, solve_lyapunov


# value parsers for every key a config file or flag may set
def _parse_grid(text):
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError("grid must be lo:hi:count")
    lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(f"grid bounds must be finite, got {lo}:{hi}")
    if count < 1 or lo <= 0 or hi < lo:
        raise ValueError("grid must satisfy 0 < lo <= hi, count >= 1")
    if count == 1 and hi != lo:
        raise ValueError(f"a grid of count 1 needs lo == hi, got {lo}:{hi}")
    return [lo] if count == 1 else list(np.linspace(lo, hi, count))


def _parse_floats(text):
    return [float(x) for x in text.split(",") if x.strip() != ""]


_KEY_TYPES = {
    "n": int, "seed": int, "inits": int, "tol": float,
    "out": str, "mode": str, "method": str, "grid": _parse_grid,
    "t_end": float, "dt": float, "sample_every": int, "n_samples": int,
    "minibatch": int, "decay_a": float, "max_iters": int,
    "c_values": _parse_floats, "budget": int, "box": float,
    "directions": int, "s_max": float, "s_count": int, "alpha": float,
    "kind": str, "n_seeds": int, "p": str, "q": str, "theta": str,
    "eta": str, "file": str,
}
_HELP = {"dt": "interval of the time grid the samples are taken on, and the "
               "first trial step; accuracy comes from the adaptive "
               "integrator's tolerances, not from dt"}


def load_config(path) -> dict:
    """Parse a flat key=value file ('#' starts a comment) into
    {key: (line number, value)}, so later checks can name file:line."""
    values = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key = value")
            key, val = (s.strip() for s in line.split("=", 1))
            key = key.replace("-", "_")
            if key not in _KEY_TYPES:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
            try:
                values[key] = (lineno, _KEY_TYPES[key](val))
            except ValueError as exc:
                raise ValueError(
                    f"{path}:{lineno}: malformed value for key {key!r}: {exc}"
                ) from exc
    return values


def _resolve(args, defaults):
    """defaults <- config file <- explicit flags, restricted to the
    command's keys (the keys of `defaults`)."""
    settings = dict(defaults)
    if args.config:
        for key, (lineno, val) in load_config(args.config).items():
            if key not in defaults:
                raise ValueError(f"{args.config}:{lineno}: config key {key!r} "
                                 f"does not apply to {args.command!r}")
            settings[key] = val
    for key in defaults:
        flag = getattr(args, key)
        if flag is not None:
            settings[key] = flag
    return settings


def _probs_arg(text):
    return SimplexPoint(np.array(_parse_floats(text)))


def _print_kv(key, value):
    if isinstance(value, (list, tuple, np.ndarray)):
        value = ",".join(fmt9(v) for v in value)
    elif isinstance(value, (float, int, np.floating, np.integer, bool, np.bool_)):
        value = fmt9(value)
    print(f"{key} = {value}")


def _report(summary, *keys):
    """Print the summary's assertions, then summary[key] for each key; the
    exit code is 0 when every assertion holds, else 1."""
    for key, val in summary["assertions"].items():
        _print_kv(key, val)
    for key in keys:
        _print_kv(key, summary[key])
    return 0 if all(bool(v) for v in summary["assertions"].values()) else 1


# ---------------------------------------------------------------------------
# subcommands: each takes the resolved settings of its keys in _COMMANDS


def _cmd_sandwich(s):
    summary = lab.sandwich_experiment(
        s["n"], s["inits"], s["seed"], t_end=s["t_end"], dt=s["dt"],
        sample_every=s["sample_every"], out_dir=s["out"] or None)
    return _report(summary, "natural_exact_max_err")


def _cmd_affine(s):
    rng = make_rng(s["seed"])
    q = random_simplex_point(rng, s["n"])
    p0 = random_simplex_point(rng, s["n"])
    summary = lab.affine_rate_experiment(s["c_values"], q, p0, dt=s["dt"],
                                         out_dir=s["out"] or None)
    for row in summary["rows"]:
        print(",".join(fmt9(v) for v in row))
    return _report(summary)


def _cmd_sweep(s):
    if s["grid"] is None:
        raise ValueError("sweep requires --grid lo:hi:count")
    summary = lab.lr_sweep(s["method"], s["grid"], s["inits"], s["tol"],
                           s["seed"], mode=s["mode"], n=s["n"],
                           n_samples=s["n_samples"], minibatch=s["minibatch"],
                           decay_a=s["decay_a"], max_iters=s["max_iters"],
                           out_dir=s["out"] or None)
    for lr, t in summary["rows"]:
        print(f"{fmt9(lr)},{t}")
    _print_kv("argmin_time", summary["argmin_time"])
    _print_kv("argmin_lrs", summary["argmin_lrs"])
    return 0


def _cmd_robustness(s):
    rng = make_rng(s["seed"])
    q = random_simplex_point(rng, s["n"])
    seeds = [s["seed"] * 1000 + i for i in range(s["n_seeds"])]
    summary = lab.robustness_experiment(s["kind"], q, seeds,
                                        out_dir=s["out"] or None)
    return _report(summary)


def _cmd_empirical(s):
    summary = lab.empirical_sandwich(s["n"], s["seed"], alpha=s["alpha"],
                                     n_samples=s["n_samples"],
                                     max_iters=s["max_iters"],
                                     out_dir=s["out"] or None)
    return _report(summary, "plateau_kl_q_qhat")


def _cmd_nonconvexity(s):
    try:
        witness = lab.nonconvexity_witness(_probs_arg(s["p"]), s["seed"],
                                           budget=s["budget"], box=s["box"])
    except WitnessNotFound as exc:
        print(f"witness_found = false  # {exc}")
        return 1
    _print_kv("witness_found", True)
    _print_kv("probes", witness["probes"])
    _print_kv("theta_a", witness["theta_a"])
    _print_kv("theta_b", witness["theta_b"])
    _print_kv("theta_mid", witness["theta_mid"])
    for key, val in witness["values"].items():
        _print_kv(key, val)
    return 0


def _cmd_sections(s):
    rng = make_rng(s["seed"])
    q = random_simplex_point(rng, s["n"])
    grid = np.linspace(-s["s_max"], s["s_max"], s["s_count"])
    summary = lab.local_sections(q, s["directions"], grid, seed=s["seed"],
                                 out_dir=s["out"] or None)
    return _report(summary)


def _cmd_convert(s):
    given = [x for x in (s["theta"], s["eta"], s["p"]) if x is not None]
    if len(given) != 1:
        raise ValueError("convert needs exactly one of --theta, --eta, --p")
    if s["theta"] is not None:
        point = simplex_from_theta(ThetaCoord(np.array(_parse_floats(s["theta"]))))
    elif s["eta"] is not None:
        point = simplex_from_eta(EtaCoord(np.array(_parse_floats(s["eta"]))))
    else:
        point = _probs_arg(s["p"])
    _print_kv("p", point.probs)
    _print_kv("eta", to_eta(point).eta)
    _print_kv("theta", to_theta(point).theta)
    return 0


def _cmd_kl(s):
    if s["q"] is None or s["p"] is None:
        raise ValueError("kl needs --q and --p")
    value = kl(_probs_arg(s["q"]), _probs_arg(s["p"]))
    _print_kv("kl", value)
    return 0


def _cmd_fit_rate(s):
    if s["file"] is None:
        raise ValueError("fit-rate needs --file with columns t,kl")
    data = np.loadtxt(s["file"], delimiter=",", skiprows=1, ndmin=2)
    if data.shape[1] < 2:
        raise ValueError("fit-rate file must have two columns: t,kl")
    traj = Trajectory(data[:, 0], data[:, 0][:, None], data[:, 1])
    fit = lab.fit_rate(traj)
    _print_kv("slope", fit.slope)
    _print_kv("intercept", fit.intercept)
    _print_kv("r_squared", fit.r_squared)
    _print_kv("window", fit.window)
    return 0


def _cmd_selftest(s):
    return _report({"assertions": run_selftest()})


def run_selftest() -> dict:
    """A fast sweep over core identities; every value must be True."""
    rng = make_rng(20240817)
    checks = {}
    p = random_simplex_point(rng, 4)
    q = random_simplex_point(rng, 4)
    checks["chart_roundtrip"] = bool(
        np.abs(simplex_from_theta(to_theta(p)).probs - p.probs).max() < 1e-12)
    from .geometry import bregman_phi, bregman_psi
    d_kl = kl(q, p)
    checks["three_way_divergence"] = bool(
        abs(bregman_psi(to_theta(p), to_theta(q)) - d_kl) < 1e-12
        and abs(bregman_phi(to_eta(q), to_eta(p)) - d_kl) < 1e-12)
    h1 = curvature("eta", p)
    h2 = curvature("theta", p)
    checks["hessians_mutually_inverse"] = bool(
        np.abs(h1 @ h2 - np.eye(p.n)).max() < 1e-10)
    dec = eigh(h1)
    checks["eigh_reconstruction"] = bool(
        np.abs(dec.vectors @ np.diag(dec.values) @ dec.vectors.T - h1).max()
        < 1e-9 * max(1.0, np.abs(h1).max()))
    pmat = solve_lyapunov(np.eye(3), 0.5).entries
    checks["lyapunov_fixed_point"] = bool(
        np.abs(0.25 * pmat + np.eye(3) - pmat).max() < 1e-12)
    e0, eq = to_eta(p), to_eta(q)
    one_step = step(DescentSpec("ngd", "linearized", q, p, 1.0), e0)
    checks["ngd_one_step"] = bool(np.array_equal(one_step.eta, eq.eta))
    spec = FlowSpec("Lq", "natural_eta", q, p)
    traj = integrate(spec, 1.0, sample_every=100)
    exact = natural_flow_exact(eq, e0, 1.0).eta
    checks["natural_flow_matches_exact"] = bool(
        np.abs(traj.states[-1] - exact).max() < 1e-8)
    return checks


# subcommand -> (runner, defaults).  The defaults' keys, in order, are the
# command's flags (underscores written as dashes) and its config keys.
_COMMANDS = {
    "sandwich": (_cmd_sandwich,
                 {"n": 2, "seed": 0, "inits": 100, "t_end": None, "dt": DT,
                  "sample_every": SAMPLE_EVERY, "out": ""}),
    "affine": (_cmd_affine,
               {"n": 2, "seed": 0, "c_values": [0.5, 1.0, 2.0], "dt": DT,
                "out": ""}),
    "sweep": (_cmd_sweep,
              {"method": "ngd", "grid": None, "mode": "full_batch", "n": 10,
               "seed": 0, "inits": 100, "tol": 1e-4, "n_samples": 100000,
               "minibatch": 1000, "decay_a": 1000.0, "max_iters": 100,
               "out": ""}),
    "robustness": (_cmd_robustness,
                   {"kind": "multiplicative", "n": 2, "seed": 0,
                    "n_seeds": 10, "out": ""}),
    "empirical": (_cmd_empirical,
                  {"n": 2, "seed": 0, "alpha": None, "n_samples": 100000,
                   "max_iters": 100, "out": ""}),
    "nonconvexity": (_cmd_nonconvexity,
                     {"seed": 0, "budget": 10000, "box": 8.0,
                      "p": "0.7,0.2,0.1"}),
    "sections": (_cmd_sections,
                 {"n": 2, "seed": 0, "directions": 8, "s_max": 0.2,
                  "s_count": 41, "out": ""}),
    "convert": (_cmd_convert, {"theta": None, "eta": None, "p": None}),
    "kl": (_cmd_kl, {"q": None, "p": None}),
    "fit-rate": (_cmd_fit_rate, {"file": None}),
    "selftest": (_cmd_selftest, {}),
}


def _flag_type(key):
    """The parser of key's flag: a malformed value names its reason, as in
    a config file, where argparse alone would print only the parser's name."""
    parse = _KEY_TYPES[key]

    def parse_flag(text):
        try:
            return parse(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(
                f"malformed value for key {key!r}: {exc}") from exc
    return parse_flag


@functools.cache  # one parser per process: a build takes about 1.4 ms
def _build_parser():
    parser = argparse.ArgumentParser(
        prog="simplex-flows",
        description="KL-divergence gradient flows and descent on the simplex")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_runner, defaults) in _COMMANDS.items():
        sp = sub.add_parser(name)
        sp.add_argument("--config")
        for key in defaults:
            sp.add_argument("--" + key.replace("_", "-"), dest=key,
                            type=_flag_type(key), help=_HELP.get(key))
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    runner, defaults = _COMMANDS[args.command]
    try:
        return runner(_resolve(args, defaults))
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SimplexFlowsError as exc:
        print(f"failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
