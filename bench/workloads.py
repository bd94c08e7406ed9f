"""The benchmark's three workloads as ordered lists of operations.

Every operation replays one documented invocation: a README CLI example or
an acceptance criterion's configuration.  The workload seed ``s`` is added
to each operation's documented seed, so ``s = 0`` replays the documented
settings exactly.  The program is driven only through ``cli.main(argv)``
and public library functions.

Library calls look functions up as module attributes at call time, so the
traced run's wrappers are the ones called.  Each operation names the checks
applied to its outcome (see checks.py).
"""

import os
import shlex
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

WORKLOADS = {
    "rate-sandwich": "batched flows: B = 100 rows per rhs call over auto "
                     "horizons; almost all time is flows.integrate_batch",
    "flow-paths": "the flows layer one point at a time with a sample every "
                  "step, plus the scalar geometry/coords witness scan",
    "descent-noise": "discrete descent sweeps, Monte Carlo covariance and "
                     "rate-bound eigenvalue pools; no calls into flows",
}

# README CLI examples, verbatim.  "--out results/" is replaced by the
# operation's own output directory.
README = {
    "selftest": "selftest",
    "convert": "convert --theta 0,0",
    "kl": "kl --q 0.3,0.3,0.4 --p 0.5,0.25,0.25",
    "sandwich": "sandwich --n 2 --inits 100 --seed 7 --out results/",
    "affine": "affine --n 2 --out results/",
    "sweep": "sweep --method ngd --grid 0.1:1.9:19 --mode full_batch --n 10",
    "robustness": "robustness --kind additive --n 2",
    "empirical": "empirical --n 10 --seed 0",
    "sections": "sections --n 2 --out results/",
    "nonconvexity": "nonconvexity --p 0.7,0.2,0.1",
    "fit-rate": "fit-rate --file curve.csv",
}

# CLI forms of acceptance-criterion configurations (tests/test_acceptance.py)
ACCEPTANCE = {
    "c03_sandwich_n10": "sandwich --n 10 --inits 100 --seed 0",
    "c10_sweep_gd_theta_full_batch":
        "sweep --method gd_theta --grid 1:30:30 --mode full_batch --n 10 "
        "--inits 100 --tol 1e-4",
    "c10_sweep_ngd_sgd":
        "sweep --method ngd --grid 0.1:1.9:19 --mode sgd --n 10 "
        "--inits 100 --tol 1e-2",
    "c10_sweep_gd_theta_sgd":
        "sweep --method gd_theta --grid 1:30:30 --mode sgd --n 10 "
        "--inits 100 --tol 1e-2",
    "c10_empirical_n2": "empirical --n 2 --seed 0",
    "c08_robustness_multiplicative": "robustness --kind multiplicative --n 2",
}

# subcommands that take --seed (default 0) and --out
SEEDED = {"sandwich", "affine", "sweep", "robustness", "empirical",
          "sections", "nonconvexity"}
WRITES = {"sandwich", "affine", "sweep", "robustness", "empirical",
          "sections"}

FLOW_T_END = 2.0
FLOW_DT = 1e-3
NEAR_FACE_MIN_PROB = 0.01
AFFINE_C = 2.0
GD_ETA_GRID = (5e-4, 0.1, 24)  # criterion 10's np.geomspace grid


@dataclass
class Op:
    """One operation: a CLI argv or a library call, plus its checks."""

    name: str
    argv: Optional[list] = None
    call: Optional[Callable] = None   # call(ctx) -> value
    out_dir: Optional[str] = None
    expect_raises: Optional[str] = None
    checks: list = field(default_factory=list)   # check(op, outcome, ctx)
    observe: Optional[Callable] = None  # observe(op, outcome) -> dict
    prepare: Optional[Callable] = None  # prepare(ctx), untimed


def cli_argv(template: str, s: int, out_dir: Optional[str]) -> list:
    """The documented argv with seed + s and the output directory set.

    A documented --seed is shifted by s; a command whose documented line
    omits --seed gets one only when s != 0, so s = 0 stays verbatim.
    """
    argv = shlex.split(template)
    command = argv[0]
    if "--seed" in argv:
        i = argv.index("--seed") + 1
        argv[i] = str(int(argv[i]) + s)
    elif command in SEEDED and s != 0:
        argv += ["--seed", str(s)]
    if out_dir is not None and command in WRITES:
        if "--out" in argv:
            argv[argv.index("--out") + 1] = out_dir
        else:
            argv += ["--out", out_dir]
    return argv


def build(workload: str, s: int, out_root: str) -> list:
    """The operations of one workload, with their inputs generated."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    import checks as ck

    def out(name):
        return os.path.join(out_root, name)

    def cli(name, template, *extra, **kw):
        d = out(name)
        return Op(name, argv=cli_argv(template, s, d), out_dir=d,
                  checks=[ck.exit_code, ck.assertion_flags, *extra], **kw)

    if workload == "rate-sandwich":
        return [
            cli("readme_sandwich", README["sandwich"],
                observe=ck.observe_sandwich),
            cli("c03_sandwich_n10", ACCEPTANCE["c03_sandwich_n10"],
                ck.all_inits_fitted, observe=ck.observe_sandwich),
        ]
    if workload == "flow-paths":
        return _flow_paths(s, out, cli, ck)
    return _descent_noise(s, out, cli, ck)


def _flow_paths(s, out, cli, ck):
    from simplex_flows import coords, geometry, lab, rng

    gen = rng.make_rng(s)
    q = lab.draw_instance(gen, 2)
    random_start = rng.random_simplex_point(gen, 2)
    face = rng.random_simplex_point(gen, 2).probs.copy()
    k = int(np.argmin(face))
    face *= (1.0 - NEAR_FACE_MIN_PROB) / (face.sum() - face[k])
    face[k] = NEAR_FACE_MIN_PROB
    starts = {"random": random_start, "near_face": coords.SimplexPoint(face)}
    chart = geometry.make_identity_chart(coords.to_theta(q), AFFINE_C)

    ops = [cli("readme_affine", README["affine"], observe=ck.observe_affine)]
    for loss in ("Lq", "Lstar"):
        for chart_name in ("eta", "theta", "natural_eta", "natural_theta",
                           "affine_eta", "affine_theta"):
            for start_name, p0 in starts.items():
                ops.append(Op(
                    f"flow_{loss}_{chart_name}_{start_name}",
                    call=_flow_call(loss, chart_name, q, p0,
                                    chart if chart_name.startswith("affine")
                                    else None),
                    checks=[ck.flow_decreases] + (
                        [ck.natural_matches_exact]
                        if (loss, chart_name) == ("Lq", "natural_eta") else [])))
    curve = os.path.join(out("readme_fit_rate"), "curve.csv")
    ops.append(Op("readme_fit_rate",
                  argv=shlex.split(README["fit-rate"].replace("curve.csv", curve)),
                  checks=[ck.exit_code, ck.fit_rate_output],
                  observe=ck.observe_fit_rate,
                  prepare=lambda ctx: ck.write_curve(
                      ctx["flow_Lq_natural_eta_random"], curve)))
    ops += [
        cli("readme_selftest", README["selftest"], ck.selftest_output),
        cli("readme_convert", README["convert"], ck.convert_output),
        cli("readme_kl", README["kl"], ck.kl_output),
        cli("readme_sections", README["sections"]),
        cli("readme_nonconvexity", README["nonconvexity"], ck.witness_found),
    ]
    p_scan = coords.SimplexPoint(np.array([0.7, 0.2, 0.1]))
    ops.append(Op("c11_scan_lq",
                  call=lambda ctx: lab.nonconvexity_witness(
                      p_scan, search_seed=s, budget=10000, loss="Lq"),
                  expect_raises="WitnessNotFound"))
    return ops


def _flow_call(loss, chart_name, q, p0, affine):
    from simplex_flows import flows

    def call(ctx):
        spec = flows.FlowSpec(loss, chart_name, q, p0, affine)
        return flows.integrate(spec, FLOW_T_END, dt=FLOW_DT, sample_every=1)
    call.spec = (loss, chart_name, q, p0)
    return call


def _descent_noise(s, out, cli, ck):
    from simplex_flows import lab, rng

    gen = rng.make_rng(s)
    q10 = lab.draw_instance(gen, 10)
    p10 = rng.random_simplex_point(gen, 10)
    gd_eta_grid = list(np.geomspace(*GD_ETA_GRID))

    def gd_eta_sweep(mode, tol):
        name = f"c10_sweep_gd_eta_{mode}"
        d = out(name)
        return Op(name, out_dir=d,
                  call=lambda ctx: lab.lr_sweep(
                      "gd_eta", gd_eta_grid, n_inits=100, tolerance=tol,
                      seed=s, mode=mode, n=10, out_dir=d),
                  checks=[ck.sweep_ordering(mode)],
                  observe=ck.observe_sweep)

    def bounds(loss):
        return Op(f"c04_rate_bounds_{loss}",
                  call=lambda ctx: lab.rate_bounds(loss, q10, p10, seed=s),
                  observe=ck.observe_rate_bounds)

    return [
        cli("readme_sweep", README["sweep"], observe=ck.observe_sweep),
        cli("c10_sweep_gd_theta_full_batch",
            ACCEPTANCE["c10_sweep_gd_theta_full_batch"],
            observe=ck.observe_sweep),
        gd_eta_sweep("full_batch", 1e-4),
        cli("c10_sweep_ngd_sgd", ACCEPTANCE["c10_sweep_ngd_sgd"],
            observe=ck.observe_sweep),
        cli("c10_sweep_gd_theta_sgd", ACCEPTANCE["c10_sweep_gd_theta_sgd"],
            observe=ck.observe_sweep),
        gd_eta_sweep("sgd", 1e-2),
        cli("c10_empirical_n2", ACCEPTANCE["c10_empirical_n2"]),
        cli("readme_empirical", README["empirical"]),
        cli("readme_robustness", README["robustness"],
            observe=ck.observe_robustness),
        cli("c08_robustness_multiplicative",
            ACCEPTANCE["c08_robustness_multiplicative"]),
        bounds("Lq_eta"),
        bounds("Lq_theta"),
    ]
