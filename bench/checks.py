"""Output checks for the benchmark's operations.

A check returns a list of failures, each a ``(kind, reason)`` pair:

- ``claim``: a claim of the paper or of an acceptance criterion does not
  hold on this output (an ``assertions`` flag is false, an ordering fails,
  the CLI exits 1).  The operation counts as failed; the output itself is
  not wrong.
- ``output``: the output is wrong, malformed or inconsistent: a crash or
  usage error, a value off its oracle or its stored reference, files that
  differ between repetitions.  The run is not ``correct``.

Tolerances against the stored seed-0 reference live in reference.json.
"""

import csv
import io
import json
import os
import re
from dataclasses import dataclass, field
from typing import Any, Optional

import numpy as np

R2_MIN = 0.99            # criterion 03's fit-quality bound
EXACT_TOL = 1e-8         # criterion 03: natural flow vs closed form
PRINT_TOL = 1e-8         # the CLI prints 9 significant digits
FLOW_MONOTONE_SLACK = 1e-12

_FLAG = re.compile(r"^([\w.\-^]+) = (true|false)\b", re.M)


@dataclass
class Outcome:
    """What one operation produced."""

    exit: Optional[int] = None          # CLI operations
    stdout: str = ""
    stderr: str = ""
    value: Any = None                   # library operations
    error: Optional[BaseException] = None
    files: dict = field(default_factory=dict)   # name -> bytes

    def json_files(self):
        return {name: json.loads(data) for name, data in sorted(self.files.items())
                if name.endswith(".json")}

    def csv_rows(self):
        rows = []
        for name, data in sorted(self.files.items()):
            if name.endswith(".csv"):
                rows += list(csv.DictReader(io.StringIO(data.decode())))
        return rows

    def printed(self, key):
        m = re.search(rf"^{re.escape(key)} = (.*)$", self.stdout, re.M)
        return None if m is None else m.group(1).strip()


def read_files(out_dir):
    if not out_dir or not os.path.isdir(out_dir):
        return {}
    files = {}
    for name in sorted(os.listdir(out_dir)):
        path = os.path.join(out_dir, name)
        if os.path.isfile(path) and name.endswith((".csv", ".json")):
            with open(path, "rb") as fh:
                files[name] = fh.read()
    return files


# --- checks every operation gets --------------------------------------------


def outcome_failures(op, out):
    """Exit code / exception against what the operation expects."""
    if op.argv is not None:
        if out.error is not None:
            return [("output", f"cli.main raised {type(out.error).__name__}: {out.error}")]
        return []
    name = None if out.error is None else type(out.error).__name__
    if name == op.expect_raises:
        return []
    if name is None:
        return [("claim" if op.expect_raises == "WitnessNotFound" else "output",
                 f"expected {op.expect_raises}, returned normally")]
    return [("output", f"raised {name}: {out.error}")]


def exit_code(op, out, ctx):
    """Exit 1 is the CLI's "experiment failed" (a false assertion or a typed
    numeric failure such as BoundaryEscape); any other code is wrong."""
    if out.exit is None or out.exit == 0:
        return []
    last = out.stderr.strip().splitlines()[-1:] or [""]
    why = f"exit code {out.exit}"
    return [("claim" if out.exit == 1 else "output",
             f"{why}: {last[0]}" if last[0] else why)]


def assertion_flags(op, out, ctx):
    """Every assertions flag, from the JSON files and from stdout."""
    flags = {}
    for name, doc in out.json_files().items():
        for key, val in doc.get("assertions", {}).items():
            flags[key] = flags.get(key, True) and bool(val)
    for key, val in _FLAG.findall(out.stdout):
        flags[key] = flags.get(key, True) and val == "true"
    return [("claim", f"{key} = false") for key, ok in flags.items() if not ok]


# --- per-operation checks ---------------------------------------------------


def all_inits_fitted(op, out, ctx):
    """Criterion 03: every init is fitted (no InsufficientDecay exclusion)."""
    docs = out.json_files()
    excluded = [i for doc in docs.values() for i in doc.get("excluded_inits", [])]
    if excluded:
        return [("claim", f"{len(excluded)} inits excluded from the rate fit")]
    return []


def flow_decreases(op, out, ctx):
    """A gradient flow's loss is finite and never increases along the path."""
    traj = out.value
    if traj is None:
        return []
    kls = np.asarray(traj.kl_values)
    if not (np.all(np.isfinite(kls)) and np.all(np.isfinite(traj.states))):
        return [("output", "non-finite state or loss on the path")]
    rise = float(np.max(np.diff(kls), initial=0.0))
    if rise > FLOW_MONOTONE_SLACK * max(1.0, kls[0]):
        return [("output", f"loss rose by {rise:.3g} between samples")]
    if not kls[-1] < kls[0]:
        return [("output", "loss did not decrease over the path")]
    return []


def natural_matches_exact(op, out, ctx):
    """The Lq/natural_eta path within 1e-8 of natural_flow_exact at every sample."""
    from simplex_flows import coords, flows

    traj = out.value
    if traj is None:
        return []
    _loss, _chart, q, p0 = op.call.spec
    eq, e0 = coords.to_eta(q), coords.to_eta(p0)
    exact = np.array([flows.natural_flow_exact(eq, e0, float(t)).eta
                      for t in traj.times])
    err = float(np.abs(np.asarray(traj.states) - exact).max())
    if not err < EXACT_TOL:
        return [("output", f"natural flow off the closed form by {err:.3g}")]
    return []


def write_curve(traj, path):
    """The t,kl CSV that fit-rate reads (none if the path itself failed)."""
    if traj is None:
        return
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("t,kl\n")
        for t, v in zip(traj.times, traj.kl_values):
            fh.write(f"{float(t)!r},{float(v)!r}\n")


def fit_rate_output(op, out, ctx):
    try:
        slope = float(out.printed("slope"))
        r2 = float(out.printed("r_squared"))
    except (TypeError, ValueError):
        return [("output", "fit-rate printed no slope / r_squared")]
    if not slope > 0:
        return [("output", f"fitted slope {slope} is not a decay")]
    if r2 < R2_MIN:
        return [("claim", f"r_squared {r2} < {R2_MIN}")]
    return []


def selftest_output(op, out, ctx):
    if "= true" not in out.stdout:
        return [("output", "selftest printed no checks")]
    return []


def _printed_vector(out, key):
    text = out.printed(key)
    return None if text is None else np.array([float(x) for x in text.split(",")])


def convert_output(op, out, ctx):
    """convert --theta 0,0 is the uniform distribution on three outcomes."""
    p = _printed_vector(out, "p")
    theta = _printed_vector(out, "theta")
    if p is None or theta is None or p.shape != (3,):
        return [("output", "convert printed no p / theta")]
    if np.abs(p - 1.0 / 3.0).max() > PRINT_TOL or np.abs(theta).max() > PRINT_TOL:
        return [("output", f"convert gave p = {p.tolist()}, theta = {theta.tolist()}")]
    return []


def kl_output(op, out, ctx):
    q, p = np.array([0.3, 0.3, 0.4]), np.array([0.5, 0.25, 0.25])
    expect = float(np.sum(q * np.log(q / p)))
    try:
        got = float(out.printed("kl"))
    except (TypeError, ValueError):
        return [("output", "kl printed no value")]
    if abs(got - expect) > PRINT_TOL * abs(expect):
        return [("output", f"kl = {got}, expected {expect}")]
    return []


def witness_found(op, out, ctx):
    if out.printed("witness_found") != "true":
        return [("claim", "no nonconvexity witness for the reversed KL")]
    return []


SWEEP_NAMES = {
    "full_batch": ("readme_sweep", "c10_sweep_gd_theta_full_batch",
                   "c10_sweep_gd_eta_full_batch"),
    "sgd": ("c10_sweep_ngd_sgd", "c10_sweep_gd_theta_sgd",
            "c10_sweep_gd_eta_sgd"),
}


def sweep_ordering(mode):
    """Criterion 10: argmin times ngd < gd_theta < gd_eta and ngd <= 3."""
    def check(op, out, ctx):
        times = [ctx["observed"].get(name, {}).get("argmin_time")
                 for name in SWEEP_NAMES[mode]]
        if None in times:
            return [("output", f"{mode} sweep argmin missing: {times}")]
        ngd, theta, eta = times
        if not (ngd < theta < eta and ngd <= 3):
            return [("claim", f"{mode} argmins ngd={ngd}, gd_theta={theta}, "
                              f"gd_eta={eta} break ngd < gd_theta < gd_eta, ngd <= 3")]
        return []
    return check


# --- observables compared against the seed-0 reference ----------------------


def observe_sandwich(op, out):
    rows = out.csv_rows()
    return {"fitted": len(rows),
            "rates": [[float(r["rate_eta"]), float(r["rate_ng"]),
                       float(r["rate_theta"])] for r in rows]}


def observe_affine(op, out):
    return {"affine_rates": [[float(r["rate_eta_bar"]), float(r["rate_theta_bar"])]
                             for r in out.csv_rows()]}


def observe_fit_rate(op, out):
    slope = out.printed("slope")
    return {} if slope is None else {"slope": float(slope)}


def observe_sweep(op, out):
    for doc in out.json_files().values():
        return {"argmin_time": int(doc["argmin_time"])}
    return {}


def observe_robustness(op, out):
    for doc in out.json_files().values():
        per = doc["per_method"]
        return {"mc_lambda_max": [per["gd_eta"]["mc_lambda_max"],
                                  per["gd_theta"]["mc_lambda_max"]],
                "ngd_mc_entry_dev": per["ngd"]["mc_entry_dev"]}
    return {}


def observe_rate_bounds(op, out):
    if out.value is None:
        return {}
    return {"m_lo": out.value.m_lo, "l_hi": out.value.l_hi}


def reference_failures(name, observed, reference):
    """Compare one operation's observables with the seed-0 reference."""
    expected = reference["values"].get(name)
    if expected is None:
        return []
    failures = []
    for key, want in expected.items():
        tol = reference["tolerances"][key]
        got = observed.get(key)
        if got is None:
            failures.append(("output", f"{key} missing (reference has it)"))
            continue
        a, b = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
        if a.shape != b.shape:
            failures.append(("output", f"{key} shape {a.shape} != reference {b.shape}"))
            continue
        allowed = tol.get("abs", 0.0) + tol.get("rel", 0.0) * np.abs(b)
        dev = np.abs(a - b)
        if np.any(dev > allowed):
            worst = int(np.argmax(dev - allowed))
            failures.append(("output", f"{key} off the seed-0 reference: "
                                       f"{a.flat[worst]:.9g} vs {b.flat[worst]:.9g}"))
    return failures


def load_reference(bench_dir):
    with open(os.path.join(bench_dir, "reference.json"), encoding="utf-8") as fh:
        return json.load(fh)
