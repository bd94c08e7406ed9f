"""simplex-flows benchmark: replays the paper's experiments as workloads.

    python3 bench/run.py --workload NAME --seed S --seconds T --trace 0|1

Run from the root of a source checkout; nothing is installed.  Each
repetition of a workload runs in a fresh interpreter (bench/worker.py), so
every run pays cold caches as a CLI user does.  Repetitions go on for about
``--seconds`` (at least two, so output files can be compared between them).

--trace 0 reports the end-to-end metrics: set-up time (median of several
fresh interpreters), run time and peak memory (medians over repetitions).
--trace 1 alternates untraced and traced repetitions and reports the
per-layer metrics listed in spans.PER_LAYER.  Failed operations count in
``failed``; ``correct`` is false when an output is wrong (see checks.py).

A human-readable report goes to stdout first; the last line is one JSON
object.  The full report, with per-operation failure reasons, the machine
fingerprint and the traced spans, is written to
.bench_out/<workload>-s<seed>-t<trace>/report.json.
"""

import argparse
import glob
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import spans  # noqa: E402  (standard library only)
from workloads import WORKLOADS  # noqa: E402

SETUP_ONLY_SPAWNS = 8      # extra fresh interpreters that only set up
MIN_REPS = 2               # repetitions needed to compare output files
WORKER_TIMEOUT_S = 120.0
END_TO_END = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MiB"}
ENV_KEYS = ("SIMPLEX_FLOWS_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
            "MKL_NUM_THREADS", "GOTO_NUM_THREADS")


class WorkerFailed(Exception):
    pass


def spawn(workload, seed, out_dir, result, trace=False, setup_only=False):
    """Run bench/worker.py once in a fresh interpreter; returns its result."""
    argv = [sys.executable, os.path.join(BENCH, "worker.py"),
            "--workload", workload, "--seed", str(seed), "--out", out_dir,
            "--result", result]
    argv += ["--trace"] * trace + ["--setup-only"] * setup_only
    if os.path.exists(result):
        os.remove(result)
    spawned = time.monotonic()
    try:
        proc = subprocess.run(argv + ["--spawned", repr(spawned)], cwd=ROOT,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise WorkerFailed(f"worker timed out after {exc.timeout:.0f} s") from exc
    wall = time.monotonic() - spawned
    if proc.returncode != 0 or not os.path.exists(result):
        raise WorkerFailed(f"worker exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    with open(result, encoding="utf-8") as fh:
        res = json.load(fh)
    res["wall_s"] = wall
    return res


def repetitions(args, out_root):
    """Set-up samples plus repetitions for about args.seconds."""
    start = time.monotonic()
    result = os.path.join(out_root, "worker.json")
    setups = [spawn(args.workload, args.seed, os.path.join(out_root, "setup"),
                    result, setup_only=True)["setup_s"]
              for _ in range(SETUP_ONLY_SPAWNS)]
    kinds = [False, True] if args.trace else [False]
    reps, longest = [], 0.0
    while (len(reps) < MIN_REPS
           or time.monotonic() - start + longest <= args.seconds):
        t0 = time.monotonic()
        for trace in kinds:
            rep_dir = os.path.join(out_root, f"rep{len(reps)}")
            rep = spawn(args.workload, args.seed, rep_dir, result, trace=trace)
            rep["traced"] = trace
            reps.append(rep)
            setups.append(rep["setup_s"])
        longest = max(longest, time.monotonic() - t0)
    return setups, reps


def compare_outputs(reps):
    """Output files must be byte-identical across repetitions (criterion 12)."""
    first = {op["name"]: op["digests"] for op in reps[0]["ops"]}
    for rep in reps[1:]:
        for op in rep["ops"]:
            differ = sorted(name for name, digest in op["digests"].items()
                            if first[op["name"]].get(name) != digest)
            if differ or set(op["digests"]) != set(first[op["name"]]):
                op["failures"].append(
                    ["output", f"files differ from repetition 0: "
                               f"{differ or sorted(op['digests'])}"])


def tally(reps):
    """Operations, the failed ones, and whether every output was right.

    Each operation of the workload counts once, however many repetitions ran
    it, with the distinct failures of all its repetitions.  So attempted and
    failed depend on the seed, not on how many repetitions fit the time.
    """
    ops = {}
    for rep in reps:
        for run in rep["ops"]:
            op = ops.setdefault(run["name"], {"name": run["name"], "failures": [],
                                              "reps": 0, "reps_failed": 0})
            op["reps"] += 1
            op["reps_failed"] += bool(run["failures"])
            op["failures"] += [f for f in run["failures"] if f not in op["failures"]]
    ops = list(ops.values())
    failed = [op for op in ops if op["failures"]]
    correct = not any(kind == "output" for op in failed for kind, _ in op["failures"])
    return ops, failed, correct


def summarize(values):
    values = sorted(values)
    med = statistics.median(values)
    q1, _, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                 if len(values) > 1 else (med, med, med))
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


def fingerprint(reps):
    """Machine, library versions, thread settings and the code measured."""
    lines, digest = 0, hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "**", "*.py"),
                                 recursive=True)):
        with open(path, "rb") as fh:
            data = fh.read()
        lines += data.count(b"\n")
        digest.update(data)
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
        commit = proc.stdout.strip() or None
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            **reps[0]["fingerprint"],
            "env": {k: os.environ.get(k) for k in ENV_KEYS},
            "git_commit": commit, "src_lines": lines,
            "src_sha256": digest.hexdigest()}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "simplex_flows", "__init__.py")):
        print("error: no src/simplex_flows in this checkout", file=sys.stderr)
        return 2

    out_root = os.path.join(ROOT, ".bench_out",
                            f"{args.workload}-s{args.seed}-t{args.trace}")
    shutil.rmtree(out_root, ignore_errors=True)
    os.makedirs(out_root)
    try:
        setups, reps = repetitions(args, out_root)
    except WorkerFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    compare_outputs(reps)

    ops, failed, correct = tally(reps)
    plain = [r for r in reps if not r["traced"]]
    traced = [r for r in reps if r["traced"]]
    samples = {"setup_s": setups, "run_s": [r["run_s"] for r in plain],
               "peak_rss_mb": [r["peak_rss_mb"] for r in plain]}
    units = dict(END_TO_END)
    if traced:
        for name in spans.PER_LAYER:
            samples[name] = [r["layers"].get(name, 0.0) for r in traced]
        samples["trace_overhead_s"] = [t["run_s"] - p["run_s"]
                                       for p, t in zip(plain, traced)]
        units.update(spans.PER_LAYER)
        # self times plus untraced_s account for the traced run_s (beyond it
        # only by the time parallel_map threads overlap)
        samples["traced_run_s"] = [r["run_s"] for r in traced]
        samples["self_plus_untraced_s"] = [
            sum(r["layers"][f"{m}.self_s"] for m in spans.MODULES)
            + r["layers"]["untraced_s"] for r in traced]
        units.update(traced_run_s="s", self_plus_untraced_s="s")
    samples["fail_ratio"] = [len(failed) / len(ops)]
    units["fail_ratio"] = "ratio"
    stats = {name: summarize(vals) for name, vals in samples.items()}

    report = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "fingerprint": fingerprint(reps), "correct": correct,
              "attempted": len(ops), "failed": len(failed),
              "metrics": {k: {**v, "unit": units[k]} for k, v in stats.items()},
              "repetitions": reps}
    with open(os.path.join(out_root, "report.json"), "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1, default=str)
    print_report(report, failed)

    keys = spans.PER_LAYER if args.trace else END_TO_END
    print(json.dumps({"correct": correct, "attempted": len(ops),
                      "failed": len(failed),
                      "metrics": {k: {"value": stats[k]["median"], "unit": units[k]}
                                  for k in keys}}))
    return 0


def print_report(report, failed):
    print(f"workload {report['workload']}  seed {report['seed']}  "
          f"trace {report['trace']}  ({WORKLOADS[report['workload']]})")
    print("machine " + json.dumps(report["fingerprint"], sort_keys=True))
    for op in failed:
        for kind, why in op["failures"]:
            print(f"FAILED {op['name']} [{kind}] in {op['reps_failed']}/{op['reps']} "
                  f"repetitions: {why}")
    print(f"operations: {report['attempted']} attempted, {report['failed']} failed, "
          f"correct = {str(report['correct']).lower()}")
    print(f"{'metric':44s} {'median':>14s} {'q1':>14s} {'q3':>14s} {'n':>3s}  unit")
    for name, m in report["metrics"].items():
        print(f"{name:44s} {m['median']:14.6g} {m['q1']:14.6g} {m['q3']:14.6g} "
              f"{m['n']:3d}  {m['unit']}")


if __name__ == "__main__":
    sys.exit(main())
