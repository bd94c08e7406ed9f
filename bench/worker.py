"""One repetition of one workload, in a fresh interpreter.

Started by run.py.  It imports simplex_flows from the checkout's src/,
generates the workload's inputs, reports how long that set-up took since
the parent started this process, then runs the operations in order, timing
each one, and checks every outcome.  Its result goes to a JSON file.

    python3 bench/worker.py --workload NAME --seed S --out DIR
                            --result FILE --spawned T [--trace] [--setup-only]
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)


def execute(op, ctx):
    """Run one operation; returns (seconds, Outcome)."""
    from checks import Outcome, read_files

    out = Outcome()
    if op.argv is not None:
        from simplex_flows import cli
        so, se = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(so), contextlib.redirect_stderr(se):
                out.exit = cli.main(op.argv)
        except Exception as exc:  # a crash is a failed operation, not a crashed run
            out.error = exc
        seconds = time.perf_counter() - t0
        out.stdout, out.stderr = so.getvalue(), se.getvalue()
    else:
        t0 = time.perf_counter()
        try:
            out.value = op.call(ctx)
        except Exception as exc:
            out.error = exc
        seconds = time.perf_counter() - t0
    out.files = read_files(op.out_dir)
    return seconds, out


def run_ops(ops, tracer, reference):
    import checks as ck

    ctx = {"observed": {}}
    results = []
    for i, op in enumerate(ops):
        if op.prepare:
            op.prepare(ctx)
        if tracer:
            tracer.op, tracer.active = i, True
        seconds, out = execute(op, ctx)
        if tracer:
            tracer.active = False
        ctx[op.name] = out.value
        failures = ck.outcome_failures(op, out)
        observed = {}
        if out.error is None or op.expect_raises:
            try:
                if op.observe:
                    observed = op.observe(op, out)
                ctx["observed"][op.name] = observed
                for check in op.checks:
                    failures += check(op, out, ctx)
            except Exception as exc:  # malformed output fails the operation
                failures.append(("output", f"checking raised {type(exc).__name__}: {exc}"))
        if reference is not None:
            failures += ck.reference_failures(op.name, observed, reference)
        results.append({
            "name": op.name,
            "argv": op.argv,
            "seconds": seconds,
            "failures": [list(f) for f in failures],
            "digests": {name: hashlib.sha256(data).hexdigest()
                        for name, data in out.files.items()},
            "observed": observed,
        })
    return results


def blas_fingerprint():
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}"}


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--spawned", type=float, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    sys.path.insert(0, os.path.join(ROOT, "src"))
    import simplex_flows
    import workloads
    ops = workloads.build(args.workload, args.seed, args.out)
    setup_s = time.monotonic() - args.spawned
    result = {"setup_s": setup_s}
    if not args.setup_only:
        import checks
        import spans
        reference = checks.load_reference(BENCH) if args.seed == 0 else None
        tracer = spans.Tracer().install(simplex_flows) if args.trace else None
        ops_out = run_ops(ops, tracer, reference)
        run_s = sum(r["seconds"] for r in ops_out)
        result.update(ops=ops_out, run_s=run_s)
        if tracer:
            tracer.uninstall()
            result["layers"] = spans.layer_metrics(tracer, run_s)
            result["spans"] = [vars(s) for s in tracer.spans]
    result["fingerprint"] = blas_fingerprint()
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh, default=str)
    return 0


if __name__ == "__main__":
    sys.exit(main())
