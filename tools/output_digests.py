"""Digest every output of the benchmark's operations and of a set of extra
CLI runs, one JSON record per operation, so that two checkouts can be
compared for byte-identical behaviour.

Each operation of bench/workloads.build runs in process through
bench/worker.execute at workload seeds 0-9, followed by the EXTRAS.  A
record holds the operation's exit code, stdout and stderr, its error if it
raised, a sha256 of each output file and a sha256 of the value it
returned.  Output directories are relative to a fresh working directory,
so printed paths agree between runs.

    python3 tools/output_digests.py --out FILE [--root CHECKOUT]

Compare two checkouts with cmp or diff on the two files; --root points at
the checkout whose src/ and bench/ run (default: this one).
"""

import argparse
import dataclasses
import hashlib
import json
import os
import sys
import tempfile

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEEDS = range(10)
# (name, argv) of the CLI runs outside the workloads
EXTRAS = (
    [(f"affine_n{n}_s{s}", f"affine --n {n} --seed {s}")
     for n in (2, 10) for s in SEEDS]
    + [(f"sections_n{n}_s{s}", f"sections --n {n} --seed {s}")
       for n in (2, 4, 10) for s in range(3)]
    + [(f"robustness_multiplicative_n5_s{s}",
        f"robustness --kind multiplicative --n 5 --seed {s}") for s in range(3)]
    + [(f"sandwich_n10_s{s}", f"sandwich --n 10 --seed {s}") for s in (1, 2)]
    # with the workloads' README sandwich (seeds 7-16), seeds 0-19 at n = 2
    + [(f"sandwich_n2_s{s}", f"sandwich --n 2 --seed {s}")
       for s in (*range(7), 17, 18, 19)]
    + [("selftest", "selftest"), ("convert_eta", "convert --eta 0.2,0.3"),
       ("sections_underflow", "sections --n 2 --s-max 1000 --s-count 40001")]
    # dataset errors: a usage error (exit 2) and a missed outcome (exit 1)
    + [("empirical_n_samples_0", "empirical --n-samples 0"),
       ("empirical_n_samples_minus5", "empirical --n-samples -5"),
       ("empirical_zero_count", "empirical --n 10 --n-samples 5"),
       ("sweep_full_batch_zero_count",
        "sweep --method ngd --grid 0.5:0.5:1 --n 10 --n-samples 5 "
        "--minibatch 5"),
       ("sweep_full_batch_n_samples_0",
        "sweep --method ngd --grid 0.5:0.5:1 --n-samples 0 --minibatch 1")])


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def canonical(value):
    """A JSON-ready form of a returned value that keeps every bit: arrays as
    dtype, shape and a digest of their bytes, floats in hex."""
    if isinstance(value, np.ndarray):
        return ["ndarray", value.dtype.str, list(value.shape),
                _sha(np.ascontiguousarray(value).tobytes())]
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return [type(value).__name__,
                {f.name: canonical(getattr(value, f.name))
                 for f in dataclasses.fields(value)}]
    if isinstance(value, dict):
        return {str(k): canonical(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [canonical(v) for v in value]
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return float(value).hex()
    if value is None or isinstance(value, str):
        return value
    return repr(value)


def record(name, out):
    """The JSON record of one operation's Outcome."""
    error = None if out.error is None else \
        f"{type(out.error).__name__}: {out.error}"
    return {"name": name, "exit": out.exit, "stdout": out.stdout,
            "stderr": out.stderr, "error": error,
            "files": {k: _sha(v) for k, v in sorted(out.files.items())},
            "value": _sha(json.dumps(canonical(out.value),
                                     sort_keys=True).encode())}


def digests(root):
    """Every record, in a fixed order: the workloads' operations by
    workload and seed, then EXTRAS.  Runs inside a temporary directory."""
    sys.path[:0] = [os.path.join(root, "src"), os.path.join(root, "bench")]
    import workloads
    from worker import execute

    records = []
    for workload in workloads.WORKLOADS:
        for s in SEEDS:
            ctx = {"observed": {}}
            out_root = os.path.join("out", workload, f"s{s}")
            for op in workloads.build(workload, s, out_root):
                if op.prepare:
                    op.prepare(ctx)
                out = execute(op, ctx)[1]
                ctx[op.name] = out.value
                records.append(record(f"{workload}/s{s}/{op.name}", out))
    for name, line in EXTRAS:
        out_dir = os.path.join("out", "extras", name)
        op = workloads.Op(name, argv=workloads.cli_argv(line, 0, out_dir),
                          out_dir=out_dir)
        records.append(record(f"extras/{name}", execute(op, {})[1]))
    return records


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", required=True)
    ap.add_argument("--root", default=ROOT)
    args = ap.parse_args(argv)
    out_path = os.path.abspath(args.out)
    root, cwd = os.path.abspath(args.root), os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            records = digests(root)
        finally:
            os.chdir(cwd)
    with open(out_path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec, sort_keys=True) + "\n")
    print(f"{len(records)} records -> {out_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
