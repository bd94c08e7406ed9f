"""Tests of the benchmark harness itself (not of simplex_flows)."""

import os
import shlex
import sys
import threading

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, BENCH)

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def _at(clock, t, action, *args, **kwargs):
    clock.now = t
    return action(*args, **kwargs)


def test_self_times_on_nested_trace_with_worker_thread():
    clock = FakeClock()
    tr = spans.Tracer(clock=clock)
    tr.op = 0
    sweep = _at(clock, 0.0, tr.open, "lab.lr_sweep")
    _at(clock, 2.0, tr.close, _at(clock, 1.0, tr.open, "coords.to_eta", leaf=True))
    parent = tr.current_span()

    def worker_thread():
        with tr.adopt(parent):
            fr = _at(clock, 3.0, tr.open, "flows.integrate_batch",
                     {"chart": "eta", "samples": 10})
            _at(clock, 7.0, tr.close, fr)
            leaf = _at(clock, 7.0, tr.open, "rng.make_rng", leaf=True)
            _at(clock, 7.5, tr.close, leaf)

    t = threading.Thread(target=worker_thread)
    t.start()
    t.join(timeout=10)
    assert not t.is_alive()
    # a main-thread child overlapping the worker's span, holding a leaf that
    # itself opens a span
    child = _at(clock, 4.0, tr.open, "spectral.eigh")
    leaf = _at(clock, 4.5, tr.open, "spectral.cond", leaf=True)
    _at(clock, 5.5, tr.close, _at(clock, 5.0, tr.open, "spectral.eigh"))
    _at(clock, 5.75, tr.close, leaf)
    _at(clock, 6.0, tr.close, child)
    _at(clock, 10.0, tr.close, sweep)

    by_name = {}
    for s in tr.spans:
        by_name.setdefault(s.name, []).append(s)
    selfs = spans.self_times(tr.spans)
    (worker_span,) = by_name["flows.integrate_batch"]
    inner_eigh = by_name["spectral.eigh"][1]
    assert worker_span.parent == sweep.span.id
    assert inner_eigh.parent == child.span.id
    # 10 minus the union of [3, 7] and [4, 6], minus leaves 1 + 0.5
    assert selfs[sweep.span.id] == pytest.approx(4.5)
    assert selfs[worker_span.id] == pytest.approx(4.0)
    # 2 minus the inner eigh (0.5) minus the leaf's own time (0.75)
    assert selfs[child.span.id] == pytest.approx(0.75)
    assert selfs[inner_eigh.id] == pytest.approx(0.5)
    assert tr.leaves == {"coords.to_eta": [1, 1.0], "rng.make_rng": [1, 0.5],
                         "spectral.cond": [1, 0.75]}
    assert tr.covered == {0: 10.0}

    m = spans.layer_metrics(tr, run_s=10.5)
    assert m["untraced_s"] == pytest.approx(0.5)
    assert m["lab.lr_sweep.self_s"] == pytest.approx(4.5)
    assert m["flows.integrate_batch.eta.self_s"] == pytest.approx(4.0)
    assert m["spectral.self_s"] == pytest.approx(0.75 + 0.5 + 0.75)
    assert m["rng.make_rng.calls"] == 1
    # self times plus untraced time exceed the run by exactly the time the
    # worker thread overlapped the main thread ([4, 6])
    total = sum(m[f"{mod}.self_s"] for mod in spans.MODULES) + m["untraced_s"]
    assert total == pytest.approx(10.5 + 2.0)


def _strip_out(argv):
    argv = list(argv)
    while "--out" in argv:
        i = argv.index("--out")
        del argv[i:i + 2]
    return argv


def test_seed_zero_replays_readme_and_acceptance_argv(tmp_path):
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        readme = fh.read()
    for line in workloads.README.values():
        assert f"simplex-flows {line}" in readme
    documented = {**{f"readme_{k.replace('-', '_')}": v
                     for k, v in workloads.README.items()},
                  **workloads.ACCEPTANCE}
    seen = set()
    for name in workloads.WORKLOADS:
        for op in workloads.build(name, 0, str(tmp_path)):
            if op.argv is None:
                continue
            want = shlex.split(documented[op.name])
            if op.name == "readme_fit_rate":
                want[-1] = op.argv[-1]
            assert _strip_out(op.argv) == _strip_out(want), op.name
            seen.add(op.name)
    assert seen == set(documented)


def test_workload_seed_shifts_every_documented_seed():
    assert workloads.cli_argv(workloads.README["sandwich"], 3, "d") == shlex.split(
        "sandwich --n 2 --inits 100 --seed 10 --out d")
    assert workloads.cli_argv(workloads.README["affine"], 3, "d") == shlex.split(
        "affine --n 2 --out d --seed 3")
    assert workloads.cli_argv(workloads.README["kl"], 3, "d") == shlex.split(
        workloads.README["kl"])


def _tally(*named_argv):
    ops = [workloads.Op(name, argv=argv,
                        checks=[checks.exit_code, checks.assertion_flags])
           for name, argv in (("ok", ["selftest"]),) + named_argv]
    return run.tally([{"ops": worker.run_ops(ops, tracer=None, reference=None)}])


def test_nonzero_exit_counts_in_fail_ratio():
    # exit 1: the experiment failed; counted, but the output is not wrong
    all_ops, failed, correct = _tally(
        ("no_witness", ["nonconvexity", "--p", "0.7,0.2,0.1", "--budget", "1"]))
    assert [op["name"] for op in failed] == ["no_witness"]
    assert len(failed) / len(all_ops) == 0.5
    assert [kind for kind, _ in failed[0]["failures"]] == ["claim", "claim"]
    assert correct
    # exit 2: a usage error is a wrong output
    all_ops, failed, correct = _tally(("usage_error", ["sweep", "--method", "ngd"]))
    assert [op["name"] for op in failed] == ["usage_error"]
    assert failed[0]["failures"][0][0] == "output"
    assert "exit code 2" in failed[0]["failures"][0][1]
    assert not correct


def test_attempted_does_not_depend_on_repetition_count():
    rep = {"ops": [{"name": "ok", "failures": []},
                   {"name": "bad", "failures": [["claim", "r_squared_min = false"]]}]}
    for n_reps in (2, 3, 5):
        all_ops, failed, correct = run.tally([rep] * n_reps)
        assert (len(all_ops), len(failed), correct) == (2, 1, True)
        assert failed[0]["failures"] == [["claim", "r_squared_min = false"]]
        assert failed[0]["reps_failed"] == n_reps
