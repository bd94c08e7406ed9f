"""The names the benchmark's tracer binds must exist in the package.

bench/spans.py wraps the functions it lists in SPANS by name, and its
iteration hook reads `.times` of what descent.run and run_empirical
return; a renamed or deleted function would crash the traced benchmark
run, not a test.
"""

import importlib
import importlib.util
import inspect
import os

import numpy as np

from simplex_flows.coords import SimplexPoint
from simplex_flows.descent import DescentSpec, run
from simplex_flows.empirical import run_empirical

SPANS_PY = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "bench", "spans.py")


def _spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_PY)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_every_traced_name_resolves():
    spans = _spans()
    for mod in spans.MODULES + spans.LEAF_MODULES:
        importlib.import_module(f"simplex_flows.{mod}")
    for mod, names in spans.SPANS.items():
        module = importlib.import_module(f"simplex_flows.{mod}")
        for name in names:
            assert inspect.isfunction(getattr(module, name, None)), \
                f"{mod}.{name}"
    for name in spans.HOOKS:
        mod, fn = name.split(".")
        assert fn in spans.SPANS[mod], name


def test_iteration_hooks_read_times():
    q = SimplexPoint(np.array([0.3, 0.5, 0.2]))
    spec = DescentSpec("ngd", "nonlinear", q,
                       SimplexPoint(np.array([0.2, 0.3, 0.5])), 0.5,
                       max_iters=4)
    for traj in (run(spec), run_empirical(spec, q)):
        assert len(traj.times) == 5
