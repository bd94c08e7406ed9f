"""Tracing for the benchmark's traced run, installed from outside the program.

Wrappers are bound in every ``simplex_flows`` module namespace that holds
the traced function, because callers look names up where they imported
them (``lab`` does ``from .flows import integrate_batch``).  Nothing under
``src/`` is edited.

Layer boundaries become spans: name, start, end, parent, operation id and
attributes, kept in memory.  High-frequency leaf calls (``coords``,
``geometry``, ``rng`` and other small helpers) are aggregated into a call
count and a self time instead.  A span's self time is its duration minus
the part of it that child spans cover (the union, since children opened in
``lab.parallel_map`` worker threads may overlap) and minus the time of leaf
calls made directly under it.
"""

import contextlib
import inspect
import threading
import time
from dataclasses import dataclass, field
from typing import Optional

MODULES = ("cli", "lab", "flows", "spectral", "rng", "descent", "empirical",
           "geometry", "coords")

# layer-boundary functions traced as spans, with their attribute hooks
SPANS = {
    "cli": ("main",),
    "lab": ("sandwich_experiment", "affine_rate_experiment", "lr_sweep",
            "robustness_experiment", "rate_bounds", "nonconvexity_witness",
            "empirical_sandwich", "local_sections", "fit_rate"),
    "flows": ("integrate_batch", "integrate"),
    "spectral": ("eigvalsh_batch", "eigh"),
    "descent": ("run",),
    "empirical": ("run_empirical",),
}
# modules whose other public functions are traced as aggregated leaves
LEAF_MODULES = ("flows", "spectral", "rng", "descent", "empirical",
                "geometry", "coords")


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float = 0.0
    parent: Optional[int] = None
    op: Optional[int] = None
    attrs: dict = field(default_factory=dict)
    leaf_s: float = 0.0     # leaf calls directly under this span


class _Frame:
    __slots__ = ("span", "name", "start", "child_s", "span_s")

    def __init__(self, name, span=None):
        self.name = name
        self.span = span        # Span for span frames, None for leaves
        self.child_s = 0.0      # same-thread children
        self.span_s = 0.0       # spans nested under this leaf


class _ThreadState:
    """Open frames, adopted parent and leaf aggregates of one thread."""

    __slots__ = ("stack", "base", "leaves")

    def __init__(self):
        self.stack = []
        self.base = None        # span adopted from the thread that started us
        self.leaves = {}        # name -> [calls, self_s]


def union_length(intervals):
    total, end = 0.0, float("-inf")
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


def self_times(spans):
    """Self time of every span: duration minus the union of its children's
    intervals minus its direct leaf time."""
    children = {}
    for s in spans:
        children.setdefault(s.parent, []).append((s.start, s.end))
    return {s.id: (s.end - s.start) - union_length(children.get(s.id, ()))
            - s.leaf_s for s in spans}


class Tracer:
    """Span recorder.  ``clock`` is injectable so tests can drive it."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.covered = {}       # op -> time under root frames
        self.op = None
        self.active = False
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states = []
        self._installed = []

    @property
    def leaves(self):
        """Leaf aggregates of all threads: name -> [calls, self_s]."""
        total = {}
        for st in self._states:
            for name, (calls, secs) in st.leaves.items():
                agg = total.setdefault(name, [0, 0.0])
                agg[0] += calls
                agg[1] += secs
        return total

    # --- frames -------------------------------------------------------------

    def _state(self):
        try:
            return self._local.state
        except AttributeError:
            st = self._local.state = _ThreadState()
            with self._lock:
                self._states.append(st)
            return st

    def current_span(self):
        """The innermost open span of this thread (or the adopted parent)."""
        st = self._state()
        for fr in reversed(st.stack):
            if fr.span is not None:
                return fr.span
        return st.base

    @contextlib.contextmanager
    def adopt(self, parent):
        """Make ``parent`` the parent of the spans this thread opens at its root."""
        st = self._state()
        saved = st.base
        if not st.stack:
            st.base = parent
        try:
            yield
        finally:
            st.base = saved

    def open(self, name, attrs=None, leaf=False):
        st = self._state()
        span = None
        if not leaf:
            parent = self.current_span()
            with self._lock:
                span = Span(len(self.spans), name, 0.0,
                            parent=None if parent is None else parent.id,
                            op=self.op, attrs=dict(attrs or {}))
                self.spans.append(span)
        fr = _Frame(name, span)
        st.stack.append(fr)
        fr.start = self.clock()
        if span is not None:
            span.start = fr.start
        return fr

    def close(self, fr):
        now = self.clock()
        st = self._state()
        st.stack.pop()
        dur = now - fr.start
        if fr.span is not None:
            fr.span.end = now
            nested_spans = dur
        else:
            agg = st.leaves.get(fr.name)
            if agg is None:
                agg = st.leaves[fr.name] = [0, 0.0]
            agg[0] += 1
            agg[1] += dur - fr.child_s
            nested_spans = fr.span_s
        if st.stack:
            parent = st.stack[-1]
            parent.child_s += dur
            if parent.span is None:
                parent.span_s += nested_spans
            elif fr.span is None:
                parent.span.leaf_s += dur - fr.span_s
        elif st.base is not None:
            if fr.span is None:
                with self._lock:
                    st.base.leaf_s += dur - fr.span_s
        else:
            self.covered[self.op] = self.covered.get(self.op, 0.0) + dur

    # --- installation -------------------------------------------------------

    def wrap(self, name, fn, leaf, hook=None):
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            attrs = hook.before(args, kwargs) if hook else None
            fr = tracer.open(name, attrs, leaf)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                if fr.span is not None:
                    fr.span.attrs["error"] = type(exc).__name__
                raise
            finally:
                tracer.close(fr)
            if hook and fr.span is not None:
                hook.after(result, fr.span.attrs)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def install(self, package):
        """Bind wrappers in every module of ``package`` that holds a traced
        function; returns self so it can be uninstalled."""
        import importlib
        mods = {m: importlib.import_module(f"{package.__name__}.{m}")
                for m in MODULES}
        namespaces = [package] + list(mods.values())
        targets = {}
        for m, fnames in SPANS.items():
            for f in fnames:
                targets[getattr(mods[m], f)] = (f"{m}.{f}", False, HOOKS.get(f"{m}.{f}"))
        for m in LEAF_MODULES:
            mod = mods[m]
            for f, obj in vars(mod).items():
                if (not f.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__
                        and obj not in targets):
                    targets[obj] = (f"{m}.{f}", True, None)
        wrappers = {fn: self.wrap(name, fn, leaf, hook)
                    for fn, (name, leaf, hook) in targets.items()}
        for ns in namespaces:
            for key, obj in list(vars(ns).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._installed.append((ns, key, obj))
                    setattr(ns, key, wrappers[obj])
        pm = mods["lab"].parallel_map
        self._installed.append((mods["lab"], "parallel_map", pm))
        mods["lab"].parallel_map = self._wrap_parallel_map(pm)
        return self

    def uninstall(self):
        for ns, key, obj in reversed(self._installed):
            setattr(ns, key, obj)
        self._installed.clear()

    def _wrap_parallel_map(self, original):
        """Worker-thread spans attribute to the span that called the map."""
        tracer = self

        def parallel_map(fn, items):
            parent = tracer.current_span()

            def task(item):
                with tracer.adopt(parent):
                    return fn(item)
            return original(task, items)
        parallel_map.__wrapped__ = original
        return parallel_map


# --- span attributes ----------------------------------------------------------


class _Hook:
    def before(self, args, kwargs):
        return {}

    def after(self, result, attrs):
        pass


class _IntegrateBatch(_Hook):
    def before(self, args, kwargs):
        import numpy as np
        init = np.atleast_2d(np.asarray(args[3] if len(args) > 3 else kwargs["init_probs"]))
        return {"loss": args[0], "chart": args[1], "B": int(init.shape[0]),
                "n": int(init.shape[1]) - 1}

    def after(self, result, attrs):
        attrs["samples"] = int(len(result[0])) * attrs["B"]


class _Eigvalsh(_Hook):
    def before(self, args, kwargs):
        return {"matrices": int(len(args[0] if args else kwargs["stack"]))}


class _Iterations(_Hook):
    def after(self, result, attrs):
        attrs["iterations"] = int(len(result.times)) - 1


class _Sandwich(_Hook):
    def after(self, result, attrs):
        attrs["fitted"] = len(result["rows"])
        attrs["attempted"] = len(result["rows"]) + len(result["excluded_inits"])


class _Cli(_Hook):
    def before(self, args, kwargs):
        argv = args[0] if args else kwargs.get("argv")
        return {"command": argv[0] if argv else None}


HOOKS = {
    "flows.integrate_batch": _IntegrateBatch(),
    "spectral.eigvalsh_batch": _Eigvalsh(),
    "descent.run": _Iterations(),
    "empirical.run_empirical": _Iterations(),
    "lab.sandwich_experiment": _Sandwich(),
    "cli.main": _Cli(),
}


# --- per-layer metrics --------------------------------------------------------

CHARTS = ("eta", "theta", "natural_eta", "natural_theta", "affine_eta",
          "affine_theta")
LAB_EXPERIMENTS = ("sandwich_experiment", "affine_rate_experiment", "lr_sweep",
                   "robustness_experiment", "rate_bounds",
                   "nonconvexity_witness")

# name -> unit, in report order.  Which end-to-end metric each should move:
# flows.* -> run_s on rate-sandwich and flow-paths (and peak_rss_mb on
# rate-sandwich, which stores every state); no calls on descent-noise.
# spectral.eigvalsh_batch, rng.normal_vector, lab.lr_sweep,
# lab.robustness_experiment, descent.*, empirical.* -> run_s on
# descent-noise.  geometry/coords -> run_s on flow-paths (the witness scan).
# spectral.eigh and cli.main sit on no hot path.
PER_LAYER = {}
for _k, _u in (("calls", "count"), ("self_s", "s"), ("samples", "count"),
               ("us_per_sample", "us"), ("errors", "count")):
    PER_LAYER[f"flows.integrate_batch.{_k}"] = _u
for _c in CHARTS:
    PER_LAYER[f"flows.integrate_batch.{_c}.self_s"] = "s"
PER_LAYER.update({
    "flows.integrate.calls": "count", "flows.integrate.self_s": "s",
    "spectral.eigvalsh_batch.calls": "count",
    "spectral.eigvalsh_batch.self_s": "s",
    "spectral.eigvalsh_batch.matrices": "count",
    "spectral.eigh.calls": "count", "spectral.eigh.self_s": "s",
    "rng.normal_vector.calls": "count", "rng.normal_vector.self_s": "s",
    "rng.make_rng.calls": "count",
})
for _e in LAB_EXPERIMENTS:
    PER_LAYER[f"lab.{_e}.self_s"] = "s"
PER_LAYER["lab.sandwich_experiment.fitted_ratio"] = "ratio"
for _f in ("descent.run", "empirical.run_empirical"):
    PER_LAYER.update({f"{_f}.calls": "count", f"{_f}.self_s": "s",
                      f"{_f}.iterations": "count"})
PER_LAYER.update({"geometry.calls": "count", "coords.calls": "count",
                  "cli.main.calls": "count", "cli.main.self_s": "s"})
for _m in MODULES:
    PER_LAYER[f"{_m}.self_s"] = "s"
PER_LAYER.update({"untraced_s": "s", "trace_overhead_s": "s",
                  "fail_ratio": "ratio"})


def layer_metrics(tracer, run_s):
    """Per-layer metrics of one traced repetition (all but trace_overhead_s
    and fail_ratio, which need the untraced run and the checks)."""
    selfs = self_times(tracer.spans)
    m = {name: 0.0 for name in PER_LAYER}

    def add(key, value):
        m[key] += value

    fitted = attempted = 0
    for s in tracer.spans:
        st = selfs[s.id]
        mod, fn = s.name.split(".", 1)
        add(f"{mod}.self_s", st)
        calls_key = f"{s.name}.calls"
        if calls_key in m:
            add(calls_key, 1)
        if f"{s.name}.self_s" in m:
            add(f"{s.name}.self_s", st)
        if s.name == "flows.integrate_batch":
            add("flows.integrate_batch.samples", s.attrs.get("samples", 0))
            add("flows.integrate_batch.errors", "error" in s.attrs)
            add(f"flows.integrate_batch.{s.attrs['chart']}.self_s", st)
        elif s.name == "spectral.eigvalsh_batch":
            add("spectral.eigvalsh_batch.matrices", s.attrs["matrices"])
        elif s.name in ("descent.run", "empirical.run_empirical"):
            add(f"{s.name}.iterations", s.attrs.get("iterations", 0))
        elif s.name == "lab.sandwich_experiment":
            fitted += s.attrs.get("fitted", 0)
            attempted += s.attrs.get("attempted", 0)
    for name, (calls, st) in tracer.leaves.items():
        mod = name.split(".", 1)[0]
        add(f"{mod}.self_s", st)
        if f"{mod}.calls" in m:
            add(f"{mod}.calls", calls)
        if f"{name}.calls" in m:
            add(f"{name}.calls", calls)
        if f"{name}.self_s" in m:
            add(f"{name}.self_s", st)
    samples = m["flows.integrate_batch.samples"]
    if samples:
        m["flows.integrate_batch.us_per_sample"] = (
            1e6 * m["flows.integrate_batch.self_s"] / samples)
    if attempted:
        m["lab.sandwich_experiment.fitted_ratio"] = fitted / attempted
    m["untraced_s"] = run_s - sum(tracer.covered.values())
    return m
