"""Span tracing of the sptmbqc layers, installed from outside the package.

`Tracer.install` replaces each public function named in `TARGETS` by a wrapper
that records one span (name, start, end, parent) per call.  Every module
attribute bound to the same function object is replaced, because modules such
as `trajectory` and `measurement` import names like `fixed_point` directly.
`TrajectoryEngine.__init__` and `TrajectoryEngine.sample` are wrapped on the
class.  No per-site helper is wrapped, so the overhead stays small.

Spans stay in memory and are written once, by `Tracer.dump`, when the process
ends.  Work counts (site draws, filter trial-steps, oracle amplitudes, wire
superoperator dimensions) are recorded beside the spans as plain counters.
`aggregate` turns span files into per-name calls, self time and inclusive time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
from time import perf_counter

# (module, attribute) of each timed public function; the span name is
# "<module>.<attribute>".
TARGETS = [
    ("cli", "main"),
    ("model", "load_model"),
    ("model", "perturb_point"),
    ("model", "check_injectivity"),
    ("channel", "fixed_point"),
    ("channel", "default_wire_length"),
    ("channel", "spectrum"),
    ("channel", "nu_matrix"),
    ("channel", "oblivious_wire"),
    ("channel", "factorization_check"),
    ("gates", "step_channel"),
    ("gates", "wire_superop"),
    ("gates", "finite_rotation"),
    ("gates", "eigenphase_groups"),
    ("measurement", "filter_trajectories"),
    ("measurement", "interpret_counts"),
    ("measurement", "born_statistics"),
    ("measurement", "estimate_nu"),
    ("measurement", "accumulated_filter"),
    ("trajectory", "boundary_equivalence"),
    ("oracle", "conformance_suite"),
    ("oracle", "build_state_vector"),
    ("oracle", "simulate_measurements"),
]


def _filter_trial_steps(sig, args, kwargs, ret):
    bound = sig.bind(*args, **kwargs)
    return {"measurement.filter_trajectories.trial_steps":
            bound.arguments["trials"] * sum(steps for steps, _ in bound.arguments["schedule"])}


def _wire_dims(sig, args, kwargs, ret):
    point = sig.bind(*args, **kwargs).arguments["point"]
    return {"gates.wire_power_matmul_dim": ret.shape[0],
            "gates.wire_power_junk_dim": point.Dj ** 2}


def _amplitudes(sig, args, kwargs, ret):
    return {"oracle.amplitudes": int(ret.amps.size)}


# work counters per span name: fn(signature, args, kwargs, result) -> {counter: n}
WORK = {
    "measurement.filter_trajectories": _filter_trial_steps,
    "gates.wire_superop": _wire_dims,
    "oracle.build_state_vector": _amplitudes,
}


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int]] = []  # (name, start, end, parent index)
        self.counters: dict[str, int] = {}
        self._stack: list[int] = []

    def count(self, name: str, n: int) -> None:
        self.counters[name] = self.counters.get(name, 0) + int(n)

    def call(self, name: str, fn, args, kwargs, work=None):
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        self.spans.append((name, 0.0, 0.0, parent))
        self._stack.append(idx)
        t0 = perf_counter()
        try:
            ret = fn(*args, **kwargs)
        finally:
            t1 = perf_counter()
            self._stack.pop()
            self.spans[idx] = (name, t0, t1, parent)
        if work is not None:
            for key, n in work(args, kwargs, ret).items():
                self.count(key, n)
        return ret

    def wrap(self, name: str, fn):
        work = WORK.get(name)
        if work is not None:
            work = functools.partial(work, inspect.signature(fn))

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, work)

        return traced

    def install(self) -> None:
        """Wrap every target wherever a sptmbqc module holds a reference to it."""
        cli = importlib.import_module("sptmbqc.cli")
        modules = [m for n, m in sys.modules.items() if n == "sptmbqc" or n.startswith("sptmbqc.")]
        for mod_name, attr in TARGETS:
            orig = getattr(importlib.import_module(f"sptmbqc.{mod_name}"), attr)
            traced = self.wrap(f"{mod_name}.{attr}", orig)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, traced)
        self._wrap_engine(cli.trajectory.TrajectoryEngine)

    def _wrap_engine(self, engine_cls) -> None:
        init, sample = engine_cls.__init__, engine_cls.sample
        tracer = self

        @functools.wraps(init)
        def traced_init(self, *args, **kwargs):
            tracer.call("trajectory.engine_build", init, (self,) + args, kwargs)

        @functools.wraps(sample)
        def traced_sample(self, rng):
            name = "trajectory.sample." + ("phi_tilde" if self.tilde else "phi_runway")
            tracer.count(name + ".sites", len(self.sites))
            return tracer.call(name, sample, (self, rng), {})

        engine_cls.__init__ = traced_init
        engine_cls.sample = traced_sample

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counters": self.counters}, fh)


def aggregate(paths) -> tuple[dict[str, dict[str, float]], dict[str, int]]:
    """Sum span files into {name: {calls, self_s, incl_s}} and summed counters.

    A span's self time is its duration minus the durations of its direct
    children.
    """
    stats: dict[str, dict[str, float]] = {}
    counters: dict[str, int] = {}
    for path in paths:
        with open(path) as fh:
            doc = json.load(fh)
        spans = doc["spans"]
        child = [0.0] * len(spans)
        for _, t0, t1, parent in spans:
            if parent >= 0:
                child[parent] += t1 - t0
        for i, (name, t0, t1, _) in enumerate(spans):
            s = stats.setdefault(name, {"calls": 0, "self_s": 0.0, "incl_s": 0.0})
            s["calls"] += 1
            s["incl_s"] += t1 - t0
            s["self_s"] += t1 - t0 - child[i]
        for key, n in doc["counters"].items():
            counters[key] = counters.get(key, 0) + n
    return stats, counters
