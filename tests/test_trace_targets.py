"""The benchmark tracer (perfbench/spans.py) finds every name it wraps.

The tracer looks functions up by name and binds their arguments by name, so
a rename in the package would otherwise surface only in a traced benchmark
run.  The tracer module is loaded from its file and not modified.
"""

import importlib
import importlib.util
import inspect
import re
from pathlib import Path

import numpy as np
import pytest

from sptmbqc import channel, gates, trajectory

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _target(name: str):
    mod, attr = name.split(".")
    return getattr(importlib.import_module(f"sptmbqc.{mod}"), attr)


def test_targets_are_module_functions(spans):
    for mod, attr in spans.TARGETS:
        assert inspect.isfunction(_target(f"{mod}.{attr}")), f"{mod}.{attr}"


def test_work_counter_parameters_exist(spans):
    for name, counter in spans.WORK.items():
        params = inspect.signature(_target(name)).parameters
        for arg in re.findall(r'arguments\["(\w+)"\]', inspect.getsource(counter)):
            assert arg in params, f"{name} has no parameter {arg!r}"


def test_engine_sample_interface(cluster2):
    params = list(inspect.signature(trajectory.TrajectoryEngine.sample).parameters.values())
    positional = [p for p in params[1:] if p.kind in (p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD)]
    assert len(positional) == 1 and all(p.default is p.empty for p in positional)
    cfg = trajectory.RunConfig(analysis=channel.analyze(cluster2),
                               program=gates.GateProgram((gates.WireStep(2),)))
    engine = trajectory.TrajectoryEngine(cfg)
    assert isinstance(engine.tilde, bool)
    assert len(engine.sites) == 2
    assert len(engine.sample([np.random.default_rng(0)])) == 1
