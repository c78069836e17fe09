import csv
import importlib.util
import sys
from pathlib import Path

import numpy as np

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _read(path):
    with open(path) as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def test_make_figure_data(tmp_path, monkeypatch):
    script = _load("make_figure_data")
    monkeypatch.setattr(sys, "argv", ["make_figure_data.py", "--out", str(tmp_path), "--seed", "1"])
    script.main()

    header, rows = _read(tmp_path / "filter_curves.csv")
    assert header == ["variant", "n0", "n1", "phi_rad", "filter_normalized"]
    assert len(rows) == 2 * 3 * 1025

    header, rows = _read(tmp_path / "estimate_scatter.csv")
    assert header == ["n_m", "trial", "cos_estimate", "in_range"]
    assert len(rows) == 7 * 100
    ests = np.array([float(r[2]) for r in rows])
    assert [r[3] for r in rows] == [str(abs(e) <= 1).lower() for e in ests]
    # at n_m = 1600 the estimates lie within about 0.03 of the true cosines
    # cos(pi k / 4); those at cos = +-1 overshoot half the time, so the fraction
    # with in_range true stays near 7/8
    last = ests[[r[0] == "1600" for r in rows]]
    true_cos = np.cos(np.pi * np.arange(8) / 4)
    dist = np.min(np.abs(last[:, None] - true_cos[None, :]), axis=1)
    assert np.mean(dist <= 0.1) >= 0.9
