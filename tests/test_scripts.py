import csv
import importlib.util
import sys
from pathlib import Path

import numpy as np

from sptmbqc import measurement as meas

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
    lim = 1 + meas.OUT_OF_RANGE_SLACK
    assert [r[3] for r in rows] == [str(abs(e) <= lim).lower() for e in ests]
    # at n_m = 1600 the estimates lie within about 0.03 of the true cosines
    # cos(pi k / 4), so those at cos = +-1 overshoot by less than the slack
    at_1600 = [r[0] == "1600" for r in rows]
    assert np.mean([r[3] == "true" for r, keep in zip(rows, at_1600) if keep]) >= 0.95
    last = ests[at_1600]
    true_cos = np.cos(np.pi * np.arange(8) / 4)
    dist = np.min(np.abs(last[:, None] - true_cos[None, :]), axis=1)
    assert np.mean(dist <= 0.1) >= 0.9
