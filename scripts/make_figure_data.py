"""Emit the accumulated-filter curves and the estimate-scatter dataset as CSV.

The filter curves are produced twice: once with the raw caption parameters
(nu00 = nu11 = 1, nu10 = 0.8, which are not trace-normalized) and once with
the same parameters scaled to unit trace; the curves differ only by the
normalization of the filter values, not in shape.
"""

from __future__ import annotations

import argparse
from pathlib import Path

import numpy as np

from sptmbqc import measurement as meas


def filter_curves(out: Path) -> None:
    grid = np.linspace(-np.pi, np.pi, 1025)
    rows = []
    for tag, params in (("caption", meas.PairFilter(1.0, 1.0, 0.8)),
                        ("normalized", meas.PairFilter(0.5, 0.5, 0.4))):
        for n in (1, 5, 50):
            curve = meas.accumulated_filter(params, np.pi / 4, n, n, grid)
            rows.extend((tag, n, n, phi, val) for phi, val in zip(grid, curve))
    lines = ["variant,n0,n1,phi_rad,filter_normalized"]
    lines += [",".join(str(v) for v in row) for row in rows]
    (out / "filter_curves.csv").write_text("\n".join(lines) + "\n")


def estimate_scatter(out: Path, seed: int) -> None:
    params = meas.PairFilter(1.0, 1.0, 0.9)
    phis = np.angle(np.exp(1j * np.pi * np.arange(8) / 4))
    pops = np.full(8, 1 / 8)
    alpha = 0.5
    rng = np.random.default_rng(seed)
    lines = ["n_m,trial,cos_estimate,in_range"]
    for n_m in (25, 50, 100, 200, 400, 800, 1600):
        trials = 100
        seg = meas.filter_trajectories(params, phis, pops, [(n_m, 0.0)], trials, alpha, rng)
        ests = meas.mcos_estimate(params, alpha, seg[0][:, 0], seg[0][:, 1])
        for t, est in enumerate(ests.tolist()):
            in_range = abs(est) <= 1 + meas.OUT_OF_RANGE_SLACK  # the CLI's out-of-range rule
            lines.append(f"{n_m},{t},{est!r},{str(in_range).lower()}")
    (out / "estimate_scatter.csv").write_text("\n".join(lines) + "\n")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="figure_data")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    filter_curves(out)
    estimate_scatter(out, args.seed)
    print(f"wrote {out}/filter_curves.csv and {out}/estimate_scatter.csv")


if __name__ == "__main__":
    main()
