"""Output checks for each benchmark operation.

Exact outputs (gate distances, wire residuals, the exact nu export, `tv_exact`
and the conformance deviations) must match `reference.json` to `EXACT_TOL`.
Sampled outputs (Born frequencies, measurement scatter, the nu self-test,
wire trajectories and `tv_sampled`) must lie within `Z_MAX` standard errors of
the package's own exact quantities.  A check returns a list of problems; an
empty list means the outputs are correct.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

import numpy as np

EXACT_TOL = 1e-9
Z_MAX = 5.0
CONFORM_TOL = 1e-10
WIRE_CHECKPOINTS = sorted({0} | {2 ** k for k in range(10)} | {100 * k for k in range(1, 11)})


def _rows(path: Path) -> list[dict[str, str]]:
    with open(path) as fh:
        return list(csv.DictReader(line for line in fh if not line.startswith("#")))


def _json(path: Path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _pair(op) -> tuple[int, int]:
    if "--pair" not in op.argv:
        return (0, 1)
    i = op.argv.index("--pair")
    return int(op.argv[i + 1]), int(op.argv[i + 2])


def exact_values(op, out: Path) -> dict[str, float]:
    """The exact outputs of one operation, keyed for `reference.json`."""
    if op.kind == "wire":
        return {f"wire.r{int(r['n_sites']):04d}": float(r["schmidt_residual"])
                for r in _rows(out / "wire_residual.csv") if int(r["n_sites"]) in WIRE_CHECKPOINTS}
    if op.kind == "gate":
        return {f"gate.d{n}": d for n, d in _json(out / "gate_summary.json")["distances"].items()}
    if op.kind == "nu":
        doc = _json(out / "nu_exact.json")
        vals = {"nu.delta": doc["delta"], "nu.xi": doc["xi"]}
        for i, row in enumerate(doc["nu"]):
            for j, (re, im) in enumerate(row):
                vals[f"nu.{i}.{j}.re"], vals[f"nu.{i}.{j}.im"] = re, im
        return vals
    if op.kind == "boundary":
        doc = _json(out / "boundary_summary.json")
        return {f"boundary.tv{r}": tv for r, tv in zip(doc["runways"], doc["tv_exact"])}
    if op.kind == "conform":
        return {f"conform.n{op.arg('--n')}.{k}": v
                for k, v in _json(out / "conformance.json")["deviations"].items()}
    return {}


def _z_problems(label: str, observed, expected, sigma) -> list[str]:
    problems = []
    for i, (o, e, s) in enumerate(zip(observed, expected, sigma)):
        if not abs(o - e) <= Z_MAX * s:
            problems.append(f"{label}[{i}] = {o:.6g}, expected {e:.6g} +- {Z_MAX:g} x {s:.3g}")
    return problems


class Checker:
    """Checks operation outputs against recorded references and exact quantities."""

    def __init__(self, reference: dict, variant: int):
        self.reference = reference["values"].get(str(variant), {})
        self._models: dict[str, object] = {}

    def _model(self, path: Path):
        from sptmbqc import model

        key = hashlib.sha256(path.read_bytes()).hexdigest()
        if key not in self._models:
            self._models[key] = model.load_model(path)
        return self._models[key]

    def check(self, op, pass_dir: Path) -> list[str]:
        """Problems with the outputs of one operation that exited as expected."""
        out = pass_dir / op.out if op.out else None
        try:
            problems = self._manifest(out) if op.argv[0] == "run" else []
            problems += self._exact(op, out)
            kind_check = getattr(self, f"_{op.kind}", None)
            if kind_check is not None:
                problems += kind_check(op, pass_dir, out)
        except (OSError, KeyError, ValueError, IndexError, TypeError) as exc:
            problems = [f"unreadable output: {type(exc).__name__}: {exc}"]
        return problems

    @staticmethod
    def _manifest(out: Path) -> list[str]:
        listed = _json(out / "manifest.json")["outputs"]
        return [f"manifest lists missing output {name}" for name in listed if not (out / name).is_file()]

    def _exact(self, op, out: Path) -> list[str]:
        ref = self.reference.get(op.point, {})
        problems = []
        for key, value in exact_values(op, out).items():
            if key not in ref:
                problems.append(f"no reference value for {op.point} {key}")
            elif not abs(value - ref[key]) <= EXACT_TOL:
                problems.append(f"{key} = {value!r}, reference {ref[key]!r}")
        return problems

    # -- per-kind checks ------------------------------------------------------

    def _build(self, op, pass_dir, out):
        return self._model_file(out / "model.json")

    def _perturb(self, op, pass_dir, out):
        return self._model_file(out / "model_perturbed.json")

    @staticmethod
    def _model_file(path: Path) -> list[str]:
        doc = _json(path)
        return [] if doc.get("schema") == "spt-mbqc/1" else [f"{path.name}: schema {doc.get('schema')!r}"]

    def _wire(self, op, pass_dir, out):
        """Trajectory records: shape, byproduct bookkeeping, and bulk outcome frequencies.

        In the bulk of a long wire each outcome k occurs with probability
        nu_kk; sites within a run are correlated, so the standard error is
        taken from the spread between independent runs.
        """
        trajectories = int(op.arg("--trajectories", "0"))
        if trajectories == 0:
            return []
        point = self._model(pass_dir / op.arg("--model"))
        n = int(op.arg("--n"))
        with open(out / "trajectories.jsonl") as fh:
            records = [json.loads(line) for line in fh]
        if len(records) != trajectories:
            return [f"{len(records)} trajectory records, expected {trajectories}"]
        problems = []
        for t, rec in enumerate(records):
            outcomes = rec["outcomes"]
            counts = np.bincount(outcomes, minlength=point.d) if outcomes else np.zeros(point.d)
            if len(outcomes) != n or list(counts) != rec["outcome_counts"]:
                problems.append(f"record {t}: {len(outcomes)} outcomes, counts {rec['outcome_counts']}")
                continue
            g = np.eye(point.D, dtype=complex)
            for s in outcomes:
                g = point.C[s] @ g
            byprod = np.array([[complex(re, im) for re, im in row] for row in rec["byproduct"]])
            if not np.allclose(byprod, g, atol=EXACT_TOL, rtol=0):
                problems.append(f"record {t}: byproduct is not the product of the outcome byproducts")
        if problems:
            return problems
        from sptmbqc import channel

        nu_diag = np.diag(channel.nu_matrix(point).nu).real
        bulk = np.array([np.bincount(rec["outcomes"][n // 4: 3 * n // 4], minlength=point.d)
                         for rec in records], dtype=float)
        bulk /= bulk.sum(axis=1, keepdims=True)
        m = 3 * n // 4 - n // 4
        se = bulk.std(axis=0, ddof=1) / math.sqrt(trajectories) if trajectories > 1 else 0.0
        floor = np.sqrt(nu_diag * (1 - nu_diag) / (trajectories * m))
        return _z_problems("bulk outcome frequency", bulk.mean(axis=0), nu_diag, np.maximum(se, floor))

    def _measure(self, op, pass_dir, out):
        """The command measures a uniform mixture, so each eigenphase is matched 1/m of the time."""
        from sptmbqc import gates

        point = self._model(pass_dir / op.arg("--model"))
        phis, _ = gates.eigenphase_groups(gates.pair_operator(point, _pair(op)))
        trials = int(op.arg("--trials"))
        rows = _rows(out / "measure_scatter.csv")
        if len(rows) != trials:
            return [f"{len(rows)} scatter rows, expected {trials}"]
        matched = [int(np.argmin(np.abs(phis - float(r["matched_eigenphase_rad"])))) for r in rows]
        freq = np.bincount(matched, minlength=len(phis)) / trials
        p = np.full(len(phis), 1.0 / len(phis))
        return _z_problems("matched eigenphase frequency", freq, p, np.sqrt(p * (1 - p) / trials))

    def _nu(self, op, pass_dir, out):
        doc = _json(out / "nu_selftest.json")
        n_diag = max(int(op.arg("--samples")) // 2, 1)
        truth = np.array(doc["diag_truth"])
        problems = _z_problems("nu diagonal estimate", doc["diag_estimate"], truth,
                               np.maximum(np.sqrt(truth * (1 - truth) / n_diag), 1.0 / n_diag))
        problems += _z_problems("|nu_10| estimate", [doc["abs_nu10_estimate"]],
                                [doc["abs_nu10_truth"]], [doc["abs_nu10_sigma"]])
        return problems

    def _born(self, op, pass_dir, out):
        rows = _rows(out / "born.csv")
        trials = int(op.arg("--trials"))
        return _z_problems("Born frequency", [float(r["frequency"]) for r in rows],
                           [float(r["born_probability"]) for r in rows],
                           [max(float(r["binomial_sigma"]), 1.0 / trials) for r in rows])

    def _boundary(self, op, pass_dir, out):
        """tv_sampled may not exceed tv_exact by more than Z_MAX standard errors.

        The sampled branch classifies outcomes with a finite weak measurement,
        which can only contract the distance between the two boundary
        treatments, so the check is one-sided.  On a runway where tv_exact is
        ~0 it tests that the PHI_RUNWAY sampler classifies like the PHI_TILDE
        one, which needs enough trials that the bound is well below 1.  It is
        coarse: with few weak-measurement blocks the classification hardly
        depends on the sampled sites, so it catches gross failures only.
        """
        doc = _json(out / "boundary_summary.json")
        trials = doc["trials"]
        if trials == 0:
            return [] if all(tv is None for tv in doc["tv_sampled"]) else ["tv_sampled without trials"]
        problems = []
        for r, tv_e, tv_s, pt, pr in zip(doc["runways"], doc["tv_exact"], doc["tv_sampled"],
                                         doc["p_tilde"], doc["p_runway"]):
            pt, pr = np.array(pt), np.array(pr)
            sigma = 0.5 * float(np.sum(np.sqrt((pt * (1 - pt) + pr * (1 - pr)) / trials)))
            if not tv_s <= tv_e + Z_MAX * max(sigma, 1.0 / trials):
                problems.append(f"runway {r}: tv_sampled {tv_s:.4g} > tv_exact {tv_e:.4g} + "
                                f"{Z_MAX:g} x {sigma:.3g}")
        return problems

    def _conform(self, op, pass_dir, out):
        doc = _json(out / "conformance.json")
        problems = []
        if not doc["max_deviation"] <= CONFORM_TOL:
            problems.append(f"max deviation {doc['max_deviation']:.3e} > {CONFORM_TOL:g}")
        if not doc["sampled_z"] <= Z_MAX:
            problems.append(f"sampled z-score {doc['sampled_z']:.2f} > {Z_MAX:g}")
        return problems
